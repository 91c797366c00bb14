//! Generators for the graph families used in the paper's analysis and in
//! the reproduction experiments.
//!
//! Deterministic families take size parameters; randomized families take an
//! explicit RNG so every experiment stays reproducible from a seed.
//!
//! The one bespoke construction is [`lower_bound_graph`], the three-layer
//! graph of Theorem 3.3 on which fault-free radio broadcast takes
//! `opt = m + 1` rounds but almost-safe broadcast needs
//! `Ω(log n · log log n / log log log n)` rounds.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::shard::{EdgeSink, ShardError};
use crate::{CsrGraph, Graph, GraphBuilder, NodeId};

/// The in-RAM [`EdgeSink`]: collects into a `(u32, u32)` edge list for
/// the buffered `_csr` build path. Infallible — the streamed cores
/// never emit endpoints `>= n`, and the `_csr` entry points already
/// bound `n` to the `u32` word.
struct VecSink<'a>(&'a mut Vec<(u32, u32)>);

impl EdgeSink for VecSink<'_> {
    fn edge(&mut self, u: u64, v: u64) -> Result<(), ShardError> {
        debug_assert!(u < u64::from(u32::MAX) && v < u64::from(u32::MAX));
        self.0.push((u as u32, v as u32));
        Ok(())
    }
}

/// Unwraps a streamed-core result for the in-RAM path, where the sink
/// cannot fail.
fn infallible(result: Result<(), ShardError>) {
    result.expect("in-memory edge sink cannot fail");
}

/// A path (the paper's "line") with `len` edges and `len + 1` nodes
/// `v0 - v1 - … - v_len`. The broadcast source is conventionally `v0`.
///
/// # Panics
///
/// Panics if `len == 0` would make a single-node path impossible — `len = 0`
/// yields the single node `v0`, which is allowed.
#[must_use]
pub fn path(len: usize) -> Graph {
    let mut b = GraphBuilder::new(len + 1);
    for i in 0..len {
        b.edge(i, i + 1);
    }
    b.finish().expect("path construction is valid")
}

/// A cycle on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.edge(i, (i + 1) % n);
    }
    b.finish().expect("cycle construction is valid")
}

/// A star `K_{1,leaves}`: center `v0` joined to `leaves` leaves.
///
/// This is the graph of the Theorem 2.4 impossibility argument (with the
/// source placed at a *leaf* and the star center relaying).
///
/// # Panics
///
/// Panics if `leaves == 0`.
#[must_use]
pub fn star(leaves: usize) -> Graph {
    assert!(leaves >= 1, "a star needs at least one leaf");
    let mut b = GraphBuilder::new(leaves + 1);
    for i in 1..=leaves {
        b.edge(0, i);
    }
    b.finish().expect("star construction is valid")
}

/// The complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn complete(n: usize) -> Graph {
    assert!(n >= 1, "complete graph needs at least one node");
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.edge(u, v);
        }
    }
    b.finish().expect("complete construction is valid")
}

/// The complete bipartite graph `K_{a,b}` (sides `0..a` and `a..a+b`).
///
/// # Panics
///
/// Panics if `a == 0` or `b == 0`.
#[must_use]
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a >= 1 && b >= 1, "both sides must be non-empty");
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in a..(a + b) {
            builder.edge(u, v);
        }
    }
    builder.finish().expect("bipartite construction is valid")
}

/// An `rows × cols` grid; node `(r, c)` has index `r * cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero.
#[must_use]
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                b.edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    b.finish().expect("grid construction is valid")
}

/// An `rows × cols` torus (grid with wrap-around edges).
///
/// # Panics
///
/// Panics if either dimension is `< 3` (smaller wrap-arounds collapse to
/// duplicate or self edges).
#[must_use]
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus dimensions must be >= 3");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.edge(idx(r, c), idx(r, (c + 1) % cols));
            b.edge(idx(r, c), idx((r + 1) % rows, c));
        }
    }
    b.finish().expect("torus construction is valid")
}

/// The `dim`-dimensional hypercube `Q_dim` on `2^dim` nodes; nodes differ
/// by one bit iff adjacent.
///
/// # Panics
///
/// Panics if `dim > 20` (guard against accidental huge graphs) .
#[must_use]
pub fn hypercube(dim: usize) -> Graph {
    assert!(dim <= 20, "hypercube dimension too large");
    let n = 1usize << dim;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for bit in 0..dim {
            let v = u ^ (1 << bit);
            if u < v {
                b.edge(u, v);
            }
        }
    }
    b.finish().expect("hypercube construction is valid")
}

/// A balanced `arity`-ary tree of the given `depth` (depth 0 = single
/// root). Node 0 is the root; children are appended level by level, so the
/// node indexing is already a BFS level order.
///
/// # Panics
///
/// Panics if `arity == 0`.
#[must_use]
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity >= 1, "arity must be positive");
    let mut parents: Vec<usize> = Vec::new(); // parents[i] = parent of node i+1
    let mut level_start = 0usize;
    let mut next = 1usize;
    for _ in 0..depth {
        let level_end = next;
        for p in level_start..level_end {
            for _ in 0..arity {
                parents.push(p);
                next += 1;
            }
        }
        level_start = level_end;
    }
    let mut b = GraphBuilder::new(next);
    for (child_minus_one, &p) in parents.iter().enumerate() {
        b.edge(p, child_minus_one + 1);
    }
    b.finish().expect("tree construction is valid")
}

/// A "broom": a path of `handle` edges whose far end fans out into
/// `bristles` leaves. Exhibits large `D` *and* a high-degree node, probing
/// the radio threshold's `Δ` dependence along a long route.
///
/// # Panics
///
/// Panics if `bristles == 0`.
#[must_use]
pub fn broom(handle: usize, bristles: usize) -> Graph {
    assert!(bristles >= 1, "broom needs at least one bristle");
    let n = handle + 1 + bristles;
    let mut b = GraphBuilder::new(n);
    for i in 0..handle {
        b.edge(i, i + 1);
    }
    for j in 0..bristles {
        b.edge(handle, handle + 1 + j);
    }
    b.finish().expect("broom construction is valid")
}

/// A caterpillar: a spine path of `spine` edges with `legs` leaves attached
/// to every spine node.
#[must_use]
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let spine_nodes = spine + 1;
    let n = spine_nodes + spine_nodes * legs;
    let mut b = GraphBuilder::new(n);
    for i in 0..spine {
        b.edge(i, i + 1);
    }
    let mut next = spine_nodes;
    for s in 0..spine_nodes {
        for _ in 0..legs {
            b.edge(s, next);
            next += 1;
        }
    }
    b.finish().expect("caterpillar construction is valid")
}

/// The binomial tree `B_k` on `2^k` nodes (root 0): `B_0` is a single
/// node; `B_k` links the roots of two copies of `B_{k-1}`.
///
/// # Panics
///
/// Panics if `k > 20`.
#[must_use]
pub fn binomial_tree(k: usize) -> Graph {
    assert!(k <= 20, "binomial tree order too large");
    let n = 1usize << k;
    let mut b = GraphBuilder::new(n);
    // Standard construction: node v's parent clears v's lowest set bit.
    for v in 1..n {
        let parent = v & (v - 1);
        b.edge(parent, v);
    }
    b.finish().expect("binomial tree construction is valid")
}

/// A uniformly random recursive tree on `n` nodes: node `i` attaches to a
/// uniform node `< i`. Connected by construction.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 1, "random tree needs at least one node");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.edge(rng.gen_range(0..v), v);
    }
    b.finish().expect("random tree construction is valid")
}

/// Streams each pair `{u, v}` (`u < v < n`) into `sink` independently
/// with probability `q`, in expected `O(n + q·n²)` time via the
/// Batagelj–Brandes geometric skip: instead of flipping one coin per
/// pair, the gap to the next sampled pair is drawn directly from the
/// geometric distribution, so the cost is proportional to the number of
/// edges *produced*, not the number of pairs *considered*.
fn sample_gnp_edges_into<S: EdgeSink, R: Rng + ?Sized>(
    sink: &mut S,
    n: usize,
    q: f64,
    rng: &mut R,
) -> Result<(), ShardError> {
    if q <= 0.0 || n < 2 {
        return Ok(());
    }
    if q >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                sink.edge(u as u64, v as u64)?;
            }
        }
        return Ok(());
    }
    // Pairs enumerated as (w, v) with w < v, row-major in v: the skip
    // walks a virtual triangular index without materializing it.
    let log1q = (1.0 - q).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    let max_skip = (n as i64) * (n as i64); // beyond the last pair
    while v < n {
        let r: f64 = rng.gen_range(0.0..1.0);
        // Geometric gap: failures before the next success.
        let skip = ((1.0 - r).ln() / log1q).min(max_skip as f64) as i64;
        w += 1 + skip;
        while v < n && w >= v as i64 {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            sink.edge(w as u64, v as u64)?;
        }
    }
    Ok(())
}

/// An Erdős–Rényi `G(n, q)`: every pair is an edge independently with
/// probability `q`. **May be disconnected** (that is the point — the
/// almost-complete broadcast regime floods the giant component); use
/// [`gnp_connected`] when an algorithm needs every node reachable.
///
/// Sampled with the Batagelj–Brandes geometric skip, so the cost is
/// `O(n + m)` rather than `O(n²)` — `n = 10⁶` at average degree 8 is
/// well within interactive range.
///
/// # Panics
///
/// Panics if `n == 0` or `q` is not in `[0, 1]`.
#[must_use]
pub fn gnp<R: Rng + ?Sized>(n: usize, q: f64, rng: &mut R) -> Graph {
    Graph::from(&gnp_csr(n, q, rng))
}

/// [`gnp`], built directly as a [`CsrGraph`] — no `Graph` conversion,
/// so peak build memory is the 8-byte-per-edge sample list plus the
/// `u32` CSR arrays (roughly half the validating-builder path). Draws
/// the same RNG stream as [`gnp`] and produces the identical graph.
///
/// # Panics
///
/// Panics if `n == 0` or `q` is not in `[0, 1]`.
#[must_use]
pub fn gnp_csr<R: Rng + ?Sized>(n: usize, q: f64, rng: &mut R) -> CsrGraph {
    let mut edges = Vec::new();
    infallible(gnp_edges(&mut VecSink(&mut edges), n, q, rng));
    CsrGraph::from_edges(n, &edges)
}

/// Streams the `G(n, q)` edge run of [`gnp_csr`] into `sink` — the
/// identical RNG stream and edge sequence, without ever materializing
/// the edge list. With a [`crate::shard::SpillSink`] this is the
/// out-of-core build path: bounded RAM regardless of `m`.
///
/// # Errors
///
/// Propagates the sink's [`ShardError`]s (in-RAM sinks are infallible).
///
/// # Panics
///
/// Panics if `n == 0` or `q` is not in `[0, 1]`.
pub fn gnp_edges<S: EdgeSink, R: Rng + ?Sized>(
    sink: &mut S,
    n: usize,
    q: f64,
    rng: &mut R,
) -> Result<(), ShardError> {
    assert!(n >= 1, "gnp needs at least one node");
    assert!(
        (0.0..=1.0).contains(&q),
        "edge probability must be in [0,1]"
    );
    sample_gnp_edges_into(sink, n, q, rng)
}

/// An Erdős–Rényi `G(n, q)` conditioned on connectivity: a uniformly
/// random recursive-tree skeleton guarantees connectivity and `G(n, q)`
/// skip-sampling adds density on top (duplicates with the skeleton
/// merge). Runs in expected `O(n + m)` — the former per-pair double loop
/// made `n = 10⁵` infeasible.
///
/// # Panics
///
/// Panics if `n == 0` or `q` is not in `[0, 1]`.
#[must_use]
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, q: f64, rng: &mut R) -> Graph {
    Graph::from(&gnp_connected_csr(n, q, rng))
}

/// [`gnp_connected`], built directly as a [`CsrGraph`] (see
/// [`gnp_csr`] for the memory story). Draws the same RNG stream as
/// [`gnp_connected`] and produces the identical graph.
///
/// # Panics
///
/// Panics if `n == 0` or `q` is not in `[0, 1]`.
#[must_use]
pub fn gnp_connected_csr<R: Rng + ?Sized>(n: usize, q: f64, rng: &mut R) -> CsrGraph {
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    infallible(gnp_connected_edges(&mut VecSink(&mut edges), n, q, rng));
    CsrGraph::from_edges(n, &edges)
}

/// Streams the edge run of [`gnp_connected_csr`] into `sink` —
/// identical RNG stream and edge sequence (skeleton first, then the
/// `G(n, q)` overlay; duplicates merge downstream), without
/// materializing the edge list.
///
/// # Errors
///
/// Propagates the sink's [`ShardError`]s (in-RAM sinks are infallible).
///
/// # Panics
///
/// Panics if `n == 0` or `q` is not in `[0, 1]`.
pub fn gnp_connected_edges<S: EdgeSink, R: Rng + ?Sized>(
    sink: &mut S,
    n: usize,
    q: f64,
    rng: &mut R,
) -> Result<(), ShardError> {
    assert!(n >= 1, "gnp needs at least one node");
    assert!(
        (0.0..=1.0).contains(&q),
        "edge probability must be in [0,1]"
    );
    // Random recursive-tree skeleton keeps it connected.
    for v in 1..n {
        sink.edge(rng.gen_range(0..v) as u64, v as u64)?;
    }
    sample_gnp_edges_into(sink, n, q, rng)
}

/// A random geometric (unit-disk) graph: `n` points uniform in the unit
/// square, adjacent iff within Euclidean distance `radius`. **May be
/// disconnected** below the connectivity threshold
/// `radius ≈ √(ln n / (π n))` — the almost-complete broadcast regime.
///
/// Neighbor search uses a grid of cells of width `≥ radius`, so only
/// the 3×3 surrounding cells are scanned per node: expected `O(n + m)`
/// overall instead of the all-pairs `O(n²)`.
///
/// # Panics
///
/// Panics if `n == 0` or `radius` is not a positive finite number.
#[must_use]
pub fn random_geometric<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    Graph::from(&random_geometric_csr(n, radius, rng))
}

/// [`random_geometric`], built directly as a [`CsrGraph`] (see
/// [`gnp_csr`] for the memory story). Draws the same RNG stream as
/// [`random_geometric`] and produces the identical graph. The edge
/// *set* is a pure function of the RNG stream; its emission order is
/// not part of the contract, and the per-row sort of
/// [`CsrGraph::from_edges`] makes the CSR byte-identical regardless.
///
/// # Panics
///
/// Panics if `n == 0` or `radius` is not a positive finite number.
#[must_use]
pub fn random_geometric_csr<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> CsrGraph {
    let mut edges = Vec::new();
    infallible(random_geometric_edges(
        &mut VecSink(&mut edges),
        n,
        radius,
        rng,
    ));
    CsrGraph::from_edges(n, &edges)
}

/// Streams the edge run of [`random_geometric_csr`] into `sink` — the
/// same RNG stream and edge set, each edge once as `(i, j)` with
/// `i < j`. Emission is cell-major (the points are counting-sorted by
/// grid cell and each cell's points read their three neighbouring row
/// ranges contiguously), so the order is not node-major; both
/// consumers sort every adjacency row ([`CsrGraph::from_edges`] and
/// [`SpillSink::finalize`](crate::shard::SpillSink::finalize)), so the
/// CSR and the shard segments are byte-identical to a node-major
/// emission. Retains the `O(n)` point state (24 bytes per node plus
/// one offset per cell) but never the edge list, so the out-of-core
/// build is bounded by nodes, not edges.
///
/// # Errors
///
/// Propagates the sink's [`ShardError`]s (in-RAM sinks are infallible).
///
/// # Panics
///
/// Panics if `n == 0`, `n` exceeds the `u32` id range, or `radius` is
/// not a positive finite number.
pub fn random_geometric_edges<S: EdgeSink, R: Rng + ?Sized>(
    sink: &mut S,
    n: usize,
    radius: f64,
    rng: &mut R,
) -> Result<(), ShardError> {
    assert!(n >= 1, "random geometric graph needs at least one node");
    assert!(u32::try_from(n).is_ok(), "node ids must fit in u32");
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive and finite"
    );
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    // Square cells at least `radius` wide: all neighbors of a point lie
    // in its own or the 8 adjacent cells. More than ~√n cells per side
    // buys nothing (cells would be mostly empty), so the grid is capped
    // there — wider cells only enlarge the scanned candidate set.
    let max_side = ((n as f64).sqrt().ceil() as usize).max(1);
    let side = ((1.0 / radius.min(1.0)).floor().max(1.0) as usize).min(max_side);
    let cell_of = |(x, y): (f64, f64)| {
        let axis = |coord: f64| ((coord * side as f64) as usize).min(side - 1);
        axis(y) * side + axis(x)
    };
    // Counting sort into one flat cell-major array: cell `c` (row-major,
    // `c = cy·side + cx`) owns `sites[start[c]..start[c + 1]]`, ids
    // ascending. Adjacent cells of one grid row are adjacent runs, so a
    // point's three candidate cells in a row are one contiguous slice.
    let mut start = vec![0usize; side * side + 1];
    for &p in &points {
        start[cell_of(p) + 1] += 1;
    }
    for c in 0..side * side {
        start[c + 1] += start[c];
    }
    let mut sites = vec![Site::default(); n];
    let mut cursor = start.clone();
    for (i, &(x, y)) in points.iter().enumerate() {
        let slot = &mut cursor[cell_of((x, y))];
        sites[*slot] = Site { x, y, id: i as u32 };
        *slot += 1;
    }
    drop((points, cursor));
    let r2 = radius * radius;
    for cy in 0..side {
        let rows = cy.saturating_sub(1)..=(cy + 1).min(side - 1);
        for cx in 0..side {
            let (lo, hi) = (cx.saturating_sub(1), (cx + 1).min(side - 1));
            let c = cy * side + cx;
            for a in &sites[start[c]..start[c + 1]] {
                for ny in rows.clone() {
                    let row = ny * side;
                    for b in &sites[start[row + lo]..start[row + hi + 1]] {
                        if b.id <= a.id {
                            continue; // each pair once, no self-loops
                        }
                        let (dx, dy) = (b.x - a.x, b.y - a.y);
                        if dx * dx + dy * dy <= r2 {
                            sink.edge(u64::from(a.id), u64::from(b.id))?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// One point of [`random_geometric_edges`] in its cell-major array.
#[derive(Clone, Copy, Default)]
struct Site {
    x: f64,
    y: f64,
    id: u32,
}

/// A preferential-attachment (Barabási–Albert) graph: node `v ≥ 1`
/// attaches to `min(m, v)` *distinct* earlier nodes, each chosen with
/// probability proportional to its current degree (uniform over earlier
/// nodes while the graph has no edges yet). Connected by construction
/// and scale-free in the degree tail — the heavy-hub stress case for
/// broadcast frontiers.
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
#[must_use]
pub fn preferential_attachment<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    Graph::from(&preferential_attachment_csr(n, m, rng))
}

/// [`preferential_attachment`], built directly as a [`CsrGraph`] (see
/// [`gnp_csr`] for the memory story). Draws the same RNG stream as
/// [`preferential_attachment`] and produces the identical graph.
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
#[must_use]
pub fn preferential_attachment_csr<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m * n.saturating_sub(1));
    infallible(preferential_attachment_edges(
        &mut VecSink(&mut edges),
        n,
        m,
        rng,
    ));
    CsrGraph::from_edges(n, &edges)
}

/// Streams the edge run of [`preferential_attachment_csr`] into `sink`
/// — identical RNG stream and edge sequence. The degree-proportional
/// endpoint list (`2m` entries per node) is inherent to the model and
/// stays resident, but the edge list itself is never buffered.
///
/// # Errors
///
/// Propagates the sink's [`ShardError`]s (in-RAM sinks are infallible).
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
pub fn preferential_attachment_edges<S: EdgeSink, R: Rng + ?Sized>(
    sink: &mut S,
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<(), ShardError> {
    assert!(n >= 1, "preferential attachment needs at least one node");
    assert!(m >= 1, "each node must attach at least one edge");
    // Every edge endpoint appears once: sampling an index uniformly from
    // this list is degree-proportional sampling.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * m * n.saturating_sub(1));
    let mut chosen: Vec<u32> = Vec::with_capacity(m);
    for v in 1..n {
        let k = m.min(v);
        chosen.clear();
        // Rejection-sample distinct targets; duplicates are rare while
        // k ≪ v, and the deterministic fallback below bounds the tail.
        let mut attempts = 0usize;
        while chosen.len() < k && attempts < 16 * (k + 4) {
            attempts += 1;
            let t = if endpoints.is_empty() {
                rng.gen_range(0..v) as u32
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        // Fallback (only reachable when k is close to v): take the
        // smallest not-yet-chosen earlier nodes.
        let mut next = 0u32;
        while chosen.len() < k {
            if !chosen.contains(&next) {
                chosen.push(next);
            }
            next += 1;
        }
        for &t in &chosen {
            sink.edge(t as u64, v as u64)?;
            endpoints.push(t);
            endpoints.push(v as u32);
        }
    }
    Ok(())
}

/// A random connected graph: random recursive tree plus **exactly**
/// `extra` additional distinct edges. Candidate extra edges that would
/// duplicate an existing edge are resampled (they used to be silently
/// merged, yielding fewer edges than requested); when rejection sampling
/// stalls — only possible near saturation — the remaining edges are
/// drawn directly from the explicit complement, so the edge count is
/// always `n − 1 + extra`.
///
/// # Panics
///
/// Panics if `n < 2` or `extra` exceeds the `n(n−1)/2 − (n−1)` free
/// slots left by the spanning tree.
#[must_use]
pub fn random_connected<R: Rng + ?Sized>(n: usize, extra: usize, rng: &mut R) -> Graph {
    assert!(n >= 2, "random connected graph needs at least two nodes");
    let capacity = n * (n - 1) / 2 - (n - 1);
    assert!(
        extra <= capacity,
        "requested {extra} extra edges but only {capacity} fit"
    );
    let mut b = GraphBuilder::new(n);
    let mut present: HashSet<(usize, usize)> = HashSet::with_capacity(n - 1 + extra);
    for v in 1..n {
        let u = rng.gen_range(0..v);
        b.edge(u, v);
        present.insert((u, v));
    }
    // Rejection sampling with a retry cap: each attempt succeeds with
    // probability (free slots / all pairs), so the cap is generous for
    // every non-saturated graph.
    let mut placed = 0usize;
    let mut attempts = 0usize;
    let cap = 64 * extra + 256;
    while placed < extra && attempts < cap {
        attempts += 1;
        // A uniform unordered pair of distinct nodes.
        let u = rng.gen_range(0..n);
        let mut v = rng.gen_range(0..n - 1);
        if v >= u {
            v += 1;
        }
        let pair = (u.min(v), u.max(v));
        if present.insert(pair) {
            b.edge(pair.0, pair.1);
            placed += 1;
        }
    }
    if placed < extra {
        // Near saturation: enumerate the complement and draw uniformly.
        let mut free: Vec<(usize, usize)> = Vec::with_capacity(capacity - placed);
        for u in 0..n {
            for v in (u + 1)..n {
                if !present.contains(&(u, v)) {
                    free.push((u, v));
                }
            }
        }
        free.shuffle(rng);
        for &(u, v) in free.iter().take(extra - placed) {
            b.edge(u, v);
        }
    }
    b.finish().expect("random connected construction is valid")
}

/// A wheel: a cycle of `rim >= 3` nodes (`1..=rim`) all joined to a hub
/// (node 0). Diameter 2 with high maximum degree — a stress case for the
/// radio threshold.
///
/// # Panics
///
/// Panics if `rim < 3`.
#[must_use]
pub fn wheel(rim: usize) -> Graph {
    assert!(rim >= 3, "wheel rim needs at least 3 nodes");
    let mut b = GraphBuilder::new(rim + 1);
    for i in 1..=rim {
        b.edge(0, i);
        let next = if i == rim { 1 } else { i + 1 };
        b.edge(i, next);
    }
    b.finish().expect("wheel construction is valid")
}

/// A circulant graph `C_n(offsets)`: node `i` is adjacent to
/// `i ± o (mod n)` for every offset `o`. Regular with degree up to
/// `2·|offsets|`; a convenient family of expanders for fixed degree.
///
/// # Panics
///
/// Panics if `n < 3`, an offset is 0, or an offset is `>= n`.
#[must_use]
pub fn circulant(n: usize, offsets: &[usize]) -> Graph {
    assert!(n >= 3, "circulant needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for &o in offsets {
        assert!(o >= 1 && o < n, "offset out of range");
        for i in 0..n {
            if (i + o) % n != i {
                b.edge(i, (i + o) % n);
            }
        }
    }
    b.finish().expect("circulant construction is valid")
}

/// A lollipop: a complete graph on `clique` nodes with a path of `tail`
/// edges attached to node 0. Combines a dense core (collision pressure)
/// with a long tail (large `D`).
///
/// # Panics
///
/// Panics if `clique < 2`.
#[must_use]
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    assert!(clique >= 2, "lollipop needs at least a 2-clique");
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for u in 0..clique {
        for v in (u + 1)..clique {
            b.edge(u, v);
        }
    }
    for i in 0..tail {
        let prev = if i == 0 { 0 } else { clique + i - 1 };
        b.edge(prev, clique + i);
    }
    b.finish().expect("lollipop construction is valid")
}

/// A double star: two adjacent centers with `left` and `right` leaves
/// respectively — the minimal graph with two high-degree bottlenecks in
/// series.
///
/// # Panics
///
/// Panics if either side has no leaves.
#[must_use]
pub fn double_star(left: usize, right: usize) -> Graph {
    assert!(left >= 1 && right >= 1, "both stars need leaves");
    let n = 2 + left + right;
    let mut b = GraphBuilder::new(n);
    b.edge(0, 1);
    for i in 0..left {
        b.edge(0, 2 + i);
    }
    for i in 0..right {
        b.edge(1, 2 + left + i);
    }
    b.finish().expect("double star construction is valid")
}

/// The three-layer lower-bound graph `G(m)` of Theorem 3.3.
///
/// * Layer 1: the root `s` (node 0) — the broadcast source.
/// * Layer 2: "bit" nodes `b_1 … b_m` (nodes `1..=m`), all adjacent to `s`.
/// * Layer 3: nodes `1 … 2^m − 1` (graph ids `m+1 ..`), where layer-3 node
///   with *value* `v` is adjacent to `b_i` iff bit `i` of `v` is 1
///   (bit 1 = least significant).
///
/// Total `n = 2^m + m` nodes. Fault-free radio broadcast takes exactly
/// `m + 1` rounds (Lemma 3.3) while almost-safe broadcast requires
/// `Ω(log n · log log n / log log log n)` rounds (Lemma 3.4).
///
/// # Panics
///
/// Panics if `m == 0` or `m > 24`.
#[must_use]
pub fn lower_bound_graph(m: usize) -> Graph {
    assert!(m >= 1, "G(m) needs at least one bit node");
    assert!(m <= 24, "G(m) too large");
    let big_n = 1usize << m;
    let n = big_n + m; // 1 root + m bit nodes + (2^m - 1) value nodes
    let mut b = GraphBuilder::new(n);
    for i in 1..=m {
        b.edge(0, i);
    }
    for value in 1..big_n {
        let node = m + value; // graph id of layer-3 node with this value
        for bit in 0..m {
            if value & (1 << bit) != 0 {
                b.edge(bit + 1, node);
            }
        }
    }
    b.finish().expect("lower-bound graph construction is valid")
}

/// Helpers for addressing [`lower_bound_graph`] nodes symbolically.
pub mod lb {
    use super::NodeId;

    /// The root/source `s`.
    #[must_use]
    pub fn root() -> NodeId {
        NodeId::new(0)
    }

    /// Layer-2 bit node `b_i` for `i ∈ 1..=m`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of `1..=m`.
    #[must_use]
    pub fn bit_node(m: usize, i: usize) -> NodeId {
        assert!((1..=m).contains(&i), "bit index out of range");
        NodeId::new(i)
    }

    /// Layer-3 node carrying binary value `value ∈ 1..2^m`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is out of range.
    #[must_use]
    pub fn value_node(m: usize, value: usize) -> NodeId {
        assert!(value >= 1 && value < (1 << m), "value out of range");
        NodeId::new(m + value)
    }

    /// The value of a layer-3 node, or `None` for layers 1–2.
    #[must_use]
    pub fn value_of(m: usize, v: NodeId) -> Option<usize> {
        (v.index() > m).then(|| v.index() - m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(3);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree(g.node(0)), 1);
    }

    #[test]
    fn single_node_path() {
        let g = path(0);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(5);
        assert_eq!(g.edge_count(), 5);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.degree(g.node(0)), 6);
        for i in 1..=6 {
            assert_eq!(g.degree(g.node(i)), 1);
        }
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn bipartite_shape() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(g.node(0)), 3);
        assert_eq!(g.degree(g.node(2)), 2);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(traversal::radius_from(&g, g.node(0)), 2 + 3);
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(3, 4);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.edge_count(), 2 * 12);
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(3);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 12);
        assert!(g.nodes().all(|v| g.degree(v) == 3));
    }

    #[test]
    fn balanced_tree_counts() {
        // arity 2, depth 3: 1 + 2 + 4 + 8 = 15 nodes
        let g = balanced_tree(2, 3);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert_eq!(traversal::radius_from(&g, g.node(0)), 3);
    }

    #[test]
    fn balanced_tree_depth_zero() {
        let g = balanced_tree(3, 0);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn broom_shape() {
        let g = broom(4, 5);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.max_degree(), 6); // handle end: 1 path edge + 5 bristles
        assert_eq!(traversal::radius_from(&g, g.node(0)), 5);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(3, 2);
        assert_eq!(g.node_count(), 4 + 8);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn binomial_tree_shape() {
        let g = binomial_tree(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.degree(g.node(0)), 4); // root of B_4 has degree 4
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = random_tree(50, &mut rng);
        assert_eq!(g.edge_count(), 49);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn gnp_connected_is_connected() {
        let mut rng = SmallRng::seed_from_u64(11);
        for q in [0.0, 0.05, 0.5] {
            let g = gnp_connected(40, q, &mut rng);
            assert!(traversal::is_connected(&g));
        }
    }

    #[test]
    fn gnp_edge_count_tracks_density() {
        let mut rng = SmallRng::seed_from_u64(23);
        let n = 600;
        let q = 8.0 / (n - 1) as f64; // average degree ~8
        let g = gnp(n, q, &mut rng);
        let expected = q * (n * (n - 1) / 2) as f64;
        let m = g.edge_count() as f64;
        assert!(
            (m - expected).abs() < 5.0 * expected.sqrt(),
            "m={m} expected={expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = SmallRng::seed_from_u64(29);
        assert_eq!(gnp(25, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(gnp(25, 1.0, &mut rng).edge_count(), 25 * 24 / 2);
        assert_eq!(gnp(1, 0.7, &mut rng).node_count(), 1);
    }

    #[test]
    fn gnp_matches_per_pair_sampling_statistically() {
        // The skip-sampler must produce the same edge-count distribution
        // as per-pair coins; compare means over many seeds.
        let (n, q, reps) = (40usize, 0.1f64, 200);
        let mut total = 0usize;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            total += gnp(n, q, &mut rng).edge_count();
        }
        let mean = total as f64 / reps as f64;
        let expected = q * (n * (n - 1) / 2) as f64;
        let se = (expected * (1.0 - q) / reps as f64).sqrt();
        assert!(
            (mean - expected).abs() < 4.0 * se,
            "mean={mean} expected={expected}"
        );
    }

    #[test]
    fn random_geometric_radius_extremes() {
        let mut rng = SmallRng::seed_from_u64(31);
        // Radius covering the whole square: complete graph.
        let g = random_geometric(20, 1.5, &mut rng);
        assert_eq!(g.edge_count(), 20 * 19 / 2);
        // Vanishing radius: virtually surely no edges.
        let g = random_geometric(50, 1e-9, &mut rng);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn random_geometric_matches_naive_neighborhoods() {
        // Grid-bucket adjacency must equal the all-pairs definition; the
        // same seed re-derives the same points.
        let (n, radius) = (120usize, 0.18);
        let mut rng = SmallRng::seed_from_u64(37);
        let g = random_geometric(n, radius, &mut rng);
        let mut rng2 = SmallRng::seed_from_u64(37);
        let points: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng2.gen_range(0.0..1.0), rng2.gen_range(0.0..1.0)))
            .collect();
        let mut expected = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (points[j].0 - points[i].0, points[j].1 - points[i].1);
                let adjacent = dx * dx + dy * dy <= radius * radius;
                expected += usize::from(adjacent);
                assert_eq!(g.has_edge(g.node(i), g.node(j)), adjacent, "pair {i},{j}");
            }
        }
        assert_eq!(g.edge_count(), expected);
    }

    /// The all-pairs unit-disk graph on the points `seed` draws — the
    /// definition the cell-major scan must reproduce.
    fn brute_force_rgg(n: usize, radius: f64, seed: u64) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let points: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (points[j].0 - points[i].0, points[j].1 - points[i].1);
                if dx * dx + dy * dy <= radius * radius {
                    edges.push((i as u32, j as u32));
                }
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// `(n, radius)` cases covering every grid regime: side `⌊1/r⌋`,
    /// side capped at `⌈√n⌉` (tiny radii), a single cell (`r ≥ 1`,
    /// including `r > 1`), and `n = 1`.
    const RGG_CASES: [(usize, f64); 8] = [
        (1, 0.3),
        (2, 0.5),
        (150, 0.12),
        (150, 0.3),
        (90, 0.02),
        (200, 0.004),
        (60, 1.0),
        (40, 1.7),
    ];

    #[test]
    fn random_geometric_csr_matches_brute_force() {
        for (n, radius) in RGG_CASES {
            for seed in [71, 72, 73] {
                let csr = random_geometric_csr(n, radius, &mut SmallRng::seed_from_u64(seed));
                assert_eq!(
                    csr,
                    brute_force_rgg(n, radius, seed),
                    "n={n} r={radius} seed={seed}"
                );
            }
        }
        // The capped cases really are capped.
        assert!((1.0 / 0.02f64).floor() > (90f64).sqrt().ceil());
    }

    #[test]
    fn random_geometric_spill_segments_match_the_in_ram_csr() {
        use crate::shard::{ShardPlan, ShardScratch, SpillSink};
        for (n, radius) in RGG_CASES {
            let seed = 74;
            let expect = random_geometric_csr(n, radius, &mut SmallRng::seed_from_u64(seed));
            let mut sink = SpillSink::create(
                crate::shard::default_scratch_dir(),
                ShardPlan::uniform(n, 3.min(n)),
            )
            .expect("create sink");
            random_geometric_edges(&mut sink, n, radius, &mut SmallRng::seed_from_u64(seed))
                .expect("stream");
            let disk = sink.finalize().expect("finalize");
            assert_eq!(disk.edge_count() as usize, expect.edge_count());
            let mut scratch = ShardScratch::new();
            for s in 0..disk.plan().shard_count() {
                let view = disk.load(s, &mut scratch).expect("load");
                for v in view.start()..view.end() {
                    assert_eq!(
                        view.targets_of(v),
                        expect.neighbors_of(v as usize),
                        "n={n} r={radius} node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_generators_match_their_csr_twins_through_the_spill() {
        use crate::shard::{ShardPlan, ShardScratch, SpillSink};
        let n = 220usize;
        type StreamFn = Box<dyn Fn(&mut SpillSink, &mut SmallRng) -> Result<(), ShardError>>;
        let cases: Vec<(&str, u64, CsrGraph, StreamFn)> = vec![
            (
                "gnp",
                61,
                gnp_csr(n, 0.03, &mut SmallRng::seed_from_u64(61)),
                Box::new(move |sink, rng| gnp_edges(sink, n, 0.03, rng)),
            ),
            (
                "gnp_connected",
                62,
                gnp_connected_csr(n, 0.02, &mut SmallRng::seed_from_u64(62)),
                Box::new(move |sink, rng| gnp_connected_edges(sink, n, 0.02, rng)),
            ),
            (
                "rgg",
                63,
                random_geometric_csr(n, 0.12, &mut SmallRng::seed_from_u64(63)),
                Box::new(move |sink, rng| random_geometric_edges(sink, n, 0.12, rng)),
            ),
            (
                "pa",
                64,
                preferential_attachment_csr(n, 3, &mut SmallRng::seed_from_u64(64)),
                Box::new(move |sink, rng| preferential_attachment_edges(sink, n, 3, rng)),
            ),
        ];
        for (name, seed, expect, stream) in cases {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sink = SpillSink::create(
                crate::shard::default_scratch_dir(),
                ShardPlan::uniform(n, 3),
            )
            .expect("create sink");
            stream(&mut sink, &mut rng).expect("stream");
            let disk = sink.finalize().expect("finalize");
            assert_eq!(disk.edge_count() as usize, expect.edge_count(), "{name}");
            let mut scratch = ShardScratch::new();
            for s in 0..disk.plan().shard_count() {
                let view = disk.load(s, &mut scratch).expect("load");
                for v in view.start()..view.end() {
                    assert_eq!(
                        view.targets_of(v),
                        expect.neighbors_of(v as usize),
                        "{name} node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn csr_generators_match_their_graph_twins() {
        // Each `_csr` generator must draw the same RNG stream and
        // produce the identical graph as the `Graph`-returning wrapper.
        let cases: Vec<(Graph, CsrGraph)> = vec![
            (
                gnp(250, 0.03, &mut SmallRng::seed_from_u64(51)),
                gnp_csr(250, 0.03, &mut SmallRng::seed_from_u64(51)),
            ),
            (
                gnp_connected(250, 0.02, &mut SmallRng::seed_from_u64(52)),
                gnp_connected_csr(250, 0.02, &mut SmallRng::seed_from_u64(52)),
            ),
            (
                random_geometric(250, 0.12, &mut SmallRng::seed_from_u64(53)),
                random_geometric_csr(250, 0.12, &mut SmallRng::seed_from_u64(53)),
            ),
            (
                preferential_attachment(250, 3, &mut SmallRng::seed_from_u64(54)),
                preferential_attachment_csr(250, 3, &mut SmallRng::seed_from_u64(54)),
            ),
        ];
        for (g, csr) in cases {
            assert_eq!(Graph::from(&csr), g);
            assert_eq!(CsrGraph::from(&g), csr);
        }
    }

    #[test]
    fn preferential_attachment_shape() {
        let (n, m) = (300usize, 3usize);
        let mut rng = SmallRng::seed_from_u64(41);
        let g = preferential_attachment(n, m, &mut rng);
        assert!(traversal::is_connected(&g));
        // Node v contributes exactly min(m, v) distinct new edges.
        let expected: usize = (1..n).map(|v| m.min(v)).sum();
        assert_eq!(g.edge_count(), expected);
        for v in 1..n {
            assert!(g.degree(g.node(v)) >= m.min(v), "node {v}");
        }
    }

    #[test]
    fn preferential_attachment_grows_hubs() {
        let mut rng = SmallRng::seed_from_u64(43);
        let g = preferential_attachment(2000, 2, &mut rng);
        // Scale-free tail: the max degree should far exceed the mean (4).
        assert!(g.max_degree() > 20, "max degree {}", g.max_degree());
    }

    #[test]
    fn random_connected_has_exactly_requested_edges() {
        let mut rng = SmallRng::seed_from_u64(13);
        for (n, extra) in [(30usize, 20usize), (10, 0), (12, 7)] {
            let g = random_connected(n, extra, &mut rng);
            assert_eq!(g.edge_count(), n - 1 + extra, "n={n} extra={extra}");
            assert!(traversal::is_connected(&g));
        }
    }

    #[test]
    fn random_connected_saturates_exactly() {
        // extra = every free slot: the result is the complete graph.
        let mut rng = SmallRng::seed_from_u64(17);
        let n = 9;
        let capacity = n * (n - 1) / 2 - (n - 1);
        let g = random_connected(n, capacity, &mut rng);
        assert_eq!(g.edge_count(), n * (n - 1) / 2);
    }

    #[test]
    #[should_panic(expected = "extra edges")]
    fn random_connected_rejects_oversaturation() {
        let mut rng = SmallRng::seed_from_u64(19);
        let _ = random_connected(5, 100, &mut rng);
    }

    #[test]
    fn lower_bound_graph_structure() {
        let m = 4;
        let g = lower_bound_graph(m);
        assert_eq!(g.node_count(), (1 << m) + m);
        // Root adjacent to exactly the m bit nodes.
        assert_eq!(g.degree(lb::root()), m);
        // Value node 0b1010 (=10) adjacent to b_2 and b_4.
        let v = lb::value_node(m, 0b1010);
        let nb: Vec<_> = g.neighbors(v).to_vec();
        assert_eq!(nb, vec![lb::bit_node(m, 2), lb::bit_node(m, 4)]);
        // Bit node b_i adjacent to root plus 2^{m-1} - ? value nodes:
        // values with bit i set: 2^{m-1} of them, minus none (value 0 absent
        // but has no bits set anyway).
        for i in 1..=m {
            assert_eq!(g.degree(lb::bit_node(m, i)), 1 + (1 << (m - 1)));
        }
        assert!(traversal::is_connected(&g));
        assert_eq!(traversal::radius_from(&g, lb::root()), 2);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(6);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.degree(g.node(0)), 6);
        assert!((1..=6).all(|i| g.degree(g.node(i)) == 3));
        assert_eq!(traversal::diameter(&g), 2);
    }

    #[test]
    fn circulant_is_regular() {
        let g = circulant(10, &[1, 3]);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn circulant_half_offset_degree() {
        // Offset n/2 pairs nodes up: degree contribution 1, not 2.
        let g = circulant(6, &[3]);
        assert!(g.nodes().all(|v| g.degree(v) == 1));
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6 + 3);
        assert_eq!(traversal::radius_from(&g, g.node(6)), 4);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn double_star_shape() {
        let g = double_star(3, 5);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.degree(g.node(0)), 4);
        assert_eq!(g.degree(g.node(1)), 6);
        assert_eq!(g.max_degree(), 6);
        assert_eq!(traversal::diameter(&g), 3);
    }

    #[test]
    fn lb_value_round_trip() {
        let m = 5;
        for value in 1..(1usize << m) {
            let v = lb::value_node(m, value);
            assert_eq!(lb::value_of(m, v), Some(value));
        }
        assert_eq!(lb::value_of(m, lb::root()), None);
        assert_eq!(lb::value_of(m, lb::bit_node(m, 3)), None);
    }
}
