//! Flat compressed-sparse-row adjacency — the shared simulation
//! substrate of the large-`n` fast-path engines.
//!
//! [`Graph`] already stores CSR internally, but with `usize` offsets and
//! a validating, edge-list-buffering builder that was designed for
//! correctness at experiment sizes, not for `n = 10⁶` construction.
//! [`CsrGraph`] is the lean sibling over `u32` words — `u32` ids address
//! 4 × 10⁹ nodes, which covers the 10⁸ scale tier with room to spare —
//! built either losslessly from a [`Graph`] (both directions preserve
//! adjacency exactly) or *directly* from an edge list by counting sort —
//! the path the scalable generators
//! ([`crate::generators::gnp_csr`] and friends) use to skip the
//! 16-byte-per-edge builder buffer and roughly halve peak build memory.
//!
//! The all-ones word `u32::MAX` is reserved as a sentinel, so an edge
//! endpoint at or past it is a **typed error**
//! ([`CsrError::EndpointOverflow`]), checked before the range check.
//!
//! [`CsrTree`] is the BFS spanning structure the kernels share: the
//! level order of the source's component plus per-parent child lists in
//! one flat CSR, computed without touching nodes outside the component
//! (so disconnected graphs are fine — the almost-complete broadcast
//! regime).

use std::fmt;

use crate::{Graph, NodeId};

/// A typed rejection from the CSR builders.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CsrError {
    /// The graph would have no nodes.
    EmptyGraph,
    /// `n` does not fit the target word (ids `0..n` must be usable).
    TooManyNodes {
        /// Requested node count.
        n: u64,
        /// Largest usable index for the word.
        max: u64,
    },
    /// An edge endpoint does not fit the target word — the silent
    /// `u64 → u32` truncation this variant exists to prevent.
    EndpointOverflow {
        /// The offending endpoint value.
        endpoint: u64,
        /// Largest usable index for the word.
        max: u64,
    },
    /// An edge joins a node to itself.
    SelfLoop {
        /// The offending node.
        node: u64,
    },
    /// An edge endpoint is `>= n`.
    OutOfRange {
        /// The offending endpoint value.
        endpoint: u64,
        /// The node count it must stay below.
        n: u64,
    },
    /// The directed adjacency (2 entries per undirected edge) does not
    /// fit the target word's offset range.
    AdjacencyOverflow {
        /// Largest usable index for the word.
        max: u64,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CsrError::EmptyGraph => write!(f, "graph must have at least one node"),
            CsrError::TooManyNodes { n, max } => {
                write!(f, "node count {n} exceeds the width's usable range ({max})")
            }
            CsrError::EndpointOverflow { endpoint, max } => write!(
                f,
                "edge endpoint {endpoint} exceeds the target word (max usable index {max})"
            ),
            CsrError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            CsrError::OutOfRange { endpoint, n } => {
                write!(f, "edge endpoint {endpoint} out of range (n = {n})")
            }
            CsrError::AdjacencyOverflow { max } => {
                write!(f, "adjacency exceeds the width's offset range ({max})")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// An undirected simple graph as flat `u32` CSR arrays — the substrate
/// of the fast-path engines.
///
/// Node ids are dense `0..n`; `targets[offsets[v]..offsets[v+1]]` are
/// `v`'s neighbors in ascending order. `u32` ids and offsets bound it at
/// [`MAX_INDEX`](Self::MAX_INDEX) nodes and adjacency entries, far
/// beyond the 10⁸ scale tier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrGraph {
    /// `n + 1` row boundaries into `targets`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists (each undirected edge appears
    /// twice).
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Largest usable node id or adjacency length: one below the
    /// all-ones `u32` sentinel the traversal kernels reserve.
    pub const MAX_INDEX: u64 = (u32::MAX as u64) - 1;

    /// Builds the CSR adjacency for the undirected simple graph on `n`
    /// nodes with the given edges, by counting sort: degree pass,
    /// prefix sums, scatter, then per-row sort + dedup. Duplicate edges
    /// merge; peak memory is the edge list plus the arrays themselves.
    ///
    /// # Panics
    ///
    /// Panics on any [`CsrError`] (see [`try_from_edges`](Self::try_from_edges)
    /// for the non-panicking entry point).
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::try_from_edges(n, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`from_edges`](Self::from_edges), rejecting invalid input with a
    /// typed [`CsrError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError`] on an empty graph, a node count or
    /// adjacency volume beyond the word, self-loops, or out-of-range
    /// endpoints.
    pub fn try_from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, CsrError> {
        Self::build(n, || {
            edges.iter().map(|&(u, v)| (u64::from(u), u64::from(v)))
        })
    }

    /// The shared counting-sort builder: `runs()` must yield the same
    /// edge sequence on both passes (degree count, then scatter).
    fn build<I, F>(n: usize, runs: F) -> Result<Self, CsrError>
    where
        F: Fn() -> I,
        I: Iterator<Item = (u64, u64)>,
    {
        if n == 0 {
            return Err(CsrError::EmptyGraph);
        }
        let n64 = n as u64;
        if n64 > Self::MAX_INDEX {
            return Err(CsrError::TooManyNodes {
                n: n64,
                max: Self::MAX_INDEX,
            });
        }
        let check = |e: u64| -> Result<(), CsrError> {
            if e > Self::MAX_INDEX {
                return Err(CsrError::EndpointOverflow {
                    endpoint: e,
                    max: Self::MAX_INDEX,
                });
            }
            if e >= n64 {
                return Err(CsrError::OutOfRange {
                    endpoint: e,
                    n: n64,
                });
            }
            Ok(())
        };
        let mut degree = vec![0u64; n];
        for (u, v) in runs() {
            check(u)?;
            check(v)?;
            if u == v {
                return Err(CsrError::SelfLoop { node: u });
            }
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            if acc > Self::MAX_INDEX {
                return Err(CsrError::AdjacencyOverflow {
                    max: Self::MAX_INDEX,
                });
            }
            offsets.push(acc as u32);
        }
        drop(degree);
        let mut targets = vec![0u32; acc as usize];
        let mut cursor: Vec<u32> = offsets.clone();
        for (u, v) in runs() {
            let (u, v) = (u as usize, v as usize);
            targets[cursor[u] as usize] = v as u32;
            cursor[u] += 1;
            targets[cursor[v] as usize] = u as u32;
            cursor[v] += 1;
        }
        drop(cursor);
        // Sort each row, drop duplicate edges, and compact in place.
        let mut write = 0usize;
        let mut compact_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        compact_offsets.push(0);
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[start..end].sort_unstable();
            let mut prev: Option<u32> = None;
            for i in start..end {
                let t = targets[i];
                if prev != Some(t) {
                    targets[write] = t;
                    write += 1;
                    prev = Some(t);
                }
            }
            compact_offsets.push(write as u32);
        }
        targets.truncate(write);
        Ok(CsrGraph {
            offsets: compact_offsets,
            targets,
        })
    }

    /// Number of nodes `n`.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// The sorted neighbor list of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    #[must_use]
    pub fn neighbors_of(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The degree of node `v`.
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors_of(v).len()
    }

    /// The row-boundary array (`n + 1` entries).
    #[inline]
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The concatenated neighbor lists.
    #[inline]
    #[must_use]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Wraps raw CSR arrays without copying — e.g. a [`CsrTree`]'s
    /// directed child lists, which the tree-based kernels store and view
    /// exactly like an adjacency graph. [`edge_count`](Self::edge_count)
    /// is only meaningful for undirected (symmetric) arrays.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` is a nondecreasing boundary array from
    /// `0` to `targets.len()`.
    #[must_use]
    pub fn from_raw_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            offsets[offsets.len() - 1] as usize,
            targets.len(),
            "offsets must end at the target count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be nondecreasing"
        );
        CsrGraph { offsets, targets }
    }

    /// The BFS spanning structure rooted at `source`: level order and
    /// per-parent child lists over the source's component only, so the
    /// graph may be disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    #[must_use]
    pub fn bfs_tree(&self, source: u32) -> CsrTree {
        let n = self.node_count();
        let Bfs {
            mut order,
            parent,
            level_ends,
        } = self.bfs(source);
        // The paper's enumeration `v1..vn`: nondecreasing level, ties
        // broken by node id (matching `SpanningTree::level_order`). The
        // FIFO order is already level-monotone, so sorting each level's
        // slice by id is the whole job.
        let mut level_start = 0;
        for &end in &level_ends {
            order[level_start..end].sort_unstable();
            level_start = end;
        }
        let mut degree = vec![0u32; n];
        for (v, &p) in parent.iter().enumerate() {
            if p != UNSET && p as usize != v {
                degree[p as usize] += 1;
            }
        }
        let mut child_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        child_offsets.push(0);
        for &d in &degree {
            acc += d;
            child_offsets.push(acc);
        }
        let mut children = vec![0u32; acc as usize];
        let mut cursor = child_offsets.clone();
        // Children in BFS-discovery order (== ascending node id per
        // parent, since neighbor rows are sorted).
        for &v in &order {
            let p = parent[v as usize];
            if p != v {
                children[cursor[p as usize] as usize] = v;
                cursor[p as usize] += 1;
            }
        }
        CsrTree {
            order,
            child_offsets,
            children,
            depth: level_ends.len() - 1,
        }
    }

    /// The source component's BFS extent without building a tree:
    /// `(depth, reached)`, the largest distance from `source` to a
    /// reachable node (the paper's `D` when the graph is connected) and
    /// the component size — what [`bfs_tree`](Self::bfs_tree) would
    /// report as [`CsrTree::depth`] and [`CsrTree::component_size`].
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    #[must_use]
    pub fn bfs_extent(&self, source: u32) -> (usize, usize) {
        let Bfs {
            order, level_ends, ..
        } = self.bfs(source);
        (level_ends.len() - 1, order.len())
    }

    /// FIFO breadth-first search over the source's component.
    fn bfs(&self, source: u32) -> Bfs {
        let n = self.node_count();
        assert!((source as usize) < n, "source out of range");
        let mut parent = vec![UNSET; n];
        let mut order: Vec<u32> = vec![source];
        let mut level_ends = Vec::new();
        parent[source as usize] = source;
        let mut head = 0usize;
        while head < order.len() {
            let end = order.len();
            level_ends.push(end);
            for i in head..end {
                let u = order[i];
                for &v in self.neighbors_of(u as usize) {
                    if parent[v as usize] == UNSET {
                        parent[v as usize] = u;
                        order.push(v);
                    }
                }
            }
            head = end;
        }
        Bfs {
            order,
            parent,
            level_ends,
        }
    }
}

/// The parent marker of a node [`CsrGraph::bfs`] has not reached.
const UNSET: u32 = u32::MAX;

/// One FIFO breadth-first search: the discovery order, each node's
/// parent ([`UNSET`] outside the component, itself for the source), and
/// the end of every level's slice of `order` (level `d` is
/// `order[level_ends[d - 1]..level_ends[d]]`, level 0 starting at 0).
struct Bfs {
    order: Vec<u32>,
    parent: Vec<u32>,
    level_ends: Vec<usize>,
}

impl From<&Graph> for CsrGraph {
    /// Lossless structural copy — [`Graph`] is CSR internally with the
    /// same sorted-row invariant, so no re-sorting happens.
    fn from(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0u32);
        for v in graph.nodes() {
            targets.extend(graph.neighbors(v).iter().map(|&t| u32::from(t)));
            let len = u32::try_from(targets.len()).expect("adjacency exceeds u32::MAX");
            offsets.push(len);
        }
        CsrGraph { offsets, targets }
    }
}

impl From<&CsrGraph> for Graph {
    /// Lossless widening copy: adjacency rows are already sorted and
    /// deduplicated, so the conversion is two linear passes.
    fn from(csr: &CsrGraph) -> Self {
        let offsets: Vec<usize> = csr.offsets.iter().map(|&o| o as usize).collect();
        let adjacency: Vec<NodeId> = csr.targets.iter().map(|&t| NodeId::from(t)).collect();
        let edge_count = csr.edge_count();
        Graph::from_csr_parts(offsets, adjacency, edge_count)
    }
}

/// The BFS spanning structure of one source component: the paper's
/// `v1..vn` level-order enumeration plus flat per-parent child lists —
/// everything the fast broadcast kernels need from a spanning tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrTree {
    /// The source component in the paper's enumeration order:
    /// nondecreasing BFS level, ties broken by node id (`order[0]` is
    /// the source). Nodes outside the component do not appear.
    order: Vec<u32>,
    /// `n + 1` row boundaries into `children`, indexed by graph node id.
    child_offsets: Vec<u32>,
    /// Concatenated child lists, ascending per parent.
    children: Vec<u32>,
    /// Largest BFS level of the component.
    depth: usize,
}

impl CsrTree {
    /// The source component in nondecreasing-level order (ties by node
    /// id) — the paper's `v1..vn` enumeration restricted to reachable
    /// nodes.
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Number of nodes reachable from the source (component size).
    #[must_use]
    pub fn component_size(&self) -> usize {
        self.order.len()
    }

    /// The largest BFS level in the source's component: the distance
    /// from the source to its farthest reachable node, which is the
    /// paper's `D` on connected graphs (and `traversal::reachable_radius`
    /// on any graph).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The children of node `v` (empty for leaves and for nodes outside
    /// the source's component).
    #[must_use]
    pub fn children_of(&self, v: usize) -> &[u32] {
        &self.children[self.child_offsets[v] as usize..self.child_offsets[v + 1] as usize]
    }

    /// Consumes the tree into its `(child_offsets, children)` CSR
    /// arrays — the transmission-target structure of tree-based
    /// broadcast kernels.
    #[must_use]
    pub fn into_children_csr(self) -> (Vec<u32>, Vec<u32>) {
        (self.child_offsets, self.children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, SpanningTree};

    #[test]
    fn from_edges_sorts_and_merges_duplicates() {
        let csr = CsrGraph::from_edges(4, &[(2, 0), (0, 1), (1, 0), (3, 1), (0, 2)]);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.neighbors_of(0), &[1, 2]);
        assert_eq!(csr.neighbors_of(1), &[0, 3]);
        assert_eq!(csr.neighbors_of(2), &[0]);
        assert_eq!(csr.neighbors_of(3), &[1]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_edges_rejects_self_loops() {
        let _ = CsrGraph::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = CsrGraph::from_edges(3, &[(0, 3)]);
    }

    #[test]
    fn try_from_edges_reports_typed_errors() {
        assert_eq!(CsrGraph::try_from_edges(0, &[]), Err(CsrError::EmptyGraph));
        assert_eq!(
            CsrGraph::try_from_edges(3, &[(2, 2)]),
            Err(CsrError::SelfLoop { node: 2 })
        );
        assert_eq!(
            CsrGraph::try_from_edges(3, &[(0, 7)]),
            Err(CsrError::OutOfRange { endpoint: 7, n: 3 })
        );
    }

    #[test]
    fn graph_round_trip_preserves_adjacency() {
        for g in [
            generators::grid(5, 7),
            generators::star(9),
            generators::lower_bound_graph(4),
            generators::path(0),
        ] {
            let csr = CsrGraph::from(&g);
            assert_eq!(csr.node_count(), g.node_count());
            assert_eq!(csr.edge_count(), g.edge_count());
            for v in g.nodes() {
                let expect: Vec<u32> = g.neighbors(v).iter().map(|&t| u32::from(t)).collect();
                assert_eq!(csr.neighbors_of(v.index()), expect.as_slice());
            }
            let back = Graph::from(&csr);
            assert_eq!(back, g, "round trip must be lossless");
        }
    }

    #[test]
    fn bfs_tree_matches_spanning_tree() {
        let g = generators::grid(4, 6);
        let csr = CsrGraph::from(&g);
        let tree = csr.bfs_tree(0);
        let reference = SpanningTree::bfs(&g, g.node(0));
        let ref_order: Vec<u32> = reference
            .level_order()
            .iter()
            .map(|&v| u32::from(v))
            .collect();
        assert_eq!(tree.order(), ref_order.as_slice());
        assert_eq!(tree.component_size(), g.node_count());
        for v in g.nodes() {
            let expect: Vec<u32> = reference
                .children(v)
                .iter()
                .map(|&c| u32::from(c))
                .collect();
            assert_eq!(tree.children_of(v.index()), expect.as_slice(), "{v}");
        }
    }

    #[test]
    fn bfs_tree_covers_only_the_source_component() {
        // Triangle {0,1,2} plus the far edge {3,4}.
        let csr = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let tree = csr.bfs_tree(0);
        assert_eq!(tree.component_size(), 3);
        assert_eq!(tree.order(), &[0, 1, 2]);
        assert_eq!(tree.children_of(0), &[1, 2]);
        assert!(tree.children_of(3).is_empty());
        let far = csr.bfs_tree(3);
        assert_eq!(far.order(), &[3, 4]);
        assert_eq!(far.children_of(3), &[4]);
        let (offsets, children) = far.into_children_csr();
        assert_eq!(offsets.len(), 6);
        assert_eq!(children, vec![4]);
    }

    #[test]
    fn bfs_tree_order_is_level_then_id_and_depth_is_the_last_level() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(5);
        for g in [
            generators::gnp(400, 0.01, &mut rng),
            generators::random_geometric(400, 0.07, &mut rng),
            generators::path(9),
        ] {
            let csr = CsrGraph::from(&g);
            let dist = crate::traversal::bfs_distances(&g, g.node(0));
            let mut expect: Vec<u32> = (0..g.node_count() as u32)
                .filter(|&v| dist[v as usize] != crate::traversal::UNREACHABLE)
                .collect();
            expect.sort_unstable_by_key(|&v| (dist[v as usize], v));
            let tree = csr.bfs_tree(0);
            assert_eq!(tree.order(), expect.as_slice());
            let last = *expect.last().expect("source");
            assert_eq!(tree.depth(), dist[last as usize]);
            assert_eq!(csr.bfs_extent(0), (tree.depth(), expect.len()));
        }
        let path = CsrGraph::from(&generators::path(9));
        assert_eq!(path.bfs_tree(0).depth(), 9);
        assert_eq!(path.bfs_tree(4).depth(), 5);
    }

    #[test]
    fn single_node_graph() {
        let csr = CsrGraph::from_edges(1, &[]);
        assert_eq!(csr.node_count(), 1);
        assert_eq!(csr.edge_count(), 0);
        assert!(csr.neighbors_of(0).is_empty());
        let tree = csr.bfs_tree(0);
        assert_eq!(tree.component_size(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(csr.bfs_extent(0), (0, 1));
    }
}
