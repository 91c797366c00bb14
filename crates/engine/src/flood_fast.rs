//! A specialized large-`n` fast path for flooding under independent
//! per-(node, step) transmitter faults.
//!
//! The general [`MpNetwork`](crate::mp::MpNetwork) engine pays for its
//! generality on every round: per-node automaton dispatch, intention
//! buffers, and one fault coin for *all* `n` nodes whether or not they
//! have anything to say. Flooding needs none of that — a node's whole
//! behavior is "once informed, transmit to my targets every round until
//! they are all informed", and a round's outcome depends only on which
//! *frontier* transmitters succeed. [`FastFlood`] exploits this on the
//! shared [`kernel`](crate::kernel) substrate:
//!
//! * the informed set is a word-level
//!   [`InformedSet`] bitmask,
//! * transmission targets are the flat `u32` CSR arrays of a
//!   [`CsrGraph`] (the graph's adjacency, or its
//!   [`bfs_tree`](CsrGraph::bfs_tree) child lists for the paper's
//!   tree-flooding variant) — the engine builds no adjacency of its
//!   own,
//! * fault sampling is the aggregate
//!   [`FaultSampler`]: one Bernoulli coin
//!   per *frontier* node per round, or a geometric skip between
//!   successful transmitters when `p > 0.75`,
//! * a transmitter leaves the frontier the moment it can no longer
//!   inform anyone, and the run stops as soon as nothing can change.
//!
//! The sampled process is *statistically identical* to running the
//! flooding automaton on `MpNetwork` with omission faults (or any fault
//! kind under the silent adversary): each round, each informed node's
//! transmitter works independently with probability `1 − p`, and a
//! working transmitter informs all of its targets. Only the RNG stream
//! differs, so per-seed outcomes differ while every distribution
//! matches — `crates/core/tests/flood_equivalence.rs` pins this.
//!
//! The tape-addressed lanes and batches run one round loop per trial
//! width, [`ShardedFlood`]'s, over a [`ShardStore`]: `FastFlood` owns
//! its target lists as an in-RAM store, and out-of-core runs read disk
//! segments through the same loops. Only the silent tree-variant batch
//! has a round-free shortcut of its own.
//!
//! Every entry point also has a `*_model` sibling parametric in a
//! [`FaultModel`], and the loops read the
//! model's coin at one point per transmission. A `Silent` coin (i.i.d.
//! omission, throttled mixtures, worst-case placement) suppresses the
//! transmission — the plain entry points are these drivers at the
//! [`Omission`] instance. A corrupted-*value*
//! coin (`Flip` / `Lie`, the paper's malicious transmitters) lets the
//! transmission through and rewrites the value it delivers, so every
//! node is informed at its BFS depth; a node ends *correctly* informed
//! iff every delivery of its inform round carried the true value, and
//! the outcome tracks the correctly informed nodes.
//!
//! Unlike the general engine, the fast path is **defined on graphs that
//! are disconnected from the source**: it floods the source's component
//! and reports the informed *fraction* and the time to reach an
//! almost-complete (`1 − 1/n`) informed set, the regime of rapid
//! almost-complete broadcasting. A single trial at `n = 10⁵`, average
//! degree 8, `p = 0.3` runs in well under a second in release mode.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_graph::shard::{PassLoader, ShardError, ShardPlan, ShardStore, ShardedCsr};
use randcast_graph::{CsrGraph, CsrTree, NodeId};

use crate::kernel::{
    deliver, lane_popcounts, planes_add_one_masked, planes_assign, planes_eq_mask, planes_gt_mask,
    planes_le_mask, BatchCurve, BatchedInformedSet, CorruptionKind, Crossings, FaultModel,
    FaultSampler, FaultTapes, FrontierBatch, FrontierOutcome, InformedSet, LaneCounter, LaneMask,
    Omission, RoundLog, ShardFrontier, LANES,
};

/// Outcome of one fast-path flood (the kernels' shared
/// [`FrontierOutcome`]).
pub type FastFloodOutcome = FrontierOutcome;

/// Outcome of one batched 64-lane flood block (the kernels' shared
/// [`FrontierBatch`]).
pub type FastFloodBatch = FrontierBatch;

/// The fault-coin site of `(node, index)`: the index (a 1-based round,
/// or a 0-based attempt number for silent tree-variant plans) and a
/// `u32` node id pack losslessly into one `u64`.
fn fault_site(index: usize, v: u32) -> u64 {
    (index as u64) << 32 | u64::from(v)
}

/// Which edges carry the fast flood (mirrors
/// `randcast_core::flood::FloodVariant` without the crate dependency).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FastFloodVariant {
    /// Transmit only to BFS-spanning-tree children (the paper's
    /// analyzed algorithm; children are computed on the source's
    /// component only, so disconnected graphs are fine).
    Tree,
    /// Transmit to all neighbors (dominates tree flooding).
    Graph,
}

/// A compiled fast-path flooding plan: flat CSR target lists plus a
/// horizon. The target arrays come straight from the [`CsrGraph`] /
/// [`CsrTree`] substrate and live in an in-RAM [`ShardStore`] viewed
/// along a node-range plan (one shard unless
/// [`with_shards`](Self::with_shards) says otherwise); lanes and
/// batches of every fault model (the silent tree-variant batch aside)
/// run the round loops of [`ShardedFlood`] over it — the loops
/// out-of-core runs use.
pub struct FastFlood {
    core: ShardedFlood,
    /// Nodes reachable from the source along transmission targets, in
    /// BFS order (parents before children) — computed once at plan
    /// build so every batched block reuses it.
    order: Vec<u32>,
}

impl FastFlood {
    /// Compiles a plan transmitting along the given variant's edges for
    /// `horizon` rounds. A `horizon` of 0 is allowed (the run reports
    /// only the source informed); a graph disconnected from `source` is
    /// allowed (the flood covers the source's component). Takes the
    /// graph by value: the [`FastFloodVariant::Graph`] plan *is* the
    /// CSR arrays, moved in without a copy (clone at the call site to
    /// keep the graph).
    #[must_use]
    pub fn new(csr: CsrGraph, source: NodeId, horizon: usize, variant: FastFloodVariant) -> Self {
        match variant {
            FastFloodVariant::Graph => Self::assemble(csr, u32::from(source), horizon, variant),
            FastFloodVariant::Tree => Self::from_tree(csr.bfs_tree(u32::from(source)), horizon),
        }
    }

    /// The [`FastFloodVariant::Tree`] plan over an already-built BFS
    /// tree (rooted at its source, `tree.order()[0]`) — for callers
    /// that read the horizon off the same tree
    /// ([`CsrTree::depth`]), so the graph is traversed once.
    #[must_use]
    pub fn from_tree(tree: CsrTree, horizon: usize) -> Self {
        let source = tree.order()[0];
        let (offsets, targets) = tree.into_children_csr();
        let children = CsrGraph::from_raw_parts(offsets, targets);
        Self::assemble(children, source, horizon, FastFloodVariant::Tree)
    }

    fn assemble(targets: CsrGraph, source: u32, horizon: usize, variant: FastFloodVariant) -> Self {
        let order = bfs_order(&targets, source);
        let plan = ShardPlan::uniform(targets.node_count(), 1);
        let mut core = ShardedFlood::new(
            ShardStore::Ram(ShardedCsr::new(targets, plan)),
            source,
            horizon,
        );
        core.variant = variant;
        FastFlood { core, order }
    }

    /// Re-views the target lists along `shards` balanced node ranges
    /// (clamped to `1..=n`), without copying them. Outcomes are
    /// byte-identical for every shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        let ShardStore::Ram(ram) = self.core.store else {
            unreachable!("in-RAM kernels own a RAM store")
        };
        let plan = ShardPlan::uniform(ram.node_count(), shards);
        self.core.store = ShardStore::Ram(ShardedCsr::new(ram.into_csr(), plan));
        self
    }

    /// The horizon (maximum number of rounds executed).
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.core.horizon
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.core.node_count()
    }

    /// The transmission-target lists.
    fn targets(&self) -> &CsrGraph {
        self.core
            .store
            .ram_csr()
            .expect("in-RAM kernels own a RAM store")
    }

    /// Executes one seeded flood with per-(node, round) transmitter
    /// failure probability `p`, running until the horizon or until no
    /// further round can change anything.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn run(&self, p: f64, seed: u64) -> FrontierOutcome {
        let sampler = FaultSampler::new(p);
        let targets = self.targets();
        let (n, source, horizon) = (self.node_count(), self.core.source, self.core.horizon);
        let has_uninformed_target = |v: u32, informed: &InformedSet| {
            targets
                .neighbors_of(v as usize)
                .iter()
                .any(|&t| !informed.contains(t))
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut informed = InformedSet::new(n);
        informed.insert(source);
        let mut informed_by_round = Vec::with_capacity(horizon.min(1024) + 1);
        informed_by_round.push(1);
        let mut completion_round = (n == 1).then_some(0);

        let mut frontier: Vec<u32> = Vec::new();
        if has_uninformed_target(source, &informed) {
            frontier.push(source);
        }
        let mut next_frontier: Vec<u32> = Vec::new();
        let mut successes: Vec<u32> = Vec::new();

        for round in 1..=horizon {
            if frontier.is_empty() {
                break; // nothing can ever change again
            }
            successes.clear();
            next_frontier.clear();
            // Failed transmitters stay in the frontier for next round.
            sampler.partition_into(&mut rng, &frontier, &mut successes, &mut next_frontier);

            for &u in &successes {
                for &t in targets.neighbors_of(u as usize) {
                    if informed.insert(t) {
                        // The newly informed node starts transmitting
                        // next round if it can inform anyone.
                        next_frontier.push(t);
                    }
                }
            }

            informed_by_round.push(informed.count());
            if completion_round.is_none() && informed.count() == n {
                completion_round = Some(round);
            }

            // Keep only transmitters that can still inform someone; a
            // successful node informed all of its targets this round,
            // and a lingering failed node is dropped as soon as others
            // have covered its targets.
            frontier.clear();
            frontier.extend(
                next_frontier
                    .iter()
                    .copied()
                    .filter(|&u| has_uninformed_target(u, &informed)),
            );
        }

        FrontierOutcome {
            n,
            horizon,
            completion_round,
            informed_by_round,
            informed,
        }
    }

    /// Scalar replay of lane `lane` of batched block `block_seed`: the
    /// same frontier algorithm as [`run`](Self::run), but every fault
    /// coin is bit `lane` of the site-addressed batch tape instead of a
    /// draw from a sequential RNG. Sites are per-(node, round) for the
    /// graph variant and per-(node, attempt) for the tree variant — the
    /// coins are i.i.d. Bernoulli(`p`) either way, so the sampled
    /// process is statistically identical to [`run`](Self::run), and
    /// the site addressing is what lets
    /// [`run_batch`](Self::run_batch) reproduce this outcome
    /// *exactly*, lane for lane — see
    /// [`FrontierBatch::lane_outcome`].
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)` or `lane ≥ 64`.
    #[must_use]
    pub fn run_lane(&self, p: f64, block_seed: u64, lane: u32) -> FrontierOutcome {
        self.core
            .run_lane(p, block_seed, lane)
            .expect("RAM views are infallible")
    }

    /// Runs all 64 trial lanes of block `block_seed` at once: the
    /// informed set is a lane word per node and every fault coin is a
    /// bit-sliced Bernoulli mask covering all lanes that draw it. Lane
    /// `k` of the result is byte-identical to
    /// [`run_lane`](Self::run_lane)`(p, block_seed, k)` — coins are
    /// site-addressed pure functions of the block seed, so the batched
    /// evolution reads exactly the bits the scalar replay reads.
    ///
    /// The tree variant runs round-free: each node's inform round obeys
    /// `s(child) = s(parent) + 1 + Geom(1 − p)`, so one topological
    /// pass resolves the whole block with the per-(node, attempt)
    /// geometric waits drawn as bit-sliced masks. The graph variant
    /// advances the 64-lane union frontier round by round
    /// ([`ShardedFlood::run_batch`]), retiring lanes whose informed
    /// count has reached the source component's closure size.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn run_batch(&self, p: f64, block_seed: u64) -> FrontierBatch {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        self.run_batch_model(&Omission::new(p), block_seed)
    }

    /// Tree-variant batch backend: one pass over the BFS order,
    /// resolving every node's 64 inform rounds in bit-plane form. Every
    /// output is a per-node value or a multiset statistic, so the pass
    /// does not depend on visiting order and no shard plan can change
    /// it.
    ///
    /// Because tree edges have unique parents, all of a node's children
    /// share its success round, so every per-node statistic (informed
    /// counts, max / second-max inform round, uninformed tally)
    /// collapses to one group-level update per *internal* node —
    /// leaves cost a plane copy and nothing else.
    fn run_batch_tree<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        tapes: &FaultTapes,
    ) -> FrontierBatch {
        let targets = self.targets();
        let order = &self.order;
        let n = self.node_count();
        let h = self.core.horizon;
        let reach = order.len();
        // Sentinel inform round for "not informed within the horizon".
        let never = h as u64 + 1;
        let w = (64 - never.leading_zeros()) as usize;
        let never_template: Vec<u64> = (0..w)
            .map(|i| if never >> i & 1 == 1 { !0u64 } else { 0 })
            .collect();

        // Per-node inform rounds (bit planes), initialized to `never`;
        // the source is informed at round 0.
        let mut s_planes = Vec::with_capacity(n * w);
        for _ in 0..n {
            s_planes.extend_from_slice(&never_template);
        }
        let src = self.core.source as usize;
        s_planes[src * w..(src + 1) * w].fill(0);

        // Lanes in which each node is informed (within the horizon):
        // exactly its parent's success mask, so it is free to maintain
        // and replaces every `≤ horizon` plane comparison downstream.
        let mut informed_masks = vec![0u64; n];
        informed_masks[src] = !0;
        // Lanes where some eligible node attempted through the horizon
        // without success: their frontier stayed occupied to the end.
        let mut unfinished: LaneMask = 0;

        let mut su_buf = vec![0u64; w];
        // Per-lane success attempt index, accumulated plane-wise inside
        // the attempt loop; re-zeroed (used planes only) after each node.
        let mut a_planes = vec![0u64; w];
        // Internal nodes in BFS order: the reverse stats pass walks
        // exactly these (leaves are accounted through their parents).
        let mut groups: Vec<u32> = Vec::new();
        // Plane index such that values below `2^tight_plane` are at
        // least 65 attempt rounds short of the horizon.
        let tight_plane = if (h as u64) < 65 {
            0
        } else {
            (h as u64 - 64).ilog2() as usize
        };
        // Attempt-accumulator planes updated branch-free each attempt.
        let a_unroll = w.min(3);

        // Forward pass: resolve every internal node's 64 success rounds.
        for &u in order.iter() {
            let ui = u as usize;
            let kids = targets.neighbors_of(ui);
            if kids.is_empty() {
                continue;
            }
            groups.push(u);
            if h == 0 || informed_masks[ui] == 0 {
                continue;
            }
            su_buf.copy_from_slice(&s_planes[ui * w..(ui + 1) * w]);
            // `elig`: lanes whose first attempt round s(u) + 1 is
            // within the horizon — informed lanes minus those informed
            // at exactly the last round. `tight`: the eligible lanes
            // that could hit the horizon within the next 64 attempts —
            // while none survive, the per-attempt retirement comparison
            // below is skipped. Both derive from `hi`, the informed
            // lanes with any plane `≥ tight_plane` set: lanes outside
            // it sit at least 65 attempt rounds short of the horizon,
            // so when `hi` is empty (the common case once the horizon
            // comfortably exceeds the inform rounds) the exact
            // equality scan is provably zero and is skipped.
            let informed_u = informed_masks[ui];
            let (elig, tight);
            if (h as u64) < 65 {
                elig = informed_u & !planes_eq_mask(&su_buf, h as u64);
                tight = elig;
            } else {
                let mut hi = 0u64;
                for &pl in &su_buf[tight_plane..] {
                    hi |= pl;
                }
                hi &= informed_u;
                if hi == 0 {
                    elig = informed_u;
                    tight = 0;
                } else {
                    elig = informed_u & !planes_eq_mask(&su_buf, h as u64);
                    tight = elig & hi;
                }
            }
            if elig == 0 {
                continue;
            }
            let mut surviving = elig;
            let mut succeeded: LaneMask = 0;
            let mut a = 0u64;
            while surviving != 0 {
                let fail = model.corrupt_mask(tapes, fault_site(a as usize, u), u, surviving);
                let succ = surviving & !fail;
                succeeded |= succ;
                // Success sets are disjoint across attempts: OR the set
                // bits of `a` into the attempt accumulator and resolve
                // `s + 1 + a` in one ripple add afterwards. The low
                // planes are accumulated branch-free (a zero `succ` or
                // a clear bit of `a` just ORs in zero); eight or more
                // failed attempts at one node are rare enough to branch.
                for (i, pl) in a_planes.iter_mut().enumerate().take(a_unroll) {
                    *pl |= succ & 0u64.wrapping_sub(a >> i & 1);
                }
                if a >> a_unroll != 0 && succ != 0 {
                    let mut bits = a >> a_unroll;
                    while bits != 0 {
                        a_planes[a_unroll + bits.trailing_zeros() as usize] |= succ;
                        bits &= bits - 1;
                    }
                }
                a += 1;
                surviving = fail;
                // Retire lanes whose next attempt round s(u) + 1 + a
                // would pass the horizon. Exact only when needed: lanes
                // outside `tight` cannot retire for at least 64 attempts.
                if surviving != 0 && (a >= 64 || surviving & tight != 0) {
                    surviving = if a as usize > h - 1 {
                        0
                    } else {
                        surviving & planes_le_mask(&su_buf, h as u64 - 1 - a)
                    };
                }
            }
            unfinished |= elig & !succeeded;
            // Children inherit u's success round (only u can inform
            // them: tree edges have unique parents): resolve straight
            // into the first child's planes, siblings copy from it.
            let c0 = kids[0] as usize;
            planes_add_one_masked(
                &mut s_planes[c0 * w..(c0 + 1) * w],
                &su_buf,
                &a_planes,
                succeeded,
                &never_template,
            );
            informed_masks[c0] = succeeded;
            if a > 1 {
                let wa = (64 - (a - 1).leading_zeros()) as usize;
                a_planes[..wa.min(w)].fill(0);
            }
            for &c in &kids[1..] {
                let ci = c as usize * w;
                s_planes.copy_within(c0 * w..(c0 + 1) * w, ci);
                informed_masks[c as usize] = succeeded;
            }
        }

        // Reverse stats pass over the groups. Deep groups carry the
        // largest inform rounds, so visiting them first lets the
        // quick-reject comparison retire almost every later group in a
        // single plane scan.
        // Per-lane reach: lane-wise popcounts over the membership masks
        // (the source's all-ones mask included).
        let counts = LaneCounter::from_counts(&lane_popcounts(&informed_masks));
        // Max / second max (with multiplicity) of the per-lane inform
        // rounds over informed nodes, plus ≥1 / ≥2 uninformed tallies.
        let mut max_r = vec![0u64; w];
        let mut max_r2 = vec![0u64; w];
        let mut uninf1: LaneMask = 0;
        let mut uninf2: LaneMask = 0;
        for &u in groups.iter().rev() {
            let kids = targets.neighbors_of(u as usize);
            let c0 = kids[0] as usize;
            let succ = informed_masks[c0];
            let miss = !succ;
            uninf2 |= if kids.len() >= 2 { miss } else { uninf1 & miss };
            uninf1 |= miss;
            if succ == 0 {
                continue;
            }
            let done_s = &s_planes[c0 * w..(c0 + 1) * w];
            let act = planes_gt_mask(done_s, &max_r2) & succ;
            if act == 0 {
                // done ≤ max2 ≤ max1 in every informed lane: even a
                // multi-child group cannot move either running max.
                continue;
            }
            let ge1 = !planes_gt_mask(&max_r, done_s) & succ;
            if kids.len() >= 2 {
                // A group of ≥ 2 children at or above the max occupies
                // both slots.
                planes_assign(&mut max_r2, done_s, ge1);
            } else {
                planes_assign(&mut max_r2, &max_r, ge1);
            }
            // `done > max2` but below the max: new second max.
            planes_assign(&mut max_r2, done_s, act & !ge1);
            planes_assign(&mut max_r, done_s, ge1);
        }

        let mut completion_round: Vec<Option<usize>> = vec![None; LANES];
        let mut almost_round: Vec<Option<usize>> = vec![None; LANES];
        let almost_target = n.saturating_sub(1).max(1);
        for lane in 0..LANES as u32 {
            let li = lane as usize;
            let uninformed1 = uninf1 >> lane & 1 == 1;
            let uninformed2 = uninf2 >> lane & 1 == 1;
            if reach == n && !uninformed1 {
                completion_round[li] = Some(LaneCounter::get_in(&max_r, lane) as usize);
            }
            almost_round[li] = if 1 >= almost_target {
                // n ≤ 2: the source alone is already almost-complete.
                Some(0)
            } else if reach == n {
                if !uninformed1 {
                    // Count hits n − 1 when the second-slowest learns.
                    Some(LaneCounter::get_in(&max_r2, lane) as usize)
                } else if !uninformed2 {
                    // Exactly one node missed: count peaks at n − 1
                    // when the slowest informed node learns.
                    Some(LaneCounter::get_in(&max_r, lane) as usize)
                } else {
                    None
                }
            } else if reach == almost_target && !uninformed1 {
                // Exactly n − 1 reachable: all of them must learn.
                Some(LaneCounter::get_in(&max_r, lane) as usize)
            } else {
                None
            };
        }

        FrontierBatch {
            n,
            horizon: h,
            informed: BatchedInformedSet::from_parts(informed_masks, counts),
            completion_round,
            almost_round,
            curve: BatchCurve::Schedule {
                s_width: w,
                s_planes,
                max_round: max_r,
                unfinished,
            },
        }
    }

    /// Runs the model's placement preprocessing against this plan's CSR
    /// arrays — the BFS-tree child lists for the tree variant, the full
    /// adjacency for the graph variant. Call once per plan before any
    /// `*_model` run of a placement-based model.
    pub fn preprocess<M: FaultModel + ?Sized>(&self, model: &mut M) {
        let (targets, source) = (self.targets(), self.core.source);
        match self.core.variant {
            FastFloodVariant::Tree => {
                model.preprocess_tree(targets.offsets(), targets.targets(), &self.order, source);
            }
            FastFloodVariant::Graph => {
                model.preprocess_graph(targets.offsets(), targets.targets(), source);
            }
        }
    }

    /// [`run_lane`](Self::run_lane) under an arbitrary [`FaultModel`],
    /// through [`ShardedFlood::run_lane_model`]. `Silent` models run the
    /// frontier replay (byte-identical to the omission path for
    /// [`Omission`]); under corrupted-value models (`Flip` / `Lie`)
    /// every transmission delivers, so node `v` is informed exactly at
    /// its BFS depth, and the adversary decides which lanes receive the
    /// *correct* value. The outcome's informed set and growth curve then
    /// track the **correctly informed** nodes.
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 64`.
    #[must_use]
    pub fn run_lane_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        lane: u32,
    ) -> FrontierOutcome {
        self.core
            .run_lane_model(model, block_seed, lane)
            .expect("RAM views are infallible")
    }

    /// [`run_batch`](Self::run_batch) under an arbitrary
    /// [`FaultModel`]; lane `k` is byte-identical to
    /// [`run_lane_model`](Self::run_lane_model)`(model, block_seed, k)`.
    /// Silent tree-variant blocks run the round-free schedule pass;
    /// every other block runs [`ShardedFlood::run_batch_model`].
    #[must_use]
    pub fn run_batch_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
    ) -> FrontierBatch {
        if model.kind() == CorruptionKind::Silent && self.core.variant == FastFloodVariant::Tree {
            return self.run_batch_tree(model, &FaultTapes::new(block_seed));
        }
        self.core
            .run_batch_model(model, block_seed, self.order.len())
            .expect("RAM views are infallible")
    }
}

/// The nodes reachable from `source` along `targets`, in BFS order
/// (parents before children for a tree). A lane's frontier is empty
/// exactly when its informed count has reached this closure's size —
/// the bit-sliced liveness test the graph-variant batch uses in place
/// of per-lane frontier tracking.
fn bfs_order(targets: &CsrGraph, source: u32) -> Vec<u32> {
    let mut seen = InformedSet::new(targets.node_count());
    seen.insert(source);
    let mut order = vec![source];
    let mut i = 0;
    while i < order.len() {
        let v = order[i];
        i += 1;
        for &t in targets.neighbors_of(v as usize) {
            if seen.insert(t) {
                order.push(t);
            }
        }
    }
    order
}

/// Flooding over a [`ShardStore`]: the lane and batch round loops behind
/// both [`FastFlood`]'s lanes and batches (a RAM store) and out-of-core
/// runs, loading one shard's CSR rows at a time through the
/// [`PassLoader`] so peak RSS stays near one shard plus the node-level
/// state — the `n = 10⁸` path. Outcomes are **bit-identical** to
/// [`FastFlood::run_lane`] with [`FastFloodVariant::Graph`] on the same
/// adjacency, for every plan and store: the coin tape and sites are the
/// same, and the round evolution is set-based.
///
/// Only the graph variant is offered out of core: the tree variant
/// would first need a whole-graph BFS-tree construction, which defeats
/// the bounded-memory point.
pub struct ShardedFlood {
    store: ShardStore,
    source: u32,
    horizon: usize,
    prefetch: bool,
    /// Which fault sites the lane loop reads: [`FastFlood`]'s tree plans
    /// index a node's coins by attempt rather than by round.
    variant: FastFloodVariant,
}

impl ShardedFlood {
    /// Wraps a shard store for flooding from `source` over at most
    /// `horizon` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    #[must_use]
    pub fn new(store: ShardStore, source: u32, horizon: usize) -> Self {
        assert!(
            (source as usize) < store.node_count(),
            "source out of range"
        );
        ShardedFlood {
            store,
            source,
            horizon,
            prefetch: true,
            variant: FastFloodVariant::Graph,
        }
    }

    /// Enables or disables the segment prefetch pipeline
    /// (outcome-neutral; only meaningful for disk stores).
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// The underlying shard store.
    #[must_use]
    pub fn store(&self) -> &ShardStore {
        &self.store
    }

    /// Unwraps the shard store, e.g. to hand the same on-disk segments
    /// to another kernel without rebuilding them.
    #[must_use]
    pub fn into_store(self) -> ShardStore {
        self.store
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// The horizon (maximum number of rounds executed).
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Scalar lane replay over the shard store; bit-identical to
    /// [`FastFlood::run_lane`] with [`FastFloodVariant::Graph`] on the
    /// same adjacency. Each round makes two shard-at-a-time passes:
    /// one transmitting from the frontier, one re-filtering the staged
    /// frontier against the end-of-round informed set. Disk-backed
    /// passes are served by the [`PassLoader`]: full segment reads
    /// overlapped with the previous shard's compute, or coalesced
    /// sparse row reads when a pass touches a small fraction of a shard
    /// — both outcome-invisible.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)` or `lane ≥ 64`.
    pub fn run_lane(
        &self,
        p: f64,
        block_seed: u64,
        lane: u32,
    ) -> Result<FrontierOutcome, ShardError> {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        self.run_lane_model(&Omission::new(p), block_seed, lane)
    }

    /// [`run_lane`](Self::run_lane) under an arbitrary [`FaultModel`]:
    /// a `Silent` coin suppresses the transmission (the [`Omission`]
    /// instance reads exactly the omission coins); a `Flip` / `Lie`
    /// coin lets it through and rewrites the value it delivers, and the
    /// outcome tracks the correctly informed nodes (see
    /// [`FastFlood::run_lane_model`]). Run
    /// [`FaultModel::preprocess_graph`] against the in-core CSR before
    /// sharding if the model needs placement.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 64`.
    pub fn run_lane_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        lane: u32,
    ) -> Result<FrontierOutcome, ShardError> {
        assert!((lane as usize) < LANES, "lane out of range");
        match model.kind() {
            CorruptionKind::Silent => {
                self.lane::<M, false>(model, CorruptionKind::Silent, block_seed, lane)
            }
            kind => self.lane::<M, true>(model, kind, block_seed, lane),
        }
    }

    /// The lane round loop, monomorphized on whether the model corrupts
    /// values (`VALUES`) or silences transmissions. Each round makes
    /// two shard-at-a-time passes: one transmitting from the frontier,
    /// one re-filtering the staged frontier against the end-of-round
    /// informed set.
    fn lane<M: FaultModel + ?Sized, const VALUES: bool>(
        &self,
        model: &M,
        kind: CorruptionKind,
        block_seed: u64,
        lane: u32,
    ) -> Result<FrontierOutcome, ShardError> {
        let tapes = FaultTapes::new(block_seed);
        let plan = self.store.plan();
        let n = plan.node_count();
        let k = plan.shard_count();
        let mut loader = PassLoader::new(&self.store, self.prefetch);
        let mut informed = InformedSet::new(n);
        informed.insert(self.source);
        // Value models: the nodes holding the true value, and the nodes
        // a wrong value reached. Deliveries of one inform round combine
        // by AND, so a node is correct iff no wrong value reached it by
        // the end of that round (later deliveries are never read).
        let value_n = if VALUES { n } else { 0 };
        let mut correct = InformedSet::new(value_n);
        let mut spoiled = InformedSet::new(value_n);
        if VALUES {
            correct.insert(self.source);
        }
        // Silent tree plans index a node's coins by attempt, counted
        // from the round after it was informed; every other plan (and
        // every value plan, whose nodes transmit exactly once) by round.
        let attempts = !VALUES && self.variant == FastFloodVariant::Tree;
        let mut informed_round = vec![0u32; if attempts { n } else { 0 }];
        let mut informed_by_round = Vec::with_capacity(self.horizon.min(1024) + 1);
        informed_by_round.push(1);
        let mut completion_round = (n == 1).then_some(0);

        // This round's transmitters by shard, and the next round's
        // candidates in push order: failed transmitters stay, newly
        // informed nodes join.
        let mut frontier = ShardFrontier::new(k);
        let mut staged = vec![self.source];
        refilter(&mut loader, &mut frontier, &mut staged, &informed)?;

        for round in 1..=self.horizon {
            if frontier.is_empty() {
                break;
            }
            loader.begin_rows_pass(|s| frontier.shard(s).len());
            for s in 0..k {
                let list = frontier.shard(s);
                if list.is_empty() {
                    continue;
                }
                let view = loader.view_pass(s, list)?;
                for &u in list {
                    let index = if attempts {
                        round - 1 - informed_round[u as usize] as usize
                    } else {
                        round
                    };
                    let corrupt = model.corrupt_lane(&tapes, fault_site(index, u), u, lane);
                    if !VALUES && corrupt {
                        // Failed transmitter: stays in the frontier.
                        staged.push(u);
                        continue;
                    }
                    let wrong = VALUES
                        && deliver(kind, u64::from(correct.contains(u)), u64::from(corrupt)) == 0;
                    for &t in view.targets_of(u) {
                        if informed.insert(t) {
                            if attempts {
                                informed_round[t as usize] = round as u32;
                            }
                            staged.push(t);
                        }
                        if wrong {
                            spoiled.insert(t);
                        }
                    }
                }
            }
            if VALUES {
                // No value transmission fails, so the staged nodes are
                // exactly this round's newly informed ones.
                for &t in &staged {
                    if !spoiled.contains(t) {
                        correct.insert(t);
                    }
                }
            }
            let count = if VALUES {
                correct.count()
            } else {
                informed.count()
            };
            informed_by_round.push(count);
            if completion_round.is_none() && count == n {
                completion_round = Some(round);
            }
            refilter(&mut loader, &mut frontier, &mut staged, &informed)?;
        }

        Ok(FrontierOutcome {
            n,
            horizon: self.horizon,
            completion_round,
            informed_by_round,
            informed: if VALUES { correct } else { informed },
        })
    }

    /// One batched 64-lane block over the shard store — the lane
    /// semantics of [`FastFlood::run_batch`] with
    /// [`FastFloodVariant::Graph`], with every segment read amortized
    /// across all 64 trials. `reach` is the size of the source's
    /// component (e.g.
    /// [`ShardedBfsTree::reachable`](randcast_graph::shard::ShardedBfsTree::reachable)): the batch
    /// needs it to retire lanes whose replay can no longer change.
    /// Per-lane outcomes are byte-identical to 64 scalar
    /// [`run_lane`](Self::run_lane) replays of the same block seed.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn run_batch(
        &self,
        p: f64,
        block_seed: u64,
        reach: usize,
    ) -> Result<FrontierBatch, ShardError> {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        self.run_batch_model(&Omission::new(p), block_seed, reach)
    }

    /// [`run_batch`](Self::run_batch) under an arbitrary
    /// [`FaultModel`], with the coin rule of
    /// [`run_lane_model`](Self::run_lane_model). The 64-lane union
    /// frontier advances round by round; lanes whose informed count has
    /// reached `reach` stop contributing work (and their curves end
    /// there), and a stale frontier entry (a lane whose targets were
    /// covered by someone else) only ever performs no-op transmissions
    /// before washing out. Lane-mask accumulation is value-based — and
    /// value contributions combine by AND — so replaying a round's
    /// frontier shard by shard leaves every word identical for every
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    pub fn run_batch_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        reach: usize,
    ) -> Result<FrontierBatch, ShardError> {
        match model.kind() {
            CorruptionKind::Silent => {
                self.batch::<M, false>(model, CorruptionKind::Silent, block_seed, reach)
            }
            kind => self.batch::<M, true>(model, kind, block_seed, reach),
        }
    }

    /// The batch round loop, monomorphized like [`lane`](Self::lane).
    fn batch<M: FaultModel + ?Sized, const VALUES: bool>(
        &self,
        model: &M,
        kind: CorruptionKind,
        block_seed: u64,
        reach: usize,
    ) -> Result<FrontierBatch, ShardError> {
        let tapes = FaultTapes::new(block_seed);
        let plan = self.store.plan();
        let n = plan.node_count();
        let k = plan.shard_count();
        let mut loader = PassLoader::new(&self.store, self.prefetch);
        let mut informed = BatchedInformedSet::new(n);
        informed.insert_masked(self.source, !0);
        // Value models: the lane-sliced correct and spoiled sets of the
        // lane loop.
        let value_n = if VALUES { n } else { 0 };
        let mut correct = BatchedInformedSet::new(value_n);
        let mut spoiled: Vec<LaneMask> = vec![0; value_n];
        if VALUES {
            correct.insert_masked(self.source, !0);
        }
        let mut crossings = Crossings::new(n);
        let mut log = RoundLog::new(n);

        // The union frontier: per-shard lists of nodes whose
        // `frontier_mask` has at least one live lane in which the node
        // may still transmit. Masks are supersets of the exact per-lane
        // frontiers: a lane stays set after a failed round even if
        // other transmitters informed all the node's targets meanwhile
        // (a pure no-op), and is cleared on success, on lane death, or
        // when the node drains.
        let mut frontier: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut frontier_mask = vec![0u64; n];
        let mut in_frontier = vec![false; n];
        {
            let src_shard = plan.shard_of(self.source);
            loader.begin_rows_pass(|s| usize::from(s == src_shard));
            let view = loader.view_pass(src_shard, &[self.source])?;
            if !view.targets_of(self.source).is_empty() {
                frontier[src_shard].push(self.source);
                frontier_mask[self.source as usize] = !0;
                in_frontier[self.source as usize] = true;
            }
        }
        // Lanes newly informed this round join the frontier only for
        // the *next* round; stage them here.
        let mut pending = vec![0u64; n];
        let mut pending_nodes: Vec<u32> = Vec::new();

        // A lane is live (its replay still executes rounds) while its
        // informed count is below the closure size.
        if reach <= 1 {
            log.retire(!0);
        }

        for round in 1..=self.horizon {
            let live = !log.retired;
            if live == 0 {
                break;
            }
            pending_nodes.clear();
            let mut changed = false;

            loader.begin_rows_pass(|s| frontier[s].len());
            for (s, list) in frontier.iter_mut().enumerate() {
                if list.is_empty() {
                    continue;
                }
                let view = loader.view_pass(s, list)?;
                let mut write = 0usize;
                for i in 0..list.len() {
                    let v = list[i];
                    let fm = frontier_mask[v as usize] & live;
                    // A dead entry, or one without targets (a tree leaf)
                    // that can never inform anyone, leaves before
                    // drawing a coin.
                    let row = if fm == 0 { &[][..] } else { view.targets_of(v) };
                    if row.is_empty() {
                        frontier_mask[v as usize] = 0;
                        in_frontier[v as usize] = false;
                        continue;
                    }
                    let fail = model.corrupt_mask(&tapes, fault_site(round, v), v, fm);
                    let succ = if VALUES { fm } else { fm & !fail };
                    let wrong = if VALUES {
                        fm & !deliver(kind, correct.lanes(v), fail)
                    } else {
                        0
                    };
                    if succ != 0 {
                        for &t in row {
                            let newly = informed.insert_masked(t, succ);
                            if VALUES {
                                spoiled[t as usize] |= wrong;
                            }
                            if newly != 0 {
                                changed = true;
                                if pending[t as usize] == 0 {
                                    pending_nodes.push(t);
                                }
                                pending[t as usize] |= newly;
                            }
                        }
                    }
                    // A successful lane informed all of v's targets: v
                    // leaves that lane's frontier. Failed lanes stay.
                    let keep = fm & !succ;
                    frontier_mask[v as usize] = keep;
                    if keep != 0 {
                        list[write] = v;
                        write += 1;
                    } else {
                        in_frontier[v as usize] = false;
                    }
                }
                list.truncate(write);
            }
            // Merge the staged frontier masks after all of the round's
            // shard passes.
            for &t in &pending_nodes {
                let ti = t as usize;
                if VALUES {
                    correct.insert_masked(t, pending[ti] & !spoiled[ti]);
                }
                frontier_mask[ti] |= pending[ti];
                pending[ti] = 0;
                if !in_frontier[ti] {
                    in_frontier[ti] = true;
                    frontier[plan.shard_of(t)].push(t);
                }
            }

            let counts = if VALUES {
                correct.counts()
            } else {
                informed.counts()
            };
            log.push(counts);
            if changed {
                crossings.record(counts, round);
                log.retire(informed.counts().ge_mask(reach as u64));
            }
        }

        let informed = if VALUES { correct } else { informed };
        Ok(FrontierBatch::from_rounds(
            self.horizon,
            informed,
            crossings,
            log,
        ))
    }
}

/// The round-boundary frontier filter of the lane loop, shard by shard:
/// keeps each staged candidate that still has an uninformed target
/// against the end-of-round informed set.
fn refilter(
    loader: &mut PassLoader<'_>,
    frontier: &mut ShardFrontier,
    staged: &mut Vec<u32>,
    informed: &InformedSet,
) -> Result<(), ShardError> {
    frontier.route_from(staged, |v| loader.plan().shard_of(v));
    loader.begin_rows_pass(|s| frontier.shard(s).len());
    for s in 0..frontier.shard_count() {
        if frontier.shard(s).is_empty() {
            continue;
        }
        let view = loader.view_pass(s, frontier.shard(s))?;
        frontier.retain(s, |&u| {
            view.targets_of(u).iter().any(|&t| !informed.contains(t))
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_graph::{generators, traversal, Graph, GraphBuilder};

    fn plan(g: &Graph, horizon: usize, variant: FastFloodVariant) -> FastFlood {
        FastFlood::new(CsrGraph::from(g), g.node(0), horizon, variant)
    }

    #[test]
    fn fault_free_tree_flood_takes_exactly_the_radius() {
        let g = generators::path(7);
        let ff = plan(&g, 32, FastFloodVariant::Tree);
        let out = ff.run(0.0, 1);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(7));
        assert_eq!(out.informed_by_round(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn fault_free_graph_flood_matches_bfs_layers() {
        let g = generators::grid(5, 7);
        let d = traversal::radius_from(&g, g.node(0));
        let ff = plan(&g, 100, FastFloodVariant::Graph);
        let out = ff.run(0.0, 3);
        assert_eq!(out.completion_round(), Some(d));
        // Each round informs exactly the next BFS layer.
        let layers = traversal::bfs_layers(&g, g.node(0));
        let mut cumulative = 0;
        for (r, layer) in layers.iter().enumerate() {
            cumulative += layer.len();
            assert_eq!(out.informed_by_round()[r], cumulative, "round {r}");
        }
    }

    #[test]
    fn informed_counts_are_monotone_and_bounded() {
        let g = generators::gnp_connected(300, 0.02, &mut rand::rngs::SmallRng::seed_from_u64(5));
        for p in [0.1, 0.5, 0.9] {
            let ff = plan(&g, 400, FastFloodVariant::Graph);
            let out = ff.run(p, 11);
            let counts = out.informed_by_round();
            assert!(counts.windows(2).all(|w| w[0] <= w[1]), "p={p}");
            assert!(*counts.last().unwrap() <= out.n());
            assert_eq!(*counts.last().unwrap(), out.informed_count());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(9, 9);
        let ff = plan(&g, 200, FastFloodVariant::Tree);
        assert_eq!(ff.run(0.4, 7), ff.run(0.4, 7));
        assert_ne!(
            ff.run(0.4, 7).informed_by_round(),
            ff.run(0.4, 8).informed_by_round(),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn csr_and_graph_construction_agree() {
        // The CSR-direct generator path must compile to the same plan
        // (and hence bit-identical runs) as Graph conversion.
        let csr =
            generators::gnp_connected_csr(200, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(9));
        let g = Graph::from(&csr);
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let a = FastFlood::new(csr.clone(), g.node(0), 300, variant);
            let b = plan(&g, 300, variant);
            for seed in 0..5 {
                assert_eq!(a.run(0.4, seed), b.run(0.4, seed), "{variant:?}");
            }
        }
    }

    #[test]
    fn sparse_and_dense_samplers_agree_statistically() {
        // p just below and above the 0.75 sampler switch must produce
        // comparable completion-time distributions; calibrate both
        // against the same graph and compare means loosely.
        let g = generators::path(12);
        let trials = 400u64;
        let mean = |p: f64| {
            let ff = plan(&g, 2000, FastFloodVariant::Tree);
            let total: usize = (0..trials)
                .map(|s| ff.run(p, s).completion_round().expect("horizon ample"))
                .sum();
            total as f64 / trials as f64
        };
        // Expected completion ~ sum of 12 geometric(1-p) waits; the two
        // sampling paths sit on either side of the switch.
        let (m_dense, m_sparse) = (mean(0.74), mean(0.76));
        let expected_dense = 12.0 / (1.0 - 0.74);
        let expected_sparse = 12.0 / (1.0 - 0.76);
        assert!(
            (m_dense - expected_dense).abs() < 0.12 * expected_dense,
            "dense mean {m_dense} vs {expected_dense}"
        );
        assert!(
            (m_sparse - expected_sparse).abs() < 0.12 * expected_sparse,
            "sparse mean {m_sparse} vs {expected_sparse}"
        );
    }

    #[test]
    fn disconnected_graph_reports_partial_fraction() {
        // Two components: a triangle with the source and an isolated
        // edge.
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let g = b.finish().unwrap();
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = plan(&g, 50, variant);
            let out = ff.run(0.0, 1);
            assert!(!out.complete(), "{variant:?}");
            assert_eq!(out.informed_count(), 3);
            assert!((out.informed_fraction() - 0.6).abs() < 1e-12);
            assert!(out.is_informed(g.node(2)));
            assert!(!out.is_informed(g.node(3)));
            // Almost-complete (n−1 = 4) is never reached either.
            assert_eq!(out.almost_complete_round(), None);
            // But 60% is reached at round 1.
            assert_eq!(out.time_to_fraction(0.6), Some(1));
        }
    }

    #[test]
    fn short_horizon_leaves_fraction_partial() {
        let g = generators::path(20);
        let ff = plan(&g, 5, FastFloodVariant::Tree);
        let out = ff.run(0.0, 0);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 6);
        assert_eq!(out.round_reaching(6), Some(5));
        assert_eq!(out.round_reaching(7), None);
    }

    #[test]
    fn single_node_graph_is_complete_at_round_zero() {
        let g = generators::path(0);
        let ff = plan(&g, 4, FastFloodVariant::Graph);
        let out = ff.run(0.3, 9);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(0));
        assert_eq!(out.almost_complete_round(), Some(0));
    }

    #[test]
    fn high_p_completes_eventually() {
        let g = generators::star(8);
        let ff = FastFlood::new(CsrGraph::from(&g), g.node(1), 4000, FastFloodVariant::Graph);
        let mut completed = 0;
        for seed in 0..20 {
            completed += usize::from(ff.run(0.95, seed).complete());
        }
        assert_eq!(completed, 20);
    }

    #[test]
    fn tree_variant_from_non_source_root() {
        // Source at a leaf: the BFS tree re-roots there.
        let g = generators::star(5);
        let ff = FastFlood::new(CsrGraph::from(&g), g.node(3), 50, FastFloodVariant::Tree);
        let out = ff.run(0.0, 0);
        assert_eq!(out.completion_round(), Some(2));
    }

    #[test]
    fn batch_lanes_match_scalar_lane_replay_exactly() {
        let g = generators::gnp_connected(120, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(2));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = plan(&g, 300, variant);
            for p in [0.0, 0.3, 0.76, 0.9] {
                for block_seed in [0u64, 1, 0xDEAD_BEEF] {
                    let batch = ff.run_batch(p, block_seed);
                    for lane in 0..64u32 {
                        assert_eq!(
                            batch.lane_outcome(lane),
                            ff.run_lane(p, block_seed, lane),
                            "{variant:?} p={p} seed={block_seed} lane={lane}"
                        );
                        assert_eq!(
                            batch.completion_round(lane),
                            batch.lane_outcome(lane).completion_round()
                        );
                        assert_eq!(
                            batch.almost_complete_round(lane),
                            batch.lane_outcome(lane).almost_complete_round(),
                            "{variant:?} p={p} seed={block_seed} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_handles_disconnection_short_horizons_and_single_nodes() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let g = b.finish().unwrap();
        let ff = plan(&g, 50, FastFloodVariant::Graph);
        let batch = ff.run_batch(0.3, 9);
        for lane in 0..64u32 {
            assert_eq!(batch.lane_outcome(lane), ff.run_lane(0.3, 9, lane));
            assert_eq!(batch.informed_count(lane), 3);
            assert!(!batch.lane_outcome(lane).complete());
        }

        let short = plan(&generators::path(20), 5, FastFloodVariant::Tree);
        let batch = short.run_batch(0.5, 4);
        for lane in 0..64u32 {
            assert_eq!(batch.lane_outcome(lane), short.run_lane(0.5, 4, lane));
        }

        let single = plan(&generators::path(0), 4, FastFloodVariant::Graph);
        let batch = single.run_batch(0.3, 1);
        for lane in 0..64u32 {
            assert_eq!(batch.lane_outcome(lane), single.run_lane(0.3, 1, lane));
            assert_eq!(batch.completion_round(lane), Some(0));
            assert_eq!(batch.almost_complete_round(lane), Some(0));
        }
    }

    #[test]
    fn batch_lane_outcomes_are_independent_of_sibling_lanes() {
        // A lane's coins are site-addressed, so its outcome cannot
        // depend on how many other lanes run or what they do. Compare
        // lane k across two *different* plans' batches sharing the same
        // block seed — the lane replay only depends on (plan, p, seed,
        // lane), which is the same thing run_lane computes.
        let g = generators::grid(6, 6);
        let ff = plan(&g, 120, FastFloodVariant::Graph);
        for lane in [0u32, 13, 63] {
            let a = ff.run_batch(0.4, 77).lane_outcome(lane);
            let b = ff.run_lane(0.4, 77, lane);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sharded_lane_and_batch_match_monolithic_exactly() {
        let g = generators::gnp_connected(140, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(6));
        let csr = CsrGraph::from(&g);
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = FastFlood::new(csr.clone(), g.node(0), 300, variant);
            for shards in [2usize, 3, 7] {
                let sharded =
                    FastFlood::new(csr.clone(), g.node(0), 300, variant).with_shards(shards);
                for p in [0.0, 0.4, 0.9] {
                    let seed = 31 + shards as u64;
                    assert_eq!(
                        sharded.run_batch(p, seed),
                        ff.run_batch(p, seed),
                        "batch diverged: {variant:?} shards={shards} p={p}"
                    );
                    for lane in [0u32, 19, 63] {
                        assert_eq!(
                            sharded.run_lane(p, seed, lane),
                            ff.run_lane(p, seed, lane),
                            "lane diverged: {variant:?} shards={shards} p={p} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_core_flood_matches_the_monolithic_lane_replay() {
        use randcast_graph::shard::{default_scratch_dir, ShardStore, ShardedCsr, SpillSink};
        let g = generators::gnp_connected(130, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(8));
        let csr = CsrGraph::from(&g);
        let ff = FastFlood::new(csr.clone(), g.node(0), 400, FastFloodVariant::Graph);
        let plan = ShardPlan::uniform(csr.node_count(), 3);

        let ram = ShardedFlood::new(
            ShardStore::Ram(ShardedCsr::split(&csr, plan.clone())),
            0,
            400,
        );
        let mut sink = SpillSink::create(default_scratch_dir(), plan).unwrap();
        for v in 0..csr.node_count() {
            for &t in csr.neighbors_of(v) {
                if (v as u32) < t {
                    sink.push(v as u64, u64::from(t)).unwrap();
                }
            }
        }
        let disk = ShardedFlood::new(ShardStore::Disk(sink.finalize().unwrap()), 0, 400);

        for p in [0.0, 0.5] {
            for lane in [0u32, 7, 63] {
                let reference = ff.run_lane(p, 77, lane);
                assert_eq!(ram.run_lane(p, 77, lane).unwrap(), reference);
                assert_eq!(disk.run_lane(p, 77, lane).unwrap(), reference);
            }
        }
    }

    #[test]
    fn out_of_core_flood_batch_and_prefetch_are_byte_invisible() {
        use randcast_graph::shard::{default_scratch_dir, ShardStore, ShardedCsr, SpillSink};
        // Big enough that one-participant rounds go sparse on disk
        // while bulk rounds take full segment views.
        let g = generators::gnp_connected(900, 0.012, &mut rand::rngs::SmallRng::seed_from_u64(31));
        let csr = CsrGraph::from(&g);
        let n = csr.node_count();
        let ff = FastFlood::new(csr.clone(), g.node(0), 400, FastFloodVariant::Graph);
        let reach = ff.order.len();
        let mono = ff.run_batch(0.3, 55);
        let plan = ShardPlan::uniform(n, 3);
        let mut sink = SpillSink::create(default_scratch_dir(), plan.clone()).unwrap();
        for v in 0..n {
            for &t in csr.neighbors_of(v) {
                if (v as u32) < t {
                    sink.push(v as u64, u64::from(t)).unwrap();
                }
            }
        }
        let stores = [
            (
                ShardStore::Ram(ShardedCsr::split(&csr, plan.clone())),
                "ram",
            ),
            (ShardStore::Disk(sink.finalize().unwrap()), "disk"),
        ];
        for (store, what) in stores {
            let mut flood = ShardedFlood::new(store, 0, 400);
            for prefetch in [true, false] {
                flood = flood.with_prefetch(prefetch);
                assert_eq!(
                    flood.run_batch(0.3, 55, reach).unwrap(),
                    mono,
                    "{what} batch diverged: prefetch={prefetch}"
                );
                for lane in [0u32, 63] {
                    assert_eq!(
                        flood.run_lane(0.3, 55, lane).unwrap(),
                        mono.lane_outcome(lane),
                        "{what} lane diverged: prefetch={prefetch} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn silent_models_route_through_the_byte_identical_omission_machinery() {
        let g = generators::gnp_connected(100, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(3));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = plan(&g, 250, variant);
            let model = Omission::new(0.4);
            assert_eq!(ff.run_batch_model(&model, 99), ff.run_batch(0.4, 99));
            for lane in [0u32, 17, 63] {
                assert_eq!(
                    ff.run_lane_model(&model, 99, lane),
                    ff.run_lane(0.4, 99, lane),
                    "{variant:?} lane={lane}"
                );
            }
        }
    }

    #[test]
    fn model_batch_lanes_match_model_lane_replays() {
        use crate::kernel::{FlipFault, LieOrJamFault};
        let g = generators::gnp_connected(90, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(12));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = plan(&g, 200, variant);
            for p in [0.0, 0.3, 0.76] {
                let models: [&dyn FaultModel; 2] = [&FlipFault::new(p), &LieOrJamFault::new(p)];
                for model in models {
                    let batch = ff.run_batch_model(model, 41);
                    for lane in [0u32, 5, 31, 63] {
                        assert_eq!(
                            batch.lane_outcome(lane),
                            ff.run_lane_model(model, 41, lane),
                            "{variant:?} {} p={p} lane={lane}",
                            model.name()
                        );
                        assert_eq!(
                            batch.completion_round(lane),
                            batch.lane_outcome(lane).completion_round()
                        );
                        assert_eq!(
                            batch.almost_complete_round(lane),
                            batch.lane_outcome(lane).almost_complete_round(),
                            "{variant:?} {} p={p} lane={lane}",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flip_flood_at_p_zero_runs_on_the_exact_bfs_schedule() {
        use crate::kernel::FlipFault;
        let g = generators::grid(5, 7);
        let d = traversal::radius_from(&g, g.node(0));
        let ff = plan(&g, 100, FastFloodVariant::Graph);
        let out = ff.run_lane_model(&FlipFault::new(0.0), 1, 0);
        assert_eq!(out.completion_round(), Some(d));
        let layers = traversal::bfs_layers(&g, g.node(0));
        let mut cumulative = 0;
        for (r, layer) in layers.iter().enumerate() {
            cumulative += layer.len();
            assert_eq!(out.informed_by_round()[r], cumulative, "round {r}");
        }
    }

    #[test]
    fn sharded_model_runs_match_monolithic_exactly() {
        use crate::kernel::{CorruptionKind, FlipFault, WorstCasePlacement};
        let g = generators::gnp_connected(110, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(21));
        let csr = CsrGraph::from(&g);
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = FastFlood::new(csr.clone(), g.node(0), 250, variant);
            let mut placed = WorstCasePlacement::new(0.1, CorruptionKind::Silent);
            ff.preprocess(&mut placed);
            let flip = FlipFault::new(0.35);
            let models: [&dyn FaultModel; 2] = [&placed, &flip];
            for model in models {
                for shards in [2usize, 3, 7] {
                    let sharded =
                        FastFlood::new(csr.clone(), g.node(0), 250, variant).with_shards(shards);
                    assert_eq!(
                        sharded.run_batch_model(model, 7),
                        ff.run_batch_model(model, 7),
                        "{variant:?} {} shards={shards}",
                        model.name()
                    );
                    for lane in [0u32, 9, 63] {
                        assert_eq!(
                            sharded.run_lane_model(model, 7, lane),
                            ff.run_lane_model(model, 7, lane),
                            "{variant:?} {} shards={shards} lane={lane}",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn placed_faults_sever_or_poison_exactly_the_placed_subtrees() {
        use crate::kernel::{CorruptionKind, WorstCasePlacement};
        let g = generators::path(4);
        let ff = plan(&g, 40, FastFloodVariant::Tree);

        // frac 0.25 of the 4 non-source nodes pins node 1, the root of
        // the largest subtree on the path 0 → 1 → 2 → 3 → 4.
        let mut silent = WorstCasePlacement::new(0.25, CorruptionKind::Silent);
        ff.preprocess(&mut silent);
        assert_eq!(silent.placed_count(), 1);
        assert!(silent.is_placed(1));
        let out = ff.run_lane_model(&silent, 5, 0);
        // Node 1 hears the source, but its own transmissions all fail:
        // everything behind it stays uninformed.
        assert_eq!(out.informed_count(), 2);
        assert!(!out.complete());

        let mut flip = WorstCasePlacement::new(0.25, CorruptionKind::Flip);
        ff.preprocess(&mut flip);
        let out = ff.run_lane_model(&flip, 5, 0);
        // Deliveries all land on the BFS schedule, but everything
        // behind the flipping node hears the wrong value.
        assert_eq!(out.informed_count(), 2);
        assert!(!out.complete());
        assert!(out.is_informed(g.node(1)));
        assert!(!out.is_informed(g.node(2)));
    }
}
