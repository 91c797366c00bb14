//! A specialized large-`n` fast path for the radio model: Decay (and
//! the all-informed-transmit baseline) under omission faults, without
//! per-node automata.
//!
//! The general [`RadioNetwork`](crate::radio::RadioNetwork) pays for
//! its generality every round: one `act` dispatch per node, an
//! intention vector of `n` enum values, a fault coin for all `n` nodes,
//! and a full reception scan of every listener's neighborhood.
//! Informed-set dynamics need none of that. An uninformed node hears
//! iff **exactly one** of its neighbors transmits, and the only nodes
//! whose transmissions an uninformed node can hear are informed nodes
//! with at least one uninformed neighbor — the *frontier*. [`FastRadio`]
//! therefore simulates only the frontier, on the shared
//! [`kernel`](crate::kernel) substrate:
//!
//! * the informed set is a word-level
//!   [`InformedSet`] bitmask,
//! * adjacency is the flat `u32` CSR of a [`CsrGraph`] — the engine
//!   builds no adjacency of its own,
//! * per-round collision resolution is the
//!   [`CollisionCounter`]: saturating
//!   transmitter counts touched only at frontier neighborhoods (hear
//!   iff the count is exactly one), so a round costs `O(m_frontier)`,
//!   not `O(n + m)`,
//! * omission faults are sampled by the aggregate
//!   [`FaultSampler`] — one Bernoulli coin
//!   per participant, or a geometric skip between successful
//!   transmitters when `p > 0.75`,
//! * the run stops as soon as no informed node can ever inform anyone
//!   again (source component exhausted) or the broadcast completes.
//!
//! The [Decay schedule](FastRadioSchedule::Decay) draws its
//! participation coins from the **same per-node tapes** as the
//! trait-object protocol in `randcast_core::decay` ([`decay_tapes`] /
//! [`decay_coin`] are shared with it), so at `p = 0` — where fault
//! randomness vanishes — the two engines agree **exactly, per seed**,
//! not just in distribution. At `p > 0` only the fault coins come from
//! a different stream, so per-seed outcomes differ while every
//! distribution matches; `crates/core/tests/radio_equivalence.rs` pins
//! this with a 250-seed Welch-tolerance suite.
//!
//! Like [`flood_fast`](crate::flood_fast), the kernel is defined on
//! graphs disconnected from the source: it broadcasts over the source's
//! component and reports the informed *fraction* and the
//! almost-complete (`1 − 1/n`) time.
//!
//! The tape-addressed lanes and batches run one round loop per trial
//! width, [`ShardedRadio`]'s, over a [`ShardStore`]: `FastRadio` owns
//! its adjacency as an in-RAM store, and out-of-core runs read disk
//! segments through the same loops.
//!
//! Every entry point has a `*_model` sibling parametric in a
//! [`FaultModel`], and the loops read the
//! model's coin at one point per transmission. A `Silent` coin (i.i.d.
//! omission, throttled mixtures, worst-case placement) silences the
//! transmitter — the plain entry points are these drivers at the
//! [`Omission`] instance. A corrupted-*value*
//! coin (`Flip` / `Lie`, the paper's limited-malicious transmitters)
//! changes what a fault does: the corrupted transmitter still
//! transmits — it collides like any other — but the *message* it
//! delivers is corrupted, a sole receiver adopts whatever its one
//! audible neighbor sent, and wrong values propagate. The `*_model`
//! outcome then tracks the **correctly informed** nodes. Full-malicious
//! radio (lie *or jam*) still needs the adversary hooks of the general
//! engine.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_graph::shard::{PassLoader, ShardError, ShardPlan, ShardStore, ShardedCsr};
use randcast_graph::{CsrGraph, NodeId};
use randcast_stats::seed::{splitmix64, SeedSequence};

use crate::kernel::{
    deliver, BatchTape, BatchedInformedSet, CollisionCounter, CorruptionKind, Crossings,
    FaultModel, FaultSampler, FaultTapes, FrontierBatch, FrontierOutcome, InformedSet, LaneMask,
    Omission, RoundLog, ShardedCollisions, ShardedLaneCollisions, DECAY_STREAM, LANES,
};

/// Outcome of one fast-path radio broadcast (the kernels' shared
/// [`FrontierOutcome`]).
pub type FastRadioOutcome = FrontierOutcome;

/// Outcome of one batched 64-lane radio block (the kernels' shared
/// [`FrontierBatch`]).
pub type FastRadioBatch = FrontierBatch;

/// The coin site of `(0-based round, node)`: both the fault coin and
/// the batched Decay participation coin of a node are per-round, so the
/// pair packs losslessly into one `u64` site.
fn radio_site(r0: usize, v: u32) -> u64 {
    (r0 as u64) << 32 | u64::from(v)
}

/// Seed-sequence label under which the Decay protocol derives its
/// per-node coin tapes (shared between the trait-object protocol and
/// the fast kernel so the two stay in lockstep).
pub const DECAY_TAPE_LABEL: u64 = 0xDECA;

/// The per-node tape sequence for a Decay execution rooted at `seed`:
/// node `v`'s tape is `decay_tapes(seed).nth_seed(v)`.
#[must_use]
pub fn decay_tapes(seed: u64) -> SeedSequence {
    SeedSequence::new(seed).child(DECAY_TAPE_LABEL)
}

/// One fair Decay coin for `(tape, epoch, round-in-epoch)`: a node that
/// was active in round `j` of an epoch stays active for round `j + 1`
/// iff this coin is heads. A pure function, so both engines can
/// evaluate it in any order and still agree.
#[must_use]
pub fn decay_coin(tape: u64, epoch: usize, j: usize) -> bool {
    splitmix64(
        tape ^ (epoch as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (j as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
    ) & 1
        == 1
}

/// Which transmission schedule the fast radio kernel executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FastRadioSchedule {
    /// Bar-Yehuda–Goldreich–Itai *Decay*: epochs of `epoch_len` rounds;
    /// every informed node starts each epoch transmitting and halves
    /// its participation probability each round (transmit in round `j`
    /// with probability `2^{−j}`). Nodes informed mid-epoch join at the
    /// next epoch boundary.
    Decay {
        /// Rounds per epoch (the classical choice is `⌈log₂ n⌉ + 1`).
        epoch_len: usize,
    },
    /// The degenerate baseline: every informed node transmits every
    /// round (newly informed nodes join the next round). On any node
    /// with two or more informed neighbors this collides until omission
    /// faults happen to silence all but one transmitter — the
    /// contention pathology Decay exists to break.
    AllInformed,
}

/// A compiled fast-path radio plan: flat CSR adjacency plus a schedule
/// and horizon. The adjacency comes straight from the [`CsrGraph`]
/// substrate and lives in an in-RAM [`ShardStore`] viewed along a
/// node-range plan (one shard unless [`with_shards`](Self::with_shards)
/// says otherwise); lanes and batches of every fault model run the round
/// loops of [`ShardedRadio`] over it — the loops out-of-core runs use.
pub struct FastRadio {
    core: ShardedRadio,
}

impl FastRadio {
    /// Compiles a plan broadcasting from `source` for at most `horizon`
    /// rounds under `schedule`. A `horizon` of 0 is allowed (the run
    /// reports only the source informed); a graph disconnected from
    /// `source` is allowed (the broadcast covers the source's
    /// component). Takes the graph by value: the plan *is* the CSR
    /// arrays, moved in without a copy (clone at the call site to keep
    /// the graph).
    ///
    /// # Panics
    ///
    /// Panics if the schedule is [`FastRadioSchedule::Decay`] with
    /// `epoch_len == 0`.
    #[must_use]
    pub fn new(csr: CsrGraph, source: NodeId, horizon: usize, schedule: FastRadioSchedule) -> Self {
        let plan = ShardPlan::uniform(csr.node_count(), 1);
        let store = ShardStore::Ram(ShardedCsr::new(csr, plan));
        FastRadio {
            core: ShardedRadio::new(store, u32::from(source), horizon, schedule),
        }
    }

    /// Re-views the adjacency along `shards` balanced node ranges
    /// (clamped to `1..=n`), without copying it. Outcomes are
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

    /// The schedule this plan executes.
    #[must_use]
    pub fn schedule(&self) -> FastRadioSchedule {
        self.core.schedule
    }

    /// The adjacency.
    fn neighbors(&self) -> &CsrGraph {
        self.core
            .store
            .ram_csr()
            .expect("in-RAM kernels own a RAM store")
    }

    /// Executes one seeded broadcast with per-(node, round) transmitter
    /// omission probability `p`, running until the horizon or until no
    /// further round can change anything.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn run(&self, p: f64, seed: u64) -> FrontierOutcome {
        let sampler = FaultSampler::new(p);
        let neighbors = self.neighbors();
        let (n, source, horizon) = (self.node_count(), self.core.source, self.core.horizon);
        let mut rng = SmallRng::seed_from_u64(seed);
        let tapes = decay_tapes(seed);
        let mut informed = InformedSet::new(n);
        informed.insert(source);
        let mut informed_by_round = Vec::with_capacity(horizon.min(1024) + 1);
        informed_by_round.push(1);
        let mut completion_round = (n == 1).then_some(0);

        // Informed nodes that may still have uninformed neighbors;
        // re-filtered at every epoch boundary, and the only nodes the
        // kernel ever simulates (an informed node all of whose
        // neighbors are informed can neither inform nor collide at an
        // uninformed listener).
        let mut participants: Vec<u32> = vec![source];
        let mut active: Vec<u32> = Vec::new();
        let mut transmitters: Vec<u32> = Vec::new();
        let mut counter = CollisionCounter::new(n);
        let (decay, epoch_len) = self.core.epochs();

        for round in 1..=horizon {
            if completion_round.is_some() {
                break; // everyone informed: nothing can change
            }
            // `r0` is the trait-object engine's 0-based round index.
            let r0 = round - 1;
            let j = r0 % epoch_len;
            if j == 0 {
                participants.retain(|&u| {
                    neighbors
                        .neighbors_of(u as usize)
                        .iter()
                        .any(|&t| !informed.contains(t))
                });
                if participants.is_empty() {
                    break; // the source component is exhausted
                }
                active.clear();
                active.extend_from_slice(&participants);
            }

            // Omission faults: each active node's transmitter works
            // with probability 1 − p this round.
            transmitters.clear();
            sampler.successes_into(&mut rng, &active, &mut transmitters);

            // Collision resolution: an uninformed listener hears iff
            // exactly one neighbor transmits.
            for &u in &transmitters {
                for &v in neighbors.neighbors_of(u as usize) {
                    if !informed.contains(v) {
                        counter.add(v);
                    }
                }
            }
            counter.drain_sole_receivers(|v| {
                informed.insert(v);
                // Joins the transmitters at the next epoch start.
                participants.push(v);
            });

            informed_by_round.push(informed.count());
            if informed.count() == n {
                completion_round = Some(round);
            }

            // Decay: a node active in round `j` stays active for round
            // `j + 1` iff its tape coin is heads (faults never touch
            // the coin stream — a failed transmitter still decays).
            if decay && j + 1 < epoch_len {
                let epoch = r0 / epoch_len;
                active.retain(|&u| decay_coin(tapes.nth_seed(u64::from(u)), epoch, j));
            }
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
    /// coin is bit `lane` of the site-addressed batch tape (site =
    /// per-(round, node)) and every Decay participation coin is bit
    /// `lane` of the [`DECAY_STREAM`] tape at the same site. Coins are
    /// i.i.d. with the same marginals as [`run`](Self::run), so the
    /// sampled process is statistically identical; the site addressing
    /// is what lets [`run_batch`](Self::run_batch) reproduce this
    /// outcome *exactly*, lane for lane — see
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
    /// informed set is a lane word per node, fault coins are bit-sliced
    /// Bernoulli masks, Decay participation coins are raw fair-coin
    /// tape words, and collision resolution is a pair of saturating
    /// lane masks (`≥ 1` / `≥ 2` transmitting neighbors) per touched
    /// listener. Lane `k` of the result is byte-identical to
    /// [`run_lane`](Self::run_lane)`(p, block_seed, k)` — coins are
    /// site-addressed pure functions of the block seed, so the batched
    /// evolution reads exactly the bits the scalar replay reads.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn run_batch(&self, p: f64, block_seed: u64) -> FrontierBatch {
        self.core
            .run_batch(p, block_seed)
            .expect("RAM views are infallible")
    }

    /// Runs the model's placement preprocessing against this plan's
    /// CSR adjacency. Call once per plan before any `*_model` run of a
    /// placement-based model.
    pub fn preprocess<M: FaultModel + ?Sized>(&self, model: &mut M) {
        let neighbors = self.neighbors();
        model.preprocess_graph(neighbors.offsets(), neighbors.targets(), self.core.source);
    }

    /// [`run_lane`](Self::run_lane) under an arbitrary [`FaultModel`],
    /// through [`ShardedRadio::run_lane_model`]. `Silent` models run the
    /// frontier replay (byte-identical to the omission path for
    /// [`Omission`]); under corrupted-value models (`Flip` / `Lie`) a
    /// corrupted transmitter still transmits and collides, but delivers
    /// a corrupted message, and the outcome's informed set and growth
    /// curve track the **correctly informed** nodes.
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
    /// [`run_lane_model`](Self::run_lane_model)`(model, block_seed,
    /// k)`. See [`run_lane_model`](Self::run_lane_model) for the
    /// corrupted-value semantics.
    #[must_use]
    pub fn run_batch_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
    ) -> FrontierBatch {
        self.run_batch_threads(model, block_seed, 1)
    }

    /// [`run_batch_model`](Self::run_batch_model) with each round's
    /// collision drain fanned across up to `threads` workers, one
    /// listener shard each — byte-identical for every thread count
    /// (see [`ShardedRadio::with_threads`]). Only a multi-shard plan
    /// has anything to fan out.
    #[must_use]
    pub fn run_batch_threads<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        threads: usize,
    ) -> FrontierBatch {
        self.core
            .batch(model, block_seed, threads)
            .expect("RAM views are infallible")
    }
}

/// The lanes of `informed` in which node `v` knows the message and some
/// neighbor in `row` does not — `v`'s participation mask at an epoch
/// boundary.
fn participation(informed: &BatchedInformedSet, v: u32, row: &[u32]) -> LaneMask {
    let inf_v = informed.lanes(v);
    inf_v & unheard_lanes(informed, row, inf_v)
}

/// The lanes in which some node of `row` is still uninformed, scanned
/// only until every lane of `want` is covered (more neighbors cannot
/// widen a mask restricted to `want`).
fn unheard_lanes(informed: &BatchedInformedSet, row: &[u32], want: LaneMask) -> LaneMask {
    let mut un: LaneMask = 0;
    for &t in row {
        un |= !informed.lanes(t);
        if un & want == want {
            break;
        }
    }
    un
}

/// Radio broadcasting over a [`ShardStore`]: the round loops behind
/// both [`FastRadio`]'s lanes and batches (a RAM store) and
/// out-of-core runs, loading one shard's CSR rows at a time so peak RSS
/// stays near one shard plus the node-level state — the `n = 10⁸`
/// path. Outcomes are **bit-identical** to [`FastRadio::run_lane`] on
/// the same adjacency for every plan and store: the coin tape and sites
/// are the same, collision state accumulates across every shard's
/// transmit pass before the round's single sole-receiver drain, and the
/// epoch-exhaustion sweep reads the participation union only after
/// every shard's refilter has been folded in — the same points in the
/// round where a one-shard pass reads them.
pub struct ShardedRadio {
    store: ShardStore,
    source: u32,
    horizon: usize,
    schedule: FastRadioSchedule,
    threads: usize,
    prefetch: bool,
}

impl ShardedRadio {
    /// Wraps a shard store for radio broadcasting from `source` over
    /// at most `horizon` rounds under `schedule`. Runs single-threaded
    /// with segment prefetch on; both knobs
    /// ([`with_threads`](Self::with_threads),
    /// [`with_prefetch`](Self::with_prefetch)) are outcome-invisible.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range, or if the schedule is
    /// [`FastRadioSchedule::Decay`] with `epoch_len == 0`.
    #[must_use]
    pub fn new(
        store: ShardStore,
        source: u32,
        horizon: usize,
        schedule: FastRadioSchedule,
    ) -> Self {
        if let FastRadioSchedule::Decay { epoch_len } = schedule {
            assert!(epoch_len > 0, "decay epochs need at least one round");
        }
        assert!(
            (source as usize) < store.node_count(),
            "source out of range"
        );
        ShardedRadio {
            store,
            source,
            horizon,
            schedule,
            threads: 1,
            prefetch: true,
        }
    }

    /// Sets the worker count for the per-round collision drain, which
    /// fans out over listener shards (byte-outcome-invisible; clamped
    /// to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the background segment prefetcher
    /// (byte-outcome-invisible; on by default).
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

    /// The transmission schedule.
    #[must_use]
    pub fn schedule(&self) -> FastRadioSchedule {
        self.schedule
    }

    /// Whether participation decays within an epoch, and the epoch
    /// length (every round is its own epoch under
    /// [`FastRadioSchedule::AllInformed`]: everyone re-activates).
    fn epochs(&self) -> (bool, usize) {
        match self.schedule {
            FastRadioSchedule::Decay { epoch_len } => (true, epoch_len),
            FastRadioSchedule::AllInformed => (false, 1),
        }
    }

    /// Scalar lane replay over the shard store; bit-identical to
    /// [`FastRadio::run_lane`] on the same adjacency. Each round makes
    /// one shard-at-a-time transmit pass (plus, at epoch boundaries,
    /// one refilter pass); for disk stores each shard pass is served
    /// either by a full segment read overlapped with the previous
    /// shard's compute (the [`PassLoader`] prefetch pipeline) or, when
    /// the pass touches a small fraction of the shard — the common case
    /// under Decay thinning — by coalesced sparse row reads that skip
    /// the segment decode entirely. Neither choice, nor the
    /// `threads`/`prefetch` knobs, can change a byte of the outcome.
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
    /// a `Silent` coin silences the transmitter (the [`Omission`]
    /// instance reads exactly the omission coins); a `Flip` / `Lie` coin
    /// lets it transmit and collide but rewrites the value it delivers,
    /// and the outcome tracks the correctly informed nodes (see
    /// [`FastRadio::run_lane_model`]). Run the model's preprocessing
    /// against the in-core CSR before sharding if the model needs
    /// placement.
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
    /// values (`VALUES`) or silences transmitters.
    fn lane<M: FaultModel + ?Sized, const VALUES: bool>(
        &self,
        model: &M,
        kind: CorruptionKind,
        block_seed: u64,
        lane: u32,
    ) -> Result<FrontierOutcome, ShardError> {
        let tapes = FaultTapes::new(block_seed);
        let decay_tape = BatchTape::new(block_seed, DECAY_STREAM);
        let plan = self.store.plan();
        let n = plan.node_count();
        let k = plan.shard_count();
        let mut loader = PassLoader::new(&self.store, self.prefetch);
        let mut informed = InformedSet::new(n);
        informed.insert(self.source);
        // Value models: the nodes that adopted the true value.
        let mut correct = InformedSet::new(if VALUES { n } else { 0 });
        if VALUES {
            correct.insert(self.source);
        }
        let mut informed_by_round = Vec::with_capacity(self.horizon.min(1024) + 1);
        informed_by_round.push(1);
        let mut completion_round = (n == 1).then_some(0);

        // Informed nodes that may still have uninformed neighbors, per
        // shard; re-filtered at every epoch boundary.
        let mut participants: Vec<Vec<u32>> = vec![Vec::new(); k];
        participants[plan.shard_of(self.source)].push(self.source);
        let mut active: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut counter = ShardedCollisions::new(plan.bounds());
        let (decay, epoch_len) = self.epochs();

        for round in 1..=self.horizon {
            if completion_round.is_some() {
                break;
            }
            let r0 = round - 1;
            let j = r0 % epoch_len;
            if j == 0 {
                loader.begin_rows_pass(|s| participants[s].len());
                let mut any = false;
                for (s, (parts, act_list)) in
                    participants.iter_mut().zip(active.iter_mut()).enumerate()
                {
                    act_list.clear();
                    if parts.is_empty() {
                        continue;
                    }
                    let view = loader.view_pass(s, parts)?;
                    parts.retain(|&u| view.targets_of(u).iter().any(|&t| !informed.contains(t)));
                    act_list.extend_from_slice(parts);
                    any |= !parts.is_empty();
                }
                if !any {
                    break;
                }
            }

            // The collision counter accumulates across every shard's
            // transmit pass and drains exactly once per round, so
            // cross-shard collisions block exactly as in a one-shard
            // pass.
            loader.begin_rows_pass(|s| active[s].len());
            for (s, act_list) in active.iter().enumerate() {
                if act_list.is_empty() {
                    continue;
                }
                let view = loader.view_pass(s, act_list)?;
                for &u in act_list {
                    let corrupt = model.corrupt_lane(&tapes, radio_site(r0, u), u, lane);
                    if !VALUES && corrupt {
                        continue;
                    }
                    let value = VALUES
                        && deliver(kind, u64::from(correct.contains(u)), u64::from(corrupt)) != 0;
                    for &v in view.targets_of(u) {
                        if !informed.contains(v) {
                            counter.add_value(v, value);
                        }
                    }
                }
            }
            counter.drain_values(self.threads, |s, v, value| {
                informed.insert(v);
                if VALUES && value {
                    correct.insert(v);
                }
                // Joins the transmitters at the next epoch start.
                participants[s].push(v);
            });

            let count = if VALUES {
                correct.count()
            } else {
                informed.count()
            };
            informed_by_round.push(count);
            if count == n {
                completion_round = Some(round);
            }

            // Decay: a node active in round `j` stays active for round
            // `j + 1` iff its tape coin is heads (faults never touch
            // the coin stream — a failed transmitter still decays).
            if decay && j + 1 < epoch_len {
                for list in &mut active {
                    list.retain(|&u| decay_tape.fair_lane(radio_site(r0, u), lane));
                }
            }
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
    /// semantics of [`FastRadio::run_batch`], with every segment read
    /// amortized across all 64 trials. Per-lane outcomes are
    /// byte-identical to 64 scalar [`run_lane`](Self::run_lane) replays
    /// of the same block seed.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn run_batch(&self, p: f64, block_seed: u64) -> Result<FrontierBatch, ShardError> {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        self.run_batch_model(&Omission::new(p), block_seed)
    }

    /// [`run_batch`](Self::run_batch) under an arbitrary
    /// [`FaultModel`], with the coin rule of
    /// [`run_lane_model`](Self::run_lane_model).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    pub fn run_batch_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
    ) -> Result<FrontierBatch, ShardError> {
        self.batch(model, block_seed, self.threads)
    }

    /// The batch round loop at `threads` drain workers, monomorphized
    /// on the model's corruption kind like [`lane`](Self::lane).
    fn batch<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        threads: usize,
    ) -> Result<FrontierBatch, ShardError> {
        match model.kind() {
            CorruptionKind::Silent => {
                self.batch_loop::<M, false>(model, CorruptionKind::Silent, block_seed, threads)
            }
            kind => self.batch_loop::<M, true>(model, kind, block_seed, threads),
        }
    }

    /// A lane's replay stops executing rounds once it completes or once
    /// an epoch boundary finds it without participants; the batch keeps
    /// looping while *any* lane is live and records each lane's stop
    /// round so per-lane growth curves cut off exactly where the scalar
    /// replay's do. With `threads > 1` each round's collision drain
    /// fans out over listener shards.
    fn batch_loop<M: FaultModel + ?Sized, const VALUES: bool>(
        &self,
        model: &M,
        kind: CorruptionKind,
        block_seed: u64,
        threads: usize,
    ) -> Result<FrontierBatch, ShardError> {
        let tapes = FaultTapes::new(block_seed);
        let decay_tape = BatchTape::new(block_seed, DECAY_STREAM);
        let plan = self.store.plan();
        let n = plan.node_count();
        let k = plan.shard_count();
        let mut loader = PassLoader::new(&self.store, self.prefetch);
        let mut informed = BatchedInformedSet::new(n);
        informed.insert_masked(self.source, !0);
        // Value models: the lanes in which each node adopted the truth.
        let mut correct = BatchedInformedSet::new(if VALUES { n } else { 0 });
        if VALUES {
            correct.insert_masked(self.source, !0);
        }
        let mut crossings = Crossings::new(n);
        let mut log = RoundLog::new(n);
        log.retire(crossings.completed);

        // Union participant lists, per shard: nodes with a nonzero
        // per-lane participation mask in some lane. `act` is the
        // per-node lane mask of *currently transmitting* participants —
        // rebuilt at every epoch boundary, thinned by Decay coins
        // within an epoch. Nodes informed mid-epoch join the list with
        // an empty mask and pick up their lanes at the next boundary,
        // exactly as the scalar replay's `participants` / `active`
        // split.
        let mut plist: Vec<Vec<u32>> = vec![Vec::new(); k];
        plist[plan.shard_of(self.source)].push(self.source);
        let mut in_plist = vec![false; n];
        in_plist[self.source as usize] = true;
        let mut act: Vec<LaneMask> = vec![0; n];
        let mut collisions = ShardedLaneCollisions::new(plan.bounds(), VALUES);
        let (decay, epoch_len) = self.epochs();

        for round in 1..=self.horizon {
            let live = !log.retired;
            if live == 0 {
                break;
            }
            let r0 = round - 1;
            let j = r0 % epoch_len;
            if j == 0 {
                loader.begin_rows_pass(|s| plist[s].len());
                let mut any: LaneMask = 0;
                for (s, list) in plist.iter_mut().enumerate() {
                    if list.is_empty() {
                        continue;
                    }
                    let view = loader.view_pass(s, list)?;
                    list.retain(|&v| {
                        let m = participation(&informed, v, view.targets_of(v));
                        act[v as usize] = m;
                        any |= m;
                        if m == 0 {
                            in_plist[v as usize] = false;
                        }
                        m != 0
                    });
                }
                // Exhaustion is a whole-round property: read it only
                // after every shard's refilter has been folded in. The
                // exhausted lanes stop before executing this round.
                log.retire(live & !any);
                if live & any == 0 {
                    break;
                }
            }

            loader.begin_rows_pass(|s| plist[s].len());
            for (s, list) in plist.iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                let view = loader.view_pass(s, list)?;
                for &v in list {
                    let a = act[v as usize];
                    if a == 0 {
                        continue;
                    }
                    // Coins are site-addressed pure functions, so
                    // skipping the draw for a transmission no listener
                    // can use leaves every other lane read untouched.
                    // `useful` restricts the draw to lanes where some
                    // neighbor is still uninformed; the excluded lanes
                    // would contribute nothing at any listener below.
                    let row = view.targets_of(v);
                    let useful = a & unheard_lanes(&informed, row, a);
                    if useful == 0 {
                        continue;
                    }
                    let corrupt = model.corrupt_mask(&tapes, radio_site(r0, v), v, useful);
                    let tx = if VALUES { useful } else { useful & !corrupt };
                    if tx == 0 {
                        continue;
                    }
                    let value = if VALUES {
                        deliver(kind, correct.lanes(v), corrupt)
                    } else {
                        0
                    };
                    for &t in row {
                        // Restrict collision tracking to the lanes where
                        // `t` is still uninformed — the scalar replay's
                        // `!informed.contains(v)` guard, lane-sliced.
                        // The informed words are frozen until the drain,
                        // so dropping the other lanes here leaves every
                        // lane that counts identical.
                        let need = tx & !informed.lanes(t);
                        if need != 0 {
                            if VALUES {
                                collisions.add_value(t, need, value);
                            } else {
                                collisions.add(t, need);
                            }
                        }
                    }
                }
            }

            let mut changed = false;
            collisions.drain(threads, |s, t, hear, value| {
                let newly = informed.insert_masked(t, hear);
                if newly != 0 {
                    changed = true;
                    if VALUES {
                        correct.insert_masked(t, value & newly);
                    }
                    let ti = t as usize;
                    if !in_plist[ti] {
                        in_plist[ti] = true;
                        act[ti] = 0;
                        plist[s].push(t);
                    }
                }
            });

            let counts = if VALUES {
                correct.counts()
            } else {
                informed.counts()
            };
            log.push(counts);
            if changed {
                crossings.record(counts, round);
                log.retire(crossings.completed);
            }

            if decay && j + 1 < epoch_len {
                for list in &plist {
                    for &v in list {
                        let vi = v as usize;
                        if act[vi] != 0 {
                            act[vi] &= decay_tape.fair_mask(radio_site(r0, v));
                        }
                    }
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_graph::{generators, Graph, GraphBuilder};

    fn plan(g: &Graph, horizon: usize, schedule: FastRadioSchedule) -> FastRadio {
        FastRadio::new(CsrGraph::from(g), g.node(0), horizon, schedule)
    }

    fn decay_plan(g: &Graph, horizon: usize) -> FastRadio {
        let epoch_len = (g.node_count().max(2) as f64).log2().ceil() as usize + 1;
        plan(g, horizon, FastRadioSchedule::Decay { epoch_len })
    }

    #[test]
    fn fault_free_decay_completes_on_families() {
        for g in [
            generators::path(12),
            generators::star(16),
            generators::grid(5, 5),
            generators::complete(12),
        ] {
            let plan = decay_plan(&g, 4000);
            let mut ok = 0;
            for seed in 0..10 {
                ok += usize::from(plan.run(0.0, seed).complete());
            }
            assert!(ok >= 9, "n={} ok={ok}", g.node_count());
        }
    }

    #[test]
    fn decay_survives_omission_faults() {
        let g = generators::grid(5, 5);
        let plan = decay_plan(&g, 8000);
        let mut ok = 0;
        for seed in 0..20 {
            ok += usize::from(plan.run(0.5, seed).complete());
        }
        assert!(ok >= 18, "ok={ok}");
    }

    #[test]
    fn decay_breaks_high_contention() {
        // Complete bipartite: after one step all of side A is informed;
        // all-informed transmission then collides essentially forever,
        // while decay's back-off resolves it.
        let g = generators::complete_bipartite(8, 8);
        let decay = decay_plan(&g, 2000);
        let naive = plan(&g, 2000, FastRadioSchedule::AllInformed);
        let mut decay_ok = 0;
        let mut naive_ok = 0;
        for seed in 0..10 {
            decay_ok += usize::from(decay.run(0.0, seed).complete());
            naive_ok += usize::from(naive.run(0.0, seed).complete());
        }
        assert!(decay_ok >= 9, "decay_ok={decay_ok}");
        assert_eq!(naive_ok, 0, "fault-free collisions never resolve");
    }

    #[test]
    fn all_informed_on_a_path_is_plain_flooding() {
        // Along a path each uninformed node has exactly one informed
        // neighbor, so there are no collisions and the fault-free
        // all-informed schedule is BFS flooding.
        let g = generators::path(9);
        let plan = plan(&g, 100, FastRadioSchedule::AllInformed);
        let out = plan.run(0.0, 1);
        assert_eq!(out.completion_round(), Some(9));
        assert_eq!(out.informed_by_round(), &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn interior_collisions_block_on_a_cycle_start() {
        // Cycle: round 1 informs both neighbors of the source; their
        // two transmissions then collide at nobody (each has a distinct
        // uninformed neighbor), so all-informed completes fault-free…
        // except the final node, which hears both ends of the cycle
        // simultaneously and collides forever on even cycles.
        let g = generators::cycle(6);
        let plan = plan(&g, 500, FastRadioSchedule::AllInformed);
        let out = plan.run(0.0, 2);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 5, "the antipode is blocked");
        // With faults the tie eventually breaks.
        let out = plan.run(0.3, 2);
        assert!(out.complete());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(6, 6);
        let plan = decay_plan(&g, 2000);
        assert_eq!(plan.run(0.4, 7), plan.run(0.4, 7));
        assert_ne!(
            plan.run(0.4, 7).informed_by_round(),
            plan.run(0.4, 8).informed_by_round(),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn csr_and_graph_construction_agree() {
        let csr = generators::preferential_attachment_csr(
            180,
            3,
            &mut rand::rngs::SmallRng::seed_from_u64(4),
        );
        let g = Graph::from(&csr);
        let epoch_len = 9;
        let a = FastRadio::new(
            csr.clone(),
            g.node(0),
            900,
            FastRadioSchedule::Decay { epoch_len },
        );
        let b = plan(&g, 900, FastRadioSchedule::Decay { epoch_len });
        for seed in 0..5 {
            assert_eq!(a.run(0.3, seed), b.run(0.3, seed));
        }
    }

    #[test]
    fn counts_are_monotone_and_bounded() {
        let g = generators::grid(7, 5);
        for p in [0.0, 0.3, 0.9] {
            let plan = decay_plan(&g, 3000);
            let out = plan.run(p, 11);
            let counts = out.informed_by_round();
            assert!(counts.windows(2).all(|w| w[0] <= w[1]), "p={p}");
            assert!(*counts.last().unwrap() <= out.n());
            assert_eq!(*counts.last().unwrap(), out.informed_count());
        }
    }

    #[test]
    fn disconnected_graph_reports_partial_fraction() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let g = b.finish().unwrap();
        let plan = decay_plan(&g, 2000);
        let out = plan.run(0.0, 1);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 3);
        assert!((out.informed_fraction() - 0.6).abs() < 1e-12);
        assert!(out.is_informed(g.node(2)));
        assert!(!out.is_informed(g.node(3)));
        assert_eq!(out.almost_complete_round(), None);
        assert!(out.time_to_fraction(0.6).is_some());
        // And the run stopped long before the horizon: once the
        // component is saturated an epoch boundary breaks the loop.
        assert!(out.informed_by_round().len() < 100);
    }

    #[test]
    fn single_node_graph_is_complete_at_round_zero() {
        let g = generators::path(0);
        let plan = decay_plan(&g, 50);
        let out = plan.run(0.3, 9);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(0));
        assert_eq!(out.almost_complete_round(), Some(0));
    }

    #[test]
    fn zero_horizon_reports_only_the_source() {
        let g = generators::path(5);
        let plan = decay_plan(&g, 0);
        let out = plan.run(0.2, 3);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 1);
        assert_eq!(out.informed_by_round(), &[1]);
    }

    #[test]
    fn high_p_star_completes_eventually() {
        // Star from the center: leaves have a single informed neighbor,
        // so every successful center transmission informs them all.
        let g = generators::star(8);
        let plan = plan(&g, 4000, FastRadioSchedule::AllInformed);
        for seed in 0..20 {
            assert!(plan.run(0.95, seed).complete(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_epoch_len_is_rejected() {
        let g = generators::path(3);
        let _ = plan(&g, 10, FastRadioSchedule::Decay { epoch_len: 0 });
    }

    #[test]
    fn batch_lanes_reproduce_scalar_lane_replays() {
        let graphs = [
            generators::grid(5, 5),
            generators::star(9),
            generators::cycle(6),
            generators::complete_bipartite(4, 5),
        ];
        for g in &graphs {
            let epoch_len = (g.node_count().max(2) as f64).log2().ceil() as usize + 1;
            for schedule in [
                FastRadioSchedule::Decay { epoch_len },
                FastRadioSchedule::AllInformed,
            ] {
                let plan = plan(g, 700, schedule);
                for p in [0.0, 0.3, 0.76, 0.9] {
                    let seed = 1000 + (p * 100.0) as u64;
                    let batch = plan.run_batch(p, seed);
                    for lane in [0u32, 1, 17, 40, 63] {
                        let scalar = plan.run_lane(p, seed, lane);
                        assert_eq!(
                            batch.lane_outcome(lane),
                            scalar,
                            "n={} schedule={schedule:?} p={p} lane={lane}",
                            g.node_count()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_summary_accessors_match_lane_outcomes() {
        let g = generators::grid(6, 5);
        let plan = decay_plan(&g, 2000);
        let batch = plan.run_batch(0.4, 99);
        for lane in 0..LANES as u32 {
            let out = batch.lane_outcome(lane);
            assert_eq!(batch.completion_round(lane), out.completion_round());
            assert_eq!(
                batch.almost_complete_round(lane),
                out.almost_complete_round(),
                "lane {lane}"
            );
            assert_eq!(batch.informed_count(lane), out.informed_count());
        }
    }

    #[test]
    fn batch_handles_edge_case_graphs() {
        // Disconnected component, single node, and a zero horizon: the
        // per-lane replays stop early and so must the batch curves.
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let disconnected = b.finish().unwrap();
        for (g, horizon) in [
            (disconnected, 2000),
            (generators::path(0), 50),
            (generators::path(5), 0),
            (generators::path(1), 40),
        ] {
            let plan = decay_plan(&g, horizon);
            for p in [0.0, 0.5] {
                let batch = plan.run_batch(p, 7);
                for lane in [0u32, 31, 63] {
                    assert_eq!(
                        batch.lane_outcome(lane),
                        plan.run_lane(p, 7, lane),
                        "n={} horizon={horizon} p={p} lane={lane}",
                        plan.node_count()
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_and_dense_fault_samplers_agree_statistically() {
        // p on either side of the 0.75 sampler switch must produce
        // comparable completion-time distributions. Star center →
        // leaves under AllInformed: every successful center
        // transmission informs all leaves at once, so completion is the
        // first success — a Geometric(1 − p) wait with mean 1/(1 − p).
        let g = generators::star(8);
        let plan = plan(&g, 6000, FastRadioSchedule::AllInformed);
        let trials = 600u64;
        let mean = |p: f64| {
            let total: usize = (0..trials)
                .map(|s| plan.run(p, s).completion_round().expect("horizon ample"))
                .sum();
            total as f64 / trials as f64
        };
        for p in [0.74, 0.76] {
            let (m, e) = (mean(p), 1.0 / (1.0 - p));
            assert!((m - e).abs() < 0.08 * e, "p={p}: mean {m} vs {e}");
        }
    }

    #[test]
    fn sharded_lane_and_batch_match_monolithic_exactly() {
        let g = generators::gnp_connected(120, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(11));
        let csr = CsrGraph::from(&g);
        for schedule in [
            FastRadioSchedule::Decay { epoch_len: 8 },
            FastRadioSchedule::AllInformed,
        ] {
            let fr = FastRadio::new(csr.clone(), g.node(0), 600, schedule);
            for shards in [2usize, 3, 7] {
                let sharded =
                    FastRadio::new(csr.clone(), g.node(0), 600, schedule).with_shards(shards);
                for p in [0.0, 0.3, 0.8] {
                    let seed = 53 + shards as u64;
                    assert_eq!(
                        sharded.run_batch(p, seed),
                        fr.run_batch(p, seed),
                        "batch diverged: {schedule:?} shards={shards} p={p}"
                    );
                    for lane in [0u32, 19, 63] {
                        assert_eq!(
                            sharded.run_lane(p, seed, lane),
                            fr.run_lane(p, seed, lane),
                            "lane diverged: {schedule:?} shards={shards} p={p} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thread_parallel_sharded_batch_matches_monolithic_exactly() {
        let g = generators::gnp_connected(120, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(11));
        let csr = CsrGraph::from(&g);
        for schedule in [
            FastRadioSchedule::Decay { epoch_len: 8 },
            FastRadioSchedule::AllInformed,
        ] {
            let fr = FastRadio::new(csr.clone(), g.node(0), 600, schedule);
            for shards in [2usize, 3, 7] {
                let sharded =
                    FastRadio::new(csr.clone(), g.node(0), 600, schedule).with_shards(shards);
                for p in [0.0, 0.3, 0.8] {
                    let seed = 213 + shards as u64;
                    let mono = fr.run_batch(p, seed);
                    for threads in [1usize, 4] {
                        assert_eq!(
                            sharded.run_batch_threads(&Omission::new(p), seed, threads),
                            mono,
                            "diverged: {schedule:?} shards={shards} threads={threads} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_core_radio_matches_the_monolithic_lane_replay() {
        use randcast_graph::shard::{default_scratch_dir, ShardStore, ShardedCsr, SpillSink};
        let g = generators::gnp_connected(110, 0.05, &mut rand::rngs::SmallRng::seed_from_u64(9));
        let csr = CsrGraph::from(&g);
        let n = csr.node_count();
        let epoch_len = (n.max(2) as f64).log2().ceil() as usize + 1;
        let plan = ShardPlan::uniform(n, 3);
        for schedule in [
            FastRadioSchedule::Decay { epoch_len },
            FastRadioSchedule::AllInformed,
        ] {
            let fr = FastRadio::new(csr.clone(), g.node(0), 900, schedule);
            let ram = ShardedRadio::new(
                ShardStore::Ram(ShardedCsr::split(&csr, plan.clone())),
                0,
                900,
                schedule,
            );
            let mut sink = SpillSink::create(default_scratch_dir(), plan.clone()).unwrap();
            for v in 0..n {
                for &t in csr.neighbors_of(v) {
                    if (v as u32) < t {
                        sink.push(v as u64, u64::from(t)).unwrap();
                    }
                }
            }
            let disk =
                ShardedRadio::new(ShardStore::Disk(sink.finalize().unwrap()), 0, 900, schedule);
            for p in [0.0, 0.5] {
                for lane in [0u32, 7, 63] {
                    let mono = fr.run_lane(p, 77, lane);
                    assert_eq!(
                        ram.run_lane(p, 77, lane).unwrap(),
                        mono,
                        "ram p={p} lane={lane}"
                    );
                    assert_eq!(
                        disk.run_lane(p, 77, lane).unwrap(),
                        mono,
                        "disk p={p} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_core_batch_and_every_knob_are_byte_invisible() {
        use randcast_graph::shard::{default_scratch_dir, ShardStore, ShardedCsr, SpillSink};
        // Big enough that early rounds (one or two participants per
        // shard) take the sparse row-read path while bulk rounds take
        // full segment views, so both loaders face the equality gate.
        let g = generators::gnp_connected(900, 0.012, &mut rand::rngs::SmallRng::seed_from_u64(21));
        let csr = CsrGraph::from(&g);
        let n = csr.node_count();
        let epoch_len = (n.max(2) as f64).log2().ceil() as usize + 1;
        let plan = ShardPlan::uniform(n, 3);
        for schedule in [
            FastRadioSchedule::Decay { epoch_len },
            FastRadioSchedule::AllInformed,
        ] {
            let fr = FastRadio::new(csr.clone(), g.node(0), 1200, schedule);
            let mono = fr.run_batch(0.3, 91);
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
                let mut radio = ShardedRadio::new(store, 0, 1200, schedule);
                for prefetch in [true, false] {
                    for threads in [1usize, 4] {
                        radio = radio.with_prefetch(prefetch).with_threads(threads);
                        assert_eq!(
                            radio.run_batch(0.3, 91).unwrap(),
                            mono,
                            "{what} batch diverged: {schedule:?} prefetch={prefetch} threads={threads}"
                        );
                        for lane in [0u32, 63] {
                            assert_eq!(
                                radio.run_lane(0.3, 91, lane).unwrap(),
                                mono.lane_outcome(lane),
                                "{what} lane diverged: {schedule:?} prefetch={prefetch} threads={threads} lane={lane}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn silent_models_route_through_the_byte_identical_omission_machinery() {
        let g = generators::grid(6, 6);
        let fr = decay_plan(&g, 2000);
        let model = Omission::new(0.4);
        assert_eq!(fr.run_batch_model(&model, 77), fr.run_batch(0.4, 77));
        for lane in [0u32, 17, 63] {
            assert_eq!(
                fr.run_lane_model(&model, 77, lane),
                fr.run_lane(0.4, 77, lane),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn model_batch_lanes_match_model_lane_replays() {
        use crate::kernel::{FlipFault, LieOrJamFault};
        let graphs = [
            generators::grid(5, 5),
            generators::star(9),
            generators::complete_bipartite(4, 5),
        ];
        for g in &graphs {
            let epoch_len = (g.node_count().max(2) as f64).log2().ceil() as usize + 1;
            let fr = plan(g, 700, FastRadioSchedule::Decay { epoch_len });
            for p in [0.0, 0.3, 0.76] {
                let models: [&dyn FaultModel; 2] = [&FlipFault::new(p), &LieOrJamFault::new(p)];
                for model in models {
                    let batch = fr.run_batch_model(model, 41);
                    for lane in [0u32, 5, 31, 63] {
                        assert_eq!(
                            batch.lane_outcome(lane),
                            fr.run_lane_model(model, 41, lane),
                            "n={} {} p={p} lane={lane}",
                            g.node_count(),
                            model.name()
                        );
                        assert_eq!(
                            batch.completion_round(lane),
                            batch.lane_outcome(lane).completion_round()
                        );
                        assert_eq!(
                            batch.almost_complete_round(lane),
                            batch.lane_outcome(lane).almost_complete_round(),
                            "n={} {} p={p} lane={lane}",
                            g.node_count(),
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flip_at_p_zero_matches_the_fault_free_omission_run_exactly() {
        use crate::kernel::FlipFault;
        // With no corruption anywhere, "everyone transmits their (true)
        // value" and "no transmission is ever silenced" are the same
        // process, coin for coin: the decay tapes drive participation
        // and the fault tape is never consulted.
        let g = generators::grid(5, 5);
        let fr = decay_plan(&g, 2000);
        for lane in [0u32, 9, 63] {
            assert_eq!(
                fr.run_lane_model(&FlipFault::new(0.0), 13, lane),
                fr.run_lane(0.0, 13, lane),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn sharded_model_runs_match_monolithic_exactly() {
        use crate::kernel::{CorruptionKind, FlipFault, WorstCasePlacement};
        let g = generators::gnp_connected(100, 0.05, &mut rand::rngs::SmallRng::seed_from_u64(23));
        let csr = CsrGraph::from(&g);
        let fr = FastRadio::new(
            csr.clone(),
            g.node(0),
            600,
            FastRadioSchedule::Decay { epoch_len: 8 },
        );
        let mut placed = WorstCasePlacement::new(0.1, CorruptionKind::Silent);
        fr.preprocess(&mut placed);
        let flip = FlipFault::new(0.3);
        let models: [&dyn FaultModel; 2] = [&placed, &flip];
        for model in models {
            for shards in [2usize, 3, 7] {
                let sharded = FastRadio::new(
                    csr.clone(),
                    g.node(0),
                    600,
                    FastRadioSchedule::Decay { epoch_len: 8 },
                )
                .with_shards(shards);
                assert_eq!(
                    sharded.run_batch_model(model, 7),
                    fr.run_batch_model(model, 7),
                    "{} shards={shards}",
                    model.name()
                );
                for lane in [0u32, 9, 63] {
                    assert_eq!(
                        sharded.run_lane_model(model, 7, lane),
                        fr.run_lane_model(model, 7, lane),
                        "{} shards={shards} lane={lane}",
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    fn placed_flip_transmitter_poisons_its_listener() {
        use crate::kernel::{CorruptionKind, WorstCasePlacement};
        // Path 0-1-2: the placed flipping node 1 (the only non-source
        // node of degree 2) delivers the wrong value to node 2, which
        // is then heard-but-wrong: the correct count stays 2. (On a
        // longer path two placed nodes in series would cancel — a flip
        // of a flip restores the value.)
        let g = generators::path(2);
        let fr = decay_plan(&g, 2000);
        let mut flip = WorstCasePlacement::new(0.5, CorruptionKind::Flip);
        fr.preprocess(&mut flip);
        assert!(flip.is_placed(1));
        let out = fr.run_lane_model(&flip, 3, 0);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 2);
        assert!(out.is_informed(g.node(1)));
        assert!(!out.is_informed(g.node(2)));
    }
}
