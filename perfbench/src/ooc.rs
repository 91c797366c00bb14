//! `out-of-core`: a disk shard store for `gnp_edges` at `n = 4·10⁶`
//! with a fixed 8-shard plan. Its segment files (about 144 MB) exceed
//! the last-level cache; the kernels read them back through the page
//! cache, since every pass writes them just before reading.
//!
//! A pass spills the edge stream, finalizes the segments, builds the
//! sharded BFS tree, then runs two scalar flood trials, one scalar
//! Decay trial, and Simple's scalar trial plus three 64-lane blocks, all
//! with segment prefetch on. The flood block (about 25 s) only runs in
//! the traced run's probes.

use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::SeedableRng as _;
use randcast_core::decay::DecayConfig;
use randcast_engine::flood_fast::ShardedFlood;
use randcast_engine::kernel::LANES;
use randcast_engine::radio_fast::{FastRadioSchedule, ShardedRadio};
use randcast_engine::simple_fast::ShardedSimple;
use randcast_graph::generators::gnp_edges;
use randcast_graph::shard::{
    EdgeSink, ShardError, ShardPlan, ShardScratch, ShardStore, ShardedBfsTree, ShardedCsr,
    SpillSink,
};
use randcast_graph::CsrGraph;
use randcast_stats::chernoff::phase_len_omission;
use randcast_stats::seed::SeedSequence;

use crate::check::{curve_ok, Digest};
use crate::{median, Ctx, Layers, Pass, Scale};

/// Omission probability of every trial.
const P: f64 = 0.3;
/// Mean degree of the edge stream.
const AVG_DEG: f64 = 8.0;
/// Simple's 64-lane blocks per pass (a block takes under half a second,
/// so one alone is too short to time steadily).
const SIMPLE_BLOCKS: u64 = 3;

/// Every input of an `out-of-core` pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OocSpec {
    /// Node count.
    pub n: usize,
    /// Shards of the fixed plan.
    pub shards: usize,
    /// Seed of the edge stream.
    pub graph_seed: u64,
    /// Block seed of the flood trials (lane 0, and the probe's block).
    pub flood_seed: u64,
    /// Block seed of the Decay trial.
    pub radio_seed: u64,
    /// Block seed of the Simple trials (lane 0 and the first block;
    /// later blocks count up from it).
    pub simple_seed: u64,
}

/// The workload's inputs: a pure function of `seed`.
#[must_use]
pub fn spec(seed: u64, scale: Scale) -> OocSpec {
    let seeds = SeedSequence::new(seed).child(0x00C0);
    OocSpec {
        n: match scale {
            Scale::Full => 4_000_000,
            Scale::Test => 50_000,
        },
        shards: 8,
        graph_seed: seeds.nth_seed(0),
        flood_seed: seeds.nth_seed(1),
        radio_seed: seeds.nth_seed(2),
        simple_seed: seeds.nth_seed(3),
    }
}

/// The pass's scratch directory under the output directory.
#[must_use]
pub fn scratch_dir(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("ooc-{}", std::process::id()))
}

/// Total size of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .filter(std::fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

/// Panics with the shard error: `src/main.rs` counts a panicking pass as
/// a failed operation.
fn ok<T>(what: &str, r: Result<T, ShardError>) -> T {
    r.unwrap_or_else(|e| panic!("out-of-core {what} failed: {e}"))
}

/// One pass; with `probes`, then times the store's layers directly.
///
/// # Panics
///
/// Panics on any [`ShardError`].
#[must_use]
pub fn pass(spec: &OocSpec, ctx: &Ctx<'_>, probes: Option<&mut Layers>) -> Pass {
    let tracer = ctx.tracer;
    let n = spec.n;
    let nf = n as f64;
    let dir = scratch_dir(&ctx.out_dir);
    let plan = ShardPlan::uniform(n, spec.shards);
    let q = (AVG_DEG / (nf - 1.0)).min(1.0);
    let start = std::time::Instant::now();

    let mut sink = ok(
        "spill",
        SpillSink::create(dir.join("adjacency"), plan.clone()),
    );
    let mut rng = SmallRng::seed_from_u64(spec.graph_seed);
    let (r, spill_s) = tracer.timed("shard.spill", || gnp_edges(&mut sink, n, q, &mut rng));
    ok("spill", r);
    let (disk, finalize_s) = tracer.timed("shard.finalize", || sink.finalize());
    let disk = ok("finalize", disk);
    let edges = disk.edge_count();
    let segment_bytes = dir_bytes(&dir.join("adjacency"));
    let store = ShardStore::Disk(disk);
    let (tree, bfs_s) = tracer.timed("shard.bfs_tree", || {
        ShardedBfsTree::build(&store, 0, dir.join("tree"))
    });
    let tree = ok("BFS tree", tree);
    let setup_s = spill_s + finalize_s + bfs_s;
    let reach = tree.reachable();
    let (order, children) = tree.into_parts();

    // Theorem 3.1 shape without a resident graph, as the scale
    // binaries use it: the giant component's diameter is at most about
    // 3 ln n / ln 8; trials stop early once nothing can change.
    let d_est = (3.0 * nf.ln() / AVG_DEG.ln()).ceil();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let horizon = ((2.0 * (d_est + 4.0 * nf.ln()) / (1.0 - P)).ceil() as usize).max(1);
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let mut digest = Digest::default();
    digest.u64(edges);
    digest.u64(reach as u64);

    let flood = ShardedFlood::new(store, 0, horizon).with_prefetch(true);
    let (flood_lane, flood_s) = tracer.timed("flood_fast.oc.run_lane", || {
        flood.run_lane(P, spec.flood_seed, 0)
    });
    let flood_lane = ok("flood trial", flood_lane);
    let (second_lane, second_s) = tracer.timed("flood_fast.oc.run_lane", || {
        flood.run_lane(P, spec.flood_seed, 1)
    });
    let second_lane = ok("flood trial", second_lane);
    let store = flood.into_store();

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let decay = DecayConfig::classical(n, d_est as usize);
    let radio = ShardedRadio::new(
        store,
        0,
        decay.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: decay.epoch_len,
        },
    )
    .with_prefetch(true)
    .with_threads(ctx.threads);
    let (radio_lane, radio_s) = tracer.timed("radio_fast.oc.run_lane", || {
        radio.run_lane(P, spec.radio_seed, 0)
    });
    let radio_lane = ok("radio trial", radio_lane);
    let store = radio.into_store();

    let m = phase_len_omission(n.max(2), P);
    let simple = ShardedSimple::new(ShardStore::Disk(children), order, 0, m).with_prefetch(true);
    let (simple_lane, simple_lane_s) = tracer.timed("simple_fast.oc.run_lane", || {
        simple.run_lane(P, spec.simple_seed, 0)
    });
    let simple_lane = ok("Simple trial", simple_lane);
    let mut simple_blocks = Vec::new();
    let mut simple_batch_s = Vec::new();
    for block in 0..SIMPLE_BLOCKS {
        let (batch, s) = tracer.timed("simple_fast.oc.run_batch", || {
            simple.run_batch(P, spec.simple_seed.wrapping_add(block))
        });
        simple_blocks.push(ok("Simple block", batch));
        simple_batch_s.push(s);
    }
    drop(simple);

    // Checks and digest.
    for (what, by_round, informed, completion, h) in [
        (
            "flood",
            flood_lane.informed_by_round(),
            flood_lane.informed_count(),
            flood_lane.completion_round(),
            horizon,
        ),
        (
            "flood",
            second_lane.informed_by_round(),
            second_lane.informed_count(),
            second_lane.completion_round(),
            horizon,
        ),
        (
            "radio",
            radio_lane.informed_by_round(),
            radio_lane.informed_count(),
            radio_lane.completion_round(),
            decay.total_rounds(),
        ),
    ] {
        pass.ledger
            .check(curve_ok(by_round, informed, n, completion, h), || {
                format!("out-of-core {what} trial breaks an invariant")
            });
        pass.ledger.check(informed <= reach, || {
            format!("out-of-core {what} informed beyond reach")
        });
        digest.opt(completion);
        digest.u64(informed as u64);
        digest.u64(by_round.len() as u64);
    }
    pass.ledger
        .check(simple_blocks[0].lane_outcome(0) == simple_lane, || {
            "out-of-core Simple block lane 0 differs from run_lane".to_owned()
        });
    for batch in &simple_blocks {
        for lane in 0..LANES as u32 {
            let correct = batch.correct_count(lane);
            let completion = batch.completion_round(lane);
            pass.ledger.check(
                correct <= reach && completion.is_none_or(|r| r <= batch.total_rounds()),
                || format!("out-of-core Simple lane {lane} breaks an invariant"),
            );
            digest.opt(completion);
            digest.u64(correct as u64);
        }
    }
    pass.digest = digest;

    let report = format!(
        "out-of-core pass: n={n} edges={edges} shards={} segment_bytes={segment_bytes} reach={reach}\n\
         flood lane: completion={:?} informed={}\n\
         radio lane: completion={:?} informed={}\n\
         simple lane: completion={:?} correct={}\n\
         simple blocks: mean correct fraction={}\n",
        spec.shards,
        flood_lane.completion_round(),
        flood_lane.informed_count(),
        radio_lane.completion_round(),
        radio_lane.informed_count(),
        simple_lane.completion_round(),
        simple_lane.correct_count(),
        simple_blocks
            .iter()
            .flat_map(|b| (0..LANES as u32).map(|l| b.correct_fraction(l)))
            .sum::<f64>()
            / (simple_blocks.len() * LANES) as f64,
    );
    std::fs::write(ctx.out_dir.join("out_of_core.txt"), report).expect("write the pass report");
    pass.wall_s = start.elapsed().as_secs_f64();

    pass.add_trials("flood", 1, flood_s);
    pass.add_trials("flood", 1, second_s);
    pass.add_trials("radio", 1, radio_s);
    let blocks_s: f64 = simple_batch_s.iter().sum();
    pass.add_trials(
        "simple",
        1 + SIMPLE_BLOCKS * LANES as u64,
        simple_lane_s + blocks_s,
    );
    let layers = &mut pass.layers;
    layers.insert("graph.build_s", spill_s);
    layers.insert("graph.build.edges_per_s", edges as f64 / spill_s);
    layers.insert("shard.spill.edges_per_s", edges as f64 / spill_s);
    layers.insert(
        "shard.finalize.gibps",
        segment_bytes as f64 / f64::from(1 << 30) / finalize_s,
    );
    layers.insert("shard.bfs_tree_s", bfs_s);
    layers.insert("flood_fast.oc.run_lane_ms", flood_s * 1e3);
    layers.insert("radio_fast.oc.run_lane_ms", radio_s * 1e3);
    layers.insert("simple_fast.oc.run_lane_ms", simple_lane_s * 1e3);
    let block_s = median(&simple_batch_s);
    layers.insert("simple_fast.oc.run_batch_ms", block_s * 1e3);
    layers.insert(
        "simple_fast.oc.batch_speedup",
        LANES as f64 * simple_lane_s / block_s,
    );

    if let Some(layers) = probes {
        let ctx_probe = Probe {
            spec,
            plan,
            horizon,
            reach,
            segment_bytes,
            flood_s,
        };
        ctx_probe.run(store, &flood_lane, ctx, layers, &mut pass);
    } else {
        drop(store);
    }
    let _ = std::fs::remove_dir_all(&dir);
    pass
}

/// What the probes need from the pass.
struct Probe<'a> {
    spec: &'a OocSpec,
    plan: ShardPlan,
    horizon: usize,
    reach: usize,
    segment_bytes: u64,
    flood_s: f64,
}

/// The in-RAM [`EdgeSink`]: collects the same edge stream the pass
/// spilled, for the in-core control store.
struct CollectSink(Vec<(u32, u32)>);

impl EdgeSink for CollectSink {
    fn edge(&mut self, u: u64, v: u64) -> Result<(), ShardError> {
        let (Ok(u), Ok(v)) = (u32::try_from(u), u32::try_from(v)) else {
            return Err(ShardError::Io(std::io::Error::other(
                "node id does not fit the in-RAM store",
            )));
        };
        self.0.push((u, v));
        Ok(())
    }
}

impl Probe<'_> {
    /// Segment reads, the prefetch saving, the 64-lane flood block and
    /// the disk-versus-RAM share of a flood trial.
    fn run(
        &self,
        store: ShardStore,
        flood_lane: &randcast_engine::flood_fast::FastFloodOutcome,
        ctx: &Ctx<'_>,
        layers: &mut Layers,
        pass: &mut Pass,
    ) {
        let tracer = ctx.tracer;
        let spec = self.spec;

        let mut rates = Vec::new();
        for _ in 0..3 {
            let mut total = 0.0;
            for s in 0..spec.shards {
                let mut scratch = ShardScratch::new();
                let (view, secs) = tracer.timed("shard.segment_read", || {
                    store.view(s, &mut scratch).map(|v| v.entry_count())
                });
                ok("segment read", view);
                total += secs;
            }
            rates.push(self.segment_bytes as f64 / f64::from(1 << 30) / total);
        }
        layers.insert("shard.segment_read.gibps", median(&rates));

        let flood = ShardedFlood::new(store, 0, self.horizon).with_prefetch(false);
        let (lane, off_s) = tracer.timed("flood_fast.oc.run_lane", || {
            flood.run_lane(P, spec.flood_seed, 0)
        });
        pass.ledger
            .check(&ok("flood trial", lane) == flood_lane, || {
                "prefetch changed an out-of-core flood outcome".to_owned()
            });
        layers.insert("shard.prefetch.saved_s", off_s - self.flood_s);

        let flood = ShardedFlood::new(flood.into_store(), 0, self.horizon).with_prefetch(true);
        let (batch, batch_s) = tracer.timed("flood_fast.oc.run_batch", || {
            flood.run_batch(P, spec.flood_seed, self.reach)
        });
        pass.ledger.check(
            &ok("flood block", batch).lane_outcome(0) == flood_lane,
            || "out-of-core flood block lane 0 differs from run_lane".to_owned(),
        );
        layers.insert("flood_fast.oc.run_batch_ms", batch_s * 1e3);
        layers.insert(
            "flood_fast.oc.batch_speedup",
            LANES as f64 * self.flood_s / batch_s,
        );
        drop(flood);

        // The same trial over an in-RAM store of the same edges.
        let nf = spec.n as f64;
        let q = (AVG_DEG / (nf - 1.0)).min(1.0);
        let mut sink = CollectSink(Vec::new());
        let mut rng = SmallRng::seed_from_u64(spec.graph_seed);
        let (r, _) = tracer.timed("generators.gnp_edges", || {
            gnp_edges(&mut sink, spec.n, q, &mut rng)
        });
        ok("edge stream", r);
        let (csr, _) = tracer.timed("csr.from_edges", || CsrGraph::from_edges(spec.n, &sink.0));
        drop(sink);
        let (split, _) = tracer.timed("shard.split", || ShardedCsr::split(&csr, self.plan.clone()));
        drop(csr);
        let flood = ShardedFlood::new(ShardStore::Ram(split), 0, self.horizon).with_prefetch(true);
        let (lane, ram_s) = tracer.timed("flood_fast.oc.run_lane", || {
            flood.run_lane(P, spec.flood_seed, 0)
        });
        pass.ledger
            .check(&ok("flood trial", lane) == flood_lane, || {
                "the RAM store changed an out-of-core flood outcome".to_owned()
            });
        layers.insert(
            "flood_fast.oc.io_share",
            (self.flood_s - ram_s) / self.flood_s,
        );
    }
}
