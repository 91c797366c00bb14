//! The randcast benchmark: end-to-end passes over three workloads, a
//! traced run that splits them into per-layer numbers, and the
//! correctness checks every pass carries.
//!
//! A *pass* is what a user of the library does once: generate the
//! inputs, set up (graph build and plan compilation, or spill,
//! finalize and BFS tree), run the trials and write a report. The
//! command (`src/main.rs`) repeats passes for the requested number of
//! seconds and reports medians. Every input of a pass is a pure
//! function of the workload seed ([`paper::spec`], [`ram::spec`],
//! [`ooc::spec`]); thread count and tracing never change an outcome,
//! which the outcome digest checks.

pub mod ceiling;
pub mod check;
pub mod machine;
pub mod ooc;
pub mod paper;
pub mod ram;
pub mod sweeps;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use check::{Digest, Ledger};
use trace::Tracer;

/// Per-layer numbers by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("flood.trials_per_s", "1/s"),
    ("radio.trials_per_s", "1/s"),
    ("simple.trials_per_s", "1/s"),
];

/// The per-layer metrics every traced run prints, with units. A layer
/// that a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("graph.build_s", "s"),
    ("graph.build.edges_per_s", "1/s"),
    ("csr.from_graph_s", "s"),
    ("csr.from_graph.gibps", "GiB/s"),
    ("csr.from_graph.stream_frac", "ratio"),
    ("scenario.prepare_s", "s"),
    ("scenario.prepare.csr_share", "ratio"),
    ("scenario.dispatch_us", "us"),
    ("shard.spill.edges_per_s", "1/s"),
    ("shard.finalize.gibps", "GiB/s"),
    ("shard.bfs_tree_s", "s"),
    ("shard.segment_read.gibps", "GiB/s"),
    ("shard.segment_read.ceiling_frac", "ratio"),
    ("shard.prefetch.saved_s", "s"),
    ("flood_fast.run_ms", "ms"),
    ("flood_fast.run_lane_ms", "ms"),
    ("flood_fast.run_batch_ms", "ms"),
    ("flood_fast.batch_speedup", "ratio"),
    ("radio_fast.run_ms", "ms"),
    ("radio_fast.run_lane_ms", "ms"),
    ("radio_fast.run_batch_ms", "ms"),
    ("radio_fast.batch_speedup", "ratio"),
    ("simple_fast.run_ms", "ms"),
    ("simple_fast.run_lane_ms", "ms"),
    ("simple_fast.run_batch_ms", "ms"),
    ("simple_fast.batch_speedup", "ratio"),
    ("flood_fast.oc.run_lane_ms", "ms"),
    ("flood_fast.oc.run_batch_ms", "ms"),
    ("flood_fast.oc.batch_speedup", "ratio"),
    ("flood_fast.oc.io_share", "ratio"),
    ("radio_fast.oc.run_lane_ms", "ms"),
    ("simple_fast.oc.run_lane_ms", "ms"),
    ("simple_fast.oc.run_batch_ms", "ms"),
    ("simple_fast.oc.batch_speedup", "ratio"),
    ("kernel.tape.words_per_s", "1/s"),
    ("kernel.tape.ceiling_frac", "ratio"),
    ("kernel.bernoulli.masks_per_s", "1/s"),
    ("kernel.lane_counter.adds_per_s", "1/s"),
    ("kernel.collision.adds_per_s", "1/s"),
    ("core.simple.trial_us", "us"),
    ("core.flood.trial_us", "us"),
    ("core.kucera.trial_us", "us"),
    ("core.expanded.trial_us", "us"),
    ("core.decay.trial_us", "us"),
    ("malicious.trials_per_s", "1/s"),
    ("kucera.trials_per_s", "1/s"),
    ("decay.trials_per_s", "1/s"),
    ("sweep.idle_frac", "ratio"),
    ("report.render_ms", "ms"),
    ("ceiling.seq_read.gibps", "GiB/s"),
    ("ceiling.stream.gibps", "GiB/s"),
    ("ceiling.splitmix.words_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("self.generators_s", "s"),
    ("self.csr_s", "s"),
    ("self.scenario_s", "s"),
    ("self.sweep_s", "s"),
    ("self.report_s", "s"),
    ("self.shard_s", "s"),
    ("self.kernel_s", "s"),
    ("self.fast_kernels_s", "s"),
    ("self.core_s", "s"),
    ("self.bench_s", "s"),
];

/// Trial families a pass reports rates for.
pub const FAMILIES: [&str; 6] = ["flood", "radio", "simple", "malicious", "kucera", "decay"];

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The reproduction traffic: trait engines over the standard
    /// six-graph suite.
    PaperTables,
    /// The in-RAM fast kernels at `n = 10⁶` through `Sweep`.
    Ram1e6,
    /// A disk shard store larger than the last-level cache.
    OutOfCore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PaperTables, Workload::Ram1e6, Workload::OutOfCore];

    /// The CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper-tables",
            Workload::Ram1e6 => "ram-1e6",
            Workload::OutOfCore => "out-of-core",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is what the benchmark measures; `Test` shrinks
/// every size so the test suite can run all three workloads quickly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Test-suite sizes.
    Test,
}

/// Execution knobs of one pass. None of them changes an outcome.
pub struct Ctx<'t> {
    /// Worker threads handed to the program.
    pub threads: usize,
    /// Directory for reports and the shard store (created on demand).
    pub out_dir: PathBuf,
    /// Span recorder (recording only in the traced run).
    pub tracer: &'t Tracer,
}

/// What one pass measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Digest of every outcome the pass produced.
    pub digest: Digest,
    /// Operations attempted and failed.
    pub ledger: Ledger,
    /// Set-up seconds (graph build + plan compilation, or spill +
    /// finalize + BFS tree).
    pub setup_s: f64,
    /// Seconds from the start of the pass to its written report.
    pub wall_s: f64,
    /// Per family: samples of (trials run, seconds in the trial phase).
    pub trials: BTreeMap<&'static str, Vec<(u64, f64)>>,
    /// Per-layer numbers measured inside the pass itself.
    pub layers: Layers,
}

impl Pass {
    /// Records a sample: `trials` trials of `family` took `secs`.
    pub fn add_trials(&mut self, family: &'static str, trials: u64, secs: f64) {
        self.trials.entry(family).or_default().push((trials, secs));
    }

    /// Trials per second of each sample of `family`.
    #[must_use]
    pub fn rates(&self, family: &str) -> Vec<f64> {
        self.trials.get(family).map_or_else(Vec::new, |samples| {
            samples
                .iter()
                .filter(|&&(trials, secs)| trials > 0 && secs > 0.0)
                .map(|&(trials, secs)| trials as f64 / secs)
                .collect()
        })
    }
}

/// Runs one pass of `workload` from `seed`; with `probes`, also calls
/// each layer directly afterwards and records what it measured there.
#[must_use]
pub fn run_pass(
    workload: Workload,
    seed: u64,
    scale: Scale,
    ctx: &Ctx<'_>,
    probes: Option<&mut Layers>,
) -> Pass {
    match workload {
        Workload::PaperTables => paper::pass(&paper::spec(seed, scale), ctx, probes),
        Workload::Ram1e6 => ram::pass(&ram::spec(seed, scale), ctx, probes),
        Workload::OutOfCore => ooc::pass(&ooc::spec(seed, scale), ctx, probes),
    }
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
