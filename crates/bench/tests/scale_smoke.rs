//! Large-`n` scaling smoke tests: one fast-path flood trial, one
//! fast-path radio (Decay) trial, and one fast-path Simple trial at
//! `n = 10⁵` must each stay comfortably inside a wall-clock budget, so
//! scaling regressions in the generators or any fast engine are caught
//! by CI (the budgets are asserted in release mode only; debug builds
//! still run the trials for correctness).
//!
//! The `1e6`/`1e7` tests additionally budget **peak RSS** (`VmHWM` via
//! [`randcast_bench::peak_rss_bytes`]; the assert is skipped where the
//! probe is unavailable). Budgets bound the whole test process —
//! graph build high-water plus the trial — so a memory regression in
//! any layer trips them.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use randcast_bench::peak_rss_bytes;
use randcast_core::scenario::{
    Algorithm, GraphFamily, Model, Scenario, ShardSpec, SIMPLE_FAST_MIN_N,
};
use randcast_core::sweep::BATCH_LANES;
use randcast_engine::fault::FaultConfig;
use randcast_engine::flood_fast::ShardedFlood;
use randcast_graph::generators::gnp_edges;
use randcast_graph::shard::{
    default_scratch_dir, ShardPlan, ShardStore, ShardedBfsTree, SpillSink,
};

/// Asserts a peak-RSS budget — or skips *visibly* when the probe is
/// unavailable, instead of silently passing. On Linux `VmHWM` is
/// always present in `/proc/self/status`, so a `None` there (every CI
/// runner included) means the probe itself broke and the test fails;
/// on other platforms the skip is logged to stderr.
fn assert_rss_budget(label: &str, budget_bytes: u64) {
    match peak_rss_bytes() {
        Some(rss) => assert!(
            rss < budget_bytes,
            "{label} peaked at {rss} bytes RSS (budget {budget_bytes} bytes)"
        ),
        None if cfg!(target_os = "linux") => {
            panic!("{label}: peak_rss_bytes() returned None on Linux — VmHWM probe broken")
        }
        None => {
            eprintln!("{label}: RSS budget SKIPPED — peak_rss_bytes() unavailable on this platform")
        }
    }
}

#[test]
fn single_trial_at_n_1e5_is_fast() {
    let scenario = Scenario {
        graph: GraphFamily::Gnp {
            n: 100_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::FloodFast { horizon_scale: 1 },
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    };
    let build_start = Instant::now();
    let prep = scenario.try_prepare().expect("valid scenario");
    let build_time = build_start.elapsed();
    assert!(prep.uses_fast_path());

    let trial_start = Instant::now();
    let out = prep.trial(42);
    let trial_time = trial_start.elapsed();

    assert!(out.success, "gnp-connected flood must complete");
    let frac = out.informed_frac.expect("fast path reports the fraction");
    assert!((frac - 1.0).abs() < 1e-12);
    assert!(out.almost_rounds.unwrap() <= out.rounds.unwrap());

    // The acceptance budget: a single n = 10⁵ trial in under a second
    // (release). Graph build + plan compile get their own generous
    // budget so generator regressions are caught too.
    if cfg!(not(debug_assertions)) {
        assert!(
            trial_time < Duration::from_secs(1),
            "n=1e5 flood trial took {trial_time:?} (budget 1s)"
        );
        assert!(
            build_time < Duration::from_secs(5),
            "n=1e5 graph+plan build took {build_time:?} (budget 5s)"
        );
    }
}

#[test]
fn single_radio_trial_at_n_1e5_is_fast() {
    let scenario = Scenario {
        graph: GraphFamily::Gnp {
            n: 100_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::DecayFast { epoch_factor: 2 },
        model: Model::Radio,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    };
    let build_start = Instant::now();
    let prep = scenario.try_prepare().expect("valid scenario");
    let build_time = build_start.elapsed();
    assert!(prep.uses_fast_path());

    let trial_start = Instant::now();
    let out = prep.trial(42);
    let trial_time = trial_start.elapsed();

    assert!(out.success, "gnp-connected decay must complete");
    let frac = out.informed_frac.expect("fast path reports the fraction");
    assert!((frac - 1.0).abs() < 1e-12);
    assert!(out.almost_rounds.unwrap() <= out.rounds.unwrap());

    // The acceptance budget: a single n = 10⁵ radio trial in under a
    // second (release). Build includes a BFS for the classical Decay
    // parameterization on top of graph generation.
    if cfg!(not(debug_assertions)) {
        assert!(
            trial_time < Duration::from_secs(1),
            "n=1e5 radio trial took {trial_time:?} (budget 1s)"
        );
        assert!(
            build_time < Duration::from_secs(5),
            "n=1e5 graph+plan build took {build_time:?} (budget 5s)"
        );
    }
}

#[test]
fn single_simple_trial_at_n_1e5_is_fast() {
    // Plain Simple: at this size the harness must auto-select the
    // geometric-draw fast path, and one trial (plus the n·m-schedule
    // bookkeeping) must fit the same 1 s release budget as the other
    // kernels.
    let scenario = Scenario {
        graph: GraphFamily::Gnp {
            n: 100_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::Simple,
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    };
    let build_start = Instant::now();
    let prep = scenario.try_prepare().expect("valid scenario");
    let build_time = build_start.elapsed();
    assert!(prep.uses_fast_path());

    let trial_start = Instant::now();
    let out = prep.trial(42);
    let trial_time = trial_start.elapsed();

    assert!(out.success, "gnp-connected simple must broadcast correctly");
    let frac = out.informed_frac.expect("fast path reports the fraction");
    assert!((frac - 1.0).abs() < 1e-12);
    // Simple's schedule is fixed-length: the completion round is n·m.
    assert_eq!(out.rounds, Some(prep.rounds() as f64));
    assert!(out.almost_rounds.unwrap() <= out.rounds.unwrap());

    if cfg!(not(debug_assertions)) {
        assert!(
            trial_time < Duration::from_secs(1),
            "n=1e5 simple trial took {trial_time:?} (budget 1s)"
        );
        assert!(
            build_time < Duration::from_secs(5),
            "n=1e5 graph+plan build took {build_time:?} (budget 5s)"
        );
    }
}

#[test]
fn single_malicious_simple_trial_at_n_1e5_is_fast() {
    // PR 8's acceptance cell one decade below the 10⁶ headline: a
    // *malicious* Simple trial must auto-select the fast path (the
    // FaultModel layer behind simple_fast) and complete the Theorem 2.2
    // majority-vote schedule inside a release wall budget. The
    // malicious phase length is an order of magnitude above the
    // omission one (~n·m ≈ 3·10⁷ model coins here), so the trial budget
    // is wider than the omission tests' 1 s.
    let scenario = Scenario {
        graph: GraphFamily::Gnp {
            n: 100_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::Simple,
        model: Model::Mp,
        fault: FaultConfig::malicious(0.3),
        shards: ShardSpec::Auto,
    };
    let build_start = Instant::now();
    let prep = scenario.try_prepare().expect("valid scenario");
    let build_time = build_start.elapsed();
    assert!(prep.uses_fast_path(), "malicious Simple must auto-dispatch");

    let trial_start = Instant::now();
    let out = prep.trial(42);
    let trial_time = trial_start.elapsed();

    assert!(out.success, "Theorem 2.2 schedule broadcasts correctly");
    let frac = out.informed_frac.expect("fast path reports the fraction");
    assert!((frac - 1.0).abs() < 1e-12);
    assert_eq!(out.rounds, Some(prep.rounds() as f64));

    if cfg!(not(debug_assertions)) {
        assert!(
            trial_time < Duration::from_secs(3),
            "n=1e5 malicious simple trial took {trial_time:?} (budget 3s)"
        );
        assert!(
            build_time < Duration::from_secs(5),
            "n=1e5 graph+plan build took {build_time:?} (budget 5s)"
        );
    }
}

#[test]
fn batched_block_at_n_1e5_fits_the_block_budget() {
    // One bit-sliced block = 64 coupled trials in a single frontier
    // pass per round. At the ≥10x per-trial throughput the batch path
    // targets, a whole block at n = 10⁵ must land well under 64 scalar
    // budgets — 8 s covers the bar with slack while still catching a
    // batch kernel that silently degrades toward scalar speed.
    let scenario = Scenario {
        graph: GraphFamily::Gnp {
            n: 100_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::FloodFast { horizon_scale: 1 },
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    };
    let prep = scenario.try_prepare().expect("valid scenario");
    assert!(prep.supports_batch());

    let block_start = Instant::now();
    let block = prep.trial_block(42);
    let block_time = block_start.elapsed();

    assert_eq!(block.len(), BATCH_LANES);
    for (lane, out) in block.iter().enumerate() {
        assert!(out.success, "lane {lane}: gnp-connected flood completes");
        let frac = out.informed_frac.expect("fast path reports the fraction");
        assert!((frac - 1.0).abs() < 1e-12);
    }
    // Spot-check the lane coupling at scale (the full 250-seed sweep
    // lives in crates/core/tests/batch_equivalence.rs).
    assert_eq!(block[0], prep.trial_lane(42, 0));

    if cfg!(not(debug_assertions)) {
        assert!(
            block_time < Duration::from_secs(8),
            "n=1e5 64-trial block took {block_time:?} (budget 8s)"
        );
    }
}

#[test]
fn sharded_flood_trial_at_n_1e6_fits_wall_and_rss_budgets() {
    // The 10⁶ acceptance cell: one scalar fast-flood trial, run both
    // monolithic and through the 4-shard frontier passes. The sharded
    // replay must be byte-identical (the 250-seed sweep lives in
    // crates/core/tests/shard_equivalence.rs; this is the at-scale
    // spot check), and the whole process must respect the documented
    // budgets: 60 s build + 5 s trial (release), 4 GiB peak RSS.
    let scenario = |shards| Scenario {
        graph: GraphFamily::Gnp {
            n: 1_000_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::FloodFast { horizon_scale: 1 },
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards,
    };
    let build_start = Instant::now();
    let mono = scenario(ShardSpec::Auto).try_prepare().expect("valid");
    let sharded = scenario(ShardSpec::Fixed(4)).try_prepare().expect("valid");
    let build_time = build_start.elapsed();
    assert!(mono.shard_plan().is_none(), "auto stays monolithic at 1e6");
    assert!(sharded.shard_plan().is_some());

    let trial_start = Instant::now();
    let out = mono.trial_lane(42, 7);
    let trial_time = trial_start.elapsed();
    assert!(out.success, "gnp-connected flood must complete");
    assert_eq!(
        sharded.trial_lane(42, 7),
        out,
        "sharding is outcome-neutral"
    );

    if cfg!(not(debug_assertions)) {
        assert!(
            trial_time < Duration::from_secs(5),
            "n=1e6 flood trial took {trial_time:?} (budget 5s)"
        );
        assert!(
            build_time < Duration::from_secs(60),
            "n=1e6 double graph+plan build took {build_time:?} (budget 60s)"
        );
        assert_rss_budget("n=1e6 smoke", 4 << 30);
    }
}

#[test]
#[ignore = "10^7-scale release gate: minutes of wall; run via CI's dedicated step or --include-ignored"]
fn sharded_flood_trial_at_n_1e7_fits_wall_and_rss_budgets() {
    // The 10⁷ acceptance cell (CI runs this in its own release step).
    // Above SHARD_AUTO_MIN_N, ShardSpec::Auto resolves a budgeted plan
    // (`shard_plan()` is `Some`; at this size the plan has one shard),
    // and the documented budgets are 10 min build + 30 s trial wall with
    // 16 GiB peak RSS — the adjacency-list build dominates both.
    let prep = Scenario {
        graph: GraphFamily::Gnp {
            n: 10_000_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::FloodFast { horizon_scale: 1 },
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    };
    let build_start = Instant::now();
    let prep = prep.try_prepare().expect("valid scenario");
    let build_time = build_start.elapsed();
    assert!(
        prep.shard_plan().is_some(),
        "auto-sharding must engage at 1e7"
    );

    let trial_start = Instant::now();
    let out = prep.trial_lane(42, 0);
    let trial_time = trial_start.elapsed();
    assert!(out.success, "gnp-connected flood must complete");

    if cfg!(not(debug_assertions)) {
        assert!(
            trial_time < Duration::from_secs(30),
            "n=1e7 flood trial took {trial_time:?} (budget 30s)"
        );
        assert!(
            build_time < Duration::from_secs(600),
            "n=1e7 graph+plan build took {build_time:?} (budget 600s)"
        );
        assert_rss_budget("n=1e7 flood smoke", 16 << 30);
    }
}

#[test]
#[ignore = "10^7-scale release gate: minutes of wall; run via CI's dedicated step or --include-ignored"]
fn sharded_radio_trial_at_n_1e7_fits_wall_and_rss_budgets() {
    // The 10⁷ radio acceptance cell (CI runs this in its own release
    // step, next to the flood gate). One scalar Decay trial through the
    // auto-engaged shard-at-a-time passes — the global collision
    // counter and epoch-exhaustion sweep run across segment views. The
    // documented budgets: 10 min build (graph + the BFS behind the
    // classical Decay parameterization) + 120 s trial wall, 16 GiB
    // peak RSS. The trial budget is wider than flood's because Decay
    // re-walks the active set `⌈log₂ n⌉ + 1` rounds per epoch.
    let prep = Scenario {
        graph: GraphFamily::Gnp {
            n: 10_000_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::DecayFast { epoch_factor: 2 },
        model: Model::Radio,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    };
    let build_start = Instant::now();
    let prep = prep.try_prepare().expect("valid scenario");
    let build_time = build_start.elapsed();
    assert!(
        prep.shard_plan().is_some(),
        "auto-sharding must engage at 1e7"
    );

    let trial_start = Instant::now();
    let out = prep.trial_lane(42, 0);
    let trial_time = trial_start.elapsed();
    assert!(out.success, "gnp-connected decay must complete");

    if cfg!(not(debug_assertions)) {
        assert!(
            trial_time < Duration::from_secs(120),
            "n=1e7 radio trial took {trial_time:?} (budget 120s)"
        );
        assert!(
            build_time < Duration::from_secs(600),
            "n=1e7 graph+plan build took {build_time:?} (budget 600s)"
        );
        assert_rss_budget("n=1e7 radio smoke", 16 << 30);
    }
}

#[test]
#[ignore = "10^7-scale release gate: minutes of wall; run via CI's dedicated step or --include-ignored"]
fn sharded_simple_trial_at_n_1e7_fits_wall_and_rss_budgets() {
    // The 10⁷ Simple acceptance cell (CI runs this in its own release
    // step). One scalar trial of the fixed n·m schedule through the
    // auto-engaged sharded (level, id)-ordered phase walk. Budgets:
    // 10 min build (graph + BFS tree) + 30 s trial wall, 16 GiB peak
    // RSS — the geometric-draw walk is O(n + adoptions), so the trial
    // is flood-cheap despite the 10⁸-round nominal schedule.
    let prep = Scenario {
        graph: GraphFamily::Gnp {
            n: 10_000_000,
            avg_deg: 8,
            seed: 5,
        },
        algorithm: Algorithm::SimpleFast { phase_len: None },
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    };
    let build_start = Instant::now();
    let prep = prep.try_prepare().expect("valid scenario");
    let build_time = build_start.elapsed();
    assert!(
        prep.shard_plan().is_some(),
        "auto-sharding must engage at 1e7"
    );

    let trial_start = Instant::now();
    let out = prep.trial_lane(42, 0);
    let trial_time = trial_start.elapsed();
    assert!(out.success, "gnp-connected simple must broadcast correctly");

    if cfg!(not(debug_assertions)) {
        assert!(
            trial_time < Duration::from_secs(30),
            "n=1e7 simple trial took {trial_time:?} (budget 30s)"
        );
        assert!(
            build_time < Duration::from_secs(600),
            "n=1e7 graph+plan build took {build_time:?} (budget 600s)"
        );
        assert_rss_budget("n=1e7 simple smoke", 16 << 30);
    }
}

#[test]
#[ignore = "10^7-scale release gate: minutes of wall; run via CI's dedicated step or --include-ignored"]
fn out_of_core_batch_per_trial_wall_beats_scalar_5x_at_n_1e7() {
    // The batched out-of-core acceptance gate: a 64-lane flood block
    // over a disk-backed store at n = 10⁷ must amortize its segment
    // loads well enough that the *per-trial* wall lands at least 5x
    // below one scalar out-of-core trial of the same kernel. Flood is
    // the kernel where the batched claim bites: its lanes share one
    // bit-plane pass, so the block costs roughly one traversal's I/O.
    // (Radio's Decay block is the documented structural ceiling —
    // per-lane-independent coins over a unioned active set — and its
    // coupling is pinned by shard_equivalence.rs instead.) The batch
    // couples its lanes to the scalar path (lane 0 of the block is
    // byte-identical to `run_lane(.., 0)`), so the comparison is one
    // workload measured two ways, not two workloads.
    let n: usize = 10_000_000;
    #[allow(clippy::cast_precision_loss)]
    let nf = n as f64;
    let q = 8.0 / (nf - 1.0);
    let plan = ShardPlan::for_budget(n, 8 * n as u64, 1 << 30);
    let mut sink = SpillSink::create(default_scratch_dir(), plan).expect("spill sink");
    let mut rng = SmallRng::seed_from_u64(0x0107_e8ed);
    gnp_edges(&mut sink, n, q, &mut rng).expect("edge stream");
    let store = ShardStore::Disk(sink.finalize().expect("finalize"));
    let reach = ShardedBfsTree::build(&store, 0, default_scratch_dir())
        .expect("sharded BFS build")
        .reachable();

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let d_est = (3.0 * nf.ln() / 8f64.ln()).ceil() as usize;
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let horizon = ((2.0 * (d_est as f64 + 4.0 * nf.ln()) / 0.7).ceil() as usize).max(1);
    let flood = ShardedFlood::new(store, 0, horizon);

    let scalar_start = Instant::now();
    let scalar = flood.run_lane(0.3, 42, 0).expect("scalar trial");
    let scalar_wall = scalar_start.elapsed();

    let batch_start = Instant::now();
    let batch = flood.run_batch(0.3, 42, reach).expect("batched block");
    let batch_wall = batch_start.elapsed();

    assert_eq!(batch.lane_outcome(0), scalar, "lanes couple to scalar");

    if cfg!(not(debug_assertions)) {
        let per_trial = batch_wall / u32::try_from(BATCH_LANES).expect("lane count fits");
        assert!(
            per_trial * 5 <= scalar_wall,
            "batched per-trial wall {per_trial:?} not 5x under scalar {scalar_wall:?} \
             (batch total {batch_wall:?} over {BATCH_LANES} lanes)"
        );
    }
}

#[test]
fn auto_fast_path_engages_at_the_simple_threshold() {
    // Plain Simple under omission must transparently select the fast
    // path exactly from SIMPLE_FAST_MIN_N upward — the harness-side
    // contract DESIGN.md documents (mirroring the flood/radio checks).
    let at = Scenario {
        graph: GraphFamily::PreferentialAttachment {
            n: SIMPLE_FAST_MIN_N,
            m: 3,
            seed: 11,
        },
        algorithm: Algorithm::Simple,
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid scenario");
    assert!(at.uses_fast_path());
    assert!(at.trial(7).success);
    let below = Scenario {
        graph: GraphFamily::PreferentialAttachment {
            n: SIMPLE_FAST_MIN_N - 1,
            m: 3,
            seed: 11,
        },
        algorithm: Algorithm::Simple,
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid scenario");
    assert!(
        !below.uses_fast_path(),
        "below the threshold: general engine"
    );
}

#[test]
fn auto_fast_path_engages_for_large_radio_scenarios() {
    // Plain Decay must transparently select the fast path at scale —
    // the harness-side contract DESIGN.md documents.
    let prep = Scenario {
        graph: GraphFamily::PreferentialAttachment {
            n: 8192,
            m: 3,
            seed: 11,
        },
        algorithm: Algorithm::Decay { epoch_factor: 2 },
        model: Model::Radio,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid scenario");
    assert!(prep.uses_fast_path());
    assert!(prep.trial(7).success);
}

#[test]
fn auto_fast_path_engages_for_large_flood_scenarios() {
    // The plain Flood algorithm must transparently select the fast path
    // at scale — the harness-side contract DESIGN.md documents.
    let prep = Scenario {
        graph: GraphFamily::PreferentialAttachment {
            n: 8192,
            m: 3,
            seed: 11,
        },
        algorithm: Algorithm::Flood { horizon_scale: 1 },
        model: Model::Mp,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid scenario");
    assert!(prep.uses_fast_path());
    assert!(prep.trial(7).success);
}
