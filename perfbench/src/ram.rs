//! `ram-1e6`: the in-RAM fast kernels at `n = 10⁶` through `Sweep`.
//! The `Gnp` adjacency (about 36 MB of CSR) fits in the last-level
//! cache; one random geometric graph adds a long horizon with narrow
//! frontiers.

use std::hint::black_box;
use std::sync::Arc;

use randcast_core::decay::DecayConfig;
use randcast_core::scenario::{Algorithm, GraphFamily, Model, Scenario, ShardSpec};
use randcast_engine::fault::FaultConfig;
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_engine::kernel::{
    BatchBernoulli, BatchTape, CollisionCounter, LaneCounter, FAULT_STREAM, LANES,
};
use randcast_engine::radio_fast::{FastRadio, FastRadioSchedule};
use randcast_engine::simple_fast::FastSimple;
use randcast_graph::{traversal, CsrGraph, Graph};
use randcast_stats::seed::SeedSequence;

use crate::check::curve_ok;
use crate::sweeps::{self, Cell, SweepSpec};
use crate::{median, Ctx, Layers, Pass, Scale};

/// Omission probability of every omission cell.
const P: f64 = 0.3;
/// Malicious probability (below the `p < 1/2` threshold of Theorem 2.2).
const P_MALICIOUS: f64 = 0.1;

/// Every input of a `ram-1e6` pass.
#[derive(Clone, PartialEq, Debug)]
pub struct RamSpec {
    /// The sweeps the pass runs, one per trial family.
    pub sweeps: Vec<SweepSpec>,
    /// Graph of the direct kernel probes (the sweep's `Gnp`).
    pub gnp: GraphFamily,
    /// Graph of the radio kernel probe: a 64-lane Decay block at
    /// `n = 10⁶` takes tens of seconds, so the radio probe runs on a
    /// `Gnp` a tenth that size.
    pub radio_probe: GraphFamily,
    /// Seed of every probe trial.
    pub probe_seed: u64,
}

/// The workload's inputs: a pure function of `seed`.
#[must_use]
pub fn spec(seed: u64, scale: Scale) -> RamSpec {
    let seeds = SeedSequence::new(seed).child(0x4A33);
    let n = match scale {
        Scale::Full => 1_000_000,
        Scale::Test => 20_000,
    };
    let gnp = GraphFamily::Gnp {
        n,
        avg_deg: 8,
        seed: seeds.nth_seed(0),
    };
    let rgg = GraphFamily::RandomGeometric {
        n,
        deg: 12,
        seed: seeds.nth_seed(1),
    };
    let om = FaultConfig::omission(P);
    let mal = FaultConfig::malicious(P_MALICIOUS);
    let limited = FaultConfig::limited_malicious(P_MALICIOUS);
    let flood = Algorithm::Flood { horizon_scale: 1 };
    let cell = |graph, algorithm, model, fault, trials, guaranteed| Cell {
        scenario: Scenario {
            graph,
            algorithm,
            model,
            fault,
            shards: ShardSpec::Auto,
        },
        trials,
        guaranteed,
    };
    let sweep = |i: u64, name, family, cells| SweepSpec {
        name,
        family,
        root_seed: seeds.child(i).master(),
        cells,
    };
    let sweeps = vec![
        sweep(
            2,
            "ram_flood",
            "flood",
            vec![
                // Full 64-lane blocks.
                cell(gnp, flood, Model::Mp, om, 256, true),
                // Long horizon, narrow frontiers; possibly disconnected.
                cell(
                    rgg,
                    Algorithm::FloodFast { horizon_scale: 1 },
                    Model::Mp,
                    om,
                    64,
                    false,
                ),
            ],
        ),
        // Two blocks plus a 16-lane tail replayed lane by lane.
        sweep(
            3,
            "ram_simple",
            "simple",
            vec![cell(gnp, Algorithm::Simple, Model::Mp, om, 144, true)],
        ),
        // LaneCounter votes instead of BatchBernoulli coins.
        sweep(
            4,
            "ram_malicious",
            "malicious",
            vec![
                cell(gnp, Algorithm::Simple, Model::Mp, mal, 128, true),
                cell(gnp, flood, Model::Mp, limited, 64, false),
            ],
        ),
        // Fewer than 64 trials: the scalar `run` path.
        sweep(
            5,
            "ram_radio",
            "radio",
            vec![cell(
                gnp,
                Algorithm::Decay { epoch_factor: 1 },
                Model::Radio,
                om,
                4,
                false,
            )],
        ),
    ];
    RamSpec {
        sweeps,
        gnp,
        radio_probe: GraphFamily::Gnp {
            n: n / 10,
            avg_deg: 8,
            seed: seeds.nth_seed(3),
        },
        probe_seed: seeds.nth_seed(4),
    }
}

/// One pass; with `probes`, then times each layer directly.
#[must_use]
pub fn pass(spec: &RamSpec, ctx: &Ctx<'_>, probes: Option<&mut Layers>) -> Pass {
    let mut pass = sweeps::run(&spec.sweeps, ctx);
    if let Some(layers) = probes {
        probe(spec, ctx, layers, &mut pass);
    }
    pass
}

/// Direct calls into each layer: graph generation, CSR conversion,
/// plan compilation, each fast kernel's `run` / `run_lane` /
/// `run_batch`, the sweep dispatch against a direct kernel call, and
/// the kernel primitives.
fn probe(spec: &RamSpec, ctx: &Ctx<'_>, layers: &mut Layers, pass: &mut Pass) {
    let tracer = ctx.tracer;
    let mut families: Vec<GraphFamily> = Vec::new();
    let cells: Vec<&Cell> = spec.sweeps.iter().flat_map(|s| &s.cells).collect();
    for cell in &cells {
        if !families.contains(&cell.scenario.graph) {
            families.push(cell.scenario.graph);
        }
    }
    let mut build_s = 0.0;
    let mut edges = 0usize;
    let mut graphs: Vec<(GraphFamily, Arc<Graph>, f64)> = Vec::new();
    let mut gnp_csr = None;
    let mut csr_s_gnp = 0.0;
    for family in families {
        let (g, s) = tracer.timed("generators.build", || family.build());
        build_s += s;
        edges += g.edge_count();
        let (csr, csr_s) = tracer.timed("csr.from_graph", || CsrGraph::from(&g));
        if family == spec.gnp {
            csr_s_gnp = csr_s;
            gnp_csr = Some(csr);
        }
        graphs.push((family, Arc::new(g), csr_s));
    }
    let csr = gnp_csr.expect("the sweep runs on the probe graph");
    let csr_bytes = 4 * (csr.offsets().len() + csr.targets().len());
    layers.insert("graph.build_s", build_s);
    layers.insert("graph.build.edges_per_s", edges as f64 / build_s);
    layers.insert("csr.from_graph_s", csr_s_gnp);
    layers.insert(
        "csr.from_graph.gibps",
        csr_bytes as f64 / f64::from(1 << 30) / csr_s_gnp,
    );

    // Plan compilation, cell by cell; keep the flood and Simple plans'
    // parameters for the direct kernel calls.
    let mut prepare_s = 0.0;
    let mut csr_in_prepare = 0.0;
    let mut flood_horizon = 0;
    let mut simple = None;
    for cell in &cells {
        let (_, graph, csr_s) = graphs
            .iter()
            .find(|(f, _, _)| *f == cell.scenario.graph)
            .expect("every family was built");
        let (prepared, s) = tracer.timed("scenario.prepare", || {
            cell.scenario.try_prepare_shared(Arc::clone(graph))
        });
        prepare_s += s;
        let prepared = prepared.unwrap_or_else(|e| panic!("invalid benchmark scenario: {e}"));
        if prepared.uses_fast_path() {
            csr_in_prepare += csr_s;
        }
        let omission_mp = cell.scenario.fault.kind == randcast_engine::fault::FaultKind::Omission
            && cell.scenario.graph == spec.gnp;
        match cell.scenario.algorithm {
            Algorithm::Flood { .. } if omission_mp => flood_horizon = prepared.rounds(),
            Algorithm::Simple if omission_mp => simple = Some(prepared),
            _ => {}
        }
    }
    layers.insert("scenario.prepare_s", prepare_s);
    layers.insert(
        "scenario.prepare.csr_share",
        (csr_in_prepare / prepare_s).min(1.0),
    );
    let simple = simple.expect("the sweep has an omission Simple cell");
    let source = graphs[0].1.node(0);
    let seed = spec.probe_seed;
    let n = csr.node_count();

    // Flood kernel, called directly.
    let flood = FastFlood::new(csr.clone(), source, flood_horizon, FastFloodVariant::Tree);
    let (run, run_s) = tracer.timed("flood_fast.run", || flood.run(P, seed));
    let (lane, lane_s) = tracer.timed("flood_fast.run_lane", || flood.run_lane(P, seed, 0));
    let (batch, batch_s) = tracer.timed("flood_fast.run_batch", || flood.run_batch(P, seed));
    for (what, out) in [("run", &run), ("run_lane", &lane)] {
        pass.ledger.check(
            curve_ok(
                out.informed_by_round(),
                out.informed_count(),
                n,
                out.completion_round(),
                flood_horizon,
            ),
            || format!("flood_fast::{what} breaks an invariant"),
        );
    }
    pass.ledger.check(batch.lane_outcome(0) == lane, || {
        "flood_fast::run_batch lane 0 differs from run_lane".to_owned()
    });
    kernel_times(
        layers,
        [
            "flood_fast.run_ms",
            "flood_fast.run_lane_ms",
            "flood_fast.run_batch_ms",
            "flood_fast.batch_speedup",
        ],
        run_s,
        lane_s,
        batch_s,
    );
    drop((flood, run, lane, batch));

    // Simple kernel, called directly, then the sweep's dispatch of the
    // same block against the direct call.
    let m = simple.phase_len().expect("Simple has a phase length");
    let kernel = FastSimple::new(&csr, source, m);
    let (run, run_s) = tracer.timed("simple_fast.run", || kernel.run(P, seed));
    let (lane, lane_s) = tracer.timed("simple_fast.run_lane", || kernel.run_lane(P, seed, 0));
    let (batch, batch_s) = tracer.timed("simple_fast.run_batch", || kernel.run_batch(P, seed));
    for (what, out) in [("run", &run), ("run_lane", &lane)] {
        pass.ledger.check(
            out.correct_count() <= n
                && out
                    .completion_round()
                    .is_none_or(|r| r <= out.total_rounds()),
            || format!("simple_fast::{what} breaks an invariant"),
        );
    }
    pass.ledger.check(batch.lane_outcome(0) == lane, || {
        "simple_fast::run_batch lane 0 differs from run_lane".to_owned()
    });
    kernel_times(
        layers,
        [
            "simple_fast.run_ms",
            "simple_fast.run_lane_ms",
            "simple_fast.run_batch_ms",
            "simple_fast.batch_speedup",
        ],
        run_s,
        lane_s,
        batch_s,
    );
    let mut via_sweep = Vec::new();
    let mut direct = Vec::new();
    for rep in 0..5 {
        let block_seed = seed.wrapping_add(rep);
        let (outs, s) = tracer.timed("scenario.trial_block_threads", || {
            simple.trial_block_threads(block_seed, 1)
        });
        via_sweep.push(s);
        let (out, s) = tracer.timed("simple_fast.run_batch", || kernel.run_batch(P, block_seed));
        direct.push(s);
        let same = (0..LANES as u32).all(|l| {
            let o = &outs[l as usize];
            o.rounds == out.completion_round(l).map(|r| r as f64)
                && o.informed_frac == Some(out.correct_fraction(l))
        });
        pass.ledger.check(same, || {
            "trial_block_threads differs from the direct Simple kernel".to_owned()
        });
    }
    layers.insert(
        "scenario.dispatch_us",
        (median(&via_sweep) - median(&direct)) * 1e6,
    );
    drop((kernel, simple, run, lane, batch));

    // Radio kernel on the smaller graph (see `RamSpec::radio_probe`).
    let (g, _) = tracer.timed("generators.build", || spec.radio_probe.build());
    let small_source = g.node(0);
    let decay = DecayConfig::classical(g.node_count(), traversal::radius_from(&g, small_source));
    let small_n = g.node_count();
    let (small_csr, _) = tracer.timed("csr.from_graph", || CsrGraph::from(&g));
    let radio = FastRadio::new(
        small_csr,
        small_source,
        decay.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: decay.epoch_len,
        },
    );
    let (run, run_s) = tracer.timed("radio_fast.run", || radio.run(P, seed));
    let (lane, lane_s) = tracer.timed("radio_fast.run_lane", || radio.run_lane(P, seed, 0));
    let (batch, batch_s) = tracer.timed("radio_fast.run_batch", || radio.run_batch(P, seed));
    for (what, out) in [("run", &run), ("run_lane", &lane)] {
        pass.ledger.check(
            curve_ok(
                out.informed_by_round(),
                out.informed_count(),
                small_n,
                out.completion_round(),
                decay.total_rounds(),
            ),
            || format!("radio_fast::{what} breaks an invariant"),
        );
    }
    pass.ledger.check(batch.lane_outcome(0) == lane, || {
        "radio_fast::run_batch lane 0 differs from run_lane".to_owned()
    });
    kernel_times(
        layers,
        [
            "radio_fast.run_ms",
            "radio_fast.run_lane_ms",
            "radio_fast.run_batch_ms",
            "radio_fast.batch_speedup",
        ],
        run_s,
        lane_s,
        batch_s,
    );
    drop((radio, g));

    kernel_primitives(&csr, seed, ctx, layers);
}

/// Records a kernel's `run_ms`, `run_lane_ms` and `run_batch_ms` under
/// `names[0..3]`, and its batch speedup (64 lane-trials over one
/// block) under `names[3]`.
fn kernel_times(
    layers: &mut Layers,
    names: [&'static str; 4],
    run_s: f64,
    lane_s: f64,
    batch_s: f64,
) {
    layers.insert(names[0], run_s * 1e3);
    layers.insert(names[1], lane_s * 1e3);
    layers.insert(names[2], batch_s * 1e3);
    layers.insert(names[3], LANES as f64 * lane_s / batch_s);
}

/// The bit-sliced primitives every fast kernel is built from, one call
/// per node (or per adjacency entry for collisions) of the probe graph.
fn kernel_primitives(csr: &CsrGraph, seed: u64, ctx: &Ctx<'_>, layers: &mut Layers) {
    let tracer = ctx.tracer;
    let n = csr.node_count() as u64;
    let tape = BatchTape::new(seed, FAULT_STREAM);
    const PLANES: u32 = 4;
    let (_, s) = tracer.timed("kernel.tape", || {
        let mut acc = 0u64;
        for site in 0..n {
            for plane in 0..PLANES {
                acc ^= tape.word(black_box(site), plane);
            }
        }
        black_box(acc)
    });
    layers.insert(
        "kernel.tape.words_per_s",
        (n * u64::from(PLANES)) as f64 / s,
    );

    let coin = BatchBernoulli::new(P);
    let (masks, s) = tracer.timed("kernel.bernoulli", || {
        (0..n)
            .map(|site| coin.mask(&tape, black_box(site), u64::MAX))
            .collect::<Vec<_>>()
    });
    layers.insert("kernel.bernoulli.masks_per_s", n as f64 / s);

    let (_, s) = tracer.timed("kernel.lane_counter", || {
        let mut counter = LaneCounter::new();
        for &mask in &masks {
            counter.add_masked(black_box(mask), 1);
        }
        black_box(counter.get(0))
    });
    layers.insert("kernel.lane_counter.adds_per_s", n as f64 / s);

    let targets = csr.targets();
    let (_, s) = tracer.timed("kernel.collision", || {
        let mut counter = CollisionCounter::new(csr.node_count());
        for &v in targets {
            counter.add(black_box(v));
        }
        let mut sole = 0usize;
        counter.drain_sole_receivers(|_| sole += 1);
        black_box(sole)
    });
    layers.insert("kernel.collision.adds_per_s", targets.len() as f64 / s);
}
