//! `paper-tables`: the reproduction traffic itself — the paper's
//! protocols on the standard six-graph suite, run by the trait engines
//! through `Sweep`.

use std::sync::Arc;

use randcast_core::scenario::{standard_families, Algorithm, Model, Scenario, ShardSpec};
use randcast_engine::fault::{FaultConfig, FaultKind};
use randcast_graph::CsrGraph;
use randcast_stats::seed::SeedSequence;

use crate::check::outcome_ok;
use crate::sweeps::{self, Cell, SweepSpec};
use crate::{Ctx, Layers, Pass, Scale};

/// Omission probability of the omission cells: well inside every
/// feasibility region.
const P_OMISSION: f64 = 0.3;
/// Malicious probability: below the `p < 1/2` threshold of Theorem 2.2.
const P_MALICIOUS: f64 = 0.1;

/// One protocol cell: algorithm, model, fault, full-scale trials, and
/// whether the paper guarantees its almost-safe verdict.
type Protocol = (Algorithm, Model, FaultConfig, usize, bool);

/// The workload's inputs: a pure function of `seed`. One sweep per
/// trial family, the way the experiment binaries run one sweep per
/// experiment; every protocol cell runs on each standard graph. Trial
/// counts sit both below and above one 64-lane block.
#[must_use]
pub fn spec(seed: u64, scale: Scale) -> Vec<SweepSpec> {
    let seeds = SeedSequence::new(seed).child(0x9A9E);
    let om = FaultConfig::omission(P_OMISSION);
    let mal = FaultConfig::malicious(P_MALICIOUS);
    let sweep = |i: u64, name, family, protocols: &[Protocol]| SweepSpec {
        name,
        family,
        root_seed: seeds.nth_seed(i),
        cells: protocols
            .iter()
            .flat_map(|&(algorithm, model, fault, trials, guaranteed)| {
                standard_families().into_iter().map(move |graph| Cell {
                    scenario: Scenario {
                        graph,
                        algorithm,
                        model,
                        fault,
                        shards: ShardSpec::Auto,
                    },
                    trials: match scale {
                        Scale::Full => trials,
                        Scale::Test => 3,
                    },
                    guaranteed,
                })
            })
            .collect(),
    };
    vec![
        sweep(
            0,
            "flood_time",
            "flood",
            &[(
                Algorithm::Flood { horizon_scale: 1 },
                Model::Mp,
                om,
                4096,
                true,
            )],
        ),
        sweep(
            1,
            "simple_omission",
            "simple",
            &[
                (Algorithm::Simple, Model::Mp, om, 64, true),
                (Algorithm::Simple, Model::Radio, om, 128, true),
            ],
        ),
        sweep(
            2,
            "radio_schedules",
            "radio",
            &[(Algorithm::Expanded, Model::Radio, om, 512, false)],
        ),
        // The Decay baseline is a family of its own: its trait-engine
        // trials run either about 2.5x faster or slower from one pass
        // to the next of the same process (same inputs, same outcomes),
        // which would make the radio rate bimodal. Its rate is the
        // per-layer `decay.trials_per_s`.
        sweep(
            5,
            "decay_baseline",
            "decay",
            &[(
                Algorithm::Decay { epoch_factor: 1 },
                Model::Radio,
                om,
                192,
                false,
            )],
        ),
        sweep(
            3,
            "kucera",
            "kucera",
            &[(Algorithm::Kucera, Model::Mp, mal, 192, false)],
        ),
        sweep(
            4,
            "malicious",
            "malicious",
            &[
                (Algorithm::Simple, Model::Mp, mal, 48, true),
                (Algorithm::Expanded, Model::Radio, mal, 32, false),
            ],
        ),
    ]
}

/// One pass; with `probes`, then times each layer directly.
#[must_use]
pub fn pass(spec: &[SweepSpec], ctx: &Ctx<'_>, probes: Option<&mut Layers>) -> Pass {
    let mut pass = sweeps::run(spec, ctx);
    if let Some(layers) = probes {
        probe(spec, ctx, layers, &mut pass);
    }
    pass
}

/// Direct calls into each layer on the pass's own inputs: graph
/// generation, CSR conversion, plan compilation, and single
/// `PreparedScenario::trial` calls per protocol plan.
fn probe(spec: &[SweepSpec], ctx: &Ctx<'_>, layers: &mut Layers, pass: &mut Pass) {
    let tracer = ctx.tracer;
    let mut build_s = 0.0;
    let mut edges = 0usize;
    let mut csr_s = 0.0;
    let mut csr_bytes = 0usize;
    let mut graphs = Vec::new();
    for family in standard_families() {
        let (g, s) = tracer.timed("generators.build", || family.build());
        build_s += s;
        edges += g.edge_count();
        let (csr, s) = tracer.timed("csr.from_graph", || CsrGraph::from(&g));
        csr_s += s;
        csr_bytes += 4 * (csr.offsets().len() + csr.targets().len());
        graphs.push((family, Arc::new(g)));
    }
    layers.insert("graph.build_s", build_s);
    layers.insert("graph.build.edges_per_s", edges as f64 / build_s);
    layers.insert("csr.from_graph_s", csr_s);
    layers.insert(
        "csr.from_graph.gibps",
        csr_bytes as f64 / f64::from(1 << 30) / csr_s,
    );

    let mut prepare_s = 0.0;
    let mut fast_plans = 0usize;
    let mut trial_us: [(&'static str, &'static str, f64, usize); 5] = [
        ("core.simple.trial", "core.simple.trial_us", 0.0, 0),
        ("core.flood.trial", "core.flood.trial_us", 0.0, 0),
        ("core.kucera.trial", "core.kucera.trial_us", 0.0, 0),
        ("core.expanded.trial", "core.expanded.trial_us", 0.0, 0),
        ("core.decay.trial", "core.decay.trial_us", 0.0, 0),
    ];
    let seeds = SeedSequence::new(spec[0].root_seed).child(0x7121);
    for (i, cell) in spec.iter().flat_map(|s| &s.cells).enumerate() {
        let graph = graphs
            .iter()
            .find(|(f, _)| *f == cell.scenario.graph)
            .map(|(_, g)| Arc::clone(g))
            .expect("every cell's family was built");
        let (prepared, s) = tracer.timed("scenario.prepare", || {
            cell.scenario.try_prepare_shared(graph)
        });
        prepare_s += s;
        let prepared = prepared.unwrap_or_else(|e| panic!("invalid benchmark scenario: {e}"));
        fast_plans += usize::from(prepared.uses_fast_path());
        // One cell per protocol plan: the omission variant, except
        // for Kučera, which this workload runs under malicious faults.
        let slot = match cell.scenario.algorithm {
            Algorithm::Kucera => 2,
            _ if cell.scenario.fault.kind != FaultKind::Omission => continue,
            Algorithm::Simple if cell.scenario.model == Model::Mp => 0,
            Algorithm::Flood { .. } => 1,
            Algorithm::Expanded => 3,
            Algorithm::Decay { .. } => 4,
            _ => continue,
        };
        probe_trials(&mut trial_us[slot], &prepared, &seeds, i, ctx, pass);
    }
    layers.insert("scenario.prepare_s", prepare_s);
    layers.insert(
        "scenario.prepare.csr_share",
        (fast_plans as f64 * csr_s / graphs.len() as f64 / prepare_s).min(1.0),
    );
    for (_, metric, total_s, count) in trial_us {
        layers.insert(metric, total_s * 1e6 / count.max(1) as f64);
    }
}

/// Times single `PreparedScenario::trial` calls and checks each
/// outcome's invariants.
fn probe_trials(
    slot: &mut (&'static str, &'static str, f64, usize),
    prepared: &randcast_core::scenario::PreparedScenario,
    seeds: &SeedSequence,
    cell: usize,
    ctx: &Ctx<'_>,
    pass: &mut Pass,
) {
    const TRIALS: u64 = 4;
    let horizon = prepared.rounds() as f64;
    for t in 0..TRIALS {
        let seed = seeds.child(cell as u64).nth_seed(t);
        let (out, s) = ctx.tracer.timed(slot.0, || prepared.trial(seed));
        slot.2 += s;
        slot.3 += 1;
        pass.ledger.check(outcome_ok(&out, horizon), || {
            format!(
                "probe trial of {:?} breaks an invariant: {out:?}",
                prepared.params()
            )
        });
    }
}
