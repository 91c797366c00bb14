//! Passes through `Sweep`: the shape shared by the
//! `paper-tables` and `ram-1e6` workloads.
//!
//! A workload is a list of sweeps, one per trial family, the way the
//! experiment binaries run one sweep per experiment. A family's trial
//! rate is its trials over its sweep's trial phase, during which both
//! workers run only that family's cells.

use std::sync::OnceLock;
use std::time::Instant;

use randcast_core::scenario::Scenario;
use randcast_core::sweep::{Sweep, TrialOutcome};
use randcast_stats::seed::SeedSequence;

use crate::check::{self, Digest};
use crate::{machine, Ctx, Pass};

/// One sweep cell of a workload.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Cell {
    /// The declarative scenario.
    pub scenario: Scenario,
    /// Trials in the cell.
    pub trials: usize,
    /// Whether the paper guarantees the almost-safe verdict here
    /// (Theorems 2.1, 2.2 and 3.1).
    pub guaranteed: bool,
}

/// Every input of one sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepSpec {
    /// Experiment name (also the report file stem).
    pub name: &'static str,
    /// The trial family its rate counts towards (see [`crate::FAMILIES`]).
    pub family: &'static str,
    /// Root of every trial seed.
    pub root_seed: u64,
    /// The cells, in sweep order.
    pub cells: Vec<Cell>,
}

/// Runs each sweep once, end to end: `Sweep::run` (graph build, plan
/// compilation, trials), then report rendering and writing.
///
/// Set-up time is read off a one-trial marker cell placed first: the
/// sweep starts trial tasks in cell order only after every graph is
/// built and every plan compiled, so the marker's call marks the end
/// of set-up. The marker is not part of the digest or the checks.
///
/// # Panics
///
/// Panics if a cell's scenario is invalid or a report cannot be
/// written.
#[must_use]
pub fn run(sweeps: &[SweepSpec], ctx: &Ctx<'_>) -> Pass {
    let tracer = ctx.tracer;
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut digest = Digest::default();
    let mut cpu_s = 0.0;
    let mut capacity_s = 0.0;
    let mut render_s = 0.0;
    std::fs::create_dir_all(&ctx.out_dir).expect("create the benchmark output directory");
    for spec in sweeps {
        let sweep_start = Instant::now();
        let setup_done: OnceLock<Instant> = OnceLock::new();
        let mut sweep =
            Sweep::new(spec.name, SeedSequence::new(spec.root_seed)).with_threads(ctx.threads);
        sweep.cell([("cell", "setup-marker")], 1, None, |_, _| {
            setup_done.get_or_init(Instant::now);
            TrialOutcome::pass(true)
        });
        for cell in &spec.cells {
            sweep
                .try_scenario(cell.scenario, cell.trials)
                .unwrap_or_else(|e| panic!("invalid benchmark scenario: {e}"));
        }
        let cpu_before = machine::cpu_seconds();
        let (result, sweep_s) = tracer.timed("sweep.run", || sweep.run());
        let sweep_end = Instant::now();
        cpu_s += machine::cpu_seconds() - cpu_before;
        #[allow(clippy::cast_precision_loss)]
        {
            capacity_s += ctx.threads as f64 * sweep_s;
        }
        let setup_end = *setup_done.get().expect("the marker cell ran");
        pass.setup_s += setup_end.duration_since(sweep_start).as_secs_f64();

        let ((), s) = tracer.timed("report.render", || {
            let report = result.report();
            let tables = report.render_tables();
            let json = report.to_json();
            std::fs::write(ctx.out_dir.join(format!("{}.md", spec.name)), tables)
                .expect("write the Markdown report");
            std::fs::write(ctx.out_dir.join(format!("{}.json", spec.name)), json)
                .expect("write the JSON report");
        });
        render_s += s;

        let mut trials = 0;
        for (cell, res) in spec.cells.iter().zip(&result.cells[1..]) {
            check::sweep_cell(res, cell.guaranteed, &mut pass.ledger, &mut digest);
            trials += res.outcomes.len() as u64;
        }
        pass.add_trials(
            spec.family,
            trials,
            sweep_end.duration_since(setup_end).as_secs_f64(),
        );
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.digest = digest;
    pass.layers.insert(
        "sweep.idle_frac",
        (1.0 - cpu_s / capacity_s).clamp(0.0, 1.0),
    );
    pass.layers.insert("report.render_ms", render_s * 1e3);
    pass
}
