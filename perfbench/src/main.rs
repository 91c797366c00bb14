//! The benchmark command.
//!
//! ```text
//! perfbench --workload <paper-tables|ram-1e6|out-of-core> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats end-to-end passes of one workload for `--seconds` (at least
//! three passes), checks every outcome, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`) as the last line of standard output, one JSON object.
//! The traced run alternates untraced and traced passes, so it can
//! report its own overhead and prove it reproduced the same outcome
//! digest; its spans are written as Chrome trace-event JSON under
//! `.bench_out/`, next to the reports and the out-of-core scratch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use randcast_perfbench::ceiling::Ceilings;
use randcast_perfbench::check::Ledger;
use randcast_perfbench::machine::{self, Machine};
use randcast_perfbench::trace::{self, Tracer};
use randcast_perfbench::{
    median, ooc, run_pass, Ctx, Layers, Pass, Scale, Workload, END_TO_END, FAMILIES, PER_LAYER,
};

const USAGE: &str = "usage: perfbench --workload <paper-tables|ram-1e6|out-of-core> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// Where reports, traces and the out-of-core shard store go, relative
/// to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Passes an untraced run makes at least, so set-up time is a median.
const MIN_PASSES: usize = 3;
/// No new pass starts once the run is this old and the next pass
/// would probably end past it (the run must end within 180 s).
const RUN_CAP: Duration = Duration::from_secs(150);
/// Bytes of one out-of-core shard segment: 4·10⁶ nodes over 8 shards,
/// one offset and about 8 targets of 4 bytes per node.
const SEGMENT_FILE_BYTES: usize = 4_000_000 / 8 * 9 * 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `min(nproc, 2)` worker threads.
    threads: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        out: PathBuf::from(OUT_DIR),
    })
}

/// Runs one pass, turning a panic (an invariant assert, a shard error,
/// an invalid scenario) into an error message.
fn guarded(args: &Args, ctx: &Ctx<'_>, probes: Option<&mut Layers>) -> Result<Pass, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_pass(args.workload, args.seed, Scale::Full, ctx, probes)
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

/// Whether another pass fits: under the requested seconds (or too few
/// passes), and not past the hard cap once it ends.
fn another(start: Instant, seconds: u64, done: usize, min: usize, last_wall: f64) -> bool {
    let elapsed = start.elapsed();
    let projected = elapsed + Duration::from_secs_f64(last_wall);
    (done < min || elapsed < Duration::from_secs(seconds)) && projected < RUN_CAP
}

/// Everything a run produced, before printing.
struct Outcome {
    ledger: Ledger,
    digest: Option<u64>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    passes: Vec<Pass>,
}

fn ledger_of(passes: &[Pass], errors: &[String]) -> (Ledger, Option<u64>) {
    let mut ledger = Ledger::default();
    for p in passes {
        ledger.absorb(p.ledger.clone());
    }
    for e in errors {
        ledger.check(false, || format!("pass aborted: {e}"));
    }
    let first = passes.first().map(|p| p.digest.value());
    for (i, p) in passes.iter().enumerate().skip(1) {
        let d = Some(p.digest.value());
        ledger.check(d == first, || {
            format!("pass {i} digest {d:x?} differs from pass 0 digest {first:x?}")
        });
    }
    (ledger, first)
}

/// Median trial rate of `family` over every sample of every pass.
fn family_rate(passes: &[Pass], family: &str) -> Option<f64> {
    let rates: Vec<f64> = passes.iter().flat_map(|p| p.rates(family)).collect();
    (!rates.is_empty()).then(|| median(&rates))
}

fn untraced(args: &Args) -> Outcome {
    let tracer = Tracer::new(false);
    let ctx = Ctx {
        threads: args.threads,
        out_dir: args.out.clone(),
        tracer: &tracer,
    };
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut errors = Vec::new();
    let mut last_wall = 0.0;
    while another(start, args.seconds, passes.len(), MIN_PASSES, last_wall) {
        match guarded(args, &ctx, None) {
            Ok(p) => {
                last_wall = p.wall_s;
                passes.push(p);
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let (mut ledger, digest) = ledger_of(&passes, &errors);
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("setup_s", median(&setup));
    values.insert("wall_s", median(&wall));
    values.insert("peak_rss_mib", machine::peak_rss_mib());
    for (family, key) in [
        ("flood", "flood.trials_per_s"),
        ("radio", "radio.trials_per_s"),
        ("simple", "simple.trials_per_s"),
    ] {
        let rate = family_rate(&passes, family);
        ledger.check(rate.is_some(), || format!("no {family} trials ran"));
        values.insert(key, rate.unwrap_or(0.0));
    }
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        ledger,
        digest,
        metrics,
        passes,
    }
}

/// Maps a span's top-level name to its `self.*_s` metric.
fn self_metric(layer: &str) -> &'static str {
    match layer.split('.').next().unwrap_or("") {
        "generators" => "self.generators_s",
        "csr" => "self.csr_s",
        "scenario" => "self.scenario_s",
        "sweep" => "self.sweep_s",
        "report" => "self.report_s",
        "shard" => "self.shard_s",
        "kernel" => "self.kernel_s",
        "flood_fast" | "radio_fast" | "simple_fast" => "self.fast_kernels_s",
        "core" => "self.core_s",
        _ => "self.bench_s",
    }
}

fn traced(args: &Args, machine: &Machine) -> Outcome {
    let mut tracer = Tracer::new(false);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut with_spans = Vec::new();
    let mut errors = Vec::new();
    let mut probes = Layers::new();
    let mut last_wall = 0.0;
    while another(start, args.seconds, with_spans.len(), 1, 2.0 * last_wall) {
        let mut pair = Vec::new();
        for enabled in [false, true] {
            tracer.set_enabled(enabled);
            let ctx = Ctx {
                threads: args.threads,
                out_dir: args.out.clone(),
                tracer: &tracer,
            };
            let probe = (enabled && with_spans.is_empty()).then_some(&mut probes);
            match guarded(args, &ctx, probe) {
                Ok(p) => pair.push(p),
                Err(e) => errors.push(e),
            }
        }
        tracer.set_enabled(false);
        if pair.len() < 2 {
            break;
        }
        let traced = pair.pop().expect("pair has two passes");
        let untraced = pair.pop().expect("pair has two passes");
        last_wall = untraced.wall_s;
        plain.push(untraced);
        with_spans.push(traced);
    }
    let all: Vec<Pass> = plain.iter().chain(&with_spans).cloned().collect();
    let (ledger, digest) = ledger_of(&all, &errors);

    let spans = tracer.spans();
    std::fs::create_dir_all(&args.out).expect("create the benchmark output directory");
    let trace_path = args
        .out
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(
        &trace_path,
        trace::chrome_json(&spans, args.workload.name()),
    )
    .expect("write the Chrome trace");
    println!(
        "trace: {} spans written to {}",
        spans.len(),
        trace_path.display()
    );

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut keys: Vec<&'static str> = with_spans
        .iter()
        .flat_map(|p| p.layers.keys().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let v: Vec<f64> = with_spans
            .iter()
            .filter_map(|p| p.layers.get(key).copied())
            .collect();
        values.insert(key, median(&v));
    }
    values.extend(probes.iter().map(|(k, v)| (*k, *v)));
    for (family, key) in [
        ("malicious", "malicious.trials_per_s"),
        ("kucera", "kucera.trials_per_s"),
        ("decay", "decay.trials_per_s"),
    ] {
        values.insert(key, family_rate(&all, family).unwrap_or(0.0));
    }
    let wall_plain: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let wall_traced: Vec<f64> = with_spans.iter().map(|p| p.wall_s).collect();
    values.insert(
        "trace.overhead_frac",
        median(&wall_traced) / median(&wall_plain) - 1.0,
    );
    values.insert("trace.spans", spans.len() as f64);
    for (layer, secs) in trace::self_times(&spans) {
        *values.entry(self_metric(layer)).or_insert(0.0) += secs;
    }

    let ceilings = Ceilings::measure(&args.out, SEGMENT_FILE_BYTES, machine.llc_bytes);
    println!(
        "ceilings: sequential read of a {:.1} MiB file just written (page cache), \
         streaming u32 sum over {:.1} MiB (LLC {:.1} MiB)",
        ceilings.seq_read_bytes as f64 / f64::from(1 << 20),
        ceilings.stream_bytes as f64 / f64::from(1 << 20),
        machine.llc_bytes as f64 / f64::from(1 << 20),
    );
    values.insert("ceiling.seq_read.gibps", ceilings.seq_read_gibps);
    values.insert("ceiling.stream.gibps", ceilings.stream_gibps);
    values.insert(
        "ceiling.splitmix.words_per_s",
        ceilings.splitmix_words_per_s,
    );
    let frac = |values: &BTreeMap<&str, f64>, rate: &str, ceiling: f64| {
        values.get(rate).map_or(0.0, |r| r / ceiling)
    };
    let fracs = [
        (
            "shard.segment_read.ceiling_frac",
            frac(&values, "shard.segment_read.gibps", ceilings.seq_read_gibps),
        ),
        (
            "kernel.tape.ceiling_frac",
            frac(
                &values,
                "kernel.tape.words_per_s",
                ceilings.splitmix_words_per_s,
            ),
        ),
        (
            "csr.from_graph.stream_frac",
            frac(&values, "csr.from_graph.gibps", ceilings.stream_gibps),
        ),
    ];
    values.extend(fracs);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        ledger,
        digest,
        metrics,
        passes: all,
    }
}

fn json_result(correct: bool, ledger: &Ledger, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.attempted, ledger.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::probe();
    let outcome = if args.trace {
        traced(&args, &machine)
    } else {
        untraced(&args)
    };
    let _ = std::fs::remove_dir_all(ooc::scratch_dir(&args.out));
    if outcome.passes.is_empty() {
        for note in &outcome.ledger.notes {
            eprintln!("{note}");
        }
        eprintln!("no pass of {} completed", args.workload.name());
        return ExitCode::FAILURE;
    }

    println!("{}", machine.line());
    println!(
        "workload: {} seed={} threads={} passes={} trace={}",
        args.workload.name(),
        args.seed,
        args.threads,
        outcome.passes.len(),
        u8::from(args.trace)
    );
    println!(
        "pass  setup_s     wall_s      {}",
        FAMILIES.map(|f| format!("{f:<12}")).join("")
    );
    for (i, p) in outcome.passes.iter().enumerate() {
        let rates: String = FAMILIES
            .iter()
            .map(|f| {
                let rates = p.rates(f);
                if rates.is_empty() {
                    format!("{:<12}", "-")
                } else {
                    format!("{:<12.3}", median(&rates))
                }
            })
            .collect();
        println!("{i:<5} {:<11.4} {:<11.4} {rates}", p.setup_s, p.wall_s);
    }
    for note in &outcome.ledger.notes {
        println!("FAILED: {note}");
    }
    let finite = outcome.metrics.iter().all(|(_, _, v)| v.is_finite());
    let metrics: Vec<(&str, &str, f64)> = outcome
        .metrics
        .iter()
        .map(|&(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();
    for (name, unit, value) in &metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    let failed_frac = outcome.ledger.failed as f64 / outcome.ledger.attempted.max(1) as f64;
    println!(
        "digest: {:016x}  attempted: {}  failed: {}  failed_frac: {failed_frac}",
        outcome.digest.unwrap_or(0),
        outcome.ledger.attempted,
        outcome.ledger.failed
    );
    let correct = outcome.ledger.failed == 0 && outcome.digest.is_some() && finite;
    println!("{}", json_result(correct, &outcome.ledger, &metrics));
    ExitCode::SUCCESS
}
