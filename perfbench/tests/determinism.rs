//! The benchmark's own contract: outcomes depend on the workload seed
//! alone — not on the thread count, not on tracing — and the metric
//! lists the benchmark prints are the ones `BENCHMARK.json` declares.
//!
//! Workloads run at [`Scale::Test`] sizes; `cargo test --release
//! --manifest-path perfbench/Cargo.toml` runs them in well under a
//! minute.

use std::path::PathBuf;

use randcast_perfbench::trace::Tracer;
use randcast_perfbench::{
    ooc, paper, ram, run_pass, Ctx, Layers, Pass, Scale, Workload, END_TO_END, PER_LAYER,
};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn pass(workload: Workload, seed: u64, threads: usize, traced: bool, tag: &str) -> Pass {
    let tracer = Tracer::new(traced);
    let ctx = Ctx {
        threads,
        out_dir: out_dir(tag),
        tracer: &tracer,
    };
    let mut probes = Layers::new();
    let p = run_pass(
        workload,
        seed,
        Scale::Test,
        &ctx,
        traced.then_some(&mut probes),
    );
    assert_eq!(p.ledger.failed, 0, "{:?}", p.ledger.notes);
    if traced {
        assert!(tracer.span_count() > 0, "a traced pass records spans");
        assert!(!probes.is_empty(), "a traced pass runs its probes");
    }
    p
}

fn digest_at_threads_and_seeds(workload: Workload) {
    let tag = workload.name();
    let mut by_seed = Vec::new();
    for seed in [3, 4] {
        let one = pass(workload, seed, 1, false, tag).digest;
        let two = pass(workload, seed, 2, false, tag).digest;
        assert_eq!(
            one, two,
            "{tag} seed {seed}: digest depends on the thread count"
        );
        by_seed.push(one);
    }
    assert_ne!(
        by_seed[0], by_seed[1],
        "{tag}: the seed does not reach the outcomes"
    );
}

#[test]
fn paper_tables_digest_is_thread_independent() {
    digest_at_threads_and_seeds(Workload::PaperTables);
}

#[test]
fn ram_digest_is_thread_independent() {
    digest_at_threads_and_seeds(Workload::Ram1e6);
}

#[test]
fn out_of_core_digest_is_thread_independent() {
    digest_at_threads_and_seeds(Workload::OutOfCore);
}

#[test]
fn traced_pass_reproduces_the_untraced_digest() {
    for workload in Workload::ALL {
        let tag = format!("{}-traced", workload.name());
        let plain = pass(workload, 9, 2, false, &tag);
        let traced = pass(workload, 9, 2, true, &tag);
        assert_eq!(plain.digest, traced.digest, "{tag}");
    }
}

#[test]
fn the_seed_is_the_only_input_of_the_generators() {
    // Each generator's signature takes the seed (and the test-only
    // scale) and nothing else; check it is also a pure function of it,
    // across calls and across threads.
    for seed in [0, 1, u64::MAX] {
        let here = (
            paper::spec(seed, Scale::Full),
            ram::spec(seed, Scale::Full),
            ooc::spec(seed, Scale::Full),
        );
        let there = std::thread::spawn(move || {
            (
                paper::spec(seed, Scale::Full),
                ram::spec(seed, Scale::Full),
                ooc::spec(seed, Scale::Full),
            )
        })
        .join()
        .expect("spec thread");
        assert_eq!(here, there);
        assert_ne!(here.1, ram::spec(seed ^ 1, Scale::Full));
        assert_ne!(here.2, ooc::spec(seed ^ 1, Scale::Full));
        assert_ne!(here.0, paper::spec(seed ^ 1, Scale::Full));
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        // Only the repository checkout has it next to the package.
        return;
    };
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares metrics the benchmark does not print"
    );
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
