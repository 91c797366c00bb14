//! Corrupted-value models through the store loops.
//!
//! `ShardedFlood`, `ShardedRadio` and `ShardedSimple` run every
//! `FaultModel`: a `Flip` / `Lie` coin lets the transmission through and
//! rewrites the value it delivers. Their `*_model` lanes and batches must
//! therefore agree byte-for-byte with the one-shard in-RAM `Fast*`
//! kernels for value models too — over disk stores of 1 and 3 segments
//! with the segment prefetcher on and off, and for radio with a
//! 4-worker collision drain on a 3-shard plan. Flood's value
//! contributions combine by AND and radio reads a value only where one
//! transmitter was heard, so no visiting order can move a byte.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant, ShardedFlood};
use randcast_engine::kernel::{
    CorruptionKind, FaultModel, FlipFault, LieOrJamFault, WorstCasePlacement,
};
use randcast_engine::radio_fast::{FastRadio, FastRadioSchedule, ShardedRadio};
use randcast_engine::simple_fast::{FastSimple, ShardedSimple};
use randcast_graph::generators::gnp_connected;
use randcast_graph::shard::{
    default_scratch_dir, ShardPlan, ShardStore, ShardedBfsTree, ShardedCsr, SpillSink,
};
use randcast_graph::CsrGraph;

const N: usize = 300;
const BLOCK_SEEDS: [u64; 3] = [3, 77, 2005];
const LANES: [u32; 2] = [0, 37];
const FLOOD_HORIZON: usize = 60;
const RADIO_HORIZON: usize = 600;
const PHASE_LEN: usize = 5;

fn graph() -> CsrGraph {
    CsrGraph::from(&gnp_connected(
        N,
        0.02,
        &mut SmallRng::seed_from_u64(0x7A1E),
    ))
}

fn decay() -> FastRadioSchedule {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let epoch_len = (N as f64).log2().ceil() as usize + 1;
    FastRadioSchedule::Decay { epoch_len }
}

/// A disk-backed copy of the symmetric adjacency `csr` under `plan`.
fn disk_store(csr: &CsrGraph, plan: ShardPlan) -> ShardStore {
    let mut sink = SpillSink::create(default_scratch_dir(), plan).expect("spill sink");
    for v in 0..csr.node_count() {
        for &t in csr.neighbors_of(v) {
            if (v as u32) < t {
                sink.push(v as u64, u64::from(t)).expect("spill edge");
            }
        }
    }
    ShardStore::Disk(sink.finalize().expect("finalize"))
}

/// The BFS tree of `csr` from node 0 as a disk store of child lists,
/// plus its phase order.
fn tree_store(csr: &CsrGraph, shards: usize) -> (Vec<u32>, ShardStore) {
    let base = disk_store(csr, ShardPlan::uniform(N, shards));
    let tree = ShardedBfsTree::build(&base, 0, default_scratch_dir()).expect("BFS tree");
    assert_eq!(tree.reachable(), N, "gnp_connected source component");
    let (order, children) = tree.into_parts();
    (order, ShardStore::Disk(children))
}

fn check_flood(label: &str, sharded: &ShardedFlood, fast: &FastFlood, models: &[&dyn FaultModel]) {
    for &model in models {
        for bs in BLOCK_SEEDS {
            assert_eq!(
                sharded.run_batch_model(model, bs, N).expect("flood batch"),
                fast.run_batch_model(model, bs),
                "{label} {} block {bs}",
                model.name()
            );
            for lane in LANES {
                assert_eq!(
                    sharded.run_lane_model(model, bs, lane).expect("flood lane"),
                    fast.run_lane_model(model, bs, lane),
                    "{label} {} block {bs} lane {lane}",
                    model.name()
                );
            }
        }
    }
}

fn check_radio(label: &str, sharded: &ShardedRadio, fast: &FastRadio, models: &[&dyn FaultModel]) {
    for &model in models {
        for bs in BLOCK_SEEDS {
            assert_eq!(
                sharded.run_batch_model(model, bs).expect("radio batch"),
                fast.run_batch_model(model, bs),
                "{label} {} block {bs}",
                model.name()
            );
            for lane in LANES {
                assert_eq!(
                    sharded.run_lane_model(model, bs, lane).expect("radio lane"),
                    fast.run_lane_model(model, bs, lane),
                    "{label} {} block {bs} lane {lane}",
                    model.name()
                );
            }
        }
    }
}

fn check_simple(
    label: &str,
    sharded: &ShardedSimple,
    fast: &FastSimple,
    models: &[&dyn FaultModel],
) {
    for &model in models {
        for bs in BLOCK_SEEDS {
            assert_eq!(
                sharded.run_batch_model(model, bs).expect("simple batch"),
                fast.run_batch_model(model, bs),
                "{label} {} block {bs}",
                model.name()
            );
            for lane in LANES {
                assert_eq!(
                    sharded
                        .run_lane_model(model, bs, lane)
                        .expect("simple lane"),
                    fast.run_lane_model(model, bs, lane),
                    "{label} {} block {bs} lane {lane}",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn value_models_run_the_disk_store_loops_byte_identically() {
    let csr = graph();
    let source = 0u32.into();
    let flip = FlipFault::new(0.3);
    let lie = LieOrJamFault::new(0.2);

    let flood_graph = FastFlood::new(csr.clone(), source, FLOOD_HORIZON, FastFloodVariant::Graph);
    let flood_tree = FastFlood::new(csr.clone(), source, FLOOD_HORIZON, FastFloodVariant::Tree);
    let radio = FastRadio::new(csr.clone(), source, RADIO_HORIZON, decay());
    let simple = FastSimple::new(&csr, source, PHASE_LEN);
    let mut graph_placed = WorstCasePlacement::new(0.1, CorruptionKind::Flip);
    flood_graph.preprocess(&mut graph_placed);
    let mut tree_placed = WorstCasePlacement::new(0.1, CorruptionKind::Flip);
    flood_tree.preprocess(&mut tree_placed);
    let mut radio_placed = WorstCasePlacement::new(0.1, CorruptionKind::Flip);
    radio.preprocess(&mut radio_placed);
    let mut simple_placed = WorstCasePlacement::new(0.1, CorruptionKind::Lie);
    simple.preprocess(&mut simple_placed);

    for shards in [1usize, 3] {
        let plan = ShardPlan::uniform(N, shards);
        let mut sharded_graph = ShardedFlood::new(disk_store(&csr, plan.clone()), 0, FLOOD_HORIZON);
        // Value timing is the fault-free BFS schedule on either
        // variant, so a graph-variant loop over the tree's child lists
        // is the tree plan.
        let mut sharded_tree = ShardedFlood::new(tree_store(&csr, shards).1, 0, FLOOD_HORIZON);
        let mut sharded_radio =
            ShardedRadio::new(disk_store(&csr, plan), 0, RADIO_HORIZON, decay());
        let (order, children) = tree_store(&csr, shards);
        let mut sharded_simple = ShardedSimple::new(children, order, 0, PHASE_LEN);
        for prefetch in [true, false] {
            let label = format!("shards {shards} prefetch {prefetch}");
            sharded_graph = sharded_graph.with_prefetch(prefetch);
            check_flood(
                &format!("flood graph {label}"),
                &sharded_graph,
                &flood_graph,
                &[&flip, &graph_placed],
            );
            sharded_tree = sharded_tree.with_prefetch(prefetch);
            check_flood(
                &format!("flood tree {label}"),
                &sharded_tree,
                &flood_tree,
                &[&flip, &tree_placed],
            );
            sharded_radio = sharded_radio.with_prefetch(prefetch);
            check_radio(
                &format!("radio {label}"),
                &sharded_radio,
                &radio,
                &[&flip, &radio_placed],
            );
            sharded_simple = sharded_simple.with_prefetch(prefetch);
            check_simple(
                &format!("simple {label}"),
                &sharded_simple,
                &simple,
                &[&lie, &simple_placed],
            );
        }
    }
}

#[test]
fn value_radio_drain_threads_are_byte_invisible() {
    let csr = graph();
    let radio = FastRadio::new(csr.clone(), 0u32.into(), RADIO_HORIZON, decay());
    let mut placed = WorstCasePlacement::new(0.1, CorruptionKind::Flip);
    radio.preprocess(&mut placed);
    let flip = FlipFault::new(0.3);
    let plan = ShardPlan::uniform(N, 3);
    for (label, store) in [
        (
            "ram",
            ShardStore::Ram(ShardedCsr::split(&csr, plan.clone())),
        ),
        ("disk", disk_store(&csr, plan)),
    ] {
        let sharded = ShardedRadio::new(store, 0, RADIO_HORIZON, decay()).with_threads(4);
        check_radio(
            &format!("radio threads 4 {label}"),
            &sharded,
            &radio,
            &[&flip, &placed],
        );
    }
}
