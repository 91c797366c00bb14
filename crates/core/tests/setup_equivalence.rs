//! One BFS per fast-path plan: the fast flood and Decay plans read the
//! source radius `D` off a traversal of the CSR they already build
//! (`CsrTree::depth` / `CsrGraph::bfs_extent`) instead of a separate
//! BFS over the `Graph`. These tests pin that the plan parameters are
//! exactly the ones the `Graph` traversal (`traversal::reachable_radius`
//! / `traversal::radius_from`) prescribes, on a connected `Gnp` and on
//! a disconnected random geometric graph, and that the two BFS agree
//! on every graph shape the experiments use.

use randcast_core::decay::DecayConfig;
use randcast_core::flood::theorem_horizon;
use randcast_core::scenario::{
    standard_families, Algorithm, GraphFamily, Model, Scenario, ScenarioError, ShardSpec,
    FLOOD_FAST_MIN_N, RADIO_FAST_MIN_N,
};
use randcast_core::sweep::TrialOutcome;
use randcast_engine::fault::FaultConfig;
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_graph::{traversal, CsrGraph, Graph, GraphBuilder};

const P: f64 = 0.3;

fn gnp() -> GraphFamily {
    GraphFamily::Gnp {
        n: FLOOD_FAST_MIN_N.max(RADIO_FAST_MIN_N) + 123,
        avg_deg: 5,
        seed: 17,
    }
}

/// Mean degree 3 is far below the connectivity threshold `ln n`.
fn rgg() -> GraphFamily {
    GraphFamily::RandomGeometric {
        n: FLOOD_FAST_MIN_N.max(RADIO_FAST_MIN_N) + 77,
        deg: 3,
        seed: 18,
    }
}

fn scenario(graph: GraphFamily, algorithm: Algorithm) -> Scenario {
    let (model, fault) = match algorithm {
        Algorithm::Decay { .. } | Algorithm::DecayFast { .. } => {
            (Model::Radio, FaultConfig::omission(P))
        }
        _ => (Model::Mp, FaultConfig::omission(P)),
    };
    Scenario {
        graph,
        algorithm,
        model,
        fault,
        shards: ShardSpec::Auto,
    }
}

fn decay_rounds(g: &Graph, d: usize, epoch_factor: usize) -> usize {
    let mut cfg = DecayConfig::classical(g.node_count(), d);
    cfg.epochs *= epoch_factor;
    cfg.total_rounds()
}

#[test]
fn one_bfs_prepare_keeps_the_two_bfs_rounds() {
    let (gnp, rgg) = (gnp(), rgg());
    let (g, r) = (gnp.build(), rgg.build());
    assert!(traversal::is_connected(&g));
    assert!(
        !traversal::is_connected(&r),
        "the RGG case must be disconnected"
    );
    let source = g.node(0);
    for scale in [1, 3] {
        // Flood auto-selects the fast path at this size.
        let flood_horizon = theorem_horizon(&g, source, P) * scale;
        for algorithm in [
            Algorithm::Flood {
                horizon_scale: scale,
            },
            Algorithm::FloodFast {
                horizon_scale: scale,
            },
        ] {
            let prepared = scenario(gnp, algorithm).prepare();
            assert!(prepared.uses_fast_path());
            assert_eq!(prepared.rounds(), flood_horizon, "{algorithm:?} on gnp");
        }
        let prepared = scenario(
            rgg,
            Algorithm::FloodFast {
                horizon_scale: scale,
            },
        )
        .prepare();
        assert_eq!(
            prepared.rounds(),
            theorem_horizon(&r, r.node(0), P) * scale,
            "FloodFast on rgg"
        );

        let decay = Algorithm::Decay {
            epoch_factor: scale,
        };
        let prepared = scenario(gnp, decay).prepare();
        assert!(prepared.uses_fast_path());
        assert_eq!(
            prepared.rounds(),
            decay_rounds(&g, traversal::radius_from(&g, source), scale),
            "Decay on gnp"
        );
        let decay_fast = Algorithm::DecayFast {
            epoch_factor: scale,
        };
        for (family, graph) in [(gnp, &g), (rgg, &r)] {
            assert_eq!(
                scenario(family, decay_fast).prepare().rounds(),
                decay_rounds(
                    graph,
                    traversal::reachable_radius(graph, graph.node(0)),
                    scale
                ),
                "DecayFast on {}",
                family.label()
            );
        }
    }
    // The general Flood and Decay still refuse a possibly-disconnected
    // family.
    for algorithm in [
        Algorithm::Flood { horizon_scale: 1 },
        Algorithm::Decay { epoch_factor: 1 },
    ] {
        assert!(matches!(
            scenario(rgg, algorithm).try_prepare(),
            Err(ScenarioError::RequiresConnectivity { .. })
        ));
    }
}

#[test]
#[should_panic(expected = "not connected to the source")]
fn fast_decay_still_rejects_a_graph_disconnected_from_the_source() {
    // `try_prepare_on` trusts the graph, so a disconnected graph under a
    // connected family's name reaches the fast Decay arm.
    let disconnected = rgg().build();
    let _ = scenario(gnp(), Algorithm::Decay { epoch_factor: 1 }).try_prepare_on(disconnected);
}

#[test]
fn one_bfs_flood_plans_run_the_trials_of_the_two_bfs_plan() {
    // The two-BFS construction: `D` from a `Graph` BFS, then the plan's
    // own tree from a second BFS over the CSR.
    for (family, algorithm) in [
        (gnp(), Algorithm::Flood { horizon_scale: 1 }),
        (rgg(), Algorithm::FloodFast { horizon_scale: 1 }),
    ] {
        let g = family.build();
        let horizon = theorem_horizon(&g, g.node(0), P);
        let two_bfs = FastFlood::new(
            CsrGraph::from(&g),
            g.node(0),
            horizon,
            FastFloodVariant::Tree,
        );
        let prepared = scenario(family, algorithm).prepare();
        for seed in 0..4 {
            let out = two_bfs.run(P, seed);
            assert_eq!(
                prepared.trial(seed),
                TrialOutcome::flooded(
                    out.completion_round(),
                    out.informed_fraction(),
                    out.almost_complete_round(),
                ),
                "{} seed {seed}",
                family.label()
            );
        }
    }
}

#[test]
fn csr_tree_depth_is_the_reachable_radius() {
    let mut graphs: Vec<(String, Graph)> = standard_families()
        .into_iter()
        .map(|f| (f.label(), f.build()))
        .collect();
    graphs.push(("rgg".to_owned(), rgg().build()));
    // Triangle {0,1,2}, the far path 3-4-5-6, and isolated node 7.
    let split = GraphBuilder::new(8)
        .edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)])
        .finish()
        .expect("valid edges");
    graphs.push(("split".to_owned(), split));
    for (label, g) in &graphs {
        let csr = CsrGraph::from(g);
        for source in [0, g.node_count() / 2, g.node_count() - 1] {
            let s = g.node(source);
            let tree = csr.bfs_tree(source as u32);
            let radius = traversal::reachable_radius(g, s);
            assert_eq!(tree.depth(), radius, "{label} from {source}");
            assert_eq!(
                csr.bfs_extent(source as u32),
                (radius, traversal::reachable_count(g, s)),
                "{label} from {source}"
            );
            assert_eq!(tree.component_size(), traversal::reachable_count(g, s));
        }
    }
}
