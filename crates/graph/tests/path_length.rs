//! Oracle tests for `metrics::avg_path_length`: the library traverses 64
//! sampled sources per pass with a bit-parallel multi-source BFS; the
//! reference below runs one plain queue BFS per source, with the same
//! source draws, and sums the same integers. The two must agree to the
//! bit, on random graphs that mix isolated nodes, several components,
//! self-loops and one-way/mutual edges, and at sample counts on both
//! sides of the 64-lane boundary (duplicate draws included).

#![forbid(unsafe_code)]

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use livescope_graph::metrics::{avg_path_length, MetricsConfig};
use livescope_graph::{DiGraph, GraphSpec, NodeId};

/// One queue BFS per sampled source over the undirected projection,
/// summing distances to every reached node.
fn queue_bfs_avg_path(graph: &DiGraph, config: &MetricsConfig) -> f64 {
    let n = graph.node_count();
    if n < 2 {
        return 0.0;
    }
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xABCD);
    let mut total = 0u64;
    let mut pairs = 0u64;
    let mut dist = vec![u32::MAX; n];
    for _ in 0..config.path_samples {
        let source = rng.gen_range(0..n as NodeId);
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        dist[source as usize] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in graph.out_neighbors(u).iter().chain(graph.in_neighbors(u)) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    total += (du + 1) as u64;
                    pairs += 1;
                    queue.push_back(v);
                }
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    }
}

fn config(path_samples: usize, seed: u64) -> MetricsConfig {
    MetricsConfig {
        path_samples,
        seed,
        ..MetricsConfig::default()
    }
}

/// Builds an `n`-node graph from raw draws. The last `isolated_pct`% of
/// the nodes get no edges; the rest split into `components` residue
/// classes (`u % components`) that no edge crosses. Each draw's `kind`
/// picks a one-way edge (either direction), a mutual pair or a self-loop.
fn shaped_graph(
    n: usize,
    components: usize,
    isolated_pct: usize,
    draws: &[(u32, u32, u8)],
) -> DiGraph {
    let active = (n - n * isolated_pct / 100).max(1);
    let mut edges = Vec::new();
    for &(a, b, kind) in draws {
        let u = a as usize % active;
        let v = b as usize % active;
        // Move v into u's residue class; fall back to a self-loop.
        let v = v - v % components + u % components;
        let v = if v < active { v } else { u };
        let (u, v) = (u as NodeId, v as NodeId);
        match kind {
            0 => edges.push((u, v)),
            1 => edges.push((v, u)),
            2 => edges.extend([(u, v), (v, u)]),
            _ => edges.push((u, u)),
        }
    }
    DiGraph::from_edges(n, &edges)
}

proptest! {
    #[test]
    fn bit_parallel_bfs_matches_queue_bfs(
        n in 1usize..300,
        components in 1usize..5,
        isolated_pct in 0usize..40,
        draws in vec((any::<u32>(), any::<u32>(), 0u8..4), 0..900),
        samples in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(130)],
        seed in any::<u64>(),
    ) {
        let graph = shaped_graph(n, components, isolated_pct, &draws);
        let cfg = config(samples, seed);
        prop_assert_eq!(
            avg_path_length(&graph, &cfg).to_bits(),
            queue_bfs_avg_path(&graph, &cfg).to_bits()
        );
    }
}

#[test]
fn duplicate_sources_keep_their_own_lanes() {
    // Two nodes, 130 draws: nearly every source repeats, across three
    // passes (64 + 64 + 2 lanes). One-way edge; the projection is
    // undirected, so every pair is at distance 1.
    let graph = DiGraph::from_edges(2, &[(0, 1)]);
    let cfg = config(130, 7);
    assert_eq!(avg_path_length(&graph, &cfg), 1.0);
    assert_eq!(
        avg_path_length(&graph, &cfg).to_bits(),
        queue_bfs_avg_path(&graph, &cfg).to_bits()
    );
}

#[test]
fn table2_presets_match_queue_bfs() {
    for (name, spec) in [
        ("periscope", GraphSpec::periscope()),
        ("twitter", GraphSpec::twitter()),
        ("facebook", GraphSpec::facebook()),
    ] {
        let graph = DiGraph::generate(&spec.with_nodes(6_000), 5);
        let cfg = MetricsConfig::default();
        let got = avg_path_length(&graph, &cfg);
        let want = queue_bfs_avg_path(&graph, &cfg);
        assert_eq!(got.to_bits(), want.to_bits(), "{name}: {got} vs {want}");
        assert!((1.5..8.0).contains(&got), "{name}: {got}");
    }
}
