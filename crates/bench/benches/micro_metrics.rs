//! Table 2 metric microbenches: the two sampled graph reads `tab2` pays
//! for, timed on the three default Table 2 graphs (`SocialConfig`'s
//! sizes, seeds and sampling budget, so the numbers are those of one
//! `run_table2` call).
//!
//! * `path_length` — `metrics::avg_path_length`: exact BFS distances
//!   from the sampled sources, 64 sources per bit-parallel pass.
//! * `clustering` — `metrics::clustering_coefficient`: sampled local
//!   clustering over the undirected projection.
//!
//! Throughput is reported in directed edges, so the three graphs (which
//! differ ~2x in size) compare per unit of adjacency traversed.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use livescope_core::social::SocialConfig;
use livescope_graph::metrics::{avg_path_length, clustering_coefficient, MetricsConfig};
use livescope_graph::{DiGraph, GraphSpec};

/// A Table 2 metric read with its sampling budget.
type Metric = fn(&DiGraph, &MetricsConfig) -> f64;

fn bench_metrics(c: &mut Criterion) {
    let config = SocialConfig::default();
    // Built in `run_table2`'s order and with its seeds.
    let graphs = [
        (
            "periscope",
            DiGraph::generate(
                &GraphSpec::periscope().with_nodes(config.periscope_nodes),
                config.seed,
            ),
        ),
        (
            "twitter",
            DiGraph::generate(
                &GraphSpec::twitter().with_nodes(config.twitter_nodes),
                config.seed ^ 1,
            ),
        ),
        (
            "facebook",
            DiGraph::generate(
                &GraphSpec::facebook().with_nodes(config.facebook_nodes),
                config.seed ^ 2,
            ),
        ),
    ];

    let metrics: [(&str, Metric); 2] = [
        ("metrics_path_length", avg_path_length),
        ("metrics_clustering", clustering_coefficient),
    ];
    for (group_name, f) in metrics {
        let mut group = c.benchmark_group(group_name);
        for (name, graph) in &graphs {
            group.throughput(Throughput::Elements(graph.edge_count() as u64));
            group.bench_function(*name, |b| b.iter(|| f(graph, &config.metrics)));
        }
        group.finish();
    }
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
