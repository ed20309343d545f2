//! Scratch calibration probe for the Table 2 generators.

#![forbid(unsafe_code)]

use livescope_graph::metrics::*;
use livescope_graph::{DiGraph, GraphSpec};

fn main() {
    let cfg = MetricsConfig {
        clustering_samples: 1000,
        path_samples: 48,
        seed: 1,
    };
    for (name, spec) in [
        ("periscope", GraphSpec::periscope()),
        ("twitter", GraphSpec::twitter()),
        ("facebook", GraphSpec::facebook()),
    ] {
        let g = DiGraph::generate(&spec.with_nodes(6000), 5);
        println!("{name}: {:?}", compute(&g, &cfg));
    }
}
