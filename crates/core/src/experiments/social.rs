//! Table 2 and Fig 7: social-graph structure and its effect on audience.
//!
//! Table 2 contrasts Periscope's follow graph with reference Facebook and
//! Twitter crawls: Periscope looks like Twitter (asymmetric links,
//! negative assortativity) and unlike Facebook (mutual links, positive
//! assortativity, more clustering). Fig 7 scatter-plots a broadcaster's
//! follower count against its audience and finds a clear positive
//! relationship — notifications give celebrities built-in audiences.

use livescope_analysis::{pearson, Figure, Series, Table};
use livescope_graph::metrics::{compute, GraphMetrics, MetricsConfig};
use livescope_graph::{DiGraph, GraphSpec};
use livescope_workload::{generate_streaming, ScenarioConfig};

/// Scaled graph sizes for the three Table 2 rows.
#[derive(Clone, Debug)]
pub struct SocialConfig {
    pub periscope_nodes: usize,
    pub facebook_nodes: usize,
    pub twitter_nodes: usize,
    pub metrics: MetricsConfig,
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            periscope_nodes: 20_000,
            facebook_nodes: 10_000,
            twitter_nodes: 20_000,
            metrics: MetricsConfig::default(),
            seed: 0x7AB2,
        }
    }
}

/// Paper reference values for Table 2 (reported for comparison columns).
pub const PAPER_TABLE2: [(&str, f64, f64, f64, f64); 3] = [
    // (network, avg degree, clustering, avg path, assortativity)
    ("Periscope", 38.6, 0.130, 3.74, -0.057),
    ("Facebook", 199.6, 0.175, 5.13, 0.17),
    ("Twitter", 13.99, 0.065, 6.49, -0.19),
];

/// Table 2 result: our three generated rows.
#[derive(Clone, Debug)]
pub struct SocialReport {
    pub periscope: GraphMetrics,
    pub facebook: GraphMetrics,
    pub twitter: GraphMetrics,
}

impl SocialReport {
    /// Renders measured-vs-paper Table 2.
    pub fn render(&self) -> String {
        let mut table = Table::new([
            "network",
            "nodes",
            "edges",
            "avg deg",
            "clustering",
            "avg path",
            "assort",
            "paper(deg/clust/path/assort)",
        ]);
        for ((name, p_deg, p_cl, p_path, p_as), m) in
            PAPER_TABLE2
                .iter()
                .zip([&self.periscope, &self.facebook, &self.twitter])
        {
            table.row([
                name.to_string(),
                m.nodes.to_string(),
                m.edges.to_string(),
                format!("{:.1}", m.avg_degree),
                format!("{:.3}", m.clustering),
                format!("{:.2}", m.avg_path),
                format!("{:+.3}", m.assortativity),
                format!("{p_deg}/{p_cl}/{p_path}/{p_as}"),
            ]);
        }
        format!(
            "Table 2 — social graph structure (measured vs paper)\n{}",
            table.render()
        )
    }
}

/// Generates the three graphs and computes Table 2.
pub fn run_table2(config: &SocialConfig) -> SocialReport {
    let periscope = DiGraph::generate(
        &GraphSpec::periscope().with_nodes(config.periscope_nodes),
        config.seed,
    );
    let twitter = DiGraph::generate(
        &GraphSpec::twitter().with_nodes(config.twitter_nodes),
        config.seed ^ 1,
    );
    let facebook = DiGraph::generate(
        &GraphSpec::facebook().with_nodes(config.facebook_nodes),
        config.seed ^ 2,
    );
    SocialReport {
        periscope: compute(&periscope, &config.metrics),
        facebook: compute(&facebook, &config.metrics),
        twitter: compute(&twitter, &config.metrics),
    }
}

/// Fig 7 result: follower/viewer pairs plus summary statistics.
#[derive(Clone, Debug)]
pub struct Fig7Report {
    /// `(followers, viewers)` per broadcast.
    pub points: Vec<(u64, u64)>,
    /// Pearson correlation of `log1p(followers)` vs `log1p(viewers)`.
    pub log_correlation: f64,
    /// Median audience of the top-decile-by-followers vs the bottom half.
    pub top_decile_median: f64,
    pub bottom_half_median: f64,
}

impl Fig7Report {
    /// Fig 7 as a (log-x) scatter figure.
    pub fn fig7(&self) -> Figure {
        let mut fig = Figure::new(
            "Fig 7 — broadcaster followers vs viewers per broadcast",
            "# followers of broadcaster",
            "# viewers of broadcast",
        )
        .with_log_x();
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|&(f, v)| (f as f64 + 1.0, (v as f64 + 1.0).log10()))
            .collect();
        fig.push_series(Series::new("broadcasts (log10 viewers)", pts));
        fig
    }
}

/// Runs Fig 7 on a scaled Periscope workload.
pub fn run_fig7(days: u32, users: usize, seed: u64) -> Fig7Report {
    let scenario = ScenarioConfig {
        days,
        users,
        seed,
        ..ScenarioConfig::periscope_study()
    };
    // Stream the workload: Fig 7 only needs the (followers, viewers)
    // pairs, so the full records are never materialized.
    let points: Vec<(u64, u64)> = generate_streaming(&scenario)
        .map(|b| (b.followers, b.viewers))
        .collect();
    let xs: Vec<f64> = points.iter().map(|&(f, _)| (f as f64 + 1.0).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, v)| (v as f64 + 1.0).ln()).collect();
    let log_correlation = pearson(&xs, &ys);
    let mut by_followers = points.clone();
    by_followers.sort_by_key(|&(f, _)| f);
    let median = |slice: &[(u64, u64)]| -> f64 {
        if slice.is_empty() {
            return 0.0;
        }
        let mut v: Vec<u64> = slice.iter().map(|&(_, v)| v).collect();
        v.sort_unstable();
        v[v.len() / 2] as f64
    };
    let n = by_followers.len();
    Fig7Report {
        top_decile_median: median(&by_followers[9 * n / 10..]),
        bottom_half_median: median(&by_followers[..n / 2]),
        points,
        log_correlation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SocialConfig {
        // Clustering contrasts only stabilize once graphs are a few times
        // larger than the Facebook community size; stay near the preset
        // scale but sample the metrics lightly.
        SocialConfig {
            periscope_nodes: 9_000,
            facebook_nodes: 6_000,
            twitter_nodes: 9_000,
            metrics: MetricsConfig {
                clustering_samples: 600,
                path_samples: 24,
                seed: 3,
            },
            seed: 0x7AB2,
        }
    }

    #[test]
    fn table2_shape_contrasts_hold() {
        let r = run_table2(&quick_config());
        // Degree ordering: Facebook > Periscope > Twitter.
        assert!(r.facebook.avg_degree > r.periscope.avg_degree);
        assert!(r.periscope.avg_degree > r.twitter.avg_degree);
        // Assortativity: Facebook positive; Periscope mildly negative;
        // Twitter most negative.
        assert!(r.facebook.assortativity > 0.0, "{:?}", r.facebook);
        assert!(r.periscope.assortativity < 0.0, "{:?}", r.periscope);
        assert!(
            r.twitter.assortativity < r.periscope.assortativity,
            "twitter {} vs periscope {}",
            r.twitter.assortativity,
            r.periscope.assortativity
        );
        // Clustering: Facebook highest.
        assert!(r.facebook.clustering > r.periscope.clustering);
        assert!(r.facebook.clustering > r.twitter.clustering);
        // Small worlds all around.
        for m in [&r.periscope, &r.facebook, &r.twitter] {
            assert!((1.5..8.0).contains(&m.avg_path), "{m:?}");
        }
    }

    #[test]
    fn default_table2_avg_path_bits_are_pinned() {
        // Exact bits of the default `tab2` avg-path column, captured from
        // the per-source queue BFS the bit-parallel pass replaced.
        let r = run_table2(&SocialConfig::default());
        for (name, m, bits) in [
            ("periscope", &r.periscope, 0x4003_5ae6_2141_8d55_u64),
            ("facebook", &r.facebook, 0x4005_a8df_de68_d11f),
            ("twitter", &r.twitter, 0x4004_0c6d_85b3_e32c),
        ] {
            assert_eq!(
                m.avg_path.to_bits(),
                bits,
                "{name}: avg_path {} ({:#018x})",
                m.avg_path,
                m.avg_path.to_bits()
            );
        }
    }

    #[test]
    fn periscope_degree_tracks_the_paper() {
        let r = run_table2(&quick_config());
        assert!(
            (30.0..48.0).contains(&r.periscope.avg_degree),
            "paper 38.6, got {}",
            r.periscope.avg_degree
        );
        assert!(
            (-0.12..0.0).contains(&r.periscope.assortativity),
            "paper -0.057, got {}",
            r.periscope.assortativity
        );
    }

    #[test]
    fn table_renders_measured_and_paper_columns() {
        let text = run_table2(&quick_config()).render();
        assert!(text.contains("Periscope"));
        assert!(text.contains("38.6"));
        assert!(text.contains("assort"));
    }

    #[test]
    fn fig7_correlation_is_positive() {
        let r = run_fig7(14, 3_000, 5);
        assert!(r.points.len() > 500);
        assert!(
            r.log_correlation > 0.1,
            "log-log correlation {}",
            r.log_correlation
        );
        assert!(
            r.top_decile_median >= r.bottom_half_median * 2.0,
            "top {} vs bottom {}",
            r.top_decile_median,
            r.bottom_half_median
        );
    }

    #[test]
    fn fig7_renders() {
        let r = run_fig7(7, 1_500, 5);
        let fig = r.fig7();
        assert!(fig.log_x);
        assert!(fig.render_ascii(60, 14).contains("Fig 7"));
    }
}
