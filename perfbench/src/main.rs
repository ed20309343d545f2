//! The livescope benchmark workloads, one per process.
//!
//! ```text
//! perfbench <workload> --seed <n> --seconds <s>
//! perfbench <workload> --seed <n> --setup-only
//! ```
//!
//! Runs the workload's set-up, then repeats the workload for `--seconds`
//! seconds (the first repetitions, about a fifth of that time, are an
//! untimed warm-up), and prints one JSON object on stdout: the metrics
//! (medians over the timed repetitions), the output digests, and the
//! checks this process could make on its own (every repetition must
//! reproduce the digests of the first repetition). Pins and the
//! traced-versus-untraced comparison are checked by `run.py`, which also
//! maps the metrics onto the layers named in `layers.json`.
//!
//! Built with `--features profile` the same workloads run *traced*: each
//! layer's public functions are called one at a time and timed from here,
//! and the `handler.*` profile sections that already exist in the program
//! are read back. Built without it, each workload is the plain sequence of
//! calls a user of the library makes.
//!
//! Every worker, lane and assembly-shard count is the host's available
//! parallelism, reported as `nproc`. `figure-set` is made of independent
//! units (one entry point for one derived seed, or one Fig 14 cell) that
//! `nproc` workers take in turn; the traced build runs the same units one
//! at a time. Every scenario, graph and stream seed is derived from
//! `--seed`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use livescope_analysis::{DelayBreakdown, Figure};
use livescope_bench::replay::{scaled_periscope, summary_digest};
use livescope_cdn::fanout::build_origin;
use livescope_cdn::{run_fanout, Chunker, FanoutConfig, FanoutReport};
use livescope_core::breakdown::{self, BreakdownConfig, BreakdownReport};
use livescope_core::scalability::{self, FanoutCost, ScalabilityConfig};
use livescope_core::social::{self, SocialConfig, SocialReport};
use livescope_core::usage::{self, UsageConfig, UsageReport};
use livescope_crawler::streaming::DEFAULT_EXEMPLARS;
use livescope_crawler::{run_campaign_sharded_with_graph, CampaignConfig};
use livescope_graph::generate::BuildOptions;
use livescope_graph::{metrics, DiGraph, GraphSpec};
use livescope_proto::hls::Chunk;
use livescope_proto::rtmp::{RtmpMessage, VideoFrame};
use livescope_sim::rng::splitmix64;
use livescope_sim::{SimDuration, SimTime};
use livescope_telemetry::Telemetry;
use livescope_workload::{default_graph_seed, default_graph_spec, ScenarioConfig};

/// Periscope study divisor of `paper-replay`: ~120k users and ~2.3M
/// follow edges, so the graph and the sampler tables do not fit in L2.
const REPLAY_DIVISOR: f64 = 100.0;
/// Derived seeds whose figure set every `figure-set` repetition renders.
const FIGURE_SEEDS: usize = 3;
/// `celebrity-fanout` audience and stream length.
const FANOUT_VIEWERS_PER_POP: usize = 2_000;
const FANOUT_STREAM_SECS: u64 = 300;
/// Every run measures at least this many repetitions.
const MIN_ITERS: usize = 3;
/// The untimed warm-up: repetitions run for this share of `--seconds`,
/// at most [`WARMUP_MAX_S`], before the measured ones.
const WARMUP_SHARE: f64 = 0.2;
const WARMUP_MAX_S: f64 = 4.0;
/// Records per batch of the traced, unrolled replay.
const REPLAY_BATCH: usize = 4_096;

const MIB: f64 = 1024.0 * 1024.0;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench <paper-replay|figure-set|celebrity-fanout> --seed <n> --seconds <s>");
            std::process::exit(2);
        }
    };
    let mut out = Output::new(&args);
    match args.workload.as_str() {
        "paper-replay" => paper_replay(&args, &mut out),
        "figure-set" => figure_set(&args, &mut out),
        "celebrity-fanout" => celebrity_fanout(&args, &mut out),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    println!("{}", out.to_json());
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    setup_only: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let workload = it.next().ok_or("missing workload")?;
        let (mut seed, mut seconds, mut setup_only) = (None, None, false);
        while let Some(flag) = it.next() {
            if flag == "--setup-only" {
                setup_only = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: if setup_only {
                0.0
            } else {
                seconds.ok_or("missing --seconds")?
            },
            setup_only,
        })
    }
}

fn traced() -> bool {
    cfg!(feature = "profile")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A seed for one named input, derived from the workload seed.
fn derive(seed: u64, tag: &str) -> u64 {
    splitmix64(seed ^ fnv1a(tag.as_bytes()))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The benchmark's one clock read: it times calls from outside the
/// program, so no reading reaches an observable output.
fn now() -> Instant {
    Instant::now() // detlint::allow(wall-clock) — benchmark timing, never an output
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs the workload's set-up. With `--setup-only` the process then
/// prints the Unix time in nanoseconds — the moment the first measured
/// call would start — and exits; `run.py` subtracts its spawn time.
fn set_up<T>(args: &Args, setup: impl FnOnce() -> T) -> T {
    let inputs = black_box(setup());
    if args.setup_only {
        let ready = std::time::SystemTime::now() // detlint::allow(wall-clock) — set-up timing, never an output
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after 1970");
        println!("{{\"ready_unix_ns\":{}}}", ready.as_nanos());
        std::process::exit(0);
    }
    inputs
}

/// Repeats `iteration` for `seconds` and folds the repetitions into
/// `out`. The repetitions of the first [`WARMUP_SHARE`] of the time warm
/// caches, allocator and CPU up and are not timed (their outputs are
/// still checked); at least [`MIN_ITERS`] timed ones follow.
/// `peak_rss_mib` is the peak after the first repetition: the memory a
/// user needs to produce the output once, before allocator reuse across
/// repetitions blurs it. `iteration` is told whether it is the first, so
/// that unit-based workloads run it on one worker and the peak does not
/// depend on which units overlap.
fn repeat(out: &mut Output, seconds: f64, mut iteration: impl FnMut(bool) -> Iter) {
    let t0 = now();
    let mut runs = vec![iteration(true)];
    out.metric("peak_rss_mib", peak_rss_mib());
    while secs(t0) < (seconds * WARMUP_SHARE).min(WARMUP_MAX_S) {
        runs.push(iteration(false));
    }
    let warmup = runs.len();
    while runs.len() - warmup < MIN_ITERS || secs(t0) < seconds {
        runs.push(iteration(false));
    }
    out.absorb(&runs, warmup);
}

/// Runs units `0..count` on `workers` threads, each thread taking the
/// next unit not yet taken, and returns their results in unit order.
/// With one worker the units run in order on the calling thread.
fn run_units<T: Send>(workers: usize, count: usize, unit: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return (0..count).map(unit).collect();
    }
    let next = AtomicUsize::new(0);
    let take = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, unit(i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..workers).map(|_| s.spawn(take)).collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("benchmark unit panicked"))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Workers for a repetition of a unit-based workload: `nproc` untraced,
/// one traced (the traced run calls each layer one at a time) and for the
/// first repetition.
fn unit_workers(first: bool) -> usize {
    if traced() || first {
        1
    } else {
        nproc()
    }
}

/// One repetition's measurements: named seconds/counts plus the digests
/// of everything it produced.
#[derive(Default)]
struct Iter {
    values: BTreeMap<&'static str, f64>,
    digests: BTreeMap<String, u64>,
}

impl Iter {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Adds every value of `unit` (one unit of a repetition) to this one.
    fn add_all(&mut self, unit: &Iter) {
        for (&name, &value) in &unit.values {
            self.add(name, value);
        }
    }

    fn digest(&mut self, name: impl Into<String>, value: u64) {
        self.digests.insert(name.into(), value);
    }
}

struct Check {
    name: String,
    attempted: u64,
    failed: u64,
    detail: String,
}

struct Output {
    workload: String,
    seed: u64,
    iterations: usize,
    metrics: BTreeMap<String, f64>,
    /// Untimed warm-up repetitions before the timed ones.
    warmup: usize,
    /// Every timed repetition's wall seconds, in run order.
    walls: Vec<f64>,
    digests: BTreeMap<String, u64>,
    checks: Vec<Check>,
}

impl Output {
    fn new(args: &Args) -> Output {
        Output {
            workload: args.workload.clone(),
            seed: args.seed,
            iterations: 0,
            metrics: BTreeMap::new(),
            warmup: 0,
            walls: Vec::new(),
            digests: BTreeMap::new(),
            checks: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            attempted: 1,
            failed: u64::from(!ok),
            detail,
        });
    }

    /// Folds the repetitions: every value of the timed ones becomes its
    /// median (the wall time no layer call covers is taken per
    /// repetition), and every repetition's digests, warm-up included,
    /// must equal those of the first repetition.
    fn absorb(&mut self, all: &[Iter], warmup: usize) {
        let iters = &all[warmup..];
        self.warmup = warmup;
        self.iterations = iters.len();
        self.walls = iters.iter().map(|i| i.values["wall_s"]).collect();
        let first = &iters[0];
        for name in first.values.keys() {
            let vals: Vec<f64> = iters
                .iter()
                .filter_map(|i| i.values.get(name).copied())
                .collect();
            self.metrics.insert(name.to_string(), median(&vals));
        }
        let unattributed: Vec<f64> = iters
            .iter()
            .filter_map(|i| Some(i.values["wall_s"] - i.values.get("attributed_s")?))
            .collect();
        if !unattributed.is_empty() {
            self.metrics
                .insert("unattributed_s".to_string(), median(&unattributed));
        }
        let mut seen: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for i in all {
            for (name, &d) in &i.digests {
                seen.entry(name).or_default().push(d);
            }
        }
        for (name, values) in seen {
            let repeats = (values.len() - 1) as u64;
            let differing = values[1..].iter().filter(|&&d| d != values[0]).count() as u64;
            self.checks.push(Check {
                name: format!("repeatable.{name}"),
                attempted: repeats,
                failed: differing,
                detail: format!("{differing} of {repeats} repetitions differ from the first"),
            });
            self.digests.insert(name.to_string(), values[0]);
        }
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let features = if traced() {
            "parallel,profile"
        } else {
            "parallel"
        };
        write!(
            s,
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"features\":\"{features}\",\
             \"nproc\":{},\"warmup\":{},\"iterations\":{},\"metrics\":{{",
            self.workload,
            self.seed,
            traced(),
            nproc(),
            self.warmup,
            self.iterations,
        )
        .expect("write to String");
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| {
                if v.is_finite() {
                    format!("\"{k}\":{v:e}")
                } else {
                    format!("\"{k}\":null")
                }
            })
            .collect();
        s.push_str(&body.join(","));
        s.push_str("},\"walls\":[");
        let body: Vec<String> = self.walls.iter().map(|w| format!("{w:e}")).collect();
        s.push_str(&body.join(","));
        s.push_str("],\"digests\":{");
        let body: Vec<String> = self
            .digests
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v:#018x}\""))
            .collect();
        s.push_str(&body.join(","));
        s.push_str("},\"checks\":[");
        let body: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"attempted\":{},\"failed\":{},\"detail\":\"{}\"}}",
                    c.name, c.attempted, c.failed, c.detail
                )
            })
            .collect();
        s.push_str(&body.join(","));
        s.push_str("]}");
        s
    }
}

/// Sum of a `handler.<area>.<name>_ns` profile section, seconds; `None`
/// when the section recorded nothing (or the build has no `profile`).
fn section_s(telemetry: &Telemetry, name: &str) -> Option<f64> {
    let snap = telemetry.snapshot();
    snap.histogram(name)
        .filter(|h| h.count > 0)
        .map(|h| h.sum as f64 / 1e9)
}

// ---------------------------------------------------------------- paper-replay

struct ReplayInputs {
    scenario: ScenarioConfig,
    campaign: CampaignConfig,
    spec: GraphSpec,
    graph_seed: u64,
}

fn replay_inputs(seed: u64) -> ReplayInputs {
    let scenario = ScenarioConfig {
        seed: derive(seed, "paper-replay/scenario"),
        ..scaled_periscope(REPLAY_DIVISOR)
    };
    let campaign = CampaignConfig {
        seed: derive(seed, "paper-replay/campaign"),
        ..CampaignConfig::periscope_study()
    };
    ReplayInputs {
        spec: default_graph_spec(&scenario),
        graph_seed: default_graph_seed(&scenario),
        scenario,
        campaign,
    }
}

/// The Periscope longitudinal study at a low scale divisor: build the
/// follow graph, then replay the 97-day campaign over it.
fn paper_replay(args: &Args, out: &mut Output) {
    let inputs = set_up(args, || replay_inputs(args.seed));
    let k = nproc();
    repeat(out, args.seconds, |_| {
        if traced() {
            replay_traced(&inputs, k)
        } else {
            replay_untraced(&inputs, k)
        }
    });
    if traced() {
        let m = &out.metrics;
        let (slots, recorded, missed) = (
            m["workload.slots"],
            m["crawler.recorded"],
            m["crawler.missed"],
        );
        out.check(
            "crawler.every_slot_recorded_or_missed",
            recorded + missed == slots,
            format!("{recorded} recorded + {missed} missed vs {slots} slots"),
        );
    }
}

fn graph_digests(it: &mut Iter, graph: &DiGraph) {
    it.digest("graph.adjacency", graph.adjacency_checksum());
    it.digest("graph.degrees", graph.degree_checksum());
}

fn replay_untraced(inputs: &ReplayInputs, k: usize) -> Iter {
    let t0 = now();
    let (graph, _) = DiGraph::generate_with(
        &inputs.spec,
        inputs.graph_seed,
        &BuildOptions::new().with_workers(k),
    );
    let graph_s = secs(t0);
    let t1 = now();
    let (summary, stats) = run_campaign_sharded_with_graph(
        &inputs.scenario,
        &graph,
        &inputs.campaign,
        k,
        DEFAULT_EXEMPLARS,
    );
    let replay_s = secs(t1);
    let wall_s = secs(t0);
    let mut it = Iter::default();
    it.set("wall_s", wall_s);
    it.set("graph_build_s", graph_s);
    it.set("replay_s", replay_s);
    it.set("broadcasts_per_s", stats.records as f64 / replay_s);
    it.set("crawler.merge_s", stats.merge_wall_s);
    it.set("crawler.barrier_s", stats.barrier_wall_s);
    graph_digests(&mut it, &graph);
    it.digest("crawler.summary", summary_digest(&summary));
    it
}

/// The same graph build and replay, one layer call at a time: the
/// graph build's phase sections, then the sequential streaming replay
/// unrolled into batches of schedule → follower lookup → record sampling
/// → outage verdicts → fold, each batch phase timed from here. The
/// unrolled replay is the one `run_campaign_streaming` performs, so its
/// summary digest must equal the sharded untraced run's.
fn replay_traced(inputs: &ReplayInputs, k: usize) -> Iter {
    use livescope_crawler::{OutageFilter, StreamingCampaign};
    use livescope_graph::generate::BuildProfile;
    use livescope_workload::{
        DayStats, FixedBitset, RecordSampler, ScheduleStream, WorkloadSummary,
    };

    let mut it = Iter::default();
    let t0 = now();
    let telemetry = Telemetry::recording(16);
    let options = BuildOptions::new()
        .with_workers(k)
        .with_profile(BuildProfile::new(&telemetry));
    let (graph, stats) = DiGraph::generate_with(&inputs.spec, inputs.graph_seed, &options);
    for (metric, section) in [
        ("graph.decide_s", "handler.graph.decide_ns"),
        ("graph.rewire_s", "handler.graph.rewire_ns"),
        ("graph.assemble_s", "handler.graph.assemble_ns"),
    ] {
        if let Some(s) = section_s(&telemetry, section) {
            it.set(metric, s);
        }
    }
    let graph_s = secs(t0);
    it.set("graph_build_s", graph_s);
    it.set("graph.edges", stats.edges as f64);
    it.set("graph.swaps", stats.swaps_applied as f64);
    it.set("graph.peak_build_mib", stats.peak_bytes as f64 / MIB);
    it.set("graph.resident_mib", graph.resident_bytes() as f64 / MIB);
    it.set(
        "graph.max_in_degree",
        graph.degrees().max_in_degree() as f64,
    );

    let scenario = &inputs.scenario;
    let users = scenario.users;
    let t_replay = now();
    let t = now();
    let mut schedule = ScheduleStream::new(scenario);
    it.add("workload.schedule_s", secs(t));
    let t = now();
    let sampler = RecordSampler::new(scenario);
    it.add("workload.sample_s", secs(t));
    it.set(
        "workload.table_mib",
        (schedule.tracked_bytes() + sampler.tracked_bytes()) as f64 / MIB,
    );
    let t = now();
    let mut filter = OutageFilter::new(&inputs.campaign);
    let mut acc = StreamingCampaign::new(&inputs.campaign, scenario.days, users, DEFAULT_EXEMPLARS);
    it.add("crawler.fold_s", secs(t));

    // Ground-truth accounting, as `BroadcastStream` keeps it.
    let mut user_views = vec![0u32; users];
    let mut user_creates = vec![0u32; users];
    let mut daily: Vec<DayStats> = Vec::with_capacity(scenario.days as usize);
    let mut day_viewers = FixedBitset::new(users);
    let mut day_broadcasters = FixedBitset::new(users);
    let mut day_count = 0u64;

    let mut slots = Vec::with_capacity(REPLAY_BATCH);
    let mut followers = Vec::with_capacity(REPLAY_BATCH);
    let mut records = Vec::with_capacity(REPLAY_BATCH);
    let mut verdicts = Vec::with_capacity(REPLAY_BATCH);
    let (mut n_slots, mut picks, mut views, mut recorded, mut missed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut peak_tracked = 0usize;
    loop {
        let t = now();
        slots.clear();
        slots.extend(schedule.by_ref().take(REPLAY_BATCH));
        it.add("workload.schedule_s", secs(t));
        if slots.is_empty() {
            break;
        }
        n_slots += slots.len() as u64;

        let t = now();
        followers.clear();
        followers.extend(slots.iter().map(|s| graph.in_degree(s.broadcaster) as u64));
        it.add("workload.lookup_s", secs(t));

        let t = now();
        records.clear();
        for (slot, &f) in slots.iter().zip(&followers) {
            while slot.day as usize > daily.len() {
                close_day(
                    &mut daily,
                    &mut day_viewers,
                    &mut day_broadcasters,
                    &mut day_count,
                );
            }
            day_count += 1;
            user_creates[slot.broadcaster as usize] += 1;
            day_broadcasters.insert(slot.broadcaster);
            records.push(sampler.sample(*slot, f, |viewer| {
                picks += 1;
                user_views[viewer as usize] += 1;
                day_viewers.insert(viewer);
            }));
        }
        it.add("workload.sample_s", secs(t));
        views += records.iter().map(|r| r.viewers).sum::<u64>();

        let t = now();
        verdicts.clear();
        verdicts.extend(records.iter().map(|r| filter.observes(r.day)));
        it.add("crawler.outage_s", secs(t));

        let t = now();
        for (record, &seen) in records.drain(..).zip(&verdicts) {
            if seen {
                recorded += 1;
                acc.observe(record);
            } else {
                missed += 1;
                acc.miss();
            }
        }
        it.add("crawler.fold_s", secs(t));
        peak_tracked = peak_tracked.max(acc.tracked_bytes());
    }
    let t = now();
    while daily.len() < scenario.days as usize {
        close_day(
            &mut daily,
            &mut day_viewers,
            &mut day_broadcasters,
            &mut day_count,
        );
    }
    it.add("workload.sample_s", secs(t));
    let t = now();
    let summary = acc.finish(WorkloadSummary {
        config: scenario.clone(),
        daily,
        user_views,
        user_creates,
    });
    it.add("crawler.fold_s", secs(t));
    let replay_s = secs(t_replay);
    let wall_s = secs(t0);

    let v = &it.values;
    let sample_s = v["workload.sample_s"];
    let serial = v["workload.schedule_s"] + v["workload.lookup_s"] + v["crawler.outage_s"];
    it.set("replay_s", replay_s);
    it.set("wall_s", wall_s);
    it.set("broadcasts_per_s", n_slots as f64 / replay_s);
    it.set("workload.slots", n_slots as f64);
    it.set("workload.views", views as f64);
    it.set("workload.view_picks", picks as f64);
    it.set(
        "workload.views_per_broadcast",
        views as f64 / n_slots.max(1) as f64,
    );
    it.set(
        "workload.sample_ns_per_view",
        sample_s * 1e9 / views.max(1) as f64,
    );
    it.set("crawler.recorded", recorded as f64);
    it.set("crawler.missed", missed as f64);
    it.set("crawler.peak_tracked_mib", peak_tracked as f64 / MIB);
    it.set("crawler.serial_share", serial / replay_s);
    let layers = [
        "graph.decide_s",
        "graph.rewire_s",
        "graph.assemble_s",
        "workload.schedule_s",
        "workload.lookup_s",
        "workload.sample_s",
        "crawler.outage_s",
        "crawler.fold_s",
    ];
    let attributed: f64 = layers.iter().filter_map(|l| it.values.get(l)).sum();
    it.set("attributed_s", attributed);
    graph_digests(&mut it, &graph);
    it.digest("crawler.summary", summary_digest(&summary));
    it
}

/// Closes the accounting day, as `BroadcastStream` does.
fn close_day(
    daily: &mut Vec<livescope_workload::DayStats>,
    viewers: &mut livescope_workload::FixedBitset,
    broadcasters: &mut livescope_workload::FixedBitset,
    count: &mut u64,
) {
    daily.push(livescope_workload::DayStats {
        day: daily.len() as u32,
        broadcasts: *count,
        active_viewers: viewers.len() as u64,
        active_broadcasters: broadcasters.len() as u64,
    });
    viewers.clear();
    broadcasters.clear();
    *count = 0;
}

// ------------------------------------------------------------------ figure-set

fn usage_config(seed: u64) -> UsageConfig {
    let d = UsageConfig::default();
    UsageConfig {
        periscope: ScenarioConfig {
            seed: derive(seed, "figure-set/periscope"),
            ..d.periscope
        },
        periscope_campaign: CampaignConfig {
            seed: derive(seed, "figure-set/periscope-campaign"),
            ..d.periscope_campaign
        },
        meerkat: ScenarioConfig {
            seed: derive(seed, "figure-set/meerkat"),
            ..d.meerkat
        },
        meerkat_campaign: CampaignConfig {
            seed: derive(seed, "figure-set/meerkat-campaign"),
            ..d.meerkat_campaign
        },
    }
}

/// The inputs of one rendering of the figure set.
struct FigureInputs {
    usage: UsageConfig,
    social: SocialConfig,
    fig7_seed: u64,
    /// Figs 10–11: the controlled experiment at the paper's 10 runs.
    breakdown: BreakdownConfig,
}

fn figure_inputs(seed: u64) -> Vec<FigureInputs> {
    (0..FIGURE_SEEDS)
        .map(|i| {
            let s = derive(seed, &format!("figure-set/{i}"));
            FigureInputs {
                usage: usage_config(s),
                social: SocialConfig {
                    seed: derive(s, "figure-set/table2"),
                    ..SocialConfig::default()
                },
                fig7_seed: derive(s, "figure-set/fig7"),
                breakdown: BreakdownConfig {
                    seed: derive(s, "figure-set/breakdown"),
                    ..BreakdownConfig::default()
                },
            }
        })
        .collect()
}

/// The Fig 14 RTMP/HLS server-cost sweep, run once per repetition.
fn fig14_config(seed: u64) -> ScalabilityConfig {
    ScalabilityConfig {
        seed: derive(seed, "figure-set/fig14"),
        ..ScalabilityConfig::default()
    }
}

/// Bytes of one figure as `emit_figure` writes them.
fn figure_bytes(fig: &Figure, out: &mut Vec<u8>) {
    out.extend_from_slice(fig.render_ascii(84, 20).as_bytes());
    out.extend_from_slice(fig.to_csv().as_bytes());
    out.extend_from_slice(fig.to_json().as_bytes());
}

/// Table 1 and Figs 1–6, rendered.
fn render_usage(report: &UsageReport, out: &mut Vec<u8>) {
    out.extend_from_slice(report.tab1().as_bytes());
    for fig in [
        report.fig1(),
        report.fig2(),
        report.fig3(),
        report.fig4(),
        report.fig5(),
        report.fig6(),
    ] {
        figure_bytes(&fig, out);
    }
}

/// One unit of the figure set: an entry point for one derived seed, or
/// one cell of the Fig 14 sweep.
#[derive(Clone, Copy)]
enum FigureUnit {
    /// `usage::run`, then Table 1 and Figs 1–6 rendered.
    Usage,
    /// `social::run_table2`, rendered.
    Table2,
    /// `social::run_fig7`, rendered.
    Fig7,
    /// `breakdown::run`: the Figs 10–11 delay components, bit-exact.
    Breakdown,
    /// `scalability::run_rtmp_cell` for this many viewers.
    RtmpCell(usize),
    /// `scalability::run_hls_cell` for this many viewers.
    HlsCell(usize),
}

impl FigureUnit {
    /// The digest this unit's output bytes go into, and their place in
    /// it: a seed's artifacts in the order its entry points write them,
    /// the Fig 14 cells in the order the sweep reports them.
    fn digest_slot(self, seed: usize) -> (String, (u8, usize)) {
        match self {
            FigureUnit::Usage => (format!("figure.artifacts.{seed}"), (0, 0)),
            FigureUnit::Table2 => (format!("figure.artifacts.{seed}"), (1, 0)),
            FigureUnit::Fig7 => (format!("figure.artifacts.{seed}"), (2, 0)),
            FigureUnit::Breakdown => (format!("lab.breakdown.{seed}"), (0, 0)),
            FigureUnit::RtmpCell(viewers) => ("lab.fig14_ops".to_string(), (0, viewers)),
            FigureUnit::HlsCell(viewers) => ("lab.fig14_ops".to_string(), (1, viewers)),
        }
    }
}

/// Every unit of a repetition as (derived seed, unit), largest first so
/// the workers finish close together.
fn figure_units(seeds: usize, sweep: &ScalabilityConfig) -> Vec<(usize, FigureUnit)> {
    let mut units: Vec<_> = (0..seeds).map(|i| (i, FigureUnit::Table2)).collect();
    for &viewers in sweep.viewer_counts.iter().rev() {
        units.push((0, FigureUnit::RtmpCell(viewers)));
        units.push((0, FigureUnit::HlsCell(viewers)));
    }
    for kind in [FigureUnit::Usage, FigureUnit::Breakdown, FigureUnit::Fig7] {
        units.extend((0..seeds).map(|i| (i, kind)));
    }
    units
}

/// The default-divisor entry points behind `tab1`, `fig1`–`fig7`,
/// `tab2`, `fig10`/`fig11` and `fig14`: every repetition renders the
/// figure set of each of the [`FIGURE_SEEDS`] derived seeds and runs the
/// Fig 14 sweep once.
fn figure_set(args: &Args, out: &mut Output) {
    let sweep = fig14_config(args.seed);
    let (inputs, stream) = set_up(args, || {
        (
            figure_inputs(args.seed),
            frame_stream(sweep.stream_secs, sweep.chunk_secs),
        )
    });
    let units = figure_units(inputs.len(), &sweep);
    repeat(out, args.seconds, |first| {
        let t0 = now();
        let done = run_units(unit_workers(first), units.len(), |u| {
            let (seed, kind) = units[u];
            figure_unit(&inputs[seed], &sweep, kind)
        });
        let mut it = Iter::default();
        if traced() {
            proto_traced(&stream, &mut it);
        }
        let wall_s = secs(t0);
        let mut digests = BTreeMap::<String, Vec<_>>::new();
        for (&(seed, kind), (bytes, unit)) in units.iter().zip(done) {
            it.add_all(&unit);
            let (name, place) = kind.digest_slot(seed);
            digests.entry(name).or_default().push((place, bytes));
        }
        for (name, mut parts) in digests {
            parts.sort_by_key(|&(place, _)| place);
            let bytes: Vec<u8> = parts.into_iter().flat_map(|(_, b)| b).collect();
            it.digest(name, fnv1a(&bytes));
        }
        it.set("wall_s", wall_s);
        it.set(
            "broadcasts_per_s",
            it.values["figure.broadcasts"] / it.values["core.usage_s"],
        );
        if traced() {
            it.set(
                "core.scalability_s",
                it.values["cdn.rtmp_push_s"] + it.values["cdn.hls_cell_s"],
            );
            let attributed = [
                "core.usage_s",
                "analysis.render_s",
                "core.table2_s",
                "core.fig7_s",
                "core.breakdown_s",
                "core.scalability_s",
                "proto.total_s",
            ]
            .iter()
            .map(|l| it.values[l])
            .sum();
            it.set("attributed_s", attributed);
        }
        it
    });
    if traced() {
        let failures = out.metrics["proto.decode_failures"];
        out.check(
            "proto.lab_stream_decodes",
            failures == 0.0,
            format!("{failures} frames or chunks failed to decode"),
        );
    }
}

/// Runs one unit and renders its output; returns the output's bytes.
fn figure_unit(
    input: &FigureInputs,
    sweep: &ScalabilityConfig,
    unit: FigureUnit,
) -> (Vec<u8>, Iter) {
    let mut it = Iter::default();
    let mut bytes = Vec::new();
    let t = now();
    match unit {
        FigureUnit::Usage => {
            let report = usage::run(&input.usage);
            it.set("core.usage_s", secs(t));
            let broadcasts = report.periscope.broadcasts() + report.periscope.missed;
            it.set("figure.broadcasts", broadcasts as f64);
            let t = now();
            render_usage(&report, &mut bytes);
            it.set("analysis.render_s", secs(t));
        }
        FigureUnit::Table2 => {
            let table2 = if traced() {
                table2_traced(&input.social, &mut it)
            } else {
                social::run_table2(&input.social)
            };
            it.set("core.table2_s", secs(t));
            let t = now();
            bytes.extend_from_slice(table2.render().as_bytes());
            it.set("analysis.render_s", secs(t));
        }
        FigureUnit::Fig7 => {
            let fig7 = social::run_fig7(97, 12_000, input.fig7_seed);
            it.set("core.fig7_s", secs(t));
            let t = now();
            figure_bytes(&fig7.fig7(), &mut bytes);
            it.set("analysis.render_s", secs(t));
        }
        FigureUnit::Breakdown => {
            let report = breakdown::run(&input.breakdown);
            it.set("core.breakdown_s", secs(t));
            breakdown_bytes(&report, &mut bytes);
        }
        FigureUnit::RtmpCell(viewers) => {
            let cost = scalability::run_rtmp_cell(sweep, viewers);
            it.set("cdn.rtmp_push_s", secs(t));
            it.set("cdn.rtmp_pushes", cost.operations as f64);
            cost_bytes(&cost, &mut bytes);
        }
        FigureUnit::HlsCell(viewers) => {
            let cost = scalability::run_hls_cell(sweep, viewers);
            it.set("cdn.hls_cell_s", secs(t));
            it.set("cdn.hls_ops", cost.operations as f64);
            cost_bytes(&cost, &mut bytes);
        }
    }
    (bytes, it)
}

/// Every delay component of every row of a breakdown, bit-exact.
fn breakdown_bytes(report: &BreakdownReport, out: &mut Vec<u8>) {
    let rows = [&report.rtmp, &report.hls]
        .into_iter()
        .chain(&report.rtmp_runs)
        .chain(&report.hls_runs);
    for b in rows {
        let DelayBreakdown {
            upload_s,
            chunking_s,
            wowza2fastly_s,
            polling_s,
            last_mile_s,
            buffering_s,
        } = *b;
        for x in [
            upload_s,
            chunking_s,
            wowza2fastly_s,
            polling_s,
            last_mile_s,
            buffering_s,
        ] {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// A Fig 14 cell's audience, operation count and bytes.
fn cost_bytes(cost: &FanoutCost, out: &mut Vec<u8>) {
    for x in [cost.viewers as u64, cost.operations, cost.bytes] {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// `social::run_table2` one call at a time: each graph build, then each
/// `livescope_graph::metrics` call, timed from here.
fn table2_traced(config: &SocialConfig, it: &mut Iter) -> SocialReport {
    let mut rows = Vec::new();
    for (spec, seed) in [
        (
            GraphSpec::periscope().with_nodes(config.periscope_nodes),
            config.seed,
        ),
        (
            GraphSpec::twitter().with_nodes(config.twitter_nodes),
            config.seed ^ 1,
        ),
        (
            GraphSpec::facebook().with_nodes(config.facebook_nodes),
            config.seed ^ 2,
        ),
    ] {
        let t = now();
        let graph = DiGraph::generate(&spec, seed);
        it.add("graph_build_s", secs(t));
        let avg_degree = metrics::avg_degree(&graph);
        let clustering = {
            let t = now();
            let c = metrics::clustering_coefficient(&graph, &config.metrics);
            it.add("graph.clustering_s", secs(t));
            c
        };
        let avg_path = {
            let t = now();
            let p = metrics::avg_path_length(&graph, &config.metrics);
            it.add("graph.path_length_s", secs(t));
            p
        };
        let assortativity = {
            let t = now();
            let a = metrics::assortativity(&graph);
            it.add("graph.assortativity_s", secs(t));
            a
        };
        rows.push(livescope_graph::GraphMetrics {
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            avg_degree,
            clustering,
            avg_path,
            assortativity,
        });
    }
    // Built in run_table2's order: periscope, twitter, facebook.
    let facebook = rows.pop().expect("three rows");
    let twitter = rows.pop().expect("three rows");
    let periscope = rows.pop().expect("three rows");
    SocialReport {
        periscope,
        facebook,
        twitter,
    }
}

// ------------------------------------------------------------ celebrity-fanout

fn fanout_config(seed: u64) -> FanoutConfig {
    FanoutConfig {
        viewers_per_pop: FANOUT_VIEWERS_PER_POP,
        stream_secs: FANOUT_STREAM_SECS,
        roam_every: 5,
        seed: derive(seed, "celebrity-fanout"),
        ..FanoutConfig::default()
    }
}

/// One celebrity stream fanned out to thousands of roaming HLS viewers
/// across six POPs on the sharded scheduler, lanes = nproc.
fn celebrity_fanout(args: &Args, out: &mut Output) {
    let config = fanout_config(args.seed);
    // The origin chunk store, every chunk sealed and encoded once. Each
    // `run_fanout` call seals its own copy; this one is checked here.
    let origin = set_up(args, || build_origin(config.stream_secs, config.chunk_secs));
    let want = (config.stream_secs as f64 / config.chunk_secs).ceil();
    out.check(
        "cdn.origin_covers_stream",
        origin.len() as f64 >= want,
        format!(
            "{} chunks for a {}s stream",
            origin.len(),
            config.stream_secs
        ),
    );
    let lanes = nproc();
    repeat(out, args.seconds, |_| {
        let mut it = Iter::default();
        let telemetry = if traced() {
            Telemetry::recording(16)
        } else {
            Telemetry::disabled()
        };
        let t0 = now();
        let report = run_fanout(&config, lanes, &telemetry);
        let wall_s = secs(t0);
        it.set("wall_s", wall_s);
        it.set("sim_speedup", config.stream_secs as f64 / wall_s);
        it.set("chunk_serves_per_s", report.chunks_served() as f64 / wall_s);
        fanout_counts(&report, wall_s, &mut it);
        for (metric, section) in [
            ("cdn.origin_poll_s", "handler.fanout.origin_poll_ns"),
            ("cdn.serve_loop_s", "handler.fanout.serve_loop_ns"),
            ("cdn.reschedule_s", "handler.fanout.reschedule_ns"),
            ("sim.lane_exec_s", "handler.sharded.lane_exec_ns"),
            ("sim.mail_merge_s", "handler.sharded.mail_merge_ns"),
            ("sim.trace_merge_s", "handler.sharded.trace_merge_ns"),
        ] {
            if let Some(s) = section_s(&telemetry, section) {
                it.set(metric, s);
            }
        }
        if traced() {
            // The three epoch phases tile the run; the fan-out handler
            // sections are nested inside lane execution.
            let attributed = ["sim.lane_exec_s", "sim.mail_merge_s", "sim.trace_merge_s"]
                .iter()
                .filter_map(|l| it.values.get(l))
                .sum();
            it.set("attributed_s", attributed);
        }
        it.set(
            "cdn.viewers_done",
            report.per_pop.iter().map(|p| p.viewers_done).sum::<u64>() as f64,
        );
        it.digest("cdn.fanout", report.checksum);
        it
    });
    let (done, audience) = (
        out.metrics["cdn.viewers_done"],
        (config.pops.len() * config.viewers_per_pop) as f64,
    );
    out.check(
        "cdn.every_viewer_finishes",
        done == audience,
        format!("{done} of {audience} viewers finished"),
    );
}

fn fanout_counts(report: &FanoutReport, wall_s: f64, it: &mut Iter) {
    let polls: u64 = report.per_pop.iter().map(|p| p.polls_served).sum();
    let chunks = report.chunks_served();
    it.set("sim.events", report.events_fired as f64);
    it.set("sim.events_per_s", report.events_fired as f64 / wall_s);
    it.set("cdn.polls", polls as f64);
    it.set("cdn.chunks_served", chunks as f64);
    it.set(
        "cdn.bytes_served_mib",
        report.per_pop.iter().map(|p| p.bytes_served).sum::<u64>() as f64 / MIB,
    );
    it.set(
        "cdn.roams",
        report.per_pop.iter().map(|p| p.roams_out).sum::<u64>() as f64,
    );
    it.set("cdn.chunks_per_poll", chunks as f64 / polls.max(1) as f64);
}

// --------------------------------------------------------------- lab streams

/// The lab's frame stream: the frames a lab broadcaster pushes for one
/// Fig 14 stream, each RTMP-encoded, and the HLS chunks a chunker seals
/// from them, each container-encoded.
struct FrameStream {
    frames: Vec<VideoFrame>,
    rtmp: Vec<bytes::Bytes>,
    chunks: Vec<bytes::Bytes>,
}

fn lab_frame(seq: u64) -> VideoFrame {
    let size = if seq.is_multiple_of(50) { 9_000 } else { 2_500 };
    VideoFrame::new(
        seq,
        seq * 40_000,
        seq.is_multiple_of(50),
        bytes::Bytes::from(vec![7u8; size]),
    )
}

fn frame_stream(stream_secs: u64, chunk_secs: f64) -> FrameStream {
    let mut chunker = Chunker::new(SimDuration::from_secs_f64(chunk_secs));
    let (mut frames, mut rtmp, mut chunks) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..stream_secs * 25 {
        let frame = lab_frame(i);
        rtmp.push(RtmpMessage::Frame(frame.clone()).encode());
        if let Some(ready) = chunker.push(SimTime::from_millis(i * 40), frame.clone()) {
            chunks.push(ready.encoded.clone());
        }
        frames.push(frame);
    }
    FrameStream {
        frames,
        rtmp,
        chunks,
    }
}

/// RTMP frame encode/decode and HLS chunk decode, per unit, over the
/// lab's own frame and chunk stream.
fn proto_traced(stream: &FrameStream, it: &mut Iter) {
    let t_all = now();
    let t = now();
    for frame in &stream.frames {
        black_box(RtmpMessage::Frame(frame.clone()).encode());
    }
    it.set(
        "proto.rtmp_encode_ns",
        secs(t) * 1e9 / stream.frames.len() as f64,
    );
    let t = now();
    let mut decoded = 0usize;
    for wire in &stream.rtmp {
        decoded += usize::from(black_box(RtmpMessage::decode(wire.clone())).is_ok());
    }
    it.set(
        "proto.rtmp_decode_ns",
        secs(t) * 1e9 / stream.rtmp.len() as f64,
    );
    let t = now();
    for wire in &stream.chunks {
        decoded += usize::from(black_box(Chunk::decode(wire.clone())).is_ok());
    }
    it.set(
        "proto.hls_chunk_decode_ns",
        secs(t) * 1e9 / stream.chunks.len() as f64,
    );
    it.set("proto.total_s", secs(t_all));
    it.set(
        "proto.decode_failures",
        (stream.rtmp.len() + stream.chunks.len() - decoded) as f64,
    );
}
