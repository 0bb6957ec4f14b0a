//! Benchmark harness for the dragonfly simulator.
//!
//! ```text
//! perfbench plain  --workload <name> --seed <n> --seconds <s> --out <dir>
//! perfbench traced --workload <name> --seed <n> --out <dir>
//! ```
//!
//! `plain` repeats the workload on the production path until `--seconds`
//! have passed and reports the end-to-end metrics as medians over the
//! repetitions.  `traced` (built with `--features trace`) runs the workload
//! once untraced and once traced and reports the per-layer metrics.  Both
//! print one JSON object on stdout holding the metrics and every point's
//! simulated report rows; `run.py` checks the rows against the recorded
//! reference and prints the benchmark's result line.  All host times are
//! wall-clock; metrics named `sim*` without a time unit are simulated.

mod counting;
mod production;
mod selftest;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use counting::Tally;
use production::PointRun;
use traced::TracedPoint;
use workloads::Point;

/// Set-up-only rounds after the timed repetitions, so `setup_s` has a
/// steady median even when one repetition fills the whole measuring time:
/// at least `SETUP_ROUNDS` samples, and more while they take under
/// `SETUP_SECONDS`.
const SETUP_ROUNDS: usize = 5;
const SETUP_SECONDS: f64 = 0.5;
/// Per-cycle percentiles, highest first: the reported tail is the highest
/// with at least ten traced cycles beyond it.
const TAILS: [f64; 4] = [0.999, 0.99, 0.95, 0.9];
/// Cycles per point written to the exported trace.
const TRACE_EXPORT_CYCLES: usize = 1_000;

const USAGE: &str = "usage: perfbench <plain|traced> --workload <name> --seed <n> \
                     [--seconds <s>] --out <dir>";

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode")?;
    if mode != "plain" && mode != "traced" {
        return Err(format!("unknown mode {mode:?}"));
    }
    let (mut workload, mut seed, mut seconds, mut out) = (None, None, 1.0, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        out: out.ok_or("missing --out")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(points) = workloads::points(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            workloads::WORKLOADS
        );
        std::process::exit(2);
    };
    std::fs::create_dir_all(&args.out).expect("cannot create the output directory");
    let selftest = selftest::run(&args.out);
    let result = if args.mode == "plain" {
        plain(&points, args.seconds, &args.out)
    } else {
        traced(&points, &args.workload, &args.out)
    };
    println!("{}", result.to_json(&selftest));
}

/// Outcome of one point across every time it ran.
struct PointResult {
    slug: String,
    rows: Vec<String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl PointResult {
    fn new(point: &Point, first: &PointRun) -> Self {
        Self {
            slug: point.slug(),
            rows: first.rows.clone(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Count one run of the point, failed when `problem` is set.
    fn count(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if !self.notes.contains(&p) {
                self.notes.push(p);
            }
        }
    }
}

struct RunResult {
    points: Vec<PointResult>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// The raw samples behind the medians, for the results log.
    samples: Vec<(&'static str, Vec<f64>)>,
    trace_file: Option<PathBuf>,
}

/// Problems every leg can show: a deadlock or an unreadable manifest.
fn problem(run: &PointRun) -> Option<String> {
    if run.report.aggregate.deadlock_detected {
        return Some("deadlock detected".into());
    }
    run.manifest_error.clone()
}

fn plain(points: &[Point], seconds: f64, out: &Path) -> RunResult {
    let (mut runs, mut rates) = (Vec::new(), Vec::new());
    let mut setups: Vec<f64> = Vec::new();
    let mut results: Vec<PointResult> = Vec::new();
    let mut accepted = 0.0;
    let (mut latency_sum, mut measured) = (0.0, 0u64);
    // Read after the first repetition, before anything whose count depends
    // on timing, so allocator reuse across repetitions cannot move it.
    let mut peak_rss = 0.0;
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (mut run_s, mut setup_s, mut loop_s, mut cycles) = (0.0, 0.0, 0.0, 0u64);
        for (i, point) in points.iter().enumerate() {
            let run = production::run(point, out);
            run_s += run.run_s;
            setup_s += run.setup_s;
            loop_s += run.loop_s;
            cycles += run.cycles;
            if results.len() == i {
                let agg = &run.report.aggregate;
                accepted += agg.accepted_load / points.len() as f64;
                latency_sum += agg.avg_latency_cycles * agg.packets_measured as f64;
                measured += agg.packets_measured;
                results.push(PointResult::new(point, &run));
            }
            let result = &mut results[i];
            let diverged = (run.rows != result.rows)
                .then(|| "a repetition reported different rows".to_string());
            result.count(problem(&run).or(diverged));
        }
        if runs.is_empty() {
            peak_rss = peak_rss_mb();
        }
        runs.push(run_s);
        setups.push(setup_s);
        rates.push(cycles as f64 / loop_s);
    }
    let start = Instant::now();
    while setups.len() < SETUP_ROUNDS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        setups.push(points.iter().map(production::setup_only).sum());
    }
    RunResult {
        points: results,
        metrics: vec![
            ("run_s", median(&runs), "s"),
            ("setup_s", median(&setups), "s"),
            ("sim_cycles_per_s", median(&rates), "1/s"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("sim_accepted_load", accepted, "phits/node/cyc"),
            (
                "sim_latency_mean_cycles",
                latency_sum / measured.max(1) as f64,
                "cycles",
            ),
        ],
        samples: vec![
            ("run_s", runs),
            ("setup_s", setups),
            ("sim_cycles_per_s", rates),
        ],
        trace_file: None,
    }
}

fn traced(points: &[Point], workload: &str, out: &Path) -> RunResult {
    let tally = Arc::new(Tally::default());
    let origin = Instant::now();
    let mut results = Vec::new();
    let mut traced_points: Vec<TracedPoint> = Vec::new();
    let (mut untraced_loop_s, mut sharded) = (0.0, None);
    for point in points {
        // The workload's own run, then its sequential twin traced and, warm
        // after it, untraced: the overhead ratio compares the last two.
        let run = production::run(point, out);
        let mut result = PointResult::new(point, &run);
        result.count(problem(&run));
        let twin = Point {
            spec: point.spec.clone(),
            shards: None,
            probes: point.probes.clone(),
        };
        let traced = traced::run(&twin, origin, &tally, out);
        let untraced = production::run(&twin, out);
        let same = traced.report.csv_row() == untraced.rows[0]
            && (traced.cycles, traced.generated, traced.delivered)
                == (untraced.cycles, untraced.generated, untraced.delivered);
        let deadlock = traced
            .report
            .deadlock_detected
            .then(|| "traced leg deadlocked".into());
        let differs = (!same).then(|| "traced and untraced counts differ".into());
        result.count(deadlock.or(differs).or(traced.manifest_error.clone()));
        let repeat = (untraced.rows != run.rows).then(|| {
            if point.shards.is_some() {
                "sharded and sequential reports differ".into()
            } else {
                "a repetition reported different rows".into()
            }
        });
        result.count(problem(&untraced).or(repeat));
        untraced_loop_s += untraced.loop_s;
        if point.shards.is_some() {
            sharded = Some((run, untraced.loop_s));
        }
        results.push(result);
        traced_points.push(traced);
    }
    let trace_file = out.join(format!("trace_{workload}.json"));
    traced::write_trace(&traced_points, &trace_file, TRACE_EXPORT_CYCLES)
        .expect("cannot write the trace file");
    let mut metrics = layer_metrics(&traced_points, &tally, untraced_loop_s);
    metrics.extend(shard_metrics(sharded.as_ref()));
    RunResult {
        points: results,
        metrics,
        samples: Vec::new(),
        trace_file: Some(trace_file),
    }
}

fn layer_metrics(
    points: &[TracedPoint],
    tally: &Tally,
    untraced_loop_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let sum = |f: &dyn Fn(&TracedPoint) -> u64| points.iter().map(f).sum::<u64>();
    let max = |f: &dyn Fn(&TracedPoint) -> u64| points.iter().map(f).max().unwrap_or(0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let cycles = sum(&|p| p.stamps.len() as u64) as f64;
    let [hooks, arrivals, injection, routing, switch, bookkeeping] =
        traced::phase_ns(points).map(|ns| ns as f64);

    let (calls, stalls, draws) = tally.counts();
    let (calls, stalls, draws) = (calls as f64, stalls as f64, draws as f64);
    let generated = sum(&|p| p.generated) as f64;
    let delivered = sum(&|p| p.delivered) as f64;
    let phit_hops = sum(&|p| p.phit_hops) as f64;
    // Packet-weighted over the points' measurement windows.
    let window_delivered = sum(&|p| p.report.packets_delivered) as f64;
    let weighted = |f: &dyn Fn(&TracedPoint) -> f64| {
        let total: f64 = points
            .iter()
            .map(|p| f(p) * p.report.packets_delivered as f64)
            .sum();
        ratio(total, window_delivered)
    };

    let probe = |f: &dyn Fn(&traced::ProbeCost) -> u64| {
        points
            .iter()
            .filter_map(|p| p.probe.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let sched = |f: &dyn Fn(&(u64, u64, u64)) -> u64| {
        points
            .iter()
            .filter_map(|p| p.sched.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let stage_s = |name: &str| {
        let ns: u64 = points
            .iter()
            .flat_map(|p| &p.stages)
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum();
        ns as f64 / 1e9
    };
    let loop_ns = sum(&|p| p.loop_ns()) as f64;
    let covered_ns = points
        .iter()
        .flat_map(|p| &p.stamps)
        .map(|s| s[6] - s[0])
        .sum::<u64>() as f64;
    let mut cycle_us: Vec<f64> = points
        .iter()
        .flat_map(|p| &p.stamps)
        .map(|s| (s[6] - s[0]) as f64 / 1e3)
        .collect();
    cycle_us.sort_by(f64::total_cmp);
    let tail = TAILS
        .into_iter()
        .find(|q| (1.0 - q) * cycles >= 10.0)
        .unwrap_or(0.5);

    vec![
        ("sim.hooks_ns_per_cycle", ratio(hooks, cycles), "ns"),
        ("sim.arrivals_ns_per_cycle", ratio(arrivals, cycles), "ns"),
        ("sim.injection_ns_per_cycle", ratio(injection, cycles), "ns"),
        ("sim.routing_ns_per_cycle", ratio(routing, cycles), "ns"),
        ("sim.switch_ns_per_cycle", ratio(switch, cycles), "ns"),
        (
            "sim.bookkeeping_ns_per_cycle",
            ratio(bookkeeping, cycles),
            "ns",
        ),
        ("sim.phit_hops", phit_hops, "count"),
        (
            "sim.ns_per_phit_hop",
            ratio(arrivals + switch, phit_hops),
            "ns",
        ),
        ("routing.route_calls", calls, "count"),
        ("routing.route_stalls", stalls, "count"),
        ("routing.stall_ratio", ratio(stalls, calls), "ratio"),
        (
            "routing.calls_per_delivered_packet",
            ratio(calls, delivered),
            "ratio",
        ),
        ("routing.ns_per_call", ratio(routing, calls), "ns"),
        (
            "routing.global_misroute_fraction",
            weighted(&|p| p.report.global_misroute_fraction),
            "ratio",
        ),
        ("routing.avg_hops", weighted(&|p| p.report.avg_hops), "hops"),
        ("traffic.destination_draws", draws, "count"),
        (
            "traffic.ns_per_generated_packet",
            ratio(injection, generated),
            "ns",
        ),
        (
            "traffic.source_backlog_packets",
            sum(&|p| p.backlog) as f64,
            "packets",
        ),
        ("sim.arena_grows", sum(&|p| p.arena_grows) as f64, "count"),
        (
            "sim.peak_in_flight_packets",
            max(&|p| p.report.peak_in_flight_packets) as f64,
            "packets",
        ),
        (
            "sim.peak_buffered_phits",
            max(&|p| p.report.peak_buffered_phits) as f64,
            "phits",
        ),
        ("probe.install_ms", probe(&|c| c.install_ns) / 1e6, "ms"),
        ("probe.emit_ms", probe(&|c| c.emit_ns) / 1e6, "ms"),
        ("probe.bytes_emitted", probe(&|c| c.bytes), "bytes"),
        ("probe.dropped_records", probe(&|c| c.dropped), "count"),
        ("probe.detector_trips", probe(&|c| c.trips), "count"),
        ("sched.jobs_completed", sched(&|s| s.0), "count"),
        (
            "sched.mean_wait_cycles",
            ratio(sched(&|s| s.1), sched(&|s| s.2)),
            "cycles",
        ),
        ("stage.setup_s", stage_s("setup"), "s"),
        ("stage.warmup_s", stage_s("warmup"), "s"),
        ("stage.measure_s", stage_s("measure"), "s"),
        ("stage.drain_s", stage_s("drain"), "s"),
        ("stage.report_s", stage_s("report"), "s"),
        ("sim.cycles", cycles, "cycles"),
        ("sim.packets_generated", generated, "packets"),
        ("sim.packets_delivered", delivered, "packets"),
        ("sim.cycle_us_p50", percentile(&cycle_us, 0.50), "us"),
        ("sim.cycle_us_tail", percentile(&cycle_us, tail), "us"),
        ("sim.cycle_tail_percentile", tail * 100.0, "%"),
        (
            "trace.overhead_ratio",
            ratio(loop_ns / 1e9, untraced_loop_s),
            "ratio",
        ),
        (
            "trace.uncovered_share",
            ratio(loop_ns - covered_ns, loop_ns),
            "ratio",
        ),
    ]
}

/// Shard-layer metrics from the sharded point's profile counters (zero for
/// workloads without one).
fn shard_metrics(sharded: Option<&(PointRun, f64)>) -> Vec<(&'static str, f64, &'static str)> {
    let (mut setup, mut wait_share, mut imbalance, mut speedup) = (0.0, 0.0, 0.0, 0.0);
    if let Some((run, sequential_loop_s)) = sharded {
        let profile = &run.shard_profile;
        let shards = profile.len().max(1) as f64;
        let loop_ns = run.loop_s * 1e9;
        let compute: Vec<f64> = profile.iter().map(|&(ns, _)| ns as f64).collect();
        let mean = compute.iter().sum::<f64>() / shards;
        setup = run.setup_s;
        wait_share = profile
            .iter()
            .map(|&(_, w)| w as f64 / loop_ns)
            .sum::<f64>()
            / shards;
        imbalance = compute.iter().cloned().fold(0.0, f64::max) / mean.max(f64::MIN_POSITIVE);
        speedup = sequential_loop_s / run.loop_s;
    }
    vec![
        ("shard.setup_s", setup, "s"),
        ("shard.barrier_wait_share", wait_share, "ratio"),
        ("shard.compute_imbalance", imbalance, "ratio"),
        ("shard.loop_speedup", speedup, "ratio"),
    ]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    fn to_json(&self, selftest: &Result<(), String>) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let rows: Vec<String> = p.rows.iter().map(|r| json_str(r)).collect();
                let notes: Vec<String> = p.notes.iter().map(|n| json_str(n)).collect();
                format!(
                    "{{\"slug\":{},\"attempted\":{},\"failed\":{},\"rows\":[{}],\"notes\":[{}]}}",
                    json_str(&p.slug),
                    p.attempted,
                    p.failed,
                    rows.join(","),
                    notes.join(",")
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}:{{\"value\":{value:?},\"unit\":{}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, values)| format!("{}:{values:?}", json_str(name)))
            .collect();
        let selftest = match selftest {
            Ok(()) => "null".to_string(),
            Err(e) => json_str(e),
        };
        let trace = self
            .trace_file
            .as_ref()
            .map_or("null".to_string(), |p| json_str(&p.display().to_string()));
        format!(
            "{{\"selftest_error\":{selftest},\"points\":[{}],\"metrics\":{{{}}},\"samples\":{{{}}},\
             \"trace_file\":{trace},\"build_features\":{}}}",
            points.join(","),
            metrics.join(","),
            samples.join(","),
            json_str(if cfg!(feature = "trace") { "trace" } else { "" }),
        )
    }
}
