//! The traced leg: the same point driven cycle by cycle from outside through
//! the public `step_with_phase_hook` seam, with counting wrappers around the
//! routing mechanism and the traffic pattern.
//!
//! Each cycle leaves seven timestamps (step start, then one per hook), so
//! stage → cycle → phase spans are kept in memory as plain integers and
//! turned into per-layer self times and a Chrome trace only after the run.
//! The run protocols below mirror `Simulation::run_steady_state` and
//! `Simulation::run_trace` statement for statement; the output check holds
//! them to that, because their reports must equal the untraced leg's.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dragonfly_probe::TraceBuilder;
use dragonfly_routing::RoutingVisitor;
use dragonfly_sched::ScheduleRuntime;
use dragonfly_sim::{sim_report, RoutingAlgorithm, SimRunIdentity, Simulation};
use dragonfly_stats::SimReport;
use dragonfly_traffic::BernoulliInjection;

use crate::counting::{CountingPattern, CountingRouting, Tally};
use crate::production::{adaptive, build, check_manifest, pattern};
use crate::workloads::Point;

/// Hook names `step_with_phase_hook` reports, in order.
const HOOKS: [&str; 6] = [
    "arrivals",
    "injection",
    "routing",
    "switch",
    "bookkeeping",
    "done",
];

/// Span names between consecutive stamps of a cycle: `hooks` is the step's
/// lifecycle hooks (scheduler and workload `advance_to`) before the first
/// phase.
const PHASES: [&str; 6] = [
    "hooks",
    "arrivals",
    "injection",
    "routing",
    "switch",
    "bookkeeping",
];

/// Nanoseconds since the run's origin: step start, then each hook.
pub type Stamps = [u64; 7];

/// A stage span in nanoseconds since the origin, with the cycles it holds.
pub struct Stage {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub cycles: std::ops::Range<usize>,
}

/// Probe-layer costs of one point.
#[derive(Default)]
pub struct ProbeCost {
    pub install_ns: u64,
    pub emit_ns: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub trips: u64,
}

/// Everything the traced leg of one point leaves behind.
pub struct TracedPoint {
    pub label: String,
    pub report: SimReport,
    pub cycles: u64,
    pub generated: u64,
    pub delivered: u64,
    pub stamps: Vec<Stamps>,
    pub stages: Vec<Stage>,
    /// Packets waiting in source queues when the measurement window closed.
    pub backlog: u64,
    pub arena_grows: u64,
    /// Phits sent over every link, ejection links included.
    pub phit_hops: u64,
    pub probe: Option<ProbeCost>,
    pub manifest_error: Option<String>,
    /// `(completed, Σ wait cycles, jobs placed)` of a churn schedule.
    pub sched: Option<(u64, u64, u64)>,
}

impl TracedPoint {
    /// Wall time of the cycle-loop stages.
    pub fn loop_ns(&self) -> u64 {
        self.stages
            .iter()
            .filter(|s| !matches!(s.name, "setup" | "report"))
            .map(|s| s.end - s.start)
            .sum()
    }
}

struct Recorder {
    origin: Instant,
    stamps: Vec<Stamps>,
    stages: Vec<Stage>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Close a stage that began at `start` and covers the cycles stepped
    /// since the previous stage.
    fn stage(&mut self, name: &'static str, start: u64) {
        let first = self.stages.last().map_or(0, |s| s.cycles.end);
        self.stages.push(Stage {
            name,
            start,
            end: self.now(),
            cycles: first..self.stamps.len(),
        });
    }

    fn step<R: RoutingAlgorithm>(&mut self, sim: &mut Simulation<R>) {
        let origin = self.origin;
        let mut stamps: Stamps = [0; 7];
        let mut next = 0;
        let mut in_order = true;
        stamps[0] = origin.elapsed().as_nanos() as u64;
        sim.step_with_phase_hook(&mut |hook| {
            stamps[next + 1] = origin.elapsed().as_nanos() as u64;
            in_order &= HOOKS.get(next) == Some(&hook);
            next += 1;
        });
        assert!(
            in_order && next == HOOKS.len(),
            "step_with_phase_hook no longer reports the hooks {HOOKS:?}"
        );
        self.stamps.push(stamps);
    }
}

/// Run one point's traced leg.  `origin` is shared by every point of the
/// run so the exported trace has one timeline.
pub fn run(point: &Point, origin: Instant, tally: &Arc<Tally>, out: &Path) -> TracedPoint {
    assert!(
        point.spec.traffic.workload().is_none(),
        "static workload traffic is not a benchmark protocol"
    );
    point.spec.routing.dispatch(
        adaptive(&point.spec),
        Traced {
            point,
            origin,
            tally,
            out,
        },
    )
}

struct Traced<'a> {
    point: &'a Point,
    origin: Instant,
    tally: &'a Arc<Tally>,
    out: &'a Path,
}

impl RoutingVisitor for Traced<'_> {
    type Output = TracedPoint;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> TracedPoint {
        let (point, spec) = (self.point, &self.point.spec);
        let mut rec = Recorder {
            origin: self.origin,
            stamps: Vec::with_capacity((spec.warmup + spec.measure + spec.drain) as usize),
            stages: Vec::new(),
        };

        let start = rec.now();
        let routing = CountingRouting::new(routing, Arc::clone(self.tally));
        let traffic = CountingPattern::new(pattern(spec), Arc::clone(self.tally));
        let (mut sim, install_ns) = build(point, routing, Box::new(traffic));
        let mut probe = point.probes.as_ref().map(|_| ProbeCost {
            install_ns,
            ..ProbeCost::default()
        });
        rec.stage("setup", start);

        let (report, backlog) = if point.is_churn() {
            trace_protocol(&mut sim, point, &mut rec)
        } else {
            steady_protocol(&mut sim, point, &mut rec)
        };

        let start = rec.now();
        let mut manifest_error = None;
        if let (Some(recorder), Some(cost)) = (sim.take_probe(), probe.as_mut()) {
            let prefix = point.slug();
            let manifest = spec.manifest_with_report(&prefix, &report);
            let t = rec.now();
            let written = recorder
                .write_all_with_manifest(self.out, &prefix, &manifest)
                .expect("cannot write the probe file set");
            cost.emit_ns = rec.now() - t;
            cost.bytes = written
                .iter()
                .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
                .sum();
            let delay_dropped = recorder.delay_ledger().map_or(0, |d| d.scope_dropped());
            cost.dropped = recorder.flight_dropped() + recorder.trips_dropped() + delay_dropped;
            cost.trips = recorder.trips().len() as u64;
            manifest_error = check_manifest(&manifest, &written);
        }
        rec.stage("report", start);

        let net = sim.network();
        let links = net.params().num_routers() * net.params().ports_per_router();
        let ports = net.params().ports_per_router();
        let phit_hops = (0..links)
            .map(|li| net.link_phits(li / ports, li % ports))
            .sum();
        let sched = net.schedule().map(|runtime| {
            let (mut completed, mut wait, mut placed) = (0, 0, 0);
            for j in 0..runtime.num_jobs() as u16 {
                let life = runtime.lifetime(j);
                completed += u64::from(life.completed.is_some());
                if let Some(w) = life.wait_cycles() {
                    wait += w;
                    placed += 1;
                }
            }
            (completed, wait, placed)
        });
        TracedPoint {
            label: point.slug(),
            cycles: net.cycle,
            generated: net.stats.total_generated,
            delivered: net.stats.total_delivered,
            arena_grows: net.arena_grows(),
            phit_hops,
            sched,
            report,
            stamps: rec.stamps,
            stages: rec.stages,
            backlog,
            probe,
            manifest_error,
        }
    }
}

fn backlog<R: RoutingAlgorithm>(sim: &Simulation<R>) -> u64 {
    let sources = &sim.network().sources;
    sources.iter().map(|q| q.pending.len() as u64).sum()
}

/// `Simulation::run_steady_state`, stepped through the recorder.
fn steady_protocol<R: RoutingAlgorithm>(
    sim: &mut Simulation<R>,
    point: &Point,
    rec: &mut Recorder,
) -> (SimReport, u64) {
    let spec = &point.spec;
    let net = sim.network_mut();
    let packet_size = net.config.packet_size;
    net.set_injection(Some(BernoulliInjection::new(
        spec.offered_load,
        packet_size,
    )));

    net.tag_measured = false;
    let start = rec.now();
    for _ in 0..spec.warmup {
        rec.step(sim);
    }
    rec.stage("warmup", start);

    let net = sim.network_mut();
    let window = net.cycle;
    net.stats.begin_measurement(window);
    net.tag_measured = true;
    let start = rec.now();
    for _ in 0..spec.measure {
        rec.step(sim);
    }
    rec.stage("measure", start);
    let net = sim.network_mut();
    let end = net.cycle;
    net.stats.end_measurement(end);
    net.tag_measured = false;
    let backlog = backlog(sim);

    let goal = sim.network().stats.total_generated;
    let start = rec.now();
    let mut drained = 0;
    while drained < spec.drain
        && sim.network().stats.total_delivered < goal
        && !sim.network().deadlock_detected
    {
        rec.step(sim);
        drained += 1;
    }
    rec.stage("drain", start);

    let net = sim.network();
    let report = sim_report(
        &net.stats,
        SimRunIdentity {
            routing: net.routing_name().to_string(),
            traffic: net.traffic_name(),
            offered_load: spec.offered_load,
            nodes: net.params().num_nodes(),
            warmup_cycles: spec.warmup,
            measure_cycles: spec.measure,
            deadlock_detected: net.deadlock_detected,
        },
    );
    (report, backlog)
}

/// `Simulation::run_trace`, stepped through the recorder (aggregate report
/// only; the per-job rows are the untraced leg's).
fn trace_protocol<R: RoutingAlgorithm>(
    sim: &mut Simulation<R>,
    point: &Point,
    rec: &mut Recorder,
) -> (SimReport, u64) {
    let (horizon, drain) = (point.spec.measure, point.spec.drain);
    let net = sim.network_mut();
    assert_eq!(net.cycle, 0, "the trace protocol needs a fresh simulation");
    net.stats.begin_measurement(0);
    net.tag_measured = true;
    let start = rec.now();
    while sim.network().cycle < horizon && !sim.network().deadlock_detected {
        rec.step(sim);
        let net = sim.network();
        let complete = net.schedule().is_some_and(ScheduleRuntime::all_complete);
        if complete && net.is_drained() {
            break;
        }
    }
    rec.stage("measure", start);
    let net = sim.network_mut();
    let end = net.cycle;
    net.stats.end_measurement(end);
    net.tag_measured = false;
    let backlog = backlog(sim);

    let net = sim.network_mut();
    if let Some(sched) = net.schedule_mut() {
        sched.halt();
    }
    let start = rec.now();
    let mut drained = 0;
    while drained < drain && !sim.network().is_drained() && !sim.network().deadlock_detected {
        rec.step(sim);
        drained += 1;
    }
    rec.stage("drain", start);

    let net = sim.network();
    let nodes = net.params().num_nodes();
    let runtime = net.schedule().expect("churn points install a schedule");
    let report = sim_report(
        &net.stats,
        SimRunIdentity {
            routing: net.routing_name().to_string(),
            traffic: runtime.label().to_string(),
            offered_load: runtime.nominal_offered_load(nodes),
            nodes,
            warmup_cycles: 0,
            measure_cycles: end,
            deadlock_detected: net.deadlock_detected,
        },
    );
    (report, backlog)
}

/// Per-phase self time summed over every traced cycle, in `PHASES` order.
pub fn phase_ns(points: &[TracedPoint]) -> [u64; 6] {
    let mut sums = [0u64; 6];
    for stamps in points.iter().flat_map(|p| &p.stamps) {
        for (k, sum) in sums.iter_mut().enumerate() {
            *sum += stamps[k + 1] - stamps[k];
        }
    }
    sums
}

/// Write every span as Chrome trace_event JSON, one process per point:
/// stages on track 1, cycles on track 2, phases on track 3.  Cycles are
/// thinned to at most `max_cycles` per point so the file stays small; the
/// per-layer numbers come from every cycle, not from the file.
pub fn write_trace(points: &[TracedPoint], path: &Path, max_cycles: usize) -> std::io::Result<()> {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut tb = TraceBuilder::new();
    for (i, point) in points.iter().enumerate() {
        let pid = i as u32 + 1;
        tb.name_process(pid, &point.label);
        for (tid, track) in [(1, "stage"), (2, "cycle"), (3, "phase")] {
            tb.name_thread(pid, tid, track);
        }
        for stage in &point.stages {
            let args = [("cycles", stage.cycles.len().to_string())];
            let (start, end) = (stage.start, stage.end);
            tb.span(stage.name, pid, 1, us(start), us(end - start), &args);
        }
        let every = point.stamps.len().div_ceil(max_cycles.max(1)).max(1);
        for (cycle, stamps) in point.stamps.iter().enumerate().step_by(every) {
            let args = [("cycle", cycle.to_string())];
            let dur = us(stamps[6] - stamps[0]);
            tb.span("cycle", pid, 2, us(stamps[0]), dur, &args);
            for (k, phase) in PHASES.iter().enumerate() {
                let dur = us(stamps[k + 1] - stamps[k]);
                tb.span(phase, pid, 3, us(stamps[k]), dur, &[]);
            }
        }
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    tb.write_to(&mut file)?;
    std::io::Write::flush(&mut file)
}
