//! The run protocols, written once for every engine.
//!
//! A protocol drives an engine through the narrow [`Stepper`] seam and then
//! builds its report from a [`StatsCollector`] plus the *lead* network — the
//! whole network for the sequential engine, shard 0 for the sharded one,
//! which carries the names and the workload/schedule runtimes every replica
//! shares.  [`Simulation::run_protocol`](crate::Simulation::run_protocol) and
//! the sharded engine's `run_protocol` are the only two callers, so the two
//! engines cannot disagree about what a protocol does:
//!
//! * [`SteadyStateRun`] — the paper's open-loop warm-up / measure / drain,
//!   broken down per job and per phase over an installed workload;
//! * [`TraceRun`] — a job schedule from cycle 0 to completion or a horizon;
//! * [`BatchRun`] — burst consumption.

use crate::network::Network;
use crate::routing_iface::RoutingAlgorithm;
use crate::stats_collect::StatsCollector;
use dragonfly_sched::ScheduleRuntime;
use dragonfly_stats::{
    BatchReport, JobLifecycleReport, JobReport, PhaseReport, ScopedStats, SimReport, WorkloadReport,
};
use dragonfly_traffic::{BernoulliInjection, BurstSpec};

/// What a run protocol needs from an engine: the control surface of the
/// paper's measurement protocols plus the run-wide totals and flags they
/// test.  [`Network`] implements it directly; the sharded engine implements it
/// by broadcasting each call to its workers.
pub trait Stepper {
    /// Install or clear the global Bernoulli injection process.
    fn set_injection(&mut self, injection: Option<BernoulliInjection>);
    /// Open the measurement window at `cycle`; packets generated from now on
    /// are latency-tagged.
    fn open_window(&mut self, cycle: u64);
    /// Close the measurement window at `cycle` and stop tagging.
    fn close_window(&mut self, cycle: u64);
    /// Advance one cycle.
    fn step(&mut self);
    /// The current cycle.
    fn cycle(&self) -> u64;
    /// Packets generated so far, run-wide.
    fn total_generated(&self) -> u64;
    /// Packets delivered so far, run-wide.
    fn total_delivered(&self) -> u64;
    /// Whether the deadlock watchdog fired.
    fn deadlock(&self) -> bool;
    /// True when no packet exists anywhere.
    fn drained(&self) -> bool;
    /// Whether every job of the installed schedule completed (`true` without
    /// a schedule).
    fn all_complete(&self) -> bool;
    /// Halt the schedule's generation and admissions.
    fn halt_schedule(&mut self);
    /// Remove the workload runtime and stop injection, keeping its pattern.
    fn drop_workload(&mut self);
    /// Preload every source queue with `packets_per_node` packets.
    fn preload_burst(&mut self, packets_per_node: u64);

    /// Advance `cycles` cycles.
    fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }
}

impl<R: RoutingAlgorithm> Stepper for Network<R> {
    fn set_injection(&mut self, injection: Option<BernoulliInjection>) {
        Network::set_injection(self, injection);
    }
    fn open_window(&mut self, cycle: u64) {
        self.stats.begin_measurement(cycle);
        self.tag_measured = true;
    }
    fn close_window(&mut self, cycle: u64) {
        self.stats.end_measurement(cycle);
        self.tag_measured = false;
    }
    fn step(&mut self) {
        Network::step(self);
    }
    fn cycle(&self) -> u64 {
        self.cycle
    }
    fn total_generated(&self) -> u64 {
        self.stats.total_generated
    }
    fn total_delivered(&self) -> u64 {
        self.stats.total_delivered
    }
    fn deadlock(&self) -> bool {
        self.deadlock_detected
    }
    fn drained(&self) -> bool {
        self.is_drained()
    }
    fn all_complete(&self) -> bool {
        self.schedule().is_none_or(ScheduleRuntime::all_complete)
    }
    fn halt_schedule(&mut self) {
        if let Some(sched) = self.schedule_mut() {
            sched.halt();
        }
    }
    fn drop_workload(&mut self) {
        let _ = self.take_workload();
        Network::set_injection(self, None);
    }
    fn preload_burst(&mut self, packets_per_node: u64) {
        Network::preload_burst(self, packets_per_node);
    }
}

/// One run protocol: checked against the lead network, driven through a
/// [`Stepper`], reported from the run-wide statistics.
pub trait Protocol {
    /// The report the protocol produces.
    type Report;

    /// Check the preconditions against the lead network before the first
    /// step, and read what the drive loop needs from it.
    ///
    /// # Panics
    ///
    /// Panics when the protocol cannot run on this network (see each
    /// protocol), including a window long enough to overflow the fabric's
    /// `u32` arrival stamps.
    fn prepare<R: RoutingAlgorithm>(&mut self, lead: &Network<R>);

    /// The drive loop.
    fn drive<E: Stepper>(&mut self, engine: &mut E);

    /// Build the report from the run-wide statistics and the lead network.
    fn report<R: RoutingAlgorithm>(self, stats: &StatsCollector, lead: &Network<R>)
        -> Self::Report;
}

/// Panic unless a run of `window` more cycles keeps every arrival stamp
/// (`cycle + link latency`) inside the fabric's `u32` range.
fn guard_stamps<R: RoutingAlgorithm>(lead: &Network<R>, window: u64, what: &str) {
    let c = &lead.config;
    let latency = c
        .local_latency
        .max(c.global_latency)
        .max(c.terminal_latency);
    let last = lead.cycle.saturating_add(window).saturating_add(latency);
    assert!(
        last <= u64::from(u32::MAX),
        "run window too long: {what} = {window} cycles from cycle {} plus link latency {latency} \
         overflows the u32 arrival stamps",
        lead.cycle
    );
}

/// The paper's steady-state protocol, broken down per job and per phase when
/// a workload is installed.
///
/// The network is warmed up for `warmup` cycles under the offered load, then
/// measured for `measure` cycles.  Packets generated inside the measurement
/// window are latency-tagged; after the window closes the simulation keeps
/// running (with injection still on, as in an open-loop measurement) for up
/// to `drain` extra cycles or until every tagged packet has been delivered, so
/// latency statistics are not truncated.
///
/// With a workload installed the per-job phase schedules own the injection
/// rates, and the offered load is only reported — by default the workload's
/// nominal cycle-0 aggregate.  The breakdowns attribute every packet to the
/// job and phase that *generated* it; loads are normalized by the job's node
/// count and by each phase's overlap with the measurement window.  Without a
/// workload the report's `jobs` list is empty.
///
/// # Panics
///
/// [`Protocol::prepare`] panics when no offered load is given and no workload
/// is installed.
#[derive(Debug, Clone)]
pub struct SteadyStateRun {
    offered_load: Option<f64>,
    warmup: u64,
    measure: u64,
    drain: u64,
    injection: Option<BernoulliInjection>,
}

impl SteadyStateRun {
    /// The protocol for one steady-state point; `offered_load = None` reports
    /// the installed workload's nominal load.
    pub fn new(offered_load: Option<f64>, warmup: u64, measure: u64, drain: u64) -> Self {
        Self {
            offered_load,
            warmup,
            measure,
            drain,
            injection: None,
        }
    }
}

impl Protocol for SteadyStateRun {
    type Report = WorkloadReport;

    fn prepare<R: RoutingAlgorithm>(&mut self, lead: &Network<R>) {
        let window = self
            .warmup
            .saturating_add(self.measure)
            .saturating_add(self.drain);
        guard_stamps(lead, window, "warm-up + measure + drain");
        let load = *self.offered_load.get_or_insert_with(|| {
            lead.workload()
                .expect("run_steady_state_workload requires an installed workload")
                .nominal_offered_load(lead.params().num_nodes())
        });
        self.injection = lead
            .workload()
            .is_none()
            .then(|| BernoulliInjection::new(load, lead.config.packet_size));
    }

    fn drive<E: Stepper>(&mut self, e: &mut E) {
        if self.injection.is_some() {
            e.set_injection(self.injection);
        }
        e.run(self.warmup);
        let start = e.cycle();
        e.open_window(start);
        e.run(self.measure);
        let end = e.cycle();
        e.close_window(end);

        // Drain: let tagged packets finish, still under load, without
        // extending the throughput window.
        let measured_goal = e.total_generated();
        let mut drained = 0;
        while drained < self.drain && e.total_delivered() < measured_goal && !e.deadlock() {
            e.step();
            drained += 1;
        }
    }

    fn report<R: RoutingAlgorithm>(
        self,
        stats: &StatsCollector,
        lead: &Network<R>,
    ) -> WorkloadReport {
        let aggregate = sim_report(
            stats,
            SimRunIdentity {
                routing: lead.routing_name().to_string(),
                traffic: lead.traffic_name(),
                offered_load: self.offered_load.expect("prepared"),
                nodes: lead.params().num_nodes(),
                warmup_cycles: self.warmup,
                measure_cycles: self.measure,
                deadlock_detected: lead.deadlock_detected,
            },
        );
        let Some(runtime) = lead.workload() else {
            return WorkloadReport {
                aggregate,
                jobs: Vec::new(),
            };
        };
        let meas_start = stats.meter.window_start;
        let meas_end = stats.meter.window_end;
        let meas_cycles = meas_end.saturating_sub(meas_start);
        let scoped = stats
            .scoped
            .as_ref()
            .expect("scoped statistics are enabled when a workload is installed");

        let jobs = (0..runtime.num_jobs())
            .map(|j| {
                let job = runtime.job(j as u16);
                let phases = (0..job.phases())
                    .map(|ph| {
                        let overlap = span_overlap(
                            (job.phase_start(ph), job.phase_end(ph)),
                            (meas_start, meas_end),
                        );
                        phase_report(
                            PhaseIdentity {
                                job: job.name().to_string(),
                                phase: ph,
                                pattern: job.phase_pattern(ph).to_string(),
                                offered_load: job.phase_load(ph),
                                start_cycle: job.phase_start(ph),
                                end_cycle: job.phase_end(ph),
                            },
                            &scoped.per_phase[j][ph],
                            job.nodes(),
                            overlap,
                        )
                    })
                    .collect();
                job_report(
                    job.name().to_string(),
                    &scoped.per_job[j],
                    job.nodes(),
                    meas_cycles,
                    None,
                    phases,
                )
            })
            .collect();
        WorkloadReport { aggregate, jobs }
    }
}

/// Run an installed job schedule to completion (or `horizon` cycles,
/// whichever comes first) and report per-job statistics and lifecycles.
///
/// Churn runs have no steady state, so the whole run is the measurement
/// window: measurement starts at cycle 0 and ends when every trace job has
/// completed and the network has drained, or at `horizon`.  After the window
/// closes, generation and admission halt and the simulation drains for up to
/// `drain` extra cycles so in-flight latency samples are not truncated.
///
/// In the report, each job carries a single phase spanning its residency
/// (placement to completion) — loads are normalized by that span — plus a
/// [`JobLifecycleReport`] with its wait time, completion cycle and slowdown.
///
/// # Panics
///
/// [`Protocol::prepare`] panics without an installed schedule, or if the
/// simulation has already stepped (the trace owns absolute cycles from 0).
#[derive(Debug, Clone)]
pub struct TraceRun {
    horizon: u64,
    drain: u64,
    /// Where the measurement window closed.
    end: u64,
}

impl TraceRun {
    /// The protocol for one churn point.
    pub fn new(horizon: u64, drain: u64) -> Self {
        Self {
            horizon,
            drain,
            end: 0,
        }
    }
}

impl Protocol for TraceRun {
    type Report = WorkloadReport;

    fn prepare<R: RoutingAlgorithm>(&mut self, lead: &Network<R>) {
        assert!(
            lead.schedule().is_some(),
            "run_trace requires an installed schedule"
        );
        assert_eq!(lead.cycle, 0, "run_trace requires a fresh simulation");
        guard_stamps(
            lead,
            self.horizon.saturating_add(self.drain),
            "horizon + drain",
        );
    }

    fn drive<E: Stepper>(&mut self, e: &mut E) {
        e.open_window(0);
        while e.cycle() < self.horizon && !e.deadlock() {
            e.step();
            if e.all_complete() && e.drained() {
                break;
            }
        }
        self.end = e.cycle();
        e.close_window(self.end);

        // Halt generation and admissions, then let in-flight packets finish.
        e.halt_schedule();
        let mut drained = 0;
        while drained < self.drain && !e.drained() && !e.deadlock() {
            e.step();
            drained += 1;
        }
    }

    fn report<R: RoutingAlgorithm>(
        self,
        stats: &StatsCollector,
        lead: &Network<R>,
    ) -> WorkloadReport {
        let end = self.end;
        let nodes = lead.params().num_nodes();
        let packet_size = lead.config.packet_size;
        let runtime = lead.schedule().unwrap();
        let aggregate = sim_report(
            stats,
            SimRunIdentity {
                routing: lead.routing_name().to_string(),
                traffic: runtime.label().to_string(),
                offered_load: runtime.nominal_offered_load(nodes),
                nodes,
                warmup_cycles: 0,
                measure_cycles: end,
                deadlock_detected: lead.deadlock_detected,
            },
        );
        let scoped = stats
            .scoped
            .as_ref()
            .expect("scoped statistics are enabled when a schedule is installed");

        let jobs = (0..runtime.num_jobs() as u16)
            .map(|j| {
                let spec = runtime.job_spec(j);
                let lifetime = runtime.lifetime(j);
                // Residency span: placement to completion, clamped to the window.
                let start = lifetime.placed.unwrap_or(end);
                let stop = lifetime.completed.unwrap_or(end);
                let resident = span_overlap((start, stop), (0, end));
                let slowdown = match (lifetime.wait_cycles(), lifetime.service_cycles()) {
                    (Some(wait), Some(service)) => {
                        let ideal = runtime.ideal_service_cycles(j, packet_size);
                        Some((wait + service) as f64 / ideal.max(1) as f64)
                    }
                    _ => None,
                };
                let phase = phase_report(
                    PhaseIdentity {
                        job: spec.name.clone(),
                        phase: 0,
                        pattern: spec.pattern.name(),
                        offered_load: spec.offered_load,
                        start_cycle: start,
                        end_cycle: stop,
                    },
                    &scoped.per_phase[j as usize][0],
                    spec.size,
                    resident,
                );
                job_report(
                    spec.name.clone(),
                    &scoped.per_job[j as usize],
                    spec.size,
                    resident,
                    Some(JobLifecycleReport {
                        arrival_cycle: lifetime.arrival,
                        placed_cycle: lifetime.placed,
                        completion_cycle: lifetime.completed,
                        wait_cycles: lifetime.wait_cycles(),
                        slowdown,
                    }),
                    vec![phase],
                )
            })
            .collect();
        WorkloadReport { aggregate, jobs }
    }
}

/// The paper's burst-consumption protocol: every node sends
/// `burst.packets_per_node()` packets following the traffic pattern, and the
/// simulation runs until all of them are delivered (or `max_cycles` is
/// reached).  An installed workload stops injecting but keeps its pattern, so
/// the burst drains against workload destinations.
///
/// # Panics
///
/// [`Protocol::prepare`] panics when the burst's packet size differs from the
/// configured one, or with a dynamic schedule installed.
#[derive(Debug, Clone)]
pub struct BatchRun {
    burst: BurstSpec,
    max_cycles: u64,
    /// Packets in the burst, consumption cycles and the final drain state.
    total: u64,
    consumption: u64,
    drained: bool,
}

impl BatchRun {
    /// The protocol for one burst point.
    pub fn new(burst: BurstSpec, max_cycles: u64) -> Self {
        Self {
            burst,
            max_cycles,
            total: 0,
            consumption: 0,
            drained: false,
        }
    }
}

impl Protocol for BatchRun {
    type Report = BatchReport;

    fn prepare<R: RoutingAlgorithm>(&mut self, lead: &Network<R>) {
        assert_eq!(
            self.burst.packet_size(),
            lead.config.packet_size,
            "burst packet size must match the configured packet size"
        );
        assert!(
            lead.schedule().is_none(),
            "burst runs do not support dynamic schedules"
        );
        guard_stamps(lead, self.max_cycles, "max_cycles");
    }

    fn drive<E: Stepper>(&mut self, e: &mut E) {
        e.drop_workload();
        let start = e.cycle();
        e.open_window(start);
        e.preload_burst(self.burst.packets_per_node());
        self.total = e.total_generated();
        while !e.drained() && e.cycle() - start < self.max_cycles && !e.deadlock() {
            e.step();
        }
        self.consumption = e.cycle() - start;
        self.drained = e.drained();
        e.close_window(e.cycle());
    }

    fn report<R: RoutingAlgorithm>(self, stats: &StatsCollector, lead: &Network<R>) -> BatchReport {
        let deadlock = lead.deadlock_detected;
        BatchReport {
            routing: lead.routing_name().to_string(),
            traffic: lead.traffic_name(),
            packets_per_node: self.burst.packets_per_node(),
            packets_total: self.total,
            packets_delivered: stats.total_delivered,
            consumption_cycles: self.consumption,
            avg_latency_cycles: stats.latency.mean(),
            timed_out: !self.drained && !deadlock,
            deadlock_detected: deadlock,
        }
    }
}

/// Cycles of the half-open span `a` that fall inside the half-open span `b`.
fn span_overlap(a: (u64, u64), b: (u64, u64)) -> u64 {
    a.1.min(b.1).saturating_sub(a.0.max(b.0))
}

/// Everything in a [`SimReport`] that is not derived from the run's
/// [`StatsCollector`] — names, parameters and the watchdog verdict.
pub struct SimRunIdentity {
    /// Routing mechanism display name.
    pub routing: String,
    /// Traffic pattern display name.
    pub traffic: String,
    /// Offered load requested, in phits/(node·cycle).
    pub offered_load: f64,
    /// Number of terminal nodes (load normalization).
    pub nodes: usize,
    /// Warm-up cycles simulated before measurement.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Whether the deadlock watchdog fired.
    pub deadlock_detected: bool,
}

/// Build a [`SimReport`] from an accumulated collector (the sequential one or
/// the sharded engine's merged one).
pub fn sim_report(stats: &StatsCollector, id: SimRunIdentity) -> SimReport {
    SimReport {
        routing: id.routing,
        traffic: id.traffic,
        offered_load: id.offered_load,
        injected_load: stats.meter.injected_load(id.nodes),
        accepted_load: stats.meter.accepted_load(id.nodes),
        avg_latency_cycles: stats.latency.mean(),
        p99_latency_cycles: stats.latency_hist.percentile(0.99).unwrap_or(0.0),
        max_latency_cycles: stats.latency.max().unwrap_or(0.0),
        avg_hops: stats.hops.mean(),
        global_misroute_fraction: stats.global_misroute_fraction(),
        local_misroute_fraction: stats.local_misroute_fraction(),
        packets_delivered: stats.meter.packets_delivered,
        packets_measured: stats.measured_delivered,
        warmup_cycles: id.warmup_cycles,
        measure_cycles: id.measure_cycles,
        deadlock_detected: id.deadlock_detected,
        peak_in_flight_packets: stats.peak_in_flight_packets,
        peak_buffered_phits: stats.peak_buffered_phits,
        peak_vc_occupancy: stats.peak_vc_occupancy,
    }
}

/// Identity of one phase row — everything in a [`PhaseReport`] that is not
/// derived from its [`ScopedStats`] entry.
struct PhaseIdentity {
    job: String,
    phase: usize,
    pattern: String,
    offered_load: f64,
    start_cycle: u64,
    end_cycle: u64,
}

/// Build a [`PhaseReport`] from a scoped-stats entry: loads normalized over
/// `nodes × cycles`, plus the latency/hops/misroute/packet fields.
fn phase_report(id: PhaseIdentity, s: &ScopedStats, nodes: usize, cycles: u64) -> PhaseReport {
    PhaseReport {
        job: id.job,
        phase: id.phase,
        pattern: id.pattern,
        offered_load: id.offered_load,
        start_cycle: id.start_cycle,
        end_cycle: id.end_cycle,
        measured_cycles: cycles,
        injected_load: ScopedStats::load_over(s.phits_injected_in_window, nodes, cycles),
        accepted_load: ScopedStats::load_over(s.phits_delivered_in_window, nodes, cycles),
        avg_latency_cycles: s.latency.mean(),
        p99_latency_cycles: s.latency_hist.percentile(0.99).unwrap_or(0.0),
        max_latency_cycles: s.latency.max().unwrap_or(0.0),
        avg_hops: s.hops.mean(),
        global_misroute_fraction: s.global_misroute_fraction(),
        local_misroute_fraction: s.local_misroute_fraction(),
        packets_generated: s.total_generated,
        packets_delivered: s.total_delivered,
        packets_measured: s.measured_delivered,
    }
}

/// The job-level sibling of [`phase_report`].
fn job_report(
    name: String,
    s: &ScopedStats,
    nodes: usize,
    cycles: u64,
    lifecycle: Option<JobLifecycleReport>,
    phases: Vec<PhaseReport>,
) -> JobReport {
    JobReport {
        name,
        nodes,
        injected_load: ScopedStats::load_over(s.phits_injected_in_window, nodes, cycles),
        accepted_load: ScopedStats::load_over(s.phits_delivered_in_window, nodes, cycles),
        avg_latency_cycles: s.latency.mean(),
        p99_latency_cycles: s.latency_hist.percentile(0.99).unwrap_or(0.0),
        max_latency_cycles: s.latency.max().unwrap_or(0.0),
        avg_hops: s.hops.mean(),
        global_misroute_fraction: s.global_misroute_fraction(),
        local_misroute_fraction: s.local_misroute_fraction(),
        packets_generated: s.total_generated,
        packets_delivered: s.total_delivered,
        packets_measured: s.measured_delivered,
        lifecycle,
        phases,
    }
}
