//! Single-experiment specification and execution.

use dragonfly_probe::{ProbeConfig, ProbeRecorder, RunManifest, MANIFEST_SCHEMA_VERSION};
use dragonfly_routing::{AdaptiveParams, RoutingKind, RoutingVisitor};
use dragonfly_sched::Trace;
use dragonfly_sim::{
    BatchRun, Protocol, RoutingAlgorithm, SimConfig, Simulation, SteadyStateRun, StorageFootprint,
    TraceRun,
};
use dragonfly_stats::{BatchReport, SimReport, WorkloadReport};
use dragonfly_topology::DragonflyParams;
use dragonfly_traffic::{
    AdversarialGlobal, AdversarialLocal, BurstSpec, MixedGlobalLocal, TrafficPattern, Uniform,
};
use dragonfly_workload::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// Which of the paper's two flow-control setups to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowControlKind {
    /// Virtual Cut-Through with 8-phit packets (Cascade-like, Section IV-A).
    Vct,
    /// Wormhole with 80-phit packets of 8×10-phit flits (PERCS-like, Section IV-B).
    Wormhole,
}

impl FlowControlKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FlowControlKind::Vct => "VCT",
            FlowControlKind::Wormhole => "WH",
        }
    }

    /// The packet size (phits) the paper uses for this flow control.
    pub fn packet_size(self) -> usize {
        match self {
            FlowControlKind::Vct => 8,
            FlowControlKind::Wormhole => 80,
        }
    }
}

/// Which traffic pattern to drive the network with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficKind {
    /// Uniform random traffic.
    Uniform,
    /// Adversarial-global with the given group offset (ADVG+N).
    AdversarialGlobal(usize),
    /// Adversarial-local with the given router offset (ADVL+N).
    AdversarialLocal(usize),
    /// Mix of ADVG+`global_offset` (with probability `global_fraction`) and
    /// ADVL+`local_offset`.
    Mixed {
        /// Fraction of packets following the adversarial-global component.
        global_fraction: f64,
        /// Group offset of the global component.
        global_offset: usize,
        /// Router offset of the local component.
        local_offset: usize,
    },
    /// A multi-job workload: per-job placements, patterns, offered loads and phase
    /// schedules (see [`WorkloadSpec`]).  The jobs' phases carry their own loads, so
    /// the spec's `offered_load` field is ignored; [`ExperimentSpec::run_workload`]
    /// additionally returns the per-job/per-phase breakdown.
    Workload(WorkloadSpec),
    /// A dynamic job schedule: trace-driven arrivals/departures with re-placement
    /// of freed nodes (see [`Trace`]).  Like workloads, the jobs carry their own
    /// loads; the run protocol is `Simulation::run_trace` with the spec's
    /// `measure` as the horizon and `drain` as the drain budget (`warmup` and
    /// `offered_load` are ignored — churn runs measure from cycle 0).
    Churn(Trace),
}

impl TrafficKind {
    /// ADVG+h for a given `h` (the severe pattern of Figures 4c/5c/7c/8c).
    pub fn advg_h(h: usize) -> Self {
        TrafficKind::AdversarialGlobal(h)
    }

    /// Instantiate the pattern against a topology.
    ///
    /// The paper's synthetic patterns ignore `params`; workloads compile their
    /// node-indexed, phase-switching pattern against it.
    ///
    /// # Panics
    ///
    /// Panics for [`TrafficKind::Churn`]: a churn schedule owns its destination
    /// side (the scheduler's dynamic per-job patterns), so there is no
    /// standalone pattern to build — install the trace with
    /// `Simulation::install_schedule` (as [`ExperimentSpec::run_workload`] does).
    pub fn build(&self, params: &DragonflyParams) -> Box<dyn TrafficPattern> {
        match self {
            TrafficKind::Uniform => Box::new(Uniform::new()),
            TrafficKind::AdversarialGlobal(n) => Box::new(AdversarialGlobal::new(*n)),
            TrafficKind::AdversarialLocal(n) => Box::new(AdversarialLocal::new(*n)),
            TrafficKind::Mixed {
                global_fraction,
                global_offset,
                local_offset,
            } => Box::new(MixedGlobalLocal::new(
                *global_fraction,
                *global_offset,
                *local_offset,
            )),
            TrafficKind::Workload(spec) => Box::new(spec.build_pattern(params)),
            TrafficKind::Churn(_) => panic!(
                "TrafficKind::Churn has no standalone traffic pattern; install the \
                 trace with Simulation::install_schedule instead"
            ),
        }
    }

    /// Display name matching the paper's labels.
    pub fn name(&self) -> String {
        match self {
            TrafficKind::Uniform => "UN".to_string(),
            TrafficKind::AdversarialGlobal(n) => format!("ADVG+{n}"),
            TrafficKind::AdversarialLocal(n) => format!("ADVL+{n}"),
            TrafficKind::Mixed {
                global_fraction,
                global_offset,
                local_offset,
            } => format!(
                "MIX{}%(ADVG+{global_offset}/ADVL+{local_offset})",
                (global_fraction * 100.0).round() as u32
            ),
            TrafficKind::Workload(spec) => spec.label(),
            TrafficKind::Churn(trace) => trace.label(),
        }
    }

    /// The workload specification, when this is [`TrafficKind::Workload`].
    pub fn workload(&self) -> Option<&WorkloadSpec> {
        match self {
            TrafficKind::Workload(spec) => Some(spec),
            _ => None,
        }
    }

    /// The job-arrival trace, when this is [`TrafficKind::Churn`].
    pub fn churn(&self) -> Option<&Trace> {
        match self {
            TrafficKind::Churn(trace) => Some(trace),
            _ => None,
        }
    }

    /// Whether this traffic kind produces per-job breakdowns
    /// ([`TrafficKind::Workload`] or [`TrafficKind::Churn`]).
    pub fn has_jobs(&self) -> bool {
        matches!(self, TrafficKind::Workload(_) | TrafficKind::Churn(_))
    }
}

/// Full specification of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Dragonfly parameter `h`.
    pub h: usize,
    /// Flow control / packet-size setup.
    pub flow_control: FlowControlKind,
    /// Routing mechanism.
    #[serde(skip, default = "default_routing")]
    pub routing: RoutingKind,
    /// Traffic pattern.
    pub traffic: TrafficKind,
    /// Offered load in phits/(node·cycle).
    pub offered_load: f64,
    /// Misrouting-trigger threshold for the adaptive mechanisms.
    pub threshold: f64,
    /// Random seed.
    pub seed: u64,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Extra drain cycles after the window.
    pub drain: u64,
}

// Referenced only by the `#[serde(default = "...")]` attribute above; the offline
// serde stand-in expands derives to nothing, leaving it unused in that build.
#[allow(dead_code)]
fn default_routing() -> RoutingKind {
    RoutingKind::Minimal
}

impl ExperimentSpec {
    /// A reasonable default specification for the given scale.
    pub fn new(h: usize) -> Self {
        Self {
            h,
            flow_control: FlowControlKind::Vct,
            routing: RoutingKind::Minimal,
            traffic: TrafficKind::Uniform,
            offered_load: 0.1,
            threshold: 0.45,
            seed: 1,
            warmup: 5_000,
            measure: 8_000,
            drain: 8_000,
        }
    }

    /// Short human-readable label for this point (progress lines, file names):
    /// routing, flow control, traffic and offered load.
    pub fn label(&self) -> String {
        format!(
            "{} {} {} @{:.2}",
            self.routing.name(),
            self.flow_control.name(),
            self.traffic.name(),
            self.offered_load
        )
    }

    /// Build the simulator configuration implied by this specification.
    pub fn sim_config(&self) -> SimConfig {
        let base = match self.flow_control {
            FlowControlKind::Vct => SimConfig::paper_vct(self.h),
            FlowControlKind::Wormhole => SimConfig::paper_wormhole(self.h),
        };
        base.with_local_vcs(self.routing.local_vcs())
            .with_seed(self.seed)
    }

    /// Build the type-erased simulation (network + boxed routing + traffic) for this
    /// specification.  Kept for custom experiments that need to own a `Simulation`
    /// without naming the mechanism type; the `run*` methods below use the
    /// monomorphized engine instead.  A workload traffic kind is fully installed
    /// (patterns, injection rates and per-job statistics).
    pub fn build_simulation(&self) -> Simulation {
        let routing = self
            .routing
            .build_with(AdaptiveParams::with_threshold(self.threshold));
        build_with_routing(self, routing)
    }

    /// Run this spec with the given options: the protocol its traffic
    /// implies — the trace protocol for [`TrafficKind::Churn`] (with `measure`
    /// as the horizon), the workload protocol for [`TrafficKind::Workload`],
    /// the steady-state protocol otherwise, with an empty `jobs` list — on the
    /// chosen engine, monomorphized over the concrete routing mechanism.
    ///
    /// The engine and the probes never change the report: the sharded engine
    /// is byte-identical to the sequential one (`tests/shard_equivalence.rs`)
    /// and probes are read-only (`tests/probe_invariance.rs`).  With probes
    /// the outcome carries the recorder — on the sharded engine the
    /// order-independently merged one.
    pub fn execute(&self, options: &RunOptions) -> RunOutcome<WorkloadReport> {
        let (warmup, measure, drain) = (self.warmup, self.measure, self.drain);
        if self.traffic.churn().is_some() {
            self.dispatch(options, TraceRun::new(measure, drain))
        } else {
            // A workload reports its own nominal load.
            let load = self
                .traffic
                .workload()
                .is_none()
                .then_some(self.offered_load);
            self.dispatch(options, SteadyStateRun::new(load, warmup, measure, drain))
        }
    }

    /// Run the burst-consumption protocol: `packets_per_node` packets per
    /// node, with a safety limit of `max_cycles` (see [`ExperimentSpec::execute`]
    /// for the options).
    pub fn execute_batch(
        &self,
        packets_per_node: u64,
        max_cycles: u64,
        options: &RunOptions,
    ) -> RunOutcome<BatchReport> {
        let burst = BurstSpec::new(packets_per_node, self.flow_control.packet_size());
        self.dispatch(options, BatchRun::new(burst, max_cycles))
    }

    fn dispatch<P: Protocol>(&self, options: &RunOptions, protocol: P) -> RunOutcome<P::Report> {
        self.routing.dispatch(
            AdaptiveParams::with_threshold(self.threshold),
            Execute {
                spec: self,
                options,
                protocol,
            },
        )
    }

    /// The steady-state report of [`ExperimentSpec::execute`] on the
    /// sequential engine; for workload and churn traffic, the aggregate half
    /// of [`ExperimentSpec::run_workload`].
    pub fn run(&self) -> SimReport {
        self.execute(&RunOptions::default()).report.aggregate
    }

    /// [`ExperimentSpec::execute`] on the sequential engine for a workload or
    /// churn spec: the per-job (and, for static workloads, per-phase)
    /// breakdown alongside the aggregate report.
    ///
    /// # Panics
    ///
    /// Panics when the traffic kind is neither [`TrafficKind::Workload`] nor
    /// [`TrafficKind::Churn`].
    pub fn run_workload(&self) -> WorkloadReport {
        assert!(
            self.traffic.has_jobs(),
            "run_workload requires TrafficKind::Workload or TrafficKind::Churn traffic"
        );
        self.execute(&RunOptions::default()).report
    }

    /// [`ExperimentSpec::run`] on the sharded engine with `shards` per-group
    /// partitions (see `dragonfly_shard`); byte-identical, only wall-clock
    /// time changes.
    pub fn run_sharded(&self, shards: usize) -> SimReport {
        self.execute(&RunOptions::sharded(shards)).report.aggregate
    }

    /// Preallocated hot-path storage of this spec's simulation on the
    /// sharded engine, summed over its `shards` partitions (see
    /// `Network::storage_footprint`).  Builds the simulation without running
    /// it; one shard owns every group and matches the sequential engine.
    pub fn sharded_storage_footprint(&self, shards: usize) -> StorageFootprint {
        self.routing.dispatch(
            AdaptiveParams::with_threshold(self.threshold),
            ShardedFootprint { spec: self, shards },
        )
    }

    /// Build the [`RunManifest`] describing this spec, with zeroed peak
    /// telemetry.  Use [`ExperimentSpec::manifest_with_report`] when a
    /// [`SimReport`] is at hand.
    pub fn manifest(&self, title: &str) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            title: title.to_string(),
            h: self.h as u64,
            routing: self.routing.name().to_string(),
            flow_control: self.flow_control.name().to_string(),
            traffic: self.traffic.name(),
            offered_load: self.offered_load,
            threshold: self.threshold,
            seed: self.seed,
            warmup: self.warmup,
            measure: self.measure,
            drain: self.drain,
            peak_in_flight_packets: 0,
            peak_buffered_phits: 0,
            peak_vc_occupancy: 0,
        }
    }

    /// [`ExperimentSpec::manifest`] with the peak-telemetry section filled
    /// from a run's report.
    pub fn manifest_with_report(&self, title: &str, report: &SimReport) -> RunManifest {
        RunManifest {
            peak_in_flight_packets: report.peak_in_flight_packets,
            peak_buffered_phits: report.peak_buffered_phits,
            peak_vc_occupancy: report.peak_vc_occupancy,
            ..self.manifest(title)
        }
    }
}

/// Build the monomorphized simulation for a spec, installing any workload or
/// churn schedule.
fn build_with_routing<R: RoutingAlgorithm + 'static>(
    spec: &ExperimentSpec,
    routing: R,
) -> Simulation<R> {
    let config = spec.sim_config();
    let params = config.params;
    if let Some(workload) = spec.traffic.workload() {
        // install_workload compiles both the pattern and the runtime from one
        // placement, so the construction-time pattern is a throwaway.
        let mut sim = Simulation::with_routing(config, routing, Box::new(Uniform::new()));
        sim.install_workload(workload);
        sim
    } else if let Some(trace) = spec.traffic.churn() {
        // The schedule owns its destination side; the pattern is a throwaway too.
        let mut sim = Simulation::with_routing(config, routing, Box::new(Uniform::new()));
        sim.install_schedule(trace);
        sim
    } else {
        Simulation::with_routing(config, routing, spec.traffic.build(&params))
    }
}

/// Build the sharded simulation for a spec, installing any workload or churn
/// schedule into every shard replica (the sharded sibling of
/// [`build_with_routing`]).
fn build_sharded_with_routing<R: RoutingAlgorithm + Clone>(
    spec: &ExperimentSpec,
    routing: R,
    shards: usize,
) -> dragonfly_shard::ShardedSimulation<R> {
    use dragonfly_shard::{ShardPlan, ShardedSimulation};
    let config = spec.sim_config();
    let params = config.params;
    let plan = ShardPlan::new(shards);
    if let Some(workload) = spec.traffic.workload() {
        let mut sim = ShardedSimulation::new(config, plan, routing, || Box::new(Uniform::new()));
        sim.install_workload(workload);
        sim
    } else if let Some(trace) = spec.traffic.churn() {
        let mut sim = ShardedSimulation::new(config, plan, routing, || Box::new(Uniform::new()));
        sim.install_schedule(trace);
        sim
    } else {
        ShardedSimulation::new(config, plan, routing, || spec.traffic.build(&params))
    }
}

/// Visitor building the sharded engine to read its storage footprint.
struct ShardedFootprint<'a> {
    spec: &'a ExperimentSpec,
    shards: usize,
}

impl RoutingVisitor for ShardedFootprint<'_> {
    type Output = StorageFootprint;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> StorageFootprint {
        build_sharded_with_routing(self.spec, routing, self.shards).storage_footprint()
    }
}

/// Which engine runs an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The sequential engine, monomorphized over the routing mechanism.
    #[default]
    Sequential,
    /// The sharded engine with the given number of per-group partitions
    /// (`1` still uses the partitioned engine, with a single worker).
    Sharded(usize),
}

/// How to run an experiment: the engine and the optional probes.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// The engine to run on.
    pub engine: Engine,
    /// Observability probes to install, if any.
    pub probes: Option<ProbeConfig>,
}

impl RunOptions {
    /// The sharded engine with `shards` partitions, no probes.
    pub fn sharded(shards: usize) -> Self {
        Self {
            engine: Engine::Sharded(shards),
            probes: None,
        }
    }

    /// These options with `probes` installed.
    pub fn with_probes(mut self, probes: ProbeConfig) -> Self {
        self.probes = Some(probes);
        self
    }
}

/// The result of one run: the report, plus the probe recorder when the run
/// had probes installed.
#[derive(Debug, Clone)]
pub struct RunOutcome<T> {
    /// The run's report.
    pub report: T,
    /// The probe recorder (merged across shards on the sharded engine).
    pub probe: Option<ProbeRecorder>,
}

impl<T> RunOutcome<T> {
    /// The reports of a sweep's outcomes, in order, without the recorders.
    pub fn reports(outcomes: Vec<Self>) -> Vec<T> {
        outcomes.into_iter().map(|outcome| outcome.report).collect()
    }
}

/// The one run visitor: builds the spec's simulation on the chosen engine,
/// installs the probes and runs the protocol.
struct Execute<'a, P> {
    spec: &'a ExperimentSpec,
    options: &'a RunOptions,
    protocol: P,
}

impl<P: Protocol> RoutingVisitor for Execute<'_, P> {
    type Output = RunOutcome<P::Report>;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Self::Output {
        let Self {
            spec,
            options,
            protocol,
        } = self;
        match options.engine {
            Engine::Sequential => {
                let mut sim = build_with_routing(spec, routing);
                if let Some(probes) = &options.probes {
                    sim.install_probes(probes.clone());
                }
                let report = sim.run_protocol(protocol);
                let probe = sim.take_probe().map(|probe| *probe);
                RunOutcome { report, probe }
            }
            Engine::Sharded(shards) => {
                let mut sim = build_sharded_with_routing(spec, routing, shards);
                if let Some(probes) = &options.probes {
                    sim.install_probes(probes.clone());
                }
                let report = sim.run_protocol(protocol);
                RunOutcome {
                    report,
                    probe: sim.merged_probe(),
                }
            }
        }
    }
}

/// Fluent builder over [`ExperimentSpec`] for one-off runs and examples.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    spec: ExperimentSpec,
}

impl ExperimentBuilder {
    /// Start from the defaults for parameter `h`.
    pub fn new(h: usize) -> Self {
        Self {
            spec: ExperimentSpec::new(h),
        }
    }

    /// Select the routing mechanism.
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.spec.routing = routing;
        self
    }

    /// Select the traffic pattern.
    pub fn traffic(mut self, traffic: TrafficKind) -> Self {
        self.spec.traffic = traffic;
        self
    }

    /// Select the flow control.
    pub fn flow_control(mut self, fc: FlowControlKind) -> Self {
        self.spec.flow_control = fc;
        self
    }

    /// Set the offered load in phits/(node·cycle).
    pub fn offered_load(mut self, load: f64) -> Self {
        self.spec.offered_load = load;
        self
    }

    /// Set the misrouting threshold.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.spec.threshold = threshold;
        self
    }

    /// Set the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Set the warm-up length in cycles.
    pub fn warmup_cycles(mut self, cycles: u64) -> Self {
        self.spec.warmup = cycles;
        self
    }

    /// Set the measurement window length in cycles.
    pub fn measure_cycles(mut self, cycles: u64) -> Self {
        self.spec.measure = cycles;
        self.spec.drain = cycles;
        self
    }

    /// The underlying specification.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Consume the builder into its specification.
    pub fn into_spec(self) -> ExperimentSpec {
        self.spec
    }

    /// Run the steady-state experiment.
    pub fn run(self) -> SimReport {
        self.spec.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_control_kind_metadata() {
        assert_eq!(FlowControlKind::Vct.name(), "VCT");
        assert_eq!(FlowControlKind::Wormhole.name(), "WH");
        assert_eq!(FlowControlKind::Vct.packet_size(), 8);
        assert_eq!(FlowControlKind::Wormhole.packet_size(), 80);
    }

    #[test]
    fn traffic_kind_names() {
        assert_eq!(TrafficKind::Uniform.name(), "UN");
        assert_eq!(TrafficKind::AdversarialGlobal(8).name(), "ADVG+8");
        assert_eq!(TrafficKind::AdversarialLocal(1).name(), "ADVL+1");
        assert_eq!(TrafficKind::advg_h(4), TrafficKind::AdversarialGlobal(4));
        let mix = TrafficKind::Mixed {
            global_fraction: 0.4,
            global_offset: 8,
            local_offset: 1,
        };
        assert!(mix.name().starts_with("MIX40%"));
    }

    #[test]
    fn spec_config_respects_routing_vcs() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Par62;
        assert_eq!(spec.sim_config().local_vcs, 6);
        spec.routing = RoutingKind::Olm;
        assert_eq!(spec.sim_config().local_vcs, 3);
        spec.flow_control = FlowControlKind::Wormhole;
        assert_eq!(spec.sim_config().packet_size, 80);
    }

    #[test]
    fn builder_round_trip() {
        let builder = ExperimentBuilder::new(2)
            .routing(RoutingKind::Olm)
            .traffic(TrafficKind::AdversarialGlobal(1))
            .flow_control(FlowControlKind::Vct)
            .offered_load(0.25)
            .threshold(0.5)
            .seed(77)
            .warmup_cycles(500)
            .measure_cycles(800);
        let spec = builder.spec();
        assert_eq!(spec.routing, RoutingKind::Olm);
        assert_eq!(spec.offered_load, 0.25);
        assert_eq!(spec.threshold, 0.5);
        assert_eq!(spec.seed, 77);
        assert_eq!(spec.warmup, 500);
        assert_eq!(spec.measure, 800);
        assert_eq!(spec.drain, 800);
        let spec = builder.into_spec();
        assert_eq!(spec.traffic, TrafficKind::AdversarialGlobal(1));
    }

    #[test]
    fn builder_runs_small_experiment() {
        let report = ExperimentBuilder::new(2)
            .routing(RoutingKind::Olm)
            .traffic(TrafficKind::Uniform)
            .offered_load(0.15)
            .warmup_cycles(800)
            .measure_cycles(1_500)
            .run();
        assert!(!report.deadlock_detected);
        assert!(report.accepted_load > 0.05);
        assert_eq!(report.routing, "OLM");
    }

    #[test]
    fn workload_traffic_kind_builds_and_runs() {
        use dragonfly_workload::WorkloadSpec;
        let workload = WorkloadSpec::interference(72, 1, 0.4, 0.1);
        let kind = TrafficKind::Workload(workload.clone());
        assert!(kind.name().starts_with("WL[aggressor:ADVG+1@0.40"));
        assert_eq!(kind.workload(), Some(&workload));
        assert!(TrafficKind::Uniform.workload().is_none());

        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = kind;
        spec.warmup = 500;
        spec.measure = 1_000;
        spec.drain = 1_500;
        let report = spec.run_workload();
        assert_eq!(report.jobs.len(), 2);
        assert!(!report.aggregate.deadlock_detected);
        assert_eq!(report.aggregate.traffic, spec.traffic.name());
        // The aggregate-only entry point agrees with the workload run's aggregate.
        assert_eq!(spec.run(), report.aggregate);
    }

    #[test]
    #[should_panic(expected = "requires TrafficKind::Workload")]
    fn run_workload_rejects_plain_traffic() {
        let spec = ExperimentSpec::new(2);
        let _ = spec.run_workload();
    }

    #[test]
    fn churn_traffic_kind_builds_and_runs() {
        use dragonfly_sched::{Completion, Trace, TraceJob};
        use dragonfly_workload::{JobPattern, PlacementPolicy};
        let trace = Trace::new(
            "mini",
            vec![
                TraceJob {
                    name: "a".into(),
                    arrival: 0,
                    size: 24,
                    placement: PlacementPolicy::Contiguous,
                    pattern: JobPattern::AllToAll,
                    offered_load: 0.15,
                    completion: Completion::Duration(1_500),
                },
                TraceJob {
                    name: "b".into(),
                    arrival: 700,
                    size: 24,
                    placement: PlacementPolicy::Random { seed: 5 },
                    pattern: JobPattern::Uniform,
                    offered_load: 0.1,
                    completion: Completion::Duration(1_000),
                },
            ],
        );
        let kind = TrafficKind::Churn(trace.clone());
        assert_eq!(kind.name(), "CHURN[mini:2jobs]");
        assert_eq!(kind.churn(), Some(&trace));
        assert!(kind.has_jobs());
        assert!(TrafficKind::Uniform.churn().is_none());

        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = kind;
        spec.measure = 6_000; // the horizon of a churn run
        spec.drain = 2_000;
        let report = spec.run_workload();
        assert_eq!(report.jobs.len(), 2);
        assert!(!report.aggregate.deadlock_detected);
        assert_eq!(report.aggregate.traffic, spec.traffic.name());
        let b = report.job("b").unwrap().lifecycle.unwrap();
        assert_eq!(b.arrival_cycle, 700);
        assert_eq!(b.placed_cycle, Some(700));
        // Static and dyn paths agree, and run() returns the same aggregate.
        let mut sim = spec.build_simulation();
        assert_eq!(sim.run_trace(spec.measure, spec.drain), report);
        assert_eq!(spec.run(), report.aggregate);
    }

    #[test]
    fn spec_labels_are_short_and_informative() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = TrafficKind::AdversarialGlobal(1);
        spec.offered_load = 0.25;
        assert_eq!(spec.label(), "OLM VCT ADVG+1 @0.25");
    }

    #[test]
    fn probed_runs_match_unprobed_and_sharded_probes_merge_exactly() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Piggybacking;
        spec.traffic = TrafficKind::AdversarialGlobal(1);
        spec.offered_load = 0.25;
        spec.warmup = 300;
        spec.measure = 600;
        spec.drain = 900;
        spec.seed = 23;

        let plain = spec.run();
        let probed = spec.execute(&RunOptions::default().with_probes(ProbeConfig::full(32)));
        let probe = probed.probe.unwrap();
        assert_eq!(
            probed.report.aggregate, plain,
            "probes must not perturb the run"
        );
        assert!(probe.samples() > 0);

        let sharded = spec.execute(&RunOptions::sharded(3).with_probes(ProbeConfig::full(32)));
        let sharded_probe = sharded.probe.unwrap();
        assert_eq!(sharded.report.aggregate, plain);
        assert_eq!(sharded_probe.samples(), probe.samples());
        assert_eq!(
            sharded_probe.series().injected.samples(),
            probe.series().injected.samples()
        );
        assert_eq!(sharded_probe.sorted_flight(), probe.sorted_flight());
    }

    #[test]
    fn workload_probed_run_matches_unprobed() {
        use dragonfly_workload::WorkloadSpec;
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = TrafficKind::Workload(WorkloadSpec::interference(72, 1, 0.4, 0.1));
        spec.warmup = 300;
        spec.measure = 600;
        spec.drain = 900;
        let plain = spec.run_workload();
        let probed = spec.execute(&RunOptions::default().with_probes(ProbeConfig::default()));
        let probe = probed.probe.unwrap();
        assert_eq!(probed.report, plain);
        assert!(probe.samples() > 0);
        let sharded = spec.execute(&RunOptions::sharded(3).with_probes(ProbeConfig::default()));
        let sharded_probe = sharded.probe.unwrap();
        assert_eq!(sharded.report, plain);
        assert_eq!(
            sharded_probe.series().delivered.samples(),
            probe.series().delivered.samples()
        );
    }

    #[test]
    fn batch_run_through_spec() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Rlm;
        spec.traffic = TrafficKind::Mixed {
            global_fraction: 0.5,
            global_offset: 2,
            local_offset: 1,
        };
        let report = spec
            .execute_batch(3, 100_000, &RunOptions::default())
            .report;
        assert!(!report.deadlock_detected);
        assert!(!report.timed_out);
        assert_eq!(report.packets_delivered, report.packets_total);
    }
}
