//! The untraced leg: one point through the entry points production sweeps
//! use — `RoutingKind::dispatch` into `Simulation<R>` or
//! `ShardedSimulation<R>` and their own run protocols — timed from outside
//! around build, cycle loop and report/emit.

use std::path::Path;
use std::time::Instant;

use dragonfly_core::{
    AdaptiveParams, ExperimentSpec, RunManifest, ShardPlan, ShardedSimulation, WorkloadReport,
};
use dragonfly_routing::RoutingVisitor;
use dragonfly_sim::{RoutingAlgorithm, Simulation};
use dragonfly_topology::DragonflyParams;
use dragonfly_traffic::{TrafficPattern, Uniform};

use crate::workloads::Point;

/// Host-time and simulated outcome of one point.
pub struct PointRun {
    /// The simulated report as CSV rows: the aggregate row, then one row per
    /// job for churn points.
    pub rows: Vec<String>,
    pub report: WorkloadReport,
    /// Simulated cycles advanced, drain included.
    pub cycles: u64,
    /// Packets generated and delivered over the whole run.
    pub generated: u64,
    pub delivered: u64,
    pub setup_s: f64,
    pub loop_s: f64,
    /// Build through report/emit and teardown.
    pub run_s: f64,
    /// Set when the emitted manifest failed to read back (probed points).
    pub manifest_error: Option<String>,
    /// Per-shard `(phase-profile ns, barrier-wait ns)` (traced build only).
    pub shard_profile: Vec<(u64, u64)>,
}

/// The destination side a point's network is built with.  Churn schedules
/// own their destinations, so their construction-time pattern is a
/// throwaway, exactly as in `ExperimentSpec::run_workload`.
pub fn pattern(spec: &ExperimentSpec) -> Box<dyn TrafficPattern> {
    match spec.traffic.churn() {
        Some(_) => Box::new(Uniform::new()),
        None => spec.traffic.build(&DragonflyParams::new(spec.h)),
    }
}

/// Build the sequential simulation of a point with its schedule and probes
/// installed, as `ExperimentSpec::run_workload` and `run_probed` do; also
/// returns the nanoseconds the probe install took.
pub fn build<R: RoutingAlgorithm>(
    point: &Point,
    routing: R,
    traffic: Box<dyn TrafficPattern>,
) -> (Simulation<R>, u64) {
    let spec = &point.spec;
    let mut sim = Simulation::with_routing(spec.sim_config(), routing, traffic);
    if let Some(trace) = spec.traffic.churn() {
        sim.install_schedule(trace);
    }
    let start = Instant::now();
    if let Some(cfg) = &point.probes {
        sim.install_probes(cfg.clone());
    }
    (sim, start.elapsed().as_nanos() as u64)
}

/// Build the sharded simulation of a spec, as `ExperimentSpec::run_sharded`
/// does.
fn build_sharded<R: RoutingAlgorithm + Clone>(
    spec: &ExperimentSpec,
    routing: R,
    shards: usize,
) -> ShardedSimulation<R> {
    let config = spec.sim_config();
    let params = config.params;
    ShardedSimulation::new(config, ShardPlan::new(shards), routing, || {
        spec.traffic.build(&params)
    })
}

/// Rows of a report, in the form the reference files hold.
pub fn rows(report: &WorkloadReport) -> Vec<String> {
    let mut rows = vec![report.aggregate.csv_row()];
    rows.extend(report.job_csv_rows());
    rows
}

/// Adaptive parameters of a spec, as `ExperimentSpec::run` passes them.
pub fn adaptive(spec: &ExperimentSpec) -> AdaptiveParams {
    AdaptiveParams::with_threshold(spec.threshold)
}

/// Set up a point's simulation and drop it: the set-up time alone.
pub fn setup_only(point: &Point) -> f64 {
    struct SetupOnly<'a>(&'a Point);
    impl RoutingVisitor for SetupOnly<'_> {
        type Output = f64;
        fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> f64 {
            let (point, spec) = (self.0, &self.0.spec);
            let start = Instant::now();
            match point.shards {
                Some(shards) => {
                    let sim = build_sharded(spec, routing, shards);
                    let setup = start.elapsed().as_secs_f64();
                    drop(std::hint::black_box(sim));
                    setup
                }
                None => {
                    let (sim, _) = build(point, routing, pattern(spec));
                    let setup = start.elapsed().as_secs_f64();
                    drop(std::hint::black_box(sim));
                    setup
                }
            }
        }
    }
    point
        .spec
        .routing
        .dispatch(adaptive(&point.spec), SetupOnly(point))
}

/// Run one point on the production path; probe files go to `out`.
pub fn run(point: &Point, out: &Path) -> PointRun {
    point
        .spec
        .routing
        .dispatch(adaptive(&point.spec), Production { point, out })
}

struct Production<'a> {
    point: &'a Point,
    out: &'a Path,
}

impl RoutingVisitor for Production<'_> {
    type Output = PointRun;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> PointRun {
        match self.point.shards {
            Some(shards) => run_sharded(&self.point.spec, routing, shards),
            None => run_sequential(self.point, routing, self.out),
        }
    }
}

fn run_sequential<R: RoutingAlgorithm>(point: &Point, routing: R, out: &Path) -> PointRun {
    let spec = &point.spec;
    let start = Instant::now();
    let (mut sim, _) = build(point, routing, pattern(spec));
    let built = Instant::now();
    let report = if point.is_churn() {
        sim.run_trace(spec.measure, spec.drain)
    } else {
        let aggregate =
            sim.run_steady_state(spec.offered_load, spec.warmup, spec.measure, spec.drain);
        WorkloadReport {
            aggregate,
            jobs: Vec::new(),
        }
    };
    let looped = Instant::now();
    let net = sim.network();
    let (cycles, generated, delivered) = (
        net.cycle,
        net.stats.total_generated,
        net.stats.total_delivered,
    );
    let mut emitted = None;
    if let Some(probe) = sim.take_probe() {
        let prefix = point.slug();
        let manifest = spec.manifest_with_report(&prefix, &report.aggregate);
        let written = probe
            .write_all_with_manifest(out, &prefix, &manifest)
            .expect("cannot write the probe file set");
        emitted = Some((manifest, written));
    }
    let rows = rows(&report);
    drop(sim);
    let end = Instant::now();
    PointRun {
        rows,
        report,
        cycles,
        generated,
        delivered,
        setup_s: (built - start).as_secs_f64(),
        loop_s: (looped - built).as_secs_f64(),
        run_s: (end - start).as_secs_f64(),
        manifest_error: emitted.and_then(|(manifest, written)| check_manifest(&manifest, &written)),
        shard_profile: Vec::new(),
    }
}

/// Read the emitted manifest back with the probe crate's reader; it must
/// reproduce what was written and list every other file.
pub fn check_manifest(written: &RunManifest, files: &[std::path::PathBuf]) -> Option<String> {
    let path = files.last()?;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return Some(format!("{}: {e}", path.display())),
    };
    match RunManifest::from_json(&text) {
        None => Some(format!(
            "{} does not parse as a run manifest",
            path.display()
        )),
        Some((manifest, _, _)) if manifest != *written => {
            Some(format!("{} reads back different fields", path.display()))
        }
        Some((_, _, listed)) if listed.len() + 1 != files.len() => Some(format!(
            "{} lists {} files, {} were written",
            path.display(),
            listed.len(),
            files.len() - 1
        )),
        Some(_) => None,
    }
}

fn run_sharded<R: RoutingAlgorithm + Clone>(
    spec: &ExperimentSpec,
    routing: R,
    shards: usize,
) -> PointRun {
    let start = Instant::now();
    let mut sim = build_sharded(spec, routing, shards);
    let built = Instant::now();
    let aggregate = sim.run_steady_state(spec.offered_load, spec.warmup, spec.measure, spec.drain);
    let looped = Instant::now();
    let cycles = sim.network(0).cycle;
    let (mut generated, mut delivered) = (0, 0);
    for s in 0..shards {
        generated += sim.network(s).stats.total_generated;
        delivered += sim.network(s).stats.total_delivered;
    }
    #[cfg(feature = "trace")]
    let shard_profile = (0..shards)
        .map(|s| {
            (
                sim.phase_profile(s).total_nanos(),
                sim.barrier_wait_nanos(s),
            )
        })
        .collect();
    #[cfg(not(feature = "trace"))]
    let shard_profile = Vec::new();
    let report = WorkloadReport {
        aggregate,
        jobs: Vec::new(),
    };
    let rows = rows(&report);
    drop(sim);
    let end = Instant::now();
    PointRun {
        rows,
        report,
        cycles,
        generated,
        delivered,
        setup_s: (built - start).as_secs_f64(),
        loop_s: (looped - built).as_secs_f64(),
        run_s: (end - start).as_secs_f64(),
        manifest_error: None,
        shard_profile,
    }
}
