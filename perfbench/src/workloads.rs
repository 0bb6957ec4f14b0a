//! The benchmark's workloads: each a fixed list of points, where a point is an
//! experiment spec plus the engine it runs on and the probes it arms.
//!
//! The seed is the only input that varies between runs of one workload; it
//! feeds the simulator's master seed and, for the churn workload, the
//! placement draws of the fragmented trace.

use dragonfly_core::{ExperimentSpec, FlowControlKind, ProbeConfig, RoutingKind, TrafficKind};
use dragonfly_sched::scenarios::fragmentation_trace;
use dragonfly_topology::DragonflyParams;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "uniform_h8",
    "advgh_sat_h4",
    "churn_h4",
    "uniform_h6_shards2",
];

/// One simulation of a workload.
pub struct Point {
    pub spec: ExperimentSpec,
    /// Shard count of the sharded engine; `None` runs the sequential
    /// `Simulation<R>`.
    pub shards: Option<usize>,
    /// Probes armed for the whole run and written with a manifest after it.
    pub probes: Option<ProbeConfig>,
}

impl Point {
    /// True for churn points, which run the trace protocol.
    pub fn is_churn(&self) -> bool {
        self.spec.traffic.churn().is_some()
    }

    /// File-name-safe label, unique within a workload.
    pub fn slug(&self) -> String {
        let traffic = match self.spec.traffic.churn() {
            Some(trace) => trace.name.clone(),
            None => self.spec.traffic.name(),
        };
        format!("{}_{}", self.spec.routing.name(), traffic)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    }
}

fn steady(
    h: usize,
    traffic: TrafficKind,
    load: f64,
    seed: u64,
    windows: (u64, u64, u64),
) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(h);
    spec.flow_control = FlowControlKind::Vct;
    spec.routing = RoutingKind::Olm;
    spec.traffic = traffic;
    spec.offered_load = load;
    spec.seed = seed;
    (spec.warmup, spec.measure, spec.drain) = windows;
    spec
}

/// The points of `workload` for `seed`, or `None` for an unknown name.
pub fn points(workload: &str, seed: u64) -> Option<Vec<Point>> {
    let sequential = |spec| Point {
        spec,
        shards: None,
        probes: None,
    };
    Some(match workload {
        // The paper's machine (16 512 nodes): the only working set far larger
        // than the per-core caches.  The warm-up is long enough for the
        // accepted load to reach the offered 0.2.
        "uniform_h8" => vec![sequential(steady(
            8,
            TrafficKind::Uniform,
            0.2,
            seed,
            (600, 200, 400),
        ))],
        // About twice OLM's saturation load under ADVG+h: routing dominates the
        // cycle, source queues grow without bound, and every probe instrument
        // is armed and emitted.
        "advgh_sat_h4" => vec![Point {
            spec: steady(4, TrafficKind::advg_h(4), 0.5, seed, (800, 800, 400)),
            shards: None,
            probes: Some(ProbeConfig {
                delay: true,
                ..ProbeConfig::full_active(256)
            }),
        }],
        // The churn_sweep scenario: fillers pack the machine, churn at a
        // quarter of the run frees nodes, and an aggressor/victim pair lands on
        // an emptied machine (fresh) or in churn-made holes (frag).
        "churn_h4" => {
            let params = DragonflyParams::new(4);
            let run_cycles = 2_000;
            let mut points = Vec::new();
            for routing in [
                RoutingKind::Minimal,
                RoutingKind::Piggybacking,
                RoutingKind::Olm,
            ] {
                for fragmented in [false, true] {
                    let trace = fragmentation_trace(
                        &params,
                        fragmented,
                        0.5,
                        0.1,
                        run_cycles / 4,
                        run_cycles,
                        seed,
                    );
                    let mut spec = ExperimentSpec::new(4);
                    spec.routing = routing;
                    spec.traffic = TrafficKind::Churn(trace);
                    spec.seed = seed;
                    spec.measure = run_cycles + 1_000;
                    spec.drain = 1_000;
                    points.push(sequential(spec));
                }
            }
            points
        }
        // The only sharded workload: two shards, one per core of the reference
        // box, on a machine big enough for the cycle barrier to pay.
        "uniform_h6_shards2" => vec![Point {
            spec: steady(6, TrafficKind::Uniform, 0.2, seed, (400, 300, 300)),
            shards: Some(2),
            probes: None,
        }],
        _ => return None,
    })
}
