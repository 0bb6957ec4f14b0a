//! Production-path self-test: on a small spec of each protocol, both legs of
//! the harness must report exactly what the library's own entry points
//! report (`ExperimentSpec::run`, `run_workload` and `run_sharded`).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dragonfly_core::{ExperimentSpec, RoutingKind, TrafficKind, WorkloadReport};
use dragonfly_sched::scenarios::fragmentation_trace;
use dragonfly_topology::DragonflyParams;

use crate::counting::Tally;
use crate::production::{self, rows};
use crate::traced;
use crate::workloads::Point;

fn expect(what: &str, harness: &[String], library: &[String]) -> Result<(), String> {
    if harness == library {
        Ok(())
    } else {
        Err(format!(
            "self-test {what}: harness reports {harness:?}, the library {library:?}"
        ))
    }
}

fn point(spec: &ExperimentSpec, shards: Option<usize>) -> Point {
    Point {
        spec: spec.clone(),
        shards,
        probes: None,
    }
}

/// Run the self-test.  It arms no probes, so nothing is written to `out`.
pub fn run(out: &Path) -> Result<(), String> {
    let tally = Arc::new(Tally::default());
    let mut steady = ExperimentSpec::new(2);
    steady.routing = RoutingKind::Olm;
    steady.traffic = TrafficKind::Uniform;
    steady.offered_load = 0.2;
    steady.seed = 7;
    (steady.warmup, steady.measure, steady.drain) = (200, 300, 300);
    let library = steady.run();
    let expected = rows(&WorkloadReport {
        aggregate: library.clone(),
        jobs: Vec::new(),
    });
    let harness = production::run(&point(&steady, None), out).rows;
    expect("steady state", &harness, &expected)?;
    let traced = traced::run(&point(&steady, None), Instant::now(), &tally, out);
    expect(
        "traced steady state",
        &[traced.report.csv_row()],
        &[library.csv_row()],
    )?;
    let sharded = production::run(&point(&steady, Some(2)), out).rows;
    expect(
        "sharded",
        &sharded,
        &rows(&WorkloadReport {
            aggregate: steady.run_sharded(2),
            jobs: Vec::new(),
        }),
    )?;

    let mut churn = ExperimentSpec::new(2);
    churn.routing = RoutingKind::Piggybacking;
    churn.seed = 7;
    let params = DragonflyParams::new(2);
    churn.traffic = TrafficKind::Churn(fragmentation_trace(&params, true, 0.5, 0.1, 250, 1_000, 7));
    (churn.measure, churn.drain) = (1_500, 500);
    let library = churn.run_workload();
    let harness = production::run(&point(&churn, None), out).rows;
    expect("trace protocol", &harness, &rows(&library))?;
    let traced = traced::run(&point(&churn, None), Instant::now(), &tally, out);
    expect(
        "traced trace protocol",
        &[traced.report.csv_row()],
        &[library.aggregate.csv_row()],
    )
}
