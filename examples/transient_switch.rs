//! Transient pattern-switch study: a single job flips from uniform traffic to
//! ADVG+h mid-run, and the per-phase breakdown shows how each routing mechanism
//! absorbs the change.
//!
//! ```text
//! cargo run --release --example transient_switch
//! ```
//!
//! Phase 0 drives UN at a load that is comfortable for every mechanism; at the
//! switch cycle the pattern becomes ADVG+h (the paper's pathological offset), which
//! saturates minimal routing but stays deliverable for the adaptive mechanisms.
//! Comparing the per-phase latencies of one run quantifies the transient cost.

use dragonfly::core::{
    ExperimentSpec, RoutingKind, RunOutcome, SweepRunner, TrafficKind, WorkloadSpec,
};

fn main() {
    let h = 2;
    let load = 0.25;
    let warmup = 2_000;
    let measure = 8_000;
    // Switch patterns in the middle of the measurement window.
    let switch_cycle = warmup + measure / 2;

    let mut spec = ExperimentSpec::new(h);
    spec.seed = 21;
    spec.warmup = warmup;
    spec.measure = measure;
    spec.drain = 10_000;

    let workload =
        WorkloadSpec::transient(spec.sim_config().params.num_nodes(), load, switch_cycle, h);
    println!(
        "workload: {} (switch at cycle {switch_cycle})\n",
        workload.label()
    );
    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "routing", "phase", "pattern", "inj load", "acc load", "avg lat", "p99"
    );

    let specs: Vec<ExperimentSpec> = [
        RoutingKind::Minimal,
        RoutingKind::Piggybacking,
        RoutingKind::Olm,
    ]
    .into_iter()
    .map(|routing| {
        let mut wspec = spec.clone();
        wspec.routing = routing;
        wspec.traffic = TrafficKind::Workload(workload.clone());
        wspec
    })
    .collect();
    // The three mechanism points are independent; run them in parallel.
    let reports = RunOutcome::reports(SweepRunner::new("transient switch").quiet().run(&specs));
    for report in &reports {
        let job = &report.jobs[0];
        for phase in &job.phases {
            println!(
                "{:<12} {:>6} {:>10} {:>12.4} {:>12.4} {:>12.1} {:>10.1}",
                report.aggregate.routing,
                phase.phase,
                phase.pattern,
                phase.injected_load,
                phase.accepted_load,
                phase.avg_latency_cycles,
                phase.p99_latency_cycles,
            );
        }
        assert!(!report.aggregate.deadlock_detected);
    }

    println!(
        "\nReading: every mechanism matches the offered load in the UN phase; after the\n\
         switch, minimal routing's ADVG phase collapses (accepted load pinned at the\n\
         single-channel bound, latency exploding) while the adaptive mechanisms keep\n\
         accepting most of the load at bounded latency."
    );
}
