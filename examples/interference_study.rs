//! Workload interference study: an adversarial aggressor job against a uniform
//! victim job sharing every router of the machine.
//!
//! ```text
//! cargo run --release --example interference_study
//! ```
//!
//! Half of the nodes run ADVG+1 at high load (the *aggressor*), the other half run
//! job-uniform traffic at low load (the *victim*); both jobs are placed round-robin
//! over the routers, so they share local and global channels.  Under minimal routing
//! the aggressor saturates one global channel per group and victim packets queue
//! behind it; adaptive mechanisms (PB, OLM) divert around the hot channels and
//! shield the victim.  The per-job breakdown quantifies exactly that.

use dragonfly::core::{
    ExperimentSpec, RoutingKind, RunOutcome, SweepRunner, TrafficKind, WorkloadSpec,
};

fn main() {
    let h = 2;
    let aggressor_load = 0.24;
    let victim_load = 0.1;

    // Baseline: the victim's load on an otherwise idle machine (no aggressor).
    let mut spec = ExperimentSpec::new(h);
    spec.traffic = TrafficKind::Uniform;
    spec.offered_load = victim_load;
    spec.seed = 9;
    spec.warmup = 3_000;
    spec.measure = 5_000;
    spec.drain = 6_000;
    let alone = spec.run();
    println!(
        "victim-style UN traffic alone: {:.1} cycles avg latency (p99 {:.1})\n",
        alone.avg_latency_cycles, alone.p99_latency_cycles
    );

    let workload = WorkloadSpec::interference(
        spec.sim_config().params.num_nodes(),
        1,
        aggressor_load,
        victim_load,
    );
    println!("workload: {}\n", workload.label());
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "routing", "victim avg", "victim p99", "victim load", "aggr load", "aggr p99"
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
    let reports = RunOutcome::reports(SweepRunner::new("interference study").quiet().run(&specs));
    for report in &reports {
        let victim = report.job("victim").expect("victim job");
        let aggressor = report.job("aggressor").expect("aggressor job");
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>12.4} {:>12.4} {:>10.1}",
            report.aggregate.routing,
            victim.avg_latency_cycles,
            victim.p99_latency_cycles,
            victim.accepted_load,
            aggressor.accepted_load,
            aggressor.p99_latency_cycles,
        );
        assert!(!report.aggregate.deadlock_detected);
    }

    println!(
        "\nReading: under Minimal the victim's latency is far above its solo baseline;\n\
         PB and OLM pull it back down while also accepting more aggressor traffic."
    );
}
