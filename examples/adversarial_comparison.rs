//! Adversarial-traffic comparison: the scenario that motivates the paper.
//!
//! ```text
//! cargo run --release --example adversarial_comparison
//! ```
//!
//! When every group sends all of its traffic to one other group (ADVG+N), the single
//! global link between the two groups saturates and minimal routing collapses to
//! `1/(2h²+1)` phits/(node·cycle).  Valiant routing fixes that but, for the ADVG+h
//! offset, it saturates one local link in every intermediate group and is capped near
//! `1/h`.  Only mechanisms with *local* misrouting (PAR-6/2, RLM, OLM) escape both
//! pathologies.  This example reproduces the comparison on a small network.

use dragonfly::core::{ExperimentSpec, FlowControlKind, RoutingKind, SweepRunner, TrafficKind};

fn main() {
    let h = 3;
    let offered = 0.6;
    let mechanisms = [
        RoutingKind::Minimal,
        RoutingKind::Valiant,
        RoutingKind::Piggybacking,
        RoutingKind::Par62,
        RoutingKind::Rlm,
        RoutingKind::Olm,
    ];
    for (label, traffic) in [
        (
            "ADVG+1 (mild adversarial-global)",
            TrafficKind::AdversarialGlobal(1),
        ),
        (
            "ADVG+h (pathological offset)",
            TrafficKind::AdversarialGlobal(h),
        ),
    ] {
        let specs: Vec<ExperimentSpec> = mechanisms
            .iter()
            .map(|&routing| {
                let mut spec = ExperimentSpec::new(h);
                spec.flow_control = FlowControlKind::Vct;
                spec.routing = routing;
                spec.traffic = traffic.clone();
                spec.offered_load = offered;
                spec.warmup = 3_000;
                spec.measure = 4_000;
                spec.drain = 4_000;
                spec.seed = 7;
                spec
            })
            .collect();
        let reports: Vec<_> = SweepRunner::new(label)
            .quiet()
            .run(&specs)
            .into_iter()
            .map(|outcome| outcome.report.aggregate)
            .collect();

        println!("\n=== {label}, offered load {offered} phits/(node*cycle), h = {h} ===");
        println!(
            "{:<10} {:>10} {:>12} {:>10} {:>10}",
            "routing", "accepted", "avg latency", "gmis%", "lmis%"
        );
        for r in &reports {
            println!(
                "{:<10} {:>10.3} {:>12.1} {:>9.1}% {:>9.1}%",
                r.routing,
                r.accepted_load,
                r.avg_latency_cycles,
                r.global_misroute_fraction * 100.0,
                r.local_misroute_fraction * 100.0
            );
        }
        let minimal = &reports[0];
        let best = reports
            .iter()
            .max_by(|a, b| a.accepted_load.total_cmp(&b.accepted_load))
            .unwrap();
        println!(
            "--> best mechanism: {} ({:.3} vs {:.3} for minimal routing, {:.1}x)",
            best.routing,
            best.accepted_load,
            minimal.accepted_load,
            best.accepted_load / minimal.accepted_load.max(1e-9)
        );
    }
}
