//! Misrouting-threshold tuning for RLM (the study behind Figures 10 and 11).
//!
//! ```text
//! cargo run --release --example threshold_tuning
//! ```
//!
//! The adaptive mechanisms misroute a packet when a non-minimal queue is emptier than
//! `threshold × occupancy(minimal queue)`.  A high threshold misroutes aggressively
//! (good under adversarial traffic, wasteful under uniform traffic); a low threshold
//! is conservative.  The example sweeps the threshold for RLM under both uniform and
//! adversarial traffic and prints the trade-off the paper resolves at 45 %.

use dragonfly::core::{ExperimentSpec, RoutingKind, SweepRunner, TrafficKind};

fn main() {
    let h = 3;
    let thresholds = [0.30, 0.40, 0.45, 0.50, 0.60];
    for (label, traffic, load) in [
        ("uniform traffic (UN)", TrafficKind::Uniform, 0.5),
        (
            "adversarial-global (ADVG+1)",
            TrafficKind::AdversarialGlobal(1),
            0.5,
        ),
    ] {
        let specs: Vec<ExperimentSpec> = thresholds
            .iter()
            .map(|&threshold| {
                let mut spec = ExperimentSpec::new(h);
                spec.routing = RoutingKind::Rlm;
                spec.traffic = traffic.clone();
                spec.offered_load = load;
                spec.threshold = threshold;
                spec.warmup = 3_000;
                spec.measure = 4_000;
                spec.drain = 4_000;
                spec.seed = 11;
                spec
            })
            .collect();
        let reports: Vec<_> = SweepRunner::new(label)
            .quiet()
            .run(&specs)
            .into_iter()
            .map(|outcome| outcome.report.aggregate)
            .collect();

        println!("\n=== RLM threshold sweep under {label}, offered load {load} ===");
        println!(
            "{:<10} {:>10} {:>14} {:>10}",
            "threshold", "accepted", "avg latency", "misroutes"
        );
        for (t, r) in thresholds.iter().zip(reports.iter()) {
            println!(
                "{:<10.2} {:>10.3} {:>14.1} {:>9.1}%",
                t,
                r.accepted_load,
                r.avg_latency_cycles,
                (r.global_misroute_fraction + r.local_misroute_fraction) * 100.0
            );
        }
    }
    println!("\nThe paper selects a 45% threshold as the trade-off between the two patterns.");
}
