//! Criterion ablation benchmark: misrouting-threshold sensitivity.
//!
//! The misrouting threshold is the one free parameter of RLM and OLM (Figures 10/11
//! of the paper).  This ablation measures the wall-clock time needed to consume a
//! small adversarial burst under different thresholds: a threshold that misroutes too
//! little leaves the burst serialized on the saturated minimal links and takes longer
//! to drain, which shows up directly in the measured time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dragonfly_core::{ExperimentSpec, RoutingKind, RunOptions, TrafficKind};
use std::time::Duration;

fn bench_threshold_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold_ablation_burst_drain");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(4));
    for &(kind, label) in &[(RoutingKind::Rlm, "rlm"), (RoutingKind::Olm, "olm")] {
        for &threshold in &[0.30, 0.45, 0.60] {
            let id = format!("{label}_th{}", (threshold * 100.0) as u32);
            group.bench_with_input(BenchmarkId::new("burst", id), &(), |b, _| {
                b.iter(|| {
                    let mut spec = ExperimentSpec::new(2);
                    spec.routing = kind;
                    spec.threshold = threshold;
                    spec.traffic = TrafficKind::Mixed {
                        global_fraction: 0.5,
                        global_offset: 2,
                        local_offset: 1,
                    };
                    spec.seed = 11;
                    spec.execute_batch(3, 500_000, &RunOptions::default())
                        .report
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_threshold_ablation);
criterion_main!(benches);
