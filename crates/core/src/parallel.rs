//! Parallel execution of independent simulations.
//!
//! Each simulation is single-threaded and deterministic; a sweep of tens of points is
//! embarrassingly parallel.  The executor uses scoped threads pulling job indices from
//! a shared atomic counter (a lock-free work queue over `0..jobs`), with a mutex-guarded
//! result buffer and a progress callback invoked after every finished run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use when the caller passes `None`.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Run `jobs` independent work items on scoped threads, preserving index order.
/// The executor behind [`crate::SweepRunner`].
pub(crate) fn run_indexed<T, F>(jobs: usize, threads: Option<usize>, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads
        .unwrap_or_else(default_threads)
        .clamp(1, jobs.max(1));
    let next_job = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next_job = &next_job;
            let results = &results;
            let work = &work;
            scope.spawn(move || loop {
                let index = next_job.fetch_add(1, Ordering::Relaxed);
                if index >= jobs {
                    break;
                }
                let value = work(index);
                results.lock().expect("result buffer poisoned")[index] = Some(value);
            });
        }
    });

    results
        .into_inner()
        .expect("result buffer poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job must produce a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentSpec, TrafficKind};
    use crate::SweepRunner;
    use dragonfly_routing::RoutingKind;

    fn quick_spec(routing: RoutingKind, load: f64, seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = routing;
        spec.traffic = TrafficKind::Uniform;
        spec.offered_load = load;
        spec.warmup = 500;
        spec.measure = 800;
        spec.drain = 800;
        spec.seed = seed;
        spec
    }

    #[test]
    fn parallel_preserves_order_and_counts_progress() {
        let calls = AtomicUsize::new(0);
        let squares = run_indexed(50, Some(4), |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i * i
        });
        assert_eq!(calls.load(Ordering::SeqCst), 50);
        assert_eq!(squares, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_results() {
        // Determinism: the same spec run in parallel or alone yields identical numbers.
        let spec = quick_spec(RoutingKind::Rlm, 0.2, 9);
        let alone = spec.run();
        let parallel = SweepRunner::new("t")
            .quiet()
            .jobs(Some(3))
            .run(&vec![spec.clone(); 3]);
        for outcome in &parallel {
            assert_eq!(outcome.report.aggregate, alone);
        }
    }

    #[test]
    fn single_thread_fallback_works() {
        assert_eq!(run_indexed(3, Some(1), |i| i + 1), vec![1, 2, 3]);
        assert!(run_indexed(0, Some(0), |i| i).is_empty());
    }

    #[test]
    fn workload_parallel_returns_breakdowns_in_order() {
        use dragonfly_workload::WorkloadSpec;
        let workload = WorkloadSpec::interference(72, 1, 0.3, 0.1);
        let specs: Vec<ExperimentSpec> = [RoutingKind::Minimal, RoutingKind::Olm]
            .into_iter()
            .map(|routing| {
                let mut spec = quick_spec(routing, 0.0, 5);
                spec.traffic = TrafficKind::Workload(workload.clone());
                spec
            })
            .collect();
        let outcomes = SweepRunner::new("t").quiet().jobs(Some(2)).run(&specs);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].report.aggregate.routing, "Minimal");
        assert_eq!(outcomes[1].report.aggregate.routing, "OLM");
        // Parallel execution matches a plain sequential call, per spec.
        assert_eq!(outcomes[1].report, specs[1].run_workload());
    }

    #[test]
    fn batch_parallel_runs() {
        let specs = vec![
            quick_spec(RoutingKind::Olm, 1.0, 5),
            quick_spec(RoutingKind::Rlm, 1.0, 6),
        ];
        let outcomes = SweepRunner::new("t")
            .quiet()
            .jobs(Some(2))
            .run_batches(&specs, 2, 100_000);
        assert_eq!(outcomes.len(), 2);
        for r in outcomes.iter().map(|o| &o.report) {
            assert!(!r.timed_out);
            assert_eq!(r.packets_total, r.packets_delivered);
        }
    }
}
