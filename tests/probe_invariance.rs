//! The probe subsystem's cardinal invariants:
//!
//! 1. **Read-only** — installing probes never perturbs a run.  Every field of
//!    every report is byte-identical with probes on and off, for every routing
//!    mechanism × flow control combination and for the workload/churn
//!    protocols (probes share no state with routing, consume no RNG, and only
//!    read what the cycle loop already computed).
//! 2. **Shard-invariant output** — the probe files a sharded run emits are
//!    byte-identical to the sequential run's, independent of the shard count.
//!    Every counter is attributed to exactly one owner router/link, the
//!    flight sample is a pure hash of `(source, generation cycle)`, and
//!    emission sorts flight events into a canonical order.  The one documented
//!    exception is the diagnostics series (`*_diag.csv`): arena growth and
//!    ring high-water marks are genuinely engine-dependent.

use dragonfly::core::{
    Completion, ExperimentSpec, FlowControlKind, JobPattern, PlacementPolicy, ProbeConfig,
    ProbeRecorder, RoutingKind, RunOptions, SimReport, Trace, TraceJob, TrafficKind,
    WorkloadReport, WorkloadSpec,
};
use dragonfly::probe::DelayLedger;
use std::path::{Path, PathBuf};

/// `spec` run with `probes` on `options`' engine: the full report and the
/// (merged, on the sharded engine) recorder.
fn probed_jobs(
    spec: &ExperimentSpec,
    probes: ProbeConfig,
    options: RunOptions,
) -> (WorkloadReport, ProbeRecorder) {
    let outcome = spec.execute(&options.with_probes(probes));
    let probe = outcome.probe.expect("probes were installed");
    (outcome.report, probe)
}

/// [`probed_jobs`] reduced to the aggregate report.
fn probed(
    spec: &ExperimentSpec,
    probes: ProbeConfig,
    options: RunOptions,
) -> (SimReport, ProbeRecorder) {
    let (report, probe) = probed_jobs(spec, probes, options);
    (report.aggregate, probe)
}

fn steady_spec(routing: RoutingKind, fc: FlowControlKind) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = routing;
    spec.flow_control = fc;
    // ADVG+1 exercises misrouting, the PB board and (in sharded runs) the
    // boundary links; the probe hooks on all of them must stay passive.
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = 0.25;
    spec.seed = 23;
    spec.warmup = 300;
    spec.measure = 600;
    spec.drain = 900;
    spec
}

/// Probe configuration with every instrument on, including the delay ledger
/// (off in `ProbeConfig::full` so the bench pair isolates its fold cost).
fn full_probes() -> ProbeConfig {
    ProbeConfig {
        delay: true,
        ..ProbeConfig::full(64)
    }
}

/// Every instrument on **plus** the armed anomaly detectors and the trace
/// export — the active layer on top of the passive recorder.
fn active_probes() -> ProbeConfig {
    ProbeConfig {
        delay: true,
        ..ProbeConfig::full_active(64)
    }
}

#[test]
fn probes_never_perturb_any_mechanism_or_flow_control() {
    for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
        for routing in RoutingKind::ALL {
            if fc == FlowControlKind::Wormhole && !routing.supports_wormhole() {
                continue;
            }
            let spec = steady_spec(routing, fc);
            let plain = spec.run();
            assert!(
                plain.packets_measured > 0,
                "{routing:?}/{fc:?}: nothing measured, the pin is vacuous"
            );
            let (probed, probe) = probed(&spec, full_probes(), RunOptions::default());
            assert_eq!(
                probed, plain,
                "{routing:?}/{fc:?}: probes perturbed the report"
            );
            assert!(
                probe.samples() > 0,
                "{routing:?}/{fc:?}: probes recorded nothing"
            );
        }
    }
}

fn workload_spec() -> ExperimentSpec {
    let mut workload = steady_spec(RoutingKind::Olm, FlowControlKind::Vct);
    workload.traffic = TrafficKind::Workload(WorkloadSpec::interference(72, 1, 0.4, 0.1));
    workload
}

fn churn_spec() -> ExperimentSpec {
    let mut churn = steady_spec(RoutingKind::Piggybacking, FlowControlKind::Vct);
    churn.traffic = TrafficKind::Churn(Trace::new(
        "probe-pin",
        vec![
            TraceJob {
                name: "a".into(),
                arrival: 0,
                size: 24,
                placement: PlacementPolicy::Contiguous,
                pattern: JobPattern::AllToAll,
                offered_load: 0.15,
                completion: Completion::Duration(1_200),
            },
            TraceJob {
                name: "b".into(),
                arrival: 500,
                size: 24,
                placement: PlacementPolicy::Random { seed: 5 },
                pattern: JobPattern::Uniform,
                offered_load: 0.1,
                completion: Completion::Duration(800),
            },
        ],
    ));
    churn.measure = 4_000;
    churn.drain = 2_000;
    churn
}

fn batch_spec() -> ExperimentSpec {
    let mut batch = steady_spec(RoutingKind::Rlm, FlowControlKind::Vct);
    batch.traffic = TrafficKind::Mixed {
        global_fraction: 0.5,
        global_offset: 2,
        local_offset: 1,
    };
    batch
}

/// A merged sharded recorder equals the sequential one in every pinned output.
fn assert_same_recorder(merged: &ProbeRecorder, sequential: &ProbeRecorder, label: &str) {
    assert_eq!(merged.samples(), sequential.samples(), "{label}: samples");
    for ((name, got), (_, want)) in merged
        .series()
        .columns()
        .into_iter()
        .zip(sequential.series().columns())
    {
        assert_eq!(got.samples(), want.samples(), "{label}: {name} series");
    }
    assert_eq!(
        merged.sorted_flight(),
        sequential.sorted_flight(),
        "{label}: flight"
    );
    assert_eq!(
        merged.heat_windows(),
        sequential.heat_windows(),
        "{label}: heat windows"
    );
}

#[test]
fn probes_never_perturb_workload_and_churn_runs() {
    for (spec, what) in [(workload_spec(), "workload"), (churn_spec(), "churn")] {
        let plain = spec.run_workload();
        let (probed, probe) = probed_jobs(&spec, full_probes(), RunOptions::default());
        assert_eq!(probed, plain, "probes perturbed the {what} report");
        assert!(probe.samples() > 0);
        // The sharded engine with probes: the same report, and a merged
        // recorder equal to the sequential one.
        let (probed, merged) = probed_jobs(&spec, full_probes(), RunOptions::sharded(2));
        assert_eq!(probed, plain, "sharded probes perturbed the {what} report");
        assert_same_recorder(&merged, &probe, what);
    }
}

#[test]
fn probes_never_perturb_batch_runs() {
    let spec = batch_spec();
    let batch = |options: RunOptions| spec.execute_batch(3, 100_000, &options);
    let plain = batch(RunOptions::default()).report;
    assert!(!plain.timed_out);
    let sequential = batch(RunOptions::default().with_probes(full_probes()));
    assert_eq!(
        sequential.report, plain,
        "probes perturbed the batch report"
    );
    let probe = sequential.probe.unwrap();
    assert!(probe.samples() > 0);
    let sharded = batch(RunOptions::sharded(2).with_probes(full_probes()));
    assert_eq!(
        sharded.report, plain,
        "sharded probes perturbed the batch report"
    );
    assert_same_recorder(&sharded.probe.unwrap(), &probe, "batch");
}

/// Fresh scratch directory under the target-local temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dragonfly_probe_invariance_{name}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Read every emitted probe file keyed by file name, split into the pinned set
/// and the diagnostics exception.
fn read_outputs(dir: &Path) -> (Vec<(String, Vec<u8>)>, Vec<String>) {
    let mut pinned = Vec::new();
    let mut diag = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with("_diag.csv") {
            diag.push(name);
        } else {
            pinned.push((name, std::fs::read(&path).unwrap()));
        }
    }
    (pinned, diag)
}

#[test]
fn probe_files_are_byte_identical_across_shard_counts() {
    let spec = steady_spec(RoutingKind::Olm, FlowControlKind::Vct);
    let plain = spec.run();

    let (report, probe) = probed(&spec, full_probes(), RunOptions::default());
    assert_eq!(report, plain);
    let seq_dir = scratch("seq");
    probe.write_all(&seq_dir, "probe").unwrap();
    let (sequential, seq_diag) = read_outputs(&seq_dir);
    assert!(
        sequential.iter().any(|(n, _)| n == "probe_series.csv"),
        "series output missing"
    );
    assert!(
        sequential.iter().any(|(n, _)| n == "probe_flight.jsonl"),
        "flight output missing"
    );
    assert!(
        sequential.iter().any(|(n, _)| n == "probe_heatmap.csv"),
        "heatmap output missing"
    );
    assert!(
        sequential
            .iter()
            .any(|(n, b)| n == "probe_delay.csv" && b.len() > DelayLedger::CSV_HEADER.len() + 1),
        "delay output missing or empty — the delay half of the pin is vacuous"
    );
    assert!(
        sequential.iter().any(|(n, _)| n == "probe_delay.jsonl"),
        "delay JSONL output missing"
    );
    assert_eq!(seq_diag, vec!["probe_diag.csv".to_string()]);

    for shards in [2, 4] {
        let (report, probe) = probed(&spec, full_probes(), RunOptions::sharded(shards));
        assert_eq!(report, plain, "{shards} shards: report diverged");
        let dir = scratch(&format!("shards{shards}"));
        probe.write_all(&dir, "probe").unwrap();
        let (sharded, diag) = read_outputs(&dir);
        assert_eq!(diag, seq_diag, "{shards} shards: diag file set diverged");
        assert_eq!(
            sharded.len(),
            sequential.len(),
            "{shards} shards: pinned file set diverged"
        );
        for ((name, bytes), (seq_name, seq_bytes)) in sharded.iter().zip(&sequential) {
            assert_eq!(name, seq_name);
            assert_eq!(
                bytes, seq_bytes,
                "{shards} shards: {name} is not byte-identical to the sequential run"
            );
        }
    }
}

#[test]
fn detectors_never_perturb_the_report() {
    // Armed detectors (and the trace export) ride the same read-only hooks as
    // the passive instruments: every report field must stay byte-identical.
    for routing in [RoutingKind::Minimal, RoutingKind::Olm, RoutingKind::Rlm] {
        let spec = steady_spec(routing, FlowControlKind::Vct);
        let plain = spec.run();
        let (probed, probe) = probed(&spec, active_probes(), RunOptions::default());
        assert_eq!(
            probed, plain,
            "{routing:?}: armed detectors perturbed the report"
        );
        assert!(probe.samples() > 0);
    }
}

/// A scenario engineered to trip the detectors: ADVG+1 at a saturating load
/// collapses minimal routing's delivered/injected ratio, and the collapse
/// threshold is set so high that any deficit at all trips it.
fn anomalous_spec() -> (ExperimentSpec, ProbeConfig) {
    let mut spec = steady_spec(RoutingKind::Minimal, FlowControlKind::Vct);
    spec.offered_load = 0.8;
    let mut probes = active_probes();
    probes.detect.window = 4;
    probes.detect.collapse_pct = 100;
    probes.detect.min_window_injected = 16;
    (spec, probes)
}

#[test]
fn trigger_bundle_and_manifest_are_byte_identical_across_shard_counts() {
    let (spec, probes) = anomalous_spec();
    let (report, probe) = probed(&spec, probes.clone(), RunOptions::default());
    assert!(
        !probe.trips().is_empty(),
        "the forced-anomaly scenario must trip at least one detector, or this \
         pin is vacuous"
    );
    let manifest = spec.manifest_with_report("anomaly", &report);
    let seq_dir = scratch("anomaly_seq");
    probe
        .write_all_with_manifest(&seq_dir, "anomaly", &manifest)
        .unwrap();
    let (sequential, _) = read_outputs(&seq_dir);
    for required in [
        "anomaly_trigger.jsonl",
        "anomaly_trigger_series.csv",
        "anomaly_trigger_flight.jsonl",
        "anomaly_trigger_heatmap.csv",
        "anomaly_trigger_delay.csv",
        "anomaly_trace.json",
        "anomaly_manifest.json",
    ] {
        assert!(
            sequential.iter().any(|(n, _)| n == required),
            "{required} missing from the trigger bundle"
        );
    }

    for shards in [2, 4] {
        let (sharded_report, probe) = probed(&spec, probes.clone(), RunOptions::sharded(shards));
        assert_eq!(sharded_report, report, "{shards} shards: report diverged");
        let dir = scratch(&format!("anomaly_shards{shards}"));
        probe
            .write_all_with_manifest(&dir, "anomaly", &manifest)
            .unwrap();
        let (sharded, _) = read_outputs(&dir);
        assert_eq!(sharded.len(), sequential.len());
        for ((name, bytes), (seq_name, seq_bytes)) in sharded.iter().zip(&sequential) {
            assert_eq!(name, seq_name);
            assert_eq!(
                bytes, seq_bytes,
                "{shards} shards: {name} is not byte-identical to the sequential run"
            );
        }
    }
}
