//! Strong-scaling study of the sharded single-simulation engine.
//!
//! One steady-state point is run on the sequential engine and then on the
//! sharded engine (`dragonfly_shard`) with shards ∈ {1, 2, 4, 8}, at
//! h ∈ {4, 6, 8} by default.  For every combination the binary
//!
//! * verifies the sharded report is **byte-identical** to the sequential one
//!   (the engine's cardinal invariant — a mismatch aborts the run), and
//! * records the wall-clock time and the speedup over the sequential engine,
//!   plus the storage the point preallocates (`footprint_mb`: the pipeline,
//!   VC-slot and arena footprint summed over the shards, an exact count that
//!   peak RSS — process-wide — cannot give per point).
//!
//! Output: `results/shard_scaling.csv`
//! (`h,shards,wall_ms,speedup,identical,footprint_mb`; the `shards = 0` row is
//! the sequential-engine baseline) and, with
//! `--json FILE`, one `{"name": "shard_scaling/h4/shards2", "ns_per_iter": …}`
//! object per point in the same shape the bench-trend tooling
//! (`parse_bench_entries`, `bench_gate`, `BENCH_history.jsonl`) consumes.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin shard_scaling
//! cargo run --release -p dragonfly_bench --bin shard_scaling -- --quick
//! cargo run --release -p dragonfly_bench --bin shard_scaling -- --json shard.jsonl
//! ```
//!
//! Every point runs 300/600/600 warm-up/measure/drain cycles unless
//! `--warmup`/`--measure`/`--drain` say otherwise; `--quick` shrinks to
//! h ∈ {2, 4} for CI smoke runs.
//! Points are timed one at a time (`--jobs` does not apply here: the shards
//! themselves are the parallelism being measured).

use dragonfly_bench::HarnessArgs;
use dragonfly_core::{
    CsvWriter, ExperimentSpec, FlowControlKind, RoutingKind, RunOptions, StorageFootprint,
    TrafficKind,
};
use std::io::Write;
use std::time::Instant;

/// Shard counts swept at every scale (clamped to cores and groups below).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn point_spec(args: &HarnessArgs, h: usize) -> ExperimentSpec {
    let mut spec = args.base_spec(FlowControlKind::Vct);
    spec.h = h;
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Uniform;
    spec.offered_load = 0.2;
    // Fixed, deliberately modest windows, with or without --quick: the study
    // measures engine scaling, not steady-state convergence.  Explicit
    // --warmup/--measure/--drain override as usual.
    (spec.warmup, spec.measure, spec.drain) = args.windows_or(300, 600, 600);
    spec
}

/// A footprint in MB of 2^20 bytes, the unit peak RSS is reported in.
fn mb(footprint: StorageFootprint) -> f64 {
    footprint.bytes() as f64 / (1024.0 * 1024.0)
}

fn main() {
    let args = HarnessArgs::from_env();
    let scales: Vec<usize> = if args.quick {
        vec![2, 4]
    } else {
        vec![4, 6, 8]
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let path = args.csv_path("shard_scaling.csv");
    let mut csv = CsvWriter::create(&path, "h,shards,wall_ms,speedup,identical,footprint_mb")
        .expect("cannot create CSV");
    let mut json_entries: Vec<(String, f64)> = Vec::new();

    println!("== Sharded-engine strong scaling (OLM, UN, load 0.2) ==");
    println!(
        "{:>3} {:>7} {:>10} {:>9} {:>10} {:>12}",
        "h", "shards", "wall_ms", "speedup", "identical", "footprint_mb"
    );
    for &h in &scales {
        let spec = point_spec(&args, h);
        let groups = 2 * h * h + 1;

        // Sequential-engine baseline (the `shards = 0` CSV row).
        let t0 = Instant::now();
        let baseline = spec.run();
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            !baseline.deadlock_detected,
            "baseline deadlocked at h = {h}"
        );
        let seq_mb = mb(spec.build_simulation().network().storage_footprint());
        println!(
            "{h:>3} {:>7} {seq_ms:>10.1} {:>9} {:>10} {seq_mb:>12.2}",
            "seq", "1.00", "-"
        );
        csv.row(&format!("{h},0,{seq_ms:.3},1.0,true,{seq_mb:.3}"))
            .expect("CSV write failed");
        json_entries.push((format!("shard_scaling/h{h}/seq"), seq_ms * 1e6));

        // With --probe*, one extra sequential run outside the timed region
        // carries the probes, so the scaling numbers stay untouched while the
        // probe output (and its report-identity guarantee) is still exercised.
        if let Some(probes) = &args.probe {
            let outcome = spec.execute(&RunOptions::default().with_probes(probes.clone()));
            let (report, probe) = (outcome.report.aggregate, outcome.probe.unwrap());
            assert!(
                report == baseline,
                "probed report diverged from the unprobed baseline at h = {h} — probes \
                 must be passive"
            );
            let prefix = format!("shard_scaling_h{h}");
            args.write_probe(
                &probe,
                &prefix,
                &spec.manifest_with_report(&prefix, &report),
            );
        }

        for &shards in &SHARD_COUNTS {
            if shards > groups || shards > cores {
                continue;
            }
            let t0 = Instant::now();
            let report = spec.run_sharded(shards);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let identical = report == baseline;
            let speedup = seq_ms / ms;
            let shard_mb = mb(spec.sharded_storage_footprint(shards));
            println!(
                "{h:>3} {shards:>7} {ms:>10.1} {speedup:>9.2} {identical:>10} {shard_mb:>12.2}"
            );
            csv.row(&format!(
                "{h},{shards},{ms:.3},{speedup:.4},{identical},{shard_mb:.3}"
            ))
            .expect("CSV write failed");
            json_entries.push((format!("shard_scaling/h{h}/shards{shards}"), ms * 1e6));
            assert!(
                identical,
                "sharded report diverged from the sequential engine at h = {h}, \
                 {shards} shards — this is an engine bug"
            );
        }
    }
    csv.flush().expect("CSV flush failed");
    println!("\nwrote {path:?} ({} rows)", csv.rows_written());

    // Bench-trend JSON: one object per line, the shape `parse_bench_entries`
    // and the BENCH_history.jsonl tooling read.
    if let Some(json_path) = &args.json_out {
        let mut file = std::fs::File::create(json_path).expect("cannot create JSON output");
        for (name, ns) in &json_entries {
            writeln!(
                file,
                "{{\"name\":\"{name}\",\"ns_per_iter\":{ns:.0},\"iters\":1}}"
            )
            .expect("JSON write failed");
        }
        println!("wrote {json_path:?} ({} entries)", json_entries.len());
    }
}
