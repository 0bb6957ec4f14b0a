#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The script builds the harness in
`perfbench/` (a package of its own, outside the repository workspace) from
source, runs the workload in a process of its own, checks the simulated
reports, and prints one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones of BENCHMARK.json, measured untraced; with `--trace 1` they are the
per-layer ones, from a build with the engine's phase profiler and a traced
run.  The line before it is a stamp of the box and the build, so results
from different machines stay comparable; every result is also appended to
`.bench_out/results.jsonl`.

Output check: each point's simulated report rows must equal the reference
in `perfbench/reference/<workload>.csv`, which holds them for one seed.
For any other seed the harness's own checks stand: no deadlock, every
repetition identical, traced equal to untraced, sharded equal to
sequential, and the probe manifest readable.  The model is not validated
against hardware, so no error figure is given.

`--record` rewrites the reference file from this run's rows instead of
checking them; use it only when a change is meant to alter the model.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(features):
    """Build the harness and return a private copy of its executable.

    Both builds share one target directory; each copy is taken right after
    its own build, so the plain and traced executables never mix.
    """
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(target)]
    if features:
        cmd += ["--features", features]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("the harness did not build")
    exe = target / f"perfbench-{features or 'plain'}"
    shutil.copy2(target / "release" / "perfbench", exe)
    return exe


def read_reference(path):
    """(seed, {slug: [rows]}) of a reference file, or None without one."""
    if not path.exists():
        return None
    seed, rows = None, {}
    for line in path.read_text().splitlines():
        if line.startswith("# seed "):
            seed = int(line.split()[2])
        elif line and not line.startswith("#"):
            slug, row = line.split(",", 1)
            rows.setdefault(slug, []).append(row)
    return seed, rows


def write_reference(path, workload, seed, points):
    lines = [f"# Simulated report rows of workload {workload}, one per line as",
             "# <point>,<SimReport or JobReport CSV row>; written by run.py --record.",
             f"# seed {seed}"]
    for point in points:
        lines += [f"{point['slug']},{row}" for row in point["rows"]]
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def source_digest(root):
    """SHA-256 over the sources the harness builds from."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for base in (root / "crates", HERE):
        files += sorted(p for p in base.rglob("*")
                        if p.suffix in (".rs", ".toml", ".lock", ".py"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def stamp(root, features):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def output(cmd):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": output(["rustc", "--version"]),
        "git_commit": output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(root),
        "build_features": features or "none",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not (root / "crates").is_dir():
        fail("run from the root of a checkout of the repository")
    features = "trace" if args.trace else ""
    exe = build(features)

    out = root / ".bench_out"
    run_dir = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(exe), "traced" if args.trace else "plain", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(run_dir)]
    started = time.time()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the harness ran longer than {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"the harness exited with code {done.returncode}")
    result = json.loads(lines[-1])

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail(f"the harness did not report {missing}")

    ref_path = HERE / "reference" / f"{args.workload}.csv"
    if args.record:
        write_reference(ref_path, args.workload, args.seed, result["points"])
    reference = read_reference(ref_path)
    problems = []
    if result["selftest_error"]:
        problems.append(result["selftest_error"])
    attempted = failed = 0
    for point in result["points"]:
        attempted += point["attempted"]
        point_failed = point["failed"]
        problems += [f"{point['slug']}: {note}" for note in point["notes"]]
        if reference and reference[0] == args.seed:
            if reference[1].get(point["slug"]) != point["rows"]:
                problems.append(f"{point['slug']}: rows differ from {ref_path.name}")
                point_failed = point["attempted"]
        failed += point_failed
    if reference is None:
        problems.append(f"no reference file {ref_path.name}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    record = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: result["metrics"][name] for name in wanted},
    }
    box = stamp(root, features)
    full = dict(record, workload=args.workload, seed=args.seed, trace=args.trace,
                started=started, stamp=box, samples=result["samples"],
                trace_file=result["trace_file"])
    with open(out / "results.jsonl", "a") as log:
        log.write(json.dumps(full) + "\n")
    if not args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"stamp": box}))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
