#!/usr/bin/env python3
"""Capture bench baselines into bench/baselines/*.json.

Runs every bench binary on the fixed synthetic population (the env pin
below) and checks the numbers in:

  * one JSON per text bench (fig*, tab2, ablation, utility, sharded_scale,
    attack_defense) recording the full stdout — a reference for humans and
    for coarse diffing after algorithm changes;
  * throughput.json holding the parsed items/sec of every
    bench_throughput kernel — the machine-checked regression gate
    (see check.py);
  * streaming_metrics.json holding the *deterministic* observability of a
    pinned streaming sharded run (pass fingerprint/block counts,
    blocks_read, reconcile chunk passes, the report's obs counters).
    These are exact-compared by check.py — unlike items/sec they must
    reproduce bit-for-bit on any machine, so a diff means the data plane
    changed, not the hardware.

Usage:
  python3 bench/baselines/capture.py --build-dir build [--only throughput]

Baselines are hardware-dependent: re-capture (and review the diff) when
the reference machine class changes.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

BASELINE_DIR = pathlib.Path(__file__).resolve().parent

# The fixed population every bench runs on (small enough for CI, large
# enough that the kernels dominate process startup).
FIXED_ENV = {
    "GLOVE_USERS": "120",
    "GLOVE_DAYS": "3",
    "GLOVE_SEED": "1",
    "GLOVE_THREADS": "2",
}


def bench_env():
    env = dict(os.environ)
    env.update(FIXED_ENV)
    return env


def run_text_bench(binary: pathlib.Path) -> dict:
    result = subprocess.run(
        [str(binary)], capture_output=True, text=True, env=bench_env(),
        timeout=1800, check=True)
    return {
        "bench": binary.name,
        "env": FIXED_ENV,
        "stdout": result.stdout,
    }


def run_throughput(binary: pathlib.Path) -> dict:
    # Median of repeated runs: single-shot items/sec swings far more than
    # the 15% regression tolerance on small kernels, medians do not.  The
    # raw per-rep values ride along so check.py can tell a persistent
    # speedup (every rep above the baseline) from a lucky run.
    result = subprocess.run(
        [str(binary), "--benchmark_format=json",
         "--benchmark_repetitions=5"],
        capture_output=True, text=True, env=bench_env(), timeout=1800,
        check=True)
    doc = json.loads(result.stdout)
    items = {}
    reps = {}
    for bench in doc.get("benchmarks", []):
        ips = bench.get("items_per_second")
        if ips is None:
            continue
        if bench.get("run_type") == "iteration":
            reps.setdefault(bench["run_name"], []).append(ips)
        elif bench.get("aggregate_name") == "median":
            items[bench["run_name"]] = ips
    return {
        "bench": binary.name,
        "env": FIXED_ENV,
        "items_per_second": items,
        "items_per_second_reps": reps,
    }


# The pinned streaming run whose deterministic metrics are baselined:
# glovebin input (so the planning pass is index-served and rewound passes
# block-seek) through the bordered sharded strategy, with a batch budget
# (500 users x 2 workers) small enough to force many rewound passes, the
# shard jobs' and then the reconcile chunks'.
STREAMING_SYNTH = ["--users=20000", "--days=1", "--seed=3"]
STREAMING_RUN = [
    "--strategy=sharded", "--shard-users=500", "--shard-workers=2",
]


def run_streaming_metrics(build_dir: pathlib.Path) -> dict:
    example = build_dir / "examples" / "example_anonymize_csv"
    if not example.is_file():
        raise SystemExit(f"error: {example} not found (build first)")
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        csv = work / "dataset.csv"
        binfile = work / "dataset.glovebin"
        report_path = work / "run.json"
        subprocess.run(
            [str(example), f"--synth-dataset={csv}"] + STREAMING_SYNTH,
            capture_output=True, env=bench_env(), timeout=1800, check=True)
        subprocess.run(
            [str(example), "--convert", f"--input={csv}",
             f"--output={binfile}"],
            capture_output=True, env=bench_env(), timeout=1800, check=True)
        subprocess.run(
            [str(example), f"--input={binfile}",
             f"--output={work / 'anon.csv'}",
             f"--report={report_path}"] + STREAMING_RUN,
            capture_output=True, env=bench_env(), timeout=1800, check=True)
        report = json.loads(report_path.read_text())
    io = report["io"]
    # Only reproducible-anywhere quantities: no timings, no RSS, and no
    # bytes_mapped (page-size dependent rounding).
    return {
        "bench": "streaming_metrics",
        "env": FIXED_ENV,
        "synth": STREAMING_SYNTH,
        "run": STREAMING_RUN,
        "deterministic": {
            "pass_fingerprints": io["pass_fingerprints"],
            "pass_blocks": io["pass_blocks"],
            "file_blocks": io["file_blocks"],
            "blocks_read": io["blocks_read"],
            "counters": report["counters"],
            "obs": report["obs"],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory holding bench binaries")
    parser.add_argument("--only", default=None,
                        help="capture a single bench (e.g. 'throughput')")
    args = parser.parse_args()

    bench_dir = pathlib.Path(args.build_dir) / "bench"
    if not bench_dir.is_dir():
        print(f"error: {bench_dir} not found (build first)", file=sys.stderr)
        return 1

    captured = 0
    for binary in sorted(bench_dir.glob("bench_*")):
        if not os.access(binary, os.X_OK) or binary.is_dir():
            continue
        name = binary.name.removeprefix("bench_")
        if args.only and name != args.only:
            continue
        print(f"capturing {binary.name} ...", flush=True)
        if name == "throughput":
            payload = run_throughput(binary)
        else:
            payload = run_text_bench(binary)
        out = BASELINE_DIR / f"{name}.json"
        out.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        print(f"  wrote {out}")
        captured += 1

    if args.only in (None, "streaming_metrics"):
        print("capturing streaming_metrics ...", flush=True)
        payload = run_streaming_metrics(pathlib.Path(args.build_dir))
        out = BASELINE_DIR / "streaming_metrics.json"
        out.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        print(f"  wrote {out}")
        captured += 1

    if captured == 0:
        print("error: no bench binaries captured", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
