#!/usr/bin/env python3
"""Fail CI when bench_throughput regresses against the checked-in baseline.

Re-runs bench_throughput on the same pinned population as capture.py and
compares per-kernel items/sec against bench/baselines/throughput.json.
By default the comparison is *normalized*: each kernel's items/sec is
divided by the run's own reference kernel (BM_SampleStretch, a tiny
scalar kernel whose speed tracks raw machine speed), so baselines stay
meaningful across machine classes (laptop vs CI runner) and only
genuine per-kernel regressions trip the gate.  The reference kernel
itself is gated *absolutely* with a looser tolerance
(--reference-tolerance, default 0.5): normalization would otherwise
hide a global slowdown that hits the reference too.  Pass --absolute to
compare every kernel's raw items/sec on a machine matching the capture
host.

Caveat: a change that speeds up the reference kernel itself makes every
normalized ratio look slower — re-capture baselines when touching
sample_stretch.

The gate also ratchets upward: when a kernel runs more than the
tolerance *faster* than its baseline in every repetition (not just the
median — a lucky rep must not move the floor), it prints a re-capture
suggestion so the checked-in performance floor keeps rising.  The
suggestion never fails the run (exit 0).

When bench/baselines/streaming_metrics.json exists the gate also re-runs
the pinned streaming sharded run and *exact*-compares its deterministic
observability (pass fingerprint/block counts, blocks_read, reconcile
passes, the report's obs counters) against the baseline.  These numbers
are machine-independent by design, so there is no tolerance: any diff
means the data plane changed and the baseline needs an intentional
re-capture.

Usage:
  python3 bench/baselines/check.py --build-dir build [--tolerance 0.15]
                                   [--reference-tolerance 0.5] [--absolute]

Exit codes: 0 ok, 1 regression, 2 usage/setup error.
"""

import argparse
import json
import pathlib
import sys

import capture  # shares the env pin and the throughput parser

REFERENCE_KERNEL = "BM_SampleStretch"


def normalize(items: dict) -> dict:
    reference = items.get(REFERENCE_KERNEL)
    if not reference:
        raise SystemExit(f"error: reference kernel {REFERENCE_KERNEL} "
                         "missing from throughput run")
    return {name: ips / reference for name, ips in items.items()
            if name != REFERENCE_KERNEL}


def check_streaming_metrics(build_dir: str) -> list:
    """Exact-compares the deterministic streaming metrics; returns
    failure strings (empty when clean or no baseline is checked in)."""
    baseline_path = capture.BASELINE_DIR / "streaming_metrics.json"
    if not baseline_path.is_file():
        return []
    baseline = json.loads(baseline_path.read_text())["deterministic"]
    current = capture.run_streaming_metrics(
        pathlib.Path(build_dir))["deterministic"]
    failures = []
    for key in sorted(set(baseline) | set(current)):
        base, now = baseline.get(key), current.get(key)
        verdict = "FAIL" if now != base else "ok"
        print(f"{verdict:4} streaming_metrics.{key}: {now}"
              + ("" if now == base else f" (baseline {base})"))
        if now != base:
            failures.append(
                f"streaming_metrics.{key}: {now} != baseline {base} "
                "(deterministic metric; exact match required)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional slowdown (default 0.15)")
    parser.add_argument("--reference-tolerance", type=float, default=0.5,
                        help="allowed absolute slowdown of the reference "
                             "kernel in normalized mode (default 0.5, "
                             "loose to absorb machine-class differences)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw items/sec instead of ratios "
                             "normalized by the reference kernel")
    args = parser.parse_args()

    baseline_path = capture.BASELINE_DIR / "throughput.json"
    if not baseline_path.is_file():
        print(f"error: {baseline_path} missing (run capture.py)",
              file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())["items_per_second"]

    binary = pathlib.Path(args.build_dir) / "bench" / "bench_throughput"
    if not binary.is_file():
        print(f"error: {binary} not found (build with google-benchmark)",
              file=sys.stderr)
        return 2
    run = capture.run_throughput(binary)
    current = run["items_per_second"]
    current_reps = run["items_per_second_reps"]
    raw_current = dict(current)

    failures = []
    unit = "items/s"
    if not args.absolute:
        # Per-rep values in the same (normalized) domain as the gate:
        # each rep divided by the run's reference-kernel median.
        ref_median = current.get(REFERENCE_KERNEL)
        if ref_median:
            current_reps = {
                name: [ips / ref_median for ips in reps]
                for name, reps in current_reps.items()
                if name != REFERENCE_KERNEL}
        # Normalization hides a slowdown that hits the reference kernel
        # too; gate the reference absolutely (loosely) to keep that
        # failure mode visible.
        ref_base = baseline.get(REFERENCE_KERNEL)
        ref_now = current.get(REFERENCE_KERNEL)
        if ref_base and ref_now:
            ref_floor = ref_base * (1.0 - args.reference_tolerance)
            verdict = "FAIL" if ref_now < ref_floor else "ok"
            print(f"{verdict:4} {REFERENCE_KERNEL} (absolute): "
                  f"{ref_now:,.4g} items/s (baseline {ref_base:,.4g}, "
                  f"floor {ref_floor:,.4g})")
            if ref_now < ref_floor:
                failures.append(
                    f"{REFERENCE_KERNEL}: reference kernel {ref_now:,.4g} "
                    f"< {ref_floor:,.4g} items/s absolute floor")
        baseline = normalize(baseline)
        current = normalize(current)
        unit = f"x {REFERENCE_KERNEL}"
    for name, base_ips in sorted(baseline.items()):
        now_ips = current.get(name)
        if now_ips is None:
            failures.append(f"{name}: kernel missing from current run")
            continue
        floor = base_ips * (1.0 - args.tolerance)
        verdict = "FAIL" if now_ips < floor else "ok"
        print(f"{verdict:4} {name}: {now_ips:,.4g} {unit} "
              f"(baseline {base_ips:,.4g}, floor {floor:,.4g})")
        if now_ips < floor:
            failures.append(
                f"{name}: {now_ips:,.4g} < {floor:,.4g} {unit} "
                f"({(1 - now_ips / base_ips) * 100:.1f}% below baseline)")

    for name in sorted(set(current) - set(baseline)):
        print(f"note: new kernel without baseline: {name} "
              f"({raw_current[name]:,.0f} items/s) — re-capture to pin it")

    # Upward ratchet: a kernel whose every rep beats the baseline by more
    # than the tolerance has genuinely gotten faster — suggest moving the
    # floor up so the gain cannot silently erode later.
    ratchet = []
    for name, base_ips in sorted(baseline.items()):
        reps = current_reps.get(name)
        if not reps:
            continue
        ceiling = base_ips * (1.0 + args.tolerance)
        if min(reps) > ceiling:
            gain = (min(reps) / base_ips - 1.0) * 100
            ratchet.append(f"{name}: all {len(reps)} reps >= "
                           f"{min(reps):,.4g} {unit} "
                           f"({gain:.1f}% above baseline)")
    if ratchet and not failures:
        print(f"\npersistent speedup (> {args.tolerance:.0%} above baseline "
              "in every rep) — consider ratcheting the floor:")
        for line in ratchet:
            print(f"  {line}")
        print("  re-capture with: python3 bench/baselines/capture.py "
              "--only throughput  (then review the diff)")

    failures.extend(check_streaming_metrics(args.build_dir))

    if failures:
        print("\nbaseline regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
