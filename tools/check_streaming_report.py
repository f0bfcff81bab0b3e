#!/usr/bin/env python3
"""Verify a streaming run report proves out-of-core behavior.

Reads the JSON run report written by `anonymize_csv --report=...` for a
file-to-file (CsvFileSource -> CsvFileSink) run and asserts:

  * the data plane really was file-to-file (io.source/io.sink);
  * the source was streamed in multiple passes, each covering the full
    dataset.  The pass model: one planning scan, then one rewound pass
    per batch of the run's ordered unit list (the shard jobs, then the
    deferred leftovers' >= k pass-throughs, locality-sorted GLOVE chunks
    and leftover-policy tail).  One rule cuts every batch: units in
    order, each batch closed before its members pass the budget
    (--shard-users x --shard-workers fingerprints), whatever their kind,
    so a reconcile chunk may share a batch with shards.  The report
    therefore holds exactly 1 + obs["stream.shard_batches"] passes;
  * the reconciliation itself ran: when the run deferred fingerprints,
    obs["stream.reconcile_chunks"] counts at least one reconcile GLOVE
    chunk;
  * the process's peak resident set stayed below the given fraction of
    the dataset's *materialized* size — the memory a collect-first run
    pays just to hold the samples (56 bytes each: 6 doubles + the
    contributors counter, before any container overhead), i.e. a strict
    lower bound on the in-memory representation.

Used by the CI "streaming under capped address space" step together with
a ulimit -v cap; this script checks the report half of the claim.

With --indexed the report must come from a glovebin-input run
(GlovebinSource -> CsvFileSink) and additionally prove the block-seek
fast path: the planning pass decoded no payload blocks (io.pass_blocks[0]
== 0, it reads the footer index instead), every rewound pass decoded
strictly fewer blocks than the file holds, and the cumulative
blocks_read/bytes_mapped accounting is consistent.  Rewound passes of an
indexed source fetch only the fingerprints they need, so the
full-dataset-per-pass check is replaced by planning-pass-is-largest.

Usage:
  python3 tools/check_streaming_report.py REPORT.json [--max-rss-fraction 0.5]
  python3 tools/check_streaming_report.py REPORT.json --indexed

Exit codes: 0 ok, 1 claim violated, 2 usage error.
"""

import argparse
import json
import sys

BYTES_PER_SAMPLE = 56  # sigma (4 doubles) + tau (2 doubles) + contributors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--max-rss-fraction", type=float, default=0.5,
                        help="allowed peak RSS as a fraction of the "
                             "materialized dataset floor (default 0.5)")
    parser.add_argument("--indexed", action="store_true",
                        help="expect a glovebin-input run and verify the "
                             "block-seek fast path (pass_blocks/"
                             "blocks_read/bytes_mapped)")
    args = parser.parse_args()

    try:
        doc = json.loads(open(args.report).read())
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    io = doc.get("io", {})
    counters = doc.get("counters", {})
    obs = doc.get("obs", {})
    failures = []

    expected_source = "glovebin-file" if args.indexed else "csv-file"
    if io.get("source") != expected_source or io.get("sink") != "csv-file":
        failures.append(f"run was not {expected_source} -> csv-file: "
                        f"source={io.get('source')} sink={io.get('sink')}")

    passes = io.get("pass_fingerprints", [])
    if len(passes) < 3:
        failures.append(f"expected a planning pass plus >= 2 batch passes, "
                        f"got {len(passes)}: {passes}")
    if passes and min(passes) <= 0:
        failures.append(f"a pass streamed no fingerprints: {passes}")
    if args.indexed:
        # Rewound passes fetch subsets, so only the planning pass covers
        # the full dataset — it must dominate.
        if passes and passes[0] != max(passes):
            failures.append(f"planning pass is not the largest (the source "
                            f"did not report subset fetches?): {passes}")
    elif passes and len(set(passes)) != 1:
        failures.append(f"passes streamed different fingerprint counts "
                        f"(source changed mid-run?): {passes}")

    if args.indexed:
        pass_blocks = io.get("pass_blocks", [])
        file_blocks = int(io.get("file_blocks", 0))
        blocks_read = int(io.get("blocks_read", 0))
        bytes_mapped = int(io.get("bytes_mapped", 0))
        if file_blocks <= 0:
            failures.append("report holds no file_blocks")
        if bytes_mapped <= 0:
            failures.append("report holds no bytes_mapped")
        if len(pass_blocks) != len(passes):
            failures.append(f"pass_blocks {pass_blocks} does not line up "
                            f"with {len(passes)} passes")
        if pass_blocks and pass_blocks[0] != 0:
            failures.append(f"planning pass decoded {pass_blocks[0]} blocks "
                            "— it should be served from the footer index "
                            "alone")
        for i, blocks in enumerate(pass_blocks[1:], start=1):
            if not 0 < blocks < file_blocks:
                failures.append(
                    f"rewound pass {i} decoded {blocks} of {file_blocks} "
                    "blocks — the block-seek fast path must read a strict, "
                    "non-empty subset of the file")
        if blocks_read != sum(pass_blocks):
            failures.append(f"blocks_read={blocks_read} != "
                            f"sum(pass_blocks)={sum(pass_blocks)}")
        print(f"block seeks: {file_blocks} blocks in file; per pass "
              f"{pass_blocks} ({bytes_mapped / 2**20:.1f} MiB mapped)")

    batches = int(obs.get("stream.shard_batches", 0))
    if len(passes) != 1 + batches:
        failures.append(f"{len(passes)} passes are not the planning scan "
                        f"plus one per batch ({batches} batches)")
    deferred = int(doc.get("metrics", {}).get("deferred_fingerprints", 0))
    chunks = int(obs.get("stream.reconcile_chunks", 0))
    if deferred > 0 and chunks < 1:
        failures.append(f"{deferred} fingerprints were deferred but no "
                        "reconcile chunk ran")

    samples = counters.get("input_samples", 0)
    floor = samples * BYTES_PER_SAMPLE
    peak = io.get("peak_rss_bytes", 0)
    if samples == 0:
        failures.append("report holds no input_samples")
    if peak == 0:
        failures.append("report holds no peak_rss_bytes")
    ceiling = int(floor * args.max_rss_fraction)
    print(f"passes over the source: {len(passes)} x "
          f"{passes[0] if passes else 0} fingerprints "
          f"({batches} batches, {chunks} reconcile chunks)")
    print(f"materialized floor: {samples:,} samples -> {floor / 2**20:.1f} "
          f"MiB; peak rss {peak / 2**20:.1f} MiB "
          f"(ceiling {ceiling / 2**20:.1f} MiB)")
    if peak >= ceiling:
        failures.append(
            f"peak rss {peak:,} B not below {args.max_rss_fraction:.0%} of "
            f"the materialized dataset floor {floor:,} B — the run did not "
            "stay out-of-core")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: streaming run stayed out-of-core")
    return 0


if __name__ == "__main__":
    sys.exit(main())
