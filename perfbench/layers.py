"""Per-layer metrics of one traced run, computed from what the program
exports and what the harness measured around it.

Inputs:
  reports  run reports of the run (one for `anonymize`, one per published
           epoch for `serve`), as parsed JSON;
  ledger   the harness's per-pass source/sink ledger (`--layers-out`), or
           None when the source and sink were not wrapped (serve);
  spans    trace_summary.summarize() of the run's `--trace-out` file;
  counters the process-wide obs counters (`--metrics-out`).

Pass 0 of the ledger is the planning scan; the next `stream.shard_batches`
passes feed shard batches; the rest feed reconcile.  Source and sink time
spent inside a batch pass or a reconcile pass is subtracted from the
exec and reconcile figures, so the layer times do not overlap.
"""

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("source.pass1_s", "s"),
    ("source.rescan_s", "s"),
    ("source.passes", "count"),
    ("source.fingerprints_decoded", "count"),
    ("source.useful_share", "ratio"),
    ("plan.s", "s"),
    ("plan.shards", "count"),
    ("plan.deferred_share", "ratio"),
    ("exec.phase_s", "s"),
    ("exec.busy_s", "s"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.max_shard_s", "s"),
    ("core.init_s", "s"),
    ("core.merge_s", "s"),
    ("core.stretch_evaluations", "count"),
    ("core.heap.popped", "count"),
    ("core.heap.stale_share", "ratio"),
    ("core.heap.refine_share", "ratio"),
    ("reconcile.s", "s"),
    ("reconcile.chunks", "count"),
    ("reconcile.max_chunk_s", "s"),
    ("reconcile.share", "ratio"),
    ("sink.write_s", "s"),
    ("sink.samples_written", "count"),
    ("serve.publish_s", "s"),
    ("serve.publish_max_s", "s"),
    ("serve.update_s", "s"),
    ("serve.snapshot_s", "s"),
    ("serve.queue_block_waits", "count"),
    ("serve.events_dropped_share", "ratio"),
    ("layers.coverage_share", "ratio"),
    ("trace.overhead_share", "ratio"),
]


def parse_metrics_text(text):
    """Counters of obs::render_metrics_text output ("counter NAME VALUE")."""
    counters = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "counter":
            counters[parts[1]] = int(parts[2])
    return counters


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _span(spans, name, field):
    return spans.get(name, {}).get(field, 0.0)


def _metric(report, name):
    return report.get("metrics", {}).get(name, 0.0)


def _pass_time(passes):
    return sum(p["source_s"] + p["sink_s"] for p in passes)


def _decoded(pass_entry, index, report):
    """Fingerprints the source decoded in one pass.  A block fetch decodes
    whole blocks, so its share of the file's fingerprints is estimated
    from the blocks the report says the pass read."""
    if pass_entry["yielded"]:
        return pass_entry["yielded"]
    io = report["io"]
    blocks = io["pass_blocks"][index] if index < len(io["pass_blocks"]) else 0
    if not io["file_blocks"]:
        return pass_entry["fetched"]
    return io["pass_fingerprints"][0] * blocks / io["file_blocks"]


def ledger_problems(report, ledger):
    """Disagreements between the harness's pass ledger and the report."""
    passes = len(ledger["passes"])
    reported = len(report["io"]["pass_fingerprints"])
    if passes != reported:
        return [f"ledger saw {passes} source passes, report {reported}"]
    return []


def layer_metrics(reports, ledger, spans, counters, serve):
    """Every PER_LAYER metric except trace.overhead_share, as a dict."""
    sharded = [r for r in reports if r["strategy"] == "sharded"]
    engine_s = sum(r["timings"]["total_seconds"] for r in reports)
    shard_rows = [row for r in sharded for row in r.get("shards", [])]
    m = {}

    batch_passes = sum(r["obs"].get("stream.shard_batches", 0) for r in sharded)
    passes = ledger["passes"] if ledger else []
    batch = passes[1:1 + batch_passes]
    rest = passes[1 + batch_passes:]
    m["source.pass1_s"] = passes[0]["source_s"] if passes else 0.0
    m["source.rescan_s"] = sum(p["source_s"] for p in passes[1:])
    m["source.passes"] = len(passes)
    decoded = [_decoded(p, i, reports[0]) for i, p in enumerate(passes)]
    m["source.fingerprints_decoded"] = sum(decoded)
    kept = (sum(row["input_fingerprints"] for row in shard_rows) +
            sum(_metric(r, "deferred_fingerprints") for r in sharded))
    m["source.useful_share"] = _ratio(kept, sum(decoded[1:]))

    m["plan.s"] = max(0.0, sum(_metric(r, "plan_seconds") for r in sharded) -
                      _span(spans, "stream.pass1.scan", "total_s"))
    m["plan.shards"] = sum(_metric(r, "shards") for r in sharded)
    m["plan.deferred_share"] = _ratio(
        sum(_metric(r, "deferred_fingerprints") for r in sharded),
        sum(r["io"]["pass_fingerprints"][0] for r in sharded))

    m["exec.phase_s"] = max(
        0.0, _span(spans, "stream.shard_batch", "total_s") - _pass_time(batch))
    m["exec.busy_s"] = sum(row["total_seconds"] for row in shard_rows)
    workers = max((r["exec"]["workers"] for r in sharded), default=0)
    m["exec.parallel_efficiency"] = _ratio(m["exec.busy_s"],
                                           workers * m["exec.phase_s"])
    m["exec.max_shard_s"] = max(
        (row["total_seconds"] for row in shard_rows), default=0.0)

    m["core.init_s"] = sum(r["timings"]["init_seconds"] for r in reports)
    m["core.merge_s"] = sum(r["timings"]["merge_seconds"] for r in reports)
    m["core.stretch_evaluations"] = sum(
        r["counters"]["stretch_evaluations"] for r in reports)
    m["core.heap.popped"] = counters.get("core.heap.popped", 0)
    m["core.heap.stale_share"] = _ratio(counters.get("core.heap.stale_skips", 0),
                                        m["core.heap.popped"])
    m["core.heap.refine_share"] = _ratio(counters.get("core.heap.refined", 0),
                                         counters.get("core.heap.seeded", 0))

    m["reconcile.s"] = max(
        0.0, sum(_metric(r, "reconcile_seconds") for r in sharded) -
        _pass_time(rest))
    m["reconcile.chunks"] = counters.get("stream.reconcile_chunks", 0)
    m["reconcile.max_chunk_s"] = _span(spans, "stream.reconcile.chunk", "max_s")
    m["reconcile.share"] = _ratio(m["reconcile.s"], engine_s)

    # Serve publishes snapshots outside Engine::run, through its own sinks.
    m["sink.write_s"] = (sum(p["sink_s"] for p in passes) if ledger else
                         _span(spans, "serve.publish.snapshot", "total_s"))
    m["sink.samples_written"] = counters.get("sink.samples_written", 0)

    m["serve.publish_s"] = _span(spans, "serve.publish", "total_s")
    m["serve.publish_max_s"] = _span(spans, "serve.publish", "max_s")
    m["serve.update_s"] = engine_s if serve else 0.0
    m["serve.snapshot_s"] = _span(spans, "serve.publish.snapshot", "total_s")
    m["serve.queue_block_waits"] = counters.get("serve.queue_block_waits", 0)
    m["serve.events_dropped_share"] = _ratio(
        counters.get("serve.events_dropped_published", 0),
        counters.get("serve.events_ingested", 0))

    inside_engine = (m["source.pass1_s"] + m["source.rescan_s"] + m["plan.s"] +
                     m["exec.phase_s"] + m["reconcile.s"] +
                     (m["sink.write_s"] if ledger else 0.0))
    m["layers.coverage_share"] = _ratio(inside_engine, engine_s)
    return m
