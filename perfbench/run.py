#!/usr/bin/env python3
"""GLOVE end-to-end benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the library, the binaries
the workloads drive and the benchmark harness into `.bench_build`
(Release), generates the workload's datasets from --seed, then runs them
one at a time for --seconds and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every untraced run is
paired with a traced one and the metrics are the per-layer ones.  The line
before it is the full record of the run with its machine context, which
is also appended to `.bench_build/perfbench/results.jsonl`.

See perfbench/README.md for the workloads, the metrics and what each
per-layer metric is expected to move.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import trace_summary  # noqa: E402
import verify  # noqa: E402

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
RESULTS = BUILD / "perfbench" / "results.jsonl"
HARNESS = BUILD / "perfbench_harness"
ANONYMIZE_CSV = BUILD / "glove" / "examples" / "example_anonymize_csv"
GEN_CDR_STREAM = BUILD / "glove" / "examples" / "example_gen_cdr_stream"
TARGETS = ["perfbench_harness", "example_anonymize_csv",
           "example_gen_cdr_stream"]

# Thread pools pinned so a host with more cores runs the same config.
THREADS = 4
PINS = {"GLOVE_THREADS": THREADS, "shard_workers": THREADS}
# A run takes a few seconds; one that hangs is killed and counted failed.
RUN_TIMEOUT_S = 60
# The set-up step of each dataset is timed this many times: one timing of
# a sub-second step moves with every hiccup of the host.
SETUP_REPS = 5
# Earlier records whose releases a run's release digests must match.
SAME_BUILD = ("workload", "source_digest", "build_type", "compiler")

# Each run anonymizes `datasets` inputs generated from sub-seeds of --seed
# and reports medians over them: one input's cost moves by 10-15% between
# seeds (the serial reconcile chunks and the shard-to-worker packing are
# lumpy), and the median over several inputs is what stays steady.
#
# The out-of-core CSV shape ("csv_rescan_k2": 12,000 users, 1 day, CSV
# input, --border=none --shard-users=100) is not pinned: about 1% of its
# runs died with SIGSEGV, and a pinned workload must not fail.  Add it
# back, with a set-up step of its own, once that crash is fixed.
WORKLOADS = {
    "city_halo_k2": {
        "kind": "anonymize", "users": 8000, "days": 2, "datasets": 6,
        "flags": ["--strategy=sharded", "--k=2", "--border=halo",
                  "--tile-km=0", "--shard-users=2000",
                  "--executor=inprocess"],
    },
    "serve_replay_k5": {
        "kind": "serve", "users": 8000, "days": 3, "datasets": 6,
        "flags": ["--window-min=120", "--k=5"],
    },
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"), ("pos_err_mean_km", "km"),
              ("time_err_mean_min", "min")]
QUALITY = ["pos_err_mean_km", "pos_err_median_km", "time_err_mean_min",
           "time_err_median_min", "suppressed_users_share"]


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def check_output(command, **kwargs):
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, **kwargs)
    if result.returncode != 0:
        raise BenchError(f"{' '.join(map(str, command))} failed "
                         f"({result.returncode}):\n{result.stdout[-4000:]}")
    return result.stdout


def last_json_line(text, key):
    """The last line of `text` that is a JSON object starting with `key`."""
    prefix = '{"' + key + '"'
    lines = [line for line in text.splitlines() if line.startswith(prefix)]
    if not lines:
        raise BenchError(f"no {key} line in:\n{text[-2000:]}")
    return json.loads(lines[-1])


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a GLOVE source checkout "
                         "(no CMakeLists.txt / src)")
    if not (BUILD / "CMakeCache.txt").is_file():
        check_output(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    check_output(["cmake", "--build", str(BUILD), "-j", str(THREADS),
                  "--target", *TARGETS])


def timed(command, log_path):
    """Runs `command` to completion; returns (exit status, wall s, cpu s,
    peak RSS MiB) of the process and the children it waited for."""
    env = dict(os.environ, GLOVE_THREADS=str(THREADS))
    with open(log_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        process = subprocess.Popen(command, stdout=out,
                                   stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(RUN_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return (process.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def prepare(spec, seed, work):
    """Generates the run's datasets; returns (inputs, setup seconds).

    Generation is not timed.  Set-up is the program's step that readies a
    generated file for the run, timed SETUP_REPS times per dataset: the
    CSV -> glovebin conversion for `anonymize` workloads, and for `serve`
    one parse of the event stream with cdr::CdrEventReader
    (`perfbench_harness scan`), whose event count the verifier then holds
    the daemon to.
    """
    inputs, setup = [], []
    for index in range(spec["datasets"]):
        sub_seed = seed * 1000 + index
        sizing = [f"--users={spec['users']}", f"--days={spec['days']}",
                  f"--seed={sub_seed}"]
        csv = work / f"input-{index}.csv"
        entry = {"index": index, "seed": sub_seed, "csv": csv}
        if spec["kind"] == "serve":
            check_output([GEN_CDR_STREAM, f"--output={csv}", *sizing])
            entry["run_input"] = csv
            step = [HARNESS, "scan", f"--input={csv}"]
        else:
            check_output([ANONYMIZE_CSV, f"--synth-dataset={csv}", *sizing])
            entry["run_input"] = work / f"input-{index}.glovebin"
            step = [ANONYMIZE_CSV, "--convert", f"--input={csv}",
                    f"--output={entry['run_input']}"]
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            output = check_output(step)
            setup.append(time.perf_counter() - start)
        if spec["kind"] == "serve":
            entry["events"] = last_json_line(output, "events")["events"]
        inputs.append(entry)
    return inputs, setup


class Rep:
    """One harness run over one dataset."""

    def __init__(self, spec, entry, work, traced):
        tag = f"{entry['index']}-{'t' if traced else 'u'}"
        self.spec, self.entry, self.traced = spec, entry, traced
        self.ledger_problems = []
        self.log = work / f"log-{tag}.txt"
        self.metrics = work / f"metrics-{tag}.txt"
        self.trace = work / f"trace-{tag}.json"
        self.ledger = work / f"ledger-{tag}.json"
        flags = [f"--input={entry['run_input']}",
                 f"--shard-workers={THREADS}", *spec["flags"]]
        if spec["kind"] == "serve":
            self.out = work / f"serve-{tag}"
            command = [HARNESS, "serve", f"--out-dir={self.out}"]
        else:
            self.out = work / f"release-{tag}.csv"
            self.report = work / f"report-{tag}.json"
            command = [HARNESS, "anonymize", f"--output={self.out}",
                       f"--report={self.report}"]
            if traced:
                flags.append(f"--layers-out={self.ledger}")
        if traced:
            flags += [f"--trace-out={self.trace}",
                      f"--metrics-out={self.metrics}"]
        self.command = [*command, *flags]

    def run(self):
        if self.spec["kind"] == "serve":
            shutil.rmtree(self.out, ignore_errors=True)
        self.status, self.wall, self.cpu, self.rss = timed(self.command,
                                                           self.log)
        if self.status != 0:
            self.log_tail = " | ".join(self.log.read_text().splitlines()[-3:])
            return
        self.reports = [json.loads(path.read_text()) for path in self.report_paths()]
        self.digest = verify.release_digest(self.release_paths())
        if self.spec["kind"] == "serve":
            self.events_ingested = last_json_line(
                self.log.read_text(), "events_ingested")["events_ingested"]
        if self.traced:
            ledger = (json.loads(self.ledger.read_text())
                      if self.spec["kind"] == "anonymize" else None)
            self.layer = layers.layer_metrics(
                self.reports, ledger, trace_summary.load(self.trace),
                layers.parse_metrics_text(self.metrics.read_text()),
                serve=self.spec["kind"] == "serve")
            self.ledger_problems = (layers.ledger_problems(self.reports[0], ledger)
                                    if ledger else [])

    def report_paths(self):
        if self.spec["kind"] == "serve":
            return sorted(self.out.glob("report-*.json"))
        return [self.report]

    def release_paths(self):
        if self.spec["kind"] == "serve":
            return sorted(self.out.glob("snapshot-*.csv"))
        return [self.out]

    def plane(self):
        """What must not change between a traced and an untraced run: the
        per-pass source counts and the deterministic obs counters."""
        return [(r["io"]["pass_fingerprints"], r["io"]["pass_blocks"],
                 {name: value for name, value in r["obs"].items()
                  if not name.startswith("serve.")}) for r in self.reports]


def verify_dataset(spec, rep):
    """Problems in the release of one dataset (checked once per dataset;
    every other run of it must match its digest)."""
    k = int(next(f for f in spec["flags"] if f.startswith("--k="))[4:])
    input_users = verify.dataset_users(rep.entry["csv"])
    suppressed = sum(r["counters"]["discarded_fingerprints"] for r in rep.reports)
    snapshots = [verify.read_groups(path) for path in rep.release_paths()]
    if not snapshots:
        return ["no release was published"]
    problems = []
    if spec["kind"] == "serve" and rep.events_ingested != rep.entry["events"]:
        problems.append(f"daemon ingested {rep.events_ingested} of "
                        f"{rep.entry['events']} events")
    for epoch, groups in enumerate(snapshots[:-1], start=1):
        published = {user for group in groups for user in group}
        problems += verify.check_release(groups, k, published, 0)
        problems += verify.check_epochs(groups, snapshots[epoch], epoch)
    problems += verify.check_release(snapshots[-1], k, input_users, suppressed)
    return problems


def accuracy(rep):
    output = check_output([HARNESS, "accuracy",
                           f"--release={rep.release_paths()[-1]}"])
    return json.loads(output.strip().splitlines()[-1])


def earlier_digests(results_path, context):
    """{sub-seed: set of release digests} recorded in `results_path` by
    earlier runs of the same workload built from the same sources."""
    seen = {}
    if not results_path.is_file():
        return seen
    for line in results_path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # a record cut short by a killed run
        earlier = record.get("context", {})
        if any(earlier.get(key) != context[key] for key in SAME_BUILD):
            continue
        for sub_seed, digest in record.get("digests", {}).items():
            seen.setdefault(int(sub_seed), set()).add(digest)
    return seen


def run_workload(name, seed, seconds, traced, earlier):
    spec = WORKLOADS[name]
    work = BUILD / "work" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(spec, seed, seconds, traced, earlier, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(spec, seed, seconds, traced, earlier, work):
    inputs, setup = prepare(spec, seed, work)
    reps = {entry["index"]: [] for entry in inputs}

    def run_once(entry):
        for is_traced in ([False, True] if traced else [False]):
            rep = Rep(spec, entry, work, is_traced)
            rep.run()
            reps[entry["index"]].append(rep)

    start = time.perf_counter()
    # Round-robin over the datasets until the window closes, but run each
    # at least once.
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for entry in inputs:
            if rounds > 0 and time.perf_counter() - start >= seconds:
                break
            run_once(entry)
        rounds += 1
    # Every run checks that the program publishes the same release twice:
    # when the window held one round only, the first dataset runs again.
    if all(len(runs) < 2 for runs in reps.values()):
        run_once(inputs[0])

    attempted = sum(len(runs) for runs in reps.values())
    failed = 0
    problems = []
    per_dataset = []
    digests = {}
    for entry in inputs:
        runs = reps[entry["index"]]
        ok = [rep for rep in runs if rep.status == 0]
        failed += len(runs) - len(ok)
        for rep in runs:
            if rep.status != 0:
                problems.append(f"dataset {entry['index']}: exit "
                                f"{rep.status}: {rep.log_tail}")
        if not ok:
            continue
        reference = ok[0]
        dataset_problems = verify_dataset(spec, reference)
        for rep in ok[1:]:
            if rep.digest != reference.digest:
                dataset_problems.append("release digest differs between runs")
            if rep.plane() != reference.plane():
                dataset_problems.append(
                    "source passes or obs counters differ between runs")
        for rep in ok:
            dataset_problems += rep.ledger_problems
        if earlier.get(entry["seed"], {reference.digest}) != {reference.digest}:
            dataset_problems.append("release digest differs from an earlier "
                                    "run of the same sources")
        if dataset_problems:
            failed += len(ok)
            problems += [f"dataset {entry['index']}: {p}" for p in dataset_problems]
            continue
        if any(not rep.traced for rep in ok):
            digests[str(entry["seed"])] = reference.digest
            per_dataset.append(summarize_dataset(ok, reference))

    if not per_dataset:
        raise BenchError("no dataset produced a valid release:\n" +
                         "\n".join(problems))
    # Costs are medians over the datasets, which a burst of interference
    # from outside the benchmark moves less than a mean; release quality
    # is deterministic per dataset and is averaged.
    def median(key):
        return statistics.median(d[key] for d in per_dataset)

    def mean(key):
        return statistics.fmean(d[key] for d in per_dataset)

    end_to_end = {
        "wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
        "peak_rss_mib": median("peak_rss_mib"),
        "setup_s": statistics.median(setup),
        "pos_err_mean_km": mean("pos_err_mean_km"),
        "time_err_mean_min": mean("time_err_mean_min"),
    }
    extra = {
        "failed_share": failed / attempted,
        "quality": {key: mean(key) for key in QUALITY},
        "datasets": len(inputs), "runs": attempted,
        "digests": digests,
        "problems": problems,
    }
    per_layer = {}
    if traced:
        # Datasets whose traced runs all failed have no layer figures.
        layered = [d for d in per_dataset if "traced_wall_s" in d]
        if not layered:
            raise BenchError("no traced run succeeded:\n" + "\n".join(problems))
        for metric_name, _ in layers.PER_LAYER:
            if metric_name != "trace.overhead_share":
                per_layer[metric_name] = statistics.median(
                    d[metric_name] for d in layered)
        per_layer["trace.overhead_share"] = (
            sum(d["traced_wall_s"] for d in layered) /
            sum(d["wall_s"] for d in layered) - 1.0)
    return attempted, failed, end_to_end, per_layer, extra


def summarize_dataset(ok, reference):
    """Medians over one dataset's runs, plus its release quality."""
    plain = [rep for rep in ok if not rep.traced]
    traced = [rep for rep in ok if rep.traced]
    quality = accuracy(reference)
    input_users = reference.reports[-1]["counters"]["input_users"]
    suppressed = sum(r["counters"]["discarded_fingerprints"]
                     for r in reference.reports)
    summary = {
        "wall_s": statistics.median(rep.wall for rep in plain),
        "cpu_s": statistics.median(rep.cpu for rep in plain),
        "peak_rss_mib": statistics.median(rep.rss for rep in plain),
        "suppressed_users_share": suppressed / max(input_users, 1),
        **quality,
    }
    if traced:
        summary["traced_wall_s"] = statistics.median(rep.wall for rep in traced)
        for metric_name, _ in layers.PER_LAYER:
            if metric_name != "trace.overhead_share":
                summary[metric_name] = statistics.median(
                    rep.layer[metric_name] for rep in traced)
    return summary


def machine_context(workload, seed, seconds, traced):
    cache = {}
    cache_path = BUILD / "CMakeCache.txt"
    if cache_path.is_file():
        for line in cache_path.read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        compiler = check_output([compiler, "--version"]).splitlines()[0]
    except (BenchError, OSError, IndexError):
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = check_output(["git", "rev-parse", "HEAD"], cwd=ROOT).strip()
        except (BenchError, OSError):
            pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE"), "compiler": compiler,
        "git_sha": sha, "source_digest": source_digest(),
        "thread_pins": PINS, "host": platform.node(),
        "platform": platform.platform(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def source_digest():
    """sha256 over the program sources and the benchmark files that shape
    a run, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "examples", "CMakeLists.txt", "perfbench/run.py",
                "perfbench/harness.cpp", "perfbench/CMakeLists.txt"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted(
            p for p in (ROOT / top).rglob("*") if p.is_file())
        for path in paths:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    traced = args.trace == 1
    try:
        build()
        context = machine_context(args.workload, args.seed, args.seconds,
                                  traced)
        attempted, failed, end_to_end, per_layer, extra = run_workload(
            args.workload, args.seed, args.seconds, traced,
            earlier_digests(RESULTS, context))
    except BenchError as error:
        log(f"error: {error}")
        return 1
    for problem in extra["problems"]:
        log(problem)
    units = dict(layers.PER_LAYER if traced else END_TO_END)
    values = per_layer if traced else end_to_end
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    record = {"context": context, "end_to_end": end_to_end,
              "per_layer": per_layer, **extra}
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    with open(RESULTS, "a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
