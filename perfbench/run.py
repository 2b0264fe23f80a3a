#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 perfbench/run.py --workload mine-batch|annotate-read|ingest-mixed
                             [--seed 1] [--seconds 10] [--trace 0|1]

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the library from src/ plus the driver) into
.bench_build/; later runs reuse the build. Inputs are generated from the
seed into .bench_build/inputs/ and reused while they are there. The
driver's `load {...}` line (seed, input sizes, threads, rates) and the
result go to stdout, the result object last; the pair is also kept in
.bench_build/results/. An untraced run then starts fresh `csd_perfbench
setup` processes and reports as setup_s the median of their set-up
times and the run's own. The exit status is 0 when every output check
held, 1 when one failed or the metrics break the declared contract, and
2 when the benchmark cannot be built or run here.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
KEEP_INPUT_SETS = 12  # per workload

# Every run reports every end-to-end metric (untraced) or every per-layer
# metric (traced) that BENCHMARK.json declares. END_TO_END is the same
# for all workloads; headline_s is each workload's own gated figure
# (perfbench/README.md). WORKLOAD_LAYERS lists the per-layer metrics a
# workload measures; a traced run reports the other declared ones as 0,
# since the layers behind them do no work in that workload.
END_TO_END = ["setup_s", "peak_rss_mb", "headline_s"]
_SETUP_LAYERS = [
    "trace.setup_s", "setup.unattributed_s", "io.read_pois_s", "io.read_journeys_s", "poi.db_build_s",
    "core.popularity_s", "core.popularity_clustering_s",
    "core.purification_s", "core.unit_merging_s",
    "shard.stage_caches_s", "shard.build_s", "shard.halo_ratio",
    "serve.snapshot_build_s", "pool.tasks", "pool.steals", "pool.loops",
]
_SERVE_LAYERS = [
    "net.read_burst_s", "net.write_burst_s", "net.frames_read",
    "net.bytes_read", "net.bytes_written", "net.backpressure_stalls",
    "net.shed", "serve.batch_execute_s", "serve.batches",
    "serve.batch_size_mean", "serve.queue_wait_p50_ms",
    "serve.server_latency_p99_ms", "serve.rejected",
    "serve.deadline_exceeded", "unattributed_s", "gen.late_p99_ms",
]
WORKLOAD_LAYERS = {
    "mine-batch": [
        "trace.setup_s", "setup.unattributed_s", "io.read_pois_s",
        "io.read_journeys_s", "poi.db_build_s", "core.popularity_s",
        "core.popularity_clustering_s", "core.purification_s",
        "core.unit_merging_s", "core.annotate_s", "core.stays_annotated",
        "seqmine.mine_s", "seqmine.patterns", "cluster.optics_s",
        "cluster.optics_runs", "cluster.optics_points", "miner.refine_s",
        "miner.evaluate_s", "miner.unattributed_s", "unattributed_s",
        "pool.tasks", "pool.steals", "pool.loops", "trace.pipeline_s",
        "trace.overhead_pipeline_s",
    ],
    "annotate-read": _SETUP_LAYERS + _SERVE_LAYERS + [
        "trace.annotate_p50_ms", "trace.overhead_annotate_p50_ms",
        "trace.annotate_cpu_ms_per_1k", "serve.cpu_unattributed_ms_per_1k",
        "client.annotate_p50_ms", "client.annotate_p99_ms",
        "annotate_capacity_qps",
    ],
    "ingest-mixed": _SETUP_LAYERS + _SERVE_LAYERS + [
        "client.annotate_p50_ms", "client.annotate_p99_ms",
        "client.ingest_ack_p99_ms", "freshness.mean_s",
        "freshness.fold_lag_s", "freshness.tick_wait_s",
        "freshness.publish_s", "serve.publish_shard_s",
        "serve.publish_all_s", "stream.fold_s", "stream.fixes",
        "stream.stays_emitted", "stream.late_dropped", "stream.tick_s",
        "stream.tick_s.early", "stream.tick_s.late",
        "stream.history_stays.early", "stream.history_stays.late",
        "stream.dirty_shards_per_tick", "stream.in_tile_absorb_ratio",
        "stream.pending_stays_max", "stream.history_stays",
    ],
}

# Set-ups from process start per untraced run, the run's own included:
# setup_s is their median. mine-batch loads in ~0.1 s, so it repeats
# more often.
SETUP_PROCESSES = {"mine-batch": 9, "annotate-read": 3, "ingest-mixed": 3}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def declared_metrics(benchmark, kind):
    """{name: unit} of BENCHMARK.json's `kind` list."""
    return {m["name"]: m["unit"] for m in benchmark[kind]}


def check_declarations(benchmark):
    """Problems with the lists above against BENCHMARK.json."""
    problems = []
    workloads = {w["name"] for w in benchmark["workloads"]}
    if workloads != set(WORKLOAD_LAYERS):
        problems.append("workloads %s != %s" %
                        (sorted(workloads), sorted(WORKLOAD_LAYERS)))
    reported = {
        "end_to_end": set(END_TO_END),
        "per_layer": set().union(*WORKLOAD_LAYERS.values()),
    }
    for kind, used in reported.items():
        declared = declared_metrics(benchmark, kind)
        for name in sorted(used - set(declared)):
            problems.append("%s metric %s is not declared" % (kind, name))
        for name in sorted(set(declared) - used):
            problems.append("%s metric %s is reported by no workload" %
                            (kind, name))
        for name, unit in declared.items():
            if not NAME_RE.match(name):
                problems.append("bad metric name %r" % name)
            if not UNIT_RE.match(unit):
                problems.append("bad unit %r for %s" % (unit, name))
    return problems


def check_metrics(benchmark, workload, trace, metrics):
    """Problems with the driver's metrics for one run: exactly the ones
    the workload measures, declared units, finite numbers."""
    kind = "per_layer" if trace else "end_to_end"
    declared = declared_metrics(benchmark, kind)
    expected = WORKLOAD_LAYERS[workload] if trace else END_TO_END
    problems = []
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metrics differ: missing %s, unexpected %s" %
                        (missing, extra))
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"}:
            problems.append("%s: keys %s" % (name, sorted(metric)))
            continue
        value = metric["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append("%s: value %r is not a finite number" %
                            (name, value))
        if name in declared and metric["unit"] != declared[name]:
            problems.append("%s: unit %r, declared %r" %
                            (name, metric["unit"], declared[name]))
    return problems


def add_bypassed_layers(benchmark, metrics):
    """Adds, as 0, each declared per-layer metric the workload's layers
    did not measure: the layer did no work in it."""
    for name, unit in declared_metrics(benchmark, "per_layer").items():
        metrics.setdefault(name, {"value": 0, "unit": unit})


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no src/ beside perfbench/: run from a full "
                           "source checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run([cmake, "--build", BUILD_DIR, "--target", "csd_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "csd_perfbench")


def inputs(binary, workload, seed, seconds):
    """Generates the inputs once per (workload, seed, seconds)."""
    root = os.path.join(BUILD_DIR, "inputs")
    name = "%s-s%d-t%g" % (workload, seed, seconds)
    path = os.path.join(root, name)
    if os.path.isfile(os.path.join(path, ".done")):
        os.utime(path)
        return path
    os.makedirs(root, exist_ok=True)
    sets = sorted((os.path.join(root, d) for d in os.listdir(root)
                   if d.startswith(workload + "-s")),
                  key=os.path.getmtime)
    for old in sets[:max(0, len(sets) - KEEP_INPUT_SETS + 1)]:
        shutil.rmtree(old, ignore_errors=True)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    log("generating %s inputs for seed %d" % (workload, seed))
    subprocess.run([binary, "gen", "--workload", workload, "--seed",
                    str(seed), "--seconds", "%g" % seconds, "--dir", tmp],
                   check=True, stdout=sys.stderr)
    open(os.path.join(tmp, ".done"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    return path


def setup_seconds(binary, workload, data, count):
    """Set-up times of `count` fresh `setup` processes; None if one
    fails."""
    times = []
    for _ in range(count):
        proc = subprocess.run([binary, "setup", "--workload", workload,
                               "--dir", data],
                              stdout=subprocess.PIPE, text=True)
        try:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                         ["setup_s"])
        except (IndexError, ValueError, KeyError):
            return None
        if proc.returncode != 0:
            return None
    return times


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_LAYERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        problems = check_declarations(benchmark)
        if problems:
            raise RuntimeError("BENCHMARK.json: " + "; ".join(problems))
        binary = build()
        data = inputs(binary, args.workload, args.seed, args.seconds)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.CalledProcessError) as e:
        log("cannot run: %s" % e)
        return 2

    proc = subprocess.run(
        [binary, "run", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", "%g" % args.seconds, "--trace",
         str(args.trace), "--dir", data],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no result (exit %d)" % proc.returncode)
        return 2
    for line in lines[:-1]:
        print(line)
    if (not args.trace and proc.returncode == 0 and result.get("correct")
            and "setup_s" in result.get("metrics", {})):
        more = setup_seconds(binary, args.workload, data,
                             SETUP_PROCESSES[args.workload] - 1)
        if more is None:
            log("a set-up process failed")
            result["correct"] = False
        else:
            times = [result["metrics"]["setup_s"]["value"]] + more
            log("set-up from process start: %s s" %
                ", ".join("%.3f" % t for t in times))
            result["metrics"]["setup_s"]["value"] = statistics.median(times)

    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-s%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        f.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")

    if proc.returncode != 0 or not result.get("correct"):
        print(json.dumps(result))
        return 1
    problems = check_metrics(benchmark, args.workload, args.trace,
                             result["metrics"])
    if problems:
        log("result breaks the contract: " + "; ".join(problems))
        return 1
    if args.trace:
        add_bypassed_layers(benchmark, result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
