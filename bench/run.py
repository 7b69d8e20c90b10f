"""The mathsim benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run one workload::

    python3 bench/run.py --workload search-synth --seed 1 --trace 0

or every workload, each in a process of its own, one after the other::

    python3 bench/run.py --seed 1

``--seconds`` is how long the timed loop of one workload measures; it
defaults to ``run_seconds`` in BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics with no instrumentation in the
program.  ``--trace 1`` is a separate run: it wraps the calls into each
layer (see spans.py), runs a fixed number of whole batches, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
full result, with provenance and sample counts, is written to
``bench/results/``.  The exit code is 1 when any output check fails and 2
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("tune-bundled", "search-synth", "evaluate-synth")
# Set-up is repeated at least this often, and until this much time is spent.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
PROBE_PAIRS = 10
# Every run has at least this many operations, so p90 has ten samples beyond it.
MIN_OPS = 100
# Longest one workload may take when run from the all-workloads command.
CHILD_TIMEOUT_S = 900


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def provenance(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    sources = sorted((ROOT / "src" / "mathsim").glob("*.py"))
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
    }


def _loop(workload, seconds: float, traced: bool):
    """Closed loop of whole batches; returns the seconds of each operation and of each batch.

    It stops only after a whole batch, so every run weighs the operations of
    a batch alike, and only once it has ``MIN_OPS`` operations.  Untraced,
    it also starts another batch while that batch should still end within
    ``seconds``; traced, it stops at ``MIN_OPS``, so that counts repeat from
    run to run.  An operation that raises ends the run without a result.
    """
    op_times: list[float] = []
    batch_times: list[float] = []
    loop_start = time.perf_counter()
    while True:
        batch_start = time.perf_counter()
        for _ in range(workload.batch_units):
            op_times.extend(workload.unit())
        end = time.perf_counter()
        batch_times.append(end - batch_start)
        if len(op_times) >= MIN_OPS and (traced or end - loop_start + batch_times[-1] > seconds):
            return op_times, batch_times


def measure(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (metrics with their sample counts, result details)."""
    import spans

    workload.prepare()
    recorder = None
    if trace:
        recorder = spans.Recorder()
        workload.recorder = recorder
        recorder.install()
        try:
            setup_times = [_timed(workload.setup)]
            op_times, batches = _loop(workload, seconds, traced=True)
        finally:
            recorder.uninstall()
    else:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            setup_times.append(_timed(workload.setup))
        op_times, batches = _loop(workload, seconds, traced=False)
    failures = workload.check()
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted = len(op_times)
    failed = min(attempted, workload.failed_ops + len(failures))
    result = {
        "attempted": attempted,
        "failed": failed,
        "properties": workload.properties(),
        "failures": failures,
    }

    if not trace:
        metrics = {
            "op_ms_p50": (statistics.median(op_times) * 1e3, len(op_times)),
            "op_ms_p90": (
                statistics.quantiles(op_times, n=10, method="inclusive")[8] * 1e3, len(op_times)
            ),
            "batch_s": (statistics.median(batches), len(batches)),
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "error_rate": (failed / attempted, attempted),
        }
        return metrics, result

    # Adjacent pairs see the same machine speed; the order alternates.
    ratios = []
    probe_recorder = spans.Recorder()
    for i in range(PROBE_PAIRS):
        seconds_by_mode = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                probe_recorder.install()
            try:
                seconds_by_mode[traced] = _timed(workload.probe)
            finally:
                probe_recorder.uninstall()
        ratios.append(seconds_by_mode[True] / seconds_by_mode[False])
    layer = spans.layer_metrics(recorder)
    metrics = {name: (value, None) for name, value in layer.items()}
    # Each ratio is given with its base.
    for name, value in workload.trial_ratios().items():
        metrics[name] = (value, layer["optimizer.objective_calls"])
    metrics["error_rate"] = (failed / attempted, attempted)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) - 1, PROBE_PAIRS)
    result["recorder"] = recorder
    return metrics, result


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}

    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, work)
    try:
        metrics, result = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    recorder = result.pop("recorder", None)
    if recorder is not None:
        recorder.write_csv(RESULTS / f"{stem}.spans.csv")
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        **provenance(seed),
        **result,
        "metrics": {
            metric: {"value": value, "unit": declared.get(metric, "ratio"), "samples": samples}
            for metric, (value, samples) in metrics.items()
        },
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    labels = {
        "op_ms_p50": f"{workload.op_name}_p50",
        "op_ms_p90": f"{workload.op_name}_p90",
        "batch_s": workload.batch_name,
    }
    print(f"== {name}  seed={seed}  trace={int(trace)}  commit={record['commit'][:12]}"
          f"  nproc={record['nproc']}  python={record['python']}  numpy={record['numpy']}"
          f"  src_lines={record['src_lines']}")
    print("   properties: " + json.dumps(result["properties"]))
    for metric, entry in record["metrics"].items():
        label = f"{metric} ({labels[metric]})" if metric in labels else metric
        samples = "" if entry["samples"] is None else f"n={entry['samples']}"
        print(f"   {label:<44} {entry['value']:>14.6g} {entry['unit']:<6} {samples}")
    print(f"   results: {RESULTS / stem}.json")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": record["metrics"][m]["value"], "unit": declared[m]}
                    for m in declared},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a process of its own; fails if any workload fails."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"error: {name} did not end within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            returncode, result = 1, failed
        else:
            returncode = done.returncode
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = failed
        if returncode != 0 or not result["correct"]:
            status = 1
            combined["correct"] = False
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one workload's timed loop "
                             "(default: run_seconds in BENCHMARK.json); the traced run ignores it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/mathsim", "assets", "config.json") if not (ROOT / p).exists()]
    if missing:
        print(f"error: the benchmark needs the mathsim checkout around it; missing: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
