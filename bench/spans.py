"""Spans for the traced run, recorded from outside the program.

A :class:`Recorder` replaces chosen functions with timing wrappers at the
names their callers look them up by (a module global or a class attribute),
and restores the originals on :meth:`Recorder.uninstall`.  Spans are kept in
memory as ``[name, start, end, parent, op]`` and written out once, at the
end.  The untraced run never creates a Recorder.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from pathlib import Path

from mathsim import cli, evaluation, optimizer

# The package re-exports the search() function under the submodule's name.
search = importlib.import_module("mathsim.search")

# (owner, attribute, span name).  Each owner is where the caller looks the
# name up, e.g. search() calls score_document through the search module's
# globals, and SearchObjective calls batch_search through the optimizer's.
TRACE_POINTS = (
    (search, "parse_expression", "mathml.parse"),
    (search, "load_corpus", "search.load_corpus"),
    (search, "score_document", "metric.score"),
    (search, "search", "search.search"),
    (search, "read_hitlists_csv", "search.read_hitlists"),
    (cli, "read_hitlists_csv", "search.read_hitlists"),
    (optimizer, "batch_search", "search.batch_search"),
    (optimizer, "evaluate", "evaluation.evaluate"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "read_ground_truth_csv", "evaluation.read_truth"),
    (evaluation.CriticalValueTable, "critical_value", "evaluation.critical_value"),
    (optimizer, "optimize_model", "optimizer.optimize_model"),
    (optimizer.SearchObjective, "__call__", "optimizer.objective"),
    (cli, "main", "cli.main"),
)


class Recorder:
    """Collects spans; ``op`` is the id of the operation now running (0 = set-up)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_spans[-1] if open_spans else -1, self.op])
            open_spans.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        for owner, attr, name in TRACE_POINTS:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write_csv(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([index, name, repr(start - origin), repr(end - origin), parent, op])

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, total seconds, self seconds and the durations.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["durations"].append(end - start)
        return out


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, zero for layers not reached."""
    layers = recorder.layers()

    def get(name: str, key: str) -> float:
        return layers[name][key] if name in layers else 0

    scores = layers.get("metric.score", {}).get("durations", [])
    return {
        "mathml.parse_calls": get("mathml.parse", "calls"),
        "mathml.parse_s": get("mathml.parse", "total_s"),
        "search.load_corpus_s": get("search.load_corpus", "total_s"),
        "metric.score_calls": get("metric.score", "calls"),
        "metric.score_s": get("metric.score", "total_s"),
        "metric.score_us_p50": statistics.median(scores) * 1e6 if scores else 0,
        "search.search_calls": get("search.search", "calls"),
        "search.search_self_s": get("search.search", "self_s"),
        "search.read_hitlists_s": get("search.read_hitlists", "total_s"),
        "evaluation.read_truth_s": get("evaluation.read_truth", "total_s"),
        "evaluation.evaluate_calls": get("evaluation.evaluate", "calls"),
        "evaluation.evaluate_s": get("evaluation.evaluate", "total_s"),
        "evaluation.critical_value_calls": get("evaluation.critical_value", "calls"),
        "evaluation.critical_value_s": get("evaluation.critical_value", "total_s"),
        "optimizer.objective_calls": get("optimizer.objective", "calls"),
        "optimizer.objective_s": get("optimizer.objective", "total_s"),
        "optimizer.self_s": get("optimizer.optimize_model", "self_s"),
        "cli.main_calls": get("cli.main", "calls"),
        "cli.self_s": get("cli.main", "self_s"),
    }
