"""The benchmark (bench/workloads.py) calls the package with positional
arguments and a few keyword ones; each entry here is one of those calls, by
the parameter name every argument must land on.  Binding the names
themselves as values means a refactor that removes, renames or reorders a
parameter fails here, in tier-1, rather than in the benchmark.  So does a
refactor that moves a name the benchmark's tracer (bench/spans.py) wraps.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from mathsim import evaluation, metric, optimizer, search

CALLS = [
    (optimizer.SearchObjective,
     ("corpus", "queries", "truths", "weights", "commutative", "table"), ()),
    (optimizer.SearchObjective.__call__, ("self", "params"), ()),
    (search.search, ("query", "corpus", "params", "n", "commutative"), ("query_id",)),
    (metric.score_document, ("query", "doc", "doc_class", "params", "commutative"), ()),
    (optimizer.optimize_model, ("model", "space", "seed_params", "objective_fn"), ()),
    (evaluation.evaluate, ("hitlists", "truths", "table"), ()),
    (evaluation.read_ground_truth_csv, ("path",), ()),
    (search.read_hitlists_csv, ("path",), ()),
    (optimizer.load_param_space, ("path",), ()),
    (metric.load_params, ("path",), ()),
    (optimizer.write_run_json, ("run", "path"), ()),
    (evaluation.write_report_json, ("report", "path"), ()),
    (evaluation.CriticalValueTable, (), ("seed",)),
    (evaluation.CriticalValueTable, (), ("cache_path",)),
]


def call_id(fn, positional, keywords):
    # Keyword-only calls of one function differ by their keyword.
    return fn.__qualname__ if positional else f"{fn.__qualname__}({', '.join(keywords)}=)"


@pytest.mark.parametrize(
    "fn,positional,keywords", CALLS, ids=[call_id(*call) for call in CALLS]
)
def test_benchmark_call_binds(fn, positional, keywords):
    bound = inspect.signature(fn).bind(*positional, **{name: name for name in keywords})
    assert bound.arguments == {name: name for name in (*positional, *keywords)}


def _load_spans():
    """bench/spans.py, loaded from its file, as bench/run.py imports it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_points_bind():
    # Recorder.install looks each one up in vars(owner) and raises KeyError if it is gone.
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in _load_spans().TRACE_POINTS if attr not in vars(owner)]
    assert missing == []


def test_objective_calls_through_optimizer_globals(monkeypatch, bundled_corpus, bundled_queries,
                                                   bundled_truths, bundled_symbols, bundled_params,
                                                   mc_table):
    # The benchmark's batch_search and evaluate spans wrap these two names in
    # optimizer's globals; a call that bypassed them would go untimed.
    calls = []
    for name in ("batch_search", "evaluate"):
        original = getattr(optimizer, name)

        def recorder(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, recorder)
    objective_fn = optimizer.SearchObjective(
        bundled_corpus, bundled_queries, bundled_truths, optimizer.ObjectiveWeights(),
        bundled_symbols.commutative, mc_table,
    )
    objective_fn(bundled_params)
    assert calls == ["batch_search", "evaluate"]
