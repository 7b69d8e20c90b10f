"""The benchmark (bench/workloads.py) calls the package with positional
arguments and a few keyword ones; each entry here is one of those calls, by
the parameter name every argument must land on.  Binding the names
themselves as values means a refactor that removes, renames or reorders a
parameter fails here, in tier-1, rather than in the benchmark.
"""

import inspect

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
