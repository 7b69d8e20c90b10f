"""The engine's layouts, each kept once, and plans on documents of many arguments.

A node table holds its applications' children in one array of child places,
with ``heads`` and ``args`` as views of it; wide documents score as the
per-pair metric does, whatever ``_CELLS`` cuts the passes into.
"""

import numpy as np
import pytest

from mathsim import engine
from mathsim.engine import NodeTable, Plan
from mathsim.mathml import Apply, Constant, FunctionSymbol, Variable, classify
from mathsim.metric import DECAY_KINDS, DEFAULT_COMMUTATIVE, sim
from mathsim.search import Corpus, DocumentRecord, Query, batch_search, search

from helpers import make_params

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
TWO, HALF = Constant("2"), Constant("0.5")
PLUS, MINUS = FunctionSymbol("plus", "arith1"), FunctionSymbol("minus", "arith1")
SIN = FunctionSymbol("sin", "transc1")
# A head that is no symbol: the inverse of sine.
F = Apply(FunctionSymbol("inverse", "fns1"), (SIN,))
# Repeated arguments give greedy ties: x scores zeta against y and z alike.
POOL = [X, Y, Z, TWO, HALF, Apply(SIN, (X,)), Apply(PLUS, (Y, X)), X, Y]


def _wide(head, width, shift):
    return Apply(head, tuple(POOL[(i * shift + i // 3) % len(POOL)] for i in range(width)))


# Commutative (plus), ordered symbol (minus) and non-symbol (F) heads, of 5,
# 40 and 300 arguments, one of them below the root.
WIDE_DOCS = [
    _wide(PLUS, 5, 1), _wide(MINUS, 5, 2), _wide(PLUS, 40, 4), _wide(MINUS, 40, 1),
    _wide(PLUS, 300, 2), _wide(MINUS, 300, 5), Apply(F, (_wide(PLUS, 40, 3), X)),
    Apply(SIN, (_wide(F, 300, 1),)),
]
WIDE_QUERIES = [
    Apply(head, args) for head in (PLUS, MINUS, F)
    for args in ((X,), (X, Y), (X, Y, Z), (TWO, X, Y, X), (Apply(SIN, (X,)), X, Y, Z, HALF, Y))
] + [Apply(SIN, (Apply(PLUS, (X, Y, Z)),)), X]


def _assert_children_kept_once(table: NodeTable) -> None:
    places = table.places
    assert places.flags.c_contiguous and not places.flags.writeable
    assert places.shape == (1 + table.args.shape[1], len(table.arity))
    for view in (table.heads, table.args, *table.args.T):
        assert np.shares_memory(view, places)
    copies = [table.args, table.args.T, np.column_stack([table.heads, table.args])]
    for name, value in vars(table).items():
        if name in ("places", "heads", "args"):
            continue
        arrays = [value] if isinstance(value, np.ndarray) else []
        if (isinstance(value, (list, tuple)) and value and all(isinstance(v, np.ndarray) for v in value)
                and len({v.shape for v in value}) == 1):
            arrays.append(np.stack(value))
        assert not any(np.array_equal(array, copy) for array in arrays for copy in copies), name


@pytest.mark.parametrize("inputs", ["bundled", "wide"])
def test_table_keeps_its_children_once(inputs, bundled_corpus, bundled_queries, bundled_symbols, bundled_params):
    if inputs == "bundled":
        corpus, queries = bundled_corpus, bundled_queries
    else:
        corpus = Corpus([DocumentRecord(f"d{i:02d}", "<mem>", t, classify(t)) for i, t in enumerate(WIDE_DOCS)])
        queries = Corpus([Query(f"q{i:02d}", t) for i, t in enumerate(WIDE_QUERIES)])
    commutative = bundled_symbols.commutative
    search(queries[0].tree, corpus, bundled_params, 5, commutative)
    batch_search(queries, corpus, bundled_params, {q.query_id: 5 for q in queries}, commutative)
    for table in (corpus.table, queries.table):
        _assert_children_kept_once(table)
    plan = queries.plan(corpus.table, commutative)
    for _, blocks in plan.heights:
        for block in blocks:
            assert all(np.shares_memory(place, queries.table.places) for place in block.places)


@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_wide_documents_equal_per_pair(kind, monkeypatch):
    params = make_params(omega=3.1, zeta=0.9, decay_model=kind, dp_rate=0.3, cp_rate=0.2)
    reference = np.array([[sim(q, d, params, DEFAULT_COMMUTATIVE) for d in WIDE_DOCS] for q in WIDE_QUERIES])
    docs, queries = NodeTable(WIDE_DOCS), NodeTable(WIDE_QUERIES)
    assert {5, 40, 300} <= set(docs.arity.tolist())
    for cells in (1, 8, engine._CELLS):
        monkeypatch.setattr(engine, "_CELLS", cells)
        plan = Plan(docs, queries, DEFAULT_COMMUTATIVE)
        assert any(block.greedy for _, blocks in plan.heights for block in blocks)
        assert plan(params).tobytes() == reference.tobytes(), cells
