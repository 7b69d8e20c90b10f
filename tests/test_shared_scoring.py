"""The all-pairs engine behind search() against the per-pair reference.

search() and batch_search() score every query against every document at once,
over node tables compiled from the distinct subtrees.  Every score must equal,
bit for bit, what score_document gives for the pair on its own.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathsim import engine
from mathsim.engine import NodeTable, similarities
from mathsim.mathml import (
    Apply,
    Constant,
    FunctionSymbol,
    Variable,
    classify,
    iter_subtrees,
    parse_expression,
    serialize_expression,
)
from mathsim.metric import DECAY_KINDS, score_document, sim
from mathsim.search import (
    Corpus,
    DocumentRecord,
    Query,
    batch_search,
    load_corpus,
    load_queries,
    search,
)

from helpers import make_params, params_strategy, random_params, random_tree, tree_strategy

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
TWO, HALF = Constant("2"), Constant("0.5")
PLUS, TIMES = FunctionSymbol("plus", "arith1"), FunctionSymbol("times", "arith1")
MINUS, SIN = FunctionSymbol("minus", "arith1"), FunctionSymbol("sin", "transc1")


def ranked_reference(query, corpus, params, commutative):
    scored = [
        (d.doc_id, score_document(query, d.tree, d.formula_class, params, commutative))
        for d in corpus
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(scored)


def assert_shared_equals_per_pair(queries, corpus, params, commutative):
    reference = {q.query_id: ranked_reference(q.tree, corpus, params, commutative) for q in queries}
    n = len(corpus)
    for q in queries:
        got = search(q.tree, corpus, params, n, commutative, query_id=q.query_id)
        assert got.hits == reference[q.query_id]
        assert all(type(score) is float for _, score in got.hits)
    sizes = {q.query_id: n for q in queries}
    for got in batch_search(queries, corpus, params, sizes, commutative):
        assert got.hits == reference[got.query_id]


def plain_corpus(trees):
    """Documents in a plain list, as tests build them: nothing is interned."""
    return [DocumentRecord(f"d{i:02d}", "<mem>", t, classify(t)) for i, t in enumerate(trees)]


def plain_queries(trees):
    return [Query(f"q{i:02d}", t) for i, t in enumerate(trees)]


def write_random_inputs(directory, seed):
    """Seeded documents and queries composed from a small pool of subtrees."""
    rng = random.Random(seed)
    pool = [random_tree(rng, max_height=3, max_fanout=3) for _ in range(8)]

    def compose(height):
        if height == 0 or rng.random() < 0.3:
            return rng.choice(pool)
        head = FunctionSymbol(rng.choice(("plus", "times", "minus")), "arith1")
        return Apply(head, tuple(compose(height - 1) for _ in range(rng.randint(1, 3))))

    for sub, prefix, count, height in (("corpus", "d", 30, 3), ("queries", "q", 5, 2)):
        (directory / sub).mkdir()
        for i in range(count):
            text = f"<math>{serialize_expression(compose(height))}</math>"
            (directory / sub / f"{prefix}{i:02d}.xml").write_text(text, encoding="utf-8")
    return load_corpus(directory / "corpus"), load_queries(directory / "queries")


def all_subtrees(trees):
    return [node for tree in trees for _, node in iter_subtrees(tree)]


@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_bundled_scores_equal_per_pair(kind, bundled_corpus, bundled_queries, bundled_symbols):
    rng = random.Random(DECAY_KINDS.index(kind))
    for params in (random_params(rng, kind), random_params(rng, kind)):
        assert_shared_equals_per_pair(
            bundled_queries, bundled_corpus, params, bundled_symbols.commutative
        )


@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_random_corpus_scores_equal_per_pair(kind, tmp_path, bundled_symbols):
    corpus, queries = write_random_inputs(tmp_path, seed=811)
    trees = [d.tree for d in corpus]
    assert len(set(all_subtrees(trees))) < len(all_subtrees(trees)) / 2
    rng = random.Random(97 + DECAY_KINDS.index(kind))
    for params in (random_params(rng, kind), random_params(rng, kind)):
        assert_shared_equals_per_pair(queries, corpus, params, bundled_symbols.commutative)


def test_loaded_trees_equal_plain_parse(assets_dir, bundled_corpus, bundled_queries):
    for record in bundled_corpus:
        text = open(record.source_path, encoding="utf-8").read()
        assert record.tree == parse_expression(text)
    for query in bundled_queries:
        text = (assets_dir / "queries" / f"{query.query_id}.xml").read_text(encoding="utf-8")
        assert query.tree == parse_expression(text)


@pytest.mark.parametrize("trees", ["corpus", "queries"])
def test_equal_subtrees_share_identity(trees, bundled_corpus, bundled_queries):
    roots = [d.tree for d in bundled_corpus] if trees == "corpus" else [q.tree for q in bundled_queries]
    subtrees = all_subtrees(roots)
    canonical = {}
    for node in subtrees:
        assert canonical.setdefault(node, node) is node
    assert len(canonical) < len(subtrees)


def test_intern_table_spans_calls():
    text = "<apply><csymbol cd='arith1'>plus</csymbol><ci>x</ci><cn>2</cn></apply>"
    table = {}
    first = parse_expression(text, table)
    assert parse_expression(text, table) is first
    assert parse_expression(text) is not first
    assert parse_expression(text) == first


@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_plain_list_corpus_equals_per_pair(kind, bundled_symbols):
    rng = random.Random(300 + DECAY_KINDS.index(kind))
    trees = [random_tree(rng, max_height=4, max_fanout=4) for _ in range(20)]
    # Equal to earlier documents but built apart, so equal without being identical.
    trees += [parse_expression(serialize_expression(t)) for t in trees[:5]]
    corpus = plain_corpus(trees)
    queries = plain_queries([random_tree(rng, 3, 3) for _ in range(4)] + [trees[3]])
    for params in (random_params(rng, kind), random_params(rng, kind)):
        assert_shared_equals_per_pair(queries, corpus, params, bundled_symbols.commutative)


# Leaves only, arities that differ, and commutative heads whose arguments tie.
EDGE_DOCS = [
    X, Y, TWO, HALF, PLUS, SIN,
    Apply(PLUS, ()),
    Apply(PLUS, (X,)),
    Apply(PLUS, (X, X)),
    Apply(PLUS, (Y, X, X)),
    Apply(PLUS, (X, Y, Z, TWO)),
    Apply(TIMES, (X, X, X)),
    Apply(TIMES, (Apply(SIN, (X,)), Apply(SIN, (X,)))),
    Apply(MINUS, (X, Y)),
    Apply(MINUS, (Y, X, Z)),
    Apply(SIN, (Apply(PLUS, (X, Y)),)),
    Apply(Apply(PLUS, (X,)), (Y, Y)),
]
EDGE_QUERIES = [
    X, TWO, PLUS,
    Apply(PLUS, ()),
    Apply(PLUS, (X, X)),
    Apply(PLUS, (X, Y)),
    Apply(TIMES, (Apply(SIN, (X,)), X)),
    Apply(MINUS, (X, Y, Y)),
    Apply(MINUS, (Y,)),
    Apply(Apply(PLUS, (X,)), (Y,)),
]
# The grid's extremes: smallest and largest omega, zero delta and theta.
EXTREMES = [
    {"omega": 1.5, "delta": 0.0, "theta": 0.0},
    {"omega": 5.0, "delta": 0.0, "theta": 0.0},
    {"omega": 1.5, "mu": 0.9, "zeta": 0.9},
]


@pytest.mark.parametrize("kind", DECAY_KINDS)
@pytest.mark.parametrize("extreme", EXTREMES)
def test_edge_trees_equal_per_pair(kind, extreme, bundled_symbols):
    rate = 1.0 if kind == "exponential" else 0.9
    params = make_params(decay_model=kind, dp_rate=rate, cp_rate=0.1, **extreme)
    assert_shared_equals_per_pair(
        plain_queries(EDGE_QUERIES), plain_corpus(EDGE_DOCS), params, bundled_symbols.commutative
    )


@pytest.mark.parametrize("kind", DECAY_KINDS)
@pytest.mark.parametrize("omega", [1.5, 5.0])
def test_bundled_grid_extremes_equal_per_pair(
    kind, omega, bundled_corpus, bundled_queries, bundled_symbols
):
    params = make_params(decay_model=kind, omega=omega, delta=0.0, theta=0.0, dp_rate=0.9, cp_rate=0.1)
    assert_shared_equals_per_pair(
        bundled_queries, bundled_corpus, params, bundled_symbols.commutative
    )


def test_one_row_passes_equal_per_pair(monkeypatch, bundled_queries, bundled_corpus, bundled_symbols):
    # Room for one row at a time cuts every block and every update of the
    # ancestors into pieces of one.
    monkeypatch.setattr(engine, "_CELLS", 1)
    assert_shared_equals_per_pair(
        plain_queries(EDGE_QUERIES), plain_corpus(EDGE_DOCS), make_params(), bundled_symbols.commutative
    )
    assert_shared_equals_per_pair(
        bundled_queries[:3], bundled_corpus, make_params(decay_model="logarithmic"),
        bundled_symbols.commutative,
    )


@settings(deadline=None, max_examples=60)
@given(
    st.lists(tree_strategy, min_size=1, max_size=6),
    st.lists(tree_strategy, min_size=1, max_size=3),
    params_strategy,
)
def test_random_trees_equal_per_pair(docs, queries, params):
    assert_shared_equals_per_pair(
        plain_queries(queries), plain_corpus(docs), params, frozenset({("arith1", "plus")})
    )


def test_unprunable_omega_scored_by_reference():
    # At omega 3.1 a one-argument application can align one ulp above 1.
    # Unclamped, the reference's pruning shaped its result, and the engine's
    # all-pairs maximum differed from it in the last digit.  Both paths now
    # clamp the aligned score, so similarities, sim and search() agree.
    F, G, H = FunctionSymbol("f", "a"), FunctionSymbol("g", "a"), FunctionSymbol("h", "a")

    def f(*args):
        return Apply(F, args)

    def g(*args):
        return Apply(G, args)

    params = make_params(zeta=1.0, omega=3.1, decay_model="linear", dp_rate=0.1, cp_rate=0.1)
    # f(x) aligns with itself one level down on both sides: 0.9 * 0.9 * 1.
    assert sim(g(f(X)), Apply(H, (f(X),)), params, frozenset()) == 0.81
    query = g(f(X), g(F, f(Y), f(X, F, X)))
    doc = g(X, g(f(Y, f(Y), f(F))), X)
    queries, docs = NodeTable([query]), NodeTable([doc])
    reference = sim(query, doc, params, frozenset())
    engine = similarities(docs, queries, params, frozenset())[queries.roots[0], docs.roots[0]]
    assert engine == reference
    corpus = plain_corpus([doc])
    scored = score_document(query, doc, corpus[0].formula_class, params, frozenset())
    assert search(query, corpus, params, 1, frozenset()).hits == (("d00", scored),)


def test_deepest_accepted_tree_equals_per_pair(bundled_symbols):
    def nested(depth, leaf):
        tree = leaf
        for _ in range(depth):
            tree = Apply(MINUS, (tree,))
        return tree

    corpus = plain_corpus([nested(128, X), nested(127, X), nested(126, Y)])
    queries = plain_queries([nested(128, X), nested(3, X)])
    assert_shared_equals_per_pair(queries, corpus, make_params(), bundled_symbols.commutative)


def test_corpus_compiles_once_and_pickles(bundled_corpus, bundled_queries, bundled_params):
    assert isinstance(bundled_corpus, Corpus)
    assert bundled_corpus.table is bundled_corpus.table
    copy = pickle.loads(pickle.dumps(bundled_corpus))
    assert copy == bundled_corpus
    query = bundled_queries[0].tree
    expected = search(query, list(bundled_corpus), bundled_params, 10)
    assert search(query, bundled_corpus, bundled_params, 10) == expected
    assert search(query, copy, bundled_params, 10) == expected


def test_loaded_queries_compile_once(bundled_corpus, bundled_queries, bundled_params):
    # A SearchObjective scores the same loaded queries on every call.
    assert isinstance(bundled_queries, Corpus)
    sizes = {q.query_id: 5 for q in bundled_queries}
    expected = batch_search(list(bundled_queries), bundled_corpus, bundled_params, sizes)
    assert batch_search(bundled_queries, bundled_corpus, bundled_params, sizes) == expected
    table, ancestors = bundled_queries.table, bundled_queries.table.ancestors
    assert batch_search(bundled_queries, bundled_corpus, bundled_params, sizes) == expected
    assert bundled_queries.table is table and table.ancestors is ancestors
