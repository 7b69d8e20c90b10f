"""The all-pairs engine behind search() against the per-pair reference.

search() and batch_search() score every query against every document at once,
over node tables compiled from the distinct subtrees.  Every score must equal,
bit for bit, what score_document gives for the pair on its own.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathsim import engine, metric
from mathsim.engine import NodeTable, Plan
from mathsim.mathml import (
    MAX_DEPTH,
    Apply,
    Constant,
    FunctionSymbol,
    Variable,
    classify,
    iter_subtrees,
    parse_expression,
    serialize_expression,
)
from mathsim.metric import DECAY_KINDS, DEFAULT_COMMUTATIVE, score_document, sim
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


F, G, H = FunctionSymbol("f", "a"), FunctionSymbol("g", "a"), FunctionSymbol("h", "a")


def f(*args):
    return Apply(F, args)


def g(*args):
    return Apply(G, args)


# At omega 3.1 this pair aligns a one-argument application one ulp above 1.
UNPRUNABLE_QUERY = g(f(X), g(F, f(Y), f(X, F, X)))
UNPRUNABLE_DOC = g(X, g(f(Y, f(Y), f(F))), X)


def test_unprunable_omega_scored_by_reference():
    # At omega 3.1 a one-argument application can align one ulp above 1.
    # Unclamped, the reference's pruning shaped its result, and the engine's
    # all-pairs maximum differed from it in the last digit.  Both paths now
    # clamp the aligned score, so a scoring plan, sim and search() agree.
    params = make_params(zeta=1.0, omega=3.1, decay_model="linear", dp_rate=0.1, cp_rate=0.1)
    # f(x) aligns with itself one level down on both sides: 0.9 * 0.9 * 1.
    assert sim(g(f(X)), Apply(H, (f(X),)), params, frozenset()) == 0.81
    query, doc = UNPRUNABLE_QUERY, UNPRUNABLE_DOC
    queries, docs = NodeTable([query]), NodeTable([doc])
    reference = sim(query, doc, params, frozenset())
    assert Plan(docs, queries, frozenset())(params)[0, 0] == reference
    corpus = plain_corpus([doc])
    scored = score_document(query, doc, corpus[0].formula_class, params, frozenset())
    assert search(query, corpus, params, 1, frozenset()).hits == (("d00", scored),)


@pytest.mark.parametrize("cells", [None, 1], ids=["default-cells", "one-row"])
@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_plan_keeps_no_state_between_passes(kind, cells, monkeypatch, bundled_symbols):
    # One plan scores A, B, then A again; every pass must equal a fresh
    # plan's and the per-pair reference's, bit for bit.
    if cells is not None:
        monkeypatch.setattr(engine, "_CELLS", cells)
    commutative = bundled_symbols.commutative
    assert ("arith1", "plus") in commutative
    queries = EDGE_QUERIES + [UNPRUNABLE_QUERY]
    docs = EDGE_DOCS + [UNPRUNABLE_DOC]
    q_table, d_table = NodeTable(queries), NodeTable(docs)
    first = make_params(zeta=1.0, omega=3.1, decay_model=kind, dp_rate=0.1, cp_rate=0.1)
    second = random_params(random.Random(DECAY_KINDS.index(kind)), kind)
    plan = Plan(d_table, q_table, commutative)
    for params in (first, second, first):
        got = plan(params)
        assert got.tobytes() == Plan(d_table, q_table, commutative)(params).tobytes()
        reference = np.array([[sim(q, d, params, commutative) for d in docs] for q in queries])
        assert got.tobytes() == reference.tobytes()


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
    plan = bundled_queries.plan(bundled_corpus.table, DEFAULT_COMMUTATIVE)
    assert batch_search(bundled_queries, bundled_corpus, bundled_params, sizes) == expected
    assert bundled_queries.table is table and table.ancestors is ancestors
    assert bundled_queries.plan(bundled_corpus.table, DEFAULT_COMMUTATIVE) is plan
    # Other documents or another commutative set must never meet a stale plan.
    fewer = Corpus(bundled_corpus[::2])
    for corpus, commutative in [
        (bundled_corpus, frozenset()), (fewer, frozenset()), (fewer, DEFAULT_COMMUTATIVE),
        (list(bundled_corpus), DEFAULT_COMMUTATIVE), (bundled_corpus, DEFAULT_COMMUTATIVE),
    ]:
        fresh = batch_search(list(bundled_queries), corpus, bundled_params, sizes, commutative)
        assert batch_search(bundled_queries, corpus, bundled_params, sizes, commutative) == fresh
    in_order = batch_search(bundled_queries, bundled_corpus, bundled_params, sizes, frozenset())
    assert in_order != expected


def _ancestor_stride_cells(docs, queries):
    """``_CELLS`` settings that exercise the flat ``level * rows + local`` rows.

    One gives blocks of up to three rows with several levels each; the other
    gives blocks of one row whose ancestor updates split into pieces.
    """
    per_row = (len(queries.level_start) - 1 + docs.args.shape[1] + 3) * docs.size
    return {"rows": 3 * per_row, "pieces": 2 * docs.size}


@pytest.mark.parametrize("inputs", ["bundled", "random"])
@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_ancestor_update_stride_equals_per_pair(
    kind, inputs, monkeypatch, tmp_path, bundled_corpus, bundled_queries, bundled_symbols
):
    if inputs == "bundled":
        corpus, queries = bundled_corpus, bundled_queries
    else:
        corpus, queries = write_random_inputs(tmp_path, seed=811)
    commutative = bundled_symbols.commutative
    params = make_params(omega=3.1, zeta=0.9, decay_model=kind, dp_rate=0.3, cp_rate=0.2)
    reference = np.array(
        [[sim(q.tree, d.tree, params, commutative) for d in corpus] for q in queries]
    )
    docs, q_table = corpus.table, queries.table
    for setting, cells in _ancestor_stride_cells(docs, q_table).items():
        monkeypatch.setattr(engine, "_CELLS", cells)
        plan = Plan(docs, q_table, commutative)
        blocks = [block for _, height in plan.heights for block in height]
        if setting == "rows":
            assert {len(block.rows) for block in blocks} >= {2, 3}
            assert any(len(block.rows) > 1 and len(block.levels) > 1 for block in blocks)
        else:
            assert any(len(block.updates) > 1 for block in blocks)
        assert plan(params).tobytes() == reference.tobytes(), setting


def _expected_greedy_classes(table, trees, symbols):
    """Each application's greedy class, read off the trees by walking them beside the table.

    0: no symbol head or no arguments, 1: a symbol head, 2: one in ``symbols``;
    the metric matches arguments greedily where both heads are symbols and
    either is in ``symbols``.
    """
    classes = {}
    stack = list(zip(trees, table.roots.tolist()))
    while stack:
        node, pos = stack.pop()
        if pos < table.leaves:
            continue
        app = pos - table.leaves
        head = node.head
        symbol = isinstance(head, FunctionSymbol) and len(node.args) > 0
        expected = 1 + ((head.cd, head.name) in symbols) if symbol else 0
        assert classes.setdefault(app, expected) == expected
        stack.append((head, int(table.heads[app])))
        stack.extend(zip(node.args, table.args[app, : table.arity[app]].tolist()))
    assert sorted(classes) == list(range(len(table.heads)))
    return np.array([classes[app] for app in range(len(table.heads))])


# An applied head and an application without arguments are class 0, which
# the bundled files do not have.
CLASS_TREES = [Apply(Apply(PLUS, (X,)), (Y, X)), Apply(TIMES, ()), Apply(SIN, (X,)), Apply(TIMES, (X, Y))]


def test_greedy_classes_kept_per_commutative_set(bundled_corpus, bundled_queries, bundled_params):
    # A fresh load of the documents, so no other test has asked its table.
    corpus = Corpus(bundled_corpus)
    table = corpus.table
    trees = [record.tree for record in corpus]
    times_only = frozenset({("arith1", "times")})
    first = table.greedy_classes(DEFAULT_COMMUTATIVE)
    assert table.greedy_classes(times_only).tolist() != first.tolist()
    for commutative in (DEFAULT_COMMUTATIVE, times_only, DEFAULT_COMMUTATIVE):
        got = table.greedy_classes(commutative)
        assert got.tolist() == _expected_greedy_classes(table, trees, commutative).tolist()
        assert not got.flags.writeable
        assert_shared_equals_per_pair(bundled_queries[:4], corpus, bundled_params, commutative)
    assert table.greedy_classes(DEFAULT_COMMUTATIVE) is first
    # Query tables, whose classes a plan reads, and every class on one table.
    for mixed in ([q.tree for q in bundled_queries], [*trees, *CLASS_TREES]):
        mixed_table = NodeTable(mixed)
        for commutative in (DEFAULT_COMMUTATIVE, times_only):
            expected = _expected_greedy_classes(mixed_table, mixed, commutative)
            assert mixed_table.greedy_classes(commutative).tolist() == expected.tolist()
    assert set(NodeTable(CLASS_TREES).greedy_classes(times_only).tolist()) == {0, 1, 2}


# Arguments for the two-argument swap: symbols of their own content
# dictionaries score 0 against every argument here.
SWAP_POOL = [X, Apply(SIN, (X,)), TWO, Apply(PLUS, (Y, X))]
ZERO_A, ZERO_B = FunctionSymbol("a", "zero1"), FunctionSymbol("b", "zero2")


def _swap_args(arity, shift):
    return tuple(SWAP_POOL[(i + shift) % len(SWAP_POOL)] for i in range(arity))


SWAP_QUERIES = [
    Apply(head, _swap_args(arity, shift))
    for arity in range(1, 5) for head, shift in ((PLUS, 0), (PLUS, 1), (MINUS, 1))
] + [
    Apply(PLUS, (TWO, X)),  # ties against plus(x, y): theta both ways
    Apply(TIMES, (Apply(SIN, (X,)), Y)),
    Apply(PLUS, (ZERO_A, ZERO_B)),
    Apply(Apply(PLUS, (X,)), (Y, X)),  # not greedy: the head is no symbol
]
SWAP_DOCS = [
    Apply(head, _swap_args(arity, shift))
    for arity in range(1, 5) for head, shift in ((PLUS, 0), (TIMES, 1), (PLUS, 3), (MINUS, 0))
] + [
    Apply(Apply(PLUS, (X,)), (X, Y)),
    Apply(PLUS, (X, Y)),
    Apply(PLUS, (X, X)),
    Apply(TIMES, (Apply(SIN, (X,)), Apply(SIN, (X,)))),
    Apply(PLUS, (ZERO_A, ZERO_B)),
    Apply(TIMES, (ZERO_B, ZERO_A, ZERO_B)),
]
SWAP_CASES = {
    "mixed": (SWAP_QUERIES, SWAP_DOCS),
    "query-width-1": ([t for t in SWAP_QUERIES if len(t.args) == 1] + [X], SWAP_DOCS),
    "doc-width-1": (SWAP_QUERIES, [
        Apply(PLUS, (X,)), Apply(TIMES, (Apply(SIN, (X,)),)), Apply(PLUS, (TWO,)),
        Apply(MINUS, (Y,)), Apply(PLUS, (ZERO_A,)), Y,
    ]),
}


@pytest.mark.parametrize("case", SWAP_CASES)
@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_two_argument_swap_equals_per_pair(kind, case, monkeypatch):
    # Greedy pairs whose document has at most two arguments take the ordered
    # sum, or v01 + v10 where the first query argument prefers the second
    # document argument; wider documents still run the greedy loop.
    queries, docs = SWAP_CASES[case]
    commutative = DEFAULT_COMMUTATIVE
    assert ("arith1", "plus") in commutative and ("arith1", "minus") not in commutative
    params = make_params(omega=3.1, decay_model=kind, dp_rate=0.3, cp_rate=0.2)
    q_table, d_table = NodeTable(queries), NodeTable(docs)
    assert (q_table.args.shape[1], d_table.args.shape[1]) == {
        "mixed": (4, 4), "query-width-1": (1, 4), "doc-width-1": (4, 1)}[case]
    plan = Plan(d_table, q_table, commutative)
    greedy_arities = []
    greedy_sums = engine._ApplyBlock._greedy_sums

    def recording(block, sim_rows):
        greedy_arities.extend(d_table.arity[block.d_index].tolist())
        return greedy_sums(block, sim_rows)

    monkeypatch.setattr(engine._ApplyBlock, "_greedy_sums", recording)
    got = plan(params)
    reference = np.array([[sim(q, d, params, commutative) for d in docs] for q in queries])
    assert got.tobytes() == reference.tobytes()

    swaps = [block.swap for _, blocks in plan.heights for block in blocks]
    if case == "doc-width-1":
        assert swaps == [None] * len(swaps) and greedy_arities == []
        return
    assert any(swap is not None for swap in swaps)
    assert set(greedy_arities) == {3, 4}
    # The cases must hold swapped pairs, ties and all-zero arguments.
    context = metric._SimContext(params, commutative)
    narrow = [(q.args, d.args) for q in queries for d in docs
              if type(d) is Apply and len(d.args) == 2 and type(q) is Apply and q.head in (PLUS, TIMES)]
    swapped = [context.greedy_sum(a, b) != context.ordered_sum(a, b) for a, b in narrow]
    firsts = [(context.sim(a[0], b[0]), context.sim(a[0], b[1])) for a, b in narrow]
    assert any(swapped)
    assert any(v00 == v01 > 0 for v00, v01 in firsts)
    assert (0.0, 0.0) in firsts


# Greedy ties on the flat path.  Against the first document, x scores zeta
# with both y and z, so the first query argument ties across document
# arguments and takes y, the first; y then finds its exact match taken.  An
# argmax that took the last of equal scores would give x z and y itself.
TIE_DOCS = [
    Apply(PLUS, (Y, Z, TWO)),
    Apply(PLUS, (Y, Z, TWO, X)),
    Apply(TIMES, (Z, Y, Y)),
    Apply(PLUS, (TWO, HALF, Constant("3"), Y)),
    Apply(MINUS, (Y, Z, X)),
    Apply(TIMES, (Apply(SIN, (X,)), Apply(SIN, (Y,)), X, Z)),
]
TIE_QUERIES = [
    Apply(head, args) for head in (PLUS, MINUS)
    for args in ((X,), (X, Y), (X, Y, Z), (X, Y, TWO, Z), (TWO, HALF), (Apply(SIN, (Z,)), X, Y))
]


def _first_best(scores):
    return scores.index(max(scores))


@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_greedy_ties_equal_per_pair(kind, monkeypatch):
    commutative = DEFAULT_COMMUTATIVE
    assert ("arith1", "minus") not in commutative
    params = make_params(omega=3.1, decay_model=kind, dp_rate=0.3, cp_rate=0.2)
    q_table, d_table = NodeTable(TIE_QUERIES), NodeTable(TIE_DOCS)
    plan = Plan(d_table, q_table, commutative)
    greedy_arities = []
    greedy_sums = engine._ApplyBlock._greedy_sums

    def recording(block, sim_rows):
        greedy_arities.extend(d_table.arity[block.d_index].tolist())
        return greedy_sums(block, sim_rows)

    monkeypatch.setattr(engine._ApplyBlock, "_greedy_sums", recording)
    reference = np.array([[sim(q, d, params, commutative) for d in TIE_DOCS] for q in TIE_QUERIES])
    assert plan(params).tobytes() == reference.tobytes()
    assert set(greedy_arities) == {3, 4}
    # The greedy pairs must hold first-argument ties and taken best columns.
    context = metric._SimContext(params, commutative)
    wide = [(q.args, d.args) for q in TIE_QUERIES for d in TIE_DOCS
            if len(d.args) > 2 and (q.head == PLUS or d.head in (PLUS, TIMES))]
    assert {len(q_args) for q_args, _ in wide} == {1, 2, 3, 4}
    firsts = [[context.sim(q_args[0], arg) for arg in d_args] for q_args, d_args in wide]
    assert any(scores.count(max(scores)) > 1 for scores in firsts)
    assert any(
        _first_best([context.sim(q_args[1], arg) for arg in d_args]) == _first_best(scores)
        for (q_args, d_args), scores in zip(wide, firsts) if len(q_args) > 1
    )


def test_greedy_documents_kept_per_commutative_set(bundled_corpus, bundled_queries, bundled_params):
    # A fresh load of the documents, so no other test has asked its table.
    corpus = Corpus(bundled_corpus)
    table = corpus.table
    times_only = frozenset({("arith1", "times")})
    first = table.greedy_documents(DEFAULT_COMMUTATIVE)
    for commutative in (DEFAULT_COMMUTATIVE, times_only, DEFAULT_COMMUTATIVE):
        cached = table.greedy_documents(commutative)
        swap, swaps, loops = cached
        classes = _expected_greedy_classes(table, [record.tree for record in corpus], commutative)
        # No greedy matching; a symbol head; a commutative symbol head.
        for c, matched in enumerate([np.zeros(len(classes), dtype=bool), classes == 2, classes > 0]):
            assert swap[c].tolist() == (matched & (table.arity == 2)).tolist()
            assert swaps[c] == bool(swap[c].any())
            loop, args, padding, wider = loops[c]
            expected = sorted(np.flatnonzero(matched & (table.arity > 2)).tolist(),
                              key=lambda a: -table.arity[a])
            assert loop.tolist() == expected
            assert args.tolist() == table.args[loop].tolist()
            assert padding.tolist() == (table.args[loop] == table.size).tolist()
            assert wider == [sum(int(table.arity[a]) > i for a in expected) for i in range(table.args.shape[1])]
            assert not any(array.flags.writeable for array in (swap, loop, args, padding))
        assert loops[0][0].size == 0 and loops[1][0].size and loops[2][0].size
        # Every plan on the table gathers its greedy pairs from the cached rows.
        for queries in (bundled_queries, *(Corpus([q]) for q in bundled_queries)):
            plan = Plan(table, queries.table, commutative)
            blocks = [block for _, height in plan.heights for block in height if block.greedy]
            assert blocks
            assert any(np.shares_memory(block.used, loops[c][2]) for block in blocks for c in (1, 2))
        assert table.greedy_documents(commutative) is cached
        assert_shared_equals_per_pair(bundled_queries[:4], corpus, bundled_params, commutative)
    assert table.greedy_documents(DEFAULT_COMMUTATIVE) is first


# The leaf stage.  In the first document f(x) sits at depths 1 and 2 below
# the root, one shared subtree, so x does at depths 2 and 3.  The queries
# hold leaves no document has, and a symbol of a content dictionary no
# document uses, whose leaf has no terms at all.
LONELY = FunctionSymbol("alone", "lonely1")
LEAF_DOCS = [
    g(f(X), g(f(X)), TWO),
    f(Y, Apply(PLUS, (X, HALF)), g(F)),
    Apply(H, (g(f(Z)), X)),
    Apply(SIN, (TWO,)),
    X,
]
LEAF_QUERIES = [
    X, Variable("w"), Constant("42"), LONELY, F,
    g(f(X), LONELY),
    f(g(Variable("w"), Constant("42")), X),
    Apply(LONELY, (Y, g(TWO))),
    Apply(TIMES, (Apply(SIN, (Z,)), HALF)),
]
LEAF_PARAMS = {"zeta-1": {"zeta": 1.0}, "no-delta-theta": {"delta": 0.0, "theta": 0.0}}


def _leaf_stage_equals_per_pair(docs, queries, params):
    q_table, d_table = NodeTable(queries), NodeTable(docs)
    plan = Plan(d_table, q_table, DEFAULT_COMMUTATIVE)
    reference = np.array([[sim(q, d, params, DEFAULT_COMMUTATIVE) for d in docs] for q in queries])
    assert plan(params).tobytes() == reference.tobytes()
    return plan, q_table, d_table


@pytest.mark.parametrize("setting", LEAF_PARAMS)
@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_leaf_stage_equals_per_pair(kind, setting):
    params = make_params(omega=3.1, decay_model=kind, dp_rate=0.3, cp_rate=0.2, **LEAF_PARAMS[setting])
    plan, q_table, d_table = _leaf_stage_equals_per_pair(LEAF_DOCS, LEAF_QUERIES, params)
    # The shared subtree holds x at two depths below the root.
    root = int(d_table.roots[0])
    x = d_table.leaf_position[engine._leaf_key(X)]
    assert {j for j, u in d_table.ancestors[x] if u == root} == {2, 3}
    # Query leaves absent from the documents get no exact term; the lonely
    # symbol gets no term at all.
    absent = [q_table.leaf_position[engine._leaf_key(leaf)] for leaf in (Variable("w"), Constant("42"))]
    lonely = q_table.leaf_position[engine._leaf_key(LONELY)]
    scored = {int(u) for _, _, targets in plan.leaf_groups for u in targets}
    assert set(absent) <= scored and lonely not in scored
    assert all(key not in d_table.leaf_position for key in map(engine._leaf_key, (Variable("w"), LONELY)))


@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_leaf_stage_column_pieces_equal_per_pair(kind, monkeypatch):
    # Room for a few rows at a time cuts the leaf stage into column pieces.
    monkeypatch.setattr(engine, "_CELLS", 8)
    params = make_params(omega=3.1, zeta=1.0, decay_model=kind, dp_rate=0.3, cp_rate=0.2)
    plan, _, d_table = _leaf_stage_equals_per_pair(LEAF_DOCS, LEAF_QUERIES, params)
    assert len(range(0, d_table.size, plan.leaf_width)) > 2


def _brute_force_least_depths(table, trees):
    """Per position, the least depth of each leaf below it, read off the trees."""
    apps = {(h, *table.args[a, : table.arity[a]].tolist()): table.leaves + a
            for a, h in enumerate(table.heads.tolist())}
    position: dict[int, int] = {}

    def locate(node):
        found = position.get(id(node))
        if found is None:
            if type(node) is Apply:
                found = apps[tuple(locate(c) for c in (node.head, *node.args))]
            else:
                found = table.leaf_position[engine._leaf_key(node)]
            position[id(node)] = found
        return found

    none = len(table.level_start) - 1
    least = np.full((table.leaves, table.size), none)
    for tree in trees:
        for _, node in iter_subtrees(tree):
            column = least[:, locate(node)]
            for depth, below in iter_subtrees(node):
                if type(below) is not Apply:
                    t = locate(below)
                    column[t] = min(column[t], depth)
    return least


def _deep_trees():
    tree = X
    for i in range(MAX_DEPTH):
        tree = Apply(MINUS, (tree, Constant(str(i % 3)))) if i % 5 else Apply(SIN, (tree,))
    return [tree, Apply(MINUS, (Y,)), tree.args[0]]


@pytest.mark.parametrize("inputs", ["bundled", "random", "deep"])
def test_least_depths_equal_brute_force(inputs, tmp_path, bundled_corpus):
    if inputs == "bundled":
        trees = [d.tree for d in bundled_corpus]
    elif inputs == "random":
        corpus, queries = write_random_inputs(tmp_path, seed=811)
        trees = [d.tree for d in corpus] + [q.tree for q in queries]
    else:
        trees = _deep_trees()
    table = NodeTable(trees)
    expected = _brute_force_least_depths(table, trees)
    rows = table.leaf_depths(range(table.leaves))
    assert np.array(rows).tolist() == expected.tolist()
    assert not any(row.flags.writeable for row in rows)
    classes = np.full(table.class_depths.shape, len(table.level_start) - 1)
    for t, key in enumerate(table.leaf_keys):
        c = key[0] if key[0] != engine.SYMBOL else engine.SYMBOL + table.cd_code[key[1]]
        np.minimum(classes[c], expected[t], out=classes[c])
    assert table.class_depths.tolist() == classes.tolist()
    assert not table.class_depths.flags.writeable
    if inputs == "deep":
        assert len(table.level_start) - 1 == MAX_DEPTH + 1
        assert table.class_depths.dtype == np.uint8


def test_plans_share_cached_leaf_depths(bundled_corpus, bundled_queries):
    # A fresh load of the documents, so no other test has asked its table.
    table = Corpus(bundled_corpus).table
    first = Plan(table, bundled_queries.table, DEFAULT_COMMUTATIVE)
    fewer = Corpus(bundled_queries[:4]).table
    shared = sorted({table.leaf_position[key] for key in fewer.leaf_keys if key in table.leaf_position})
    assert shared
    rows = table.leaf_depths(shared)
    second = Plan(table, fewer, frozenset())
    for plan in (first, second):
        used = [depths for _, depths, _ in plan.leaf_groups]
        assert all(any(row is depths for depths in used) for row in rows)
    assert all(again is row for again, row in zip(table.leaf_depths(shared), rows))
