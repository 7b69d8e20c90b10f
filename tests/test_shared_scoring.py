"""The shared scoring path against the per-pair reference.

Loading hash-conses the trees, and search()/batch_search() score through one
context per call, so equal subtrees of different documents are scored once.
Every score must still equal, bit for bit, what score_document gives for the
pair on its own.
"""

import random

import pytest

from mathsim.mathml import (
    Apply,
    FunctionSymbol,
    iter_subtrees,
    parse_expression,
    serialize_expression,
)
from mathsim.metric import DECAY_KINDS, _SimContext, score_document
from mathsim.search import batch_search, load_corpus, load_queries, search

from helpers import make_params, random_params, random_tree


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
    sizes = {q.query_id: n for q in queries}
    for got in batch_search(queries, corpus, params, sizes, commutative):
        assert got.hits == reference[got.query_id]


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


def test_context_for_other_params_rejected(bundled_corpus, bundled_queries, bundled_symbols):
    context = _SimContext(make_params(mu=0.4), bundled_symbols.commutative)
    with pytest.raises(ValueError, match="other parameters"):
        search(
            bundled_queries[0].tree, bundled_corpus, make_params(mu=0.6), 5,
            bundled_symbols.commutative, context=context,
        )
