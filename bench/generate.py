"""Seeded synthetic inputs for the benchmark workloads.

The same seed always yields the same bytes.  ``search-synth`` gets a corpus
and a query set made by mutating the bundled expressions; ``evaluate-synth``
gets a ground truth and one hit-list CSV whose truth sizes span the
critical-value table's range.  Everything is written as ordinary input files
(MathML through ``mathml.serialize_expression``, CSV in the program's
schemas), so the program under test only ever sees files.

Sizes are stratified rather than drawn: every bundled document yields the
same number of variants, and variant ``v`` always receives the same number
and kinds of mutations.  The seed only picks where each mutation lands and
what it inserts, so the cost of a workload barely moves from seed to seed.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from mathsim import mathml
from mathsim.metric import DEFAULT_COMMUTATIVE
from mathsim.search import HitList, load_corpus, load_queries, write_hitlists_csv

ASSETS = Path(__file__).resolve().parent.parent / "assets"

DOC_VARIANTS = 10  # 42 bundled documents -> 420
QUERY_VARIANTS = 2  # 11 bundled queries -> 22
# Mutations never push a tree past this height; the program's recursive
# walks fail near 300.
MAX_HEIGHT = 24
# Sizes of the evaluate-synth truth rankings: both ends of the table's
# supported range [4, 60] and a roughly geometric spread between them.
EVAL_TRUTH_SIZES = (4, 6, 9, 13, 19, 28, 41, 60)
EVAL_QUERIES_PER_SIZE = 2
EVAL_DOC_POOL = 400

_MUTATIONS = ("leaf", "swap", "wrap", "graft")
_UNARY_WRAPPERS = (
    ("transc1", "sin"),
    ("transc1", "cos"),
    ("transc1", "exp"),
    ("transc1", "ln"),
    ("arith1", "abs"),
    ("arith1", "unary_minus"),
)
_BINARY_WRAPPERS = (("arith1", "times"), ("arith1", "plus"), ("arith1", "power"))
_VARIABLES = ("a", "b", "c", "n", "r", "t", "u", "x", "y", "z")
_CONSTANTS = ("0", "1", "2", "3", "4", "5", "10")


def _nodes(tree, path=()):
    """``(path, node)`` in preorder; child 0 is the head, child i >= 1 is argument i."""
    yield path, tree
    if isinstance(tree, mathml.Apply):
        for i, child in enumerate((tree.head,) + tree.args):
            yield from _nodes(child, path + (i,))


def _replace(tree, path, new):
    if not path:
        return new
    children = [tree.head, *tree.args]
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return mathml.Apply(children[0], tuple(children[1:]))


def _random_leaf(rng: random.Random, like):
    if isinstance(like, mathml.Constant):
        return mathml.Constant(rng.choice(_CONSTANTS))
    return mathml.Variable(rng.choice(_VARIABLES))


def _mutate(tree, kind: str, rng: random.Random, donors: list):
    """Apply one mutation of ``kind``; falls back to a leaf change when it has no site."""
    nodes = list(_nodes(tree))
    leaves = [(p, n) for p, n in nodes if isinstance(n, (mathml.Variable, mathml.Constant))]
    if kind == "swap":
        sites = [
            (p, n)
            for p, n in nodes
            if isinstance(n, mathml.Apply)
            and isinstance(n.head, mathml.FunctionSymbol)
            and (n.head.cd, n.head.name) in DEFAULT_COMMUTATIVE
            and len(n.args) >= 2
        ]
        if sites:
            path, node = rng.choice(sites)
            shift = rng.randrange(1, len(node.args))
            args = node.args[shift:] + node.args[:shift]
            return _replace(tree, path, mathml.Apply(node.head, args))
    elif kind == "wrap":
        # Argument positions only: a head must stay a symbol or an application.
        sites = [(p, n) for p, n in nodes if p and p[-1] >= 1]
        if sites:
            path, node = rng.choice(sites)
            if rng.random() < 0.5:
                cd, name = rng.choice(_UNARY_WRAPPERS)
                wrapped = mathml.Apply(mathml.FunctionSymbol(name, cd), (node,))
            else:
                cd, name = rng.choice(_BINARY_WRAPPERS)
                other = _random_leaf(rng, node)
                wrapped = mathml.Apply(mathml.FunctionSymbol(name, cd), (node, other))
            candidate = _replace(tree, path, wrapped)
            if mathml.height(candidate) <= MAX_HEIGHT:
                return candidate
    elif kind == "graft":
        # Deepen nesting: a leaf becomes a small subtree of another bundled
        # expression, which also makes documents share subtrees.
        if leaves:
            path, _ = rng.choice(leaves)
            candidate = _replace(tree, path, rng.choice(donors))
            if mathml.height(candidate) <= MAX_HEIGHT:
                return candidate
    if not leaves:
        return tree
    path, node = rng.choice(leaves)
    return _replace(tree, path, _random_leaf(rng, node))


def _donors(trees) -> list:
    """Distinct subtrees of height 1 or 2, in a fixed order."""
    seen = {}
    for tree in trees:
        for _, node in _nodes(tree):
            if isinstance(node, mathml.Apply) and 1 <= mathml.height(node) <= 2:
                seen.setdefault(mathml.serialize_expression(node), node)
    return [seen[key] for key in sorted(seen)]


def _variant(tree, seed: int, ident: str, v: int, donors: list):
    """Variant ``v`` of one expression: ``v`` mutations cycling through every kind."""
    rng = random.Random(f"{seed}:{ident}:{v}")
    for i in range(v):
        tree = _mutate(tree, _MUTATIONS[i % len(_MUTATIONS)], rng, donors)
    return tree


def _write_expressions(directory: Path, items) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for ident, tree in items:
        text = mathml.serialize_expression(tree) + "\n"
        (directory / f"{ident}.xml").write_text(text, encoding="utf-8")


def write_search_inputs(seed: int, out: Path) -> None:
    """Write ``out/corpus`` (420 documents) and ``out/queries`` (22 queries)."""
    corpus = load_corpus(ASSETS / "corpus")
    queries = load_queries(ASSETS / "queries")
    donors = _donors([d.tree for d in corpus] + [q.tree for q in queries])
    _write_expressions(
        out / "corpus",
        (
            (f"{d.doc_id}__v{v}", _variant(d.tree, seed, d.doc_id, v, donors))
            for d in corpus
            for v in range(DOC_VARIANTS)
        ),
    )
    _write_expressions(
        out / "queries",
        (
            (f"{q.query_id}__v{v}", _variant(q.tree, seed, q.query_id, 2 * v, donors))
            for q in queries
            for v in range(QUERY_VARIANTS)
        ),
    )


def write_evaluate_inputs(seed: int, out: Path) -> None:
    """Write ``out/truth.csv`` and ``out/hitlists.csv`` for the evaluate-synth workload.

    Each hit list is as long as its truth ranking.  About three quarters of
    the truth items appear, in a noisy version of the truth order, and
    documents outside the truth fill the other places.
    """
    out.mkdir(parents=True, exist_ok=True)
    pool = [f"doc_{i:04d}" for i in range(EVAL_DOC_POOL)]
    truth_rows = []
    hitlists = []
    for size in EVAL_TRUTH_SIZES:
        for k in range(EVAL_QUERIES_PER_SIZE):
            query_id = f"q_n{size:02d}_{k}"
            rng = random.Random(f"{seed}:{query_id}")
            truth = rng.sample(pool, size)
            truth_rows.extend((query_id, rank, doc) for rank, doc in enumerate(truth, start=1))
            kept = [
                (rank + rng.gauss(0.0, size / 5.0), doc)
                for rank, doc in enumerate(truth)
                if rng.random() < 0.75
            ]
            ranked = [doc for _, doc in sorted(kept)]
            others = rng.sample(sorted(set(pool) - set(truth)), size - len(ranked))
            for doc in others:
                ranked.insert(rng.randrange(len(ranked) + 1), doc)
            scores = sorted((round(rng.uniform(0.05, 1.5), 12) for _ in ranked), reverse=True)
            hitlists.append(HitList(query_id, tuple(zip(ranked, scores)), size))
    with open(out / "truth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "rank", "doc_id"])
        writer.writerows(truth_rows)
    write_hitlists_csv(hitlists, out / "hitlists.csv")
