"""All-pairs similarity over compiled node tables.

The per-pair reference (:class:`metric._SimContext`) walks one query/document
pair at a time and prunes alignments that cannot win.  This engine instead
compiles the distinct subtrees of a set of trees once into integer arrays (a
:class:`NodeTable`) and, at one parameter set, computes ``sim`` of every
distinct query subtree against every distinct document subtree: one numpy row
per query subtree, filled bottom-up by query height.

Every score equals the reference bit for bit, because the engine does the
same floating-point operations on the same values:

- an alignment at query depth ``j`` and document depth ``k`` is worth
  ``(cp[j] * dp[k]) * aligned``, and since rounding is monotone, the bound
  times the largest aligned score is the largest of the products;
- argument sums add position by position from the first, and padding adds
  ``+0.0``;
- greedy matching takes the query arguments in order and gives each the best
  unused document argument, the first one on ties.

The reference's pruning skips only alignments that cannot beat the best so
far, which holds while no aligned score exceeds 1.  :func:`prunes_exactly`
checks that for the query arities at hand; every ``omega`` of the bundled
grid passes it for arities below 44.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .mathml import Apply, Constant, ExprTree, Variable
from .metric import MetricParams, decay

CONSTANT, VARIABLE, SYMBOL = range(3)
_APPLY = 3

# Floats (512 KiB) in one temporary array of a scoring pass, unless a single
# row needs more.  It bounds memory whatever the queries' shape; on the
# 420-document benchmark corpus a search then peaks no higher than the per-pair
# metric did (twice this peaked 0.5 MiB higher).
_CELLS = 1 << 16


def _leaf_key(node: ExprTree) -> tuple:
    kind = type(node)
    if kind is Constant:
        # The metric compares constants by their text alone.
        return (CONSTANT, node.value)
    if kind is Variable:
        return (VARIABLE, node.name)
    return (SYMBOL, node.cd, node.name)


def _distinct(trees: Sequence[ExprTree]) -> tuple[list[tuple], list[int]]:
    """Metric-distinct subtrees in post-order, and the position of each root.

    A leaf's key is its :func:`_leaf_key`; an application's is its children's
    positions.  The walk is iterative, so depth is limited by memory only.
    """
    keys: list[tuple] = []
    position: dict[tuple, int] = {}
    seen: dict[int, int] = {}  # id(node) -> position; the trees keep ids alive
    roots = []
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack[-1]
            if id(node) in seen:
                stack.pop()
                continue
            if type(node) is Apply:
                children = (node.head, *node.args)
                pending = [c for c in children if id(c) not in seen]
                if pending:
                    stack.extend(pending)
                    continue
                key = (_APPLY, *(seen[id(c)] for c in children))
            else:
                key = _leaf_key(node)
            stack.pop()
            pos = position.get(key)
            if pos is None:
                pos = position[key] = len(keys)
                keys.append(key)
            seen[id(node)] = pos
        roots.append(seen[id(tree)])
    return keys, roots


class NodeTable:
    """The distinct subtrees of some trees as integer arrays.

    Positions are ordered by height, so children come before parents and the
    leaves (height 0) are positions ``0 .. leaves - 1``, and a leaf's position
    doubles as the code of its text.  Applications are indexed from
    ``leaves`` on:

    - ``heads[a]`` and ``args[a]`` are the positions of the children of
      position ``leaves + a``; ``args`` is padded with ``size``;
    - ``children`` is ``args`` padded with the head instead, so the maximum
      of a row over ``heads`` and the columns of ``children`` moves "best
      subtree at depth ``k - 1``" to "at depth ``k``";
    - ``level_start[h]`` is the first position of height ``h`` or more.
    """

    def __init__(self, trees: Sequence[ExprTree]):
        keys, roots = _distinct(trees)
        heights = [0] * len(keys)
        for pos, key in enumerate(keys):
            if key[0] == _APPLY:
                heights[pos] = 1 + max(heights[c] for c in key[1:])
        order = sorted(range(len(keys)), key=heights.__getitem__)
        rank = [0] * len(keys)
        for new, old in enumerate(order):
            rank[old] = new
        self.size = len(keys)
        self.roots = np.array([rank[r] for r in roots], dtype=np.intp)
        height_of = np.array([heights[old] for old in order], dtype=np.intp)
        self.level_start = np.searchsorted(height_of, np.arange(height_of[-1] + 2))
        self.leaves = int(self.level_start[1])

        leaf_keys = [keys[old] for old in order[: self.leaves]]
        self.leaf_position = {key: pos for pos, key in enumerate(leaf_keys)}
        self.kind = np.array([key[0] for key in leaf_keys], dtype=np.int8)
        self.cd_code: dict[str, int] = {}
        self.cd = np.array(
            [self.cd_code.setdefault(key[1], len(self.cd_code)) if key[0] == SYMBOL else -1
             for key in leaf_keys],
            dtype=np.intp,
        )

        children = [[rank[c] for c in keys[old][1:]] for old in order[self.leaves:]]
        self.heads = np.array([c[0] for c in children], dtype=np.intp)
        self.arity = np.array([len(c) - 1 for c in children], dtype=np.intp)
        width = int(self.arity.max(initial=0))
        self.args = np.full((len(children), width), self.size, dtype=np.intp)
        for a, c in enumerate(children):
            self.args[a, : len(c) - 1] = c[1:]
        # The same with the head as padding, which leaves a maximum unchanged;
        # one column per argument place, for the walk down the depths.
        self.children = np.asfortranarray(
            np.where(self.args == self.size, self.heads[:, None], self.args)
        )

    @cached_property
    def ancestors(self) -> list[list[tuple[int, int]]]:
        """Per position, each (depth, ancestor) it sits below, itself at depth 0.

        There is one entry for every distinct pair, so a chain of depth ``D``
        has about ``D * D / 2`` of them; ``MAX_DEPTH`` bounds parsed queries.
        """
        below: list[set[tuple[int, int]]] = [{(pos, 0)} for pos in range(self.leaves)]
        for a, head in enumerate(self.heads.tolist()):
            children = [head, *self.args[a, : self.arity[a]].tolist()]
            below.append({(self.leaves + a, 0)}
                         | {(s, j + 1) for c in children for s, j in below[c]})
        ancestors: list[list[tuple[int, int]]] = [[] for _ in below]
        for u, found in enumerate(below):
            for s, j in found:
                ancestors[s].append((j, u))
        return ancestors

    def symbol_heads(self, symbols: frozenset[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
        """Per application: is its head a symbol, and is that symbol in ``symbols``."""
        is_symbol = self.heads < self.leaves
        is_symbol[is_symbol] = self.kind[self.heads[is_symbol]] == SYMBOL
        wanted = [self.leaf_position[(SYMBOL, cd, name)] for cd, name in symbols
                  if (SYMBOL, cd, name) in self.leaf_position]
        return is_symbol, np.isin(self.heads, wanted)


def prunes_exactly(omega: float, queries: NodeTable) -> bool:
    """True when no aligned score of these queries can exceed 1.

    The largest aligned score of a query application with ``p`` arguments is
    ``omega / (p + omega) + 1 / (p + omega) * p`` as the reference rounds it.
    """
    return all(
        omega / (p + omega) + 1.0 / (p + omega) * p <= 1.0
        for p in set(queries.arity.tolist())
    )


def _leaf_rows(docs: NodeTable, queries: NodeTable, rows: range, params: MetricParams) -> np.ndarray:
    """``leaf_sim`` of query leaves ``rows`` against every document leaf."""
    q_kind = queries.kind[rows.start : rows.stop, None]
    d_kind = docs.kind[None, :]
    # The score of two leaves with different text, by the kinds of the two.
    unequal = np.array([
        [params.delta, params.theta, 0.0],
        [params.theta, params.zeta, 0.0],
        [0.0, 0.0, params.mu],
    ])
    scores = unequal[q_kind, d_kind]
    q_keys = list(queries.leaf_position)[rows.start : rows.stop]  # in position order
    q_cd = np.array([docs.cd_code.get(key[1], -2) if key[0] == SYMBOL else -1 for key in q_keys])
    scores[(q_kind == SYMBOL) & (d_kind == SYMBOL) & (q_cd[:, None] != docs.cd[None, :])] = 0.0
    same = np.array([docs.leaf_position.get(key, -1) for key in q_keys])
    found = np.nonzero(same >= 0)[0]
    scores[found, same[found]] = 1.0
    return scores


def _greedy_sums(sim: np.ndarray, q_args: np.ndarray, d_args: np.ndarray,
                 counts: np.ndarray, pad: int) -> np.ndarray:
    """``greedy_sum`` for each row of paired argument lists."""
    rows = np.arange(len(counts))
    used = d_args == pad
    total = np.zeros(len(counts))
    for i in range(int(counts.max())):
        candidates = sim[q_args[:, i, None], d_args]
        candidates[used] = -1.0
        best = candidates.argmax(axis=1)
        active = i < counts
        total = total + np.where(active, candidates[rows, best], 0.0)
        used[rows[active], best[active]] = True
    return total


def _aligned_rows(sim: np.ndarray, docs: NodeTable, queries: NodeTable, apps: slice,
                  omega: float, doc_symbols, query_symbols) -> np.ndarray:
    """Root-aligned score of query applications ``apps`` against every document one."""
    q_heads, q_args, q_arity = queries.heads[apps], queries.args[apps], queries.arity[apps]
    head = sim[q_heads[:, None], docs.heads[None, :]]
    args = np.zeros_like(head)
    for i in range(min(q_args.shape[1], docs.args.shape[1])):
        args = args + sim[q_args[:, i, None], docs.args[None, :, i]]
    # Greedy where both heads are symbols and either is commutative.
    d_symbol, d_commutative = doc_symbols
    q_symbol, q_commutative = query_symbols[0][apps], query_symbols[1][apps]
    greedy = (
        (q_symbol & (q_arity > 0))[:, None]
        & (d_symbol & (docs.arity > 0))[None, :]
        & (q_commutative[:, None] | d_commutative[None, :])
    )
    q_index, d_index = np.nonzero(greedy)
    if q_index.size:
        counts = np.minimum(q_arity[q_index], docs.arity[d_index])
        args[q_index, d_index] = _greedy_sums(
            sim, q_args[q_index], docs.args[d_index], counts, docs.size
        )
    p = q_arity.astype(float)
    alpha = omega / (p + omega)
    beta = 1.0 / (p + omega)
    return alpha[:, None] * head + beta[:, None] * args


def _raise_ancestors(
    sim: np.ndarray, docs: NodeTable, queries: NodeTable, rows: range,
    params: MetricParams, bounds: np.ndarray, symbols,
) -> None:
    """Raise the ``sim`` rows of every query subtree above ``rows`` by their alignments.

    Query position ``s`` at depth ``j`` below ``u`` aligned with a document
    subtree at depth ``k`` below ``d`` adds ``(cp[j] * dp[k]) * aligned`` to
    the candidates of ``sim(u, d)``.  The rows of ``rows`` must be final.
    """
    n = docs.size
    # The aligned score of each row's subtree with each document subtree, then
    # with the best of its document descendants at depth k = 1, 2, ...
    reach = np.zeros((len(rows), n))
    if rows.start < queries.leaves:
        reach[:, : docs.leaves] = _leaf_rows(docs, queries, rows, params)
    else:
        apps = slice(rows.start - queries.leaves, rows.stop - queries.leaves)
        reach[:, docs.leaves :] = _aligned_rows(sim, docs, queries, apps, params.omega, *symbols)
    pairs = sorted((u, j, s - rows.start) for s in rows for j, u in queries.ancestors[s])
    levels = sorted({j for _, j, _ in pairs})
    scale = bounds[levels][:, :, None, None]
    at_depth = scale[:, 0] * reach
    for k in range(1, len(docs.level_start) - 1):
        # Only applications of height k or more have descendants at depth k.
        start = int(docs.level_start[k])
        apps = slice(start - docs.leaves, None)
        below = reach[:, docs.heads[apps]]
        for place in docs.children[apps].T:
            np.maximum(below, reach[:, place], out=below)
        reach = np.zeros_like(reach)
        reach[:, start:] = below
        np.maximum(at_depth[..., start:], scale[:, k] * below, out=at_depth[..., start:])
    level_of = {j: i for i, j in enumerate(levels)}
    step = max(1, _CELLS // n)
    for first in range(0, len(pairs), step):
        us, js, local = zip(*pairs[first : first + step])
        targets, starts = np.unique(us, return_index=True)
        found = at_depth[[level_of[j] for j in js], list(local)]
        sim[targets, :n] = np.maximum(sim[targets, :n], np.maximum.reduceat(found, starts, axis=0))


def similarities(
    docs: NodeTable,
    queries: NodeTable,
    params: MetricParams,
    commutative: frozenset[tuple[str, str]],
) -> np.ndarray:
    """``sim`` of every query position (rows) against every document position.

    Exact only when :func:`prunes_exactly` holds for ``params.omega``.
    Temporary arrays are cut to about ``_CELLS`` floats, so memory grows with
    query subtrees times document subtrees, not with the depth pairs.
    """
    n = docs.size
    heights = len(queries.level_start) - 1
    cp = [decay(params.cp_model(), j, params.epsilon) for j in range(heights)]
    dp = [decay(params.dp_model(), k, params.epsilon) for k in range(len(docs.level_start) - 1)]
    bounds = np.multiply.outer(cp, dp)
    symbols = (docs.symbol_heads(commutative), queries.symbol_heads(commutative))
    # A row holds the best candidate so far until its height is done, then
    # the final score.  One padding row and column, both 0, stand for
    # missing arguments.
    sim = np.zeros((queries.size + 1, n + 1))
    # Rows per pass: one row's temporaries hold a few times ``n`` floats per
    # query depth and per argument place.
    step = max(1, _CELLS // ((heights + docs.children.shape[1] + 3) * n))
    for h in range(heights):
        lo, hi = int(queries.level_start[h]), int(queries.level_start[h + 1])
        # Every subtree of height h has its descendants done; rows of one
        # height only need lower ones, so the block splits freely.
        for first in range(lo, hi, step):
            rows = range(first, min(first + step, hi))
            _raise_ancestors(sim, docs, queries, rows, params, bounds, symbols)
        np.minimum(sim[lo:hi, :n], 1.0, out=sim[lo:hi, :n])
    return sim[: queries.size, :n]
