"""All-pairs similarity over compiled node tables.

The per-pair reference (:class:`metric._SimContext`) walks one query/document
pair at a time and prunes alignments that cannot win.  This engine instead
compiles the distinct subtrees of a set of trees once into integer arrays (a
:class:`NodeTable`) and, at one parameter set, computes ``sim`` of every
distinct query subtree against every distinct document subtree: one numpy row
per query subtree, filled bottom-up by query height.

Scoring has two steps.  A :class:`Plan`, built once from the document table,
the query table and the commutative symbols, holds all that the parameters
leave alone: the distinct (leaf term, query depth) rows of the query leaves
and, per query subtree, the rows it takes its best from; and blocks of query
applications with their ancestor pairs, argument places, arities and greedy
pairs.  A table holds its applications' children once, in one column-major
array of child places.  The document table keeps what depends on the
documents alone, for every plan on it: the gather lists of the walk down its
depths, the least depth of each kind of leaf below each position, and, per
commutative set, the documents each class of query application matches
greedily.  A one-query plan, built afresh by every search, so gathers its
greedy pairs from rows the table already holds.  Calling the plan with a
parameter set is then gathers and arithmetic only, so a tuning run pays for
the plan once.  The gathers of the walk, the application reach, the greedy
steps, the leaf rows and the ancestor updates are single-axis or flat
``take`` calls over indexes the plan holds: on blocks of one or two rows,
numpy's 2-D fancy indexing costs several times more per call.  The leaf
stage and the ancestor updates raise each target to the best of its member
rows the same way, by member rank (:func:`_member_ranks`, :func:`_raise`).

Every score equals the reference bit for bit, because the engine does the
same floating-point operations on the same values:

- an alignment at query depth ``j`` and document depth ``k`` is worth
  ``(cp[j] * dp[k]) * aligned``, and since rounding is monotone, the bound
  times the largest aligned score is the largest of the products;
- ``decay`` never grows with depth, for every shape, so neither does
  ``cp[j] * dp[k]`` in ``j`` or ``k``: of equal aligned scores, the least
  depths give the largest product, and only they need scoring;
- argument sums add position by position from the first, and padding adds
  ``+0.0``;
- greedy matching takes the query arguments in order and gives each the best
  unused document argument, the first one on ties;
- against a document with two arguments, that is ``v01 + v10`` where the
  first query argument scores higher with the second document argument
  (``v01 > v00``, with ``v_ij`` the score of query argument ``i`` against
  document argument ``j``), and the ordered sum ``v00 + v11`` otherwise;
- both paths clamp the aligned score to 1, so the reference's pruning skips
  only alignments that cannot beat the best so far.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, zip_longest
from typing import NamedTuple, Sequence

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


def _distinct(trees: Sequence[ExprTree]) -> tuple[list[tuple], list[int], list[int]]:
    """Metric-distinct subtrees in post-order, the height of each, and the position of each root.

    A leaf's key is its :func:`_leaf_key`; an application's is its children's
    positions.  The walk is iterative, so depth is limited by memory only.
    """
    keys: list[tuple] = []
    heights: list[int] = []
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
                key = (_APPLY, *[seen[id(c)] for c in children])
            else:
                key = _leaf_key(node)
            stack.pop()
            pos = position.get(key)
            if pos is None:
                pos = position[key] = len(keys)
                keys.append(key)
                heights.append(1 + max([heights[c] for c in key[1:]]) if key[0] == _APPLY else 0)
            seen[id(node)] = pos
        roots.append(seen[id(tree)])
    return keys, heights, roots


class NodeTable:
    """The distinct subtrees of some trees as integer arrays.

    Positions are ordered by height, so children come before parents and the
    leaves (height 0) are positions ``0 .. leaves - 1``, and a leaf's position
    doubles as the code of its text: ``leaf_keys[pos]`` is its
    :func:`_leaf_key`, and ``leaf_position`` maps back.  Applications are
    indexed from ``leaves`` on:

    - ``places`` holds the children once, read-only and C-contiguous, one
      row per child place: ``places[0, a]`` is the head of position
      ``leaves + a`` and ``places[1 + i, a]`` its argument ``i``, padded
      with ``size``; ``heads`` and ``args`` are views of it, ``heads[a]``
      the head and ``args[a]`` the arguments;
    - ``level_start[h]`` is the first position of height ``h`` or more.

    What plans on the table share is kept on it, read-only, and computed on
    first use: the walk, least leaf depths, and per commutative set
    :meth:`greedy_classes` and :meth:`greedy_documents`.
    """

    def __init__(self, trees: Sequence[ExprTree]):
        keys, heights, roots = _distinct(trees)
        order = sorted(range(len(keys)), key=heights.__getitem__)
        rank = [0] * len(keys)
        for new, old in enumerate(order):
            rank[old] = new
        self.size = len(keys)
        self.roots = np.array([rank[r] for r in roots], dtype=np.intp)
        per_height = [0] * (heights[order[-1]] + 1)
        for h in heights:
            per_height[h] += 1
        self.level_start = np.array([*accumulate(per_height, initial=0)], dtype=np.intp)
        self.leaves = per_height[0]

        self.leaf_keys = [keys[old] for old in order[: self.leaves]]
        self.leaf_position = {key: pos for pos, key in enumerate(self.leaf_keys)}
        self.kind = np.array([key[0] for key in self.leaf_keys], dtype=np.int8)
        self.cd_code: dict[str, int] = {}
        self.cd = np.array(
            [self.cd_code.setdefault(key[1], len(self.cd_code)) if key[0] == SYMBOL else -1
             for key in self.leaf_keys],
            dtype=np.intp,
        )

        children = [[rank[c] for c in keys[old][1:]] for old in order[self.leaves:]]
        self.arity = np.array([len(c) - 1 for c in children], dtype=np.intp)
        self.places = np.array([*zip_longest(*children, fillvalue=self.size)], dtype=np.intp).reshape(
            max(map(len, children), default=1), len(children))
        self.places.flags.writeable = False
        self.heads, self.args = self.places[0], self.places[1:].T
        self._greedy_classes: dict[frozenset, np.ndarray] = {}
        self._greedy_documents: dict[frozenset, tuple[np.ndarray, list[bool], list[_LoopDocuments]]] = {}
        self._leaf_depths: dict[int, np.ndarray] = {}

    @cached_property
    def walk(self) -> list[tuple[int, list[np.ndarray]]]:
        """Per depth ``k >= 1``: ``(start, places)`` for a walk down the applications.

        A query application aligns with a document leaf at 0, so the walk
        holds document applications alone.  Only positions from ``start`` on
        (height ``k + 1`` or more) have applications at depth ``k`` below
        them.  The best of those is the best
        at depth ``k - 1`` below their children of height ``k`` or more, so
        the maximum of a row's columns ``places`` of the previous depth takes
        it from depth ``k - 1`` to ``k``.  Depth 0 is the application columns,
        from ``leaves`` on, and columns count from the previous depth's
        ``start``; a position with fewer such children repeats its first,
        which leaves the maximum unchanged.  So there are
        ``len(level_start) - 3`` depths, none for a table of height 1 or less.
        """
        walk = []
        first = self.leaves
        for k in range(1, len(self.level_start) - 2):
            start = int(self.level_start[k + 1])
            # Only the places these positions use; padding is ``size``, above every position.
            below = self.places[: 1 + self.arity[start - self.leaves :].max(), start - self.leaves :]
            kept = (below >= first) & (below < self.size)
            counts = kept.sum(axis=0)
            # Kept children first, in order; each position has at least one.
            packed = np.take_along_axis(below, np.argsort(~kept, axis=0, kind="stable"), axis=0)
            packed = packed[: counts.max()]
            packed = np.where(np.arange(len(packed))[:, None] < counts, packed, packed[:1])
            walk.append((start, list(packed - first)))
            first = start
        return walk

    @cached_property
    def ancestors(self) -> list[list[tuple[int, int]]]:
        """Per position, each (depth, ancestor) it sits below, itself at depth 0.

        There is one entry for every distinct pair, so a chain of depth ``D``
        has about ``D * D / 2`` of them; ``MAX_DEPTH`` bounds parsed queries.
        """
        below: list[set[tuple[int, int]]] = [{(pos, 0)} for pos in range(self.leaves)]
        for head, args, arity in zip(self.heads.tolist(), self.args.tolist(), self.arity.tolist()):
            found = {(len(below), 0)}
            for c in {head, *args[:arity]}:
                found.update([(s, j + 1) for s, j in below[c]])
            below.append(found)
        ancestors: list[list[tuple[int, int]]] = [[] for _ in below]
        for u, found in enumerate(below):
            for s, j in found:
                ancestors[s].append((j, u))
        return ancestors

    def _least_depths(self, found: np.ndarray) -> np.ndarray:
        """Per row of the mask ``found`` over the leaves, the least depth of a marked leaf.

        A leaf is at depth 0 below itself.  Where a position has no marked
        leaf below it, the depth is the sentinel ``len(level_start) - 1``,
        one past the deepest depth, so a pass that appends a zero column to
        its depth bounds scores it 0.  One pass bottom-up by height takes
        every row at once: a position's least depth is one more than its
        children's least.
        """
        none = len(self.level_start) - 1
        least = np.full((len(found), self.size + 1), none, dtype=np.min_scalar_type(none + 1))
        least[:, : self.leaves][found] = 0
        # Padding is ``size``: the last column, always the sentinel.
        for h in range(1, none):
            lo, hi = int(self.level_start[h]), int(self.level_start[h + 1])
            first, *rest = self.places[:, lo - self.leaves : hi - self.leaves]
            below = least.take(first, axis=1)
            for place in rest:
                np.minimum(below, least.take(place, axis=1), out=below)
            least[:, lo:hi] = np.minimum(below + 1, none)
        least = least[:, : self.size]
        least.flags.writeable = False
        return least

    @cached_property
    def class_depths(self) -> np.ndarray:
        """Least depth below each position of a leaf of each class.

        The classes are constants, variables and the symbols of each content
        dictionary: rows ``CONSTANT`` and ``VARIABLE``, then
        ``SYMBOL + cd_code[cd]``; read-only, as :meth:`_least_depths` gives
        them.
        """
        row = np.where(self.kind == SYMBOL, SYMBOL + self.cd, self.kind)
        return self._least_depths(row == np.arange(SYMBOL + len(self.cd_code))[:, None])

    def leaf_depths(self, leaves: Sequence[int]) -> list[np.ndarray]:
        """Least depth below each position of each leaf position of ``leaves``.

        Rows are kept by leaf, read-only, so plans on one table compute each
        once, and only for the leaves some query set has: a full leaves by
        positions table would grow with the square of the corpus.
        """
        missing = sorted(set(leaves) - self._leaf_depths.keys())
        if missing:
            found = np.zeros((len(missing), self.leaves), dtype=bool)
            found[np.arange(len(missing)), missing] = True
            self._leaf_depths.update(zip(missing, self._least_depths(found)))
        return [self._leaf_depths[t] for t in leaves]

    def greedy_classes(self, symbols: frozenset[tuple[str, str]]) -> np.ndarray:
        """Per application, how it matches arguments: its greedy class.

        0: in order (its head is no symbol, or it has no arguments); 1: a
        symbol head; 2: a symbol head in ``symbols``.  Kept per ``symbols``,
        read-only, so a document table shared by many plans computes them once.
        """
        found = self._greedy_classes.get(symbols)
        if found is None:
            heads = [self.leaf_keys[h] if h < self.leaves else (_APPLY,) for h in self.heads.tolist()]
            found = np.array([1 + (key[1:] in symbols) if key[0] == SYMBOL and arity else 0
                              for key, arity in zip(heads, self.arity.tolist())], dtype=np.int8)
            found.flags.writeable = False
            self._greedy_classes[symbols] = found
        return found

    def greedy_documents(
        self, symbols: frozenset[tuple[str, str]]
    ) -> tuple[np.ndarray, list[bool], list[_LoopDocuments]]:
        """``(swap, swaps, loops)``: what each class of query application matches greedily.

        The classes are those of :meth:`greedy_classes`.  A symbol head
        matches the applications with a symbol head in ``symbols`` greedily;
        one in ``symbols``, every application with a symbol head.  Per class
        ``c``, of those it matches:

        - ``swap[c]`` marks the ones with two arguments, and ``swaps[c]``
          says whether there are any;
        - ``loops[c]`` holds the ones with three or more.

        Kept per ``symbols``, read-only, like :meth:`greedy_classes`: a query
        row's greedy pairs depend on its class alone, so every plan on the
        table gathers them from these.
        """
        found = self._greedy_documents.get(symbols)
        if found is None:
            classes = self.greedy_classes(symbols)
            matched = np.stack([np.zeros(len(classes), dtype=bool), classes == 2, classes > 0])
            swap = matched & (self.arity == 2)
            swap.flags.writeable = False
            by_arity = np.argsort(-self.arity, kind="stable")
            loops = []
            for row in matched[:, by_arity] & (self.arity[by_arity] > 2):
                apps = by_arity[row]
                args = self.args[apps]
                padding = args == self.size
                for array in (apps, args, padding):
                    array.flags.writeable = False
                loops.append(_LoopDocuments(apps, args, padding, np.count_nonzero(~padding, axis=0).tolist()))
            found = self._greedy_documents[symbols] = swap, swap.any(axis=1).tolist(), loops
        return found


class _LoopDocuments(NamedTuple):
    """The document applications, of three or more arguments, that one class of query row loops over.

    They are ordered by arity, most arguments first, and ties by position,
    so the ones with more than ``i`` arguments are the first ``wider[i]``.
    """

    apps: np.ndarray  # application indexes
    args: np.ndarray  # their rows of ``NodeTable.args``
    padding: np.ndarray  # where those rows are padding
    wider: list[int]


def _leaf_terms(docs: NodeTable, key: tuple, classes: int) -> list[tuple[int, int]]:
    """The ``(row, code)`` terms of a query leaf with :func:`_leaf_key` ``key``.

    A row below ``classes`` is that row of ``docs.class_depths``; from
    ``classes`` on, row ``classes + t`` is the least depths of document leaf
    ``t``.  Codes index ``[0.0, delta, theta, zeta, mu, 1.0]``.
    """
    same = docs.leaf_position.get(key)
    terms = [] if same is None else [(classes + same, 5)]
    if key[0] == CONSTANT:
        terms += [(CONSTANT, 1), (VARIABLE, 2)]
    elif key[0] == VARIABLE:
        terms += [(VARIABLE, 3), (CONSTANT, 2)]
    elif key[1] in docs.cd_code:
        terms.append((SYMBOL + docs.cd_code[key[1]], 4))
    return terms


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)``, but the part itself when there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _member_ranks(members: dict[int, list[int]], step: int) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """``{target: member rows}`` as ``(targets, ranks)`` pieces of at most ``step`` targets.

    Targets are ordered by member count, falling, so those with more than
    ``c`` members are a prefix, and rank ``c`` holds the ``c``-th member of
    each of them.
    """
    targets = sorted(members, key=lambda u: -len(members[u]))
    pieces = []
    for first in range(0, len(targets), step):
        piece = targets[first : first + step]
        ranks = [np.array([r for r in rank if r is not None], dtype=np.intp)
                 for rank in zip_longest(*[members[u] for u in piece])]
        pieces.append((np.array(piece, dtype=np.intp), ranks))
    return pieces


def _raise(rows: np.ndarray, ranks: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Each target's maximum over its member ``rows``: a take and a maximum per rank."""
    first, *rest = ranks
    # Every index is in range; "wrap" lets take write to out unbuffered.
    best = rows.take(first, axis=0, out=out, mode="wrap")
    for rank in rest:
        head = best[: len(rank)]
        np.maximum(head, rows.take(rank, axis=0), out=head)
    return best


class _ApplyBlock:
    """Query applications of one height that one pass scores, and the ancestors they raise.

    Query position ``s`` at depth ``j`` below ``u`` aligned with a document
    subtree at depth ``k`` below ``d`` adds ``(cp[j] * dp[k]) * aligned`` to
    the candidates of ``sim(u, d)``.  Each ancestor ``u`` gets the maximum of
    its ``(j, s)`` pairs.  A pass holds those candidates as one
    ``(levels, rows, n)`` array; viewed as ``(levels * rows, n)``, pair
    ``(j, s)`` is the flat row ``level * rows + local``, where ``level``
    indexes ``levels`` and ``local`` is ``s``'s row in the block.
    ``updates`` are the :func:`_member_ranks` pieces of the ancestors and
    their flat rows, about ``_CELLS`` floats each.

    ``heads`` and each of ``places`` are 1-D query positions, one per row,
    that pick rows of ``sim``; the columns are the document places of the
    same child, rows of the document table's ``places``.  Query places past
    every row's arity, or past the documents' width, are left out.

    Arguments are matched greedily where both heads are symbols and either is
    commutative, so a row's greedy pairs depend on its class in
    :meth:`NodeTable.greedy_documents` alone.  Where the document has two
    arguments, ``swap`` holds the mask of those pairs, rows of the table's
    ``swap``, and the first and second query places; padding stands in for
    a missing second query argument.  Where it has one, the ordered sum is the
    greedy one.  Only documents with three or more arguments run the greedy
    loop: each row against its class's loop documents.  The pairs are
    ordered by how many arguments they match, most first, so those that
    match more than ``i`` arguments, the ``i``-th greedy step, are a prefix.
    ``d_index`` holds each pair's document application and ``store`` its
    flat place in the ``(rows, document applications)`` sums; ``greedy[i]``
    holds, for step ``i``'s pairs, the flat places in ``sim.reshape(-1)`` of
    the ``i``-th query argument against each document argument.  ``used``
    marks the padding of the document arguments, and ``offsets`` the first
    flat place of each pair's row of it.  Blocks without greedy-loop pairs
    have ``greedy == []`` and none of these.
    """

    def __init__(self, docs: NodeTable, queries: NodeTable, rows: range, p: np.ndarray, greedy_class: list[int],
                 greedy_docs):
        self.rows = rows
        ancestors = queries.ancestors
        levels = sorted({j for s in rows for j, _ in ancestors[s]})
        first_row = {j: i * len(rows) for i, j in enumerate(levels)}
        self.levels = np.array(levels, dtype=np.intp)
        pairs: dict[int, list[int]] = {}
        for s in rows:
            for j, u in ancestors[s]:
                pairs.setdefault(u, []).append(first_row[j] + s - rows.start)
        self.updates = _member_ranks(pairs, max(1, _CELLS // docs.size))

        apps = slice(rows.start - queries.leaves, rows.stop - queries.leaves)
        self.heads = queries.heads[apps]
        arity = queries.arity[apps].tolist()
        # Places past the rows' arity are padding, which adds +0.0, and so are
        # those past the documents' width.
        self.places = list(queries.places[1 : 1 + min(max(arity), docs.args.shape[1]), apps])
        self.p = p[apps]
        swap, swaps, loops = greedy_docs
        classes = greedy_class[apps]
        self.swap = None
        if any([swaps[c] for c in classes]):
            q_first, *rest = self.places
            q_second = rest[0] if rest else np.full(len(rows), queries.size)
            self.swap = swap.take(classes, axis=0), q_first, q_second

        # A row matches more than i arguments with the first wider[i] of its
        # loop documents, up to its own arity.  So its pairs split into runs
        # that match exactly v, and with the runs ordered by v, falling, each
        # greedy step's pairs are the runs with v above it.
        above = [(local, loops[c], loops[c].wider[:a] + [0])
                 for local, (c, a) in enumerate(zip(classes, arity)) if c]
        steps = max([len(more) - 1 for *_, more in above], default=0)
        runs = [(v, local, loop, more[v], more[v - 1])
                for v in range(steps, 0, -1) for local, loop, more in above
                if v < len(more) and more[v] < more[v - 1]]
        self.greedy = []
        if not runs:
            return
        q_args = queries.args[apps].tolist()
        row_size = docs.size + 1  # of sim
        self.d_index = _join([loop.apps[lo:hi] for _, _, loop, lo, hi in runs])
        self.store = _join([loop.apps[lo:hi] + local * len(docs.heads) for _, local, loop, lo, hi in runs])
        self.used = _join([loop.padding[lo:hi] for _, _, loop, lo, hi in runs])
        self.offsets = np.arange(0, self.used.size, self.used.shape[1])
        self.greedy = [
            _join([loop.args[lo:hi] + q_args[local][i] * row_size for v, local, loop, lo, hi in runs if v > i])
            for i in range(runs[0][0])
        ]

    def _greedy_sums(self, sim: np.ndarray) -> np.ndarray:
        """``greedy_sum`` of each greedy pair: per step, the first best unused argument of each."""
        used = self.used.copy()
        flat_used = used.reshape(-1)
        total = np.zeros(len(self.d_index))
        for index in self.greedy:
            size = len(index)
            candidates = sim.take(index)
            np.copyto(candidates, -1.0, where=used[:size])
            best = candidates.argmax(axis=1)
            best += self.offsets[:size]
            total[:size] += candidates.take(best)
            flat_used[best] = True
        return total

    def reach(self, sim: np.ndarray, docs: NodeTable, params: MetricParams) -> np.ndarray:
        """Root-aligned score of these query applications against every document one, clamped to 1.

        Columns are the document applications; against a leaf, the aligned
        score is 0.
        """
        head = sim.take(self.heads, axis=0).take(docs.heads, axis=1)
        if not self.places:
            args = np.zeros_like(head)
        # Row i of the table's places is document argument place i - 1.
        for i, q_place in enumerate(self.places, start=1):
            term = sim.take(q_place, axis=0).take(docs.places[i], axis=1)
            if i == 1:
                args = v00 = term
            else:
                args = args + term
        if self.swap is not None:
            swap, q_first, q_second = self.swap
            v01 = sim.take(q_first, axis=0).take(docs.places[2], axis=1)
            v10 = sim.take(q_second, axis=0).take(docs.places[1], axis=1)
            np.copyto(args, v01 + v10, where=swap & (v01 > v00))
        if self.greedy:
            args.put(self.store, self._greedy_sums(sim))
        omega = params.omega
        alpha = omega / (self.p + omega)
        beta = 1.0 / (self.p + omega)
        aligned = alpha * head + beta * args
        return np.minimum(aligned, 1.0, out=aligned)

    def raise_ancestors(self, sim: np.ndarray, reach: np.ndarray, bounds: np.ndarray, docs: NodeTable) -> None:
        """Raise the ``sim`` rows of every query subtree above these rows, in the application columns.

        ``reach`` holds the aligned score of each row's subtree with each
        document application; the rows of the block must be final.  Against
        a document leaf, and so at depths the walk leaves out, every aligned
        score is 0, which raises no row.
        """
        leaves, n = docs.leaves, docs.size
        # The aligned score with the best of each document application's
        # application descendants at depth k = 1, 2, ...
        scale = bounds[self.levels][:, :, None, None]
        at_depth = scale[:, 0] * reach
        below = reach
        for k, (start, places) in enumerate(docs.walk, start=1):
            # One take per place: packed into one 2-D index and reduced with
            # max(axis=2), the places gathered 7 to 11 times slower.
            deeper = below.take(places[0], axis=1)
            for place in places[1:]:
                np.maximum(deeper, below.take(place, axis=1), out=deeper)
            below = deeper
            column = start - leaves
            np.maximum(at_depth[..., column:], scale[:, k] * below, out=at_depth[..., column:])
        at_depth = at_depth.reshape(-1, n - leaves)
        for targets, ranks in self.updates:
            sim[targets, leaves:n] = np.maximum(sim[targets, leaves:n], _raise(at_depth, ranks))


class Plan:
    """Everything of scoring ``queries`` against ``docs`` that the parameters leave alone.

    Built once, a plan scores any number of parameter sets, each pass doing
    only gathers and arithmetic: the leaf terms of each query ancestor, and
    the blocks of query applications with their ancestor pairs, argument
    places and greedy pairs, are fixed by the two tables and
    ``commutative``.  A pass keeps nothing in the plan.

    The leaf stage scores every query leaf at once.  Query leaf ``s`` at
    depth ``j`` below ``u`` and the document leaves below ``d`` give
    ``sim(u, d)`` the best ``(cp[j] * dp[k]) * value`` over their depths
    ``k``, where the value is one of ``[0, delta, theta, zeta, mu, 1]`` and
    depends on the kind of document leaf alone: the same leaf, a constant, a
    variable, or a symbol of one content dictionary.  Decay never grows with
    depth, so of each kind only its least depth below ``d`` can win, and of
    each ``(kind, value)`` term only its least ``j`` below ``u``.  A class
    may hold the same leaf, whose class value at the same depth is at most 1.

    The ancestors of a term share few distinct least ``j``, so the stage
    scores each distinct ``(term, j)`` once, as a row: ``leaf_j`` and
    ``leaf_codes`` hold each row's ``j`` and value code, and ``leaf_spans``
    one ``(span, depths)`` per term, its rows and the least depths of its
    kind, a row of the document table.  ``leaf_targets`` are the ancestors
    with a term and ``leaf_ranks`` their member ranks, one
    :func:`_member_ranks` piece.  A pass gathers ``leaf_width`` document
    columns at a time: one take per term fills the rows, :func:`_raise`
    takes the targets' best into the pass's one buffer, and one assignment
    writes it, since the stage is the first to write ``sim``.  Maxima are
    exact, so the order of the rows leaves every score as it was.
    """

    def __init__(
        self, docs: NodeTable, queries: NodeTable, commutative: frozenset[tuple[str, str]]
    ):
        self.docs, self.queries, self.commutative = docs, queries, commutative
        n = docs.size
        heights = len(queries.level_start) - 1
        classes = len(docs.class_depths)
        # Per (row, code) term, each ancestor that has it with its least j.
        terms: dict[tuple[int, int], dict[int, int]] = {}
        for s, key in enumerate(queries.leaf_keys):
            for term in _leaf_terms(docs, key, classes):
                found = terms.setdefault(term, {})
                for j, u in queries.ancestors[s]:
                    if found.get(u, j + 1) > j:
                        found[u] = j
        leaves = sorted({row - classes for row, _ in terms if row >= classes})
        leaf_rows = dict(zip(leaves, docs.leaf_depths(leaves)))
        # One row per distinct (term, j), each term's rows contiguous in any
        # order; and per query position, the rows of its terms.
        j_of: list[int] = []
        codes: list[int] = []
        self.leaf_spans = []
        members: dict[int, list[int]] = {}
        for (row, code), found in terms.items():
            start = len(j_of)
            j_of += {*found.values()}
            place = dict(zip(j_of[start:], range(start, len(j_of))))
            codes += [code] * (len(j_of) - start)
            depths = docs.class_depths[row] if row < classes else leaf_rows[row - classes]
            self.leaf_spans.append((slice(start, len(j_of)), depths))
            for u, j in found.items():
                members.setdefault(u, []).append(place[j])
        self.leaf_j = np.array(j_of, dtype=np.intp)
        self.leaf_codes = np.array(codes, dtype=np.intp)
        # All targets in one piece: the stage cuts the document columns instead.
        pieces = _member_ranks(members, max(1, len(members)))
        self.leaf_targets, self.leaf_ranks = pieces[0] if pieces else (np.empty(0, dtype=np.intp), [])
        self.leaf_width = max(1, _CELLS // max(len(j_of), len(members), 1))

        greedy_class = queries.greedy_classes(commutative).tolist()
        greedy_docs = docs.greedy_documents(commutative)
        p = queries.arity[:, None].astype(float)
        # Rows per pass: one row's temporaries hold a few times ``n`` floats per
        # query depth and per argument place.
        step = max(1, _CELLS // ((heights + docs.args.shape[1] + 3) * n))
        self.heights = []
        # Against documents that are all leaves, the leaf stage is the whole score.
        for h in (range(1, heights) if docs.leaves < n else ()):
            lo, hi = int(queries.level_start[h]), int(queries.level_start[h + 1])
            # Every subtree of height h has its descendants done; rows of one
            # height only need lower ones, so the block splits freely.
            blocks = [
                _ApplyBlock(docs, queries, range(first, min(first + step, hi)), p, greedy_class, greedy_docs)
                for first in range(lo, hi, step)
            ]
            self.heights.append((slice(lo, hi), blocks))
        self.root_index = queries.roots[:, None], docs.roots

    def _score_leaves(self, sim: np.ndarray, bounds: np.ndarray, params: MetricParams) -> None:
        """Write the ``sim`` row of every query ancestor with a leaf term: its leaves' best."""
        if not self.leaf_ranks:
            return
        values = np.array([0.0, params.delta, params.theta, params.zeta, params.mu, 1.0])
        # Per (term, j) row and depth, ``(cp[j] * dp[k]) * value``; the last
        # column, 0, is where the least-depth sentinel points.
        scored = np.zeros((len(self.leaf_j), bounds.shape[1] + 1))
        np.multiply(bounds.take(self.leaf_j, axis=0), values.take(self.leaf_codes)[:, None], out=scored[:, :-1])
        n, rows, targets = self.docs.size, len(self.leaf_j), len(self.leaf_targets)
        # One allocation for the pass, reused by every piece: a fresh
        # gathered array per piece slowed one-query searches.
        buffer = np.empty((rows + targets) * min(self.leaf_width, n))
        for lo in range(0, n, self.leaf_width):
            columns = slice(lo, min(lo + self.leaf_width, n))
            width = columns.stop - lo
            gathered = buffer[: rows * width].reshape(rows, width)
            best = buffer[rows * width : (rows + targets) * width].reshape(targets, width)
            for span, depths in self.leaf_spans:
                # Every index is in range; "wrap" lets take write to out unbuffered.
                scored[span].take(depths[columns], axis=1, out=gathered[span], mode="wrap")
            sim[self.leaf_targets, columns] = _raise(gathered, self.leaf_ranks, out=best)

    def __call__(self, params: MetricParams) -> np.ndarray:
        """``sim`` of every query root (rows) against every document root.

        Temporary arrays are cut to about ``_CELLS`` floats, so memory grows
        with query subtrees times document subtrees, not with the depth pairs.
        """
        docs, queries = self.docs, self.queries
        n = docs.size
        heights = len(queries.level_start) - 1
        cp_model, dp_model = params.cp_model(), params.dp_model()
        cp = [decay(cp_model, j, params.epsilon) for j in range(heights)]
        dp = [decay(dp_model, k, params.epsilon) for k in range(len(docs.level_start) - 1)]
        bounds = np.multiply.outer(cp, dp)
        # A row holds the best candidate so far until its height is done, then
        # the final score.  One padding row and column, both 0, stand for
        # missing arguments.
        sim = np.zeros((queries.size + 1, n + 1))
        # No leaf score exceeds 1, so leaf rows need no clamp.
        self._score_leaves(sim, bounds, params)
        for done, blocks in self.heights:
            for block in blocks:
                block.raise_ancestors(sim, block.reach(sim, docs, params), bounds, docs)
            np.minimum(sim[done, :n], 1.0, out=sim[done, :n])
        return sim[self.root_index]
