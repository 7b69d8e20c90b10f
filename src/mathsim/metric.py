"""Recursive tree-similarity metric over parsed math expressions.

The score of a query tree against a document tree is the best of three
alignments: both roots aligned (a weighted sum of head similarity and
argument-list similarity), the whole query aligned somewhere inside the
document (depth-penalised), or the whole document aligned inside the query
(depth-penalised, which is also how partial query coverage is charged).
Depth penalties are computed from the absolute depth at which an alignment
roots, under one of four decay shapes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

from .mathml import (
    Apply,
    Constant,
    DEFAULT_EQUALITY_SYMBOLS,
    DEFAULT_INEQUALITY_SYMBOLS,
    ExprTree,
    FormulaClass,
    FunctionSymbol,
    LEAF_TYPES,
    Variable,
)

DECAY_KINDS = ("exponential", "linear", "quadratic", "logarithmic")

DEFAULT_COMMUTATIVE = frozenset(
    {
        ("arith1", "plus"),
        ("arith1", "times"),
        ("arith1", "gcd"),
        ("arith1", "lcm"),
        ("logic1", "and"),
        ("logic1", "or"),
        ("relation1", "eq"),
        ("relation1", "neq"),
        ("set1", "union"),
        ("set1", "intersect"),
    }
)


@dataclass(frozen=True)
class DecayModel:
    """One decay shape with its rate: a^k, or max(1 - rate*g(k), epsilon)."""

    kind: str
    rate: float

    def __post_init__(self) -> None:
        if self.kind not in DECAY_KINDS:
            raise ValueError(f"unknown decay model {self.kind!r}, expected one of {DECAY_KINDS}")
        if not math.isfinite(self.rate):
            raise ValueError("decay rate must be finite")
        if self.kind == "exponential":
            if not 0.0 < self.rate <= 1.0:
                raise ValueError(f"exponential base must be in (0, 1], got {self.rate}")
        elif self.rate < 0.0:
            raise ValueError(f"decay rate must be >= 0, got {self.rate}")


def decay(model: DecayModel, k: int, epsilon: float) -> float:
    """Depth-discount factor at nesting depth ``k``; equals 1 at depth 0.

    Exponential decay ignores ``epsilon``; the other shapes are floored by it
    so the factor stays positive.
    """
    if k < 0:
        raise ValueError(f"match depth must be >= 0, got {k}")
    if model.kind == "exponential":
        return model.rate ** k
    if model.kind == "linear":
        return max(1.0 - model.rate * k, epsilon)
    if model.kind == "quadratic":
        return max(1.0 - model.rate * k * k, epsilon)
    return max(1.0 - model.rate * math.log(k + 1), epsilon)


_FIELD_RANGES = {
    # name: (low, high, low_open, high_open)
    "delta": (0.0, 1.0, False, True),
    "zeta": (0.0, 1.0, False, False),
    "mu": (0.0, 1.0, True, True),
    "theta": (0.0, 1.0, False, True),
    "omega": (1.0, math.inf, True, True),
    "dp_rate": (0.0, math.inf, False, True),
    "cp_rate": (0.0, math.inf, False, True),
    "epsilon": (0.0, 1.0, True, True),
    "w_eq": (0.0, math.inf, True, True),
    "w_ineq": (0.0, math.inf, True, True),
    "w_expr": (0.0, math.inf, True, True),
}


def validate_field(name: str, value: float) -> None:
    """Check one tunable against its own range (cross-field rules not included)."""
    if name not in _FIELD_RANGES:
        raise ValueError(f"unknown metric parameter {name!r}")
    low, high, low_open, high_open = _FIELD_RANGES[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    # Every range starts at 0 or above, so -0.0, which passes ``>= 0.0``, is out of range too.
    ok_low = (value > low if low_open else value >= low) and math.copysign(1.0, value) > 0
    ok_high = value < high if high_open else value <= high
    if not (ok_low and ok_high):
        lo = "(" if low_open else "["
        hi = ")" if high_open else "]"
        raise ValueError(f"{name}={value} outside {lo}{low}, {high}{hi}")


@dataclass(frozen=True)
class MetricParams:
    """Every tunable of the similarity metric.

    ``decay_model`` names the shape shared by both depth penalties;
    ``dp_rate`` drives the query-inside-document penalty and ``cp_rate``
    the document-inside-query one.
    """

    delta: float
    zeta: float
    mu: float
    theta: float
    omega: float
    decay_model: str
    dp_rate: float
    cp_rate: float
    epsilon: float
    w_eq: float
    w_ineq: float
    w_expr: float

    def __post_init__(self) -> None:
        for name in _FIELD_RANGES:
            validate_field(name, getattr(self, name))
        if not (self.w_eq >= self.w_ineq >= self.w_expr):
            raise ValueError(
                f"class weights must satisfy w_eq >= w_ineq >= w_expr, "
                f"got {self.w_eq}, {self.w_ineq}, {self.w_expr}"
            )
        # Constructing the models validates the shape, and the rates against it.
        self.dp_model()
        self.cp_model()

    def dp_model(self) -> DecayModel:
        return DecayModel(self.decay_model, self.dp_rate)

    def cp_model(self) -> DecayModel:
        return DecayModel(self.decay_model, self.cp_rate)

    def weight_for(self, formula_class: FormulaClass) -> float:
        if formula_class is FormulaClass.EQUATION:
            return self.w_eq
        if formula_class is FormulaClass.INEQUALITY:
            return self.w_ineq
        return self.w_expr

    def with_value(self, name: str, value) -> "MetricParams":
        return replace(self, **{name: value})

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricParams":
        if not isinstance(data, dict):
            raise ValueError(f"params document must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in fields(cls)}
        missing = sorted(names - data.keys())
        if missing:
            raise ValueError(f"params document missing keys: {', '.join(missing)}")
        return cls(**{k: data[k] for k in names})


@dataclass(frozen=True)
class SymbolConfig:
    """Symbol inventories: commutative functions plus equality/inequality sets."""

    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE
    equality: frozenset[tuple[str, str]] = DEFAULT_EQUALITY_SYMBOLS
    inequality: frozenset[tuple[str, str]] = DEFAULT_INEQUALITY_SYMBOLS


# Params-file key of each symbol set, and the SymbolConfig field it fills.
_SYMBOL_SET_KEYS = {"commutative": "commutative", "equality_symbols": "equality",
                    "inequality_symbols": "inequality"}


def _symbol_set(key: str, entries: list) -> frozenset[tuple[str, str]]:
    if not isinstance(entries, list):
        raise ValueError(f"{key} must be a list of [cd, name] pairs, got {entries!r}")
    for entry in entries:
        # Only strings: a number or null here is a slip, not a symbol name.
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(part, str) for part in entry)):
            raise ValueError(f"{key} entry {json.dumps(entry)} is not a [cd, name] pair of strings")
    return frozenset(map(tuple, entries))


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file; nesting too deep to decode is a ValueError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("nested too deeply to decode") from exc


def load_params(path: str | Path) -> tuple[MetricParams, SymbolConfig]:
    """Read a params JSON document, including any symbol-set overrides.

    A key that is neither a :class:`MetricParams` field nor a symbol set is
    an error, so a misspelt set cannot fall back to the default unnoticed.
    """
    data = read_json(path)
    params = MetricParams.from_dict(data)
    unknown = sorted(data.keys() - params.to_dict().keys() - _SYMBOL_SET_KEYS.keys())
    if unknown:
        raise ValueError(f"params document has unknown keys: {', '.join(unknown)}")
    symbols = SymbolConfig(**{
        name: _symbol_set(key, data[key]) for key, name in _SYMBOL_SET_KEYS.items() if key in data
    })
    return params, symbols


def save_params(params: MetricParams, path: str | Path) -> None:
    Path(path).write_text(json.dumps(params.to_dict(), indent=2) + "\n", encoding="utf-8")


def _leaf_scorer(params: MetricParams) -> Callable[[ExprTree, ExprTree], float]:
    """``leaf_sim`` at fixed params, for two nodes already known to be leaves."""
    delta, zeta, mu, theta = params.delta, params.zeta, params.mu, params.theta

    def score(n1: ExprTree, n2: ExprTree) -> float:
        kind = type(n1)
        if kind is not type(n2):
            if kind is FunctionSymbol or type(n2) is FunctionSymbol:
                return 0.0
            return theta
        if kind is Constant:
            return 1.0 if n1.value == n2.value else delta
        if kind is Variable:
            return 1.0 if n1.name == n2.name else zeta
        if n1.cd == n2.cd:
            return 1.0 if n1.name == n2.name else mu
        return 0.0

    return score


def leaf_sim(n1: ExprTree, n2: ExprTree, params: MetricParams) -> float:
    """Similarity of two height-0 nodes.

    Constant equality is lexical on the literal text, so "2" and "2.0" are
    unequal constants.
    """
    if not isinstance(n1, LEAF_TYPES) or not isinstance(n2, LEAF_TYPES):
        raise ValueError("leaf_sim requires two height-0 nodes")
    return _leaf_scorer(params)(n1, n2)


# A node's subtrees by depth below it, one tuple per depth, split into the
# leaves and the applications: only leaf/leaf and apply/apply pairs align.
_Levels = tuple[tuple[tuple[ExprTree, ...], ...], tuple[tuple[Apply, ...], ...]]


class _SimContext:
    """Memoised, pruned metric evaluation at one parameter set: the reference.

    ``sim(q, d)`` depends only on the two subtrees and the params, because
    depths count from the subtrees being compared.  So one context can score
    any number of query/document pairs; :func:`sim` and
    :func:`score_document` use a fresh one per pair, and the all-pairs engine
    in :mod:`mathsim.engine` must match them.  Caches are keyed on node
    identity, one row per query node.  Every keyed node is held by the walk
    cache, so no id is reused while the context lives.  Leaf pairs, the most
    numerous and the cheapest, are recomputed rather than cached, to keep the
    caches small.
    """

    def __init__(self, params: MetricParams, commutative: frozenset[tuple[str, str]]):
        self.params = params
        self.commutative = commutative
        self._sim_rows: dict[int, dict[int, float]] = {}
        self._aligned_rows: dict[int, dict[int, float]] = {}
        self._walks: dict[int, _Levels] = {}
        self._leaf = _leaf_scorer(params)
        self._dp_factors = [1.0]
        self._cp_factors = [1.0]
        self._dp_model = params.dp_model()
        self._cp_model = params.cp_model()

    def _factors(self, table: list[float], model: DecayModel, count: int) -> list[float]:
        while len(table) < count:
            table.append(decay(model, len(table), self.params.epsilon))
        return table

    def _walk(self, tree: ExprTree) -> _Levels:
        # Shallowest first, so the depth-bound pruning in sim() can stop early.
        got = self._walks.get(id(tree))
        if got is None:
            leaves, apps = [], []
            level: tuple[ExprTree, ...] = (tree,)
            while level:
                leaves.append(tuple(n for n in level if type(n) is not Apply))
                apps.append(tuple(n for n in level if type(n) is Apply))
                level = tuple(c for a in apps[-1] for c in (a.head, *a.args))
            got = self._walks[id(tree)] = (tuple(leaves), tuple(apps))
        return got

    def sim(self, query: ExprTree, doc: ExprTree) -> float:
        if type(query) is not Apply and type(doc) is not Apply:
            # The only alignment of two leaves is the roots at depth 0.
            return self._leaf(query, doc)
        row = self._sim_rows.get(id(query))
        if row is None:
            row = self._sim_rows[id(query)] = {}
        else:
            cached = row.get(id(doc))
            if cached is not None:
                return cached
        q_leaves, q_apps = self._walk(query)
        d_leaves, d_apps = self._walk(doc)
        cp = self._factors(self._cp_factors, self._cp_model, len(q_leaves))
        self._factors(self._dp_factors, self._dp_model, len(d_leaves))
        best = 0.0
        for j in range(len(q_leaves)):
            cj = cp[j]
            if cj <= best:
                break
            for sub_q in q_leaves[j]:
                best = self._scan(sub_q, d_leaves, cj, best, self._leaf)
            for sub_q in q_apps[j]:
                best = self._scan(sub_q, d_apps, cj, best, self._aligned)
        result = min(best, 1.0)
        row[id(doc)] = result
        return result

    def _scan(self, sub_q, d_levels, cj: float, best: float, aligned) -> float:
        # Raise `best` with the alignments of sub_q (at depth j in the query,
        # hence cj) and each doc subtree at depth k, scaled by cj * dp(k).
        # Decay never grows with depth, so once best reaches the bound no
        # later pair of this level or a deeper one can beat it.
        dp = self._dp_factors
        for k, level in enumerate(d_levels):
            bound = cj * dp[k]
            if bound <= best:
                break
            for sub_d in level:
                value = bound * aligned(sub_q, sub_d)
                if value > best:
                    best = value
                    if best >= bound:
                        break
        return best

    def _aligned(self, q: Apply, d: Apply) -> float:
        # Score of two applications with their roots aligned.
        row = self._aligned_rows.get(id(q))
        if row is None:
            row = self._aligned_rows[id(q)] = {}
        else:
            cached = row.get(id(d))
            if cached is not None:
                return cached
        p = len(q.args)
        omega = self.params.omega
        alpha = omega / (p + omega)
        beta = 1.0 / (p + omega)
        # In exact arithmetic the score is at most 1, but it can round one ulp
        # above; the clamp keeps the pruning in _scan exact.
        value = min(alpha * self.sim(q.head, d.head) + beta * self._arg_list_sim(q, d), 1.0)
        row[id(d)] = value
        return value

    def _arg_list_sim(self, q: Apply, d: Apply) -> float:
        if not q.args or not d.args:
            return 0.0
        if self._use_greedy(q.head, d.head):
            return self.greedy_sum(q.args, d.args)
        return self.ordered_sum(q.args, d.args)

    def _use_greedy(self, head1: ExprTree, head2: ExprTree) -> bool:
        # Argument order is only relaxed when both heads are plain symbols
        # and at least one of them is a commutative function.
        if not isinstance(head1, FunctionSymbol) or not isinstance(head2, FunctionSymbol):
            return False
        return (
            (head1.cd, head1.name) in self.commutative
            or (head2.cd, head2.name) in self.commutative
        )

    def ordered_sum(self, args1: Sequence[ExprTree], args2: Sequence[ExprTree]) -> float:
        return sum(self.sim(a, b) for a, b in zip(args1, args2))

    def greedy_sum(self, args1: Sequence[ExprTree], args2: Sequence[ExprTree]) -> float:
        used = [False] * len(args2)
        total = 0.0
        for arg in args1[: min(len(args1), len(args2))]:
            best_j = -1
            best_v = -1.0
            for j, other in enumerate(args2):
                if used[j]:
                    continue
                v = self.sim(arg, other)
                if v > best_v:
                    best_v = v
                    best_j = j
            used[best_j] = True
            total += best_v
        return total


def sim(
    query: ExprTree,
    doc: ExprTree,
    params: MetricParams,
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
) -> float:
    """Similarity of ``doc`` to ``query`` in [0, 1]; 1 for identical trees."""
    return _SimContext(params, commutative).sim(query, doc)


def arg_list_sim_ordered(
    args1: Sequence[ExprTree],
    args2: Sequence[ExprTree],
    params: MetricParams,
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
) -> float:
    """Order-respecting argument-list similarity: sum over corresponding pairs."""
    return _SimContext(params, commutative).ordered_sum(args1, args2)


def arg_list_sim_greedy(
    args1: Sequence[ExprTree],
    args2: Sequence[ExprTree],
    params: MetricParams,
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
) -> float:
    """Order-free argument matching: each argument takes the best unused partner.

    Ties go to the lowest remaining index in ``args2`` so rankings are
    reproducible.
    """
    return _SimContext(params, commutative).greedy_sum(args1, args2)


def score_document(
    query: ExprTree,
    doc: ExprTree,
    doc_class: FormulaClass,
    params: MetricParams,
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
) -> float:
    """Similarity weighted by the document's formula class.

    The pair is scored on its own; this is the reference that the all-pairs
    engine behind :func:`search.search` must match bit for bit.
    """
    return _SimContext(params, commutative).sim(query, doc) * params.weight_for(doc_class)
