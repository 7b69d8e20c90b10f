"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import replace
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from mathsim.evaluation import (
    MAX_TABLE_N,
    MIN_TABLE_N,
    AverageRow,
    CriticalValueTable,
    EvalReport,
    GroundTruth,
    QueryEvaluation,
    _correlations,
    _match,
)
from mathsim.mathml import (
    MAX_DEPTH,
    Apply,
    Constant,
    ExprTree,
    FunctionSymbol,
    MathMLParseError,
    UnsupportedConstructError,
    Variable,
    _byte_offset,
    serialize_expression,
)
from mathsim.metric import (
    DECAY_KINDS,
    DEFAULT_COMMUTATIVE,
    MetricParams,
    _SimContext,
)
from mathsim.optimizer import ParamSpace
from mathsim.search import HitList, load_corpus, load_queries

CDS = ("arith1", "transc1", "setops")
FUNC_NAMES = ("plus", "times", "sin", "cos", "minus")
VAR_NAMES = ("x", "y", "z", "u")
CONST_VALUES = ("0", "1", "2", "3.5")


DEFAULT_PARAMS = MetricParams(
    delta=0.3,
    zeta=0.5,
    mu=0.5,
    theta=0.2,
    omega=2.0,
    decay_model="exponential",
    dp_rate=0.7,
    cp_rate=0.7,
    epsilon=0.05,
    w_eq=1.5,
    w_ineq=1.25,
    w_expr=1.0,
)


def make_params(**changes) -> MetricParams:
    """``DEFAULT_PARAMS`` with the named fields changed, validated as any parameter set."""
    return replace(DEFAULT_PARAMS, **changes)


def default_seed_params(space: ParamSpace) -> MetricParams:
    """Every swept parameter at its first trial value; a deliberately plain start."""
    values = DEFAULT_PARAMS.to_dict()
    for name in space.order:
        values[name] = space.trial_values(name)[0]
    return MetricParams.from_dict(values)


def random_params(rng: random.Random, decay_model: str | None = None) -> MetricParams:
    """A valid parameter set drawn uniformly from comfortable interior ranges."""
    w_expr = rng.uniform(0.5, 1.5)
    w_ineq = w_expr + rng.uniform(0.0, 0.5)
    return make_params(
        delta=rng.uniform(0.0, 0.9),
        zeta=rng.uniform(0.0, 1.0),
        mu=rng.uniform(0.05, 0.95),
        theta=rng.uniform(0.0, 0.9),
        omega=rng.uniform(1.1, 6.0),
        decay_model=decay_model or rng.choice(DECAY_KINDS),
        dp_rate=rng.uniform(0.05, 1.0),
        cp_rate=rng.uniform(0.05, 1.0),
        epsilon=rng.uniform(0.01, 0.2),
        w_eq=w_ineq + rng.uniform(0.0, 0.5),
        w_ineq=w_ineq,
        w_expr=w_expr,
    )


def random_leaf(rng: random.Random):
    roll = rng.random()
    if roll < 0.45:
        return Variable(rng.choice(VAR_NAMES))
    if roll < 0.8:
        return Constant(rng.choice(CONST_VALUES))
    return FunctionSymbol(rng.choice(FUNC_NAMES), rng.choice(CDS))


def random_tree(rng: random.Random, max_height: int = 5, max_fanout: int = 4):
    if max_height == 0 or rng.random() < 0.35:
        return random_leaf(rng)
    head = FunctionSymbol(rng.choice(FUNC_NAMES), rng.choice(CDS))
    args = tuple(
        random_tree(rng, max_height - 1, max_fanout) for _ in range(rng.randint(0, max_fanout))
    )
    return Apply(head, args)


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


# hypothesis strategies -------------------------------------------------------

leaf_strategy = st.one_of(
    st.builds(Variable, st.sampled_from(VAR_NAMES)),
    st.builds(Constant, st.sampled_from(CONST_VALUES)),
    st.builds(FunctionSymbol, st.sampled_from(FUNC_NAMES), st.sampled_from(CDS)),
)

tree_strategy = st.recursive(
    leaf_strategy,
    lambda children: st.builds(
        lambda head, args: Apply(head, tuple(args)),
        st.builds(FunctionSymbol, st.sampled_from(FUNC_NAMES), st.sampled_from(CDS)),
        st.lists(children, min_size=0, max_size=4),
    ),
    max_leaves=12,
)

params_strategy = st.builds(
    lambda delta, zeta, mu, theta, omega, kind, dp, cp, eps, w_expr, ineq_up, eq_up: make_params(
        delta=delta,
        zeta=zeta,
        mu=mu,
        theta=theta,
        omega=omega,
        decay_model=kind,
        dp_rate=dp,
        cp_rate=cp,
        epsilon=eps,
        w_eq=w_expr + ineq_up + eq_up,
        w_ineq=w_expr + ineq_up,
        w_expr=w_expr,
    ),
    delta=st.floats(0.0, 0.9),
    zeta=st.floats(0.0, 1.0),
    mu=st.floats(0.05, 0.95),
    theta=st.floats(0.0, 0.9),
    omega=st.floats(1.1, 6.0),
    kind=st.sampled_from(DECAY_KINDS),
    dp=st.floats(0.05, 1.0),
    cp=st.floats(0.05, 1.0),
    eps=st.floats(0.01, 0.2),
    w_expr=st.floats(0.5, 1.5),
    ineq_up=st.floats(0.0, 0.5),
    eq_up=st.floats(0.0, 0.5),
)


# one query at a time through evaluate's code ----------------------------------


def overall_recall(hits: HitList, truth: GroundTruth) -> float:
    """Fraction of the ground truth present anywhere in the hit list."""
    return _match(hits, truth)[0] / len(truth.ranked_ids)


def top10_recall(hits: HitList, truth: GroundTruth) -> float:
    """Fraction of the truth's top m found in the hits' top 10 (m = min(10, |truth|))."""
    return _match(hits, truth)[1] / min(10, len(truth.ranked_ids))


def spearman_rho(hits: HitList, truth: GroundTruth) -> float:
    """Spearman rank correlation between truth order and hit-list order, clamped to [-1, 1]."""
    return _correlations(np.array([_match(hits, truth)[2]]))[0].item()


def kendall_tau(hits: HitList, truth: GroundTruth) -> float:
    """Kendall rank correlation; pairs tied by a shared absent rank count as neither."""
    return _correlations(np.array([_match(hits, truth)[2]]))[1].item()


# independent oracles ---------------------------------------------------------

_TAU_CHUNK = 10_000


def rho_from_ranks_pairwise(perms: np.ndarray, n: int) -> np.ndarray:
    """Spearman's rho of each row of ``perms`` against 1..n, from the squared differences."""
    d = perms.astype(np.int64) - np.arange(1, n + 1)
    return 1.0 - 6.0 * (d * d).sum(axis=1) / (n * (n * n - 1))


def tau_from_ranks_pairwise(perms: np.ndarray, n: int) -> np.ndarray:
    """Kendall's tau of each row of ``perms`` against 1..n, by the sign of every pair."""
    upper_i, upper_j = np.triu_indices(n, k=1)
    pair_count = n * (n - 1) // 2
    out = np.empty(len(perms))
    for start in range(0, len(perms), _TAU_CHUNK):
        block = perms[start : start + _TAU_CHUNK]
        signs = np.sign(block[:, upper_j] - block[:, upper_i])
        out[start : start + len(block)] = signs.sum(axis=1, dtype=np.int64) / pair_count
    return out


def assigned_ranks_pairwise(hits: HitList, truth: GroundTruth) -> list[float]:
    """Rank of each truth item within the hit list, in truth order.

    Items absent from the hits share the average of the ranks just past the
    list's end.
    """
    position = {doc_id: i + 1 for i, doc_id in enumerate(hits.doc_ids())}
    absent = [doc_id for doc_id in truth.ranked_ids if doc_id not in position]
    length = len(hits.doc_ids())
    shared = length + (len(absent) + 1) / 2.0
    return [position.get(doc_id, shared) for doc_id in truth.ranked_ids]


def spearman_rho_pairwise(hits: HitList, truth: GroundTruth) -> float:
    """Spearman's rho from the squared rank differences, clamped to [-1, 1]."""
    n = len(truth.ranked_ids)
    assigned = assigned_ranks_pairwise(hits, truth)
    d_sq = sum((truth_rank - got) ** 2 for truth_rank, got in enumerate(assigned, start=1))
    return max(-1.0, min(1.0, 1.0 - 6.0 * d_sq / (n * (n * n - 1))))


def kendall_tau_pairwise(hits: HitList, truth: GroundTruth) -> float:
    """Kendall's tau by comparing every pair; pairs tied at the absent rank count as neither."""
    n = len(truth.ranked_ids)
    assigned = assigned_ranks_pairwise(hits, truth)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if assigned[i] < assigned[j]:
                concordant += 1
            elif assigned[i] > assigned[j]:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def evaluate_pairwise(
    hitlists: Sequence[HitList], truths: Sequence[GroundTruth], table: CriticalValueTable
) -> EvalReport:
    """``evaluate`` one query and one statistic at a time, with set-based recalls."""
    truth_by_id = {truth.query_id: truth for truth in truths}
    rows = []
    for hl in hitlists:
        truth = truth_by_id[hl.query_id]
        n = len(truth.ranked_ids)
        m = min(10, n)
        rho = spearman_rho_pairwise(hl, truth)
        tau = kendall_tau_pairwise(hl, truth)
        flags = [
            MIN_TABLE_N <= n <= MAX_TABLE_N and abs(value) >= table.critical_value(stat, n, level)
            for stat, value in (("rho", rho), ("tau", tau))
            for level in (95, 99)
        ]
        rows.append(QueryEvaluation(
            hl.query_id,
            len(set(hl.doc_ids()) & set(truth.ranked_ids)) / n,
            len(set(hl.doc_ids()[:10]) & set(truth.ranked_ids[:m])) / m,
            rho,
            tau,
            *flags,
        ))
    count = len(rows)
    columns = [f for f in vars(rows[0]) if f != "query_id"]
    averages = AverageRow(**{f: sum(getattr(r, f) for r in rows) / count for f in columns})
    return EvalReport(tuple(rows), averages)


def exhaustive_critical_value(statistic: str, n: int, alpha: float) -> float:
    """Critical value by enumerating every permutation of 1..n.

    Smallest achieved value whose >= tail has probability at most alpha;
    1.0 if no achieved value qualifies.
    """
    truth = tuple(range(1, n + 1))
    values = []
    for perm in itertools.permutations(truth):
        if statistic == "rho":
            d_sq = sum((a - b) ** 2 for a, b in zip(truth, perm))
            values.append(1.0 - 6.0 * d_sq / (n * (n * n - 1)))
        else:
            concordant = discordant = 0
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] < perm[j]:
                        concordant += 1
                    else:
                        discordant += 1
            values.append((concordant - discordant) / (n * (n - 1) / 2))
    values.sort()
    total = len(values)
    first_index: dict[float, int] = {}
    for idx, value in enumerate(values):
        if value not in first_index:
            first_index[value] = idx
    for value in sorted(first_index):
        if total - first_index[value] <= alpha * total:
            return value
    return 1.0


def arg_list_sim_exact(
    args1: Sequence[ExprTree],
    args2: Sequence[ExprTree],
    params: MetricParams,
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
    bound: int = 6,
    max_assignments: int = 2_000_000,
) -> float:
    """Brute-force optimum of the argument assignment; testing oracle only.

    Maximises the similarity sum over every injective mapping of the shorter
    list into the longer one.  Refuses instances with min(p, q) above
    ``bound`` or whose enumeration would exceed ``max_assignments``.
    """
    p, q = len(args1), len(args2)
    m = min(p, q)
    if m == 0:
        return 0.0
    if m > bound:
        raise ValueError(f"exact matching refuses min(p, q)={m} above oracle bound {bound}")
    n = max(p, q)
    count = 1
    for i in range(m):
        count *= n - i
    if count > max_assignments:
        raise ValueError(f"exact matching would enumerate {count} assignments; refusing")
    ctx = _SimContext(params, commutative)
    matrix = [[ctx.sim(a, b) for b in args2] for a in args1]
    best = -math.inf
    if p <= q:
        for phi in itertools.permutations(range(q), p):
            best = max(best, sum(matrix[i][phi[i]] for i in range(p)))
    else:
        for psi in itertools.permutations(range(p), q):
            best = max(best, sum(matrix[psi[j]][j] for j in range(q)))
    return best


# MathML walk in seven helpers -------------------------------------------------
# The oracle of mathml.parse_expression, which does the same in one function.

_WRAPPER_TAGS = {"math", "semantics"}
_ANNOTATION_TAGS = {"annotation", "annotation-xml"}


def _local(tag: object) -> str:
    # Strips any XML namespace, e.g. "{http://...}apply" -> "apply".
    if not isinstance(tag, str):
        raise MathMLParseError(f"unexpected non-element node: {tag!r}")
    return tag.rsplit("}", 1)[-1]


def _require_blank(text: str | None, context: str) -> None:
    if text is not None and text.strip():
        raise MathMLParseError(f"unexpected character data {text.strip()!r} in <{context}>")


def _content_children(elem: ET.Element, context: str) -> list[ET.Element]:
    _require_blank(elem.text, context)
    children = []
    for child in elem:
        _require_blank(child.tail, context)
        children.append(child)
    return children


def parse_expression_recursive(xml_text: str, intern: dict | None = None) -> ExprTree:
    """``parse_expression`` through the recursive walk, for differential tests."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, column = exc.position
        offset = _byte_offset(xml_text, line, column)
        raise MathMLParseError(
            f"malformed XML at byte offset {offset} "
            f"(line {line}, column {column}): {exc.msg}"
        ) from exc
    except UnicodeEncodeError as exc:
        # The parser encodes a str as UTF-8, which a lone surrogate cannot be.
        raise MathMLParseError(
            f"text is not valid Unicode: {exc.reason} at index {exc.start}"
        ) from exc
    return _build(_unwrap(root), {} if intern is None else intern, 0)


def _unwrap(elem: ET.Element) -> ET.Element:
    while _local(elem.tag) in _WRAPPER_TAGS:
        tag = _local(elem.tag)
        content = [c for c in _content_children(elem, tag) if _local(c.tag) not in _ANNOTATION_TAGS]
        if len(content) != 1:
            raise MathMLParseError(
                f"<{tag}> must wrap exactly one content expression, found {len(content)}"
            )
        elem = content[0]
    return elem


def _leaf(table: dict, cls: type, *fields: str | None) -> ExprTree:
    key = (cls, *fields)
    node = table.get(key)
    if node is None:
        node = table[key] = cls(*fields)
    return node


def _apply(table: dict, head: ExprTree, args: tuple[ExprTree, ...]) -> Apply:
    # The children are already interned, so their identity is their structure
    # (Filliatre & Conchon, "Type-safe modular hash-consing", 2006).
    key = (Apply, id(head), *map(id, args))
    node = table.get(key)
    if node is None:
        node = table[key] = Apply(head, args)
    return node


def _build(elem: ET.Element, table: dict, depth: int) -> ExprTree:
    if depth > MAX_DEPTH:
        raise MathMLParseError(f"expression nested deeper than {MAX_DEPTH} levels")
    tag = _local(elem.tag)
    if tag == "apply":
        children = _content_children(elem, "apply")
        if not children:
            raise MathMLParseError("<apply> requires a head element")
        head = _build(children[0], table, depth + 1)
        args = tuple(_build(c, table, depth + 1) for c in children[1:])
        return _apply(table, head, args)
    if tag == "bind":
        return _build_bind(elem, table, depth)
    if tag == "csymbol":
        cd = elem.attrib.get("cd")
        if not cd:
            raise MathMLParseError("<csymbol> requires a cd attribute")
        name = (elem.text or "").strip()
        if not name or len(elem) > 0:
            raise MathMLParseError("<csymbol> must contain a bare symbol name")
        return _leaf(table, FunctionSymbol, name, cd)
    if tag == "ci":
        name = (elem.text or "").strip()
        if not name or len(elem) > 0:
            raise MathMLParseError("<ci> must contain a bare variable name")
        return _leaf(table, Variable, name)
    if tag == "cn":
        if len(elem) > 0:
            raise UnsupportedConstructError(
                f"unsupported element '{_local(elem[0].tag)}' inside <cn>"
            )
        value = (elem.text or "").strip()
        if not value:
            raise MathMLParseError("<cn> must contain a literal value")
        return _leaf(table, Constant, value, elem.attrib.get("type"))
    raise UnsupportedConstructError(f"unsupported element '{tag}'")


def _build_bind(elem: ET.Element, table: dict, depth: int) -> Apply:
    # Normalised as Apply(binder, bound-variables..., body).
    children = _content_children(elem, "bind")
    if len(children) < 3:
        raise MathMLParseError("<bind> requires a binder, at least one <bvar> and a body")
    binder = _build(children[0], table, depth + 1)
    if not isinstance(binder, (FunctionSymbol, Apply)):
        raise MathMLParseError("<bind> binder must be a function symbol")
    bvars: list[ExprTree] = []
    rest = children[1:]
    while rest and _local(rest[0].tag) == "bvar":
        bvar = rest.pop(0)
        inner = _content_children(bvar, "bvar")
        if len(inner) != 1 or _local(inner[0].tag) != "ci":
            raise MathMLParseError("<bvar> must contain exactly one <ci>")
        bvars.append(_build(inner[0], table, depth + 1))
    if not bvars:
        raise MathMLParseError("<bind> requires at least one <bvar>")
    if len(rest) != 1:
        raise MathMLParseError("<bind> requires exactly one body expression")
    return _apply(table, binder, tuple(bvars) + (_build(rest[0], table, depth + 1),))
