"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
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
)
from mathsim.mathml import Apply, Constant, ExprTree, FunctionSymbol, Variable
from mathsim.metric import (
    DECAY_KINDS,
    DEFAULT_COMMUTATIVE,
    DEFAULT_PARAMS,
    MetricParams,
    _SimContext,
)
from mathsim.optimizer import ParamSpace
from mathsim.search import HitList

CDS = ("arith1", "transc1", "setops")
FUNC_NAMES = ("plus", "times", "sin", "cos", "minus")
VAR_NAMES = ("x", "y", "z", "u")
CONST_VALUES = ("0", "1", "2", "3.5")


def default_seed_params(space: ParamSpace) -> MetricParams:
    """Every swept parameter at its first trial value; a deliberately plain start."""
    values = DEFAULT_PARAMS.to_dict()
    for name in space.order:
        values[name] = space.trial_values(name)[0]
    return MetricParams.from_dict(values)


def make_params(
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
) -> MetricParams:
    return MetricParams(
        delta=delta,
        zeta=zeta,
        mu=mu,
        theta=theta,
        omega=omega,
        decay_model=decay_model,
        dp_rate=dp_rate,
        cp_rate=cp_rate,
        epsilon=epsilon,
        w_eq=w_eq,
        w_ineq=w_ineq,
        w_expr=w_expr,
    )


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
