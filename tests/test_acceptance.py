"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The optimization-based criteria share one session-scoped run over the
bundled corpus, queries and ground truth at the default parameter grid.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from mathsim.evaluation import CriticalValueTable
from mathsim.mathml import Apply
from mathsim.metric import (
    DECAY_KINDS,
    DecayModel,
    arg_list_sim_greedy,
    decay,
    score_document,
    sim,
)
from mathsim.optimizer import (
    GridRange,
    ObjectiveWeights,
    ParamSpace,
    SearchObjective,
    cross_validate,
    optimize_all,
    xval_to_csv_text,
)

from helpers import (
    arg_list_sim_exact,
    default_seed_params,
    exhaustive_critical_value,
    random_params,
    random_tree,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="session")
def bundled_trees(bundled_corpus, bundled_queries):
    return [r.tree for r in bundled_corpus] + [q.tree for q in bundled_queries]


@pytest.fixture(scope="session")
def optimized_bundle(
    bundled_corpus, bundled_queries, bundled_truths, bundled_symbols, bundled_space, mc_table
):
    space = bundled_space
    seed = default_seed_params(space)
    objective_fn = SearchObjective(
        bundled_corpus, bundled_queries, bundled_truths, ObjectiveWeights(),
        bundled_symbols.commutative, mc_table,
    )
    start = time.monotonic()
    result = optimize_all(space, seed, objective_fn)
    elapsed = time.monotonic() - start
    return result, elapsed, space, seed


def test_criterion_1_identity_suite(bundled_trees):
    with criterion("1 identity-suite"):
        rng = random.Random(20111)
        param_sets = [random_params(rng) for _ in range(20)]
        start = time.monotonic()
        for base in param_sets:
            for kind in DECAY_KINDS:
                params = base.with_value("decay_model", kind)
                for tree in bundled_trees:
                    assert abs(sim(tree, tree, params) - 1.0) <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_range_and_greedy_bound():
    with criterion("2 range-and-greedy-bound"):
        rng = random.Random(6023)
        start = time.monotonic()
        bound_checks = 0
        for _ in range(10_000):
            params = random_params(rng)
            query = random_tree(rng, max_height=5, max_fanout=4)
            doc = random_tree(rng, max_height=5, max_fanout=4)
            value = sim(query, doc, params)
            assert 0.0 <= value <= 1.0
            if isinstance(query, Apply) and isinstance(doc, Apply) and query.args and doc.args:
                greedy = arg_list_sim_greedy(query.args, doc.args, params)
                exact = arg_list_sim_exact(query.args, doc.args, params)
                assert greedy <= exact + 1e-9
                bound_checks += 1
        elapsed = time.monotonic() - start
        assert bound_checks > 2000
        assert elapsed < 60.0, f"range suite took {elapsed:.1f}s"


def test_criterion_3_paper_ordering(optimized_bundle, bundled_corpus, bundled_symbols):
    with criterion("3 paper-ordering"):
        result, _, _, _ = optimized_bundle
        by_id = {r.doc_id: r for r in bundled_corpus}
        newton = by_id["newton"]
        coulomb = by_id["coulomb"]
        flat = by_id["flat_sum"]
        commutative = bundled_symbols.commutative
        candidates = {result.best_model: result.best_params}
        for kind, run in result.runs.items():
            candidates[kind] = run.final_params
        for kind, params in candidates.items():
            sim_coulomb = sim(newton.tree, coulomb.tree, params, commutative)
            sim_flat = sim(newton.tree, flat.tree, params, commutative)
            assert sim_coulomb > sim_flat, kind
            score_coulomb = score_document(
                newton.tree, coulomb.tree, coulomb.formula_class, params, commutative
            )
            score_flat = score_document(
                newton.tree, flat.tree, flat.formula_class, params, commutative
            )
            assert score_coulomb > score_flat, kind


def test_criterion_4_decay_contracts(bundled_space):
    with criterion("4 decay-contracts"):
        space = bundled_space
        rates = sorted(set(space.trial_values("dp_rate")) | set(space.trial_values("cp_rate")))
        epsilons = space.trial_values("epsilon")
        for kind in DECAY_KINDS:
            for rate in rates:
                for eps in epsilons:
                    model = DecayModel(kind, rate)
                    series = [decay(model, k, eps) for k in range(21)]
                    assert series[0] == 1.0
                    assert all(a >= b for a, b in zip(series, series[1:]))
                    if kind == "exponential":
                        assert all(v > 0.0 for v in series)
                    else:
                        assert all(v >= eps for v in series)


def test_criterion_5_correlation_golden_values():
    with criterion("5 correlation-golden-values"):
        from mathsim.evaluation import GroundTruth, kendall_tau, spearman_rho
        from mathsim.search import HitList

        def as_hits(ids):
            return HitList("q", tuple((d, 1.0 - 0.01 * i) for i, d in enumerate(ids)), len(ids))

        truth5 = GroundTruth("q", ("a", "b", "c", "d", "e"))
        assert spearman_rho(as_hits(("a", "b", "c", "d", "e")), truth5) == 1.0
        assert kendall_tau(as_hits(("a", "b", "c", "d", "e")), truth5) == 1.0
        assert spearman_rho(as_hits(("e", "d", "c", "b", "a")), truth5) == -1.0
        assert kendall_tau(as_hits(("e", "d", "c", "b", "a")), truth5) == -1.0
        swapped5 = as_hits(("a", "b", "c", "e", "d"))
        assert abs(spearman_rho(swapped5, truth5) - 0.9) <= 1e-12
        truth4 = GroundTruth("q", ("a", "b", "c", "d"))
        swapped4 = as_hits(("a", "c", "b", "d"))
        assert abs(kendall_tau(swapped4, truth4) - 2.0 / 3.0) <= 1e-12


def test_criterion_6_critical_values(mc_table):
    with criterion("6 critical-values"):
        for stat in ("rho", "tau"):
            for level, alpha in ((95, 0.05), (99, 0.01)):
                exact = exhaustive_critical_value(stat, 5, alpha)
                sampled = mc_table.critical_value(stat, 5, level)
                assert abs(sampled - exact) <= 0.02, (stat, level)
        for stat in ("rho", "tau"):
            for n in range(4, 61):
                c95 = mc_table.critical_value(stat, n, 95)
                c99 = mc_table.critical_value(stat, n, 99)
                assert 0.0 < c95 <= 1.0 and 0.0 < c99 <= 1.0
                assert c99 >= c95, (stat, n)


def test_criterion_7_optimizer_monotone_convergent_reproducible(
    optimized_bundle, bundled_corpus, bundled_queries, bundled_truths, bundled_symbols, mc_table
):
    with criterion("7 optimizer-monotonicity-convergence"):
        result, elapsed, space, seed = optimized_bundle
        assert elapsed < 900.0, f"optimization took {elapsed:.0f}s"
        for kind, run in result.runs.items():
            assert run.converged, kind
            assert len(run.generations) - 1 <= 25
            committed = [run.generations[0].objective]
            for record in run.generations[1:]:
                committed.extend(step.objective for step in record.sweeps)
            assert all(
                a <= b + 1e-12 for a, b in zip(committed, committed[1:])
            ), f"{kind}: a sweep regressed the objective"
        fresh_table = CriticalValueTable(seed=mc_table.seed)
        objective_fn = SearchObjective(
            bundled_corpus, bundled_queries, bundled_truths, ObjectiveWeights(),
            bundled_symbols.commutative, fresh_table,
        )
        rerun = optimize_all(space, seed, objective_fn)
        assert rerun.best_model == result.best_model
        assert {k: r.to_dict() for k, r in rerun.runs.items()} == {
            k: r.to_dict() for k, r in result.runs.items()
        }


def test_criterion_8_paper_shape(optimized_bundle):
    with criterion("8 paper-shape"):
        result, _, _, _ = optimized_bundle
        run = result.runs[result.best_model]
        objectives = [g.objective for g in run.generations]
        assert objectives[-1] > objectives[0], "optimization must beat the seed"
        assert all(a <= b + 1e-12 for a, b in zip(objectives, objectives[1:]))
        last = len(objectives) - 1  # generation count, seed excluded
        half = math.ceil(last / 2)
        total = objectives[-1] - objectives[0]
        early = objectives[half] - objectives[0]
        assert early / total >= 0.5, f"early share {early / total:.2f}"


def test_criterion_9_xval_hygiene(bundled_corpus, bundled_queries, bundled_truths,
                                  bundled_symbols, mc_table):
    with criterion("9 xval-hygiene"):
        space = ParamSpace(
            ("omega", "zeta"),
            {"omega": GridRange(2.0, 3.0, 1.0), "zeta": GridRange(0.0, 0.5, 0.5)},
        )
        events = []
        objective_fn = SearchObjective(
            bundled_corpus, bundled_queries, bundled_truths, ObjectiveWeights(),
            bundled_symbols.commutative, mc_table,
            observer=lambda params, ids: events.append((params.decay_model, frozenset(ids))),
        )
        report = cross_validate(objective_fn, space, split_seed=17,
                                seed_params=default_seed_params(space))
        all_ids = frozenset(q.query_id for q in bundled_queries)
        train, test = frozenset(report.train_ids), frozenset(report.test_ids)
        assert train | test == all_ids and not (train & test)
        # Each evaluation scores the full set or one half, so none trains on a mix.
        assert {ids for _, ids in events} <= {all_ids, train, test}
        assert any(ids == train for _, ids in events), "training evaluations must be observed"
        held_out = sorted(model for model, ids in events if ids == test)
        assert held_out == sorted(DECAY_KINDS), "each model is tested once on the held-out half"
        assert len(report.rows) == 2 * len(DECAY_KINDS)
        text = xval_to_csv_text(report)
        lines = text.strip().splitlines()
        assert lines[0] == (
            "model,protocol,ave_overall_recall,ave_top10_recall,"
            "ave_rho_correlation,ave_tau_correlation"
        )
        assert len(lines) == 1 + 2 * len(DECAY_KINDS)
