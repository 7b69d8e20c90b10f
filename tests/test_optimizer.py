import itertools
import json
import math
import pickle
import random

import pytest

from mathsim.evaluation import AverageRow, GroundTruth
from mathsim.mathml import Apply, FormulaClass, FunctionSymbol, Variable
from mathsim.metric import DECAY_KINDS, DEFAULT_COMMUTATIVE
from mathsim.optimizer import (
    GridRange,
    ObjectiveWeights,
    ParamSpace,
    SearchObjective,
    cross_validate,
    default_seed_params,
    load_param_space,
    objective,
    optimize_all,
    optimize_model,
    run_generation,
    sweep_parameter,
    xval_to_csv_text,
)
from mathsim.search import DocumentRecord, Query

from helpers import make_params

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
PLUS = FunctionSymbol("plus", "arith1")
TIMES = FunctionSymbol("times", "arith1")


def dummy_avgs(value=0.5):
    return AverageRow(value, value, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def synthetic(fn):
    """Wrap a params->float function as an objective callable."""

    def wrapped(params):
        return fn(params), dummy_avgs()

    return wrapped


class TestGridRange:
    def test_values_rounded(self):
        assert GridRange(0.0, 0.9, 0.1).values() == (
            0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
        )

    def test_singleton(self):
        assert GridRange(0.05, 0.05, 1.0).values() == (0.05,)

    def test_endpoint_included(self):
        assert GridRange(1.5, 5.0, 0.5).values()[-1] == 5.0

    def test_bad_step(self):
        with pytest.raises(ValueError):
            GridRange(0.0, 1.0, 0.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            GridRange(1.0, 0.0, 0.1)

    @pytest.mark.parametrize("field,value,message", [
        ("max", math.inf, "finite"),
        ("min", -math.inf, "finite"),
        ("step", math.nan, "finite"),
        ("min", True, "numbers"),
        ("step", False, "numbers"),
    ])
    def test_space_file_bounds_must_be_finite_numbers(self, tmp_path, field, value, message):
        # json reads Infinity, NaN and true; each must fail the load, not values().
        spec = {"min": 0.0, "max": 0.5, "step": 0.5, field: value}
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"order": ["zeta"], "ranges": {"zeta": spec}}))
        with pytest.raises(ValueError, match=f"min, max and step must be {message}"):
            load_param_space(path)


class TestParamSpace:
    def test_default_space_valid(self, bundled_space):
        # assets/space.json is the default sweep space.
        assert bundled_space.order[0] == "omega"
        assert len(bundled_space.trial_values("delta")) == 10

    def test_invalid_grid_value_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            ParamSpace(("mu",), {"mu": GridRange(0.0, 0.9, 0.1)})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            ParamSpace(("gamma",), {"gamma": GridRange(0.0, 1.0, 0.5)})

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            ParamSpace(("zeta", "zeta"), {"zeta": GridRange(0.0, 0.5, 0.5)})

    def test_missing_range_rejected(self):
        with pytest.raises(ValueError, match="zeta"):
            ParamSpace(("zeta",), {})

    def test_bundled_space_file_loads(self, assets_dir):
        # The path the CLI takes for `space_file`; function parameters first.
        space = load_param_space(assets_dir / "space.json")
        assert space.order == (
            "omega", "mu", "zeta", "delta", "theta", "dp_rate", "cp_rate",
            "epsilon", "w_eq", "w_ineq", "w_expr",
        )
        assert space.ranges["omega"] == GridRange(1.5, 5.0, 0.5)
        assert len(space.trial_values("delta")) == 10

    def test_seed_params_take_first_values(self, bundled_space):
        seed = default_seed_params(bundled_space)
        assert seed.omega == 1.5
        assert seed.zeta == 0.0
        assert seed.epsilon == 0.05


class TestObjective:
    def test_perfect_report_is_one(self, mc_table):
        from mathsim.evaluation import EvalReport

        report = EvalReport((), AverageRow(1.0, 1.0, 1.0, 1.0, 1, 1, 1, 1))
        assert objective(report, ObjectiveWeights()) == pytest.approx(1.0)

    def test_midpoint_report(self):
        from mathsim.evaluation import EvalReport

        report = EvalReport((), AverageRow(0.5, 0.5, 0.0, 0.0, 0, 0, 0, 0))
        assert objective(report, ObjectiveWeights()) == pytest.approx(0.5)

    def test_zero_correlation_weights_reduce_to_recall(self):
        from mathsim.evaluation import EvalReport

        report = EvalReport((), AverageRow(0.8, 0.4, -0.3, 0.9, 0, 0, 0, 0))
        weights = ObjectiveWeights(overall_recall=1.0, top10_recall=1.0, rho=0.0, tau=0.0)
        assert objective(report, weights) == pytest.approx(0.6)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(overall_recall=-0.1)
        with pytest.raises(ValueError):
            ObjectiveWeights(0.0, 0.0, 0.0, 0.0)


class TestSweepParameter:
    def test_singleton_space_returns_value(self):
        space = ParamSpace(("zeta",), {"zeta": GridRange(0.4, 0.4, 1.0)})
        current = make_params(zeta=0.4)
        fn = synthetic(lambda p: 0.7)
        value, obj, _ = sweep_parameter("zeta", space, current, fn, fn(current))
        assert value == 0.4 and obj == 0.7

    def test_constant_objective_takes_smallest(self):
        space = ParamSpace(("zeta",), {"zeta": GridRange(0.0, 0.9, 0.1)})
        current = make_params(zeta=0.5)
        fn = synthetic(lambda p: 0.5)
        value, _, _ = sweep_parameter("zeta", space, current, fn, fn(current))
        assert value == 0.0

    def test_monotone_objective_takes_maximum(self):
        space = ParamSpace(("omega",), {"omega": GridRange(1.5, 5.0, 0.5)})
        current = make_params(omega=1.5)
        fn = synthetic(lambda p: p.omega)
        value, obj, _ = sweep_parameter("omega", space, current, fn, fn(current))
        assert value == 5.0 and obj == 5.0

    def test_off_grid_incumbent_cannot_regress(self):
        space = ParamSpace(("omega",), {"omega": GridRange(2.0, 3.0, 0.5)})
        current = make_params(omega=1.7)
        fn = synthetic(lambda p: 1.0 if p.omega == 1.7 else 0.2)
        value, obj, _ = sweep_parameter("omega", space, current, fn, fn(current))
        assert value == 1.7 and obj == 1.0

    def test_incumbent_result_reused(self):
        space = ParamSpace(("zeta",), {"zeta": GridRange(0.0, 0.2, 0.1)})
        current = make_params(zeta=0.1)
        calls = []

        def fn(params):
            calls.append(params.zeta)
            return 0.5, dummy_avgs()

        sweep_parameter("zeta", space, current, fn, incumbent=(0.9, dummy_avgs()))
        assert 0.1 not in calls and len(calls) == 2

    def test_infeasible_cross_field_values_skipped(self):
        # sweeping w_ineq above the committed w_eq must not blow up
        space = ParamSpace(("w_ineq",), {"w_ineq": GridRange(1.0, 1.5, 0.25)})
        current = make_params(w_eq=1.0, w_ineq=1.0, w_expr=1.0)
        fn = synthetic(lambda p: p.w_ineq)
        value, _, _ = sweep_parameter("w_ineq", space, current, fn, fn(current))
        assert value == 1.0

    def test_two_document_corpus_flip(self, mc_table):
        # ranking flips to the truth order once omega(1 - mu) > 2; the first
        # grid value past the threshold wins because later ones tie
        corpus = [
            DocumentRecord("doc_a", "<mem>", Apply(PLUS, (Z, W)), FormulaClass.NON_FORMULA),
            DocumentRecord("doc_b", "<mem>", Apply(TIMES, (X, Y)), FormulaClass.NON_FORMULA),
        ]
        queries = [Query("q1", Apply(PLUS, (X, Y)))]
        truths = [GroundTruth("q1", ("doc_a", "doc_b"))]
        current = make_params(zeta=0.0, mu=0.05, omega=1.5, dp_rate=0.1, cp_rate=0.1)
        fn = SearchObjective(corpus, queries, truths, ObjectiveWeights(),
                             DEFAULT_COMMUTATIVE, mc_table)
        space = ParamSpace(("omega",), {"omega": GridRange(1.5, 4.0, 0.5)})
        value, obj, _ = sweep_parameter("omega", space, current, fn, fn(current))
        assert value == 2.5
        assert obj == pytest.approx(1.0)


class TestRunGeneration:
    def test_all_singleton_space_keeps_params(self):
        space = ParamSpace(
            ("zeta", "delta"),
            {"zeta": GridRange(0.5, 0.5, 1.0), "delta": GridRange(0.3, 0.3, 1.0)},
        )
        current = make_params(zeta=0.5, delta=0.3)
        calls = []

        def fn(params):
            calls.append(params)
            return 0.5, dummy_avgs()

        entering = fn(current)
        params, obj, _, sweeps = run_generation(current, space, fn, entering)
        assert params == current
        assert obj == 0.5
        # incumbent reuse: no more than one evaluation per parameter
        assert len(calls) <= 1 + len(space.order)

    def test_objective_never_decreases_across_sweeps(self):
        space = ParamSpace(
            ("zeta", "delta"),
            {"zeta": GridRange(0.0, 0.9, 0.1), "delta": GridRange(0.0, 0.9, 0.1)},
        )
        current = make_params(zeta=0.0, delta=0.0)
        fn = synthetic(lambda p: 1.0 - (p.zeta - 0.4) ** 2 - (p.delta - 0.7) ** 2)
        entering = fn(current)
        _, obj, _, sweeps = run_generation(current, space, fn, entering)
        objs = [entering[0]] + [s.objective for s in sweeps]
        assert all(a <= b + 1e-12 for a, b in zip(objs, objs[1:]))
        assert obj == sweeps[-1].objective

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_exhaustive_coordinate_oracle(self, seed):
        grid = tuple(round(0.1 * i, 10) for i in range(5))
        rng = random.Random(seed)
        table = {
            (dv, zv): rng.random() for dv, zv in itertools.product(grid, grid)
        }

        def fn(params):
            return table[(round(params.delta, 10), round(params.zeta, 10))], dummy_avgs()

        space = ParamSpace(
            ("delta", "zeta"),
            {"delta": GridRange(0.0, 0.4, 0.1), "zeta": GridRange(0.0, 0.4, 0.1)},
        )
        start = make_params(delta=0.0, zeta=0.0)

        # independent oracle: argmax along each coordinate in order, ties low
        cur = {"delta": 0.0, "zeta": 0.0}
        for name in space.order:
            best_v, best_o = None, -math.inf
            for v in grid:
                candidate = dict(cur, **{name: v})
                o = table[(candidate["delta"], candidate["zeta"])]
                if o > best_o:
                    best_v, best_o = v, o
            cur[name] = best_v

        params, obj, _, _ = run_generation(start, space, fn, fn(start))
        assert (params.delta, params.zeta) == (cur["delta"], cur["zeta"])
        assert obj == pytest.approx(table[(cur["delta"], cur["zeta"])])


class TestOptimizeModel:
    def test_singleton_space_converges_in_two_generations(self):
        space = ParamSpace(("zeta",), {"zeta": GridRange(0.5, 0.5, 1.0)})
        seed = make_params(zeta=0.5)
        run = optimize_model("linear", space, seed, synthetic(lambda p: 0.5))
        assert run.converged
        assert [g.generation for g in run.generations] == [0, 1, 2]
        assert run.final_params.decay_model == "linear"

    def test_objective_sequence_non_decreasing(self):
        space = ParamSpace(
            ("zeta", "delta"),
            {"zeta": GridRange(0.0, 0.9, 0.1), "delta": GridRange(0.0, 0.9, 0.1)},
        )
        fn = synthetic(lambda p: 1.0 - (p.zeta - 0.6) ** 2 * (1.5 - p.delta))
        run = optimize_model("exponential", space, make_params(zeta=0.0, delta=0.0), fn)
        objs = [g.objective for g in run.generations]
        assert objs == sorted(objs)
        assert run.converged

    def test_cap_hit_warns_and_flags(self):
        space = ParamSpace(("zeta",), {"zeta": GridRange(0.0, 0.9, 0.1)})
        counter = itertools.count()

        def improving(params):
            return float(next(counter)), dummy_avgs()

        with pytest.warns(UserWarning, match="did not converge"):
            run = optimize_model("linear", space, make_params(zeta=0.0), improving)
        assert run.converged is False
        assert len(run.generations) == 26  # seed + 25 capped generations


class TestOptimizeAll:
    def test_tie_goes_to_first_model_in_order(self):
        space = ParamSpace(("zeta",), {"zeta": GridRange(0.5, 0.5, 1.0)})
        result = optimize_all(space, make_params(zeta=0.5), synthetic(lambda p: 0.5))
        assert result.best_model == "exponential"
        assert set(result.runs) == set(DECAY_KINDS)

    def test_model_specific_objective_selects_winner(self):
        space = ParamSpace(("zeta",), {"zeta": GridRange(0.5, 0.5, 1.0)})
        fn = synthetic(lambda p: 0.9 if p.decay_model == "quadratic" else 0.3)
        result = optimize_all(space, make_params(zeta=0.5), fn)
        assert result.best_model == "quadratic"
        assert result.best_params.decay_model == "quadratic"

    def test_runs_reproducible(self):
        space = ParamSpace(("zeta",), {"zeta": GridRange(0.0, 0.5, 0.1)})
        fn = synthetic(lambda p: 1.0 - (p.zeta - 0.3) ** 2)
        seed = make_params(zeta=0.0)
        first = optimize_all(space, seed, fn)
        second = optimize_all(space, seed, fn)
        assert {k: r.to_dict() for k, r in first.runs.items()} == {
            k: r.to_dict() for k, r in second.runs.items()
        }

    def test_deep_nesting_defeats_quadratic(self, mc_table):
        # The truth ranks documents by how shallowly they embed the query, at
        # depths 4..6.  No quadratic rate on the grid discriminates past depth
        # 3 (1 - 0.1*16 is already below the floor), so every quadratic score
        # ties at epsilon and the doc_id tie-break reverses the truth order,
        # while gentler decays order the depths correctly.
        sin_x = Apply(FunctionSymbol("sin", "transc1"), (X,))
        ABS = FunctionSymbol("abs", "arith1")

        def wrapped(depth):
            tree = sin_x
            for _ in range(depth):
                tree = Apply(ABS, (tree,))
            return tree

        corpus = [
            DocumentRecord("z_four", "<mem>", wrapped(4), FormulaClass.NON_FORMULA),
            DocumentRecord("m_five", "<mem>", wrapped(5), FormulaClass.NON_FORMULA),
            DocumentRecord("a_six", "<mem>", wrapped(6), FormulaClass.NON_FORMULA),
        ]
        queries = [Query("q1", sin_x)]
        truths = [GroundTruth("q1", ("z_four", "m_five", "a_six"))]
        space = ParamSpace(
            ("dp_rate", "cp_rate"),
            {"dp_rate": GridRange(0.1, 0.9, 0.1), "cp_rate": GridRange(0.1, 0.9, 0.1)},
        )
        fn = SearchObjective(corpus, queries, truths, ObjectiveWeights(),
                             DEFAULT_COMMUTATIVE, mc_table)
        result = optimize_all(space, make_params(dp_rate=0.1, cp_rate=0.1), fn)
        quadratic = result.runs["quadratic"].final_objective
        assert result.best_model != "quadratic"
        assert result.runs["exponential"].final_objective > quadratic
        assert result.runs["logarithmic"].final_objective > quadratic


def tiny_world(n_queries=6):
    corpus = [
        DocumentRecord("d_plus", "<mem>", Apply(PLUS, (X, Y)), FormulaClass.NON_FORMULA),
        DocumentRecord("d_times", "<mem>", Apply(TIMES, (X, Z)), FormulaClass.NON_FORMULA),
        DocumentRecord("d_leaf", "<mem>", X, FormulaClass.NON_FORMULA),
    ]
    queries = [
        Query(f"q{i:02d}", Apply(PLUS, (X, Variable(f"v{i}")))) for i in range(n_queries)
    ]
    truths = [GroundTruth(q.query_id, ("d_plus", "d_times")) for q in queries]
    space = ParamSpace(("zeta",), {"zeta": GridRange(0.0, 0.5, 0.5)})
    return corpus, queries, truths, space


def run_xval(corpus, queries, truths, space, split_seed, table, observer=None):
    """cross_validate with default weights, seed parameters and commutative pairs."""
    return cross_validate(corpus, queries, truths, space, ObjectiveWeights(), split_seed,
                          default_seed_params(space), DEFAULT_COMMUTATIVE, table, observer)


class TestSearchObjectivePairing:
    def test_mismatch_named_in_both_directions(self, mc_table):
        corpus, queries, truths, _ = tiny_world(n_queries=3)
        # q02 loses its truth, and a truth arrives for a query that is not there
        truths = truths[:2] + [GroundTruth("q_orphan", ("d_plus", "d_leaf"))]
        with pytest.raises(ValueError) as info:
            SearchObjective(corpus, queries, truths, ObjectiveWeights(),
                            DEFAULT_COMMUTATIVE, mc_table)
        assert str(info.value) == (
            "queries without ground truth: q02; ground truth without queries: q_orphan"
        )


class TestSearchObjectiveObserver:
    def test_observer_receives_params_and_query_ids(self, mc_table):
        corpus, queries, truths, _ = tiny_world(n_queries=2)
        seen = []
        fn = SearchObjective(corpus, queries, truths, ObjectiveWeights(),
                             DEFAULT_COMMUTATIVE, mc_table,
                             observer=lambda params, ids: seen.append((params, ids)))
        params = make_params(decay_model="linear")
        fn(params)
        assert seen == [(params, ("q00", "q01"))]


class TestCrossValidate:
    def test_rows_match_optimize_all_on_each_query_set(self, mc_table):
        corpus, queries, truths, space = tiny_world()
        weights = ObjectiveWeights()
        seed = default_seed_params(space)
        report = cross_validate(corpus, queries, truths, space, weights, split_seed=3,
                                seed_params=seed, commutative=DEFAULT_COMMUTATIVE,
                                table=mc_table)

        def on(ids):
            return SearchObjective(corpus, [q for q in queries if q.query_id in ids],
                                   [t for t in truths if t.query_id in ids], weights,
                                   DEFAULT_COMMUTATIVE, mc_table)

        full = optimize_all(space, seed, SearchObjective(corpus, queries, truths, weights,
                                                         DEFAULT_COMMUTATIVE, mc_table))
        train = optimize_all(space, seed, on(set(report.train_ids)))
        test_fn = on(set(report.test_ids))
        rows = {(r.model, r.protocol): (r.overall_recall, r.top10_recall, r.rho, r.tau)
                for r in report.rows}
        for kind in DECAY_KINDS:
            avg = full.runs[kind].final.averages
            assert rows[kind, "without_cv"] == (avg.overall_recall, avg.top10_recall,
                                                avg.rho, avg.tau)
            _, avg = test_fn(train.runs[kind].final_params)
            assert rows[kind, "with_cv"] == (avg.overall_recall, avg.top10_recall,
                                             avg.rho, avg.tau)

    def test_truth_without_query_rejected(self, mc_table):
        corpus, queries, truths, space = tiny_world()
        truths = truths + [GroundTruth("q_orphan", ("d_plus", "d_leaf"))]
        with pytest.raises(ValueError, match="ground truth without queries: q_orphan"):
            run_xval(corpus, queries, truths, space, 3, mc_table)

    def test_split_disjoint_and_exhaustive(self, mc_table):
        corpus, queries, truths, space = tiny_world()
        report = run_xval(corpus, queries, truths, space, 3, mc_table)
        train, test = set(report.train_ids), set(report.test_ids)
        assert not (train & test)
        assert train | test == {q.query_id for q in queries}
        assert len(train) == 3 and len(test) == 3

    def test_forty_queries_split_evenly(self, mc_table):
        corpus, queries, truths, space = tiny_world(n_queries=40)
        report = run_xval(corpus, queries, truths, space, 11, mc_table)
        assert len(report.train_ids) == 20 and len(report.test_ids) == 20

    def test_odd_count_training_gets_extra(self, mc_table):
        corpus, queries, truths, space = tiny_world(n_queries=5)
        report = run_xval(corpus, queries, truths, space, 1, mc_table)
        assert len(report.train_ids) == 3 and len(report.test_ids) == 2

    def test_same_seed_identical_report(self, mc_table):
        corpus, queries, truths, space = tiny_world()
        a = run_xval(corpus, queries, truths, space, 7, mc_table)
        b = run_xval(corpus, queries, truths, space, 7, mc_table)
        assert a.rows == b.rows and a.train_ids == b.train_ids

    def test_rows_shape(self, mc_table):
        corpus, queries, truths, space = tiny_world()
        report = run_xval(corpus, queries, truths, space, 3, mc_table)
        assert len(report.rows) == 8
        assert [r.protocol for r in report.rows[:2]] == ["without_cv", "with_cv"]
        text = xval_to_csv_text(report)
        assert text.splitlines()[0] == (
            "model,protocol,ave_overall_recall,ave_top10_recall,"
            "ave_rho_correlation,ave_tau_correlation"
        )
        assert len(text.strip().splitlines()) == 9

    def test_training_never_sees_test_queries(self, mc_table):
        corpus, queries, truths, space = tiny_world()
        events = []
        report = run_xval(
            corpus, queries, truths, space, 3, mc_table,
            observer=lambda phase, model, ids: events.append((phase, model, ids)),
        )
        test_ids = set(report.test_ids)
        train_events = [e for e in events if e[0] == "train"]
        assert train_events
        for _, _, ids in train_events:
            assert not (set(ids) & test_ids)
        # the held-out evaluation sees exactly the test half, once per model
        test_events = [e for e in events if e[0] == "test"]
        assert len(test_events) == len(DECAY_KINDS)
        for _, _, ids in test_events:
            assert set(ids) == test_ids

    def test_too_few_queries_rejected(self, mc_table):
        corpus, queries, truths, space = tiny_world(n_queries=1)
        with pytest.raises(ValueError, match="at least 2"):
            run_xval(corpus, queries, truths, space, 1, mc_table)


class TestParallelPaths:
    def test_pooled_optimize_all_matches_serial(self, mc_table):
        from concurrent.futures import ProcessPoolExecutor

        corpus, queries, truths, space = tiny_world()
        fn = SearchObjective(corpus, queries, truths, ObjectiveWeights(),
                             DEFAULT_COMMUTATIVE, mc_table)
        seed = default_seed_params(space)
        serial = optimize_all(space, seed, fn)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = optimize_all(space, seed, fn, pool=pool)
        assert pooled.best_model == serial.best_model
        assert pooled.best_params == serial.best_params
        assert list(pooled.runs) == list(serial.runs) == list(DECAY_KINDS)
        for kind, run in serial.runs.items():
            assert pooled.runs[kind].to_dict() == run.to_dict()

    def test_objective_with_built_plan_pickles(
        self, bundled_corpus, bundled_queries, bundled_truths, bundled_params,
        bundled_symbols, mc_table,
    ):
        # A pool may receive an objective that has already scored: the plan
        # kept on its queries travels with it, still keyed to its documents.
        fn = SearchObjective(bundled_corpus, bundled_queries, bundled_truths, ObjectiveWeights(),
                             bundled_symbols.commutative, mc_table)
        other = bundled_params.with_value("omega", 3.1)
        expected = [fn(bundled_params), fn(other)]
        copy = pickle.loads(pickle.dumps(fn))
        carried = vars(copy.queries)["_plan"]
        assert carried.docs is copy.corpus.table
        assert [copy(bundled_params), copy(other)] == expected
        assert copy.queries.plan(copy.corpus.table, bundled_symbols.commutative) is carried
