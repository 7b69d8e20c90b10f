import json
import math
import random
import re

import pytest
from hypothesis import given, settings

from mathsim.mathml import MAX_DEPTH, Apply, Constant, FormulaClass, FunctionSymbol, Variable
from mathsim.metric import (
    DECAY_KINDS,
    DEFAULT_COMMUTATIVE,
    DecayModel,
    MetricParams,
    arg_list_sim_greedy,
    arg_list_sim_ordered,
    decay,
    leaf_sim,
    load_params,
    save_params,
    score_document,
    sim,
)

from helpers import (
    arg_list_sim_exact,
    make_params,
    params_strategy,
    random_params,
    random_tree,
    tree_strategy,
)

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
PLUS = FunctionSymbol("plus", "arith1")
TIMES = FunctionSymbol("times", "arith1")
MINUS = FunctionSymbol("minus", "arith1")
SIN = FunctionSymbol("sin", "transc1")
COS = FunctionSymbol("cos", "transc1")


class TestDecay:
    def test_exponential_at_zero(self):
        assert decay(DecayModel("exponential", 0.8), 0, 0.05) == 1.0

    def test_exponential_formula(self):
        assert decay(DecayModel("exponential", 0.8), 2, 0.05) == pytest.approx(0.64, abs=1e-12)

    def test_logarithmic_formula(self):
        expected = 1.0 - 0.5 * math.log(2)
        assert decay(DecayModel("logarithmic", 0.5), 1, 0.05) == pytest.approx(expected, abs=1e-12)

    def test_linear_floor(self):
        assert decay(DecayModel("linear", 0.4), 10, 0.05) == 0.05

    def test_quadratic_formula(self):
        assert decay(DecayModel("quadratic", 0.1), 2, 0.05) == pytest.approx(0.6, abs=1e-12)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            decay(DecayModel("linear", 0.1), -1, 0.05)

    def test_all_models_one_at_zero_depth(self):
        for kind in DECAY_KINDS:
            assert decay(DecayModel(kind, 0.5), 0, 0.05) == 1.0

    def test_monotone_nonincreasing(self, bundled_space):
        # The engine scores each kind of leaf at its least depth alone, which
        # is exact only because no shape grows with depth, down to the floor.
        grid = {r for name in ("dp_rate", "cp_rate") for r in bundled_space.trial_values(name)}
        epsilons = set(bundled_space.trial_values("epsilon")) | {0.01, 0.5}
        for kind in DECAY_KINDS:
            steep = {1.0} if kind == "exponential" else {1.5, 10.0, 1000.0}
            for rate in sorted(grid | steep):
                for epsilon in epsilons:
                    series = [decay(DecayModel(kind, rate), k, epsilon) for k in range(MAX_DEPTH + 2)]
                    assert all(a >= b for a, b in zip(series, series[1:])), (kind, rate, epsilon)
                    if kind != "exponential" and rate in steep:
                        assert series[-1] == epsilon, (kind, rate, epsilon)

    def test_bad_models_rejected(self):
        with pytest.raises(ValueError):
            DecayModel("cubic", 0.5)
        with pytest.raises(ValueError):
            DecayModel("exponential", 0.0)
        with pytest.raises(ValueError):
            DecayModel("exponential", 1.5)
        with pytest.raises(ValueError):
            DecayModel("linear", -0.1)
        for rate in (math.inf, math.nan):
            with pytest.raises(ValueError, match="decay rate must be finite"):
                DecayModel("linear", rate)


class TestParamsValidation:
    def test_defaults_valid(self):
        make_params()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("delta", 1.0),
            ("delta", -0.1),
            ("zeta", 1.1),
            ("mu", 0.0),
            ("mu", 1.0),
            ("theta", 1.0),
            ("omega", 1.0),
            ("omega", 0.5),
            ("epsilon", 0.0),
            ("epsilon", 1.0),
            ("dp_rate", -0.2),
            ("w_expr", 0.0),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: value})

    def test_weight_ordering_enforced(self):
        with pytest.raises(ValueError, match="w_eq"):
            make_params(w_eq=1.0, w_ineq=1.2, w_expr=1.0)

    def test_unknown_decay_model_rejected(self):
        with pytest.raises(ValueError, match="unknown decay model 'cubic'"):
            make_params(decay_model="cubic")

    def test_exponential_rate_must_be_base(self):
        with pytest.raises(ValueError):
            make_params(decay_model="exponential", dp_rate=1.5)
        make_params(decay_model="linear", dp_rate=1.5)

    def test_json_round_trip(self, tmp_path):
        params = make_params(mu=0.35, decay_model="quadratic")
        path = tmp_path / "p.json"
        save_params(params, path)
        loaded, symbols = load_params(path)
        assert loaded == params
        assert symbols.commutative == DEFAULT_COMMUTATIVE

    def test_symbol_sets_load_from_params_file(self, tmp_path):
        data = make_params().to_dict()
        data["commutative"] = [["arith1", "plus"]]
        data["equality_symbols"] = [["relation1", "approx"]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        _, symbols = load_params(path)
        assert symbols.commutative == frozenset({("arith1", "plus")})
        assert symbols.equality == frozenset({("relation1", "approx")})

    @pytest.mark.parametrize("field,value", [("zeta", True), ("omega", False)])
    def test_boolean_value_rejected(self, tmp_path, field, value):
        # json reads true/false as bools, which isinstance(…, int) accepts.
        data = make_params().to_dict()
        data[field] = value
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"{field} must be a number, got {value}"):
            load_params(path)

    def test_non_finite_value_rejected(self, tmp_path):
        # json reads 1e999 as inf, and validate_field must catch it.
        text = re.sub(r'"zeta": [^,}]+', '"zeta": 1e999', json.dumps(make_params().to_dict()))
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="zeta must be finite, got inf"):
            load_params(path)

    def test_symbol_set_must_be_list(self, tmp_path):
        data = {**make_params().to_dict(), "commutative": "arith1 plus"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="commutative must be a list of"):
            load_params(path)

    @pytest.mark.parametrize("entry", [["arith1", 5], [True, None], ["arith1", ["plus"]]])
    def test_symbol_set_entry_must_be_two_strings(self, tmp_path, entry):
        data = {**make_params().to_dict(), "commutative": [["arith1", "plus"], entry]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(f"commutative entry {json.dumps(entry)} is not")):
            load_params(path)

    def test_unknown_key_rejected(self, tmp_path):
        # A misspelt set would otherwise leave the default set in force.
        data = {**make_params().to_dict(), "comutative": [["arith1", "plus"]]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown keys: comutative"):
            load_params(path)

    def test_missing_key_reported(self):
        data = make_params().to_dict()
        del data["omega"]
        with pytest.raises(ValueError, match="omega"):
            MetricParams.from_dict(data)


class TestLeafSim:
    def test_equal_constants(self):
        assert leaf_sim(Constant("2"), Constant("2"), make_params()) == 1.0

    def test_unequal_constants_delta(self):
        assert leaf_sim(Constant("2"), Constant("3"), make_params(delta=0.25)) == 0.25

    def test_constant_equality_is_lexical(self):
        assert leaf_sim(Constant("2"), Constant("2.0"), make_params(delta=0.25)) == 0.25

    def test_distinct_variables_zeta(self):
        assert leaf_sim(X, Y, make_params(zeta=0.5)) == 0.5

    def test_same_function(self):
        assert leaf_sim(SIN, FunctionSymbol("sin", "transc1"), make_params()) == 1.0

    def test_same_cd_mu(self):
        assert leaf_sim(SIN, COS, make_params(mu=0.6)) == 0.6

    def test_different_cd_zero(self):
        assert leaf_sim(SIN, FunctionSymbol("sin", "arith1"), make_params()) == 0.0

    def test_constant_vs_variable_theta(self):
        assert leaf_sim(Constant("2"), X, make_params(theta=0.2)) == 0.2

    def test_function_vs_operand_zero(self):
        assert leaf_sim(SIN, X, make_params()) == 0.0
        assert leaf_sim(Constant("2"), SIN, make_params()) == 0.0

    def test_rejects_apply(self):
        with pytest.raises(ValueError):
            leaf_sim(Apply(PLUS, (X,)), X, make_params())


class TestArgListSims:
    def test_ordered_identical(self):
        assert arg_list_sim_ordered([X, Y], [X, Y], make_params()) == 2.0

    def test_ordered_swapped(self):
        assert arg_list_sim_ordered([X, Y], [Y, X], make_params(zeta=0.5)) == 1.0

    def test_ordered_prefix(self):
        assert arg_list_sim_ordered([X], [X, Z], make_params()) == 1.0

    def test_greedy_swapped_recovers(self):
        assert arg_list_sim_greedy([X, Y], [Y, X], make_params(zeta=0.5)) == 2.0

    def test_greedy_single(self):
        assert arg_list_sim_greedy([X], [X], make_params()) == 1.0

    def test_greedy_partial(self):
        assert arg_list_sim_greedy([X, Y], [X, Z], make_params(zeta=0.5)) == 1.5

    def test_greedy_tie_break_lowest_index(self):
        # both candidates score zeta; the first must be taken
        params = make_params(zeta=0.5)
        assert arg_list_sim_greedy([X], [Y, Z], params) == 0.5
        assert arg_list_sim_greedy([X, Y], [Z, W], params) == 1.0

    def test_exact_swapped(self):
        assert arg_list_sim_exact([X, Y], [Y, X], make_params(zeta=0.5)) == 2.0

    def test_exact_single_pair(self):
        assert arg_list_sim_exact([X], [Y], make_params(zeta=0.5)) == 0.5

    def test_exact_refuses_large(self):
        args = [Variable(f"v{i}") for i in range(7)]
        with pytest.raises(ValueError, match="oracle bound"):
            arg_list_sim_exact(args, args, make_params())

    def test_exact_beats_greedy_on_adversarial_case(self):
        # greedy grabs the perfect match for its first argument even when the
        # optimal assignment needs it elsewhere
        fx = Apply(SIN, (X,))
        fy = Apply(SIN, (Y,))
        params = make_params(zeta=0.0, omega=2.0)
        greedy = arg_list_sim_greedy([fx, fy], [fy, fx], params)
        exact = arg_list_sim_exact([fx, fy], [fy, fx], params)
        assert exact == 2.0
        assert greedy <= exact

    @settings(deadline=None)
    @given(params_strategy)
    def test_greedy_never_exceeds_exact_random(self, params):
        rng = random.Random(1234)
        for _ in range(10):
            args1 = [random_tree(rng, 2, 3) for _ in range(rng.randint(1, 4))]
            args2 = [random_tree(rng, 2, 3) for _ in range(rng.randint(1, 4))]
            greedy = arg_list_sim_greedy(args1, args2, params)
            exact = arg_list_sim_exact(args1, args2, params)
            assert greedy <= exact + 1e-9


class TestSim:
    def test_identity_simple(self):
        tree = Apply(PLUS, (X, Constant("2")))
        assert sim(tree, tree, make_params()) == pytest.approx(1.0, abs=1e-9)

    def test_weighted_sum_branch(self):
        # alpha = 2/4, beta = 1/4; greedy args give 1 + zeta
        query = Apply(PLUS, (X, Y))
        doc = Apply(PLUS, (X, Z))
        params = make_params(omega=2.0, zeta=0.5, dp_rate=0.5, cp_rate=0.5)
        assert sim(query, doc, params) == pytest.approx(0.875, abs=1e-12)

    def test_dp_branch_depth_one(self):
        params = make_params(decay_model="logarithmic", dp_rate=0.3, cp_rate=0.3)
        expected = (1.0 - 0.3 * math.log(2)) * 1.0
        assert sim(X, Apply(PLUS, (X, Y)), params) == pytest.approx(expected, abs=1e-12)

    def test_cp_branch_covers_query_subtree(self):
        params = make_params(decay_model="exponential", dp_rate=0.5, cp_rate=0.5, zeta=0.0)
        # doc equals the query's second argument: matched at depth 1 inside the query
        query = Apply(PLUS, (X, Apply(SIN, (Y,))))
        doc = Apply(SIN, (Y,))
        assert sim(query, doc, params) >= 0.5 - 1e-12

    def test_absolute_depth_accounting(self):
        # a match two levels down must be charged decay(2), not decay(1)^2
        params = make_params(decay_model="linear", dp_rate=0.3, cp_rate=0.3, epsilon=0.05)
        doc = Apply(SIN, (Apply(COS, (X,)),))
        assert sim(X, doc, params) == pytest.approx(1.0 - 0.3 * 2, abs=1e-12)

    def test_ordered_heads_respect_argument_order(self):
        params = make_params(zeta=0.5, dp_rate=0.3, cp_rate=0.3)
        f_xy = Apply(MINUS, (X, Y))
        f_yx = Apply(MINUS, (Y, X))
        assert sim(f_xy, f_yx, params) < 1.0

    def test_commutative_heads_ignore_argument_order(self):
        params = make_params(zeta=0.5)
        f_xy = Apply(PLUS, (X, Y))
        f_yx = Apply(PLUS, (Y, X))
        assert sim(f_xy, f_yx, params) == pytest.approx(1.0, abs=1e-9)

    def test_mixed_commutative_pair_uses_greedy(self):
        # times is commutative, minus is not: order is still relaxed.
        # alpha = 2/4, beta = 1/4; head gives mu, greedy args recover 2.0
        # (an ordered sum would leave the arguments at 0).
        params = make_params(zeta=0.0, mu=0.5, omega=2.0)
        q = Apply(TIMES, (X, Y))
        d = Apply(MINUS, (Y, X))
        assert sim(q, d, params) == pytest.approx(0.75, abs=1e-9)

    def test_zero_arg_apply_identity(self):
        tree = Apply(FunctionSymbol("emptyset", "set1"), ())
        assert sim(tree, tree, make_params()) == pytest.approx(1.0, abs=1e-12)

    def test_depth_penalty_direction(self):
        params = make_params(decay_model="exponential", dp_rate=0.8, cp_rate=0.8)
        query = Apply(PLUS, (X, Y))
        doc = query
        values = []
        for _ in range(4):
            values.append(sim(query, doc, params))
            doc = Apply(SIN, (doc,))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]

    def test_newton_closer_to_coulomb_than_flat_sum(self, bundled_corpus, bundled_params):
        by_id = {r.doc_id: r for r in bundled_corpus}
        newton = by_id["newton"].tree
        assert sim(newton, by_id["coulomb"].tree, bundled_params) > sim(
            newton, by_id["flat_sum"].tree, bundled_params
        )

    @settings(deadline=None, max_examples=60)
    @given(tree_strategy, params_strategy)
    def test_identity_property(self, tree, params):
        assert sim(tree, tree, params) == pytest.approx(1.0, abs=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(tree_strategy, tree_strategy, params_strategy)
    def test_range_property(self, query, doc, params):
        value = sim(query, doc, params)
        assert 0.0 <= value <= 1.0


class TestScoreDocument:
    def test_class_weight_applied(self):
        tree = Apply(PLUS, (X, Y))
        params = make_params(w_eq=1.2, w_expr=1.0, w_ineq=1.1)
        score = score_document(tree, tree, FormulaClass.EQUATION, params)
        assert score == pytest.approx(1.2, abs=1e-9)

    def test_zero_sim_stays_zero(self):
        params = make_params(theta=0.0)
        score = score_document(SIN, X, FormulaClass.EQUATION, params)
        assert score == 0.0

    def test_weighted_product(self):
        # leaf pair with zeta 0.8 pins sim at exactly 0.8
        params = make_params(zeta=0.8, w_eq=1.2, w_ineq=1.1, w_expr=1.0)
        score = score_document(X, Y, FormulaClass.EQUATION, params)
        assert score == pytest.approx(0.96, abs=1e-12)

    def test_identity_with_unit_weight(self):
        tree = Apply(PLUS, (X, Y))
        score = score_document(tree, tree, FormulaClass.NON_FORMULA, make_params(w_expr=1.0))
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_equation_outranks_expression_at_equal_sim(self):
        tree = Apply(PLUS, (X, Y))
        params = make_params(w_eq=1.5, w_expr=1.0)
        eq_score = score_document(tree, tree, FormulaClass.EQUATION, params)
        expr_score = score_document(tree, tree, FormulaClass.NON_FORMULA, params)
        assert eq_score > expr_score
