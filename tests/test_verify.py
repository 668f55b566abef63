from fractions import Fraction

import pytest

from pdeg.polyalg import GF2, RATIONALS, FieldSpec, SymPoly
from pdeg.probpoly import (
    Constant,
    ConstantsProfile,
    LinearForm,
    Power,
    Product,
    Recipe,
    Sum,
    SymApply,
    Var,
    amplify,
    char0_or,
    compose,
    constant_recipe,
    eval_expr,
    exact_recipe,
    general_recipe,
    majority_tail,
    one_minus,
    practical_profile,
    razborov_or,
    sample,
    sample_stream,
    threshold_tuple,
    xor_combine,
)
from pdeg.polyalg import exact_sympoly
from pdeg.symfun import named_spectrum, spectrum
from pdeg.verify import (
    _ColumnEvaluator,
    DegreeAudit,
    ErrorReport,
    degree_audit,
    empirical_error,
    exact_error,
    expand_expr,
    expected_spectrum_values,
    identity_check,
    identity_failures,
)

GF3 = FieldSpec(3)
QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)
TINY_EPS = Fraction(1, 1 << 20)
# Cramped constants that reach the hashed and recursive threshold branches
# on a handful of variables, where eval_expr is a cheap reference.
TINY = ConstantsProfile(
    name="tiny",
    A=24,
    B=24,
    r_multiplier=0.3,
    small_error_exponent_divisor=1,
    subsample_ratio=Fraction(1, 2),
    window_inner_multiplier=0.5,
    window_outer_multiplier=0.5,
    base_n=4,
    amplify_arity=4,
)


def handmade(inner_sampler, field, n, targets, randomness_free):
    """A recipe kind that recipe_from_json cannot rebuild."""
    return Recipe(
        kind="handmade",
        field=field,
        profile=None,
        n=n,
        arity=len(targets),
        eps=QUARTER,
        declared_degree_bound=n,
        randomness_free=randomness_free,
        params={},
        sampler=inner_sampler,
        targets=tuple(targets),
    )


class TestEmpiricalError:
    def test_single_draw_mode_for_randomness_free(self):
        r = exact_recipe(GF2, [named_spectrum("MAJ", 6)])
        rep = empirical_error(r, trials=500)
        assert rep.mode == "single-draw"
        assert rep.trials == 1
        assert rep.worst == 0.0
        assert rep.passed

    def test_exhaustive_mode_small_n(self):
        r = razborov_or(3, QUARTER, GF2)
        rep = empirical_error(r, trials=200, seed=1)
        assert rep.mode == "exhaustive"
        assert rep.per_weight[0] == 0.0
        exact = exact_error(r)
        for w in range(1, 4):
            assert abs(rep.per_weight[w] - float(exact[w])) <= rep.slack

    def test_stratified_matches_exhaustive(self):
        # Draw distributions here are symmetric under coordinate
        # permutations, so one point per weight estimates the same quantity.
        r = razborov_or(4, QUARTER, GF2)
        strat = empirical_error(r, trials=3000, seed=7, exhaustive_limit=0)
        assert strat.mode == "stratified"
        exact = exact_error(r)
        for w in range(5):
            assert abs(strat.per_weight[w] - float(exact[w])) <= 2 * strat.slack

    def test_jobs_split_is_deterministic(self):
        r = razborov_or(16, QUARTER, GF2)
        a = empirical_error(r, trials=60, seed=5)
        b = empirical_error(r, trials=60, seed=5, jobs=2)
        assert a.per_weight == b.per_weight
        assert b.mode == "stratified"

    def test_report_json(self):
        r = constant_recipe(GF2, 3, 0)
        rep = empirical_error(r)
        obj = rep.to_json()
        assert obj["mode"] == "single-draw"
        assert obj["passed"] is True
        assert len(obj["per_weight"]) == 4

    def test_failed_report_on_wrong_recipe(self):
        # Tamper with a recipe's target to force a visible failure.
        r = exact_recipe(GF2, [named_spectrum("OR", 4)])
        bad = type(r).__new__(type(r))
        for slot in r.__slots__:
            object.__setattr__(bad, slot, getattr(r, slot))
        object.__setattr__(bad, "_targets", (named_spectrum("AND", 4),))
        rep = empirical_error(bad)
        assert not rep.passed
        assert rep.worst == 1.0


    @pytest.mark.parametrize("bad", [{"trials": 0}, {"trials": -3}, {"jobs": 0}])
    def test_rejects_counts_below_one(self, bad):
        with pytest.raises(ValueError):
            empirical_error(razborov_or(20, QUARTER, GF2), **bad)
        with pytest.raises(ValueError):
            empirical_error(constant_recipe(GF2, 3, 0), **bad)

    def test_sequential_path_scores_the_recipe_itself(self):
        base = razborov_or(20, QUARTER, GF2)
        r = handmade(
            lambda stream: sample_stream(base, stream),
            GF2,
            20,
            base.target_spectra(),
            randomness_free=False,
        )
        assert empirical_error(r, trials=20, seed=4) == empirical_error(
            base, trials=20, seed=4
        )

    def test_pool_rejects_recipes_it_cannot_rebuild(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("pdeg.verify.ProcessPoolExecutor", no_pool)
        base = razborov_or(20, QUARTER, GF2)
        r = handmade(
            lambda stream: sample_stream(base, stream),
            GF2,
            20,
            base.target_spectra(),
            randomness_free=False,
        )
        with pytest.raises(ValueError, match="'handmade'.*jobs=1"):
            empirical_error(r, trials=20, seed=4, jobs=2)

    def test_deep_chain_does_not_recurse(self):
        n = 6
        e = Var(0)
        for _ in range(5000):
            e = one_minus(e)
        # The chain is x_0, i.e. OR, which misses THR 2 at weight 1 only.
        r = handmade(
            lambda stream: (e,), GF2, n, [named_spectrum("THR", n, 2)], True
        )
        rep = empirical_error(r)
        assert rep.per_weight == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _column_recipes():
    cases = []
    for field in (GF2, GF3, RATIONALS):
        p = field.characteristic
        cases += [
            (f"threshold-exact-{p}", threshold_tuple(
                12, (1, 3), EIGHTH, field, practical_profile(field))),
            (f"threshold-hash-{p}", threshold_tuple(12, (1,), TINY_EPS, field, TINY)),
            (f"threshold-inductive-{p}", threshold_tuple(
                8, (2, 5), QUARTER, field, TINY)),
        ]
    maj12 = exact_recipe(GF2, [named_spectrum("MAJ", 12)])
    cases += [
        # Over Q the hashed detectors are integer-valued but not always 0/1.
        ("threshold-hash-0-n40", threshold_tuple(
            40, (1,), EIGHTH, RATIONALS, practical_profile(RATIONALS))),
        ("razborov_or", razborov_or(12, EIGHTH, GF3)),
        ("razborov_and", razborov_or(12, EIGHTH, GF2, negate=True)),
        ("char0_or", char0_or(12, EIGHTH)),
        ("amplify", amplify(razborov_or(12, QUARTER, GF3), Fraction(5, 32))),
        ("xor", xor_combine(razborov_or(12, EIGHTH, GF2), maj12)),
        ("compose", compose(
            razborov_or(2, EIGHTH, GF2), [razborov_or(12, EIGHTH, GF2)] * 2)),
        ("general", general_recipe(
            named_spectrum("MAJ", 12), EIGHTH, GF3, practical_profile(GF3))),
        ("general-Q", general_recipe(
            spectrum("0110100110010"), EIGHTH, RATIONALS,
            practical_profile(RATIONALS))),
    ]
    return cases


def _non_boolean_sym(field):
    maj3 = exact_sympoly(named_spectrum("MAJ", 3), field)
    form = LinearForm((1, 1), (0, 1))
    return (
        SymApply(maj3, (Var(0), form, Constant(field.element(2)))),
        SymApply(maj3, (Power(form, 2), Var(3), Var(3))),
    )


class TestColumnEvaluator:
    """Every column must equal eval_expr at each point 1^w 0^(n-w)."""

    @staticmethod
    def reference(draw, n, field):
        return [
            [eval_expr(e, [1] * w + [0] * (n - w), field) for w in range(n + 1)]
            for e in draw
        ]

    @pytest.mark.parametrize(
        "recipe", [r for _, r in _column_recipes()],
        ids=[name for name, _ in _column_recipes()],
    )
    def test_matches_eval_expr(self, recipe):
        n, field = recipe.n, recipe.field
        evaluator = _ColumnEvaluator(field, n)
        for seed in range(4):
            draw = sample(recipe, seed)
            assert evaluator.columns(draw) == self.reference(draw, n, field)

    @pytest.mark.parametrize("field", [GF3, RATIONALS])
    def test_non_boolean_inputs(self, field):
        draw = _non_boolean_sym(field)
        assert _ColumnEvaluator(field, 5).columns(draw) == self.reference(
            draw, 5, field
        )

    def test_equal_polys_share_one_table(self):
        maj = exact_sympoly(named_spectrum("MAJ", 5), GF3)
        twin = SymPoly(GF3, maj.coeffs)
        assert twin is not maj
        xs = tuple(Var(i) for i in range(5))
        evaluator = _ColumnEvaluator(GF3, 5)
        got = evaluator.columns((SymApply(maj, xs), SymApply(twin, xs[::-1])))
        assert got == [list(named_spectrum("MAJ", 5).values)] * 2
        assert list(evaluator.tables) == [maj]


class TestExactError:
    def test_randomness_free_all_zero(self):
        r = exact_recipe(GF3, [named_spectrum("THR", 5, 2)])
        assert exact_error(r) == (Fraction(0),) * 6

    def test_razborov_profile(self):
        r = razborov_or(5, EIGHTH, GF2)
        err = exact_error(r)
        assert err[0] == 0
        assert set(err[1:]) == {Fraction(1, 8)}

    def test_razborov_negated_profile(self):
        r = razborov_or(5, EIGHTH, GF2, negate=True)
        err = exact_error(r)
        assert err[5] == 0
        assert set(err[:5]) == {Fraction(1, 8)}

    def test_amplified_razborov(self):
        child = razborov_or(3, QUARTER, GF2)
        amp = amplify(child, Fraction(5, 32))
        err = exact_error(amp)
        assert err[0] == 0
        assert set(err[1:]) == {Fraction(10, 64)}
        assert majority_tail(3, QUARTER) == Fraction(10, 64)

    def test_char0_or_matches_enumeration_of_outcomes(self):
        # Reconstruct the closed form independently for n=2: a run misses
        # weight w when no scale isolates exactly one live coordinate.
        r = char0_or(2, QUARTER)
        err = exact_error(r)
        ell = r.params["runs"]
        scales = 1  # ceil(log2(2))
        fail = Fraction(1)
        for j in range(scales + 1):
            q = Fraction(1, 1 << j)
            fail *= 1 - 2 * q * (1 - q)
        assert err[2] == fail**ell
        assert err[0] == 0

    def test_no_closed_form(self):
        prof = practical_profile(GF2)
        r = threshold_tuple(40, (2,), EIGHTH, GF2, prof)
        with pytest.raises(NotImplementedError):
            exact_error(r)


class TestDegreeAudit:
    def test_randomness_free_single_draw(self):
        r = exact_recipe(GF2, [named_spectrum("MAJ", 8)])
        audit = degree_audit(r, draws=50)
        assert audit.draws == 1
        assert audit.expanded
        assert audit.max_expanded <= audit.max_tracked <= audit.declared

    def test_razborov_within_declared(self):
        r = razborov_or(6, EIGHTH, GF3)
        audit = degree_audit(r, draws=40, seed=2)
        assert audit.max_tracked <= audit.declared
        assert audit.expanded and audit.max_expanded <= audit.max_tracked

    def test_expansion_disabled_above_limit(self):
        r = razborov_or(20, QUARTER, GF2)
        audit = degree_audit(r, draws=5)
        assert not audit.expanded
        assert audit.max_expanded is None

    def test_json(self):
        r = razborov_or(4, QUARTER, GF2)
        obj = degree_audit(r, draws=3).to_json()
        assert set(obj) >= {"declared", "max_tracked", "draws", "expanded"}

    def test_audit_catches_understated_declaration(self):
        r = razborov_or(4, QUARTER, GF2)
        bad = type(r).__new__(type(r))
        for slot in r.__slots__:
            object.__setattr__(bad, slot, getattr(r, slot))
        object.__setattr__(bad, "declared_degree_bound", 0)
        with pytest.raises(AssertionError):
            degree_audit(bad, draws=10)


class TestExpandExpr:
    def points(self, n):
        return [
            tuple((mask >> i) & 1 for i in range(n)) for mask in range(1 << n)
        ]

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS])
    def test_matches_direct_evaluation(self, field):
        n = 4
        form = LinearForm((1, 2, 1), (0, 1, 3))
        expr = Sum(
            1,
            (
                (2, Product((Var(2), Power(form, 2)))),
                (1, Power(LinearForm((1,), (2,)), 3)),
            ),
        )
        poly = expand_expr(expr, n, field)
        for x in self.points(n):
            assert poly.evaluate(x) == eval_expr(expr, list(x), field)

    def test_symapply_expansion(self):
        n = 4
        maj = exact_sympoly(named_spectrum("MAJ", 3), RATIONALS)
        expr = SymApply(
            maj, (Var(0), LinearForm((1, 1), (1, 2)), Product((Var(2), Var(3))))
        )
        poly = expand_expr(expr, n, RATIONALS)
        for x in self.points(n):
            assert poly.evaluate(x) == eval_expr(expr, list(x), RATIONALS)

    def test_sampled_draw_expansion(self):
        r = razborov_or(5, QUARTER, GF2)
        (expr,) = sample(r, 9)
        poly = expand_expr(expr, 5, GF2)
        for x in self.points(5):
            assert poly.evaluate(x) == eval_expr(expr, list(x), GF2)


class TestIdentityChecks:
    def test_xor_identity(self):
        a = named_spectrum("THR", 4, 1)
        b = named_spectrum("THR", 4, 3)
        target = spectrum(
            "".join(str(x ^ y) for x, y in zip(a.values, b.values))
        )

        def combine(vals, field):
            x, y = vals
            return x + y - 2 * x * y

        assert identity_check(target, [a, b], combine, RATIONALS)
        assert identity_failures(target, [a, b], combine, RATIONALS) == []

    def test_failures_report_weights(self):
        a = named_spectrum("OR", 3)
        target = named_spectrum("AND", 3)

        def combine(vals, field):
            return vals[0]

        fails = identity_failures(target, [a], combine, GF2)
        assert [w for w, _, _ in fails] == [1, 2]
        assert not identity_check(target, [a], combine, GF2)

    def test_weight_subset(self):
        a = named_spectrum("OR", 3)
        target = named_spectrum("AND", 3)

        def combine(vals, field):
            return vals[0]

        assert identity_check(target, [a], combine, GF2, weights=[0, 3])

    def test_expected_values_helper(self):
        spectra = [named_spectrum("OR", 3), named_spectrum("AND", 3)]
        assert expected_spectrum_values(spectra, 0) == [0, 0]
        assert expected_spectrum_values(spectra, 1) == [1, 0]
        assert expected_spectrum_values(spectra, 3) == [1, 1]
