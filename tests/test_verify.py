import random
from dataclasses import replace
from fractions import Fraction
from math import comb, sqrt

import pytest

from pdeg.polyalg import GF2, RATIONALS, FieldSpec, MultilinearPoly, SymPoly
from pdeg.probpoly import (
    _reflect_vars,
    _remap_vars,
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
    expr_from_json,
    expr_to_json,
    general_recipe,
    majority_tail,
    one_minus,
    post_order,
    practical_profile,
    razborov_or,
    recipe_from_json,
    sample,
    sample_stream,
    split_operands,
    threshold_tuple,
    xor_combine,
)
from pdeg.polyalg import exact_sympoly
from pdeg import verify as verify_module
from pdeg.symfun import named_spectrum, spectrum
from pdeg.verify import (
    _ColumnEvaluator,
    _CubeColumns,
    _cube_evaluator,
    DegreeAudit,
    ErrorReport,
    degree_audit,
    empirical_error,
    exact_error,
    expand_expr,
    identity_check,
    identity_failures,
)

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
FIELDS = (GF2, GF3, RATIONALS)
FIELD_IDS = ("GF2", "GF3", "Q")
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
        eps=QUARTER,
        declared_degree_bound=n,
        params={},
        sampler=inner_sampler,
        targets=tuple(targets),
        draws=not randomness_free,
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

    def test_stratified_matches_exhaustive(self, monkeypatch):
        # Draw distributions here are symmetric under coordinate
        # permutations, so one point per weight estimates the same quantity.
        monkeypatch.setattr(verify_module, "EXHAUSTIVE_LIMIT", 0)
        r = razborov_or(4, QUARTER, GF2)
        strat = empirical_error(r, trials=3000, seed=7)
        assert strat.mode == "stratified"
        exact = exact_error(r)
        for w in range(5):
            assert abs(strat.per_weight[w] - float(exact[w])) <= 2 * strat.slack

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


    @pytest.mark.parametrize("bad", [{"trials": 0}, {"trials": -3}])
    def test_rejects_counts_below_one(self, bad):
        with pytest.raises(ValueError):
            empirical_error(razborov_or(20, QUARTER, GF2), **bad)
        with pytest.raises(ValueError):
            empirical_error(constant_recipe(GF2, 3, 0), **bad)

    def test_sequential_path_scores_the_recipe_itself(self):
        # A recipe that recipe_from_json cannot rebuild is scored in every
        # mode exactly as the recipe whose draws it returns; only eps and
        # its slack, which handmade fixes, may differ.
        for base, mode in (
            (razborov_or(20, QUARTER, GF2), "stratified"),
            (razborov_or(6, QUARTER, GF2), "exhaustive"),
            (exact_recipe(GF2, [named_spectrum("MAJ", 6)]), "single-draw"),
        ):
            r = handmade(
                lambda stream, base=base: sample_stream(base, stream),
                GF2,
                base.n,
                base.target_spectra(),
                randomness_free=base.randomness_free,
            )
            with pytest.raises(ValueError, match="'handmade'"):
                recipe_from_json(r.to_json())
            report = empirical_error(r, trials=20, seed=4)
            want = empirical_error(base, trials=20, seed=4)
            assert report.mode == mode
            assert replace(report, eps=want.eps, slack=want.slack) == want

    def test_deep_chain_does_not_recurse(self):
        # At 1^w 0^(n-w) the chain is x_0, i.e. OR, which misses THR 2 at
        # weight 1 only.
        rep = empirical_error(_deep_chain_recipe(randomness_free=True))
        assert rep.per_weight == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_deep_chain_exhaustive_does_not_recurse(self):
        rep = empirical_error(_deep_chain_recipe(randomness_free=False), trials=3)
        assert rep.mode == "exhaustive"
        # x_0 against THR 2: wrong where x_0 = 1 below weight 2, and where
        # x_0 = 0 from weight 2 on.
        wrong = [comb(5, w - 1) if w else 0 for w in range(2)] + [
            comb(5, w) for w in range(2, 7)
        ]
        assert rep.per_weight == tuple(
            float(Fraction(k, comb(6, w))) for w, k in enumerate(wrong)
        )

    @pytest.mark.parametrize("field", [GF2, GF3])
    @pytest.mark.parametrize("exhaustive_limit", [14, 0])
    def test_out_of_range_variable_fails_cleanly(
        self, field, exhaustive_limit, monkeypatch
    ):
        # n = 3: the default limit scores on the cube, 0 on one point per
        # weight.
        monkeypatch.setattr(verify_module, "EXHAUSTIVE_LIMIT", exhaustive_limit)
        for expr in (Var(7), LinearForm((1, 1), (0, -1)), SymApply(
            SymPoly(field, (0, 1)), (Var(0), Var(3))
        )):
            r = handmade(
                lambda stream: (expr,), field, 3, [named_spectrum("OR", 3)], False
            )
            with pytest.raises(ValueError, match="variable index -?[0-9]+ out of range"):
                empirical_error(r, trials=2)


def _deep_chain_recipe(randomness_free):
    """A 5000-deep one_minus chain over Var(0) at n = 6, against THR 2."""
    n = 6
    e = Var(0)
    for _ in range(5000):
        e = one_minus(e, GF2)
    return handmade(
        lambda stream: (e,), GF2, n, [named_spectrum("THR", n, 2)], randomness_free
    )


class TestDeepChainRewrites:
    """The rewrites and serialization walk the 5000-deep chain iteratively,
    at the default recursion limit."""

    CHAIN = sample(_deep_chain_recipe(randomness_free=True), 0)
    POINTS = [[int(i < w) for i in range(6)] for w in range(7)] + [
        [0, 1, 1, 0, 1, 0]
    ]

    def test_json_round_trip(self):
        obj = expr_to_json(self.CHAIN, GF2)
        assert len(obj["nodes"]) == 5001
        back = expr_from_json(obj)
        assert len(expr_to_json(back, GF2)["nodes"]) == 5001
        for x in self.POINTS:
            assert eval_expr(back[0], x, GF2) == x[0]

    def test_sample_compose_of_deep_outer(self):
        thresholds = [named_spectrum("THR", 6, t) for t in range(1, 7)]
        r = compose(
            _deep_chain_recipe(randomness_free=False),
            [exact_recipe(GF2, thresholds)],
        )
        (e,) = sample(r, 0)
        # The chain has even depth, so the composite is its piece x_0 -> THR 1.
        for x in self.POINTS:
            assert eval_expr(e, x, GF2) == int(sum(x) >= 1)

    def test_remap_vars(self):
        (e,) = _remap_vars(self.CHAIN, [5, 4, 3, 2, 1, 0])
        for x in self.POINTS:
            assert eval_expr(e, x, GF2) == x[5]

    def test_reflect_vars(self):
        (e,) = _reflect_vars(self.CHAIN, GF2)
        for x in self.POINTS:
            assert eval_expr(e, x, GF2) == 1 - x[0]


def test_identity_remap_keeps_node_sharing():
    """An identity relabelling rebuilds a DAG node for node: a rewrite that
    loses sharing serializes more nodes than its source."""
    for field in (GF2, GF3, RATIONALS):
        maj = named_spectrum("MAJ", 60)
        for recipe in (
            general_recipe(maj, EIGHTH, field, practical_profile(field)),
            threshold_tuple(8, (2, 5), QUARTER, field, TINY),
        ):
            draw = sample(recipe, 1)
            source = expr_to_json(draw, field)
            image = expr_to_json(_remap_vars(draw, range(recipe.n)), field)
            assert len(image["nodes"]) == len(source["nodes"])
            assert image == source
    # A Var that is both a SymApply input, which the SymApply images itself,
    # and a Sum term, reached before and after the SymApply.
    x1 = Var(1)
    sym = SymApply(exact_sympoly(named_spectrum("MAJ", 2), GF3), (x1, Var(0)))
    draw = (Sum(0, ((1, sym), (2, x1))), Sum(0, ((2, x1), (1, sym))))
    image = expr_to_json(_remap_vars(draw, range(2)), GF3)
    assert image == expr_to_json(draw, GF3)
    assert len(image["nodes"]) == 5


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


def typed(col):
    """Each entry with its type: pdeg sample prints entries with str, so a
    True for 1 would change the output where == would not notice."""
    return [(type(v), v) for v in col]


def _sym_on(poly, indices):
    return SymApply(poly, tuple(Var(i) for i in indices))


class TestColumnEvaluator:
    """Every column must equal eval_expr at each point 1^w 0^(n-w), entry
    for entry and type for type."""

    @staticmethod
    def reference(draw, n, field):
        return [
            typed([eval_expr(e, [1] * w + [0] * (n - w), field) for w in range(n + 1)])
            for e in draw
        ]

    def check(self, evaluator, draw):
        got = [typed(col) for col in evaluator.columns(draw)]
        assert got == self.reference(draw, evaluator.n, evaluator.field)

    @pytest.mark.parametrize(
        "recipe", [r for _, r in _column_recipes()],
        ids=[name for name, _ in _column_recipes()],
    )
    def test_matches_eval_expr(self, recipe):
        evaluator = _ColumnEvaluator(recipe.field, recipe.n)
        for seed in range(4):
            self.check(evaluator, sample(recipe, seed))

    @pytest.mark.parametrize("field", [GF3, RATIONALS])
    def test_non_boolean_inputs(self, field):
        self.check(_ColumnEvaluator(field, 5), _non_boolean_sym(field))

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_prefix_inputs_read_off_the_table(self, field):
        # A SymApply on x_0..x_(m-1) counts min(w, m) ones at weight w.
        n = 7
        draw = tuple(
            _sym_on(SymPoly(field, tuple(range(1, m + 2))), range(m))
            for m in (0, 1, n - 1, n)
        )
        assert [e.var_indices for e in draw] == [range(m) for m in (0, 1, n - 1, n)]
        self.check(_ColumnEvaluator(field, n), draw)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_shared_input_tuples(self, field):
        # Two polynomials on one input tuple, repeats included, share one
        # count column; a non-Boolean other input on the same Var inputs
        # takes the general kernel at some points, which must not write to
        # the shared counts.  A second call's draw on an equal tuple sees
        # its own counts.
        n = 6
        poly1 = SymPoly(field, (0, 1, 2, 1))
        poly2 = exact_sympoly(named_spectrum("MAJ", 5), field)
        idx = (4, 1, 4, 0)
        form = LinearForm((1, 1), (0, 1))
        mixed = SymApply(poly2, (*(Var(i) for i in idx), form))
        assert mixed.var_indices == idx
        twin = (4, 1, 3, 2)
        evaluator = _ColumnEvaluator(field, n)
        self.check(evaluator, (mixed, _sym_on(poly1, idx), _sym_on(poly2, idx)))
        self.check(evaluator, (_sym_on(poly1, twin), _sym_on(poly2, idx)))
        self.check(evaluator, (_sym_on(poly2, twin),))

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_sums_and_products(self, field):
        # Each term or factor count, as each reduces in its last pass.
        n = 5
        xs = [LinearForm((1, 2, 1), (i, 4 - i, 2)) for i in range(4)]
        terms = tuple(zip((2, 1, 3, 2), xs))
        draw = tuple(Sum(4, terms[:k]) for k in range(5)) + tuple(
            Product(tuple(xs[:k])) for k in range(4)
        )
        self.check(_ColumnEvaluator(field, n), draw)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_full_linear_form(self, field):
        # A form on x_0..x_(n-1) in order skips the per-index histogram;
        # the same coefficients with a repeated index, or a zero one, do not.
        n = 6
        coeffs = (1, 2, 0, 5, 1, 7)
        draw = (
            LinearForm(coeffs, tuple(range(n))),
            LinearForm(coeffs, (0, 1, 2, 3, 3, 5)),
            LinearForm(coeffs[:5] + (0,), tuple(range(n))),
            Sum(0, ((1, LinearForm(coeffs, tuple(range(n)))), (2, Var(5)))),
        )
        self.check(_ColumnEvaluator(field, n), draw)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("cube", [False, True], ids=["stratified", "cube"])
    def test_index_n_is_named(self, field, cube):
        n = 4
        evaluator = _CubeColumns(field, n) if cube else _ColumnEvaluator(field, n)
        for expr in (
            _sym_on(SymPoly(field, (0, 1)), range(n + 1)),
            LinearForm((1, 1), (0, n)),
            LinearForm((1,) * (n + 1), tuple(range(n + 1))),
        ):
            with pytest.raises(ValueError, match=f"variable index {n} out of range"):
                evaluator.columns((expr,))

    def test_count_columns_built(self, monkeypatch):
        # Counts, not timings: _linear builds every count column.
        built = []
        linear = _ColumnEvaluator._linear
        monkeypatch.setattr(
            _ColumnEvaluator, "_linear",
            lambda self, *args: built.append(args[1]) or linear(self, *args),
        )
        profile = practical_profile(GF3)
        every = threshold_tuple(100, tuple(range(101)), EIGHTH, GF3, profile)
        assert empirical_error(every, trials=2, seed=41).passed
        assert built == []
        inductive = threshold_tuple(100, (3, 7), EIGHTH, GF3, profile)
        assert inductive.params["branch"] == "inductive"
        draw = sample(inductive, 41)
        children = {
            e.var_indices for e, _ in post_order(draw, split_operands)
            if type(e) is SymApply and e.var_indices != range(100)
        }
        assert len(children) == 1
        _ColumnEvaluator(GF3, 100).columns(draw)
        assert built == list(children)

    def test_tables_are_cached_on_the_polys(self):
        maj = exact_sympoly(named_spectrum("MAJ", 5), GF3)
        twin = SymPoly(GF3, maj.coeffs)
        assert twin is not maj
        xs = tuple(Var(i) for i in range(5))
        evaluator = _ColumnEvaluator(GF3, 5)
        got = evaluator.columns((SymApply(maj, xs), SymApply(twin, xs[::-1])))
        assert got == [list(named_spectrum("MAJ", 5).values)] * 2
        assert not hasattr(evaluator, "tables")
        # Each polynomial holds its own table; equality and hashing ignore it.
        assert maj._table == twin._table == named_spectrum("MAJ", 5).values
        assert maj == SymPoly(GF3, maj.coeffs) and hash(maj) == hash(twin)
        table = maj._table
        evaluator.columns((SymApply(maj, xs),))
        assert maj._table is table

    @pytest.mark.parametrize("field", [RATIONALS, GF3, GF2], ids=["Q", "GF3", "GF2"])
    def test_interpolant_tables_are_seeded_not_rebuilt(self, field, monkeypatch):
        # Scoring every threshold at n = 100, and MAJ through the direct
        # route, reads only tables seeded when the windows were built.
        calls = []
        tabulate = SymPoly._tabulate
        monkeypatch.setattr(
            SymPoly, "_tabulate", lambda poly, m: calls.append(m) or tabulate(poly, m)
        )
        profile = practical_profile(field)
        every = threshold_tuple(100, tuple(range(101)), EIGHTH, field, profile)
        maj = general_recipe(named_spectrum("MAJ", 30), EIGHTH, field, profile)
        assert maj.params["route"] == "direct"
        for recipe in (every, maj):
            assert empirical_error(recipe, trials=2, seed=41).passed
        assert calls == []
        # The count does see a table built from the coefficients.
        SymPoly(field, (1, 1)).table(3)
        assert calls == [3]


def _cube_recipes():
    """Recipes on 8 variables over GF(2), GF(3), GF(5) and Q."""
    n = 8
    cases = []
    for field in (GF2, GF3, GF5, RATIONALS):
        p = field.characteristic
        profile = practical_profile(field)
        if p:
            base = razborov_or(n, EIGHTH, field)
            outer = razborov_or(2, EIGHTH, field)
            cases += [
                (f"razborov_or-{p}", base),
                (f"razborov_and-{p}", razborov_or(n, EIGHTH, field, negate=True)),
                (f"amplify-{p}", amplify(
                    razborov_or(n, QUARTER, field), Fraction(5, 32))),
            ]
        else:
            base = char0_or(n, EIGHTH)
            outer = char0_or(2, EIGHTH)
            cases += [("char0_or", base)]
        maj = exact_recipe(field, [named_spectrum("MAJ", n)])
        cases += [
            (f"xor-{p}", xor_combine(base, maj)),
            (f"compose-{p}", compose(outer, [base] * 2)),
            (f"threshold-exact-{p}", threshold_tuple(n, (1, 3), EIGHTH, field, profile)),
            (f"threshold-hash-{p}", threshold_tuple(n, (1,), TINY_EPS, field, TINY)),
            (f"threshold-inductive-{p}", threshold_tuple(
                n, (2, 5), QUARTER, field, TINY)),
            (f"general-{p}", general_recipe(
                spectrum("011010011"), EIGHTH, field, profile)),
        ]
    return cases


def _cube_draws():
    """(name, n, field, draw) for three draws of each cube recipe, plus
    hand-built SymApply nodes whose inputs are not all 0/1."""
    out = []
    for name, recipe in _cube_recipes():
        for seed in range(3):
            out.append((f"{name}-{seed}", recipe.n, recipe.field, sample(recipe, seed)))
    for field in (GF2, GF3, GF5, RATIONALS):
        out.append((f"non-boolean-{field.characteristic}", 5, field,
                    _non_boolean_sym(field)))
    return out


CUBE_DRAWS = _cube_draws()


def _small_cube_draws():
    """(name, n, field, draw) at n <= 6: seeded draws, hand-built
    non-Boolean inputs and the prefix, shared-tuple and full-form shapes."""
    out = []
    for field in FIELDS:
        p = field.characteristic
        profile = practical_profile(field)
        base = razborov_or(6, EIGHTH, field) if p else char0_or(6, EIGHTH)
        for name, recipe in (
            ("or", base),
            ("threshold-exact", threshold_tuple(6, (1, 3), EIGHTH, field, profile)),
            ("threshold-inductive", threshold_tuple(6, (2, 5), QUARTER, field, TINY)),
        ):
            for seed in range(2):
                out.append((f"{name}-{p}-{seed}", 6, field, sample(recipe, seed)))
        poly = SymPoly(field, (1, 2, 0, 1))
        form = LinearForm((1, 2, 0, 5, 1, 7), tuple(range(6)))
        out += [
            (f"non-boolean-{p}", 5, field, _non_boolean_sym(field)),
            (f"prefix-{p}", 6, field, tuple(_sym_on(poly, range(m)) for m in (0, 1, 5, 6))),
            (f"shared-tuple-{p}", 6, field, (
                SymApply(poly, (Var(3), Var(0), Var(3), LinearForm((1, 1), (0, 1)))),
                _sym_on(poly, (3, 0, 3)),
            )),
            (f"forms-{p}", 6, field, (form, LinearForm(form.coeffs, (0, 1, 2, 3, 3, 5)))),
        ]
    return out


SMALL_CUBE_DRAWS = _small_cube_draws()


def cube_values(col, n):
    """A cube column as a list in mask order; GF(2) columns are ints."""
    if isinstance(col, int):
        return [(col >> m) & 1 for m in range(1 << n)]
    return col


def sparse_expand(expr, n, field, memo=None):
    """Multilinear normal form by sparse term arithmetic (the reference)."""
    if memo is None:
        memo = {}
    if id(expr) in memo:
        return memo[id(expr)]
    if isinstance(expr, Constant):
        out = MultilinearPoly.constant(field, n, expr.value)
    elif isinstance(expr, Var):
        out = MultilinearPoly.variable(field, n, expr.index)
    elif isinstance(expr, LinearForm):
        out = MultilinearPoly(field, n)
        for c, i in zip(expr.coeffs, expr.indices):
            out = out.add(MultilinearPoly(field, n, {1 << i: c}))
    elif isinstance(expr, Power):
        base = sparse_expand(expr.base, n, field, memo)
        out = MultilinearPoly.constant(field, n, 1)
        for _ in range(expr.exponent):
            out = out.mul(base)
    elif isinstance(expr, Product):
        out = MultilinearPoly.constant(field, n, 1)
        for f in expr.factors:
            out = out.mul(sparse_expand(f, n, field, memo))
    elif isinstance(expr, Sum):
        out = MultilinearPoly.constant(field, n, expr.constant)
        for c, t in expr.terms:
            out = out.add(sparse_expand(t, n, field, memo).scale(c))
    else:
        inputs = [sparse_expand(t, n, field, memo) for t in expr.inputs]
        d = min(expr.poly.degree, len(inputs))
        elem = [MultilinearPoly.constant(field, n, 1)] + [
            MultilinearPoly(field, n) for _ in range(d)
        ]
        for q in inputs:
            for k in range(d, 0, -1):
                elem[k] = elem[k].add(elem[k - 1].mul(q))
        out = MultilinearPoly(field, n)
        for k, c in enumerate(expr.poly.coeffs[: d + 1]):
            out = out.add(elem[k].scale(c))
    memo[id(expr)] = out
    return out


class TestCubeColumns:
    """Every cube column must equal eval_expr at every point of {0,1}^n."""

    @pytest.mark.parametrize(
        "n, field, draw", [c[1:] for c in CUBE_DRAWS], ids=[c[0] for c in CUBE_DRAWS]
    )
    def test_matches_eval_expr(self, n, field, draw):
        points = [[(m >> i) & 1 for i in range(n)] for m in range(1 << n)]
        got = _cube_evaluator(field, n).columns(draw)
        for e, col in zip(draw, got):
            assert typed(cube_values(col, n)) == typed(
                [eval_expr(e, x, field) for x in points]
            )

    @pytest.mark.parametrize(
        "n, field, draw", [c[1:] for c in SMALL_CUBE_DRAWS],
        ids=[c[0] for c in SMALL_CUBE_DRAWS],
    )
    def test_lists_match_eval_expr(self, n, field, draw):
        # The list evaluator, in every field GF(2) included, on every point.
        points = [[(m >> i) & 1 for i in range(n)] for m in range(1 << n)]
        got = _CubeColumns(field, n).columns(draw)
        for e, col in zip(draw, got):
            assert typed(col) == typed([eval_expr(e, x, field) for x in points])


class Foreign:
    """A node class no evaluator has a rule for."""

    deg = 1


class TestUnknownNode:
    """Each column evaluator raises TypeError naming a foreign node class,
    here a Sum term, so the inner node reaches the dispatch too."""

    EXPR = Sum(1, ((1, Foreign()),))

    def test_column_evaluator(self):
        with pytest.raises(TypeError, match="unknown expression node .*Foreign"):
            _ColumnEvaluator(GF3, 4).columns((self.EXPR,))

    @pytest.mark.parametrize("field", [GF3, GF2], ids=["cube-columns", "cube-bits"])
    def test_cube_evaluators(self, field):
        with pytest.raises(TypeError, match="unknown expression node .*Foreign"):
            expand_expr(self.EXPR, 4, field)


# Recipes with a closed-form error, at sizes that score exhaustively.
CLOSED_FORMS = {
    "razborov GF2": lambda: razborov_or(12, QUARTER, GF2),
    "razborov GF3": lambda: razborov_or(8, QUARTER, GF3),
    "razborov GF5": lambda: razborov_or(8, Fraction(1, 2), GF5),
    "razborov GF17": lambda: razborov_or(6, Fraction(1, 2), FieldSpec(17)),
    "char0_or": lambda: char0_or(8, Fraction(1, 2)),
    "amplify": lambda: amplify(razborov_or(6, QUARTER, GF2), Fraction(5, 32)),
}


class TestExactError:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_seeded_draws_follow_the_closed_form(self, name):
        # Every point's error frequency over independent draws has
        # variance at most q(1 - q) / trials, and so has their mean.
        r = CLOSED_FORMS[name]()
        trials = 1000
        report = empirical_error(r, trials=trials, seed=11)
        assert report.mode == "exhaustive"
        for got, want in zip(report.per_weight, exact_error(r)):
            q = float(want)
            assert abs(got - q) <= 5 * sqrt(q * (1 - q) / trials), (name, got, q)

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

    @pytest.mark.parametrize(
        "field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"]
    )
    def test_or_branch_has_its_childs_closed_form(self, field):
        r = threshold_tuple(12, (1,), EIGHTH, field, TINY)
        assert r.params["branch"] == "or"
        err = exact_error(r)
        assert err == exact_error(r.children()[0])
        assert err[0] == 0
        assert max(err) <= EIGHTH / 2
        # Exhaustive scoring stays within 5 standard deviations of it.
        trials = 32
        report = empirical_error(r, trials=trials, seed=9)
        assert report.mode == "exhaustive"
        for got, want in zip(report.per_weight, err):
            q = float(want)
            assert abs(got - q) <= 5 * sqrt(q * (1 - q) / trials)

    @pytest.mark.parametrize(
        "field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"]
    )
    def test_or_branch_at_benchmark_shapes(self, field):
        p = field.characteristic
        prof = practical_profile(field)
        r = threshold_tuple(40 if p == 0 else 100, (1,), EIGHTH, field, prof)
        assert r.params["branch"] == "or"
        assert max(exact_error(r)) <= EIGHTH / 2
        assert empirical_error(r, trials=8, seed=3).mode == "stratified"
        general = general_recipe(named_spectrum("OR", 100), EIGHTH, field, prof)
        assert empirical_error(general, trials=4, seed=3).mode == "stratified"

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

    def test_deep_chain_does_not_recurse(self):
        audit = degree_audit(_deep_chain_recipe(randomness_free=False), draws=2)
        assert (audit.max_tracked, audit.max_expanded) == (1, 1)

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

    @pytest.mark.parametrize(
        "recipe", [razborov_or(12, QUARTER, GF2), char0_or(12, QUARTER)], ids=["gf2", "q"]
    )
    def test_two_digit_indices_in_json(self, recipe):
        # Index lists sort as numbers, not as text: [1, 2] before [1, 10].
        rng = random.Random(12)
        (expr,) = sample(recipe, 3)
        poly = expand_expr(expr, 12, recipe.field)
        monos = [[int(i) for i in k.split(",")] if k else [] for k in poly.to_json()["terms"]]
        assert len(monos) == poly.term_count
        assert all(m == sorted(set(m)) for m in monos)
        assert monos == sorted(monos)
        assert any(m[-1] >= 10 for m in monos if m)
        for _ in range(64):
            x = [rng.randrange(2) for _ in range(12)]
            assert poly.evaluate(x) == eval_expr(expr, x, recipe.field)

    @pytest.mark.parametrize(
        "n, field, draw", [c[1:] for c in CUBE_DRAWS], ids=[c[0] for c in CUBE_DRAWS]
    )
    def test_matches_sparse_reference(self, n, field, draw):
        for e in draw:
            got = expand_expr(e, n, field)
            want = sparse_expand(e, n, field)
            assert got.terms == want.terms
            assert [type(got.terms[m]) for m in want.terms] == [
                type(c) for c in want.terms.values()
            ]
            assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS])
    @pytest.mark.parametrize(
        "expr, index",
        [
            (Var(3), 3),
            (Var(-1), -1),
            (LinearForm((1,), (7,)), 7),
            (LinearForm((1, 1), (0, -1)), -1),
            (SymApply(SymPoly(GF2, (0, 1)), (Var(0), Var(5))), 5),
        ],
    )
    def test_out_of_range_variable_fails_cleanly(self, field, expr, index):
        with pytest.raises(
            ValueError, match=rf"^variable index {index} out of range for n=3$"
        ):
            expand_expr(expr, 3, field)


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
