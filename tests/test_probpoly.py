import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest

from pdeg import probpoly
from pdeg.polyalg import GF2, RATIONALS, FieldSpec, SymPoly, exact_sympoly
from pdeg.probpoly import (
    ConstantsProfile,
    SeedStream,
    amplify,
    char0_or,
    compose,
    constant_recipe,
    declared_bound,
    enumerate_draws,
    eval_expr,
    exact_recipe,
    expr_from_json,
    expr_to_json,
    general_recipe,
    get_profile,
    majority_tail,
    paper_profile,
    practical_profile,
    razborov_or,
    recipe_from_json,
    sample,
    sum_recipes,
    t_constant_recipe,
    bounded_recipe,
    threshold_tuple,
    unknown_recipe_kinds,
    xor_combine,
)
from pdeg.probpoly import LinearForm, Power, Product, Sum, SymApply, Var
from pdeg.symfun import Spectrum, named_spectrum, spectrum, xor_spectra

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
EIGHTH = Fraction(1, 8)
QUARTER = Fraction(1, 4)


def weight_points(n):
    return [[1] * w + [0] * (n - w) for w in range(n + 1)]


def draw_values(recipe, seed=0):
    """Evaluate one draw of each component on the points 1^w 0^(n-w)."""
    exprs = sample(recipe, seed)
    field = recipe.field
    out = []
    for e in exprs:
        out.append(
            tuple(eval_expr(e, x, field) for x in weight_points(recipe.n))
        )
    return out


class TestSeedStream:
    def test_deterministic(self):
        a = SeedStream.from_seed(42).rng().random()
        b = SeedStream.from_seed(42).rng().random()
        assert a == b

    def test_children_differ(self):
        root = SeedStream.from_seed(0)
        r1 = root.child("a").rng().random()
        r2 = root.child("b").rng().random()
        r3 = root.child(("a", 1)).rng().random()
        assert len({r1, r2, r3}) == 3

    def test_child_of_child_stable(self):
        v1 = SeedStream.from_seed(1).child("x").child(2).rng().randrange(10**9)
        v2 = SeedStream.from_seed(1).child("x").child(2).rng().randrange(10**9)
        assert v1 == v2


class TestBelow:
    """_below must replay random.Random.randrange call for call: every
    seeded draw of razborov_or, char0_or and the hashed and inductive
    threshold branches depends on it."""

    BOUNDS = sorted(
        set(range(1, 301))
        | {(1 << j) + d for j in range(1, 41) for d in (-1, 0, 1)}
        | {2, 3, 5, 7, 101}
    )

    def test_replays_randrange(self):
        for seed in range(50):
            mine, ref = random.Random(seed), random.Random(seed)
            for n in self.BOUNDS:
                count = 1 + (n + seed) % 5
                want = [ref.randrange(n) for _ in range(count)]
                assert probpoly._below(mine, n, count) == want, (
                    f"random.randrange({n}) no longer draws as _below does "
                    f"(seed {seed}); seeded draws would change"
                )
                # Draws of another width between the calls check the state.
                assert mine.getrandbits(13) == ref.getrandbits(13), (seed, n)
            assert mine.getstate() == ref.getstate(), seed

    def test_empty_count(self):
        rng = random.Random(3)
        state = rng.getstate()
        assert probpoly._below(rng, 7, 0) == []
        assert rng.getstate() == state


class TestProfiles:
    def test_paper_constants(self):
        p2 = paper_profile(GF2)
        assert p2.A == p2.B == 12_800_000
        assert p2.r_multiplier == 6_400_000
        p0 = paper_profile(RATIONALS)
        assert p0.A == p0.B == 64_000_000
        assert paper_profile(GF5).A == 32_000_000

    def test_practical_constants(self):
        assert practical_profile(GF2).A == 24
        assert practical_profile(RATIONALS).A == 24
        assert practical_profile(GF3).A == 36
        assert practical_profile(GF5).A == 60
        assert practical_profile(GF2).r_multiplier == 10

    def test_get_profile(self):
        assert get_profile("paper", GF2).name == "paper"
        assert get_profile("practical", GF2).name == "practical"
        with pytest.raises(ValueError):
            get_profile("nope", GF2)

    def test_json_roundtrip(self):
        prof = practical_profile(GF3)
        assert ConstantsProfile.from_json(prof.to_json()) == prof

    def test_declared_bound_formula(self):
        prof = practical_profile(GF2)
        # ceil(24 * sqrt(1 * 3) + 24 * 3) at n=40
        assert declared_bound(prof, GF2, 40, 1, EIGHTH) == 114
        # characteristic 0 carries a log-n factor inside the ceiling
        prof0 = practical_profile(RATIONALS)
        base = 24 * math.sqrt(3) + 24 * 3
        assert declared_bound(prof0, RATIONALS, 64, 1, EIGHTH) == math.ceil(6 * base)

    def test_char0_scales_is_ceil_log2(self):
        # The exact count equals the float formula at every size below 2^22.
        sizes = range(1, 1 << 22)
        assert list(map(probpoly.char0_scales, sizes)) == [
            math.ceil(math.log2(m)) for m in sizes
        ]


class TestExprNodes:
    def test_degree_tracking(self):
        x = Var(3)
        form = LinearForm((1, 2), (0, 1))
        assert x.deg == 1 and form.deg == 1
        assert Power(form, 4).deg == 4
        assert Product((x, Power(form, 2))).deg == 3
        s = Sum(0, ((1, x), (2, Power(form, 5))))
        assert s.deg == 5
        poly = exact_sympoly(named_spectrum("OR", 2), RATIONALS)
        assert SymApply(poly, (x, form)).deg == poly.degree * 1

    def test_eval_linear_form_repeated_indices(self):
        form = LinearForm((1, 1, 2), (0, 0, 1))
        assert eval_expr(form, [1, 1], RATIONALS) == 4

    def test_symapply_on_non_boolean_inputs(self):
        # The weight polynomial composes with elementary symmetric sums of
        # arbitrary field values; compare against a direct expansion.
        poly = exact_sympoly(named_spectrum("THR", 3, 2), RATIONALS)
        vals = [Fraction(1, 2), Fraction(2), Fraction(-1)]
        inputs = tuple(Var(i) for i in range(3))
        got = eval_expr(SymApply(poly, inputs), vals, RATIONALS)
        e2 = sum(
            vals[i] * vals[j] for i in range(3) for j in range(i + 1, 3)
        )
        e3 = vals[0] * vals[1] * vals[2]
        assert got == e2 - 2 * e3

    def test_expr_json_roundtrip(self):
        poly = exact_sympoly(named_spectrum("MAJ", 3), GF3)
        expr = Sum(
            2,
            (
                (1, Product((Var(0), Power(LinearForm((1, 2), (1, 2)), 2)))),
                (2, SymApply(poly, (Var(0), Var(1), Var(2)))),
            ),
        )
        (back,) = expr_from_json(expr_to_json([expr], GF3))
        assert back.deg == expr.deg
        for x in ([0, 1, 1], [1, 2, 0], [2, 2, 2]):
            assert eval_expr(back, x, GF3) == eval_expr(expr, x, GF3)

    @staticmethod
    def _json(nodes, roots):
        """x_0 and x_1 as nodes 0 and 1, then nodes, over GF(3)."""
        lead = [{"op": "var", "index": 0}, {"op": "var", "index": 1}]
        return {"char": 3, "nodes": lead + nodes, "roots": roots}

    def test_expr_json_rejects_negative_variable_index(self):
        with pytest.raises(ValueError, match="variable index -1"):
            expr_from_json(self._json([{"op": "var", "index": -1}], [2]))

    def test_expr_json_rejects_negative_linear_index(self):
        node = {"op": "linear", "coeffs": ["1", "2"], "indices": [0, -2]}
        with pytest.raises(ValueError, match="variable index -2"):
            expr_from_json(self._json([node], [2]))

    @pytest.mark.parametrize(
        "node",
        [
            {"op": "mul", "factors": [0, -1]},
            {"op": "sum", "constant": "0", "terms": [["1", 2]]},
            {"op": "pow", "base": 5, "exponent": 2},
        ],
        ids=["negative", "self", "forward"],
    )
    def test_expr_json_rejects_bad_node_reference(self, node):
        with pytest.raises(ValueError, match="reference .* is not one of nodes"):
            expr_from_json(self._json([node], [2]))

    @pytest.mark.parametrize("root", [-1, 2])
    def test_expr_json_rejects_root_out_of_range(self, root):
        with pytest.raises(ValueError, match=f"reference {root} is not one of nodes 0..1"):
            expr_from_json(self._json([], [0, root]))

    @pytest.mark.parametrize(
        "node, message",
        [
            ({"op": "mul", "factors": ["0"]}, "reference '0' is not an int"),
            ({"op": "mul", "factors": [0, 1.0]}, "reference 1.0 is not an int"),
            ({"op": "mul", "factors": [True]}, "reference True is not an int"),
            ({"op": "sum", "constant": "0", "terms": [["1", 0.0]]}, "reference 0.0"),
            ({"op": "pow", "base": "1", "exponent": 2}, "reference '1'"),
            ({"op": "pow", "base": 1, "exponent": 2.0}, "exponent 2.0 is not an int"),
            ({"op": "pow", "base": 1, "exponent": True}, "exponent True is not an int"),
            ({"op": "pow", "base": 1, "exponent": "2"}, "exponent '2' is not an int"),
            ({"op": "var", "index": 1.5}, "variable index 1.5 is not an int"),
            ({"op": "var", "index": True}, "variable index True is not an int"),
            ({"op": "var", "index": "1"}, "variable index '1' is not an int"),
            (
                {"op": "linear", "coeffs": ["1", "1"], "indices": [0, 1.0]},
                "variable index 1.0 is not an int",
            ),
            ({"op": "sym", "poly": None, "inputs": [0.5]}, "reference 0.5"),
        ],
    )
    def test_expr_json_rejects_non_int_fields(self, node, message):
        if node["op"] == "sym":
            node["poly"] = SymPoly(GF3, (0, 1)).to_json()
        with pytest.raises(ValueError, match=re.escape(message)):
            expr_from_json(self._json([node], [2]))

    def test_expr_json_rejects_sym_poly_over_another_field(self):
        # A char-0 polynomial in a GF(3) expression would read 5 at (1, 1)
        # pointwise and 2 after reduction: refused, naming the node.
        node = {"op": "sym", "poly": SymPoly(RATIONALS, (0, 0, 5)).to_json(), "inputs": [0, 1]}
        with pytest.raises(ValueError, match="sym node 2: polynomial over characteristic 0"):
            expr_from_json(self._json([node], [2]))
        node["poly"] = SymPoly(GF3, (0, 0, 5)).to_json()
        (e,) = expr_from_json(self._json([node], [2]))
        assert eval_expr(e, [1, 1], GF3) == 2

    @pytest.mark.parametrize("root", ["0", 1.0, False])
    def test_expr_json_rejects_non_int_root(self, root):
        with pytest.raises(ValueError, match=re.escape(f"reference {root!r} is not an int")):
            expr_from_json(self._json([], [root]))


class TestBasicRecipes:
    def test_constant(self):
        r = constant_recipe(GF2, 5, 1)
        assert r.randomness_free and r.eps == 0
        assert draw_values(r) == [(1,) * 6]

    def test_exact(self):
        targets = [named_spectrum("MAJ", 4), spectrum("10101")]
        r = exact_recipe(RATIONALS, targets)
        assert r.randomness_free
        assert r.arity == 2
        vals = draw_values(r)
        for got, want in zip(vals, targets):
            assert got == want.values
        assert r.declared_degree_bound == 4

    def test_exact_requires_common_n(self):
        with pytest.raises(ValueError):
            exact_recipe(GF2, [spectrum("01"), spectrum("011")])


class TestRazborovOr:
    def test_rejects_char_zero(self):
        with pytest.raises(ValueError):
            razborov_or(3, QUARTER, RATIONALS)

    def test_declared_degree(self):
        assert razborov_or(4, QUARTER, GF2).declared_degree_bound == 2
        assert razborov_or(4, EIGHTH, GF2).declared_degree_bound == 3
        assert razborov_or(4, QUARTER, GF5).declared_degree_bound == 8

    def test_zero_point_exact_and_enumeration(self):
        r = razborov_or(3, QUARTER, GF2)
        total = Fraction(0)
        wrong_by_weight = [Fraction(0)] * 4
        target = named_spectrum("OR", 3)
        for prob, (expr,) in enumerate_draws(r):
            total += prob
            for w, x in enumerate(weight_points(3)):
                if eval_expr(expr, x, GF2) != target.values[w]:
                    wrong_by_weight[w] += prob
        assert total == 1
        assert wrong_by_weight[0] == 0
        assert all(err == QUARTER for err in wrong_by_weight[1:])

    def test_negated_form(self):
        r = razborov_or(2, QUARTER, GF3, negate=True)
        target = named_spectrum("AND", 2)
        wrong_by_weight = [Fraction(0)] * 3
        for prob, (expr,) in enumerate_draws(r):
            for w, x in enumerate(weight_points(2)):
                if eval_expr(expr, x, GF3) != target.values[w]:
                    wrong_by_weight[w] += prob
        assert wrong_by_weight[2] == 0
        assert all(err == Fraction(1, 9) for err in wrong_by_weight[:2])


class TestChar0Or:
    def test_never_wrong_at_zero(self):
        r = char0_or(5, QUARTER)
        for seed in range(50):
            (expr,) = sample(r, seed)
            assert eval_expr(expr, [0] * 5, RATIONALS) == 0

    def test_error_within_budget_small_n(self):
        from pdeg.verify import empirical_error, exact_error

        r = char0_or(4, QUARTER)
        worst = max(exact_error(r))
        assert worst <= QUARTER
        rep = empirical_error(r, trials=400, seed=3)
        assert rep.worst <= float(worst) + rep.slack

    def test_single_variable(self):
        r = char0_or(1, EIGHTH)
        for seed in range(5):
            (expr,) = sample(r, seed)
            assert eval_expr(expr, [1], RATIONALS) == 1
            assert eval_expr(expr, [0], RATIONALS) == 0


def _weight_polys_of_all_inputs(exprs, n):
    """The SymApply nodes of a draw whose inputs are x_0..x_(n-1), in walk order."""
    found, seen, stack = [], set(), list(reversed(exprs))
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, SymApply):
            if not e.others and list(e.var_indices) == list(range(n)):
                found.append(e)
            stack.extend(e.inputs)
        elif isinstance(e, Sum):
            stack.extend(t for _, t in e.terms)
        elif isinstance(e, Product):
            stack.extend(e.factors)
        elif isinstance(e, Power):
            stack.append(e.base)
    return found


class TestThresholdTuple:
    def test_exact_branch_small_n(self):
        prof = practical_profile(GF2)
        r = threshold_tuple(8, (1, 3), EIGHTH, GF2, prof)
        assert r.randomness_free
        assert r.params["branch"] == "exact"
        vals = draw_values(r)
        assert vals[0] == named_spectrum("THR", 8, 1).values
        assert vals[1] == named_spectrum("THR", 8, 3).values

    def test_small_error_branch_goes_exact(self):
        # A hashing range that covers n keeps priority over the OR branch.
        prof = practical_profile(GF2)
        r = threshold_tuple(40, (1,), Fraction(1, 2**20), GF2, prof)
        assert r.randomness_free
        assert r.params["branch"] == "exact"
        vals = draw_values(r)
        assert vals[0] == named_spectrum("THR", 40, 1).values
        r = threshold_tuple(100, (1,), EIGHTH, GF2, paper_profile(GF2))
        assert r.params["branch"] == "exact"

    def test_hash_branch_zero_side_exact(self):
        prof = practical_profile(GF2)
        r = threshold_tuple(40, (2,), EIGHTH, GF2, prof)
        assert r.params["branch"] == "hash"
        assert not r.randomness_free
        field = r.field
        for seed in range(8):
            (expr,) = sample(r, seed)
            for w in (0, 1):
                x = [1] * w + [0] * (40 - w)
                assert eval_expr(expr, x, field) == 0

    def test_hash_branch_char0(self):
        # Threshold 2, since an all-ones tuple takes the OR branch here.
        prof = practical_profile(RATIONALS)
        r = threshold_tuple(40, (2,), EIGHTH, RATIONALS, prof)
        assert r.params["branch"] == "hash"
        for seed in range(2):
            (expr,) = sample(r, seed)
            for w in (0, 1):
                x = [1] * w + [0] * (40 - w)
                assert eval_expr(expr, x, RATIONALS) == 0

    def test_inductive_branch_structure(self):
        prof = practical_profile(GF2)
        r = threshold_tuple(100, (3, 7), EIGHTH, GF2, prof)
        assert r.params["branch"] == "inductive"
        assert r.params["subsample_n"] == 10
        assert not r.randomness_free
        assert r.arity == 2
        (child,) = r.children()
        assert child.kind == "threshold_tuple"
        assert child.n == 10

    @pytest.mark.parametrize(
        "n,thresholds,branch", [(40, (1, 2), "hash"), (100, (3, 7), "inductive")]
    )
    def test_draws_share_their_draw_independent_nodes(self, n, thresholds, branch):
        r = threshold_tuple(n, thresholds, EIGHTH, GF2, practical_profile(GF2))
        assert r.params["branch"] == branch
        first, second = (_weight_polys_of_all_inputs(sample(r, seed), n) for seed in (0, 1))
        assert len(first) == len(thresholds)
        assert [id(e) for e in first] == [id(e) for e in second]

    def test_thresholds_validated(self):
        prof = practical_profile(GF2)
        with pytest.raises(ValueError):
            threshold_tuple(10, (), EIGHTH, GF2, prof)
        with pytest.raises(ValueError):
            threshold_tuple(10, (11,), EIGHTH, GF2, prof)
        with pytest.raises(ValueError):
            threshold_tuple(10, (-1,), EIGHTH, GF2, prof)

    def test_zero_threshold_component_exact(self):
        prof = practical_profile(GF2)
        r = threshold_tuple(12, (0, 2), EIGHTH, GF2, prof)
        vals = draw_values(r)
        assert vals[0] == (1,) * 13


# Cramped constants: a hashing range of 1 at eps = 1/8 and of 6 at 2^-20.
CRAMPED = ConstantsProfile(
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
OR_FIELDS = pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"])


def _threshold_tuples(recipe):
    """The threshold_tuple recipes in a recipe tree, outermost first."""
    found, stack = [], [recipe]
    while stack:
        r = stack.pop()
        if r.kind == "threshold_tuple":
            found.append(r)
        else:
            stack.extend(r.children())
    return found


class TestOrRoute:
    """All-ones threshold tuples through one disjunction at eps/2."""

    @OR_FIELDS
    def test_benchmark_shapes_take_the_or_branch(self, field):
        p = field.characteristic
        prof = practical_profile(field)
        recipes = [
            threshold_tuple(40 if p == 0 else 100, (1,), EIGHTH, field, prof),
            general_recipe(named_spectrum("OR", 100), EIGHTH, field, prof),
        ]
        for recipe in recipes:
            (tt,) = _threshold_tuples(recipe)
            assert tt.params["branch"] == "or"
            (child,) = tt.children()
            assert child.kind == ("razborov_or" if p else "char0_or")
            assert child.eps == tt.eps / 2
            assert not tt.randomness_free
            assert recipe_from_json(recipe.to_json()).to_json() == recipe.to_json()
            for seed in range(3):
                draw = sample(recipe, seed)
                assert [eval_expr(e, [0] * recipe.n, field) for e in draw] == [0]

    @OR_FIELDS
    def test_components_share_the_childs_draw(self, field):
        r = threshold_tuple(50, (1, 1), EIGHTH, field, practical_profile(field))
        assert r.params["branch"] == "or"
        (child,) = r.children()
        for seed in range(2):
            first, second = sample(r, seed)
            assert first is second
            assert expr_to_json((first,), field) == expr_to_json(
                sample(child, seed), field
            )

    @OR_FIELDS
    def test_hashing_range_too_small_takes_the_or_branch(self, field):
        # A hashing range of 1 cannot dominate threshold 1, so the hashed
        # branch cannot be built.
        r = threshold_tuple(12, (1,), EIGHTH, field, CRAMPED)
        assert r.params["branch"] == "or"
        assert draw_values(r)[0][0] == 0
        with pytest.raises(ValueError, match="does not dominate"):
            threshold_tuple(12, (1, 2), EIGHTH, field, CRAMPED)

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize(
        "field", [GF2, GF3, GF5, RATIONALS], ids=["GF2", "GF3", "GF5", "Q"]
    )
    def test_cramped_hash_shapes_stay_hashed(self, field, n):
        # The hashed branch's structural degree (12 to 66 here) is below the
        # OR child's declared degree at 2^-21 (21 to 336).
        r = threshold_tuple(n, (1,), Fraction(1, 1 << 20), field, CRAMPED)
        assert r.params["branch"] == "hash"

    def test_cramped_hash_shape_stays_hashed_over_gf101(self):
        prof = dataclasses.replace(CRAMPED, A=48, B=48)
        r = threshold_tuple(12, (1,), Fraction(1, 1 << 20), FieldSpec(101), prof)
        assert r.params["branch"] == "hash"


class TestTConstant:
    def test_constant_spectrum_shortcut(self):
        r = t_constant_recipe(spectrum("11111"), EIGHTH, GF2, practical_profile(GF2))
        assert r.eps == 0 and r.randomness_free
        assert draw_values(r) == [(1,) * 5]

    def test_majority_small(self):
        f = named_spectrum("MAJ", 6)
        r = t_constant_recipe(f, EIGHTH, GF2, practical_profile(GF2))
        assert r.randomness_free  # all sub-branches exact at this size
        assert draw_values(r) == [f.values]

    def test_error_budget_not_split(self):
        f = named_spectrum("OR", 40)
        r = t_constant_recipe(f, EIGHTH, GF2, practical_profile(GF2))
        # single shared draw, so the recipe error equals the tuple's
        assert r.eps == EIGHTH
        assert r.children()[0].eps == EIGHTH


class TestBounded:
    def test_middle_zero_split_exact_small(self):
        h = spectrum("0100011")
        r = bounded_recipe(h, EIGHTH, GF2, practical_profile(GF2))
        assert r.randomness_free
        assert draw_values(r) == [h.values]

    def test_middle_one_complement_fallback(self):
        h = spectrum("0110")
        r = bounded_recipe(h, EIGHTH, GF3, practical_profile(GF3))
        assert r.params["complemented"] is True
        assert draw_values(r) == [h.values]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            bounded_recipe(spectrum("0100"), EIGHTH, GF2, practical_profile(GF2))

    def test_children_get_half_budget(self):
        # Nontrivial at both ends with a constant middle, so neither half
        # collapses to a constant shortcut.
        values = [0] * 41
        values[1] = 1
        values[39] = 1
        h = Spectrum(tuple(values))
        r = bounded_recipe(h, EIGHTH, GF2, practical_profile(GF2))
        kids = r.children()
        assert len(kids) == 2
        for child in kids:
            assert child.eps == Fraction(1, 16)
        assert draw_values(r, seed=2) == [h.values]

    def test_middle_one_keeps_full_budget(self):
        h = spectrum("0" * 20 + "1" + "0" * 20)
        r = bounded_recipe(h, EIGHTH, GF2, practical_profile(GF2))
        assert r.params["complemented"] is True
        (inner,) = r.children()
        assert inner.eps == EIGHTH


class TestGeneral:
    def test_direct_route_majority(self):
        f = named_spectrum("MAJ", 6)
        r = general_recipe(f, EIGHTH, GF2, practical_profile(GF2))
        assert r.params["route"] == "direct"
        assert draw_values(r) == [f.values]

    def test_decomposition_route_periodic_window(self):
        # Period-2 middle window over characteristic 2 picks the split.
        bits = "".join("10"[w % 2] for w in range(13))
        f = spectrum(bits)
        r = general_recipe(f, EIGHTH, GF2, practical_profile(GF2))
        assert r.params["route"] == "decomposition"
        assert r.params["period_g"] == 2
        assert draw_values(r) == [f.values]

    def test_route_choice_minimizes_declared(self, monkeypatch):
        bits = "".join("10"[w % 2] for w in range(13))
        f = spectrum(bits)
        prof = practical_profile(GF2)
        direct = threshold_tuple(12, tuple(range(1, 13)), EIGHTH, GF2, prof)
        built = []
        real = probpoly.threshold_tuple

        def counting(n, thresholds, *args):
            built.append((n, tuple(thresholds)))
            return real(n, thresholds, *args)

        monkeypatch.setattr(probpoly, "threshold_tuple", counting)
        r = general_recipe(f, EIGHTH, GF2, prof)
        assert r.params["route"] == "decomposition"
        assert r.declared_degree_bound <= direct.declared_degree_bound
        # The losing direct route is never built.
        assert (12, tuple(range(1, 13))) not in built

    def test_invalid_eps_rejected_before_either_route(self):
        f = named_spectrum("MAJ", 6)
        for eps in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            with pytest.raises(ValueError, match="error parameter"):
                general_recipe(f, eps, GF2, practical_profile(GF2))


class TestCombinators:
    def test_majority_tail_values(self):
        assert majority_tail(3, QUARTER) == Fraction(10, 64)
        assert majority_tail(1, QUARTER) == QUARTER
        assert majority_tail(5, Fraction(1, 2)) == Fraction(1, 2)

    def test_amplify_vote_count_and_bound(self):
        child = razborov_or(2, QUARTER, GF2)
        amp = amplify(child, Fraction(5, 32))
        assert amp.params["votes"] == 3
        assert amp.eps == Fraction(5, 32)
        assert amp.declared_degree_bound == 3 * child.declared_degree_bound

    def test_amplify_validation(self):
        child = razborov_or(2, QUARTER, GF2)
        with pytest.raises(ValueError):
            amplify(child, QUARTER)  # delta must beat the child's error
        with pytest.raises(ValueError):
            amplify(child, Fraction(0))
        exact = exact_recipe(GF2, [named_spectrum("OR", 2)])
        with pytest.raises(ValueError):
            amplify(exact, Fraction(1, 8))

    def test_amplify_minimal_vote_count(self):
        child = razborov_or(2, QUARTER, GF2)
        # any target strictly below eps needs at least three votes
        assert amplify(child, Fraction(15, 64)).params["votes"] == 3
        assert amplify(child, Fraction(1, 100)).params["votes"] == 19

    def test_compose_exact(self):
        outer = exact_recipe(GF2, [named_spectrum("OR", 2)])
        inner = exact_recipe(GF2, [named_spectrum("AND", 3)])
        comp = compose(outer, [inner, inner])
        want = tuple(
            named_spectrum("OR", 2).values[2 * named_spectrum("AND", 3).values[w]]
            for w in range(4)
        )
        assert comp.target_spectra()[0].values == want
        assert draw_values(comp) == [want]
        assert comp.declared_degree_bound == (
            outer.declared_degree_bound * inner.declared_degree_bound
        )

    def test_compose_eps_adds(self):
        outer = razborov_or(2, EIGHTH, GF2)
        inner = razborov_or(5, EIGHTH, GF2)
        comp = compose(outer, [inner, inner])
        assert comp.eps == Fraction(3, 8)

    def test_compose_shape_validation(self):
        outer = exact_recipe(GF2, [named_spectrum("OR", 2)])
        inner = exact_recipe(GF2, [named_spectrum("AND", 3)])
        with pytest.raises(ValueError):
            compose(outer, [inner])  # arity mismatch

    def test_sum_recipes(self):
        a = exact_recipe(GF2, [named_spectrum("THR", 4, 1)])
        b = exact_recipe(GF2, [named_spectrum("THR", 4, 2)])
        target = xor_spectra(named_spectrum("THR", 4, 1), named_spectrum("THR", 4, 2))
        s = sum_recipes([a, b], [1, 1], target)
        assert draw_values(s) == [target.values]
        assert s.declared_degree_bound == max(
            a.declared_degree_bound, b.declared_degree_bound
        )

    def test_sum_rejects_a_target_of_another_length(self):
        parts = [razborov_or(20, EIGHTH, GF2)]
        with pytest.raises(ValueError, match="target has 1 variables but the parts"):
            sum_recipes(parts, [1], spectrum("01"))
        with pytest.raises(ValueError, match="target has 21 variables"):
            sum_recipes(parts, [1], named_spectrum("OR", 21))

    def test_xor_combine_values_and_degree(self):
        a = exact_recipe(RATIONALS, [named_spectrum("THR", 4, 1)])
        b = exact_recipe(RATIONALS, [named_spectrum("THR", 4, 3)])
        x = xor_combine(a, b)
        want = xor_spectra(*(r.target_spectra()[0] for r in (a, b)))
        assert draw_values(x) == [want.values]
        assert x.declared_degree_bound == (
            a.declared_degree_bound + b.declared_degree_bound
        )
        assert x.eps == 0

    def test_xor_combine_gf2_prunes_product(self):
        a = razborov_or(3, QUARTER, GF2)
        b = razborov_or(3, QUARTER, GF2)
        x = xor_combine(a, b)
        (expr,) = sample(x, 1)
        # over GF(2) the cross term vanishes, leaving a plain sum
        assert isinstance(expr, Sum)
        assert len(expr.terms) == 2


class TestEnumerateDraws:
    def test_probabilities_sum_to_one(self):
        r = razborov_or(2, QUARTER, GF3)
        draws = list(enumerate_draws(r))
        assert len(draws) == 3 ** (2 * 2)
        assert sum(q for q, _ in draws) == 1

    def test_limit_enforced(self):
        r = razborov_or(8, EIGHTH, GF2)
        with pytest.raises(ValueError):
            list(enumerate_draws(r, limit=100))

    def test_unsupported_kind(self):
        r = char0_or(3, QUARTER)
        with pytest.raises(ValueError):
            list(enumerate_draws(r))


# One builder per kind recipe_from_json rebuilds.
_ROUNDTRIP_BUILDS = [
    lambda: constant_recipe(GF2, 4, 1),
    lambda: exact_recipe(GF3, [named_spectrum("MAJ", 4)]),
    lambda: razborov_or(3, QUARTER, GF2),
    lambda: char0_or(4, QUARTER),
    lambda: threshold_tuple(8, (1, 3), EIGHTH, GF2, practical_profile(GF2)),
    lambda: threshold_tuple(40, (2,), EIGHTH, GF2, practical_profile(GF2)),
    lambda: t_constant_recipe(
        named_spectrum("MAJ", 6), EIGHTH, GF2, practical_profile(GF2)
    ),
    lambda: bounded_recipe(
        spectrum("0100011"), EIGHTH, GF2, practical_profile(GF2)
    ),
    lambda: general_recipe(
        named_spectrum("MAJ", 6), EIGHTH, GF2, practical_profile(GF2)
    ),
    lambda: amplify(razborov_or(2, QUARTER, GF2), Fraction(5, 32)),
    lambda: xor_combine(
        exact_recipe(GF2, [named_spectrum("THR", 4, 1)]),
        exact_recipe(GF2, [named_spectrum("THR", 4, 2)]),
    ),
    lambda: compose(
        exact_recipe(GF2, [named_spectrum("OR", 2)]),
        [
            razborov_or(3, QUARTER, GF2),
            exact_recipe(GF2, [named_spectrum("AND", 3)]),
        ],
    ),
    lambda: sum_recipes(
        [razborov_or(3, QUARTER, GF3), exact_recipe(GF3, [named_spectrum("MAJ", 3)])],
        [1, -1],
        spectrum("0100"),
    ),
]


class TestRecipeSerialization:
    @pytest.mark.parametrize("build", _ROUNDTRIP_BUILDS)
    def test_roundtrip_preserves_draws(self, build):
        r = build()
        assert unknown_recipe_kinds(r.to_json()) == []
        back = recipe_from_json(r.to_json())
        assert back.to_json() == r.to_json()
        assert back.kind == r.kind
        assert back.eps == r.eps
        assert back.declared_degree_bound == r.declared_degree_bound
        assert draw_values(back, seed=5) == draw_values(r, seed=5)

    def test_every_rebuildable_kind_round_trips(self):
        built = {build().kind for build in _ROUNDTRIP_BUILDS}
        assert built == set(probpoly._RECIPE_KINDS)

    def test_error_parameters_past_the_digit_limit(self):
        # str() of 2^-20000 would pass the interpreter's 4300-digit limit.
        tiny = Fraction(1, 1 << 20000)
        for r in (
            char0_or(8, tiny),
            razborov_or(12, tiny, GF2),
            threshold_tuple(12, (1,), tiny, GF2, practical_profile(GF2)),
        ):
            assert r.to_json()["eps"] == "2^-20000"
            back = recipe_from_json(r.to_json())
            assert back.eps == tiny and back.to_json() == r.to_json()
        # An xor's eps is the sum of its parts': 3/2^20001, still exact.
        x = xor_combine(razborov_or(12, tiny, GF2), razborov_or(12, tiny / 2, GF2))
        assert x.to_json()["eps"] == "3/2^20001"
        back = recipe_from_json(x.to_json())
        assert back.eps == 3 * tiny / 2 and back.to_json() == x.to_json()

    def test_unknown_kind_rejected(self):
        r = constant_recipe(GF2, 4, 1)
        obj = r.to_json()
        obj["kind"] = "mystery"
        with pytest.raises(ValueError):
            recipe_from_json(obj)


class TestRecipeFields:
    @staticmethod
    def handmade(**kw):
        return probpoly.Recipe(
            kind="handmade",
            field=GF2,
            eps=QUARTER,
            declared_degree_bound=3,
            params={},
            sampler=lambda stream: (),
            targets=(named_spectrum("OR", 3), named_spectrum("AND", 3)),
            **kw,
        )

    def test_n_and_arity_come_from_the_targets(self):
        r = self.handmade()
        assert (r.n, r.arity) == (3, 2)
        assert (r.profile, r.children()) == (None, ())
        t = threshold_tuple(8, (1, 3, 3), EIGHTH, GF2, practical_profile(GF2))
        assert (t.n, t.arity) == (8, 3)
        obj = t.to_json()
        assert (obj["n"], obj["arity"]) == (8, 3)

    def test_randomness_free_unless_it_or_a_child_draws(self):
        drawing = razborov_or(3, QUARTER, GF2)
        fixed = exact_recipe(GF2, [named_spectrum("MAJ", 3)])
        assert not drawing.randomness_free and fixed.randomness_free
        assert self.handmade().randomness_free
        assert self.handmade(children=(fixed, fixed)).randomness_free
        assert not self.handmade(draws=True).randomness_free
        assert not self.handmade(children=(fixed, drawing)).randomness_free
        assert not self.handmade(children=(fixed,), draws=True).randomness_free


class TestDeclaredBoundGuard:
    def test_profile_constants_too_small_raises(self):
        # Generous enough to build, far too small to declare.
        prof = ConstantsProfile(
            name="cramped",
            A=1,
            B=1,
            r_multiplier=2,
            small_error_exponent_divisor=1,
            subsample_ratio=Fraction(1, 10),
            window_inner_multiplier=0.5,
            window_outer_multiplier=10,
            base_n=2,
            amplify_arity=4,
        )
        with pytest.raises(ValueError, match="profile constants too small"):
            threshold_tuple(40, (2,), EIGHTH, GF2, prof)

    def test_error_text_stays_short_for_many_thresholds(self):
        prof = dataclasses.replace(practical_profile(GF2), A=1, B=1)
        with pytest.raises(ValueError, match="profile constants too small") as info:
            threshold_tuple(200, tuple(range(1, 201)), EIGHTH, GF2, prof)
        text = str(info.value)
        assert "thresholds=200 entries (1, 2, 3) ... (198, 199, 200)," in text
        assert len(text) < 300
