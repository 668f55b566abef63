import dataclasses
import hashlib
import json
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from pdeg import probpoly
from pdeg.polyalg import (
    GF2,
    RATIONALS,
    FieldSpec,
    SymPoly,
    exact_sympoly,
    periodic_exact,
    reflected_sympoly,
    threshold_window,
)
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
    xor_combine,
)
from pdeg.probpoly import LinearForm, Power, Product, Sum, SymApply, Var
from pdeg.symfun import (
    Spectrum,
    bounded_radius_flagged,
    named_spectrum,
    spectrum,
    standard_decomposition,
    threshold_combination,
    xor_spectra,
)
from pdeg.verify import _ColumnEvaluator, expand_expr

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
        a = SeedStream.from_seed(42).bits(256)
        b = SeedStream.from_seed(42).bits(256)
        assert a == b
        assert SeedStream(b"key").bits(100) == SeedStream(b"key").bits(100)

    def test_children_differ(self):
        root = SeedStream.from_seed(0)
        r0 = root.bits(128)
        r1 = root.child("a").bits(128)
        r2 = root.child("b").bits(128)
        r3 = root.child(("a", 1)).bits(128)
        assert len({r0, r1, r2, r3}) == 4

    def test_child_of_child_stable(self):
        v1 = SeedStream.from_seed(1).child("x").child(2).uniform(10**9, 3)
        v2 = SeedStream.from_seed(1).child("x").child(2).uniform(10**9, 3)
        assert v1 == v2

    def test_longer_read_extends_shorter(self):
        stream = SeedStream.from_seed(5)
        widths = (0, 1, 7, 8, 9, 63, 64, 65, 1000, 4099)
        for k2 in widths:
            long = stream.bits(k2)
            assert 0 <= long < 1 << k2
            for k1 in widths:
                if k1 <= k2:
                    assert stream.bits(k1) == long % (1 << k1), (k1, k2)


class _Chunks(SeedStream):
    """A stream whose bytes are the given ones, then zeros."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        super().__init__(b"")
        self.data = data

    def _bytes(self, size: int) -> bytes:
        return self.data[:size].ljust(size, b"\0")


class TestUniform:
    BOUNDS = (*range(1, 301), 10**4, 2**31 - 1)

    def test_exactly_uniform(self):
        """Feed every chunk value (or, past 2^16 of them, every preimage of
        a sample of values) and count the accepted ones per value."""
        def encode(chunks, width):
            return b"".join(c.to_bytes(width, "little") for c in chunks)

        every = {w: encode(range(1 << 8 * w), w) for w in (1, 2)}
        for n in self.BOUNDS:
            if n <= 2:
                # n = 1 reads nothing; n = 2 reads one bit per value.
                chunks, span, sample = [1, 0], 2, range(n)
                data = bytes([0b01])
            else:
                width = ((n - 1).bit_length() + 7) // 8
                span = 1 << (8 * width)
                if width in every:
                    chunks, sample, data = range(span), range(n), every[width]
                else:
                    sample = [*range(500), *range(n - 500, n)]
                    chunks = [c for v in sample for c in range(v, span, n)]
                    data = encode(chunks, width)
            limit = span - span % n
            accepted = sum(c < limit for c in chunks)
            values = _Chunks(data).uniform(n, accepted)
            assert Counter(values) == {v: accepted // len(sample) for v in sample}, n

    def test_draws_are_in_range_and_prefixes(self):
        stream = SeedStream.from_seed(7)
        for n in (2, 3, 17, 101, 256, 257, 10**4, 2**31 - 1, 2**61 - 1):
            values = stream.uniform(n, 300)
            assert len(values) == 300 and all(0 <= v < n for v in values), n
            assert stream.uniform(n, 40) == values[:40], n
            assert len(set(values)) > 1, n

    def test_empty_count(self):
        stream = SeedStream.from_seed(3)
        assert stream.uniform(7, 0) == []
        assert stream.uniform(1, 5) == [0] * 5
        with pytest.raises(ValueError):
            stream.uniform(0, 5)

    @pytest.mark.parametrize("p", [17, 101, 2**61 - 1])
    def test_razborov_over_large_primes(self, p):
        field = FieldSpec(p)
        r = razborov_or(6, QUARTER, field)
        for seed in range(3):
            (expr,) = sample(r, seed)
            assert expr.deg <= r.declared_degree_bound
            assert eval_expr(expr, [0] * 6, field) == 0
            for x in weight_points(6)[1:]:
                assert eval_expr(expr, x, field) in (0, 1)


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

    @pytest.mark.parametrize("make", [practical_profile, paper_profile])
    def test_rebuilt_recipe_writes_the_same_bytes(self, make):
        # An int constant must not come back as a float ("A":24.0).
        r = threshold_tuple(40, (2,), EIGHTH, GF2, make(GF2))
        text = json.dumps(r.to_json(), sort_keys=True)
        back = recipe_from_json(json.loads(text))
        assert json.dumps(back.to_json(), sort_keys=True) == text

    @pytest.mark.parametrize(
        "field, value",
        [("A", True), ("B", "24"), ("window_inner_multiplier", None),
         ("base_n", 10.0), ("amplify_arity", False), ("r_multiplier", "10"),
         ("subsample_ratio", 0.1), ("subsample_ratio", True),
         ("subsample_ratio", "one tenth"), ("name", 7), ("name", None)],
    )
    def test_from_json_refuses_non_numbers(self, field, value):
        obj = dict(practical_profile(GF2).to_json(), **{field: value})
        with pytest.raises(ValueError, match=field):
            ConstantsProfile.from_json(obj)

    def test_declared_bound_formula(self):
        prof = practical_profile(GF2)
        # ceil(24 * sqrt(1 * 3) + 24 * 3) at n=40
        assert declared_bound(prof, GF2, 40, 1, EIGHTH) == 114
        # characteristic 0 carries a log-n factor inside the ceiling
        prof0 = practical_profile(RATIONALS)
        base = 24 * math.sqrt(3) + 24 * 3
        assert declared_bound(prof0, RATIONALS, 64, 1, EIGHTH) == math.ceil(6 * base)

    def test_declared_bound_refuses_eps_one(self):
        with pytest.raises(ValueError, match=r"must be in \(0, 1\), got 1"):
            declared_bound(practical_profile(GF2), GF2, 40, 1, Fraction(1))

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
            (
                {"op": "sum", "constant": "0", "terms": [["1", 0, 5]]},
                "sum term ['1', 0, 5] is not a pair",
            ),
            ({"op": "sum", "constant": "0", "terms": ["1"]}, "sum term '1' is not a pair"),
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

    def test_negated_draw_is_a_bare_product(self):
        for field in (GF2, GF3, GF5):
            r = razborov_or(5, EIGHTH, field, negate=True)
            for seed in range(5):
                (expr,) = sample(r, seed)
                assert type(expr) is Product
                assert len(expr.factors) == r.params["forms"]


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

    def test_draw_is_one_minus_one_product_of_level_factors(self):
        for n in (1, 2, 5, 40):
            r = char0_or(n, EIGHTH)
            runs = r.params["runs"]
            for seed in range(50):
                (expr,) = sample(r, seed)
                assert type(expr) is Sum and expr.constant == 1
                ((coeff, product),) = expr.terms
                assert coeff == -1 and type(product) is Product
                for factor in product.factors:
                    assert type(factor) is Sum and factor.constant == 1
                    ((coeff, form),) = factor.terms
                    assert coeff == -1 and type(form) is LinearForm
                    assert form.coeffs == (1,) * len(form.indices)
                    assert form.indices
                    assert list(form.indices) == sorted(set(form.indices))
                # Level 0 keeps every index; the runs share its one node.
                whole = product.factors[0]
                assert whole.terms[0][1].indices == tuple(range(n))
                assert sum(f is whole for f in product.factors) == runs
                factors = len(product.factors)
                assert expr.deg == factors
                assert factors <= runs * (probpoly.char0_scales(n) + 1)

    def test_or_route_draw_node_count(self):
        r = threshold_tuple(40, (1,), EIGHTH, RATIONALS, practical_profile(RATIONALS))
        assert len(expr_to_json(sample(r, 0), RATIONALS)["nodes"]) == 46

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

    @pytest.mark.parametrize("text", ["111", "011"])
    @pytest.mark.parametrize("eps", [Fraction(5), Fraction(1, 3), Fraction(-1, 8)])
    def test_eps_outside_the_range_is_refused(self, text, eps):
        with pytest.raises(ValueError, match=r"must be in \(0, 1/3\)"):
            t_constant_recipe(spectrum(text), eps, GF2, practical_profile(GF2))

    def test_constant_spectrum_round_trips_with_eps_zero(self):
        r = t_constant_recipe(spectrum("111"), EIGHTH, GF2, practical_profile(GF2))
        obj = r.to_json()
        assert obj["eps"] == "0"
        back = recipe_from_json(obj)
        assert json.dumps(back.to_json(), sort_keys=True) == json.dumps(obj, sort_keys=True)
        with pytest.raises(ValueError, match=r"must be in \(0, 1/3\)"):
            t_constant_recipe(spectrum("011"), Fraction(0), GF2, practical_profile(GF2))

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

    @pytest.mark.parametrize("build", [general_recipe, t_constant_recipe])
    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"])
    @pytest.mark.parametrize("text", ["00", "11", "000", "111"])
    def test_constant_spectra_draw_the_constant(self, build, field, text):
        # n = 1 and 2 take the direct route, which has no step to telescope.
        f = spectrum(text)
        r = build(f, EIGHTH, field, practical_profile(field))
        assert r.declared_degree_bound == 0 and r.randomness_free
        assert draw_values(r) == [f.values]
        assert recipe_from_json(r.to_json()).to_json() == r.to_json()

    def test_invalid_eps_rejected_before_either_route(self):
        f = named_spectrum("MAJ", 6)
        for eps in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            with pytest.raises(ValueError, match="error parameter"):
                general_recipe(f, eps, GF2, practical_profile(GF2))


class TestTelescoped:
    """t_constant_recipe and general_recipe's direct route telescope a
    spectrum through one threshold tuple on the weights it steps at."""

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"])
    def test_every_small_spectrum(self, field):
        profile = practical_profile(field)
        for n in range(1, 8):
            # The bound every direct route declared when it ran through 1..n.
            full = declared_bound(profile, field, n, n, EIGHTH)
            for bits in product((0, 1), repeat=n + 1):
                steps = [j for j in range(1, n + 1) if bits[j] != bits[j - 1]]
                for build in (t_constant_recipe, general_recipe):
                    r = build(Spectrum(bits), EIGHTH, field, profile)
                    if r.params.get("route") == "decomposition":
                        continue
                    (child,) = r.children()
                    if steps:
                        assert child.params["thresholds"] == steps
                    else:
                        assert child.kind == "constant"
                    assert r.declared_degree_bound <= full
                    seeds = range(1 if r.randomness_free else 3)
                    draws = [sample(r, seed) for seed in seeds]
                    assert max(e.deg for d in draws for e in d) <= r.declared_degree_bound
                    if r.randomness_free:
                        assert draw_values(r) == [bits]

    @pytest.mark.parametrize("n", [3500, 5000])
    def test_large_majority_builds_on_its_one_step(self, n):
        r = general_recipe(named_spectrum("MAJ", n), EIGHTH, GF2, practical_profile(GF2))
        (child,) = r.children()
        assert r.params["route"] == "direct" and len(child.params["thresholds"]) == 1


def _unfolded(recipe):
    """A randomness-free telescoped, bounded or decomposed recipe's draw
    built the way a randomized one is, per node: the tuple's parts summed
    with the telescoping coefficients, the bounded halves summed with the
    right half's inputs reflected (or the complement's draw subtracted from
    1), and g + h - 2gh over g's interpolant and h's unfolded draw."""
    field = recipe.field
    if recipe.params.get("route") == "decomposition":
        f = recipe.target_spectra()[0]
        g = standard_decomposition(f, field.characteristic).g
        (g_expr,) = probpoly._on_all_inputs((periodic_exact(g, field),), f.n)
        (h_recipe,) = recipe.children()
        h_expr = _unfolded(h_recipe)
        gh = Product((g_expr, h_expr))
        return probpoly.sum_of(field, [(1, g_expr), (1, h_expr), (-2, gh)])
    if recipe.kind == "bounded":
        if recipe.params["complemented"]:
            (inner,) = recipe.children()
            return probpoly.one_minus(_unfolded(inner), field)
        left, right = recipe.children()
        (reflected,) = probpoly._reflect_vars((_unfolded(right),), field)
        return probpoly.sum_of(field, [(1, _unfolded(left)), (-1, reflected)], constant=1)
    (child,) = recipe.children()
    parts = sample(child, 0)
    if child.kind == "constant":
        return parts[0]
    coeffs = threshold_combination(recipe.target_spectra()[0])
    terms = [coeffs[j] for j in child.params["thresholds"]]
    return probpoly.sum_of(field, zip(terms, parts), constant=coeffs[0])


def _fixed_builds(f, field):
    """Every randomness-free general, t_constant and bounded recipe of f."""
    profile = practical_profile(field)
    builds = [general_recipe, t_constant_recipe]
    if not bounded_radius_flagged(f)[1]:
        builds.append(bounded_recipe)
    for build in builds:
        try:
            recipe = build(f, EIGHTH, field, profile)
        except ValueError:
            continue  # a decomposition whose h has no constant middle
        assert recipe.randomness_free
        yield recipe


class TestFoldedDraws:
    """A randomness-free telescoped, bounded or decomposed recipe draws one
    weight polynomial, folded when the recipe is built; randomized recipes
    still build their sums, products and reflections per draw."""

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"])
    def test_every_small_spectrum_draws_its_interpolant(self, field):
        routes = Counter()
        for n in range(3, 9):
            for bits in product((0, 1), repeat=n + 1):
                f = Spectrum(bits)
                exact = exact_sympoly(f, field)
                for r in _fixed_builds(f, field):
                    (e,) = sample(r, 0)
                    assert sample(r, 1)[0] is e
                    if exact.degree == 0:
                        assert type(e) is probpoly.Constant
                        assert e.value == exact.coeffs[0]
                    else:
                        assert type(e) is SymApply and e.var_indices == range(n)
                        assert e.poly == exact and e.deg == exact.degree
                        assert e.poly.table(n)[: n + 1] == tuple(
                            exact.value_at_weight(w) for w in range(n + 1)
                        )
                    expanded = expand_expr(e, n, field)
                    unfolded = _unfolded(r)
                    assert expanded.terms == expand_expr(unfolded, n, field).terms
                    # declared >= tracked >= expanded, tracked = expanded.
                    assert r.declared_degree_bound >= e.deg == expanded.degree
                    assert e.deg <= unfolded.deg
                    routes[r.params.get("route")] += 1
        assert routes["decomposition"] > 0 and routes["direct"] > 0

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"])
    def test_decomposed_mod_draws_one_node(self, field):
        """MOD 3 0 at n = 100 splits into g and a constant h; the draw is
        f's interpolant, not g + 0 - 2 g 0."""
        r = general_recipe(named_spectrum("MOD", 100, 3, 0), EIGHTH, field, practical_profile(field))
        if field is GF3:
            assert r.params["route"] == "decomposition"
            (e,) = sample(r, 0)
            assert type(e) is SymApply and e.deg == 2
        assert _walked(sample(r, 0)) == 1

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"])
    def test_reflected_sympoly_reads_weights_backwards(self, field):
        for bits in product((0, 1), repeat=7):
            poly = exact_sympoly(Spectrum(bits), field)
            back = reflected_sympoly(poly, 6)
            assert back.degree == poly.degree
            assert back.table(6)[:7] == poly.table(6)[6::-1]
        with pytest.raises(ValueError, match="does not fit"):
            reflected_sympoly(exact_sympoly(Spectrum((1, 0, 0, 0)), field), 2)

    # sha256 of expr_to_json over seeds 0..2, recorded before fixed draws
    # were folded: a randomized recipe builds the same DAG per draw.  "general
    # MAJ 1000" was re-recorded when an inductive draw over a fixed child,
    # here its grandchild, became A + B e (tracked degree 704 -> 606, values
    # the same).
    RANDOMIZED = {
        "general MAJ 1000": (
            lambda: general_recipe(
                named_spectrum("MAJ", 1000), EIGHTH, GF2, practical_profile(GF2)
            ),
            "620bc044a7a4e0e6184e4f86e77260f92d27eee5e1f282d139948b42c829b5f1",
        ),
        "bounded": (
            lambda: bounded_recipe(_two_ends(200, 0), EIGHTH, GF2, practical_profile(GF2)),
            "9c8a5d7d269c61b4746525a7c0065cd28d547f73fc248ffc9cb170ed3c45956f",
        ),
        # Recorded before decompositions over a fixed h were folded.
        "general decomposition": (
            lambda: general_recipe(_two_ends(200, 0), EIGHTH, GF2, practical_profile(GF2)),
            "7e020f783c03d1ec761496e33815815d3b99f19a0b2f006a78f287bf8d0fbda3",
        ),
        "bounded complemented": (
            lambda: bounded_recipe(_two_ends(200, 1), EIGHTH, GF2, practical_profile(GF2)),
            "3d12eb8d36e31d5cd07f7c8d1713f33a26e2ca049628f71000a983020862fc75",
        ),
    }

    @pytest.mark.parametrize("name", sorted(RANDOMIZED))
    def test_randomized_draws_keep_their_dag(self, name):
        build, digest = self.RANDOMIZED[name]
        r = build()
        assert not r.randomness_free
        assert not any(c.randomness_free for c in r.children())
        blob = json.dumps([expr_to_json(sample(r, s), GF2) for s in range(3)], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _walked(draw):
    """The nodes a column pass walks in a draw: every node but a SymApply's
    Var inputs."""
    return len(probpoly.post_order(draw, probpoly.split_operands))


# Subsamples a quarter of the inputs, so at 11 <= n <= 24 the child works on
# at most base_n = 6 inputs and is exact, and windows of half-width
# 0.5 sqrt(t log2 1/eps) leave most tuples a mixed component.
SUBSAMPLED = ConstantsProfile(
    name="subsampled",
    A=24,
    B=24,
    r_multiplier=10,
    small_error_exponent_divisor=1,
    subsample_ratio=Fraction(1, 4),
    window_inner_multiplier=0.5,
    window_outer_multiplier=0.5,
    base_n=6,
    amplify_arity=4,
)


def _unfolded_inductive(recipe, seed):
    """A draw of an inductive threshold tuple over a fixed child, built the
    way a randomized child's draw is: the child's draw relabelled onto the
    same subsample, and t' + (1 - t+) t- (e - t') per mixed component."""
    field, n = recipe.field, recipe.n
    (child,) = recipe.children()
    sub = SeedStream.from_seed(seed).child("sub").uniform(n, child.n)
    remapped = probpoly._remap_vars(sample(child, 0), sub)
    H = recipe.params["window_halfwidth"]
    out, slot = [], 0
    for t in recipe.params["thresholds"]:
        lo, hi = max(0, t - H), min(n, t + H)
        (e,) = probpoly._on_all_inputs((threshold_window(t, lo, hi, field),), n)
        if t == 0 or (lo == 0 and hi == n):
            out.append(e)
            continue
        t_prime, t_plus, t_minus = remapped[slot : slot + 3]
        slot += 3
        near = Product((probpoly.one_minus(t_plus, field), t_minus))
        correction = Product((near, probpoly.sum_of(field, [(1, e), (-1, t_prime)])))
        out.append(probpoly.sum_of(field, [(1, t_prime), (1, correction)]))
    return tuple(out)


class TestFoldedInductiveDraws:
    """An inductive threshold tuple whose child is randomness-free folds
    each mixed component into A + B e, A and B weight polynomials on the
    subsample, built once; a draw only applies them to its subsample."""

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"])
    def test_every_small_tuple_matches_the_unfolded_draw(self, field):
        checked = lowered = 0
        for n in range(11, 25):
            evaluator = _ColumnEvaluator(field, n)
            for size in (1, 2):
                for thresholds in combinations(range(n + 1), size):
                    r = threshold_tuple(n, thresholds, EIGHTH, field, SUBSAMPLED)
                    if r.params["branch"] != "inductive" or not r.children():
                        continue
                    assert r.children()[0].randomness_free
                    seed = checked  # one draw a tuple, each on its own seed
                    draw = sample(r, seed)
                    reference = _unfolded_inductive(r, seed)
                    assert evaluator.columns(draw) == evaluator.columns(reference)
                    for e, ref in zip(draw, reference):
                        assert e.deg <= ref.deg <= r.declared_degree_bound
                        lowered += e.deg < ref.deg
                        if type(e) is Sum:
                            # A mixed component, A + B e.  Columns read A's
                            # and B's seeded tables; their coefficients must
                            # interpolate those tables too.
                            m = r.children()[0].n
                            for poly in (e.terms[0][1].poly, e.terms[1][1].factors[0].poly):
                                table = Spectrum(poly.table(m)[: m + 1])
                                assert poly == exact_sympoly(table, field)
                    if n <= 14 and size == 1:
                        (e,), (ref,) = draw, reference
                        expanded = expand_expr(e, n, field)
                        assert expanded.terms == expand_expr(ref, n, field).terms
                        assert r.declared_degree_bound >= e.deg >= expanded.degree
                    checked += 1
        assert checked > 2000 and lowered > 0

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["GF2", "GF3", "Q"])
    def test_verify_mc_tuple_walks_ten_nodes(self, field):
        """threshold_tuple(100, (3, 7)): two components of A + B e, five
        nodes each; unfolded, each was nine."""
        r = threshold_tuple(100, (3, 7), EIGHTH, field, practical_profile(field))
        assert r.params["branch"] == "inductive" and r.children()[0].randomness_free
        for seed in range(3):
            draw = sample(r, seed)
            assert _walked(draw) == 10
            assert _walked(_unfolded_inductive(r, seed)) == 18


def _two_ends(n, middle):
    """middle everywhere but weights 1 and n - 1."""
    values = [middle] * (n + 1)
    values[1] = values[n - 1] = 1 - middle
    return Spectrum(tuple(values))


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

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(3, 4)])
    def test_amplify_refuses_an_error_of_half_or_more(self, eps):
        # No majority of copies lowers such an error, so the vote count
        # search would never end.
        with pytest.raises(ValueError, match="is at least 1/2"):
            amplify(razborov_or(6, eps, GF2), QUARTER)

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

    def test_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(probpoly, "ENUMERATE_LIMIT", 100)
        r = razborov_or(8, EIGHTH, GF2)
        with pytest.raises(ValueError):
            list(enumerate_draws(r))

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


_DELETED = object()


def _edited(obj, *path, value=_DELETED):
    """A copy of obj with the field at path set to value, or deleted when
    no value is given."""
    obj = json.loads(json.dumps(obj))
    *outer, last = path
    inner = obj
    for key in outer:
        inner = inner[key]
    if value is _DELETED:
        del inner[last]
    else:
        inner[last] = value
    return obj


class TestRecipeSerialization:
    @pytest.mark.parametrize("build", _ROUNDTRIP_BUILDS)
    def test_roundtrip_preserves_draws(self, build):
        r = build()
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

    @staticmethod
    def _loaders(char=2, eps="1/4", coeff="1"):
        """The three JSON loaders, each given one characteristic and one
        piece of element text."""
        recipe = constant_recipe(GF2, 4, 1).to_json()
        recipe.update(field=char, eps=eps)
        poly = {"char": char, "coeffs": [coeff, "0"]}
        expr = {
            "char": char,
            "nodes": [{"op": "linear", "coeffs": [coeff], "indices": [0]}],
            "roots": [0],
        }
        return [
            lambda: recipe_from_json(recipe),
            lambda: SymPoly.from_json(poly),
            lambda: expr_from_json(expr),
        ]

    @pytest.mark.parametrize("loader", range(3), ids=["recipe", "sympoly", "expr"])
    @pytest.mark.parametrize("char", [2.5, 2.0, "2", True])
    def test_loaders_refuse_non_int_characteristic(self, loader, char):
        load = self._loaders(char=char)[loader]
        with pytest.raises(ValueError, match=re.escape(f"characteristic {char!r} is not an int")):
            load()

    @pytest.mark.parametrize(
        "loader, kw, message",
        [
            (0, {"eps": 0.25}, "eps 0.25 is not fraction text"),
            (1, {"coeff": 1}, "field element 1 is not a string"),
            (2, {"coeff": 1}, "field element 1 is not a string"),
        ],
        ids=["recipe-eps", "sympoly-coeff", "expr-linear-coeff"],
    )
    def test_loaders_refuse_non_string_text(self, loader, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self._loaders(**kw)[loader]()

    @pytest.mark.parametrize("thresholds", [(True, 2), (1, 2.0), (2.5,)])
    def test_threshold_tuple_refuses_non_int_thresholds(self, thresholds):
        with pytest.raises(ValueError, match=r"threshold (True|2\.0|2\.5) is not"):
            threshold_tuple(40, thresholds, EIGHTH, GF2, practical_profile(GF2))

    def test_recipe_json_refuses_non_int_threshold(self):
        obj = threshold_tuple(40, (2,), EIGHTH, GF2, practical_profile(GF2)).to_json()
        obj["params"]["thresholds"] = [2.5]
        with pytest.raises(ValueError, match=re.escape("threshold 2.5 is not an int")):
            recipe_from_json(obj)

    @pytest.mark.parametrize(
        "build, param, value, message",
        [
            (lambda: razborov_or(6, QUARTER, GF2), "negate", "no", "negate 'no' is not"),
            (lambda: razborov_or(6, QUARTER, GF2), "n", 6.0, "n 6.0 is not an int"),
            (lambda: constant_recipe(GF2, 4, 1), "value", True, "value True is not"),
            (lambda: constant_recipe(GF2, 4, 1), "n", "4", "n '4' is not an int"),
            (
                lambda: threshold_tuple(40, (2,), EIGHTH, GF2, practical_profile(GF2)),
                "n",
                40.0,
                "n 40.0 is not an int",
            ),
            (lambda: char0_or(6, QUARTER), "n", 6.0, "n 6.0 is not an int"),
            (
                lambda: general_recipe(
                    named_spectrum("MAJ", 6), EIGHTH, GF2, practical_profile(GF2)
                ),
                "spectrum",
                [0, 0, 0, 0, 1, 1, 1],
                "spectrum [0, 0, 0, 0, 1, 1, 1] is not a string",
            ),
            (
                lambda: general_recipe(
                    named_spectrum("MAJ", 6), EIGHTH, GF2, practical_profile(GF2)
                ),
                "spectrum",
                5,
                "spectrum 5 is not a string",
            ),
            (
                lambda: exact_recipe(GF3, [named_spectrum("MAJ", 4)]),
                "spectra",
                [[0, 0, 1, 1, 1]],
                "spectra [0, 0, 1, 1, 1] is not a string",
            ),
            (
                lambda: exact_recipe(GF3, [named_spectrum("MAJ", 4)]),
                "spectra",
                "00111",
                "spectra '00111' is not a list",
            ),
            (
                lambda: threshold_tuple(40, (2,), EIGHTH, GF2, practical_profile(GF2)),
                "thresholds",
                {"0": 2},
                "thresholds {'0': 2} is not a list",
            ),
            (
                lambda: sum_recipes(
                    [
                        razborov_or(3, QUARTER, GF3),
                        exact_recipe(GF3, [named_spectrum("MAJ", 3)]),
                    ],
                    [1, -1],
                    spectrum("0100"),
                ),
                "target",
                [0, 1, 0, 0],
                "target [0, 1, 0, 0] is not a string",
            ),
            (
                lambda: sum_recipes(
                    [
                        razborov_or(3, QUARTER, GF3),
                        exact_recipe(GF3, [named_spectrum("MAJ", 3)]),
                    ],
                    [1, -1],
                    spectrum("0100"),
                ),
                "coefficients",
                "1",
                "coefficients '1' is not a list",
            ),
            (
                lambda: amplify(razborov_or(2, QUARTER, GF2), Fraction(5, 32)),
                "delta",
                0.15625,
                "delta 0.15625 is not fraction text",
            ),
        ],
        ids=[
            "negate-text", "razborov-n-float", "constant-value-bool", "constant-n-text",
            "threshold-n-float", "char0-n-float", "general-spectrum-list",
            "general-spectrum-int", "exact-spectra-list", "exact-spectra-text",
            "threshold-thresholds-dict", "sum-target-list", "sum-coefficients-text",
            "amplify-delta-float",
        ],
    )
    def test_recipe_json_refuses_mistyped_params(self, build, param, value, message):
        obj = build().to_json()
        obj["params"][param] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            recipe_from_json(obj)

    @pytest.mark.parametrize(
        "claim, value, message",
        [
            ("declared_degree_bound", 0, "claims declared_degree_bound 0, but rebuilds with 2"),
            ("n", 99, "claims n 99, but rebuilds with 6"),
            ("arity", 5, "claims arity 5, but rebuilds with 1"),
            ("randomness_free", True, "claims randomness_free True, but rebuilds with False"),
            ("n", 6.0, "n 6.0 is not an int"),
            ("arity", True, "arity True is not an int"),
            ("declared_degree_bound", "2", "declared_degree_bound '2' is not an int"),
            ("randomness_free", 0, "randomness_free 0 is not a bool"),
        ],
    )
    def test_recipe_json_refuses_claims_it_does_not_rebuild(self, claim, value, message):
        obj = razborov_or(6, QUARTER, GF2).to_json()
        obj[claim] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            recipe_from_json(obj)

    def test_child_claims_are_checked_too(self):
        obj = amplify(razborov_or(2, QUARTER, GF2), Fraction(5, 32)).to_json()
        obj["params"]["child"]["declared_degree_bound"] = 0
        with pytest.raises(ValueError, match="razborov_or recipe claims declared_degree_bound 0"):
            recipe_from_json(obj)

    def test_sympoly_json_refuses_text_for_coeffs(self):
        with pytest.raises(ValueError, match=re.escape("coeffs '101' is not a list")):
            SymPoly.from_json({"char": 2, "coeffs": "101"})

    @pytest.mark.parametrize(
        "load, message",
        [
            (lambda: recipe_from_json([]), "kind is missing from []"),
            (
                lambda: recipe_from_json(
                    _edited(razborov_or(6, QUARTER, GF2).to_json(), "n")
                ),
                "n is missing from",
            ),
            (
                lambda: recipe_from_json(
                    _edited(razborov_or(6, QUARTER, GF2).to_json(), "params", "negate")
                ),
                "negate is missing",
            ),
            (
                lambda: recipe_from_json(
                    _edited(
                        constant_recipe(GF2, 4, 1).to_json(), "params", value=[4, 1]
                    )
                ),
                "params [4, 1] is not an object",
            ),
            (
                lambda: recipe_from_json(
                    _edited(
                        amplify(razborov_or(2, QUARTER, GF2), Fraction(5, 32)).to_json(),
                        "params",
                        "child",
                        value=[razborov_or(2, QUARTER, GF2).to_json()],
                    )
                ),
                "child [{",
            ),
            (
                lambda: recipe_from_json(
                    _edited(
                        t_constant_recipe(
                            spectrum("0111"), EIGHTH, GF2, practical_profile(GF2)
                        ).to_json(),
                        "profile",
                        "A",
                    )
                ),
                "profile A is missing",
            ),
            (lambda: SymPoly.from_json({"char": 2}), "coeffs is missing"),
            (lambda: SymPoly.from_json("1 1"), "char is missing from '1 1'"),
            (lambda: expr_from_json({"char": 3, "roots": []}), "nodes is missing"),
            (
                lambda: expr_from_json({"char": 3, "nodes": "ab", "roots": []}),
                "nodes 'ab' is not a list",
            ),
            (
                lambda: expr_from_json({"char": 3, "nodes": [7], "roots": [0]}),
                "op is missing from 7",
            ),
            (
                lambda: expr_from_json(
                    {
                        "char": 3,
                        "nodes": [{"op": "linear", "coeffs": "12", "indices": [0, 1]}],
                        "roots": [0],
                    }
                ),
                "coeffs '12' is not a list",
            ),
            (
                lambda: expr_from_json(
                    {"char": 3, "nodes": [{"op": "mul", "factors": 0}], "roots": [0]}
                ),
                "factors 0 is not a list",
            ),
            (
                lambda: expr_from_json({"char": 3, "nodes": [], "roots": 0}),
                "roots 0 is not a list",
            ),
        ],
        ids=[
            "recipe-list", "recipe-no-n", "recipe-no-negate", "recipe-params-list",
            "recipe-child-list", "recipe-profile-no-A", "sympoly-no-coeffs",
            "sympoly-text", "expr-no-nodes", "expr-nodes-text", "expr-node-int",
            "expr-linear-coeffs-text", "expr-factors-int", "expr-roots-int",
        ],
    )
    def test_loaders_name_a_missing_or_mistyped_field(self, load, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load()

    def test_unknown_kind_rejected(self):
        r = constant_recipe(GF2, 4, 1)
        obj = r.to_json()
        obj["kind"] = "mystery"
        with pytest.raises(ValueError):
            recipe_from_json(obj)

    @staticmethod
    def _field_paths(obj, path=()):
        """The path of every field in a JSON value, containers included."""
        items = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
        for key, value in items:
            yield path + (key,)
            yield from TestRecipeSerialization._field_paths(value, path + (key,))

    @pytest.mark.parametrize("build", _ROUNDTRIP_BUILDS)
    def test_every_edited_field_loads_back_as_written_or_is_refused(self, build):
        record = build().to_json()
        for path in self._field_paths(record):
            old = record
            for key in path:
                old = old[key]
            values = [None, True, 0, 1, -1, 7, 2.5, "x", "1/3", "0101", [], {}, [1]]
            if type(old) is int:
                values += [old - 1, old + 1]
            for value in values:
                edited = _edited(record, *path, value=value)
                try:
                    back = recipe_from_json(edited).to_json()
                except ValueError:
                    continue
                # json.dumps tells 1, 1.0 and true apart, as == does not.
                assert json.dumps(back) == json.dumps(edited), (path, value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("params", "forms", 1), "razborov_or recipe claims params.forms 1, but rebuilds with 2"),
            (("schema_version", 2), "claims schema_version 2, but rebuilds with 1"),
            (("schema_version", 1.0), "schema_version 1.0 is not an int"),
            (("params", "forms", True), "params.forms True is not an int"),
            (("params", "spare", 0), "claims params.spare, but rebuilds without it"),
            (("profile", {}), "claims profile {}, but rebuilds with None"),
        ],
    )
    def test_recipe_json_names_the_first_field_it_does_not_rebuild(self, edit, message):
        *path, value = edit
        obj = _edited(razborov_or(6, QUARTER, GF2).to_json(), *path, value=value)
        with pytest.raises(ValueError, match=re.escape(message)):
            recipe_from_json(obj)

    def test_an_eps_the_rebuild_does_not_read_is_still_checked(self):
        obj = amplify(razborov_or(2, QUARTER, GF2), Fraction(5, 32)).to_json()
        obj["eps"] = "1/3"
        message = "amplify recipe claims eps '1/3', but rebuilds with '5/32'"
        with pytest.raises(ValueError, match=re.escape(message)):
            recipe_from_json(obj)

    @pytest.mark.parametrize(
        "build",
        [
            lambda p: threshold_tuple(40, (2,), EIGHTH, GF2, p),
            lambda p: t_constant_recipe(named_spectrum("MAJ", 6), EIGHTH, GF2, p),
            lambda p: bounded_recipe(spectrum("0100011"), EIGHTH, GF2, p),
            lambda p: general_recipe(named_spectrum("MAJ", 6), EIGHTH, GF2, p),
        ],
        ids=["threshold_tuple", "t_constant", "bounded", "general"],
    )
    @pytest.mark.parametrize(
        "profile, message",
        [(None, "profile None is not an object"), ({}, "profile name is missing from {}")],
        ids=["null", "empty"],
    )
    def test_profiled_kinds_refuse_a_missing_profile(self, build, profile, message):
        obj = build(practical_profile(GF2)).to_json()
        obj["profile"] = profile
        with pytest.raises(ValueError, match=re.escape(message)):
            recipe_from_json(obj)

    def test_changing_a_record_leaves_the_recipe_as_it_was(self):
        from pdeg.verify import exact_error

        r = razborov_or(6, QUARTER, GF2)
        r.to_json()["params"]["forms"] = 1
        assert r.params["forms"] == 2 and max(exact_error(r)) == QUARTER
        tree = compose(
            exact_recipe(GF2, [named_spectrum("OR", 2)]),
            [amplify(razborov_or(6, QUARTER, GF2), Fraction(5, 32)), r],
        )
        first = tree.to_json()
        text = json.dumps(first)
        first["params"]["inners"][0]["params"]["child"]["params"]["forms"] = 9
        first["params"]["outer"]["params"]["spectra"].append("000")
        first["params"]["inners"].pop()
        assert json.dumps(tree.to_json()) == text
        assert max(exact_error(r)) == QUARTER

    @pytest.mark.parametrize(
        "load",
        [
            lambda: recipe_from_json(  # the last build is a sum over GF(3)
                _edited(_ROUNDTRIP_BUILDS[-1]().to_json(), "params", "coefficients", 0, value="1/3")
            ),
            lambda: expr_from_json(
                {"char": 3, "nodes": [{"op": "const", "value": "1/3"}], "roots": [0]}
            ),
            lambda: SymPoly.from_json({"char": 3, "coeffs": ["1", "1/3"]}),
        ],
        ids=["recipe-sum-coefficient", "expr-const", "sympoly-coeff"],
    )
    def test_loaders_refuse_an_element_that_divides_by_zero(self, load):
        with pytest.raises(
            ValueError, match=re.escape("field element '1/3' divides by 0 in characteristic 3")
        ):
            load()


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
