"""The iterative pointwise evaluator against the recursive one it replaced.

_reference_eval below is the recursive walk eval_expr used to run, kept here
as the reference: every value, and the type of every value, must match it on
draws of every recipe family, at prefix points, random cube points and
random field points.  SymPoly.value_at_weight is checked the same way against
the f.add / f.mul / binomial_in_field sum it replaced, and is in turn the
reference for SymPoly.table, the one read of a weight polynomial's values:
the table tests check that eval_expr reads and grows the cached tables
correctly whatever built them first.  GF(7) and GF(101) reach the table's
Horner fallback.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from pdeg.polyalg import GF2, RATIONALS, FieldSpec, SymPoly, binomial_in_field, exact_sympoly
from pdeg.probpoly import (
    Constant,
    ConstantsProfile,
    LinearForm,
    Power,
    Product,
    Sum,
    SymApply,
    Var,
    amplify,
    char0_or,
    compose,
    eval_expr,
    general_recipe,
    one_minus,
    practical_profile,
    razborov_or,
    sample,
    sum_of,
    threshold_tuple,
    weight_poly_at_values,
    xor_combine,
)
from pdeg.symfun import named_spectrum, spectrum

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
GF7 = FieldSpec(7)
GF101 = FieldSpec(101)
FIELDS = [GF2, GF3, GF5, GF7, GF101, RATIONALS]
EIGHTH = Fraction(1, 8)
QUARTER = Fraction(1, 4)
TINY_EPS = Fraction(1, 1 << 20)
# Cramped constants that reach the hashed and recursive threshold branches
# on a handful of variables.
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


def _tiny(field):
    """TINY, with degree constants that cover the hashed branch's p * r
    over GF(101)."""
    return TINY if field.characteristic < 100 else dataclasses.replace(TINY, A=48, B=48)


def _reference_value_at_weight(poly, w):
    f = poly.field
    total = f.element(0)
    for k, c in enumerate(poly.coeffs):
        if c != 0:
            total = f.add(total, f.mul(c, binomial_in_field(w, k, f)))
    return total


def _reference_eval(e, x, field, memo):
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    p = field.characteristic
    if isinstance(e, Constant):
        val = e.value
    elif isinstance(e, Var):
        val = x[e.index]
    elif isinstance(e, LinearForm):
        acc = 0
        for c, i in zip(e.coeffs, e.indices):
            xi = x[i]
            if xi:
                acc += c * xi
        val = acc % p if p else field.element(acc)
    elif isinstance(e, Power):
        base = _reference_eval(e.base, x, field, memo)
        val = pow(base, e.exponent, p) if p else base**e.exponent
    elif isinstance(e, Product):
        val = 1
        for f in e.factors:
            val = field.mul(val, _reference_eval(f, x, field, memo))
            if val == 0:
                break
    elif isinstance(e, Sum):
        acc = e.constant
        for c, t in e.terms:
            acc += c * _reference_eval(t, x, field, memo)
        val = acc % p if p else field.element(acc)
    elif isinstance(e, SymApply):
        vals = [_reference_eval(t, x, field, memo) for t in e.inputs]
        if all(v == 0 or v == 1 for v in vals):
            val = _reference_value_at_weight(e.poly, int(sum(vals)))
        else:
            val = weight_poly_at_values(e.poly, vals, field)
    else:
        raise TypeError(f"unknown expression node {type(e)!r}")
    memo[key] = val
    return val


def _recipes(field):
    """Every recipe family that applies to the field, at small n."""
    p = field.characteristic
    if p:
        disjunction = razborov_or(9, EIGHTH, field)
        cases = [
            ("or", disjunction),
            ("and", razborov_or(9, EIGHTH, field, negate=True)),
            ("amplify", amplify(razborov_or(9, QUARTER, field), Fraction(1, 16))),
            ("compose", compose(razborov_or(2, EIGHTH, field), [disjunction] * 2)),
        ]
    else:
        disjunction = char0_or(9, EIGHTH)
        cases = [
            ("char0-or", disjunction),
            ("amplify", amplify(char0_or(9, QUARTER), Fraction(1, 16))),
            ("compose", compose(char0_or(2, EIGHTH), [disjunction] * 2)),
        ]
    exact = threshold_tuple(9, (2, 5), EIGHTH, field, practical_profile(field))
    cases += [
        ("xor", xor_combine(disjunction, threshold_tuple(
            9, (5,), EIGHTH, field, practical_profile(field)))),
        ("threshold-exact", exact),
        ("threshold-hash", threshold_tuple(12, (1,), TINY_EPS, field, _tiny(field))),
        ("threshold-inductive", threshold_tuple(8, (2, 5), QUARTER, field, _tiny(field))),
        ("general", general_recipe(
            spectrum("0110100110"), EIGHTH, field, practical_profile(field))),
    ]
    return cases


def _points(n, field, rng):
    """Every prefix point, random cube points and random field points."""
    points = [[1] * w + [0] * (n - w) for w in range(n + 1)]
    points += [[rng.randrange(2) for _ in range(n)] for _ in range(6)]
    p = field.characteristic
    for _ in range(6):
        if p:
            points.append([rng.randrange(p) for _ in range(n)])
        else:
            points.append(
                [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
            )
    return points


def _same(got, want):
    return got == want and type(got) is type(want)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
def test_matches_recursive_reference(field):
    rng = random.Random(field.characteristic)
    for name, recipe in _recipes(field):
        if name.startswith("threshold-"):
            assert recipe.params["branch"] == name.split("-")[1], name
        for seed in range(3):
            draw = sample(recipe, seed)
            for x in _points(recipe.n, field, rng):
                ref_memo = {}
                for e in draw:
                    got = eval_expr(e, x, field)
                    want = _reference_eval(e, x, field, ref_memo)
                    assert _same(got, want), (name, seed, x, got, want)


def _shaped_points(n, field, rng):
    """0/1 points in other shapes: tuples, bools, Fractions over Q, and
    points with trailing coordinates past n, so that a SymApply on
    x_0..x_(n-1) counts a prefix of the point."""
    cube = [[1] * w + [0] * (n - w) for w in range(0, n + 1, 3)]
    cube += [[rng.randrange(2) for _ in range(n)] for _ in range(3)]
    points = [tuple(x) for x in cube]
    points += [[bool(v) for v in x] for x in cube]
    if not field.characteristic:
        points += [[Fraction(v) for v in x] for x in cube]
    points += [x + [rng.randrange(2) for _ in range(3)] for x in cube]
    return points


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
def test_point_shapes_match_reference(field):
    rng = random.Random(3 + field.characteristic)
    for name, recipe in _recipes(field):
        draw = sample(recipe, 0)
        for x in _shaped_points(recipe.n, field, rng):
            ref_memo = {}
            for e in draw:
                got = eval_expr(e, x, field)
                want = _reference_eval(e, x, field, ref_memo)
                assert _same(got, want), (name, x, got, want)
    # The empty point, with a SymApply of no inputs.
    e = SymApply(SymPoly(field, (field.element(2), 1)), ())
    for x in ([], ()):
        assert _same(eval_expr(e, x, field), _reference_eval(e, x, field, {}))


def test_symapply_past_the_point_raises_index_error():
    poly = SymPoly(GF3, (0, 1, 1))
    prefix = SymApply(poly, tuple(Var(i) for i in range(5)))
    scattered = SymApply(poly, (Var(0), Var(4)))
    assert prefix.var_indices == range(5) and scattered.var_indices == (0, 4)
    for e in (prefix, scattered):
        for x in ([1, 0, 1], (0, 1, 1, 0), [True, False]):
            with pytest.raises(IndexError):
                eval_expr(e, x, GF3)


def test_non_boolean_symapply_inputs_match_reference():
    maj3 = SymPoly(RATIONALS, (0, 0, 1, -2))
    form = LinearForm((1, 1), (0, 1))
    exprs = (
        SymApply(maj3, (Var(0), form, Constant(2))),
        SymApply(maj3, (Power(form, 2), Var(3), Var(3))),
        SymApply(maj3, (Var(0), Var(1), Constant(Fraction(1, 2)))),
    )
    for x in ([1, 0, 1, 1], [1, 1, 0, 0], [Fraction(1, 3), 0, 1, 2], [0, 0, 0, 0]):
        for e in exprs:
            assert _same(eval_expr(e, x, RATIONALS), _reference_eval(e, x, RATIONALS, {}))


@pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=lambda f: f"char{f.characteristic}")
def test_deep_chain_does_not_recurse(field):
    e = Var(0)
    for _ in range(5000):
        e = one_minus(e, field)
    n = 6
    for w in range(n + 1):
        assert eval_expr(e, [1] * w + [0] * (n - w), field) == (1 if w else 0)


def test_product_stops_at_first_zero_factor():
    # Var(99) is out of range: reading it would raise IndexError.
    assert eval_expr(Product((Constant(0), Var(99))), [1, 0, 1], GF2) == 0
    shared = Sum(1, ((1, Var(0)),))
    expr = Product((shared, Var(1), Var(99)))
    assert eval_expr(expr, [1, 0, 1], GF2) == 0


def test_symapply_splits_inputs_once():
    form = LinearForm((1,), (2,))
    e = SymApply(SymPoly(GF3, (0, 1)), (Var(4), form, Var(1), Var(4)))
    assert e.var_indices == (4, 1, 4)
    assert e.others == (form,)
    assert "var_indices" not in repr(e)
    xs = tuple(Var(i) for i in range(5))
    assert SymApply(SymPoly(GF3, (0, 1)), xs).var_indices == range(5)
    assert SymApply(SymPoly(GF3, (0, 1)), xs[1:]).var_indices == (1, 2, 3, 4)


def _random_poly(field, degree, rng, nonzero):
    """A polynomial of the given degree with about nonzero random terms."""
    p = field.characteristic
    coeffs = [0] * (degree + 1)
    for k in rng.sample(range(degree), min(nonzero, degree)) + [degree]:
        if p:
            coeffs[k] = rng.randrange(1, p)
        else:
            coeffs[k] = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50), rng.randrange(1, 4))
    return SymPoly(field, tuple(coeffs))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
def test_value_at_weight_matches_reference(field):
    rng = random.Random(7 + field.characteristic)
    cases = [(d, nonzero) for d in (0, 1, 2, 5, 17, 40) for nonzero in (1, 40)]
    cases += [(1023, 30), (1024, 30), (5000, 20)]
    for degree, nonzero in cases:
        poly = _random_poly(field, degree, rng, nonzero)
        weights = list(range(41)) + [1023, 1024, 10300, degree, degree + 1]
        for w in weights:
            got = poly.value_at_weight(w)
            want = _reference_value_at_weight(poly, w)
            assert _same(got, want), (degree, w, got, want)


def _shared_poly_draws(field, n):
    """Two draws over n variables that share their SymPoly objects, with
    inputs of several sizes and non-Var inputs, some shared by two nodes
    and one that is 2 wherever x_0 = x_1 = 1.  Returns each polynomial with
    its widest input count, and the draws.  The polynomials are unseeded
    twins of exact_sympoly's, so no table is cached before the first read."""
    maj = SymPoly(field, exact_sympoly(named_spectrum("MAJ", n), field).coeffs)
    mod = SymPoly(field, exact_sympoly(named_spectrum("MOD", n, 3, 0), field).coeffs)
    xs = tuple(Var(i) for i in range(n))
    half = xs[: n // 2]
    flipped = tuple(one_minus(v, field) for v in half) + (LinearForm((1, 1), (0, 1)),)
    first = (
        sum_of(field, [(1, SymApply(maj, xs)), (2, SymApply(mod, xs[::-1]))]),
        Product((SymApply(mod, half), SymApply(maj, xs))),
    )
    second = (
        SymApply(maj, half + (one_minus(Var(n - 1), field),)),
        SymApply(mod, xs + xs[:3]),
        sum_of(field, [(1, SymApply(maj, flipped)), (3, SymApply(mod, flipped))]),
    )
    return ((maj, n), (mod, n + 3)), (first, second)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
def test_weight_tables_match_reference(field):
    n = 60
    rng = random.Random(11 + field.characteristic)
    polys, draws = _shared_poly_draws(field, n)
    # Tables first built for fewer weights than the draws read.
    small = n // 4
    first = [poly.table(small) for poly, _ in polys]
    points = [[1] * w + [0] * (n - w) for w in range(n + 1)]
    points += [[rng.randrange(2) for _ in range(n)] for _ in range(8)]
    for draw in draws:
        for x in points:
            ref_memo = {}
            for e in draw:
                got = eval_expr(e, x, field)
                want = _reference_eval(e, x, field, ref_memo)
                assert _same(got, want), (x, got, want)
    for (poly, widest), early in zip(polys, first):
        # Every draw read grew the table to the widest input count, and
        # growing it kept the entries it had.
        table = poly._table
        assert len(table) == widest + 1
        for w, v in enumerate(table):
            assert _same(v, poly.value_at_weight(w)), (w, v)
        assert all(map(_same, table, early)) and len(early) == small + 1
        # A covered read returns the cached tuple itself; a wider one grows it.
        assert poly.table(widest // 2) is table
        wider = poly.table(2 * widest)
        assert len(wider) == 2 * widest + 1 and poly._table is wider
        assert all(map(_same, wider, table))
        for w in range(widest + 1, 2 * widest + 1):
            assert _same(wider[w], poly.value_at_weight(w)), (w, wider[w])


def test_weight_tables_shared_across_points_and_calls():
    n = 40
    # An unseeded twin, so the first read builds the table that is shared.
    maj = SymPoly(GF3, exact_sympoly(named_spectrum("MAJ", n), GF3).coeffs)
    assert maj._table is None
    xs = tuple(Var(i) for i in range(n))
    e = Sum(0, tuple((1, SymApply(maj, xs)) for _ in range(3)))
    for w in range(n + 1):
        want = 3 * named_spectrum("MAJ", n).values[w] % 3
        assert eval_expr(e, [1] * w + [0] * (n - w), GF3) == want
    table = maj._table
    assert len(table) == n + 1
    eval_expr(SymApply(maj, xs[:10]), [1] * n, GF3)
    assert maj._table is table


def test_value_at_weight_of_zero_polynomial():
    for field in FIELDS:
        assert _same(SymPoly(field, (0,)).value_at_weight(12), 0)


class TestElement:
    def test_integral_fraction_becomes_int(self):
        assert _same(RATIONALS.element(Fraction(4, 2)), 2)
        assert _same(GF3.element(Fraction(4, 2)), 2)

    def test_plain_ints(self):
        assert _same(RATIONALS.element(-7), -7)
        assert _same(GF5.element(-7), 3)

    def test_bools_become_ints(self):
        for field in FIELDS:
            assert _same(field.element(True), 1)
            assert _same(field.element(False), 0)

    def test_floats_rejected(self):
        for field in FIELDS:
            with pytest.raises(TypeError):
                field.element(1.0)
