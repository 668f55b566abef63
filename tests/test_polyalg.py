import itertools
import math
import random
from fractions import Fraction

import pytest

from pdeg import polyalg
from pdeg.polyalg import (
    GF2,
    RATIONALS,
    FieldSpec,
    MultilinearPoly,
    SymPoly,
    binomial_in_field,
    ceil_log2_inv,
    constant_sympoly,
    exact_sympoly,
    expand_multilinear,
    fraction_text,
    interpolate_window,
    parse_fraction,
    periodic_exact,
    threshold_window,
)
from pdeg.symfun import Spectrum, named_spectrum, period, spectrum

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


class TestFieldSpec:
    def test_rejects_non_prime(self):
        for bad in (1, 4, 6, 9, -2):
            with pytest.raises(ValueError):
                FieldSpec(bad)
        FieldSpec(0)
        FieldSpec(2)
        FieldSpec(101)

    def test_primality_is_exact(self):
        def trial_division(p):
            return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

        for p in range(-3, 3000):
            assert polyalg._is_prime(p) == trial_division(p), p
        # Strong pseudoprimes to every base up to 7, 11, 13 and 17.
        for composite in (3215031751, 2152302898747, 3474749660383, 341550071728321):
            assert not polyalg._is_prime(composite)
        for prime in (10007, 1000000007):
            assert FieldSpec(prime).characteristic == prime

    def test_element_normalization(self):
        assert GF3.element(7) == 1
        assert GF3.element(-1) == 2
        assert RATIONALS.element(7) == Fraction(7)
        # a fraction with denominator coprime to p is inverted mod p
        assert GF3.element(Fraction(1, 2)) == 2
        with pytest.raises(ZeroDivisionError):
            GF3.element(Fraction(1, 3))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RATIONALS.element(0.5)
        with pytest.raises(TypeError):
            GF2.element(1.0)

    def test_arithmetic_mod_p(self):
        assert GF5.add(3, 4) == 2
        assert GF5.sub(1, 3) == 3
        assert GF5.mul(3, 4) == 2

    def test_format_parse_roundtrip(self):
        for field, value in ((GF5, 3), (RATIONALS, Fraction(-7, 3))):
            assert field.parse_element(field.format_element(value)) == value


def _doubling_ceil_log2_inv(eps):
    """Smallest L >= 0 with 2**-L <= eps, by doubling the numerator."""
    v, L = eps.numerator, 0
    while v < eps.denominator:
        v <<= 1
        L += 1
    return L


def test_ceil_log2_inv_matches_doubling():
    rng = random.Random(15)
    cases = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(1, 1 << 100000)]
    cases += [Fraction(3, 1 << 100000), Fraction(1, (1 << 4000) - 1)]
    for _ in range(2000):
        den = rng.randrange(1, 1 << rng.randrange(1, 200))
        cases.append(Fraction(rng.randrange(1, den + 1), den))
    for eps in cases:
        assert ceil_log2_inv(eps) == _doubling_ceil_log2_inv(eps), eps


def test_binomial_in_field_matches_comb():
    for p in (2, 3, 5):
        field = FieldSpec(p)
        for w in range(40):
            for k in range(40):
                assert binomial_in_field(w, k, field) == math.comb(w, k) % p
    # Larger primes, on w and k of one to three base-p digits.
    for p in (257, 1009):
        field = FieldSpec(p)
        for w, k in ((10006, 5003), (3 * p + 5, p + 2), (p - 1, 2), (12, 13)):
            assert binomial_in_field(w, k, field) == math.comb(w, k) % p, (p, w, k)
    assert binomial_in_field(10, 3, RATIONALS) == 120


def test_fraction_text_round_trips():
    tiny = Fraction(1, 1 << 20000)
    assert fraction_text(Fraction(3, 8)) == "3/8"
    assert fraction_text(Fraction(1, 1 << 128)) == str(Fraction(1, 1 << 128))
    assert fraction_text(tiny) == "2^-20000"
    assert fraction_text(3 * tiny) == "3/2^20000"
    assert fraction_text(Fraction(3, 1 << 200), 128) == "3/2^200"
    assert fraction_text(Fraction(0)) == "0"
    for value in (Fraction(3, 8), Fraction(1, 1 << 128), tiny, 3 * tiny, Fraction(5)):
        assert parse_fraction(fraction_text(value)) == value
    # Beyond the digit limit and not a power of two: an approximation,
    # which no parser reads back as exact.
    text = fraction_text(Fraction(1, 3**20000))
    assert text.startswith("~2^-31699.")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_fraction(text)


class TestSymPoly:
    def test_strips_trailing_zeros(self):
        assert SymPoly(GF3, (1, 2, 3, 0)).coeffs == (1, 2)
        # the zero polynomial keeps a single coefficient
        assert SymPoly(GF3, (0, 0, 0)).coeffs == (0,)
        assert SymPoly(GF3, (0,)).degree == 0

    def test_value_and_values(self):
        poly = SymPoly(RATIONALS, (0, 1, -1))
        assert [poly.value_at_weight(w) for w in range(3)] == [0, 1, 1]
        assert poly.table(2) == (0, 1, 1)

    def test_json_roundtrip(self):
        poly = SymPoly(RATIONALS, (Fraction(1, 2), -3))
        assert SymPoly.from_json(poly.to_json()) == poly
        polyp = SymPoly(GF3, (1, 2))
        assert SymPoly.from_json(polyp.to_json()) == polyp

    def test_constant(self):
        assert constant_sympoly(GF3, 5).coeffs == (2,)


KERNEL_FIELDS = [GF2, GF3, GF5, FieldSpec(7), FieldSpec(101), RATIONALS]


def _field_id(field):
    return f"char{field.characteristic}"


def _assert_values_match(poly, m, weights=None):
    """A table(m) built afresh has m + 1 entries, each equal to
    value_at_weight's, element types too."""
    table = SymPoly(poly.field, poly.coeffs).table(m)
    assert len(table) == m + 1
    for w in range(m + 1) if weights is None else weights:
        want = poly.value_at_weight(w)
        assert (table[w], type(table[w])) == (want, type(want)), (poly, m, w)


def _random_poly(rng, field, degree):
    p = field.characteristic
    if p:
        coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
    else:
        coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice((-1, 1)), rng.choice((1, 2))))
    return SymPoly(field, tuple(coeffs))


class TestValuesKernel:
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=_field_id)
    def test_every_threshold_window(self, field):
        n = 40
        for t in range(n + 2):
            poly = threshold_window(t, 0, n, field)
            for m in {poly.degree // 2, poly.degree, n, n + 9}:
                _assert_values_match(poly, m)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=_field_id)
    def test_random_polys_below_at_and_above_the_degree(self, field):
        rng = random.Random(field.characteristic)
        for _ in range(40):
            poly = _random_poly(rng, field, rng.randint(0, 60))
            d = poly.degree
            for m in {0, max(0, d - 1), d, d + 1, 2 * d + 3}:
                _assert_values_match(poly, m)

    @pytest.mark.parametrize("field", KERNEL_FIELDS[:-1], ids=_field_id)
    def test_digit_boundaries(self, field):
        # m = p^L - 1, p^L and p^L + 1, with the degree at m and past it.
        p = field.characteristic
        rng = random.Random(p)
        q = p
        while q <= 400:
            for m in (q - 1, q, q + 1):
                for degree in (m, m + 3):
                    _assert_values_match(_random_poly(rng, field, degree), m)
            q *= p

    @pytest.mark.parametrize("field", [GF2, GF3], ids=_field_id)
    def test_tables_up_to_ten_thousand_three_hundred(self, field):
        m = 10300
        rng = random.Random(m)
        for t in (1, 2, 3, 5150, 10299, 10300):
            poly = threshold_window(t, 0, m, field)
            assert poly.table(m) == named_spectrum("THR", m, t).values
        # A sparse poly of full degree, read at every digit boundary below
        # m and at random weights.
        coeffs = [0] * (m + 1)
        for k in rng.sample(range(m), 60) + [m]:
            coeffs[k] = rng.randrange(1, field.characteristic)
        poly = SymPoly(field, tuple(coeffs))
        p = field.characteristic
        edges = {w for q in (p**i for i in range(15)) for w in (q - 1, q, q + 1) if w <= m}
        _assert_values_match(poly, m, sorted(edges | {m} | set(rng.sample(range(m), 300))))


class TestExactSymPoly:
    def test_or_two(self):
        assert exact_sympoly(named_spectrum("OR", 2), RATIONALS).coeffs == (0, 1, -1)

    def test_parity_two_rationals(self):
        assert exact_sympoly(spectrum("101"), RATIONALS).coeffs == (1, -1, 2)

    def test_degree_drops_mod_p(self):
        # Alternating spectrum needs degree n over the rationals but only
        # degree 1 mod 2.
        par = spectrum("10101")
        assert exact_sympoly(par, RATIONALS).degree == 4
        assert exact_sympoly(par, GF2).coeffs == (1, 1)

    def test_agrees_everywhere_exhaustive(self):
        for n in range(1, 7):
            for bits in itertools.product((0, 1), repeat=n + 1):
                f = Spectrum(bits)
                for field in (RATIONALS, GF2, GF3):
                    poly = exact_sympoly(f, field)
                    assert poly.degree <= n
                    assert poly.table(n) == tuple(
                        field.element(v) for v in bits
                    )


class TestInterpolateWindow:
    def test_threshold_window(self):
        poly = interpolate_window([0, 1, 1], 1, RATIONALS)
        assert poly.coeffs == (-2, 2, -1)
        assert [poly.value_at_weight(w) for w in (1, 2, 3)] == [0, 1, 1]

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            interpolate_window([], 0, RATIONALS)
        with pytest.raises(ValueError):
            interpolate_window([1], -1, RATIONALS)

    def test_matches_lagrange_oracle(self):
        # Lagrange interpolation over the rationals at the window points is
        # the unique degree < m polynomial; ours must take the same values
        # everywhere, not merely on the window.
        rng = random.Random(5)
        for _ in range(60):
            lo = rng.randrange(0, 8)
            m = rng.randrange(1, 6)
            vals = [rng.randrange(-3, 4) for _ in range(m)]
            poly = interpolate_window(vals, lo, RATIONALS)
            assert poly.degree <= m - 1

            def lagrange(w):
                total = Fraction(0)
                for i, yi in enumerate(vals):
                    term = Fraction(yi)
                    for j in range(m):
                        if j != i:
                            term *= Fraction(w - (lo + j), (lo + i) - (lo + j))
                    total += term
                return total

            for w in range(0, lo + m + 4):
                assert poly.value_at_weight(w) == lagrange(w), (lo, vals, w)

    def test_window_agreement_mod_p(self):
        rng = random.Random(6)
        for field in (GF2, GF3, GF5):
            for _ in range(40):
                lo = rng.randrange(0, 10)
                m = rng.randrange(1, 7)
                vals = [rng.randrange(field.characteristic) for _ in range(m)]
                poly = interpolate_window(vals, lo, field)
                got = [poly.value_at_weight(lo + i) for i in range(m)]
                assert got == [field.element(v) for v in vals]


def step_window_oracle(t, lo, hi, field):
    return interpolate_window([1 if w >= t else 0 for w in range(lo, hi + 1)], lo, field)


class TestThresholdWindow:
    def test_every_small_window(self):
        for field in (GF2, GF3, GF5, RATIONALS):
            for lo in range(13):
                for hi in range(lo, 13):
                    # t below lo and above hi give the constant windows.
                    for t in range(hi + 2):
                        assert threshold_window(t, lo, hi, field) == (
                            step_window_oracle(t, lo, hi, field)
                        ), (t, lo, hi, field)

    def test_every_threshold_at_n_200(self):
        n = 200
        for H in (5, 40, 200):
            for t in range(n + 1):
                lo, hi = max(0, t - H), min(n, t + H)
                # interpolate_window reduces integer coefficients into the
                # field at the end, so its rational result, reduced mod p,
                # is its result over GF(p).
                exact = step_window_oracle(t, lo, hi, RATIONALS)
                assert threshold_window(t, lo, hi, RATIONALS) == exact
                for field in (GF2, GF3):
                    assert threshold_window(t, lo, hi, field) == SymPoly(
                        field, exact.coeffs
                    ), (t, lo, hi, field)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            threshold_window(2, -1, 3, RATIONALS)
        with pytest.raises(ValueError):
            threshold_window(2, 3, 2, GF2)


class TestPeriodicExact:
    def test_parity_mod_two(self):
        par = spectrum("10101")
        poly = periodic_exact(par, GF2)
        assert poly.coeffs == (1, 1)
        assert poly.table(4) == (1, 0, 1, 0, 1)

    def test_rejects_non_power_period(self):
        g = spectrum("".join("100"[w % 3] for w in range(10)))
        assert period(g) == 3
        with pytest.raises(ValueError):
            periodic_exact(g, GF2)
        with pytest.raises(ValueError):
            periodic_exact(g, RATIONALS)
        periodic_exact(g, GF3)  # 3 is a power of 3

    def test_exact_on_all_power_periods(self):
        # Every pattern whose period is p^t <= 9 is reproduced exactly at
        # every weight, with degree below the period.
        for p in (2, 3, 5):
            field = FieldSpec(p)
            powers = [q for q in (1, p, p * p, p**3) if q <= 9]
            for b in powers:
                for bits in itertools.product((0, 1), repeat=b):
                    n = 3 * b + 2
                    s = Spectrum(tuple(bits[w % b] for w in range(n + 1)))
                    if period(s) != b:
                        continue
                    poly = periodic_exact(s, field)
                    assert poly.degree <= b - 1 or poly.degree == 0
                    assert poly.table(n) == tuple(
                        field.element(v) for v in s.values
                    )


class TestMultilinearPoly:
    def test_basic_ops(self):
        x = MultilinearPoly.variable(RATIONALS, 2, 0)
        y = MultilinearPoly.variable(RATIONALS, 2, 1)
        c = MultilinearPoly.constant(RATIONALS, 2, 3)
        pr = x.mul(y).scale(2).add(c)
        assert pr.degree == 2
        assert pr.evaluate((1, 1)) == 5
        assert pr.evaluate((1, 0)) == 3

    def test_mul_idempotent_variables(self):
        # x_i * x_i = x_i on multilinear representatives
        x = MultilinearPoly.variable(GF3, 3, 1)
        assert x.mul(x).to_json() == x.to_json()

    def test_expand_threshold(self):
        # Thr^2 on 3 inputs is e_2 - 2 e_3.
        poly = exact_sympoly(named_spectrum("THR", 3, 2), RATIONALS)
        ml = expand_multilinear(poly, 3)
        assert ml.terms == {
            frozenset({0, 1}): 1,
            frozenset({0, 2}): 1,
            frozenset({1, 2}): 1,
            frozenset({0, 1, 2}): -2,
        }

    def test_expand_matches_moebius_oracle(self):
        # The multilinear extension computed by Moebius inversion over the
        # cube must agree with the elementary-symmetric expansion.
        rng = random.Random(9)
        for field in (RATIONALS, GF2, GF5):
            for _ in range(10):
                n = rng.randrange(1, 7)
                bits = [rng.randrange(2) for _ in range(n + 1)]
                f = Spectrum(tuple(bits))
                ml = expand_multilinear(exact_sympoly(f, field), n)

                coeffs = {}
                for mask in range(1 << n):
                    support = frozenset(
                        i for i in range(n) if mask >> i & 1
                    )
                    total = field.element(0)
                    for sub in range(1 << n):
                        if sub & mask == sub:
                            sign = (-1) ** (
                                bin(mask).count("1") - bin(sub).count("1")
                            )
                            total = field.add(
                                total,
                                field.mul(
                                    field.element(sign),
                                    field.element(bits[bin(sub).count("1")]),
                                ),
                            )
                    if total != 0:
                        coeffs[support] = total
                assert ml.terms == coeffs

    def test_expand_cap(self):
        with pytest.raises(ValueError):
            expand_multilinear(SymPoly(GF2, (1,)), 20)

    def test_json_roundtrip(self):
        x = MultilinearPoly.variable(GF3, 2, 0)
        obj = x.to_json()
        assert obj["n"] == 2
