import itertools
import random
import re
from fractions import Fraction

import pytest

from pdeg.symfun import (
    Spectrum,
    bounded_radius,
    bounded_radius_flagged,
    complement_spectrum,
    min_t_constant,
    named_spectrum,
    parse_spectrum_file,
    period,
    reflect_spectrum,
    restrict,
    spectrum,
    standard_decomposition,
    threshold_combination,
    xor_spectra,
)


def all_spectra(n):
    for bits in itertools.product((0, 1), repeat=n + 1):
        yield Spectrum(bits)


def test_spectrum_basics():
    s = spectrum("0011")
    assert s.n == 3
    assert s.values == (0, 0, 1, 1)
    assert s[2] == 1
    assert s.text() == "0011"
    assert list(s) == [0, 0, 1, 1]


def test_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        spectrum("01x1")
    with pytest.raises(ValueError):
        spectrum("")
    with pytest.raises(ValueError):
        Spectrum((0, 2, 1))


def test_spectrum_turns_bools_into_ints():
    s = Spectrum((True, False, 1))
    assert s.values == (1, 0, 1)
    assert set(map(type, s.values)) == {int}
    assert s.text() == "101"
    assert Spectrum((False,)).text() == "0"


@pytest.mark.parametrize(
    "values",
    [(1.0, 0.0), (0, 1.0), (Fraction(1), 0), ("1", "0"), (None,), (True, 0.0)],
    ids=["floats", "one-float", "fraction", "strings", "none", "bool-and-float"],
)
def test_spectrum_rejects_non_int_entries(values):
    with pytest.raises(ValueError, match="must be the ints 0 or 1"):
        Spectrum(values)


def test_text_kernels_match_pointwise_definitions():
    rng = random.Random(12)
    for n in (0, 1, 2, 7, 63, 200):
        values = tuple(rng.randint(0, 1) for _ in range(n + 1))
        s = Spectrum(values)
        text = "".join(str(v) for v in values)
        assert s.text() == text
        assert spectrum(text) == s and spectrum(f" {text}\n") == s
        assert set(map(type, spectrum(text).values)) == {int}
        for zeros in range(min(n, 3) + 1):
            for ones in range(min(n - zeros, 3) + 1):
                m = n - zeros - ones
                want = tuple(values[w + ones] for w in range(m + 1))
                assert restrict(s, zeros, ones).values == want
    for n in range(1, 30):
        for t in range(n + 1):
            assert named_spectrum("ETHR", n, t).values == tuple(
                1 if w == t else 0 for w in range(n + 1)
            )
        for b in range(2, n + 1):
            for i in range(b):
                assert named_spectrum("MOD", n, b, i).values == tuple(
                    1 if w % b == i else 0 for w in range(n + 1)
                )


def test_parse_spectrum_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("  0011\n")
    assert parse_spectrum_file(str(path)).text() == "0011"


@pytest.mark.parametrize(
    "kind,n,params,expected",
    [
        ("OR", 3, (), "0111"),
        ("AND", 3, (), "0001"),
        ("MAJ", 6, (), "0000111"),
        ("MAJ", 5, (), "000111"),
        ("THR", 3, (2,), "0011"),
        ("ETHR", 3, (1,), "0100"),
        ("MOD", 4, (2, 0), "10101"),
        ("MOD", 6, (3, 1), "0100100"),
        ("CONST", 2, (1,), "111"),
        ("CONST", 2, (0,), "000"),
    ],
)
def test_named_spectrum(kind, n, params, expected):
    assert named_spectrum(kind, n, *params).text() == expected


def test_named_spectrum_rejects_bad_parameters():
    with pytest.raises(ValueError):
        named_spectrum("THR", 9, 99)
    with pytest.raises(ValueError):
        named_spectrum("THR", 9)
    with pytest.raises(ValueError):
        named_spectrum("MOD", 9, 1, 0)
    with pytest.raises(ValueError):
        named_spectrum("MOD", 9, 3, 5)
    with pytest.raises(ValueError):
        named_spectrum("NOPE", 4)
    with pytest.raises(ValueError):
        named_spectrum("CONST", 4, 2)


@pytest.mark.parametrize(
    "kind,params,names",
    [
        ("MAJ", (3,), "no parameters"),
        ("OR", (1,), "no parameters"),
        ("AND", (0,), "no parameters"),
        ("THR", (), "(t)"),
        ("ETHR", (1, 2), "(t)"),
        ("CONST", (), "(c)"),
        ("MOD", (3,), "(b, i)"),
        ("MOD", (3, 0, 1), "(b, i)"),
    ],
)
def test_named_spectrum_checks_its_parameter_count(kind, params, names):
    with pytest.raises(ValueError, match=re.escape(f"{kind} takes")) as info:
        named_spectrum(kind, 6, *params)
    assert names in str(info.value)


@pytest.mark.parametrize(
    "bits,expected",
    [
        ("10101", 2),
        ("1111", 1),
        ("0100100", 3),
        ("0011", 4),  # ends never realign: vacuous period n+1
        ("0000111", 7),
        ("01", 2),
    ],
)
def test_period_known_values(bits, expected):
    assert period(spectrum(bits)) == expected


def test_period_matches_brute_force_oracle():
    # Independent restatement: the least b such that shifting by b changes
    # nothing on the overlap.
    def oracle(values):
        n = len(values) - 1
        for b in range(1, n + 2):
            if all(values[i] == values[i + b] for i in range(n - b + 1)):
                return b

    for n in range(1, 13):
        for s in all_spectra(n):
            assert period(s) == oracle(s.values), s.text()


def _slice_period(values):
    """The shift equation by tuple slices, one slice compare per b."""
    for b in range(1, len(values)):
        if values[: len(values) - b] == values[b:]:
            return b
    return len(values)


def test_period_matches_slice_definition_on_large_spectra():
    rng = random.Random(10300)
    cases = [(10300, 1024, False)] + [
        (rng.randint(1, 10300), rng.randint(1, 1100), rng.random() < 0.25)
        for _ in range(40)
    ]
    for n, b, flip in cases:
        b = min(b, n)
        base = [rng.randint(0, 1) for _ in range(b)]
        values = [base[w % b] for w in range(n + 1)]
        if flip:
            values[rng.randrange(n + 1)] ^= 1
        assert period(Spectrum(tuple(values))) == _slice_period(values), (n, b, flip)
    for _ in range(20):
        values = [rng.randint(0, 1) for _ in range(rng.randint(2, 1500))]
        assert period(Spectrum(tuple(values))) == _slice_period(values)


@pytest.mark.parametrize(
    "bits,expected,degenerate",
    [
        ("01111", 1, False),
        ("1111", 0, False),
        ("0100011", 2, False),
        ("0000111", 3, False),
        ("0100", 2, True),  # middle pair differs, window never constant
        ("10", 1, True),
    ],
)
def test_bounded_radius_known_values(bits, expected, degenerate):
    assert bounded_radius_flagged(spectrum(bits)) == (expected, degenerate)
    assert bounded_radius(spectrum(bits)) == expected


def _radius_oracle(values):
    """The least k whose window [k, n-k] is constant, by one slice per k."""
    n = len(values) - 1
    text = bytes(values)
    for k in range((n + 3) // 2):
        window = text[k : n - k + 1]
        if not window or window.count(window[:1]) == len(window):
            return k, len(window) == 0


def _decomposition_oracle(values):
    """The window period and g of standard_decomposition, by slices."""
    n = len(values) - 1
    lo, hi = -(-n // 3), (2 * n) // 3
    window = values[lo : hi + 1]
    b = _slice_period(window)
    return b, tuple(window[(w - lo) % b] for w in range(n + 1))


def test_bounded_radius_matches_oracle():
    for n in range(1, 13):
        for s in all_spectra(n):
            assert bounded_radius_flagged(s) == _radius_oracle(s.values), s.text()


def test_decomposition_matches_slice_oracle():
    for n in range(3, 13):
        for s in all_spectra(n):
            b, g = _decomposition_oracle(s.values)
            rep = standard_decomposition(s)
            assert rep.g.values == g, s.text()
            assert rep.period_g <= b
            assert rep.period_g == period(rep.g), s.text()
            assert rep.h == xor_spectra(s, rep.g), s.text()


def test_decomposition_carries_the_radius_flag_of_h():
    for n in range(3, 13):
        for s in all_spectra(n):
            rep = standard_decomposition(s)
            radius, degenerate = bounded_radius_flagged(rep.h)
            assert (rep.bounded_radius_h, rep.radius_h_degenerate) == (
                radius,
                degenerate,
            ), s.text()


def test_spectrum_scans_match_oracles_on_large_spectra():
    # Random ends around a middle run that is constant or periodic with a
    # short period, so both scans stop at every depth.
    rng = random.Random(61)
    for j in range(40):
        n = 10300 if j == 0 else rng.randint(3, 10300)
        values = [rng.randint(0, 1) for _ in range(n + 1)]
        b = 1 if rng.random() < 0.5 else rng.randint(2, 40)
        base = [rng.randint(0, 1) for _ in range(b)]
        half = rng.randint(0, n // 2)
        for w in range(n // 2 - half, n - n // 2 + half + 1):
            values[w] = base[w % b]
        s = Spectrum(tuple(values))
        assert bounded_radius_flagged(s) == _radius_oracle(s.values), (n, b, half)
        period_g, g = _decomposition_oracle(s.values)
        rep = standard_decomposition(s)
        assert rep.g.values == g, (n, b, half)
        assert rep.period_g == period(Spectrum(g)) <= period_g
        assert bounded_radius_flagged(rep.h) == _radius_oracle(rep.h.values)


def test_complement_reflect_xor():
    s = spectrum("0011")
    assert complement_spectrum(s).text() == "1100"
    assert reflect_spectrum(s).text() == "1100"
    assert reflect_spectrum(spectrum("0111")).text() == "1110"
    assert xor_spectra(s, s).text() == "0000"
    assert xor_spectra(s, complement_spectrum(s)).text() == "1111"
    with pytest.raises(ValueError):
        xor_spectra(s, spectrum("01"))


class TestStandardDecomposition:
    def test_majority_six(self):
        rep = standard_decomposition(named_spectrum("MAJ", 6), 2)
        assert rep.g.text() == "0100100"
        assert rep.h.text() == "0100011"
        assert rep.period_g == 3
        assert rep.bounded_radius_h == 2
        assert not rep.period_is_char_power
        # Same split over characteristic 3: period 3 becomes a power.
        rep3 = standard_decomposition(named_spectrum("MAJ", 6), 3)
        assert rep3.period_is_char_power

    def test_parity_four(self):
        rep = standard_decomposition(spectrum("10101"), 2)
        assert rep.g.text() == "11111"
        assert rep.h.text() == "01010"
        assert rep.period_g == 1

    def test_constant_window(self):
        rep = standard_decomposition(spectrum("1111"), 0)
        assert rep.g.text() == "1111"
        assert rep.h.text() == "0000"

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            standard_decomposition(spectrum("111"), 0)

    def test_invariants_exhaustive(self):
        # f = g xor h always; h is constant outside a middle window; g's
        # period never exceeds the window length.
        for n in range(3, 9):
            lo = -(-n // 3)
            hi = (2 * n) // 3
            for f in all_spectra(n):
                rep = standard_decomposition(f, 2)
                assert xor_spectra(rep.g, rep.h) == f
                assert rep.period_g <= hi - lo + 1
                assert rep.bounded_radius_h <= lo
                # g agrees with f on the middle window by construction
                assert rep.g.values[lo : hi + 1] == f.values[lo : hi + 1]

    def test_period_g_minimal_among_agreeing_spectra(self):
        # No spectrum matching f on the middle window has a smaller period.
        for n in range(3, 8):
            lo = -(-n // 3)
            hi = (2 * n) // 3
            for f in all_spectra(n):
                rep = standard_decomposition(f, 2)
                best = min(
                    period(c)
                    for c in all_spectra(n)
                    if c.values[lo : hi + 1] == f.values[lo : hi + 1]
                )
                assert rep.period_g == best, f.text()


def test_period_budget_failures_have_no_split_at_all():
    # Gate 2's period budget per(g) <= floor(n/3) fails for 744 spectra
    # with n in [3, 10].  None of them has any split f = g xor h with
    # per(g) <= floor(n/3) and B(h) <= ceil(n/3): every g of period at
    # most b repeats its first b values, so trying every pattern of every
    # length b up to the cap tries every such g.
    failing = []
    for n in range(3, 11):
        per_cap, rad_cap = n // 3, -(-n // 3)
        for f in all_spectra(n):
            if standard_decomposition(f).period_g <= per_cap:
                continue
            failing.append(f.text())
            for b in range(1, per_cap + 1):
                for base in itertools.product((0, 1), repeat=b):
                    g = Spectrum(tuple(base[w % b] for w in range(n + 1)))
                    assert bounded_radius(xor_spectra(f, g)) > rad_cap, (f.text(), g.text())
    assert len(failing) == 744
    assert "0010" in failing


@pytest.mark.parametrize(
    "kind,n,params,zeros,ones,expected",
    [
        ("MAJ", 6, (), 2, 2, "001"),
        ("THR", 5, (2,), 0, 1, "01111"),
        ("OR", 4, (), 1, 0, "0111"),
        ("AND", 4, (), 0, 2, "001"),
    ],
)
def test_restrict_known_values(kind, n, params, zeros, ones, expected):
    f = named_spectrum(kind, n, *params)
    assert restrict(f, zeros, ones).text() == expected


def test_restrict_rejects_overflow():
    with pytest.raises(ValueError):
        restrict(spectrum("0011"), 2, 2)
    with pytest.raises(ValueError):
        restrict(spectrum("0011"), -1, 0)


def test_threshold_combination_known_and_telescoping():
    assert threshold_combination(named_spectrum("ETHR", 3, 1)) == (0, 1, -1, 0)
    assert threshold_combination(named_spectrum("THR", 4, 2)) == (0, 0, 1, 0, 0)
    for n in range(1, 13):
        for f in all_spectra(n) if n <= 8 else [named_spectrum("MAJ", n)]:
            coeffs = threshold_combination(f)
            rebuilt = [
                sum(coeffs[t] for t in range(w + 1)) for w in range(n + 1)
            ]
            assert tuple(rebuilt) == f.values


def test_t_constant():
    assert min_t_constant(named_spectrum("OR", 5)) == 1
    assert min_t_constant(named_spectrum("MAJ", 6)) == 4
    assert min_t_constant(spectrum("1111")) == 0

