import math
from fractions import Fraction

import pytest

from pdeg.bounds import (
    BoundReport,
    predicted_bounds,
    recurrence_audit,
    recurrence_report,
)
from pdeg.polyalg import GF2, RATIONALS, FieldSpec
from pdeg.probpoly import get_profile, paper_profile, practical_profile
from pdeg.symfun import Spectrum, named_spectrum, spectrum

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
EIGHTH = Fraction(1, 8)


def parity(n):
    return Spectrum(tuple((w + 1) % 2 for w in range(n + 1)))


class TestPredictedBounds:
    def test_constant(self):
        rep = predicted_bounds(spectrum("1" * 21), EIGHTH, GF2)
        assert rep.case == "constant"
        assert rep.upper == 0.0 and rep.lower == 0.0

    def test_majority_is_generic(self):
        for field in (GF2, GF3, RATIONALS):
            rep = predicted_bounds(named_spectrum("MAJ", 64), EIGHTH, field)
            assert rep.case == "per-not-p-power"
            assert rep.upper == pytest.approx(math.sqrt(64 * 3))
            assert rep.lower == rep.upper

    def test_parity_collapses_over_its_characteristic(self):
        rep = predicted_bounds(parity(64), EIGHTH, GF2)
        assert rep.case == "p-power-bounded-zero"
        assert rep.period == 2 and rep.radius == 0
        assert rep.upper == 2.0

    def test_parity_elsewhere_is_generic(self):
        for field in (GF3, RATIONALS):
            rep = predicted_bounds(parity(64), EIGHTH, field)
            assert rep.case == "per-not-p-power"

    def test_mixed_case(self):
        # Parity with one flipped end value: the periodic part keeps
        # period 2 while the bounded part picks up radius 1.
        values = list((w + 1) % 2 for w in range(31))
        values[0] = 0
        rep = predicted_bounds(Spectrum(tuple(values)), EIGHTH, GF2)
        assert rep.case == "mixed"
        assert rep.period == 2 and rep.radius == 1
        want = min(math.sqrt(30 * 3), 2 + math.sqrt(3) + 3)
        assert rep.upper == pytest.approx(want)

    def test_lower_omitted_outside_range(self):
        rep = predicted_bounds(named_spectrum("MAJ", 10), Fraction(1, 1 << 40), GF2)
        assert rep.lower is None
        assert any("omitted" in note for note in rep.notes)
        ok = predicted_bounds(named_spectrum("MAJ", 10), Fraction(1, 1 << 10), GF2)
        assert ok.lower is not None

    def test_lower_kept_exactly_on_the_range_ends(self):
        # The lower bound is reported for 2^-n <= eps <= 1/3, ends included.
        for n in (3, 10, 64):
            f = named_spectrum("MAJ", n)
            for eps in (Fraction(1, 1 << n), Fraction(1, 3)):
                assert predicted_bounds(f, eps, GF2).lower is not None, (n, eps)
            just_outside = (
                Fraction(1, (1 << n) + 1),
                Fraction(1, 3) + Fraction(1, 3 << n),
            )
            for eps in just_outside:
                rep = predicted_bounds(f, eps, GF2)
                assert rep.lower is None, (n, eps)
                assert any("omitted" in note for note in rep.notes)

    def test_char_zero_note(self):
        rep = predicted_bounds(named_spectrum("MAJ", 12), EIGHTH, RATIONALS)
        assert any("characteristic 0" in note for note in rep.notes)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            predicted_bounds(named_spectrum("MAJ", 6), Fraction(0), GF2)
        with pytest.raises(ValueError):
            predicted_bounds(named_spectrum("MAJ", 6), Fraction(3, 2), GF2)

    def test_upper_monotone_in_n_and_log_eps(self):
        uppers = [
            predicted_bounds(named_spectrum("MAJ", n), EIGHTH, GF2).upper
            for n in range(8, 40, 2)
        ]
        assert uppers == sorted(uppers)
        by_eps = [
            predicted_bounds(
                named_spectrum("MAJ", 20), Fraction(1, 1 << k), GF2
            ).upper
            for k in range(2, 16)
        ]
        assert by_eps == sorted(by_eps)

    def test_json(self):
        rep = predicted_bounds(parity(64), EIGHTH, GF2)
        obj = rep.to_json()
        assert obj["case"] == "p-power-bounded-zero"
        assert obj["n"] == 64
        assert obj["characteristic"] == 2
        assert isinstance(obj["notes"], list)


class TestRecurrence:
    T = 10**11
    EPS = Fraction(1, 1 << 128)

    def test_paper_profile_passes_each_characteristic(self):
        for p in (2, 3, 5, 0):
            field = FieldSpec(p) if p else RATIONALS
            report = recurrence_report(self.T, self.EPS, paper_profile(field), p)
            assert report["ok"], report
            assert recurrence_audit(self.T, self.EPS, paper_profile(field), p)

    def test_check_names(self):
        report = recurrence_report(self.T, self.EPS, paper_profile(GF2), 2)
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "base_case",
            "hash_branch",
            "window_interpolation",
            "subsample_deviation",
            "recombination",
        ]
        for check in report["checks"]:
            assert check["lhs"] <= check["rhs"]

    def test_boundary_of_regime(self):
        L = 128
        t = 160001 * L
        assert recurrence_audit(t, self.EPS, paper_profile(GF2), 2)

    def test_halved_constants_fail(self):
        prof = paper_profile(GF2)
        halved = type(prof)(
            name="halved",
            A=prof.A // 2,
            B=prof.B // 2,
            r_multiplier=prof.r_multiplier,
            small_error_exponent_divisor=prof.small_error_exponent_divisor,
            subsample_ratio=prof.subsample_ratio,
            window_inner_multiplier=prof.window_inner_multiplier,
            window_outer_multiplier=prof.window_outer_multiplier,
            base_n=prof.base_n,
            amplify_arity=prof.amplify_arity,
        )
        report = recurrence_report(self.T, self.EPS, halved, 2)
        assert not report["ok"]
        failing = {c["name"] for c in report["checks"] if not c["ok"]}
        assert "hash_branch" in failing

    def test_practical_profile_fails_in_regime(self):
        report = recurrence_report(self.T, self.EPS, practical_profile(GF2), 2)
        assert not report["ok"]

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError, match="2\\^-100"):
            recurrence_report(self.T, EIGHTH, paper_profile(GF2), 2)
        with pytest.raises(ValueError, match="160000"):
            recurrence_report(10**7, Fraction(1, 1 << 200), paper_profile(GF2), 2)
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            recurrence_report(self.T, Fraction(2), paper_profile(GF2), 2)
