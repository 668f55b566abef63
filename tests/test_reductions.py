import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest

from pdeg import reductions
from pdeg.polyalg import GF2, RATIONALS, FieldSpec, exact_sympoly, expand_multilinear
from pdeg.reductions import (
    DeltaProduct,
    LiteralCombiner,
    ReductionCertificate,
    ShrinkResult,
    _binomial_tail_outside,
    delta_from_shifts,
    maj_from_general,
    maj_from_periodic,
    mod_from_periodic,
    shifted_delta,
    shrink_support,
    thr_complement_from_bounded,
    thr_restrictions,
)
from pdeg.symfun import (
    Spectrum,
    complement_spectrum,
    named_spectrum,
    period,
    reflect_spectrum,
    spectrum,
)
from pdeg.verify import identity_check

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
EIGHTH = Fraction(1, 8)


def periodic_spectrum(pattern: str, n: int) -> Spectrum:
    b = len(pattern)
    return Spectrum(tuple(int(pattern[w % b]) for w in range(n + 1)))


class TestLiteralCombiner:
    def test_polarities(self):
        comb = LiteralCombiner(((2, ((0, 1), (1, 0))), (1, ())))
        # 2 * v0 * (1 - v1) + 1
        assert comb.evaluate([1, 0], RATIONALS) == 3
        assert comb.evaluate([1, 1], RATIONALS) == 1
        assert comb([0, 0], GF3) == 1

    def test_degree(self):
        comb = LiteralCombiner(((1, ((0, 1),)), (1, ((1, 1), (2, 0)))))
        assert comb.degree == 2
        assert LiteralCombiner(()).degree == 0

    def test_json_roundtrip(self):
        comb = LiteralCombiner(((-1, ((3, 0),)), (2, ())))
        assert LiteralCombiner.from_json(comb.to_json()) == comb


class TestShrinkSupport:
    def product_support(self, family, result):
        supp = set(range(len(family[0])))
        for idx in result.chosen:
            supp &= {i for i, v in enumerate(family[idx]) if v == 1}
        return supp

    def test_bit_slice_family(self):
        m = 8
        base = [tuple((x >> i) & 1 for x in range(m)) for i in range(3)]
        family = base + [tuple(1 - v for v in f) for f in base]
        result = shrink_support(family)
        assert self.product_support(family, result) == {result.support_point}
        assert len(result.chosen) <= 3

    def test_not_complement_closed(self):
        with pytest.raises(ValueError, match="complement"):
            shrink_support([(1, 0, 1, 0)])

    def test_no_separator_names_points(self):
        f = (1, 1, 0, 0)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            shrink_support([f, tuple(1 - v for v in f)])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="domain"):
            shrink_support([(0, 1), (1, 0, 1)])

    def test_non_binary_entries_rejected(self):
        # 1 - 2 = -1 and 1 - (-1) = 2, so this family looks complement-closed.
        with pytest.raises(ValueError, match="0/1"):
            shrink_support([(2, 0), (-1, 1)])

    def test_random_separating_families(self):
        # Invariant sweep: every separating, complement-closed family on up
        # to 16 points shrinks to a single point in at most log2(m) picks.
        rng = random.Random(20240814)
        trials = 10_000
        for _ in range(trials):
            m = rng.randint(2, 16)
            base: list[tuple[int, ...]] = []
            while True:
                base.append(tuple(rng.randint(0, 1) for _ in range(m)))
                signatures = {
                    tuple(f[i] for f in base) for i in range(m)
                }
                if len(signatures) == m:
                    break
            family = base + [tuple(1 - v for v in f) for f in base]
            result = shrink_support(family)
            assert len(result.chosen) <= max(1, m).bit_length() - 1
            assert self.product_support(family, result) == {
                result.support_point
            }


class TestDeltaFromShifts:
    def delta_matches_indicator(self, u: str):
        m = len(u)
        delta = delta_from_shifts(u)
        assert delta.degree <= max(1, m).bit_length() - 1
        for r in range(m):
            prod = 1
            for j, pol in delta.literals:
                v = int(u[(r + j) % m])
                prod *= v if pol else 1 - v
            assert prod == (1 if r == delta.index else 0)

    def test_exhaustive_small_lengths(self):
        for m in range(2, 11):
            for mask in range(1 << m):
                u = format(mask, f"0{m}b")
                aperiodic = all(
                    any(u[(r + s) % m] != u[r] for r in range(m))
                    for s in range(1, m)
                )
                if not aperiodic:
                    continue
                self.delta_matches_indicator(u)

    def test_random_longer_patterns(self):
        rng = random.Random(5)
        done = 0
        while done < 200:
            m = rng.randint(11, 64)
            u = "".join(str(rng.randint(0, 1)) for _ in range(m))
            try:
                self.delta_matches_indicator(u)
            except ValueError:
                continue  # periodic draw, skip
            done += 1

    def test_periodic_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            delta_from_shifts("1010")
        with pytest.raises(ValueError, match="shift"):
            delta_from_shifts("110110")

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            delta_from_shifts("1")
        with pytest.raises(ValueError):
            delta_from_shifts("102")

    def test_shifted_delta_all_targets(self):
        u = "1001011"
        m = len(u)
        delta = delta_from_shifts(u)
        for t in range(m):
            literals = shifted_delta(delta, t)
            for r in range(m):
                prod = 1
                for j, pol in literals:
                    v = int(u[(r + j) % m])
                    prod *= v if pol else 1 - v
                assert prod == (1 if r == t else 0)


def _dict_shrink(masks, m):
    """The greedy support shrink as it was with an eager first-copy dict:
    every mask hashed up front, walked from the back so each keeps the
    index of its first copy.  The reference for _shrink_masks."""
    full = (1 << m) - 1
    first_index = dict(zip(reversed(masks), range(len(masks) - 1, -1, -1)))
    supp, chosen = full, []
    if m > 1:
        idx, mask = next((i, x) for i, x in enumerate(masks) if 0 < x.bit_count() < m)
        start = idx if 2 * mask.bit_count() <= m else first_index[full ^ mask]
        chosen.append(start)
        supp = masks[start]
    while supp.bit_count() > 1:
        low_i = supp & -supp
        low_j = (supp ^ low_i) & -(supp ^ low_i)
        pick = next(i for i, x in enumerate(masks) if x & low_i and not x & low_j)
        keep = supp & masks[pick]
        if 2 * keep.bit_count() <= supp.bit_count():
            chosen.append(pick)
            supp = keep
        else:
            chosen.append(first_index[full ^ masks[pick]])
            supp ^= keep
    return ShrinkResult(chosen=tuple(chosen), support_point=supp.bit_length() - 1)


class TestShrinkFirstCopies:
    """_shrink_masks finds a complement's first copy only when it takes it;
    its picks equal those of the eager first-copy dict."""

    def test_every_aperiodic_pattern_up_to_twelve(self):
        checked = 0
        for m in range(2, 13):
            full = (1 << m) - 1
            for bits in range(1 << m):
                shifts = [((bits >> j) | (bits << (m - j))) & full for j in range(m)]
                if bits in shifts[1:]:
                    continue  # fixed by a nontrivial shift
                masks = shifts + [full ^ x for x in shifts]
                want = _dict_shrink(masks, m)
                literals = tuple((idx % m, 0 if idx >= m else 1) for idx in want.chosen)
                pattern = format(bits, f"0{m}b")[::-1]  # bit r is entry r
                assert delta_from_shifts(pattern) == DeltaProduct(
                    length=m, index=want.support_point, literals=literals
                ), pattern
                checked += 1
        assert checked > 7000
        # The greedy takes the complement of shift 1, and its first copy is
        # shift 4, not the complement half's copy at index 7.
        assert delta_from_shifts("110001") == DeltaProduct(6, 1, ((0, 1), (4, 1)))

    def test_families_with_repeated_masks(self):
        rng = random.Random(2718)
        repeated = 0
        for _ in range(3000):
            m = rng.randint(2, 12)
            base = []
            while len({tuple(f[i] for f in base) for i in range(m)}) < m:
                base.append(tuple(rng.randint(0, 1) for _ in range(m)))
            family = base + [tuple(1 - v for v in f) for f in base]
            family += rng.choices(family, k=rng.randint(0, len(family)))
            rng.shuffle(family)
            masks = [sum(v << i for i, v in enumerate(f)) for f in family]
            repeated += len(set(masks)) < len(masks)
            assert shrink_support(family) == _dict_shrink(masks, m), family
        assert repeated > 2000


class TestModFromPeriodic:
    def test_parity_pattern_over_gf3(self):
        g = periodic_spectrum("10", 6)
        certs = mod_from_periodic(g, GF3)
        assert len(certs) == 2
        for residue, cert in enumerate(certs):
            assert cert.target_label == "MOD"
            assert cert.target_params == (2, residue)
            assert cert.target_n == 4
            assert cert.check(GF3)
            assert cert.check(RATIONALS)

    def test_period_six_over_gf5(self):
        g = periodic_spectrum("100110", 18)
        assert period(g) == 6
        certs = mod_from_periodic(g, GF5)
        assert len(certs) == 2  # q = 2, the smallest factor distinct from 5
        for cert in certs:
            assert cert.check(GF5)
            assert cert.claimed_degree <= 2  # floor(log2 6)

    def test_period_six_over_gf2(self):
        g = periodic_spectrum("100110", 18)
        certs = mod_from_periodic(g, GF2)
        assert len(certs) == 3  # q = 3 once the factor 2 is excluded
        for residue, cert in enumerate(certs):
            assert cert.target_params == (3, residue)
            assert cert.check(GF2)

    def test_char_power_period_rejected(self):
        g = periodic_spectrum("10", 12)
        with pytest.raises(ValueError, match="interpolation"):
            mod_from_periodic(g, GF2)

    def test_period_too_long_rejected(self):
        g = periodic_spectrum("100110", 12)
        with pytest.raises(ValueError, match="exceeds"):
            mod_from_periodic(g, GF2)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="trivial"):
            mod_from_periodic(spectrum("1111111"), GF2)

    def test_certificate_json_roundtrip(self):
        g = periodic_spectrum("100110", 18)
        cert = mod_from_periodic(g, GF2)[1]
        back = ReductionCertificate.from_json(cert.to_json())
        assert back == cert
        assert back.check(GF2)


def p1_to_p4(n, b, eps, m, delta):
    """Numeric restatement of the selection constraints, checked exactly
    where the quantities are rational."""
    ok_p1 = 1 <= m <= n - b and (m - (n - b)) % 2 == 0
    ok_p2 = Fraction(1, 5) >= delta >= max(eps, Fraction(1, 2**m))
    log_delta = math.log2(delta.denominator) - math.log2(delta.numerator)
    ok_p3 = 16 * m * log_delta <= b * b
    log_eps = math.log2(eps.denominator) - math.log2(eps.numerator)
    floor_req = min(b, math.sqrt(n * log_eps)) / 40
    ok_p4 = math.sqrt(m * log_delta) >= floor_req
    return ok_p1, ok_p2, ok_p3, ok_p4


class TestMajFromPeriodic:
    def build(self, n, b, eps, field, seed=7):
        rng = random.Random(seed)
        while True:
            pattern = [rng.randint(0, 1) for _ in range(b)]
            g = Spectrum(tuple(pattern[w % b] for w in range(n + 1)))
            if period(g) == b:
                return g

    def test_case_one_selection(self):
        g = self.build(2000, 32, EIGHTH, GF2)
        cert = maj_from_periodic(g, EIGHTH, GF2)
        assert cert.extras["case"] == 1
        assert cert.extras["m"] == 10
        assert cert.extras["delta"] == "1/5"
        assert cert.claimed_degree <= 5  # floor(log2 32)
        assert len(cert.restrictions) == 32
        assert cert.check(GF2)
        assert Fraction(cert.extras["tail"]) <= Fraction(1, 5)

    def test_case_one_window_matches_majority(self):
        g = self.build(2000, 32, EIGHTH, GF2)
        cert = maj_from_periodic(g, EIGHTH, GF2)
        m = cert.extras["m"]
        maj = named_spectrum("MAJ", m)
        target = spectrum(cert.target_spectrum)
        for w in cert.extras["window_weights"]:
            assert target.values[w] == maj.values[w]

    def test_case_two_selection(self):
        g = self.build(2500, 512, EIGHTH, GF2)
        cert = maj_from_periodic(g, EIGHTH, GF2)
        assert cert.extras["case"] == 2
        assert cert.extras["m"] == 24
        assert Fraction(cert.extras["delta"]) == EIGHTH
        assert cert.check(GF2)

    def test_case_three_selection(self):
        g = self.build(10300, 1024, EIGHTH, GF2)
        cert = maj_from_periodic(g, EIGHTH, GF2)
        assert cert.extras["case"] == 3
        assert cert.extras["m"] == 10300 - 1024
        assert Fraction(cert.extras["delta"]) == EIGHTH
        ok = p1_to_p4(10300, 1024, EIGHTH, cert.extras["m"], EIGHTH)
        assert all(ok)
        # The column check covers every weight; also spot-check the combiner
        # against the slot definitions pointwise on a sample of weights.
        assert cert.check(GF2)
        m = cert.extras["m"]
        maj = named_spectrum("MAJ", m)
        target = spectrum(cert.target_spectrum)
        window = cert.extras["window_weights"]
        sample = {0, 1, m - 1, m, window[0], window[-1], window[len(window) // 2]}
        sample.update(random.Random(3).sample(range(m + 1), 30))
        src = spectrum(cert.source)
        for w in sorted(sample):
            values = [src.values[w + ones] for _, ones in cert.restrictions]
            got = cert.combiner.evaluate([GF2.element(v) for v in values], GF2)
            assert got == GF2.element(target.values[w])
        for w in window:
            assert target.values[w] == maj.values[w]

    def test_rejections(self):
        g16 = self.build(2000, 16, EIGHTH, GF2)
        with pytest.raises(ValueError, match="no scale case validates"):
            maj_from_periodic(g16, EIGHTH, GF2)
        g6 = periodic_spectrum("100110", 60)
        with pytest.raises(ValueError, match="modular"):
            maj_from_periodic(g6, EIGHTH, GF2)
        g32 = self.build(2000, 32, EIGHTH, GF2)
        with pytest.raises(ValueError, match="characteristic"):
            maj_from_periodic(g32, EIGHTH, RATIONALS)
        with pytest.raises(ValueError, match="error parameter"):
            maj_from_periodic(g32, Fraction(2), GF2)
        with pytest.raises(ValueError, match="trivial"):
            maj_from_periodic(spectrum("11111"), EIGHTH, GF2)

    def test_parameter_sweep(self):
        configs = []
        for p, bs in ((2, (16, 32, 64, 128)), (3, (27, 81)), (5, (25, 125))):
            field = FieldSpec(p)
            for b in bs:
                for n in (100, 400, 1000, 2600):
                    if n < 3 * b:
                        continue
                    for eps in (Fraction(1, 5), EIGHTH, Fraction(1, 1 << 10)):
                        configs.append((field, b, n, eps))
        selected = 0
        for field, b, n, eps in configs:
            g = self.build(n, b, eps, field)
            try:
                cert = maj_from_periodic(g, eps, field)
            except ValueError:
                continue
            selected += 1
            m = cert.extras["m"]
            delta = Fraction(cert.extras["delta"])
            assert all(p1_to_p4(n, b, eps, m, delta)), (n, b, eps, m, delta)
            assert Fraction(cert.extras["tail"]) <= delta
        assert selected >= 10

    def test_json_roundtrip(self):
        g = self.build(2000, 32, EIGHTH, GF2)
        cert = maj_from_periodic(g, EIGHTH, GF2)
        back = ReductionCertificate.from_json(cert.to_json())
        assert back == cert


class TestThrRestrictions:
    def test_worked_shapes(self):
        maj_cert, or_cert = thr_restrictions(9, 3)
        assert maj_cert.restrictions == ((4, 0),)
        assert maj_cert.target_label == "MAJ" and maj_cert.target_n == 5
        assert or_cert.restrictions == ((2, 2),)
        assert or_cert.target_label == "OR" and or_cert.target_n == 5
        for cert in (maj_cert, or_cert):
            assert cert.check(GF2)
            assert cert.check(RATIONALS)
            assert cert.claimed_degree == 1

    @pytest.mark.parametrize("n,t", [(2, 1), (9, 3), (18, 4), (25, 12), (30, 1)])
    def test_identities_hold(self, n, t):
        for cert in thr_restrictions(n, t):
            assert cert.check(GF3)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            thr_restrictions(9, 0)
        with pytest.raises(ValueError):
            thr_restrictions(9, 5)

    def test_or_multilinear_degree_is_full(self):
        for m in range(1, 13):
            poly = exact_sympoly(named_spectrum("OR", m), RATIONALS)
            expanded = expand_multilinear(poly, m)
            assert expanded.degree == m


class TestThrComplement:
    def test_nor(self):
        cert = thr_complement_from_bounded(complement_spectrum(named_spectrum("OR", 18)))
        assert cert.extras["alpha"] == [1]
        assert cert.extras["blocks"] == 1
        assert cert.target_spectrum == "10000"
        assert not cert.source_reflected
        assert cert.check(GF2) and cert.check(GF5) and cert.check(RATIONALS)

    def test_changing_its_json_leaves_the_certificate_as_it_was(self):
        cert = thr_complement_from_bounded(complement_spectrum(named_spectrum("OR", 18)))
        cert.to_json()["extras"]["alpha"].append(99)
        assert cert.extras["alpha"] == [1]
        assert cert.to_json()["extras"]["alpha"] == [1]

    def test_radius_three(self):
        h = spectrum("001" + "0" * 16)
        cert = thr_complement_from_bounded(h)
        assert cert.extras["radius"] == 3
        assert cert.extras["blocks"] == 1
        assert cert.check(GF2) and cert.check(RATIONALS)

    def test_reflected_orientation(self):
        h = reflect_spectrum(complement_spectrum(named_spectrum("OR", 18)))
        cert = thr_complement_from_bounded(h)
        assert cert.source_reflected
        assert cert.check(GF3)

    def test_multi_block_solve(self):
        # Radius 5 forces t = 2 blocks and a genuine back substitution.
        values = [0] * 31
        values[4] = 1
        values[2] = 1
        h = Spectrum(tuple(values))
        cert = thr_complement_from_bounded(h)
        assert cert.extras["blocks"] == 2
        assert len(cert.restrictions) == 2
        assert cert.check(RATIONALS) and cert.check(GF2) and cert.check(GF3)

    def test_middle_one_rejected(self):
        with pytest.raises(ValueError, match="orientation"):
            thr_complement_from_bounded(spectrum("0" + "1" * 17 + "0"))

    def test_degenerate_middle_rejected(self):
        with pytest.raises(ValueError, match="middle"):
            thr_complement_from_bounded(spectrum("0100"))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="blocks do not fit"):
            thr_complement_from_bounded(spectrum("1110"))

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            thr_complement_from_bounded(spectrum("0000000"))

    def test_corrupted_alpha_fails_check(self):
        cert = thr_complement_from_bounded(complement_spectrum(named_spectrum("OR", 18)))
        bad = ReductionCertificate(
            kind=cert.kind,
            source=cert.source,
            source_reflected=cert.source_reflected,
            target_label=cert.target_label,
            target_params=cert.target_params,
            target_spectrum=cert.target_spectrum,
            restrictions=cert.restrictions,
            combiner=LiteralCombiner(((2, ((0, 1),)),)),
            claimed_degree=cert.claimed_degree,
            extras=cert.extras,
        )
        assert not bad.check(RATIONALS)
        assert bad.failures(RATIONALS)


class TestMajFromGeneral:
    def test_majority_source(self):
        cert = maj_from_general(named_spectrum("MAJ", 18), GF2)
        assert cert.target_label == "MAJ"
        assert cert.target_n == 1
        assert cert.check(GF2)
        assert cert.check(RATIONALS)

    def test_exact_threshold_source(self):
        cert = maj_from_general(named_spectrum("ETHR", 24, 12), GF2)
        assert cert.target_n == 1
        assert cert.check(GF2)

    def test_periodic_window_rejected(self):
        g = periodic_spectrum("10", 18)
        with pytest.raises(ValueError, match="shift 1|shift 2"):
            maj_from_general(g, GF2)

    def test_random_sources_both_pinning_cases(self):
        rng = random.Random(11)
        seen_cases = set()
        built = 0
        while built < 40:
            n = rng.choice([18, 21, 24])
            values = tuple(rng.randint(0, 1) for _ in range(n + 1))
            f = Spectrum(values)
            try:
                cert = maj_from_general(f, GF2)
            except ValueError:
                continue
            built += 1
            assert cert.check(GF2)
            assert cert.check(GF3)
            assert cert.check(RATIONALS)
            m = cert.extras["interval_points"]
            a = cert.extras["support_point"]
            seen_cases.add(1 if 2 * a <= 3 * m else 2)
            assert cert.claimed_degree <= max(1, 2 * max(1, m).bit_length())
        assert seen_cases == {1, 2}

    def test_corrupted_restriction_fails_check(self):
        cert = maj_from_general(named_spectrum("MAJ", 18), GF2)
        zeros, ones = cert.restrictions[0]
        bad = ReductionCertificate(
            kind=cert.kind,
            source=cert.source,
            source_reflected=cert.source_reflected,
            target_label=cert.target_label,
            target_params=cert.target_params,
            target_spectrum=cert.target_spectrum,
            restrictions=((zeros - 1, ones + 1),) + cert.restrictions[1:],
            combiner=cert.combiner,
            claimed_degree=cert.claimed_degree,
            extras=cert.extras,
        )
        assert not bad.check(GF2)

    def test_one_member_per_distinct_offset(self, monkeypatch):
        # A pair i < j of interval points gives the member with
        # ones = deviation[j - i] - i; only the first of each ones is kept.
        handed = []
        shrink = reductions._shrink_masks

        def counting(masks, m):
            handed.append(len(masks))
            return shrink(masks, m)

        monkeypatch.setattr(reductions, "_shrink_masks", counting)
        rng = random.Random(2000)
        n = 2000
        lo, hi = -(-n // 3), 2 * n // 3
        m = (n - 2 * lo) // 3
        for f in (named_spectrum("MAJ", n), Spectrum(tuple(rng.choices((0, 1), k=n + 1)))):
            deviation = {
                k: next(r for r in range(lo, hi - k + 1) if f.values[r] != f.values[r + k])
                for k in range(1, m + 1)
            }
            offsets = {
                deviation[j - i] - i
                for i in range(m + 1, 2 * m + 1)
                for j in range(i + 1, 2 * m + 1)
            }
            handed.clear()
            assert maj_from_general(f, GF2).check(GF2)
            assert handed == [2 * len(offsets)]
            assert len(offsets) < m * (m - 1) // 20

    def test_pair_offsets_in_first_seen_order(self):
        # _pair_offsets finds, row by row, what walking every pair finds.
        rng = random.Random(29)
        for _ in range(2000):
            m = rng.randint(1, 30)
            spread = rng.choice((0, 1, 3, m, 3 * m))
            base = 2 * m + rng.randint(0, 4)
            deviation = {k: base + rng.randint(0, spread) for k in range(1, m + 1)}
            pairs = dict.fromkeys(
                deviation[j - i] - i
                for i in range(m + 1, 2 * m + 1)
                for j in range(i + 1, 2 * m + 1)
            )
            assert reductions._pair_offsets(deviation, m) == list(pairs)

    def test_json_roundtrip(self):
        cert = maj_from_general(named_spectrum("MAJ", 18), GF2)
        back = ReductionCertificate.from_json(cert.to_json())
        assert back == cert
        assert back.check(GF2)


class TestIdentityCheckIntegration:
    def test_certificates_compose_with_verify(self):
        cert = thr_complement_from_bounded(complement_spectrum(named_spectrum("OR", 18)))
        assert identity_check(
            spectrum(cert.target_spectrum),
            cert.slot_spectra(),
            cert.combiner,
            RATIONALS,
        )


def pointwise_failures(cert, field):
    """Reference for ReductionCertificate.failures: one weight at a time."""
    slots = cert.slot_spectra()
    target = spectrum(cert.target_spectrum)
    out = []
    for w in range(target.n + 1):
        values = [field.element(s.values[w]) for s in slots]
        got = cert.combiner.evaluate(values, field)
        want = field.element(target.values[w])
        if got != want:
            out.append((w, got, want))
    return out


def _corpus():
    """Certificates from every reduction, at sizes the pointwise path affords."""
    certs = []
    certs += mod_from_periodic(periodic_spectrum("10", 30), GF3)
    certs += mod_from_periodic(periodic_spectrum("100", 40), GF2)
    certs += mod_from_periodic(periodic_spectrum("100110", 60), GF5)
    g32 = TestMajFromPeriodic().build(2000, 32, EIGHTH, GF2)
    certs.append(maj_from_periodic(g32, EIGHTH, GF2))
    certs += thr_restrictions(25, 12)
    nor = complement_spectrum(named_spectrum("OR", 30))
    certs.append(thr_complement_from_bounded(nor))
    certs.append(
        thr_complement_from_bounded(
            reflect_spectrum(complement_spectrum(named_spectrum("OR", 18)))
        )
    )
    values = [0] * 31
    values[4] = values[2] = 1
    certs.append(thr_complement_from_bounded(Spectrum(tuple(values))))
    certs.append(maj_from_general(named_spectrum("MAJ", 30), GF2))
    certs.append(maj_from_general(named_spectrum("ETHR", 24, 12), GF2))
    return certs


def _mutants(cert, field, rng):
    """The certificate, then copies with flipped target bits or other terms."""
    yield cert
    bits = list(cert.target_spectrum)
    for w in rng.sample(range(len(bits)), min(3, len(bits))):
        bits[w] = "1" if bits[w] == "0" else "0"
    yield dataclasses.replace(cert, target_spectrum="".join(bits))
    p = field.characteristic
    terms = list(cert.combiner.terms)
    k = rng.randrange(len(terms))
    coeff, literals = terms[k]
    # A coefficient that vanishes in the field, and one that does not.
    zeroed = terms[:k] + [(coeff * p if p else 0, literals)] + terms[k + 1:]
    yield dataclasses.replace(cert, combiner=LiteralCombiner(tuple(zeroed)))
    bumped = [(c + rng.randint(-3, 3), lits) for c, lits in terms]
    yield dataclasses.replace(cert, combiner=LiteralCombiner(tuple(bumped)))
    if p != 2:
        halved = [(Fraction(c, 2), lits) for c, lits in terms]
        yield dataclasses.replace(cert, combiner=LiteralCombiner(tuple(halved)))
    # Random terms: repeated slots, mixed polarities and constant terms.
    slots = len(cert.restrictions)
    mixed = tuple(
        (
            rng.randint(-2, 2),
            tuple(
                (rng.randrange(slots), rng.randint(0, 1))
                for _ in range(rng.randint(0, 3))
            ),
        )
        for _ in range(4)
    )
    combiner = LiteralCombiner(mixed)
    yield dataclasses.replace(
        cert, combiner=combiner, claimed_degree=max(cert.claimed_degree, combiner.degree)
    )


class TestColumnCheck:
    @pytest.mark.parametrize(
        "field", [GF2, GF3, GF5, RATIONALS], ids=["GF2", "GF3", "GF5", "Q"]
    )
    def test_matches_pointwise_reference(self, field):
        rng = random.Random(field.characteristic)
        missed = 0
        got_types = set()
        for cert in _corpus():
            for mutant in _mutants(cert, field, rng):
                got = mutant.failures(field)
                want = pointwise_failures(mutant, field)
                assert got == want
                assert [tuple(map(type, f)) for f in got] == [
                    tuple(map(type, f)) for f in want
                ]
                missed += bool(want)
                got_types.update(type(g) for _, g, _ in got)
        assert missed >= 20  # most mutants miss the target somewhere
        # Halved coefficients give non-integral values over Q.
        assert got_types == ({int, Fraction} if field is RATIONALS else {int})


class TestMalformedCertificate:
    def loaded(self, **changes):
        obj = thr_restrictions(9, 3)[0].to_json()  # one slot (4, 0), MAJ_5
        obj.update(changes)
        return ReductionCertificate.from_json(obj)

    def test_literal_slot_out_of_range(self):
        cert = self.loaded(combiner={"terms": [[1, [[0, 1], [1, 0]]]]})
        with pytest.raises(ValueError, match="slot 1"):
            cert.check(GF2)
        cert = self.loaded(combiner={"terms": [[1, [[-1, 1]]]]})
        with pytest.raises(ValueError, match="slot -1"):
            cert.failures(RATIONALS)

    def test_restriction_leaves_too_few_weights(self):
        cert = self.loaded(restrictions=[[4, 1]])
        with pytest.raises(ValueError, match=r"slot 0 \(4, 1\) leaves 5 weights"):
            cert.check(GF2)

    def test_bad_counts_keep_the_restriction_error(self):
        with pytest.raises(ValueError, match="slot 0.*non-negative"):
            self.loaded(restrictions=[[-1, 0]]).check(GF2)
        with pytest.raises(ValueError, match="slot 0.*cannot fix 10 of 9"):
            self.loaded(restrictions=[[6, 4]]).check(GF2)

    @pytest.mark.parametrize(
        "changes, name",
        [
            ({"restrictions": [[4.7, "0"]]}, "restriction"),
            ({"restrictions": [[4, "0"]]}, "restriction"),
            ({"restrictions": [[True, 0]]}, "restriction"),
            ({"claimed_degree": 1.0}, "claimed_degree"),
            ({"claimed_degree": True}, "claimed_degree"),
            ({"source_reflected": "no"}, "source_reflected"),
            ({"source_reflected": 0}, "source_reflected"),
            ({"source_reflected": None}, "source_reflected"),
            ({"combiner": {"terms": [[1.5, [[0, 1]]]]}}, "coefficient"),
            ({"combiner": {"terms": [[True, [[0, 1]]]]}}, "coefficient"),
            ({"combiner": {"terms": [[1, [[0.9, 1]]]]}}, "slot"),
            ({"combiner": {"terms": [[1, [["0", 1]]]]}}, "slot"),
            ({"combiner": {"terms": [[1, [[0, True]]]]}}, "polarity"),
            ({"combiner": {"terms": [[1, [[0, 2]]]]}}, "polarity"),
            ({"combiner": {"terms": [[1, [[0, -1]]]]}}, "polarity"),
            ({"combiner": {"terms": [[1, [[0, 1.0]]]]}}, "polarity"),
        ],
    )
    def test_fields_are_not_coerced(self, changes, name):
        with pytest.raises(ValueError, match=f"certificate {name} (.+ is not|must be 0 or 1)"):
            self.loaded(**changes)

    @pytest.mark.parametrize(
        "key, value, name",
        [
            ("n", 5.0, "target n"),
            ("n", "5", "target n"),
            ("params", [3.0], "target param"),
        ],
    )
    def test_target_numbers_are_not_coerced(self, key, value, name):
        obj = thr_restrictions(9, 3)[0].to_json()
        obj["target"][key] = value
        refused = value[0] if key == "params" else value
        with pytest.raises(
            ValueError, match=re.escape(f"certificate {name} {refused!r} is not an int")
        ):
            ReductionCertificate.from_json(obj)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda o: o.update(restrictions="ab"),
                "certificate restrictions 'ab' is not a list",
            ),
            (lambda o: o.pop("claimed_degree"), "certificate claimed_degree is missing"),
            (lambda o: o.update(target="MAJ"), "certificate target 'MAJ' is not an object"),
            (lambda o: o["target"].pop("n"), "certificate target n is missing"),
            (
                lambda o: o["target"].update(params="3"),
                "certificate target params '3' is not a list",
            ),
            (lambda o: o.update(combiner=[]), "certificate combiner [] is not an object"),
            (
                lambda o: o.update(combiner={"terms": "1"}),
                "certificate terms '1' is not a list",
            ),
            (lambda o: o.update(extras=[]), "certificate extras [] is not an object"),
            (
                lambda o: o.update(restrictions=[[4, 0, 1]]),
                "certificate restriction [4, 0, 1] is not a pair",
            ),
            (
                lambda o: o.update(restrictions=[4]),
                "certificate restriction 4 is not a pair",
            ),
            (
                lambda o: o.update(combiner={"terms": [[1]]}),
                "certificate term [1] is not a pair",
            ),
            (
                lambda o: o.update(combiner={"terms": [[1, 5]]}),
                "certificate literals 5 is not a list",
            ),
            (
                lambda o: o.update(combiner={"terms": [[1, [[0, 1, 1]]]]}),
                "certificate literal [0, 1, 1] is not a pair",
            ),
        ],
        ids=[
            "restrictions-text", "no-claimed-degree", "target-text", "no-target-n",
            "target-params-text", "combiner-list", "terms-text", "extras-list",
            "restriction-triple", "restriction-int", "term-single", "literals-int",
            "literal-triple",
        ],
    )
    def test_missing_or_mistyped_fields_are_named(self, edit, message):
        obj = thr_restrictions(9, 3)[0].to_json()
        edit(obj)
        with pytest.raises(ValueError, match=re.escape(message)):
            ReductionCertificate.from_json(obj)

    def test_non_object_is_refused(self):
        with pytest.raises(ValueError, match=r"certificate target is missing from \[\]"):
            ReductionCertificate.from_json([])
        with pytest.raises(ValueError, match="certificate terms is missing from 'terms'"):
            LiteralCombiner.from_json("terms")

    def test_combiner_from_json_is_strict(self):
        with pytest.raises(ValueError, match="coefficient 1.5 is not an int"):
            LiteralCombiner.from_json({"terms": [[1.5, [[0.9, True]]]]})
        with pytest.raises(ValueError, match="certificate literal 5 is not a pair"):
            LiteralCombiner.from_json({"terms": [[1, [5]]]})
        with pytest.raises(ValueError) as info:
            LiteralCombiner.from_json({"terms": [["1" * 5000, []]]})
        assert len(str(info.value)) < 120

    def test_well_formed_json_loads_as_stored(self):
        for cert in _corpus():
            back = ReductionCertificate.from_json(cert.to_json())
            assert back == cert
            assert type(back.source_reflected) is bool

    def test_claimed_degree_and_target_n_are_checked(self):
        cert = mod_from_periodic(spectrum("011010" * 6 + "0"), GF2)[0]
        assert (cert.combiner.degree, cert.target_n) == (2, 30) and cert.check(GF2)
        low = dataclasses.replace(cert, claimed_degree=0)
        for claimed in (low, ReductionCertificate.from_json(low.to_json())):
            with pytest.raises(ValueError, match="exceeds claimed_degree 0"):
                claimed.check(GF2)
        obj = cert.to_json()
        obj["target"]["n"] = 999
        with pytest.raises(ValueError, match="certificate target n 999 is not 30"):
            ReductionCertificate.from_json(obj)


class TestFailuresFromText:
    """failures() reads source and target text directly; slot_spectra()
    plus LiteralCombiner.evaluate stay the pointwise reference."""

    @pytest.mark.parametrize(
        "field", [GF2, GF3, GF5, RATIONALS], ids=["GF2", "GF3", "GF5", "Q"]
    )
    def test_reflected_sources_match_pointwise_reference(self, field):
        rng = random.Random(100 + field.characteristic)
        reflected = missed = 0
        for cert in _corpus():
            flipped = dataclasses.replace(
                cert, source_reflected=not cert.source_reflected
            )
            # The same slots, stored as the reversed text with the flag flipped.
            same = dataclasses.replace(flipped, source=cert.source[::-1])
            assert same.failures(field) == cert.failures(field)
            bits = list(cert.source)
            for w in rng.sample(range(len(bits)), min(4, len(bits))):
                bits[w] = "1" if bits[w] == "0" else "0"
            noisy = dataclasses.replace(flipped, source="".join(bits))
            for base in (flipped, same, noisy):
                reflected += base.source_reflected
                for mutant in _mutants(base, field, rng):
                    got = mutant.failures(field)
                    want = pointwise_failures(mutant, field)
                    assert got == want
                    assert [tuple(map(type, f)) for f in got] == [
                        tuple(map(type, f)) for f in want
                    ]
                    missed += bool(want)
        assert reflected >= 20 and missed >= 40

    @pytest.mark.parametrize("bad", ["", "012", "0 1", " 01", "01\n", "0_1", "２"])
    @pytest.mark.parametrize(
        "name, attr", [("source", "source"), ("target spectrum", "target_spectrum")]
    )
    def test_malformed_text_names_the_field(self, bad, name, attr):
        cert = dataclasses.replace(thr_restrictions(9, 3)[0], **{attr: bad})
        with pytest.raises(ValueError, match=f"certificate {name} must be"):
            cert.failures(GF2)
        with pytest.raises(ValueError, match=f"certificate {name} must be"):
            cert.check(RATIONALS)

    def test_long_malformed_text_is_shortened(self):
        cert = dataclasses.replace(
            thr_restrictions(9, 3)[0], target_spectrum="01" * 5000 + "2"
        )
        with pytest.raises(ValueError) as info:
            cert.check(GF2)
        assert len(str(info.value)) < 120

    def test_non_string_text_is_a_value_error(self):
        obj = thr_restrictions(9, 3)[0].to_json()
        obj["target"]["spectrum"] = None
        with pytest.raises(ValueError, match="target spectrum must be"):
            ReductionCertificate.from_json(obj)
        cert = dataclasses.replace(thr_restrictions(9, 3)[0], target_spectrum=None)
        with pytest.raises(ValueError, match="target spectrum must be"):
            cert.check(GF2)


def _many_class_certificate():
    """A hand-built certificate on 41 target weights whose combiner takes
    many distinct values: coefficients 1, 2, 4, ... on single slots and odd
    coefficients on products, over a random source."""
    rng = random.Random(4099)
    n = 40
    source = "".join(rng.choice("01") for _ in range(2 * n + 1))
    restrictions = tuple((n - ones, ones) for ones in range(n + 1))
    terms = [(1 << k, ((3 * k, 1),)) for k in range(10)]
    terms += [(2 * k + 3, ((k, 1), (k + 7, 0), (2 * k + 1, 1))) for k in range(12)]
    terms += [(-5, ()), (7, ((40, 0), (0, 0)))]
    target = "".join(rng.choice("01") for _ in range(n + 1))
    return ReductionCertificate(
        kind="hand_built",
        source=source,
        source_reflected=False,
        target_label="RANDOM",
        target_params=(),
        target_spectrum=target,
        restrictions=restrictions,
        combiner=LiteralCombiner(tuple(terms)),
        claimed_degree=3,
        extras={},
    )


class TestFailuresOnManyClasses:
    @pytest.mark.parametrize(
        "field", [GF2, GF3, GF5, RATIONALS], ids=["GF2", "GF3", "GF5", "Q"]
    )
    def test_matches_pointwise_reference(self, field):
        cert = _many_class_certificate()
        slots = cert.slot_spectra()
        totals = {
            cert.combiner.evaluate([s.values[w] for s in slots], RATIONALS)
            for w in range(cert.target_n + 1)
        }
        assert len(totals) >= 30  # nearly one class per weight over Q
        rng = random.Random(field.characteristic + 17)
        for base in (cert, dataclasses.replace(cert, source_reflected=True)):
            for mutant in _mutants(base, field, rng):
                want = pointwise_failures(mutant, field)
                got = mutant.failures(field)
                assert got == want
                assert [tuple(map(type, f)) for f in got] == [
                    tuple(map(type, f)) for f in want
                ]

    def test_only_classes_off_zero_and_one_miss(self):
        cert = _many_class_certificate()
        for field in (GF2, GF3, GF5, RATIONALS):
            slots = cert.slot_spectra()
            values = [
                cert.combiner.evaluate([field.element(s.values[w]) for s in slots], field)
                for w in range(cert.target_n + 1)
            ]
            # With the target at 1 exactly where the combiner gives 1, the
            # classes at 1 and at 0 hold, and every other class misses.
            hits = "".join("1" if v == 1 else "0" for v in values)
            fixed = dataclasses.replace(cert, target_spectrum=hits)
            assert fixed.failures(field) == [
                (w, v, 0) for w, v in enumerate(values) if v not in (0, 1)
            ]


def _full_row_tail(m, window):
    """The full-row walk _binomial_tail_outside used to be: every weight."""
    inside = set(window)
    total = 0
    coeff = 1
    for w in range(m + 1):
        if w not in inside:
            total += coeff
        coeff = coeff * (m - w) // (w + 1)
    return Fraction(total, 1 << m)


class TestBinomialTail:
    def test_every_interval_window(self):
        for m in range(41):
            for lo in range(m + 1):
                for hi in range(lo, m + 1):
                    window = range(lo, hi + 1)
                    assert _binomial_tail_outside(m, window) == _full_row_tail(
                        m, window
                    ), (m, lo, hi)

    def test_random_sets_and_outside_members(self):
        rng = random.Random(447)
        for _ in range(400):
            m = rng.randint(0, 60)
            window = [rng.randint(-5, m + 5) for _ in range(rng.randint(0, 12))]
            if rng.random() < 0.3:
                window += window[: rng.randint(0, len(window))]  # repeats
            assert _binomial_tail_outside(m, window) == _full_row_tail(m, window), (
                m,
                window,
            )

    def test_empty_and_fully_outside_windows(self):
        for m in (0, 1, 7, 40):
            assert _binomial_tail_outside(m, []) == 1
            assert _binomial_tail_outside(m, [-3, m + 1, m + 9]) == 1
            assert _binomial_tail_outside(m, range(-2, m + 3)) == 0

    def test_binomials_from_primes(self):
        for m in range(130):
            for k in range(m + 1):
                assert reductions._binomial(m, k) == math.comb(m, k), (m, k)
        for m, k in ((654, 250), (2048, 1024), (9276, 4305)):
            assert reductions._binomial(m, k) == math.comb(m, k)

    def test_windows_at_scale(self):
        # Intervals and holed windows at m in the hundreds to low thousands,
        # with lengths on both sides of the 32-weight leaf block and of its
        # doublings, so the splitting recursion ends both on leaf edges and
        # off them.
        rng = random.Random(28)
        lengths = [1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 513]
        for m in (257, 654, 1000, 1701, 2900):
            for length in lengths:
                lo = rng.randint(-3, max(-3, m - length + 3))
                window = range(lo, lo + length)
                holed = [w for w in window if rng.random() < 0.8] + [m + 2, -1]
                for win in (window, holed):
                    assert _binomial_tail_outside(m, win) == _full_row_tail(m, win), (
                        m,
                        lo,
                        length,
                    )

    def test_bench_scale_case(self):
        # maj_from_periodic at n = 10300, b = 1024 selects m = 9276.
        g = periodic_spectrum("1" + "0" * 1023, 10300)
        cert = maj_from_periodic(g, EIGHTH, GF2)
        m = cert.extras["m"]
        window = cert.extras["window_weights"]
        assert (m, cert.extras["period"]) == (9276, 1024)
        tail = _binomial_tail_outside(m, window)
        assert tail == _full_row_tail(m, window)
        assert str(tail) == cert.extras["tail"]
