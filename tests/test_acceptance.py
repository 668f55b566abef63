"""Release gates: nine end-to-end checks, one test and one verdict line each.

Each test prints a single summary line (visible with -v via failure output or
-s) so a full run reads as a checklist.  Gate 2 documents a known corner where
the decomposition's period clause is violated; it is expected to stay red
until the splitting rule itself changes, and its assertion message carries the
witness.
"""

import itertools
import json
import math
import os
from fractions import Fraction

from pdeg.bounds import predicted_bounds, recurrence_audit
from pdeg.polyalg import GF2, RATIONALS, FieldSpec, periodic_exact
from pdeg.probpoly import (
    ConstantsProfile,
    amplify,
    bounded_recipe,
    char0_or,
    compose,
    constant_recipe,
    enumerate_draws,
    eval_expr,
    exact_recipe,
    general_recipe,
    paper_profile,
    practical_profile,
    razborov_or,
    sample,
    sum_recipes,
    t_constant_recipe,
    threshold_tuple,
    xor_combine,
)
from pdeg.reductions import (
    maj_from_general,
    maj_from_periodic,
    mod_from_periodic,
    thr_complement_from_bounded,
)
from pdeg.symfun import (
    Spectrum,
    named_spectrum,
    spectrum,
    standard_decomposition,
    period,
    xor_spectra,
)
from pdeg.verify import degree_audit, empirical_error, identity_check

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _verdict(gate: int, ok: bool, detail: str) -> None:
    print(f"gate {gate}: {'PASS' if ok else 'FAIL'} - {detail}")


def _tile(pattern, n: int) -> Spectrum:
    b = len(pattern)
    return Spectrum(tuple(int(pattern[w % b]) for w in range(n + 1)))


def _log2_inv(x: Fraction) -> float:
    return math.log2(x.denominator) - math.log2(x.numerator)


def _parse_eps(text: str) -> Fraction:
    if text.startswith("2^-"):
        return Fraction(1, 2 ** int(text[3:]))
    return Fraction(text)


def test_01_periodic_power_spectra_are_represented_exactly():
    """Characteristic-power periods admit zero-error low-degree polynomials.

    Exhaustive over every spectrum with period p^t <= 9 and n <= 18 for
    p in {2, 3, 5}: the interpolation must have degree at most p^t - 1 and
    reproduce the spectrum at every weight, with zero tolerance.
    """
    checked = 0
    for p in (2, 3, 5):
        field = FieldSpec(p)
        powers = [1]
        while powers[-1] * p <= 9:
            powers.append(powers[-1] * p)
        for b in powers:
            for bits in itertools.product((0, 1), repeat=b):
                for n in range(max(1, b - 1), 19):
                    f = _tile(bits, n)
                    if period(f) != b:
                        continue
                    poly = periodic_exact(f, field)
                    assert poly.degree <= b - 1, (p, bits, n, poly.degree)
                    got = poly.table(n)
                    for w in range(n + 1):
                        assert got[w] == field.element(f.values[w]), (
                            p, bits, n, w,
                        )
                    checked += 1
    _verdict(1, True, f"{checked} periodic spectra reproduced exactly")
    assert checked > 3000


def test_02_decomposition_period_and_radius_budgets():
    """Splitting budget: per(g) <= floor(n/3) and B(h) <= ceil(n/3).

    Exhaustive over all spectra with n in [3, 10].  The XOR identity and the
    radius budget hold everywhere; the period budget does not (majority on
    six inputs already gives per(g) = 3 > 2), so this gate stays red and the
    message below names the witnesses.
    """
    xor_bad = []
    per_bad = []
    rad_bad = []
    total = 0
    for n in range(3, 11):
        per_cap = n // 3
        rad_cap = -(-n // 3)
        for bits in itertools.product((0, 1), repeat=n + 1):
            f = Spectrum(bits)
            report = standard_decomposition(f)
            total += 1
            if any(
                f.values[w] != (report.g.values[w] ^ report.h.values[w])
                for w in range(n + 1)
            ):
                xor_bad.append(f.text())
            if report.period_g > per_cap:
                per_bad.append((f.text(), n, report.period_g, per_cap))
            if report.bounded_radius_h > rad_cap:
                rad_bad.append((f.text(), n, report.bounded_radius_h, rad_cap))
    ok = not (xor_bad or per_bad or rad_bad)
    _verdict(
        2,
        ok,
        f"{total} spectra: xor violations {len(xor_bad)}, "
        f"period violations {len(per_bad)}, radius violations {len(rad_bad)}",
    )
    assert not xor_bad, f"xor identity broken at {xor_bad[:3]}"
    assert not rad_bad, f"radius budget broken at {rad_bad[:3]}"
    assert not per_bad, (
        f"period budget per(g) <= floor(n/3) fails for {len(per_bad)} of "
        f"{total} spectra; first witnesses (spectrum, n, per(g), cap): "
        f"{per_bad[:4]}"
    )


def test_03_vanishing_form_disjunction_exact_error():
    """One-sided OR: exact per-point error <= eps, exactly zero on all-zeros.

    The randomness space is a product of independent uniform coefficient
    vectors, so the exact per-point error is the single-form vanishing count
    (enumerated over all 2^n vectors) raised to the number of forms.  For
    n <= 4 the whole space is also enumerated literally and must agree.
    """
    worst_margin = 1.0
    for n in range(1, 9):
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            recipe = razborov_or(n, eps, GF2)
            ell = recipe.params["forms"]
            cap = 2 * math.ceil(_log2_inv(eps))
            assert recipe.declared_degree_bound <= cap
            for s in range(20):
                assert max(e.deg for e in sample(recipe, s)) <= cap

            factored = {}
            for mask in range(1 << n):
                if mask == 0:
                    factored[0] = Fraction(0)
                    continue
                vanish = sum(
                    1 for a in range(1 << n) if (a & mask).bit_count() % 2 == 0
                )
                factored[mask] = Fraction(vanish, 1 << n) ** ell

            if n <= 4:
                draws = list(enumerate_draws(recipe))
                for mask in range(1 << n):
                    x = [GF2.element((mask >> i) & 1) for i in range(n)]
                    want = GF2.element(1 if mask else 0)
                    literal = sum(
                        (
                            prob
                            for prob, exprs in draws
                            if eval_expr(exprs[0], x, GF2) != want
                        ),
                        Fraction(0),
                    )
                    assert literal == factored[mask], (n, eps, mask)

            zero = [GF2.element(0)] * n
            for s in range(50):
                drawn = sample(recipe, s)[0]
                assert eval_expr(drawn, zero, GF2) == GF2.element(0), (n, eps, s)

            assert factored[0] == 0
            for mask in range(1, 1 << n):
                assert factored[mask] <= eps, (n, eps, mask, factored[mask])
            worst_margin = min(
                worst_margin,
                float(eps) - max(float(v) for k, v in factored.items() if k),
            )
    _verdict(
        3,
        True,
        "exact one-sided error everywhere; smallest slack to eps "
        f"{worst_margin:.3f}",
    )


def test_04_threshold_tuple_empirical_error():
    """Joint threshold draws stay within eps plus sampling slack per weight.

    n in {40, 100} x threshold sets {(1), (3,7), (0..n)} at eps = 1/8, plus
    eps = 2^-20 wherever that error level switches the construction to its
    exact small-error branch.  Randomized configurations run 10^4 seeds;
    deterministic ones are checked with their single draw.
    """
    trials = 10_000
    profile = practical_profile(GF2)
    small = Fraction(1, 1 << 20)
    configs = []
    for n in (40, 100):
        for thresholds in ((1,), (3, 7), tuple(range(n + 1))):
            configs.append((n, thresholds, Fraction(1, 8)))
            probe = threshold_tuple(n, thresholds, small, GF2, profile)
            if probe.params["branch"] == "exact":
                configs.append((n, thresholds, small))
    assert sum(1 for _, _, e in configs if e == small) == 4

    worst_line = ""
    worst_gap = -1.0
    for n, thresholds, eps in configs:
        recipe = threshold_tuple(n, thresholds, eps, GF2, profile)
        report = empirical_error(recipe, trials=trials, seed=20260814)
        bound = float(eps) + 3 * math.sqrt(float(eps) / trials)
        label = (
            f"n={n} t={thresholds if len(thresholds) < 4 else 'all'} "
            f"eps={eps} [{report.mode}]"
        )
        assert report.worst <= bound, (label, report.worst, bound)
        if report.mode == "single-draw":
            assert report.worst == 0.0, label
        if report.worst - bound > worst_gap:
            worst_gap = report.worst - bound
            worst_line = f"{label} worst {report.worst:.4f} vs bound {bound:.4f}"
    _verdict(4, True, f"{len(configs)} configurations; tightest: {worst_line}")


def test_05_degree_soundness_across_recipe_kinds():
    """Tracked degree <= declared over 10^3 draws; expansion never exceeds it.

    One representative per recipe kind, all on at most 10 variables so every
    draw is also expanded to its multilinear normal form.  The threshold
    construction contributes all three of its branches; reaching the hashed
    and recursive ones at this size needs a deliberately cramped profile.
    """
    E8 = Fraction(1, 8)
    profile = practical_profile(GF2)
    tiny = ConstantsProfile(
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
    maj8 = named_spectrum("MAJ", 8)
    recipes = {
        "constant": constant_recipe(GF2, 8, 1),
        "exact": exact_recipe(GF2, [maj8]),
        "razborov_or": razborov_or(8, E8, GF2),
        "char0_or": char0_or(6, E8),
        "threshold_tuple[exact]": threshold_tuple(8, (1, 3), E8, GF2, profile),
        "threshold_tuple[hash]": threshold_tuple(
            8, (1,), Fraction(1, 1 << 20), GF2, tiny
        ),
        "threshold_tuple[inductive]": threshold_tuple(
            8, (3,), Fraction(1, 4), GF2, tiny
        ),
        "t_constant": t_constant_recipe(spectrum("011000000"), E8, GF2, profile),
        "bounded": bounded_recipe(spectrum("100000000"), E8, GF2, profile),
        "general": general_recipe(maj8, E8, GF2, profile),
        "amplify": amplify(razborov_or(8, Fraction(1, 4), GF2), Fraction(5, 32)),
        "compose": compose(razborov_or(2, E8, GF2), [razborov_or(8, E8, GF2)] * 2),
        "sum": sum_recipes(
            [
                exact_recipe(GF2, [named_spectrum("THR", 8, 1)]),
                exact_recipe(GF2, [named_spectrum("THR", 8, 2)]),
            ],
            [1, 1],
            xor_spectra(
                named_spectrum("THR", 8, 1), named_spectrum("THR", 8, 2)
            ),
        ),
        "xor": xor_combine(razborov_or(8, E8, GF2), exact_recipe(GF2, [maj8])),
    }
    branch_seen = {
        recipes[f"threshold_tuple[{b}]"].params["branch"]
        for b in ("exact", "hash", "inductive")
    }
    assert branch_seen == {"exact", "hash", "inductive"}

    lines = []
    for name, recipe in recipes.items():
        audit = degree_audit(recipe, draws=1000, seed=11)
        assert audit.max_tracked <= recipe.declared_degree_bound, name
        assert audit.max_expanded is not None, name
        assert audit.max_expanded <= audit.max_tracked, name
        lines.append(f"{name}:{audit.max_tracked}<={recipe.declared_degree_bound}")
    _verdict(5, True, f"{len(recipes)} kinds audited ({', '.join(lines)})")


def test_06_degree_recurrence_closes_in_regime():
    """The proved-constants recursion closes at 10^4 points in its regime.

    Points (t, eps) are log-spaced over eps <= 2^-100 and
    t > 160000*log2(1/eps); every point must pass for characteristics
    2, 3, 5 and 0.
    """
    exponents = sorted({round(100 * (1000 ** (i / 99))) for i in range(100)})
    assert len(exponents) == 100
    eps_of = {L: Fraction(1, 1 << L) for L in exponents}
    points = []
    for L in exponents:
        for j in range(100):
            t = math.floor(160000 * L * (10000 ** (j / 99))) + 1
            points.append((t, L))
    assert len(points) == 10_000

    profiles = {
        p: paper_profile(FieldSpec(p) if p else RATIONALS) for p in (2, 3, 5, 0)
    }
    audited = 0
    for t, L in points:
        eps = eps_of[L]
        for p, profile in profiles.items():
            assert recurrence_audit(t, eps, profile, p), (t, L, p)
            audited += 1
    _verdict(6, True, f"{audited} audits passed across 10^4 (t, eps) points")


def test_07_reduction_certificate_corpus():
    """Fixed corpus of reductions: every certificate checks out pointwise.

    Modular counting from short aperiodic periods at n = 18, the windowed
    majority family over an (n, b, eps) sweep with its four parameter
    constraints re-asserted from the certificate, complemented thresholds
    from radius-1 and radius-3 spectra at n = 18, and majority from the
    18-input majority itself.  Shift products must stay within log2 of the
    pattern length.
    """
    certs_checked = 0

    # Short period, not a characteristic power: modular counting targets.
    for pattern, field in (
        ("10", FieldSpec(3)),
        ("10", FieldSpec(5)),
        ("100", GF2),
        ("100110", FieldSpec(5)),
    ):
        g = _tile(pattern, 18)
        for cert in mod_from_periodic(g, field):
            assert identity_check(
                spectrum(cert.target_spectrum),
                cert.slot_spectra(),
                cert.combiner,
                field,
            ), (pattern, cert.target_params)
            b = cert.extras["period"]
            assert cert.claimed_degree <= math.floor(math.log2(b))
            assert cert.combiner.degree == cert.claimed_degree
            certs_checked += 1

    # Characteristic-power periods: windowed majority with parameter sweep.
    selected = 0
    rejected = 0
    sweep = [
        (2, n, b, eps)
        for n in (2000, 2500)
        for b in (16, 32, 64, 128, 256, 512)
        for eps in (Fraction(1, 8), Fraction(1, 1 << 20))
    ]
    sweep += [
        (3, 2000, b, Fraction(1, 8)) for b in (9, 27, 81)
    ]
    sweep.append((2, 10300, 1024, Fraction(1, 8)))
    cases_seen = set()
    for p, n, b, eps in sweep:
        field = FieldSpec(p)
        g = _tile([1] + [0] * (b - 1), n)
        try:
            cert = maj_from_periodic(g, eps, field)
        except ValueError:
            rejected += 1
            continue
        selected += 1
        m = cert.extras["m"]
        delta = Fraction(cert.extras["delta"])
        cases_seen.add(cert.extras["case"])
        # window size: feasible and of the right parity
        assert 1 <= m <= n - b and (m - (n - b)) % 2 == 0, (n, b, eps)
        # confidence bracketed between the target error and 1/5
        assert Fraction(1, 5) >= delta >= max(eps, Fraction(1, 1 << m))
        # pinned window fits inside one period
        reach = math.sqrt(m * _log2_inv(delta))
        assert 4 * reach <= b, (n, b, eps)
        # and is wide enough to be useful
        floor_req = min(b, math.sqrt(n * _log2_inv(eps))) / 40
        assert reach >= floor_req, (n, b, eps)
        assert Fraction(cert.extras["tail"]) <= delta
        assert cert.claimed_degree <= math.floor(math.log2(b))
        assert identity_check(
            spectrum(cert.target_spectrum),
            cert.slot_spectra(),
            cert.combiner,
            field,
        ), (n, b, eps)
        certs_checked += 1
    assert selected >= 10, (selected, rejected)
    assert cases_seen == {1, 2, 3}

    # Bounded spectra: complemented thresholds over the rationals and GF(2).
    nor18 = _tile([1] + [0] * 18, 18)
    radius3 = Spectrum(tuple(1 if w == 2 else 0 for w in range(19)))
    for src, want_blocks in ((nor18, 1), (radius3, 1)):
        cert = thr_complement_from_bounded(src)
        assert cert.extras["blocks"] >= want_blocks
        for field in (RATIONALS, GF2):
            assert identity_check(
                spectrum(cert.target_spectrum),
                cert.slot_spectra(),
                cert.combiner,
                field,
            )
        certs_checked += 1
    assert thr_complement_from_bounded(radius3).extras["radius"] == 3

    # Aperiodic middle window: majority out of majority.
    cert = maj_from_general(named_spectrum("MAJ", 18), GF2)
    assert identity_check(
        spectrum(cert.target_spectrum), cert.slot_spectra(), cert.combiner, GF2
    )
    pts = cert.extras["interval_points"]
    assert cert.extras["picks"] <= math.floor(math.log2(2 * pts))
    certs_checked += 1

    _verdict(
        7,
        True,
        f"{certs_checked} certificates exact; sweep kept {selected}, "
        f"rejected {rejected}, cases {sorted(cases_seen)}",
    )


def test_08_amplification_and_xor_contracts():
    """Majority voting amplifies 1/4 to 5/32 with 3 votes and 10/64 error.

    The child errs with probability exactly 1/4 on a chosen point; three
    votes give a wrong majority with probability 10/64 <= 5/32, confirmed by
    enumerating the composite randomness space.  XOR composition declares
    the sum of its children's degrees.
    """
    child = razborov_or(2, Fraction(1, 4), GF2)
    amp = amplify(child, Fraction(5, 32))
    assert amp.params["votes"] == 3

    x = [GF2.element(1), GF2.element(0)]
    want = GF2.element(1)
    child_err = sum(
        (
            prob
            for prob, exprs in enumerate_draws(child)
            if eval_expr(exprs[0], x, GF2) != want
        ),
        Fraction(0),
    )
    assert child_err == Fraction(1, 4)
    amp_err = sum(
        (
            prob
            for prob, exprs in enumerate_draws(amp)
            if eval_expr(exprs[0], x, GF2) != want
        ),
        Fraction(0),
    )
    assert amp_err == Fraction(10, 64)
    assert amp_err <= Fraction(5, 32)

    a = razborov_or(6, Fraction(1, 8), GF2)
    b = exact_recipe(GF2, [named_spectrum("MAJ", 6)])
    combined = xor_combine(a, b)
    assert (
        combined.declared_degree_bound
        == a.declared_degree_bound + b.declared_degree_bound
    )
    _verdict(
        8,
        True,
        f"3 votes, exact composite error {amp_err}, xor degree "
        f"{combined.declared_degree_bound} = {a.declared_degree_bound}"
        f"+{b.declared_degree_bound}",
    )


def test_09_bound_classification_golden_table():
    """Frozen classification table: any case-label change fails the gate.

    Fifty named spectra x (eps, field) rows with hand-audited case labels,
    periods, radii and bound magnitudes.
    """
    with open(os.path.join(DATA_DIR, "bounds_golden.json")) as fh:
        rows = json.load(fh)
    assert len(rows) == 50
    mismatches = []
    for row in rows:
        f = named_spectrum(row["kind"], row["n"], *row["params"])
        report = predicted_bounds(
            f, _parse_eps(row["eps"]), FieldSpec(row["characteristic"])
        )
        label = f"{row['kind']}_{row['n']}{row['params']} eps={row['eps']} p={row['characteristic']}"
        if report.case != row["case"]:
            mismatches.append(f"{label}: case {report.case} != {row['case']}")
            continue
        if (report.period, report.radius) != (row["period"], row["radius"]):
            mismatches.append(f"{label}: period/radius moved")
        if abs(report.upper - row["upper"]) > 1e-8 * max(1.0, row["upper"]):
            mismatches.append(f"{label}: upper {report.upper} != {row['upper']}")
        if (report.lower is not None) != row["lower_defined"]:
            mismatches.append(f"{label}: lower definedness changed")
    _verdict(9, not mismatches, f"{50 - len(mismatches)}/50 golden rows stable")
    assert not mismatches, mismatches
