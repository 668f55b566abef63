"""Seeded inputs for the three workloads, as plain data.

This module imports only the standard library, so the set-up time it adds
is the cost of generating inputs, not of importing pdeg.  The same seed
always gives the same inputs; pdeg receives only what is generated here.

The job lists are sized so that one pass (one run of every job) takes
about 7 to 17 seconds on a 2-core machine, so a 40-second run holds two to
five passes.  `tiny` shrinks every size for the smoke test.
"""

from __future__ import annotations

import random
from fractions import Fraction

EIGHTH = Fraction(1, 8)
SMALL_EPS = Fraction(1, 1 << 20)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"pdeg-bench/{workload}/{seed}")


def _seeds(rng: random.Random, k: int) -> list[int]:
    return [rng.randrange(1 << 31) for _ in range(k)]


# Draws per recipe whose tracked degrees are audited.  The max over draws
# of a randomized recipe settles only after a few dozen draws: the hashed
# branch's degree follows its fullest bucket.
AUDIT_DRAWS = 32


def _audit_seeds(rng: random.Random, tiny: bool) -> list[int]:
    return _seeds(rng, 2 if tiny else AUDIT_DRAWS)


def _bits(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(2) for _ in range(n + 1))


def verify_mc(seed: int, tiny: bool = False) -> dict:
    """Stratified Monte Carlo verification of threshold tuples (test_04 shape).

    n = 100 with thresholds (1,) (hash branch) and (3, 7) (inductive branch)
    over GF(2), GF(3) and Q; the hash branch over Q runs at n = 40 because a
    trial there costs over 150 ms at n = 100.  Every threshold 0..n is a single
    deterministic draw whose components share the most work.  The four
    eps = 2^-20 configurations of test_04 take the exact branch.
    """
    rng = _rng("verify-mc", seed)
    n_big, n_q_hash, trials = (24, 12, 2) if tiny else (100, 40, 32)
    configs = []
    for p in (2, 3, 0):
        configs.append((p, n_q_hash if p == 0 else n_big, (1,), EIGHTH))
        configs.append((p, n_big, (3, 7), EIGHTH))
        configs.append((p, n_big, tuple(range(n_big + 1)), EIGHTH))
    for n in (n_q_hash, n_big):
        for thresholds in ((1,), (3, 7)):
            configs.append((2, n, thresholds, SMALL_EPS))
    return {
        "configs": [
            {
                "field": p,
                "n": n,
                "thresholds": thresholds,
                "eps": eps,
                "trials": trials,
                "mc_seed": rng.randrange(1 << 31),
                "draw_seeds": _audit_seeds(rng, tiny),
            }
            for p, n, thresholds, eps in configs
        ]
    }


FAMILIES = (("MAJ",), ("OR",), ("MOD", 3, 0), ("THR", 10))


def construct_families(seed: int, tiny: bool = False) -> dict:
    """What `analyze`, `bounds`, `construct` and `sample` do, one job each.

    Every named family over every field at the smallest size, MAJ at the
    larger sizes, and a seeded random spectrum, which takes the direct
    route.  Construction cost grows as about n^3.3, so n = 200 runs over Q
    only and n = 300 over GF(2) only.  MOD 3 0 over Q is left out: scoring
    its draw point by point costs more than building its recipe, and this
    workload is about building.
    """
    rng = _rng("construct-families", seed)
    small, mid, big = (12, 16, 20) if tiny else (100, 200, 300)
    jobs = [
        {"family": family, "n": small, "field": p}
        for p in (2, 3, 0)
        for family in FAMILIES
        if not (p == 0 and family[0] == "MOD")
    ]
    jobs.append({"bits": _bits(rng, small), "n": small, "field": 2})
    jobs.append({"family": ("MAJ",), "n": mid, "field": 0})
    jobs.append({"family": ("MAJ",), "n": big, "field": 2})
    for job in jobs:
        job["eps"] = EIGHTH
        job["draw_seeds"] = _audit_seeds(rng, tiny)
    return {"jobs": jobs}


# Exhaustive checks: (kind, n) -> trials.  Each trial evaluates a draw at
# all 2^n points, so trials shrink as n grows.  pdeg's `passed` allows eps
# plus three standard deviations; at weights 0 and n (one point each) the
# error frequency is Binomial(trials, q) / trials, whose tail beyond that
# allowance is not small when q is close to eps.  So these recipes run at
# about two thirds of their error budget: razborov_or at eps = 15/64 errs
# with probability 1/8, and three votes of a 1/4-error disjunction err
# with probability 5/32 against eps = 1/5.  At these trial counts a correct
# recipe fails `passed` with probability below 1e-4 per report.
EXHAUSTIVE_EPS = {"razborov_or": Fraction(15, 64), "amplify": Fraction(1, 5)}
EXHAUSTIVE_TRIALS = {
    ("razborov_or", 10): 16,
    ("razborov_or", 12): 8,
    ("razborov_or", 14): 2,
    ("amplify", 10): 2,
    ("amplify", 12): 2,
    ("amplify", 14): 1,
}


def audit_certify(seed: int, tiny: bool = False) -> dict:
    """Expansion audits, exhaustive verification and a certificate corpus.

    (a) Draws of razborov_or, amplify(razborov_or), xor_combine and
    general_recipe(MAJ) at n in {10, 12} over GF(2), and of char0_or at
    n = 8, expanded to multilinear form.  (b) Exhaustive empirical_error
    on razborov_or and amplify(razborov_or) at n in {10, 12, 14}, checked
    against exact_error.  (c) test_07's corpus scaled up: modular counting
    at n = 2000, the windowed-majority sweep with n = 10300, b = 1024 (the
    only scale case 3 certificate), complemented thresholds and threshold
    restrictions at n = 1000, and majority from MAJ and random spectra at
    n = 240.
    """
    rng = _rng("audit-certify", seed)
    expand_ns = (4, 5) if tiny else (10, 12)
    expand = []
    for n in expand_ns:
        for kind in ("razborov_or", "amplify", "xor", "general_maj"):
            expand.append({"kind": kind, "n": n, "field": 2, "eps": EIGHTH})
    expand.append({"kind": "char0_or", "n": 4 if tiny else 8, "field": 0, "eps": EIGHTH})
    for job in expand:
        job["draw_seeds"] = _audit_seeds(rng, tiny)

    exhaustive = []
    for kind in ("razborov_or", "amplify"):
        for n in ((4, 5) if tiny else (10, 12, 14)):
            exhaustive.append(
                {
                    "kind": kind,
                    "n": n,
                    "eps": EXHAUSTIVE_EPS[kind],
                    "trials": 2 if tiny else EXHAUSTIVE_TRIALS[kind, n],
                    "mc_seed": rng.randrange(1 << 31),
                }
            )

    mod_n, thr_n, general_n = (18, 30, 60) if tiny else (2000, 1000, 240)
    mod = [
        {"pattern": pattern, "field": p, "n": mod_n}
        for pattern, p in (("10", 3), ("10", 5), ("100", 2), ("100110", 5))
    ]
    if tiny:
        sweep = [(2, 200, b, EIGHTH) for b in (8, 16, 32)]
    else:
        sweep = [
            (2, n, b, eps)
            for n in (2000, 2500)
            for b in (16, 32, 64, 128, 256, 512)
            for eps in (EIGHTH, SMALL_EPS)
        ]
        sweep += [(3, 2000, b, EIGHTH) for b in (9, 27, 81)]
        sweep.append((2, 10300, 1024, EIGHTH))
    maj_periodic = [{"field": p, "n": n, "b": b, "eps": eps} for p, n, b, eps in sweep]
    thr_complement = [
        {"source": source, "n": thr_n} for source in ("nor", "radius3")
    ]
    thr_restrictions = [
        {"n": thr_n, "t": t} for t in sorted(rng.sample(range(1, thr_n // 2 + 1), 3))
    ]
    maj_general = [{"family": ("MAJ",), "n": general_n}] + [
        {"bits": _bits(rng, general_n), "n": general_n} for _ in range(2)
    ]
    return {
        "expand": expand,
        "exhaustive": exhaustive,
        "mod": mod,
        "maj_periodic": maj_periodic,
        "thr_complement": thr_complement,
        "thr_restrictions": thr_restrictions,
        "maj_general": maj_general,
    }


WORKLOADS = {
    "verify-mc": verify_mc,
    "construct-families": construct_families,
    "audit-certify": audit_certify,
}
