"""Seeded construction output stays byte-identical.

Each case hashes a recipe's JSON together with the values of its draw 0 at
every point 1^w 0^(n-w).  The digests were recorded before step windows were
built in closed form; a change to construction that moves any coefficient,
branch or sampled draw shows up here.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from pdeg.polyalg import GF2, RATIONALS, FieldSpec
from pdeg.probpoly import (
    eval_expr,
    general_recipe,
    practical_profile,
    sample,
    threshold_tuple,
)
from pdeg.reductions import (
    maj_from_general,
    maj_from_periodic,
    mod_from_periodic,
    shrink_support,
    thr_complement_from_bounded,
    thr_restrictions,
)
from pdeg.symfun import Spectrum, complement_spectrum, named_spectrum

GF3 = FieldSpec(3)
EIGHTH = Fraction(1, 8)
FIELDS = {"GF2": GF2, "GF3": GF3, "Q": RATIONALS}


def seeded_digest(recipe) -> str:
    n = recipe.n
    values = [
        [str(eval_expr(e, [1] * w + [0] * (n - w), recipe.field)) for w in range(n + 1)]
        for e in sample(recipe, 0)
    ]
    blob = json.dumps({"recipe": recipe.to_json(), "draw0": values}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


GENERAL_DIGESTS = {
    ("MAJ", "GF2"): (
        "ab4616d750b118b9cc8b2f6a6b3666f5cbc0fb9b7612395af957af50452b5b47"
    ),
    ("MAJ", "GF3"): (
        "a946cbb94d142e342c42b8ead3a99abc0f4ffb122aec80fbd975161b7f237cba"
    ),
    ("MAJ", "Q"): (
        "528a084ae3ffb87db845d9b63bf84b6a91fe978bc1bb6f0de6be8361702bce08"
    ),
    ("OR", "GF2"): (
        "a63801157ab13b9e22f21ef61124c774629ef23a1ab39bae1d0f9bc4a881e7c9"
    ),
    ("OR", "GF3"): (
        "c52c65809a354f08a98d6284c8fcb97db53657b706a368f3d0f2c71827fc105f"
    ),
    ("OR", "Q"): (
        "79fae27531021961d395431b6f90cf4a8e9a7c4507808369d062530d9e0e68b5"
    ),
    ("MOD 3 0", "GF2"): (
        "224d22d3c43c305a764cdb1bed805222ac67aa50d6fe5f72032b41996ac41d29"
    ),
    ("MOD 3 0", "GF3"): (
        "b9b4cfddc6aa2f857a3315a50f077246a837224ff531f8b671364c1ade117f65"
    ),
    ("MOD 3 0", "Q"): (
        "22f6a348950ff0eb9aa583e715065eac38837c39d771057b49d0ac0f411de4b5"
    ),
    ("THR 10", "GF2"): (
        "2a066d78d0db0f3b36d4cd3aa84949fd04815fb17f903d3206472f738f348322"
    ),
    ("THR 10", "GF3"): (
        "9fd116434bc96933b674582e7e6c6433d9a6f8a2f4d48999404f9233c836b43d"
    ),
    ("THR 10", "Q"): (
        "b8593354eab87791f8225fa04e107446f8f817dbb58c97d42907173c9d735baa"
    ),
}

THRESHOLD_TUPLE_DIGEST = (
    "080368afaf2a78a6ce285f9eb7b29c78182517d4c135896158cf5402c447a83d"
)


@pytest.mark.parametrize("family, field_name", sorted(GENERAL_DIGESTS))
def test_general_recipe_output_is_pinned(family, field_name):
    kind, *params = family.split()
    field = FIELDS[field_name]
    f = named_spectrum(kind, 60, *(int(x) for x in params))
    recipe = general_recipe(f, EIGHTH, field, practical_profile(field))
    assert seeded_digest(recipe) == GENERAL_DIGESTS[family, field_name]


def test_full_threshold_tuple_output_is_pinned():
    recipe = threshold_tuple(100, range(101), EIGHTH, GF2, practical_profile(GF2))
    assert seeded_digest(recipe) == THRESHOLD_TUPLE_DIGEST


# ---------------------------------------------------------------------------
# Reduction certificates and support shrinking.  These digests were recorded
# before certificates were checked over bit-packed weight columns and before
# the support shrink ran on int masks.

GF5 = FieldSpec(5)
RED_FIELDS = {"GF2": GF2, "GF3": GF3, "GF5": GF5}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _tile(pattern, n: int) -> Spectrum:
    b = len(pattern)
    return Spectrum(tuple(int(pattern[w % b]) for w in range(n + 1)))


def _certs_or_error(build):
    try:
        certs = build()
    except ValueError as exc:
        return {"error": str(exc)}
    return [cert.to_json() for cert in certs]


def _random_family(rng: random.Random):
    """A random complement-closed 0/1 family on 1..24 points.

    About a third are shuffled, so a complement can come before its member,
    and a fifth repeat a member.  Some are not separating, so the greedy
    raises; those pin the error text.
    """
    m = rng.randint(1, 24)
    base = [
        tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(1, 7))
    ]
    if rng.random() < 0.2:
        base.append(rng.choice(base))
    family = base + [tuple(1 - v for v in f) for f in base]
    if rng.random() < 0.35:
        rng.shuffle(family)
    return family


def _shrink_or_error(family):
    try:
        result = shrink_support(family)
    except ValueError as exc:
        return {"error": str(exc)}
    return [list(result.chosen), result.support_point]


MOD_PERIODIC_DIGESTS = {
    ("10", "GF2"): (
        "36187a3a96500d00c4e08e8770ad6a2ac569a08e03534a972f5df2483a2afd8c"
    ),
    ("10", "GF3"): (
        "c48572ef551375dda6ae3cc286d6040add49883d622bcc48141018a595f63e2c"
    ),
    ("10", "GF5"): (
        "c48572ef551375dda6ae3cc286d6040add49883d622bcc48141018a595f63e2c"
    ),
    ("100", "GF2"): (
        "17155a5f302ebe5872c44966d8b25dd1459ea24d07ac712f5e85a4ec347c1220"
    ),
    ("100", "GF3"): (
        "5de71c60020fea167c9ac06018d362e8f91ed27fd09be2c92869aaabb5d17de7"
    ),
    ("100", "GF5"): (
        "17155a5f302ebe5872c44966d8b25dd1459ea24d07ac712f5e85a4ec347c1220"
    ),
    ("100110", "GF2"): (
        "af376b5b1942979c7e970c6e01536bb44bffe0b2f42273c39fe0061589ab4046"
    ),
    ("100110", "GF3"): (
        "71f26be42a3dce673865c156943c39dd4e89c8c961e147d9977fa96e1b61e55a"
    ),
    ("100110", "GF5"): (
        "71f26be42a3dce673865c156943c39dd4e89c8c961e147d9977fa96e1b61e55a"
    ),
}

MAJ_PERIODIC_DIGESTS = {
    (2000, 64): (
        "85c9ea2f2f526f087dbf7f46a836ec2b95037a06fbfc01e58cfb24f4c1402ef6"
    ),
    (2000, 256): (
        "5631b89b6361298062196087e2e5f84f65b93f467ad077c340653c8123c15966"
    ),
    (10300, 1024): (
        "fba75d5989c0e89854196ee0e1a57363e744ec2f2d97adeb3fe42565f89fe64f"
    ),
}

OTHER_REDUCTION_DIGESTS = {
    "thr_complement NOR 1000": (
        "017a6d6b0d277fdfcb2d3b9bd43e4c1644ee24bd393f7016726f96cd8f277b5f"
    ),
    "thr_restrictions 1000 158": (
        "baa7d34950f21eb684b85fdfab094ce5343845e5981f4138b70edecdacf9e66a"
    ),
    "maj_from_general MAJ 240": (
        "455f536cc01d0c632573c85c6c54cb177131c188a5d09cb72e2148f5a7f984e0"
    ),
    "maj_from_general random 240": (
        "55e1ec44db2bfeaea5b869e33223d7658d213132cfa0981e5d75772ef2d04018"
    ),
}

SHRINK_SUPPORT_DIGEST = (
    "b75da0270804939dd7ba985fa8784cb3868d2f2ca7e6814b1aa06c0d0b07c4fe"
)


@pytest.mark.parametrize("pattern, field_name", sorted(MOD_PERIODIC_DIGESTS))
def test_mod_from_periodic_output_is_pinned(pattern, field_name):
    g = _tile(pattern, 2000)
    blob = _certs_or_error(lambda: mod_from_periodic(g, RED_FIELDS[field_name]))
    assert _digest(blob) == MOD_PERIODIC_DIGESTS[pattern, field_name]


@pytest.mark.parametrize("n, b", sorted(MAJ_PERIODIC_DIGESTS))
def test_maj_from_periodic_output_is_pinned(n, b):
    g = _tile([1] + [0] * (b - 1), n)
    blob = _certs_or_error(lambda: (maj_from_periodic(g, EIGHTH, GF2),))
    assert _digest(blob) == MAJ_PERIODIC_DIGESTS[n, b]


def _random_spectrum(n: int, seed: int) -> Spectrum:
    rng = random.Random(seed)
    return Spectrum(tuple(rng.randint(0, 1) for _ in range(n + 1)))


OTHER_REDUCTIONS = {
    "thr_complement NOR 1000": lambda: (
        thr_complement_from_bounded(complement_spectrum(named_spectrum("OR", 1000))),
    ),
    "thr_restrictions 1000 158": lambda: thr_restrictions(1000, 158),
    "maj_from_general MAJ 240": lambda: (
        maj_from_general(named_spectrum("MAJ", 240), GF2),
    ),
    "maj_from_general random 240": lambda: (
        maj_from_general(_random_spectrum(240, 240), GF2),
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_REDUCTION_DIGESTS))
def test_other_reduction_output_is_pinned(name):
    blob = _certs_or_error(OTHER_REDUCTIONS[name])
    assert _digest(blob) == OTHER_REDUCTION_DIGESTS[name]


def test_shrink_support_output_is_pinned():
    rng = random.Random(5150)
    blob = [_shrink_or_error(_random_family(rng)) for _ in range(200)]
    assert _digest(blob) == SHRINK_SUPPORT_DIGEST
