"""Seeded construction output stays byte-identical.

Each case hashes a recipe's JSON together with the values of its draw 0 at
every point 1^w 0^(n-w).  The digests were recorded before step windows were
built in closed form; a change to construction that moves any coefficient,
branch or sampled draw shows up here.
"""

import hashlib
import json
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
from pdeg.symfun import named_spectrum

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
