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

from pdeg.polyalg import GF2, RATIONALS, FieldSpec, exact_sympoly
from pdeg.probpoly import (
    Constant,
    ConstantsProfile,
    LinearForm,
    Power,
    SymApply,
    Var,
    amplify,
    char0_or,
    compose,
    eval_expr,
    exact_recipe,
    expr_from_json,
    expr_to_json,
    general_recipe,
    practical_profile,
    razborov_or,
    sample,
    threshold_tuple,
    xor_combine,
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
from pdeg.verify import empirical_error, expand_expr

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


# ("OR", "GF2") was re-recorded when all-ones threshold tuples took one
# disjunction per draw in place of the hashed branch: its draw 0 now errs at
# weight 50.  Over GF(3) and Q draw 0 is right at every weight on both
# routes, and the recipe JSON does not name the branch of its descendants.
# MAJ, OR and THR 10 were re-recorded when the direct route came to
# telescope through only the weights a spectrum steps at: MAJ's threshold
# list and declared degree changed, and OR and THR 10 moved from the
# decomposition route to the direct one.  ("OR", "GF2") was re-recorded
# again when samplers came to read SHAKE-256 streams in place of
# random.Random: its draw 0 changed.
GENERAL_DIGESTS = {
    ("MAJ", "GF2"): (
        "1c255d84b127b22aea213e820be837414b04bf5714c90371d65da39b2e34c709"
    ),
    ("MAJ", "GF3"): (
        "55f6448ea00f70435fee9ef56969b06ff4e9e2f05a87aa9ea00ce41509d88161"
    ),
    ("MAJ", "Q"): (
        "e5661e5603bc5c56dc0ad18a2f0eb82ae6825f325390be5261884021713cc0d5"
    ),
    ("OR", "GF2"): (
        "c3ec01bc6b5124f00a39b3c2d7c010c53b0c5c6d33939325b4d28ae4026209d7"
    ),
    ("OR", "GF3"): (
        "4aa254c2dfa6f4d918a2cc97fa5d8ba48a81eb46d0652416089932578d2b1bd1"
    ),
    ("OR", "Q"): (
        "fa980ce5f61f505b254f20c2c160e45f987e1fda54af876ed4ed3cb0345fe0e2"
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
        "e8646fdd509e69d3ed6c6f04aeb61a35593da180df9645abc862f28caf2018c0"
    ),
    ("THR 10", "GF3"): (
        "6ba30e3c469900ec0d08d4e8fa1d0e70efafe59589165b7e501476339fb63ec7"
    ),
    ("THR 10", "Q"): (
        "b7d34e1fd571d5ff6b7a341f1974b7f95f2aa6b88dc4cab09f8dc71bc660be96"
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


# ---------------------------------------------------------------------------
# Exhaustive error reports and multilinear expansions.  These digests were
# recorded while exhaustive scoring still evaluated every cube point with
# eval_expr and expand_expr still multiplied sparse MultilinearPoly terms.
# Every digest of a recipe that draws randomness and whose draws moved was
# re-recorded when samplers came to read SHAKE-256 streams in place of
# random.Random.

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
CUBE_RECIPES = {
    "razborov_or GF2 10": lambda: razborov_or(10, QUARTER, GF2),
    "razborov_and GF3 8": lambda: razborov_or(8, EIGHTH, GF3, negate=True),
    "razborov_or GF5 8": lambda: razborov_or(8, EIGHTH, GF5),
    "char0_or Q 6": lambda: char0_or(6, EIGHTH),
    "amplify GF2 8": lambda: amplify(razborov_or(8, QUARTER, GF2), Fraction(5, 32)),
    "amplify GF3 8": lambda: amplify(razborov_or(8, QUARTER, GF3), Fraction(5, 32)),
    "threshold exact GF2 8": lambda: threshold_tuple(
        8, (1, 3), EIGHTH, GF2, practical_profile(GF2)
    ),
    "threshold hash GF3 8": lambda: threshold_tuple(8, (1,), TINY_EPS, GF3, TINY),
    "threshold hash Q 8": lambda: threshold_tuple(8, (1,), TINY_EPS, RATIONALS, TINY),
    "threshold inductive GF5 8": lambda: threshold_tuple(
        8, (2, 5), QUARTER, GF5, TINY
    ),
    "threshold inductive Q 8": lambda: threshold_tuple(
        8, (2, 5), QUARTER, RATIONALS, TINY
    ),
    "general MAJ GF2 8": lambda: general_recipe(
        named_spectrum("MAJ", 8), EIGHTH, GF2, practical_profile(GF2)
    ),
    "general MAJ GF5 8": lambda: general_recipe(
        named_spectrum("MAJ", 8), EIGHTH, GF5, practical_profile(GF5)
    ),
    "xor GF2 8": lambda: xor_combine(
        razborov_or(8, EIGHTH, GF2), exact_recipe(GF2, [named_spectrum("MAJ", 8)])
    ),
    "compose GF2 8": lambda: compose(
        razborov_or(2, EIGHTH, GF2), [razborov_or(8, EIGHTH, GF2)] * 2
    ),
}

EXHAUSTIVE_DIGESTS = {
    "amplify GF2 8": (
        "3c52f7bf6083856ef8adc35e9c740e5a86ddc29f8760acbea4097eaa145ec5d4"
    ),
    "amplify GF3 8": (
        "652fcea054e212c0883cce297fd25bf96e9791bbe00271d34468f7e9933951c9"
    ),
    "char0_or Q 6": (
        "2dc5fe44e6ad818583a9accd92d98c6493a78f4747ec7b43289e86ee45fb2198"
    ),
    "compose GF2 8": (
        "c8e3e49d3f8d5af861593438e0069b6cb1a3084b83234dad3c9b66e56940e304"
    ),
    "razborov_and GF3 8": (
        "40728f29059617f2508547315373209d2c9732d48638684394a247059f1a88c2"
    ),
    "razborov_or GF2 10": (
        "b3664793c7495aaa2883c03dc9995801826f967c218a008d9baaf78c4d8935cf"
    ),
    "razborov_or GF5 8": (
        "bebdd6138905a8fecf5d8bfa740589a1b72747eed08b42d4811f865dccdf372f"
    ),
    "threshold hash GF3 8": (
        "dde668ae3780015987f18c1f95333d8b73d681a889368ad8ab4f00356a811861"
    ),
    "threshold hash Q 8": (
        "dde668ae3780015987f18c1f95333d8b73d681a889368ad8ab4f00356a811861"
    ),
    "threshold inductive GF5 8": (
        "099e802f8f9635aa06f0f84574eacdd66c4173c3ce5e924e0213fcc5cde322f7"
    ),
    "threshold inductive Q 8": (
        "e022896f01a5984ddc40bbf30f400ad841488ace680bddacc8eae12e89a21724"
    ),
    "xor GF2 8": (
        "2f11cf380b786f07fffc381f29331e3706b09732c78de24dce3b326c4c1a26e5"
    ),
}

EXPAND_DIGESTS = {
    "amplify GF2 8": (
        "50f6b5b385a157460e4a27fcd9fed30f7fb5b7933380d137f9ac8b0f3670f019"
    ),
    "amplify GF3 8": (
        "03436a42937c343bc4ddf2ab044ae54d4ee2124a727595c638827d64f4ecac63"
    ),
    "char0_or Q 6": (
        "12d42df4767ea088b94b777df71994ae4a99f54f250f4815b9c059729cb47307"
    ),
    "compose GF2 8": (
        "d738a8149da43904488cbc815de987fe7ad54df07e35909f914ec15401c1220c"
    ),
    "general MAJ GF2 8": (
        "af09212999ee6a88fba9f1a7ac05174d41a016e5dbfe91e93942d476218ffb3a"
    ),
    "general MAJ GF5 8": (
        "e177cf6bb644b181acd92039c0fa41e0da076d96ab56786c6b400334de2704aa"
    ),
    "razborov_and GF3 8": (
        "49371aa9027aa4991693144de5bdfe8e9e5e3f8df87805817578b4c33f362b8e"
    ),
    "razborov_or GF2 10": (
        "44ba0adad2295ad2e7cc48a3077dd802f150a7d6137d92cbfd0d85704dda0453"
    ),
    "razborov_or GF5 8": (
        "260f5f78e26598b30193a4618ff73d49d4f64c73ec89c3d7a9f42dd92c49760d"
    ),
    "threshold exact GF2 8": (
        "0e0a92c93d3f2165e373062d4e5b7be431412d0c4f1cb8db9ea7bc0a327ea56f"
    ),
    "threshold hash GF3 8": (
        "134e54fe4fd9ef8487ccb53e2e0447e57947b0ab4b64ca2f7b756d4c0df7d280"
    ),
    "threshold hash Q 8": (
        "085adbe8798ae615c7ebd9ea0c71210a975baea6d44fb5ccabf8723df2e643d9"
    ),
    "threshold inductive GF5 8": (
        "96fa3b1eac4b620b36f790e27c028b283fe382190f6e507b23a8c1331b861ac8"
    ),
    "threshold inductive Q 8": (
        "e561fc103ab0ee499e7c9d4d15fceb1be644b4d314ef1b7eb1c0f8d7c7b7e4d4"
    ),
    "xor GF2 8": (
        "1ee5fa0397ffe74f1d68fcb577245867bac36890f0032f48621481936e0f9e22"
    ),
    "non-boolean GF3": (
        "e615c8d93eb7e1e7c6d856693c882971cafe14cc7cc8128051bfc209bd63afda"
    ),
    "non-boolean GF5": (
        "03caacfb0398390516a9a569b6807213a700f5184a1727b7e7b32378a384871a"
    ),
    "non-boolean Q": (
        "03dd6817d9d87d2868e2d0cf1a3d44ff72ce0e384aa5214d02d1f35adad49432"
    ),
}


def _non_boolean_draw(field):
    """SymApply nodes whose inputs take values other than 0 and 1."""
    maj3 = exact_sympoly(named_spectrum("MAJ", 3), field)
    form = LinearForm((1, 2, 1), (0, 1, 3))
    return (
        SymApply(maj3, (Var(0), form, Constant(field.element(2)))),
        SymApply(maj3, (Power(form, 2), Var(3), Var(3), form)),
    )


def _expand_blob(name):
    if name.startswith("non-boolean"):
        field = {"GF3": GF3, "GF5": GF5, "Q": RATIONALS}[name.split()[1]]
        draws = [_non_boolean_draw(field)]
        n = 5
    else:
        recipe = CUBE_RECIPES[name]()
        field, n = recipe.field, recipe.n
        draws = [sample(recipe, seed) for seed in range(3)]
    return [[expand_expr(e, n, field).to_json() for e in draw] for draw in draws]


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_DIGESTS))
def test_exhaustive_report_is_pinned(name):
    report = empirical_error(CUBE_RECIPES[name](), trials=6, seed=17)
    assert report.mode == "exhaustive"
    assert _digest(report.to_json()) == EXHAUSTIVE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXPAND_DIGESTS))
def test_expansion_is_pinned(name):
    assert _digest(_expand_blob(name)) == EXPAND_DIGESTS[name]


# ---------------------------------------------------------------------------
# Serialized draws.  expr_to_json numbers the nodes of a draw in the order
# its walk lists them and writes each shared node once, so these digests pin
# that order and the sharing of every rewrite a sampler makes: the inductive
# branch relabels its child's draw, the bounded construction reflects one
# half, and compose substitutes its inner draws.  Recorded while the rewrites
# and expr_to_json were still recursive.  The GF(2) and GF(3) digests of the
# threshold hash, threshold inductive, general OR, compose, xor and amplify
# draws were re-recorded once one_minus reduced its -1 coefficient into the
# field: the JSON writes p - 1 where it wrote -1, and no value changed.
# The three general OR digests were re-recorded again when all-ones threshold
# tuples took one disjunction per draw in place of the hashed branch.  The
# threshold hash, threshold inductive, general OR, compose, xor and amplify
# digests were re-recorded when samplers came to read SHAKE-256 streams in
# place of random.Random; the other recipes draw nothing.  The five Q digests
# of amplify, compose, general OR, threshold hash and xor were re-recorded
# when the char-0 disjunction their draws hold became one product over every
# run's level factors; values and tracked degrees did not move.  The six
# general MAJ and general bounded digests were re-recorded when a
# randomness-free telescoped or bounded recipe came to draw one weight
# polynomial folded at build, in place of a sum of windows (and, on the
# bounded half, reflected inputs); values did not move, and the bounded
# draws' tracked degrees fell to their true degrees (60 to 59 over GF(2),
# 60 to 56 over GF(3)).


def _or_recipe(n, eps, field):
    if field.characteristic == 0:
        return char0_or(n, eps)
    return razborov_or(n, eps, field)


DRAW_RECIPES = {
    "threshold exact": lambda F: threshold_tuple(
        8, (1, 3), EIGHTH, F, practical_profile(F)
    ),
    "threshold hash": lambda F: threshold_tuple(8, (1,), TINY_EPS, F, TINY),
    "threshold inductive": lambda F: threshold_tuple(8, (2, 5), QUARTER, F, TINY),
    "general MAJ": lambda F: general_recipe(
        named_spectrum("MAJ", 60), EIGHTH, F, practical_profile(F)
    ),
    "general OR": lambda F: general_recipe(
        named_spectrum("OR", 60), EIGHTH, F, practical_profile(F)
    ),
    "general bounded": lambda F: general_recipe(
        Spectrum((1, 0, 1) * 4 + (0,) * 37 + (1, 1, 0) * 4),
        EIGHTH,
        F,
        practical_profile(F),
    ),
    "compose": lambda F: compose(
        _or_recipe(3, EIGHTH, F), [_or_recipe(8, EIGHTH, F)] * 3
    ),
    "xor": lambda F: xor_combine(
        _or_recipe(8, EIGHTH, F), exact_recipe(F, [named_spectrum("MAJ", 8)])
    ),
    "amplify": lambda F: amplify(_or_recipe(8, QUARTER, F), Fraction(5, 32)),
}

# "general OR" was re-recorded when OR moved from the decomposition route to
# the direct one, which telescopes through its one step.  "threshold
# inductive" was re-recorded when a draw over a fixed child became A + B e
# per mixed component (tracked degrees fell, e.g. 12 -> 7 over GF(2)), and
# "general bounded", a decomposition over a fixed h, when its draw became
# f's interpolant; every value is the same.
DRAW_JSON_DIGESTS = {
    ("amplify", "GF2"): (
        "423f6bc58519daa422ccc5bb3f6c9385fa6e322f3c9ba48c3bea5e03eec6976c"
    ),
    ("amplify", "GF3"): (
        "a0d64eea7da4cd8b22abba2cfcca364bc328f60efee13a38b5741566f0a10676"
    ),
    ("amplify", "Q"): (
        "4e7020ef202f9a59e68a54a443d3fef066f051b3f3568e8899399ea6ff54a615"
    ),
    ("compose", "GF2"): (
        "337487c72cf101019d71227d6ad08307be3da0116dad8db38c8bce8809c70f1b"
    ),
    ("compose", "GF3"): (
        "0faf4e8648aa266a3ec0f764eb049cfb5380dc8e4eff3dc98abee9f7d768cc4b"
    ),
    ("compose", "Q"): (
        "eb69007627ce053995992191c92c260f21f6d799759ae7a0ef0fdc540a70473a"
    ),
    ("general MAJ", "GF2"): (
        "03568b4ef83f3e877d5255e8bb2e61f7f11a0d78d536375036efa751b4333faa"
    ),
    ("general MAJ", "GF3"): (
        "ce62c422a05d92a48f4344340ea208047a42d5d629aff63a25f1a4c84e022e62"
    ),
    ("general MAJ", "Q"): (
        "bbe9094094f2433de54b7e25d551080689bf888ba8ba5726b8d457d8179866c5"
    ),
    ("general OR", "GF2"): (
        "e880a56ec1ed6853053029cf63ce1e56802fc7febaeb0cb5e5da47a95059a895"
    ),
    ("general OR", "GF3"): (
        "ff6f9795e61888ce7abe760ddac6a29fc0b74f30225c91039665cb1a9717f384"
    ),
    ("general OR", "Q"): (
        "bc4041e343e2592dccff93607e5e8b65a4a92aff8b763b99107e7e4257ec51ab"
    ),
    ("general bounded", "GF2"): (
        "128d4847b02c1d4374ee121296c839ff39360ea72eda9fdd68f8484847f5369c"
    ),
    ("general bounded", "GF3"): (
        "7afe69056b55d2df68b133f2419eb9c6cd9396b634f112cc29d8d30d4e214ec2"
    ),
    ("general bounded", "Q"): (
        "c5a32e92ccd2801fe368217ff16f90d2241672c95da1900352c6b78b11fea3f4"
    ),
    ("threshold exact", "GF2"): (
        "a529301106fdd697c10fb8216fe1927484574293a50869f8f156c8165708b073"
    ),
    ("threshold exact", "GF3"): (
        "76eed202fbad0a0de7f997cafbca864bfe3c63a06896c4e0863c6e842e916059"
    ),
    ("threshold exact", "Q"): (
        "9d63010b3928c2263e064372dd1430da2bc3b2d2b06d789ce1c46c09b8bc0f54"
    ),
    ("threshold hash", "GF2"): (
        "3ac295aab8d05e5791a4f84882f999117e28477f33818a854fff75c09033b3bd"
    ),
    ("threshold hash", "GF3"): (
        "f1ce6e9c86a9855fb026e7fec2a23673414c30ac1d299ef8b1698da626be5cce"
    ),
    ("threshold hash", "Q"): (
        "62f5c626f956e379bdf1535439b3535434bf09cf98bcfe262698e6565d19cc13"
    ),
    ("threshold inductive", "GF2"): (
        "147a98162d2c70eae0d1bd51429cedabacf535feb5e4789cd503817af1418768"
    ),
    ("threshold inductive", "GF3"): (
        "eb11953c3e0d01e7e62520d006d9d37c8039f29879a8487104796be07ac02182"
    ),
    ("threshold inductive", "Q"): (
        "6a762148667a694084791e9ab6bca70cc8b5880d935b32ecb591eaf7f6491fde"
    ),
    ("xor", "GF2"): (
        "945b7a6217e59c55e78d740ec41705bf887e8df9aa2fd50bd06edd6ad7186d47"
    ),
    ("xor", "GF3"): (
        "e039257d5aff11d7939f9569ed7d4f3b4b1329b266205d0d1f121aa7ae8e53e6"
    ),
    ("xor", "Q"): (
        "979db5ded8495ddf5644fbf42813cf43d6e9ff14b7b5bb2e1d87edeb7f3e4edc"
    ),
}


@pytest.mark.parametrize("name, field_name", sorted(DRAW_JSON_DIGESTS))
def test_draw_json_is_pinned(name, field_name):
    field = FIELDS[field_name]
    recipe = DRAW_RECIPES[name](field)
    blob = [expr_to_json(sample(recipe, seed), field) for seed in range(3)]
    assert _digest(blob) == DRAW_JSON_DIGESTS[name, field_name]


@pytest.mark.parametrize("name", sorted(DRAW_RECIPES))
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_draw_json_is_canonical(name, field_name):
    """Serialized draws are in canonical form: parsing and re-serializing
    gives the same JSON."""
    field = FIELDS[field_name]
    recipe = DRAW_RECIPES[name](field)
    for seed in range(3):
        obj = expr_to_json(sample(recipe, seed), field)
        assert expr_to_json(expr_from_json(obj), field) == obj
