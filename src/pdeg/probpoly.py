"""Randomized low-degree polynomial representations of symmetric functions.

A Recipe describes a distribution over tuples of polynomial expressions: it
fixes the construction and all derived parameters, while sample(recipe, seed)
draws the actual coefficient choices.  Sampled polynomials are expression
DAGs (PolyExpr) carrying a tracked formal degree; the recipe's declared
degree bound must dominate the tracked degree of every possible draw, and
the recipe's error parameter bounds the per-point probability that a draw
disagrees with the target spectrum.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import compress, islice, product as iter_product
from operator import attrgetter, not_
from typing import Callable, Iterable, Iterator, Sequence

from .polyalg import (
    FieldElement,
    FieldSpec,
    SymPoly,
    ceil_log2_inv,
    check_eps,
    exact_sympoly,
    fraction_text,
    log2_inv,
    parse_fraction,
    periodic_exact,
    threshold_window,
)
from .symfun import (
    BOOLEAN,
    Spectrum,
    bounded_radius_flagged,
    complement_spectrum,
    min_t_constant,
    named_spectrum,
    spectrum as parse_spectrum,
    standard_decomposition,
    threshold_combination,
    xor_spectra,
)


# ---------------------------------------------------------------------------
# Deterministic randomness


class SeedStream:
    """Splittable deterministic randomness source.

    Children are derived by hashing a label into the parent key, so sibling
    streams are independent and the whole tree is a pure function of the
    root seed.
    """

    __slots__ = ("key",)

    def __init__(self, key: bytes):
        self.key = key

    @staticmethod
    def from_seed(seed: int) -> "SeedStream":
        return SeedStream(hashlib.sha256(b"root:" + str(int(seed)).encode()).digest())

    def child(self, label) -> "SeedStream":
        return SeedStream(
            hashlib.sha256(self.key + b"/" + repr(label).encode()).digest()
        )

    def rng(self) -> random.Random:
        digest = hashlib.sha256(self.key + b"#rng").digest()
        return random.Random(int.from_bytes(digest, "big"))


def _below(rng: random.Random, n: int, count: int) -> list[int]:
    """[rng.randrange(n) for _ in range(count)], drawn without randrange's
    Python frames.

    CPython's randrange(n) (3.10 to 3.13) is _randbelow_with_getrandbits:
    getrandbits(n.bit_length()) until the draw is below n.  The same calls
    are made here in the same order, so the values and the generator state
    afterwards are the ones randrange gives.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# Polynomial expression DAGs

_deg = attrgetter("deg")


@dataclass(eq=False, slots=True)
class Constant:
    value: FieldElement
    deg: int = 0


@dataclass(eq=False, slots=True)
class Var:
    index: int
    deg: int = 1


@dataclass(eq=False, slots=True)
class LinearForm:
    """sum_j coeffs[j] * x[indices[j]]; no constant term, degree 1."""

    coeffs: tuple[FieldElement, ...]
    indices: tuple[int, ...]
    deg: int = 1

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.indices):
            raise ValueError("coefficient/index length mismatch")


@dataclass(eq=False, slots=True)
class Power:
    base: "PolyExpr"
    exponent: int
    deg: int = 0

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise ValueError("exponent must be positive")
        object.__setattr__(self, "deg", self.exponent * self.base.deg)


@dataclass(eq=False, slots=True)
class Product:
    factors: tuple["PolyExpr", ...]
    deg: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "deg", sum(map(_deg, self.factors)))


@dataclass(eq=False, slots=True)
class Sum:
    """constant + sum_i terms[i][0] * terms[i][1]."""

    constant: FieldElement
    terms: tuple[tuple[FieldElement, "PolyExpr"], ...]
    deg: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "deg", max([t.deg for _, t in self.terms], default=0))


@dataclass(eq=False, slots=True)
class SymApply:
    """A weight polynomial applied to the tuple of input expressions.

    When every input evaluates to 0 or 1 the value is poly at the number of
    ones; in general the binomial-basis coefficients act on the elementary
    symmetric polynomials of the inputs.  Repeating an input counts it with
    multiplicity.  The inputs are split once, on creation, into the indices
    of the Var inputs, which evaluators count straight off the point, and
    the other inputs, which they walk.  An all-Var input tuple, the usual
    case, is split in one pass over the inputs.
    """

    poly: SymPoly
    inputs: tuple["PolyExpr", ...]
    deg: int = 0
    var_indices: Sequence[int] = dataclass_field(init=False, repr=False)
    others: tuple["PolyExpr", ...] = dataclass_field(init=False, repr=False)

    def __post_init__(self) -> None:
        inputs = self.inputs
        try:
            # Only Var has an index, so this is the all-Var case, and a Var
            # has degree 1.
            var_indices = [e.index for e in inputs]
            others: list = []
            inner = 1 if inputs else 0
        except AttributeError:
            var_indices, others = [], []
            for e in inputs:
                if type(e) is Var:
                    var_indices.append(e.index)
                else:
                    others.append(e)
            inner = max(map(_deg, inputs))
        object.__setattr__(self, "deg", self.poly.degree * inner)
        # Var inputs x_0..x_(m-1) in order, the usual case, are stored as a
        # range: recipes hold such nodes for their whole life, and a tuple
        # of n indices per node adds up.
        m = len(var_indices)
        split = range(m) if var_indices == list(range(m)) else tuple(var_indices)
        object.__setattr__(self, "var_indices", split)
        object.__setattr__(self, "others", tuple(others))


PolyExpr = Constant | Var | LinearForm | Power | Product | Sum | SymApply


def one_minus(e: PolyExpr, field: FieldSpec, constant: FieldElement = 1) -> Sum:
    """constant - e, with both coefficients reduced into the field."""
    return Sum(field.element(constant), ((field.element(-1), e),))


def sum_of(
    field: FieldSpec,
    terms: Iterable[tuple[FieldElement, PolyExpr]],
    constant: FieldElement = 0,
) -> Sum:
    """Sum node with coefficients normalized into the field; zero terms drop."""
    kept = []
    for c, e in terms:
        c = field.element(c)
        if c != 0:
            kept.append((c, e))
    return Sum(field.element(constant), tuple(kept))


def eval_expr(
    expr: PolyExpr, x: Sequence[FieldElement], field: FieldSpec, memo: dict | None = None
) -> FieldElement:
    """Evaluate at a point, sharing work across common subexpressions.

    One iterative walk with an explicit stack, so DAG depth is unbounded: a
    node stays on the stack until its operands are in memo, which is keyed
    by the nodes themselves (they hash by identity), so a memo kept across
    calls holds its nodes alive and never mistakes a new node for a freed
    one.  A Product multiplies its known factors in order, stops at the
    first zero partial product and pushes only its next unknown factor, so
    factors after a zero are never evaluated.  When the point and a
    SymApply's other inputs are all 0/1, the SymApply counts its ones and
    reads its weight polynomial at that count; otherwise it evaluates the
    elementary symmetric form, weight_poly_at_values.  Its Var inputs are
    read straight off the point; nodes with equal var_indices share one
    count per call, and nodes with the same other inputs share their
    values.  The count is looked up in the polynomial's cached value table,
    which a miss builds (SymPoly.table) for the node's whole input count, so
    every later point and call reads the same table.
    """
    if memo is None:
        memo = {}
    p = field.characteristic
    boolean_point = BOOLEAN.issuperset(x)
    # Per call, keyed by value: equal var_indices share one count, and
    # equal tuples of other inputs share their values and count of ones.
    var_counts: dict[Sequence[int], int] = {}
    other_reads: dict[tuple, tuple[list, int | None]] = {}
    stack = [expr]
    while stack:
        e = stack[-1]
        if e in memo:
            stack.pop()
            continue
        kind = type(e)
        if kind is Constant:
            val = e.value
        elif kind is Var:
            val = x[e.index]
        elif kind is LinearForm:
            acc = 0
            for c, i in zip(e.coeffs, e.indices):
                xi = x[i]
                if xi:
                    acc += c * xi
            val = acc % p if p else field.element(acc)
        elif kind is Sum:
            missing = [t for _, t in e.terms if t not in memo]
            if missing:
                stack += missing
                continue
            acc = e.constant
            for c, t in e.terms:
                acc += c * memo[t]
            val = acc % p if p else field.element(acc)
        elif kind is SymApply:
            others = e.others
            read = other_reads.get(others)
            if read is None:
                missing = [t for t in others if t not in memo]
                if missing:
                    stack += missing
                    continue
                vals = [memo[t] for t in others]
                ones = int(sum(vals)) if BOOLEAN.issuperset(vals) else None
                read = other_reads[others] = (vals, ones)
            other_vals, ones = read
            if boolean_point and ones is not None:
                var_idx = e.var_indices
                count = var_counts.get(var_idx)
                if count is None:
                    count = var_counts[var_idx] = int(sum(map(x.__getitem__, var_idx)))
                count += ones
                table = e.poly._table
                if table is None or count >= len(table):
                    table = e.poly.table(len(e.inputs))
                val = table[count]
            else:
                vals = list(map(x.__getitem__, e.var_indices)) + other_vals
                val = weight_poly_at_values(e.poly, vals, field)
        elif kind is Product:
            val = 1
            pending = None
            for f in e.factors:
                v = memo.get(f)
                if v is None:
                    pending = f
                    break
                val = val * v % p if p else val * v
                if val == 0:
                    break
            if pending is not None:
                stack.append(pending)
                continue
            if not p:
                val = field.element(val)
        elif kind is Power:
            base = memo.get(e.base)
            if base is None:
                stack.append(e.base)
                continue
            val = pow(base, e.exponent, p) if p else base**e.exponent
        else:
            raise TypeError(f"unknown expression node {kind!r}")
        memo[e] = val
        stack.pop()
    return memo[expr]


def weight_poly_at_values(
    poly: SymPoly, vals: Sequence[FieldElement], field: FieldSpec
) -> FieldElement:
    """sum_k coeffs[k] * e_k(vals), for inputs that need not be 0 or 1.

    e_k is the k-th elementary symmetric polynomial, built by the prefix
    recurrence e_k <- e_k + v * e_(k-1) up to the polynomial degree; on 0/1
    inputs it equals C(number of ones, k), which is what SymApply means.
    """
    p = field.characteristic
    d = min(poly.degree, len(vals))
    elem = [1] + [0] * d
    top = 0
    for v in vals:
        if v == 0:
            continue
        top = min(top + 1, d)
        for k in range(top, 0, -1):
            elem[k] += elem[k - 1] * v
        if p:
            elem = [e % p for e in elem]
    total = sum(c * e for c, e in zip(poly.coeffs, elem))
    return total % p if p else field.element(total)


def split_operands(e: PolyExpr) -> Sequence[PolyExpr]:
    """The operands of e but a SymApply's Var inputs, which a pass reads
    from the SymApply's own split (var_indices) and need not walk."""
    kind = type(e)
    if kind is Sum:
        return [t for _, t in e.terms]
    if kind is Product:
        return e.factors
    if kind is SymApply:
        return e.others
    if kind is Power:
        return (e.base,)
    return ()


def _operands(e: PolyExpr) -> Sequence[PolyExpr]:
    """Every operand of e, in order."""
    return e.inputs if type(e) is SymApply else split_operands(e)


def post_order(
    roots: Sequence[PolyExpr], children: Callable[[PolyExpr], Sequence[PolyExpr]]
) -> list[tuple[PolyExpr, Sequence[PolyExpr]]]:
    """Every node reachable from roots through children, with its children.

    Each node is listed once, in left-to-right post order: the order of a
    recursive walk over the roots and each node's children in order.  The
    walk is iterative, so DAG depth is unbounded.  A node is pushed bare,
    then again as a (node, children) pair with its children above it; in a
    DAG a node expanded but not yet listed is an ancestor of the current
    one, so each node is expanded, and children(e) called, exactly once.
    """
    order: list = []
    seen: set[int] = set()
    stack: list = list(reversed(roots))
    while stack:
        e = stack.pop()
        if type(e) is tuple:
            order.append(e)
            continue
        if id(e) in seen:
            continue
        seen.add(id(e))
        kids = children(e)
        if not kids:
            order.append((e, kids))
            continue
        stack.append((e, kids))
        for c in reversed(kids):
            if id(c) not in seen:
                stack.append(c)
    return order


def rebuild(
    roots: Sequence[PolyExpr], leaf: Callable[[PolyExpr], PolyExpr]
) -> tuple[PolyExpr, ...]:
    """The roots' images under a rewrite of their leaves, sharing kept.

    leaf(e) is the image of a Constant, Var or LinearForm node; every other
    node is rebuilt from its operands' images, once, in one post_order walk
    over all roots.  The walk skips a SymApply's Var inputs: the SymApply
    images them itself, and SymApply nodes that share one input tuple share
    its image.
    """
    images: dict[int, PolyExpr] = {}
    image_inputs: dict[int, tuple[PolyExpr, ...]] = {}
    for e, kids in post_order(roots, split_operands):
        kind = type(e)
        if kind is Sum:
            terms = tuple((c, images[id(t)]) for c, t in e.terms)
            out: PolyExpr = Sum(e.constant, terms)
        elif kind is Product:
            out = Product(tuple([images[id(f)] for f in kids]))
        elif kind is SymApply:
            inputs = image_inputs.get(id(e.inputs))
            if inputs is None:
                for t in e.inputs:
                    if id(t) not in images:
                        images[id(t)] = leaf(t)
                inputs = tuple([images[id(t)] for t in e.inputs])
                image_inputs[id(e.inputs)] = inputs
            out = SymApply(e.poly, inputs)
        elif kind is Power:
            out = Power(images[id(e.base)], e.exponent)
        elif id(e) in images:
            # A Var input of an earlier SymApply, imaged there.
            continue
        else:
            out = leaf(e)
        images[id(e)] = out
    return tuple([images[id(r)] for r in roots])


def _remap_vars(roots: Sequence[PolyExpr], sub: Sequence[int]) -> tuple[PolyExpr, ...]:
    """Substitute x_j -> x_sub[j] everywhere, preserving node sharing."""

    def leaf(e: PolyExpr) -> PolyExpr:
        if type(e) is Var:
            return Var(sub[e.index])
        if type(e) is LinearForm:
            return LinearForm(e.coeffs, tuple(sub[i] for i in e.indices))
        return e

    return rebuild(roots, leaf)


def _reflect_vars(roots: Sequence[PolyExpr], field: FieldSpec) -> tuple[PolyExpr, ...]:
    """Substitute x_i -> 1 - x_i everywhere, preserving node sharing."""

    def leaf(e: PolyExpr) -> PolyExpr:
        if type(e) is Var:
            return one_minus(e, field)
        if type(e) is LinearForm:
            return one_minus(e, field, sum(e.coeffs))
        return e

    return rebuild(roots, leaf)


def _substitute_exprs(
    roots: Sequence[PolyExpr], pieces: Sequence[PolyExpr], field: FieldSpec
) -> tuple[PolyExpr, ...]:
    """Replace Var(j) by pieces[j], preserving sharing."""

    def leaf(e: PolyExpr) -> PolyExpr:
        if type(e) is Var:
            return pieces[e.index]
        if type(e) is LinearForm:
            return Sum(
                field.element(0),
                tuple((c, pieces[i]) for c, i in zip(e.coeffs, e.indices)),
            )
        return e

    return rebuild(roots, leaf)


def expr_to_json(roots: Sequence[PolyExpr], field: FieldSpec) -> dict:
    """Serialize a tuple of expressions as a shared node list, numbered in
    post_order."""
    ids: dict[int, int] = {}
    nodes: list[dict] = []
    fmt = field.format_element
    for e, kids in post_order(roots, _operands):
        kind = type(e)
        if kind is Constant:
            node = {"op": "const", "value": fmt(e.value)}
        elif kind is Var:
            node = {"op": "var", "index": e.index}
        elif kind is LinearForm:
            node = {
                "op": "linear",
                "coeffs": [fmt(c) for c in e.coeffs],
                "indices": list(e.indices),
            }
        elif kind is Power:
            node = {"op": "pow", "base": ids[id(e.base)], "exponent": e.exponent}
        elif kind is Product:
            node = {"op": "mul", "factors": [ids[id(f)] for f in kids]}
        elif kind is Sum:
            node = {
                "op": "sum",
                "constant": fmt(e.constant),
                "terms": [[fmt(c), ids[id(t)]] for c, t in e.terms],
            }
        else:
            node = {
                "op": "sym",
                "poly": e.poly.to_json(),
                "inputs": [ids[id(t)] for t in kids],
            }
        node["deg"] = e.deg
        ids[id(e)] = len(nodes)
        nodes.append(node)
    root_ids = [ids[id(r)] for r in roots]
    return {"char": field.characteristic, "nodes": nodes, "roots": root_ids}


def expr_from_json(obj: dict) -> tuple[PolyExpr, ...]:
    """Parse expr_to_json's node list.  A variable index, node or root
    reference or exponent that is not an int (bools included), a negative
    variable index, a reference to no earlier node and a sym node whose
    polynomial is over another field raise ValueError."""
    field = FieldSpec(int(obj["char"]))
    parse = field.parse_element
    built: list[PolyExpr] = []

    def integer(what: str, i) -> int:
        if type(i) is not int:
            raise ValueError(f"{what} {i!r} is not an int")
        return i

    def ref(i) -> PolyExpr:
        if not 0 <= integer("reference", i) < len(built):
            raise ValueError(f"reference {i} is not one of nodes 0..{len(built) - 1}")
        return built[i]

    def index(i) -> int:
        if integer("variable index", i) < 0:
            raise ValueError(f"variable index {i} is negative")
        return i

    for node in obj["nodes"]:
        op = node["op"]
        if op == "const":
            e: PolyExpr = Constant(parse(node["value"]))
        elif op == "var":
            e = Var(index(node["index"]))
        elif op == "linear":
            e = LinearForm(
                tuple(parse(c) for c in node["coeffs"]),
                tuple(index(i) for i in node["indices"]),
            )
        elif op == "pow":
            e = Power(ref(node["base"]), integer("exponent", node["exponent"]))
        elif op == "mul":
            e = Product(tuple(map(ref, node["factors"])))
        elif op == "sum":
            e = Sum(
                parse(node["constant"]),
                tuple((parse(c), ref(i)) for c, i in node["terms"]),
            )
        elif op == "sym":
            poly = SymPoly.from_json(node["poly"])
            if poly.field != field:
                raise ValueError(
                    f"sym node {len(built)}: polynomial over characteristic "
                    f"{poly.field.characteristic} in an expression over "
                    f"characteristic {field.characteristic}"
                )
            e = SymApply(poly, tuple(map(ref, node["inputs"])))
        else:
            raise ValueError(f"unknown expression op {op!r}")
        built.append(e)
    return tuple(map(ref, obj["roots"]))


# ---------------------------------------------------------------------------
# Construction profiles


@dataclass(frozen=True, slots=True)
class ConstantsProfile:
    """Tunable constants steering the threshold-vector construction.

    A and B set the declared degree A*sqrt(t*log(1/eps)) + B*log(1/eps);
    r_multiplier sizes the hashing range; small_error_exponent_divisor gates
    the hashing branch (eps <= 2**(-t/divisor)); subsample_ratio, the window
    multipliers and amplify_arity steer the inductive branch; base_n is the
    cutoff below which exact interpolation is used.
    """

    name: str
    A: float
    B: float
    r_multiplier: float
    small_error_exponent_divisor: int
    subsample_ratio: Fraction
    window_inner_multiplier: float
    window_outer_multiplier: float
    base_n: int
    amplify_arity: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "A": self.A,
            "B": self.B,
            "r_multiplier": self.r_multiplier,
            "small_error_exponent_divisor": self.small_error_exponent_divisor,
            "subsample_ratio": str(self.subsample_ratio),
            "window_inner_multiplier": self.window_inner_multiplier,
            "window_outer_multiplier": self.window_outer_multiplier,
            "base_n": self.base_n,
            "amplify_arity": self.amplify_arity,
        }

    @staticmethod
    def from_json(obj: dict) -> "ConstantsProfile":
        return ConstantsProfile(
            name=obj["name"],
            A=float(obj["A"]),
            B=float(obj["B"]),
            r_multiplier=float(obj["r_multiplier"]),
            small_error_exponent_divisor=int(obj["small_error_exponent_divisor"]),
            subsample_ratio=Fraction(obj["subsample_ratio"]),
            window_inner_multiplier=float(obj["window_inner_multiplier"]),
            window_outer_multiplier=float(obj["window_outer_multiplier"]),
            base_n=int(obj["base_n"]),
            amplify_arity=int(obj["amplify_arity"]),
        )


def paper_profile(field: FieldSpec) -> ConstantsProfile:
    """Constants large enough for the proved degree recurrence to close."""
    p = field.characteristic
    ab = 6_400_000 * p if p else 64_000_000
    return ConstantsProfile(
        name="paper",
        A=ab,
        B=ab,
        r_multiplier=6_400_000,
        small_error_exponent_divisor=160_000,
        subsample_ratio=Fraction(1, 10),
        window_inner_multiplier=20,
        window_outer_multiplier=300,
        base_n=10,
        amplify_arity=4,
    )


def practical_profile(field: FieldSpec) -> ConstantsProfile:
    """Small constants usable at desk scale; same shape, no proof attached."""
    p = field.characteristic
    ab = 24 if p in (0, 2) else 12 * p
    return ConstantsProfile(
        name="practical",
        A=ab,
        B=ab,
        r_multiplier=10,
        small_error_exponent_divisor=1,
        subsample_ratio=Fraction(1, 10),
        window_inner_multiplier=0.5,
        window_outer_multiplier=10,
        base_n=10,
        amplify_arity=4,
    )


def get_profile(name: str, field: FieldSpec) -> ConstantsProfile:
    if name == "paper":
        return paper_profile(field)
    if name == "practical":
        return practical_profile(field)
    raise ValueError(f"unknown profile {name!r}")


def _iround(x: float) -> int:
    return math.floor(x + 0.5)


def declared_bound(
    profile: ConstantsProfile, field: FieldSpec, n: int, t: int, eps: Fraction
) -> int:
    """A*sqrt(t*log2(1/eps)) + B*log2(1/eps), times the char-0 disjunction's
    scale count over the rationals; eps must lie in (0, 1]."""
    if eps <= 0 or eps > 1:
        raise ValueError(f"error parameter must be in (0, 1], got {eps}")
    L = log2_inv(eps)
    base = profile.A * math.sqrt(max(t, 0) * L) + profile.B * L
    if field.characteristic == 0:
        base *= max(1, char0_scales(n))
    return math.ceil(base)


def _small_error_branch(eps: Fraction, t: int, divisor: int) -> bool:
    """Exact test for eps <= 2**(-t/divisor)."""
    num, den = eps.numerator, eps.denominator
    return num**divisor * (1 << t) <= den**divisor


# ---------------------------------------------------------------------------
# Recipes


class Recipe:
    """A named construction plus everything needed to draw and judge samples.

    n and arity are read off the targets, and randomness_free holds when
    the construction draws nothing itself (draws=False) and no child does.
    """

    __slots__ = (
        "kind",
        "field",
        "profile",
        "eps",
        "declared_degree_bound",
        "randomness_free",
        "params",
        "_sampler",
        "_targets",
        "_children",
    )

    def __init__(
        self,
        kind: str,
        field: FieldSpec,
        eps: Fraction,
        declared_degree_bound: int,
        params: dict,
        sampler: Callable[[SeedStream], tuple[PolyExpr, ...]],
        targets: tuple[Spectrum, ...],
        profile: ConstantsProfile | None = None,
        children: tuple["Recipe", ...] = (),
        draws: bool = False,
    ):
        self.kind = kind
        self.field = field
        self.profile = profile
        self.eps = eps
        self.declared_degree_bound = declared_degree_bound
        self.randomness_free = not draws and all(c.randomness_free for c in children)
        self.params = params
        self._sampler = sampler
        self._targets = targets
        self._children = children

    @property
    def n(self) -> int:
        return self._targets[0].n

    @property
    def arity(self) -> int:
        return len(self._targets)

    def target_spectra(self) -> tuple[Spectrum, ...]:
        return self._targets

    def children(self) -> tuple["Recipe", ...]:
        return self._children

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": self.kind,
            "n": self.n,
            "arity": self.arity,
            "eps": fraction_text(self.eps),
            "field": self.field.characteristic,
            "profile": self.profile.to_json() if self.profile else None,
            "declared_degree_bound": self.declared_degree_bound,
            "randomness_free": self.randomness_free,
            "params": self.params,
        }


def sample_stream(recipe: Recipe, stream: SeedStream) -> tuple[PolyExpr, ...]:
    return recipe._sampler(stream)


def sample(recipe: Recipe, seed: int) -> tuple[PolyExpr, ...]:
    """Draw the recipe's polynomial tuple; a pure function of (recipe, seed)."""
    return sample_stream(recipe, SeedStream.from_seed(seed))


def _brief(values: tuple, edge: int = 3) -> str:
    """A tuple as text; a long one as its length, first and last entries."""
    if len(values) <= 2 * edge + 1:
        return str(values)
    return f"{len(values)} entries {values[:edge]} ... {values[-edge:]}"


def _assert_declared(
    recipe_kind: str, structural: int, declared: int, detail: Callable[[], str]
) -> None:
    """Refuse a construction whose structural degree passes its declared
    bound; detail() describes it and is built only then."""
    if structural > declared:
        raise ValueError(
            f"profile constants too small for {recipe_kind} ({detail()}): "
            f"worst construction degree {structural} exceeds declared {declared}"
        )


# -- elementary recipes ------------------------------------------------------


def constant_recipe(field: FieldSpec, n: int, value: int) -> Recipe:
    if value not in (0, 1):
        raise ValueError("constant recipes represent Boolean constants")
    expr = Constant(field.element(value))

    return Recipe(
        kind="constant",
        field=field,
        eps=Fraction(0),
        declared_degree_bound=0,
        params={"n": n, "value": value},
        sampler=lambda stream: (expr,),
        targets=(named_spectrum("CONST", n, value),),
    )


def _on_all_inputs(polys: Iterable[SymPoly], n: int) -> tuple[SymApply, ...]:
    """Each weight polynomial applied to x_0..x_(n-1).  The nodes share one
    input tuple, and they do not depend on any draw, so a recipe builds
    them once and every draw shares them."""
    all_vars = tuple(Var(i) for i in range(n))
    return tuple(SymApply(poly, all_vars) for poly in polys)


def exact_recipe(field: FieldSpec, spectra: Sequence[Spectrum]) -> Recipe:
    """Zero-error representation by direct interpolation, degree <= n."""
    spectra = tuple(spectra)
    if not spectra:
        raise ValueError("need at least one spectrum")
    n = spectra[0].n
    if any(s.n != n for s in spectra):
        raise ValueError("spectra must share one variable count")
    polys = [exact_sympoly(s, field) for s in spectra]
    exprs = _on_all_inputs(polys, n)
    declared = max(poly.degree for poly in polys)

    return Recipe(
        kind="exact",
        field=field,
        eps=Fraction(0),
        declared_degree_bound=declared,
        params={"spectra": [s.text() for s in spectra]},
        sampler=lambda stream: exprs,
        targets=spectra,
    )


def _razborov_exprs(
    field: FieldSpec, n: int, alphas: Sequence[Sequence[int]], negate: bool
) -> tuple[PolyExpr, ...]:
    p = field.characteristic
    indices = tuple(range(n))
    factors = []
    for alpha in alphas:
        form: PolyExpr = LinearForm(tuple(alpha), indices)
        if negate:
            # Feed 1 - x into the form: constant sum(alpha) minus the form.
            form = one_minus(form, field, sum(alpha))
        if p > 2:
            form = Power(form, p - 1)
        factors.append(one_minus(form, field))
    disjunction = one_minus(Product(tuple(factors)), field)
    if negate:
        return (one_minus(disjunction, field),)
    return (disjunction,)


def razborov_or(
    n: int, eps: Fraction, field: FieldSpec, negate: bool = False
) -> Recipe:
    """Disjunction via random linear forms raised to the p-1 power.

    Each of ceil(log2(1/eps)) forms vanishes on a fixed nonzero input with
    probability exactly 1/p, so the error at any weight >= 1 is at most eps,
    and the output on the all-zero input is exactly 0 (or 1 when negated
    into a conjunction).  Requires positive characteristic.
    """
    p = field.characteristic
    if p == 0:
        raise ValueError("positive characteristic required; use char0_or instead")
    if n < 1:
        raise ValueError("n must be at least 1")
    eps = check_eps(eps)
    ell = max(1, ceil_log2_inv(eps))
    declared = (p - 1) * ell

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        rng = stream.rng()
        alphas = [_below(rng, p, n) for _ in range(ell)]
        return _razborov_exprs(field, n, alphas, negate)

    return Recipe(
        kind="razborov_or",
        field=field,
        eps=eps,
        declared_degree_bound=declared,
        params={"n": n, "negate": negate, "forms": ell},
        sampler=sampler,
        targets=(named_spectrum("AND" if negate else "OR", n),),
        draws=True,
    )


def char0_scales(m: int) -> int:
    """The char-0 disjunction's scale count on m inputs, ceil(log2 m) for
    m >= 1, exactly: a run samples at densities 2^-0..2^-scales."""
    return (m - 1).bit_length()


def _char0_or_expr(
    field: FieldSpec,
    indices: Sequence[int],
    eps: Fraction,
    stream: SeedStream,
) -> tuple[PolyExpr, int]:
    """Disjunction gadget over the given variable indices, rationals only.

    Returns the expression and its formal degree bound.  Each run samples
    one subset per density 2**-j; the run evaluates to exactly 1 when some
    sampled sum is exactly 1.  Runs multiply the failure probability.
    """
    m = len(indices)
    if m == 0:
        return Constant(field.element(0)), 0
    ell = max(1, ceil_log2_inv(eps))
    scales = char0_scales(m)
    run_factors = []
    for run in range(ell):
        # Level 0 keeps every index and draws nothing.
        rng = stream.child(("run", run)).rng() if scales else None
        level_factors = []
        for j in range(scales + 1):
            if j == 0:
                chosen = tuple(indices)
            else:
                # Each index is kept when its draw below 2^j is 0.
                chosen = tuple(compress(indices, map(not_, _below(rng, 1 << j, m))))
            summed: PolyExpr
            if chosen:
                summed = LinearForm((1,) * len(chosen), chosen)
            else:
                summed = Constant(field.element(0))
            level_factors.append(one_minus(summed, field))
        run_factors.append(one_minus(Product(tuple(level_factors)), field))
    expr = one_minus(Product(tuple(one_minus(r, field) for r in run_factors)), field)
    return expr, ell * (scales + 1)


def char0_or(n: int, eps: Fraction) -> Recipe:
    """Disjunction over the rationals via subsampled sums at all densities."""
    if n < 1:
        raise ValueError("n must be at least 1")
    eps = check_eps(eps)
    field = FieldSpec(0)
    ell = max(1, ceil_log2_inv(eps))
    scales = char0_scales(n)
    declared = 4 * max(1, scales) * ell

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        expr, deg = _char0_or_expr(field, range(n), eps, stream)
        return (expr,)

    _assert_declared(
        "char0_or", ell * (scales + 1), declared, lambda: f"n={n}, eps={fraction_text(eps)}"
    )

    return Recipe(
        kind="char0_or",
        field=field,
        eps=eps,
        declared_degree_bound=declared,
        params={"n": n, "runs": ell},
        sampler=sampler,
        targets=(named_spectrum("OR", n),),
        draws=True,
    )


# -- threshold vectors -------------------------------------------------------


def _check_threshold_eps(eps: Fraction) -> None:
    if not 0 < eps < Fraction(1, 3):
        raise ValueError(
            f"error parameter must be in (0, 1/3), got {eps}; "
            "reduce the error of a coarser recipe instead"
        )


def threshold_tuple(
    n: int,
    thresholds: Sequence[int],
    eps: Fraction,
    field: FieldSpec,
    profile: ConstantsProfile,
) -> Recipe:
    """Joint randomized representation of the thresholds [w >= t_i].

    One shared draw serves every component.  Branches: exact interpolation
    for small n (or whenever the hashing range covers n); when eps is very
    small relative to the largest threshold, one low-degree disjunction at
    eps/2 if every threshold is 1 and it beats the hashed degree (or the
    hashing range is too small), else a hashed split-and-recombine
    construction; and otherwise recursion on a subsampled input vector with
    exact interpolation near each threshold.
    """
    thresholds = tuple(int(t) for t in thresholds)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not thresholds:
        raise ValueError("need at least one threshold")
    if any(t < 0 or t > n for t in thresholds):
        raise ValueError(f"thresholds must lie in [0, {n}]")
    eps = Fraction(eps)
    _check_threshold_eps(eps)

    t_max = max(thresholds)
    declared = declared_bound(profile, field, n, t_max, eps)
    targets = tuple(named_spectrum("THR", n, t) for t in thresholds)
    base_params = {
        "n": n,
        "thresholds": list(thresholds),
        "t_max": t_max,
    }

    def finish(branch, sampler, structural, extra=None, children=(), draws=False):
        params = dict(base_params)
        params["branch"] = branch
        if extra:
            params.update(extra)
        _assert_declared(
            "threshold_tuple",
            structural,
            declared,
            lambda: f"n={n}, thresholds={_brief(thresholds)}, "
            f"eps={fraction_text(eps)}, branch={branch}",
        )
        return Recipe(
            kind="threshold_tuple",
            field=field,
            profile=profile,
            eps=eps,
            declared_degree_bound=declared,
            params=params,
            sampler=sampler,
            targets=targets,
            children=children,
            draws=draws,
        )

    def exact_tuple(branch_label: str):
        windows = {t: threshold_window(t, 0, n, field) for t in set(thresholds)}
        polys = [windows[t] for t in thresholds]
        exprs = _on_all_inputs(polys, n)
        structural = max(poly.degree for poly in polys)
        return finish(branch_label, lambda stream: exprs, structural)

    if n <= profile.base_n or t_max == 0:
        return exact_tuple("exact")

    small = _small_error_branch(eps, t_max, profile.small_error_exponent_divisor)
    L = log2_inv(eps)

    if small:
        r = math.ceil(profile.r_multiplier * L)
        if n <= r:
            return exact_tuple("exact")
        if all(t == 1 for t in thresholds):
            # The half budget leaves room for the eps + 3 sigma verdict,
            # which is a maximum over n + 1 weights.
            half = eps / 2
            p = field.characteristic
            child = razborov_or(n, half, field) if p else char0_or(n, half)
            if t_max >= r or child.declared_degree_bound < _hash_degree(n, r, p):
                # Every component is the child's one draw.
                k = len(thresholds)
                return finish(
                    "or",
                    lambda stream: sample_stream(child, stream) * k,
                    child.declared_degree_bound,
                    children=(child,),
                )
        return _hash_branch(n, thresholds, field, r, finish)
    return _inductive_branch(n, thresholds, eps, field, profile, L, finish)


def _hash_degree(n: int, r: int, p: int) -> int:
    """Structural degree of the hashed branch over characteristic p: the
    r-variable threshold of r bucket detectors, plus the low part."""
    if p > 0:
        return r + (p - 1) * r
    return r + r * 2 * (char0_scales(n) + 1)


def _hash_branch(n, thresholds, field, r, finish):
    """Split weights at r: exact interpolation below, hashed count above.

    The low part P1 matches the threshold on every weight <= r.  The high
    part hashes variables into r buckets, detects nonempty buckets with a
    vanishing-resistant form per bucket, and applies the exact r-variable
    threshold to the detector outputs; fixing the untouched detectors to 0
    keeps every weight below the threshold exact.
    """
    p = field.characteristic
    t_max = max(thresholds)
    if t_max >= r:
        raise ValueError(
            f"hashing range {r} does not dominate threshold {t_max}; "
            "profile constants too small"
        )
    # The low part on weights 0..r and the exact r-variable threshold are the
    # same window polynomial.
    windows = {t: threshold_window(t, 0, r, field) for t in set(thresholds)}
    polys = [windows[t] for t in thresholds]
    lows = _on_all_inputs(polys, n)

    eps_or = Fraction(1, 4)

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        rng = stream.child("hash").rng()
        buckets: list[list[int]] = [[] for _ in range(r)]
        for i, b in enumerate(_below(rng, r, n)):
            buckets[b].append(i)
        detectors: list[PolyExpr] = []
        if p > 0:
            # One coefficient per variable, drawn bucket by bucket: the n
            # draws that follow the bucket draws, in that order.
            coeffs = iter(_below(rng, p, n))
            for members in buckets:
                if not members:
                    detectors.append(Constant(field.element(0)))
                    continue
                form: PolyExpr = LinearForm(
                    tuple(islice(coeffs, len(members))), tuple(members)
                )
                if p > 2:
                    form = Power(form, p - 1)
                detectors.append(form)
        else:
            for j, members in enumerate(buckets):
                gadget, _ = _char0_or_expr(
                    field, members, eps_or, stream.child(("bucket", j))
                )
                detectors.append(gadget)
        det = tuple(detectors)
        out = []
        for poly, p1 in zip(polys, lows):
            p2 = SymApply(poly, det)
            out.append(
                one_minus(Product((one_minus(p1, field), one_minus(p2, field))), field)
            )
        return tuple(out)

    return finish(
        "hash", sampler, _hash_degree(n, r, p), extra={"hash_range": r}, draws=True
    )


def _inductive_branch(n, thresholds, eps, field, profile, L, finish):
    """Recurse on a uniformly subsampled copy of the input.

    Each component interpolates the threshold exactly on a window around t_i
    and asks the subsampled copy which side of the window the weight falls
    on; windows that already cover [0, n] make the component deterministic.
    """
    t_max = max(thresholds)
    theta = math.sqrt(t_max * L)
    H = math.ceil(profile.window_outer_multiplier * theta)
    ratio = profile.subsample_ratio
    n_hat = int(n * ratio)

    windows: dict[int, SymPoly] = {}
    plans = []
    child_thresholds: list[int] = []
    for t in thresholds:
        lo = max(0, t - H)
        hi = min(n, t + H)
        if t not in windows:
            windows[t] = threshold_window(t, lo, hi, field)
        e_poly = windows[t]
        if t == 0 or (lo == 0 and hi == n):
            plans.append(("exact", e_poly, None))
            continue
        scaled = float(t) * float(ratio)
        inner = profile.window_inner_multiplier * theta
        t_prime = min(max(_iround(scaled), 0), n_hat)
        t_plus = min(max(_iround(scaled + inner), 0), n_hat)
        t_minus = min(max(_iround(scaled - inner), 0), n_hat)
        slot = len(child_thresholds)
        child_thresholds.extend((t_prime, t_plus, t_minus))
        plans.append(("mixed", e_poly, slot))

    e_exprs = _on_all_inputs([e_poly for _, e_poly, _ in plans], n)
    if not child_thresholds:
        structural = max(poly.degree for _, poly, _ in plans)
        return finish("inductive", lambda stream: e_exprs, structural)

    if n_hat < 1:
        raise ValueError(f"subsample of n={n} at ratio {ratio} is empty")
    eps_child = eps / profile.amplify_arity
    child = threshold_tuple(n_hat, tuple(child_thresholds), eps_child, field, profile)

    window_deg = max(poly.degree for _, poly, _ in plans)
    if child.randomness_free:
        # The child's polynomials are fixed, so budget its true degree
        # rather than the (much coarser) declared formula.
        child_deg = max(e.deg for e in sample(child, 0))
    else:
        child_deg = child.declared_degree_bound
    structural = 2 * child_deg + max(window_deg, child_deg)

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        rng = stream.child("sub").rng()
        sub = _below(rng, n, n_hat)
        inner_exprs = sample_stream(child, stream.child("inner"))
        remapped = _remap_vars(inner_exprs, sub)
        out = []
        for (kind, _, slot), e_expr in zip(plans, e_exprs):
            if kind == "exact":
                out.append(e_expr)
                continue
            t_prime_e, t_plus_e, t_minus_e = remapped[slot : slot + 3]
            near = Product((one_minus(t_plus_e, field), t_minus_e))
            correction = Product((near, sum_of(field, [(1, e_expr), (-1, t_prime_e)])))
            out.append(sum_of(field, [(1, t_prime_e), (1, correction)]))
        return tuple(out)

    return finish(
        "inductive",
        sampler,
        structural,
        extra={"subsample_n": n_hat, "window_halfwidth": H},
        children=(child,),
        draws=True,
    )


def t_constant_recipe(
    f: Spectrum, eps: Fraction, field: FieldSpec, profile: ConstantsProfile
) -> Recipe:
    """Representation of a spectrum that is constant from some weight t on.

    Telescopes the spectrum into at most t threshold indicators served by a
    single shared threshold-vector draw, so the whole combination fails only
    when that one draw fails.
    """
    eps = Fraction(eps)
    t = min_t_constant(f)
    params = {"spectrum": f.text(), "t": t}

    if t == 0:
        base = constant_recipe(field, f.n, f.values[0])
        return Recipe(
            kind="t_constant",
            field=field,
            profile=profile,
            eps=Fraction(0),
            declared_degree_bound=0,
            params=params,
            sampler=base._sampler,
            targets=(f,),
            children=(base,),
        )

    return _telescoped("t_constant", f, t, eps, field, profile, params)


def _telescoped(
    kind: str,
    f: Spectrum,
    t: int,
    eps: Fraction,
    field: FieldSpec,
    profile: ConstantsProfile,
    params: dict,
) -> Recipe:
    """f as a_0 + sum_j a_j [w >= j] over j = 1..t, for f constant from
    weight t >= 1 on, with every threshold served by one threshold_tuple
    draw; the recipe declares that tuple's bound."""
    coeffs = threshold_combination(f)
    child = threshold_tuple(f.n, tuple(range(1, t + 1)), eps, field, profile)

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        parts = sample_stream(child, stream)
        return (sum_of(field, zip(coeffs[1:], parts), constant=coeffs[0]),)

    return Recipe(
        kind=kind,
        field=field,
        profile=profile,
        eps=eps,
        declared_degree_bound=child.declared_degree_bound,
        params=params,
        sampler=sampler,
        targets=(f,),
        children=(child,),
    )


def bounded_recipe(
    h: Spectrum, eps: Fraction, field: FieldSpec, profile: ConstantsProfile
) -> Recipe:
    """Representation of a spectrum constant on a middle window [k, n-k].

    With middle value 0 the spectrum splits as h = h1 + (1 - h2 reflected):
    h1 keeps the left part and is constant 0 from weight k on, h2 encodes the
    complemented, reversed right part and is constant 1 from weight k on.
    Both halves go through the telescoping construction at eps/2 with
    independent draws.  Middle value 1 is handled on the complement.
    """
    k, degenerate = bounded_radius_flagged(h)
    if degenerate:
        raise ValueError("spectrum has no constant middle window")
    return _bounded_recipe(h, k, eps, field, profile)


def _bounded_recipe(
    h: Spectrum, k: int, eps: Fraction, field: FieldSpec, profile: ConstantsProfile
) -> Recipe:
    """bounded_recipe for a spectrum whose bounded radius k is known and
    whose middle window [k, n-k] is not empty."""
    eps = Fraction(eps)
    n = h.n
    middle = h.values[k]

    if middle == 1:
        # The complement has the same radius.
        inner = _bounded_recipe(complement_spectrum(h), k, eps, field, profile)

        def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
            (inner_expr,) = sample_stream(inner, stream)
            return (one_minus(inner_expr, field),)

        return Recipe(
            kind="bounded",
            field=field,
            profile=profile,
            eps=eps,
            declared_degree_bound=inner.declared_degree_bound,
            params={"spectrum": h.text(), "radius": k, "complemented": True},
            sampler=sampler,
            targets=(h,),
            children=(inner,),
        )

    h1 = Spectrum(tuple(h.values[w] if w < k else 0 for w in range(n + 1)))
    h2 = Spectrum(
        tuple(1 - h.values[n - w] if w < k else 1 for w in range(n + 1))
    )
    left = t_constant_recipe(h1, eps / 2, field, profile)
    right = t_constant_recipe(h2, eps / 2, field, profile)

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        (left_expr,) = sample_stream(left, stream.child("left"))
        (right_expr,) = sample_stream(right, stream.child("right"))
        (reflected,) = _reflect_vars((right_expr,), field)
        return (sum_of(field, [(1, left_expr), (-1, reflected)], constant=1),)

    return Recipe(
        kind="bounded",
        field=field,
        profile=profile,
        eps=eps,
        declared_degree_bound=max(
            left.declared_degree_bound, right.declared_degree_bound
        ),
        params={"spectrum": h.text(), "radius": k, "complemented": False},
        sampler=sampler,
        targets=(h,),
        children=(left, right),
    )


def general_recipe(
    f: Spectrum, eps: Fraction, field: FieldSpec, profile: ConstantsProfile
) -> Recipe:
    """Representation of an arbitrary spectrum, choosing the cheaper route.

    Route one (when the middle-window period is 1 or a power of the
    characteristic): split f = g XOR h, represent g exactly below its period
    and h through the bounded construction, then recombine as g + h - 2gh.
    Route two (always available): telescope f through one full
    threshold-vector polynomial, on every threshold 1..n even when f is
    constant from a lower weight on.  Ties prefer route one.  The routes are
    compared by declared degree before route two's child is built, so only
    the winner is constructed.
    """
    eps = Fraction(eps)
    n = f.n
    if n < 1:
        raise ValueError("spectrum too small for any construction route")
    _check_threshold_eps(eps)

    decomposition = None
    if n >= 3:
        report = standard_decomposition(f, field.characteristic)
        if report.period_is_char_power:
            if report.radius_h_degenerate:
                raise ValueError("spectrum has no constant middle window")
            g_poly = periodic_exact(report.g, field)
            h_recipe = _bounded_recipe(
                report.h, report.bounded_radius_h, eps / 2, field, profile
            )
            decomposition = (report, g_poly, h_recipe)

    # The declared bound threshold_tuple(n, 1..n) would carry.
    direct_declared = declared_bound(profile, field, n, n, eps)

    if decomposition is not None:
        report, g_poly, h_recipe = decomposition
        decomp_declared = g_poly.degree + h_recipe.declared_degree_bound
        if decomp_declared <= direct_declared:
            (g_expr,) = _on_all_inputs((g_poly,), n)

            def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
                (h_expr,) = sample_stream(h_recipe, stream)
                gh = Product((g_expr, h_expr))
                return (
                    sum_of(field, [(1, g_expr), (1, h_expr), (-2, gh)]),
                )

            return Recipe(
                kind="general",
                field=field,
                profile=profile,
                eps=eps,
                declared_degree_bound=decomp_declared,
                params={
                    "spectrum": f.text(),
                    "route": "decomposition",
                    "period_g": report.period_g,
                    "bounded_radius_h": report.bounded_radius_h,
                },
                sampler=sampler,
                targets=(f,),
                children=(h_recipe,),
            )

    params = {
        "spectrum": f.text(),
        "route": "direct",
        "t_constant_from": min_t_constant(f),
    }
    return _telescoped("general", f, n, eps, field, profile, params)


# -- combinators --------------------------------------------------------------


def majority_tail(ell: int, eps: Fraction) -> Fraction:
    """P[Binomial(ell, eps) >= ceil(ell/2)], computed exactly."""
    eps = Fraction(eps)
    need = (ell + 1) // 2
    total = Fraction(0)
    for k in range(need, ell + 1):
        total += math.comb(ell, k) * eps**k * (1 - eps) ** (ell - k)
    return total


def _majority_vote(
    ell: int, field: FieldSpec
) -> Callable[[Sequence[tuple[PolyExpr, ...]]], tuple[PolyExpr, ...]]:
    """The componentwise majority of ell drawn tuples, through the exact
    majority polynomial of ell inputs (the step at floor(ell/2) + 1), which
    is built once and shared by every vote."""
    maj_poly = threshold_window(ell // 2 + 1, 0, ell, field)
    return lambda draws: tuple(SymApply(maj_poly, votes) for votes in zip(*draws))


def amplify(recipe: Recipe, delta: Fraction) -> Recipe:
    """Reduce the error of a recipe to delta by a majority vote of copies.

    Uses the smallest odd ell whose Binomial(ell, eps) majority tail is at
    most delta, and routes ell independent draws through the exact majority
    polynomial.  Fixing a correct majority of the votes already determines
    the majority value, so wayward copies cannot disturb a correct vote.
    """
    delta = Fraction(delta)
    if recipe.eps == 0:
        raise ValueError("recipe is already exact; nothing to amplify")
    if delta >= recipe.eps:
        raise ValueError(
            f"target error {fraction_text(delta)} is not below the current "
            f"error {fraction_text(recipe.eps)}"
        )
    if delta <= 0:
        raise ValueError("target error must be positive")
    ell = 1
    while majority_tail(ell, recipe.eps) > delta:
        ell += 2
    if ell == 1:
        return recipe
    field = recipe.field
    vote = _majority_vote(ell, field)

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        return vote(
            [sample_stream(recipe, stream.child(("vote", j))) for j in range(ell)]
        )

    return Recipe(
        kind="amplify",
        field=field,
        profile=recipe.profile,
        eps=delta,
        declared_degree_bound=ell * recipe.declared_degree_bound,
        params={"delta": fraction_text(delta), "votes": ell, "child": recipe.to_json()},
        sampler=sampler,
        targets=recipe.target_spectra(),
        children=(recipe,),
    )


def compose(outer: Recipe, inners: Sequence[Recipe]) -> Recipe:
    """Feed inner recipe outputs into the outer recipe's variables.

    The inner components are flattened in order; their count must equal the
    outer variable count, and they must share one variable count and field.
    Errors add: the composite can only fail when some draw fails.
    """
    inners = tuple(inners)
    if outer.arity != 1:
        raise ValueError("outer recipe must have a single component")
    if not inners:
        raise ValueError("need at least one inner recipe")
    total = sum(r.arity for r in inners)
    if total != outer.n:
        raise ValueError(
            f"outer recipe reads {outer.n} inputs but inners provide {total}"
        )
    field = outer.field
    n = inners[0].n
    if any(r.n != n or r.field != field for r in inners):
        raise ValueError("inner recipes must share variable count and field")

    inner_targets = [s for r in inners for s in r.target_spectra()]
    outer_target = outer.target_spectra()[0]
    composite = Spectrum(
        tuple(
            outer_target.values[sum(s.values[w] for s in inner_targets)]
            for w in range(n + 1)
        )
    )
    eps_total = outer.eps + sum(r.eps for r in inners)
    declared = outer.declared_degree_bound * max(
        r.declared_degree_bound for r in inners
    )

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        (outer_expr,) = sample_stream(outer, stream.child("outer"))
        pieces: list[PolyExpr] = []
        for idx, r in enumerate(inners):
            pieces.extend(sample_stream(r, stream.child(("inner", idx))))
        return _substitute_exprs((outer_expr,), pieces, field)

    return Recipe(
        kind="compose",
        field=field,
        profile=outer.profile,
        eps=eps_total,
        declared_degree_bound=declared,
        params={
            "outer": outer.to_json(),
            "inners": [r.to_json() for r in inners],
        },
        sampler=sampler,
        targets=(composite,),
        children=(outer,) + inners,
    )


def sum_recipes(
    recipes: Sequence[Recipe],
    coefficients: Sequence[FieldElement],
    target: Spectrum,
) -> Recipe:
    """Linear combination of single-component recipes with independent draws.

    The combination is exact whenever every draw is correct, so the error
    adds while the declared degree is just the maximum.
    """
    recipes = tuple(recipes)
    if not recipes:
        raise ValueError("need at least one recipe")
    if len(coefficients) != len(recipes):
        raise ValueError("one coefficient per recipe required")
    field = recipes[0].field
    n = recipes[0].n
    if any(r.n != n or r.field != field or r.arity != 1 for r in recipes):
        raise ValueError("recipes must be single-component on one variable set")
    if target.n != n:
        raise ValueError(f"target has {target.n} variables but the parts have {n}")
    coeffs = tuple(field.element(c) for c in coefficients)

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        terms = []
        for idx, (c, r) in enumerate(zip(coeffs, recipes)):
            (expr,) = sample_stream(r, stream.child(("part", idx)))
            terms.append((c, expr))
        return (sum_of(field, terms),)

    return Recipe(
        kind="sum",
        field=field,
        profile=recipes[0].profile,
        eps=sum((r.eps for r in recipes), Fraction(0)),
        declared_degree_bound=max(r.declared_degree_bound for r in recipes),
        params={
            "coefficients": [field.format_element(c) for c in coeffs],
            "target": target.text(),
            "parts": [r.to_json() for r in recipes],
        },
        sampler=sampler,
        targets=(target,),
        children=recipes,
    )


def xor_combine(a: Recipe, b: Recipe) -> Recipe:
    """Exclusive-or of two Boolean recipes via a + b - 2ab."""
    if a.n != b.n or a.field != b.field:
        raise ValueError("recipes must share variable count and field")
    if a.arity != 1 or b.arity != 1:
        raise ValueError("xor combines single-component recipes")
    field = a.field
    target = xor_spectra(a.target_spectra()[0], b.target_spectra()[0])

    def sampler(stream: SeedStream) -> tuple[PolyExpr, ...]:
        (ea,) = sample_stream(a, stream.child("a"))
        (eb,) = sample_stream(b, stream.child("b"))
        return (sum_of(field, [(1, ea), (1, eb), (-2, Product((ea, eb)))]),)

    return Recipe(
        kind="xor",
        field=field,
        profile=a.profile,
        eps=a.eps + b.eps,
        declared_degree_bound=a.declared_degree_bound + b.declared_degree_bound,
        params={"a": a.to_json(), "b": b.to_json()},
        sampler=sampler,
        targets=(target,),
        children=(a, b),
    )


# ---------------------------------------------------------------------------
# Exhaustive randomness enumeration (small recipes only)


def enumerate_draws(
    recipe: Recipe, limit: int = 1 << 22
) -> Iterator[tuple[Fraction, tuple[PolyExpr, ...]]]:
    """Yield (probability, drawn tuple) over the whole randomness space.

    Supported for deterministic recipes, the vanishing-form disjunction, and
    majority votes over supported recipes; raises otherwise.  The limit
    guards against runaway spaces.
    """
    if recipe.randomness_free:
        yield Fraction(1), sample(recipe, 0)
        return
    if recipe.kind == "razborov_or":
        p = recipe.field.characteristic
        n = recipe.n
        ell = recipe.params["forms"]
        count = p ** (ell * n)
        if count > limit:
            raise ValueError(f"randomness space {count} exceeds limit {limit}")
        weight = Fraction(1, count)
        negate = recipe.params["negate"]
        for flat in iter_product(range(p), repeat=ell * n):
            alphas = [flat[j * n : (j + 1) * n] for j in range(ell)]
            yield weight, _razborov_exprs(recipe.field, n, alphas, negate)
        return
    if recipe.kind == "amplify":
        child = recipe.children()[0]
        ell = recipe.params["votes"]
        vote = _majority_vote(ell, recipe.field)
        pools = [list(enumerate_draws(child, limit)) for _ in range(ell)]
        total = math.prod(map(len, pools))
        if total > limit:
            raise ValueError(f"randomness space {total} exceeds limit {limit}")
        for combo in iter_product(*pools):
            prob = math.prod([q for q, _ in combo])
            yield prob, vote([draw for _, draw in combo])
        return
    raise ValueError(f"enumeration not supported for kind {recipe.kind!r}")


# ---------------------------------------------------------------------------
# Serialization


def _spectrum_param(build: Callable[..., Recipe]) -> Callable[..., Recipe]:
    """The rebuild of a kind built from params["spectrum"], eps, field and
    profile."""
    return lambda p, *args: build(parse_spectrum(p["spectrum"]), *args)


# Every recipe kind recipe_from_json rebuilds: the params that hold child
# recipes in JSON (a single recipe or a list of them), and the rebuild,
# called as rebuild(params, eps, field, profile) with those params already
# rebuilt into recipes.
_RECIPE_KINDS: dict[str, tuple[tuple[str, ...], Callable[..., Recipe]]] = {
    "constant": (
        (),
        lambda p, eps, field, _: constant_recipe(field, p["n"], p["value"]),
    ),
    "exact": (
        (),
        lambda p, eps, field, _: exact_recipe(field, map(parse_spectrum, p["spectra"])),
    ),
    "razborov_or": (
        (),
        lambda p, eps, field, _: razborov_or(p["n"], eps, field, p["negate"]),
    ),
    "char0_or": ((), lambda p, eps, *_: char0_or(p["n"], eps)),
    "threshold_tuple": (
        (),
        lambda p, *args: threshold_tuple(p["n"], tuple(p["thresholds"]), *args),
    ),
    "t_constant": ((), _spectrum_param(t_constant_recipe)),
    "bounded": ((), _spectrum_param(bounded_recipe)),
    "general": ((), _spectrum_param(general_recipe)),
    "amplify": (("child",), lambda p, *_: amplify(p["child"], parse_fraction(p["delta"]))),
    "compose": (("outer", "inners"), lambda p, *_: compose(p["outer"], p["inners"])),
    "sum": (
        ("parts",),
        lambda p, eps, field, _: sum_recipes(
            p["parts"],
            list(map(field.parse_element, p["coefficients"])),
            parse_spectrum(p["target"]),
        ),
    ),
    "xor": (("a", "b"), lambda p, *_: xor_combine(p["a"], p["b"])),
}


def unknown_recipe_kinds(obj: dict) -> list:
    """The kinds in a recipe's JSON tree that recipe_from_json cannot
    rebuild, in walk order; nothing is built."""
    unknown = []
    stack = [obj]
    while stack:
        node = stack.pop()
        kind = node.get("kind") if isinstance(node, dict) else None
        if kind not in _RECIPE_KINDS:
            unknown.append(kind)
            continue
        params = node.get("params") or {}
        for name in _RECIPE_KINDS[kind][0]:
            child = params.get(name)
            stack.extend(child if isinstance(child, list) else [child])
    return unknown


def recipe_from_json(obj: dict) -> Recipe:
    """Rebuild a recipe from its serialized form by re-running its constructor."""
    kind = obj["kind"]
    if kind not in _RECIPE_KINDS:
        raise ValueError(f"unknown recipe kind {kind!r}")
    child_params, rebuild = _RECIPE_KINDS[kind]
    field = FieldSpec(int(obj["field"]))
    eps = parse_fraction(obj["eps"])
    profile = (
        ConstantsProfile.from_json(obj["profile"]) if obj.get("profile") else None
    )
    params = dict(obj["params"])
    for name in child_params:
        child = params[name]
        params[name] = (
            list(map(recipe_from_json, child))
            if type(child) is list
            else recipe_from_json(child)
        )
    return rebuild(params, eps, field, profile)
