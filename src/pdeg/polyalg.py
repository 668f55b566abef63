"""Polynomial arithmetic over prime fields and the rationals.

Polynomials on symmetric inputs are stored in the binomial basis: a SymPoly
with coefficients c_0..c_d takes the value sum_k c_k * C(w, k) at Hamming
weight w.  That basis makes exact interpolation a triangular solve and keeps
every coefficient an exact field element; floating point never enters a
polynomial value.

Threshold steps [w >= t] on a window of weights, the piece every
construction starts from, are built in closed form by threshold_window: their
forward differences are signed binomials, taken in the field directly.
interpolate_window interpolates general values on a window and is the
reference threshold_window is tested against.

SymPoly.table tabulates a polynomial at weights 0..m and caches the table;
it is the one way the package reads a weight polynomial's values.  In
characteristic p it uses Lucas' theorem on the whole table where that is
cheap: the binomial matrix C(w, k) mod p factors over base-p digits, so the
table is a digit-by-digit transform of the coefficients, packed one per
fixed-width slot of a single int.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple, Sequence, Union

from .symfun import Spectrum, _is_char_power, period

FieldElement = Union[int, Fraction]


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Exact primality by Miller-Rabin; ValueError for an odd p at or past
    _PRIME_TEST_LIMIT, where those bases are not known to suffice."""
    if p < 2 or any(p % q == 0 for q in _PRIME_BASES):
        return p in _PRIME_BASES
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(f"characteristic {p} is too large to test for primality")
    twos = ((p - 1) & (1 - p)).bit_length() - 1
    odd = (p - 1) >> twos
    return all(
        pow(a, odd, p) == 1 or any(pow(a, odd << i, p) == p - 1 for i in range(twos))
        for a in _PRIME_BASES
    )


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """A prime field F_p (characteristic p > 0) or the rationals (0)."""

    characteristic: int

    def __post_init__(self) -> None:
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")

    def element(self, x: int | Fraction) -> FieldElement:
        """Canonical representative: residue in [0, p) or an exact rational.

        Plain ints return at once; bools and Fractions become ints where
        they are integral, and floats raise TypeError.
        """
        p = self.characteristic
        if type(x) is int:
            return x % p if p else x
        if p == 0:
            if isinstance(x, float):
                raise TypeError("floating point is not a field element")
            frac = Fraction(x)
            return int(frac) if frac.denominator == 1 else frac
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        if isinstance(x, float):
            raise TypeError("floating point is not a field element")
        return x % p

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.characteristic
        return (a + b) % p if p else self.element(a + b)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.characteristic
        return (a - b) % p if p else self.element(a - b)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.characteristic
        return (a * b) % p if p else self.element(a * b)

    def format_element(self, a: FieldElement) -> str:
        return str(a)

    def parse_element(self, text: str) -> FieldElement:
        text = text.strip()
        if "/" in text:
            return self.element(Fraction(text))
        return self.element(int(text))


RATIONALS = FieldSpec(0)
GF2 = FieldSpec(2)

# The most variables a draw or weight polynomial is expanded on into
# explicit multilinear form; expansion costs 2^n.
EXPAND_LIMIT = 16


def check_eps(eps) -> Fraction:
    """The error parameter as an exact Fraction, which must lie in (0, 1)."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"error parameter must be in (0, 1), got {eps}")
    return eps


def log2_inv(eps: Fraction) -> float:
    """log2(1/eps) as a float, for a positive Fraction eps.  It is taken
    on the numerator and denominator apart, so it stays finite for
    parameters far below the float range."""
    return math.log2(eps.denominator) - math.log2(eps.numerator)


def ceil_log2_inv(eps: Fraction) -> int:
    """Smallest non-negative L with 2**-L <= eps, for a positive Fraction
    eps, computed exactly: the least shift of the numerator that reaches
    the denominator."""
    num, den = eps.numerator, eps.denominator
    shift = max(0, den.bit_length() - num.bit_length())
    return shift + ((num << shift) < den)


def fraction_text(x: Fraction, max_bits: int | None = None) -> str:
    """x as text: str(x) where it is short enough, else over a power of two.

    str(x) is used unless the numerator or denominator has more than
    max_bits bits or str() would pass the interpreter's limit on
    int-to-decimal digits.  Then x = a/2^k is written 2^-k when a = 1 and
    a/2^k otherwise, both of which parse_fraction reads back exactly; any
    other x (or a numerator too long to write) is ~2^-y, y = log2(1/x) to
    six figures, an approximation.
    """
    num, den = x.numerator, x.denominator
    if max_bits is None or max(num.bit_length(), den.bit_length()) <= max_bits:
        try:
            return str(x)
        except ValueError:
            pass
    if den & (den - 1) == 0:
        k = den.bit_length() - 1
        try:
            return f"2^-{k}" if num == 1 else f"{num}/2^{k}"
        except ValueError:
            pass
    return f"~2^-{log2_inv(x):.6g}"


def parse_fraction(text: str) -> Fraction:
    """Read 'a/b', '2^-k', 'a/2^k' or a decimal literal exactly; ValueError
    on anything else."""
    text = text.strip()
    power = re.fullmatch(r"(?:(\d+)/2\^|2\^-)(\d+)", text)
    try:
        if power:
            return Fraction(int(power.group(1) or 1), 1 << int(power.group(2)))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as a fraction") from exc


def binomial_in_field(w: int, k: int, field: FieldSpec) -> FieldElement:
    """C(w, k) as an element of the field.

    In characteristic p this uses the digit-by-digit product over base-p
    expansions, so huge w stay cheap and the value depends only on
    w mod p**ceil(log_p(k+1)).
    """
    if k < 0 or w < 0:
        return 0
    p = field.characteristic
    if p == 0:
        return math.comb(w, k)
    if p == 2:
        # Lucas in base 2: C(w, k) is odd exactly when k's bits lie in w's.
        return 1 if w & k == k else 0
    result = 1
    while k > 0 or w > 0:
        wd, w = w % p, w // p
        kd, k = k % p, k // p
        if kd > wd:
            return 0
        result = result * math.comb(wd, kd) % p
        if result == 0:
            return 0
    return result


@lru_cache(maxsize=16)
def subset_masks(bits: int, width: int = 1) -> tuple[int, ...]:
    """Mask i holds a 1 in slot j (of `width` bits), for j < 2^bits, exactly
    when bit i of j is set.

    Built as one block of 2^(i+1) slots whose upper half is set, doubled
    until it covers all 2^bits slots.
    """
    size = 1 << bits
    masks = []
    for i in range(bits):
        half = 1 << i
        ones = ((1 << half * width) - 1) // ((1 << width) - 1)
        mask, span = ones << half * width, 2 * half
        while span < size:
            mask |= mask << span * width
            span *= 2
        masks.append(mask)
    return tuple(masks)


def _zeta_gf2(coeffs: Sequence[int], m: int) -> tuple[int, ...]:
    """Values at weights 0..m over GF(2), one byte per weight: after the
    shift-XOR-mask steps byte w holds the parity of the coefficients c_k
    over the submasks k of w."""
    bits = m.bit_length()
    x = int.from_bytes(bytes(coeffs), "little")
    for i, mask in enumerate(subset_masks(bits, 8)):
        x ^= (x << (8 << i)) & mask
    return tuple(x.to_bytes(1 << bits, "little")[: m + 1])


class _LucasPlan(NamedTuple):
    """Masks and shifts of the packed Lucas transform at one table size.

    Slot j, of width 8 * itemsize(typecode) bits, holds the entry for
    weight j.  digits[i] lists, for each digit value e, the mask of the
    slots whose base-p digit i is e and the (bit shift, C(d, e) mod p)
    that move them to digit value d > e.
    """

    typecode: str
    slots: int
    pairs: int
    digits: tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]


def _lucas_plan(p: int, m: int) -> _LucasPlan | None:
    """The plan for weights 0..m, or None when a slot would pass 64 bits."""
    digits, top = 1, m
    while top >= p:
        top //= p
        digits += 1
    return _lucas_plan_for(p, digits, top)


@lru_cache(maxsize=8)
def _lucas_plan_for(p: int, digits: int, top: int) -> _LucasPlan | None:
    """Plan over the weights below (top + 1) * p**(digits - 1).

    A digit step multiplies an entry by at most sum_e C(d, e) = 2^d, so
    every entry stays below (p - 1) * 2^((p - 1) * digits), the slot bound.
    """
    bound_bits = (p - 1).bit_length() + (p - 1) * digits
    typecode = next(
        (c for c in "BHILQ" if bound_bits <= 8 * array(c).itemsize), None
    )
    if typecode is None:
        return None
    width = 8 * array(typecode).itemsize
    slots = (top + 1) * p ** (digits - 1)
    pairs = 0
    steps = []
    for i in range(digits):
        stride = p**i
        high = top if i == digits - 1 else p - 1
        period = p * stride * width
        reps = max(1, slots // (p * stride))
        repeat = ((1 << period * reps) - 1) // ((1 << period) - 1)
        block = (1 << stride * width) - 1
        step = []
        for e in range(high):
            shifts = tuple(
                ((d - e) * stride * width, math.comb(d, e) % p)
                for d in range(e + 1, high + 1)
            )
            step.append((repeat * (block << e * stride * width), shifts))
            pairs += len(shifts)
        steps.append(tuple(step))
    return _LucasPlan(typecode, slots, pairs, tuple(steps))


def _lucas_gfp(
    coeffs: Sequence[int], m: int, p: int, plan: _LucasPlan
) -> tuple[int, ...]:
    """Values at weights 0..m over GF(p), p > 2: the coefficients packed one
    per slot, transformed one base-p digit at a time, unpacked and reduced
    once."""
    packed = array(plan.typecode, coeffs)
    if sys.byteorder == "big":
        packed.byteswap()
    x = int.from_bytes(packed.tobytes(), "little")
    for step in plan.digits:
        acc = x
        for mask, shifts in step:
            y = x & mask
            for shift, c in shifts:
                acc += (y << shift) * c if c > 1 else y << shift
        x = acc
    size = packed.itemsize
    table = array(plan.typecode, x.to_bytes(plan.slots * size, "little")[: (m + 1) * size])
    if sys.byteorder == "big":
        table.byteswap()
    return tuple([v % p for v in table])


@dataclass(frozen=True, slots=True)
class SymPoly:
    """Polynomial in the Hamming weight, in the binomial basis.

    Value at weight w is sum_k coeffs[k] * C(w, k), all arithmetic in the
    attached field.  Trailing zero coefficients are stripped on build, so
    len(coeffs) - 1 is the degree (the zero polynomial keeps one coefficient
    and reports degree 0).  table(m) is the one read of its values: it
    builds the table at weights 0..m in one transform and caches it on the
    polynomial, in _table, which equality and hashing ignore.
    value_at_weight reads one weight and is the reference the table is
    tested against; the package itself does not call it.
    """

    field: FieldSpec
    coeffs: tuple[FieldElement, ...]
    _table: tuple[FieldElement, ...] | None = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        raw = tuple(self.coeffs)
        p = self.field.characteristic
        if set(map(type, raw)) <= {int}:
            # Plain ints are already canonical over Q; mod p they only reduce.
            coeffs = [c % p for c in raw] if p else list(raw)
        else:
            coeffs = [self.field.element(c) for c in raw]
        size = len(coeffs)
        while size > 1 and coeffs[size - 1] == 0:
            size -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:size]) or (0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value_at_weight(self, w: int) -> FieldElement:
        """sum_k coeffs[k] * C(w, k), over k <= min(w, degree) only.

        One kernel per field, reduced once: over GF(2) the parity of the
        coefficients at submasks of w (C(w, k) is odd iff k & w == k); over
        GF(p) a raw sum of coefficients times Lucas binomials; over Q a
        running exact binomial C(w, k + 1) = C(w, k) * (w - k) / (k + 1).
        """
        coeffs = self.coeffs[: max(0, min(w, self.degree) + 1)]
        f = self.field
        p = f.characteristic
        if p == 2:
            return sum(c for k, c in enumerate(coeffs) if c and w & k == k) & 1
        if p:
            return sum(c * binomial_in_field(w, k, f) for k, c in enumerate(coeffs) if c) % p
        total = 0
        b = 1
        for k, c in enumerate(coeffs):
            if c:
                total += c * b
            b = b * (w - k) // (k + 1)
        return f.element(total)

    def table(self, m: int) -> tuple[FieldElement, ...]:
        """The values at weights 0..m: the cached table itself, never a
        copy, which may run past m.  A read past it builds and caches the
        table at weights 0..m, which keeps every entry it had.  Entries
        equal value_at_weight's, element types included."""
        table = self._table
        if table is None or len(table) <= m:
            table = self._tabulate(m)
            object.__setattr__(self, "_table", table)
        return table

    def _tabulate(self, m: int) -> tuple[FieldElement, ...]:
        """The table at weights 0..m, in one transform.

        Only c_0..c_m matter, since C(w, k) = 0 for k > w.  In characteristic
        p the table is a Lucas transform of the coefficients: by Lucas,
        C(w, k) mod p is the product of the digit binomials of w and k, so
        the binomial matrix is a tensor power of Pascal's triangle mod p and
        is applied one base-p digit at a time, on coefficients packed into
        one int.  Over GF(2) that is the subset zeta transform, ceil(log2(m+1))
        shift-XOR-mask steps.  Over Q, and for p so large that the digit
        steps outnumber the coefficients, it is Horner's rule: row k of the
        nested sums is c_k plus the prefix sums of row k + 1.
        """
        coeffs = self.coeffs[: m + 1]
        p = self.field.characteristic
        if p == 2:
            return _zeta_gf2(coeffs, m)
        plan = _lucas_plan(p, m) if p else None
        if plan is not None and plan.pairs < len(coeffs) - 1:
            return _lucas_gfp(coeffs, m, p, plan)
        table = [coeffs[-1]] * (m + 1)
        for c in reversed(coeffs[:-1]):
            table = list(accumulate(table[:m], initial=c))
            if p:
                table = [v % p for v in table]
        if not p and any(type(v) is Fraction for v in table):
            table = [self.field.element(v) for v in table]
        return tuple(table)

    def to_json(self) -> dict:
        return {
            "char": self.field.characteristic,
            "coeffs": [self.field.format_element(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(obj: dict) -> "SymPoly":
        field = FieldSpec(int(obj["char"]))
        return SymPoly(field, tuple(field.parse_element(c) for c in obj["coeffs"]))


def constant_sympoly(field: FieldSpec, c: FieldElement) -> SymPoly:
    return SymPoly(field, (field.element(c),))


def _forward_differences(values: Sequence[int]) -> list[int]:
    """Iterated forward differences over the integers: row k holds Delta^k."""
    diffs = list(values)
    out = [diffs[0]]
    for _ in range(1, len(values)):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        out.append(diffs[0])
    return out


def exact_sympoly(f: Spectrum, field: FieldSpec) -> SymPoly:
    """The unique polynomial of degree <= n matching Spec f on every weight.

    In the binomial basis the interpolation matrix C(w, k) for w, k in [0, n]
    is triangular with unit diagonal, so the coefficients are the forward
    differences of the spectrum.  Computing them over the integers first and
    reducing afterwards gives the same matching values in any field.
    """
    return SymPoly(field, tuple(_forward_differences(f.values)))


def interpolate_window(
    values: Sequence[int], lo: int, field: FieldSpec
) -> SymPoly:
    """Polynomial of degree < len(values) matching the given values on
    weights lo, lo+1, ..., lo+len(values)-1.

    Interpolates in the shifted basis C(w - lo, k) by forward differences,
    then converts to the C(w, k) basis using
    C(w - a, k) = sum_i (-1)^(k-i) C(a + k - i - 1, k - i) C(w, i).
    """
    if not values:
        raise ValueError("cannot interpolate an empty window")
    if lo < 0:
        raise ValueError("window start must be non-negative")
    deltas = _forward_differences(list(values))
    size = len(values)
    coeffs = [0] * size
    for k, d in enumerate(deltas):
        if d == 0:
            continue
        for i in range(k + 1):
            j = k - i
            shift = 1 if j == 0 else (-1) ** j * math.comb(lo + j - 1, j)
            coeffs[i] += d * shift
    return SymPoly(field, tuple(coeffs))


def threshold_window(t: int, lo: int, hi: int, field: FieldSpec) -> SymPoly:
    """Polynomial of degree <= hi - lo equal to [w >= t] on weights lo..hi.

    The same polynomial as interpolate_window on the step's values, built in
    closed form.  With s = t - lo, the k-th forward difference of the step at
    lo is 0 for k < s and (-1)^(k-s) C(k-1, s-1) for k >= s; the change to
    the C(w, i) basis adds delta_k * S_(k-i) to coefficient i, with the shift
    column S_j = (-1)^j C(lo+j-1, j) built once (S_0 = 1; every other S_j is
    0 when lo = 0, so there the deltas are the coefficients).  In
    characteristic p every binomial is taken mod p by Lucas' theorem, so each
    coefficient is a sum of at most hi - lo + 1 products below p**2.
    """
    if lo < 0:
        raise ValueError("window start must be non-negative")
    if hi < lo:
        raise ValueError("cannot interpolate an empty window")
    size = hi - lo + 1
    s = t - lo
    if s <= 0:
        return constant_sympoly(field, 1)
    if s >= size:
        return constant_sympoly(field, 0)
    deltas = []
    for k in range(s, size):
        c = binomial_in_field(k - 1, s - 1, field)
        if c:
            deltas.append((k, -c if (k - s) & 1 else c))
    coeffs = [0] * size
    for k, d in deltas:
        coeffs[k] = d
    if lo > 0:
        for j in range(1, size):
            shift = binomial_in_field(lo + j - 1, j, field)
            if shift == 0:
                continue
            if j & 1:
                shift = -shift
            for k, d in deltas:
                if k >= j:
                    coeffs[k - j] += shift * d
    return SymPoly(field, tuple(coeffs))


def periodic_exact(g: Spectrum, field: FieldSpec) -> SymPoly:
    """Zero-error polynomial for a spectrum whose period is a power of the
    characteristic.

    With per(g) = p**t, C(w, k) mod p depends only on w mod p**t whenever
    k < p**t, so matching g on weights 0..p**t - 1 with coefficients
    c_0..c_{p**t - 1} matches it on every weight.  The degree is therefore
    below the period.
    """
    p = field.characteristic
    b = period(g)
    if not _is_char_power(b, p):
        if p == 0:
            raise ValueError(
                "period must be 1 in characteristic 0; "
                f"got period {b}, not a characteristic power"
            )
        raise ValueError(
            f"period {b} is not a characteristic power (characteristic {p})"
        )
    # sum_k c_k C(w, k) = g(w) on w in [0, b - 1] (Newton's forward
    # formula): c_k is the k-th forward difference of g at 0.
    return SymPoly(field, tuple(_forward_differences(g.values[:b])))


class MultilinearPoly:
    """Multilinear polynomial over the field, term map frozenset -> coefficient.

    Multiplication applies x_i**2 = x_i, so products stay multilinear; this
    is the representation used by the degree audit when expanding sampled
    expression trees.
    """

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: FieldSpec, n: int, terms: dict | None = None):
        self.field = field
        self.n = n
        self.terms: dict[frozenset, FieldElement] = {}
        if terms:
            for mono, c in terms.items():
                c = field.element(c)
                if c != 0:
                    self.terms[frozenset(mono)] = c

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(len(m) for m in self.terms)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def add(self, other: "MultilinearPoly") -> "MultilinearPoly":
        out = dict(self.terms)
        f = self.field
        for mono, c in other.terms.items():
            acc = f.add(out.get(mono, 0), c)
            if acc == 0:
                out.pop(mono, None)
            else:
                out[mono] = acc
        res = MultilinearPoly(f, self.n)
        res.terms = out
        return res

    def scale(self, c: FieldElement) -> "MultilinearPoly":
        f = self.field
        c = f.element(c)
        res = MultilinearPoly(f, self.n)
        if c != 0:
            res.terms = {m: f.mul(c, v) for m, v in self.terms.items()}
        return res

    def mul(self, other: "MultilinearPoly") -> "MultilinearPoly":
        f = self.field
        out: dict[frozenset, FieldElement] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 | m2
                acc = f.add(out.get(mono, 0), f.mul(c1, c2))
                if acc == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        res = MultilinearPoly(f, self.n)
        res.terms = out
        return res

    def evaluate(self, x: Sequence[FieldElement]) -> FieldElement:
        f = self.field
        total = f.element(0)
        for mono, c in self.terms.items():
            prod = c
            for i in mono:
                prod = f.mul(prod, x[i])
                if prod == 0:
                    break
            total = f.add(total, prod)
        return total

    def to_json(self) -> dict:
        fmt = self.field.format_element
        return {
            "char": self.field.characteristic,
            "n": self.n,
            "terms": {
                ",".join(str(i) for i in sorted(mono)): fmt(c)
                for mono, c in sorted(self.terms.items(), key=lambda kv: sorted(kv[0]))
            },
        }

    @staticmethod
    def constant(field: FieldSpec, n: int, c: FieldElement) -> "MultilinearPoly":
        return MultilinearPoly(field, n, {frozenset(): c})

    @staticmethod
    def variable(field: FieldSpec, n: int, i: int) -> "MultilinearPoly":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        return MultilinearPoly(field, n, {frozenset([i]): 1})


def expand_multilinear(poly: SymPoly, n: int) -> MultilinearPoly:
    """Expand a weight polynomial into the multilinear polynomial on n
    variables: C(w, k) becomes the k-th elementary symmetric polynomial.

    Exponential in n, so n is capped at EXPAND_LIMIT.
    """
    if n > EXPAND_LIMIT:
        raise ValueError(f"expansion limited to {EXPAND_LIMIT} variables, got {n}")
    field = poly.field
    out = MultilinearPoly(field, n)
    for k, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        layer = MultilinearPoly(field, n, {frozenset(s): c for s in combinations(range(n), k)})
        out = out.add(layer)
    return out
