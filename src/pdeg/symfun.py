"""Symmetric Boolean functions as weight spectra.

A symmetric Boolean function on n variables is determined by its value on
each Hamming weight, so it is stored as a bit string of length n + 1 indexed
by weight.  This module provides the named function families, the period and
bounded-radius analyses, the periodic/bounded decomposition, and restriction
operators that fix some inputs to constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import xor
from typing import Iterable, Sequence


# The values a spectrum entry, or a point of the cube, may take.
BOOLEAN = frozenset((0, 1))

# bytes.translate tables between 0/1 entries and '0'/'1' characters.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_ENTRIES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Value of a symmetric function at each Hamming weight 0..n."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        # bytes() takes ints and bools but refuses floats, Fractions, strings
        # and None, even where they equal 0 or 1; the tuple rebuilt from it
        # holds plain ints.
        try:
            raw = bytes(tuple(self.values))
        except (TypeError, ValueError):
            raise ValueError("spectrum entries must be the ints 0 or 1") from None
        if not raw:
            raise ValueError("spectrum must have length at least 1")
        if raw.translate(None, b"\x00\x01"):
            raise ValueError("spectrum entries must be 0 or 1")
        object.__setattr__(self, "values", tuple(raw))

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, w: int) -> int:
        return self.values[w]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def text(self) -> str:
        """Render as a line of '0'/'1' characters, index = Hamming weight."""
        return bits_text(self.values)

    def __str__(self) -> str:
        return self.text()


def bits_text(values: Sequence[int]) -> str:
    """0/1 int entries as a line of '0'/'1' characters, one per entry."""
    return bytes(values).translate(_DIGITS).decode("ascii")


def bits_mask(values: Sequence[int]) -> int:
    """The int whose bit i is values[i], for 0/1 int entries."""
    return int(bytes(reversed(values)).translate(_DIGITS) or b"0", 2)


def text_entries(text: str) -> bytes:
    """The 0/1 entries of a line of '0'/'1' characters, one byte each."""
    return text.encode("ascii").translate(_ENTRIES)


def spectrum(bits: str | Iterable[int]) -> Spectrum:
    """Build a Spectrum from a bit string or an iterable of 0/1 ints."""
    if isinstance(bits, str):
        cleaned = bits.strip()
        if not cleaned or cleaned.strip("01"):
            raise ValueError(f"invalid spectrum text: {bits!r}")
        return Spectrum(tuple(text_entries(cleaned)))
    return Spectrum(tuple(int(b) for b in bits))


def parse_spectrum_file(path: str) -> Spectrum:
    """Read a spectrum from a text file holding one line of 0/1 characters."""
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline()
    return spectrum(line)


# The parameters each named family takes, in order.
_FAMILY_PARAMS = {
    "OR": (),
    "AND": (),
    "MAJ": (),
    "THR": ("t",),
    "ETHR": ("t",),
    "CONST": ("c",),
    "MOD": ("b", "i"),
}


def named_spectrum(kind: str, n: int, *params: int) -> Spectrum:
    """Spectrum of a named function family on n variables.

    Kinds: OR, AND, MAJ (weight strictly above n/2), THR(t) (weight >= t),
    ETHR(t) (weight == t), MOD(b, i) (weight congruent to i mod b), and
    CONST(c).  Parameters out of range are rejected.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    kind = kind.upper()
    if kind not in _FAMILY_PARAMS:
        raise ValueError(f"unknown function kind: {kind}")
    names = _FAMILY_PARAMS[kind]
    if len(params) != len(names):
        wanted = f"parameters ({', '.join(names)})" if names else "no parameters"
        raise ValueError(f"{kind} takes {wanted}, got {list(params)}")
    if kind == "OR":
        return _step(n, 1)
    if kind == "AND":
        return _step(n, n)
    if kind == "MAJ":
        return _step(n, n // 2 + 1)
    if kind == "THR":
        (t,) = params
        if not 0 <= t <= n:
            raise ValueError(f"threshold {t} out of range [0, {n}]")
        return _step(n, t)
    if kind == "ETHR":
        (t,) = params
        if not 0 <= t <= n:
            raise ValueError(f"threshold {t} out of range [0, {n}]")
        return Spectrum((0,) * t + (1,) + (0,) * (n - t))
    if kind == "MOD":
        b, i = params
        if not 2 <= b <= n:
            raise ValueError(f"modulus {b} out of range [2, {n}]")
        if not 0 <= i <= b - 1:
            raise ValueError(f"residue {i} out of range [0, {b - 1}]")
        block = (0,) * i + (1,) + (0,) * (b - 1 - i)
        return Spectrum((block * (n // b + 1))[: n + 1])
    (c,) = params
    if c not in (0, 1):
        raise ValueError("constant must be 0 or 1")
    return Spectrum((c,) * (n + 1))


def _step(n: int, t: int) -> Spectrum:
    """The spectrum [w >= t] on weights 0..n, for 0 <= t <= n + 1."""
    return Spectrum((0,) * t + (1,) * (n + 1 - t))


def period(s: Spectrum) -> int:
    """Smallest positive b with s(i) = s(i+b) for all i in [0, n-b].

    Constant spectra have period 1.  When no b <= n satisfies the shift
    equation (the two ends never realign), the vacuous value n + 1 is
    returned: every constraint set for b = n + 1 is empty.
    """
    if s.n < 1:
        raise ValueError("period requires n >= 1")
    return _least_period(s.values)


def _least_period(v: Sequence[int]) -> int:
    """Smallest b in 1..len(v) with v[i] = v[i + b] wherever both exist."""
    # Bit i of bits is v[i], so the shift equation for b says that bits
    # shifted down by b equals its low len(v) - b bits.  It implies
    # v[b] = v[0], so only those b are tried.
    bits = bits_mask(v)
    text = bits_text(v)
    b = text.find(text[0], 1)
    while b > 0:
        if bits >> b == bits & ((1 << (len(v) - b)) - 1):
            return b
        b = text.find(text[0], b + 1)
    return len(v)


def bounded_radius(s: Spectrum) -> int:
    """Smallest k such that the spectrum is constant on [k, n-k].

    Returns 0 exactly for constant spectra.  For odd n with the two middle
    values unequal no window is constant; the convention is to return
    ceil((n+1)/2), the least k making the window empty (see
    bounded_radius_flagged to detect that case).
    """
    k, _ = bounded_radius_flagged(s)
    return k


def bounded_radius_flagged(s: Spectrum) -> tuple[int, bool]:
    """bounded_radius plus a flag marking the empty-window degenerate case."""
    if s.n < 1:
        raise ValueError("bounded_radius requires n >= 1")
    v = s.values
    n = s.n
    mid = n // 2
    x = v[mid]
    if v[n - mid] != x:
        # Odd n with the two middle values unequal: the least k whose
        # window [k, n-k] is empty.
        return (n + 2) // 2, True
    # Every nonempty window [k, n-k] holds the middle weight(s), so it is
    # constant exactly when it lies in the constant run [lo, hi] around them.
    lo, hi = mid, n - mid
    while lo > 0 and v[lo - 1] == x:
        lo -= 1
    while hi < n and v[hi + 1] == x:
        hi += 1
    return max(lo, n - hi), False


def complement_spectrum(s: Spectrum) -> Spectrum:
    return Spectrum(tuple(1 - v for v in s.values))


def reflect_spectrum(s: Spectrum) -> Spectrum:
    """Spectrum of x -> f(1-x_1, ..., 1-x_n): reverses the weight axis."""
    return Spectrum(tuple(reversed(s.values)))


def xor_spectra(a: Spectrum, b: Spectrum) -> Spectrum:
    if a.n != b.n:
        raise ValueError("spectra must have equal length")
    return Spectrum(tuple(map(xor, a.values, b.values)))


@dataclass(frozen=True, slots=True)
class DecompositionReport:
    """Split of f into a periodic part g and a bounded part h = f XOR g.

    g agrees with f on the middle window [ceil(n/3), floor(2n/3)] and has the
    smallest period among all spectra agreeing there, so h vanishes on that
    window.  period_g never exceeds the window length
    floor(2n/3) - ceil(n/3) + 1, and bounded_radius_h <= ceil(n/3).
    bounded_radius_h and radius_h_degenerate are bounded_radius_flagged(h),
    taken once when the report is made.
    """

    f: Spectrum
    g: Spectrum
    h: Spectrum
    period_g: int
    bounded_radius_h: int
    period_is_char_power: bool
    radius_h_degenerate: bool


def _is_char_power(b: int, characteristic: int) -> bool:
    """True when b equals characteristic**t for some t >= 0 (always for b=1)."""
    if b == 1:
        return True
    if characteristic <= 1:
        return False
    while b % characteristic == 0:
        b //= characteristic
    return b == 1


def standard_decomposition(f: Spectrum, characteristic: int = 0) -> DecompositionReport:
    """Decompose f = g XOR h with g periodic and h vanishing on the middle window.

    Scans b = 1, 2, ... for the smallest b making the window
    [ceil(n/3), floor(2n/3)] internally b-periodic, then extends the window
    pattern b-periodically to all weights.  Any spectrum agreeing with f on
    the window restricts there to a b'-periodic string, so this b is minimal
    among the periods of all agreeing spectra.
    """
    n = f.n
    if n < 3:
        raise ValueError("decomposition requires n >= 3")
    lo = -(-n // 3)
    hi = (2 * n) // 3
    window = f.values[lo : hi + 1]
    b = _least_period(window)
    # g(w) = window[(w - lo) % b]: one period of the window, rotated so that
    # it starts at weight 0, repeated.  A period of g would be one of the
    # window it holds, so g's least period is b.
    shift = -lo % b
    cycle = window[shift:b] + window[:shift]
    g = Spectrum((cycle * (n // b + 1))[: n + 1])
    h = xor_spectra(f, g)
    radius_h, degenerate_h = bounded_radius_flagged(h)
    return DecompositionReport(
        f=f,
        g=g,
        h=h,
        period_g=b,
        bounded_radius_h=radius_h,
        period_is_char_power=_is_char_power(b, characteristic),
        radius_h_degenerate=degenerate_h,
    )


def restricted_n(n: int, zeros: int, ones: int) -> int:
    """Inputs left free when `zeros` and `ones` of n inputs are pinned."""
    if zeros < 0 or ones < 0:
        raise ValueError("restriction counts must be non-negative")
    if zeros + ones > n:
        raise ValueError(f"cannot fix {zeros + ones} of {n} inputs")
    return n - zeros - ones


def restrict(f: Spectrum, zeros: int, ones: int) -> Spectrum:
    """Fix `zeros` inputs to 0 and `ones` inputs to 1.

    The result lives on n - zeros - ones variables and its value at weight w
    is Spec f(w + ones).
    """
    m = restricted_n(f.n, zeros, ones)
    return Spectrum(f.values[ones : ones + m + 1])


def threshold_combination(f: Spectrum) -> tuple[int, ...]:
    """Coefficients a_0..a_n in {-1,0,1} with f = sum_j a_j * [w >= j].

    a_0 = Spec f(0) and a_j = Spec f(j) - Spec f(j-1); the telescoping sum
    reproduces the spectrum exactly over the integers (hence over any field).
    """
    v = f.values
    return (v[0],) + tuple(v[j] - v[j - 1] for j in range(1, len(v)))


def min_t_constant(f: Spectrum) -> int:
    """Smallest t such that Spec f is constant on [t, n]."""
    v = f.values
    t = f.n
    while t > 0 and v[t - 1] == v[f.n]:
        t -= 1
    return t

