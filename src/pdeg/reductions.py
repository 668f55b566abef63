"""Reductions that transfer degree lower bounds between symmetric functions.

Every operation here emits a ReductionCertificate: a list of restrictions of
the source function (inputs pinned to constants) together with a low-degree
combination of the restricted functions that reproduces the target function
exactly.  Certificates can be re-checked from scratch and serialized.
"""

from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import compress
from typing import Sequence

from .polyalg import (
    FieldElement,
    FieldSpec,
    bounded_repr,
    check_eps,
    json_field,
    json_key,
    json_pair,
    log2_inv,
)
from .symfun import (
    BOOLEAN,
    Spectrum,
    _is_char_power,
    bits_mask,
    bits_text,
    bounded_radius_flagged,
    named_spectrum,
    period,
    reflect_spectrum,
    restrict,
    restricted_n,
    spectrum,
)


def _bit_string(name: str, text) -> str:
    """A certificate's stored 0/1 text, or ValueError naming its field."""
    if type(text) is str and text and not text.strip("01"):
        return text
    raise ValueError(
        f"certificate {name} must be a nonempty 0/1 string, got {bounded_repr(text)}"
    )


@dataclass(frozen=True, slots=True)
class LiteralCombiner:
    """Linear combination of products of slot literals.

    A term (coeff, ((slot, polarity), ...)) contributes coeff times the
    product over its literals, where polarity 1 reads the slot value and
    polarity 0 reads one minus the slot value.
    """

    terms: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    @property
    def degree(self) -> int:
        return max((len(lits) for _, lits in self.terms), default=0)

    def evaluate(
        self, values: Sequence[FieldElement], field: FieldSpec
    ) -> FieldElement:
        total = field.element(0)
        for coeff, literals in self.terms:
            prod = field.element(coeff)
            for slot, pol in literals:
                if prod == 0:
                    break
                v = values[slot]
                prod = field.mul(prod, v if pol else field.sub(1, v))
            total = field.add(total, prod)
        return total

    def __call__(self, values, field):
        return self.evaluate(values, field)

    def to_json(self) -> dict:
        return {
            "terms": [
                [coeff, [[s, p] for s, p in literals]]
                for coeff, literals in self.terms
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "LiteralCombiner":
        """Parse to_json's terms; terms or a term's literals that are not a
        list, a term or literal that is not a pair, a coefficient, slot or
        polarity that is not an int (bools included) or a polarity other
        than 0/1 raises ValueError naming the field."""

        def literal(lit) -> tuple[int, int]:
            slot, pol = json_pair("certificate literal", lit)
            slot = json_field("certificate slot", slot, int)
            if json_field("certificate polarity", pol, int) not in (0, 1):
                raise ValueError(f"certificate polarity must be 0 or 1, got {pol}")
            return slot, pol

        def term(entry) -> tuple[int, tuple[tuple[int, int], ...]]:
            coeff, literals = json_pair("certificate term", entry)
            return (
                json_field("certificate coefficient", coeff, int),
                tuple(map(literal, json_field("certificate literals", literals, list))),
            )

        return LiteralCombiner(
            tuple(map(term, json_key(obj, "terms", list, "certificate ")))
        )


@dataclass(frozen=True, slots=True)
class ReductionCertificate:
    """Restrictions of a source spectrum plus a combiner hitting a target.

    restrictions[i] = (zeros, ones) defines slot i as the source with that
    many inputs pinned; when source_reflected is set the pinning applies to
    the weight-reversed source.  claimed_degree bounds the combiner degree,
    and target_n is read off the target text; check verifies both.
    """

    kind: str
    source: str
    source_reflected: bool
    target_label: str
    target_params: tuple[int, ...]
    target_spectrum: str
    restrictions: tuple[tuple[int, int], ...]
    combiner: LiteralCombiner
    claimed_degree: int
    extras: dict

    @property
    def target_n(self) -> int:
        return len(self.target_spectrum) - 1

    def _source(self) -> Spectrum:
        src = spectrum(self.source)
        return reflect_spectrum(src) if self.source_reflected else src

    def slot_spectra(self) -> list[Spectrum]:
        """Restricted spectra, one per slot: the pointwise view of the slots."""
        src = self._source()
        return [restrict(src, zeros, ones) for zeros, ones in self.restrictions]

    def check(self, field: FieldSpec) -> bool:
        return not self.failures(field)

    def failures(self, field: FieldSpec) -> list[tuple[int, FieldElement, int]]:
        """Weights w where the combiner misses the target, as (w, got, want)
        in weight order; a combiner of degree above claimed_degree raises
        ValueError.

        Works on bit-packed 0/1 weight columns read straight from the stored
        text: slot (zeros, ones) reads the source at w + ones, so its column
        over the target's weights is the source bitmask shifted right by
        ones.  Every slot is validated, but a column is built only when a
        term first reads it.  Each term ANDs its literal columns into one
        column, and the columns of each coefficient are counted in bit
        planes (plane k holds bit k of the count).  The weights are then
        kept as classes of equal total, one bitmask per class: each plane
        splits every class into the weights it covers, whose total gains
        the coefficient times 2^k, and the rest.  A class whose total is 1
        inside the target, or 0 outside it, holds; tuples are built only
        for the weights of the classes that miss.
        """
        source = _bit_string("source", self.source)
        target = _bit_string("target spectrum", self.target_spectrum)
        n = len(target) - 1
        full = (1 << (n + 1)) - 1
        # Bit w is the (possibly weight-reversed) source's value at weight w.
        src_bits = int(source if self.source_reflected else source[::-1], 2)
        shifts = []
        for slot, (zeros, ones) in enumerate(self.restrictions):
            try:
                free = restricted_n(len(source) - 1, zeros, ones)
            except ValueError as exc:
                raise ValueError(f"slot {slot} {(zeros, ones)}: {exc}") from None
            if free < n:
                raise ValueError(
                    f"slot {slot} {(zeros, ones)} leaves {free + 1} weights; "
                    f"the target needs {n + 1}"
                )
            shifts.append(ones)
        for _, literals in self.combiner.terms:
            for slot, _ in literals:
                if not 0 <= slot < len(shifts):
                    raise ValueError(
                        f"combiner reads slot {slot}, but the certificate has "
                        f"{len(shifts)} restrictions"
                    )
        if self.combiner.degree > self.claimed_degree:
            raise ValueError(
                f"combiner degree {self.combiner.degree} exceeds claimed_degree "
                f"{self.claimed_degree}"
            )

        columns: dict[int, int] = {}
        planes: dict[FieldElement, list[int]] = {}
        for coeff, literals in self.combiner.terms:
            c = field.element(coeff)
            if c == 0:
                continue
            col = full
            for slot, pol in literals:
                column = columns.get(slot)
                if column is None:
                    column = columns[slot] = (src_bits >> shifts[slot]) & full
                col &= column if pol else full ^ column
                if not col:
                    break
            counter = planes.setdefault(c, [])
            k = 0
            while col:  # ripple-carry add of col into the counter
                if k == len(counter):
                    counter.append(0)
                counter[k], col = counter[k] ^ col, counter[k] & col
                k += 1

        classes = {0: full}  # total -> bitmask of the weights that have it
        for c, counter in planes.items():
            for k, plane in enumerate(counter):
                step = c * (1 << k)
                split: dict[FieldElement, int] = {}
                for total, mask in classes.items():
                    hit = mask & plane
                    if hit:
                        split[total + step] = split.get(total + step, 0) | hit
                    if hit != mask:
                        split[total] = split.get(total, 0) | (mask ^ hit)
                classes = split

        p = field.characteristic
        want = int(target[::-1], 2)
        missed = []
        for total, mask in classes.items():
            value = total % p if p else total
            if value == 1:
                wrong = mask & ~want
            elif value == 0:
                wrong = mask & want
            else:
                wrong = mask
            if wrong:
                got = field.element(total)
                bits = format(wrong, "b")[::-1]
                missed += [
                    (w, got, (want >> w) & 1) for w, bit in enumerate(bits) if bit == "1"
                ]
        missed.sort(key=lambda miss: miss[0])
        return missed

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": self.kind,
            "source": self.source,
            "source_reflected": self.source_reflected,
            "target": {
                "label": self.target_label,
                "params": list(self.target_params),
                "n": self.target_n,
                "spectrum": self.target_spectrum,
            },
            "restrictions": [[z, o] for z, o in self.restrictions],
            "combiner": self.combiner.to_json(),
            "claimed_degree": self.claimed_degree,
            "extras": deepcopy(self.extras),
        }

    @staticmethod
    def from_json(obj: dict) -> "ReductionCertificate":
        """Parse to_json's object.  A missing or mistyped field, a number
        that is not an int (bools included), and target text that is not 0/1
        or whose n differs raise ValueError naming the field; nothing is
        coerced."""
        read = partial(json_key, prefix="certificate ")
        target = read(obj, "target", dict)
        text = _bit_string("target spectrum", target.get("spectrum"))
        if read(target, "n", int, prefix="certificate target ") != len(text) - 1:
            raise ValueError(f"certificate target n {target['n']} is not {len(text) - 1}")
        return ReductionCertificate(
            kind=read(obj, "kind", str),
            source=read(obj, "source", str),
            source_reflected=read(obj, "source_reflected", bool),
            target_label=read(target, "label", str, prefix="certificate target "),
            target_params=tuple(
                json_field("certificate target param", x, int)
                for x in read(target, "params", list, prefix="certificate target ")
            ),
            target_spectrum=text,
            restrictions=tuple(
                tuple(
                    json_field("certificate restriction", x, int)
                    for x in json_pair("certificate restriction", pair)
                )
                for pair in read(obj, "restrictions", list)
            ),
            combiner=LiteralCombiner.from_json(read(obj, "combiner", dict)),
            claimed_degree=read(obj, "claimed_degree", int),
            extras=dict(read(obj, "extras", dict)),
        )


# ---------------------------------------------------------------------------
# Support shrinking


@dataclass(frozen=True, slots=True)
class ShrinkResult:
    """Outcome of the greedy support-halving pass.

    chosen lists indices into the input family, in pick order; the product
    of the chosen functions is 1 exactly at support_point.
    """

    chosen: tuple[int, ...]
    support_point: int


def shrink_support(family: Sequence[Sequence[int]]) -> ShrinkResult:
    """Pick at most log2(domain) family members whose product is a point mass.

    The family must be closed under complement and separating: for any two
    domain points some member takes value 1 on one and 0 on the other.  Each
    greedy pick at least halves the support of the running product,
    preferring the un-complemented candidate on ties.
    """
    family = [tuple(int(v) for v in f) for f in family]
    if not family:
        return _shrink_masks([], 1)
    m = len(family[0])
    if any(len(f) != m for f in family):
        raise ValueError("family members must share one domain")
    if any(v not in (0, 1) for f in family for v in f):
        raise ValueError("family members must be 0/1")
    masks = [bits_mask(f) for f in family]
    full = (1 << m) - 1
    present = set(masks)
    if any(full ^ mask not in present for mask in masks):
        raise ValueError("family is not closed under complement")
    return _shrink_masks(masks, m)


def _shrink_masks(masks: list[int], m: int) -> ShrinkResult:
    """The greedy of shrink_support on a complement-closed family of masks."""
    if m < 1:
        raise ValueError("family domain has no points")
    full = (1 << m) - 1
    supp = full
    chosen: list[int] = []

    if m > 1:
        # Opening pick: first non-constant member, smaller-support side.
        start = None
        for idx, mask in enumerate(masks):
            size = mask.bit_count()
            if 0 < size < m:
                start = idx if 2 * size <= m else masks.index(full ^ mask)
                break
        if start is None:
            raise ValueError("hypothesis violation: no non-constant member")
        chosen.append(start)
        supp = masks[start]

    size = supp.bit_count()
    while size > 1:
        # Separate the two lowest points still in the support.
        low_i = supp & -supp
        low_j = (supp ^ low_i) & -(supp ^ low_i)
        pick = next(
            (
                idx
                for idx, mask in enumerate(masks)
                if mask & low_i and not mask & low_j
            ),
            None,
        )
        if pick is None:
            i, j = low_i.bit_length() - 1, low_j.bit_length() - 1
            raise ValueError(
                f"hypothesis violation: no member separates points ({i}, {j})"
            )
        keep = supp & masks[pick]
        kept = keep.bit_count()
        if 2 * kept <= size:
            chosen.append(pick)
            supp, size = keep, kept
        else:
            chosen.append(masks.index(full ^ masks[pick]))  # its first copy
            supp, size = supp ^ keep, size - kept

    bound = m.bit_length() - 1  # floor(log2 m)
    if len(chosen) > bound:
        raise AssertionError(
            f"greedy used {len(chosen)} picks on a domain of {m} points"
        )
    return ShrinkResult(chosen=tuple(chosen), support_point=supp.bit_length() - 1)


# ---------------------------------------------------------------------------
# Point indicators from cyclic shifts


@dataclass(frozen=True, slots=True)
class DeltaProduct:
    """Product of shift-slot literals equal to the indicator of one residue.

    Slot j carries the pattern shifted by j; the product of the listed
    literals is 1 exactly when the evaluation residue equals index.
    """

    length: int
    index: int
    literals: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return len(self.literals)


def delta_from_shifts(u: Sequence[int] | str) -> DeltaProduct:
    """Indicator of a single residue as a short product over cyclic shifts.

    u must not be fixed by any nontrivial cyclic shift; the shifted copies
    u(. + j) together with their complements then separate residues, and the
    greedy support shrink yields a product of at most log2(len(u)) literals.
    """
    u = tuple(map(int, u.strip() if isinstance(u, str) else u))
    m = len(u)
    if m < 2:
        raise ValueError("pattern must have length at least 2")
    if not BOOLEAN.issuperset(u):
        raise ValueError("pattern must be 0/1")

    # Bit r of shift j is u[(r + j) mod m]: the pattern rotated right by j.
    full = (1 << m) - 1
    bits = bits_mask(u)
    shifts = [((bits >> j) | (bits << (m - j))) & full for j in range(m)]
    for s in range(1, m):
        if shifts[s] == bits:
            raise ValueError(f"pattern is fixed by the cyclic shift {s}")

    result = _shrink_masks(shifts + [full ^ mask for mask in shifts], m)
    literals = tuple(
        (idx % m, 0 if idx >= m else 1) for idx in result.chosen
    )
    return DeltaProduct(length=m, index=result.support_point, literals=literals)


def shifted_delta(delta: DeltaProduct, t: int) -> tuple[tuple[int, int], ...]:
    """Relabel a residue indicator's slots so its value becomes [r == t]."""
    m = delta.length
    offset = (delta.index - t) % m
    return tuple(((j + offset) % m, pol) for j, pol in delta.literals)


# ---------------------------------------------------------------------------
# Named reductions


def _smallest_coprime_prime_factor(b: int, p: int) -> int:
    d = 2
    while d * d <= b:
        if b % d == 0:
            if d != p:
                return d
            while b % d == 0:
                b //= d
        else:
            d += 1
    if b > 1 and b != p:
        return b
    raise ValueError("no prime factor distinct from the characteristic")


def mod_from_periodic(
    g: Spectrum, field: FieldSpec
) -> tuple[ReductionCertificate, ...]:
    """Modular counting functions from a short-period spectrum.

    With per(g) = b not a power of the characteristic, q is the smallest
    prime factor of b other than the characteristic; slot j pins b - j zeros
    and j ones, so at weight w the slot vector is the pattern shifted by w.
    Summing residue indicators over each class mod q yields MOD(q, i) on
    n - b variables, one certificate per residue.
    """
    n = g.n
    b = period(g)
    p = field.characteristic
    if b <= 1:
        raise ValueError(f"period {b} is trivial")
    if b > n // 3:
        raise ValueError(f"period {b} exceeds n/3 = {n // 3}")
    if _is_char_power(b, p):
        raise ValueError(
            f"period {b} is a characteristic power; exact interpolation applies"
        )
    q = _smallest_coprime_prime_factor(b, p)

    u = g.values[:b]
    base_delta = delta_from_shifts(u)
    restrictions = tuple((b - j, j) for j in range(b))
    m_target = n - b
    certs = []
    for residue in range(q):
        terms = tuple(
            (1, shifted_delta(base_delta, t))
            for t in range(b)
            if t % q == residue
        )
        combiner = LiteralCombiner(terms)
        target = named_spectrum("MOD", m_target, q, residue)
        certs.append(
            ReductionCertificate(
                kind="mod_from_periodic",
                source=g.text(),
                source_reflected=False,
                target_label="MOD",
                target_params=(q, residue),
                target_spectrum=target.text(),
                restrictions=restrictions,
                combiner=combiner,
                claimed_degree=combiner.degree,
                extras={"period": b, "modulus": q, "pattern": bits_text(u)},
            )
        )
    return tuple(certs)


def _product(factors: list[int]) -> int:
    """The product of factors, multiplied pairwise in a balanced tree."""
    while len(factors) > 1:
        pairs = iter(factors)
        factors = [a * b for a, b in zip(pairs, pairs)] + factors[len(factors) & ~1 :]
    return factors[0] if factors else 1


def _binomial(m: int, k: int) -> int:
    """C(m, k) for 0 <= k <= m, as a product of prime powers.

    Legendre's formula gives each prime's exponent: the number of carries
    when k and m - k are added in base p (Kummer).
    """
    j = m - k
    sieve = bytearray(2) + bytearray([1]) * (m - 1)
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((m - p * p) // p + 1)
    powers = []
    for p in compress(range(m + 1), sieve):
        e, q = 0, p
        while q <= m:
            e += m // q - k // q - j // q
            q *= p
        if e:
            powers.append(p**e)
    return _product(powers)


def _ratio_split(
    m: int, inside: set[int], lo: int, hi: int
) -> tuple[int, int, int]:
    """Binary splitting of C(m, w + 1) / C(m, w) = (m - w)/(w + 1) over lo..hi-1.

    Returns (P, Q, T): the products of the numerators and of the
    denominators, and T with T/Q = the sum, over the members w of inside
    in the block, of C(m, w) / C(m, lo).  Blocks of up to 32 weights fold
    one weight at a time; halves combine as T = T1·Q2 + P1·T2.
    """
    if hi - lo <= 32:
        num = den = 1
        acc = 0
        for w in range(lo, hi):
            if w in inside:
                acc += num
            num *= m - w
            den *= w + 1
            acc *= w + 1
        return num, den, acc
    mid = (lo + hi) // 2
    p1, q1, t1 = _ratio_split(m, inside, lo, mid)
    p2, q2, t2 = _ratio_split(m, inside, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _binomial_tail_outside(m: int, window: Sequence[int]) -> Fraction:
    """P[Binomial(m, 1/2) lands outside the given weight set], exact.

    That is 2^-m times 2^m minus the binomials inside the set.  With lo
    and hi the set's least and greatest weights in 0..m, their sum is
    C(m, lo) · T / Q, where _ratio_split gives T and Q from the term
    ratios over lo..hi and _binomial builds C(m, lo) from its primes.
    """
    inside = {w for w in window if 0 <= w <= m}
    total = 1 << m
    if inside:
        lo, hi = min(inside), max(inside)
        _, den, acc = _ratio_split(m, inside, lo, hi + 1)
        total -= _binomial(m, lo) * acc // den
    return Fraction(total, 1 << m)


def maj_from_periodic(
    g: Spectrum, eps: Fraction, field: FieldSpec
) -> ReductionCertificate:
    """Majority from a spectrum whose period is a characteristic power.

    Selects a majority size m and confidence delta by the period's scale,
    validates the selection constraints, and builds a combiner whose value
    at weight w equals a periodic function agreeing with Maj_m on all
    weights in a central window; the weight distribution mass outside the
    window is at most delta.  Rejected when no scale case validates.
    """
    n = g.n
    b = period(g)
    p = field.characteristic
    if p == 0:
        raise ValueError("positive characteristic required")
    if b <= 1:
        raise ValueError(f"period {b} is trivial")
    if not _is_char_power(b, p):
        raise ValueError(
            f"period {b} is not a characteristic power; use the modular reduction"
        )
    eps = check_eps(eps)

    attempts = []

    def parity_floor(value: int) -> int:
        """Largest m <= value with m = n - b (mod 2), or 0 when none."""
        m = min(value, n - b)
        if m < 1:
            return 0
        if (m - (n - b)) % 2 != 0:
            m -= 1
        return m

    candidates: list[tuple[int, int, Fraction]] = []
    if b * b <= 100 * n:
        m = parity_floor(b * b // 100)
        candidates.append((1, m, Fraction(1, 5)))
    if 10 * b >= n:
        m = parity_floor(n // 100)
        delta = max(eps, Fraction(1, 1 << m)) if m >= 1 else eps
        candidates.append((2, m, delta))
    if b * b > 100 * n and 10 * b < n:
        m = n - b
        exponent = math.ceil(b * b / (16 * m)) if m >= 1 else 0
        delta = max(eps, Fraction(1, 1 << exponent)) if m >= 1 else eps
        candidates.append((3, m, delta))

    selected = None
    for case, m, delta in candidates:
        problems = []
        if m < 1:
            problems.append("window size collapses to zero")
        else:
            pinned = math.sqrt(m * log2_inv(delta))
            if not (Fraction(1, 5) >= delta >= max(eps, Fraction(1, 1 << m))):
                problems.append(f"confidence {delta} out of range")
            if 4 * pinned > b:
                problems.append(
                    f"window halfwidth 4*sqrt(m*log(1/delta)) = {4 * pinned:.2f} "
                    f"exceeds period {b}"
                )
            floor_req = min(b, math.sqrt(n * log2_inv(eps))) / 40
            if pinned < floor_req:
                problems.append(
                    f"sqrt(m*log(1/delta)) = {pinned:.2f} below {floor_req:.2f}"
                )
        if not problems:
            selected = (case, m, delta)
            break
        attempts.append((case, m, str(delta), problems))

    if selected is None:
        raise ValueError(
            "no scale case validates for "
            f"n={n}, b={b}, eps={eps}: {attempts}"
        )

    case, m, delta = selected
    t_pin = (n - b - m) // 2
    halfwidth = 2 * math.sqrt(m * log2_inv(delta))
    center = (n - b) / 2

    pattern = [0] * b
    filled = [False] * b
    z_lo = math.floor(center - halfwidth) + 1
    z_hi = math.ceil(center + halfwidth) - 1
    window_weights = []
    for z in range(z_lo, z_hi + 1):
        r = z % b
        if filled[r]:
            raise AssertionError("window residues collide; constraints violated")
        filled[r] = True
        pattern[r] = 1 if 2 * z > n - b else 0
        w = z - t_pin
        if 0 <= w <= m:
            window_weights.append(w)

    # Slot j pins t_pin extra ones, so its value at weight w is the pattern
    # at residue (w + t_pin + j); the residue indicators therefore target r
    # itself and the pinning shift is already inside the slot values.
    base_delta = delta_from_shifts(g.values[:b])
    restrictions = tuple((b - j + t_pin, j + t_pin) for j in range(b))
    terms = tuple(
        (1, shifted_delta(base_delta, r)) for r in range(b) if pattern[r] == 1
    )
    combiner = LiteralCombiner(terms)

    # The combined value at weight w is pattern[(w + t_pin) mod b]; it must
    # match Maj_m on every window weight, and the mass outside the window
    # must be small.
    maj = named_spectrum("MAJ", m)
    for w in window_weights:
        got = pattern[(w + t_pin) % b]
        if got != maj.values[w]:
            raise AssertionError(f"window weight {w} disagrees with majority")
    tail = _binomial_tail_outside(m, window_weights)
    if tail > delta:
        raise AssertionError(
            f"binomial mass {tail} outside the window exceeds {delta}"
        )

    # Weight w reads pattern[(w + t_pin) mod b]: the pattern rotated by
    # t_pin and tiled over weights 0..m.
    shift = t_pin % b
    cycle = bits_text(pattern[shift:] + pattern[:shift])
    cert = ReductionCertificate(
        kind="maj_from_periodic",
        source=g.text(),
        source_reflected=False,
        target_label="MAJ_WINDOW",
        target_params=(m,),
        target_spectrum=(cycle * (m // b + 1))[: m + 1],
        restrictions=restrictions,
        combiner=combiner,
        claimed_degree=combiner.degree,
        extras={
            "case": case,
            "m": m,
            "delta": str(delta),
            "tail": str(tail),
            "period": b,
            "pinned_each_side": t_pin,
            "window_weights": window_weights,
            "majority_spectrum": maj.text(),
        },
    )
    return cert


def thr_restrictions(n: int, t: int) -> tuple[ReductionCertificate, ...]:
    """Majority and disjunction as restrictions of a threshold function."""
    if not 1 <= t <= n // 2:
        raise ValueError(f"threshold {t} must lie in [1, {n // 2}]")
    source = named_spectrum("THR", n, t)
    identity = LiteralCombiner(((1, ((0, 1),)),))

    maj_cert = ReductionCertificate(
        kind="thr_restriction",
        source=source.text(),
        source_reflected=False,
        target_label="MAJ",
        target_params=(),
        target_spectrum=named_spectrum("MAJ", 2 * t - 1).text(),
        restrictions=(((n - 2 * t + 1), 0),),
        combiner=identity,
        claimed_degree=1,
        extras={"threshold": t},
    )
    half = (n + 1) // 2
    or_cert = ReductionCertificate(
        kind="thr_restriction",
        source=source.text(),
        source_reflected=False,
        target_label="OR",
        target_params=(),
        target_spectrum=named_spectrum("OR", half).text(),
        restrictions=((n // 2 - t + 1, t - 1),),
        combiner=identity,
        claimed_degree=1,
        extras={"threshold": t},
    )
    return (maj_cert, or_cert)


def thr_complement_from_bounded(h: Spectrum) -> ReductionCertificate:
    """Complemented threshold from a spectrum constant on a middle window.

    With radius b and middle value 0, pinning aligned blocks of inputs turns
    h into t functions whose spectra are upper triangular with unit pivots;
    back substitution then writes 1 - Thr^t on floor(n/6) + t variables as
    an integer combination of the restrictions.  Tried on the spectrum and
    its reflection before rejecting.
    """
    n = h.n
    b, degenerate = bounded_radius_flagged(h)
    if degenerate:
        raise ValueError("spectrum has no constant middle window")
    if b < 1:
        raise ValueError("spectrum is constant; nothing to reduce")
    if b > -(-n // 3):
        raise ValueError(f"radius {b} exceeds ceil(n/3) = {-(-n // 3)}")
    m = n // 6
    t = -(-b // 3)
    if t > m or m < 1:
        raise ValueError(f"blocks do not fit: t={t}, m={m}")

    last_error = None
    for reflected in (False, True):
        src = reflect_spectrum(h) if reflected else h
        try:
            return _thr_complement_core(src, h, reflected, b, m, t)
        except ValueError as exc:
            last_error = exc
    raise ValueError(f"spectrum shape unsupported on both orientations: {last_error}")


def _thr_complement_core(
    src: Spectrum, original: Spectrum, reflected: bool, b: int, m: int, t: int
) -> ReductionCertificate:
    n = src.n
    if src.values[b] != 0:
        raise ValueError("middle window value must be 0")
    if src.values[b - 1] != 1:
        raise ValueError("weight b-1 must deviate to 1")
    if n - m - b - (t - 1) < 0:
        raise ValueError("not enough inputs to pin")

    slots = []
    for i in range(t):
        zeros = n - m - b - i
        ones = b - t + i
        slot = restrict(src, zeros, ones)
        pivot = t - i - 1
        if slot.values[pivot] != 1:
            raise ValueError(f"slot {i} lacks its unit pivot")
        if any(slot.values[w] != 0 for w in range(pivot + 1, m + t + 1)):
            raise ValueError(f"slot {i} is not zero past its pivot")
        slots.append((zeros, ones, slot))

    target = Spectrum((1,) * t + (0,) * (m + 1))
    alpha = [0] * t
    for k in range(t):
        w = t - 1 - k
        acc = target.values[w]
        for i in range(k):
            acc -= alpha[i] * slots[i][2].values[w]
        alpha[k] = acc

    combiner = LiteralCombiner(
        tuple((alpha[i], ((i, 1),)) for i in range(t) if alpha[i] != 0)
    )
    cert = ReductionCertificate(
        kind="thr_complement_from_bounded",
        source=original.text(),
        source_reflected=reflected,
        target_label="THR_COMPLEMENT",
        target_params=(t,),
        target_spectrum=target.text(),
        restrictions=tuple((z, o) for z, o, _ in slots),
        combiner=combiner,
        claimed_degree=1,
        extras={"radius": b, "blocks": t, "free_inputs": m, "alpha": alpha},
    )
    failures = cert.failures(FieldSpec(0))
    if failures:
        raise ValueError(f"combination misses the target at weights {failures}")
    return cert


def _pair_offsets(deviation: dict[int, int], m: int) -> list[int]:
    """The distinct deviation[j - i] - i over m < i < j <= 2m, in the order
    the pairs (i ascending, then j) first meet them; every deviation is at
    least 2m.

    Row i meets the deviations at d = j - i <= 2m - i, shifted down by i:
    with D the int whose bit v is set when some d <= 2m - i has
    deviation[d] = v, the row is D >> i.  One mask of the offsets met so far
    leaves each row's new ones, which it meets in the order of the first d
    with deviation[d] = v + i.  So the pairs cost a shift and a mask per
    row, not a step each.
    """
    first_d: dict[int, int] = {}
    for d in range(1, m):
        first_d.setdefault(deviation[d], d)
    met = sum(1 << v for v in first_d)
    seen = 0
    offsets: list[int] = []
    for i in range(m + 1, 2 * m + 1):
        row = met >> i
        new = row & ~seen
        seen |= row
        fresh = []
        while new:
            low = new & -new
            fresh.append(low.bit_length() - 1)
            new ^= low
        fresh.sort(key=lambda v: first_d[v + i])
        offsets += fresh
        # The next row meets d <= 2m - i - 1.
        d = 2 * m - i
        if d and first_d[deviation[d]] == d:
            met ^= 1 << deviation[d]
    return offsets


def maj_from_general(f: Spectrum, field: FieldSpec) -> ReductionCertificate:
    """Majority from any spectrum whose middle window has no short period.

    Pairs of middle-window weights with differing values yield restrictions
    separating interval points; the support shrink turns them into a short
    product G concentrated on one interval point, and pinned copies of G
    form a triangular system solving majority on floor(n1/6) variables,
    n1 = n - 2*ceil(n/3).
    """
    n = f.n
    lo = -(-n // 3)
    hi = (2 * n) // 3
    n1 = n - 2 * lo
    m = n1 // 3
    if m < 1:
        raise ValueError(f"middle segment too small: n1={n1}")

    f_bits = bits_mask(f.values)
    deviation: dict[int, int] = {}
    for k in range(1, m + 1):
        # Bit r - lo is set where f[r] != f[r + k], for r in lo..hi - k.
        differ = ((f_bits ^ (f_bits >> k)) >> lo) & ((1 << (hi - k - lo + 1)) - 1)
        if not differ:
            raise ValueError(
                f"middle window agrees under shift {k}; "
                "use the periodic reductions instead"
            )
        deviation[k] = lo + (differ & -differ).bit_length() - 1

    # Restrictions separating interval points m+1 .. 2m (locally 0 .. m-1).
    # Pinning `ones` ones makes weight v read f at v + ones, so a member's
    # values there are the window f[ones+m+1 .. ones+2m], taken as a mask.
    # The pins always fit: ones >= lo - 2m > 0 and zeros >= 2*lo - hi > 0.
    # A pair i < j gives the member ones = deviation[j - i] - i, and both
    # its pins and its mask depend on ones alone, so one member is kept per
    # distinct ones, in first-seen order: the support shrink takes first
    # copies, so it picks the same members as from the full list of pairs.
    offsets = _pair_offsets(deviation, m)
    members = [(ones, n - 3 * m - ones) for ones in offsets]  # (ones, zeros)
    full = (1 << m) - 1
    masks = [(f_bits >> (ones + m + 1)) & full for ones in offsets]

    shrink = _shrink_masks(masks + [full ^ mask for mask in masks], m)
    a = shrink.support_point + m + 1
    picks = [(idx % len(masks), 0 if idx >= len(masks) else 1) for idx in shrink.chosen]
    s = len(picks)

    def g_value(v: int) -> int:
        prod = 1
        for member_idx, pol in picks:
            ones, zeros = members[member_idx]
            val = f.values[v + ones]
            prod *= val if pol else 1 - val
            if prod == 0:
                break
        return prod

    m1 = m // 2
    if 2 * a <= 3 * m:
        # Copy i pivots at weight i with zeros above it, so substitute from
        # the top weight down.
        pin_ones = [a - i for i in range(m1 + 1)]
        pin_zeros = [3 * m - a + i - m1 for i in range(m1 + 1)]
        pivot_of = list(range(m1 + 1))
        weight_order = range(m1, -1, -1)
    else:
        # Mirrored: copy i pivots at weight m1 - i with zeros below it, so
        # substitute from weight zero up.
        pin_ones = [a - m1 + i for i in range(m1 + 1)]
        pin_zeros = [3 * m - a - i for i in range(m1 + 1)]
        pivot_of = [m1 - i for i in range(m1 + 1)]
        weight_order = range(0, m1 + 1)

    if any(z < 0 for z in pin_zeros) or any(o < 0 for o in pin_ones):
        raise ValueError("pinning counts fall outside the input budget")

    # Copy i at weight w reads g at w + pin_ones[i], and pin_ones runs over
    # a - m1 .. a, so one row of g from base = a - m1 serves every copy.
    base = min(pin_ones)
    row = [g_value(v) for v in range(base, max(pin_ones) + m1 + 1)]
    for i in range(m1 + 1):
        if row[pivot_of[i] + pin_ones[i] - base] != 1:
            raise AssertionError(f"copy {i} lacks its unit pivot")

    maj = named_spectrum("MAJ", m1)
    alpha = [0] * (m1 + 1)
    copy_at = [0] * (m1 + 1)
    for i, w in enumerate(pivot_of):
        copy_at[w] = i
    solved: list[int] = []  # the copies solved so far with alpha != 0
    for w in weight_order:
        # The copy pivoting at w is determined by the others already solved.
        acc = maj.values[w]
        for i in solved:
            acc -= alpha[i] * row[w + pin_ones[i] - base]
        i_w = copy_at[w]
        alpha[i_w] = acc
        if acc:
            solved.append(i_w)

    # Flatten (copy, pick) into one restriction list for the certificate.
    restrictions = []
    terms = []
    for i in range(m1 + 1):
        literals = []
        for member_idx, pol in picks:
            ones, zeros = members[member_idx]
            slot = len(restrictions)
            restrictions.append((zeros + pin_zeros[i], ones + pin_ones[i]))
            literals.append((slot, pol))
        if alpha[i] != 0:
            terms.append((alpha[i], tuple(literals)))

    combiner = LiteralCombiner(tuple(terms))
    cert = ReductionCertificate(
        kind="maj_from_general",
        source=f.text(),
        source_reflected=False,
        target_label="MAJ",
        target_params=(),
        target_spectrum=maj.text(),
        restrictions=tuple(restrictions),
        combiner=combiner,
        claimed_degree=max(s, 1) if terms else 0,
        extras={
            "interval": [lo, hi],
            "segment": n1,
            "interval_points": m,
            "support_point": a,
            "picks": s,
            "alpha": alpha,
        },
    )
    failures = cert.failures(field)
    if failures:
        raise AssertionError(
            f"majority combination misses the target at weights {failures}"
        )
    return cert
