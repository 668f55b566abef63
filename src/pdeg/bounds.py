"""Predicted degree bounds and bookkeeping audits for the recursion.

predicted_bounds classifies a spectrum by its period and constant-window
radius and reports the order of the best achievable probabilistic degree.
recurrence_audit re-derives the degree recursion of the threshold
construction for a given constants profile and reports whether each step of
the bookkeeping closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polyalg import FieldSpec, check_eps, fraction_text, log2_inv
from .probpoly import ConstantsProfile
from .symfun import (
    Spectrum,
    _is_char_power,
    period,
    standard_decomposition,
)


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Order-level degree estimate for one spectrum and error parameter."""

    n: int
    characteristic: int
    eps: str
    period: int
    radius: int
    radius_degenerate: bool
    case: str
    upper: float
    lower: float | None
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "characteristic": self.characteristic,
            "eps": self.eps,
            "period": self.period,
            "radius": self.radius,
            "radius_degenerate": self.radius_degenerate,
            "case": self.case,
            "upper": self.upper,
            "lower": self.lower,
            "notes": list(self.notes),
        }


def predicted_bounds(f: Spectrum, eps, field: FieldSpec) -> BoundReport:
    """Classify a spectrum and report matching degree bounds at error eps.

    The spectrum is split into a periodic part and a bounded part first;
    the classification keys on whether the periodic part's period is a
    power of the field characteristic and whether the bounded part
    vanishes.  All bounds are order-level: absolute constants (and in
    characteristic 0 a factor logarithmic in n) are suppressed.
    """
    eps = check_eps(eps)
    n = f.n
    p = field.characteristic
    if n >= 3:
        decomp = standard_decomposition(f, p)
        b = decomp.period_g
        radius, degenerate = decomp.bounded_radius_h, decomp.radius_h_degenerate
    else:
        # Too short to split; the whole spectrum is its own periodic part.
        b = period(f)
        radius, degenerate = 0, False
    L = log2_inv(eps)
    root_nl = math.sqrt(n * L)

    notes = ["order-level estimate; absolute constant factors suppressed"]
    if p == 0:
        notes.append(
            "characteristic 0: upper bounds carry an extra factor "
            "logarithmic in n"
        )

    if b == 1 and radius == 0 and not degenerate:
        case = "constant"
        upper = 0.0
        lower = 0.0
    elif b > 1 and not _is_char_power(b, p):
        case = "per-not-p-power"
        upper = root_nl
        lower = root_nl
    elif radius == 0 and not degenerate:
        case = "p-power-bounded-zero"
        upper = min(root_nl, float(b))
        lower = min(root_nl, float(b))
    else:
        case = "mixed"
        mixed = b + math.sqrt(radius * L) + L
        upper = min(root_nl, mixed)
        lower = min(root_nl, mixed)

    if case != "constant":
        if not Fraction(1, 1 << n) <= eps <= Fraction(1, 3):
            lower = None
            notes.append(
                "lower bound omitted: error parameter outside [2^-n, 1/3]"
            )

    return BoundReport(
        n=n,
        characteristic=p,
        eps=fraction_text(eps, 128),
        period=b,
        radius=radius,
        radius_degenerate=degenerate,
        case=case,
        upper=upper,
        lower=lower,
        notes=tuple(notes),
    )


def bernstein_tail(m: int, q, theta) -> float:
    """Bernstein bound on P[|Bin(m, q) - mq| >= theta]."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    q = float(q)
    theta = float(theta)
    if not 0 <= q <= 1:
        raise ValueError("q must be a probability")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    denom = 2 * m * q * (1 - q) + 2 * theta / 3
    if denom == 0:
        return 1.0
    return min(1.0, 2 * math.exp(-theta * theta / denom))


def recurrence_report(
    t: int, eps, profile: ConstantsProfile, characteristic: int
) -> dict:
    """Re-derive the degree recursion for one step and report each check.

    Valid in the regime eps <= 2^-100 and t > 160000 * log2(1/eps), where a
    single iteration reduces the threshold scale by the subsample ratio and
    the child error is a quarter of the parent's.  Each entry lists the
    quantity that must stay below its budget.
    """
    eps = check_eps(eps)
    L = log2_inv(eps)
    if eps > Fraction(1, 1 << 100):
        raise ValueError(
            f"audit regime requires eps <= 2^-100, got {eps}"
        )
    if t <= 160000 * L:
        raise ValueError(
            f"audit regime requires t > 160000*log2(1/eps) = {160000 * L:.3g}, "
            f"got t = {t}"
        )

    A = profile.A
    B = profile.B
    L4 = L + 2  # children run at a quarter of the error
    hash_factor = characteristic if characteristic > 0 else 10
    root_tl = math.sqrt(t * L)

    checks = []

    def add(name: str, lhs: float, rhs: float, detail: str):
        checks.append(
            {
                "name": name,
                "lhs": lhs,
                "rhs": rhs,
                "ok": lhs <= rhs,
                "detail": detail,
            }
        )

    add(
        "base_case",
        float(profile.base_n),
        B * L,
        "exact interpolation at the recursion floor fits the budget",
    )
    add(
        "hash_branch",
        hash_factor * profile.r_multiplier,
        float(B),
        "bucket detectors on r inputs stay below B per unit of log(1/eps)",
    )
    add(
        "window_interpolation",
        2 * profile.window_outer_multiplier * root_tl,
        A * math.sqrt(t / 10 * L4) + B * L4,
        "the window polynomial is no larger than one child's budget",
    )
    add(
        "subsample_deviation",
        profile.window_outer_multiplier * root_tl,
        0.75 * t,
        "window reach stays below 3t/4 so sibling thresholds sum to t/5",
    )
    add(
        "recombination",
        (math.sqrt(2 / 5) + math.sqrt(1 / 10)) * A * math.sqrt(t * L4)
        + 3 * B * L4,
        A * root_tl + B * L,
        "children plus the correction product close the recursion",
    )

    return {
        "t": t,
        "eps": fraction_text(eps, 128),
        "characteristic": characteristic,
        "profile": profile.name,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def recurrence_audit(
    t: int, eps, profile: ConstantsProfile, characteristic: int
) -> bool:
    """True when every step of the degree recursion closes for the profile."""
    return recurrence_report(t, eps, profile, characteristic)["ok"]
