"""Empirical and exact validation of sampled polynomial recipes.

Error measurement is per Hamming weight: by symmetry of every construction
(coefficients are drawn identically across variables), the error probability
at any point depends only on its weight, so the stratified mode evaluates
draws on one representative point per weight, 1^w 0^(n-w).  It and the
single-draw mode score a draw in one column pass: an iterative post-order
walk gives every node its values at all n + 1 weights at once, so no draw
is walked once per weight.  eval_expr stays the pointwise reference.  Small
variable counts can be checked exhaustively instead, and a few
constructions admit closed-form error values.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, ne, or_
from typing import Callable, Iterable, Sequence

from .polyalg import (
    FieldElement,
    FieldSpec,
    MultilinearPoly,
    SymPoly,
)
from .probpoly import (
    Constant,
    LinearForm,
    PolyExpr,
    Power,
    Product,
    Recipe,
    SeedStream,
    Sum,
    SymApply,
    Var,
    eval_expr,
    majority_tail,
    recipe_from_json,
    sample_stream,
    weight_poly_at_values,
)
from .symfun import Spectrum

EXHAUSTIVE_LIMIT = 14


@dataclass(frozen=True, slots=True)
class ErrorReport:
    """Worst observed disagreement frequency per weight, with its context.

    slack is three standard deviations of the estimate at the recipe's error
    level; passed means every weight stayed within eps plus slack.
    """

    mode: str
    trials: int
    eps: Fraction
    per_weight: tuple[float, ...]
    worst: float
    worst_weight: int
    slack: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "mode": self.mode,
            "trials": self.trials,
            "eps": str(self.eps),
            "per_weight": list(self.per_weight),
            "worst": self.worst,
            "worst_weight": self.worst_weight,
            "slack": self.slack,
            "passed": self.passed,
        }


class _ColumnEvaluator:
    """Values of expressions on the points 1^w 0^(n-w), w = 0..n, as columns.

    One iterative post-order pass per draw gives every node its column of
    n + 1 values.  Variables and linear forms are prefix sums over an index
    histogram; a weight polynomial looks its input count up in a value table
    that is built once per evaluator and keyed by the polynomial itself.
    Arithmetic runs on raw ints or Fractions and is reduced once per node.
    """

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.tables: dict[SymPoly, list[FieldElement]] = {}

    def columns(self, roots: Sequence[PolyExpr]) -> list[list[FieldElement]]:
        cols: dict[int, list[FieldElement]] = {}
        # (node, ready): a node is pushed unready, then ready under its
        # operands, so it is computed after all of them.
        stack = [(r, False) for r in roots]
        while stack:
            e, ready = stack.pop()
            if id(e) in cols:
                continue
            if ready:
                cols[id(e)] = self._column(e, cols)
                continue
            stack.append((e, True))
            stack.extend((c, False) for c in _column_operands(e) if id(c) not in cols)
        return [cols[id(r)] for r in roots]

    def _reduce(self, col: list[FieldElement]) -> list[FieldElement]:
        p = self.field.characteristic
        return [v % p for v in col] if p else col

    def _prefix(self, pairs: Iterable[tuple[FieldElement, int]]) -> list[FieldElement]:
        """Column of the sum of c over the pairs (c, i) with i < w, unreduced."""
        n = self.n
        hist: list[FieldElement] = [0] * n
        for c, i in pairs:
            if i < n:
                hist[i] += c
        return list(accumulate(hist, initial=0))

    def _column(self, e: PolyExpr, cols: dict) -> list[FieldElement]:
        n1 = self.n + 1
        p = self.field.characteristic
        if isinstance(e, Constant):
            return self._reduce([e.value] * n1)
        if isinstance(e, Var):
            zeros = min(e.index + 1, n1)
            return [0] * zeros + [1] * (n1 - zeros)
        if isinstance(e, LinearForm):
            return self._reduce(self._prefix(zip(e.coeffs, e.indices)))
        if isinstance(e, Power):
            k = e.exponent
            base = cols[id(e.base)]
            return [pow(v, k, p) for v in base] if p else [v**k for v in base]
        if isinstance(e, Product):
            out = cols[id(e.factors[0])] if e.factors else [1] * n1
            for f in e.factors[1:]:
                out = list(map(mul, out, cols[id(f)]))
            return self._reduce(out)
        if isinstance(e, Sum):
            if not e.terms:
                return self._reduce([e.constant] * n1)
            (c, t), *rest = e.terms
            k = e.constant
            out = [k + c * v for v in cols[id(t)]]
            for c, t in rest:
                col = cols[id(t)]
                if c == 1:
                    out = list(map(add, out, col))
                else:
                    out = [a + c * v for a, v in zip(out, col)]
            return self._reduce(out)
        if isinstance(e, SymApply):
            return self._sym_column(e, cols)
        raise TypeError(f"unknown expression node {type(e)!r}")

    def _sym_column(self, e: SymApply, cols: dict) -> list[FieldElement]:
        p = self.field.characteristic
        var_idx = [t.index for t in e.inputs if isinstance(t, Var)]
        others = [cols[id(t)] for t in e.inputs if not isinstance(t, Var)]
        counts = self._prefix((1, i) for i in var_idx)
        if others:
            counts = list(map(add, counts, map(sum, zip(*others))))
        # Over GF(2) every reduced value is 0 or 1; elsewhere an input may
        # take another value, and those weights need the general kernel.
        bad: set[int] = set()
        if p != 2:
            for col in others:
                if not _BOOLEAN.issuperset(col):
                    bad.update(w for w, v in enumerate(col) if v != 0 and v != 1)
        for w in bad:
            counts[w] = 0
        table = self._table(e.poly, len(e.inputs))
        # Over Q a count may be a Fraction with denominator 1.
        out = [table[int(c)] for c in counts] if p == 0 else [table[c] for c in counts]
        for w in bad:
            vals = [1 if i < w else 0 for i in var_idx] + [col[w] for col in others]
            out[w] = weight_poly_at_values(e.poly, vals, self.field)
        return out

    def _table(self, poly: SymPoly, m: int) -> list[FieldElement]:
        """poly's values at weights 0..m (at least), built by Horner steps.

        In the binomial basis row k of the nested sums is c_k plus the
        prefix sums of row k+1, so each step is one accumulate.
        """
        table = self.tables.get(poly)
        if table is None or len(table) <= m:
            p = self.field.characteristic
            coeffs = poly.coeffs[: m + 1]
            table = [coeffs[-1]] * (m + 1)
            for c in reversed(coeffs[:-1]):
                table = list(accumulate(table[:m], initial=c))
                if p:
                    table = [v % p for v in table]
            self.tables[poly] = table
        return table


_BOOLEAN = frozenset((0, 1))


def _column_operands(e: PolyExpr) -> Sequence[PolyExpr]:
    """Operands whose columns e needs; Var inputs of SymApply are counted."""
    if isinstance(e, Power):
        return (e.base,)
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Sum):
        return [t for _, t in e.terms]
    if isinstance(e, SymApply):
        return [t for t in e.inputs if not isinstance(t, Var)]
    return ()


def _wrong_counts(recipe: Recipe, draws: Iterable[Sequence[PolyExpr]]) -> list[int]:
    """Per-weight count of draws wrong on any component."""
    field = recipe.field
    n = recipe.n
    targets = [
        [field.element(v) for v in s.values] for s in recipe.target_spectra()
    ]
    evaluator = _ColumnEvaluator(field, n)
    counts = [0] * (n + 1)
    for draw in draws:
        wrong = [False] * (n + 1)
        for col, target in zip(evaluator.columns(draw), targets):
            wrong = list(map(or_, wrong, map(ne, col, target)))
        counts = list(map(add, counts, wrong))
    return counts


def _trial_counts(recipe: Recipe, master_seed: int, lo: int, hi: int) -> list[int]:
    """Wrong counts over the trial draws lo..hi-1 of the master seed."""
    root = SeedStream.from_seed(master_seed)
    draws = (sample_stream(recipe, root.child(("trial", k))) for k in range(lo, hi))
    return _wrong_counts(recipe, draws)


def _trial_counts_from_json(
    recipe_json: dict, master_seed: int, lo: int, hi: int
) -> list[int]:
    """Process-pool entry point: rebuild the recipe, then count."""
    return _trial_counts(recipe_from_json(recipe_json), master_seed, lo, hi)


def empirical_error(
    recipe: Recipe,
    trials: int = 10_000,
    seed: int = 0,
    jobs: int = 1,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> ErrorReport:
    """Monte Carlo error of a recipe against its target spectra.

    Randomness-free recipes are checked with a single draw.  For small n
    every point of every weight is evaluated (exhaustive mode); otherwise
    one representative point per weight is used, which matches the draw
    distribution's symmetry under coordinate permutations.  jobs > 1 splits
    the trials over a process pool, which rebuilds the recipe from its JSON;
    a recipe that does not round-trip through recipe_from_json raises
    ValueError before the pool starts.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    n = recipe.n

    if recipe.randomness_free:
        draw = sample_stream(recipe, SeedStream.from_seed(seed))
        per_weight = [float(c) for c in _wrong_counts(recipe, [draw])]
        return _finish_report("single-draw", 1, recipe.eps, per_weight)

    if n <= exhaustive_limit:
        return _exhaustive_error(recipe, trials, seed)

    if jobs > 1:
        chunk = (trials + jobs - 1) // jobs
        ranges = [
            (k, min(k + chunk, trials)) for k in range(0, trials, chunk)
        ]
        recipe_json = recipe.to_json()
        try:
            round_trips = recipe_from_json(recipe_json).to_json() == recipe_json
        except (ValueError, KeyError, TypeError):
            round_trips = False
        if not round_trips:
            raise ValueError(
                f"recipe kind {recipe.kind!r} does not round-trip through "
                "recipe_from_json, so pool workers cannot rebuild it; use jobs=1"
            )
        totals = [0] * (n + 1)
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [
                pool.submit(_trial_counts_from_json, recipe_json, seed, lo, hi)
                for lo, hi in ranges
            ]
            for fut in futures:
                for w, c in enumerate(fut.result()):
                    totals[w] += c
    else:
        totals = _trial_counts(recipe, seed, 0, trials)

    per_weight = [c / trials for c in totals]
    return _finish_report("stratified", trials, recipe.eps, per_weight)


def _exhaustive_error(recipe: Recipe, trials: int, seed: int) -> ErrorReport:
    """Evaluate every draw on every point of the cube (small n only)."""
    n = recipe.n
    field = recipe.field
    targets = [s.values for s in recipe.target_spectra()]
    points_by_weight: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        x = tuple((mask >> i) & 1 for i in range(n))
        points_by_weight[sum(x)].append(x)
    wrong = [0] * (n + 1)
    totals = [0] * (n + 1)
    root = SeedStream.from_seed(seed)
    for k in range(trials):
        draw = sample_stream(recipe, root.child(("trial", k)))
        for w in range(n + 1):
            for x in points_by_weight[w]:
                memo: dict = {}
                totals[w] += 1
                for expr, target in zip(draw, targets):
                    if eval_expr(expr, x, field, memo) != field.element(target[w]):
                        wrong[w] += 1
                        break
    per_weight = [wrong[w] / totals[w] for w in range(n + 1)]
    return _finish_report("exhaustive", trials, recipe.eps, per_weight)


def _finish_report(
    mode: str, trials: int, eps: Fraction, per_weight: Sequence[float]
) -> ErrorReport:
    worst_weight = max(range(len(per_weight)), key=lambda w: per_weight[w])
    worst = per_weight[worst_weight]
    eps_f = float(eps)
    slack = 3.0 * math.sqrt(max(eps_f * (1.0 - eps_f), 1e-12) / max(trials, 1))
    passed = worst <= eps_f + slack
    return ErrorReport(
        mode=mode,
        trials=trials,
        eps=eps,
        per_weight=tuple(per_weight),
        worst=worst,
        worst_weight=worst_weight,
        slack=slack,
        passed=passed,
    )


def exact_error(recipe: Recipe) -> tuple[Fraction, ...]:
    """Per-weight error probability in closed form, where one exists.

    Available for randomness-free recipes (all zeros after a correctness
    check), the vanishing-form disjunction, the rational disjunction, and
    majority amplification of always-Boolean recipes.
    """
    n = recipe.n
    if recipe.randomness_free:
        report = empirical_error(recipe, trials=1)
        if report.worst > 0:
            raise AssertionError("randomness-free recipe disagrees with target")
        return tuple(Fraction(0) for _ in range(n + 1))
    if recipe.kind == "razborov_or":
        p = recipe.field.characteristic
        ell = recipe.params["forms"]
        miss = Fraction(1, p) ** ell
        if recipe.params["negate"]:
            return tuple(miss if w < n else Fraction(0) for w in range(n + 1))
        return tuple(Fraction(0) if w == 0 else miss for w in range(n + 1))
    if recipe.kind == "char0_or":
        ell = recipe.params["runs"]
        scales = math.ceil(math.log2(n)) if n > 1 else 0
        out = [Fraction(0)]
        for w in range(1, n + 1):
            fail_run = Fraction(1)
            for j in range(scales + 1):
                q = Fraction(1, 1 << j)
                hit_exactly_one = w * q * (1 - q) ** (w - 1)
                fail_run *= 1 - hit_exactly_one
            out.append(fail_run**ell)
        return tuple(out)
    if recipe.kind == "amplify":
        child = recipe.children()[0]
        if child.kind == "razborov_or":
            # Wrong copies still output the complementary bit, so the vote
            # is wrong exactly when a majority of copies is wrong.
            child_err = exact_error(child)
            ell = recipe.params["votes"]
            return tuple(majority_tail(ell, q) for q in child_err)
    raise NotImplementedError(f"no closed-form error for kind {recipe.kind!r}")


@dataclass(frozen=True, slots=True)
class DegreeAudit:
    declared: int
    max_tracked: int
    draws: int
    expanded: bool
    max_expanded: int | None

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "declared": self.declared,
            "max_tracked": self.max_tracked,
            "draws": self.draws,
            "expanded": self.expanded,
            "max_expanded": self.max_expanded,
        }


def degree_audit(
    recipe: Recipe, draws: int = 100, seed: int = 0, expand_limit: int = 16
) -> DegreeAudit:
    """Check tracked degrees of sampled draws against the declared bound.

    For recipes on at most expand_limit variables each draw is also expanded
    into an explicit multilinear polynomial, whose true degree must not
    exceed the tracked degree.
    """
    root = SeedStream.from_seed(seed)
    if recipe.randomness_free:
        draws = 1
    max_tracked = 0
    max_expanded: int | None = None
    can_expand = recipe.n <= expand_limit
    for k in range(draws):
        tuple_k = sample_stream(recipe, root.child(("trial", k)))
        for expr in tuple_k:
            tracked = expr.deg
            max_tracked = max(max_tracked, tracked)
            if tracked > recipe.declared_degree_bound:
                raise AssertionError(
                    f"tracked degree {tracked} exceeds declared bound "
                    f"{recipe.declared_degree_bound}"
                )
            if can_expand:
                poly = expand_expr(expr, recipe.n, recipe.field)
                if poly.degree > tracked:
                    raise AssertionError(
                        f"expanded degree {poly.degree} exceeds tracked {tracked}"
                    )
                if max_expanded is None or poly.degree > max_expanded:
                    max_expanded = poly.degree
    return DegreeAudit(
        declared=recipe.declared_degree_bound,
        max_tracked=max_tracked,
        draws=draws,
        expanded=can_expand,
        max_expanded=max_expanded,
    )


def expand_expr(
    expr: PolyExpr, n: int, field: FieldSpec, memo: dict | None = None
) -> MultilinearPoly:
    """Expand an expression DAG into its multilinear normal form."""
    if memo is None:
        memo = {}
    key = id(expr)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(expr, Constant):
        out = MultilinearPoly.constant(field, n, expr.value)
    elif isinstance(expr, Var):
        out = MultilinearPoly.variable(field, n, expr.index)
    elif isinstance(expr, LinearForm):
        out = MultilinearPoly(
            field,
            n,
            {},
        )
        for c, i in zip(expr.coeffs, expr.indices):
            out = out.add(MultilinearPoly(field, n, {frozenset([i]): c}))
    elif isinstance(expr, Power):
        base = expand_expr(expr.base, n, field, memo)
        out = MultilinearPoly.constant(field, n, 1)
        for _ in range(expr.exponent):
            out = out.mul(base)
    elif isinstance(expr, Product):
        out = MultilinearPoly.constant(field, n, 1)
        for f in expr.factors:
            out = out.mul(expand_expr(f, n, field, memo))
    elif isinstance(expr, Sum):
        out = MultilinearPoly.constant(field, n, expr.constant)
        for c, t in expr.terms:
            out = out.add(expand_expr(t, n, field, memo).scale(c))
    elif isinstance(expr, SymApply):
        inputs = [expand_expr(t, n, field, memo) for t in expr.inputs]
        d = min(expr.poly.degree, len(inputs))
        elem = [MultilinearPoly.constant(field, n, 1)] + [
            MultilinearPoly(field, n) for _ in range(d)
        ]
        for q in inputs:
            for k in range(min(d, len(elem) - 1), 0, -1):
                elem[k] = elem[k].add(elem[k - 1].mul(q))
        out = MultilinearPoly(field, n)
        for k, c in enumerate(expr.poly.coeffs):
            if k > d:
                break
            if c != 0:
                out = out.add(elem[k].scale(c))
    else:
        raise TypeError(f"unknown expression node {type(expr)!r}")
    memo[key] = out
    return out


def identity_check(
    target: Spectrum,
    operands: Sequence[Spectrum],
    combine: Callable[[Sequence[FieldElement], FieldSpec], FieldElement],
    field: FieldSpec,
    weights: Sequence[int] | None = None,
) -> bool:
    """Verify that combining the operand spectra reproduces the target.

    The combiner receives the operand values at one weight and returns a
    field element; the identity holds when it matches the target bit at
    every requested weight (all weights by default).
    """
    return not identity_failures(target, operands, combine, field, weights)


def identity_failures(
    target: Spectrum,
    operands: Sequence[Spectrum],
    combine: Callable[[Sequence[FieldElement], FieldSpec], FieldElement],
    field: FieldSpec,
    weights: Sequence[int] | None = None,
) -> list[tuple[int, FieldElement, int]]:
    """Weights where the combined value misses the target, with both values."""
    if weights is None:
        weights = range(target.n + 1)
    failures = []
    for w in weights:
        values = [field.element(op.values[w]) for op in operands]
        got = field.element(combine(values, field))
        want = field.element(target.values[w])
        if got != want:
            failures.append((w, got, want))
    return failures


def expected_spectrum_values(
    spectra: Sequence[Spectrum], weight: int
) -> list[int]:
    """Operand values at one weight, a convenience for combiner debugging."""
    return [s.values[weight] for s in spectra]
