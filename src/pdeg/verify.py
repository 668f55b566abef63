"""Empirical and exact validation of sampled polynomial recipes.

Error measurement is per Hamming weight: by symmetry of every construction
(coefficients are drawn identically across variables), the error probability
at any point depends only on its weight, so the stratified mode evaluates
draws on one representative point per weight, 1^w 0^(n-w).  Small variable
counts are checked exhaustively instead, on every point of the cube
{0,1}^n.  Every mode scores a draw in one column pass: it computes every
node's values at all the points at once, by its class's rule, in the order
of probpoly's one iterative DAG walk, post_order, so no draw is walked once
per point.  Over GF(2) a cube column is one 2^n-bit int, and Sum, Product
and SymApply are XOR, AND and a bit-sliced counter.

The multilinear normal form of a draw is unique on the cube, so expand_expr
reads its coefficients off the root's cube column with a Mobius
(subset-difference) transform, with no polynomial arithmetic.  eval_expr
evaluates one point in one iterative pass and stays the pointwise
reference.  Every evaluator reads a SymApply's Var inputs off the split its
node stores on creation and counts them directly, and reads its weight
polynomial at that count from the one value table the polynomial caches,
SymPoly.table, so a column pass and eval_expr share every table they
build.  A few constructions admit closed-form error values.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, mul, ne, or_, sub, xor
from typing import Callable, Iterable, Sequence

from .polyalg import (
    EXPAND_LIMIT,
    FieldElement,
    FieldSpec,
    MultilinearPoly,
    fraction_text,
    subset_masks,
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
    char0_scales,
    majority_tail,
    post_order,
    recipe_from_json,
    sample_stream,
    split_operands,
    unknown_recipe_kinds,
    weight_poly_at_values,
)
from .symfun import BOOLEAN, Spectrum

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
            "eps": fraction_text(self.eps),
            "per_weight": list(self.per_weight),
            "worst": self.worst,
            "worst_weight": self.worst_weight,
            "slack": self.slack,
            "passed": self.passed,
        }


def _post_order(roots: Sequence[PolyExpr], rules: dict) -> list:
    """The roots' values, computed over probpoly.post_order's node list.

    rules[type(e)](e, vals) computes node e from vals, the finished values
    keyed by node id, so each shared node is computed once; a node class
    with no rule raises TypeError.  The walk skips the Var inputs of a
    SymApply (split_operands): the evaluators count them directly.  A value
    other than a root's is dropped once its last consumer is computed, so a
    cube walk holds only the columns still to be read.
    """
    order = post_order(roots, split_operands)
    consumers = Counter(map(id, chain.from_iterable([ops for _, ops in order])))
    keep = set(map(id, roots))
    vals: dict[int, object] = {}
    for e, operands in order:
        try:
            rule = rules[type(e)]
        except KeyError:
            raise TypeError(f"unknown expression node {type(e)!r}") from None
        vals[id(e)] = rule(e, vals)
        for c in operands:
            key = id(c)
            left = consumers[key] - 1
            consumers[key] = left
            if not left and key not in keep:
                del vals[key]
    return [vals[id(r)] for r in roots]


def _check_indices(indices: Sequence[int], n: int) -> None:
    """Raise ValueError naming the first variable index outside 0..n-1."""
    if indices and (min(indices) < 0 or max(indices) >= n):
        bad = next(i for i in indices if not 0 <= i < n)
        raise ValueError(f"variable index {bad} out of range for n={n}")


class _ColumnEvaluator:
    """Values of expressions on the points 1^w 0^(n-w), w = 0..n, as columns.

    One post-order pass per draw gives every node its column of values, one
    per point, by its class's entry in rules.  A variable is the linear form
    1 * x_index, and linear forms come from _linear; a weight polynomial
    looks its input count up in its value table, SymPoly.table (a Lucas
    transform in characteristic p), which the polynomial caches for every
    evaluator and for eval_expr alike.  Arithmetic runs on raw ints or
    Fractions and is reduced once per node.  _CubeColumns changes the point
    set to the whole cube.
    """

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.size = n + 1
        p = field.characteristic or None  # pow(v, k, None) is v**k, over Q
        self.rules = {
            SymApply: self._sym_column,
            Sum: self._sum_column,
            Product: self._product_column,
            Power: lambda e, cols: [pow(v, e.exponent, p) for v in cols[id(e.base)]],
            LinearForm: lambda e, cols: self._reduce(self._linear(e.coeffs, e.indices)),
            Var: lambda e, cols: self._reduce(self._linear((1,), (e.index,))),
            Constant: lambda e, cols: self._reduce([e.value] * self.size),
        }

    def columns(self, roots: Sequence[PolyExpr]) -> list[list[FieldElement]]:
        return _post_order(roots, self.rules)

    def spectrum_column(self, values: Sequence[int]) -> list[FieldElement]:
        """Column of a function of the weight, given its values by weight."""
        return [self.field.element(v) for v in values]

    def wrong_by_weight(self, cols: Sequence, targets: Sequence) -> list:
        """Per weight, the points where some column misses its target.

        With one point per weight that is a flag per point.
        """
        wrong = [False] * self.size
        for col, target in zip(cols, targets):
            wrong = list(map(or_, wrong, map(ne, col, target)))
        return wrong

    def _linear(
        self, coeffs: Iterable[FieldElement], indices: Sequence[int]
    ) -> list[FieldElement]:
        """Column of the sum of coeffs[j] * x_indices[j], unreduced.

        At 1^w 0^(n-w) that is the sum of the coefficients of x_i, i < w:
        a prefix sum.
        """
        _check_indices(indices, self.n)
        hist: list[FieldElement] = [0] * self.n
        for c, i in zip(coeffs, indices):
            hist[i] += c
        return list(accumulate(hist, initial=0))

    def _coordinate(self, i: int, point: int) -> int:
        """x_i at the point with index point."""
        return 1 if i < point else 0

    def _reduce(self, col: list[FieldElement]) -> list[FieldElement]:
        p = self.field.characteristic
        return [v % p for v in col] if p else col

    def _product_column(self, e: Product, cols: dict) -> list[FieldElement]:
        out = cols[id(e.factors[0])] if e.factors else [1] * self.size
        for f in e.factors[1:]:
            out = list(map(mul, out, cols[id(f)]))
        return self._reduce(out)

    def _sum_column(self, e: Sum, cols: dict) -> list[FieldElement]:
        if not e.terms:
            return self._reduce([e.constant] * self.size)
        # The constant rides on the first term, so no constant column is built.
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

    def _sym_column(self, e: SymApply, cols: dict) -> list[FieldElement]:
        p = self.field.characteristic
        var_idx = e.var_indices
        others = [cols[id(t)] for t in e.others]
        counts = self._linear(repeat(1), var_idx)
        if others:
            counts = list(map(add, counts, map(sum, zip(*others))))
        # Over GF(2) every reduced value is 0 or 1; elsewhere an input may
        # take another value, and those points need the general kernel.
        bad: set[int] = set()
        if p != 2:
            for col in others:
                if not BOOLEAN.issuperset(col):
                    bad.update(j for j, v in enumerate(col) if v != 0 and v != 1)
        for j in bad:
            counts[j] = 0
        table = e.poly.table(len(e.inputs))
        # Over Q a count may be a Fraction with denominator 1.
        out = [table[int(c)] for c in counts] if p == 0 else [table[c] for c in counts]
        for j in bad:
            vals = [self._coordinate(i, j) for i in var_idx] + [col[j] for col in others]
            out[j] = weight_poly_at_values(e.poly, vals, self.field)
        return out


class _CubeColumns(_ColumnEvaluator):
    """Values on the whole cube {0,1}^n as lists of 2^n values, in mask order.

    Entry m of a column is the value at the point whose coordinate i is bit
    i of m.  Used for every field but GF(2), which has _CubeBits.
    """

    def __init__(self, field: FieldSpec, n: int):
        super().__init__(field, n)
        self.size = 1 << n

    @cached_property
    def weights(self) -> list[int]:
        """The Hamming weight of each point."""
        return [m.bit_count() for m in range(self.size)]

    def spectrum_column(self, values: Sequence[int]) -> list[FieldElement]:
        by_weight = super().spectrum_column(values)
        return [by_weight[w] for w in self.weights]

    def wrong_by_weight(self, cols: Sequence, targets: Sequence) -> list[int]:
        counts = [0] * (self.n + 1)
        for w in compress(self.weights, super().wrong_by_weight(cols, targets)):
            counts[w] += 1
        return counts

    def _linear(
        self, coeffs: Iterable[FieldElement], indices: Sequence[int]
    ) -> list[FieldElement]:
        """Column of the sum of coeffs[j] * x_indices[j], unreduced.

        Built by the subset-sum recurrence: the points with x_i = 1 are the
        lower 2^i points shifted by 2^i, plus x_i's coefficient.
        """
        _check_indices(indices, self.n)
        by_var: list[FieldElement] = [0] * self.n
        for c, i in zip(coeffs, indices):
            by_var[i] += c
        col: list[FieldElement] = [0]
        for c in by_var:
            col += [v + c for v in col] if c else col
        return col

    def _coordinate(self, i: int, point: int) -> int:
        return (point >> i) & 1

    def coefficients(self, col: list[FieldElement]) -> dict[frozenset, FieldElement]:
        """Multilinear coefficients of a cube column, by monomial.

        The Mobius transform: for each i, a[m] -= a[m - 2^i] wherever bit i
        of m is set.  Each pass runs over whichever is fewer, the 2^i
        strided slices or the 2^(n-i-1) blocks.  The column is transformed
        in place, so no second 2^n list is held.
        """
        a = col
        size = len(a)
        h = 1
        while h < size:
            step = 2 * h
            if h * step <= size:
                for j in range(h):
                    a[h + j :: step] = map(sub, a[h + j :: step], a[j::step])
            else:
                for lo in range(0, size, step):
                    a[lo + h : lo + step] = map(sub, a[lo + h : lo + step], a[lo : lo + h])
            h = step
        p = self.field.characteristic
        if p:
            masks = [m for m, c in enumerate(a) if c % p]
            coeffs = [a[m] % p for m in masks]
        else:
            # Over Q, element makes integral values ints.
            masks = [m for m, c in enumerate(a) if c]
            coeffs = [self.field.element(a[m]) for m in masks]
        return dict(zip(_monomials(masks, self.n), coeffs))


class _CubeBits:
    """Values over GF(2) on the whole cube, each column one 2^n-bit int.

    Bit m of a column is the value at the point whose coordinate i is bit i
    of m.  Sum is XOR and Product is AND.  A SymApply counts its inputs with
    a bit-sliced ripple-carry counter; by Lucas, C(w, k) is odd iff
    k & w == k, so its output XORs, for each odd coefficient k, the AND of
    the count bits set in k.
    """

    def __init__(self, n: int):
        self.n = n
        self.full = full = (1 << (1 << n)) - 1
        # x_i is 1 at the points whose bit i is set.
        self.var_masks = subset_masks(n)
        self.rules = {
            SymApply: self._sym_column,
            Sum: self._sum_column,
            Product: lambda e, cols: reduce(and_, [cols[id(f)] for f in e.factors], full),
            # Over GF(2) v^k = v for k >= 1.
            Power: lambda e, cols: cols[id(e.base)],
            LinearForm: lambda e, cols: self._linear(e.coeffs, e.indices),
            Var: lambda e, cols: self._linear((1,), (e.index,)),
            Constant: lambda e, cols: full if e.value % 2 else 0,
        }

    def columns(self, roots: Sequence[PolyExpr]) -> list[int]:
        return _post_order(roots, self.rules)

    @cached_property
    def layers(self) -> list[int]:
        """Column of each weight w = 0..n: the points with exactly w ones."""
        count = self._count(self.var_masks)
        full = self.full
        return [
            reduce(and_, (c if w >> j & 1 else full ^ c for j, c in enumerate(count)), full)
            for w in range(self.n + 1)
        ]

    def spectrum_column(self, values: Sequence[int]) -> int:
        """Column of a function of the weight, given its values by weight."""
        return reduce(or_, (lay for lay, v in zip(self.layers, values) if v % 2), 0)

    def wrong_by_weight(self, cols: Sequence[int], targets: Sequence[int]) -> list[int]:
        """Per weight, the points where some column misses its target."""
        wrong = 0
        for col, target in zip(cols, targets):
            wrong |= col ^ target
        return [(wrong & lay).bit_count() for lay in self.layers]

    def coefficients(self, col: int) -> dict[frozenset, FieldElement]:
        """Multilinear coefficients of a cube column, by monomial.

        The Mobius transform over GF(2): n shift-XOR steps.
        """
        for i, mask in enumerate(self.var_masks):
            col ^= (col << (1 << i)) & mask
        masks = [m for m, b in enumerate(bin(col)[:1:-1]) if b == "1"]
        return dict.fromkeys(_monomials(masks, self.n), 1)

    def _count(self, cols: Sequence[int]) -> list[int]:
        """Bits of the number of ones among cols at each point, lowest first."""
        count = [0] * len(cols).bit_length()
        for carry in cols:
            j = 0
            while carry:
                count[j], carry = count[j] ^ carry, count[j] & carry
                j += 1
        return count

    def _linear(self, coeffs: Iterable[FieldElement], indices: Sequence[int]) -> int:
        """Column of sum_j coeffs[j] * x_indices[j]: XOR of the odd-coefficient x_i."""
        odd = [c % 2 for c in coeffs]
        return reduce(xor, compress(self._var_columns(indices), odd), 0)

    def _var_columns(self, indices: Sequence[int]) -> list[int]:
        """The columns of x_i for i in indices, each index checked."""
        _check_indices(indices, self.n)
        return [self.var_masks[i] for i in indices]

    def _sum_column(self, e: Sum, cols: dict) -> int:
        odd = [cols[id(t)] for c, t in e.terms if c % 2]
        return reduce(xor, odd, self.full if e.constant % 2 else 0)

    def _sym_column(self, e: SymApply, cols: dict) -> int:
        inputs = self._var_columns(e.var_indices)
        inputs += [cols[id(t)] for t in e.others]
        count = self._count(inputs)
        # subsets[k] is the AND of the count bits set in k; C(w, k) is 0 for
        # k above the number of inputs.
        subsets = [self.full]
        out = 0
        for k, c in enumerate(e.poly.coeffs[: len(inputs) + 1]):
            if k:
                low = (k & -k).bit_length() - 1
                subsets.append(subsets[k & (k - 1)] & count[low])
            if c % 2:
                out ^= subsets[k]
        return out


def _cube_evaluator(field: FieldSpec, n: int) -> _CubeColumns | _CubeBits:
    """Column evaluator on {0,1}^n: bit-packed over GF(2), lists elsewhere."""
    return _CubeBits(n) if field.characteristic == 2 else _CubeColumns(field, n)


def _monomials(masks: Sequence[int], n: int) -> list[frozenset]:
    """For each mask, the set of variables whose bits are set in it.

    Each set is the union of one entry from a table over the low n // 2
    variables and one from a table over the rest.
    """
    half = n // 2
    low, high = _subsets(range(half)), _subsets(range(half, n))
    low_mask = (1 << half) - 1
    return [low[m & low_mask] | high[m >> half] for m in masks]


def _subsets(indices: Iterable[int]) -> list[frozenset]:
    """Every subset of indices, listed by mask: bit j picks the j-th index."""
    out = [frozenset()]
    for i in indices:
        out += [s | {i} for s in out]
    return out


def _wrong_counts(
    recipe: Recipe, draws: Iterable[Sequence[PolyExpr]], evaluator
) -> list[int]:
    """Per-weight count of wrong points, summed over the draws.

    A point is wrong when some component misses its target there; the
    evaluator fixes the point set.
    """
    targets = [evaluator.spectrum_column(s.values) for s in recipe.target_spectra()]
    counts = [0] * (recipe.n + 1)
    for draw in draws:
        wrong = evaluator.wrong_by_weight(evaluator.columns(draw), targets)
        counts = list(map(add, counts, wrong))
    return counts


def _trial_draws(
    recipe: Recipe, master_seed: int, lo: int, hi: int
) -> Iterable[tuple[PolyExpr, ...]]:
    """The trial draws lo..hi-1 of the master seed, one at a time."""
    root = SeedStream.from_seed(master_seed)
    return (sample_stream(recipe, root.child(("trial", k))) for k in range(lo, hi))


def _trial_counts(recipe: Recipe, master_seed: int, lo: int, hi: int) -> list[int]:
    """Wrong counts at the points 1^w 0^(n-w) over trial draws lo..hi-1."""
    evaluator = _ColumnEvaluator(recipe.field, recipe.n)
    return _wrong_counts(recipe, _trial_draws(recipe, master_seed, lo, hi), evaluator)


def _trial_counts_from_json(
    recipe_json: dict, master_seed: int, lo: int, hi: int
) -> list[int]:
    """Process-pool entry point: rebuild the recipe, check that it round-trips,
    then count."""
    try:
        recipe = recipe_from_json(recipe_json)
        round_trips = recipe.to_json() == recipe_json
    except (ValueError, KeyError, TypeError):
        round_trips = False
    if not round_trips:
        raise _no_rebuild(recipe_json.get("kind"))
    return _trial_counts(recipe, master_seed, lo, hi)


def _no_rebuild(kind) -> ValueError:
    return ValueError(
        f"recipe kind {kind!r} does not round-trip through recipe_from_json, "
        "so pool workers cannot rebuild it; use jobs=1"
    )


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
    the trials over a process pool, whose workers each rebuild the recipe
    from its JSON; the parent builds nothing.  A recipe kind that
    recipe_from_json does not know raises ValueError before the pool starts,
    and a rebuild that does not round-trip raises the same ValueError from
    its worker.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    n = recipe.n

    if recipe.randomness_free:
        draw = sample_stream(recipe, SeedStream.from_seed(seed))
        counts = _wrong_counts(recipe, [draw], _ColumnEvaluator(recipe.field, n))
        per_weight = [float(c) for c in counts]
        return _finish_report("single-draw", 1, recipe.eps, per_weight)

    if n <= exhaustive_limit:
        return _exhaustive_error(recipe, trials, seed)

    if jobs > 1:
        chunk = (trials + jobs - 1) // jobs
        ranges = [
            (k, min(k + chunk, trials)) for k in range(0, trials, chunk)
        ]
        recipe_json = recipe.to_json()
        unknown = unknown_recipe_kinds(recipe_json)
        if unknown:
            raise _no_rebuild(unknown[0])
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
    """Score every draw on every point of the cube (small n only).

    Each draw gets its cube columns from one pass of _cube_evaluator,
    bit-packed over GF(2).  A point is wrong when any component misses its
    target there, and the wrong points are counted per weight, so
    per_weight[w] is that count over trials * C(n, w).
    """
    n = recipe.n
    draws = _trial_draws(recipe, seed, 0, trials)
    wrong = _wrong_counts(recipe, draws, _cube_evaluator(recipe.field, n))
    per_weight = [wrong[w] / (trials * math.comb(n, w)) for w in range(n + 1)]
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
    check), the vanishing-form disjunction, the rational disjunction, a
    threshold tuple routed through either, and majority amplification of
    always-Boolean recipes.
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
        scales = char0_scales(n)
        out = [Fraction(0)]
        for w in range(1, n + 1):
            fail_run = Fraction(1)
            for j in range(scales + 1):
                q = Fraction(1, 1 << j)
                hit_exactly_one = w * q * (1 - q) ** (w - 1)
                fail_run *= 1 - hit_exactly_one
            out.append(fail_run**ell)
        return tuple(out)
    if recipe.kind == "threshold_tuple" and recipe.params["branch"] == "or":
        # Every component is the child disjunction's draw.
        return exact_error(recipe.children()[0])
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


def degree_audit(recipe: Recipe, draws: int = 100, seed: int = 0) -> DegreeAudit:
    """Check tracked degrees of sampled draws against the declared bound.

    For recipes on at most EXPAND_LIMIT variables each draw is also expanded
    into an explicit multilinear polynomial, whose true degree must not
    exceed the tracked degree.
    """
    root = SeedStream.from_seed(seed)
    if recipe.randomness_free:
        draws = 1
    max_tracked = 0
    max_expanded: int | None = None
    can_expand = recipe.n <= EXPAND_LIMIT
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
                # Only the degree is kept, so no expansion outlives its draw.
                expanded = expand_expr(expr, recipe.n, recipe.field).degree
                if expanded > tracked:
                    raise AssertionError(
                        f"expanded degree {expanded} exceeds tracked {tracked}"
                    )
                if max_expanded is None or expanded > max_expanded:
                    max_expanded = expanded
    return DegreeAudit(
        declared=recipe.declared_degree_bound,
        max_tracked=max_tracked,
        draws=draws,
        expanded=can_expand,
        max_expanded=max_expanded,
    )


def expand_expr(expr: PolyExpr, n: int, field: FieldSpec) -> MultilinearPoly:
    """Expand an expression DAG into its multilinear normal form.

    The normal form is the one multilinear polynomial that agrees with the
    expression on {0,1}^n, so its coefficients are the Mobius transform of
    the root's cube column; no polynomial arithmetic is done.  Time and
    memory grow as 2^n: a column is a 2^n-bit int over GF(2) and a list of
    2^n values elsewhere.  A variable index outside 0..n-1 raises
    ValueError.
    """
    cube = _cube_evaluator(field, n)
    (col,) = cube.columns((expr,))
    out = MultilinearPoly(field, n)
    out.terms = cube.coefficients(col)
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
