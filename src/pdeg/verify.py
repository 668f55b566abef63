"""Empirical and exact validation of sampled polynomial recipes.

Error measurement is per Hamming weight: by symmetry of every construction
(coefficients are drawn identically across variables), the error probability
at any point depends only on its weight, so the stratified mode evaluates
draws on one representative point per weight, 1^w 0^(n-w).  Small variable
counts are checked exhaustively instead, on every point of the cube
{0,1}^n.  Every mode scores a draw in one column pass: it computes every
node's values at all the points at once, by its class's rule, in the order
of probpoly's one iterative DAG walk, post_order, so no draw is walked once
per point.  On lists a node costs one pass over the points, and a Sum or
Product of more than two operands one more per extra operand: a SymApply on
x_0..x_(m-1) alone is read off its value table as a slice (at 1^w 0^(n-w)
it counts min(w, m) ones), SymApply nodes with equal var_indices share one
count column per pass, a linear form on x_0..x_(n-1) in order takes its
prefix sums straight from its coefficients, and Sum, Product and
LinearForm reduce mod p in the pass that computes them.  Over GF(2) a cube
column is one 2^n-bit int, and Sum, Product and SymApply are XOR, AND and
a bit-sliced counter.

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
    record_json,
    set_bits,
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
    sample_stream,
    split_operands,
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
        return record_json(self, schema_version=1)


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
    per point, by its class's entry in rules, and each rule is one list
    pass over the points, plus one per operand past the second of a Sum or
    Product:
    - a SymApply on x_0..x_(m-1) and nothing else counts min(w, m) ones at
      weight w, so its column is read off its weight polynomial's value
      table, SymPoly.table, as a slice: no count column is built;
    - any other SymApply reads that table at each point's count of ones.
      SymApply nodes with equal var_indices share one count column per
      columns() call, as they share one count per call in eval_expr;
    - a variable is the linear form 1 * x_index, and a linear form is the
      prefix sum of each variable's coefficient: a form on x_0..x_(n-1) in
      order is its coefficient list already, so no per-index pass runs;
    - Sum, Product, Power and LinearForm compute on raw ints or Fractions
      and reduce mod p in the pass that computes them.
    The tables are cached on the polynomials for every evaluator and for
    eval_expr alike.  _CubeColumns changes the point set to the whole cube.
    """

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.size = n + 1
        self.all_indices = tuple(range(n))
        # None leaves a value unreduced, over Q: pow(v, k, None) is v**k.
        self.p = p = field.characteristic or None
        self.counts: dict[Sequence[int], list[int]] = {}
        self.rules = {
            SymApply: self._sym_column,
            Sum: self._sum_column,
            Product: self._product_column,
            Power: lambda e, cols: [pow(v, e.exponent, p) for v in cols[id(e.base)]],
            LinearForm: lambda e, cols: self._linear(e.coeffs, e.indices, p),
            Var: lambda e, cols: self._linear((1,), (e.index,), p),
            Constant: lambda e, cols: [e.value % p if p else e.value] * self.size,
        }

    def columns(self, roots: Sequence[PolyExpr]) -> list[list[FieldElement]]:
        self.counts = {}  # this call's count columns, by var_indices
        return _post_order(roots, self.rules)

    def spectrum_column(self, values: Sequence[int]) -> list[FieldElement]:
        """Column of a function of the weight, given its values by weight.

        Spectrum values are plain 0/1 ints, canonical in every field.
        """
        return list(values)

    def wrong_by_weight(self, cols: Sequence, targets: Sequence) -> list:
        """Per weight, the points where some column misses its target.

        With one point per weight that is a flag per point.  A column that
        matches its target throughout is passed over with one comparison.
        """
        wrong = [False] * self.size
        for col, target in zip(cols, targets):
            if col != target:
                wrong = list(map(or_, wrong, map(ne, col, target)))
        return wrong

    def _by_var(
        self, coeffs: Iterable[FieldElement], indices: Sequence[int]
    ) -> Iterable[FieldElement]:
        """Each variable's total coefficient in sum_j coeffs[j] * x_indices[j].

        A form on x_0..x_(n-1) in order already lists them.
        """
        if indices == self.all_indices:
            return coeffs
        _check_indices(indices, self.n)
        by_var: list[FieldElement] = [0] * self.n
        for c, i in zip(coeffs, indices):
            by_var[i] += c
        return by_var

    def _linear(
        self, coeffs: Iterable[FieldElement], indices: Sequence[int], p: int | None = None
    ) -> list[FieldElement]:
        """Column of sum_j coeffs[j] * x_indices[j], reduced mod p if given.

        At 1^w 0^(n-w) that is the sum of the coefficients of x_i, i < w:
        a prefix sum.
        """
        sums = accumulate(self._by_var(coeffs, indices), initial=0)
        return [v % p for v in sums] if p else list(sums)

    def _prefix_read(self, table: Sequence[FieldElement], m: int) -> list[FieldElement]:
        """table at the number of ones among x_0..x_(m-1), m <= n, at each
        point: min(w, m) at 1^w 0^(n-w)."""
        return [*table[: m + 1], *repeat(table[m], self.n - m)]

    def _count_column(self, var_idx: Sequence[int]) -> list[int]:
        """The number of ones among x_i, i in var_idx, at each point; one
        column per var_indices per columns() call, never written to."""
        counts = self.counts.get(var_idx)
        if counts is None:
            counts = self.counts[var_idx] = self._linear(repeat(1, len(var_idx)), var_idx)
        return counts

    def _coordinate(self, i: int, point: int) -> int:
        """x_i at the point with index point."""
        return 1 if i < point else 0

    def _product_column(self, e: Product, cols: dict) -> list[FieldElement]:
        p = self.p
        if not e.factors:
            return [1] * self.size
        # Each factor after the first is one pass; the last pass reduces.
        out, *rest = [cols[id(f)] for f in e.factors]
        if not rest:
            return [v % p for v in out] if p else out
        *mid, last = rest
        for col in mid:
            out = list(map(mul, out, col))
        return [a * b % p for a, b in zip(out, last)] if p else list(map(mul, out, last))

    def _sum_column(self, e: Sum, cols: dict) -> list[FieldElement]:
        p, k = self.p, e.constant
        if not e.terms:
            return [k % p if p else k] * self.size
        # The constant rides on a term, so no constant column is built.  The
        # last pass adds the last two terms and reduces; any earlier terms
        # fold first, one pass each, into a partial sum of coefficient 1.
        (c, t), *rest = e.terms
        x = cols[id(t)]
        if not rest:
            return [(k + c * v) % p for v in x] if p else [k + c * v for v in x]
        *mid, (d, u) = rest
        if mid:
            x = [k + c * v for v in x]
            for ci, ti in mid:
                x = [a + ci * v for a, v in zip(x, cols[id(ti)])]
            k, c = 0, 1
        y = cols[id(u)]
        if p:
            return [(k + c * a + d * b) % p for a, b in zip(x, y)]
        return [k + c * a + d * b for a, b in zip(x, y)]

    def _sym_column(self, e: SymApply, cols: dict) -> list[FieldElement]:
        p = self.field.characteristic
        var_idx = e.var_indices
        m = len(var_idx)
        table = e.poly.table(len(e.inputs))
        if not e.others:
            if var_idx == range(m) and m <= self.n:
                return self._prefix_read(table, m)
            return list(map(table.__getitem__, self._count_column(var_idx)))
        others = [cols[id(t)] for t in e.others]
        counts = list(map(add, self._count_column(var_idx), map(sum, zip(*others))))
        # Over GF(2) every reduced value is 0 or 1; elsewhere an input may
        # take another value, and those points need the general kernel.
        bad: set[int] = set()
        if p != 2:
            for col in others:
                if not BOOLEAN.issuperset(col):
                    bad.update(j for j, v in enumerate(col) if v != 0 and v != 1)
        for j in bad:
            counts[j] = 0
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
        return [values[w] for w in self.weights]

    def wrong_by_weight(self, cols: Sequence, targets: Sequence) -> list[int]:
        counts = [0] * (self.n + 1)
        for w in compress(self.weights, super().wrong_by_weight(cols, targets)):
            counts[w] += 1
        return counts

    def _linear(
        self, coeffs: Iterable[FieldElement], indices: Sequence[int], p: int | None = None
    ) -> list[FieldElement]:
        """Column of sum_j coeffs[j] * x_indices[j], reduced mod p if given.

        Built by the subset-sum recurrence: the points with x_i = 1 are the
        lower 2^i points shifted by 2^i, plus x_i's coefficient.
        """
        col: list[FieldElement] = [0]
        for c in self._by_var(coeffs, indices):
            if p:
                c %= p
            if not c:
                col += col
            else:
                col += [(v + c) % p for v in col] if p else [v + c for v in col]
        return col

    def _prefix_read(self, table: Sequence[FieldElement], m: int) -> list[FieldElement]:
        """x_0..x_(m-1) are the low m bits of the mask, so the column is its
        first 2^m entries, repeated."""
        return [table[w] for w in self.weights[: 1 << m]] * (1 << (self.n - m))

    def _coordinate(self, i: int, point: int) -> int:
        return (point >> i) & 1

    def coefficients(self, col: list[FieldElement]) -> dict[int, FieldElement]:
        """Multilinear coefficients of a cube column, by monomial mask.

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
            return {m: r for m, c in enumerate(a) if (r := c % p)}
        # Over Q, element makes integral values ints.
        return {m: self.field.element(c) for m, c in enumerate(a) if c}


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

    def coefficients(self, col: int) -> dict[int, FieldElement]:
        """Multilinear coefficients of a cube column, by monomial mask.

        The Mobius transform over GF(2): n shift-XOR steps.  Bit m of the
        result is the coefficient of monomial m.
        """
        for i, mask in enumerate(self.var_masks):
            col ^= (col << (1 << i)) & mask
        return dict.fromkeys(set_bits(col), 1)

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


def empirical_error(recipe: Recipe, trials: int = 10_000, seed: int = 0) -> ErrorReport:
    """Monte Carlo error of a recipe against its target spectra, in one pass.

    A randomness-free recipe is scored on its one draw from the seed
    (single-draw mode); otherwise trial k scores the draw from the seed's
    child ("trial", k).  For n <= EXHAUSTIVE_LIMIT a draw is scored on
    every point of the cube (exhaustive mode), and per_weight[w] counts
    wrong points over trials * C(n, w).  Beyond it a draw is scored on one
    point per weight, 1^w 0^(n-w), as the draw distribution is symmetric
    under coordinate permutations (stratified mode), and per_weight[w]
    counts wrong draws over trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n, eps = recipe.n, recipe.eps
    root = SeedStream.from_seed(seed)
    if recipe.randomness_free:
        mode, trials, draws = "single-draw", 1, [sample_stream(recipe, root)]
    else:
        mode = "exhaustive" if n <= EXHAUSTIVE_LIMIT else "stratified"
        draws = (sample_stream(recipe, root.child(("trial", k))) for k in range(trials))
    if mode == "exhaustive":
        evaluator = _cube_evaluator(recipe.field, n)
        points = [math.comb(n, w) for w in range(n + 1)]
    else:
        evaluator, points = _ColumnEvaluator(recipe.field, n), repeat(1)
    wrong = _wrong_counts(recipe, draws, evaluator)
    per_weight = tuple(c / (trials * k) for c, k in zip(wrong, points))
    worst_weight = max(range(n + 1), key=per_weight.__getitem__)
    worst = per_weight[worst_weight]
    eps_f = float(eps)
    slack = 3.0 * math.sqrt(max(eps_f * (1.0 - eps_f), 1e-12) / trials)
    return ErrorReport(
        mode=mode, trials=trials, eps=eps, per_weight=per_weight, worst=worst,
        worst_weight=worst_weight, slack=slack, passed=worst <= eps_f + slack,
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
        return record_json(self, schema_version=1)


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
) -> bool:
    """Verify that combining the operand spectra reproduces the target.

    The combiner receives the operand values at one weight and returns a
    field element; the identity holds when it matches the target bit at
    every weight.
    """
    return not identity_failures(target, operands, combine, field)


def identity_failures(
    target: Spectrum,
    operands: Sequence[Spectrum],
    combine: Callable[[Sequence[FieldElement], FieldSpec], FieldElement],
    field: FieldSpec,
) -> list[tuple[int, FieldElement, int]]:
    """Weights where the combined value misses the target, with both values."""
    failures = []
    for w in range(target.n + 1):
        values = [field.element(op.values[w]) for op in operands]
        got = field.element(combine(values, field))
        want = field.element(target.values[w])
        if got != want:
            failures.append((w, got, want))
    return failures
