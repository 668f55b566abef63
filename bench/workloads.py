"""One pass of each workload: every job run once, timed by layer and checked.

Jobs call pdeg's public library functions, the same calls the CLI verbs
make, with inputs from inputs.py.  Each call into a layer is wrapped in a
span named after the module it enters (see spans.LAYERS).  Every recipe
build, error report, audited draw and certificate is one counted operation;
it fails on an unexpected exception, a report that did not pass, a broken
degree chain declared >= tracked >= expanded, a certificate whose check()
is false, or an empirical error outside the stated tolerance of the exact
one.  Seeded outputs feed a sha256 digest so any byte change shows.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from calibration import calibrate
from pdeg import (
    FieldSpec,
    SeedStream,
    Spectrum,
    amplify,
    bounded_radius_flagged,
    char0_or,
    empirical_error,
    eval_expr,
    exact_error,
    exact_recipe,
    expand_expr,
    expr_to_json,
    general_recipe,
    maj_from_general,
    maj_from_periodic,
    min_t_constant,
    mod_from_periodic,
    named_spectrum,
    period,
    practical_profile,
    predicted_bounds,
    razborov_or,
    sample_stream,
    standard_decomposition,
    thr_complement_from_bounded,
    thr_restrictions,
    threshold_combination,
    threshold_tuple,
    xor_combine,
)

# Empirical error may differ from the exact error at a weight by at most
# this many standard deviations of a mean of `trials` draws, each with
# variance at most q(1 - q); a weight whose exact error is 0 or 1 must match.
TOLERANCE_SIGMAS = 5.0


class CheckFailed(Exception):
    """A correctness check on an operation's output did not hold."""


class Op:
    """One counted operation; an exception or failed check marks it failed."""

    def __init__(self, run: "Pass", label: str):
        self.run = run
        self.label = label
        self.failed = False

    def __enter__(self):
        self.run.attempted += 1
        return self

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def reject(self) -> None:
        self.run.rejected += 1

    def __exit__(self, exc_type, exc, tb):
        if exc is None or not isinstance(exc, Exception):
            return False
        self.failed = True
        self.run.failed += 1
        self.run.failures.append(f"{self.label}: {type(exc).__name__}: {exc}")
        return True


class Pass:
    """Outcomes of one pass: operation counts, digest, degree rows, errors."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.failures: list[str] = []
        self.degree_rows: list[dict] = []
        self.error_ratios: list[float] = []
        self.job_seconds: dict[str, float] = {}
        self.job_calibration: dict[str, float] = {}
        self._last_calibration: float | None = None
        self._digest = hashlib.sha256()

    def op(self, label: str) -> Op:
        return Op(self, label)

    @contextmanager
    def job(self, job_id: str):
        """Time one job; in traced passes it is also the root span.

        The job is bracketed by calibrations (the one after a job serves as
        the one before the next), and job_calibration keeps their mean.
        """
        if self._last_calibration is None:
            self._last_calibration = calibrate()
        before = self._last_calibration
        t0 = time.perf_counter()
        with self.tracer.job(job_id):
            yield
        self.job_seconds[job_id] = time.perf_counter() - t0
        self._last_calibration = calibrate()
        self.job_calibration[job_id] = (before + self._last_calibration) / 2

    def record(self, kind: str, label: str, payload) -> None:
        line = json.dumps(
            [kind, label, payload], sort_keys=True, separators=(",", ":")
        )
        self._digest.update(line.encode() + b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


# -- shared steps --------------------------------------------------------------


def _spectrum(job: dict) -> Spectrum:
    if "bits" in job:
        return Spectrum(tuple(job["bits"]))
    kind, *params = job["family"]
    return named_spectrum(kind, job["n"], *params)


def _spectrum_label(job: dict) -> str:
    if "bits" in job:
        return "random:" + "".join(map(str, job["bits"]))[:16]
    return " ".join(map(str, job["family"]))


def _draws(run: Pass, recipe, streams: list) -> list[tuple]:
    """Sample one draw per stream; traced passes also count DAG nodes."""
    with run.tracer.span("probpoly.sample", draws=len(streams)) as span:
        draws = [sample_stream(recipe, s) for s in streams]
    if run.tracer.enabled:
        nodes = sum(len(expr_to_json(d, recipe.field)["nodes"]) for d in draws)
        span.count(nodes=nodes)
    return draws


def _error_report(run: Pass, recipe, trials: int, seed: int, layer: str):
    """empirical_error, timed under `layer` net of its sampling.

    A traced pass first redraws the same draws under probpoly.sample and
    stores that time on the layer's span as sample_s, which the per-layer
    totals subtract, so the layer's time is the scoring alone.
    """
    sample_s = 0.0
    if run.tracer.enabled:
        root = SeedStream.from_seed(seed)
        if recipe.randomness_free:
            streams = [root]
        else:
            streams = [root.child(("trial", k)) for k in range(trials)]
        t0 = time.perf_counter()
        _draws(run, recipe, streams)
        sample_s = time.perf_counter() - t0
    with run.tracer.span(layer, sample_s=sample_s) as span:
        report = empirical_error(recipe, trials=trials, seed=seed)
    n = recipe.n
    if report.mode == "exhaustive":
        span.count(points=report.trials * (1 << n))
    else:
        span.count(weight_evals=report.trials * (n + 1))
    return report


def _predicted_upper(run: Pass, target: Spectrum, eps, field) -> float:
    with run.tracer.span("bounds.predict"):
        return predicted_bounds(target, eps, field).upper


def _degree_row(
    run: Pass,
    label: str,
    recipe,
    tracked: list[int],
    uppers: list[float],
    expanded: int | None = None,
) -> None:
    """Degree table row; tracked and uppers are per component.

    Every ratio keeps its base: n for the first two, and for the third the
    prediction of the component where tracked / predicted is largest.
    Constant targets predict 0 and are left out of that ratio.
    """
    n = recipe.n
    declared = recipe.declared_degree_bound
    pred = [(t / u, t, u) for t, u in zip(tracked, uppers) if u > 0]
    ratio, pred_tracked, pred_upper = max(pred) if pred else (None, None, None)
    run.degree_rows.append(
        {
            "recipe": label,
            "n": n,
            "field": recipe.field.characteristic,
            "eps": str(recipe.eps),
            "declared": declared,
            "tracked": max(tracked),
            "expanded": expanded,
            "predicted_upper": pred_upper,
            "tracked_at_predicted": pred_tracked,
            "declared_over_n": declared / n,
            "tracked_over_n": max(tracked) / n,
            "tracked_over_pred": ratio,
        }
    )


def _check_degrees(op: Op, recipe, draw) -> list[int]:
    tracked = [e.deg for e in draw]
    op.require(
        max(tracked) <= recipe.declared_degree_bound,
        f"tracked degree {max(tracked)} above declared {recipe.declared_degree_bound}",
    )
    return tracked


def _audit_draws(run: Pass, label: str, recipe, seeds: list[int], extra=None) -> list[int]:
    """Sample a draw per seed, one operation each, and check its degrees.

    Returns the max tracked degree per component.  A randomness-free recipe
    has one draw.  extra(op, k, draw, degrees) adds work on the k-th draw
    inside its operation.
    """
    if recipe.randomness_free:
        seeds = seeds[:1]
    tracked = [0] * recipe.arity
    for k, s in enumerate(seeds):
        with run.op(f"{label} draw {s}") as op:
            (draw,) = _draws(run, recipe, [SeedStream.from_seed(s)])
            degrees = _check_degrees(op, recipe, draw)
            run.record("tracked", f"{label} draw {s}", degrees)
            if extra is not None:
                extra(op, k, draw, degrees)
            tracked = [max(a, b) for a, b in zip(tracked, degrees)]
    return tracked


def _check_against_exact(op: Op, report, exact) -> None:
    for w, (got, want) in enumerate(zip(report.per_weight, exact)):
        q = float(want)
        allowed = TOLERANCE_SIGMAS * math.sqrt(q * (1 - q) / report.trials)
        op.require(
            abs(got - q) <= allowed,
            f"empirical error {got} at weight {w} is not within {allowed} of exact {want}",
        )


# -- verify-mc -------------------------------------------------------------------


def verify_mc(data: dict, run: Pass) -> None:
    for i, c in enumerate(data["configs"]):
        field = FieldSpec(c["field"])
        n, eps, thresholds = c["n"], c["eps"], c["thresholds"]
        shown = thresholds if len(thresholds) < 4 else "all"
        label = f"threshold_tuple n={n} t={shown} eps={eps} p={field.characteristic}"
        with run.job(f"verify-mc/{i}"):
            with run.op(label + " build") as op:
                with run.tracer.span("probpoly.construct"):
                    recipe = threshold_tuple(
                        n, thresholds, eps, field, practical_profile(field)
                    )
                run.record("recipe", label, recipe.to_json())
            if op.failed:
                continue

            tracked = _audit_draws(run, label, recipe, c["draw_seeds"])

            with run.op(label + " verify") as op:
                report = _error_report(
                    run, recipe, c["trials"], c["mc_seed"], "verify.evaluate"
                )
                run.record("report", label, report.to_json())
                run.error_ratios.append(report.worst / float(eps))
                op.require(report.passed, f"worst error {report.worst} failed")
                if recipe.randomness_free:
                    op.require(report.worst == 0.0, "deterministic draw is wrong")

            uppers = [
                _predicted_upper(run, target, eps, field)
                for target in recipe.target_spectra()
            ]
            _degree_row(run, label, recipe, tracked, uppers)


# -- construct-families ----------------------------------------------------------


def _analyze(f: Spectrum, field: FieldSpec) -> dict:
    """The fields `pdeg analyze` reports."""
    radius, degenerate = bounded_radius_flagged(f)
    out = {
        "period": period(f),
        "radius": radius,
        "radius_degenerate": degenerate,
        "t_constant": min_t_constant(f),
        "threshold_combination": list(threshold_combination(f)),
        "decomposition": None,
    }
    if f.n >= 3:
        rep = standard_decomposition(f, field.characteristic)
        out["decomposition"] = [
            rep.g.text(),
            rep.h.text(),
            rep.period_g,
            rep.bounded_radius_h,
            rep.period_is_char_power,
        ]
    return out


def construct_families(data: dict, run: Pass) -> None:
    for i, job in enumerate(data["jobs"]):
        field = FieldSpec(job["field"])
        n, eps = job["n"], job["eps"]
        label = f"general {_spectrum_label(job)} n={n} p={field.characteristic}"
        with run.job(f"construct-families/{i}"):
            with run.op(label + " build") as op:
                f = _spectrum(job)
                with run.tracer.span("symfun.analyze"):
                    analysis = _analyze(f, field)
                run.record("analyze", label, analysis)
                with run.tracer.span("bounds.predict"):
                    bounds = predicted_bounds(f, eps, field)
                run.record("bounds", label, bounds.to_json())
                with run.tracer.span("probpoly.construct"):
                    recipe = general_recipe(f, eps, field, practical_profile(field))
                run.record("recipe", label, recipe.to_json())
            if op.failed:
                continue

            def sample_verb(op, k, draw, degrees):
                if k > 0:
                    return
                with run.tracer.span("verify.point_eval", points=len(draw) * (n + 1)):
                    values = [
                        [
                            field.format_element(
                                eval_expr(expr, [1] * w + [0] * (n - w), field)
                            )
                            for w in range(n + 1)
                        ]
                        for expr in draw
                    ]
                run.record("sample", label, values)

            tracked = _audit_draws(run, label, recipe, job["draw_seeds"], sample_verb)
            _degree_row(run, label, recipe, tracked, [bounds.upper] * len(tracked))


# -- audit-certify ---------------------------------------------------------------

QUARTER = Fraction(1, 4)
# Expanding a draw costs up to about 0.1 s at n = 12; the other audited
# draws of a recipe only have their tracked degrees checked.
EXPANDED_DRAWS = 3


def _audit_recipe(kind: str, n: int, field: FieldSpec, eps: Fraction):
    """Recipe of one audit job; for amplify, eps is the amplified error."""
    if kind == "razborov_or":
        return razborov_or(n, eps, field)
    if kind == "amplify":
        return amplify(razborov_or(n, QUARTER, field), eps)
    if kind == "xor":
        return xor_combine(
            razborov_or(n, eps, field),
            exact_recipe(field, [named_spectrum("MAJ", n)]),
        )
    if kind == "general_maj":
        return general_recipe(
            named_spectrum("MAJ", n), eps, field, practical_profile(field)
        )
    if kind == "char0_or":
        return char0_or(n, eps)
    raise ValueError(f"unknown audit recipe {kind!r}")


def _build_recipe(run: Pass, label: str, job: dict, field: FieldSpec):
    with run.op(label + " build") as op:
        with run.tracer.span("probpoly.construct"):
            recipe = _audit_recipe(job["kind"], job["n"], field, job["eps"])
        run.record("recipe", label, recipe.to_json())
    return None if op.failed else recipe


def _certificates(run: Pass, label: str, build, check_fields, expect_reject=False):
    """One job: build certificates, then check() each in every field given."""
    with run.job("audit-certify/" + label):
        with run.op(label + " build") as op:
            try:
                with run.tracer.span("reductions.build") as span:
                    certs = build()
            except ValueError as exc:
                if not expect_reject:
                    raise
                op.reject()
                run.record("rejected", label, str(exc))
                return
            span.count(certs=len(certs), slots=sum(len(c.restrictions) for c in certs))
        if op.failed:
            return
        for k, cert in enumerate(certs):
            with run.op(f"{label} cert {k}") as op:
                run.record("certificate", f"{label} cert {k}", cert.to_json())
                for field in check_fields:
                    with run.tracer.span("reductions.check"):
                        ok = cert.check(field)
                    op.require(ok, f"check() is false over p={field.characteristic}")


def _tile(pattern, n: int) -> Spectrum:
    b = len(pattern)
    return Spectrum(tuple(int(pattern[w % b]) for w in range(n + 1)))


def audit_certify(data: dict, run: Pass) -> None:
    tr = run.tracer
    for i, job in enumerate(data["expand"]):
        field = FieldSpec(job["field"])
        n = job["n"]
        label = f"{job['kind']} n={n} eps={job['eps']} p={field.characteristic}"
        with run.job(f"audit-certify/expand/{i}"):
            recipe = _build_recipe(run, label, job, field)
            if recipe is None:
                continue
            expanded = 0

            def expand(op, k, draw, degrees):
                nonlocal expanded
                if k >= EXPANDED_DRAWS:
                    return
                with tr.span("verify.expand") as span:
                    polys = [expand_expr(e, n, field) for e in draw]
                span.count(terms=sum(p.term_count for p in polys))
                for d, poly in zip(degrees, polys):
                    op.require(
                        poly.degree <= d,
                        f"expanded degree {poly.degree} above tracked {d}",
                    )
                expanded = max([expanded] + [p.degree for p in polys])
                run.record("expanded", label, [[p.degree, p.term_count] for p in polys])

            tracked = _audit_draws(run, label, recipe, job["draw_seeds"], expand)
            uppers = [
                _predicted_upper(run, t, recipe.eps, field)
                for t in recipe.target_spectra()
            ]
            _degree_row(run, label, recipe, tracked, uppers, expanded)

    gf2 = FieldSpec(2)
    for i, job in enumerate(data["exhaustive"]):
        n = job["n"]
        label = f"{job['kind']} n={n} eps={job['eps']} p=2 exhaustive"
        with run.job(f"audit-certify/exhaustive/{i}"):
            recipe = _build_recipe(run, label, job, gf2)
            if recipe is None:
                continue
            with run.op(label + " verify") as op:
                report = _error_report(
                    run, recipe, job["trials"], job["mc_seed"], "verify.point_eval"
                )
                run.record("report", label, report.to_json())
                run.error_ratios.append(report.worst / float(recipe.eps))
                with tr.span("verify.exact"):
                    exact = exact_error(recipe)
                run.record("exact", label, [str(q) for q in exact])
                op.require(report.passed, f"worst error {report.worst} failed")
                _check_against_exact(op, report, exact)

    for job in data["mod"]:
        field = FieldSpec(job["field"])
        g = _tile(job["pattern"], job["n"])
        _certificates(
            run,
            f"mod_from_periodic {job['pattern']} n={job['n']} p={job['field']}",
            lambda: mod_from_periodic(g, field),
            [field],
        )
    for job in data["maj_periodic"]:
        field = FieldSpec(job["field"])
        g = _tile([1] + [0] * (job["b"] - 1), job["n"])
        _certificates(
            run,
            f"maj_from_periodic n={job['n']} b={job['b']} eps={job['eps']} p={job['field']}",
            lambda: (maj_from_periodic(g, job["eps"], field),),
            [field],
            expect_reject=True,
        )
    for job in data["thr_complement"]:
        n = job["n"]
        hot = 0 if job["source"] == "nor" else 2
        h = Spectrum(tuple(1 if w == hot else 0 for w in range(n + 1)))
        _certificates(
            run,
            f"thr_complement_from_bounded {job['source']} n={n}",
            lambda: (thr_complement_from_bounded(h),),
            [FieldSpec(0), gf2],
        )
    for job in data["thr_restrictions"]:
        _certificates(
            run,
            f"thr_restrictions n={job['n']} t={job['t']}",
            lambda: thr_restrictions(job["n"], job["t"]),
            [gf2],
        )
    for job in data["maj_general"]:
        f = _spectrum(job)
        _certificates(
            run,
            f"maj_from_general {_spectrum_label(job)} n={job['n']}",
            lambda: (maj_from_general(f, gf2),),
            [gf2],
        )


RUNNERS = {
    "verify-mc": verify_mc,
    "construct-families": construct_families,
    "audit-certify": audit_certify,
}
