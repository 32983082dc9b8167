"""Decreasing involutions that pin a map against the diagonal.

An envelope h must satisfy h(h(x)) = x, h strictly decreasing, h(1) = 1.
It envelops a map f when h > f on (0, 1) and h < f past 1 wherever both
stay positive; x_h denotes the positive root of h, beyond which the
second condition is vacuous.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable

import numpy as np

from .models import PopulationModel, _family_compiler, _number, compile_expression
from .numerics import GridConfig, SignReport, adaptive_sign_check, scan_roots, tangency_ladder

__all__ = [
    "Envelope",
    "make_mobius",
    "make_reciprocal",
    "make_piecewise_bh",
    "make_custom_envelope",
    "StructuralReport",
    "structural_check",
    "EnvelopeVerdict",
    "envelops",
    "FitReport",
    "fit_mobius",
]

# Right end of the structural gate's span when x_h lies beyond it.  A
# uniform grid up to a huge x_h samples nothing near 1, and the slope of a
# Moebius h underflows to -0 past x ~ 1e154 (alpha below ~1e-154).
_INF_CAP = 1000.0


@dataclass(frozen=True)
class Envelope:
    kind: str  # "mobius" (param is alpha) | "custom" (param is None)
    param: float | None
    x_h: float
    label: str
    _eval: Callable = field(default=None, repr=False, compare=False)
    _slope: Callable = field(default=None, repr=False, compare=False)  # h'

    def eval(self, x: float) -> float:
        return float(self._eval(np.float64(x)))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x)


@dataclass(frozen=True)
class StructuralReport:
    """The gate before enveloping, from the sign checks of structural_check.

    involution_passed: h > 0 and |h(h(x)) - x| < tol(x) hold on every
    sample; involution_residual is the largest |h(h(x)) - x| sampled
    (inf where it is NaN).
    decreasing: h' < 0 holds on every sample.
    unit_residual: |h(1) - 1|, at most 1e-12 to pass.
    """

    passed: bool
    involution_passed: bool
    involution_residual: float
    decreasing: bool
    unit_residual: float


# h_alpha = (1 - alpha x)/(alpha - (2 alpha - 1) x), matrix [[-alpha, 1],
# [-(2 alpha - 1), alpha]].  Its trace is zero, so h o h = id; h(1) = 1;
# and h' = -(1 - alpha)^2/(alpha - (2 alpha - 1) x)^2 < 0 with h > 0 on
# (0, 1/alpha).  So every Moebius envelope passes the gate exactly.
_MOBIUS = "(1 - alpha*x)/(alpha - (2*alpha - 1)*x)"
MOBIUS_STRUCTURE = StructuralReport(passed=True, involution_passed=True, involution_residual=0.0,
                                    decreasing=True, unit_residual=0.0)


def make_mobius(alpha: float) -> Envelope:
    """One-parameter family of decreasing involutions through (1, 1).

    alpha = 0 gives 1/x, alpha = 1/2 gives 2 - x; the positive root is
    x_h = 1/alpha.  Its structural report is MOBIUS_STRUCTURE.
    """
    alpha = _number(alpha, "alpha")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1) (got {alpha:g})")
    value, derivs = _family_compiler(_MOBIUS, ("alpha",))({"alpha": alpha})
    return Envelope(
        kind="mobius",
        param=alpha,
        x_h=np.inf if alpha == 0.0 else 1.0 / alpha,
        label=f"mobius(alpha={alpha:g})",
        _eval=value,
        _slope=derivs[0],
    )


def make_reciprocal() -> Envelope:
    """1/x, the Moebius envelope at alpha = 0."""
    return replace(make_mobius(0.0), label="reciprocal(1/x)")


def make_piecewise_bh(c: float) -> Envelope:
    """Envelope tailored to steep compensatory maps: alpha = (c-2)/(c-1)."""
    c = _number(c, "c")
    if c <= 2.0:
        raise ValueError(f"c must exceed 2 (got {c:g})")
    return replace(make_mobius((c - 2.0) / (c - 1.0)), label=f"piecewise-bh(c={c:g})")


def _is_first_root(ev: Callable, slope: Callable, x_h: float) -> bool:
    """Whether x_h is the first root of h past 1: x_h > 1, |h(x_h)| <= 1e-9
    max(1, |h'(x_h)| x_h), and no sign change of h on (1, x_h (1 - 1e-9)).
    h(x_h) carries the rounding of x_h scaled by |h'(x_h)|, which is about
    1e8 at the root of a custom Moebius h with alpha = 1 - 1e-4."""
    return (x_h > 1.0 and abs(ev(x_h)) <= 1e-9 * max(1.0, abs(slope(x_h)) * x_h)
            and all(r >= x_h * (1.0 - 1e-9) for r in scan_roots(ev, (1.0, x_h), 8192)))


def make_custom_envelope(expr: str, x_h: float | None = None) -> Envelope:
    """Envelope from an expression in x, with x_h its first root past 1.

    A given finite x_h must pass _is_first_root.  Without one, x_h is h(0)
    when that passes, as it does for an involution, which maps its root to
    0 and so 0 to its root; else the first root of a scan of (1, 50), or
    inf.  The scan alone misses a root that shares a cell with a pole, as
    in a custom Moebius h with alpha >= 0.99.
    """
    ev, derivs = compile_expression(expr)
    if x_h is None:
        x_h = float(ev(0.0))
        if not (np.isfinite(x_h) and _is_first_root(ev, derivs[0], x_h)):
            roots = scan_roots(ev, (1.0 + 1e-9, 50.0), 8192)
            x_h = float(roots[0]) if roots.size else np.inf
    elif np.isfinite(x_h := _number(x_h, "x_h", allow_inf=True)):
        if not _is_first_root(ev, derivs[0], x_h):
            raise ValueError(f"x_h = {x_h:g} is not the first root of h past 1")
    return Envelope(
        kind="custom",
        param=None,
        x_h=x_h,
        label=f"custom({expr})",
        _eval=ev,
        _slope=derivs[0],
    )


def _check_span(h: Envelope) -> tuple[float, float]:
    hi = h.x_h - 1e-6 * max(1.0, h.x_h) if np.isfinite(h.x_h) else _INF_CAP
    return 1e-6, min(hi, _INF_CAP)


def structural_check(h: Envelope, cfg: GridConfig | None = None) -> StructuralReport:
    """Involution + strict decrease + h(1) = 1, the gate before enveloping.

    Three sign checks with abs_tol = 0 on (1e-6, x_h - 1e-6 max(1, x_h)),
    cut at 1000: h > 0, h' < 0 from h's compiled derivative, and the
    involution slack tol(x) - |h(h(x)) - x| > 0.
    h(h(x)) carries the rounding of h(x) scaled by |h'(h(x))|, so tol(x)
    = 1e-9 max(1, x, |h'(h(x)) h(x)|).
    """
    if cfg is None:
        cfg = GridConfig()
    strict = replace(cfg, abs_tol=0.0)
    span = _check_span(h)
    worst = 0.0

    def slack(x: np.ndarray) -> np.ndarray:
        nonlocal worst
        hv = h.eval_array(x)
        # h' first, while only x and hv are held: its Taylor temporaries
        # are the largest set of block-sized arrays any check holds
        scale = np.abs(h._slope(hv) * hv)
        res = np.abs(h.eval_array(hv) - x)
        top = float(res.max())
        worst = max(worst, top if top == top else np.inf)  # NaN counts as inf
        tol = 1e-9 * np.maximum(np.maximum(1.0, x), scale)
        return tol - res

    positive = adaptive_sign_check(h.eval_array, span, "positive", strict)
    involution = adaptive_sign_check(slack, span, "positive", strict)
    decreasing = adaptive_sign_check(h._slope, span, "negative", strict)
    unit = abs(h.eval(1.0) - 1.0)
    involution_passed = positive.ok and involution.ok
    return StructuralReport(
        passed=involution_passed and decreasing.ok and unit <= 1e-12,
        involution_passed=involution_passed,
        involution_residual=worst,
        decreasing=decreasing.ok,
        unit_residual=unit,
    )


@dataclass(frozen=True)
class EnvelopeVerdict:
    envelope_label: str
    model_label: str
    passed: bool
    inside: SignReport
    outside: SignReport | None
    delta: float

    @property
    def has_violation(self) -> bool:
        if self.inside.status == "violation":
            return True
        return self.outside is not None and self.outside.status == "violation"

    @property
    def unresolved_intervals(self) -> tuple[tuple[float, float], ...]:
        out = tuple(self.inside.unresolved)
        if self.outside is not None:
            out += tuple(self.outside.unresolved)
        return out


def _inside_leg(h: Envelope, model: PopulationModel, cfg: GridConfig) -> SignReport:
    """The check of h > f on (delta, 1 - delta)."""
    delta = cfg.exclusion_radius
    return adaptive_sign_check(
        lambda t: h.eval_array(t) - model.eval_array(t),
        (delta, 1.0 - delta),
        "positive",
        cfg,
    )


def _outside_leg(h: Envelope, model: PopulationModel, cfg: GridConfig) -> SignReport | None:
    """The check of h < f on (1 + delta, min(x_h, domain end)) where both
    stay positive; None when that span is infinite or shorter than 2 delta."""
    delta = cfg.exclusion_radius
    hi_out = min(h.x_h, model.domain.hi)
    if not (np.isfinite(hi_out) and hi_out > 1.0 + 2 * delta):
        return None

    def gap(t: np.ndarray) -> np.ndarray:
        fv = model.eval_array(t)
        hv = h.eval_array(t)
        # NaN fails both tests, so a NaN sample takes the masked path
        if fv.min() > 0 and hv.min() > 0:
            return fv - hv
        return np.where((fv > 0) & (hv > 0), fv - hv, np.inf)

    return adaptive_sign_check(gap, (1.0 + delta, hi_out), "positive", cfg)


def envelops(
    h: Envelope, model: PopulationModel, cfg: GridConfig | None = None
) -> EnvelopeVerdict:
    """Check h > f on (0,1) and h < f past 1 where both stay positive.

    Past x_h or past points where either function is nonpositive the
    outer condition is vacuous; those samples are skipped.
    """
    if cfg is None:
        cfg = GridConfig()
    inside = _inside_leg(h, model, cfg)
    outside = _outside_leg(h, model, cfg)
    return EnvelopeVerdict(
        envelope_label=h.label,
        model_label=model.label,
        passed=inside.ok and (outside is None or outside.ok),
        inside=inside,
        outside=outside,
        delta=cfg.exclusion_radius,
    )


@dataclass(frozen=True)
class FitReport:
    """Feasible alpha ranges of a Moebius fit on the grid k/alpha_cells.

    alpha_step is 1/alpha_cells; every grid value is decided, by a probe
    or by a probe's failure through the monotonicity of h_alpha in alpha
    (see fit_mobius).  delta_used is the exclusion radius the fit was
    decided at.  failure is None for a non-empty fit, "violation" when
    every probe that ruled an alpha out failed with a violation, and
    "unresolved" otherwise.
    """

    feasible: tuple[tuple[float, float], ...]
    alpha_step: float
    delta_used: float
    failure: str | None

    @property
    def empty(self) -> bool:
        return not self.feasible


def fit_mobius(
    maps: tuple[PopulationModel, ...], cfg: GridConfig | None = None, alpha_cells: int = 1000
) -> FitReport:
    """Feasible alpha ranges for which the Moebius envelope works.

    The grid is alpha = k/alpha_cells for k < alpha_cells, and alpha is
    feasible when the envelope passes for every map.  d h_alpha(x)/d alpha
    = -(x - 1)^2 / (alpha - (2 alpha - 1) x)^2, whose denominator stays
    positive on (0, 1/alpha), so h_alpha falls pointwise as alpha grows.

    Inside leg: its samples on (delta, 1 - delta) do not depend on alpha
    and h_alpha - f only falls, so every cell refined at one alpha is
    refined at any larger alpha and a failure stays a failure.  The leg
    holds exactly on a prefix [0, end_in), found by bisection.

    Outside leg: a violation at alpha2 has a witness x < 1/alpha2 where f
    and h_alpha2 are positive and f - h_alpha2 < -abs_tol.  For every
    alpha < alpha2, x < 1/alpha and h_alpha(x) >= h_alpha2(x) > 0, so x
    violates the leg at alpha too.  An unresolved check proves nothing
    of the kind, and the sampled check has no exact order in alpha since
    its grid moves with 1/alpha.  So one walk goes down from end_in - 1,
    checks only the outside leg (below end_in the inside leg holds), and
    stops at the first alpha whose outside leg fails with a violation;
    the alphas under it are infeasible.

    A probe checks one leg of one map at one grid alpha: the bisection
    probes only inside legs and the walk only outside legs.  Each grid
    alpha is decided by a probe or by one of the two arguments above.
    An empty fit costs at most ceil(log2(alpha_cells + 1)) inside probes
    per map, plus one outside probe per map when the walk's first step is
    a violation.  Each run boundary gets one midpoint refinement, a full
    envelops per map.
    The fit runs on the tangency ladder: an empty fit whose ruling probes
    stay undecided only near 0 or 1 is redone at the next exclusion
    radius.  An empty fit with failure "violation" is a definite
    negative at this resolution.
    """
    if alpha_cells < 1:
        raise ValueError("alpha_cells must be at least 1")
    if cfg is None:
        cfg = GridConfig()
    runs, failure, delta = tangency_ladder(
        lambda c: _fit_on_grid(maps, c, alpha_cells), cfg
    )
    return FitReport(
        feasible=runs,
        alpha_step=1.0 / alpha_cells,
        delta_used=delta,
        failure=failure,
    )


def _fit_on_grid(maps: tuple[PopulationModel, ...], cfg: GridConfig, alpha_cells: int):
    """fit_mobius at one exclusion radius, as a tangency_ladder check."""
    alphas = np.arange(alpha_cells) / alpha_cells

    @cache
    def probe(leg: Callable, i: int, k: int) -> SignReport | None:
        return leg(make_mobius(float(alphas[i])), maps[k], cfg)

    def first_failing(leg: Callable, i: int) -> SignReport | None:
        """The first map's failing check of one leg at alphas[i], None if
        that leg holds (or is vacuous) for every map."""
        reports = (probe(leg, i, k) for k in range(len(maps)))
        return next((r for r in reports if r is not None and not r.ok), None)

    def feasible_at(alpha: float) -> bool:
        h = make_mobius(float(alpha))
        return all(envelops(h, f, cfg).passed for f in maps)

    end_in = bisect_left(
        range(alpha_cells), True, key=lambda i: first_failing(_inside_leg, i) is not None
    )
    mask = np.zeros(alpha_cells, dtype=bool)
    # the checks that rule grid alphas out: the inside leg at end_in rules
    # out every larger alpha, each outside failure below end_in its own
    # alpha, and the outside violation that ends the walk every smaller one
    ruling = [] if end_in == alpha_cells else [first_failing(_inside_leg, end_in)]
    for i in reversed(range(end_in)):
        r = first_failing(_outside_leg, i)  # below end_in the inside leg holds
        mask[i] = r is None
        if r is not None:
            ruling.append(r)
            if r.status == "violation":
                break

    runs: list[tuple[float, float]] = []
    # each run of passing grid alphas is [i, j]; its ends move out half a
    # step where the midpoint to the next grid alpha passes too
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    for i, j in zip(edges[::2], edges[1::2] - 1):
        lo, hi = float(alphas[i]), float(alphas[j])
        if i > 0 and feasible_at(mid := 0.5 * (alphas[i - 1] + alphas[i])):
            lo = float(mid)
        if j + 1 < alpha_cells and feasible_at(mid := 0.5 * (alphas[j] + alphas[j + 1])):
            hi = float(mid)
        runs.append((lo, hi))
    unresolved = tuple(iv for r in ruling for iv in r.unresolved)
    return tuple(runs), bool(runs), all(r.status == "violation" for r in ruling), unresolved

