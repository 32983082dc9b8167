"""Global-stability certification pipeline.

The certificate combines three independent legs: the population-model
axioms for every map and for their composition, a verified enveloping
decreasing involution shared by all maps, and a local multiplier at the
fixed point.  A direct sign oracle on the doubled composition
cross-validates every certified verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .envelopes import (
    MOBIUS_STRUCTURE,
    Envelope,
    EnvelopeVerdict,
    envelops,
    fit_mobius,
    make_mobius,
    make_piecewise_bh,
    make_reciprocal,
    structural_check,
)
from .models import (
    AxiomReport,
    AxiomViolation,
    PopulationModel,
    verify_population_axioms,
)
from .numerics import GridConfig, SignReport, adaptive_sign_check, scan_roots, tangency_ladder
from .periodic import PeriodicSystem, compose_array, cycle_grid, phase_cycles
from .report import plain

__all__ = [
    "SchwarzianReport",
    "schwarzian",
    "schwarzian_test",
    "LocalStability",
    "local_stability",
    "OracleReport",
    "two_cycle_oracle",
    "CandidateRecord",
    "StabilityCertificate",
    "default_candidates",
    "try_candidate",
    "axiom_gate",
    "certify_global_stability",
    "ConditionRow",
    "ConditionsReport",
    "closed_form_conditions",
]

# ---------------------------------------------------------------------------
# Schwarzian derivative


@dataclass(frozen=True)
class SchwarzianReport:
    label: str
    passed: bool
    slope_at_one: float
    critical_points: tuple[float, ...]
    max_value: float
    reason: str | None


def schwarzian(model: PopulationModel, x: float) -> float:
    """f'''/f' - 1.5 (f''/f')^2 at a point, from the map's Taylor derivatives."""
    if not model.smooth:
        raise ValueError(f"Schwarzian unavailable: {model.label} is not C^3")
    d1 = model.deriv(x, 1)
    if d1 == 0.0:
        raise ValueError(f"Schwarzian undefined at critical point x={x:g}")
    d2 = model.deriv(x, 2)
    d3 = model.deriv(x, 3)
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def _schwarzian_array(model: PopulationModel, x: np.ndarray) -> np.ndarray:
    d1 = model.deriv_array(x, 1)
    d2 = model.deriv_array(x, 2)
    d3 = model.deriv_array(x, 3)
    with np.errstate(all="ignore"):
        return d3 / d1 - 1.5 * (d2 / d1) ** 2


def schwarzian_test(
    model: PopulationModel, cfg: GridConfig | None = None
) -> SchwarzianReport:
    """Negative-Schwarzian stability test for one smooth map.

    Requires at most one interior critical point, |f'(1)| <= 1, and a
    negative Schwarzian on a grid that skips 1e-3 neighborhoods of the
    critical points.
    """
    if not model.smooth:
        raise ValueError(f"Schwarzian unavailable: {model.label} is not C^3")
    if cfg is None:
        cfg = GridConfig()
    hi = model.domain.hi
    eps = cfg.exclusion_radius
    crit = tuple(
        float(c)
        for c in scan_roots(lambda t: model.deriv_array(t, 1), (eps, hi - eps), cfg.seed_cells)
    )
    slope1 = model.deriv(1.0, 1)

    reason = None
    if len(crit) > 1:
        reason = f"{len(crit)} interior critical points, expected at most one"
    elif abs(slope1) > 1.0 + 1e-12:
        reason = f"|f'(1)| = {abs(slope1):.6g} exceeds 1"

    xs = np.linspace(eps, hi - eps, cfg.seed_cells + 1)
    for c in crit:
        xs = xs[np.abs(xs - c) > 1e-3]
    vals = _schwarzian_array(model, xs)
    finite = np.isfinite(vals) | np.isneginf(vals)
    max_val = float(np.max(vals[finite])) if finite.any() else float("nan")
    if reason is None and not (max_val < 0):
        reason = f"Schwarzian reaches {max_val:.6g} >= 0"

    return SchwarzianReport(
        label=model.label,
        passed=reason is None,
        slope_at_one=slope1,
        critical_points=crit,
        max_value=max_val,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# Local multiplier


@dataclass(frozen=True)
class LocalStability:
    multiplier: float
    verdict: str  # "stable" | "neutral" | "unstable"


def local_stability(system: PeriodicSystem) -> LocalStability:
    """Multiplier of the period map at x = 1 by the chain rule."""
    m = system.period_map.deriv(1.0, 1)
    a = abs(m)
    if a < 1.0 - 1e-12:
        verdict = "stable"
    elif a <= 1.0 + 1e-12:
        verdict = "neutral"
    else:
        verdict = "unstable"
    return LocalStability(multiplier=m, verdict=verdict)


# ---------------------------------------------------------------------------
# Doubled-composition sign oracle


@dataclass(frozen=True)
class OracleReport:
    """Direct check that the doubled period map sits strictly between
    the diagonal's sides, which rules out period-two behavior of the
    composition and pins every positive orbit toward 1."""

    verdict: str  # "passes" | "fails" | "inconclusive"
    left: SignReport
    right: SignReport | None
    two_cycles: tuple[tuple[float, float], ...]
    extra_fixed_points: tuple[float, ...]
    delta: float

    # Structure closer to the fixed point than delta is below the
    # check's resolution (the sign legs skip that neighborhood, and a
    # tangency there drowns the root search in roundoff), so it is
    # deliberately not reported.


def two_cycle_oracle(system: PeriodicSystem, cfg: GridConfig | None = None) -> OracleReport:
    if cfg is None:
        cfg = GridConfig()
    hi = system.working_interval.hi
    delta = cfg.exclusion_radius
    p = system.period

    def g2(t: np.ndarray) -> np.ndarray:
        return compose_array(system, t, 2 * p) - t

    left = adaptive_sign_check(g2, (delta, 1.0 - delta), "positive", cfg)
    right = None
    if hi > 1.0 + 2 * delta:
        right = adaptive_sign_check(g2, (1.0 + delta, hi), "negative", cfg)

    # the fixed points and two-cycles of Phi from phase 0, found by the
    # same search as the cycles command lists them
    once = compose_array(system, cycle_grid(system, cfg), p)
    twice = compose_array(system, once, p)
    ones = phase_cycles(system, 1, 0, (), cfg, once)
    twos = phase_cycles(system, 2, 0, [c.points[0] for c in ones], cfg, twice)
    extra = tuple(c.points[0] for c in ones if c.points != (1.0,))
    pairs = sorted(tuple(sorted(c.points)) for c in twos)

    has_violation = (
        left.status == "violation"
        or (right is not None and right.status == "violation")
        or bool(pairs)
        or bool(extra)
    )
    if has_violation:
        verdict = "fails"
    elif left.ok and (right is None or right.ok):
        verdict = "passes"
    else:
        verdict = "inconclusive"
    return OracleReport(
        verdict=verdict,
        left=left,
        right=right,
        two_cycles=tuple(pairs),
        extra_fixed_points=extra,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class CandidateRecord:
    envelope_label: str
    structural_passed: bool
    involution_residual: float
    unit_residual: float
    decreasing: bool
    verdicts: tuple[EnvelopeVerdict, ...]
    passed: bool
    delta_used: float
    failure: str | None  # "structural" | "violation" | "unresolved" | None


@dataclass(frozen=True)
class StabilityCertificate:
    status: str
    system_label: str
    period: int
    working_interval: tuple[float, float]
    multiplier: float | None
    multiplier_verdict: str | None
    envelope: str | None
    envelope_kind: str | None
    envelope_param: float | None
    map_axioms: tuple[AxiomReport, ...]
    composition_passed: bool
    composition_violations: tuple[AxiomViolation, ...]
    candidates: tuple[CandidateRecord, ...]
    fit_intervals: tuple[tuple[float, float], ...] | None
    oracle: OracleReport | None
    oracle_agrees: bool | None
    witnesses: tuple[str, ...]
    tolerances: dict
    notes: tuple[str, ...]

    @property
    def certified(self) -> bool:
        return self.status == "CertifiedGlobal"


def default_candidates(system: PeriodicSystem) -> tuple[Envelope, ...]:
    """Moebius envelopes suggested by the families present, one per alpha."""
    out: list[Envelope] = []

    def add(env: Envelope) -> None:
        if all(env.param != e.param for e in out):
            out.append(env)

    fams = [f.family for f in system.maps]
    if all(f == "beverton-holt" for f in fams):
        add(make_reciprocal())
        for f in system.maps:
            c = f.params["c"]
            if c > 2.0:
                add(make_piecewise_bh(c))
    if "quadratic" in fams:
        add(make_mobius(0.75))
    if "beverton-holt-harvest" in fams:
        add(make_mobius(8.0 / 11.0))
    add(make_mobius(0.5))
    add(make_reciprocal())
    return tuple(out)


def try_candidate(
    h: Envelope, system: PeriodicSystem, cfg: GridConfig
) -> CandidateRecord:
    """The structural gate (sampled only for a custom h: a Moebius h passes
    it by algebra), then h against every map on the tangency ladder."""
    struct = structural_check(h, cfg) if h.kind == "custom" else MOBIUS_STRUCTURE
    record = CandidateRecord(
        envelope_label=h.label,
        structural_passed=struct.passed,
        involution_residual=struct.involution_residual,
        unit_residual=struct.unit_residual,
        decreasing=struct.decreasing,
        verdicts=(),
        passed=False,
        delta_used=cfg.exclusion_radius,
        failure="structural",
    )
    if not struct.passed:
        return record

    def check(cfg_d: GridConfig):
        verdicts = tuple(envelops(h, f, cfg_d) for f in system.maps)
        return (
            verdicts,
            all(v.passed for v in verdicts),
            any(v.has_violation for v in verdicts),
            tuple(iv for v in verdicts for iv in v.unresolved_intervals),
        )

    verdicts, failure, delta = tangency_ladder(check, cfg)
    return replace(record, verdicts=verdicts, passed=failure is None,
                   delta_used=delta, failure=failure)


def axiom_gate(
    system: PeriodicSystem, cfg: GridConfig
) -> tuple[tuple[AxiomReport, ...], AxiomReport, str | None]:
    """Axiom reports of every map and of Phi_p, each on the tangency ladder,
    and the gate's failure: None, "violation" or "unresolved".

    Each rung recomputes the whole report.  The tail and C^1 checks do
    not depend on the radius, and a failure of theirs is definite, so it
    stops the ladder at the first rung.
    """

    def laddered(model: PopulationModel) -> AxiomReport:
        def check(cfg_d: GridConfig):
            rep = verify_population_axioms(model, cfg_d)
            return rep, rep.passed, rep.definite_violation, rep.unresolved

        return tangency_ladder(check, cfg)[0]

    gate = tuple(laddered(f) for f in (*system.maps, system.period_map))
    failure = (
        "violation" if any(r.definite_violation for r in gate)
        else None if all(r.passed for r in gate) else "unresolved"
    )
    return gate[:-1], gate[-1], failure


def certify_global_stability(
    system: PeriodicSystem,
    candidates: Sequence[Envelope] | None = None,
    cfg: GridConfig | None = None,
) -> StabilityCertificate:
    """Full certification of global asymptotic stability of x = 1."""
    if cfg is None:
        cfg = GridConfig()
    notes: list[str] = []
    W = system.working_interval

    map_reports, comp, axioms_failure = axiom_gate(system, cfg)
    gate = map_reports + (comp,)
    witnesses = [f"{r.label}: {v.detail}" for r in gate
                 for v in r.violations if v.kind == "violation"]

    multiplier = None
    multiplier_verdict = None
    try:
        loc = local_stability(system)
        multiplier = loc.multiplier
        multiplier_verdict = loc.verdict
    except ValueError as exc:
        notes.append(f"multiplier undefined: {exc}")

    axioms_delta = max(r.delta_used for r in gate)
    tolerances = {**plain(cfg), "exclusion_radius_effective": axioms_delta}

    def build(status, envelope=None, cand_records=(), fit=None, oracle=None, agrees=None):
        return StabilityCertificate(
            status=status,
            system_label=system.label,
            period=system.period,
            working_interval=(W.lo, W.hi),
            multiplier=multiplier,
            multiplier_verdict=multiplier_verdict,
            envelope=envelope.label if envelope else None,
            envelope_kind=envelope.kind if envelope else None,
            envelope_param=envelope.param if envelope else None,
            map_axioms=map_reports,
            composition_passed=comp.passed,
            composition_violations=comp.violations,
            candidates=tuple(cand_records),
            fit_intervals=fit,
            oracle=oracle,
            oracle_agrees=agrees,
            witnesses=tuple(witnesses),
            tolerances=tolerances,
            notes=tuple(notes),
        )

    if axioms_failure == "violation":
        notes.append("envelope search skipped: the maps or their composition "
                      "fail the population-model axioms outright")
        return build("NotPopulationModel")

    cand_list = tuple(candidates) if candidates is not None else default_candidates(system)
    records: list[CandidateRecord] = []
    chosen: Envelope | None = None
    chosen_rec: CandidateRecord | None = None
    for h in cand_list:
        rec = try_candidate(h, system, cfg)
        records.append(rec)
        if rec.passed:
            chosen = h
            chosen_rec = rec
            break

    fit_intervals = None
    if chosen is None:
        fit = fit_mobius(system.maps, cfg)
        fit_intervals = fit.feasible
        if fit.feasible:
            widest = max(fit.feasible, key=lambda ab: ab[1] - ab[0])
            h = make_mobius(0.5 * (widest[0] + widest[1]))
            notes.append(f"candidate list exhausted; fit suggested {h.label}")
            rec = try_candidate(h, system, cfg)
            records.append(rec)
            if rec.passed:
                chosen = h
                chosen_rec = rec

    if chosen is not None and chosen_rec is not None:
        tolerances["exclusion_radius_effective"] = max(
            axioms_delta, chosen_rec.delta_used
        )
        if axioms_failure:
            notes.append("axiom checks left undecided cells; envelope found "
                          "but certification withheld")
            status = "LocalOnly" if multiplier_verdict == "stable" else "Inconclusive"
            return build(status, cand_records=records, fit=fit_intervals)
        if multiplier_verdict not in ("stable", "neutral"):
            notes.append("envelope verified but the multiplier gate failed; "
                          "results disagree, reporting Inconclusive")
            return build("Inconclusive", cand_records=records, fit=fit_intervals)
        if multiplier_verdict == "neutral":
            notes.append("multiplier has modulus 1; enveloping still pins "
                          "every positive orbit to the fixed point")
        oracle = two_cycle_oracle(
            system, replace(cfg, exclusion_radius=tolerances["exclusion_radius_effective"])
        )
        agrees = True if oracle.verdict == "passes" else (
            None if oracle.verdict == "inconclusive" else False
        )
        if oracle.verdict == "fails":
            notes.append("independent sign oracle contradicts the envelope "
                          "proof; reporting Inconclusive")
            for a, b in oracle.two_cycles:
                witnesses.append(f"oracle two-cycle ({a:.9g}, {b:.9g})")
            return build("Inconclusive", cand_records=records, fit=fit_intervals,
                         oracle=oracle, agrees=False)
        if oracle.verdict == "inconclusive":
            notes.append("sign oracle left undecided cells; envelope proof stands")
        return build("CertifiedGlobal", envelope=chosen, cand_records=records,
                     fit=fit_intervals, oracle=oracle, agrees=agrees)

    all_definite = bool(records) and all(
        rec.failure in ("structural", "violation") for rec in records
    )
    if all_definite and fit.failure == "violation" and not axioms_failure:
        notes.append("every candidate fails with a concrete witness and the "
                      "Moebius fit is empty with a violation")
        return build("EnvelopeNotFound", cand_records=records, fit=fit_intervals)
    if multiplier_verdict == "stable":
        notes.append("local contraction holds at the fixed point but no "
                      "envelope could be verified")
        return build("LocalOnly", cand_records=records, fit=fit_intervals)
    return build("Inconclusive", cand_records=records, fit=fit_intervals)


# ---------------------------------------------------------------------------
# Closed-form parameter regions


@dataclass(frozen=True)
class ConditionRow:
    label: str
    family: str
    description: str
    satisfied: bool | None
    value: float | None


@dataclass(frozen=True)
class ConditionsReport:
    rows: tuple[ConditionRow, ...]
    multiplier: float | None
    product_ok: bool | None
    aggregate: bool | None


def closed_form_conditions(system: PeriodicSystem) -> ConditionsReport:
    """Analytic parameter regions where each family admits its standard
    envelope, plus the product multiplier condition."""
    fams = {f.family for f in system.maps}
    mixed_bh = "beverton-holt" in fams and len(fams) > 1
    rows: list[ConditionRow] = []
    for f in system.maps:
        p = f.params
        if f.family == "ricker":
            r = p["r"]
            rows.append(ConditionRow(f.label, f.family, "0 < r <= 2", r <= 2.0, r))
        elif f.family == "beverton-holt":
            c = p["c"]
            if mixed_bh:
                rows.append(ConditionRow(
                    f.label, f.family,
                    "0 < c <= 1 (shared envelope with other families)",
                    c <= 1.0, c,
                ))
            else:
                rows.append(ConditionRow(f.label, f.family, "0 < c <= 2", c <= 2.0, c))
        elif f.family == "quadratic":
            mu = p["mu"]
            rows.append(ConditionRow(f.label, f.family, "0 < mu <= 2", mu <= 2.0, mu))
        elif f.family == "exponential-rational":
            a, b = p["a"], p["b"]
            val = a * (b - 2.0) * math.exp(b)
            # the growth-rate inequality alone is not sufficient once
            # b > 2 (seen numerically near b = 2.2), so the region keeps
            # the family's own exponent bound as well
            rows.append(ConditionRow(
                f.label, f.family, "a (b - 2) e^b <= 2 and 0 < b <= 2",
                val <= 2.0 and b <= 2.0, val,
            ))
        elif f.family == "beverton-holt-harvest":
            r, c = p["r"], p["c"]
            bound = (1.0 + r) / r
            rows.append(ConditionRow(
                f.label, f.family, "0 < c < (1 + r)/r", 0.0 < c < bound, c,
            ))
        else:
            rows.append(ConditionRow(
                f.label, f.family, "no closed form available", None, None,
            ))

    multiplier = None
    product_ok = None
    try:
        loc = local_stability(system)
        multiplier = loc.multiplier
        product_ok = loc.verdict != "unstable"
    except ValueError:
        pass

    flags = [r.satisfied for r in rows]
    if any(s is None for s in flags) or product_ok is None:
        aggregate = None
    else:
        aggregate = all(flags) and product_ok
    return ConditionsReport(
        rows=tuple(rows),
        multiplier=multiplier,
        product_ok=product_ok,
        aggregate=aggregate,
    )
