"""Certification pipeline: local multiplier, Schwarzian screen, sign
oracle, and the end-to-end verdicts."""

from dataclasses import replace

import numpy as np
import pytest

from envcert import certify as certify_mod
from envcert.numerics import GridConfig
from envcert import (
    axiom_gate,
    certify_global_stability,
    closed_form_conditions,
    local_stability,
    make_custom_envelope,
    make_mobius,
    make_model,
    make_piecewise_bh,
    make_system,
    schwarzian_test,
    two_cycle_oracle,
)

# flip pair of the doubled Ricker map at r = 2.3, 30-digit root polish
FLIP_LO = 0.40784502975888715
FLIP_HI = 1.5921549702411129


def ricker(r):
    return make_model("ricker", {"r": r})


def bh(mu, c):
    return make_model("beverton-holt", {"mu": mu, "c": c})


def seasonal_triple():
    return make_system([ricker(1.8), ricker(1.2), ricker(0.5)])


def test_local_stability_bands():
    assert local_stability(make_system([ricker(1.5)])).verdict == "stable"
    neutral = local_stability(make_system([ricker(2.0)]))
    assert neutral.verdict == "neutral"
    assert neutral.multiplier == pytest.approx(-1.0, abs=1e-12)
    hot = local_stability(make_system([ricker(2.5)]))
    assert hot.verdict == "unstable"
    assert hot.multiplier == pytest.approx(-1.5, abs=1e-12)


def test_schwarzian_closed_form_value():
    # x(3 - 2x) has S f = -24/(3 - 4x)^2, so exactly -24 where f' = 1
    q = make_model("quadratic", {"mu": 2.0})
    xs = np.array([0.5, 0.25, 1.0])
    np.testing.assert_allclose(certify_mod._schwarzian_array(q, xs),
                               -24.0 / (3 - 4 * xs) ** 2, rtol=1e-12)


def test_schwarzian_requires_smoothness():
    pw = make_model("piecewise-linear-recip", {"slope": 4.0, "brk": 0.6})
    with pytest.raises(ValueError, match="not C\\^3"):
        schwarzian_test(pw)


def test_schwarzian_test_accepts_gentle_ricker():
    rep = schwarzian_test(ricker(1.8))
    assert rep.passed
    assert rep.reason is None
    assert rep.slope_at_one == pytest.approx(-0.8, abs=1e-12)
    assert len(rep.critical_points) == 1
    assert rep.critical_points[0] == pytest.approx(1 / 1.8, abs=1e-6)
    assert rep.max_value < 0


def test_schwarzian_test_flags_steep_slope():
    rep = schwarzian_test(ricker(2.5))
    assert not rep.passed
    assert "exceeds 1" in rep.reason
    # the sign condition itself still holds for this family
    assert rep.max_value < 0


def test_oracle_passes_contracting_map():
    rep = two_cycle_oracle(make_system([ricker(1.8)]))
    assert rep.verdict == "passes"
    assert rep.two_cycles == ()
    assert rep.extra_fixed_points == ()


def test_oracle_finds_flip_pair():
    rep = two_cycle_oracle(make_system([ricker(2.3)]))
    assert rep.verdict == "fails"
    assert len(rep.two_cycles) == 1
    lo, hi = rep.two_cycles[0]
    assert lo == pytest.approx(FLIP_LO, abs=1e-9)
    assert hi == pytest.approx(FLIP_HI, abs=1e-9)


def test_certify_seasonal_triple():
    cert = certify_global_stability(seasonal_triple())
    assert cert.status == "CertifiedGlobal"
    assert cert.certified
    assert cert.envelope == "mobius(alpha=0.5)"
    assert cert.envelope_kind == "mobius"
    assert cert.envelope_param == pytest.approx(0.5)
    assert cert.period == 3
    assert cert.multiplier == pytest.approx(0.08, abs=1e-9)
    assert cert.multiplier_verdict == "stable"
    assert cert.composition_passed
    assert cert.oracle is not None and cert.oracle.verdict == "passes"
    assert cert.oracle_agrees is True
    assert cert.witnesses == ()


def test_certify_neutral_tangency_uses_wider_margin():
    # at r = 2 the envelope gap decays like |x - 1|^3, so the default
    # exclusion radius cannot resolve it and the retry ladder must kick in
    cert = certify_global_stability(make_system([ricker(2.0)]))
    assert cert.status == "CertifiedGlobal"
    assert cert.multiplier == pytest.approx(-1.0, abs=1e-12)
    assert cert.multiplier_verdict == "neutral"
    winner = next(rec for rec in cert.candidates if rec.passed)
    assert winner.envelope_label == "mobius(alpha=0.5)"
    assert winner.delta_used in (1e-3, 1e-2)
    assert any("modulus 1" in n for n in cert.notes)


def test_certify_unstable_quadratic():
    cert = certify_global_stability(make_system([make_model("quadratic", {"mu": 3.0})]))
    assert cert.status == "EnvelopeNotFound"
    assert cert.envelope is None
    assert cert.multiplier_verdict == "unstable"
    assert cert.fit_intervals == ()
    assert cert.candidates
    for rec in cert.candidates:
        assert rec.structural_passed
        assert rec.failure == "violation"


def test_certify_steep_ricker_fails_honestly():
    cert = certify_global_stability(make_system([ricker(2.5)]))
    assert cert.status == "EnvelopeNotFound"
    assert cert.multiplier_verdict == "unstable"
    assert cert.fit_intervals == ()


def test_certify_non_smooth_map_rejected_upfront():
    pw = make_model("piecewise-linear-recip", {"slope": 4.0, "brk": 0.6})
    cert = certify_global_stability(make_system([pw]))
    assert cert.status == "NotPopulationModel"
    assert cert.envelope is None
    assert cert.candidates == ()
    assert any("not C^1" in w for w in cert.witnesses)
    assert any("axioms outright" in n for n in cert.notes)


def test_nan_multiplier_does_not_certify():
    # 0 * Abs(x - 1)**0.5 has the derivative 0 * inf = nan at 1
    f = make_model("custom", pieces=[(0.0, "x*exp(1.5*(1 - x)) + 0*Abs(x - 1)**0.5")])
    system = make_system([f])
    assert local_stability(system).verdict == "unstable"
    cert = certify_global_stability(system)
    assert cert.status == "Inconclusive"
    assert any("multiplier gate failed" in n for n in cert.notes)
    assert closed_form_conditions(system).product_ok is False


@pytest.mark.parametrize("model", [
    make_model("custom", pieces=[(0.0, "x*exp((1 - x)**3)")], x_max=3.0),
    make_model("ricker", {"r": 2.0}),
    make_model("piecewise-linear-recip", {"slope": 3.0, "brk": 0.5}),
], ids=["cubic", "ricker2", "piecewise"])
def test_period_one_map_and_period_map_agree(model):
    system = make_system([model])
    assert system.working_interval.hi == model.domain.hi
    (m,), phi, failure = axiom_gate(system, GridConfig())
    # Phi of one map is that map, checked without the large-x tail: its
    # domain ends at the working interval's end
    rest = tuple(v for v in m.violations if v.axiom != "below_diagonal_tail")
    assert phi == replace(m, label="composition", tail_ok=None, violations=rest,
                          passed=not rest,
                          definite_violation=any(v.kind == "violation" for v in rest))
    assert failure == (None if m.passed else "violation")


def test_oracle_runs_at_the_certificate_radius():
    # the envelope passes at 1e-4, but the axiom gate needs 1e-2 here;
    # at 1e-4 the oracle's cells hugging 1 stay undecided
    system = make_system([make_model("custom", pieces=[(0.0, "x*exp((1 - x)**3)")], x_max=3.0)])
    cert = certify_global_stability(system)
    assert cert.status == "CertifiedGlobal"
    assert cert.tolerances["exclusion_radius_effective"] == 1e-2
    assert cert.oracle.delta == 1e-2
    assert cert.oracle.verdict == "passes"
    assert cert.oracle_agrees is True


def test_certify_explicit_candidate_list():
    bad = make_custom_envelope("x*exp(2*(1 - x))")
    cert = certify_global_stability(
        seasonal_triple(), candidates=[bad, make_mobius(0.5)]
    )
    assert cert.status == "CertifiedGlobal"
    assert len(cert.candidates) == 2
    first, second = cert.candidates
    assert not first.structural_passed
    assert first.failure == "structural"
    assert first.verdicts == ()
    assert second.passed


def test_certify_mixed_families():
    cert = certify_global_stability(make_system([ricker(1.5), bh(3.0, 0.8)]))
    assert cert.status == "CertifiedGlobal"
    assert cert.envelope == "mobius(alpha=0.5)"
    assert cert.multiplier == pytest.approx(-7.0 / 30.0, rel=1e-12)


def test_certify_bh_pair_prefers_reciprocal():
    cert = certify_global_stability(make_system([bh(5.0, 1.5), bh(3.0, 0.8)]))
    assert cert.status == "CertifiedGlobal"
    assert (cert.envelope, cert.envelope_param) == ("reciprocal(1/x)", 0.0)


def test_default_candidates_dedupe_by_alpha():
    # c = 7.5 and 7.500001 share a label but not an alpha; c = 3 gives
    # alpha = 0.5, so mobius(0.5) would repeat it
    system = make_system([bh(1.1, 7.5), bh(1.2, 7.500001), bh(2.0, 3.0)])
    cands = certify_mod.default_candidates(system)
    assert [h.label for h in cands] == [
        "reciprocal(1/x)", "piecewise-bh(c=7.5)", "piecewise-bh(c=7.5)", "piecewise-bh(c=3)",
    ]
    assert [h.param for h in cands] == [0.0, 5.5 / 6.5, 5.500001 / 6.500001, 0.5]


def test_only_custom_candidates_are_sampled_for_structure(monkeypatch):
    calls = []
    real = certify_mod.structural_check
    monkeypatch.setattr(certify_mod, "structural_check",
                        lambda h, cfg: calls.append(h.label) or real(h, cfg))
    system = seasonal_triple()
    for h in (make_mobius(0.5), make_mobius(0.0), make_piecewise_bh(3.0)):
        rec = certify_mod.try_candidate(h, system, GridConfig())
        assert (rec.involution_residual, rec.unit_residual) == (0.0, 0.0)
        assert rec.structural_passed and rec.decreasing
    assert calls == []
    custom = make_custom_envelope("x*exp(2*(1 - x))")
    assert certify_mod.try_candidate(custom, system, GridConfig()).failure == "structural"
    assert calls == [custom.label]


def test_certify_harvest_map():
    f = make_model("beverton-holt-harvest", {"r": 3.0, "c": 0.3})
    cert = certify_global_stability(make_system([f]))
    assert cert.status == "CertifiedGlobal"
    assert cert.envelope_kind == "mobius"
    assert cert.envelope_param == pytest.approx(8.0 / 11.0, abs=1e-12)
    assert cert.multiplier == pytest.approx(1.0 / 3.0 - 0.3, abs=1e-12)


def test_conditions_pure_families():
    rep = closed_form_conditions(make_system([ricker(1.8), ricker(0.5), ricker(1.2)]))
    assert all(r.description == "0 < r <= 2" for r in rep.rows)
    assert all(r.satisfied for r in rep.rows)
    assert rep.product_ok
    assert rep.aggregate is True

    rep = closed_form_conditions(make_system([make_model("quadratic", {"mu": 3.0})]))
    assert rep.rows[0].satisfied is False
    assert rep.aggregate is False


def test_conditions_exponential_rational_boundary():
    f = make_model("exponential-rational", {"a": 1.0, "b": 2.0})
    rep = closed_form_conditions(make_system([f]))
    row = rep.rows[0]
    assert row.value == pytest.approx(0.0, abs=1e-12)
    assert row.satisfied is True
    assert "e^b" in row.description


def test_conditions_mixed_bh_gets_stricter_exponent():
    rep = closed_form_conditions(make_system([ricker(1.5), bh(3.0, 0.8)]))
    bh_row = next(r for r in rep.rows if r.family == "beverton-holt")
    assert "shared envelope" in bh_row.description
    assert bh_row.satisfied is True
    assert rep.aggregate is True


def test_conditions_without_closed_form_stay_unknown():
    pw = make_model("piecewise-linear-recip", {"slope": 4.0, "brk": 0.6})
    rep = closed_form_conditions(make_system([pw]))
    assert rep.rows[0].satisfied is None
    assert rep.aggregate is None


def test_certificate_is_deterministic():
    a = certify_global_stability(seasonal_triple())
    b = certify_global_stability(seasonal_triple())
    assert a == b


def test_envelope_not_found_needs_a_definite_fit():
    # no Moebius envelope exists for this map: every probe of the fit
    # fails with a violation
    system = make_system([make_model("exponential-rational", {"a": 0.35, "b": 2.5})])
    cert = certify_global_stability(system)
    assert cert.status == "EnvelopeNotFound"
    assert ("every candidate fails with a concrete witness and the Moebius "
            "fit is empty with a violation") in cert.notes


def test_an_undecided_empty_fit_is_not_a_negative(monkeypatch):
    system = make_system([make_model("exponential-rational", {"a": 0.35, "b": 2.5})])
    real = certify_mod.fit_mobius
    monkeypatch.setattr(certify_mod, "fit_mobius",
                        lambda *a, **k: replace(real(*a, **k), failure="unresolved"))
    cert = certify_global_stability(system)
    assert cert.fit_intervals == ()
    assert cert.status == "Inconclusive"  # multiplier about -1.025


def test_fit_rescue_is_noted():
    system = make_system([make_model("exponential-rational", {"a": 0.32, "b": 2.48})])
    cert = certify_global_stability(system)
    assert cert.status == "CertifiedGlobal"
    assert f"candidate list exhausted; fit suggested {cert.envelope}" in cert.notes
