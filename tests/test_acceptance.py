"""End-to-end acceptance scenarios for the certification pipeline.

Each test is one self-contained scenario with its own pass/fail line in
the terminal summary (see conftest).  Tolerances are stated inline next
to each assertion.
"""

import math
import time

import numpy as np
import pytest

from envcert import (
    certify_global_stability,
    compose_array,
    envelops,
    find_geometric_cycles,
    fit_mobius,
    iterate_orbit,
    make_custom_envelope,
    make_mobius,
    make_model,
    make_system,
    structural_check,
    verify_population_axioms,
)
from envcert.certify import _schwarzian_array
from envcert.numerics import GridConfig, scan_roots
from references import fd_derivative, schwarzian


def ricker(r):
    return make_model("ricker", {"r": r})


def bh(mu, c):
    return make_model("beverton-holt", {"mu": mu, "c": c})


def scalar_map(system):
    return lambda t: float(compose_array(system, np.asarray([float(t)]))[0])


def test_criterion_1():
    """Seasonal three-map system: certificate, multiplier, and orbit decay."""
    t0 = time.perf_counter()
    system = make_system([ricker(1.8), ricker(1.2), ricker(0.5)])

    cert = certify_global_stability(system)
    assert cert.status == "CertifiedGlobal"
    assert cert.envelope == "mobius(alpha=0.5)"

    # chain-rule multiplier (1-1.8)(1-1.2)(1-0.5) = 0.08
    assert cert.multiplier == pytest.approx(0.08, abs=1e-9)
    fd_mult = fd_derivative(scalar_map(system), 1.0, order=1)
    assert fd_mult == pytest.approx(0.08, abs=1e-6)

    orbit = iterate_orbit(system, 0.1, 500)
    per_period = orbit[::3]
    hits = np.nonzero(np.abs(per_period - 1.0) < 1e-8)[0]
    assert hits.size > 0 and hits[0] <= 500

    assert time.perf_counter() - t0 < 5.0


def test_criterion_2():
    """A steeper map fails the structural gate; an affine envelope still works.

    The two-map system is enveloped by 2 - x even though the composition
    crosses the steeper comparison map inside (0, 1), so that crossing is
    located and shown to be unique.
    """
    system = make_system([ricker(1.5), ricker(1.2)])

    # the comparison map is not its own inverse, so it can never serve
    # as an envelope no matter how it sits relative to the maps
    comparison = make_custom_envelope("x*exp(2*(1 - x))")
    struct = structural_check(comparison)
    assert not struct.passed
    assert not struct.involution_passed

    steeper = make_model("ricker", {"r": 2.0})
    gap = lambda t: compose_array(system, t) - steeper.eval_array(t)
    crossings = scan_roots(gap, (1e-9, 1.0 - 1e-9), 8192)
    assert crossings.size == 1
    a = float(crossings[0])
    assert a == pytest.approx(0.2013900764195476, abs=1e-9)
    # crossing pinned inside a window of width 1e-6
    lo, hi = a - 5e-7, a + 5e-7
    assert float(gap(np.asarray([lo]))[0]) * float(gap(np.asarray([hi]))[0]) < 0

    h = make_mobius(0.5)
    assert all(envelops(h, f).passed for f in system.maps)

    cert = certify_global_stability(system)
    assert cert.status == "CertifiedGlobal"
    assert cert.envelope == h.label


def test_criterion_3():
    """Composition with extra fixed points is refused with a witness, and unfittable."""
    t0 = time.perf_counter()
    system = make_system([bh(1.1, 7.5), bh(7.0, 2.3)])

    w_hi = system.working_interval.hi
    cells = int(round(w_hi / 1e-4))  # scan resolution 1e-4
    cycles = find_geometric_cycles(system, 1, GridConfig(seed_cells=cells))
    fps = [c.points[0] for c in cycles if c.start_phase == 0]
    positive = [float(x) for x in fps if x > 1e-12]
    assert len(positive) == 3
    assert positive[0] == pytest.approx(1.0, abs=1e-12)
    assert positive[1] == pytest.approx(1.4365330719819296, abs=1e-9)
    assert positive[2] == pytest.approx(1.6150111940487619, abs=1e-9)

    cert = certify_global_stability(system)
    assert cert.status == "NotPopulationModel"
    # the certificate's witness: the composition rises above the diagonal
    # past 1, between the two extra fixed points
    assert any(
        v.axiom == "below_diagonal_past_1" and v.kind == "violation"
        and positive[1] < v.x < positive[2]
        for v in cert.composition_violations
    )

    fit = fit_mobius(system.maps, alpha_cells=1000)
    assert fit.alpha_step == pytest.approx(1e-3)
    assert fit.feasible == ()

    assert time.perf_counter() - t0 < 30.0


def test_criterion_4():
    """Piecewise pair: smoothness and composition failures carry witnesses."""
    maps = [
        make_model("piecewise-linear-recip", {"slope": 4.0, "brk": 0.6}),
        make_model("piecewise-linear-recip", {"slope": 3.0, "brk": 0.5}),
    ]
    assert all(not f.is_c1 for f in maps)

    system = make_system(maps)
    violations = verify_population_axioms(system.period_map, GridConfig()).violations
    above = [
        v
        for v in violations
        if v.kind == "violation" and v.axiom.startswith("above_diagonal")
    ]
    assert above
    w = above[0]
    assert w.x is not None
    # the extra crossing sits just past 0.5, where slope*brk carries the
    # first map above the second map's reciprocal branch
    assert 0.5 < w.x < 0.51
    assert float(compose_array(system, np.asarray([w.x]))[0]) < w.x

    cert = certify_global_stability(system)
    assert cert.status == "NotPopulationModel"
    # one per map, and one for the period map, which has kinks where an
    # orbit meets a map's breakpoint
    assert sum("not C^1" in s for s in cert.witnesses) == 3
    assert any(s.startswith("composition:") for s in cert.witnesses)


def test_criterion_5():
    """Random parameter sweep: every draw certifies and the sign oracle agrees."""
    rng = np.random.default_rng(20260816)
    failures = []

    def run(models, tag):
        system = make_system(models)
        cert = certify_global_stability(system)
        oracle = None if cert.oracle is None else cert.oracle.verdict
        if cert.status != "CertifiedGlobal" or cert.oracle_agrees is not True:
            failures.append((tag, system.label, cert.status, oracle))

    for k in range(50):
        p = int(rng.integers(1, 4))
        rs = 2.0 - rng.uniform(0.0, 2.0, size=p)
        run([ricker(float(r)) for r in rs], f"ricker[{k}]")

    for k in range(50):
        p = int(rng.integers(1, 4))
        mus = 10.0 - rng.uniform(0.0, 9.0, size=p)
        cs = 2.0 - rng.uniform(0.0, 2.0, size=p)
        run([bh(float(m), float(c)) for m, c in zip(mus, cs)], f"bh[{k}]")

    for k in range(20):
        r = 2.0 - float(rng.uniform(0.0, 2.0))
        mu = 10.0 - float(rng.uniform(0.0, 9.0))
        c = 1.0 - float(rng.uniform(0.0, 1.0))
        run([ricker(r), bh(mu, c)], f"mix[{k}]")

    assert not failures, failures


def test_criterion_6():
    """Closed-form parameter regions certify with their family envelopes."""
    rng = np.random.default_rng(61803)

    for _ in range(10):
        a = 3.0 - float(rng.uniform(0.0, 3.0))
        b = 2.0 - float(rng.uniform(0.0, 2.0))
        assert a * (b - 2.0) * math.exp(b) <= 2.0
        f = make_model("exponential-rational", {"a": a, "b": b})
        cert = certify_global_stability(make_system([f]))
        assert cert.status == "CertifiedGlobal", (a, b, cert.status)
        assert cert.envelope == "mobius(alpha=0.5)"

    for _ in range(10):
        mu = 2.0 - float(rng.uniform(0.0, 2.0))
        cert = certify_global_stability(
            make_system([make_model("quadratic", {"mu": mu})])
        )
        assert cert.status == "CertifiedGlobal", (mu, cert.status)
        assert cert.envelope_param == pytest.approx(0.75, abs=1e-12)

    for _ in range(10):
        r = 5.0 - float(rng.uniform(0.0, 4.0))
        c = float(rng.uniform(0.0, 1.0))
        assert 0.0 < c < (1.0 + r) / r
        f = make_model("beverton-holt-harvest", {"r": r, "c": c})
        cert = certify_global_stability(make_system([f]))
        assert cert.status == "CertifiedGlobal", (r, c, cert.status)
        assert cert.envelope_param == pytest.approx(8.0 / 11.0, abs=1e-12)

    for h in (make_mobius(0.5), make_mobius(0.75), make_mobius(8.0 / 11.0)):
        rep = structural_check(h)
        assert rep.involution_passed and rep.involution_residual <= 1e-9
        assert rep.decreasing


def test_criterion_7():
    """Numerical kernels against independent oracles.

    Closed-form derivatives vs central differences, the smooth-map
    curvature ratio vs a pure finite-difference build, rational envelope
    identities, and root recovery for random well-separated quartics.
    """
    rng = np.random.default_rng(424242)

    smooth = [
        ricker(1.7),
        bh(5.0, 1.5),
        make_model("quadratic", {"mu": 1.6}),
        make_model("exponential-rational", {"a": 1.0, "b": 2.0}),
        make_model("beverton-holt-harvest", {"r": 3.0, "c": 0.3}),
    ]
    for f in smooth:
        hi = min(f.domain.hi, 3.0)
        xs = rng.uniform(0.4, hi - 0.05, size=100)
        g = lambda t: float(f.eval_array(np.asarray([float(t)]))[0])
        for x in xs:
            for order in (1, 2, 3):
                an = f.deriv(float(x), order)
                fd = fd_derivative(g, float(x), order)
                # relative error with a unit floor so sign changes of the
                # derivative do not divide by zero
                assert abs(fd - an) <= 1e-6 * max(1.0, abs(an)), (f.label, x, order)

    tested = 0
    for f, want in ((ricker(1.8), 30), (make_model("quadratic", {"mu": 1.4}), 20)):
        hi = min(f.domain.hi, 2.5)
        pool = rng.uniform(0.3, hi - 0.05, size=400)
        pts = [float(x) for x in pool if abs(f.deriv(float(x), 1)) >= 0.1][:want]
        assert len(pts) == want
        g = lambda t: float(f.eval_array(np.asarray([float(t)]))[0])
        on_grid = _schwarzian_array(f, np.asarray(pts))
        for x, an in zip(pts, on_grid.tolist()):
            assert an == pytest.approx(schwarzian(f, x), rel=1e-12)
            d1 = fd_derivative(g, x, 1)
            d2 = fd_derivative(g, x, 2)
            d3 = fd_derivative(g, x, 3)
            fd = d3 / d1 - 1.5 * (d2 / d1) ** 2
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an)), (f.label, x)
            tested += 1
    assert tested == 50

    xs = np.linspace(0.0, 2.0, 4001)
    assert np.max(np.abs(make_mobius(0.5).eval_array(xs) - (2.0 - xs))) <= 1e-12
    xs_pos = np.linspace(0.05, 20.0, 4001)
    assert np.max(np.abs(make_mobius(0.0).eval_array(xs_pos) - 1.0 / xs_pos)) <= 1e-12

    min_sep = 10.0 / 4096.0
    for _ in range(20):
        while True:
            roots = np.sort(rng.uniform(-5.0, 5.0, size=4))
            if np.diff(roots).min() > 1.05 * min_sep:
                break
        coeffs = np.poly(roots)
        found = scan_roots(lambda t: np.polyval(coeffs, t), (-5.0, 5.0), 4096)
        assert found.size == 4, roots
        assert np.max(np.abs(found - roots)) <= 1e-6
