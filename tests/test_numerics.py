"""Grid sign checks, bracketing, root scans, and the finite differences
the tests take derivatives with."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from envcert import make_model, make_system, numerics
from envcert.numerics import (
    GridConfig,
    _merge_cells,
    adaptive_sign_check,
    bracketed_root,
    scan_roots,
    tangency_ladder,
)
from envcert.periodic import compose_array
from references import fd_derivative, scan_roots_refiltered, sign_check_cells_by_five


def test_grid_config_rejects_bad_values():
    with pytest.raises(ValueError):
        GridConfig(seed_cells=0)
    assert GridConfig(seed_cells=2**20).seed_cells == 2**20
    for big in (2**20 + 1, 10**12):
        with pytest.raises(ValueError, match=r"seed_cells must be at most 1048576"):
            GridConfig(seed_cells=big)
    with pytest.raises(ValueError):
        GridConfig(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        GridConfig(max_refinement_depth=-1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            GridConfig(abs_tol=bad)
    assert GridConfig(abs_tol=0.0).abs_tol == 0.0


def _stub_check(*outcomes):
    """A ladder check that returns the given (failure, unresolved) per rung
    and records the exclusion radius of each call."""
    radii = []

    def check(cfg):
        radii.append(cfg.exclusion_radius)
        failure, unresolved = outcomes[len(radii) - 1]
        return f"rung {len(radii) - 1}", failure is None, failure == "violation", unresolved

    return check, radii


def test_ladder_retries_a_tangency_at_one():
    check, radii = _stub_check(("unresolved", ((0.9995, 0.9999),)), (None, ()))
    assert tangency_ladder(check, GridConfig()) == ("rung 1", None, 1e-3)
    assert radii == [1e-4, 1e-3]


def test_ladder_stops_at_undecided_cells_away_from_fixed_points():
    check, radii = _stub_check(("unresolved", ((0.0001, 0.0002), (0.49, 0.51))))
    assert tangency_ladder(check, GridConfig()) == ("rung 0", "unresolved", 1e-4)
    assert radii == [1e-4]


def test_ladder_stops_at_a_violation():
    check, radii = _stub_check(("violation", ()))
    assert tangency_ladder(check, GridConfig()) == ("rung 0", "violation", 1e-4)
    assert radii == [1e-4]


def test_ladder_ends_unresolved_on_its_last_rung():
    near_one = ("unresolved", ((0.97, 1.02),))
    check, radii = _stub_check(near_one, near_one, near_one)
    assert tangency_ladder(check, GridConfig()) == ("rung 2", "unresolved", 1e-2)
    assert radii == [1e-4, 1e-3, 1e-2]
    # a radius past the ladder's rungs leaves a single rung
    check, radii = _stub_check(near_one)
    assert tangency_ladder(check, GridConfig(exclusion_radius=0.02))[1:] == ("unresolved", 0.02)


def test_sign_check_accepts_strictly_positive():
    rep = adaptive_sign_check(lambda x: x * x + 0.5, (-2.0, 3.0), "positive")
    assert rep.ok
    assert rep.status == "all_positive"
    assert rep.witness is None
    assert rep.cells_checked >= 4096


def test_sign_check_identity_violates_positivity():
    # g(x) = x is negative left of zero, leftmost witness wins
    rep = adaptive_sign_check(lambda x: x, (-1.0, 1.0), "positive")
    assert rep.status == "violation"
    assert rep.witness < 0.0
    assert rep.witness_value < 0.0


def test_sign_check_negative_claim():
    rep = adaptive_sign_check(lambda x: -np.exp(x), (0.0, 2.0), "negative")
    assert rep.ok
    rep = adaptive_sign_check(lambda x: np.cos(x), (0.0, 3.0), "negative")
    assert rep.status == "violation"


def test_sign_check_tangency_stays_unresolved():
    # (x-1)^2 touches zero, so no strict sign can be confirmed near 1
    rep = adaptive_sign_check(lambda x: (x - 1.0) ** 2, (0.5, 1.5), "positive")
    assert rep.status == "unresolved"
    assert rep.unresolved
    lo, hi = rep.unresolved[0]
    assert lo < 1.0 < hi
    assert hi - lo < 1e-2


def test_sign_check_infinite_samples_are_vacuous():
    def g(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x < 0.5, np.inf, 1.0)

    rep = adaptive_sign_check(g, (0.0, 1.0), "positive")
    assert rep.ok


def test_sign_check_nan_never_passes():
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, np.nan, 1.0)

    rep = adaptive_sign_check(g, (0.0, 1.0), "positive")
    assert rep.status == "unresolved"


@pytest.mark.parametrize("g, claim", [
    (lambda x: np.sin(40.0 * x) + 0.5, "positive"),  # dips below 0 in every block
    (lambda x: 0.9 - x, "positive"),  # fails only in the last block
    (lambda x: (x - 0.9) ** 2 + 1e-3 * x, "positive"),  # min_abs in the last block
    (lambda x: (x - 0.8192) ** 2, "positive"),  # a tangency at a block boundary
    (lambda x: -1.0 - x, "negative"),
], ids=["dips", "late-violation", "late-minimum", "tangency", "negative"])
def test_sign_check_blocks_match_one_block(monkeypatch, g, claim):
    # 5000 seed cells span two blocks of samples, split at x = 4096/5000
    cfg = GridConfig(seed_cells=5000)
    blocked = adaptive_sign_check(g, (0.0, 1.0), claim, cfg)
    monkeypatch.setattr(numerics, "_BLOCK_CELLS", 10**9)
    assert adaptive_sign_check(g, (0.0, 1.0), claim, cfg) == blocked


def _sign_problem(bend, tilt, shift, centre, nan_band, inf_band, claim):
    """g = s (bend (x - c)^2 + tilt (x - c) + shift) on [0, 1], with s the
    claim's sign, NaN on nan_band and +-inf on inf_band (each a
    (lo, hi, sign) or None).  tilt = shift = 0 is a tangency at c."""
    s = 1.0 if claim == "positive" else -1.0

    def g(x):
        x = np.asarray(x, dtype=float)
        y = s * (bend * (x - centre) ** 2 + tilt * (x - centre) + shift)
        if nan_band is not None:
            y = np.where((nan_band[0] <= x) & (x <= nan_band[1]), np.nan, y)
        if inf_band is not None:
            y = np.where((inf_band[0] <= x) & (x <= inf_band[1]), inf_band[2] * np.inf, y)
        return y

    return g


_UNIT = st.floats(0.0, 1.0)
_BAND = st.one_of(st.none(), st.tuples(_UNIT, st.floats(0.0, 0.2), st.sampled_from([1.0, -1.0]))
                  .map(lambda t: (t[0], t[0] + t[1], t[2])))


@settings(deadline=None, max_examples=60)
@given(bend=st.sampled_from([0.0, 1.0, 50.0]), tilt=st.sampled_from([0.0, 0.3, -2.0]),
       shift=st.one_of(st.sampled_from([0.0, 1e-10, -1e-6]), st.floats(-0.5, 0.5)),
       centre=_UNIT, nan_band=_BAND, inf_band=_BAND,
       claim=st.sampled_from(["positive", "negative"]),
       seed_cells=st.sampled_from([1, 7, 300, 2048, 2049, 4096, 4097, 5000]), depth=st.integers(0, 12),
       abs_tol=st.sampled_from([1e-9, 0.0]))
@example(bend=0.0, tilt=-1.0, shift=0.9, centre=0.0, nan_band=None, inf_band=None,
         claim="positive", seed_cells=5000, depth=12, abs_tol=1e-9)  # a violation in the last block only
@example(bend=1.0, tilt=0.0, shift=0.0, centre=0.7, nan_band=None, inf_band=None,
         claim="negative", seed_cells=4096, depth=12, abs_tol=1e-9)  # refined down to an unresolved tangency
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=(0.2, 0.3, 1.0),
         inf_band=(0.6, 0.8, -1.0), claim="positive", seed_cells=2049, depth=3,
         abs_tol=1e-9)  # NaN and -inf
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=None,
         inf_band=(0.0, 1.0, 1.0), claim="positive", seed_cells=7, depth=2,
         abs_tol=1e-9)  # +inf everywhere
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=(0.0, 1.0, 1.0),
         inf_band=None, claim="negative", seed_cells=7, depth=2, abs_tol=1e-9)  # NaN everywhere
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=None,
         inf_band=(0.2, 0.4, 1.0), claim="positive", seed_cells=4096, depth=3,
         abs_tol=1e-9)  # an all-clear block with +inf samples
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=(0.5, 0.5, 1.0),
         inf_band=None, claim="positive", seed_cells=4096, depth=3,
         abs_tol=1e-9)  # one NaN sample, at x = 0.5, in an otherwise clear block
@example(bend=1.0, tilt=0.0, shift=0.0, centre=0.5, nan_band=None, inf_band=None,
         claim="positive", seed_cells=4096, depth=2, abs_tol=0.0)  # a 0.0 sample, abs_tol 0
@example(bend=1.0, tilt=0.0, shift=0.0, centre=0.5, nan_band=None, inf_band=None,
         claim="negative", seed_cells=4096, depth=2, abs_tol=0.0)  # a -0.0 sample, abs_tol 0
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=None, inf_band=None,
         claim="negative", seed_cells=4096, depth=0, abs_tol=1e-9)  # an all-clear negative claim
@example(bend=1.0, tilt=0.0, shift=0.0, centre=0.3, nan_band=None, inf_band=None,
         claim="positive", seed_cells=4096, depth=4, abs_tol=1e-9)  # one block, refined
@example(bend=1.0, tilt=0.0, shift=0.0, centre=0.3, nan_band=None, inf_band=None,
         claim="positive", seed_cells=4097, depth=4, abs_tol=1e-9)  # one block and one cell
def test_sign_check_matches_the_cells_by_five_layout(
    bend, tilt, shift, centre, nan_band, inf_band, claim, seed_cells, depth, abs_tol
):
    g = _sign_problem(bend, tilt, shift, centre, nan_band, inf_band, claim)
    cfg = GridConfig(seed_cells=seed_cells, max_refinement_depth=depth, abs_tol=abs_tol)
    got = adaptive_sign_check(g, (0.0, 1.0), claim, cfg)
    assert got == sign_check_cells_by_five(g, (0.0, 1.0), claim, cfg)
    assert type(got.min_abs_value) is float


def test_sign_check_examples_reach_their_samples():
    # the boundary examples above need these exact samples on the grid
    # of 4096 cells: x = 0.5 is a cell end, where g is NaN, 0.0 or -0.0
    edges = np.linspace(0.0, 1.0, 4097)
    assert edges[2048] == 0.5
    nan_at_half = _sign_problem(0.0, 0.0, 1.0, 0.0, (0.5, 0.5, 1.0), None, "positive")
    assert np.isnan(nan_at_half(edges)).sum() == 1
    for claim, sign in (("positive", 1.0), ("negative", -1.0)):
        v = _sign_problem(1.0, 0.0, 0.0, 0.5, None, None, claim)(np.array([0.5]))[0]
        assert v == 0.0 and math.copysign(1.0, v) == sign


_SPAN = st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e)


@settings(deadline=None, max_examples=80)
@given(lo=st.floats(-1e3, 1e3), span=_SPAN,
       seed_cells=st.sampled_from([1, 7, 4096, 4097, 2**20]))
@example(lo=-1.0, span=2.0, seed_cells=4096)
@example(lo=10.644994057150711, span=29.669724096766878, seed_cells=7)  # 7 steps overshoot hi
@example(lo=0.0, span=5e-324, seed_cells=4096)  # the step underflows to 0
@example(lo=-1e3, span=1e-12, seed_cells=2**20)  # longer than the ramp
def test_uniform_grid_is_linspace_bit_for_bit(lo, span, seed_cells):
    hi = lo + span
    if not lo < hi:  # a span below lo's spacing rounds away
        hi = np.nextafter(lo, np.inf)
    grid = numerics._uniform_grid(lo, hi, seed_cells + 1)
    assert grid.tobytes() == np.linspace(lo, hi, seed_cells + 1).tobytes()
    scan = numerics.scan_grid((lo, hi), seed_cells)
    assert scan.tobytes() == np.linspace(lo, hi, max(seed_cells, 8) + 1).tobytes()


def test_uniform_grid_falls_back_to_linspace(monkeypatch):
    calls = []
    real = np.linspace

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numerics.np, "linspace", counted)
    numerics._uniform_grid(0.0, 1.0, numerics._RAMP.size)
    assert calls == []
    numerics._uniform_grid(0.0, 5e-324, 4097)
    numerics._uniform_grid(0.0, 1.0, numerics._RAMP.size + 1)
    assert calls == [(0.0, 5e-324, 4097), (0.0, 1.0, numerics._RAMP.size + 1)]
    # grids are new arrays; the ramp they scale stays read-only
    assert not numerics._RAMP.flags.writeable


def test_bracketed_root_sqrt2():
    r = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0)
    assert abs(r - math.sqrt(2.0)) < 1e-10


def test_bracketed_root_requires_sign_change():
    # a residual that is roundoff-small but one-signed has no bracket
    with pytest.raises(ValueError):
        bracketed_root(lambda x: 1e-16, 0.3, 0.7)
    with pytest.raises(ValueError):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bracketed_root_endpoint_zero():
    assert bracketed_root(lambda x: x - 1.0, 1.0, 2.0) == pytest.approx(1.0)


def _bracketed_root_alternating(g, a, b):
    """bracketed_root as it was before Brent's method: secant proposals
    alternate with bisections until the bracket is narrower than
    _ROOT_TOL, and the midpoint is returned; kept as its reference."""
    a, b = float(a), float(b)
    fa, fb = float(g(a)), float(g(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    use_secant = True
    for _ in range(numerics._MAX_ITER):
        if b - a <= numerics._ROOT_TOL:
            break
        x = None
        if use_secant and fb != fa:
            s = b - fb * (b - a) / (fb - fa)
            pad = 1e-3 * (b - a)
            if a + pad < s < b - pad:
                x = s
        if x is None:
            x = 0.5 * (a + b)
        fx = float(g(x))
        if not np.isfinite(fx):
            x = 0.5 * (a + b)
            fx = float(g(x))
        if fx == 0.0:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        use_secant = not use_secant
    return 0.5 * (a + b)


def _counted(g):
    """g and a list whose length is the number of calls of g."""
    calls = []

    def h(x):
        calls.append(x)
        return g(x)

    return h, calls


# At most _STALL + 1 evaluations halve the bracket, and 34 halvings take
# a bracket of width 1 under _ROOT_TOL; two more evaluate the ends: 104.
_WORST_EVALS = 2 + 34 * (numerics._STALL + 1)


@pytest.mark.parametrize("c", [0.3, 0.123456789, 0.7, 0.999])
@pytest.mark.parametrize("name, g, most", [
    # a root of multiplicity 9: interpolation crawls, and bisection must
    # take over (bare Illinois steps ran out of steps here)
    ("ninth power", lambda c: lambda x: (x - c) ** 9, _WORST_EVALS),
    # a smooth step 1e-8 wide, which interpolation cannot resolve
    ("steep tanh", lambda c: lambda x: math.tanh(1e8 * (x - c)), 40),
    ("sign jump", lambda c: lambda x: -1.0 if x < c else 1.0, 40),
])
def test_bracketed_root_meets_the_tolerance_in_bounded_evaluations(c, name, g, most):
    h, calls = _counted(g(c))
    r = bracketed_root(h, 0.0, 1.0)
    assert abs(r - c) <= numerics._ROOT_TOL
    assert len(calls) <= most


@pytest.mark.parametrize("c", [0.3, 0.123456789, 0.7])
def test_bracketed_root_bisects_when_the_bracket_stalls(c):
    # on a triple root Brent's step rules alone keep one end for long
    # runs of steps and took 85-100 evaluations here
    h, calls = _counted(lambda x: (x - c) ** 3)
    assert abs(bracketed_root(h, 0.0, 1.0) - c) <= numerics._ROOT_TOL
    assert len(calls) <= 75


def test_bracketed_root_takes_few_evaluations_on_a_smooth_root():
    h, calls = _counted(lambda x: x * x - 2.0)
    assert abs(bracketed_root(h, 1.0, 2.0) - math.sqrt(2.0)) < 1e-13
    assert len(calls) <= 10  # the alternating secant/bisection took 41


def test_bracketed_root_falls_back_to_the_midpoint_on_a_non_finite_value():
    # NaN on (0.6, 0.93): the first secant step lands at 0.905 and is
    # replaced by the bracket's midpoint; a NaN midpoint ends the search
    h, calls = _counted(lambda x: math.nan if 0.6 < x < 0.93 else (x - 0.95) * (1.0 + x))
    assert abs(bracketed_root(h, 0.0, 1.0) - 0.95) <= numerics._ROOT_TOL
    assert calls[2:4] == [pytest.approx(0.9048, abs=1e-4), 0.5]
    with pytest.raises(ValueError, match="non-finite value at 0.75 during refinement"):
        bracketed_root(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.5)
    with pytest.raises(ValueError, match="bracket endpoints evaluate non-finite"):
        bracketed_root(lambda x: math.inf if x > 0.9 else x - 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="need a < b"):
        bracketed_root(lambda x: x, 1.0, 1.0)


def test_bracketed_root_raises_rather_than_return_an_unconverged_point():
    # a sign jump on a bracket of width 2e60 needs about 233 bisections
    jump = lambda x: -1.0 if x < 0.5 else 1.0
    with pytest.raises(ValueError, match="no root within 1e-10 on"):
        bracketed_root(jump, -1e60, 1e60)
    # floats near 3e6 are 4.7e-10 apart, so no bracket there is as narrow
    # as _ROOT_TOL: the search stops at 4 eps |x| instead
    c = 3e6 + 1 / 3
    h, calls = _counted(lambda x: -1.0 if x < c else 1.0)
    assert abs(bracketed_root(h, 3e6, 3e6 + 1.0) - c) <= 4 * np.finfo(float).eps * c
    assert len(calls) <= _WORST_EVALS


def _one_root_brackets(g, lo, hi, cells):
    """The cells of a uniform grid on [lo, hi] where g changes sign, less
    those with more than one sign change on a 64-point subgrid."""
    xs = np.linspace(lo, hi, cells + 1)
    with np.errstate(all="ignore"):
        vs = g(xs)
    for i in np.nonzero(vs[:-1] * vs[1:] < 0)[0]:
        sub = g(np.linspace(xs[i], xs[i + 1], 64))
        if np.count_nonzero(sub[:-1] * sub[1:] <= 0) == 1:
            yield float(xs[i]), float(xs[i + 1])


def _assert_matches_the_reference(g, a, b):
    at_point, tol = lambda t: g(np.float64(t)), numerics._ROOT_TOL
    r = bracketed_root(at_point, a, b)
    ref = _bracketed_root_alternating(at_point, a, b)
    assert a <= r <= b
    # the two differ by more than tol only inside a root's roundoff band,
    # where g is at noise level and its sign is arbitrary (Phi^2 at a
    # tangency at 1, Phi'(1) = -1, is flat to 1e-17 for 1e-6 around it)
    assert abs(r - ref) <= tol or np.abs(g(np.linspace(min(r, ref), max(r, ref), 16))).max() <= 1e-12
    assert at_point(r) == 0.0 or at_point(max(a, r - tol)) * at_point(min(b, r + tol)) < 0


# three or four roots in [-2, 2], more than a grid cell apart
_ROOTS = st.builds(lambda first, gaps: np.cumsum([first, *gaps]),
                   st.floats(-2.0, -1.0), st.lists(st.floats(0.2, 1.0), min_size=2, max_size=3))


@settings(deadline=None, max_examples=40)
@given(roots=_ROOTS, lead=st.sampled_from([1.0, -3.0, 1e-3]), complex_pair=st.booleans())
def test_bracketed_root_matches_the_alternating_reference_on_polynomials(roots, lead, complex_pair):
    # a cubic or quartic with the drawn real roots, or with its first two
    # replaced by a complex pair
    if complex_pair:
        m, q = roots[:2].mean(), (roots[1] - roots[0]) ** 2

    def g(x):
        x = np.asarray(x, dtype=float)
        if complex_pair:
            return lead * ((x - m) ** 2 + q) * np.prod([x - r for r in roots[2:]], axis=0)
        return lead * np.prod([x - r for r in roots], axis=0)

    # the grid's step is irrational, so no drawn root is a grid point
    brackets = list(_one_root_brackets(g, -2.5, 2.5 + 1e-3 * math.pi, 64))
    assert len(brackets) == len(roots) - 2 * complex_pair
    for a, b in brackets:
        _assert_matches_the_reference(g, a, b)


_OSC_SYSTEM = st.one_of(
    st.builds(lambda r: [("ricker", {"r": r})], st.floats(2.3, 3.3)),
    # f'(1) < -1 needs mu > c/(c - 2)
    st.builds(lambda c, t: [("beverton-holt", {"mu": c / (c - 2.0) + 1.0 + t * 6.0, "c": c})],
              st.floats(2.5, 4.0), st.floats(0.0, 1.0)),
    st.builds(lambda r, s: [("ricker", {"r": r}), ("ricker", {"r": s})],
              st.floats(2.3, 3.3), st.floats(0.5, 1.0)),
)


@settings(deadline=None, max_examples=25)
@given(maps=_OSC_SYSTEM, r=st.integers(1, 4))
@example(maps=[("ricker", {"r": 3.0}), ("ricker", {"r": 0.5})], r=2)
def test_bracketed_root_matches_the_alternating_reference_on_cycles(maps, r):
    # Phi^r - id of an oscillating system, bracketed on 512 cells of the
    # interval cycles scans; each has the sign change at 1
    system = make_system([make_model(f, p) for f, p in maps])
    g = lambda t: compose_array(system, t, r * system.period) - t
    brackets = list(_one_root_brackets(g, 1e-9, system.working_interval.hi, 512))
    assert brackets
    for a, b in brackets:
        _assert_matches_the_reference(g, a, b)


def test_scan_roots_cubic():
    roots = scan_roots(lambda x: x * (x - 0.3) * (x + 0.7), (-1.0, 1.0))
    assert roots.shape == (3,)
    np.testing.assert_allclose(roots, [-0.7, 0.0, 0.3], atol=1e-10)


def test_scan_roots_constant_is_empty():
    roots = scan_roots(lambda x: np.ones_like(np.asarray(x, dtype=float)), (0.0, 1.0))
    assert roots.size == 0


def test_scan_roots_misses_a_touching_root():
    # g touches 0 at 0.5 without a sign change, and no grid point of
    # (0, 1.1) lands on 0.5, so the scan has nothing to find
    assert scan_roots(lambda x: (np.asarray(x) - 0.5) ** 2, (0.0, 1.1)).size == 0


def _counted_brackets(monkeypatch):
    brackets = []
    real = numerics.bracketed_root

    def counted(g, a, b):
        brackets.append((a, b))
        return real(g, a, b)

    monkeypatch.setattr(numerics, "bracketed_root", counted)
    return brackets


def test_scan_roots_skips_a_known_root_alone_in_its_bracket(monkeypatch):
    g = lambda x: x * (x - 0.3) * (x + 0.7)
    brackets = _counted_brackets(monkeypatch)
    found = scan_roots(g, (-1.0, 1.0), known=[0.3])
    assert len(brackets) == 1
    np.testing.assert_allclose(found, [-0.7, 0.0], atol=1e-10)
    brackets.clear()
    # a known value that is not a root of g skips nothing
    found = scan_roots(g, (-1.0, 1.0), known=[0.5])
    assert len(brackets) == 2
    np.testing.assert_allclose(found, [-0.7, 0.0, 0.3], atol=1e-10)
    brackets.clear()
    # learned mid-scan: visiting -0.7 reveals 0.3, so its bracket is skipped
    visited = []

    def visit(r):
        visited.append(r)
        return [0.3] if r < -0.5 else []

    found = scan_roots(g, (-1.0, 1.0), visit=visit)
    assert len(brackets) == 1
    np.testing.assert_allclose(visited, [-0.7, 0.0], atol=1e-10)
    np.testing.assert_allclose(found, [-0.7, 0.0], atol=1e-10)


def test_scan_roots_refines_a_bracket_with_more_roots_than_the_known_one(monkeypatch):
    # Ricker r = 3.164072453964034: Phi^6 - id changes sign three times in
    # the grid cell [0.00977, 0.01465] of (1e-9, 20), at 0.01094, at the
    # 3-cycle point 0.01182 and at 0.01307
    f = lambda x: x * np.exp(3.164072453964034 * (1.0 - x))

    def g(x):
        y = np.asarray(x, dtype=float)
        for _ in range(6):
            y = f(y)
        return y - x

    three_cycle = scan_roots(lambda x: f(f(f(np.asarray(x)))) - x, (0.0097, 0.0147))
    assert three_cycle == pytest.approx([0.01182018], abs=1e-8)
    brackets = _counted_brackets(monkeypatch)
    found = scan_roots(g, (1e-9, 20.0), known=three_cycle)
    cell = [(a, b) for a, b in brackets if a < 0.01182 < b]
    assert cell == [pytest.approx((0.00977, 0.01465), abs=1e-5)]
    assert any(a <= r <= b for r in found for a, b in cell)
    brackets.clear()
    # learned mid-scan: an extra root at 0.005, in the cell below, reveals
    # the 3-cycle point, and the cell is refined all the same
    found = scan_roots(lambda x: (np.asarray(x) - 0.005) * g(x), (1e-9, 20.0),
                       visit=lambda r: list(three_cycle) if r < 0.006 else [])
    assert found[0] == pytest.approx(0.005, abs=1e-10)
    cell = [(a, b) for a, b in brackets if a < 0.01182 < b]
    assert cell == [pytest.approx((0.00977, 0.01465), abs=1e-5)]
    assert any(a <= r <= b for r in found for a, b in cell)


def test_scan_roots_refines_a_skipped_bracket_that_a_learned_root_joins():
    # the cell [0.5, 0.500244] holds the known root 0.50001, with the
    # right signs either side; visiting 0.2 teaches 0.50003, so by the
    # time the scan reaches the cell it holds two known roots and is
    # refined.  The refiltered scan skipped it before the first root and
    # never looked at it again
    g = lambda x: (x - 0.2) * (x - 0.50001) * (x - 0.7)
    visit = lambda r: [0.50003] if abs(r - 0.2) < 1e-9 else []
    found = scan_roots(g, (0.0, 1.0), known=[0.50001], visit=visit)
    np.testing.assert_allclose(found, [0.2, 0.50001, 0.7], atol=1e-10)
    found = scan_roots_refiltered(g, (0.0, 1.0), known=[0.50001], visit=visit)
    np.testing.assert_allclose(found, [0.2, 0.7], atol=1e-10)


def test_scan_roots_refines_a_known_touching_root_beside_a_crossing(monkeypatch):
    # g touches 0 at the known 0.3 and crosses at 0.30003, both in the
    # cell [0.299805, 0.300049]: the probe above 0.3 has the sign of g(a),
    # not of g(b), so the cell is refined and the crossing found
    g = lambda x: (x - 0.3) ** 2 * (x - 0.30003)
    brackets = _counted_brackets(monkeypatch)
    found = scan_roots(g, (0.0, 1.0), known=[0.3])
    assert brackets == [pytest.approx((0.299805, 0.300049), abs=1e-6)]
    np.testing.assert_allclose(found, [0.30003], atol=1e-10)


@st.composite
def _scan_cases(draw):
    """A polynomial with seeded roots in (0, 1), values that may be
    known (roots as they are or moved by under 1e-7, and values that are
    no roots), and for each value the index of the root whose visit
    reveals it, or -1 for a value known from the start."""
    roots = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True))
    moved = st.one_of(st.just(0.0), st.floats(-9.9e-8, 9.9e-8))
    values = [r + draw(moved) for r in roots if draw(st.booleans())]
    values += draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    sources = [draw(st.integers(-1, len(roots) - 1)) for _ in values]
    lead = draw(st.sampled_from([1.0, -2.0]))
    return roots, lead, values, sources, draw(st.sampled_from([64, 512, 4096]))


@settings(deadline=None, max_examples=80)
@given(_scan_cases())
def test_scan_roots_matches_the_refiltered_scan(case):
    # while no grid cell holds two values that may become known, no
    # bracket ever holds two known roots, and the one pass decides every
    # bracket as the scan that filtered them up front and after each
    # visit did: the same roots bit for bit, from the same visits
    roots, lead, values, sources, seed_cells = case
    xs = numerics.scan_grid((0.0, 1.0), seed_cells)
    pool = np.sort(values)
    assume(np.all(np.searchsorted(xs, pool[:-1], "right") < np.searchsorted(xs, pool[1:], "left")))

    def g(x):
        out = lead
        for r in roots:
            out = out * (x - r)
        return out

    def run(scan):
        visited = []

        def visit(x):
            visited.append(x)
            near = [j for j, r in enumerate(roots) if abs(x - r) < 1e-6]
            return [v for v, j in zip(values, sources) if j in near]

        known = [v for v, j in zip(values, sources) if j < 0]
        return scan(g, (0.0, 1.0), seed_cells, known=known, visit=visit), visited

    found, visited = run(scan_roots)
    want, want_visited = run(scan_roots_refiltered)
    assert found.tobytes() == want.tobytes()
    assert visited == want_visited


def test_scan_roots_seeded_quartics():
    rng = np.random.default_rng(1724)
    for _ in range(10):
        while True:
            rts = np.sort(rng.uniform(0.02, 0.98, size=4))
            if np.diff(rts).min() > 10.0 / 4096.0:
                break
        lead = rng.choice([-1.0, 1.0])

        def g(x, rts=rts, lead=lead):
            x = np.asarray(x, dtype=float)
            out = np.full_like(x, lead)
            for r in rts:
                out = out * (x - r)
            return out

        found = scan_roots(g, (0.0, 1.0))
        assert found.shape == (4,)
        np.testing.assert_allclose(found, rts, atol=1e-8)


def test_fd_first_derivative_square():
    assert fd_derivative(lambda x: x * x, 3.0, 1) == pytest.approx(6.0, abs=1e-8)


def test_fd_third_derivative_exp():
    assert fd_derivative(math.exp, 0.0, 3) == pytest.approx(1.0, abs=1e-4)


def test_fd_orders_on_cubic():
    g = lambda x: x ** 3
    assert fd_derivative(g, 2.0, 1) == pytest.approx(12.0, rel=1e-9)
    assert fd_derivative(g, 2.0, 2) == pytest.approx(12.0, rel=1e-7)
    assert fd_derivative(g, 2.0, 3) == pytest.approx(6.0, rel=1e-6)


def test_fd_exact_on_small_quartics():
    # stencils are degree-4 exact; coefficients kept in [-0.5, 0.5] so
    # roundoff stays inside the 1e-8 budget
    rng = np.random.default_rng(88)
    for _ in range(20):
        c = rng.uniform(-0.5, 0.5, size=5)
        g = lambda x, c=c: sum(ck * x ** k for k, ck in enumerate(c))
        x0 = rng.uniform(-1.0, 1.0)
        d1 = c[1] + 2 * c[2] * x0 + 3 * c[3] * x0 ** 2 + 4 * c[4] * x0 ** 3
        d2 = 2 * c[2] + 6 * c[3] * x0 + 12 * c[4] * x0 ** 2
        d3 = 6 * c[3] + 24 * c[4] * x0
        assert abs(fd_derivative(g, x0, 1) - d1) < 1e-8
        assert abs(fd_derivative(g, x0, 2) - d2) < 1e-8
        assert abs(fd_derivative(g, x0, 3) - d3) < 1e-8


def test_fd_rejects_bad_order():
    with pytest.raises(ValueError):
        fd_derivative(math.sin, 0.0, 4)


def _merge_cells_loop(los, his):
    """The loop _merge_cells replaced, kept as its reference."""
    if los.size == 0:
        return ()
    order = np.argsort(los, kind="stable")
    los, his = los[order], his[order]
    out = [[float(los[0]), float(his[0])]]
    for lo, hi in zip(los[1:], his[1:]):
        gap = lo - out[-1][1]
        if gap <= 1e-12 * max(1.0, abs(lo)):
            out[-1][1] = max(out[-1][1], float(hi))
        else:
            out.append([float(lo), float(hi)])
    return tuple((a, b) for a, b in out)


_ENDS = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
# widths down to 0 and gaps around the 1e-12 bridging tolerance
_WIDTHS = st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]))


@given(st.lists(st.tuples(_ENDS, _WIDTHS), max_size=40), st.booleans())
@example(cells=[(-1.0, 1.0), (1e-12, 1.0)], chain=False)  # gap equal to the tolerance
def test_merge_cells_matches_loop(cells, chain):
    los = np.array([lo for lo, _ in cells], dtype=float)
    his = los + np.array([w for _, w in cells], dtype=float)
    if chain and cells:
        # sorted abutting cells, as adaptive_sign_check's bisection leaves them
        edges = np.cumsum(np.abs(los)) / 7.0
        los, his = edges[:-1], edges[1:]
    got = _merge_cells(los, his)
    assert got == _merge_cells_loop(los, his)
    assert all(type(v) is float for cell in got for v in cell)
