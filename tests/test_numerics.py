"""Grid sign checks, bracketing, root scans and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from envcert import make_model, make_system, numerics
from envcert.numerics import (
    GridConfig,
    SignReport,
    _merge_cells,
    adaptive_sign_check,
    bracketed_root,
    fd_derivative,
    scan_roots,
    tangency_ladder,
)
from envcert.periodic import compose_array


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
    (lambda x: (x - 0.4096) ** 2, "positive"),  # a tangency at a block boundary
    (lambda x: -1.0 - x, "negative"),
], ids=["dips", "late-violation", "late-minimum", "tangency", "negative"])
def test_sign_check_blocks_match_one_block(monkeypatch, g, claim):
    # 5000 seed cells span three blocks of samples
    cfg = GridConfig(seed_cells=5000)
    blocked = adaptive_sign_check(g, (0.0, 1.0), claim, cfg)
    monkeypatch.setattr(numerics, "_BLOCK_CELLS", 10**9)
    assert adaptive_sign_check(g, (0.0, 1.0), claim, cfg) == blocked


def _sign_check_cells_by_five(g, interval, claim, cfg):
    """adaptive_sign_check with each block laid out as cells x 5 samples,
    as it was before the offset-major layout; kept as its reference."""
    lo, hi = float(interval[0]), float(interval[1])
    sgn = 1.0 if claim == "positive" else -1.0
    edges = np.linspace(lo, hi, cfg.seed_cells + 1)
    cell_lo, cell_hi = edges[:-1], edges[1:]
    cells_checked, min_abs, unresolved = 0, np.inf, ()
    for depth in range(cfg.max_refinement_depth + 1):
        n = cell_lo.size
        if n == 0:
            break
        cells_checked += n
        keep = np.empty(n, dtype=bool)
        witness = None
        for s in range(0, n, numerics._BLOCK_CELLS):
            b_lo, b_hi = cell_lo[s:s + numerics._BLOCK_CELLS], cell_hi[s:s + numerics._BLOCK_CELLS]
            xs = b_lo[:, None] + (b_hi - b_lo)[:, None] * numerics._OFFSETS[None, :]
            with np.errstate(all="ignore"):
                vals = sgn * np.asarray(g(xs.reshape(-1)), dtype=float).reshape(-1, 5)
            finite = np.isfinite(vals)
            if finite.any():
                min_abs = min(min_abs, float(np.abs(vals[finite]).min()))
            bad = finite & (vals < -cfg.abs_tol)
            if bad.any():
                k = int(np.argmin(xs[bad]))
                if witness is None or xs[bad][k] < witness[0]:
                    witness = (float(xs[bad][k]), float(sgn * vals[bad][k]))
            keep[s:s + numerics._BLOCK_CELLS] = ~(vals > cfg.abs_tol).all(axis=1)
        if witness is not None:
            return SignReport("violation", claim, (lo, hi), cells_checked, min_abs,
                              witness=witness[0], witness_value=witness[1])
        if not keep.any():
            break
        if depth == cfg.max_refinement_depth or int(keep.sum()) > 2 * cfg.seed_cells:
            unresolved = _merge_cells(cell_lo[keep], cell_hi[keep])
            break
        mid = 0.5 * (cell_lo[keep] + cell_hi[keep])
        cell_lo = np.concatenate([cell_lo[keep], mid])
        cell_hi = np.concatenate([mid, cell_hi[keep]])
        order = np.argsort(cell_lo, kind="stable")
        cell_lo, cell_hi = cell_lo[order], cell_hi[order]
    status = "unresolved" if unresolved else f"all_{claim}"
    return SignReport(status, claim, (lo, hi), cells_checked, min_abs, unresolved=unresolved)


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
       seed_cells=st.sampled_from([1, 7, 300, 2048, 2049, 5000]), depth=st.integers(0, 12))
@example(bend=0.0, tilt=-1.0, shift=0.9, centre=0.0, nan_band=None, inf_band=None,
         claim="positive", seed_cells=5000, depth=12)  # a violation in the last block only
@example(bend=1.0, tilt=0.0, shift=0.0, centre=0.7, nan_band=None, inf_band=None,
         claim="negative", seed_cells=4096, depth=12)  # refined down to an unresolved tangency
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=(0.2, 0.3, 1.0),
         inf_band=(0.6, 0.8, -1.0), claim="positive", seed_cells=2049, depth=3)  # NaN and -inf
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=None,
         inf_band=(0.0, 1.0, 1.0), claim="positive", seed_cells=7, depth=2)  # +inf everywhere
@example(bend=0.0, tilt=0.0, shift=1.0, centre=0.0, nan_band=(0.0, 1.0, 1.0),
         inf_band=None, claim="negative", seed_cells=7, depth=2)  # NaN everywhere
def test_sign_check_matches_the_cells_by_five_layout(
    bend, tilt, shift, centre, nan_band, inf_band, claim, seed_cells, depth
):
    g = _sign_problem(bend, tilt, shift, centre, nan_band, inf_band, claim)
    cfg = GridConfig(seed_cells=seed_cells, max_refinement_depth=depth)
    got = adaptive_sign_check(g, (0.0, 1.0), claim, cfg)
    assert got == _sign_check_cells_by_five(g, (0.0, 1.0), claim, cfg)
    assert type(got.min_abs_value) is float


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
