"""A point is an np.float64: every compiled map, Phi and scan_roots'
refinement evaluate one point on numpy scalars, with the bits that the
same x gives inside an array.  The reference is the one-element array
path that points took before, kept here as _one_element."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from envcert import models
from envcert.cli import _bundled_names, run_command
from envcert.envelopes import make_mobius
from envcert.models import compile_expression, make_model
from envcert.numerics import scan_roots
from envcert.periodic import compose_array, make_system


def _one_element(fn, seen=None):
    """fn with a point evaluated as a one-element array, the path points
    took before they were np.float64 scalars; seen, if given, collects
    the points."""
    def call(x):
        if isinstance(x, float):
            if seen is not None:
                seen.append(x)
            return fn(np.asarray([x]))[0]
        return fn(x)

    return call


def _bits(v) -> bytes | str:
    v = np.float64(v)
    return "nan" if np.isnan(v) else v.tobytes()


_SPECIAL = [0.0, -0.0, 0.5, 1.0, 2.0, -1.0, -0.5, 3.0, 1e-300, 25.0, np.inf, -np.inf, np.nan]
_X = st.one_of(st.sampled_from(_SPECIAL), st.floats(-3.0, 30.0, allow_nan=False))
_C = st.one_of(st.sampled_from([2.0, 0.5, -1.0, 1.0, 0.0, 3.0, -2.0, -0.5]),
               st.floats(-4.0, 4.0, allow_nan=False)).map(float)

# every custom piece form the convention must keep, {c} a drawn constant
_PIECES = [
    "x**2", "x**0.5", "x**-1", "x**{c}", "({c})**x", "x**x", "exp(x)", "log(x)", "sqrt(x)",
    "Abs(x - 1)", "x*exp({c}*(1 - x))", "(1 + x)**{c} - sqrt(Abs(x))/(1 + x**2)",
    "{c}*x/(1 + x**{c}) + log(1 + x**2)", "2**{c} + x**-0.5",
]

_FAMILY_PARAMS = {
    "ricker": {"r": st.floats(0.1, 4.0)},
    "beverton-holt": {"mu": st.floats(1.01, 10.0), "c": st.floats(0.1, 5.0)},
    "quadratic": {"mu": st.floats(0.1, 3.0)},
    "exponential-rational": {"a": st.floats(0.05, 3.0), "b": st.floats(0.1, 4.0)},
    "beverton-holt-harvest": {"r": st.floats(1.1, 5.0), "c": st.floats(0.05, 0.95)},
    "piecewise-linear-recip": {"slope": st.floats(1.1, 6.0), "brk": st.floats(0.05, 0.95)},
}


@st.composite
def _callables(draw):
    """(label, value, derivatives) of a family map, a custom piece or a
    piecewise custom map; an Abs piece has only a first derivative."""
    kind = draw(st.sampled_from(["family", "piece", "piecewise"]))
    if kind == "family":
        family = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
        params = {k: draw(s) for k, s in _FAMILY_PARAMS[family].items()}
        f = make_model(family, params)
        return f.label, f._eval, f._derivs
    if kind == "piece":
        expr = draw(st.sampled_from(_PIECES)).format(c=draw(_C))
        value, derivs = compile_expression(expr)
        return expr, value, derivs[:1] if "Abs" in expr else derivs
    c = draw(st.floats(0.2, 3.0))
    f = make_model("custom", pieces=[(0.0, f"x**{c!r}"), (0.4, "sqrt(x) + exp(x - 0.4) - 1"),
                                     (1.0, "x**-1")])
    return f.label, f._eval, f._derivs


@settings(max_examples=150, deadline=None)
@given(_callables(), st.lists(_X, min_size=1, max_size=8))
@example(("x**0.5", *compile_expression("x**0.5")), [-0.0, 0.5, 2.0])
@example(("(-inf)**x", *compile_expression("(-1/0)**x")), [0.5, 2.0])
def test_point_one_element_and_grid_agree_bit_for_bit(fns, xs):
    label, value, derivs = fns
    grid = np.asarray(xs, dtype=float)
    for fn in (value, *derivs):
        on_grid = fn(grid)
        for i, x in enumerate(xs):
            at_point = fn(np.float64(x))
            assert isinstance(at_point, np.float64), label
            want = _bits(on_grid[i])
            assert _bits(at_point) == _bits(fn(np.asarray([x]))[0]) == want, (label, x)


@pytest.mark.parametrize("expr", sorted({p.format(c=c) for p in _PIECES for c in (2.7, -0.3)}))
def test_points_agree_with_the_grid_on_random_points(expr):
    # a derivative of (1 + x)**2.7 at a 0-d point would take libm's pow
    # and differ from the grid at about 4% of these points
    xs = np.random.default_rng(23).uniform(-1.0, 6.0, 500)
    value, derivs = compile_expression(expr)
    for fn in (value, *(derivs[:1] if "Abs" in expr else derivs)):
        assert [_bits(fn(x)) for x in xs] == [_bits(v) for v in fn(xs)]


@pytest.mark.parametrize("expr, closed_form", [
    ("x**2", lambda x, c: x ** 2.0),
    ("x**0.5", lambda x, c: x ** 0.5),
    ("x**-1", lambda x, c: x ** -1.0),
    ("x**{c}", lambda x, c: x ** c),
    ("({c})**x", lambda x, c: c ** x),
    ("x**x", lambda x, c: x ** x),
])
@pytest.mark.parametrize("c", [2.0, 0.5, -1.0, 2.7, -0.3])
def test_grid_powers_are_numpy_array_powers(expr, closed_form, c):
    # a grid still evaluates ** on arrays, as before points were scalars
    xs = np.concatenate([np.array(_SPECIAL), np.linspace(-3.0, 30.0, 4097)])
    value, _ = compile_expression(expr.format(c=c))
    with np.errstate(all="ignore"):
        want = closed_form(xs, np.float64(c))
    np.testing.assert_array_equal(value(xs), want)


def test_compose_array_keeps_a_point_a_scalar():
    system = make_system([make_model("ricker", {"r": 2.3}),
                          make_model("beverton-holt", {"mu": 3.0, "c": 2.5})])
    xs = np.linspace(0.0, system.working_interval.hi, 257)
    grid = compose_array(system, xs, 6, 1)
    for i in (0, 3, 100, 256):
        at_point = compose_array(system, xs[i], 6, 1)
        assert isinstance(at_point, np.float64)
        assert _bits(at_point) == _bits(grid[i])
    assert isinstance(make_mobius(0.3).eval_array(np.float64(2.0)), np.float64)


def test_scan_roots_refines_on_float64_points():
    # the regression guard: after the grid, every input scan_roots passes
    # to g while it refines is an np.float64, never a one-element array
    system = make_system([make_model("ricker", {"r": 2.3})])
    seen = []

    def g(t):
        seen.append(t)
        return compose_array(system, t, 2) - t

    roots = scan_roots(g, (1e-9, 3.0))
    # refinement ran: each of the 3 brackets costs g at its two ends and
    # at least one step inside
    assert len(roots) == 3 and seen[0].shape == (4097,) and len(seen) >= 1 + 3 * 3
    assert {type(t) for t in seen[1:]} == {np.float64}


@pytest.fixture
def one_element_path(monkeypatch):
    """Every compiled map and piecewise map built from here on evaluates a
    point as a one-element array; returns the points it saw."""
    seen: list = []
    vectorize, piecewise = models._vectorize, models._piecewise
    monkeypatch.setattr(models, "_vectorize",
                        lambda fn, at_point=None: _one_element(vectorize(fn), seen))
    monkeypatch.setattr(models, "_piecewise",
                        lambda starts, funcs: _one_element(piecewise(starts, funcs), seen))
    return seen


def _reports(cmd: str) -> dict:
    out = {}
    for name in _bundled_names():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = run_command([*cmd.split(), name])
        out[name] = (code, buf.getvalue())
    return out


@pytest.mark.parametrize("cmd", ["cycles --r-max 3", "certify"])
def test_reports_equal_the_one_element_path(cmd, request):
    scalar = _reports(cmd)
    seen = request.getfixturevalue("one_element_path")
    assert _reports(cmd) == scalar
    assert len(seen) > 100

