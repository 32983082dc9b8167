"""Model construction, closed-form derivatives and population axioms."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import sympy

from envcert import FAMILIES, Interval, make_custom_envelope, make_model, verify_population_axioms
from envcert.cli import run_command
from envcert.models import compile_expression
from envcert.numerics import GridConfig, fd_derivative


def test_families_tuple():
    assert "ricker" in FAMILIES
    assert "custom" in FAMILIES
    assert len(FAMILIES) == 7


def test_interval_contains_with_slack():
    w = Interval(0.0, 2.0)
    assert w.contains(1.5)
    assert w.contains(2.0 + 1e-13, 1e-12)
    assert not w.contains(2.1)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        make_model("logistic", {"r": 1.0})


def test_fixed_points_are_normalized():
    # every family passes through (0,0) and (1,1)
    cases = [
        ("ricker", {"r": 1.8}),
        ("beverton-holt", {"mu": 7.0, "c": 2.3}),
        ("quadratic", {"mu": 2.0}),
        ("exponential-rational", {"a": 1.0, "b": 2.0}),
        ("beverton-holt-harvest", {"r": 2.0, "c": 0.5}),
        ("piecewise-linear-recip", {"slope": 4.0, "brk": 0.6}),
    ]
    for family, params in cases:
        f = make_model(family, params)
        assert f.eval(0.0) == pytest.approx(0.0, abs=1e-12)
        assert f.eval(1.0) == pytest.approx(1.0, abs=1e-12)


def test_bh_unit_value_is_algebraic():
    f = make_model("beverton-holt", {"mu": 7.0, "c": 2.3})
    # 7/(1+6) = 1
    assert f.eval(1.0) == 1.0


def test_quadratic_boundary_zero():
    f = make_model("quadratic", {"mu": 2.0})
    assert f.domain.hi == pytest.approx(1.5)
    assert f.eval(1.5) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_second_derivative_constant():
    f = make_model("quadratic", {"mu": 1.0})
    for x in (0.1, 0.77, 1.3):
        assert f.deriv(x, 2) == pytest.approx(-2.0)


def test_eval_outside_domain_raises():
    f = make_model("ricker", {"r": 1.8}, x_max=5.0)
    with pytest.raises(ValueError):
        f.eval(5.5)
    with pytest.raises(ValueError):
        f.eval(-0.1)
    # the raw array path leaves range checking to the caller
    out = f.eval_array(np.array([6.0]))
    assert np.isfinite(out).all()


def test_admissibility_messages():
    with pytest.raises(ValueError, match="mu must exceed 1"):
        make_model("beverton-holt", {"mu": 0.9, "c": 1.0})
    with pytest.raises(ValueError, match="r"):
        make_model("beverton-holt-harvest", {"r": 1.0, "c": 0.5})
    with pytest.raises(ValueError, match="c"):
        make_model("beverton-holt-harvest", {"r": 2.0, "c": 1.5})
    with pytest.raises(ValueError):
        make_model("piecewise-linear-recip", {"slope": 1.0, "brk": 0.5})
    with pytest.raises(ValueError, match="expects parameters"):
        make_model("ricker", {})


def test_harvest_domain_endpoints():
    # positive root of c(r-1)x^2 + c(2-r)x - (c+r) = 0
    f = make_model("beverton-holt-harvest", {"r": 2.0, "c": 0.5})
    assert f.domain.hi == pytest.approx(math.sqrt(5.0), rel=1e-12)
    f = make_model("beverton-holt-harvest", {"r": 4.0, "c": 0.2})
    assert f.domain.hi == pytest.approx(3.0, rel=1e-12)
    assert f.eval(f.domain.hi) == pytest.approx(0.0, abs=1e-9)


def test_harvest_slope_at_origin():
    f = make_model("beverton-holt-harvest", {"r": 3.0, "c": 0.3})
    assert f.deriv(0.0, 1) == pytest.approx(3.3)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(4021)
    cases = [
        ("ricker", {"r": 1.8}, 3.0),
        ("beverton-holt", {"mu": 3.0, "c": 2.0}, 3.0),
        ("beverton-holt", {"mu": 5.0, "c": 0.7}, 3.0),
        ("quadratic", {"mu": 1.5}, 1.5),
        ("exponential-rational", {"a": 1.0, "b": 2.0}, 3.0),
        ("beverton-holt-harvest", {"r": 3.0, "c": 0.3}, 2.4),
    ]
    for family, params, span in cases:
        f = make_model(family, params)
        for x in rng.uniform(0.1, span, size=12):
            for order in (1, 2, 3):
                an = f.deriv(float(x), order)
                fd = fd_derivative(lambda t: f.eval_array(np.asarray([t]))[0], float(x), order)
                assert abs(fd - an) <= 1e-6 * max(1.0, abs(an)), (family, order, x)


def test_bh_fractional_exponent_derivative_at_origin():
    # term-wise x^(c-1) would blow up; the guarded form stays finite
    f = make_model("beverton-holt", {"mu": 4.0, "c": 0.5})
    assert f.deriv(0.0, 1) == pytest.approx(4.0)


@pytest.mark.parametrize("expr, slope", [
    ("3.0*x/(1 + 2.0*x**0.5)", 3.0),
    ("2*x/(1 + sqrt(x))", 2.0),
])
def test_custom_quotient_derivative_at_fractional_power_zero(expr, slope):
    # the denominator's derivative is infinite at 0 where the quotient is
    # 0; their product has the limit 0, so f'(0) is the limit, not nan
    assert make_model("custom", pieces=[(0.0, expr)]).deriv(0.0, 1) == slope


@pytest.mark.parametrize("expr", [
    "x*exp(1.5*(1 - x**0.5))",
    "exp(1.5*(1 - x**0.5))*x",
    "x*exp(1.5*(1 - sqrt(x)))",
])
def test_custom_product_derivative_at_fractional_power_zero(expr):
    # x times a factor whose derivative is infinite at 0, where x is 0 and
    # the factor finite: the product's f'(0) is the factor's value exp(1.5)
    f = make_model("custom", pieces=[(0.0, expr)])
    assert f.deriv(0.0, 1) == pytest.approx(math.exp(1.5), rel=1e-15)


def test_product_slope_stays_undefined_where_a_factor_diverges():
    # x*x**-1.5 is x**-0.5, whose slope at 0 is -inf: 0 times the
    # factor's infinite slope is no limit when the factor is infinite too
    _, (d1, _, _) = compile_expression("x*x**-1.5")
    assert np.isnan(d1(np.zeros(1))[0])


# Each family's closed form in plain numpy, in the operation order of its
# formula: the compiled maps must agree bit for bit, since every sign
# check and report reads these values.
_CLOSED_FORMS = [
    ("ricker", {"r": 1.8}, lambda x, r: x * np.exp(r * (1.0 - x))),
    ("ricker", {"r": 3.1}, lambda x, r: x * np.exp(r * (1.0 - x))),
    ("beverton-holt", {"mu": 7.0, "c": 2.3},
     lambda x, mu, c: mu * x / (1.0 + (mu - 1.0) * np.power(x, c))),
    ("beverton-holt", {"mu": 4.0, "c": 0.5},
     lambda x, mu, c: mu * x / (1.0 + (mu - 1.0) * np.power(x, c))),
    ("quadratic", {"mu": 2.0}, lambda x, mu: x * (1.0 + mu * (1.0 - x))),
    ("exponential-rational", {"a": 0.32, "b": 2.48},
     lambda x, a, b: (1.0 + a * np.exp(b)) * x / (1.0 + a * np.exp(b * x))),
    ("beverton-holt-harvest", {"r": 3.0, "c": 0.3},
     lambda x, r, c: r * x / (1.0 + (r - 1.0) * x) - c * x * (x - 1.0)),
    ("piecewise-linear-recip", {"slope": 4.0, "brk": 0.6},
     lambda x, slope, brk: np.where(
         x < brk, slope * x,
         np.where(x < 1.0, 1.0 + (1.0 - slope * brk) / (1.0 - brk) * (x - 1.0), 1.0 / x))),
]


@pytest.mark.parametrize("family, params, closed_form", _CLOSED_FORMS,
                         ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(_CLOSED_FORMS)])
def test_family_values_equal_closed_form_bit_for_bit(family, params, closed_form):
    f = make_model(family, params)
    xs = np.concatenate([np.linspace(0.0, f.domain.hi, 4097), [1.0]])
    assert xs[0] == 0.0 and xs[-2] == f.domain.hi
    with np.errstate(all="ignore"):
        want = closed_form(xs, **params)
    np.testing.assert_array_equal(f.eval_array(xs), want)


def test_family_formula_parsed_once(monkeypatch):
    from envcert import models

    make_model("beverton-holt", {"mu": 3.0, "c": 2.0})
    parses = []
    real = models._check_expression
    monkeypatch.setattr(models, "_check_expression",
                        lambda *args: parses.append(args) or real(*args))
    f = make_model("beverton-holt", {"mu": 5.0, "c": 0.7})
    make_model("custom", pieces=[(0.0, "x*exp(1.3*(1 - x))")])
    assert [args[0] for args in parses] == ["x*exp(1.3*(1 - x))"]
    # the cached parse binds each model's own parameters
    assert f.eval(2.0) == pytest.approx(10.0 / (1.0 + 4.0 * 2.0 ** 0.7), rel=1e-15)


def test_ricker_derivative_values():
    f = make_model("ricker", {"r": 2.0})
    # f'(x) = (1 - 2x) e^(2(1-x))
    assert f.deriv(1.0, 1) == pytest.approx(-1.0)
    assert f.deriv(0.5, 1) == pytest.approx(0.0, abs=1e-14)
    assert f.deriv(0.0, 1) == pytest.approx(math.exp(2.0))


def test_piecewise_segments_and_smoothness():
    f = make_model("piecewise-linear-recip", {"slope": 4.0, "brk": 0.6})
    assert f.eval(0.5) == pytest.approx(2.0)
    assert f.eval(2.0) == pytest.approx(0.5)
    # line from (0.6, 2.4) to (1, 1)
    mid = 0.8
    expected = 2.4 + (1.0 - 2.4) * (mid - 0.6) / 0.4
    assert f.eval(mid) == pytest.approx(expected)
    assert not f.is_c1
    assert f.breakpoints == (0.6, 1.0)
    with pytest.raises(ValueError):
        f.deriv(0.6, 1)
    with pytest.raises(ValueError):
        f.deriv(0.3, 2)
    assert f.deriv(0.3, 1) == pytest.approx(4.0)
    assert f.deriv(1.7, 1) == pytest.approx(-1.0 / 1.7 ** 2)


@pytest.mark.parametrize("model", [
    make_model("piecewise-linear-recip", {"slope": 4.0, "brk": 0.6}),
    make_model("custom", pieces=[(0.0, "2*x"), (0.5, "x + 0.5"), (1.0, "1/x")]),
], ids=["piecewise-linear-recip", "custom"])
def test_piecewise_maps_nan_in_nan_out(model):
    x = np.asarray([np.nan, 0.3, np.nan, 2.0])
    for fn in (model.eval_array, *(lambda t, k=k: model.deriv_array(t, k) for k in (1, 2, 3))):
        out = fn(x)
        assert np.isnan(out[[0, 2]]).all()
        assert np.isfinite(out[[1, 3]]).all()


def test_custom_expression_matches_builtin():
    f = make_model("custom", pieces=[(0.0, "x*exp(2*(1 - x))")])
    g = make_model("ricker", {"r": 2.0})
    xs = np.linspace(0.05, 3.0, 40)
    np.testing.assert_allclose(f.eval_array(xs), g.eval_array(xs), rtol=1e-12)
    for order in (1, 2, 3):
        assert f.deriv(0.7, order) == pytest.approx(g.deriv(0.7, order), rel=1e-10)
    assert f.smooth


def test_custom_rejects_unknown_symbols():
    with pytest.raises(ValueError, match="unknown symbols"):
        make_model("custom", pieces=[(0.0, "x + y")])


def test_custom_rejects_wrong_fixed_points():
    with pytest.raises(ValueError, match="f\\(0\\)=0 and f\\(1\\)=1"):
        make_model("custom", pieces=[(0.0, "2*x")])


def test_custom_rejects_nan_at_a_fixed_point():
    # x * x**-0.5 is 0 * inf = nan at 0, and (x - 1) log|x - 1| is nan at 1
    for expr in ("x*x**-0.5", "x + (x - 1)*log(Abs(x - 1))"):
        with pytest.raises(ValueError, match="f\\(0\\)=0 and f\\(1\\)=1"):
            make_model("custom", pieces=[(0.0, expr)])


def test_custom_piece_validation():
    with pytest.raises(ValueError, match="at least one piece"):
        make_model("custom", pieces=[])
    with pytest.raises(ValueError, match="start at 0"):
        make_model("custom", pieces=[(0.5, "x")])
    with pytest.raises(ValueError, match="strictly increasing"):
        make_model("custom", pieces=[(0.0, "x"), (0.0, "x")])
    for expr in (5, 0.5, True, ["x"]):
        message = re.escape(f"expr must be a string (got {expr!r})")
        with pytest.raises(ValueError, match=message):
            make_model("custom", pieces=[(0.0, "x"), (2.0, expr)])
        with pytest.raises(ValueError, match=message):
            make_custom_envelope(expr)


def test_custom_multi_piece_not_smooth():
    f = make_model(
        "custom",
        pieces=[{"from": 0.0, "expr": "2*x - x*x"}, {"from": 2.0, "expr": "0*x"}],
    )
    assert not f.smooth
    assert f.breakpoints == (2.0,)


def test_certify_custom_does_not_import_sympy(tmp_path):
    cfg = tmp_path / "custom.yaml"
    cfg.write_text('models:\n  - family: custom\n'
                   '    pieces:\n      - {from: 0.0, expr: "x*exp(1.3*(1 - x))"}\n')
    src = str(Path(__import__("envcert").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import sys; from envcert.cli import run_command; "
              f"code = run_command(['certify', {str(cfg)!r}, '--out', "
              f"{str(tmp_path / 'out.json')!r}]); "
              "print(code, 'sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


_REJECTED = [
    "__import__('os')",
    "x.real",
    "(lambda: 1)()",
    "x[0]",
    "x < 1",
    "exp(x=1)",
    "Rational(1, 3)",
]


@pytest.mark.parametrize("expr", _REJECTED)
def test_custom_rejects_disallowed_syntax(expr, tmp_path, capsys):
    with pytest.raises(ValueError, match="cannot parse expression"):
        make_model("custom", pieces=[(0.0, expr)])
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"models": [
        {"family": "custom", "pieces": [{"from": 0.0, "expr": expr}]}]}))
    assert run_command(["certify", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: models[0]: cannot parse expression" in err


def test_custom_power_derivatives_at_origin():
    # falling factorials: d/dx x**2 is exactly 0 at 0, not 0 * 0**-1
    f = make_model("custom", pieces=[(0.0, "x**2*exp(1 - x)")])
    assert f.deriv(0.0, 1) == 0.0
    assert f.deriv(0.0, 2) == pytest.approx(2 * math.e, rel=1e-15)
    assert f.deriv(0.0, 3) == pytest.approx(-6 * math.e, rel=1e-15)


# The three forms the benchmark's sweep spells out as custom maps
# (Ricker, Beverton-Holt, exponential-rational), a two-piece map,
_SWEEP_FORMS = [
    [(0.0, "x*exp(1.7*(1 - x))")],
    [(0.0, "3.0*x/(1 + 2.0*x**1.5)")],
    [(0.0, f"{1 + 0.5 * math.exp(1.2)!r}*x/(1 + 0.5*exp(1.2*x))")],
    [(0.0, "x*exp(1.2*(1 - x))"), (1.5, "2.5*x/(1 + 1.5*x**2)")],
    # and the rest of the grammar (Abs has its own test below)
    [(0.0, "2*x/(1 + sqrt(x))")],
    [(0.0, "x*(2 - log(1 + x)/log(2))")],
    [(0.0, "2.5*x/(1.5 + x**-1.5)")],
    [(0.0, "x*E**(pi*(1 - x)/2)")],
    [(0.0, "x*x**x")],
]


@pytest.mark.parametrize("pieces", _SWEEP_FORMS)
def test_custom_derivatives_match_sympy(pieces):
    x = sympy.Symbol("x")
    f = make_model("custom", pieces=pieces)
    xs = np.linspace(0.0, 3.0, 302)[1:-1]
    starts = [s for s, _ in pieces] + [np.inf]
    for order in (1, 2, 3):
        want = np.empty_like(xs)
        for (lo, text), hi in zip(pieces, starts[1:]):
            mask = (xs >= lo) & (xs < hi)
            ref = sympy.lambdify(x, sympy.diff(sympy.sympify(text), x, order), "numpy")
            want[mask] = ref(xs[mask])
        # relative to the derivative's scale where it crosses zero
        np.testing.assert_allclose(f.deriv_array(xs, order), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_custom_abs_differentiates_on_the_real_line():
    f = make_model("custom", pieces=[(0.0, "x*exp(1.5*(1 - x))*(1 + 0.1*Abs(x - 1))")])
    assert f.deriv(0.5, 1) == pytest.approx(
        fd_derivative(lambda t: f.eval_array(np.asarray([t]))[0], 0.5, 1), rel=1e-6
    )
    # d/dx Abs is sign, whose derivative DiracDelta numpy cannot evaluate
    with pytest.raises(ValueError, match="derivative of order 2 .*Abs"):
        f.deriv(0.5, 2)


def test_axioms_pass_for_ricker():
    rep = verify_population_axioms(make_model("ricker", {"r": 1.8}))
    assert rep.passed
    assert not rep.violations
    assert rep.fixed_point_residuals[0] <= 1e-12
    assert rep.tail_ok


def test_axioms_fail_for_identity():
    # g(x) = x never pushes toward the fixed point
    rep = verify_population_axioms(make_model("custom", pieces=[(0.0, "x")], x_max=2.0))
    assert not rep.passed
    axioms = {v.axiom for v in rep.violations}
    assert any("above_diagonal" in a for a in axioms)


def test_axioms_flag_nan_at_a_fixed_point():
    f = make_model("ricker", {"r": 1.5})
    for at, axiom in ((0.0, "fixes_origin"), (1.0, "fixes_one")):
        g = replace(f, _eval=lambda x, at=at: np.where(x == at, np.nan, f.eval_array(x)))
        rep = verify_population_axioms(g)
        assert axiom in {v.axiom for v in rep.violations if v.kind == "violation"}
        assert not rep.passed


def test_axioms_hold_for_overcompensating_quadratic():
    # mu = 3 is locally unstable yet still satisfies the sign axioms
    rep = verify_population_axioms(make_model("quadratic", {"mu": 3.0}))
    assert rep.passed


def test_axioms_respect_grid_config():
    cfg = GridConfig(seed_cells=512, exclusion_radius=1e-3)
    rep = verify_population_axioms(make_model("ricker", {"r": 0.5}), cfg)
    assert rep.passed


def test_model_label_and_params():
    f = make_model("beverton-holt", {"mu": 3.0, "c": 2.0})
    assert f.params == {"mu": 3.0, "c": 2.0}
    assert "beverton-holt" in f.label
    assert f.is_c1
