"""Population-map families and the axioms that make a map a population model.

Every family fixes the origin and the point x = 1: f(0) = 0, f(1) = 1.
A map qualifies as a population model on its domain [0, x_max] when it
stays above the diagonal on (0, 1), below it past 1, and positive past 1.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .numerics import GridConfig, SignReport, adaptive_sign_check

__all__ = [
    "FAMILIES",
    "Interval",
    "PopulationModel",
    "AxiomViolation",
    "AxiomReport",
    "make_model",
    "verify_population_axioms",
]

FAMILIES = (
    "ricker",
    "beverton-holt",
    "quadratic",
    "exponential-rational",
    "beverton-holt-harvest",
    "piecewise-linear-recip",
    "custom",
)

_DEFAULT_X_MAX = 20.0


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval ends must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


@dataclass(frozen=True)
class PopulationModel:
    """One map of a periodic system, compiled from one formula per piece.

    The callables evaluate the raw formula and its Taylor derivatives
    without domain checks, on an array or on one point (a float, which
    gives an np.float64; see _vectorize); eval/deriv are the checked
    scalar entry points.  _natural_hi is the point where the family's map
    falls back to zero (W's end for a period map, see
    PeriodicSystem.period_map), or None for a map defined on all of [0, inf).
    """

    family: str
    param_items: tuple
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    smooth: bool = True
    _eval: Callable = field(default=None, repr=False, compare=False)
    _derivs: tuple = field(default=None, repr=False, compare=False)
    _natural_hi: float | None = field(default=None, repr=False, compare=False)

    @property
    def params(self) -> dict:
        return dict(self.param_items)

    @property
    def is_c1(self) -> bool:
        return len(self.breakpoints) == 0

    @property
    def label(self) -> str:
        if self.family == "custom":
            n = len(self.params["pieces"])
            return f"custom({n} piece{'s' if n != 1 else ''})"
        args = ", ".join(f"{k}={v:g}" for k, v in self.param_items)
        return f"{self.family}({args})" if args else self.family  # a period map

    def eval(self, x: float) -> float:
        x = float(x)
        tol = 1e-12 * max(1.0, abs(x))
        if not self.domain.contains(x, tol):
            raise ValueError(
                f"x={x} outside domain [0, {self.domain.hi:g}] of {self.label}"
            )
        return float(self._eval(x))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x)

    def deriv(self, x: float, order: int = 1) -> float:
        if order not in (1, 2, 3):
            raise ValueError("order must be 1, 2, or 3")
        x = float(x)
        if not self.domain.contains(x, 1e-12):
            raise ValueError(
                f"x={x} outside domain [0, {self.domain.hi:g}] of {self.label}"
            )
        for b in self.breakpoints:
            if abs(x - b) <= 1e-9 * max(1.0, abs(b)):
                raise ValueError(
                    f"derivative of {self.label} undefined at breakpoint x={b:g}"
                )
        if order > 1 and not self.smooth:
            raise ValueError(f"{self.label} is not C^3")
        return float(self._derivs[order - 1](x))

    def deriv_array(self, x: np.ndarray, order: int = 1) -> np.ndarray:
        if order not in (1, 2, 3):
            raise ValueError("order must be 1, 2, or 3")
        return self._derivs[order - 1](x)


def _number(value, what: str, allow_inf: bool = False) -> float:
    """value as a float.  It must be an int or a float, not a bool or a
    string, and finite, though an infinity passes when allow_inf."""
    if (
        not isinstance(value, (int, float)) or isinstance(value, bool)
        or math.isnan(value) or (math.isinf(value) and not allow_inf)
    ):
        kind = "number" if allow_inf else "finite number"
        raise ValueError(f"{what} must be a {kind} (got {value!r})")
    return float(value)


def _require_params(family: str, params, names: set[str]) -> dict:
    if not isinstance(params, Mapping):
        raise ValueError(f"{family} params must be a mapping (got {params!r})")
    got = set(params)
    if got != names:
        raise ValueError(
            f"{family} expects parameters {sorted(names)}, got {sorted(got)}"
        )
    return {k: _number(params[k], f"{family} parameter {k}") for k in names}


# Each builder checks its parameters and returns the family's map as
# pieces (start, formula in x and the parameter names) and the natural
# right endpoint of its domain, or None for a family defined on all of
# [0, inf).  A formula's order of operations fixes its values to the last
# bit, which every sign check and report reads; tests pin them.

def _build_ricker(p: dict):
    if p["r"] <= 0:
        raise ValueError(f"r must be positive (got {p['r']:g})")
    return [(0.0, "x*exp(r*(1 - x))")], None


def _build_beverton_holt(p: dict):
    if p["mu"] <= 1:
        raise ValueError(f"mu must exceed 1 (got {p['mu']:g})")
    if p["c"] <= 0:
        raise ValueError(f"c must be positive (got {p['c']:g})")
    return [(0.0, "mu*x/(1 + (mu - 1)*x**c)")], None


def _build_quadratic(p: dict):
    mu = p["mu"]
    if mu <= 0:
        raise ValueError(f"mu must be positive (got {mu:g})")
    return [(0.0, "x*(1 + mu*(1 - x))")], 1.0 + 1.0 / mu


def _build_exponential_rational(p: dict):
    if p["a"] <= 0:
        raise ValueError(f"a must be positive (got {p['a']:g})")
    if p["b"] <= 0:
        raise ValueError(f"b must be positive (got {p['b']:g})")
    return [(0.0, "(1 + a*exp(b))*x/(1 + a*exp(b*x))")], None


def _build_beverton_holt_harvest(p: dict):
    r, c = p["r"], p["c"]
    if r <= 1:
        raise ValueError(f"r must exceed 1 (got {r:g})")
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1) (got {c:g})")
    # Positive root of c(r-1)x^2 + c(2-r)x - (c+r) = 0: the right domain
    # endpoint, where the harvested map returns to zero.
    sc = np.sqrt(c)
    hi = ((r - 2.0) * sc + np.sqrt(r * (r * (4.0 + c) - 4.0))) / (2.0 * (r - 1.0) * sc)
    return [(0.0, "r*x/(1 + (r - 1)*x) - c*x*(x - 1)")], float(hi)


def _build_piecewise_linear_recip(p: dict):
    if p["slope"] <= 1:
        raise ValueError(f"slope must exceed 1 (got {p['slope']:g})")
    if not 0 < p["brk"] < 1:
        raise ValueError(f"brk must lie in (0, 1) (got {p['brk']:g})")
    return [
        (0.0, "slope*x"),
        (p["brk"], "1 + (1 - slope*brk)/(1 - brk)*(x - 1)"),
        (1.0, "1/x"),
    ], None


def _piecewise(starts: Sequence[float], funcs: Sequence[Callable]) -> Callable:
    """Apply funcs[k] on [starts[k], starts[k+1]); starts[0] is 0 and the
    first piece also takes x < 0.  Anything else (NaN, +inf) maps to NaN."""
    bounds = list(starts[1:]) + [np.inf]

    def fn(x):
        if isinstance(x, float):  # one point: only its own piece runs
            for start, hi, f in zip(starts, bounds, funcs):
                if start <= x < hi or (start == 0.0 and x < 0.0):
                    return f(x)
            return np.float64(np.nan)
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, np.nan)
        for start, hi, f in zip(starts, bounds, funcs):
            mask = (x >= start) & (x < hi)
            if start == 0.0:
                mask |= x < 0.0
            if mask.any():
                out[mask] = f(x[mask])
        return out

    return fn


# ---------------------------------------------------------------------------
# Expressions: a whitelisted subset of Python expression syntax, for
# custom pieces and for the formulas of the built-in families.  The value
# runs as compiled bytecode over numpy; derivatives come from truncated
# Taylor arithmetic on the same tree.  A series is the list
# [f, f', f''/2, f'''/6] cut after at most n terms; a shorter list ends in
# zeros, and a list of one term is a constant.

_FUNCTIONS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "Abs": np.abs}
_CONSTANTS = {"E": np.float64(np.e), "e": np.float64(np.e), "pi": np.float64(np.pi)}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_GRAMMAR = "numbers, x, E, e, pi, + - * / **, exp, log, sqrt, Abs"


def _check_expression(expr_str: str, names: tuple[str, ...] = ()) -> tuple[ast.Expression, dict]:
    """Parse and whitelist an expression in x and the parameter names.

    Returns the checked tree, in which every number is a name bound to a
    float64 in the returned namespace (so arithmetic on constants follows
    numpy's error state instead of raising), and that namespace.
    """
    def fail(reason) -> ValueError:
        return ValueError(f"cannot parse expression {expr_str!r}: {reason}")

    namespace: dict = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS}
    unknown: set[str] = set()

    def check(node: ast.AST) -> ast.AST:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            name = f"_k{len(namespace)}"
            try:
                namespace[name] = np.float64(node.value)
            except OverflowError as exc:
                raise fail(exc) from exc
            return ast.Name(name, ast.Load())
        if isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
            if node.id != "x" and node.id not in _CONSTANTS and node.id not in names:
                unknown.add(node.id)
            return node
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            return ast.UnaryOp(node.op, check(node.operand))
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            return ast.BinOp(check(node.left), node.op, check(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1
                and not node.keywords and not isinstance(node.args[0], ast.Starred)):
            return ast.Call(node.func, [check(node.args[0])], [])
        raise fail(f"{ast.unparse(node)!r} is not allowed (use {_GRAMMAR})")

    try:
        tree = ast.Expression(check(ast.parse(expr_str.strip(), mode="eval").body))
    except (SyntaxError, RecursionError) as exc:
        raise fail(exc) from exc
    if unknown:
        names = ", ".join(sorted(unknown))
        raise ValueError(f"expression {expr_str!r} uses unknown symbols: {names}")
    return ast.fix_missing_locations(tree), namespace


def _add(a: list, b: list, sign: float) -> list:
    out = []
    for i in range(max(len(a), len(b))):
        if i >= len(b):
            out.append(a[i])
        elif i >= len(a):
            out.append(sign * b[i])
        else:
            out.append(a[i] + b[i] if sign > 0 else a[i] - b[i])
    return out


def _zero_times_slope(a: list, b: list):
    """a0 b1 in the first derivative of a product.  Where a0 is 0 and b0
    finite, a diverging b1 has limit 0 in a b', not nan: a fractional
    power puts b'(0) at infinity (x*exp(1.5*(1 - x**0.5)) at 0)."""
    return np.where((a[0] == 0.0) & np.isfinite(b[0]) & ~np.isfinite(b[1]), 0.0, a[0] * b[1])


def _mul(a: list, b: list, n: int) -> list:
    if len(a) == 1:
        return [a[0] * c for c in b]
    if len(b) == 1:
        return [c * b[0] for c in a]
    out = [
        sum(a[i] * b[m - i] for i in range(max(0, m - len(b) + 1), min(m, len(a) - 1) + 1))
        for m in range(min(n, len(a) + len(b) - 1))
    ]
    if n > 1:
        # sum() as above, so that -0.0 + -0.0 still gives 0.0
        out[1] = sum((_zero_times_slope(a, b), _zero_times_slope(b, a)))
    return out


def _div(a: list, b: list, n: int) -> list:
    if len(b) == 1:
        return [c / b[0] for c in a]
    out: list = []
    for m in range(n):
        t = a[m] if m < len(a) else 0.0
        for j in range(1, min(m, len(b) - 1) + 1):
            bq = b[j] * out[m - j]
            if m == 1:
                # where the quotient is 0, a diverging b' has limit 0 in
                # b'q, not nan: a fractional power puts b'(0) at infinity
                # while the numerator vanishes (3*x/(1 + 2*x**0.5) at 0)
                bq = np.where((out[0] == 0.0) & ~np.isfinite(b[1]), 0.0, bq)
            t = t - bq
        out.append(t / b[0])
    return out


def _chain(g: list, a: list, n: int) -> list:
    """Series of F(a) from g[m] = F^(m)(a[0]) / m!, for n <= 4 (Faa di Bruno)."""
    a1 = a[1]
    out = [g[0], g[1] * a1]
    if n > 2:
        t = g[2] * a1 * a1
        out.append(g[1] * a[2] + t if len(a) > 2 else t)
    if n > 3:
        t = g[3] * a1 * a1 * a1
        if len(a) > 2:
            t = t + 2.0 * g[2] * a1 * a[2]
        if len(a) > 3:
            t = t + g[1] * a[3]
        out.append(t)
    return out


def _power(a: list, c, n: int) -> list:
    """a**c for a constant c: g[m] = c(c-1)...(c-m+1)/m! * a0**(c-m).

    A coefficient whose falling factorial vanishes is exactly 0, so x**2
    has the derivative 0 at 0 instead of 0 * 0**-1.
    """
    g, coef = [], 1.0
    for m in range(n):
        g.append(coef * a[0] ** (c - m) if coef != 0.0 else 0.0)
        coef *= (c - m) / (m + 1)
    return _chain(g, a, n)


def _call(name: str, a: list, n: int) -> list:
    a0 = a[0]
    if len(a) == 1:
        return [_FUNCTIONS[name](a0)]
    if name == "sqrt":
        return _power(a, 0.5, n)
    if name == "exp":
        e = np.exp(a0)
        g = [e, e, e / 2.0, e / 6.0]
    elif name == "log":
        inv = 1.0 / a0
        g = [np.log(a0), inv, -0.5 * inv * inv, inv * inv * inv / 3.0]
    else:  # Abs; compile_expression refuses orders above 1
        g = [np.abs(a0), np.sign(a0)]
    return _chain(g, a, n)


def _taylor(node: ast.AST, x: np.ndarray, n: int, namespace: dict) -> list:
    """The first n Taylor coefficients of a checked tree at x."""
    if isinstance(node, ast.Name):
        return [x, 1.0] if node.id == "x" else [namespace[node.id]]
    if isinstance(node, ast.UnaryOp):
        a = _taylor(node.operand, x, n, namespace)
        return a if isinstance(node.op, ast.UAdd) else [-c for c in a]
    if isinstance(node, ast.Call):
        return _call(node.func.id, _taylor(node.args[0], x, n, namespace), n)
    a = _taylor(node.left, x, n, namespace)
    b = _taylor(node.right, x, n, namespace)
    op = type(node.op)
    if op is ast.Add:
        return _add(a, b, 1.0)
    if op is ast.Sub:
        return _add(a, b, -1.0)
    if op is ast.Mult:
        return _mul(a, b, n)
    if op is ast.Div:
        return _div(a, b, n)
    if len(b) == 1:
        return _power(a, b[0], n) if len(a) > 1 else [a[0] ** b[0]]
    # a**b = exp(b log a) when the exponent depends on x
    return _call("exp", _mul(b, _call("log", a, n), n), n)


def _has_x(node: ast.AST) -> bool:
    return any(isinstance(v, ast.Name) and v.id == "x" for v in ast.walk(node))


_POINT_POWERS = {"_pow": np.power, "_pow_x": lambda a, b: np.power(a, np.full(1, b))[0]}


def _point_tree(node: ast.AST) -> ast.AST:
    """A checked tree to run with x an np.float64, giving the bits that
    the tree gives on an array.  +, -, *, / round alike on scalars and
    arrays, and exp, log, sqrt and Abs run the same ufunc loop.  But
    np.float64 ** np.float64 is libm's pow, which rounds some values apart
    from numpy's power loop, so each power of x calls _POINT_POWERS.  The
    loop takes fast paths (sqrt for 0.5, square for 2) for a scalar
    exponent, as on a grid when the exponent is a constant; an exponent in
    x goes in as a one-element array, as on a grid, where it is an array."""
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, _point_tree(node.operand))
    if isinstance(node, ast.Call):
        return ast.Call(node.func, [_point_tree(node.args[0])], [])
    if not isinstance(node, ast.BinOp):
        return node
    left, right = _point_tree(node.left), _point_tree(node.right)
    if isinstance(node.op, ast.Pow) and _has_x(node):
        power = "_pow_x" if _has_x(node.right) else "_pow"
        return ast.Call(ast.Name(power, ast.Load()), [left, right], [])
    return ast.BinOp(left, node.op, right)


def _vectorize(fn: Callable, at_point: Callable | None = None) -> Callable:
    """fn over arrays, silent on floating-point errors.  A point (a float)
    goes to at_point as an np.float64, or without one to fn as a
    one-element array.  A point skips the ufunc and array overhead of a
    one-element array, and gives the bits an array does: see _point_tree."""
    def call(x):
        if isinstance(x, float):
            if at_point is None:
                return call(np.full(1, x))[0]
            with np.errstate(all="ignore"):
                return at_point(np.float64(x))
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            r = np.asarray(fn(x), dtype=float)
        if r.shape != x.shape:
            r = np.broadcast_to(r, x.shape).copy()
        return r

    return call


def _compiler(expr_str: str, names: tuple[str, ...] = ()) -> Callable:
    """Parse and check an expression in x and the parameter names once.

    Returns bind(values), which gives the (eval, (d1, d2, d3)) of
    compile_expression with each name bound to its value.
    """
    tree, constants = _check_expression(expr_str, names)
    code = compile(tree, "<expression>", "eval")
    point_tree = ast.fix_missing_locations(ast.Expression(_point_tree(tree.body)))
    point_code = compile(point_tree, "<expression>", "eval")

    kinked = any(isinstance(node, ast.Call) and node.func.id == "Abs" and _has_x(node)
                 for node in ast.walk(tree))

    def bind(values: Mapping) -> tuple:
        namespace = {**constants, **{k: np.float64(v) for k, v in values.items()}}
        point_namespace = {**namespace, **_POINT_POWERS}

        def derivative(k: int):
            if k > 1 and kinked:
                def refuse(x):
                    raise ValueError(
                        f"cannot compile derivative of order {k} of expression "
                        f"{expr_str!r}: Abs has no derivative of order 2"
                    )

                return refuse
            scale = float(math.factorial(k))

            def deriv(x):
                s = _taylor(tree.body, x, k + 1, namespace)
                return scale * s[k] if len(s) > k else 0.0

            return deriv

        value = _vectorize(lambda x: eval(code, namespace, {"x": x}),
                           lambda x: eval(point_code, point_namespace, {"x": x}))
        # a derivative takes a point as a one-element array: on a 0-d
        # value, _taylor's powers a0 ** (c - m) would be libm's pow
        return value, tuple(_vectorize(derivative(k)) for k in (1, 2, 3))

    return bind


# The built-in families' formulas are constants, so each is parsed once
# per process and every model of the family binds its own parameters.
_family_compiler = functools.cache(_compiler)


def compile_expression(expr_str: str):
    """Compile a one-variable expression string to vectorized callables.

    Returns (eval, (d1, d2, d3)) where each callable maps arrays to
    arrays.  The expression may use numbers, the variable x, the
    constants E (or e) and pi, unary + and -, binary + - * / **, and
    one-argument calls to exp, log, sqrt and Abs; anything else raises
    ValueError.  Derivative k evaluates k + 1 Taylor coefficients, so d1
    never pays for d2 or d3.  Abs has no second derivative: d2 and d3 of
    an expression with Abs of x raise ValueError naming the order.
    """
    if not isinstance(expr_str, str):
        raise ValueError(f"expr must be a string (got {expr_str!r})")
    return _compiler(expr_str)({})


def _build_custom(pieces: Sequence, params: Mapping | None = None) -> tuple:
    """(eval, derivs, breakpoints, smooth, parsed) of a map given as pieces
    (start, expression), parsed being the checked (start, expression)
    pairs; params, when given, binds the names of a family formula."""
    if not isinstance(pieces, (list, tuple)):
        raise ValueError(f"pieces must be a list (got {pieces!r})")
    if not pieces:
        raise ValueError("custom model needs at least one piece")
    parsed: list[tuple[float, str]] = []
    for item in pieces:
        start = expr = None
        if isinstance(item, Mapping):
            start, expr = item.get("from"), item.get("expr")
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            start, expr = item
        if start is None or expr is None:
            raise ValueError("each piece needs 'from' and 'expr'")
        parsed.append((_number(start, "piece 'from'"), expr))
    starts = [s for s, _ in parsed]
    if starts[0] != 0.0:
        raise ValueError("first piece must start at 0.0")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("piece starts must be strictly increasing")

    if params is None:
        compiled = [compile_expression(expr) for _, expr in parsed]
    else:
        names = tuple(sorted(params))
        compiled = [_family_compiler(expr, names)(params) for _, expr in parsed]
    if len(compiled) == 1:
        ev, ds = compiled[0]
    else:
        ev = _piecewise(starts, [value for value, _ in compiled])
        ds = tuple(_piecewise(starts, [derivs[k] for _, derivs in compiled]) for k in range(3))
    r0 = abs(float(ev(0.0)))
    r1 = abs(float(ev(1.0)) - 1.0)
    if not (r0 <= 1e-12 and r1 <= 1e-12):  # so that a NaN residual fails
        raise ValueError(
            f"custom model must satisfy f(0)=0 and f(1)=1 "
            f"(residuals {r0:.2e}, {r1:.2e})"
        )
    return ev, ds, tuple(starts[1:]), len(parsed) == 1, tuple(parsed)


_BUILDERS = {
    "ricker": (_build_ricker, {"r"}),
    "beverton-holt": (_build_beverton_holt, {"mu", "c"}),
    "quadratic": (_build_quadratic, {"mu"}),
    "exponential-rational": (_build_exponential_rational, {"a", "b"}),
    "beverton-holt-harvest": (_build_beverton_holt_harvest, {"r", "c"}),
    "piecewise-linear-recip": (_build_piecewise_linear_recip, {"slope", "brk"}),
}


def make_model(
    family: str,
    params: Mapping | None = None,
    x_max: float | None = None,
    pieces: Sequence | None = None,
) -> PopulationModel:
    """Construct a model of a named family with validated parameters."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    if x_max is not None:
        x_max = _number(x_max, "x_max")
    # only None is absent: pieces=[] on a ricker or params={} on a custom
    # map is a misplaced key, not a missing one
    if family == "custom":
        if params is not None:
            raise ValueError(f"custom models take pieces, not params (got params {params!r})")
        ev, ds, breakpoints, smooth, parsed = _build_custom(() if pieces is None else pieces)
        natural_hi = None
        items = (("pieces", parsed),)
    else:
        if pieces is not None:
            raise ValueError(f"{family} takes params, not pieces (got pieces {pieces!r})")
        builder, names = _BUILDERS[family]
        vals = _require_params(family, {} if params is None else params, names)
        formula, natural_hi = builder(vals)
        ev, ds, breakpoints, smooth, _ = _build_custom(formula, vals)
        items = tuple(sorted(vals.items()))

    if natural_hi is not None:
        hi = natural_hi
        if x_max is not None:
            if not 0 < x_max <= natural_hi + 1e-12:
                raise ValueError(
                    f"x_max for {family} cannot exceed its natural endpoint {natural_hi:g}"
                )
            hi = x_max
    else:
        hi = x_max if x_max is not None else _DEFAULT_X_MAX
        if hi <= 1.0:
            raise ValueError("x_max must exceed 1")

    return PopulationModel(
        family=family,
        param_items=items,
        domain=Interval(0.0, hi),
        breakpoints=breakpoints,
        smooth=smooth,
        _eval=ev,
        _derivs=ds,
        _natural_hi=natural_hi,
    )


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    kind: str  # "violation" | "unresolved"
    x: float | None
    value: float | None
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    """The axiom checks of one map or period map at exclusion radius
    delta_used; tail_ok is None where the large-x tail is not checked, on
    a domain that ends at a natural endpoint, as a period map's does."""

    label: str
    passed: bool
    definite_violation: bool
    violations: tuple[AxiomViolation, ...]
    fixed_point_residuals: tuple[float, float]
    diagonal_above: SignReport | None
    diagonal_below: SignReport | None
    positivity: SignReport | None
    sup_on_unit: float
    delta_used: float
    tail_ok: bool | None = None
    is_c1: bool | None = None

    @property
    def unresolved(self) -> tuple[tuple[float, float], ...]:
        """The intervals the sign checks left undecided."""
        legs = (self.diagonal_above, self.diagonal_below, self.positivity)
        return tuple(iv for r in legs if r is not None for iv in r.unresolved)


def _collect(report: SignReport | None, axiom: str, out: list[AxiomViolation]) -> None:
    if report is None or report.ok:
        return
    if report.status == "violation":
        out.append(
            AxiomViolation(
                axiom=axiom,
                kind="violation",
                x=report.witness,
                value=report.witness_value,
                detail=f"{axiom} fails at x={report.witness:.9g}",
            )
        )
    else:
        for a, b in report.unresolved:
            out.append(
                AxiomViolation(
                    axiom=axiom,
                    kind="unresolved",
                    x=0.5 * (a + b),
                    value=None,
                    detail=f"{axiom} undecided on ({a:.9g}, {b:.9g})",
                )
            )


def verify_population_axioms(
    model: PopulationModel, cfg: GridConfig | None = None
) -> AxiomReport:
    """Every population-model axiom for a map or a period map on its
    domain [0, hi], at the exclusion radius of cfg: the fixed points 0
    and 1, the sign structure against the diagonal, positivity past 1,
    finite values on [0, 1], the large-x tail (for a map defined on all
    of [0, inf)) and C^1."""
    if cfg is None:
        cfg = GridConfig()
    fn, hi, label = model._eval, model.domain.hi, model.label
    delta = cfg.exclusion_radius
    violations: list[AxiomViolation] = []

    r0 = abs(float(fn(0.0)))
    r1 = abs(float(fn(1.0)) - 1.0)
    if not r0 <= 1e-12:  # so that a NaN residual fails
        violations.append(
            AxiomViolation("fixes_origin", "violation", 0.0, r0, f"|{label}(0)| = {r0:.3e}")
        )
    if not r1 <= 1e-12:
        violations.append(
            AxiomViolation("fixes_one", "violation", 1.0, r1, f"|{label}(1) - 1| = {r1:.3e}")
        )

    above = adaptive_sign_check(
        lambda t: fn(t) - t, (delta, 1.0 - delta), "positive", cfg
    )
    _collect(above, "above_diagonal_on_(0,1)", violations)

    below = None
    positivity = None
    if hi > 1.0 + 2 * delta:
        below = adaptive_sign_check(
            lambda t: fn(t) - t, (1.0 + delta, hi), "negative", cfg
        )
        _collect(below, "below_diagonal_past_1", violations)
        # Sign-strict: population values may decay below any fixed margin
        # while remaining positive, so the acceptance threshold is 0 here.
        positivity = adaptive_sign_check(
            fn, (1.0 + delta, hi - delta), "positive", replace(cfg, abs_tol=0.0)
        )
        _collect(positivity, "positive_past_1", violations)

    grid = np.linspace(0.0, 1.0, 2049)
    vals = np.asarray(fn(grid), dtype=float)
    sup_unit = float(np.nanmax(vals))
    if not np.isfinite(vals).all():
        bad = grid[~np.isfinite(vals)][0]
        violations.append(
            AxiomViolation("finite_on_unit", "violation", float(bad), None,
                           f"{label} not finite at x={bad:.6g}")
        )

    tail_ok: bool | None = None
    if model._natural_hi is None:
        tail_ok = True
        for k in range(1, 7):
            pt = hi * 2.0 ** k
            v = float(fn(pt))
            if not (np.isfinite(v) and 0.0 <= v < pt):
                tail_ok = False
                violations.append(
                    AxiomViolation(
                        "below_diagonal_tail", "violation", pt, v,
                        f"{label}({pt:g}) = {v:g} not in [0, {pt:g})",
                    )
                )
    if not model.is_c1:
        violations.append(
            AxiomViolation("c1", "violation", model.breakpoints[0], None,
                           "not C^1 (breakpoints inside the domain)")
        )

    return AxiomReport(
        label=label,
        passed=not violations,
        definite_violation=any(v.kind == "violation" for v in violations),
        violations=tuple(violations),
        fixed_point_residuals=(r0, r1),
        diagonal_above=above,
        diagonal_below=below,
        positivity=positivity,
        sup_on_unit=sup_unit,
        delta_used=delta,
        tail_ok=tail_ok,
        is_c1=model.is_c1,
    )
