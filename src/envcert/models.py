"""Population-map families and the axioms that make a map a population model.

Every family fixes the origin and the point x = 1: f(0) = 0, f(1) = 1.
A map qualifies as a population model on its domain [0, x_max] when it
stays above the diagonal on (0, 1), below it past 1, and positive past 1.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .numerics import GridConfig, SignReport, adaptive_sign_check, scan_roots

__all__ = [
    "FAMILIES",
    "Interval",
    "PopulationModel",
    "AxiomViolation",
    "AxiomReport",
    "make_model",
    "verify_population_axioms",
    "check_axioms_callable",
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
    """One map of a periodic system, with closed-form derivatives.

    The callables are vectorized over numpy arrays and evaluate the raw
    formula without domain checks; eval/deriv are the checked scalar
    entry points.
    """

    family: str
    param_items: tuple
    domain: Interval
    breakpoints: tuple[float, ...] = ()
    smooth: bool = True
    _eval: Callable = field(default=None, repr=False, compare=False)
    _derivs: tuple = field(default=None, repr=False, compare=False)

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
        return f"{self.family}({args})"

    def eval(self, x: float) -> float:
        x = float(x)
        tol = 1e-12 * max(1.0, abs(x))
        if not self.domain.contains(x, tol):
            raise ValueError(
                f"x={x} outside domain [0, {self.domain.hi:g}] of {self.label}"
            )
        return float(self._eval(np.asarray([x]))[0])

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        return self._eval(np.asarray(x, dtype=float))

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
        return float(self._derivs[order - 1](np.asarray([x]))[0])

    def deriv_array(self, x: np.ndarray, order: int = 1) -> np.ndarray:
        if order not in (1, 2, 3):
            raise ValueError("order must be 1, 2, or 3")
        return self._derivs[order - 1](np.asarray(x, dtype=float))


def _const_like(value: float) -> Callable:
    def fn(x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), value)

    return fn


def _powterm(coef: float, expo: float, x: np.ndarray) -> np.ndarray:
    # 0 * x**negative would give nan; short-circuit the zero coefficient.
    if coef == 0.0:
        return np.zeros_like(x)
    with np.errstate(all="ignore"):
        return coef * np.power(x, expo)


def _rational_derivs(
    num: Callable, num_d: Sequence[Callable], den: Callable, den_d: Sequence[Callable]
) -> tuple:
    """Derivatives of N/D up to order 3 by Leibniz inversion of B*D = N."""

    def b0(x):
        return num(x) / den(x)

    def b1(x):
        d = den(x)
        b = b0(x)
        dd = den_d[0](x)
        # where the value is 0 the diverging D' term has limit 0, not nan
        # (fractional exponents put D'(0) at infinity while N(0) = 0)
        with np.errstate(invalid="ignore"):
            prod = np.where((b == 0.0) & ~np.isfinite(dd), 0.0, b * dd)
        return (num_d[0](x) - prod) / d

    def b2(x):
        d = den(x)
        return (num_d[1](x) - 2 * b1(x) * den_d[0](x) - b0(x) * den_d[1](x)) / d

    def b3(x):
        d = den(x)
        return (
            num_d[2](x)
            - 3 * b2(x) * den_d[0](x)
            - 3 * b1(x) * den_d[1](x)
            - b0(x) * den_d[2](x)
        ) / d

    return b0, (b1, b2, b3)


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


def _build_ricker(p: dict):
    r = p["r"]
    if r <= 0:
        raise ValueError(f"r must be positive (got {r:g})")

    def ex(x):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(r * (1.0 - x))

    ev = lambda x: x * ex(x)
    d1 = lambda x: ex(x) * (1.0 - r * x)
    d2 = lambda x: r * ex(x) * (r * x - 2.0)
    d3 = lambda x: r * r * ex(x) * (3.0 - r * x)
    return ev, (d1, d2, d3), (), True, None


def _build_beverton_holt(p: dict):
    mu, c = p["mu"], p["c"]
    if mu <= 1:
        raise ValueError(f"mu must exceed 1 (got {mu:g})")
    if c <= 0:
        raise ValueError(f"c must be positive (got {c:g})")
    k = mu - 1.0

    den = lambda x: 1.0 + _powterm(k, c, x)
    den_d = (
        lambda x: _powterm(k * c, c - 1, x),
        lambda x: _powterm(k * c * (c - 1), c - 2, x),
        lambda x: _powterm(k * c * (c - 1) * (c - 2), c - 3, x),
    )
    num = lambda x: mu * x
    num_d = (_const_like(mu), _const_like(0.0), _const_like(0.0))
    ev, ds = _rational_derivs(num, num_d, den, den_d)
    return ev, ds, (), True, None


def _build_quadratic(p: dict):
    mu = p["mu"]
    if mu <= 0:
        raise ValueError(f"mu must be positive (got {mu:g})")
    ev = lambda x: x * (1.0 + mu * (1.0 - x))
    d1 = lambda x: (1.0 + mu) - 2.0 * mu * x
    d2 = _const_like(-2.0 * mu)
    d3 = _const_like(0.0)
    return ev, (d1, d2, d3), (), True, 1.0 + 1.0 / mu


def _build_exponential_rational(p: dict):
    a, b = p["a"], p["b"]
    if a <= 0:
        raise ValueError(f"a must be positive (got {a:g})")
    if b <= 0:
        raise ValueError(f"b must be positive (got {b:g})")
    top = 1.0 + a * np.exp(b)

    def eb(x):
        with np.errstate(over="ignore", under="ignore"):
            return a * np.exp(b * x)

    den = lambda x: 1.0 + eb(x)
    den_d = (lambda x: b * eb(x), lambda x: b * b * eb(x), lambda x: b ** 3 * eb(x))
    num = lambda x: top * x
    num_d = (_const_like(top), _const_like(0.0), _const_like(0.0))
    ev, ds = _rational_derivs(num, num_d, den, den_d)
    return ev, ds, (), True, None


def _build_beverton_holt_harvest(p: dict):
    r, c = p["r"], p["c"]
    if r <= 1:
        raise ValueError(f"r must exceed 1 (got {r:g})")
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1) (got {c:g})")
    k = r - 1.0

    def u(x):
        return 1.0 + k * x

    ev = lambda x: r * x / u(x) - c * x * (x - 1.0)
    d1 = lambda x: r / u(x) ** 2 - c * (2.0 * x - 1.0)
    d2 = lambda x: -2.0 * r * k / u(x) ** 3 - 2.0 * c
    d3 = lambda x: 6.0 * r * k * k / u(x) ** 4
    # Positive root of c(r-1)x^2 + c(2-r)x - (c+r) = 0: the right domain
    # endpoint, where the harvested map returns to zero.
    sc = np.sqrt(c)
    hi = ((r - 2.0) * sc + np.sqrt(r * (r * (4.0 + c) - 4.0))) / (2.0 * k * sc)
    return ev, (d1, d2, d3), (), True, float(hi)


def _build_piecewise_linear_recip(p: dict):
    s, brk = p["slope"], p["brk"]
    if s <= 1:
        raise ValueError(f"slope must exceed 1 (got {s:g})")
    if not 0 < brk < 1:
        raise ValueError(f"brk must lie in (0, 1) (got {brk:g})")
    m = (1.0 - s * brk) / (1.0 - brk)
    starts = (0.0, float(brk), 1.0)
    ev = _piecewise(starts, (lambda t: s * t, lambda t: 1.0 + m * (t - 1.0), lambda t: 1.0 / t))
    d1 = _piecewise(starts, (lambda t: np.full_like(t, s), lambda t: np.full_like(t, m), lambda t: -1.0 / t ** 2))
    d2 = _piecewise(starts, (np.zeros_like, np.zeros_like, lambda t: 2.0 / t ** 3))
    d3 = _piecewise(starts, (np.zeros_like, np.zeros_like, lambda t: -6.0 / t ** 4))
    return ev, (d1, d2, d3), starts[1:], False, None


def _piecewise(starts: Sequence[float], funcs: Sequence[Callable]) -> Callable:
    """Apply funcs[k] on [starts[k], starts[k+1]); starts[0] is 0 and the
    first piece also takes x < 0.  Anything else (NaN, +inf) maps to NaN."""
    bounds = list(starts[1:]) + [np.inf]

    def fn(x):
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
# Custom expressions: a whitelisted subset of Python expression syntax.
# The value runs as compiled bytecode over numpy; derivatives come from
# truncated Taylor arithmetic on the same tree.  A series is the list
# [f, f', f''/2, f'''/6] cut after at most n terms; a shorter list ends in
# zeros, and a list of one term is a constant.

_FUNCTIONS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "Abs": np.abs}
_CONSTANTS = {"E": np.float64(np.e), "e": np.float64(np.e), "pi": np.float64(np.pi)}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_GRAMMAR = "numbers, x, E, e, pi, + - * / **, exp, log, sqrt, Abs"


def _check_expression(expr_str: str) -> tuple[ast.Expression, dict]:
    """Parse and whitelist an expression.

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
            if node.id != "x" and node.id not in _CONSTANTS:
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


def _mul(a: list, b: list, n: int) -> list:
    if len(a) == 1:
        return [a[0] * c for c in b]
    if len(b) == 1:
        return [c * b[0] for c in a]
    return [
        sum(a[i] * b[m - i] for i in range(max(0, m - len(b) + 1), min(m, len(a) - 1) + 1))
        for m in range(min(n, len(a) + len(b) - 1))
    ]


def _div(a: list, b: list, n: int) -> list:
    if len(b) == 1:
        return [c / b[0] for c in a]
    out: list = []
    for m in range(n):
        t = a[m] if m < len(a) else 0.0
        for j in range(1, min(m, len(b) - 1) + 1):
            t = t - b[j] * out[m - j]
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
    tree, namespace = _check_expression(expr_str)
    code = compile(tree, "<expression>", "eval")

    def vec(fn):
        def call(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                r = np.asarray(fn(x), dtype=float)
            if r.shape != x.shape:
                r = np.broadcast_to(r, x.shape).copy()
            return r

        return call

    kinked = any(
        isinstance(node, ast.Call) and node.func.id == "Abs"
        and any(isinstance(v, ast.Name) and v.id == "x" for v in ast.walk(node))
        for node in ast.walk(tree)
    )

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

    value = vec(lambda x: eval(code, namespace, {"x": x}))
    return value, tuple(vec(derivative(k)) for k in (1, 2, 3))


def _build_custom(pieces: Sequence) -> tuple:
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
        parsed.append((_number(start, "piece 'from'"), str(expr)))
    starts = [s for s, _ in parsed]
    if starts[0] != 0.0:
        raise ValueError("first piece must start at 0.0")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("piece starts must be strictly increasing")

    compiled = [compile_expression(expr) for _, expr in parsed]
    ev = _piecewise(starts, [value for value, _ in compiled])
    ds = tuple(_piecewise(starts, [derivs[k] for _, derivs in compiled]) for k in range(3))
    breakpoints = tuple(starts[1:])
    smooth = len(parsed) == 1
    r0 = abs(float(ev(np.asarray([0.0]))[0]))
    r1 = abs(float(ev(np.asarray([1.0]))[0]) - 1.0)
    if r0 > 1e-12 or r1 > 1e-12:
        raise ValueError(
            f"custom model must satisfy f(0)=0 and f(1)=1 "
            f"(residuals {r0:.2e}, {r1:.2e})"
        )
    return ev, ds, breakpoints, smooth, None


_BUILDERS = {
    "ricker": (_build_ricker, {"r"}),
    "beverton-holt": (_build_beverton_holt, {"mu", "c"}),
    "quadratic": (_build_quadratic, {"mu"}),
    "exponential-rational": (_build_exponential_rational, {"a", "b"}),
    "beverton-holt-harvest": (_build_beverton_holt_harvest, {"r", "c"}),
    "piecewise-linear-recip": (_build_piecewise_linear_recip, {"slope", "brk"}),
}

# Families whose natural domain is unbounded get the large-x tail check.
_UNBOUNDED = {"ricker", "beverton-holt", "exponential-rational", "piecewise-linear-recip", "custom"}


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
    if family == "custom":
        if params:
            raise ValueError("custom models take pieces, not params")
        ev, ds, breakpoints, smooth, natural_hi = _build_custom(pieces or ())
        items = (("pieces", tuple((float(s), str(e)) for s, e in
                                  ((p["from"], p["expr"]) if isinstance(p, Mapping) else p
                                   for p in pieces))),)
    else:
        if pieces:
            raise ValueError(f"{family} takes params, not pieces")
        builder, names = _BUILDERS[family]
        vals = _require_params(family, params or {}, names)
        ev, ds, breakpoints, smooth, natural_hi = builder(vals)
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
    delta_used; the last three fields are set for models only."""

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
    monotone_rise_bound: float | None = None
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


def _outcome(violations: Sequence[AxiomViolation]) -> dict:
    """The AxiomReport fields that follow from its violation list."""
    return dict(
        passed=not violations,
        definite_violation=any(v.kind == "violation" for v in violations),
        violations=tuple(violations),
    )


def check_axioms_callable(
    fn: Callable[[np.ndarray], np.ndarray],
    hi: float,
    cfg: GridConfig,
    label: str = "map",
) -> AxiomReport:
    """Population-model sign structure for a raw callable on [0, hi].

    Used both for single maps and for period compositions, at the
    exclusion radius of cfg.
    """
    delta = cfg.exclusion_radius
    violations: list[AxiomViolation] = []

    r0 = abs(float(fn(np.asarray([0.0]))[0]))
    r1 = abs(float(fn(np.asarray([1.0]))[0]) - 1.0)
    if r0 > 1e-12:
        violations.append(
            AxiomViolation("fixes_origin", "violation", 0.0, r0, f"|{label}(0)| = {r0:.3e}")
        )
    if r1 > 1e-12:
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

    return AxiomReport(
        label=label,
        **_outcome(violations),
        fixed_point_residuals=(r0, r1),
        diagonal_above=above,
        diagonal_below=below,
        positivity=positivity,
        sup_on_unit=sup_unit,
        delta_used=delta,
    )


def verify_population_axioms(
    model: PopulationModel, cfg: GridConfig | None = None
) -> AxiomReport:
    """Every population-model axiom for one map on its domain: the sign
    checks of check_axioms_callable, the large-x tail, and C^1."""
    if cfg is None:
        cfg = GridConfig()
    hi = model.domain.hi
    rep = check_axioms_callable(model._eval, hi, cfg, model.label)
    violations = list(rep.violations)

    tail_ok: bool | None = None
    if model.family in _UNBOUNDED:
        tail_ok = True
        for k in range(1, 7):
            pt = hi * 2.0 ** k
            v = float(model._eval(np.asarray([pt]))[0])
            if not (np.isfinite(v) and 0.0 <= v < pt):
                tail_ok = False
                violations.append(
                    AxiomViolation(
                        "below_diagonal_tail", "violation", pt, v,
                        f"{model.label}({pt:g}) = {v:g} not in [0, {pt:g})",
                    )
                )
    if not model.is_c1:
        violations.append(
            AxiomViolation("c1", "violation", model.breakpoints[0], None,
                           "not C^1 (breakpoints inside the domain)")
        )

    crit = scan_roots(lambda t: model.deriv_array(t, 1), (1e-9, hi), cfg.seed_cells)
    return replace(
        rep,
        **_outcome(violations),
        tail_ok=tail_ok,
        monotone_rise_bound=float(crit[0]) if crit.size else hi,
        is_c1=model.is_c1,
    )
