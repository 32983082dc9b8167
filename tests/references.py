"""Reference implementations that tests compare the package against.

The package takes every derivative from Taylor jets; these finite
differences and the pointwise Schwarzian built on them check those jets
independently.
"""

from typing import Callable

# Fourth-order central stencils.  Step sizes are chosen so that both the
# truncation term and the floating-point roundoff (which grows like
# eps/h^k) stay several digits below the advertised accuracy.
_FD_STEP = {1: 1e-5, 2: 1e-3, 3: 7e-3}


def fd_derivative(g: Callable[[float], float], x: float, order: int = 1) -> float:
    """Finite-difference derivative of g at x, orders 1 through 3."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    x = float(x)
    h = _FD_STEP[order] * max(1.0, abs(x))

    def gv(t: float) -> float:
        return float(g(t))

    if order == 1:
        num = -gv(x + 2 * h) + 8 * gv(x + h) - 8 * gv(x - h) + gv(x - 2 * h)
        return num / (12 * h)
    if order == 2:
        num = (
            -gv(x + 2 * h)
            + 16 * gv(x + h)
            - 30 * gv(x)
            + 16 * gv(x - h)
            - gv(x - 2 * h)
        )
        return num / (12 * h * h)
    d1 = gv(x + h) - gv(x - h)
    d2 = gv(x + 2 * h) - gv(x - 2 * h)
    d3 = gv(x + 3 * h) - gv(x - 3 * h)
    return (-13 * d1 + 8 * d2 - d3) / (8 * h ** 3)


def schwarzian(model, x: float) -> float:
    """f'''/f' - 1.5 (f''/f')^2 at a point, from the map's Taylor
    derivatives, one point at a time (certify's _schwarzian_array takes a
    grid)."""
    if not model.smooth:
        raise ValueError(f"Schwarzian unavailable: {model.label} is not C^3")
    d1 = model.deriv(x, 1)
    if d1 == 0.0:
        raise ValueError(f"Schwarzian undefined at critical point x={x:g}")
    d2 = model.deriv(x, 2)
    d3 = model.deriv(x, 3)
    return d3 / d1 - 1.5 * (d2 / d1) ** 2
