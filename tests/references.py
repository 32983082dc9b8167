"""Reference implementations that tests compare the package against.

The package takes every derivative from Taylor jets; these finite
differences and the pointwise Schwarzian built on them check those jets
independently.  The sign check and the envelope's outside leg are kept
here as they were before their fast paths, and the root scan as it was
before its one ascending pass, so that the package's can be held to them
bit for bit.
"""

from typing import Callable, Sequence

import numpy as np

from envcert import numerics
from envcert.numerics import SignReport, _merge_cells

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


def sign_check_cells_by_five(g, interval, claim="positive", cfg=None):
    """numerics.adaptive_sign_check with each block laid out as cells x 5
    samples, as it was before the offset-major layout, the seed grid from
    np.linspace, and every block taken through the full abs/fmin/witness
    passes, as before the all-clear test."""
    if cfg is None:
        cfg = numerics.GridConfig()
    if claim not in ("positive", "negative"):
        raise ValueError("claim must be 'positive' or 'negative'")
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"degenerate interval ({lo}, {hi})")
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


def outside_leg_masked(h, model, cfg):
    """envelopes._outside_leg with every sample masked by np.where, as
    before its all-positive test, checked by sign_check_cells_by_five."""
    delta = cfg.exclusion_radius
    hi_out = min(h.x_h, model.domain.hi)
    if not (np.isfinite(hi_out) and hi_out > 1.0 + 2 * delta):
        return None

    def gap(t):
        fv = model.eval_array(t)
        hv = h.eval_array(t)
        return np.where((fv > 0) & (hv > 0), fv - hv, np.inf)

    return sign_check_cells_by_five(gap, (1.0 + delta, hi_out), "positive", cfg)


def _crossing_at_known(g, xs, vs, crosses, known):
    """Which sign-change brackets [xs[i], xs[i + 1]], i in crosses, hold
    exactly one root s of the sorted array known, with g at s -/+
    _KNOWN_PROBE max(1, |s|), clipped to the bracket, signed like g at
    the bracket's left and right ends."""
    a, b = xs[crosses], xs[crosses + 1]
    first = np.searchsorted(known, a, side="left")
    one = np.searchsorted(known, b, side="right") - first == 1
    at_known = np.zeros(crosses.size, dtype=bool)
    if one.any():
        s = known[first[one]]
        eps = numerics._KNOWN_PROBE * np.maximum(1.0, np.abs(s))
        probes = np.concatenate([np.maximum(s - eps, a[one]), np.minimum(s + eps, b[one])])
        with np.errstate(all="ignore"):
            near = np.asarray(g(probes), dtype=float)
        at_known[one] = (near[:s.size] * vs[crosses[one]] > 0) & (
            near[s.size:] * vs[crosses[one] + 1] > 0
        )
    return at_known


def scan_roots_refiltered(
    g: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    seed_cells: int = 4096,
    *,
    values: np.ndarray | None = None,
    known: Sequence[float] = (),
    visit: Callable[[float], Sequence[float]] | None = None,
) -> np.ndarray:
    """numerics.scan_roots as it was before its one ascending pass: the
    brackets that hold one known root are filtered out before the scan,
    by one array call of g, and the remaining ones again after each root
    that visit learns from; zeros and brackets are merged by two
    pointers.  A bracket skipped once stays skipped, even when a learned
    root later joins its known one."""
    xs = numerics.scan_grid(interval, seed_cells)
    if values is None:
        with np.errstate(all="ignore"):
            values = g(xs)
    vs = np.asarray(values, dtype=float)
    zeros = np.nonzero(vs == 0.0)[0].tolist()
    fin = np.isfinite(vs)
    crosses = np.nonzero(fin[:-1] & fin[1:] & (vs[:-1] * vs[1:] < 0))[0]
    known = sorted(known)
    if known:
        crosses = crosses[~_crossing_at_known(g, xs, vs, crosses, np.asarray(known))]
    at_point = lambda t: g(np.float64(t))
    out: list[float] = []
    z = c = 0
    while z < len(zeros) or c < len(crosses):
        # the zero at xs[j] lies below the bracket [xs[i], xs[i + 1]]
        # exactly when j < i, as j is neither i nor i + 1
        if c == len(crosses) or (z < len(zeros) and zeros[z] < crosses[c]):
            r = float(xs[zeros[z]])
            z += 1
        else:
            i = crosses[c]
            r = numerics.bracketed_root(at_point, xs[i], xs[i + 1])
            c += 1
        if out and r - out[-1] <= max(10 * numerics._ROOT_TOL, 1e-9 * max(1.0, abs(r))):
            continue
        out.append(r)
        learned = visit(r) if visit is not None else ()
        if len(learned):
            known = sorted([*known, *learned])
            rest = crosses[c:]
            crosses = rest[~_crossing_at_known(g, xs, vs, rest, np.asarray(known))]
            c = 0
    return np.asarray(out)
