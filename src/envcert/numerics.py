"""Grid-based sign verification, root finding, and finite differences.

Everything here is deterministic: fixed seed grids, midpoint refinement,
no randomness.  Functions passed in are expected to accept numpy arrays
and evaluate elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridConfig",
    "tangency_ladder",
    "SignReport",
    "adaptive_sign_check",
    "bracketed_root",
    "scan_grid",
    "scan_roots",
    "fd_derivative",
]

# Sample offsets inside each cell: endpoints, quartiles, midpoint.
_OFFSETS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

# Cells sampled per call of g.  A block's sample arrays stay at 80 KB,
# under glibc's 128 KB mmap threshold.  Whole 4096-cell arrays (160 KB)
# made glibc return the freed heap top to the kernel after every check in
# some heap layouts, so each check faulted its temporaries in afresh:
# 33k minor faults and ~70 ms of system time per certify call that runs
# the Moebius fit, measured on a 2-vCPU VM with Python 3.11.
_BLOCK_CELLS = 2048


@dataclass(frozen=True)
class GridConfig:
    """Resolution and tolerance knobs shared by all grid-based checks."""

    seed_cells: int = 4096
    max_refinement_depth: int = 12
    abs_tol: float = 1e-9
    exclusion_radius: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("seed_cells", "max_refinement_depth"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer (got {v!r})")
        if self.seed_cells < 1:
            raise ValueError("seed_cells must be at least 1")
        # the sign checks and cycle scans hold seed_cells + 1 points per
        # grid; keep them to tens of MB
        if self.seed_cells > 2**20:
            raise ValueError(f"seed_cells must be at most {2**20} (got {self.seed_cells})")
        if not 0 <= self.max_refinement_depth <= 30:
            raise ValueError("max_refinement_depth must lie in [0, 30]")
        # written so that NaN fails too: every comparison with it is False
        if not 0 <= self.abs_tol < np.inf:
            raise ValueError("tolerances must be finite and nonnegative")
        if not 0 < self.exclusion_radius < 0.5:
            raise ValueError("exclusion_radius must lie in (0, 0.5)")


# Exclusion radii tried in turn when the only failures are undecided
# cells hugging a fixed point (tangency at x = 1 shrinks margins below
# any absolute tolerance).
_DELTA_LADDER = (1e-3, 1e-2)
_NEAR = 0.05  # how close to 0 or 1 an undecided cell must sit to retry


def _near_fixed_points_only(intervals: tuple[tuple[float, float], ...]) -> bool:
    return bool(intervals) and all(
        (1.0 - _NEAR <= a and b <= 1.0 + _NEAR) or b <= _NEAR for a, b in intervals
    )


def tangency_ladder(check: Callable[[GridConfig], tuple], cfg: GridConfig) -> tuple:
    """Run a check at cfg's exclusion radius, then at each larger one.

    check(cfg) returns (result, passed, definite, unresolved): whether the
    check passed, whether its failure is a definite violation, and the
    intervals it left undecided.  The ladder stops at a pass, at a
    violation and at undecided cells that are not all within _NEAR of 0
    or 1.  It returns (result, failure, exclusion radius) of the last
    rung run, where failure is None for a pass, else "violation" or
    "unresolved".
    """
    rungs = [cfg.exclusion_radius] + [d for d in _DELTA_LADDER if d > cfg.exclusion_radius]
    for delta in rungs:
        result, passed, definite, unresolved = check(replace(cfg, exclusion_radius=delta))
        failure = None if passed else "violation" if definite else "unresolved"
        if failure != "unresolved" or not _near_fixed_points_only(unresolved):
            break
    return result, failure, delta


@dataclass(frozen=True)
class SignReport:
    """Outcome of an adaptive sign check on one interval.

    status is one of "all_positive", "all_negative", "violation",
    "unresolved".  A violation carries the leftmost offending sample.
    Unresolved intervals are the merged cells that could not be decided
    at the maximum refinement depth.
    """

    status: str
    claim: str
    interval: tuple[float, float]
    cells_checked: int
    min_abs_value: float
    witness: float | None = None
    witness_value: float | None = None
    unresolved: tuple[tuple[float, float], ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("all_positive", "all_negative")


def _merge_cells(los: np.ndarray, his: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Merge cells (lo <= hi) into intervals, bridging gaps of at most
    1e-12 * max(1, |lo|).  Sorted by lo, the running maximum of the cell
    ends is the end of the interval built so far."""
    if los.size == 0:
        return ()
    order = np.argsort(los, kind="stable")
    los, his = los[order], his[order]
    reach = np.maximum.accumulate(his)
    new = np.ones(los.size, dtype=bool)
    new[1:] = los[1:] - reach[:-1] > 1e-12 * np.maximum(1.0, np.abs(los[1:]))
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], los.size) - 1
    return tuple(zip(los[starts].tolist(), reach[ends].tolist()))


def adaptive_sign_check(
    g: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    claim: str = "positive",
    cfg: GridConfig | None = None,
) -> SignReport:
    """Verify that g keeps one strict sign on an open interval.

    Each cell is sampled at five points; a cell is accepted when every
    sample clears abs_tol with the claimed sign, and the whole check
    fails as soon as some sample contradicts the claim by more than
    abs_tol.  Undecided cells (including NaN evaluations) are bisected
    up to max_refinement_depth, then reported as unresolved.
    """
    if cfg is None:
        cfg = GridConfig()
    if claim not in ("positive", "negative"):
        raise ValueError("claim must be 'positive' or 'negative'")
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"degenerate interval ({lo}, {hi})")

    sgn = 1.0 if claim == "positive" else -1.0
    edges = np.linspace(lo, hi, cfg.seed_cells + 1)
    cell_lo, cell_hi = edges[:-1], edges[1:]
    cells_checked = 0
    min_abs = np.inf
    unresolved: tuple[tuple[float, float], ...] = ()

    for depth in range(cfg.max_refinement_depth + 1):
        n = cell_lo.size
        if n == 0:
            break
        cells_checked += n
        keep = np.empty(n, dtype=bool)
        witness = None
        for s in range(0, n, _BLOCK_CELLS):
            b_lo, b_hi = cell_lo[s:s + _BLOCK_CELLS], cell_hi[s:s + _BLOCK_CELLS]
            # offset-major: row j holds every cell's j-th sample, so each
            # reduction over a cell's five samples runs along whole rows
            xs = b_lo + (b_hi - b_lo) * _OFFSETS[:, None]
            with np.errstate(all="ignore"):
                vals = sgn * np.asarray(g(xs.reshape(-1)), dtype=float).reshape(5, -1)
            # |+-inf| never lowers min_abs below a finite sample, and a
            # block of NaN gives NaN, which min() passes over
            min_abs = min(min_abs, float(np.fmin.reduce(np.abs(vals), axis=None)))
            # -inf is vacuous like +inf; its mask is built only on a failure
            bad = vals < -cfg.abs_tol
            if bad.any() and (bad := bad & np.isfinite(vals)).any():
                # the leftmost offending sample; on a tie the earlier block's
                k = int(np.argmin(xs[bad]))
                if witness is None or xs[bad][k] < witness[0]:
                    witness = (float(xs[bad][k]), float(sgn * vals[bad][k]))
            # +inf satisfies the claim (masked/vacuous samples); NaN does not.
            keep[s:s + _BLOCK_CELLS] = ~np.logical_and.reduce(vals > cfg.abs_tol, axis=0)
        if witness is not None:
            return SignReport(
                status="violation",
                claim=claim,
                interval=(lo, hi),
                cells_checked=cells_checked,
                min_abs_value=min_abs,
                witness=witness[0],
                witness_value=witness[1],
            )
        if not keep.any():
            cell_lo = cell_lo[:0]
            break
        # isolated tangencies keep only a handful of cells alive per
        # depth; a margin that is undecided across a whole band would
        # double the work every level for nothing, so give up on it
        if depth == cfg.max_refinement_depth or int(keep.sum()) > 2 * cfg.seed_cells:
            unresolved = _merge_cells(cell_lo[keep], cell_hi[keep])
            break
        mid = 0.5 * (cell_lo[keep] + cell_hi[keep])
        cell_lo = np.concatenate([cell_lo[keep], mid])
        cell_hi = np.concatenate([mid, cell_hi[keep]])
        order = np.argsort(cell_lo, kind="stable")
        cell_lo, cell_hi = cell_lo[order], cell_hi[order]

    if unresolved:
        status = "unresolved"
    else:
        status = "all_positive" if claim == "positive" else "all_negative"
    return SignReport(
        status=status,
        claim=claim,
        interval=(lo, hi),
        cells_checked=cells_checked,
        min_abs_value=min_abs,
        unresolved=unresolved,
    )


# Secant/bisection steps bracketed_root takes before returning the midpoint.
_MAX_ITER = 200
# Bracket width at which bracketed_root stops refining a root.
_ROOT_TOL = 1e-10
# How far from a known root s scan_roots probes g, relative to max(1, |s|):
# just outside the 1e-7 within which periodic calls a root known, so a
# known state that sits off the true root by less than that still has the
# root between its probes.
_KNOWN_PROBE = 1.5e-7


def bracketed_root(g: Callable[[float], float], a: float, b: float) -> float:
    """Locate a root of g in [a, b] given a sign change at the ends.

    Alternates secant proposals with bisection so the bracket width is
    guaranteed to shrink; returns the bracket midpoint once it is
    narrower than _ROOT_TOL.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError("need a < b")
    fa, fb = float(g(a)), float(g(b))
    if not (np.isfinite(fa) and np.isfinite(fb)):
        raise ValueError("bracket endpoints evaluate non-finite")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise ValueError(f"no sign change on [{a}, {b}]")

    use_secant = True
    for _ in range(_MAX_ITER):
        if b - a <= _ROOT_TOL:
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
            if not np.isfinite(fx):
                raise ValueError(f"non-finite value at {x} during refinement")
        if fx == 0.0:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        use_secant = not use_secant
    return 0.5 * (a + b)


def _crossing_at_known(
    g: Callable[[np.ndarray], np.ndarray],
    xs: np.ndarray,
    vs: np.ndarray,
    crosses: np.ndarray,
    known: np.ndarray,
) -> np.ndarray:
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
        eps = _KNOWN_PROBE * np.maximum(1.0, np.abs(s))
        probes = np.concatenate([np.maximum(s - eps, a[one]), np.minimum(s + eps, b[one])])
        with np.errstate(all="ignore"):
            near = np.asarray(g(probes), dtype=float)
        at_known[one] = (near[:s.size] * vs[crosses[one]] > 0) & (
            near[s.size:] * vs[crosses[one] + 1] > 0
        )
    return at_known


def scan_grid(interval: tuple[float, float], seed_cells: int = 4096) -> np.ndarray:
    """The uniform grid scan_roots samples g on."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("need lo < hi")
    return np.linspace(lo, hi, max(seed_cells, 8) + 1)


def scan_roots(
    g: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    seed_cells: int = 4096,
    *,
    values: np.ndarray | None = None,
    known: Sequence[float] = (),
    visit: Callable[[float], Sequence[float]] | None = None,
) -> np.ndarray:
    """All sign-change roots of g on an interval, one per bracket.

    Samples g on scan_grid(interval, seed_cells), refines each
    sign-change bracket with bracketed_root on g at one point (an
    np.float64), keeps exact zeros at grid points, and merges duplicates.
    Roots where g touches zero without changing sign are not detected.
    values, if given, holds g on that grid, so a caller that has them
    already saves the evaluation.

    known holds roots of g the caller already has.  A bracket [a, b]
    that holds exactly one known root s is not refined, and gives no
    root, when g at s -/+ 1.5e-7 max(1, |s|), clipped to [a, b], has the
    signs of g(a) and g(b): the sign change is then the one across s.
    Any other bracket may hold a further root and is refined.

    Roots are found in ascending order.  visit, if given, is called with
    each root as soon as it is found, before any bracket above it is
    refined, and returns the roots of g it has learned from it (say the
    other points of a cycle through it); these join known, so the
    brackets still to come that hold one of them alone are skipped.
    """
    xs = scan_grid(interval, seed_cells)
    if values is None:
        with np.errstate(all="ignore"):
            values = g(xs)
    vs = np.asarray(values, dtype=float)
    zeros = np.nonzero(vs == 0.0)[0].tolist()
    fin = np.isfinite(vs)
    crosses = np.nonzero(fin[:-1] & fin[1:] & (vs[:-1] * vs[1:] < 0))[0]
    # sorted(), not np.sort or np.unique: their first call faults in
    # 0.25-1.6 MB of numpy code that no other scan needs
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
            r = bracketed_root(at_point, xs[i], xs[i + 1])
            c += 1
        if out and r - out[-1] <= max(10 * _ROOT_TOL, 1e-9 * max(1.0, abs(r))):
            continue
        out.append(r)
        learned = visit(r) if visit is not None else ()
        if len(learned):
            known = sorted([*known, *learned])
            rest = crosses[c:]
            crosses = rest[~_crossing_at_known(g, xs, vs, rest, np.asarray(known))]
            c = 0
    return np.asarray(out)


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

