"""Grid-based sign verification and root finding.

Everything here is deterministic: fixed seed grids, midpoint refinement,
no randomness.  Functions passed in are expected to accept numpy arrays
and evaluate elementwise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
]

# Sample offsets inside each cell: endpoints, quartiles, midpoint.
_OFFSETS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

# Cells sampled per call of g: each of a block's sample arrays takes
# 160 KB, and the default grid of 4096 cells is one block, so g is called
# once per seed pass.  The bound still caps a check's temporaries at large
# seed_cells.  Arrays this size stay resident from one check to the next
# only under the allocator thresholds the CLI pins (cli.py); under glibc's
# defaults every check faults them in afresh (README, performance note).
_BLOCK_CELLS = 4096

# 0, 1, 2, ... as floats: the ramp _uniform_grid scales, long enough for
# the default grid of 4096 cells.
_RAMP = np.arange(4097, dtype=float)
_RAMP.flags.writeable = False


def _uniform_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """np.linspace(lo, hi, points) for points >= 2, bit for bit: linspace
    takes ramp * step + lo and sets the last point to hi.  Grids longer
    than the cached ramp, and steps that underflow to 0 (where linspace
    divides instead), go to np.linspace itself."""
    step = (hi - lo) / (points - 1)
    if points > _RAMP.size or step == 0.0:
        return np.linspace(lo, hi, points)
    grid = _RAMP[:points] * step
    grid += lo
    grid[-1] = hi
    return grid


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
        for name in ("abs_tol", "exclusion_radius"):
            v = getattr(self, name)
            if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
                raise ValueError(f"{name} must be a number (got {v!r})")
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

    negative = claim == "negative"
    edges = _uniform_grid(lo, hi, cfg.seed_cells + 1)
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
                raw = np.asarray(g(xs.reshape(-1)), dtype=float).reshape(5, -1)
            # vals is g signed so that the claim reads vals > 0
            vals = -raw if negative else raw
            # a block whose least sample clears abs_tol (NaN does not) is
            # decided whole: every cell passes and that sample is its min_abs
            least = vals.min()
            if least > cfg.abs_tol:
                min_abs = min(min_abs, float(least))
                keep[s:s + _BLOCK_CELLS] = False
                continue
            # |+-inf| never lowers min_abs below a finite sample, and a
            # block of NaN gives NaN, which min() passes over
            min_abs = min(min_abs, float(np.fmin.reduce(np.abs(vals), axis=None)))
            # -inf is vacuous like +inf; its mask is built only on a failure
            bad = vals < -cfg.abs_tol
            if bad.any() and (bad := bad & np.isfinite(vals)).any():
                # the leftmost offending sample; on a tie the earlier block's
                k = int(np.argmin(xs[bad]))
                if witness is None or xs[bad][k] < witness[0]:
                    witness = (float(xs[bad][k]), float(raw[bad][k]))
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


# Steps bracketed_root takes before it gives up with ValueError.
_MAX_ITER = 200
# Bracket width at which bracketed_root stops refining a root.
_ROOT_TOL = 1e-10
# Steps bracketed_root takes without halving its bracket before it
# bisects: each halving then costs at most _STALL + 1 steps, so a bracket
# of width 1 meets _ROOT_TOL within 34 (_STALL + 1) <= _MAX_ITER steps.
_STALL = 2
# Machine epsilon.  bracketed_root stops at a bracket of 4 _EPS |x| where
# that is wider than _ROOT_TOL (|x| above about 1.1e5): floats there lie
# too far apart for a bracket as narrow as _ROOT_TOL.
_EPS = float(np.finfo(float).eps)
# How far from a known root s scan_roots probes g, relative to max(1, |s|):
# just outside the 1e-7 within which periodic calls a root known, so a
# known state that sits off the true root by less than that still has the
# root between its probes.
_KNOWN_PROBE = 1.5e-7


def bracketed_root(g: Callable[[float], float], a: float, b: float) -> float:
    """Locate a root of g in [a, b] given a sign change at the ends.

    Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): each step is a secant or inverse quadratic
    interpolation that stays inside the bracket and shrinks fast enough,
    and a bisection otherwise, or after _STALL steps that have not halved
    the bracket.  A non-finite value is replaced by g at the bracket's
    midpoint.  Returns the bracket end with the smaller |g| once the
    bracket is narrower than _ROOT_TOL (or than 4 _EPS |x|, for |x| above
    about 1.1e5), and raises ValueError if that takes over _MAX_ITER steps.
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

    # cur is the best point so far and blk the bracket's other end; pre is
    # the point before cur, step and prev are the last two steps, and mark
    # is the bracket's width when it last halved
    pre, fpre, cur, fcur = a, fa, b, fb
    mark, stalled = b - a, 0
    for _ in range(_MAX_ITER):
        if (fpre > 0) != (fcur > 0):
            blk, fblk = pre, fpre
            step = prev = cur - pre
        if abs(fblk) < abs(fcur):
            pre, fpre = cur, fcur
            cur, fcur, blk, fblk = blk, fblk, cur, fcur
        delta = 0.5 * max(_ROOT_TOL, 4 * _EPS * abs(cur))
        width = abs(blk - cur)
        if width <= 2 * delta:
            return cur
        if width <= 0.5 * mark:
            mark, stalled = width, 0
        half = 0.5 * (blk - cur)
        s = 0.0
        if stalled < _STALL and abs(prev) > delta and abs(fcur) < abs(fpre):
            if pre == blk:
                s = -fcur * (cur - pre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (pre - cur)
                dblk = (fblk - fcur) / (blk - cur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    s = -fcur * (fblk * dblk - fpre * dpre) / den
        if s * half > 0 and 2 * abs(s) < min(abs(prev), 3 * abs(half) - delta):
            prev, step = step, s
        else:
            prev = step = half
        # a step shorter than delta moves delta, so the next bracket can
        # close on a root next to cur
        x = cur + (step if abs(step) > delta else (delta if half > 0 else -delta))
        fx = float(g(x))
        if not np.isfinite(fx):
            x = 0.5 * (cur + blk)
            fx = float(g(x))
            if not np.isfinite(fx):
                raise ValueError(f"non-finite value at {x} during refinement")
            prev = step = half
        if fx == 0.0:
            return x
        pre, fpre, cur, fcur = cur, fcur, x, fx
        stalled += 1
    raise ValueError(f"no root within {_ROOT_TOL} on [{a}, {b}] after {_MAX_ITER} steps")


def scan_grid(interval: tuple[float, float], seed_cells: int = 4096) -> np.ndarray:
    """The uniform grid scan_roots samples g on."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("need lo < hi")
    return _uniform_grid(lo, hi, max(seed_cells, 8) + 1)


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

    One ascending pass decides each zero and each bracket once, when it
    reaches it, against the roots known at that moment.  known holds
    roots of g the caller already has.  A bracket [a, b] that holds
    exactly one known root s is not refined, and gives no root, when g
    at s -/+ 1.5e-7 max(1, |s|), clipped to [a, b], has the signs of
    g(a) and g(b): the sign change is then the one across s.  Any other
    bracket may hold a further root and is refined, among them one that
    holds two known roots, even if it held only one of them earlier in
    the pass.

    visit, if given, is called with each root as soon as it is found,
    before any bracket above it is decided, and returns the roots of g
    it has learned from it (say the other points of a cycle through
    it); these join known for the rest of the pass.
    """
    xs = scan_grid(interval, seed_cells)
    if values is None:
        with np.errstate(all="ignore"):
            values = g(xs)
    vs = np.asarray(values, dtype=float)
    fin = np.isfinite(vs)
    # index i marks the zero xs[i] or the sign change on [xs[i], xs[i + 1]]:
    # a sign change has no zero at either end, so no index marks both
    marks = vs == 0.0
    marks[:-1] |= fin[:-1] & fin[1:] & (vs[:-1] * vs[1:] < 0)
    # sorted(), not np.sort or np.unique: their first call faults in
    # 0.25-1.6 MB of numpy code that no other scan needs
    known = sorted(known)
    at_point = lambda t: g(np.float64(t))
    out: list[float] = []
    for i in np.flatnonzero(marks).tolist():
        a = xs[i]
        if vs[i] == 0.0:
            r = float(a)
        else:
            b = xs[i + 1]
            first = bisect_left(known, a)
            if bisect_right(known, b) - first == 1:
                s = known[first]
                eps = _KNOWN_PROBE * max(1.0, abs(s))
                with np.errstate(all="ignore"):
                    left, right = at_point(max(s - eps, a)), at_point(min(s + eps, b))
                if left * vs[i] > 0 and right * vs[i + 1] > 0:
                    continue
            r = bracketed_root(at_point, a, b)
        if out and r - out[-1] <= max(10 * _ROOT_TOL, 1e-9 * max(1.0, abs(r))):
            continue
        out.append(r)
        if visit is not None:
            known = sorted([*known, *visit(r)])
    return np.asarray(out)
