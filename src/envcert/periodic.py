"""Periodic composition of population maps.

A p-periodic system applies maps f_0, ..., f_{p-1} cyclically.  The
period map from phase i is Phi_p^i = f_{i+p-1} o ... o f_i; orbits and
cycles below always refer to these compositions on a working interval
W = [0, m] that the construction verifies is forward-invariant and
chains through every map's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .models import Interval, PopulationModel, _chain
from .numerics import GridConfig, scan_grid, scan_roots

__all__ = [
    "PeriodicSystem",
    "make_system",
    "compose_array",
    "iterate_orbit",
    "GeometricCycle",
    "cycle_grid",
    "phase_cycles",
    "find_geometric_cycles",
]

@dataclass(frozen=True)
class PeriodicSystem:
    maps: tuple[PopulationModel, ...]
    period: int
    working_interval: Interval

    @property
    def label(self) -> str:
        return " | ".join(m.label for m in self.maps)

    @cached_property
    def period_map(self) -> PopulationModel:
        """Phi = f_{p-1} o ... o f_0 as a model on W labelled "composition":
        compose_array's values, derivatives by the chain rule, a breakpoint
        wherever a partial orbit meets a map's breakpoint, and W's end as its
        natural end, so the axiom checks skip the tail.  Built once per
        system, so its breakpoint scans run once."""
        hi = self.working_interval.hi
        kinks: list[float] = []
        for j, f in enumerate(self.maps):
            for b in f.breakpoints:
                # the roots of Phi_j - b on W, where Phi_0 is the identity
                g = lambda t, j=j, b=b: compose_array(self, t, j) - b
                kinks += [b] if j == 0 else scan_roots(g, (0.0, hi)).tolist()
        return PopulationModel(
            family="composition",
            param_items=(),
            domain=self.working_interval,
            breakpoints=tuple(sorted(x for x in kinks if x <= hi)),
            smooth=all(f.smooth for f in self.maps),
            _eval=partial(compose_array, self),
            _derivs=tuple(partial(_period_derivative, self, k) for k in (1, 2, 3)),
            _natural_hi=hi,
        )


def _proper_divisors(n: int) -> list[int]:
    return [d for d in range(1, n) if n % d == 0]


def _chain_check(maps: Sequence[PopulationModel], m: float) -> tuple[bool, str | None]:
    """Iterates of [0, m] must stay inside every map's domain and return to [0, m]."""
    slack = 1e-9 * max(1.0, m)
    x = np.linspace(0.0, m, 4097)
    for j, f in enumerate(maps):
        hi = f.domain.hi
        worst = float(x.max())
        if x.min() < -slack or worst > hi + slack:
            return False, (
                f"step {j} ({f.label}): iterate reaches {worst:.6g}, "
                f"domain ends at {hi:g}"
            )
        x = f.eval_array(x)
        if not np.isfinite(x).all():
            return False, f"step {j} ({f.label}): non-finite iterate"
    worst = float(x.max())
    if x.min() < -slack or worst > m + slack:
        return False, f"period image reaches {worst:.6g}, outside [0, {m:g}]"
    return True, None


def _max_on(f: PopulationModel, m: float) -> float:
    """The maximum of f on [0, m]: at an end or where f' changes sign."""
    crit = scan_roots(lambda t: f.deriv_array(t, 1), (0.0, m), 8192)
    return float(np.nanmax(f.eval_array(np.concatenate([[0.0, m], crit]))))


def make_system(models: Sequence[PopulationModel]) -> PeriodicSystem:
    """Assemble maps into a periodic system on a verified working interval."""
    maps = tuple(models)
    if not maps:
        raise ValueError("need at least one map")
    if not all(isinstance(m, PopulationModel) for m in maps):
        raise ValueError("all entries must be PopulationModel instances")
    p = len(maps)
    for d in _proper_divisors(p):
        if all(maps[i] == maps[i % d] for i in range(p)):
            raise ValueError(
                f"maps repeat with period {d}; pass the minimal period"
            )

    m0 = min(f.domain.hi for f in maps)
    # a map that falls back to zero at a natural endpoint caps the
    # working interval by the smallest one-step image maximum
    if any(f._natural_hi is not None for f in maps):
        m0 = min(m0, min(_max_on(f, m0) for f in maps))
    if m0 < 1.0 - 1e-9:
        raise ValueError(
            f"working interval would end at {m0:g} < 1; the positive fixed "
            "point must lie inside it"
        )

    ok, why = _chain_check(maps, m0)
    if not ok:
        lo, hi = 1.0, m0
        ok_lo, why_lo = _chain_check(maps, lo)
        if not ok_lo:
            raise ValueError(f"no valid working interval: {why_lo}")
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if _chain_check(maps, mid)[0]:
                lo = mid
            else:
                hi = mid
        m0 = lo
    return PeriodicSystem(maps=maps, period=p, working_interval=Interval(0.0, m0))


def compose_array(
    system: PeriodicSystem, x: np.ndarray, n: int | None = None, i: int = 0
) -> np.ndarray:
    """Raw Phi_n from phase i, no domain checks, on an array or on one
    point, a float, which gives an np.float64 (see models._vectorize)."""
    p = system.period
    if n is None:
        n = p
    val = np.float64(x) if isinstance(x, float) else np.asarray(x, dtype=float)
    for t in range(n):
        val = system.maps[(i + t) % p].eval_array(val)
    return val


def _period_derivative(system: PeriodicSystem, k: int, x: np.ndarray) -> np.ndarray:
    """Phi's derivative of order k: the maps' Taylor series
    (f, f', f''/2, f'''/6), cut after k + 1 terms, folded by the chain rule."""
    s = [x, 1.0]
    with np.errstate(all="ignore"):
        for f in system.maps:
            g = [f._eval(s[0])] + [f._derivs[m](s[0]) / math.factorial(m + 1) for m in range(k)]
            s = _chain(g, s, k + 1)
    return math.factorial(k) * s[k]


def _checked_walk(system: PeriodicSystem, x0: float, n: int, i: int = 0) -> list[float]:
    """x0 and its n iterates from phase i, each step domain-checked by f.eval."""
    p = system.period
    seq = [float(x0)]
    for t in range(n):
        try:
            seq.append(system.maps[(i + t) % p].eval(seq[-1]))
        except ValueError as exc:
            raise ValueError(f"orbit escaped at step {t}: {exc}") from exc
    return seq


def iterate_orbit(
    system: PeriodicSystem, x0: float, num_periods: int
) -> np.ndarray:
    """Orbit of x0 over whole periods; index t holds the state after t steps."""
    if num_periods < 1:
        raise ValueError("num_periods must be at least 1")
    val = float(x0)
    if not system.working_interval.contains(val, 1e-12):
        raise ValueError(
            f"x0={val} outside working interval [0, {system.working_interval.hi:g}]"
        )
    return np.asarray(_checked_walk(system, val, system.period * num_periods))


@dataclass(frozen=True)
class GeometricCycle:
    """A periodic orbit of the system, recorded from its starting phase.

    points samples the orbit once per period (so an r-cycle has r
    points, fixed under the r-fold period map); the complete cycle
    pairs every intermediate state with the phase it is visited at and
    has length lcm(s, period) where s is the minimal step period.
    """

    start_phase: int
    points: tuple[float, ...]
    period_count: int
    complete: tuple[tuple[int, float], ...]

    @property
    def complete_length(self) -> int:
        return len(self.complete)


def _seq_minimal_period(seq: Sequence[float], tol: float) -> int:
    n = len(seq)
    for s in sorted(d for d in range(1, n + 1) if n % d == 0):
        if all(abs(seq[(t + s) % n] - seq[t]) <= tol for t in range(n)):
            return s
    return n


def _cycle_through(
    system: PeriodicSystem, x0: float, r: int, i: int, known: Sequence[float]
) -> GeometricCycle | None:
    """The r-cycle from phase i through the root x0 of Phi^r - id, or None
    when x0 is 0, a state of an orbit already listed (within 1e-7 of
    known), of a lower period count, or its orbit leaves a domain or does
    not close."""
    p = system.period
    n = r * p
    if x0 <= 1e-8:
        return None
    if any(abs(x0 - x) <= 1e-7 * max(1.0, x0) for x in known):
        return None
    for q in _proper_divisors(r):
        img = float(compose_array(system, x0, q * p, i))
        if abs(img - x0) <= 1e-8 * max(1.0, x0):
            return None
    try:
        seq = _checked_walk(system, x0, n, i)
    except ValueError:  # the orbit leaves a map's domain
        return None
    if abs(seq[-1] - x0) > 1e-7 * max(1.0, x0):
        return None
    orbit = seq[:n]
    r_geom = _seq_minimal_period(orbit, 1e-8 * max(1.0, max(orbit)))
    s = math.lcm(r_geom, p)
    return GeometricCycle(
        start_phase=i,
        points=tuple(orbit[q * p] for q in range(r)),
        period_count=r,
        complete=tuple(((i + t) % p, orbit[t % n]) for t in range(s)),
    )


def cycle_grid(system: PeriodicSystem, cfg: GridConfig) -> np.ndarray:
    """The grid phase_cycles scans Phi^r - id on."""
    return scan_grid((1e-9, system.working_interval.hi), cfg.seed_cells)


def phase_cycles(
    system: PeriodicSystem,
    r: int,
    i: int,
    known: Sequence[float],
    cfg: GridConfig,
    image: np.ndarray,
) -> list[GeometricCycle]:
    """The r-cycles from phase i through roots of Phi^r - id, in the
    order found, other than those through a state in known.  image is
    Phi^r from phase i on cycle_grid(system, cfg).

    When Phi^r fixes 1, the cycle through 1 comes first and joins known
    before the scan, and any other root within the exclusion radius of 1
    is dropped: the sign checks cannot tell it from 1.  The scan then
    walks its roots in ascending order as it refines them; each new
    cycle's phase-i states join known, so the scan skips refining a
    bracket whose sign change is the crossing at one of them.
    """
    n = r * system.period
    known = list(known)
    found: list[GeometricCycle] = []
    anchored = abs(float(compose_array(system, 1.0, n, i)) - 1.0) <= 1e-9

    def visit(x0: float) -> list[float]:
        if anchored and 0.0 < abs(x0 - 1.0) <= cfg.exclusion_radius:
            return []
        cycle = _cycle_through(system, x0, r, i, known)
        if cycle is None:
            return []
        found.append(cycle)
        states = [x for ph, x in cycle.complete if ph == i]
        known.extend(states)
        return states

    if anchored:
        visit(1.0)
    g = lambda t: compose_array(system, t, n, i) - t
    xs = cycle_grid(system, cfg)
    # the grid's ends are its interval, so scan_roots rebuilds this grid
    scan_roots(g, (xs[0], xs[-1]), cfg.seed_cells, values=image - xs, known=known, visit=visit)
    return found


def find_geometric_cycles(
    system: PeriodicSystem, r_max: int, cfg: GridConfig | None = None
) -> tuple[GeometricCycle, ...]:
    """Positive cycles of the system up to r_max full periods.

    For each period count r and starting phase i, phase_cycles finds the
    fixed points of the r-fold period map; each orbit is followed for
    r*p steps and sampled once per period.  A root within 1e-7 of a state
    that a cycle found before visits at the same phase, with a period
    count dividing r, belongs to an orbit already listed, so each orbit
    is listed once.  Each phase carries Phi^r on the scan grid from
    Phi^(r-1), one period per step.
    """
    if cfg is None:
        cfg = GridConfig()
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    p = system.period
    images = [cycle_grid(system, cfg)] * p
    found: list[GeometricCycle] = []
    for r in range(1, r_max + 1):
        for i in range(p):
            images[i] = compose_array(system, images[i], p, i)
            # phase-i states of the cycles found so far that Phi^r fixes
            known = [
                x for c in found if r % c.period_count == 0
                for ph, x in c.complete if ph == i
            ]
            found.extend(phase_cycles(system, r, i, known, cfg, images[i]))
    found.sort(key=lambda c: (len(c.points), min(c.points), c.start_phase))
    return tuple(found)
