"""Seeded inputs, expected outcomes and output checks for the three workloads.

Every op is one `envcert` CLI invocation on one generated config.  Inputs
come in blocks: a block holds every input kind of its workload in fixed
proportions and fixed order, and only the parameters are drawn from the
seed.  A run that completes whole blocks therefore sees the same mix on
every seed, which keeps throughput comparable across seeds.

The checks below never ask envcert what the right answer is.  Expected
statuses come from the closed-form stability regions the inputs are drawn
from, from the header comments of the bundled configs, or from the
benchmark's own numpy evaluation of each family formula.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

WORKLOADS = ("sweep", "fit", "cycles")

# Statuses stated in the header comment of each bundled config.
BUNDLED_STATUS = {
    "bh_counterexample": "NotPopulationModel",
    "bh_pair": "CertifiedGlobal",
    "exponential_rational": "CertifiedGlobal",
    "harvest_pair": "CertifiedGlobal",
    "mixing_ricker_bh": "CertifiedGlobal",
    "piecewise_pair": "NotPopulationModel",
    "quadratic_pair": "CertifiedGlobal",
    "ricker_pair_transfer": "CertifiedGlobal",
    "ricker_triple": "CertifiedGlobal",
}
BUNDLED = tuple(BUNDLED_STATUS)

STATUS_EXIT = {"CertifiedGlobal": 0, "NotPopulationModel": 1, "EnvelopeNotFound": 1}


@dataclass(frozen=True)
class Input:
    """One op: CLI arguments around a config, and what its output must be.

    config is the config as a dict.  A generated config is written to a
    file for the program, and ref holds the (family, params) each of its
    maps was drawn as; a bundled config is passed by name.  expect is the
    status a `certify` op must reach; `cycles` ops carry none.
    """

    kind: str
    command: str
    flags: tuple[str, ...]
    config: dict
    ref: tuple[tuple[str, dict], ...] = ()
    bundled: str | None = None
    expect: str | None = None

    @property
    def period(self) -> int:
        return len(self.config["models"])

    @property
    def has_custom(self) -> bool:
        return any(m["family"] == "custom" for m in self.config["models"]) or any(
            e.get("kind") == "custom" for e in self.config.get("envelopes") or ()
        )

    def argv(self, path: Path | None) -> list[str]:
        target = self.bundled if path is None else str(path)
        return [self.command, target, *self.flags]


# ---------------------------------------------------------------------------
# Family formulas, written out here so that checks do not call envcert.


def family_eval(family: str, params: dict, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        if family == "ricker":
            return x * np.exp(params["r"] * (1.0 - x))
        if family == "beverton-holt":
            mu, c = params["mu"], params["c"]
            return mu * x / (1.0 + (mu - 1.0) * x ** c)
        if family == "quadratic":
            return x * (1.0 + params["mu"] * (1.0 - x))
        if family == "exponential-rational":
            a, b = params["a"], params["b"]
            return (1.0 + a * math.exp(b)) * x / (1.0 + a * np.exp(b * x))
        if family == "beverton-holt-harvest":
            r, c = params["r"], params["c"]
            return r * x / (1.0 + (r - 1.0) * x) - c * x * (x - 1.0)
    raise ValueError(f"no reference formula for {family}")


# Custom models spell a family formula out as a sympy expression; the
# check evaluates the family it came from.
_CUSTOM_FORMS = {
    "ricker": "x*exp({r!r}*(1 - x))",
    "beverton-holt": "{mu!r}*x/(1 + {k!r}*x**{c!r})",
    "exponential-rational": "{top!r}*x/(1 + {a!r}*exp({b!r}*x))",
}


def _custom_model(family: str, params: dict) -> dict:
    fill = dict(params)
    if family == "beverton-holt":
        fill["k"] = params["mu"] - 1.0
    if family == "exponential-rational":
        fill["top"] = 1.0 + params["a"] * math.exp(params["b"])
    expr = _CUSTOM_FORMS[family].format(**fill)
    return {"family": "custom", "pieces": [{"from": 0.0, "expr": expr}]}


def _model(family: str, params: dict) -> dict:
    return {"family": family, "params": {k: float(v) for k, v in params.items()}}


# ---------------------------------------------------------------------------
# Draws.  Each parameter of a kind is stratified across the maps of that
# kind in one block (one uniform draw per equal sub-range), and periods are
# fixed per block, so blocks differ in detail but not in their spread of
# parameters and period mix.  Lower bounds keep every map's margin to the
# diagonal above the default abs_tol of 1e-9 away from the excluded
# neighbourhoods of 0 and 1: as r, c or mu approach their lower limit the
# map tends to the identity and no sign check at that tolerance decides it.

STABLE_RANGES = {
    "ricker": {"r": (0.2, 2.0)},
    "beverton-holt": {"mu": (1.5, 10.0), "c": (0.3, 2.0)},
    "quadratic": {"mu": (0.2, 2.0)},
    "beverton-holt-harvest": {"r": (1.5, 5.0), "c": (0.05, 0.95)},
    "exponential-rational": {"a": (0.1, 3.0), "b": (0.3, 2.0)},
}
# Beverton-Holt mixed with another family, or spelled as a custom map
# (whose default candidates are 2 - x and 1/x), certifies for c <= 1.
BH_SHARED = {"mu": (1.5, 10.0), "c": (0.3, 1.0)}


def _strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """n draws, one from each of n equal sub-ranges of [lo, hi], shuffled."""
    vals = lo + (np.arange(n) + rng.random(n)) * (hi - lo) / n
    return [float(v) for v in rng.permutation(vals)]


def _maps(rng: np.random.Generator, family: str, ranges: dict, n: int) -> list:
    cols = {name: _strata(rng, lo, hi, n) for name, (lo, hi) in ranges.items()}
    return [(family, {name: cols[name][i] for name in ranges}) for i in range(n)]


def _split(maps: list, periods: tuple[int, ...]) -> list[list]:
    out, i = [], 0
    for p in periods:
        out.append(maps[i:i + p])
        i += p
    return out


def _generated(kind: str, command: str, flags: tuple, maps, expect=None,
               custom=False) -> Input:
    models = [_custom_model(f, p) if custom else _model(f, p) for f, p in maps]
    return Input(kind, command, flags, {"models": models}, ref=tuple(maps), expect=expect)


def _certify(kind: str, maps, expect: str, custom: bool = False) -> Input:
    return _generated(kind, "certify", (), maps, expect, custom)


_PERIODS = (1, 2, 3)


def sweep_block(rng: np.random.Generator, bundled: dict) -> list[Input]:
    """36 ops: 18 closed-form draws (3 per family), 6 custom (1 in 6),
    3 piecewise pairs and the 9 bundled configs."""
    systems: list[tuple[str, list, bool]] = []
    for fam in ("ricker", "beverton-holt", "exponential-rational"):
        maps = _maps(rng, fam, STABLE_RANGES[fam], sum(_PERIODS))
        systems += [(f"stable:{fam}", s, False) for s in _split(maps, _PERIODS)]
    rk = _maps(rng, "ricker", STABLE_RANGES["ricker"], 3)
    bh = _maps(rng, "beverton-holt", BH_SHARED, 3)
    systems += [("stable:ricker+bh", [a, b], False) for a, b in zip(rk, bh)]
    # Maps on a bounded domain (quadratic, harvest) mixed with different
    # parameters often leave no forward-invariant working interval, which
    # the program rejects as invalid input (exit 3); they are drawn alone,
    # and their periodic systems come from the bundled quadratic_pair and
    # harvest_pair.  One of the three quadratic maps sits on the boundary
    # mu = 2, a neutral tangency at 1.
    quad = [("quadratic", {"mu": 2.0})] + _maps(rng, "quadratic", STABLE_RANGES["quadratic"], 2)
    systems += [("stable:quadratic", [m], False) for m in quad]
    harvest = _maps(rng, "beverton-holt-harvest", STABLE_RANGES["beverton-holt-harvest"], 3)
    systems += [("stable:beverton-holt-harvest", [m], False) for m in harvest]
    for fam, periods in (("ricker", (1, 2)), ("beverton-holt", (3, 1)),
                         ("exponential-rational", (2, 3))):
        ranges = BH_SHARED if fam == "beverton-holt" else STABLE_RANGES[fam]
        maps = _maps(rng, fam, ranges, sum(periods))
        systems += [(f"custom:{fam}", s, True) for s in _split(maps, periods)]

    out = [_certify(kind, maps, "CertifiedGlobal", custom) for kind, maps, custom in systems]
    pl = _maps(rng, "piecewise-linear-recip", {"slope": (1.5, 5.0), "brk": (0.2, 0.8)}, 6)
    out += [_certify("piecewise", s, "NotPopulationModel") for s in _split(pl, (2, 2, 2))]
    out += [
        Input("bundled", "certify", (), bundled[name], bundled=name,
              expect=BUNDLED_STATUS[name])
        for name in BUNDLED
    ]
    return out


# Exponential-rational maps past b = 2 that no default candidate envelops
# but some Moebius envelope does.  The benchmark's own dense check of the
# family (envelope_holds; see test_perfbench.py) puts the lower end of the
# feasible alpha interval at 0.5055 or more on this whole box, so 2 - x
# (alpha = 0.5) fails and the fit must run, and the interval's width at
# 0.105 or more (the narrowest corner is a = 0.325, b = 2.49).
# Below b = 2.465 at a = 0.3125, 2 - x itself envelops and the fit is
# skipped; at a = 0.35 and b >= 2.48 no Moebius envelope exists at all.
RESCUED = {"a": (0.3125, 0.325), "b": (2.465, 2.49)}


def fit_block(rng: np.random.Generator, bundled: dict) -> list[Input]:
    """4 ops: two fit-rescued exponential-rational maps, one lone steep
    Ricker and one steep Ricker paired with a mild one.  A Ricker map with
    r > 2 has a stable two-cycle, so no envelope can exist for it."""
    rescued = _maps(rng, "exponential-rational", RESCUED, 2)
    steep = _maps(rng, "ricker", {"r": (2.05, 2.5)}, 2)
    mild = _maps(rng, "ricker", {"r": (0.5, 1.5)}, 1)
    return [
        _certify("fit:rescued", [rescued[0]], "CertifiedGlobal"),
        _certify("fit:empty", [steep[0]], "EnvelopeNotFound"),
        _certify("fit:rescued", [rescued[1]], "CertifiedGlobal"),
        _certify("fit:empty-pair", [steep[1], mild[0]], "EnvelopeNotFound"),
    ]


def _cycles(kind: str, maps: list) -> Input:
    return _generated(kind, "cycles", ("--r-max", "6"), maps)


OSC_RICKER = {"r": (2.3, 3.3)}
MILD_RICKER = {"r": (0.5, 1.0)}


def _osc_bh(rng: np.random.Generator, n: int, c_max: float) -> list:
    # f'(1) = 1 - c (mu - 1)/mu < -1 needs mu > c/(c - 2); mu is drawn
    # from one above that bound up to 12
    maps = _maps(rng, "beverton-holt", {"c": (2.5, c_max), "t": (0.0, 1.0)}, n)
    out = []
    for fam, p in maps:
        lo = p["c"] / (p["c"] - 2.0) + 1.0
        out.append((fam, {"mu": lo + p["t"] * (12.0 - lo), "c": p["c"]}))
    return out


def cycles_block(rng: np.random.Generator, bundled: dict) -> list[Input]:
    """16 ops, four of each kind: an oscillating Ricker, an oscillating
    Beverton-Holt, and an oscillating map followed by one or two mild
    Ricker seasons (periods 2 and 3).  The number of cycles, and so the
    cost of an op, jumps with the parameters in the chaotic range, so each
    kind spreads four stratified draws over its whole range per block.
    Two oscillating maps in one period compose to a chaotic map with
    hundreds of cycles up to r = 6, seconds per op, so every mixed system
    keeps a single oscillating season; the mixed ones stay below c = 4 and
    r = 1 for the same reason (steeper pairs reach 16-37 cycles and up to
    0.7 s per op)."""
    osc_r = _maps(rng, "ricker", OSC_RICKER, 8)
    osc_b = _osc_bh(rng, 4, 5.0) + _osc_bh(rng, 4, 4.0)
    mild = _maps(rng, "ricker", MILD_RICKER, 12)
    return (
        [_cycles("cycles:ricker", [m]) for m in osc_r[:4]]
        + [_cycles("cycles:bh", [m]) for m in osc_b[:4]]
        + [_cycles("cycles:mixed2", [b, m]) for b, m in zip(osc_b[4:], mild[:4])]
        + [_cycles("cycles:mixed3", [r, *mild[4 + 2 * k:6 + 2 * k]])
           for k, r in enumerate(osc_r[4:])]
    )


BLOCKS = {"sweep": sweep_block, "fit": fit_block, "cycles": cycles_block}


# ---------------------------------------------------------------------------
# Output checks.  Each returns None when the output is right, else a reason.


def mobius_alpha(kind: str, param: float | None) -> float:
    if kind == "reciprocal":
        return 0.0
    if kind == "piecewise-bh":
        return (param - 2.0) / (param - 1.0)
    return float(param)


def envelope_holds(maps, alpha: float, gap: float = 0.01) -> bool:
    """h_alpha > f on (0, 1) and h_alpha < f past 1 where both are positive,
    on a grid `gap` clear of 0 and of the fixed point, for every map."""
    inside = np.linspace(gap, 1.0 - gap, 4001)
    x_h = np.inf if alpha == 0.0 else 1.0 / alpha
    outside = np.linspace(1.0 + gap, min(x_h, 20.0), 4001)
    with np.errstate(all="ignore"):
        h_in = (1.0 - alpha * inside) / (alpha - (2.0 * alpha - 1.0) * inside)
        h_out = (1.0 - alpha * outside) / (alpha - (2.0 * alpha - 1.0) * outside)
    for fam, params in maps:
        if not np.all(h_in - family_eval(fam, params, inside) > -1e-12):
            return False
        f_out = family_eval(fam, params, outside)
        both = (f_out > 0) & (h_out > 0)
        if not np.all((f_out - h_out)[both] > -1e-12):
            return False
    return True


def check_certify(inp: Input, code: int, doc: dict) -> str | None:
    res = doc["result"]
    status = res["status"]
    if status != inp.expect:
        return f"status {status}, expected {inp.expect}"
    if code != STATUS_EXIT[status]:
        return f"exit code {code} for {status}"
    if inp.kind.startswith(("stable:", "custom:")) and res["oracle_agrees"] is not True:
        return f"oracle_agrees is {res['oracle_agrees']}"
    fit = res["fit_intervals"]
    if status == "CertifiedGlobal":
        alpha = mobius_alpha(res["envelope_kind"], res["envelope_param"])
        if fit is not None and not any(a <= alpha <= b for a, b in fit):
            return f"chosen alpha {alpha} outside the fit intervals {fit}"
        if inp.ref and res["envelope_kind"] != "custom" and not envelope_holds(inp.ref, alpha):
            return f"{res['envelope']} does not envelop the maps on the reference grid"
    return None


def check_cycles(inp: Input, code: int, doc: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    res = doc["result"]
    p = len(inp.ref)

    def closes(x0: float, phase: int, steps: int) -> bool:
        x = np.asarray([x0])
        for t in range(steps):
            fam, params = inp.ref[(phase + t) % p]
            x = family_eval(fam, params, x)
        return abs(float(x[0]) - x0) <= 1e-7 * max(1.0, abs(x0))

    for x0 in res["fixed_points"]:
        if not closes(x0, 0, p):
            return f"fixed point {x0!r} does not close"
    for cyc in res["cycles"]:
        x0 = cyc["points"][0]
        if not closes(x0, cyc["start_phase"], cyc["period_count"] * p):
            return f"cycle from {x0!r} (phase {cyc['start_phase']}) does not close"
    return None


def check(inp: Input, code: int, stdout: str) -> str | None:
    """None when the op's output is right, else why it is not."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"exit code {code}, no JSON report"
    if doc.get("command") != inp.command:
        return f"report for command {doc.get('command')!r}"
    try:
        if inp.command == "cycles":
            return check_cycles(inp, code, doc)
        return check_certify(inp, code, doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def load_bundled(root: Path) -> dict:
    """The bundled configs as dicts, read from the package sources."""
    base = root / "src" / "envcert" / "configs"
    return {name: yaml.safe_load((base / f"{name}.yaml").read_text()) for name in BUNDLED}


def stream(workload: str, seed: int, bundled: dict):
    """Endless op stream of a workload; the same seed gives the same ops."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = BLOCKS[workload]
    while True:
        yield from make(rng, bundled)


def block_size(workload: str, bundled: dict) -> int:
    return len(BLOCKS[workload](np.random.default_rng(0), bundled))
