"""Spans and work counters around envcert's public functions.

Each module of the package is a layer.  A Tracer replaces every public
function of every layer (each function a module defines under a name
without a leading underscore) with a wrapper that records calls, total
time and self time, where self time excludes the wrapped calls made
inside it.  The package imports
functions by name, so a function is replaced in every envcert module that
holds it, not only where it is defined.  Recursive calls of a function are
passed straight through, so `report.plain` is one span per outer call.

A few functions also count the work they do, from their arguments and
results; these counts do not depend on the machine:

- numerics.adaptive_sign_check: cells checked, refined cells (beyond the
  seed grid) and the share of calls that end unresolved;
- numerics.scan_roots: grid points sampled;
- numerics.bracketed_root: evaluations of the bracketed function;
- periodic.compose_array: point steps, the number of map evaluations
  (array size times composition length);
- envelopes.fit_mobius: probes, the `envelops` calls made inside a fit;
- certify.certify_global_stability: runs in which the Moebius fit ran;
- report.emit_report: bytes emitted.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "config", "report", "certify", "envelopes", "models", "periodic", "numerics")

# the default of GridConfig.seed_cells and of scan_roots' seed_cells
_DEFAULT_SEED_CELLS = 4096


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []  # [name, time spent in wrapped children]
        self._active: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"envcert.{m}") for m in LAYERS]
        modules.append(importlib.import_module("envcert"))
        for layer, mod in zip(LAYERS, modules):
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in modules:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "__"), None)
        after = getattr(self, "_after_" + name.replace(".", "__"), None)

        def wrapper(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            self._active.add(name)
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._active.discard(name)
                st = self.stats[name]
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def _after_numerics__adaptive_sign_check(self, rep, args, kwargs) -> None:
        cfg = _arg(args, kwargs, 3, "cfg")
        seed = cfg.seed_cells if cfg is not None else _DEFAULT_SEED_CELLS
        st = self.stats["numerics.adaptive_sign_check"]
        st["cells"] += rep.cells_checked
        st["refined_cells"] += max(0, rep.cells_checked - seed)
        st["unresolved"] += rep.status == "unresolved"

    def _after_numerics__scan_roots(self, roots, args, kwargs) -> None:
        seed = _arg(args, kwargs, 2, "seed_cells", _DEFAULT_SEED_CELLS)
        self.stats["numerics.scan_roots"]["grid_points"] += max(seed, 8) + 1

    def _before_numerics__bracketed_root(self, args, kwargs):
        g = _arg(args, kwargs, 0, "g")
        st = self.stats["numerics.bracketed_root"]

        def counted(t):
            st["evals"] += 1
            return g(t)

        if "g" in kwargs:
            return args, {**kwargs, "g": counted}
        return (counted, *args[1:]), kwargs

    def _after_periodic__compose_array(self, val, args, kwargs) -> None:
        n = _arg(args, kwargs, 2, "n")
        steps = _arg(args, kwargs, 0, "system").period if n is None else n
        points = np.size(_arg(args, kwargs, 1, "x"))
        self.stats["periodic.compose_array"]["point_steps"] += points * steps

    def _after_envelopes__envelops(self, verdict, args, kwargs) -> None:
        if "envelopes.fit_mobius" in self._active:
            self.stats["envelopes.fit_mobius"]["probes"] += 1

    def _after_envelopes__fit_mobius(self, fit, args, kwargs) -> None:
        if "certify.certify_global_stability" in self._active:
            self.stats["certify.certify_global_stability"]["fit_runs"] += 1

    def _after_report__emit_report(self, text, args, kwargs) -> None:
        self.stats["report.emit_report"]["bytes"] += len(text.encode())

    # -- results ----------------------------------------------------------

    def get(self, name: str, key: str) -> float:
        return float(self.stats[name][key]) if name in self.stats else 0.0

    def self_time_shares(self) -> list[tuple[str, float]]:
        """(function, share of all self time), largest first."""
        total = sum(st["self_s"] for st in self.stats.values()) or 1.0
        ranked = sorted(self.stats.items(), key=lambda kv: -kv[1]["self_s"])
        return [(name, st["self_s"] / total) for name, st in ranked]
