"""Command-line interface.

Reports go to stdout (or --out) and are byte-stable run to run; timing
and status chatter go to stderr.  Exit codes: 0 certified or positive
result, 1 definite negative, 2 inconclusive, 3 usage or input error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable

import numpy as np

try:
    import resource
except ImportError:  # Windows
    resource = None

from .certify import (
    axiom_gate,
    certify_global_stability,
    closed_form_conditions,
    default_candidates,
    schwarzian_test,
    try_candidate,
)
from .config import SystemConfig, _from_yaml, config_to_system, parse_system_config
from .envelopes import fit_mobius
from .numerics import GridConfig
from .periodic import compose_array, find_geometric_cycles, iterate_orbit
from .report import ReportDocument, emit_plot_data, emit_report, render_svg

__all__ = ["main", "run_command", "build_parser"]

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# keep the freed heap top, so a growing heap does not re-fault every check's temporaries
_TRIM_THRESHOLD = 256 << 20
# any mallopt call freezes the adaptive mmap threshold at 128 KB; 32 MiB is glibc's 64-bit maximum
_MMAP_THRESHOLD = 32 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc's heap trim and mmap thresholds for this process; a no-op
    where the C library has no mallopt (macOS, Windows).  Set here, not in
    the package, so that a program importing the library keeps its own
    allocator policy."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


_pin_malloc_thresholds()

_STATUS_EXIT = {
    "CertifiedGlobal": 0,
    "NotPopulationModel": 1,
    "EnvelopeNotFound": 1,
    "LocalOnly": 1,
    "Inconclusive": 2,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _bundled_names() -> list[str]:
    root = resources.files("envcert").joinpath("configs")
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def _load_config(name: str) -> SystemConfig:
    path = Path(name)
    if path.exists():
        return parse_system_config(path)
    base = name[: -len(".yaml")] if name.endswith(".yaml") else name
    res = resources.files("envcert").joinpath("configs", f"{base}.yaml")
    if res.is_file():
        return _from_yaml(res.read_text(), f"bundled {base}")
    raise ValueError(
        f"no such config file or bundled name: {name!r}; "
        f"bundled configs: {', '.join(_bundled_names())}"
    )


def _int_in(name: str, lo: int, hi: int) -> Callable[[str], int]:
    """argparse type of an integer flag that must lie in [lo, hi]."""

    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"{name} must be at least {lo} (got {n})")
        if n > hi:
            raise argparse.ArgumentTypeError(f"{name} must be at most {hi} (got {n})")
        return n

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once and shared by every call: parse_args leaves the parser
    # unchanged as long as no argument has an append-style action or a
    # mutable default, and none may be added.
    p = _Parser(
        prog="envcert",
        description="Certify global stability of periodic population models "
                    "by enveloping.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("config", help="config file path or bundled config name")
        sp.add_argument("--grid-cells", type=int, help="seed grid cells override")
        sp.add_argument("--tol", type=float, help="absolute tolerance override")
        sp.add_argument("--out", help="write the report here instead of stdout "
                                      "(ENVCERT_OUT_DIR prefixes bare names)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    def count(sp: argparse.ArgumentParser, flag: str, default: int, lo: int, hi: int,
              what: str) -> None:
        sp.add_argument(flag, type=_int_in(flag[2:].replace("-", "_"), lo, hi),
                        default=default, help=f"{what}, {lo} to {hi} (default {default})")

    common(sub.add_parser("certify", help="run the full certification pipeline"))
    common(sub.add_parser("axioms", help="population-model axioms per map and "
                                         "for the composition"))
    common(sub.add_parser("envelope-check", help="structural and enveloping "
                                                 "checks for each candidate"))
    sp = sub.add_parser("mobius-fit", help="fit the Moebius alpha parameter on a grid")
    common(sp)
    # the upper bounds cap what one run may allocate and compute
    count(sp, "--alpha-cells", 1000, 1, 100_000, "alpha grid size N (alpha = k/N)")
    sp = sub.add_parser("cycles", help="geometric cycles up to a period count")
    common(sp)
    count(sp, "--r-max", 3, 1, 16, "largest period count searched")
    sp = sub.add_parser("orbit", help="iterate an initial point")
    common(sp)
    sp.add_argument("--x0", type=float, default=0.5)
    count(sp, "--periods", 50, 1, 100_000, "whole periods iterated")
    common(sub.add_parser("schwarzian", help="negative-Schwarzian test per map"))
    common(sub.add_parser("conditions", help="closed-form parameter regions"))
    sp = sub.add_parser("plot-data", help="tabulate maps, composition, and "
                                          "envelopes for plotting")
    common(sp)
    count(sp, "--samples", 512, 2, 100_000, "grid points tabulated")
    return p


def _grid_from(args, cfg: SystemConfig) -> GridConfig:
    grid = cfg.grid
    if getattr(args, "grid_cells", None) is not None:
        grid = replace(grid, seed_cells=args.grid_cells)
    if getattr(args, "tol", None) is not None:
        grid = replace(grid, abs_tol=args.tol)
    return grid


def _resolve_out(raw: str) -> Path:
    out = Path(raw)
    prefix = os.environ.get("ENVCERT_OUT_DIR")
    # only bare file names get the prefix; an explicit ./ or any
    # directory component pins the path to the working directory
    if prefix and os.path.dirname(raw) == "":
        out = Path(prefix) / out
    return out


def _write(text: str, args) -> None:
    if args.out:
        out = _resolve_out(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _emit(command: str, cfg: SystemConfig, grid: GridConfig, result: Any, args) -> None:
    doc = ReportDocument(command=command, config=cfg.raw, tolerances=grid, result=result)
    _write(emit_report(doc, args.format), args)


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    t0, u0 = time.perf_counter(), _usage()
    try:
        cfg = _load_config(args.config)
        grid = _grid_from(args, cfg)
        system = config_to_system(cfg)
        code = _dispatch(args, cfg, grid, system)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    done = f"{args.command}: done in {time.perf_counter() - t0:.2f}s"
    if u0 is not None:
        stime, minflt = _usage()
        done += f" (system {stime - u0[0]:.2f}s, {minflt - u0[1]} minor faults)"
    print(done, file=sys.stderr)
    return code


def _usage() -> tuple[float, int] | None:
    """This process's system CPU seconds and minor page faults so far, or
    None where the platform has no getrusage."""
    if resource is None:
        return None
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_stime, ru.ru_minflt


def _dispatch(args, cfg: SystemConfig, grid: GridConfig, system) -> int:
    cmd = args.command

    if cmd == "certify":
        cert = certify_global_stability(
            system, candidates=cfg.envelopes or None, cfg=grid
        )
        _emit(cmd, cfg, grid, cert, args)
        print(f"status: {cert.status}", file=sys.stderr)
        return _STATUS_EXIT[cert.status]

    if cmd == "axioms":
        maps, comp, failure = axiom_gate(system, grid)
        result = {
            "maps": maps,
            "composition": {
                "violations": comp.violations,
                "fixed_point_residuals": comp.fixed_point_residuals,
                "delta_used": comp.delta_used,
            },
            "working_interval": [system.working_interval.lo, system.working_interval.hi],
        }
        _emit(cmd, cfg, grid, result, args)
        return {None: 0, "violation": 1, "unresolved": 2}[failure]

    if cmd == "envelope-check":
        envs = cfg.envelopes or default_candidates(system)
        records = [try_candidate(h, system, grid) for h in envs]
        _emit(cmd, cfg, grid, {"candidates": records}, args)
        if any(r.passed for r in records):
            return 0
        return 1 if all(r.failure in ("structural", "violation") for r in records) else 2

    if cmd == "mobius-fit":
        fit = fit_mobius(system.maps, grid, alpha_cells=args.alpha_cells)
        _emit(cmd, cfg, grid, fit, args)
        if fit.feasible:
            return 0
        return 2 if fit.failure == "unresolved" else 1

    if cmd == "cycles":
        cycles = find_geometric_cycles(system, args.r_max, grid)
        # 0 when Phi fixes it, then the phase-0 point of each 1-cycle
        fixed = [0.0] if abs(float(compose_array(system, 0.0))) <= 1e-9 else []
        fixed += [c.points[0] for c in cycles if c.period_count == 1 and c.start_phase == 0]
        result = {
            "fixed_points": fixed,
            "cycles": cycles,
            "r_max": args.r_max,
        }
        _emit(cmd, cfg, grid, result, args)
        return 0

    if cmd == "orbit":
        # bad input; only an orbit that escapes later is a definite negative
        W = system.working_interval
        if not W.contains(args.x0, 1e-12):
            raise ValueError(f"--x0 {args.x0:g} outside working interval [0, {W.hi:g}]")
        try:
            orbit = iterate_orbit(system, args.x0, args.periods)
        except ValueError as exc:
            _emit(cmd, cfg, grid, {"error": str(exc), "x0": args.x0}, args)
            return 1
        result = {
            "x0": args.x0,
            "periods": args.periods,
            "values": orbit,
            "final": float(orbit[-1]),
            "distance_to_one": abs(float(orbit[-1]) - 1.0),
        }
        _emit(cmd, cfg, grid, result, args)
        return 0

    if cmd == "schwarzian":
        reports = [schwarzian_test(f, grid) for f in system.maps]
        _emit(cmd, cfg, grid, {"maps": reports}, args)
        return 0 if all(r.passed for r in reports) else 1

    if cmd == "conditions":
        rep = closed_form_conditions(system)
        _emit(cmd, cfg, grid, rep, args)
        if rep.aggregate is None:
            return 2
        return 0 if rep.aggregate else 1

    if cmd == "plot-data":
        W = system.working_interval
        columns = [(f.label, f.eval_array) for f in system.maps]
        columns.append(("composition", lambda t: compose_array(system, t)))
        for h in cfg.envelopes:
            columns.append((h.label, h.eval_array))
        columns.append(("diagonal", lambda t: np.asarray(t, dtype=float)))
        csv_text, arrays = emit_plot_data(columns, (W.lo, W.hi), args.samples)
        _write(csv_text, args)
        if args.out:
            svg_path = _resolve_out(args.out).with_suffix(".svg")
            svg_path.parent.mkdir(parents=True, exist_ok=True)
            svg_path.write_text(render_svg(arrays, title=system.label))
            print(f"wrote {svg_path}", file=sys.stderr)
        return 0

    raise ValueError(f"unhandled command {cmd!r}")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
