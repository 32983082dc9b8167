"""envcert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Each op is the in-process equivalent of one `envcert` CLI call on a
generated config (`envcert.cli.run_command`, stdout and stderr captured).
The load is a closed loop: one process, one client, no extra threads.

--trace 0 measures the end-to-end metrics: the timed phase runs whole
blocks of ops (see workloads.py) until --seconds have passed.  --trace 1
runs the first TRACE_BLOCKS blocks of the stream traced and reports
per-layer metrics; the op list is fixed, not timed, so that the layer
counts repeat exactly for a seed.  It then runs as many further blocks
untraced, and the ratio of the two wall times is the tracing overhead.
The untraced pass uses new inputs because sympy caches parsed expressions,
so repeating the traced ones would flatter it.

The last line of stdout is the result object; the line before it is a
record of the run (seed, op counts, versions, digests, failures, input
properties).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3  # this process plus two set-up-only child processes
TRACE_BLOCKS = {"sweep": 4, "fit": 2, "cycles": 8}
MAX_FAILURES_LISTED = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "fit", "cycles"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def import_package():
    """Import envcert from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "envcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no envcert sources under {src}")
    sys.path.insert(0, str(src))
    import envcert

    if Path(envcert.__file__).resolve().parent != (src / "envcert").resolve():
        raise SystemExit(f"error: imported envcert from {envcert.__file__}")
    return envcert


class Runner:
    """Writes each generated config to a file and runs one CLI call on it.

    run_command is looked up on the module at each call, so that a Tracer
    installed later wraps it."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.path = work / "config.json"

    def op(self, inp) -> tuple[int, str, float]:
        path = None
        if inp.bundled is None:
            self.path.write_text(json.dumps(inp.config, sort_keys=True))
            path = self.path
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run_command(inp.argv(path))
        return code, out.getvalue(), time.perf_counter() - t0


def warm_up(W, runner, workload: str, seed: int, bundled: dict) -> None:
    """One op of each input kind, from a stream the timed phase never uses."""
    gen = W.stream(workload, seed + 1_000_003, bundled)
    first = {}
    for _ in range(W.block_size(workload, bundled)):
        inp = next(gen)
        first.setdefault(inp.kind, inp)
    for inp in first.values():
        runner.op(inp)


def child_setup_times(args) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_list(runner, inputs) -> dict:
    """Run a fixed op list once."""
    outputs = []
    t0 = time.perf_counter()
    for inp in inputs:
        outputs.append(runner.op(inp))
    return {"inputs": list(inputs), "outputs": outputs, "wall": time.perf_counter() - t0}


def run_timed(runner, gen, block: int, seconds: float) -> dict:
    """Whole blocks of the stream until `seconds` have passed."""
    inputs, outputs = [], []
    t0 = time.perf_counter()
    while not inputs or time.perf_counter() - t0 < seconds:
        for _ in range(block):
            inputs.append(next(gen))
            outputs.append(runner.op(inputs[-1]))
    return {"inputs": inputs, "outputs": outputs, "wall": time.perf_counter() - t0}


def verify(W, run: dict, digest_ops: int) -> tuple[list, str]:
    """Failed checks, and the digest of the first digest_ops reports."""
    failures, digest = [], hashlib.sha256()
    for k, (inp, (code, text, _)) in enumerate(zip(run["inputs"], run["outputs"])):
        if k < digest_ops:
            digest.update(text.encode())
        why = W.check(inp, code, text)
        if why is not None:
            failures.append({"op": k, "kind": inp.kind, "why": why,
                             "config": inp.bundled or inp.config})
    return failures, digest.hexdigest()


def input_properties(inputs) -> dict:
    n = len(inputs)
    props = {"input.custom_share": sum(i.has_custom for i in inputs) / n}
    for p in (1, 2, 3):
        props[f"input.period{p}_share"] = sum(i.period == p for i in inputs) / n
    return props


def layer_metrics(tr, n_ops: int) -> dict:
    get = tr.get
    calls = lambda name: get(name, "calls")  # noqa: E731
    out = {}
    asc = "numerics.adaptive_sign_check"
    out[f"{asc}.calls"] = calls(asc)
    out[f"{asc}.self_s"] = get(asc, "self_s")
    out[f"{asc}.cells"] = get(asc, "cells")
    out[f"{asc}.refined_cells"] = get(asc, "refined_cells")
    out[f"{asc}.unresolved_ratio"] = get(asc, "unresolved") / calls(asc) if calls(asc) else 0.0
    for name, counter in (("numerics.scan_roots", "grid_points"),
                          ("numerics.bracketed_root", "evals"),
                          ("periodic.compose_array", "point_steps")):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.{counter}"] = get(name, counter)
    out["numerics.bracketed_root.per_op"] = calls("numerics.bracketed_root") / n_ops
    for name in ("periodic.make_system", "periodic.find_fixed_points",
                 "periodic.find_geometric_cycles", "models.verify_population_axioms",
                 "models.check_axioms_callable", "certify.two_cycle_oracle",
                 "config.config_from_dict"):
        out[f"{name}.total_s"] = get(name, "total_s")
    for name in ("models.compile_expression", "envelopes.structural_check",
                 "envelopes.envelops", "envelopes.fit_mobius"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.total_s"] = get(name, "total_s")
    out["envelopes.fit_mobius.probes"] = get("envelopes.fit_mobius", "probes")
    run_total = get("cli.run_command", "total_s")
    out["envelopes.fit_mobius.time_share"] = get("envelopes.fit_mobius", "total_s") / run_total
    cert = "certify.certify_global_stability"
    out[f"{cert}.self_s"] = get(cert, "self_s")
    out["certify.fit_share"] = get(cert, "fit_runs") / calls(cert) if calls(cert) else 0.0
    out["report.emit_report.total_s"] = get("report.emit_report", "total_s")
    out["report.emit_report.bytes"] = get("report.emit_report", "bytes")
    out["cli.run_command.self_s"] = get("cli.run_command", "self_s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    envcert = import_package()
    from envcert import cli

    import workloads as W

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, work)
        bundled = W.load_bundled(ROOT)
        block = W.block_size(args.workload, bundled)
        gen = W.stream(args.workload, args.seed, bundled)
        warm_up(W, runner, args.workload, args.seed, bundled)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(repr(setup_s))
            return 0

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "block_ops": block}
        if args.trace == 0:
            run = run_timed(runner, gen, block, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failures, digest = verify(W, run, block)
            setups = [setup_s] + child_setup_times(args)
            lat_ms = [dt * 1000.0 for _, _, dt in run["outputs"]]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (len(lat_ms) / run["wall"], "1/s"),
                "op_p50_ms": (statistics.median(lat_ms), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            record.update(setup_samples_s=setups, digest_first_block=digest)
            # a tail percentile needs at least ten samples beyond it
            if len(lat_ms) >= 100:
                p90 = statistics.quantiles(lat_ms, n=10)[8]
                record.update(op_p90_ms=p90, ops_beyond_p90=sum(x > p90 for x in lat_ms))
        else:
            from tracing import Tracer

            n = TRACE_BLOCKS[args.workload] * block
            traced_inputs = [next(gen) for _ in range(n)]
            with Tracer() as tr:
                run = run_list(runner, traced_inputs)
            plain = run_list(runner, [next(gen) for _ in range(n)])
            failures, digest = verify(W, run, n)
            failures += verify(W, plain, 0)[0]
            metrics = {k: (v, _unit(k)) for k, v in layer_metrics(tr, n).items()}
            metrics["trace.ops_per_s_untraced"] = (n / plain["wall"], "1/s")
            metrics["trace.ops_per_s_traced"] = (n / run["wall"], "1/s")
            metrics["trace.overhead_ratio"] = (run["wall"] / plain["wall"], "ratio")
            record.update(digest_traced=digest, self_time_share=tr.self_time_shares())
            # both passes count as attempted ops
            run["inputs"] = traced_inputs + plain["inputs"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    inputs = run["inputs"]
    attempted, failed = len(inputs), len(failures)
    record.update(
        ops=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        failures=failures[:MAX_FAILURES_LISTED],
        kinds={k: sum(i.kind == k for i in inputs) for k in sorted({i.kind for i in inputs})},
        properties=input_properties(inputs),
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=metadata.version("numpy"),
        sympy=metadata.version("sympy"),
        envcert=envcert.__version__,
        commit=git_commit(),
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


if __name__ == "__main__":
    sys.exit(main())
