"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They check the benchmark, not envcert: that traced counts repeat, that
seeds matter, that the output checks can fail, and that the input boxes
hold what workloads.py says they hold.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads as W
from tracing import Tracer

ROOT = run.ROOT
run.import_package()
from envcert import cli  # noqa: E402

BUNDLED = W.load_bundled(ROOT)


def first_ops(workload, seed, n):
    gen = W.stream(workload, seed, BUNDLED)
    return [next(gen) for _ in range(n)]


def traced(workload, seed, n, tmp_path):
    inputs = first_ops(workload, seed, n)
    runner = run.Runner(cli, tmp_path)
    with Tracer() as tr:
        ran = run.run_list(runner, inputs)
    return ran, run.layer_metrics(tr, n)


def counts(metrics):
    """The layer metrics that are not times."""
    return {k: v for k, v in metrics.items()
            if run._unit(k) != "s" and not k.endswith("time_share")}


@pytest.mark.parametrize("workload, n", [("sweep", 36), ("fit", 1), ("cycles", 8)])
def test_traced_counts_repeat_for_a_seed(workload, n, tmp_path):
    ran1, m1 = traced(workload, 5, n, tmp_path)
    ran2, m2 = traced(workload, 5, n, tmp_path)
    assert counts(m1) == counts(m2)
    assert run.verify(W, ran1, n) == run.verify(W, ran2, n)
    assert run.verify(W, ran1, n)[0] == []


def test_tracer_restores_the_package(tmp_path):
    import envcert.numerics as numerics
    import envcert.periodic as periodic

    before = (numerics.scan_roots, periodic.scan_roots, cli.run_command)
    with Tracer():
        assert periodic.scan_roots is numerics.scan_roots
        assert periodic.scan_roots is not before[1]
    assert (numerics.scan_roots, periodic.scan_roots, cli.run_command) == before


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_changes_inputs_and_same_seed_repeats_them(workload):
    n = W.block_size(workload, BUNDLED)
    a, b, c = (first_ops(workload, s, n) for s in (1, 1, 2))
    assert [i.config for i in a] == [i.config for i in b]
    assert [i.config for i in a] != [i.config for i in c]
    assert [i.kind for i in a] == [i.kind for i in c]


def test_checker_counts_wrong_expectations(tmp_path):
    runner = run.Runner(cli, tmp_path)
    sweep = first_ops("sweep", 3, W.block_size("sweep", BUNDLED))
    stable = next(i for i in sweep if i.kind == "stable:ricker")
    code, text, _ = runner.op(stable)
    assert W.check(stable, code, text) is None
    wrong = dataclasses.replace(stable, expect="NotPopulationModel")
    assert W.check(wrong, code, text) is not None
    # a reference map the envelope does not bound: r = 2.6 has a two-cycle
    steep = dataclasses.replace(stable, ref=(("ricker", {"r": 2.6}),) * len(stable.ref))
    assert W.check(steep, code, text) is not None
    assert W.check(stable, code, "") is not None

    cyc = first_ops("cycles", 3, 1)[0]
    code, text, _ = runner.op(cyc)
    assert W.check(cyc, code, text) is None
    doc = json.loads(text)
    assert doc["result"]["cycles"], "an oscillating Ricker map has a two-cycle"
    doc["result"]["cycles"][0]["points"][0] += 1e-4
    assert W.check(cyc, code, json.dumps(doc)) is not None


def test_same_seed_gives_same_report_digest(tmp_path):
    ran1, _ = traced("cycles", 9, 8, tmp_path)
    ran2, _ = traced("cycles", 9, 8, tmp_path)
    ran3, _ = traced("cycles", 10, 8, tmp_path)
    assert run.verify(W, ran1, 8)[1] == run.verify(W, ran2, 8)[1]
    assert run.verify(W, ran1, 8)[1] != run.verify(W, ran3, 8)[1]


def _feasible_alphas(params, step=0.005):
    maps = [("exponential-rational", params)]
    return [a for a in np.arange(0.0, 1.0, step) if W.envelope_holds(maps, a, gap=1e-3)]


@pytest.mark.parametrize("a", W.RESCUED["a"])
@pytest.mark.parametrize("b", W.RESCUED["b"])
def test_rescued_box_needs_the_fit_and_admits_a_wide_interval(a, b):
    ok = _feasible_alphas({"a": a, "b": b})
    assert ok and 0.5 not in ok and 0.0 not in ok
    assert max(ok) - min(ok) >= 0.095
    assert max(ok) - min(ok) < len(ok) * 0.005 + 1e-9  # one interval


def test_bundled_expectations_follow_the_header_comments():
    for name in W.BUNDLED:
        text = (ROOT / "src" / "envcert" / "configs" / f"{name}.yaml").read_text()
        header = " ".join(line for line in text.splitlines() if line.startswith("#"))
        expect = "NotPopulationModel" if "NotPopulationModel" in header else "CertifiedGlobal"
        # the others claim success: "certified", "certifies" or "2 - x envelops"
        assert expect == "NotPopulationModel" or any(
            w in header for w in ("certif", "envelops")), name
        assert W.BUNDLED_STATUS[name] == expect, name


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
