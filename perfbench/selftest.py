"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

They run the benchmark itself (a few minutes in all), so they live here
rather than in the package's test suite.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED, OTHER_SEED = 5, 6
EXACT = re.compile(r"(\.calls_per_req|^mtcm\.evals_per_req|^mtcm\.routes\..*)$")


def bench(workload: str, trace: int, seed: int = SEED, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [parsed(bench(w, 1)) for _ in range(2)] for w in workloads.WORKLOADS}


def test_declared_names_follow_the_grammar():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.match(n)] == []
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_the_declared_metrics(workload):
    record, result = parsed(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run.declared_units(0).items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    slowdown, unscaled = record["host_slowdown"], record["unscaled"]
    for name, value in unscaled.items():
        scaled = value * slowdown if name == "throughput_rps" else value / slowdown
        assert result["metrics"][name]["value"] == pytest.approx(scaled, rel=1e-12), name
    assert record["seed"] == SEED and record["workload"] == workload
    env = record["environment"]
    assert set(env) == {"commit", "python", "numpy", "scipy", "nproc", "cpu", "requests_per_pass"}


def test_traced_run_reports_the_declared_metrics(traced_twice):
    declared = run.declared_units(1)
    for workload, runs in traced_twice.items():
        for record, result in runs:
            assert result["correct"], (workload, record["failures"])
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
            assert "tracing_overhead_pct" in record


def test_exact_counters_repeat_exactly(traced_twice):
    for workload, ((_, first), (_, second)) in traced_twice.items():
        names = [n for n in first["metrics"] if EXACT.search(n)]
        assert len(names) == 2 + 1 + 5
        for name in names:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        for method in ("closed_mo", "closed_archimax_exchangeable", "closed_nac"):
            assert first["metrics"][f"mtcm.routes.{method}"]["value"] > 0, (workload, method)


def test_traced_self_times_add_up_to_the_request_time(traced_twice):
    for workload, runs in traced_twice.items():
        for record, _ in runs:
            assert record["self_sum_ms_per_req"] == pytest.approx(
                record["traced_ms_per_req"], rel=0.05
            ), workload


def test_percentile_and_its_flag():
    assert run.percentile(range(1, 101), 50) == pytest.approx(50.5)
    assert run.percentile([3.0], 90) == pytest.approx(3.0)
    assert run.percentile([4.0] * 7, 90) == pytest.approx(4.0)
    assert run.percentile(range(1001), 90) == pytest.approx(900.0, abs=0.5)
    assert 5.0 < run.percentile([0.0, 10.0], 90) < 10.0
    assert run.percentile_flagged(99, 90)
    assert not run.percentile_flagged(100, 90)
    assert run.percentile_flagged(999, 99)
    assert not run.percentile_flagged(1000, 99)


@pytest.mark.parametrize("workload", [*workloads.WORKLOADS, "cli"])
def test_a_seed_always_gives_the_same_list(workload):
    assert workloads.generate(workload, SEED) == workloads.generate(workload, SEED)
    assert workloads.generate(workload, SEED) != workloads.generate(workload, OTHER_SEED)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_passes_every_check(workload):
    requests = workloads.build(workload, OTHER_SEED)
    failures = {
        req.item["label"]: workloads.check(workload, req, workloads.run_inprocess(req))
        for req in requests
    }
    assert {k: v for k, v in failures.items() if v} == {}


def test_cli_requests_pass_their_checks_on_another_seed():
    from tailmax import cli

    requests = workloads.build("cli", OTHER_SEED)
    with run.workdir() as wd:
        runner = workloads.CliRunner(ROOT, wd, requests)
        failures = {
            req.item["label"]: workloads.check("cli", req, runner.run_inprocess(req, cli.main))
            for req in requests
        }
    assert {k: v for k, v in failures.items() if v} == {}


def test_refuses_to_run_without_the_package():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench", prefix="bare-") as d:
        bare = Path(d)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("grid-batch", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
