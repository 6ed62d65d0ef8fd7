"""Fixed per-layer probes, run in every traced run whatever the workload.

They time single layers from outside through their public functions, on
inputs drawn from the run's seed, so each per-layer number exists on every
workload and means the same thing there.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from tailmax import mtcm, sealevel
from tailmax.modelspec import parse_tail_copula, to_spec
from tailmax.stdf import Logistic, MarshallOlkin, Mixture
from tailmax.tail_copula import SurvivalEvc

PROBE_DIMS = (3, 4, 5, 6)
_MIN_PROBE_S = 0.05


def _per_call_s(fn, args_list) -> float:
    """Mean seconds per call over whole passes through ``args_list``,
    repeated until at least ``_MIN_PROBE_S`` has been measured."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        for args in args_list:
            fn(*args)
        calls += len(args_list)
        elapsed = time.perf_counter() - t0
        if elapsed >= _MIN_PROBE_S:
            return elapsed / calls


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def model_probes(seed: int) -> dict[str, float]:
    """Scalar and batch evaluation costs, and one search request per d."""
    rng = np.random.default_rng([int(seed), 404])
    out = {}
    for d in PROBE_DIMS:
        ell = Logistic(round(float(rng.uniform(1.5, 2.5)), 4), d)
        tc = SurvivalEvc(ell)
        points = [(p,) for p in np.exp(rng.uniform(-1.0, 1.0, (64, d))).tolist()]
        out[f"stdf.scalar_us.d{d}"] = _per_call_s(ell._value, points) * 1e6
        out[f"tail_copula.scalar_us.d{d}"] = _per_call_s(tc._value, points) * 1e6

    # the rows of the default d = 3 oracle lattice
    axis = np.linspace(-np.log(50.0), np.log(50.0), 201)
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    rows = np.exp(np.column_stack([X1.ravel(), X2.ravel(), -X1.ravel() - X2.ravel()]))
    ell = Logistic(round(float(rng.uniform(1.5, 2.5)), 4), 3)
    tc = SurvivalEvc(ell)
    out["stdf.batch_ns_per_row"] = _median_s(lambda: ell.value_batch(rows), 3) / len(rows) * 1e9
    out["tail_copula.batch_ns_per_row"] = _median_s(lambda: tc.value_batch(rows), 3) / len(rows) * 1e9

    # one search request per d on a survival mixture of two Marshall-Olkin models
    for d in PROBE_DIMS:
        alphas = rng.uniform(0.2, 0.8, (2, d)).round(4)
        w = round(float(rng.uniform(0.3, 0.7)), 4)
        model = SurvivalEvc(Mixture(w, MarshallOlkin(tuple(alphas[0])), MarshallOlkin(tuple(alphas[1]))))
        out[f"mtcm.req_ms.d{d}"] = _median_s(lambda: mtcm.dispatch(model), 1) * 1e3
    return out


def modelspec_probes(specs: list[dict]) -> dict[str, float]:
    models = [parse_tail_copula(s) for s in specs]
    return {
        "modelspec.parse_us": _per_call_s(parse_tail_copula, [(s,) for s in specs]) * 1e6,
        "modelspec.to_spec_us": _per_call_s(to_spec, [(m,) for m in models]) * 1e6,
    }


def sealevel_probe() -> tuple[dict[str, float], list[str]]:
    """``sealevel.report()`` once, with the labels of rows that missed the table."""
    t0 = time.perf_counter()
    rows = sealevel.report()
    ms = (time.perf_counter() - t0) * 1e3
    return {"sealevel.report_ms": ms}, [r.label for r in rows if not r.passed]


def cli_probes(runner, requests) -> tuple[dict[str, float], list[tuple[str, list[str]]]]:
    """Interpreter start, the import of ``tailmax.cli`` on top of it, and
    warm in-process ``cli.main`` on the ``cli`` requests, whose outputs are
    checked (exit code 0, JSON equal to the in-process result)."""
    import workloads
    from tailmax import cli

    def fresh(code: str) -> float:
        cmd = [sys.executable, "-c", code]
        return _median_s(
            lambda: subprocess.run(
                cmd, cwd=runner.root, env=runner.env, check=True, stdout=subprocess.DEVNULL
            ),
            3,
        )

    interpreter = fresh("pass")
    imported = fresh("import tailmax.cli")
    failures = []
    main_times = []
    for req in requests:
        out = runner.run_inprocess(req, cli.main)  # warm-up, and the output to check
        failures.append((req.item["label"], workloads.check("cli", req, out)))
        main_times.append(_median_s(lambda r=req: runner.run_inprocess(r, cli.main), 3))
    metrics = {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (imported - interpreter) * 1e3,
        "cli.main_ms": statistics.median(main_times) * 1e3,
    }
    return metrics, failures
