"""tailmax benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search-mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout (it finds the package in ``src/``).  The
workloads, metrics and their meaning are described in ``perfbench/README.md``.

With ``--trace 0`` it measures the end-to-end metrics: set-up in fresh
interpreters, then a closed loop of whole passes over the workload's
requests for ``--seconds``, then the output checks.  Latencies and
throughput are scaled to a reference host speed (see ``hostspeed``).  With
``--trace 1`` it runs one pass
of the requests untraced and one traced, checks that both give the same
outputs, and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
``{"record": ...}`` object with the seed, environment, sample counts and any
failure messages.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
MIN_BEYOND = 10  # a percentile needs this many samples above it to be trusted


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, from the ``end_to_end`` or ``per_layer`` list of
    ``BENCHMARK.json``; a run must report exactly these metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile, ``q`` in (0, 100):
    a weighted mean of all order statistics, the i-th weighted by the mass
    a Beta(p (n+1), (1-p) (n+1)) distribution puts on ((i-1)/n, i/n].

    A single order statistic jumps when the samples near it come from two
    host speed states; these weights spread over the samples around the
    rank, so the estimate moves smoothly with the share of slow samples.
    """
    xs = sorted(values)
    n = len(xs)
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return math.fsum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def percentile_flagged(n: int, q: float) -> bool:
    """True when fewer than ``MIN_BEYOND`` of ``n`` samples lie beyond the
    ``q``-th percentile, so it rests on too few slow requests."""
    return n * (100.0 - q) / 100.0 < MIN_BEYOND


def environment(requests_per_pass: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "requests_per_pass": requests_per_pass,
    }


@contextlib.contextmanager
def workdir():
    """Scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base, prefix="work-") as d:
        yield Path(d)


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Failures:
    """Failure messages, and the attempts they make count as failed."""

    def __init__(self) -> None:
        self.messages: list[str] = []
        self.attempts: set = set()

    def add(self, label: str, msgs, attempts) -> None:
        if msgs:
            self.attempts.update(attempts)
            self.messages.extend(f"{label}: {m}" for m in msgs)

    @property
    def count(self) -> int:
        return len(self.attempts)


def closed_loop(requests, execute, seconds: float, seed: int, calibrate):
    """One caller, next request only after the previous one returns, whole
    passes over the request list in a seeded order, until ``seconds`` have
    passed.  Stopping only between passes keeps every request's share of
    the samples the same in every run.

    After every attempt, outside its latency and the loop's time,
    ``calibrate()`` times the host-speed kernel once.

    Returns the latency of every attempt, the loop's wall time without the
    calibrations, the calibration times, the first output of each request,
    the attempts (indices into the latencies) per request, and the failures
    seen during the loop (exceptions, outputs that differ from the request's
    first output).
    """
    import workloads

    order_rng = random.Random(seed)
    latencies: list[float] = []
    calibrations: list[float] = []
    first: dict[int, object] = {}
    first_key: dict[int, str] = {}
    attempts: list[list[int]] = [[] for _ in requests]
    failures = Failures()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        order = list(range(len(requests)))
        order_rng.shuffle(order)
        for i in order:
            t0 = time.perf_counter()
            try:
                out, err = execute(requests[i]), None
            except Exception as e:  # the loop records the failure and goes on
                out, err = None, f"{type(e).__name__}: {e}"
            attempt = len(latencies)
            latencies.append(time.perf_counter() - t0)
            attempts[i].append(attempt)
            t_cal = time.perf_counter()
            calibrations.append(calibrate())
            start += time.perf_counter() - t_cal  # the loop's time leaves it out
            label = requests[i].item["label"]
            if err is not None:
                failures.add(label, [err], [attempt])
                continue
            key = workloads.output_key(out)
            if i not in first:
                first[i], first_key[i] = out, key
            elif key != first_key[i]:
                failures.add(label, ["output differs from this request's first output"], [attempt])
    return latencies, time.perf_counter() - start, calibrations, first, attempts, failures


def check_outputs(workload, requests, first, attempts, failures: Failures) -> None:
    import workloads

    for i, out in first.items():
        msgs = workloads.check(workload, requests[i], out)
        failures.add(requests[i].item["label"], msgs, attempts[i])  # all repeat this output


def untraced_run(workload: str, seed: int, seconds: float):
    import hostspeed
    import workloads

    requests = workloads.build(workload, seed)
    setup_times = measure_setup(workload, seed)
    latencies, loop_s, calibrations, first, attempts, failures = closed_loop(
        requests, workloads.run_inprocess, seconds, seed, lambda: hostspeed.kernel_s(workload)
    )
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_outputs(workload, requests, first, attempts, failures)

    n = len(latencies)
    latencies_ms = [v * 1e3 for v in latencies]
    measured = {
        "latency_ms_p50": percentile(latencies_ms, 50),
        "latency_ms_p90": percentile(latencies_ms, 90),
        "throughput_rps": n / loop_s,
    }
    slowdown = hostspeed.slowdown(workload, calibrations)
    metrics = {
        "latency_ms_p50": measured["latency_ms_p50"] / slowdown,
        "latency_ms_p90": measured["latency_ms_p90"] / slowdown,
        "throughput_rps": measured["throughput_rps"] * slowdown,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    record = {
        "attempts": n,
        "passes": n // len(requests),
        "loop_s": loop_s,
        "p90_flagged": percentile_flagged(n, 90),
        "setup_samples_s": setup_times,
        "host_slowdown": slowdown,
        "kernel_quartiles_s": statistics.quantiles(calibrations, n=4),
        "unscaled": measured,
    }
    return requests, metrics, record, n, failures


class RequestError:
    """An exception raised by one request of a traced run, kept as its output."""

    def __init__(self, exc: Exception) -> None:
        self.message = f"{type(exc).__name__}: {exc}"


def traced_run(workload: str, seed: int):
    import probes
    import workloads
    from tailmax import mtcm
    from tailmax.mtcm import METHODS
    from tracing import LAYERS, Tracer

    requests = workloads.build(workload, seed)
    n = len(requests)
    tracer = Tracer()
    per_request: list[dict] = []

    def timed_pass(reqs, execute, traced=False):
        outs, times = [], []
        for i, req in enumerate(reqs):
            tracer.request = i if traced else None
            before = tracer.snapshot()
            t0 = time.perf_counter()
            try:
                outs.append(execute(req))
            except Exception as e:  # reported as a failed request below
                outs.append(RequestError(e))
            times.append(time.perf_counter() - t0)
            if traced:
                after = tracer.snapshot()
                per_request.append({
                    "request": i,
                    "label": req.item["label"],
                    "dim": req.item["dim"],
                    "ms": times[-1] * 1e3,
                    "layers": {
                        k: {
                            "calls": after[k][0] - before[k][0],
                            "self_ms": (after[k][2] - before[k][2]) * 1e3,
                        }
                        for k in LAYERS
                    },
                })
        return outs, times

    traced_requests = workloads.build(workload, seed)
    for req in traced_requests:
        if req.model is not None:
            tracer.instrument(req.model)
    timed_pass(requests, workloads.run_inprocess)  # warm-up
    untraced, t_untraced = timed_pass(requests, workloads.run_inprocess)
    traced, t_traced = timed_pass(
        traced_requests, lambda r: workloads.run_inprocess(r, tracer.span), traced=True
    )

    failures = Failures()
    for i, req in enumerate(requests):
        label = req.item["label"]
        if isinstance(untraced[i], RequestError):
            failures.add(label, [untraced[i].message], [("untraced", i)])
            continue
        failures.add(label, workloads.check(workload, req, untraced[i]), [("untraced", i)])
        if isinstance(traced[i], RequestError):
            failures.add(label, [traced[i].message], [("traced", i)])
        elif workloads.output_key(traced[i]) != workloads.output_key(untraced[i]):
            failures.add(label, ["traced output differs from the untraced output"], [("traced", i)])

    cli_reqs = workloads.build("cli", seed)
    layer_metrics = probes.model_probes(seed)
    layer_metrics.update(probes.modelspec_probes([r.item["spec"] for r in cli_reqs]))
    sealevel_metrics, missed = probes.sealevel_probe()
    layer_metrics.update(sealevel_metrics)
    missed_rows = [f"row {m} misses the table" for m in missed]
    failures.add("sealevel.report", missed_rows, [("sealevel.report", 0)])
    with workdir() as wd:
        runner = workloads.CliRunner(ROOT, wd, cli_reqs)
        cli_metrics, cli_failures = probes.cli_probes(runner, cli_reqs)
    layer_metrics.update(cli_metrics)
    for i, (label, msgs) in enumerate(cli_failures):
        failures.add(label, msgs, [("cli", i)])

    results = [r for r in map(_mtcm_summary, traced) if r is not None]
    evals = sum(r["diagnostics"]["function_evals"] for r in results)
    stats = tracer.layers
    for layer in ("stdf", "tail_copula"):
        layer_metrics[f"{layer}.calls_per_req"] = stats[layer].calls / n
        layer_metrics[f"{layer}.self_ms_per_req"] = stats[layer].self_s * 1e3 / n
    layer_metrics["nac.self_ms_per_req"] = stats["nac"].self_s * 1e3 / n
    layer_metrics["mtcm.self_ms_per_req"] = stats["mtcm"].self_s * 1e3 / n
    layer_metrics["mtcm.evals_per_req"] = evals / n
    layer_metrics["mtcm.starts_per_req"] = sum(r["diagnostics"]["starts_used"] for r in results) / n
    layer_metrics["mtcm.unpruned_ratio"] = tracer.model_calls_from_mtcm / evals if evals else 0.0
    # Routes over the traced pass and the ``cli`` list, so that the closed
    # forms, which neither workload's pass reaches, are counted too.
    routes = [r["method"] for r in results] + [
        mtcm.dispatch(r.model).method for r in cli_reqs if r.item["command"] != "eval"
    ]
    for method in METHODS:
        layer_metrics[f"mtcm.routes.{method}"] = routes.count(method)
    untraced_s, traced_s = math.fsum(t_untraced), math.fsum(t_traced)
    layer_metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0

    trace_file = ROOT / ".perfbench" / f"trace-{workload}-{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "layers": {
                    k: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                    for k, s in stats.items()
                },
                "requests": per_request,
                "spans": tracer.spans,
            }
        ),
        encoding="utf-8",
    )
    record = {
        "requests": n,
        "untraced_ms_per_req": untraced_s * 1e3 / n,
        "traced_ms_per_req": traced_s * 1e3 / n,
        "self_sum_ms_per_req": math.fsum(s.self_s for s in stats.values()) * 1e3 / n,
        "tracing_overhead_pct": layer_metrics["trace.overhead_pct"],
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    attempted = 2 * n + len(cli_reqs) + 1  # both passes, the CLI requests, the report
    return requests, layer_metrics, record, attempted, failures


def _mtcm_summary(out):
    """The ``MtcmResult`` of one output as a dict, or None if it has none."""
    from tailmax.mtcm import MtcmResult

    return out.to_dict() if isinstance(out, MtcmResult) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tailmax" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tailmax package under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose one of {workloads.WORKLOADS}\n")
        return 2
    if not args.seconds > 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2

    if args.trace:
        requests, metrics, record, attempted, failures = traced_run(args.workload, args.seed)
    else:
        requests, metrics, record, attempted, failures = untraced_run(
            args.workload, args.seed, args.seconds
        )
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(len(requests)),
        **record,
        "attempted": attempted,
        "failed": failures.count,
        "error_rate": failures.count / attempted,
        "failures": failures.messages[:20],
    }
    for name in sorted(metrics):
        print(f"{name:38s} {metrics[name]:14.6g} {units[name]}")
    for msg in failures.messages[:20]:
        print(f"FAILED {msg}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failures.count == 0,
                "attempted": attempted,
                "failed": failures.count,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
