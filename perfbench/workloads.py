"""Seeded inputs, request execution and output checks for the workloads.

Each workload is one caller in a closed loop over a fixed list of requests
(one "pass"); the list is generated from the workload seed as plain JSON
specs, and the program only ever sees those specs.

* ``search-mix``: in-process ``mtcm.dispatch`` on models that need the
  numerical search (survival logistic and survival mixtures of two
  Marshall-Olkin models at d = 3..6, the five sea-level models, and
  non-exchangeable Archimax models).
* ``grid-batch``: in-process ``mtcm.grid_oracle`` and ``sealevel.surface``,
  which only use the vectorised ``value_batch`` path.

The ``cli`` list (closed-form ``mtcm``, ``nac`` and ``eval`` commands) is
not a workload; the traced run's CLI probes use it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tailmax import mtcm, sealevel
from tailmax.modelspec import parse_tail_copula, to_spec
from tailmax.stdf import MarshallOlkin
from tailmax.tail_copula import NacCopula, SurvivalEvc

WORKLOADS = ("search-mix", "grid-batch")
_SALT = {"search-mix": 101, "cli": 202, "grid-batch": 303}

SEARCH_DIMS = (3, 4, 5, 6)
# Grid-oracle lattices, (points per axis, log half-width): the default
# 201-point grid at d = 3 (40,401 coarse rows) and 35 points at d = 4
# (42,875 rows), so both dimensions cost about the same per request.
GRID = {3: (201, math.log(50.0)), 4: (35, math.log(10.0))}
# The search must not fall below the grid oracle's value by more than this.
SEARCH_ORACLE_TOL = 2e-3


# ---------------------------------------------------------------------------
# seeded spec generation
# ---------------------------------------------------------------------------

def _u(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _logistic(rng, d: int) -> dict:
    return {"family": "logistic", "dimension": d, "params": {"s": _u(rng, 1.5, 2.5)}}


def _mo(rng, d: int) -> dict:
    alpha = [_u(rng, 0.2, 0.8) for _ in range(d)]
    return {"family": "marshall_olkin", "dimension": d, "params": {"alpha": alpha}}


def _survival(stdf: dict) -> dict:
    return {"family": "survival_evc", "dimension": stdf["dimension"], "params": {"stdf": stdf}}


def _archimax(stdf: dict, alpha: float) -> dict:
    return {
        "family": "archimax",
        "dimension": stdf["dimension"],
        "params": {"stdf": stdf, "alpha": alpha},
    }


def _nac_tree(rng, d: int) -> dict:
    """A root over an inner block of 2..d-1 leaves plus single leaves, with
    the inner index below the root's (Clayton nesting holds)."""
    labels = [int(v) + 1 for v in rng.permutation(d)]
    root = _u(rng, 1.0, 2.0)
    k = int(rng.integers(2, d))
    inner = {"alpha": _u(rng, 0.3, root), "children": [{"leaf": j} for j in labels[:k]]}
    return {"alpha": root, "children": [inner] + [{"leaf": j} for j in labels[k:]]}


def _nac_spec(tree: dict, d: int) -> dict:
    return {"family": "nac", "dimension": d, "params": {"tree": tree}}


def _item(op: str, label: str, spec: dict | None, dim: int, **extra) -> dict:
    return {"op": op, "label": label, "spec": spec, "dim": dim, **extra}


def _jit(rng, centre: float, rel: float = 0.05) -> float:
    return round(centre * (1.0 + float(rng.uniform(-rel, rel))), 4)


def _mo_near(rng, d: int, reverse: bool) -> dict:
    """Marshall-Olkin parameters spread over [0.25, 0.75] in a fixed order,
    each moved by up to 5% of itself."""
    order = [*range(0, d, 2), *range(1, d, 2)]
    centres = [0.25 + 0.5 * k / (d - 1) for k in order]
    if reverse:
        centres.reverse()
    alpha = [_jit(rng, c) for c in centres]
    return {"family": "marshall_olkin", "dimension": d, "params": {"alpha": alpha}}


def _logistic_mo(rng, d: int) -> dict:
    """A mixture of a logistic and a Marshall-Olkin model."""
    return {
        "family": "mixture",
        "dimension": d,
        "params": {
            "weight": _jit(rng, 0.5),
            "components": [
                {"family": "logistic", "dimension": d, "params": {"s": _jit(rng, 2.0)}},
                _mo_near(rng, d, False),
            ],
        },
    }


def _tawn(rng, family: str) -> dict:
    if family == "tawn1":
        params = {"s": _jit(rng, 2.0), "r": _jit(rng, 1.5), "theta": [_jit(rng, c) for c in (0.3, 0.6, 0.8)]}
    else:
        params = {"s": _jit(rng, 1.8), "r": _jit(rng, 1.5), "t": _jit(rng, 2.0), "phi": _jit(rng, 0.6)}
    return {"family": family, "dimension": 3, "params": params}


def _search_mix(rng) -> list[dict]:
    # Parameters move within 5% of fixed centres: the seed changes every
    # input, but the search effort per request (and so the latency mix)
    # stays comparable from seed to seed.  A pass has 25 requests, so that
    # with whole passes p50 and p90 fall in the middle of one request's
    # attempts (ranks 12.5 and 22.5 of 25) rather than between two requests.
    items = []
    for d in SEARCH_DIMS:
        logistic = {"family": "logistic", "dimension": d, "params": {"s": _jit(rng, 2.0)}}
        items.append(_item("dispatch", f"survival-logistic-d{d}", _survival(logistic), d))
        mo_mix = {
            "family": "mixture",
            "dimension": d,
            "params": {
                "weight": _jit(rng, 0.5),
                "components": [_mo_near(rng, d, False), _mo_near(rng, d, True)],
            },
        }
        items.append(_item("dispatch", f"survival-mo-mixture-d{d}", _survival(mo_mix), d))
        if d <= 4:  # about 1 s at d = 5 and 3 s at d = 6, which would dominate a pass
            items.append(
                _item("dispatch", f"survival-logistic-mo-d{d}", _survival(_logistic_mo(rng, d)), d)
            )
        items.append(
            _item(
                "dispatch",
                f"archimax-logistic-mo-d{d}",
                _archimax(_logistic_mo(rng, d), _jit(rng, 1.0)),
                d,
            )
        )
    for family in ("tawn1", "tawn2"):
        items.append(_item("dispatch", f"survival-{family}", _survival(_tawn(rng, family)), 3))
        for alpha in (0.7, 1.4):
            spec = _archimax(_tawn(rng, family), _jit(rng, alpha))
            items.append(_item("dispatch", f"archimax-{family}-a{alpha}", spec, 3))
    for m in sealevel.MODELS:
        spec = _survival(to_spec(m.stdf))
        items.append(_item("dispatch", f"sealevel-{m.label}", spec, 3, sealevel=m.label))
    return items


def _cli(rng) -> list[dict]:
    items = []
    for d in range(3, 9):
        items.append(_item("cli", f"mtcm-mo-d{d}", _survival(_mo(rng, d)), d, command="mtcm"))
    for i in range(2):
        d = int(rng.integers(3, 7))
        spec = _archimax(_logistic(rng, d), _u(rng, 0.3, 2.0))
        items.append(_item("cli", f"mtcm-archimax-exch-{i}", spec, d, command="mtcm"))
    for i in range(2):
        d = int(rng.integers(3, 9))
        spec = {"family": "archimedean", "dimension": d, "params": {"alpha": _u(rng, 0.3, 2.0)}}
        items.append(_item("cli", f"mtcm-archimedean-{i}", spec, d, command="mtcm"))
    for i in range(2):
        d = int(rng.integers(3, 7))
        tree = _nac_tree(rng, d)
        items.append(_item("cli", f"nac-tree-{i}", _nac_spec(tree, d), d, command="nac"))
    for label, spec in (
        ("eval-survival-logistic", _survival(_logistic(rng, 4))),
        ("eval-nac", _nac_spec(_nac_tree(rng, 4), 4)),
    ):
        x = [_u(rng, 0.2, 5.0) for _ in range(4)]
        items.append(_item("cli", label, spec, 4, command="eval", x=x))
    return items


def _grid_batch(rng) -> list[dict]:
    items = []
    for d, (n, L) in GRID.items():
        grid = {"grid_n": n, "log_range": L}
        tree = _nac_tree(rng, d)
        specs = (
            (f"oracle-survival-mo-d{d}", _survival(_mo(rng, d))),
            (f"oracle-nac-d{d}", _nac_spec(tree, d)),
            (f"oracle-archimax-mo-d{d}", _archimax(_mo(rng, d), _u(rng, 0.5, 1.5))),
            (
                f"oracle-mixture-nac-logistic-d{d}",
                {
                    "family": "mixture_tc",
                    "dimension": d,
                    "params": {
                        "weight": _u(rng, 0.3, 0.7),
                        "components": [_nac_spec(_nac_tree(rng, d), d), _survival(_logistic(rng, d))],
                    },
                },
            ),
        )
        for label, spec in specs:
            items.append(_item("grid_oracle", label, spec, d, **grid))
    for m in sealevel.MODELS:
        items.append(
            _item(
                "surface",
                f"surface-{m.label}",
                None,
                3,
                sealevel=m.label,
                grid_n=201,
                log_range=_u(rng, math.log(4.0), math.log(6.0)),
            )
        )
    return items


_GENERATORS = {"search-mix": _search_mix, "cli": _cli, "grid-batch": _grid_batch}


def generate(kind: str, seed: int) -> list[dict]:
    """One pass of a workload (or the ``cli`` list) as plain JSON data; same
    seed, same list."""
    rng = np.random.default_rng([int(seed), _SALT[kind]])
    return _GENERATORS[kind](rng)


@dataclass
class Request:
    item: dict
    model: object | None  # parsed tail copula; None for surface requests


def build(kind: str, seed: int) -> list[Request]:
    """Generate the specs and parse them into model objects."""
    return [
        Request(it, None if it["spec"] is None else parse_tail_copula(it["spec"]))
        for it in generate(kind, seed)
    ]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def plain_call(layer, name, fn, *args):
    return fn(*args)


def run_inprocess(req: Request, call=plain_call):
    """One in-process request; ``call`` is ``plain_call`` or a tracer span."""
    it = req.item
    if it["op"] == "dispatch":
        return call("mtcm", "dispatch", mtcm.dispatch, req.model)
    if it["op"] == "grid_oracle":
        return call("mtcm", "grid_oracle", mtcm.grid_oracle, req.model, it["grid_n"], it["log_range"])
    if it["op"] == "surface":
        return call("sealevel", "surface", sealevel.surface, it["sealevel"], it["grid_n"], it["log_range"])
    raise ValueError(f"not an in-process request: {it['op']}")


@dataclass(frozen=True)
class CliOutput:
    returncode: int
    stdout: str
    stderr: str


class CliRunner:
    """Writes the ``cli`` requests' input files under ``workdir`` and runs
    them through ``cli.main`` in this process; ``env`` and ``root`` are what
    a ``PYTHONPATH=src python -m tailmax.cli`` process would be started
    with."""

    def __init__(self, root: Path, workdir: Path, requests: list[Request]) -> None:
        self.root = root
        self.env = {k: v for k, v in os.environ.items() if k != "TAILMAX_SEED"}
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old
        self._argv = {}
        for i, req in enumerate(requests):
            it = req.item
            path = workdir / f"input-{i}.json"
            if it["command"] == "nac":
                path.write_text(json.dumps(it["spec"]["params"]["tree"]), encoding="utf-8")
                argv = ["nac", "--tree", str(path)]
            else:
                path.write_text(json.dumps(it["spec"]), encoding="utf-8")
                argv = [it["command"], "--model", str(path)]
                if it["command"] == "eval":
                    argv += ["--x", ",".join(repr(v) for v in it["x"])]
            self._argv[it["label"]] = argv + ["--format", "json"]

    def run_inprocess(self, req: Request, main) -> CliOutput:
        """One request through ``main`` (``cli.main``), capturing its output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(self._argv[req.item["label"]])
        return CliOutput(rc, out.getvalue(), err.getvalue())


def output_key(out) -> str:
    """Comparable digest of one output, for determinism and trace checks."""
    if isinstance(out, mtcm.MtcmResult):
        return json.dumps(out.to_dict(), sort_keys=True)
    if isinstance(out, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
    raise TypeError(type(out).__name__)


# ---------------------------------------------------------------------------
# output checks (references are computed here, after the timed loop)
# ---------------------------------------------------------------------------

def _invariants(model, r) -> list[str]:
    """prod b* = 1, lambda* <= min b*, lambda* >= L(1), and lambda* = L(b*)."""
    b, lam = r.b_star, r.lambda_star
    if len(b) != model.dim:
        return [f"b* has {len(b)} entries for d={model.dim}"]
    errs = []
    prod = math.exp(math.fsum(math.log(v) for v in b))
    if abs(prod - 1.0) > 1e-10:
        errs.append(f"prod b* = {prod!r}")
    if lam > min(b) + 1e-10:
        errs.append(f"lambda*={lam!r} exceeds min b*={min(b)!r}")
    diag = model.diagonal()
    if lam < diag - 1e-12:
        errs.append(f"lambda*={lam!r} below the diagonal L(1)={diag!r}")
    attained = model.value(b)
    if abs(attained - lam) > 1e-9 * max(1.0, lam):
        errs.append(f"lambda*={lam!r} but L(b*)={attained!r}")
    return errs


def lattice_tol(d: int, n: int, log_range: float, lam: float) -> float:
    """How far the grid oracle can sit below a maximum ``lam`` inside its fine
    window: the nearest fine-lattice point is within half a step h in each
    free log coordinate, so within (d-1)h/2 in every coordinate, and by
    monotonicity and homogeneity L there is at least lam * exp(-(d-1)h/2)."""
    h = 2.0 * log_range / (n - 1) / 10.0
    return lam * (1.0 - math.exp(-(d - 1) * h / 2.0))


def _check_search(req: Request, r) -> list[str]:
    model, it = req.model, req.item
    errs = _invariants(model, r)
    if model.dim in GRID:
        ref = mtcm.grid_oracle(model, *GRID[model.dim]).lambda_star
        if r.lambda_star < ref - SEARCH_ORACLE_TOL:
            errs.append(f"lambda*={r.lambda_star!r} below the grid oracle's {ref!r}")
    if "sealevel" in it:
        exp = sealevel.get_model(it["sealevel"]).expected
        if abs(model.diagonal() - exp.lam) > sealevel.LAMBDA_TOL:
            errs.append(f"lambda={model.diagonal()!r} vs table {exp.lam}")
        if abs(r.lambda_star - exp.lam_star) > sealevel.LAMBDA_TOL:
            errs.append(f"lambda*={r.lambda_star!r} vs table {exp.lam_star}")
        if any(abs(b - e) > sealevel.B_STAR_TOL for b, e in zip(r.b_star, exp.b_star)):
            errs.append(f"b*={r.b_star!r} vs table {exp.b_star}")
    return errs


def _check_grid(req: Request, out) -> list[str]:
    it = req.item
    if it["op"] == "surface":
        return _check_surface(it, out)
    model = req.model
    errs = _invariants(model, out)
    exact = isinstance(model, NacCopula) or (
        isinstance(model, SurvivalEvc) and isinstance(model.stdf, MarshallOlkin)
    )
    if exact:
        closed = mtcm.dispatch(model).lambda_star
        tol = lattice_tol(model.dim, it["grid_n"], it["log_range"], closed)
        if not closed - tol <= out.lambda_star <= closed + 1e-12:
            errs.append(f"oracle {out.lambda_star!r} vs closed form {closed!r} (tol {tol:.3g})")
    return errs


def _check_surface(it: dict, arr) -> list[str]:
    n = it["grid_n"]
    if arr.shape != (n * n, 3):
        return [f"surface shape {arr.shape}"]
    x1, x2, v = arr[:, 0], arr[:, 1], arr[:, 2]
    bound = np.minimum(np.minimum(np.exp(x1), np.exp(x2)), np.exp(-x1 - x2))
    errs = []
    if not (np.all(v >= 0.0) and np.all(v <= bound * (1.0 + 1e-9))):
        errs.append("surface leaves 0 <= L <= min b")
    diag = SurvivalEvc(sealevel.get_model(it["sealevel"]).stdf).diagonal()
    centre = float(v[(n * n) // 2])
    if abs(centre - diag) > 1e-9:
        errs.append(f"surface centre {centre!r} vs L(1)={diag!r}")
    return errs


def _check_cli(req: Request, out: CliOutput) -> list[str]:
    if out.returncode != 0:
        tail = out.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {out.returncode}: {tail[0]}"]
    try:
        obj = json.loads(out.stdout)
    except json.JSONDecodeError as e:
        return [f"stdout is not JSON ({e})"]
    it, model = req.item, req.model
    if it["command"] == "eval":
        want = model.value(it["x"])
        return [] if obj.get("value") == want else [f"value {obj.get('value')!r} vs {want!r}"]
    if it["command"] == "nac" and not obj.get("nesting", {}).get("satisfied"):
        return ["nesting reported as violated"]
    result = mtcm.dispatch(model)
    errs = _invariants(model, result)
    if obj.get("result") != json.loads(json.dumps(result.to_dict())):
        errs.append(f"result {obj.get('result')!r} vs in-process {result.to_dict()!r}")
    if it["command"] == "mtcm" and obj.get("model") != json.loads(json.dumps(to_spec(model))):
        errs.append("model spec differs from the in-process to_spec")
    return errs


_CHECKS = {"search-mix": _check_search, "cli": _check_cli, "grid-batch": _check_grid}


def check(kind: str, req: Request, out) -> list[str]:
    """Failure messages for one output; empty when it is correct."""
    try:
        return _CHECKS[kind](req, out)
    except Exception as e:  # a check that cannot run counts as a failure
        return [f"check raised {type(e).__name__}: {e}"]
