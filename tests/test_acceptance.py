"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np

from tailmax import (
    Archimax,
    Comonotone,
    Independence,
    Logistic,
    MarshallOlkin,
    Mixture,
    MixtureTail,
    NacCopula,
    NacTree,
    OptimizerConfig,
    SurvivalEvc,
    TawnTypeI,
    TawnTypeII,
    closed_form_mo,
    dispatch,
    grid_oracle,
    optimize,
)
from tailmax import sealevel
from tailmax.cli import main as cli_main

from _support import perturb_unit_product, random_mo_alpha, random_tree_dict

LAMBDA_TOL = 2e-3
B_TOL = 5e-3

TABLE_REFERENCE = {
    "I-1": (0.356, 0.356, (1.000, 1.000, 1.000)),
    "I-2": (0.233, 0.372, (0.630, 0.630, 2.520)),
    "I-3": (0.208, 0.266, (1.337, 1.337, 0.559)),
    "II-1": (0.377, 0.378, (0.948, 0.948, 1.113)),
    "II-2": (0.306, 0.307, (0.956, 0.956, 1.095)),
}

NESTED_PAIR = NacTree.from_dict(
    {"alpha": 2.0, "children": [{"leaf": 1}, {"alpha": 1.0, "children": [{"leaf": 2}, {"leaf": 3}]}]}
)


def _finish(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _family_catalog(d):
    """One representative per implemented family at dimension d."""
    models = [
        SurvivalEvc(Independence(d)),
        SurvivalEvc(Comonotone(d)),
        SurvivalEvc(Logistic(1.59, d)),
        SurvivalEvc(MarshallOlkin((0.3, 0.7) if d == 2 else (0.2, 0.5, 0.8))),
        SurvivalEvc(
            Mixture(
                0.5,
                Logistic(2.0, d),
                MarshallOlkin((0.3, 0.7) if d == 2 else (0.2, 0.5, 0.8)),
            )
        ),
        Archimax(MarshallOlkin((0.3, 0.7) if d == 2 else (0.2, 0.5, 0.8)), 1.2),
        Archimax(Independence(d), 0.7),
        MixtureTail(0.4, Archimax(Independence(d), 0.5), SurvivalEvc(Logistic(2.0, d))),
    ]
    if d == 2:
        models.append(NacCopula(NacTree.from_dict({"alpha": 0.8, "children": [{}, {}]})))
    else:
        models.append(NacCopula(NESTED_PAIR))
        models.append(SurvivalEvc(TawnTypeI(s=2.48, r=1.0, theta=(1.0, 1.0, 0.25))))
        models.append(SurvivalEvc(TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74)))
    return models


# ---------------------------------------------------------------------------
# 1. quantitative reproduction of the published comparison table
# ---------------------------------------------------------------------------

def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    rows = sealevel.report()  # default optimizer configuration
    elapsed = time.perf_counter() - t0

    failures = []
    for row in rows:
        lam_ref, lam_star_ref, b_ref = TABLE_REFERENCE[row.label]
        if abs(row.lam - lam_ref) > LAMBDA_TOL:
            failures.append(f"{row.label}: lambda {row.lam:.6f} vs {lam_ref}")
        if abs(row.result.lambda_star - lam_star_ref) > LAMBDA_TOL:
            failures.append(f"{row.label}: lambda* {row.result.lambda_star:.6f} vs {lam_star_ref}")
        for j, (b, e) in enumerate(zip(row.result.b_star, b_ref)):
            if abs(b - e) > B_TOL:
                failures.append(f"{row.label}: b*[{j}] {b:.6f} vs {e}")
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _finish(
        "1 (table reproduction)",
        not failures,
        "; ".join(failures) if failures else f"5 models in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. closed-form / optimizer agreement on random models
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_agreement():
    rng = np.random.default_rng(20_240_501)
    failures = []

    for d in (2, 3, 4):
        for k in range(20):
            alpha = random_mo_alpha(rng, d)
            closed = closed_form_mo(alpha)
            opt = optimize(SurvivalEvc(MarshallOlkin(alpha)))
            dlam = abs(opt.lambda_star - closed.lambda_star)
            db = max(abs(a - b) for a, b in zip(opt.b_star, closed.b_star))
            if dlam > 1e-6 or db > 1e-4:
                failures.append(f"MO d={d} #{k}: dlam={dlam:.2e} db={db:.2e}")

    for k in range(20):
        tree = NacTree.from_dict(
            random_tree_dict(rng, max_depth=3, max_leaves=5, nesting_valid=True)
        )
        lam = tree.mtcm_closed()
        b = tree.maximizer()
        opt = optimize(NacCopula(tree))
        dlam = abs(opt.lambda_star - lam)
        db = max(abs(u - v) for u, v in zip(opt.b_star, b))
        if dlam > 1e-6 or db > 1e-4:
            failures.append(f"NAC #{k} (d={tree.dim}): dlam={dlam:.2e} db={db:.2e}")

    _finish("2 (closed-form/optimizer agreement)", not failures, "; ".join(failures[:5]))


# ---------------------------------------------------------------------------
# 3. recursion / closed-form identity on random trees
# ---------------------------------------------------------------------------

def test_criterion_3_recursion_identity():
    rng = np.random.default_rng(30_550)
    failures = []
    for k in range(50):
        tree = NacTree.from_dict(
            random_tree_dict(rng, max_depth=4, max_leaves=12, nesting_valid=bool(k % 2))
        )
        for v in tree.internal_vertices:
            a = tree.mtcm_recursive(v)
            b = tree.mtcm_closed(v)
            if abs(a - b) > 1e-12 * max(a, b):
                failures.append(f"tree #{k} vertex {v}: rel diff {abs(a - b) / max(a, b):.2e}")
    _finish("3 (recursion equals closed form)", not failures, "; ".join(failures[:5]))


# ---------------------------------------------------------------------------
# 4. grid oracle / optimizer equivalence for every family at d in {2, 3}
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    failures = []
    for d in (2, 3):
        for model in _family_catalog(d):
            opt = optimize(model)
            orc = grid_oracle(model, 201, math.log(5.0))
            diff = abs(opt.lambda_star - orc.lambda_star)
            if diff > 1e-3:
                failures.append(f"{type(model).__name__} d={d}: diff {diff:.2e}")
    _finish("4 (oracle equivalence)", not failures, "; ".join(failures[:5]))


# ---------------------------------------------------------------------------
# 5. property suite for the non-quantitative claims
# ---------------------------------------------------------------------------

def test_criterion_5_property_suite():
    rng = np.random.default_rng(5150)
    failures = []

    # min bound, homogeneity, Lipschitz and monotonicity on 1e4 points per family
    for model in _family_catalog(3):
        X = np.exp(rng.uniform(-2.5, 2.5, size=(10_000, model.dim)))
        vals = model.value_batch(X)
        if not np.all(vals <= X.min(axis=1) + 1e-12):
            failures.append(f"{type(model).__name__}: min bound")
        for t in (0.5, 2.0):
            tv = model.value_batch(t * X)
            if not np.all(np.abs(tv - t * vals) <= 1e-10 * np.maximum(1.0, t * vals)):
                failures.append(f"{type(model).__name__}: homogeneity t={t}")
        Y = np.exp(rng.uniform(-2.5, 2.5, size=(10_000, model.dim)))
        if not np.all(
            np.abs(model.value_batch(Y) - vals) <= np.abs(Y - X).sum(axis=1) + 1e-12
        ):
            failures.append(f"{type(model).__name__}: Lipschitz")
        Z = X + rng.uniform(0.0, 1.0, X.shape)
        if not np.all(model.value_batch(Z) >= vals - 1e-12):
            failures.append(f"{type(model).__name__}: monotonicity")

    # perfect dependence attains 1; independence is degenerate at 0
    r = optimize(SurvivalEvc(Comonotone(3)))
    if abs(r.lambda_star - 1.0) > 1e-9:
        failures.append(f"comonotone maximum {r.lambda_star}")
    r = optimize(SurvivalEvc(Independence(3)))
    if r.lambda_star != 0.0:
        failures.append(f"independence maximum {r.lambda_star}")

    # convexity under mixing, on 20 random pairs of closed-form models
    cfg = OptimizerConfig(starts=8)
    for k in range(20):
        a = SurvivalEvc(MarshallOlkin(random_mo_alpha(rng, 3)))
        b = Archimax(Independence(3), float(rng.uniform(0.3, 2.0)))
        la = dispatch(a).lambda_star
        lb = dispatch(b).lambda_star
        for t in (0.25, 0.5, 0.75):
            lm = optimize(MixtureTail(t, a, b), cfg).lambda_star
            if lm > t * la + (1 - t) * lb + 1e-9:
                failures.append(f"mixture pair #{k} t={t}: {lm:.8f} > bound")

    # the diagonal is always a feasible lower bound
    for model in _family_catalog(3):
        lam = dispatch(model, cfg).lambda_star
        if lam < model.diagonal() - 1e-9:
            failures.append(f"{type(model).__name__}: diagonal exceeds maximum")

    _finish("5 (property suite)", not failures, "; ".join(failures[:5]))


# ---------------------------------------------------------------------------
# 6. maximizer validity for every reported result
# ---------------------------------------------------------------------------

def test_criterion_6_maximizer_validity():
    rng = np.random.default_rng(6006)
    failures = []
    models = _family_catalog(2) + _family_catalog(3)
    for model in models:
        res = dispatch(model)
        if res.lambda_star == 0.0:
            continue  # degenerate: maximizer is the diagonal by convention
        prod = math.prod(res.b_star)
        if abs(prod - 1.0) > 1e-10:
            failures.append(f"{type(model).__name__} ({res.method}): product {prod}")
        attained = model.value(res.b_star)
        if abs(attained - res.lambda_star) > 1e-9:
            failures.append(
                f"{type(model).__name__} ({res.method}): value at b* off by "
                f"{abs(attained - res.lambda_star):.2e}"
            )
        for _ in range(100):
            bp = perturb_unit_product(rng, res.b_star, scale=float(rng.uniform(1e-4, 0.3)))
            if model.value(bp) > res.lambda_star + 1e-9:
                failures.append(
                    f"{type(model).__name__} ({res.method}): perturbation beats maximum"
                )
                break
    _finish("6 (maximizer validity)", not failures, "; ".join(failures[:5]))


# ---------------------------------------------------------------------------
# 7. determinism of the command-line interface
# ---------------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path, capsys):
    model_file = tmp_path / "t2.json"
    model_file.write_text(
        json.dumps({"family": "tawn2", "params": {"s": 1.69, "r": 1.25, "t": 7.44, "phi": 0.74}})
    )
    failures = []

    runs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        code = cli_main(
            ["mtcm", "--model", str(model_file), "--seed", "11", "--starts", "6",
             "--format", "json", "--out", str(out)]
        )
        capsys.readouterr()
        if code != 0:
            failures.append(f"mtcm exit code {code}")
        runs.append(out.read_bytes())
    if runs[0] != runs[1]:
        failures.append("mtcm JSON differs between identical runs")

    runs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        code = cli_main(
            ["sealevel", "--seed", "11", "--starts", "6", "--format", "json", "--out", str(out)]
        )
        capsys.readouterr()
        if code != 0:
            failures.append(f"sealevel exit code {code}")
        runs.append(out.read_bytes())
    if runs[0] != runs[1]:
        failures.append("sealevel JSON differs between identical runs")

    _finish("7 (determinism)", not failures, "; ".join(failures))
