"""Independent oracles and random-model helpers shared by the test modules.

Everything here is deliberately written as flat arithmetic over plain floats,
independent of the package's evaluation paths (subset identities, paired
sums, log-space products), so agreement is meaningful.
The grid-oracle reference is the exception: it evaluates the model's own
``value_batch`` at every lattice point, to pin the oracle's skipping of
points to the full scan's result bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# survival-route oracle: direct subset enumeration
# ---------------------------------------------------------------------------

def naive_survival_tail(stdf, x):
    """Alternating sum over all nonempty index subsets, via itertools."""
    d = len(x)
    terms = []
    for size in range(1, d + 1):
        for S in itertools.combinations(range(d), size):
            y = [x[j] if j in S else 0.0 for j in range(d)]
            terms.append((-1.0) ** (size - 1) * stdf.value(y))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Marshall-Olkin closed forms (hand-rolled)
# ---------------------------------------------------------------------------

def mo_stdf_value(alpha, x):
    return math.fsum((1.0 - a) * v for a, v in zip(alpha, x)) + max(
        a * v for a, v in zip(alpha, x)
    )


def mo_tail_value(alpha, x):
    return min(a * v for a, v in zip(alpha, x))


def mo_mtcm(alpha):
    lam = math.prod(alpha) ** (1.0 / len(alpha))
    return lam, [lam / a for a in alpha]


# ---------------------------------------------------------------------------
# two-level nested-tree closed forms (flat arithmetic)
# ---------------------------------------------------------------------------

def two_level_mtcm(alpha0, blocks):
    """Value and maximizer for a root over S blocks.

    ``blocks`` is a list of (d_s, alpha_s) pairs; alpha_s is ignored for
    singleton blocks (the leaf hangs directly off the root).
    """
    d = sum(ds for ds, _ in blocks)
    atil = [alpha0 if ds == 1 else a for ds, a in blocks]
    log_lam = -alpha0 * math.log(d)
    for (ds, _), at in zip(blocks, atil):
        log_lam += ds * (alpha0 - at) / d * math.log(ds)
    lam = math.exp(log_lam)
    common = math.exp(log_lam + alpha0 * math.log(d))
    b = []
    for (ds, _), at in zip(blocks, atil):
        comp = math.exp((at - alpha0) * math.log(ds)) * common
        b.extend([comp] * ds)
    return lam, b


def two_level_tree_dict(alpha0, blocks):
    children = []
    for ds, a in blocks:
        if ds == 1:
            children.append({})
        else:
            children.append({"alpha": a, "children": [{} for _ in range(ds)]})
    return {"alpha": alpha0, "children": children}


# ---------------------------------------------------------------------------
# random model generation
# ---------------------------------------------------------------------------

def random_tree_dict(rng, n_leaves=None, max_depth=3, max_leaves=5,
                     nesting_valid=True, alpha_range=(0.3, 2.5)):
    """Random nested-tree dict with the requested leaf budget and depth cap."""
    lo, hi = alpha_range
    if n_leaves is None:
        n_leaves = int(rng.integers(2, max_leaves + 1))

    def draw_alpha(cap):
        if nesting_valid:
            return float(rng.uniform(lo, cap))
        return float(rng.uniform(lo, hi))

    def build(n, levels_left, cap):
        a = draw_alpha(cap)
        if levels_left <= 1 or n == 2:
            kids = n
        else:
            kids = int(rng.integers(2, n + 1))
        # composition of n into `kids` positive parts (stars and bars)
        if kids == n:
            parts = [1] * n
        else:
            cuts = np.sort(rng.choice(np.arange(1, n), size=kids - 1, replace=False))
            bounds = [0, *cuts.tolist(), n]
            parts = [bounds[i + 1] - bounds[i] for i in range(kids)]
        children = []
        for p in parts:
            if p == 1:
                children.append({})
            else:
                children.append(build(p, levels_left - 1, a))
        return {"alpha": a, "children": children}

    return build(int(n_leaves), int(max_depth), hi)


def random_mo_alpha(rng, d, low=0.1, high=0.9):
    return tuple(float(v) for v in rng.uniform(low, high, d))


def perturb_unit_product(rng, b, scale):
    """Random feasible perturbation of b: jitter the logs, recenter to sum 0."""
    y = np.log(np.asarray(b, dtype=float)) + rng.normal(0.0, scale, len(b))
    y -= y.mean()
    return np.exp(y)


# ---------------------------------------------------------------------------
# grid oracle: every lattice point of both stages
# ---------------------------------------------------------------------------

def full_grid_oracle(model, grid_n, log_range):
    """``grid_oracle(model, grid_n, log_range).to_dict()`` from a scan that
    evaluates every point of both lattices through the model's
    ``value_batch``: the first maximum in row-major order wins, and the fine
    lattice replaces the coarse winner only when strictly higher."""
    from tailmax.mtcm import Diagnostics, _result, embed_budget

    d = model.dim
    step = 2.0 * log_range / (grid_n - 1)

    def scan(axes):
        cols = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        s = cols[0]
        for c in cols[1:]:
            s = s + c
        vals = model.value_batch(np.exp(np.column_stack(cols + [-s])))
        i = int(np.argmax(vals))
        return float(vals[i]), [float(c[i]) for c in cols]

    val, x = scan([np.linspace(-log_range, log_range, grid_n)] * (d - 1))
    fine_val, fine_x = scan([np.linspace(v - step, v + step, 21) for v in x])
    if fine_val > val:
        val, x = fine_val, fine_x
    diag = Diagnostics(starts_used=2, best_start=1, function_evals=grid_n ** (d - 1) + 21 ** (d - 1),
                       converged=True, final_step=step / 10.0)
    return _result(val, embed_budget(x), "oracle", diag).to_dict()
