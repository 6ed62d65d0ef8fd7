"""Maximal tail concordance: the maximum of a tail copula over the unit-product
set ``B = {b > 0 : prod_j b_j = 1}``, together with the maximizing direction.

Routes, tightest first:

* exact closed forms (survival Marshall-Olkin; exchangeable Archimax;
  nested Archimedean trees);
* a multi-start Nelder-Mead search in log coordinates ``x in R^(d-1)`` with
  ``b = (e^{x_1}, ..., e^{x_{d-1}}, e^{-sum x})``, pruned by the min bound
  ``L(b) <= min_j b_j`` (any iterate whose smallest component is below the
  running best value cannot win);
* a brute-force two-stage grid oracle used to verify the search.

All searches are deterministic for a fixed seed: start points come from a
seeded generator, each start's pruning state is independent of the others,
and results are reduced by value and then lexicographically smallest b.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import EvaluationError, NumericalError, SpecError
from .stdf import (
    Comonotone,
    Independence,
    Logistic,
    MarshallOlkin,
    Mixture,
    StdfModel,
    TawnTypeI,
    TawnTypeII,
)
from .tail_copula import Archimax, Archimedean, NacCopula, SurvivalEvc, TailCopulaModel

__all__ = [
    "DEFAULT_SEED",
    "METHODS",
    "OptimizerConfig",
    "Diagnostics",
    "MtcmResult",
    "embed_budget",
    "closed_form_mo",
    "is_exchangeable",
    "archimax_mtcm",
    "optimize",
    "grid_oracle",
    "dispatch",
]

DEFAULT_SEED = 1729

METHODS = ("closed_mo", "closed_archimax_exchangeable", "closed_nac", "optimizer", "oracle")

_FATOL = 1e-12          # function-spread stopping rule of the simplex search
_TIE_TOL = 1e-10        # values this close count as a tie between starts
_DEGENERACY_EPS = 1e-12  # maxima below this are reported as exactly 0
_ORACLE_CAP = 10_000_000


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multi-start simplex search.

    ``starts`` counts the random starts; the deterministic start at the
    diagonal (x = 0) always runs in addition.  Random starts are uniform over
    ``[-range_log, range_log]^(d-1)``.  ``tol`` is the simplex-diameter
    stopping rule; the function-spread rule is fixed at 1e-12.
    """

    starts: int = 16
    seed: int = DEFAULT_SEED
    max_evals: int = 100_000
    range_log: float = math.log(10.0)
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if int(self.starts) < 0:
            raise SpecError("starts must be >= 0")
        if int(self.max_evals) < 10:
            raise SpecError("max_evals must be >= 10")
        if not (math.isfinite(float(self.range_log)) and float(self.range_log) > 0):
            raise SpecError("range_log must be positive and finite")
        if not (math.isfinite(float(self.tol)) and float(self.tol) > 0):
            raise SpecError("tol must be positive and finite")
        object.__setattr__(self, "starts", int(self.starts))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "max_evals", int(self.max_evals))
        object.__setattr__(self, "range_log", float(self.range_log))
        object.__setattr__(self, "tol", float(self.tol))

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "config") -> "OptimizerConfig":
        if not isinstance(d, Mapping):
            raise SpecError(f"{path}: expected an object")
        allowed = {"starts", "seed", "max_evals", "range_log", "tol"}
        unknown = set(d) - allowed
        if unknown:
            raise SpecError(f"{path}: unknown keys {sorted(unknown)}")
        return cls(**{k: d[k] for k in allowed if k in d})

    def to_dict(self) -> dict:
        return {
            "starts": self.starts,
            "seed": self.seed,
            "max_evals": self.max_evals,
            "range_log": self.range_log,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class Diagnostics:
    starts_used: int
    best_start: int
    function_evals: int
    converged: bool
    final_step: float

    def to_dict(self) -> dict:
        return {
            "starts_used": self.starts_used,
            "best_start": self.best_start,
            "function_evals": self.function_evals,
            "converged": self.converged,
            "final_step": self.final_step,
        }


_CLOSED_FORM_DIAG = Diagnostics(
    starts_used=0, best_start=0, function_evals=0, converged=True, final_step=0.0
)


@dataclass(frozen=True)
class MtcmResult:
    """Value, maximizer and provenance of one maximal-tail-concordance run."""

    lambda_star: float
    b_star: tuple[float, ...]
    method: str
    diagnostics: Diagnostics

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise SpecError(f"unknown method tag {self.method!r}")
        lam = float(self.lambda_star)
        b = tuple(float(v) for v in self.b_star)
        if not (-1e-9 <= lam <= 1.0 + 1e-9):
            raise NumericalError(f"lambda_star={lam} outside [0, 1]")
        lam = min(max(lam, 0.0), 1.0)
        prod = math.exp(math.fsum(math.log(v) for v in b))
        if abs(prod - 1.0) > 1e-10:
            raise NumericalError(f"maximizer product {prod} deviates from 1")
        if lam > min(b) + 1e-10:
            raise NumericalError(f"lambda_star={lam} exceeds min(b_star)={min(b)}")
        object.__setattr__(self, "lambda_star", lam)
        object.__setattr__(self, "b_star", b)

    def to_dict(self) -> dict:
        return {
            "lambda_star": self.lambda_star,
            "b_star": list(self.b_star),
            "method": self.method,
            "diagnostics": self.diagnostics.to_dict(),
        }


def embed_budget(x: Sequence[float]) -> tuple[float, ...]:
    """Map free log-coordinates ``x in R^(d-1)`` onto the unit-product set:

        b = (e^{x_1}, ..., e^{x_{d-1}}, e^{-(x_1 + ... + x_{d-1})}).

    The image always has product 1, so the search over ``b`` is unconstrained
    in ``x``.
    """
    xs = [float(v) for v in x]
    if not xs:
        raise EvaluationError("embedding needs at least one free coordinate")
    for j, v in enumerate(xs):
        if not math.isfinite(v):
            raise EvaluationError(f"x[{j}] is not finite: {v}")
    b = [math.exp(v) for v in xs]
    b.append(math.exp(-sum(xs)))
    return tuple(b)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def closed_form_mo(alpha: Sequence[float]) -> MtcmResult:
    """Survival Marshall-Olkin: value ``(prod_j a_j)^(1/d)``, maximizer
    ``b_j = (prod a)^(1/d) / a_j`` (unique).  Parameters must lie strictly
    inside (0, 1)^d.
    """
    a = [float(v) for v in alpha]
    if len(a) < 2:
        raise SpecError("alpha must have length >= 2")
    for j, v in enumerate(a):
        if not (math.isfinite(v) and 0.0 < v < 1.0):
            raise SpecError(f"alpha[{j}]={v} outside the open interval (0, 1)")
    lam = math.exp(math.fsum(math.log(v) for v in a) / len(a))
    b = tuple(lam / v for v in a)
    return MtcmResult(lam, b, "closed_mo", _CLOSED_FORM_DIAG)


def is_exchangeable(stdf: StdfModel) -> bool:
    """Conservative exchangeability detection (used only to pick a route;
    a False here never affects correctness, only speed)."""
    if isinstance(stdf, (Independence, Comonotone, Logistic)):
        return True
    if isinstance(stdf, MarshallOlkin):
        return len(set(stdf.alpha)) == 1
    if isinstance(stdf, TawnTypeI):
        t1, t2, t3 = stdf.theta
        return t1 == t2 == t3 and (stdf.r == 1.0 or t1 == 1.0)
    if isinstance(stdf, TawnTypeII):
        return stdf.r == 1.0 and (stdf.phi == 1.0 or stdf.t == 1.0)
    if isinstance(stdf, Mixture):
        return is_exchangeable(stdf.first) and is_exchangeable(stdf.second)
    return False


# ---------------------------------------------------------------------------
# simplex search machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Candidate:
    value: float
    point: tuple[float, ...]
    start: int
    success: bool
    final_step: float


def _start_points(d_free: int, cfg: OptimizerConfig) -> list[np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    pts = [np.zeros(d_free)]
    for _ in range(cfg.starts):
        pts.append(rng.uniform(-cfg.range_log, cfg.range_log, d_free))
    return pts


def _nelder_mead(f, x0: np.ndarray, cfg: OptimizerConfig):
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for i in range(n):
        sim[i + 1, i] += 0.25
    res = minimize(
        f,
        x0,
        method="Nelder-Mead",
        options={
            "xatol": cfg.tol,
            "fatol": _FATOL,
            "maxfev": cfg.max_evals,
            "maxiter": cfg.max_evals,
            "initial_simplex": sim,
        },
    )
    final = res.final_simplex[0]
    diam = float(np.max(np.abs(final - final[0])))
    return res, diam


def _reduce(cands: list[_Candidate], maximize: bool) -> _Candidate:
    if maximize:
        vbest = max(c.value for c in cands)
        tied = [c for c in cands if c.value >= vbest - _TIE_TOL]
    else:
        vbest = min(c.value for c in cands)
        tied = [c for c in cands if c.value <= vbest + _TIE_TOL]
    return min(tied, key=lambda c: c.point)


def optimize(model: TailCopulaModel, config: OptimizerConfig | None = None) -> MtcmResult:
    """Maximize the model's tail copula over the unit-product set.

    Multi-start derivative-free simplex search in log coordinates.  Each start
    keeps its own running best value, seeds it with the diagonal value, and
    rejects iterates whose smallest component already falls below it (the min
    bound makes them hopeless); rejected iterates get a sloped surrogate so
    the simplex walks back toward the feasible box.
    """
    if not isinstance(model, TailCopulaModel):
        raise SpecError("model must be a TailCopulaModel")
    d = model.dim
    if d < 2:
        raise EvaluationError("optimization needs dimension >= 2")
    cfg = config or OptimizerConfig()

    ones = (1.0,) * d
    v0 = model.value(ones)
    total_evals = 1
    candidates: list[_Candidate] = []

    for si, x0 in enumerate(_start_points(d - 1, cfg)):
        state = {"cut": v0, "best_val": v0, "best_b": ones}

        def fobj(x, _state=state):
            xs = x.tolist()
            xd = -sum(xs)
            mn = min(min(xs), xd)
            cut = _state["cut"]
            if cut > 0.0 and mn < math.log(cut):
                return -math.exp(mn)
            mx = max(max(xs), xd)
            if mx > 500.0:  # reachable only while no positive value is known
                return 1.0 + (mx - 500.0)
            b = [math.exp(v) for v in xs]
            b.append(math.exp(xd))
            val = model._value(b)
            if val > _state["best_val"]:
                _state["best_val"] = val
                _state["best_b"] = tuple(b)
                if val > cut:
                    _state["cut"] = val
            return -val

        res, diam = _nelder_mead(fobj, x0, cfg)
        total_evals += res.nfev
        candidates.append(
            _Candidate(state["best_val"], state["best_b"], si, bool(res.success), diam)
        )

    best = _reduce(candidates, maximize=True)
    if best.value < _DEGENERACY_EPS:
        # a degenerate tail copula has no meaningful direction
        diag = Diagnostics(
            starts_used=len(candidates),
            best_start=best.start,
            function_evals=total_evals,
            converged=True,
            final_step=best.final_step,
        )
        return MtcmResult(0.0, ones, "optimizer", diag)
    diag = Diagnostics(
        starts_used=len(candidates),
        best_start=best.start,
        function_evals=total_evals,
        converged=best.success,
        final_step=best.final_step,
    )
    return MtcmResult(best.value, best.point, "optimizer", diag)


def _minimize_stdf(stdf: StdfModel, cfg: OptimizerConfig):
    """Minimize a stable tail dependence function over the unit-product set.

    Mirror image of ``optimize``: here ``l(z) >= max_j z_j`` prunes iterates
    whose largest component already exceeds the running best value.
    """
    d = stdf.dim
    ones = (1.0,) * d
    u0 = stdf.value(ones)
    total_evals = 1
    candidates: list[_Candidate] = []

    for si, x0 in enumerate(_start_points(d - 1, cfg)):
        state = {"cut": u0, "best_val": u0, "best_z": ones}

        def fobj(x, _state=state):
            xs = x.tolist()
            xd = -sum(xs)
            mx = max(max(xs), xd)
            if mx > math.log(_state["cut"]):
                return math.exp(min(mx, 500.0))
            z = [math.exp(v) for v in xs]
            z.append(math.exp(xd))
            val = stdf._value(z)
            if val < _state["best_val"]:
                _state["best_val"] = val
                _state["best_z"] = tuple(z)
                if val < _state["cut"]:
                    _state["cut"] = val
            return val

        res, diam = _nelder_mead(fobj, x0, cfg)
        total_evals += res.nfev
        candidates.append(
            _Candidate(state["best_val"], state["best_z"], si, bool(res.success), diam)
        )

    best = _reduce(candidates, maximize=False)
    diag = Diagnostics(
        starts_used=len(candidates),
        best_start=best.start,
        function_evals=total_evals,
        converged=best.success,
        final_step=best.final_step,
    )
    return best.value, best.point, diag


# log range of the normal floats, pulled in by far more than the round-off of
# -alpha * log(v) so that a power passing the check cannot overflow
_LOG_FLOAT_MAX = math.log(sys.float_info.max) - 1e-9
_LOG_FLOAT_MIN = math.log(sys.float_info.min) + 1e-9


def _neg_power(v: float, alpha: float, what: str, may_underflow: bool) -> float:
    """``v ** (-alpha)`` for v > 0, range-checked in log space first.

    Raises ``NumericalError`` when the result does not fit a float: above the
    largest float, or (unless ``may_underflow``) below the smallest normal
    one, where a maximizer entry would lose its precision or become 0.
    """
    log_r = -alpha * math.log(v)
    if log_r > _LOG_FLOAT_MAX or (not may_underflow and log_r < _LOG_FLOAT_MIN):
        raise NumericalError(
            f"{what} = exp({log_r:.6g}) does not fit in a float (alpha={alpha:.6g})"
        )
    return v ** (-alpha)


def archimax_mtcm(
    stdf: StdfModel,
    alpha: float,
    exchangeable: bool | None = None,
    config: OptimizerConfig | None = None,
) -> MtcmResult:
    """Maximal tail concordance of the Archimax model built from ``stdf`` and
    a generator with regular-variation index ``alpha``.

    Exchangeable l: closed form ``l(1_d) ** (-alpha)`` with maximizer 1_d.
    Otherwise l is minimized numerically over the unit-product set and the
    minimizer z maps to the maximizer through ``b_j = z_j ** (-alpha)``.
    Powers that do not fit a float raise ``NumericalError``.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise SpecError("alpha must be positive and finite")
    if not isinstance(stdf, StdfModel):
        raise SpecError("stdf must be an StdfModel")
    d = stdf.dim
    exch = is_exchangeable(stdf) if exchangeable is None else bool(exchangeable)
    if exch:
        lam = stdf.value([1.0] * d) ** (-alpha)
        return MtcmResult(lam, (1.0,) * d, "closed_archimax_exchangeable", _CLOSED_FORM_DIAG)
    cfg = config or OptimizerConfig()
    ell_min, z, diag = _minimize_stdf(stdf, cfg)
    lam = _neg_power(ell_min, alpha, "lambda*", True)
    b = tuple(_neg_power(v, alpha, f"b*[{j}]", False) for j, v in enumerate(z))
    return MtcmResult(lam, b, "optimizer", diag)


# ---------------------------------------------------------------------------
# brute-force grid oracle
# ---------------------------------------------------------------------------

def _grid_scan(model: TailCopulaModel, axes: list[np.ndarray]):
    """Exhaustive scan; ties resolve to the first point in row-major order."""
    sizes = [len(a) for a in axes]
    total = int(np.prod(sizes))
    best_val = -math.inf
    best_x: np.ndarray | None = None
    chunk = 1 << 17
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total))
        coords = np.unravel_index(idx, sizes)
        Xf = np.column_stack([axes[k][coords[k]] for k in range(len(axes))])
        full = np.column_stack([Xf, -Xf.sum(axis=1)])
        vals = model.value_batch(np.exp(full))
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_x = Xf[i].copy()
    assert best_x is not None
    return best_val, best_x, total


def grid_oracle(
    model: TailCopulaModel,
    grid_points_per_axis: int = 201,
    log_range: float = math.log(50.0),
) -> MtcmResult:
    """Brute-force verification of the maximum: a uniform lattice over
    ``[-L, L]^(d-1)`` in log coordinates, refined once by a 10x finer local
    lattice around the coarse winner.  Accuracy is O(L/N) in the maximizer;
    use with coarse tolerances.
    """
    if not isinstance(model, TailCopulaModel):
        raise SpecError("model must be a TailCopulaModel")
    d = model.dim
    if d not in (2, 3, 4):
        raise EvaluationError(f"grid oracle supports d in {{2, 3, 4}}, got {d}")
    n = int(grid_points_per_axis)
    if n < 3:
        raise EvaluationError("grid_points_per_axis must be >= 3")
    L = float(log_range)
    if not (math.isfinite(L) and L > 0.0):
        raise EvaluationError("log_range must be positive and finite")
    if n ** (d - 1) > _ORACLE_CAP:
        raise EvaluationError(
            f"grid of {n}^{d - 1} points exceeds the cap of {_ORACLE_CAP}"
        )

    coarse = [np.linspace(-L, L, n) for _ in range(d - 1)]
    best_val, best_x, evals = _grid_scan(model, coarse)

    step = 2.0 * L / (n - 1)
    fine = [np.linspace(best_x[k] - step, best_x[k] + step, 21) for k in range(d - 1)]
    fine_val, fine_x, fine_evals = _grid_scan(model, fine)
    evals += fine_evals
    if fine_val > best_val:
        best_val, best_x = fine_val, fine_x

    diag = Diagnostics(
        starts_used=2,
        best_start=1,
        function_evals=evals,
        converged=True,
        final_step=step / 10.0,
    )
    if best_val < _DEGENERACY_EPS:
        return MtcmResult(0.0, (1.0,) * d, "oracle", diag)
    return MtcmResult(best_val, embed_budget(best_x.tolist()), "oracle", diag)


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def dispatch(model: TailCopulaModel, config: OptimizerConfig | None = None) -> MtcmResult:
    """Route to the tightest available method; the result carries the tag.

    Survival Marshall-Olkin (parameters strictly inside the unit box) and
    nested Archimedean trees get closed forms; Archimax and Archimedean go
    through the exchangeability shortcut or the l-minimization; everything
    else runs the direct search.
    """
    if isinstance(model, SurvivalEvc) and isinstance(model.stdf, MarshallOlkin):
        a = model.stdf.alpha
        if all(0.0 < v < 1.0 for v in a):
            return closed_form_mo(a)
        return optimize(model, config)
    if isinstance(model, NacCopula):
        lam = model.tree.mtcm_closed()
        b = tuple(float(v) for v in model.tree.maximizer())
        return MtcmResult(lam, b, "closed_nac", _CLOSED_FORM_DIAG)
    if isinstance(model, Archimedean):
        return archimax_mtcm(Independence(model.dim), model.alpha, exchangeable=True)
    if isinstance(model, Archimax):
        return archimax_mtcm(model.stdf, model.alpha, None, config)
    return optimize(model, config)
