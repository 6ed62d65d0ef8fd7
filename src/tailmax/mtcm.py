"""Maximal tail concordance: the maximum of a tail copula over the unit-product
set ``B = {b > 0 : prod_j b_j = 1}``, together with the maximizing direction.

Routes, tightest first:

* exact closed forms: survival ``L`` built from one or two weighted
  ``min_j a_j x_j`` terms (Marshall-Olkin on the closed box, so independence
  and comonotone included, and mixtures of two of them); exchangeable
  Archimax; nested Archimedean trees;
* one Nelder-Mead search core in log coordinates ``x in R^(d-1)`` with
  ``b = (e^{x_1}, ..., e^{x_{d-1}}, e^{-sum x})``, pruned by the min bound
  ``L(b) <= min_j b_j`` (any iterate whose smallest component is below the
  running best value cannot win).  Where the problem has no local optimum
  other than the global one it runs from the diagonal alone: the survival
  symmetric logistic and Tawn I, whose ``x -> L(e^x)`` is log-concave, and
  non-exchangeable Archimax, run on ``h(b) = 1 / l(1/b)`` since
  ``x -> l(e^x)`` is convex.  Where the maximum provably lies on a curve it
  searches that one coordinate (a uniform scan, then simplex polishes):
  survival Tawn II on its line ``b1 = b2``, and survival mixtures of a
  logistic and a Marshall-Olkin model on their water-filling curve.
  Everything else runs the direct search from the diagonal plus random
  starts;
* a two-stage grid oracle used to verify the search; it skips only the
  lattice points that the min bound puts strictly below a lattice value it
  has evaluated, and its evaluation count covers every point.

The simplex (``_nelder_mead``) is a short Nelder-Mead on Python float lists
with scipy's fixed coefficients (reflection 1, expansion 2, contraction 1/2,
shrink 1/2) and its stopping and budget rules, so it takes scipy's iterates.
It orders vertices with a stable sort: among equal values the earlier vertex
stays first.  scipy's numpy ``argsort`` may reorder ties among 4 or more
values on hosts with AVX-512 sorting, and pruned vertices that share their
smallest coordinate tie often.  So from d = 4 on (4 or more vertices)
results can differ from scipy's, only through that tie order and at the
``tol`` level; on the benchmark's models this shows at d = 5 and 6 only.

All searches are deterministic for a fixed seed: start points come from a
seeded generator, each start's pruning state is independent of the others,
and results are reduced by value and then lexicographically smallest b.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EvaluationError, NumericalError, SpecError
from .stdf import (
    _MAX_POINTS,
    ROWS,
    Logistic,
    MarshallOlkin,
    Mixture,
    StdfModel,
    TawnTypeI,
    TawnTypeII,
)
from .tail_copula import Archimax, NacCopula, SurvivalEvc, TailCopulaModel

__all__ = [
    "DEFAULT_SEED",
    "METHODS",
    "OptimizerConfig",
    "Diagnostics",
    "MtcmResult",
    "embed_budget",
    "closed_form_mo",
    "closed_form_mo_mixture",
    "is_exchangeable",
    "archimax_mtcm",
    "optimize",
    "grid_oracle",
    "dispatch",
]

DEFAULT_SEED = 1729

# ``closed_mo`` covers survival L built from one or two weighted
# ``min_j a_j x_j`` terms; ``optimizer`` is the simplex search, from the
# diagonal alone, along one curve, or from the diagonal plus random starts
# (see ``dispatch``)
METHODS = ("closed_mo", "closed_archimax_exchangeable", "closed_nac", "optimizer", "oracle")

_FATOL = 1e-12          # function-spread stopping rule of the simplex search
_TIE_TOL = 1e-10        # values this close count as a tie between starts
_DEGENERACY_EPS = 1e-12  # maxima below this are reported as exactly 0
_RECENTRE_TOL = 1e-13    # Archimax: mean of alpha * log b_h above which b* is recentred
_BREAKPOINT_TIE_TOL = 1e-12  # two-MO mixtures: log f values this close tie


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the simplex search.

    ``starts`` counts the random starts; the deterministic start at the
    diagonal (x = 0) always runs in addition.  Random starts are uniform over
    ``[-range_log, range_log]^(d-1)``.  ``tol`` is the simplex-diameter
    stopping rule; the function-spread rule is fixed at 1e-12.
    ``dispatch`` runs the diagonal start only where the problem has a single
    local optimum (survival symmetric logistic and Tawn I, non-exchangeable
    Archimax), and a one-coordinate search where the maximum lies on a
    curve (survival Tawn II, survival logistic/MO mixtures): ``tol`` applies
    to both, and ``max_evals`` is the budget of the diagonal start and the
    total budget of a curve search, scan and polishes included.  ``starts``,
    ``seed`` and ``range_log`` tune the multi-start search only.
    """

    starts: int = 16
    seed: int = DEFAULT_SEED
    max_evals: int = 100_000
    range_log: float = math.log(10.0)
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if int(self.starts) < 0:
            raise SpecError("starts must be >= 0")
        if int(self.seed) < 0:
            raise SpecError("seed must be >= 0")
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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Diagnostics:
    starts_used: int
    best_start: int
    function_evals: int
    converged: bool
    final_step: float

    def to_dict(self) -> dict:
        return asdict(self)


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
    """Survival Marshall-Olkin on the closed box [0, 1]^d, where
    ``L(b) = min_j a_j b_j``: value ``(prod_j a_j)^(1/d)``, maximizer
    ``b_j = (prod a)^(1/d) / a_j`` (unique).  If some a_j is 0, L is 0
    everywhere (independence is the corner a = 0): ``lambda* = 0`` with
    maximizer 1_d.  The comonotone corner a = 1 gives 1 at 1_d.
    """
    a = _mo_params(alpha, "alpha")
    if min(a) == 0.0:
        return MtcmResult(0.0, (1.0,) * len(a), "closed_mo", _CLOSED_FORM_DIAG)
    lam = math.exp(math.fsum(math.log(v) for v in a) / len(a))
    b = tuple(lam / v for v in a)
    return MtcmResult(lam, b, "closed_mo", _CLOSED_FORM_DIAG)


def _mo_params(alpha: Sequence[float], name: str) -> list[float]:
    a = [float(v) for v in alpha]
    if len(a) < 2:
        raise SpecError(f"{name} must have length >= 2")
    for j, v in enumerate(a):
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise SpecError(f"{name}[{j}]={v} outside [0, 1]")
    return a


def closed_form_mo_mixture(
    weight: float, alpha: Sequence[float], gamma: Sequence[float]
) -> MtcmResult:
    """Survival mixture of two Marshall-Olkin models on the closed box,
    ``L(b) = w min_j a_j b_j + (1-w) min_j c_j b_j`` with ``a = alpha``,
    ``c = gamma`` and ``w = weight``.

    A point b with ``min_j a_j b_j = t`` and ``min_j c_j b_j = rho t`` has
    ``b_j >= t max(1/a_j, rho/c_j)``, so ``prod b = 1`` bounds ``L(b)`` by

        f(rho) = (w + (1-w) rho) exp(-mean_j log max(1/a_j, rho/c_j)),

    with equality at b proportional to those maxima.  In ``log rho``,
    ``log f`` is convex between the breakpoints ``rho = c_j / a_j``, rises
    below the first and falls above the last, so ``lambda*`` is the largest
    breakpoint value and ``b*_j = max(1/a_j, rho*/c_j)`` over its geometric
    mean.  The breakpoints are scanned in ascending order, in log space with
    running sums (O(d log d)); among values within a relative 1e-12 of the
    largest, a round-off tie, the first wins.  With
    ``w`` in {0, 1} or a zero ``a_j`` or ``c_j`` one term is 0 everywhere,
    and the result is ``closed_form_mo`` of the other term, its value scaled
    by that term's weight.
    """
    w = float(weight)
    if not 0.0 <= w <= 1.0:
        raise SpecError("mixture weight must be in [0, 1]")
    a, c = _mo_params(alpha, "alpha"), _mo_params(gamma, "gamma")
    if len(a) != len(c):
        raise SpecError(f"alpha and gamma disagree in length: {len(a)} vs {len(c)}")
    if w == 0.0 or min(a) == 0.0:
        return _scaled(1.0 - w, closed_form_mo(c))
    if w == 1.0 or min(c) == 0.0:
        return _scaled(w, closed_form_mo(a))
    d = len(a)
    la = [math.log(v) for v in a]
    lc = [math.log(v) for v in c]
    u = [y - x for x, y in zip(la, lc)]  # log breakpoints
    lw, lv = math.log(w), math.log1p(-w)

    def log_weight(uk: float) -> float:  # log(w + (1-w) e^uk), overflow-free
        p, q = sorted((lw, lv + uk))
        return q + math.log1p(math.exp(p - q))

    # at rho = e^uk, coordinates with breakpoints up to uk take
    # log(rho / c_j) = uk - lc_j, the others log(1 / a_j) = -la_j
    head, tail = 0.0, -math.fsum(la)
    scan = []  # (log f, log rho) in ascending rho
    for i, k in enumerate(sorted(range(d), key=u.__getitem__)):
        head -= lc[k]
        tail += la[k]
        scan.append((log_weight(u[k]) - ((i + 1) * u[k] + head + tail) / d, u[k]))
    top = max(v for v, _ in scan)
    uk_best = next(uk for v, uk in scan if v >= top - _BREAKPOINT_TIE_TOL)
    y = [max(-x, uk_best - z) for x, z in zip(la, lc)]
    g = math.fsum(y) / d
    lam = math.exp(log_weight(uk_best) - g)
    return MtcmResult(lam, tuple(math.exp(v - g) for v in y), "closed_mo", _CLOSED_FORM_DIAG)


def _scaled(weight: float, r: MtcmResult) -> MtcmResult:
    return MtcmResult(weight * r.lambda_star, r.b_star, r.method, r.diagnostics)


def is_exchangeable(stdf: StdfModel) -> bool:
    """Conservative exchangeability detection (used only to pick a route;
    a False here never affects correctness, only speed).  Marshall-Olkin
    with equal parameters includes the independence and comonotone corners.
    Decided by exact type, since a subclass may change ``_value``."""
    kind = type(stdf)
    if kind is Logistic:
        return True
    if kind is MarshallOlkin:
        return len(set(stdf.alpha)) == 1
    if kind is TawnTypeI:
        t1, t2, t3 = stdf.theta
        return t1 == t2 == t3 and (stdf.r == 1.0 or t1 == 1.0)
    if kind is TawnTypeII:
        return stdf.r == 1.0 and (stdf.phi == 1.0 or stdf.t == 1.0)
    if kind is Mixture:
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


def _start_points(d_free: int, cfg: OptimizerConfig) -> Iterator[list[float]]:
    """The diagonal, then ``cfg.starts`` seeded uniform starts, each drawn
    only when its search begins."""
    yield [0.0] * d_free
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.starts):
        yield rng.uniform(-cfg.range_log, cfg.range_log, d_free).tolist()


def _nelder_mead(f, x0: list[float], tol: float, max_evals: int):
    """Minimize ``f`` (a list of floats -> float) by Nelder-Mead from the
    simplex ``x0, x0 + 0.25 e_1, ..., x0 + 0.25 e_n``, on Python float lists.

    The steps are scipy's ``minimize(method="Nelder-Mead")`` with its fixed
    coefficients: with ``xbar`` the sequential sum of the n best vertices
    divided by n and ``w`` the worst vertex, reflection ``2 xbar - w``,
    expansion ``3 xbar - 2 w``, outside contraction ``1.5 xbar - 0.5 w``,
    inside contraction ``0.5 xbar + 0.5 w``, and shrink
    ``x_0 + 0.5 (x_j - x_0)`` toward the best vertex.  The search converges
    when every vertex lies within ``tol`` of the best in each coordinate and
    every value within 1e-12 of the best value.  It stops unconverged when
    ``max_evals`` evaluations are spent: the call that would exceed the budget
    is not made and the iteration ends where it stands (a shrink cut short
    keeps its moved vertices with their old values), as in scipy.

    Vertices are ordered by value with Python's stable sort, so among equal
    values the vertex that came first stays first.  scipy orders them with
    numpy's ``argsort``, which on hosts with AVX-512 sorting can reorder ties
    among 4 or more values; that tie order is the only way the two can
    differ (values are assumed not to be NaN).

    Returns ``(nfev, converged, sim, fsim)`` with the simplex sorted best
    first.
    """
    n = len(x0)
    sim = [list(x0)]
    for i in range(n):
        v = list(x0)
        v[i] += 0.25
        sim.append(v)
    nfev = min(n + 1, max_evals)
    fsim = [f(v) for v in sim[:nfev]] + [math.inf] * (n + 1 - nfev)
    sim, fsim = _sort_simplex(sim, fsim)
    converged = False
    while nfev < max_evals:
        best, fbest = sim[0], fsim[0]
        # fsim is sorted, so its spread is fsim[n] - fbest
        if fsim[n] - fbest <= _FATOL and all(
            abs(v - b) <= tol for xj in sim[1:] for v, b in zip(xj, best)
        ):
            converged = True
            break
        xbar = best
        for xj in sim[1:n]:
            xbar = [a + v for a, v in zip(xbar, xj)]
        xbar = [a / n for a in xbar]
        worst = sim[n]
        new = [2.0 * a - w for a, w in zip(xbar, worst)]
        fnew = f(new)
        nfev += 1
        if fnew < fbest:
            if nfev == max_evals:
                break
            xe = [3.0 * a - 2.0 * w for a, w in zip(xbar, worst)]
            fe = f(xe)
            nfev += 1
            if fe < fnew:
                new, fnew = xe, fe
        elif fnew >= fsim[n - 1]:
            if nfev == max_evals:
                break
            if fnew < fsim[n]:
                xc = [1.5 * a - 0.5 * w for a, w in zip(xbar, worst)]
                fc = f(xc)
                accept = fc <= fnew
            else:
                xc = [0.5 * a + 0.5 * w for a, w in zip(xbar, worst)]
                fc = f(xc)
                accept = fc < fsim[n]
            nfev += 1
            if not accept:
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    if nfev == max_evals:
                        break
                    fsim[j] = f(sim[j])
                    nfev += 1
                sim, fsim = _sort_simplex(sim, fsim)
                continue
            new, fnew = xc, fc
        # only the worst vertex changed: its stable-sort place is after
        # every vertex of equal or lower value
        del sim[n], fsim[n]
        k = bisect.bisect_right(fsim, fnew)
        sim.insert(k, new)
        fsim.insert(k, fnew)
    return nfev, converged, sim, fsim


def _sort_simplex(sim, fsim):
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    return [sim[i] for i in order], [fsim[i] for i in order]


def _pruned_objective(value, v0: float, d: int):
    """The objective one start minimizes: ``-value(b)`` at the embedded point
    ``b = (e^{x_1}, ..., e^{x_{d-1}}, e^{-sum x})`` of a list ``x``.

    It keeps the start's running best value, seeded with the diagonal value
    ``v0``, and rejects points whose smallest log-coordinate falls below the
    log of it (the min bound makes them hopeless) with the sloped surrogate
    ``-min_j b_j``, so the simplex walks back toward the feasible box.
    Returns ``(fobj, best)``; ``best()`` gives the best value and point so
    far.
    """
    best_val, best_b = v0, (1.0,) * d
    log_cut = math.log(v0) if v0 > 0.0 else -math.inf

    def fobj(xs):
        nonlocal best_val, best_b, log_cut
        xd = -sum(xs)
        mn = min(min(xs), xd)
        if mn < log_cut:
            return -math.exp(mn)
        mx = max(max(xs), xd)
        if mx > 500.0:  # reachable only while no positive value is known
            return 1.0 + (mx - 500.0)
        b = [math.exp(v) for v in xs]
        b.append(math.exp(xd))
        val = value(b)
        if val > best_val:
            best_val, best_b = val, tuple(b)
            if val > 0.0:
                log_cut = math.log(val)
        return -val

    def best():
        return best_val, best_b

    return fobj, best


def _maximize(value, d: int, cfg: OptimizerConfig, starts: Iterable[list[float]]):
    """Maximize ``value`` over the unit-product set; ``value`` maps a positive
    point ``b`` (a list) to a number in ``[0, min_j b_j]``.

    One simplex search per start point, in log coordinates, each on its own
    pruned objective (``_pruned_objective``).  The starts reduce by value,
    ties then by the lexicographically smallest point.  A simplex holds
    ``d (d - 1)`` coordinates; above 10^7 the search raises
    ``EvaluationError`` before building one.

    Returns ``(value, point, diagnostics)``.  A maximum below the degeneracy
    threshold counts as converged: there is no direction to converge to.
    """
    if d * (d - 1) > _MAX_POINTS:
        raise EvaluationError(
            f"a search simplex in dimension {d} holds {d * (d - 1)} coordinates, "
            f"above the cap of {_MAX_POINTS}"
        )
    v0 = value([1.0] * d)
    total_evals = 1
    candidates: list[_Candidate] = []
    for si, x0 in enumerate(starts):
        fobj, best = _pruned_objective(value, v0, d)
        nfev, converged, sim, _ = _nelder_mead(fobj, x0, cfg.tol, cfg.max_evals)
        total_evals += nfev
        diam = max(abs(v - b) for xj in sim for v, b in zip(xj, sim[0]))
        candidates.append(_Candidate(*best(), si, converged, diam))

    vbest = max(c.value for c in candidates)
    win = min((c for c in candidates if c.value >= vbest - _TIE_TOL), key=lambda c: c.point)
    diag = Diagnostics(
        starts_used=len(candidates),
        best_start=win.start,
        function_evals=total_evals,
        converged=win.success or win.value < _DEGENERACY_EPS,
        final_step=win.final_step,
    )
    return win.value, win.point, diag


def _diagonal_search(value, d: int, cfg: OptimizerConfig):
    """``_maximize`` from the diagonal alone, for problems whose only local
    maximum is the global one; ``cfg.tol`` and ``cfg.max_evals`` apply."""
    return _maximize(value, d, cfg, [[0.0] * (d - 1)])


_SCAN_POINTS = 48  # uniform scan of a one-coordinate route's interval
_POLISHES = 2      # simplex polishes, from the best local maxima of the scan


def _curve_search(value, d: int, cfg: OptimizerConfig, curve, lo: float, hi: float,
                  v0: float, spent: int):
    """Maximize ``value`` along a curve of the unit-product set: ``curve``
    maps ``t in [lo, hi]`` to the free log-coordinates of b (as in
    ``embed_budget``), for problems whose maximum provably lies on it.

    A uniform scan of ``_SCAN_POINTS`` values of t, then one simplex polish
    in t from each of the ``_POLISHES`` best local maxima of the scan (best
    first, ties to the smaller t).  Every evaluation goes through one pruned
    objective seeded with ``v0`` (``_pruned_objective``: min-bound pruning
    and the log-space overflow guard); a polish step outside ``[lo, hi]``
    scores ``1 + distance`` without an evaluation.  ``cfg.max_evals`` caps
    all evaluations, ``spent`` already made by the caller included; a scan
    or polish cut short reports unconverged.  ``starts_used`` counts the
    polishes and ``best_start`` is the one that found the maximum.

    Returns ``(value, point, diagnostics)`` as ``_maximize`` does.
    """
    fobj, best = _pruned_objective(value, v0, d)
    grid = [lo]
    if hi > lo:
        grid = [lo + (hi - lo) * i / (_SCAN_POINTS - 1) for i in range(_SCAN_POINTS - 1)] + [hi]
    ts = grid[:max(cfg.max_evals - spent, 0)]
    fs = [fobj(curve(t)) for t in ts]
    evals = spent + len(ts)
    converged = len(ts) == len(grid)

    def f1(t):
        x = t[0]
        if lo <= x <= hi:
            return fobj(curve(x))
        return 1.0 + max(lo - x, x - hi)

    n = len(fs) if len(grid) > 1 else 0  # a one-point curve needs no polish
    peaks = sorted(
        (i for i in range(n)
         if (i == 0 or fs[i] <= fs[i - 1]) and (i == n - 1 or fs[i] <= fs[i + 1])),
        key=fs.__getitem__,
    )[:_POLISHES]
    owner, step = 0, 0.0
    for k, i in enumerate(peaks):
        if evals >= cfg.max_evals:
            converged = False
            break
        before = best()[0]
        nfev, ok, sim, _ = _nelder_mead(f1, [ts[i]], cfg.tol, cfg.max_evals - evals)
        evals += nfev
        converged = converged and ok
        if k == 0 or best()[0] > before:
            owner, step = k, abs(sim[-1][0] - sim[0][0])
    val, b = best()
    diag = Diagnostics(
        starts_used=len(peaks),
        best_start=owner,
        function_evals=evals,
        converged=converged or val < _DEGENERACY_EPS,
        final_step=step,
    )
    return val, b, diag


def _tawn2_line(model: SurvivalEvc, cfg: OptimizerConfig):
    """Survival Tawn II, ``L = phi L_N``, on its line ``b = (e^u, e^u,
    e^(-2u))``.  ``L_N(x) = E[min(x1 M V1, x2 M V2, x3 W3)]`` with
    independent Frechet ``V1, V2`` (index rs), ``W3`` (index s) and
    ``M^(rs)`` positive (1/r)-stable (Tawn, Biometrika 1990).  Given
    ``(M, W3)`` the expectation is log-concave in ``(log x1, log x2)``
    (Prekopa; ``log V`` is Gumbel) and symmetric, so on each slice
    ``b1 b2 = c`` it is nonincreasing in ``|log b1 - log b2|``, and so is
    its mixture over ``(M, W3)``: the maximum has ``b1 = b2``.  There
    ``min b >= L_N(b) >= L_N(1_3) = v0 / phi`` bounds u to
    ``[log(v0 / phi), -log(v0 / phi) / 2]``, which grows without bound as
    ``v0`` falls (``s`` near 1).  ``v0 = 0`` (``phi = 0``, or ``s = 1``,
    where ``L = 0``) gives 0 at 1_3."""
    phi = model.stdf.phi
    v0 = model._value([1.0, 1.0, 1.0])
    if v0 == 0.0:
        diag = Diagnostics(
            starts_used=0, best_start=0, function_evals=1, converged=True, final_step=0.0
        )
        return 0.0, (1.0, 1.0, 1.0), diag
    lo = min(math.log(v0 / phi), 0.0)
    return _curve_search(model._value, 3, cfg, lambda u: [u, u], lo, -lo / 2.0, v0, 1)


def _logistic_mo_curve(model: SurvivalEvc, cfg: OptimizerConfig):
    """Survival mixture of a logistic and a Marshall-Olkin model, in either
    order, ``L = w L_log + (1-w) min_j a_j b_j``, on its water-filling
    curve: for ``x = log m``, ``m = min_j a_j b_j``, the point ``b = exp(y)``
    with ``y_j = max(x - log a_j, tau)`` and ``tau`` such that ``sum y = 0``.

    ``y -> log L_log(e^y)`` is symmetric and concave (``L_log(x) =
    E[min_j x_j W_j]``, Prekopa), so Schur-concave; the water-filled y is
    majorized by every feasible y of ``{sum y = 0, a * e^y >= m}``, so it
    maximizes ``L_log`` there, ``g(m)``, and has ``min_j a_j b_j = m``
    exactly.  Every b with ``min_j a_j b_j = m`` has ``L(b) <= w g(m) +
    (1-w) m``, with equality on the curve, so the maximum lies on it.  Below
    ``min_j log a_j`` the curve stays at ``b = 1_d`` (and ``g`` at its top),
    and above ``mean_j log a_j`` no b is feasible, so x runs from the first
    (``b = 1_d``) to the second (the MO maximizer).

    A zero ``a_j`` makes the MO term 0, leaving w times the survival
    logistic: its diagonal start.
    """
    ell = model.stdf
    alpha = (ell.first if type(ell.first) is MarshallOlkin else ell.second).alpha
    if min(alpha) == 0.0:
        return _diagonal_search(model._value, model.dim, cfg)
    la = [math.log(v) for v in alpha]
    d = len(la)
    asc = sorted(la)

    def curve(x: float) -> list[float]:
        # the k coordinates with the smallest log a_j sit on their bound
        # x - log a_j and the others share the level tau with sum y = 0;
        # take the next one while its bound lies above the level
        k, acc = 1, x - asc[0]
        tau = -acc / (d - 1)
        while k < d - 1 and x - asc[k] > tau:
            acc += x - asc[k]
            k += 1
            tau = -acc / (d - k)
        return [max(x - v, tau) for v in la[:-1]]

    return _curve_search(model._value, d, cfg, curve, asc[0], math.fsum(la) / d, 0.0, 0)


def _result(lam: float, b: Sequence[float], method: str, diag: Diagnostics) -> MtcmResult:
    """A maximum below 1e-12 is reported as exactly 0 with maximizer 1_d: a
    degenerate tail copula has no meaningful direction."""
    if lam < _DEGENERACY_EPS:
        return MtcmResult(0.0, (1.0,) * len(b), method, diag)
    return MtcmResult(lam, tuple(b), method, diag)


def optimize(model: TailCopulaModel, config: OptimizerConfig | None = None) -> MtcmResult:
    """Maximize the model's tail copula over the unit-product set by the
    explicit multi-start simplex search: the diagonal plus ``config.starts``
    random starts (see ``OptimizerConfig``), whatever the model.
    """
    if not isinstance(model, TailCopulaModel):
        raise SpecError("model must be a TailCopulaModel")
    d = model.dim
    if d < 2:
        raise EvaluationError("optimization needs dimension >= 2")
    cfg = config or OptimizerConfig()
    lam, b, diag = _maximize(model._value, d, cfg, _start_points(d - 1, cfg))
    return _result(lam, b, "optimizer", diag)


# log range of the normal floats, pulled in by far more than the round-off of
# alpha * log(v) so that a power passing the check cannot overflow
_LOG_FLOAT_MAX = math.log(sys.float_info.max) - 1e-9
_LOG_FLOAT_MIN = math.log(sys.float_info.min) + 1e-9


def _power(v: float, alpha: float, what: str, may_underflow: bool) -> float:
    """``v ** alpha`` for v > 0, range-checked in log space first.

    Raises ``NumericalError`` when the result does not fit a float: above the
    largest float, or (unless ``may_underflow``) below the smallest normal
    one, where a maximizer entry would lose its precision or become 0.
    """
    log_r = alpha * math.log(v)
    if log_r > _LOG_FLOAT_MAX or (not may_underflow and log_r < _LOG_FLOAT_MIN):
        raise NumericalError(
            f"{what} = exp({log_r:.6g}) does not fit in a float (alpha={alpha:.6g})"
        )
    return v ** alpha


def archimax_mtcm(
    stdf: StdfModel, alpha: float, config: OptimizerConfig | None = None
) -> MtcmResult:
    """Maximal tail concordance of the Archimax model built from ``stdf`` and
    a generator with regular-variation index ``alpha``.

    Exchangeable l: closed form ``l(1_d) ** (-alpha)`` with maximizer 1_d.
    Otherwise the tail copula is ``L(b) = h(b ** (1/alpha)) ** alpha`` with
    ``h(b) = 1 / l(1/b)``, which is nondecreasing and at most ``min_j b_j``
    (as ``l(z) >= max_j z_j``); so ``h`` goes through the pruned search of
    ``optimize`` and ``lambda* = (max h) ** alpha``, ``b* = b_h ** alpha``.
    Since ``max h = 1 / min l`` and ``x -> l(e^x)`` is convex, the search
    runs from the diagonal alone: ``config.tol`` and ``config.max_evals``
    apply, ``starts``, ``seed`` and ``range_log`` do not.  Powers that do not
    fit a float raise ``NumericalError``; a ``lambda*`` below 1e-12 is
    reported as 0 with maximizer 1_d, as in ``optimize``.  A large ``alpha``
    multiplies the round-off in ``prod b_h = 1``: when the mean of
    ``alpha * log b_h`` exceeds 1e-13 in magnitude, ``b*`` is rebuilt as
    ``exp(alpha * log b_h - mean)``, so its product stays 1.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise SpecError("alpha must be positive and finite")
    if not isinstance(stdf, StdfModel):
        raise SpecError("stdf must be an StdfModel")
    d = stdf.dim
    if is_exchangeable(stdf):
        lam = stdf.value([1.0] * d) ** (-alpha)
        return MtcmResult(lam, (1.0,) * d, "closed_archimax_exchangeable", _CLOSED_FORM_DIAG)
    ell = stdf._value
    h_max, b_h, diag = _diagonal_search(
        lambda b: 1.0 / ell([1.0 / v for v in b]), d, config or OptimizerConfig()
    )
    lam = _power(h_max, alpha, "lambda*", True)
    b = [_power(v, alpha, f"b*[{j}]", False) for j, v in enumerate(b_h)]
    y = [alpha * math.log(v) for v in b_h]
    shift = math.fsum(y) / d
    if abs(shift) > _RECENTRE_TOL:
        b = [math.exp(v - shift) for v in y]
    return _result(lam, b, "optimizer", diag)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

_BOUND_SLACK = 1e-10  # how far MtcmResult lets lambda* exceed min b*
_LOG_MARGIN = 1e-9    # widens the log-space prefilter past rounding in exp and sums


def _lattice_points(cols: list[np.ndarray]) -> np.ndarray:
    """The points ``b`` at the log coordinates ``cols``, one row each."""
    return np.exp(np.column_stack(cols + [-ROWS.sum(cols)]))


def _grid_scan(model: TailCopulaModel, axes: list[np.ndarray], floor: float):
    """Best value and log point of the lattice ``axes``, ties to the first
    point in row-major order, or ``(-inf, None)`` if every point is skipped.

    A point with ``min_j b_j < floor - _BOUND_SLACK`` is skipped: since
    ``L(b) <= min_j b_j`` (to within that slack), it stays below ``floor``,
    the value of a lattice point already evaluated.  ``value_batch`` works row by row, so the kept
    rows give the values and the winner that the full lattice gives.
    """
    thr = floor - _BOUND_SLACK
    if thr > 0.0:
        # b_j >= thr for all j needs every log coordinate in
        # [log thr, -(d-1) log thr]: a superset of the kept points
        lo, hi = math.log(thr) - _LOG_MARGIN, -len(axes) * math.log(thr) + _LOG_MARGIN
        axes = [a[(a >= lo) & (a <= hi)] for a in axes]
    sizes = [len(a) for a in axes]
    total = int(np.prod(sizes))
    best_val = -math.inf
    best_x: np.ndarray | None = None
    chunk = 1 << 17
    for start in range(0, total, chunk):
        coords = np.unravel_index(np.arange(start, min(start + chunk, total)), sizes)
        cols = [axes[k][coords[k]] for k in range(len(axes))]
        B = _lattice_points(cols)
        kept = np.flatnonzero(ROWS.min(B.T) >= thr)
        if not kept.size:
            continue
        vals = model.value_batch(B[kept])
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_x = np.array([v[kept[i]] for v in cols])
    return best_val, best_x


def grid_oracle(
    model: TailCopulaModel,
    grid_points_per_axis: int = 201,
    log_range: float = math.log(50.0),
) -> MtcmResult:
    """Lattice verification of the maximum: a uniform lattice over
    ``[-L, L]^(d-1)`` in log coordinates, refined once by a 10x finer local
    lattice around the coarse winner.  Accuracy is O(L/N) in the maximizer;
    use with coarse tolerances.  Lattices above 10^7 points, or reaching a
    point ``b`` with an entry beyond the float range, are rejected.

    The oracle skips only the points that the min bound ``L(b) <= min_j b_j``
    puts strictly below the value of a lattice point it has evaluated: the
    middle point of the coarse lattice, then the coarse winner.  Ties go to
    the first point in row-major order, and the fine lattice replaces the
    coarse winner only when strictly higher, so the result is the full
    scan's, bit for bit.  ``function_evals`` (the CLI's "grid evals") counts
    every point covered, skipped ones included.  A skipped point is never
    evaluated, so a subclass whose ``L`` exceeds ``min_j b_j`` by more than
    1e-10 at such a point no longer trips ``MtcmResult``'s check there;
    every model of the package holds the bound by construction.
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
    if n ** (d - 1) > _MAX_POINTS:
        raise EvaluationError(
            f"grid of {n}^{d - 1} points exceeds the cap of {_MAX_POINTS}"
        )
    step = 2.0 * L / (n - 1)
    # a fine-lattice coordinate lies within L + step of 0, the last one
    # within d - 1 times that
    reach = (d - 1) * (L + step)
    if reach > _LOG_FLOAT_MAX:
        raise EvaluationError(
            f"log_range {L:.6g} puts lattice points at exp({reach:.6g}), beyond the float range"
        )

    coarse = [np.linspace(-L, L, n) for _ in range(d - 1)]
    # the floor is the value at the middle point (1_d for odd n), held to that
    # point's min bound so that the coarse scan keeps the point itself
    mid = _lattice_points([a[n // 2:n // 2 + 1] for a in coarse])
    floor = min(float(model.value_batch(mid)[0]), float(mid.min()))
    best_val, best_x = _grid_scan(model, coarse, floor)

    fine = [np.linspace(best_x[k] - step, best_x[k] + step, 21) for k in range(d - 1)]
    fine_val, fine_x = _grid_scan(model, fine, best_val)
    if fine_val > best_val:
        best_val, best_x = fine_val, fine_x

    diag = Diagnostics(
        starts_used=2,
        best_start=1,
        function_evals=n ** (d - 1) + 21 ** (d - 1),
        converged=True,
        final_step=step / 10.0,
    )
    return _result(best_val, embed_budget(best_x.tolist()), "oracle", diag)


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def dispatch(model: TailCopulaModel, config: OptimizerConfig | None = None) -> MtcmResult:
    """Route to the tightest available method; the result carries the tag.

    Survival routes go by the exact type of l, which ``SurvivalEvc`` holds
    to the families it has identities for (a subclass may change
    ``_value``):

    * ``closed_mo``: Marshall-Olkin on the closed box [0, 1]^d (independence
      and comonotone are its corners), and a mixture of two of them: ``L``
      is one or two weighted ``min_j a_j x_j`` terms (``closed_form_mo``,
      ``closed_form_mo_mixture``);
    * ``optimizer`` from the diagonal alone: the symmetric logistic and Tawn
      I, whose ``x -> L(e^x)`` is log-concave (``L(x) = E[min_j x_j W_j]``
      with iid Frechet ``W_j``, so Prekopa's theorem applies; Tawn I is that
      function at ``theta * x``, and both evaluate through
      ``tail_copula._logistic_sum``, which rounds at the scale of ``min_j
      b_j``), so their only local maximum is the global one.
      ``config.tol`` and ``config.max_evals`` apply, ``starts``, ``seed``
      and ``range_log`` do not;
    * ``optimizer`` in one coordinate (``_curve_search``): Tawn II on the
      line ``b = (e^u, e^u, e^(-2u))`` (``_tawn2_line``: its nested logistic
      is a mixture of functions log-concave and symmetric in coordinates 1
      and 2; ``tail_copula._nested_sum`` rounds at the scale of ``b1 = b2``
      where the line runs far out with ``b3`` largest), and a mixture of a
      logistic and a Marshall-Olkin model, in either order, on the curve
      ``b = exp(y)``, ``y_j = max(x - log a_j, tau)`` with ``sum y = 0``
      (``_logistic_mo_curve``: the logistic part is Schur-concave in
      ``log b``, so for each ``min_j a_j b_j`` it peaks there).  A zero
      ``a_j`` leaves w times the survival logistic, which runs the diagonal
      start.  ``config.tol`` applies and ``config.max_evals`` caps the whole
      search; ``starts``, ``seed`` and ``range_log`` do not apply.

    Nested Archimedean trees get their closed form.  Archimax (Archimedean
    copulas included, as Archimax over independence) goes through
    ``archimax_mtcm`` (closed form when l is exchangeable, else one start
    from the diagonal).  Everything else (other survival mixtures,
    ``MixtureTail`` and user-defined tail copulas) runs the multi-start
    search of ``optimize``.  So an l of a subclass reaches a search only
    inside Archimax or a ``MixtureTail``.  A search whose simplex would
    hold more than 10^7 coordinates (d >= 3163) raises ``EvaluationError``.
    A search or tree whose ``lambda*`` is below 1e-12 is reported as 0 with
    maximizer 1_d.
    """
    if isinstance(model, SurvivalEvc):
        ell = model.stdf
        kind = type(ell)
        if kind is MarshallOlkin:
            return closed_form_mo(ell.alpha)
        if kind is Mixture and type(ell.first) is type(ell.second) is MarshallOlkin:
            return closed_form_mo_mixture(ell.weight, ell.first.alpha, ell.second.alpha)
        cfg = config or OptimizerConfig()
        found = None
        if kind is Logistic or kind is TawnTypeI:
            found = _diagonal_search(model._value, model.dim, cfg)
        elif kind is TawnTypeII:
            found = _tawn2_line(model, cfg)
        elif kind is Mixture and {type(ell.first), type(ell.second)} == {Logistic, MarshallOlkin}:
            found = _logistic_mo_curve(model, cfg)
        if found is not None:
            lam, b, diag = found
            return _result(lam, b, "optimizer", diag)
    if isinstance(model, NacCopula):
        lam = model.tree.mtcm_closed()
        if lam < _DEGENERACY_EPS:
            return MtcmResult(0.0, (1.0,) * model.dim, "closed_nac", _CLOSED_FORM_DIAG)
        return MtcmResult(lam, model.tree.maximizer(), "closed_nac", _CLOSED_FORM_DIAG)
    if isinstance(model, Archimax):
        return archimax_mtcm(model.stdf, model.alpha, config)
    return optimize(model, config)
