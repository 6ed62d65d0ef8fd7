"""Tail copula models.

A tail copula L maps (0, inf)^d to [0, inf), is 1-homogeneous, componentwise
nondecreasing, 1-Lipschitz in the 1-norm and bounded by ``0 <= L(x) <= min_j
x_j``.  Four routes are implemented:

* ``SurvivalEvc``: survival copula of an extreme value copula with stable tail
  dependence function l, the alternating sum of sub-vector margins
  ``L(x) = sum_{S nonempty} (-1)^(|S|-1) l_S(x)``.  Any additive part of l
  that ignores a coordinate cancels from the sum, so each family of l takes
  an identity (listed under ``SurvivalEvc``; the logistic and Tawn I share
  one sum paired on the smallest coordinate, Tawn II takes a sum of three
  bivariate survival logistics), and only l built from these families is
  accepted;
* ``Archimax``: generator with regular-variation index a > 0 plus an l,
  ``L(x) = l(x_1**(-1/a), ..., x_d**(-1/a)) ** (-a)``.  An Archimedean
  copula with a regularly varying generator is the case l = independence
  sum, ``Archimax(Independence(d), a)``;
* ``NacCopula``: nested Archimedean tree recursion (see ``nac``);
* ``MixtureTail``: convex combination of two tail copulas.

Evaluation at a point with a zero coordinate returns 0 (forced by the min
bound and continuity), which keeps grid code total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .errors import NumericalError, SpecError
from .nac import NacTree
from .stdf import Logistic, MarshallOlkin, Mixture, StdfModel, TawnTypeI, TawnTypeII
from .stdf import POINT, ROWS, _as_batch, _as_point, _check_param, _ConvexMixture, _Ops, _powsum_root

__all__ = [
    "TailCopulaModel",
    "SurvivalEvc",
    "Archimax",
    "NacCopula",
    "MixtureTail",
    "rv_index",
]

MAX_SUBSET_DIM = 20  # caps a logistic l: its survival sum has 2^(d-1) terms
MAX_TRANSFORM_DEPTH = 200  # generator descriptors are resolved recursively

# round-off from the alternating sum: clamp small negatives, reject anything
# clearly beyond accumulated floating-point error
_CLAMP_REL = 1e-9

# ``value`` scales a point with an entry above 2^960 down by a power of two;
# below it no route overflows: the survival logistic's largest intermediates
# are its norms ``||x_S||_s``, at most 20 max_j x_j, and the partial sums of
# its 2^19 terms, at most 2^19 min_j x_j, both below 2^979; Tawn II's norms
# are at most 2 max_j x_j; Archimax evaluates l, and NAC its powers, at
# ratios in [0, 1]
_RESCALE_EXP = 960


def _logistic_terms(x, s: float, ops: _Ops):
    """Signed terms of the survival logistic sum, paired on the smallest
    coordinate.

    ``x`` is ascending (a sorted point, or row-sorted columns), so its first
    entry ``x_k`` is the smallest.  Pairing each nonempty subset S of the
    larger coordinates with ``S + {k}`` gives ``L(x) = x_k - sum_S
    (-1)^(|S|-1) D_S``, ``D_S = ||x_(S+k)||_s - ||x_S||_s = ||x_S||_s
    expm1(log1p((x_k / ||x_S||_s)^s) / s)``, so every term lies in ``[0,
    x_k]`` and rounds at the scale of ``min_j x_j``, not at that of the
    largest margin.  The subsets whose largest coordinate is x_i are walked
    depth-first over the larger coordinates below x_i, from x_(i-1) down,
    keeping the running sum ``a = 1 + sum_{j in S, j != i} (x_j / x_i)^s``
    for each level: ``||x_S||_s = x_i a^(1/s)`` and ``(x_k / ||x_S||_s)^s =
    (x_k / x_i)^s / a``.  A zero x_k makes every D_S 0; x_i is 0 only where
    x_k is, and is taken as 1 there to avoid 0/0.  Memory is O(d) terms.
    """
    inv = 1.0 / s
    expm1, log1p = ops.expm1, ops.log1p
    n = len(x) - 1  # x[1:] are the larger coordinates
    xk = x[0]
    yield xk
    pos = [0] * n  # pos[:t]: chosen indices into ``r``, increasing
    acc = [1.0] * n  # acc[t]: 1 plus the ratios at pos[:t]
    for i in range(n, 0, -1):
        xi = x[i]
        xi = xi + (xi == 0.0)
        q = (xk / xi) ** s
        yield -xi * expm1(log1p(q) * inv)  # S = {i}
        m = i - 1
        if not m:
            return
        r = [(v / xi) ** s for v in x[m:0:-1]]
        t = 1
        pos[0] = 0
        acc[1] = 1.0 + r[0]
        while True:
            a = acc[t]
            d_s = xi * a ** inv * expm1(log1p(q / a) * inv)
            yield d_s if t & 1 else -d_s  # |S| = t + 1
            k = pos[t - 1] + 1
            if k < m:  # descend: append the next index
                pos[t] = k
                acc[t + 1] = a + r[k]
                t += 1
            else:  # the last index is taken: drop it, advance the one before
                t -= 1
                if not t:
                    break
                k = pos[t - 1] + 1
                pos[t - 1] = k
                acc[t] = acc[t - 1] + r[k]


def _logistic_sum(x, s: float, ops: _Ops):
    """Survival logistic sum of ``x``; a zero coordinate gives 0 (``L <=
    min x``).  ``ops.fsum`` adds the terms (see ``SurvivalEvc``)."""
    return ops.fsum(_logistic_terms(ops.sort(x), s, ops))


def _nested_sum(x, s: float, p: float, ops: _Ops):
    """Survival nested logistic ``N(x; s, p) = P(x1, x3) + P(x2, x3) - P(u,
    x3)``, ``u = ||(x1, x2)||_p``; Tawn II's survival sum is ``phi N(x; s,
    rs)``.  ``P(a, b) = a + b - ||(a, b)||_s = m - M expm1(log1p((m /
    M)^s) / s)``, with m and M the smaller and larger of a and b, is 0 at m
    = 0 and rounds at the scale of m.  Since ``u >= max(x1, x2)``, the last
    two pairs cancel at the scale of ``min(max(x1, x2), x3)``, the middle
    coordinate when x1 or x2 is the smallest: the sum rounds at ``min_j
    x_j`` only when x3 is."""
    lo, hi, expm1, log1p = ops.lo, ops.hi, ops.expm1, ops.log1p
    x1, x2, x3 = x
    u = _powsum_root((x1, x2), p, ops)

    def pair(a, b):
        m, M = lo(a, b), hi(a, b)
        q = m / (M + (M == 0.0))  # M is 0 only where m is: 0 / 1 there
        return m - M * expm1(log1p(q ** s) / s)

    return pair(x1, x3) + pair(x2, x3) - pair(u, x3)


def _survival_sum(stdf: StdfModel, x, ops: _Ops):
    """Alternating margin sum of ``stdf`` at ``x``, unclamped: one point
    under ``POINT``, the columns of an (n, d) array under ``ROWS``.

    Routed by the exact type of ``stdf``, which ``SurvivalEvc`` holds to the
    families with an identity (a subclass may change ``_value`` and with it
    the identity, so it is rejected there); ``SurvivalEvc`` lists the
    routes.  Each identity drops the additive parts of l that ignore a
    coordinate: subsets with and without that coordinate give the same
    margin with opposite signs.  The logistic and Tawn I reduce to
    ``_logistic_sum``, Tawn II to ``_nested_sum``.
    """
    kind = type(stdf)
    if kind is MarshallOlkin:
        return ops.min(a * v for a, v in zip(stdf.alpha, x))
    if kind is Mixture:
        w = stdf.weight
        return w * _survival_sum(stdf.first, x, ops) + (1.0 - w) * _survival_sum(
            stdf.second, x, ops
        )
    if kind is Logistic:
        return _logistic_sum(x, stdf.s, ops)
    if kind is TawnTypeI:  # the trivariate survival logistic at theta * x
        return _logistic_sum([t * v for t, v in zip(stdf.theta, x)], stdf.s, ops)
    return stdf.phi * _nested_sum(x, stdf.s, stdf.r * stdf.s, ops)  # TawnTypeII


def _check_survival_l(stdf) -> None:
    """Reject an l that is not a tree of ``Mixture`` nodes over Marshall-Olkin,
    logistic, Tawn I and Tawn II leaves, each of that exact type, or whose
    logistic leaf has more than ``MAX_SUBSET_DIM`` coordinates."""
    kind = type(stdf)
    if kind is Mixture:
        _check_survival_l(stdf.first)
        _check_survival_l(stdf.second)
        return
    _check_param(
        kind in (MarshallOlkin, Logistic, TawnTypeI, TawnTypeII),
        f"the survival route has no identity for an l of type {kind.__name__}",
    )
    _check_param(
        kind is not Logistic or stdf.dim <= MAX_SUBSET_DIM,
        f"the survival logistic sum has 2^(d-1) - 1 terms; d={stdf.dim} exceeds {MAX_SUBSET_DIM}",
    )


@dataclass(frozen=True)
class TailCopulaModel:
    """Base class; concrete models implement ``_value``/``_value_batch``."""

    family: ClassVar[str] = ""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def _value(self, xs: list[float]) -> float:
        raise NotImplementedError

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, x: Sequence[float]) -> float:
        """Evaluate L(x); zero coordinates give 0.  A point with an entry
        above 2^960 is evaluated scaled down by a power of two (L is
        1-homogeneous); entries that this takes below the normal range lose
        precision, so that value is held to ``L <= min_j x_j``."""
        xs = _as_point(x, self.dim)
        k = math.frexp(max(xs))[1] - _RESCALE_EXP
        if k <= 0:
            return 0.0 if min(xs) == 0.0 else self._value(xs)
        ys = [math.ldexp(v, -k) for v in xs]
        lo = min(ys)
        return 0.0 if lo == 0.0 else min(math.ldexp(min(self._value(ys), lo), k), min(xs))

    def value_batch(self, X) -> np.ndarray:
        """Row-wise L over an (n, d) array; rows with zeros give 0.  A row
        with an entry above 2^960 is scaled as in ``value``."""
        A = _as_batch(X, self.dim)
        if not (A.size and A.max() >= 2.0 ** _RESCALE_EXP):
            return self._nonzero_rows(A)
        k = np.maximum(np.frexp(ROWS.max(A.T))[1] - _RESCALE_EXP, 0)
        Y = np.ldexp(A, -k[:, None])
        v = self._nonzero_rows(Y)
        held = np.minimum(np.ldexp(np.minimum(v, ROWS.min(Y.T)), k), ROWS.min(A.T))
        return np.where(k > 0, held, v)

    def _nonzero_rows(self, A: np.ndarray) -> np.ndarray:
        """``_value_batch`` on the rows without a zero, 0 on the others."""
        positive = ROWS.min(A.T) > 0.0
        if np.all(positive):
            return self._value_batch(A)
        out = np.zeros(A.shape[0])
        if np.any(positive):
            out[positive] = self._value_batch(A[positive])
        return out

    def diagonal(self) -> float:
        """Tail dependence coefficient L(1, ..., 1)."""
        return self._value([1.0] * self.dim)


@dataclass(frozen=True)
class SurvivalEvc(TailCopulaModel):
    """Survival route: alternating sum of the 2^d - 1 sub-vector margins.

    The sum is routed by the exact type of l (see ``_survival_sum``), each
    family by an identity:

    * Marshall-Olkin: ``L(x) = min_j a_j x_j`` in O(d), because the linear
      part of l cancels and max-min inclusion-exclusion turns the max part
      into the min;
    * a mixture ``w l_1 + (1-w) l_2``: ``w L_1 + (1-w) L_2``, because the sum
      is linear in l;
    * logistic: each subset S of the d - 1 larger coordinates is paired with
      ``S + {k}``, k the smallest coordinate, so ``L(x) = x_k - sum_S
      (-1)^(|S|-1) D_S`` with ``D_S = ||x_S||_s expm1(log1p((x_k /
      ||x_S||_s)^s) / s)`` in ``[0, x_k]``; the 2^(d-1) - 1 terms come from
      running power sums over the sorted coordinates (``_logistic_sum``).
      ``math.fsum`` adds them at a point, so ``value`` is the correctly
      rounded sum of its terms; rows add them plainly, which is enough
      because no term exceeds x_k (at most 2.8e-16 ``min_j x_j`` measured
      at d = 2..6);
    * Tawn I: the r-term and ``(1 - t3) x3`` cancel, leaving the trivariate
      survival logistic at ``(t1 x1, t2 x2, t3 x3)`` (0 if some ``t_j`` is
      0), summed as the logistic;
    * Tawn II: ``phi N(x; s, rs)``, since the ``(1 - phi)`` part cancels,
      where ``N(x; s, p) = x1 + x2 + x3 - u - ||(x1, x3)||_s - ||(x2,
      x3)||_s + ||(u, x3)||_s``, ``u = ||(x1, x2)||_p``, is the survival
      nested logistic (Tawn, Biometrika 1990), summed as three bivariate
      survival logistics (``_nested_sum``).

    Any other l, a subclass of these families included (it may change
    ``_value`` and with it the identity), raises ``SpecError``, as does a
    logistic l, anywhere in a mixture, with d above ``MAX_SUBSET_DIM``;
    Marshall-Olkin l, and mixtures of them, take any d.

    The Marshall-Olkin, logistic and Tawn I routes round at the scale of
    ``min_j x_j``.  Tawn II still rounds above it far from the diagonal,
    when x1 or x2 is the smallest coordinate (at the scale of the middle
    one).  The sum is projected into ``[0, min_j x_j]``, where the true
    value lies.  A sum below -1e-9 ``max(1, sum_j x_j)`` raises.
    """

    stdf: StdfModel

    family: ClassVar[str] = "survival_evc"

    def __post_init__(self) -> None:
        _check_survival_l(self.stdf)

    @property
    def dim(self) -> int:
        return self.stdf.dim

    def _value(self, xs: list[float]) -> float:
        total = _survival_sum(self.stdf, xs, POINT)
        if total < 0.0:
            scale = math.fsum(xs)
            if total < -_CLAMP_REL * max(1.0, scale):
                raise NumericalError(
                    f"alternating margin sum returned {total}, far below zero for scale {scale}"
                )
            return 0.0
        return min(total, min(xs))

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        total = _survival_sum(self.stdf, X.T, ROWS)
        neg = np.flatnonzero(total < 0.0)  # the scale is needed on these rows only
        bad = neg[total[neg] < -_CLAMP_REL * np.maximum(1.0, X[neg].sum(axis=1))]
        if bad.size:
            i = int(bad[0])
            raise NumericalError(
                f"alternating margin sum returned {total[i]} at row {i}, far below zero"
            )
        return np.minimum(np.maximum(total, 0.0), ROWS.min(X.T))


@dataclass(frozen=True)
class Archimax(TailCopulaModel):
    """Generator index a > 0 combined with a stable tail dependence function.

    Stable form: with m = min_j x_j and z_j = (m / x_j)**(1/a) in (0, 1],
    ``L(x) = m * l(z) ** (-a)``; l(z) >= 1 makes the min bound explicit.
    """

    stdf: StdfModel
    alpha: float

    family: ClassVar[str] = "archimax"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        _check_param(isinstance(self.stdf, StdfModel), "stdf must be an StdfModel")
        _check_param(
            math.isfinite(self.alpha) and self.alpha > 0.0,
            "regular-variation index alpha must be positive and finite",
        )

    @property
    def dim(self) -> int:
        return self.stdf.dim

    def _value(self, xs: list[float]) -> float:
        a = self.alpha
        mn = min(xs)
        z = [(mn / v) ** (1.0 / a) for v in xs]
        return mn * self.stdf._value(z) ** (-a)

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        a = self.alpha
        mn = ROWS.min(X.T)
        Z = np.power(mn[:, None] / X, 1.0 / a)
        return mn * self.stdf._value_batch(Z) ** (-a)


@dataclass(frozen=True)
class NacCopula(TailCopulaModel):
    """Nested Archimedean tree model; evaluation runs the tree's recursion on
    the point that ``value``/``value_batch`` have checked."""

    tree: NacTree

    family: ClassVar[str] = "nac"

    def __post_init__(self) -> None:
        _check_param(isinstance(self.tree, NacTree), "tree must be a NacTree")

    @property
    def dim(self) -> int:
        return self.tree.dim

    def _value(self, xs: list[float]) -> float:
        return self.tree._tail_copula(xs, 0, POINT)

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        return self.tree._tail_copula(X.T, 0, ROWS)


@dataclass(frozen=True)
class MixtureTail(_ConvexMixture, TailCopulaModel):
    """Convex combination ``L = w L_1 + (1-w) L_2`` of two tail copulas."""

    family: ClassVar[str] = "mixture_tc"
    _layer: ClassVar[type] = TailCopulaModel


# ---------------------------------------------------------------------------
# regular-variation index calculus for transformed generators
# ---------------------------------------------------------------------------

def rv_index(descriptor: Mapping) -> float:
    """Resolve a generator-transform descriptor to its regular-variation index.

    Descriptors are nested mappings with a ``kind`` key:

    * ``{"kind": "clayton", "theta": t}``          -> 1/t
    * ``{"kind": "inner_power", "base": D, "gamma": g}``  (0 < g <= 1) -> idx(D)/g
    * ``{"kind": "outer_power", "base": D, "beta": b}``   (b >= 1)     -> idx(D)/b
    * ``{"kind": "tilted_clayton", "theta": t, "beta": b, "c": c}``
      (b >= 1, c >= 0; c does not enter the index)  -> 1/(t*b)
    * ``{"kind": "shifted_clayton", "theta": t, "h": h}``
      (h >= 0; h does not enter the index)          -> 1/t
    """
    return _rv_index(descriptor, "generator", 0)


def _rv_num(desc: Mapping, key: str, path: str) -> float:
    if key not in desc:
        raise SpecError(f"{path}: missing '{key}'")
    v = desc[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(float(v)):
        raise SpecError(f"{path}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _rv_index(desc: Mapping, path: str, depth: int) -> float:
    if not isinstance(desc, Mapping):
        raise SpecError(f"{path}: expected an object, got {type(desc).__name__}")
    if depth > MAX_TRANSFORM_DEPTH:
        raise SpecError(f"transforms nest deeper than {MAX_TRANSFORM_DEPTH} levels")
    kind = desc.get("kind")
    if kind == "clayton":
        theta = _rv_num(desc, "theta", path)
        if theta <= 0.0:
            raise SpecError(f"{path}.theta: must be positive, got {theta}")
        return 1.0 / theta
    if kind == "inner_power":
        gamma = _rv_num(desc, "gamma", path)
        if not 0.0 < gamma <= 1.0:
            raise SpecError(f"{path}.gamma: must be in (0, 1], got {gamma}")
        return _rv_index(desc.get("base"), f"{path}.base", depth + 1) / gamma
    if kind == "outer_power":
        beta = _rv_num(desc, "beta", path)
        if beta < 1.0:
            raise SpecError(f"{path}.beta: must be >= 1, got {beta}")
        return _rv_index(desc.get("base"), f"{path}.base", depth + 1) / beta
    if kind == "tilted_clayton":
        theta = _rv_num(desc, "theta", path)
        beta = _rv_num(desc, "beta", path)
        c = _rv_num(desc, "c", path) if "c" in desc else 0.0
        if theta <= 0.0:
            raise SpecError(f"{path}.theta: must be positive, got {theta}")
        if beta < 1.0:
            raise SpecError(f"{path}.beta: must be >= 1, got {beta}")
        if c < 0.0:
            raise SpecError(f"{path}.c: must be >= 0, got {c}")
        return 1.0 / (theta * beta)
    if kind == "shifted_clayton":
        theta = _rv_num(desc, "theta", path)
        h = _rv_num(desc, "h", path) if "h" in desc else 0.0
        if theta <= 0.0:
            raise SpecError(f"{path}.theta: must be positive, got {theta}")
        if h < 0.0:
            raise SpecError(f"{path}.h: must be >= 0, got {h}")
        return 1.0 / theta
    raise SpecError(
        f"{path}.kind: unknown transform {kind!r} (expected clayton, inner_power, "
        "outer_power, tilted_clayton or shifted_clayton)"
    )
