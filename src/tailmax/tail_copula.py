"""Tail copula models.

A tail copula L maps (0, inf)^d to [0, inf), is 1-homogeneous, componentwise
nondecreasing, 1-Lipschitz in the 1-norm and bounded by ``0 <= L(x) <= min_j
x_j``.  Four routes are implemented:

* ``SurvivalEvc``: survival copula of an extreme value copula with stable tail
  dependence function l, via the alternating sum of sub-vector margins
  ``L(x) = sum_{S nonempty} (-1)^(|S|-1) l_S(x)``.  Any additive part of l
  that ignores a coordinate cancels from the sum, so each family of l takes
  an identity (listed under ``SurvivalEvc``); only an l of another type
  sums its ``2^d - 1`` margins one by one;
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
from .stdf import _as_batch, _as_point, _check_param, _powsum_root, _powsum_root_np, _row_min

__all__ = [
    "TailCopulaModel",
    "SurvivalEvc",
    "Archimax",
    "NacCopula",
    "MixtureTail",
    "rv_index",
]

MAX_SUBSET_DIM = 20  # the alternating sum has 2^d - 1 terms
MAX_TRANSFORM_DEPTH = 200  # generator descriptors are resolved recursively

# round-off from the alternating sum: clamp small negatives, reject anything
# clearly beyond accumulated floating-point error
_CLAMP_REL = 1e-9

# ``value`` scales a point with an entry above 2^960 down by a power of two;
# below it, 2^20 margins of at most 20 max_j x_j each cannot overflow a sum
_RESCALE_EXP = 960


def _neumaier(terms) -> np.ndarray:
    """Row-wise Neumaier-compensated sum of an iterable of arrays; the
    alternating sums cancel almost completely near independence."""
    s = comp = 0.0
    for term in terms:
        t = s + term
        comp += np.where(np.abs(s) >= np.abs(term), (s - t) + term, (term - t) + s)
        s = t
    return s + comp


def _logistic_terms(x, s: float):
    """Signed terms ``(-1)^(|S|-1) l_S(x)`` of the logistic alternating sum.

    ``x`` is a descending sequence of positive floats, or of the columns of
    a row-sorted array, so every ratio ``(x_j / x_i)^s`` lies in [0, 1].  The
    subsets whose largest coordinate is x_i are walked depth-first over the
    later coordinates, keeping the running sum ``1 + sum_{j in S} (x_j /
    x_i)^s`` for each level, so a subset costs one add and one power:
    ``l_S(x) = x_i * (running sum) ** (1/s)``.  Memory is O(d) terms.
    """
    inv = 1.0 / s
    d = len(x)
    pos = [0] * d  # pos[:t]: chosen indices into ``r``, increasing
    acc = [1.0] * d  # acc[t]: 1 plus the ratios at pos[:t]
    for i in range(d):
        xi = x[i]
        yield xi
        m = d - 1 - i
        if not m:
            return
        r = [(v / xi) ** s for v in x[i + 1:]]
        neg = -xi
        t = 1
        pos[0] = 0
        acc[1] = 1.0 + r[0]
        while True:
            yield (neg if t & 1 else xi) * acc[t] ** inv
            k = pos[t - 1] + 1
            if k < m:  # descend: append the next index
                pos[t] = k
                acc[t + 1] = acc[t] + r[k]
                t += 1
            else:  # the last index is taken: drop it, advance the one before
                t -= 1
                if not t:
                    break
                k = pos[t - 1] + 1
                pos[t - 1] = k
                acc[t] = acc[t - 1] + r[k]


def _logistic_sum(x, s: float, batch: bool):
    """Survival logistic sum at one point or row-wise; a zero coordinate
    gives 0 (``L <= min x``), which also keeps the ratios finite."""
    if not batch:
        xs = sorted(x, reverse=True)
        return 0.0 if xs[-1] == 0.0 else math.fsum(_logistic_terms(xs, s))
    cols = np.sort(x, axis=1).T[::-1]
    ok = cols[-1] > 0.0
    out = np.zeros(x.shape[0])
    out[ok] = _neumaier(_logistic_terms(cols[:, ok], s))
    return out


def _subset_sum(stdf: StdfModel, X: np.ndarray) -> np.ndarray:
    """Row-wise alternating sum over the nonempty subset bitmasks, for an l
    that no identity covers."""
    bits = np.arange(X.shape[1])
    return _neumaier(
        (1 if bin(m).count("1") & 1 else -1) * stdf._value_batch(X * ((m >> bits) & 1))
        for m in range(1, 1 << X.shape[1])
    )


def _needs_subsets(stdf: StdfModel) -> bool:
    """Whether some component of l takes a route with 2^d - 1 terms."""
    if type(stdf) is Mixture:
        return _needs_subsets(stdf.first) or _needs_subsets(stdf.second)
    return type(stdf) is not MarshallOlkin


def _survival_sum(stdf: StdfModel, x, batch: bool):
    """Alternating margin sum of ``stdf`` at one point (a list) or row-wise
    over an (n, d) array, unclamped.

    Routed by the exact type of ``stdf``, since a subclass may change
    ``_value`` and with it the identity; ``SurvivalEvc`` lists the routes.
    Each identity drops the additive parts of l that ignore a coordinate:
    subsets with and without that coordinate give the same margin with
    opposite signs.
    """
    kind = type(stdf)
    if kind is MarshallOlkin:
        if batch:
            return _row_min(x * np.asarray(stdf.alpha))
        return min(a * v for a, v in zip(stdf.alpha, x))
    if kind is Mixture:
        w = stdf.weight
        return w * _survival_sum(stdf.first, x, batch) + (1.0 - w) * _survival_sum(
            stdf.second, x, batch
        )
    if kind is Logistic:
        return _logistic_sum(x, stdf.s, batch)
    if kind is TawnTypeI:  # the logistic at theta * x: 0 if some theta_j is 0
        y = x * np.asarray(stdf.theta) if batch else [t * v for t, v in zip(stdf.theta, x)]
        return _logistic_sum(y, stdf.s, batch)
    if kind is TawnTypeII:  # phi times the nested logistic ||(u, x3)||_s
        if batch:
            x1, x2, x3 = x.T
            norm = lambda a, b, p: _powsum_root_np((a, b), p)
            add = _neumaier
        else:
            x1, x2, x3 = x
            norm = lambda a, b, p: _powsum_root((a, b), p)
            add = math.fsum
        s = stdf.s
        u = norm(x1, x2, stdf.r * s)
        return stdf.phi * add((x1, x2, x3, -u, -norm(x1, x3, s), -norm(x2, x3, s), norm(u, x3, s)))
    if batch:
        return _subset_sum(stdf, x)
    return float(_subset_sum(stdf, np.array([x]))[0])


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
        """Row-wise L over an (n, d) array; rows with zeros give 0."""
        A = _as_batch(X, self.dim)
        positive = _row_min(A) > 0.0
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

    The sum is routed by the exact type of l (see ``_survival_sum``):

    * Marshall-Olkin: ``L(x) = min_j a_j x_j`` in O(d), because the linear
      part of l cancels and max-min inclusion-exclusion turns the max part
      into the min;
    * a mixture ``w l_1 + (1-w) l_2``: ``w L_1 + (1-w) L_2``, because the sum
      is linear in l;
    * logistic: the 2^d - 1 margins from running power sums over the
      coordinates in descending order, one power per margin instead of d,
      summed with ``math.fsum`` (one point) or Neumaier's sum (row-wise);
    * Tawn I: the logistic with exponent s at ``(t1 x1, t2 x2, t3 x3)``, since
      the r-term and ``(1 - t3) x3`` cancel; 0 if some ``t_j`` is 0;
    * Tawn II: ``phi`` times the survival nested logistic
      ``x1 + x2 + x3 - u - ||(x1, x3)||_s - ||(x2, x3)||_s + ||(u, x3)||_s``
      with ``u = ||(x1, x2)||_(rs)``, since the ``(1 - phi)`` part cancels
      (Tawn, Biometrika 1990).

    Any other l (a subclass, or a user-defined l) sums its margins over the
    subset bitmasks.  Only routes with 2^d - 1 terms cap d at
    ``MAX_SUBSET_DIM``; Marshall-Olkin l, and mixtures of them, take any d.

    Far from the diagonal the round-off of the largest margin can exceed
    ``min_j x_j``; the sum is projected into ``[0, min_j x_j]``, where the
    true value lies.  A sum below -1e-9 ``max(1, sum_j x_j)`` raises.
    """

    stdf: StdfModel

    family: ClassVar[str] = "survival_evc"

    def __post_init__(self) -> None:
        _check_param(isinstance(self.stdf, StdfModel), "stdf must be an StdfModel")
        _check_param(
            self.stdf.dim <= MAX_SUBSET_DIM or not _needs_subsets(self.stdf),
            f"survival route needs 2^d - 1 margin terms; d={self.stdf.dim} exceeds {MAX_SUBSET_DIM}",
        )

    @property
    def dim(self) -> int:
        return self.stdf.dim

    def _value(self, xs: list[float]) -> float:
        total = _survival_sum(self.stdf, xs, False)
        if total < 0.0:
            scale = math.fsum(xs)
            if total < -_CLAMP_REL * max(1.0, scale):
                raise NumericalError(
                    f"alternating margin sum returned {total}, far below zero for scale {scale}"
                )
            return 0.0
        return min(total, min(xs))

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        total = _survival_sum(self.stdf, X, True)
        neg = np.flatnonzero(total < 0.0)  # the scale is needed on these rows only
        bad = neg[total[neg] < -_CLAMP_REL * np.maximum(1.0, X[neg].sum(axis=1))]
        if bad.size:
            i = int(bad[0])
            raise NumericalError(
                f"alternating margin sum returned {total[i]} at row {i}, far below zero"
            )
        return np.minimum(np.maximum(total, 0.0), _row_min(X))


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
        mn = _row_min(X)
        Z = np.power(mn[:, None] / X, 1.0 / a)
        return mn * self.stdf._value_batch(Z) ** (-a)


@dataclass(frozen=True)
class NacCopula(TailCopulaModel):
    """Nested Archimedean tree model; evaluation delegates to the tree."""

    tree: NacTree

    family: ClassVar[str] = "nac"

    def __post_init__(self) -> None:
        _check_param(isinstance(self.tree, NacTree), "tree must be a NacTree")

    @property
    def dim(self) -> int:
        return self.tree.dim

    def _value(self, xs: list[float]) -> float:
        return self.tree.tail_copula(xs)

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        return self.tree.tail_copula_batch(X)


@dataclass(frozen=True)
class MixtureTail(TailCopulaModel):
    """Convex combination ``L = w L_1 + (1-w) L_2`` of two tail copulas."""

    weight: float
    first: TailCopulaModel
    second: TailCopulaModel

    family: ClassVar[str] = "mixture_tc"

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", float(self.weight))
        _check_param(0.0 <= self.weight <= 1.0, "mixture weight must be in [0, 1]")
        _check_param(
            self.first.dim == self.second.dim,
            f"mixture components disagree in dimension: {self.first.dim} vs {self.second.dim}",
        )

    @property
    def dim(self) -> int:
        return self.first.dim

    def _value(self, xs: list[float]) -> float:
        w = self.weight
        return w * self.first._value(xs) + (1.0 - w) * self.second._value(xs)

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        w = self.weight
        return w * self.first._value_batch(X) + (1.0 - w) * self.second._value_batch(X)


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
