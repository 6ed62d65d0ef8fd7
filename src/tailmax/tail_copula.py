"""Tail copula models.

A tail copula L maps (0, inf)^d to [0, inf), is 1-homogeneous, componentwise
nondecreasing, 1-Lipschitz in the 1-norm and bounded by ``0 <= L(x) <= min_j
x_j``.  Five routes are implemented:

* ``SurvivalEvc``: survival copula of an extreme value copula with stable tail
  dependence function l, via the alternating sum of sub-vector margins
  ``L(x) = sum_{S nonempty} (-1)^(|S|-1) l_S(x)``.  The sum is routed by the
  type of l: Marshall-Olkin collapses to ``min_j a_j x_j`` (the linear part
  cancels, and max-min inclusion-exclusion turns the max part into a min), a
  mixture splits into its components (the sum is linear in l), and a scalar
  logistic evaluation walks the subsets with running power sums; every other
  l sums the ``2^d - 1`` margins directly;
* ``Archimax``: generator with regular-variation index a > 0 plus an l,
  ``L(x) = l(x_1**(-1/a), ..., x_d**(-1/a)) ** (-a)``;
* ``Archimedean``: the l = sum special case,
  ``L(x) = (sum_j x_j**(-1/a)) ** (-a)``, kept as its own fast path;
* ``NacCopula``: nested Archimedean tree recursion (see ``nac``);
* ``MixtureTail``: convex combination of two tail copulas.

Evaluation at a point with a zero coordinate returns 0 (forced by the min
bound and continuity), which keeps grid code total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .errors import EvaluationError, NumericalError, SpecError
from .nac import NacTree
from .stdf import Logistic, MarshallOlkin, Mixture, StdfModel, _check_param

__all__ = [
    "TailCopulaModel",
    "SurvivalEvc",
    "Archimax",
    "Archimedean",
    "NacCopula",
    "MixtureTail",
    "rv_index",
]

MAX_SUBSET_DIM = 20  # the alternating sum has 2^d - 1 terms
MAX_TRANSFORM_DEPTH = 200  # generator descriptors are resolved recursively

# round-off from the alternating sum: clamp small negatives, reject anything
# clearly beyond accumulated floating-point error
_CLAMP_REL = 1e-9


def _as_positive_point(x: Sequence[float], dim: int) -> tuple[list[float], bool]:
    """Validate finiteness/nonnegativity; flag exact zeros (value is then 0)."""
    xs = [float(v) for v in x]
    if len(xs) != dim:
        raise EvaluationError(f"expected a vector of length {dim}, got {len(xs)}")
    has_zero = False
    for j, v in enumerate(xs):
        if not math.isfinite(v):
            raise EvaluationError(f"x[{j}] is not finite: {v}")
        if v < 0.0:
            raise EvaluationError(f"x[{j}] is negative: {v}")
        if v == 0.0:
            has_zero = True
    return xs, has_zero


def _as_positive_batch(X, dim: int) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[1] != dim:
        raise EvaluationError(f"expected an (n, {dim}) array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise EvaluationError("batch contains non-finite values")
    if np.any(A < 0.0):
        raise EvaluationError("batch contains negative coordinates")
    positive = np.all(A > 0.0, axis=1)
    return A, positive


@lru_cache(maxsize=None)
def _gray_schedule(d: int) -> tuple[tuple[int, int], ...]:
    """Per-step (flipped coordinate, sign) for the 2^d - 1 nonempty subsets.

    Subsets are visited in Gray-code order so each step toggles one coordinate
    of the masked point; sign is (-1)^(|S|-1).
    """
    out = []
    in_subset = [False] * d
    size = 0
    for k in range(1, 1 << d):
        j = (k & -k).bit_length() - 1
        in_subset[j] = not in_subset[j]
        size += 1 if in_subset[j] else -1
        out.append((j, 1 if size % 2 == 1 else -1))
    return tuple(out)


def _gray_sum(ell, xs: list[float]) -> float:
    """Alternating sum of the margins of ``ell`` at one point.

    Terms are accumulated with Neumaier-compensated summation in Gray-code
    order, reusing one masked point, because the sum cancels almost completely
    when l is close to independence.
    """
    d = len(xs)
    y = [0.0] * d
    s = 0.0
    comp = 0.0
    for j, sign in _gray_schedule(d):
        y[j] = xs[j] if y[j] == 0.0 else 0.0
        term = ell(y)
        if sign < 0:
            term = -term
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
    return s + comp


def _gray_sum_batch(ell, X: np.ndarray) -> np.ndarray:
    """Row-wise ``_gray_sum`` over an (n, d) array."""
    n, d = X.shape
    Y = np.zeros_like(X)
    active = [False] * d
    s = np.zeros(n)
    comp = np.zeros(n)
    for j, sign in _gray_schedule(d):
        active[j] = not active[j]
        Y[:, j] = X[:, j] if active[j] else 0.0
        term = ell(Y)
        if sign < 0:
            term = -term
        t = s + term
        comp += np.where(np.abs(s) >= np.abs(term), (s - t) + term, (term - t) + s)
        s = t
    return s + comp


def _logistic_terms(x: list[float], s: float):
    """Signed terms ``(-1)^(|S|-1) l_S(x)`` of the logistic alternating sum.

    ``x`` is sorted in descending order and positive.  The subsets whose
    largest coordinate is x_i are walked depth-first over the later
    coordinates, keeping the running sum ``1 + sum_{j in S} (x_j / x_i)^s``
    for each level, so a subset costs one add and one power:
    ``l_S(x) = x_i * (running sum) ** (1/s)``.  Memory is O(d).
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


def _survival_sum(stdf: StdfModel, x, batch: bool):
    """Alternating margin sum of ``stdf`` at one point (a list) or row-wise
    over an (n, d) array, unclamped.

    Routed by the exact type of ``stdf``, since a subclass may change
    ``_value`` and with it the identity; ``SurvivalEvc`` lists the routes.
    The Marshall-Olkin identity holds on the closed box [0, 1]^d: each x_j
    of the linear part appears in subsets whose signs sum to 0, and max-min
    inclusion-exclusion turns the max part into the min.
    """
    kind = type(stdf)
    if kind is MarshallOlkin:
        if batch:
            return (x * np.asarray(stdf.alpha)).min(axis=1)
        return min(a * v for a, v in zip(stdf.alpha, x))
    if kind is Mixture:
        w = stdf.weight
        return w * _survival_sum(stdf.first, x, batch) + (1.0 - w) * _survival_sum(
            stdf.second, x, batch
        )
    if batch:
        return _gray_sum_batch(stdf._value_batch, x)
    if kind is Logistic:
        xs = sorted(x, reverse=True)
        if xs[-1] == 0.0:  # L <= min x; also keeps the ratios finite
            return 0.0
        return math.fsum(_logistic_terms(xs, stdf.s))
    return _gray_sum(stdf._value, x)


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
        """Evaluate L(x); zero coordinates give 0."""
        xs, has_zero = _as_positive_point(x, self.dim)
        if has_zero:
            return 0.0
        return self._value(xs)

    def value_batch(self, X) -> np.ndarray:
        """Row-wise L over an (n, d) array; rows with zeros give 0."""
        A, positive = _as_positive_batch(X, self.dim)
        if np.all(positive):
            return self._value_batch(A)
        out = np.zeros(A.shape[0])
        if np.any(positive):
            out[positive] = self._value_batch(A[positive])
        return out

    def diagonal(self) -> float:
        """Tail dependence coefficient L(1, ..., 1)."""
        return self._value([1.0] * self.dim)

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class SurvivalEvc(TailCopulaModel):
    """Survival route: alternating sum of the 2^d - 1 sub-vector margins.

    Which l skip the blind sum, and why (see ``_survival_sum``):

    * Marshall-Olkin: ``L(x) = min_j a_j x_j`` in O(d), because the linear
      part of l cancels and max-min inclusion-exclusion turns the max part
      into the min;
    * a mixture ``w l_1 + (1-w) l_2``: ``w L_1 + (1-w) L_2``, because the sum
      is linear in l;
    * logistic, scalar path: the same 2^d - 1 margins, but built from running
      power sums over the sorted coordinates, one power per margin instead
      of d, and summed exactly with ``math.fsum``.

    Every other l (Tawn, independence, comonotone, subclasses, and logistic
    on the batch path) sums its margins in Gray-code order with
    Neumaier-compensated summation.
    """

    stdf: StdfModel

    family: ClassVar[str] = "survival_evc"

    def __post_init__(self) -> None:
        _check_param(isinstance(self.stdf, StdfModel), "stdf must be an StdfModel")
        _check_param(
            self.stdf.dim <= MAX_SUBSET_DIM,
            f"survival route needs 2^d - 1 margin terms; d={self.stdf.dim} exceeds {MAX_SUBSET_DIM}",
        )

    @property
    def dim(self) -> int:
        return self.stdf.dim

    def _finish(self, total: float, scale: float) -> float:
        if total < 0.0:
            if total < -_CLAMP_REL * max(1.0, scale):
                raise NumericalError(
                    f"alternating margin sum returned {total}, far below zero for scale {scale}"
                )
            return 0.0
        return total

    def _value(self, xs: list[float]) -> float:
        return self._finish(_survival_sum(self.stdf, xs, False), math.fsum(xs))

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        total = _survival_sum(self.stdf, X, True)
        scale = np.maximum(1.0, X.sum(axis=1))
        bad = total < -_CLAMP_REL * scale
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NumericalError(
                f"alternating margin sum returned {total[i]} at row {i}, far below zero"
            )
        return np.maximum(total, 0.0)


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
        mn = X.min(axis=1)
        Z = np.power(mn[:, None] / X, 1.0 / a)
        return mn * self.stdf._value_batch(Z) ** (-a)

    def params(self) -> dict:
        return {"alpha": self.alpha}


@dataclass(frozen=True)
class Archimedean(TailCopulaModel):
    """Fast path for the l = sum case: ``L(x) = (sum_j x_j**(-1/a)) ** (-a)``.

    Equivalent to ``Archimax(Independence(d), a)``; both paths are kept and
    cross-asserted in the tests.
    """

    alpha: float
    dimension: int

    family: ClassVar[str] = "archimedean"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "dimension", int(self.dimension))
        _check_param(
            math.isfinite(self.alpha) and self.alpha > 0.0,
            "regular-variation index alpha must be positive and finite",
        )
        _check_param(self.dimension >= 2, "dimension must be >= 2")

    @property
    def dim(self) -> int:
        return self.dimension

    def _value(self, xs: list[float]) -> float:
        a = self.alpha
        mn = min(xs)
        s = sum((mn / v) ** (1.0 / a) for v in xs)
        return mn * s ** (-a)

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        a = self.alpha
        mn = X.min(axis=1)
        s = np.power(mn[:, None] / X, 1.0 / a).sum(axis=1)
        return mn * s ** (-a)

    def params(self) -> dict:
        return {"alpha": self.alpha}


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

    def params(self) -> dict:
        return {"weight": self.weight}


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
