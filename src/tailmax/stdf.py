"""Parametric stable tail dependence functions.

A stable tail dependence function l : [0, inf)^d -> [0, inf) is convex,
1-homogeneous and bounded by ``max_j x_j <= l(x) <= sum_j x_j``.  Every model
here supports exact-zero coordinates (with the convention ``0**p = 0`` for
``p > 0``), so the sub-vector margin ``l_S`` is ``l`` at the point with the
coordinates outside S set to 0.

The two extreme models, independence (``l = sum x``) and comonotonicity
(``l = max x``), are the corners a = 0 and a = 1 of the Marshall-Olkin
family on its closed box [0, 1]^d; ``Independence(d)`` and ``Comonotone(d)``
build them as such.

All models are immutable after construction and evaluate one point with
``value`` and the rows of an ``(n, d)`` array with ``value_batch``.  A family
writes its formula once, as ``_l(x, ops)``: ``POINT`` runs it on Python floats
(fast enough to sit inside an optimizer loop), ``ROWS`` on the d columns of
the array with numpy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial, reduce
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import EvaluationError, SpecError

__all__ = [
    "StdfModel",
    "Independence",
    "Comonotone",
    "Logistic",
    "MarshallOlkin",
    "TawnTypeI",
    "TawnTypeII",
    "Mixture",
    "StdfValidationReport",
    "validate_stdf",
]


# the most points that one lattice or randomized check may allocate: the
# grid oracle's lattice, a sea-level surface and ``validate_stdf``'s sample
_MAX_POINTS = 10_000_000


# ---------------------------------------------------------------------------
# input checking helpers
# ---------------------------------------------------------------------------

def _as_point(x: Sequence[float], dim: int) -> list[float]:
    """Validate a nonnegative finite point of the right dimension."""
    xs = [float(v) for v in x]
    if len(xs) != dim:
        raise EvaluationError(f"expected a vector of length {dim}, got {len(xs)}")
    for j, v in enumerate(xs):
        if not math.isfinite(v):
            raise EvaluationError(f"x[{j}] is not finite: {v}")
        if v < 0.0:
            raise EvaluationError(f"x[{j}] is negative: {v}")
    return xs


def _as_batch(X, dim: int) -> np.ndarray:
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[1] != dim:
        raise EvaluationError(f"expected an (n, {dim}) array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise EvaluationError("batch contains non-finite values")
    if np.any(A < 0.0):
        raise EvaluationError("batch contains negative coordinates")
    return A


def _check_param(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecError(msg)


def _check_dimension(d: int) -> int:
    """A dimension in [2, 10^7]: evaluation allocates d floats per point."""
    d = int(d)
    _check_param(d >= 2, "dimension must be >= 2")
    _check_param(d <= _MAX_POINTS, f"dimension {d} exceeds the cap of {_MAX_POINTS}")
    return d


# ---------------------------------------------------------------------------
# one formula body for a point and for rows
# ---------------------------------------------------------------------------

def _ascending_columns(cols) -> list:
    """The d columns of an (n, d) array with each row sorted in ascending
    order, by bubble compare-swaps: column passes, which numpy runs far
    faster than a sort along the short axis 1."""
    cols = list(cols)
    for end in range(len(cols) - 1, 0, -1):
        for j in range(end):
            a, b = cols[j], cols[j + 1]
            cols[j], cols[j + 1] = np.minimum(a, b), np.maximum(a, b)
    return cols


@dataclass(frozen=True)
class _Ops:
    """The primitives a formula body applies to its ``x``: one point (a
    sequence of floats) under ``POINT``, or the d columns of an (n, d) array
    (``X.T``) under ``ROWS``."""

    min: Callable  # of an iterable of values or columns
    max: Callable
    lo: Callable  # the smaller of two values or columns
    hi: Callable
    sum: Callable  # in order
    fsum: Callable  # of the survival logistic's paired terms
    sort: Callable  # ascending, as a list
    expm1: Callable
    log1p: Callable


POINT = _Ops(min, max, min, max, sum, math.fsum, sorted, math.expm1, math.log1p)
ROWS = _Ops(
    partial(reduce, np.minimum), partial(reduce, np.maximum), np.minimum, np.maximum,
    partial(reduce, np.add), partial(reduce, np.add), _ascending_columns, np.expm1, np.log1p,
)


def _powsum_root(x, p: float, ops: _Ops):
    """``(sum_j x_j**p) ** (1/p)`` for x_j >= 0, p >= 1.

    The maximum m is factored out so that large exponents neither overflow
    nor lose the dominant term; each ratio (x_j/m)**p lies in [0, 1].  m is
    0 only where every x_j is, and is divided as 1 there.
    """
    m = ops.max(x)
    g = m + (m == 0.0)
    return m * ops.sum((v / g) ** p for v in x) ** (1.0 / p)


# ---------------------------------------------------------------------------
# model classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StdfModel:
    """Base class; a concrete family implements ``_l(x, ops)``, which
    ``_value`` runs at a point and ``_value_batch`` on rows, or overrides
    those two."""

    family: ClassVar[str] = ""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def _l(self, x, ops: _Ops):
        raise NotImplementedError

    def _value(self, xs: list[float]) -> float:
        return self._l(xs, POINT)

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        return self._l(X.T, ROWS)

    def value(self, x: Sequence[float]) -> float:
        """Evaluate l(x) for a nonnegative point x."""
        return self._value(_as_point(x, self.dim))

    def value_batch(self, X) -> np.ndarray:
        """Evaluate l row-wise over an (n, d) array of nonnegative points."""
        return self._value_batch(_as_batch(X, self.dim))

    def params(self) -> dict:
        """JSON-ready parameter dict (excluding family and dimension)."""
        return {}


@dataclass(frozen=True)
class Logistic(StdfModel):
    """Gumbel/logistic family ``l(x) = (sum_j x_j**s) ** (1/s)`` with s >= 1.

    s = 1 is independence; s -> inf approaches the comonotone max.
    """

    s: float
    dimension: int

    family: ClassVar[str] = "logistic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "dimension", int(self.dimension))
        _check_param(math.isfinite(self.s) and self.s >= 1.0, "logistic exponent s must be >= 1")
        _check_dimension(self.dimension)

    @property
    def dim(self) -> int:
        return self.dimension

    def _l(self, x, ops: _Ops):
        return _powsum_root(x, self.s, ops)

    def params(self) -> dict:
        return {"s": self.s}


@dataclass(frozen=True)
class MarshallOlkin(StdfModel):
    """Common-shock family ``l(x) = sum_j (1-a_j) x_j + max_j a_j x_j``.

    Parameters a_j live in the closed box [0, 1]^d.  Its two corners are the
    extreme models, built by ``Independence`` (a = 0, ``l = sum x``) and
    ``Comonotone`` (a = 1, ``l = max x``); a corner reports that family, with
    no parameters.
    """

    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        a = tuple(float(v) for v in self.alpha)
        object.__setattr__(self, "alpha", a)
        _check_param(len(a) >= 2, "alpha must have length >= 2")
        for j, v in enumerate(a):
            _check_param(math.isfinite(v), f"alpha[{j}] is not finite")
            _check_param(0.0 <= v <= 1.0, f"alpha[{j}]={v} outside [0, 1]")

    @property
    def family(self) -> str:
        corner = set(self.alpha)
        if corner == {0.0}:
            return "independence"
        if corner == {1.0}:
            return "comonotone"
        return "marshall_olkin"

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def _value(self, xs: list[float]) -> float:
        a = self.alpha
        acc = 0.0
        mx = 0.0
        for j in range(len(a)):
            acc += (1.0 - a[j]) * xs[j]
            aj = a[j] * xs[j]
            if aj > mx:
                mx = aj
        return acc + mx

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        a = np.asarray(self.alpha)
        return X @ (1.0 - a) + reduce(np.maximum, (X * a).T)

    def params(self) -> dict:
        return {"alpha": list(self.alpha)} if self.family == "marshall_olkin" else {}


def Independence(dimension: int) -> MarshallOlkin:
    """``l(x) = sum_j x_j``, the Marshall-Olkin corner a = 0."""
    return MarshallOlkin((0.0,) * _check_dimension(dimension))


def Comonotone(dimension: int) -> MarshallOlkin:
    """``l(x) = max_j x_j``, the smallest l: the Marshall-Olkin corner a = 1."""
    return MarshallOlkin((1.0,) * _check_dimension(dimension))


@dataclass(frozen=True)
class TawnTypeI(StdfModel):
    """Trivariate asymmetric mixed family, first form.

    With T = x1+x2+x3 and weights w_j = x_j / T,

        l(x) = T * [ (1-t3) w3
                     + ( ((1-t1) w1)**r + ((1-t2) w2)**r ) ** (1/r)
                     + ( (t1 w1)**s + (t2 w2)**s + (t3 w3)**s ) ** (1/s) ]

    for s, r >= 1 and t_j in [0, 1].  Each term is 1-homogeneous, so with
    ``||.||_p`` the p-norm ``_l`` evaluates ``l(x) = (1-t3) x3 + ||((1-t1)
    x1, (1-t2) x2)||_r + ||(t1 x1, t2 x2, t3 x3)||_s``.  t1 = t2 = t3 = 1
    collapses to the symmetric logistic family with exponent s.
    """

    s: float
    r: float
    theta: tuple[float, float, float]

    family: ClassVar[str] = "tawn1"

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "r", float(self.r))
        th = tuple(float(v) for v in self.theta)
        object.__setattr__(self, "theta", th)
        _check_param(math.isfinite(self.s) and self.s >= 1.0, "s must be >= 1")
        _check_param(math.isfinite(self.r) and self.r >= 1.0, "r must be >= 1")
        _check_param(len(th) == 3, "theta must have length 3")
        for j, v in enumerate(th):
            _check_param(math.isfinite(v) and 0.0 <= v <= 1.0, f"theta[{j}]={v} outside [0, 1]")

    @property
    def dim(self) -> int:
        return 3

    def _l(self, x, ops: _Ops):
        x1, x2, x3 = x
        t1, t2, t3 = self.theta
        return ((1.0 - t3) * x3 + _powsum_root(((1.0 - t1) * x1, (1.0 - t2) * x2), self.r, ops)
                + _powsum_root((t1 * x1, t2 * x2, t3 * x3), self.s, ops))

    def params(self) -> dict:
        return {"s": self.s, "r": self.r, "theta": list(self.theta)}


@dataclass(frozen=True)
class TawnTypeII(StdfModel):
    """Trivariate asymmetric mixed family, second form.

    With weights w_j as above,

        l(x) = T * [ phi * ( (w1**(r*s) + w2**(r*s)) ** (1/r) + w3**s ) ** (1/s)
                     + (1-phi) * ( (w1**t + w2**t) ** (1/t) + w3 ) ]

    for s, r, t >= 1 and phi in [0, 1].  As ``(w1**(r*s) + w2**(r*s)) **
    (1/r) = ||(w1, w2)||_(rs) ** s``, ``_l`` evaluates ``l(x) = phi
    ||(||(x1, x2)||_(rs), x3)||_s + (1-phi) (||(x1, x2)||_t + x3)``.
    """

    s: float
    r: float
    t: float
    phi: float

    family: ClassVar[str] = "tawn2"

    def __post_init__(self) -> None:
        for name in ("s", "r", "t", "phi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_param(math.isfinite(self.s) and self.s >= 1.0, "s must be >= 1")
        _check_param(math.isfinite(self.r) and self.r >= 1.0, "r must be >= 1")
        _check_param(math.isfinite(self.t) and self.t >= 1.0, "t must be >= 1")
        _check_param(math.isfinite(self.phi) and 0.0 <= self.phi <= 1.0, "phi must be in [0, 1]")

    @property
    def dim(self) -> int:
        return 3

    def _l(self, x, ops: _Ops):
        x1, x2, x3 = x
        u = _powsum_root((x1, x2), self.r * self.s, ops)
        return (self.phi * _powsum_root((u, x3), self.s, ops)
                + (1.0 - self.phi) * (_powsum_root((x1, x2), self.t, ops) + x3))

    def params(self) -> dict:
        return {"s": self.s, "r": self.r, "t": self.t, "phi": self.phi}


@dataclass(frozen=True)
class _ConvexMixture:
    """Convex combination ``w f_1 + (1-w) f_2`` of two same-dimension models
    of one layer, ``_layer``: the body of ``Mixture`` (of l) and of
    ``tail_copula.MixtureTail`` (of L).  Each component is evaluated through
    its own ``_value``/``_value_batch``."""

    weight: float
    first: object
    second: object

    _layer: ClassVar[type]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", float(self.weight))
        _check_param(0.0 <= self.weight <= 1.0, "mixture weight must be in [0, 1]")
        for name in ("first", "second"):
            part = getattr(self, name)
            _check_param(
                isinstance(part, self._layer),
                f"mixture component {name} must be a {self._layer.__name__}, "
                f"got {type(part).__name__}",
            )
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


@dataclass(frozen=True)
class Mixture(_ConvexMixture, StdfModel):
    """Convex combination ``l = w l_1 + (1-w) l_2`` of two same-dimension models."""

    family: ClassVar[str] = "mixture"
    _layer: ClassVar[type] = StdfModel

    def params(self) -> dict:
        return {"weight": self.weight}


# ---------------------------------------------------------------------------
# randomized self-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StdfValidationReport:
    """Outcome of the randomized bounds/homogeneity check."""

    family: str
    dimension: int
    samples: int
    passed: bool
    max_lower_violation: float
    max_upper_violation: float
    max_homogeneity_violation: float
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)


def validate_stdf(
    model: StdfModel,
    samples: int,
    seed: int,
    scale_factors: Sequence[float] = (0.1, 1.0, 10.0),
    tol: float = 1e-12,
) -> StdfValidationReport:
    """Check ``max <= l <= sum`` and 1-homogeneity on random points.

    Points are drawn log-uniformly over [e^-3, e^3]^d, at most 10^7
    coordinates in all (``samples * d``), checked before anything is allocated.
    Violations are normalized by max(1, scale) so the report is scale-free;
    the check passes when every violation is within ``tol``.
    """
    if samples < 1:
        raise EvaluationError("samples must be >= 1")
    if int(samples) * model.dim > _MAX_POINTS:
        raise EvaluationError(
            f"{samples} samples of dimension {model.dim} exceed the cap of {_MAX_POINTS} coordinates"
        )
    rng = np.random.default_rng(seed)
    X = np.exp(rng.uniform(-3.0, 3.0, size=(int(samples), model.dim)))
    vals = model.value_batch(X)
    sums = X.sum(axis=1)
    maxs = X.max(axis=1)

    scale = np.maximum(1.0, sums)
    lower = float(np.max((maxs - vals) / scale))
    upper = float(np.max((vals - sums) / scale))

    homog = 0.0
    for t in scale_factors:
        t = float(t)
        tv = model.value_batch(t * X)
        rel = np.abs(tv - t * vals) / np.maximum(1.0, t * vals)
        homog = max(homog, float(np.max(rel)))

    passed = lower <= tol and upper <= tol and homog <= tol
    return StdfValidationReport(
        family=model.family,
        dimension=model.dim,
        samples=int(samples),
        passed=passed,
        max_lower_violation=max(lower, 0.0),
        max_upper_violation=max(upper, 0.0),
        max_homogeneity_violation=homog,
        tolerance=tol,
    )
