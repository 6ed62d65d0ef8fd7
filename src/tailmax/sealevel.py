"""Trivariate sea-level maxima case study.

Five fitted extreme-value dependence models for annual sea-level maxima at
three English coastal sites (coordinates: 1 = Southend, 2 = Sheerness,
3 = Kings Lynn).  For each model the module computes the diagonal tail
dependence coefficient and the maximal tail concordance with its direction,
and compares them against the published reference values.

The reference numbers are regression data only; no computation reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import SpecError
from .mtcm import _LOG_FLOAT_MAX, MtcmResult, OptimizerConfig, optimize
from .stdf import _MAX_POINTS, StdfModel, TawnTypeI, TawnTypeII
from .tail_copula import SurvivalEvc

__all__ = [
    "SeaLevelExpected",
    "SeaLevelModel",
    "SeaLevelRow",
    "MODELS",
    "LABELS",
    "LAMBDA_TOL",
    "B_STAR_TOL",
    "get_model",
    "report",
    "format_report",
    "surface",
]

# comparison tolerances: the reference table carries 3 decimals, so 2e-3
# absorbs its rounding plus search error; 5e-3 per maximizer component
LAMBDA_TOL = 2e-3
B_STAR_TOL = 5e-3


@dataclass(frozen=True)
class SeaLevelExpected:
    lam: float
    lam_star: float
    b_star: tuple[float, float, float]


@dataclass(frozen=True)
class SeaLevelModel:
    label: str
    stdf: StdfModel
    expected: SeaLevelExpected


# Fitted parameters.  I-1 and I-2 fix the first two asymmetry weights at 1,
# which zeroes the r-term exactly; r is stored as an inert 1.  II-1 fixes
# phi = 1, which makes t inert; t is stored as 1.
MODELS: tuple[SeaLevelModel, ...] = (
    SeaLevelModel(
        "I-1",
        TawnTypeI(s=1.59, r=1.0, theta=(1.0, 1.0, 1.0)),
        SeaLevelExpected(0.356, 0.356, (1.000, 1.000, 1.000)),
    ),
    SeaLevelModel(
        "I-2",
        TawnTypeI(s=2.48, r=1.0, theta=(1.0, 1.0, 0.25)),
        SeaLevelExpected(0.233, 0.372, (0.630, 0.630, 2.520)),
    ),
    SeaLevelModel(
        "I-3",
        TawnTypeI(s=7.44, r=2.21, theta=(0.23, 0.23, 0.55)),
        SeaLevelExpected(0.208, 0.266, (1.337, 1.337, 0.559)),
    ),
    SeaLevelModel(
        "II-1",
        TawnTypeII(s=1.59, r=1.27, t=1.0, phi=1.0),
        SeaLevelExpected(0.377, 0.378, (0.948, 0.948, 1.113)),
    ),
    SeaLevelModel(
        "II-2",
        TawnTypeII(s=1.69, r=1.25, t=7.44, phi=0.74),
        SeaLevelExpected(0.306, 0.307, (0.956, 0.956, 1.095)),
    ),
)

LABELS = tuple(m.label for m in MODELS)


def get_model(label: str) -> SeaLevelModel:
    for m in MODELS:
        if m.label == label:
            return m
    raise SpecError(f"unknown sea-level model {label!r}; choose one of {', '.join(LABELS)}")


@dataclass(frozen=True)
class SeaLevelRow:
    label: str
    lam: float
    result: MtcmResult
    expected: SeaLevelExpected
    lam_diff: float
    lam_star_diff: float
    b_star_diff: tuple[float, float, float]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "lambda": self.lam,
            "lambda_star": self.result.lambda_star,
            "b_star": list(self.result.b_star),
            "expected": {
                "lambda": self.expected.lam,
                "lambda_star": self.expected.lam_star,
                "b_star": list(self.expected.b_star),
            },
            "abs_diff": {
                "lambda": self.lam_diff,
                "lambda_star": self.lam_star_diff,
                "b_star": list(self.b_star_diff),
            },
            "passed": self.passed,
            "diagnostics": self.result.diagnostics.to_dict(),
        }


def _compare(model: SeaLevelModel, config: OptimizerConfig | None) -> SeaLevelRow:
    tc = SurvivalEvc(model.stdf)
    lam = tc.diagonal()
    result = optimize(tc, config)
    exp = model.expected
    lam_diff = abs(lam - exp.lam)
    lam_star_diff = abs(result.lambda_star - exp.lam_star)
    b_diff = tuple(abs(b - e) for b, e in zip(result.b_star, exp.b_star))
    passed = (
        lam_diff <= LAMBDA_TOL
        and lam_star_diff <= LAMBDA_TOL
        and all(v <= B_STAR_TOL for v in b_diff)
    )
    return SeaLevelRow(model.label, lam, result, exp, lam_diff, lam_star_diff, b_diff, passed)


def report(config: OptimizerConfig | None = None) -> tuple[SeaLevelRow, ...]:
    """Compute all five rows in the fixed label order."""
    return tuple(_compare(m, config) for m in MODELS)


def format_report(rows: Iterable[SeaLevelRow]) -> str:
    """Aligned text table, reals to 6 significant digits."""
    header = (
        f"{'model':<6} {'lambda':>9} {'(ref)':>7} {'lambda*':>9} {'(ref)':>7} "
        f"{'b*':>28} {'(ref)':>23} {'status':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        b = " ".join(f"{v:.6g}" for v in r.result.b_star)
        be = " ".join(f"{v:.3f}" for v in r.expected.b_star)
        lines.append(
            f"{r.label:<6} {r.lam:>9.6g} {r.expected.lam:>7.3f} "
            f"{r.result.lambda_star:>9.6g} {r.expected.lam_star:>7.3f} "
            f"{b:>28} {be:>23} {'pass' if r.passed else 'FAIL':>7}"
        )
    return "\n".join(lines)


def surface(label: str, axis_points: int, log_range: float) -> np.ndarray:
    """Objective surface of one model over the log-coordinate square.

    Returns an (axis_points^2, 3) array of rows (x1, x2, value) where the
    value is the survival tail copula at (e^x1, e^x2, e^(-x1-x2)), scanned
    over [-log_range, log_range]^2 in row-major order.  Grids above 10^7
    points, or with ``2 * log_range`` beyond the log of the largest float,
    are rejected.
    """
    model = get_model(label)
    n = int(axis_points)
    if n < 2:
        raise SpecError("axis_points must be >= 2")
    if n * n > _MAX_POINTS:
        raise SpecError(f"grid of {n}^2 points exceeds the cap of {_MAX_POINTS}")
    L = float(log_range)
    if not (math.isfinite(L) and L >= 0.0):
        raise SpecError("log_range must be nonnegative and finite")
    if 2.0 * L > _LOG_FLOAT_MAX:  # the third coordinate reaches -2L and 2L
        raise SpecError(
            f"log_range {L:.6g} puts grid points at exp({2.0 * L:.6g}), beyond the float range"
        )
    tc = SurvivalEvc(model.stdf)
    axis = np.linspace(-L, L, n)
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    x1 = X1.ravel()
    x2 = X2.ravel()
    B = np.exp(np.column_stack([x1, x2, -x1 - x2]))
    vals = tc.value_batch(B)
    return np.column_stack([x1, x2, vals])
