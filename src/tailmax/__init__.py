"""Tail copulas and the maximal tail concordance measure.

Evaluate tail copulas of parametric copula families (survival extreme-value,
Archimax, with Archimedean copulas as Archimax over independence, nested
Archimedean, mixtures) and maximize them over the unit-product set, by
closed forms where available and by a verified derivative-free search
otherwise.
"""

from .errors import EvaluationError, NumericalError, SpecError, TailmaxError
from .mtcm import (
    DEFAULT_SEED,
    Diagnostics,
    MtcmResult,
    OptimizerConfig,
    archimax_mtcm,
    closed_form_mo,
    dispatch,
    embed_budget,
    grid_oracle,
    is_exchangeable,
    optimize,
)
from .modelspec import parse_stdf, parse_tail_copula, to_spec
from .nac import NacTree, NestingReport
from .stdf import (
    Comonotone,
    Independence,
    Logistic,
    MarshallOlkin,
    Mixture,
    StdfModel,
    StdfValidationReport,
    TawnTypeI,
    TawnTypeII,
    validate_stdf,
)
from .tail_copula import (
    Archimax,
    MixtureTail,
    NacCopula,
    SurvivalEvc,
    TailCopulaModel,
    rv_index,
)

__version__ = "0.1.0"

__all__ = [
    "Archimax",
    "Comonotone",
    "DEFAULT_SEED",
    "Diagnostics",
    "EvaluationError",
    "Independence",
    "Logistic",
    "MarshallOlkin",
    "Mixture",
    "MixtureTail",
    "MtcmResult",
    "NacCopula",
    "NacTree",
    "NestingReport",
    "NumericalError",
    "OptimizerConfig",
    "SpecError",
    "StdfModel",
    "StdfValidationReport",
    "SurvivalEvc",
    "TailCopulaModel",
    "TailmaxError",
    "TawnTypeI",
    "TawnTypeII",
    "archimax_mtcm",
    "closed_form_mo",
    "dispatch",
    "embed_budget",
    "grid_oracle",
    "is_exchangeable",
    "optimize",
    "parse_stdf",
    "parse_tail_copula",
    "rv_index",
    "to_spec",
    "validate_stdf",
]
