"""JSON model specifications shared by the CLI and the tests.

A spec is ``{"family": str, "dimension": int, "params": {...}}``.  Stable tail
dependence families: independence, comonotone, logistic, marshall_olkin,
tawn1, tawn2, mixture.  Tail copula families: survival_evc, archimax,
archimedean, nac, mixture_tc.  ``parse_tail_copula`` also accepts a bare
stable-tail-dependence spec and wraps it in the survival route, and parses
``archimedean`` (``alpha`` or ``generator`` plus ``dimension``) as Archimax
over ``independence``; ``to_spec`` emits the latter as the ``archimax`` spec.

Parsing errors name the offending field path (``params.alpha[2]: ...``).
"""

from __future__ import annotations

from typing import Mapping

from .errors import SpecError
from .nac import NacTree
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
from .tail_copula import (
    Archimax,
    MixtureTail,
    NacCopula,
    SurvivalEvc,
    TailCopulaModel,
    rv_index,
)

__all__ = [
    "STDF_FAMILIES",
    "TAIL_FAMILIES",
    "parse_stdf",
    "parse_tail_copula",
    "to_spec",
]

STDF_FAMILIES = (
    "independence",
    "comonotone",
    "logistic",
    "marshall_olkin",
    "tawn1",
    "tawn2",
    "mixture",
)
TAIL_FAMILIES = ("survival_evc", "archimax", "archimedean", "nac", "mixture_tc")


def _fail(path: str, msg: str) -> SpecError:
    return SpecError(f"{path}: {msg}")


def _get_mapping(spec, path: str) -> Mapping:
    if not isinstance(spec, Mapping):
        raise _fail(path, f"expected an object, got {type(spec).__name__}")
    return spec


def _get_family(spec: Mapping, path: str) -> str:
    fam = spec.get("family")
    if not isinstance(fam, str):
        raise _fail(f"{path}.family", f"expected a string, got {fam!r}")
    return fam


def _get_params(spec: Mapping, path: str) -> Mapping:
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise _fail(f"{path}.params", "expected an object")
    return params


def _get_dimension(spec: Mapping, path: str) -> int:
    dim = spec.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise _fail(f"{path}.dimension", f"expected an integer, got {dim!r}")
    return dim


def _num(params: Mapping, key: str, path: str) -> float:
    if key not in params:
        raise _fail(f"{path}.params", f"missing '{key}'")
    v = params[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise _fail(f"{path}.params.{key}", f"expected a number, got {v!r}")
    return float(v)


def _num_list(params: Mapping, key: str, path: str) -> list[float]:
    if key not in params:
        raise _fail(f"{path}.params", f"missing '{key}'")
    v = params[key]
    if not isinstance(v, (list, tuple)):
        raise _fail(f"{path}.params.{key}", f"expected a list, got {v!r}")
    out = []
    for i, u in enumerate(v):
        if not isinstance(u, (int, float)) or isinstance(u, bool):
            raise _fail(f"{path}.params.{key}[{i}]", f"expected a number, got {u!r}")
        out.append(float(u))
    return out


def _check_spec_dim(model_dim: int, spec: Mapping, path: str) -> None:
    if "dimension" in spec:
        dim = _get_dimension(spec, path)
        if dim != model_dim:
            raise _fail(
                f"{path}.dimension", f"declared {dim} but parameters imply {model_dim}"
            )


def _wrap(path: str, builder):
    """Re-raise construction-time SpecErrors with the field path prefixed."""
    try:
        return builder()
    except SpecError as e:
        if str(e).startswith(path):
            raise
        raise _fail(path, str(e)) from e


def parse_stdf(spec, path: str = "model") -> StdfModel:
    spec = _get_mapping(spec, path)
    fam = _get_family(spec, path)
    params = _get_params(spec, path)

    if fam == "independence":
        return _wrap(path, lambda: Independence(_get_dimension(spec, path)))
    if fam == "comonotone":
        return _wrap(path, lambda: Comonotone(_get_dimension(spec, path)))
    if fam == "logistic":
        return _wrap(path, lambda: Logistic(_num(params, "s", path), _get_dimension(spec, path)))
    if fam == "marshall_olkin":
        model = _wrap(path, lambda: MarshallOlkin(tuple(_num_list(params, "alpha", path))))
        _check_spec_dim(model.dim, spec, path)
        return model
    if fam == "tawn1":
        theta = _num_list(params, "theta", path)
        if len(theta) != 3:
            raise _fail(f"{path}.params.theta", f"expected 3 entries, got {len(theta)}")
        model = _wrap(
            path,
            lambda: TawnTypeI(_num(params, "s", path), _num(params, "r", path), tuple(theta)),
        )
        _check_spec_dim(3, spec, path)
        return model
    if fam == "tawn2":
        model = _wrap(
            path,
            lambda: TawnTypeII(
                _num(params, "s", path),
                _num(params, "r", path),
                _num(params, "t", path),
                _num(params, "phi", path),
            ),
        )
        _check_spec_dim(3, spec, path)
        return model
    if fam == "mixture":
        comps = params.get("components")
        if not isinstance(comps, (list, tuple)) or len(comps) != 2:
            raise _fail(f"{path}.params.components", "expected a list of exactly 2 specs")
        first = parse_stdf(comps[0], f"{path}.params.components[0]")
        second = parse_stdf(comps[1], f"{path}.params.components[1]")
        model = _wrap(path, lambda: Mixture(_num(params, "weight", path), first, second))
        _check_spec_dim(model.dim, spec, path)
        return model
    raise _fail(f"{path}.family", f"unknown stable-tail-dependence family {fam!r}")


def _parse_alpha_or_generator(params: Mapping, path: str) -> float:
    has_alpha = "alpha" in params
    has_gen = "generator" in params
    if has_alpha and has_gen:
        raise _fail(f"{path}.params", "give either 'alpha' or 'generator', not both")
    if has_alpha:
        return _num(params, "alpha", path)
    if has_gen:
        try:
            return rv_index(params["generator"])
        except SpecError as e:
            raise _fail(f"{path}.params.generator", str(e)) from e
    raise _fail(f"{path}.params", "missing 'alpha' (or a 'generator' descriptor)")


def parse_tail_copula(spec, path: str = "model") -> TailCopulaModel:
    spec = _get_mapping(spec, path)
    fam = _get_family(spec, path)
    if fam in STDF_FAMILIES:
        return _wrap(path, lambda: SurvivalEvc(parse_stdf(spec, path)))
    params = _get_params(spec, path)

    if fam == "survival_evc":
        if "stdf" not in params:
            raise _fail(f"{path}.params", "missing 'stdf'")
        inner = parse_stdf(params["stdf"], f"{path}.params.stdf")
        model = _wrap(path, lambda: SurvivalEvc(inner))
        _check_spec_dim(model.dim, spec, path)
        return model
    if fam == "archimax":
        if "stdf" not in params:
            raise _fail(f"{path}.params", "missing 'stdf'")
        inner = parse_stdf(params["stdf"], f"{path}.params.stdf")
        alpha = _parse_alpha_or_generator(params, path)
        model = _wrap(path, lambda: Archimax(inner, alpha))
        _check_spec_dim(model.dim, spec, path)
        return model
    if fam == "archimedean":
        alpha = _parse_alpha_or_generator(params, path)
        return _wrap(path, lambda: Archimax(Independence(_get_dimension(spec, path)), alpha))
    if fam == "nac":
        if "tree" not in params:
            raise _fail(f"{path}.params", "missing 'tree'")
        tree = NacTree.from_dict(params["tree"], f"{path}.params.tree")
        model = _wrap(path, lambda: NacCopula(tree))
        _check_spec_dim(model.dim, spec, path)
        return model
    if fam == "mixture_tc":
        comps = params.get("components")
        if not isinstance(comps, (list, tuple)) or len(comps) != 2:
            raise _fail(f"{path}.params.components", "expected a list of exactly 2 specs")
        first = parse_tail_copula(comps[0], f"{path}.params.components[0]")
        second = parse_tail_copula(comps[1], f"{path}.params.components[1]")
        model = _wrap(path, lambda: MixtureTail(_num(params, "weight", path), first, second))
        _check_spec_dim(model.dim, spec, path)
        return model
    raise _fail(f"{path}.family", f"unknown tail-copula family {fam!r}")


def to_spec(model) -> dict:
    """Serialize a model to its JSON spec; ``parse_*`` inverts this exactly."""
    if isinstance(model, StdfModel):
        spec = {"family": model.family, "dimension": model.dim, "params": model.params()}
        if isinstance(model, Mixture):
            spec["params"] = {
                "weight": model.weight,
                "components": [to_spec(model.first), to_spec(model.second)],
            }
        return spec
    if isinstance(model, SurvivalEvc):
        return {
            "family": model.family,
            "dimension": model.dim,
            "params": {"stdf": to_spec(model.stdf)},
        }
    if isinstance(model, Archimax):
        return {
            "family": model.family,
            "dimension": model.dim,
            "params": {"stdf": to_spec(model.stdf), "alpha": model.alpha},
        }
    if isinstance(model, NacCopula):
        return {
            "family": model.family,
            "dimension": model.dim,
            "params": {"tree": model.tree.to_dict()},
        }
    if isinstance(model, MixtureTail):
        return {
            "family": model.family,
            "dimension": model.dim,
            "params": {
                "weight": model.weight,
                "components": [to_spec(model.first), to_spec(model.second)],
            },
        }
    raise SpecError(f"cannot serialize {type(model).__name__}")
