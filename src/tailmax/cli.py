"""Command-line front end.

Subcommands: eval, mtcm, oracle, nac, sealevel, surface, validate.  Models
come from JSON files in the spec schema (see ``modelspec``), trees from the
nested-dict schema (see ``nac``).  With the same arguments and seed, output is
byte-identical between runs.

Exit codes: 0 success, 1 validation or convergence failure, 2 usage errors
(bad arguments, missing files, schema violations).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from .errors import EvaluationError, NumericalError, SpecError
from .mtcm import DEFAULT_SEED, OptimizerConfig, dispatch, grid_oracle
from .modelspec import parse_stdf, parse_tail_copula, to_spec
from .nac import NacTree
from .sealevel import format_report, report, surface
from .stdf import validate_stdf
from .tail_copula import NacCopula

__all__ = ["main"]

_ENV_SEED = "TAILMAX_SEED"


def _resolve_seed(arg_seed: int | None) -> int:
    seed, source = arg_seed, "--seed"
    if seed is None:
        env = os.environ.get(_ENV_SEED)
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), _ENV_SEED
        except ValueError as e:
            raise SpecError(f"{_ENV_SEED} must be an integer, got {env!r}") from e
    if seed < 0:  # numpy's generators take seeds >= 0 only
        raise SpecError(f"{source} must be >= 0, got {seed}")
    return seed


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SpecError(f"{path}: invalid JSON ({e})") from e
        except RecursionError as e:
            raise SpecError(f"{path}: JSON nests too deeply") from e


def _parse_x(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as e:
        raise SpecError(f"--x must be a comma-separated list of reals, got {text!r}") from e


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2)


def _config_from_args(args) -> OptimizerConfig:
    kwargs = {"seed": _resolve_seed(args.seed)}
    if getattr(args, "starts", None) is not None:
        kwargs["starts"] = args.starts
    if getattr(args, "max_evals", None) is not None:
        kwargs["max_evals"] = args.max_evals
    if getattr(args, "range_log", None) is not None:
        kwargs["range_log"] = args.range_log
    if getattr(args, "tol", None) is not None:
        kwargs["tol"] = args.tol
    return OptimizerConfig(**kwargs)


def _add_common(p: argparse.ArgumentParser, formats=("text", "json")) -> None:
    p.add_argument("--format", choices=formats, default=formats[0], help="output format")
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--starts",
        type=int,
        help="number of random starts (plus the diagonal) of the multi-start search; "
        "survival logistic, survival Tawn I and non-exchangeable Archimax run the "
        "diagonal start only, survival Tawn II and survival logistic/MO mixtures a "
        "one-coordinate search, and closed forms (two-MO mixtures included) none",
    )
    p.add_argument(
        "--seed",
        type=int,
        help=f"seed of the multi-start search's random starts (default: ${_ENV_SEED} or "
        f"{DEFAULT_SEED}); the diagonal and one-coordinate searches do not use it",
    )
    p.add_argument(
        "--max-evals",
        type=int,
        dest="max_evals",
        help="evaluation budget per start; the whole budget of a one-coordinate search",
    )
    p.add_argument(
        "--range-log",
        type=float,
        dest="range_log",
        help="half-width of the multi-start search's start box; "
        "the diagonal and one-coordinate searches do not use it",
    )
    p.add_argument("--tol", type=float, help="simplex diameter stopping tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailmax",
        description="Tail copulas and the maximal tail concordance measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a tail copula at a point")
    p.add_argument("--model", required=True, metavar="FILE", help="model spec JSON")
    p.add_argument("--x", required=True, help="comma-separated point, e.g. 2,3,5")
    _add_common(p)

    p = sub.add_parser("mtcm", help="maximal tail concordance of a model")
    p.add_argument("--model", required=True, metavar="FILE", help="model spec JSON")
    _add_optimizer_flags(p)
    _add_common(p)

    p = sub.add_parser("oracle", help="brute-force grid verification of the maximum")
    p.add_argument("--model", required=True, metavar="FILE", help="model spec JSON")
    p.add_argument("--grid-n", type=int, dest="grid_n", default=201, help="points per axis")
    p.add_argument(
        "--log-range",
        type=float,
        dest="log_range",
        default=math.log(50.0),
        help="half-width of the log-coordinate lattice",
    )
    _add_common(p)

    p = sub.add_parser("nac", help="closed forms and nesting check for a tree")
    p.add_argument("--tree", required=True, metavar="FILE", help="nested tree JSON")
    _add_common(p)

    p = sub.add_parser("sealevel", help="reproduce the sea-level comparison table")
    _add_optimizer_flags(p)
    _add_common(p)

    p = sub.add_parser("surface", help="CSV grid of one sea-level objective surface")
    p.add_argument("--label", required=True, help="model label, e.g. I-1")
    p.add_argument("--grid-n", type=int, dest="grid_n", default=201, help="points per axis")
    p.add_argument(
        "--log-range",
        type=float,
        dest="log_range",
        default=math.log(5.0),
        help="half-width of the log-coordinate square",
    )
    _add_common(p, formats=("csv",))

    p = sub.add_parser("validate", help="randomized bounds/homogeneity check of a model")
    p.add_argument("--model", required=True, metavar="FILE", help="stable tail dependence spec JSON")
    p.add_argument("--samples", type=int, default=1000, help="number of random points")
    p.add_argument("--seed", type=int, help=f"sampling seed (default: ${_ENV_SEED} or {DEFAULT_SEED})")
    _add_common(p)

    return parser


def _cmd_eval(args) -> int:
    model = parse_tail_copula(_load_json(args.model))
    x = _parse_x(args.x)
    value = model.value(x)
    if args.format == "json":
        _emit(_json_text({"command": "eval", "model": to_spec(model), "x": x, "value": value}), args.out)
    else:
        _emit(f"{value:.6g}", args.out)
    return 0


def _cmd_mtcm(args) -> int:
    model = parse_tail_copula(_load_json(args.model))
    cfg = _config_from_args(args)
    result = dispatch(model, cfg)
    if args.format == "json":
        obj = {
            "command": "mtcm",
            "model": to_spec(model),
            "config": cfg.to_dict(),
            "result": result.to_dict(),
        }
        _emit(_json_text(obj), args.out)
    else:
        lines = [
            f"lambda_star  {result.lambda_star:.6g}",
            "b_star       " + " ".join(f"{v:.6g}" for v in result.b_star),
            f"method       {result.method}",
            f"converged    {'yes' if result.diagnostics.converged else 'no'}",
            f"evals        {result.diagnostics.function_evals}",
        ]
        _emit("\n".join(lines), args.out)
    return 0 if result.diagnostics.converged else 1


def _cmd_oracle(args) -> int:
    model = parse_tail_copula(_load_json(args.model))
    result = grid_oracle(model, args.grid_n, args.log_range)
    if args.format == "json":
        obj = {
            "command": "oracle",
            "model": to_spec(model),
            "grid_n": args.grid_n,
            "log_range": args.log_range,
            "result": result.to_dict(),
        }
        _emit(_json_text(obj), args.out)
    else:
        lines = [
            f"lambda_star  {result.lambda_star:.6g}",
            "b_star       " + " ".join(f"{v:.6g}" for v in result.b_star),
            f"method       {result.method}",
            f"grid evals   {result.diagnostics.function_evals}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_nac(args) -> int:
    tree = NacTree.from_dict(_load_json(args.tree))
    model = NacCopula(tree)
    result = dispatch(model)
    nesting = tree.check_clayton_nesting()
    if args.format == "json":
        obj = {
            "command": "nac",
            "model": to_spec(model),
            "result": result.to_dict(),
            "nesting": nesting.to_dict(),
        }
        _emit(_json_text(obj), args.out)
    else:
        lines = [
            f"lambda_star  {result.lambda_star:.6g}",
            "b_star       " + " ".join(f"{v:.6g}" for v in result.b_star),
            f"method       {result.method}",
            f"nesting      {'satisfied' if nesting.satisfied else 'VIOLATED'}",
        ]
        for p, c, ap, ac in nesting.violations:
            lines.append(f"  edge {p} -> {c}: alpha {ap:.6g} < {ac:.6g}")
        _emit("\n".join(lines), args.out)
    if not nesting.satisfied:
        sys.stderr.write(
            "warning: Clayton sufficient-nesting condition fails; "
            "the tree may not define a proper copula\n"
        )
    return 0


def _cmd_sealevel(args) -> int:
    cfg = _config_from_args(args)
    rows = report(cfg)
    if args.format == "json":
        obj = {"command": "sealevel", "config": cfg.to_dict(), "rows": [r.to_dict() for r in rows]}
        _emit(_json_text(obj), args.out)
    else:
        _emit(format_report(rows), args.out)
    return 0 if all(r.passed for r in rows) else 1


def _cmd_surface(args) -> int:
    grid = surface(args.label, args.grid_n, args.log_range)
    lines = ["x1,x2,lambda"]
    for x1, x2, lam in grid.tolist():
        lines.append(f"{x1!r},{x2!r},{lam!r}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_validate(args) -> int:
    model = parse_stdf(_load_json(args.model))
    rep = validate_stdf(model, args.samples, _resolve_seed(args.seed))
    if args.format == "json":
        _emit(_json_text({"command": "validate", "model": to_spec(model), "report": rep.to_dict()}), args.out)
    else:
        lines = [
            f"family       {rep.family}",
            f"dimension    {rep.dimension}",
            f"samples      {rep.samples}",
            f"lower bound  worst violation {rep.max_lower_violation:.6g}",
            f"upper bound  worst violation {rep.max_upper_violation:.6g}",
            f"homogeneity  worst violation {rep.max_homogeneity_violation:.6g}",
            f"result       {'pass' if rep.passed else 'FAIL'}",
        ]
        _emit("\n".join(lines), args.out)
    return 0 if rep.passed else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "mtcm": _cmd_mtcm,
    "oracle": _cmd_oracle,
    "nac": _cmd_nac,
    "sealevel": _cmd_sealevel,
    "surface": _cmd_surface,
    "validate": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, EvaluationError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except FileNotFoundError as e:
        sys.stderr.write(f"error: {e.filename}: no such file\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except NumericalError as e:
        sys.stderr.write(f"numerical failure: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
