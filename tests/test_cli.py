"""Command-line interface: outputs, schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailmax import parse_tail_copula, to_spec
from tailmax.modelspec import STDF_FAMILIES
from tailmax.cli import main
from tailmax.sealevel import LABELS

MO_SPEC = {"family": "marshall_olkin", "dimension": 3, "params": {"alpha": [0.2, 0.5, 0.8]}}
COMONOTONE3 = {"family": "comonotone", "dimension": 3}
NESTED_TREE = {
    "alpha": 2.0,
    "children": [{"leaf": 1}, {"alpha": 1.0, "children": [{"leaf": 2}, {"leaf": 3}]}],
}


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_comonotone_min(write_json, capsys):
    path = write_json("com.json", COMONOTONE3)
    code, out, _ = run(capsys, "eval", "--model", path, "--x", "2,3,5")
    assert code == 0
    assert float(out.strip()) == 2.0


def test_eval_json_output_embeds_model(write_json, capsys):
    path = write_json("mo.json", MO_SPEC)
    code, out, _ = run(capsys, "eval", "--model", path, "--x", "1,1,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.2, abs=1e-12)
    # emitted spec re-parses to the same model (survival wrapping is explicit)
    assert parse_tail_copula(obj["model"]) == parse_tail_copula(MO_SPEC)


def test_eval_dimension_mismatch_is_usage_error(write_json, capsys):
    path = write_json("mo.json", MO_SPEC)
    code, _, err = run(capsys, "eval", "--model", path, "--x", "1,1")
    assert code == 2
    assert "length 3" in err


# ---------------------------------------------------------------------------
# mtcm / oracle
# ---------------------------------------------------------------------------

def test_mtcm_closed_mo(write_json, capsys):
    path = write_json("mo.json", MO_SPEC)
    code, out, _ = run(capsys, "mtcm", "--model", path, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["method"] == "closed_mo"
    assert obj["result"]["lambda_star"] == pytest.approx(0.430887, abs=1e-6)


def test_mtcm_text_output(write_json, capsys):
    path = write_json("arch.json", {"family": "archimedean", "dimension": 3, "params": {"alpha": 1.0}})
    code, out, _ = run(capsys, "mtcm", "--model", path)
    assert code == 0
    assert "lambda_star" in out and "closed_archimax_exchangeable" in out
    assert f"{1/3:.6g}" in out


def test_mtcm_generator_descriptor(write_json, capsys):
    spec = {
        "family": "archimedean",
        "dimension": 2,
        "params": {"generator": {"kind": "outer_power", "beta": 2.0, "base": {"kind": "clayton", "theta": 2.0}}},
    }
    path = write_json("gen.json", spec)
    code, out, _ = run(capsys, "mtcm", "--model", path, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["lambda_star"] == pytest.approx(2.0 ** -0.25, rel=1e-12)


def test_oracle_command(write_json, capsys):
    path = write_json("mo.json", MO_SPEC)
    code, out, _ = run(
        capsys, "oracle", "--model", path, "--grid-n", "101", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["method"] == "oracle"
    assert obj["result"]["lambda_star"] == pytest.approx(0.4309, abs=2e-3)


# ---------------------------------------------------------------------------
# nac
# ---------------------------------------------------------------------------

def test_nac_command_reports_closed_form_and_nesting(write_json, capsys):
    path = write_json("tree.json", NESTED_TREE)
    code, out, _ = run(capsys, "nac", "--tree", path, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["method"] == "closed_nac"
    assert obj["result"]["lambda_star"] == pytest.approx(0.1763778946631333, rel=1e-12)
    assert obj["nesting"]["satisfied"] is True


def test_nac_command_warns_on_nesting_violation(write_json, capsys):
    bad = {"alpha": 1.0, "children": [{"leaf": 1}, {"alpha": 2.0, "children": [{"leaf": 2}, {"leaf": 3}]}]}
    path = write_json("tree.json", bad)
    code, out, err = run(capsys, "nac", "--tree", path)
    assert code == 0  # advisory only
    assert "VIOLATED" in out
    assert "warning" in err


def test_nac_rejects_single_child_vertex(write_json, capsys):
    bad = {"alpha": 1.0, "children": [{"alpha": 2.0, "children": [{"leaf": 1}, {"leaf": 2}]}]}
    path = write_json("tree.json", bad)
    code, _, err = run(capsys, "nac", "--tree", path)
    assert code == 2
    assert "collapse" in err


# ---------------------------------------------------------------------------
# sealevel / surface
# ---------------------------------------------------------------------------

def test_sealevel_all_rows_pass(capsys):
    code, out, _ = run(capsys, "sealevel", "--starts", "6")
    assert code == 0
    assert out.count("pass") == 5


def test_surface_csv(tmp_path, capsys):
    out_file = tmp_path / "surf.csv"
    code, _, _ = run(
        capsys, "surface", "--label", "I-1", "--grid-n", "5", "--log-range", "0.5",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x1,x2,lambda"
    assert len(lines) == 1 + 25
    x1, x2, lam = lines[1].split(",")
    assert float(x1) == -0.5 and float(x2) == -0.5
    assert 0.0 <= float(lam) <= 1.0


def test_surface_unknown_label(capsys):
    code, _, err = run(capsys, "surface", "--label", "bogus")
    assert code == 2
    assert "bogus" in err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_logistic(write_json, capsys):
    path = write_json("logi.json", {"family": "logistic", "dimension": 2, "params": {"s": 2.0}})
    code, out, _ = run(capsys, "validate", "--model", path, "--samples", "500")
    assert code == 0
    assert "pass" in out


def test_validate_json_format(write_json, capsys):
    spec = {
        "family": "mixture",
        "dimension": 2,
        "params": {
            "weight": 0.5,
            "components": [{"family": "independence", "dimension": 2},
                           {"family": "comonotone", "dimension": 2}],
        },
    }
    path = write_json("mix.json", spec)
    code, out, _ = run(capsys, "validate", "--model", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


# ---------------------------------------------------------------------------
# errors, schema paths, determinism
# ---------------------------------------------------------------------------

def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "mtcm", "--model", "/nonexistent/x.json")
    assert code == 2
    assert "no such file" in err


def test_unconverged_search_exits_one(write_json, capsys):
    path = write_json("t2.json", {"family": "tawn2", "params": {"s": 1.69, "r": 1.25, "t": 7.44, "phi": 0.74}})
    code, out, _ = run(capsys, "mtcm", "--model", path, "--starts", "1", "--max-evals", "12")
    assert code == 1
    assert "converged    no" in out


def test_unconverged_curve_search_exits_one(write_json, capsys):
    mixture = {"family": "mixture", "dimension": 3, "params": {"weight": 0.5, "components": [
        {"family": "logistic", "dimension": 3, "params": {"s": 2.0}},
        {"family": "marshall_olkin", "dimension": 3, "params": {"alpha": [0.3, 0.6, 0.45]}},
    ]}}
    path = write_json("mix.json", {"family": "survival_evc", "dimension": 3, "params": {"stdf": mixture}})
    code, out, _ = run(capsys, "mtcm", "--model", path, "--max-evals", "12")
    assert code == 1
    assert "converged    no" in out
    assert "evals        12" in out


def test_schema_error_names_field_path(write_json, capsys):
    bad = {"family": "marshall_olkin", "params": {"alpha": [0.2, "x", 0.8]}}
    path = write_json("bad.json", bad)
    code, _, err = run(capsys, "mtcm", "--model", path)
    assert code == 2
    assert "params.alpha[1]" in err


def test_invalid_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "eval", "--model", str(p), "--x", "1,1")
    assert code == 2
    assert "invalid JSON" in err


def test_archimax_power_beyond_float_range_is_numerical_failure(write_json, capsys):
    spec = {"family": "archimax", "dimension": 3, "params": {"stdf": MO_SPEC, "alpha": 1e300}}
    path = write_json("arch.json", spec)
    code, out, err = run(capsys, "mtcm", "--model", path)
    assert code == 1
    assert out == ""
    assert err.startswith("numerical failure: ") and "does not fit in a float" in err
    assert err.count("\n") == 1


def test_archimax_large_alpha_keeps_unit_product(write_json, capsys):
    mo = {"family": "marshall_olkin", "dimension": 3, "params": {"alpha": [0.5, 0.5, 0.5000001]}}
    spec = {"family": "archimax", "dimension": 3, "params": {"stdf": mo, "alpha": 1e9}}
    path = write_json("arch.json", spec)
    code, out, err = run(capsys, "mtcm", "--model", path, "--format", "json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["lambda_star"] == 0.0
    assert math.fsum(math.log(v) for v in result["b_star"]) == 0.0


def test_search_and_sealevel_do_not_import_scipy(write_json):
    tawn = {"family": "tawn2", "dimension": 3, "params": {"s": 1.69, "r": 1.25, "t": 7.44, "phi": 0.74}}
    path = write_json("t2.json", {"family": "survival_evc", "dimension": 3, "params": {"stdf": tawn}})
    script = (
        "import contextlib, io, sys\n"
        "from tailmax.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['mtcm', '--model', {path!r}]), main(['sealevel'])]\n"
        "print(codes, 'scipy' in sys.modules, 'tailmax.mtcm' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "False", "True"]


# parameters on or next to the edge of their range, mixed with ordinary ones
_UNIT = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0 - 2.0 ** -53, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
_EXPONENT = st.one_of(
    st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1e300]),
    st.floats(min_value=1.0, max_value=50.0),
)


@st.composite
def _stdf_spec(draw, d, depth=0, family=None):
    kinds = ["marshall_olkin", "logistic"] + (["tawn1", "tawn2"] if d == 3 else [])
    if depth < 2:
        kinds.append("mixture")
    kind = family or draw(st.sampled_from(kinds))
    if kind == "marshall_olkin":
        params = {"alpha": draw(st.lists(_UNIT, min_size=d, max_size=d))}
    elif kind == "logistic":
        params = {"s": draw(_EXPONENT)}
    elif kind == "tawn1":
        params = {"s": draw(_EXPONENT), "r": draw(_EXPONENT),
                  "theta": draw(st.lists(_UNIT, min_size=3, max_size=3))}
    elif kind == "tawn2":
        params = {"s": draw(_EXPONENT), "r": draw(_EXPONENT), "t": draw(_EXPONENT),
                  "phi": draw(_UNIT)}
    else:
        params = {"weight": draw(_UNIT),
                  "components": [draw(_stdf_spec(d, depth + 1)), draw(_stdf_spec(d, depth + 1))]}
    return {"family": kind, "dimension": d, "params": params}


# a regular-variation index, log-uniform in [1e-300, 1e300]
_INDEX = st.one_of(
    st.sampled_from([1e-300, 1.0, 1e300]),
    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e),
)


@st.composite
def _archimax_spec(draw):
    d = draw(st.integers(min_value=2, max_value=6))
    alpha = draw(_INDEX)
    return {"family": "archimax", "dimension": d,
            "params": {"stdf": draw(_stdf_spec(d)), "alpha": alpha}}


@given(spec=_archimax_spec())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_archimax_mtcm_cli_contract(write_json, capsys, spec):
    path = write_json("arch.json", spec)
    code, out, err = run(capsys, "mtcm", "--model", path, "--format", "json")
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    if code == 0:
        result = json.loads(out)["result"]
        b = result["b_star"]
        assert abs(math.fsum(math.log(v) for v in b)) <= 1e-10
        assert result["lambda_star"] <= min(b) + 1e-10
    if code == 1 and "does not fit in a float" in err:
        assert f"(alpha={spec['params']['alpha']:.6g})" in err


@st.composite
def _searched_spec(draw):
    kind = draw(st.sampled_from(["logistic", "mo_mixture", "tawn1", "tawn2"]))
    if kind == "logistic":
        d = draw(st.integers(min_value=2, max_value=6))
        stdf = {"family": "logistic", "dimension": d, "params": {"s": draw(_EXPONENT)}}
    elif kind == "mo_mixture":
        d = draw(st.integers(min_value=2, max_value=5))
        mo = [{"family": "marshall_olkin", "dimension": d,
               "params": {"alpha": draw(st.lists(_UNIT, min_size=d, max_size=d))}} for _ in range(2)]
        stdf = {"family": "mixture", "dimension": d, "params": {"weight": draw(_UNIT), "components": mo}}
    else:
        d = 3
        stdf = draw(_stdf_spec(3, family=kind))
    return {"family": "survival_evc", "dimension": d, "params": {"stdf": stdf}}


@given(
    spec=_searched_spec(),
    max_evals=st.integers(min_value=10, max_value=200),
    tol=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e),
    seed=st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
)
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_search_budget_and_tolerance_cli_contract(write_json, capsys, spec, max_evals, tol, seed):
    path = write_json("surv.json", spec)
    code, out, err = run(capsys, "mtcm", "--model", path, "--format", "json",
                         "--max-evals", str(max_evals), "--tol", repr(tol), "--seed", str(seed))
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    if seed < 0:
        assert code == 2
    if code == 0:
        result = json.loads(out)["result"]
        b = result["b_star"]
        assert abs(math.fsum(math.log(v) for v in b)) <= 1e-10
        assert result["lambda_star"] <= min(b) + 1e-10


@st.composite
def _tree(draw, depth=0):
    kids = draw(st.integers(min_value=2, max_value=3))
    children = [draw(_tree(depth + 1)) if depth < 2 and draw(st.booleans()) else {}
                for _ in range(kids)]
    return {"alpha": draw(_INDEX), "children": children}


# a lattice size per axis: small, or one whose lattice exceeds the 10^7-point cap
_GRID_N = st.one_of(st.integers(min_value=3, max_value=12),
                    st.integers(min_value=10 ** 7 + 1, max_value=10 ** 12))
_LOG_RANGE = st.one_of(st.sampled_from([1e-3, 1e308]),
                       st.floats(min_value=-3.0, max_value=308.0).map(lambda e: 10.0 ** e))


@st.composite
def _subcommand_call(draw):
    """``(argv, input)``: unless ``input`` is None, ``argv`` ends with the
    input file's flag and ``input`` is the JSON to write to that file."""
    kind = draw(st.sampled_from(["nac", "oracle", "surface", "validate"]))
    if kind == "nac":
        return ["nac", "--tree"], draw(_tree())
    if kind == "oracle":
        spec = draw(st.one_of(
            _archimax_spec(), _searched_spec(),
            _tree().map(lambda t: {"family": "nac", "params": {"tree": t}}),
        ))
        return ["oracle", "--grid-n", str(draw(_GRID_N)),
                "--log-range", repr(draw(_LOG_RANGE)), "--model"], spec
    if kind == "surface":
        n = draw(st.one_of(st.integers(min_value=2, max_value=12),  # 3163^2 > 10^7
                           st.integers(min_value=3163, max_value=10 ** 9)))
        return ["surface", "--label", draw(st.sampled_from(LABELS)), "--grid-n", str(n),
                "--log-range", repr(draw(_LOG_RANGE))], None
    d = draw(st.integers(min_value=2, max_value=6))
    samples = draw(st.one_of(st.integers(min_value=1, max_value=50),
                             st.integers(min_value=10 ** 7 + 1, max_value=10 ** 12)))
    seed = draw(st.integers(min_value=-(2 ** 70), max_value=2 ** 70))
    return ["validate", "--samples", str(samples), "--seed", str(seed), "--model"], draw(_stdf_spec(d))


# a numpy RuntimeWarning would print its own stderr lines from a real process
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(call=_subcommand_call())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_subcommand_cli_contract(write_json, capsys, call):
    argv, data = call
    if data is not None:
        argv = argv + [write_json("input.json", data)]
    code, out, err = run(capsys, *argv, "--format", "csv" if argv[0] == "surface" else "json")
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    if code == 0 and argv[0] in ("nac", "oracle"):
        result = json.loads(out)["result"]
        b = result["b_star"]
        assert abs(math.fsum(math.log(v) for v in b)) <= 1e-10
        assert result["lambda_star"] <= min(b) + 1e-10


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["mtcm"], {"family": "archimedean", "dimension": 10 ** 12, "params": {"alpha": 1}}),
        (["mtcm"], {"family": "archimax", "dimension": 10 ** 12, "params": {"alpha": 1, "stdf": {
            "family": "logistic", "dimension": 10 ** 12, "params": {"s": 2}}}}),
        (["eval", "--x", "1,1"], {"family": "independence", "dimension": 10 ** 12}),
        (["eval", "--x", "1,1"], {"family": "comonotone", "dimension": 10 ** 12}),
    ],
)
def test_huge_dimension_is_usage_error(write_json, capsys, argv, spec):
    # rejected before d floats are allocated
    code, out, err = run(capsys, *argv, "--model", write_json("big.json", spec))
    assert code == 2
    assert out == ""
    assert "exceeds the cap of 10000000" in err and err.count("\n") == 1


@pytest.mark.parametrize("family, lam", [("independence", 0.0), ("comonotone", 1.0)])
def test_mtcm_on_corners_is_closed_form(write_json, capsys, family, lam):
    path = write_json("corner.json", {"family": family, "dimension": 4})
    code, out, _ = run(capsys, "mtcm", "--model", path, "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["method"] == "closed_mo"
    assert result["lambda_star"] == lam
    assert result["b_star"] == [1.0] * 4
    assert result["diagnostics"]["function_evals"] == 0


def test_mtcm_closed_mo_beyond_subset_cap(write_json, capsys):
    # the survival MO route is O(d), so the 2^d - 1 subset cap does not apply
    spec = {"family": "marshall_olkin", "dimension": 21, "params": {"alpha": [0.5] * 21}}
    code, out, err = run(capsys, "mtcm", "--model", write_json("mo21.json", spec), "--format", "json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["method"] == "closed_mo"
    assert result["lambda_star"] == 0.5


@pytest.mark.parametrize("log_range", ["5", "10"])
def test_oracle_on_independence_is_exactly_zero(write_json, capsys, log_range):
    path = write_json("ind.json", {"family": "independence", "dimension": 4})
    code, out, err = run(capsys, "oracle", "--model", path, "--grid-n", "11",
                         "--log-range", log_range, "--format", "json")
    assert code == 0, err
    assert json.loads(out)["result"]["lambda_star"] == 0.0


def test_oracle_far_from_diagonal_stays_bounded(write_json, capsys):
    # margins near e^450 leave round-off far above min_j b_j, which is
    # projected away: the maximum stays at the diagonal
    spec = {"family": "logistic", "dimension": 4, "params": {"s": 2}}
    code, out, err = run(capsys, "oracle", "--model", write_json("log.json", spec),
                         "--grid-n", "11", "--log-range", "150", "--format", "json")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["lambda_star"] == pytest.approx(parse_tail_copula(spec).diagonal(), rel=1e-12)
    assert result["b_star"] == [1.0] * 4


def test_eval_near_float_max(write_json, capsys):
    spec = {"family": "logistic", "dimension": 3, "params": {"s": 2}}
    code, out, err = run(capsys, "eval", "--model", write_json("log.json", spec),
                         "--x", "1e308,1e308,1e308", "--format", "json")
    assert code == 0, err
    value = json.loads(out)["value"]
    assert value == pytest.approx(1e308 * parse_tail_copula(spec).diagonal(), rel=1e-12)


def test_underflowed_subtree_gives_zero(write_json, capsys):
    # the inner vertex's value underflows to 0 at every positive point
    tree = {"alpha": 1e-300, "children": [{"alpha": 1e300, "children": [{}, {}]}, {}]}
    path = write_json("nac.json", {"family": "nac", "params": {"tree": tree}})
    for argv in (["eval", "--x", "1,1,1"], ["oracle", "--grid-n", "11"]):
        code, out, err = run(capsys, *argv, "--model", path, "--format", "json")
        assert code == 0, err
        obj = json.loads(out)
        assert (obj["value"] if argv[0] == "eval" else obj["result"]["lambda_star"]) == 0.0


def _leaves(tree):
    return sum(_leaves(c) if "children" in c else 1 for c in tree["children"])


@st.composite
def _eval_spec(draw):
    """``(spec, d)``: a well-formed spec of any stable-tail-dependence family
    (the survival route), Archimax, Archimedean or nested-tree spec, and the
    dimension of its model."""
    kind = draw(st.sampled_from(STDF_FAMILIES + ("archimax", "archimedean", "nac")))
    d = 3 if kind in ("tawn1", "tawn2") else draw(st.integers(min_value=2, max_value=6))
    if kind in ("independence", "comonotone"):
        return {"family": kind, "dimension": d}, d
    if kind == "archimax":
        spec = draw(_archimax_spec())
        return spec, spec["dimension"]
    if kind == "archimedean":
        return {"family": kind, "dimension": d, "params": {"alpha": draw(_INDEX)}}, d
    if kind == "nac":
        tree = draw(_tree())
        return {"family": "nac", "params": {"tree": tree}}, _leaves(tree)
    return draw(_stdf_spec(d, family=kind)), d


def _paths(node, path=()):
    """Every key path in a JSON tree, the root's ``()`` first."""
    yield path
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(v, path + (k,))


_JUNK = st.sampled_from(["x", [], [1.0, "x"], None, math.nan, math.inf, -math.inf])


@st.composite
def _malformed(draw, spec):
    """``spec`` with one key dropped or one value swapped for junk, or a
    root that is not an object."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(st.sampled_from([[], [spec], "independence", 3, None]))
    spec = json.loads(json.dumps(spec))
    *head, last = draw(st.sampled_from(list(_paths(spec))[1:]))
    parent = spec
    for k in head:
        parent = parent[k]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(_JUNK)
    return spec


# a coordinate of --x, log-uniform in [1e-308, 1e308]
_COORD = st.one_of(
    st.sampled_from([1e-308, 1.0, 1e308]),
    st.floats(min_value=-308.0, max_value=308.0).map(lambda e: 10.0 ** e),
)


@st.composite
def _eval_call(draw):
    spec, d = draw(_eval_spec())
    if draw(st.booleans()):
        spec = draw(_malformed(spec))
    return spec, draw(st.lists(_COORD, min_size=d, max_size=d))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(call=_eval_call())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_eval_cli_contract(write_json, capsys, call):
    spec, x = call
    code, out, err = run(capsys, "eval", "--model", write_json("model.json", spec),
                         "--x", ",".join(repr(v) for v in x), "--format", "json")
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    if code == 0:
        value = json.loads(out)["value"]
        assert math.isfinite(value)
        assert 0.0 <= value <= min(x)


def _deep_tree_text(depth):
    return '{"alpha": 1.0, "children": [{"leaf": 1}, ' * depth + '{"leaf": 1}' + "]}" * depth


def _deep_generator_text(depth):
    head = '{"family": "archimedean", "dimension": 3, "params": {"generator": '
    chain = '{"kind": "outer_power", "beta": 1.0, "base": ' * depth
    chain += '{"kind": "clayton", "theta": 1.0}' + "}" * depth
    return head + chain + "}}"


@pytest.mark.parametrize(
    "command, text, fragment",
    [
        ("nac", _deep_tree_text(3000), "nests too deeply"),
        ("nac", _deep_tree_text(250), "deeper than 200 levels"),
        ("mtcm", _deep_generator_text(300), "deeper than 200 levels"),
    ],
)
def test_deeply_nested_input_is_usage_error(tmp_path, capsys, command, text, fragment):
    p = tmp_path / "deep.json"
    p.write_text(text)
    flag = "--tree" if command == "nac" else "--model"
    code, out, err = run(capsys, command, flag, str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and fragment in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "tree",
    [
        {"alpha": 1000, "children": [{"leaf": 1}, {"leaf": 2}, {"leaf": 3}]},
        {"alpha": 2, "children": [{"leaf": 1}, {"alpha": 1e300, "children": [{"leaf": 2}, {"leaf": 3}]}]},
    ],
)
def test_degenerate_tree_maximum_is_zero(write_json, capsys, tree):
    for argv in (["nac", "--tree", write_json("tree.json", tree)],
                 ["mtcm", "--model", write_json("nac.json", {"family": "nac", "params": {"tree": tree}})]):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert err.count("\n") <= 1  # at most the nesting warning
        result = json.loads(out)["result"]
        assert result["lambda_star"] == 0.0
        assert result["b_star"] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["surface", "--label", "I-1", "--grid-n", "100000"], "exceeds the cap of 10000000"),
        (["validate", "--samples", "2000000000"], "exceed the cap of 10000000"),
        (["oracle", "--log-range", "360"], "beyond the float range"),
        (["oracle", "--log-range", "1e308"], "beyond the float range"),
        (["surface", "--label", "I-1", "--grid-n", "5", "--log-range", "355"], "beyond the float range"),
    ],
)
def test_oversized_lattice_is_usage_error(write_json, capsys, argv, fragment):
    if argv[0] != "surface":
        argv = argv + ["--model", write_json("mo.json", MO_SPEC)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and fragment in err
    assert err.count("\n") == 1


def test_unknown_family_is_usage_error(write_json, capsys):
    path = write_json("weird.json", {"family": "frankenstein", "dimension": 2})
    code, _, err = run(capsys, "mtcm", "--model", path)
    assert code == 2
    assert "frankenstein" in err


def test_env_seed_override(write_json, capsys, monkeypatch):
    path = write_json("t2.json", to_spec(parse_tail_copula(
        {"family": "tawn2", "params": {"s": 1.69, "r": 1.25, "t": 7.44, "phi": 0.74}})))
    monkeypatch.setenv("TAILMAX_SEED", "321")
    code, out, _ = run(capsys, "mtcm", "--model", path, "--starts", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 321
    monkeypatch.setenv("TAILMAX_SEED", "notanint")
    code, _, err = run(capsys, "mtcm", "--model", path, "--starts", "2")
    assert code == 2
    assert "TAILMAX_SEED" in err
    # numpy's generators take a seed >= 0 only: a negative one is a usage error
    monkeypatch.setenv("TAILMAX_SEED", "-3")
    code, out, err = run(capsys, "mtcm", "--model", path)
    assert (code, out) == (2, "")
    assert "TAILMAX_SEED must be >= 0" in err and err.count("\n") == 1
    monkeypatch.delenv("TAILMAX_SEED")
    two_logistics = write_json("mix.json", {"family": "survival_evc", "dimension": 3, "params": {
        "stdf": {"family": "mixture", "dimension": 3, "params": {"weight": 0.4, "components": [
            {"family": "logistic", "dimension": 3, "params": {"s": 1.5}},
            {"family": "logistic", "dimension": 3, "params": {"s": 4.0}}]}}}})
    validate_model = write_json("logistic.json", {"family": "logistic", "dimension": 3, "params": {"s": 2.0}})
    for argv in (["mtcm", "--model", two_logistics], ["validate", "--model", validate_model]):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert (code, out) == (2, "")
        assert "--seed must be >= 0" in err and err.count("\n") == 1


def test_json_output_byte_identical_across_runs(write_json, tmp_path, capsys):
    path = write_json("t1.json", {"family": "tawn1", "params": {"s": 2.48, "r": 1.0, "theta": [1.0, 1.0, 0.25]}})
    outs = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        code, _, _ = run(
            capsys, "mtcm", "--model", path, "--starts", "4", "--seed", "7",
            "--format", "json", "--out", str(out_file),
        )
        assert code == 0
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]


def test_round_trip_of_emitted_model_specs(write_json, capsys):
    specs = [
        MO_SPEC,
        {"family": "survival_evc", "dimension": 3, "params": {"stdf": {"family": "logistic", "dimension": 3, "params": {"s": 1.59}}}},
        {"family": "archimax", "dimension": 2, "params": {"alpha": 0.5, "stdf": {"family": "comonotone", "dimension": 2}}},
        {"family": "nac", "params": {"tree": NESTED_TREE}},
        {"family": "mixture_tc", "params": {"weight": 0.3, "components": [
            {"family": "archimedean", "dimension": 3, "params": {"alpha": 1.0}},
            {"family": "comonotone", "dimension": 3},
        ]}},
    ]
    for i, spec in enumerate(specs):
        path = write_json(f"m{i}.json", spec)
        code, out, _ = run(capsys, "eval", "--model", path, "--x",
                           ",".join(["1"] * parse_tail_copula(spec).dim), "--format", "json")
        assert code == 0
        emitted = json.loads(out)["model"]
        assert parse_tail_copula(emitted) == parse_tail_copula(spec)
        assert to_spec(parse_tail_copula(emitted)) == emitted
