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
from tailmax.cli import main

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


@st.composite
def _archimax_spec(draw):
    d = draw(st.integers(min_value=2, max_value=6))
    alpha = draw(st.one_of(
        st.sampled_from([1e-300, 1.0, 1e300]),
        st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e),
    ))
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
)
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_search_budget_and_tolerance_cli_contract(write_json, capsys, spec, max_evals, tol):
    path = write_json("surv.json", spec)
    code, out, err = run(capsys, "mtcm", "--model", path, "--format", "json",
                         "--max-evals", str(max_evals), "--tol", repr(tol))
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    if code == 0:
        result = json.loads(out)["result"]
        b = result["b_star"]
        assert abs(math.fsum(math.log(v) for v in b)) <= 1e-10
        assert result["lambda_star"] <= min(b) + 1e-10


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
