"""End-to-end command-line checks: exit codes, schemas, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockcalc import (
    GEOM_SCHEMA,
    Bergman,
    Dims,
    Extension,
    GeometryData,
    GeometrySample,
    KernelExpr,
    NormalDirection,
    OrthBergman,
    Poly,
    Restriction,
    Symbol,
    unit_expr,
)
from fockcalc import checks, operators
from fockcalc.cli import build_parser, run

from conftest import bidegrees

PI = math.pi


def run_process(*argv):
    """``python -m fockcalc`` on argv in its own process, where numpy's warnings reach stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "fockcalc", *argv], capture_output=True, text=True, env=env)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def kernel_file(tmp_path, name, expr):
    return write_json(tmp_path, name, {"schema": "kernel/1", **expr.to_json_dict()})


def symbol_file(tmp_path, name, sym):
    return write_json(tmp_path, name, {"schema": "symbol/1", **sym.to_json_dict()})


def geom_file(tmp_path, name, data):
    return write_json(tmp_path, name, data.to_json_dict())


@pytest.fixture
def geom_data():
    sample = GeometrySample(
        id="p0",
        scal_X=16.0 * PI,
        scal_Y=0.0,
        normal_dirs=(
            NormalDirection(id="d1", level="WY", d_scal_diff=8.0 * PI),
            NormalDirection(id="f1", level="XW", d_scal_diff=3.0),
        ),
    )
    return GeometryData(dims=(0, 1, 2), samples=(sample,))


# -- compose ---------------------------------------------------------------------


def test_compose_round_trip(tmp_path, capsys):
    dims = Dims.of(1)
    left = KernelExpr(Poly.monomial(dims, {"z1": 1, "zb'1": 1}), Bergman(1))
    lf = kernel_file(tmp_path, "left.json", left)
    rf = kernel_file(tmp_path, "right.json", unit_expr(Bergman(1)))
    assert run(["compose", "--left", lf, "--right", rf]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "compose/1"
    assert list(out["plan"].items()) == [  # in the order written
        ("left_kind", "Bergman(1)"),
        ("right_kind", "Bergman(1)"),
        ("result_kind", "Bergman(1)"),
        ("middle_dim", 1),
        ("left_cross", 1),
        ("right_cross", 1),
    ]
    assert out["result"]["schema"] == "kernel/1"
    # the emitted kernel is valid input: compose it again
    back = write_json(tmp_path, "back.json", out["result"])
    assert run(["compose", "--left", back, "--right", rf]) == 0


def test_compose_golden_value(tmp_path, capsys):
    dims = Dims.of(1)
    # the left kernel's primed variable and the right kernel's unprimed one
    # are the integrated middle pair
    lf = kernel_file(tmp_path, "l.json", KernelExpr(Poly.monomial(dims, {"zb'1": 1}), Bergman(1)))
    rf = kernel_file(tmp_path, "r.json", KernelExpr(Poly.monomial(dims, {"z1": 1}), Bergman(1)))
    assert run(["compose", "--left", lf, "--right", rf]) == 0
    out = json.loads(capsys.readouterr().out)
    got = KernelExpr.from_json_dict(
        {k: v for k, v in out["result"].items() if k != "schema"}
    )
    want = Poly.monomial(dims, {"z1": 1, "zb'1": 1}).add(
        Poly.constant(dims, 1.0 / PI)
    )
    assert got.numerator.max_coef_diff(want) < 1e-15


def test_compose_error_paths(tmp_path):
    ef = kernel_file(tmp_path, "e.json", unit_expr(Extension(2, 1)))
    rf = kernel_file(tmp_path, "r.json", unit_expr(Restriction(2, 1)))
    assert run(["compose", "--left", rf, "--right", rf]) == 2  # middle dimensions 2 and 1
    assert run(["compose", "--left", ef, "--right", ef]) == 2  # middle dimensions 1 and 2
    assert run(["compose", "--left", str(tmp_path / "nope.json"), "--right", rf]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["compose", "--left", str(bad), "--right", rf]) == 2
    arr = write_json(tmp_path, "arr.json", [1, 2, 3])
    assert run(["compose", "--left", arr, "--right", rf]) == 2
    wrong = write_json(tmp_path, "wrong.json", {"schema": "kernel/9"})
    assert run(["compose", "--left", wrong, "--right", rf]) == 2
    body = json.loads((tmp_path / "e.json").read_text())
    extra = write_json(tmp_path, "extra.json", {**body, "colour": "green"})
    assert run(["compose", "--left", extra, "--right", rf]) == 2


def test_compose_result_without_a_kind_name_exits_2(tmp_path, capsys):
    # Extension(3,2) o OrthBergman(2,1) is the kind (3, 2, 1), which kernel/1 cannot name
    lf = kernel_file(tmp_path, "e.json", unit_expr(Extension(3, 2)))
    rf = kernel_file(tmp_path, "ob.json", unit_expr(OrthBergman(2, 1)))
    assert run(["compose", "--left", lf, "--right", rf]) == 2
    err = capsys.readouterr().err
    assert err == "fockcalc: error: KernelKind(3,2,1) has no kernel/1 name\n"
    # the oracle needs no name for the composite and still checks it
    assert run(["oracle-check", "--left", lf, "--right", rf]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["schema", "plan", "tol", "report"]
    assert list(out["plan"].items()) == [  # in the order written
        ("left_kind", "Extension(3,2)"),
        ("right_kind", "OrthBergman(2,1)"),
        ("result_kind", "KernelKind(3,2,1)"),
        ("middle_dim", 2),
        ("left_cross", 2),
        ("right_cross", 1),
    ]


def test_compose_output_deterministic(tmp_path):
    dims = Dims.of(2, m=1)
    left = KernelExpr(Poly.monomial(dims, {"z2": 2, "zb1": 1}), Bergman(2))
    lf = kernel_file(tmp_path, "left.json", left)
    rf = kernel_file(tmp_path, "right.json", unit_expr(Extension(2, 1)))
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["compose", "--left", lf, "--right", rf, "--out", out1]) == 0
    assert run(["compose", "--left", lf, "--right", rf, "--out", out2]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_compose_rejects_nan_coefficient(tmp_path, capsys):
    body = {"schema": "kernel/1", **unit_expr(Bergman(1)).to_json_dict()}
    body["terms"][0]["coef"] = [[[math.nan, 0.0]]]
    nan_file = tmp_path / "nan.json"
    nan_file.write_text(json.dumps(body))  # writes the bare NaN token
    assert "NaN" in nan_file.read_text()
    assert run(["compose", "--left", str(nan_file), "--right", str(nan_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "non-finite" in captured.err


@pytest.mark.parametrize("command", ["compose", "oracle-check"])
def test_coefficient_overflow_is_one_line(tmp_path, command):
    # 1e200 squared overflows in the composition; four numpy RuntimeWarning lines
    # used to come before the error
    body = {"schema": "kernel/1", **unit_expr(Bergman(1)).to_json_dict()}
    body["terms"][0]["coef"] = [[[1e200, 0.0]]]
    kf = write_json(tmp_path, "big.json", body)
    proc = run_process(command, "--left", kf, "--right", kf)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "fockcalc: error: non-finite coefficient\n")


# -- oracle-check -----------------------------------------------------------------


def test_oracle_check_pass_and_fail(tmp_path, capsys):
    dims = Dims.of(1)
    left = KernelExpr(Poly.monomial(dims, {"z1": 1, "zb'1": 1}), Bergman(1))
    lf = kernel_file(tmp_path, "l.json", left)
    rf = kernel_file(tmp_path, "r.json", left)
    assert run(["oracle-check", "--left", lf, "--right", rf]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "oracle/1" and out["report"]["pass"] is True
    # an absurd tolerance flips the exit code but is still a valid run
    assert run(["oracle-check", "--left", lf, "--right", rf, "--tol", "1e-18"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["pass"] is False


def test_oracle_check_custom_budget(tmp_path, capsys):
    lf = kernel_file(tmp_path, "l.json", unit_expr(Bergman(1)))
    assert run(["oracle-check", "--left", lf, "--right", lf, "--nodes", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["grid"]["nodes_per_axis"] == 16


def test_oracle_check_nodes_past_the_tested_rule_exit_2_before_numpy(tmp_path, capsys):
    # --nodes 100000 asked hermgauss for a 75 GiB companion matrix and ended in a traceback
    lf = kernel_file(tmp_path, "k.json", unit_expr(Bergman(1)))
    argv = ["oracle-check", "--left", "k.json", "--right", "k.json", "--nodes", "100000"]
    code = f"import sys\nfrom fockcalc.cli import run\nprint(run({argv!r}), 'numpy' in sys.modules)\n"
    proc = run_python(code, tmp_path)
    assert (proc.stdout, proc.stderr) == ("2 False\n", "fockcalc: error: --nodes must be <= 100, got 100000\n")
    assert run(["oracle-check", "--left", lf, "--right", lf, "--nodes", "100"]) == 0  # the limit itself is a rule
    assert json.loads(capsys.readouterr().out)["report"]["grid"]["nodes_per_axis"] == 100


# -- spectrum ------------------------------------------------------------------------


def matrix_json(mat):
    return {
        "schema": "matrix/1",
        "matrix": [[[complex(v).real, complex(v).imag] for v in row] for row in np.atleast_2d(mat)],
    }


def test_spectrum(tmp_path, capsys):
    mf = write_json(tmp_path, "m.json", matrix_json(np.array([[0.0, -1.0j], [1.0j, 0.0]])))
    assert run(["spectrum", "--input", mf]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "spectrum/1"
    assert np.allclose(out["eigenvalues"], [-1.0, 1.0])


def test_spectrum_errors(tmp_path):
    assert run(["spectrum", "--input", write_json(tmp_path, "x.json", {"schema": "matrix/1"})]) == 2
    skew = write_json(tmp_path, "s.json", matrix_json(np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert run(["spectrum", "--input", skew]) == 2


def test_spectrum_rejects_scalar_matrix(tmp_path, capsys):
    mf = write_json(tmp_path, "m.json", {"schema": "matrix/1", "matrix": 5})
    assert run(["spectrum", "--input", mf]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "list of rows" in err


def test_spectrum_near_the_float_maximum(tmp_path, capsys):
    # finite input once came back as nan: exit 2 on a wrong "not finite" result
    mf = write_json(tmp_path, "m.json", matrix_json(np.diag([1e308, -1e308])))
    assert run(["spectrum", "--input", mf]) == 0
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == [-1e308, 1e308]
    mf = write_json(tmp_path, "full.json", matrix_json(np.full((2, 2), 1e308)))
    assert run(["spectrum", "--input", mf]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"fockcalc: error: {mf}: an eigenvalue overflows a float")


def test_integer_too_long_to_parse_is_a_usage_error(tmp_path, capsys):
    # json.loads raises a plain ValueError past 4300 digits; it used to escape
    # as a traceback with exit 1
    mf = tmp_path / "m.json"
    mf.write_text('{"schema": "matrix/1", "matrix": [[[' + "1" * 5000 + ", 0]]]}")
    assert run(["spectrum", "--input", str(mf)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed JSON" in err


def test_spectrum_sixteen_by_sixteen(tmp_path, capsys):
    rng = np.random.default_rng(1)
    M = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    H = M + M.conj().T
    mf = write_json(tmp_path, "m.json", matrix_json(H))
    assert run(["spectrum", "--input", mf]) == 0
    got = json.loads(capsys.readouterr().out)["eigenvalues"]
    assert np.max(np.abs(np.array(got) - np.linalg.eigvalsh(H))) <= 1e-12


# -- toeplitz-leading ---------------------------------------------------------------


def test_toeplitz_leading_matrix_value(tmp_path, capsys):
    sf = symbol_file(tmp_path, "g.json", Symbol.monomial(1, 0, (1,), (1,)))
    assert run(["toeplitz-leading", "--kind", "YY", "--symbol", sf]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "toeplitz/1"
    assert (out["kind"], out["effective_kind"], out["order"]) == ("YY", "YY", 0)
    assert out["value_type"] == "matrix"
    assert abs(out["value"][0][0][0] - 1.0 / PI) < 1e-12


def test_toeplitz_leading_reroute(tmp_path, capsys):
    sf = symbol_file(tmp_path, "g.json", Symbol.monomial(1, 0, (2,), (1,)))  # odd symbol
    assert run(["toeplitz-leading", "--kind", "XY_even", "--symbol", sf]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["effective_kind"] == "XY_odd" and out["order"] == 1
    assert out["value_type"] == "symbol"
    val = Symbol.from_json_dict({k: v for k, v in out["value"].items() if k != "schema"})
    assert bidegrees(val) == [(1, 0)]


def test_toeplitz_leading_errors(tmp_path):
    mixed = Symbol.from_terms(1, 0, {((1,), (1,)): 1.0, ((1,), (0,)): 1.0})
    sf = symbol_file(tmp_path, "mixed.json", mixed)
    assert run(["toeplitz-leading", "--kind", "XY_even", "--symbol", sf]) == 2
    ok = symbol_file(tmp_path, "ok.json", Symbol.monomial(1, 0, (1,), (1,)))
    assert run(["toeplitz-leading", "--kind", "XX", "--symbol", ok]) == 2  # argparse rejects


@pytest.mark.parametrize("kind", ["YY", "XY_even", "XY_odd", "YX_even", "YX_odd"])
def test_toeplitz_leading_contraction_overflow_is_a_usage_error(tmp_path, capsys, kind):
    # 300!/pi^300, about 2e465, does not fit a float; 300! used to end in an OverflowError traceback
    sf = symbol_file(tmp_path, "big.json", Symbol.monomial(2, 1, (300,), (300,)))
    assert run(["toeplitz-leading", "--kind", kind, "--symbol", sf]) == 2
    err = "fockcalc: error: contracting symbol term hol [300], antihol [300] overflows a float\n"
    assert capsys.readouterr().err == err


def test_toeplitz_leading_sum_overflow_is_one_line(tmp_path):
    # every contracted term is finite but lambda_eq's sum of them is not; this used to
    # print numpy's RuntimeWarning and its source line before the error, so the
    # command runs in its own process, where warnings reach stderr
    k = 4
    rows = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    sf = symbol_file(tmp_path, "big.json", Symbol.from_terms(5, 1, {(e, e): 1.7e308 for e in rows}))
    proc = run_process("toeplitz-leading", "--kind", "YY", "--symbol", sf)
    assert proc.returncode == 2
    assert proc.stderr == "fockcalc: error: lambda_eq: the sum of 4 contracted symbol terms overflows a float\n"


# -- constants -------------------------------------------------------------------------


def test_constants_c0_with_csv(tmp_path, capsys, geom_data):
    gf = geom_file(tmp_path, "geom.json", geom_data)
    csv_path = tmp_path / "c0.csv"
    assert run(["constants", "--geom", gf, "--which", "c0", "--csv", str(csv_path)]) == 0
    text = capsys.readouterr().out
    assert abs(json.loads(text)["C0"] - 1.0 / math.sqrt(PI)) < 1e-12
    # the bytes, key order included
    assert text == '{\n  "schema": "constants/1",\n  "which": "c0",\n  "C0": 0.5641895835477563,\n  "sample_id": "p0"\n}\n'
    assert csv_path.read_text() == "constant,value,sample_id\nC0,0.5641895835477563,p0\n"


def test_constants_c3c4(tmp_path, capsys, geom_data):
    gf = geom_file(tmp_path, "geom.json", geom_data)
    csv_path = tmp_path / "t.csv"
    assert run(["constants", "--geom", gf, "--which", "c3c4", "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out == (
        '{\n  "schema": "constants/1",\n  "which": "c3c4",\n  "C3": -1.0,\n  "C4": 1.0,\n'
        '  "c3_sample_id": "p0",\n  "c4_sample_id": "p0"\n}\n'
    )
    assert csv_path.read_text() == "constant,value,sample_id\nC3,-1.0,p0\nC4,1.0,p0\n"


def test_constants_dp3_and_tower(tmp_path, capsys, geom_data):
    gf = geom_file(tmp_path, "geom.json", geom_data)
    assert run(["constants", "--geom", gf, "--which", "dp3", "--direction", '{"d1": 1.0}']) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["which"] == "dp3"
    assert abs(out["matrix"][0][0][0] - 1.0) < 1e-14
    cplx = '{"d1": [0.0, 2.0], "f1": 1.0}'
    assert run(["constants", "--geom", gf, "--which", "tower", "--direction", cplx]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["matrix"][0][0][1] - 2.0) < 1e-14  # imaginary part doubled


def test_constants_errors(tmp_path, geom_data):
    gf = geom_file(tmp_path, "geom.json", geom_data)
    assert run(["constants", "--geom", gf, "--which", "dp3"]) == 2  # missing --direction
    assert run(["constants", "--geom", gf, "--which", "dp3", "--direction", "{oops"]) == 2
    assert run(["constants", "--geom", gf, "--which", "dp3", "--direction", "[]"]) == 2
    assert (
        run(["constants", "--geom", gf, "--which", "dp3", "--direction", '{"d1": "x"}']) == 2
    )
    assert (
        run(
            [
                "constants",
                "--geom",
                gf,
                "--which",
                "dp3",
                "--direction",
                '{"d1": 1.0}',
                "--csv",
                str(tmp_path / "no.csv"),
            ]
        )
        == 2
    )
    bad = write_json(tmp_path, "bad.json", {"schema": "geom/1", "dims": [2], "samples": []})
    assert run(["constants", "--geom", bad, "--which", "c0"]) == 2


def test_constants_c0_without_a_wy_direction_is_one_line(tmp_path):
    # a valid geom/1 file whose sample has only XW directions used to end in a
    # ValueError traceback and exit 1
    sample = GeometrySample(id="p0", normal_dirs=(NormalDirection(id="f1", level="XW", d_scal_diff=3.0),))
    gf = geom_file(tmp_path, "xw.json", GeometryData(dims=(0, 1, 2), samples=(sample,)))
    proc = run_process("constants", "--geom", gf, "--which", "c0")
    want = "fockcalc: error: sample 'p0' has no N^(W|Y) direction data\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)


@pytest.mark.parametrize("field", ["scal_X", "scal_Y", "scal_W", "kappa", "d_scal_diff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constants_rejects_non_finite_geometry(tmp_path, capsys, geom_data, field, value):
    body = geom_data.to_json_dict()
    target = body["samples"][0]["normal_dirs"][0] if field == "d_scal_diff" else body["samples"][0]
    target[field] = value
    gf = tmp_path / "geom.json"
    gf.write_text(json.dumps(body))  # writes the bare NaN / Infinity token
    assert run(["constants", "--geom", str(gf), "--which", "c3c4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"{field} of " in captured.err and "must be finite" in captured.err


# -- defect-check ---------------------------------------------------------------------


def test_constants_direction_value_errors(tmp_path, capsys, geom_data):
    gf = geom_file(tmp_path, "geom.json", geom_data)
    for direction in ('{"d1": ["a", 1]}', '{"d1": [null, 1]}', '{"d1": [1, NaN]}', '{"d1": Infinity}'):
        assert run(["constants", "--geom", gf, "--which", "dp3", "--direction", direction]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--direction value for 'd1'" in err


def test_defect_check_default(tmp_path, capsys):
    assert run(["defect-check", "--max-n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "defect/1"
    assert out["pass"] is True and out["max_deviation"] == 0.0
    assert len(out["records"]) == 30


def test_defect_check_reads_max_n_4_by_default(capsys):
    assert run(["defect-check", "--max-n", "4"]) == 0
    want = capsys.readouterr().out
    assert run(["defect-check"]) == 0
    assert capsys.readouterr().out == want and len(json.loads(want)["records"]) == 50


def test_defect_check_explicit_chain(capsys):
    assert run(["defect-check", "--n", "2", "--l", "1", "--m", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    names = sorted(rec["name"] for rec in out["records"])
    assert names == ["adjoint_extension", "transitivity"]
    trans = next(rec for rec in out["records"] if rec["name"] == "transitivity")
    assert (trans["n"], trans["l"], trans["m"]) == (2, 1, 0)


def test_defect_check_of_one_chain_composes_three_times(monkeypatch, capsys):
    # the chain's transitivity record and its (n, m) adjoint record; every record up to
    # n = 8 used to be built (255 compositions) and all but two filtered away
    calls = []
    compose = operators.compose
    monkeypatch.setattr(operators, "compose", lambda *args: calls.append(args) or compose(*args))
    assert run(["defect-check", "--n", "8", "--l", "4", "--m", "0"]) == 0
    assert len(calls) == 3
    out = json.loads(capsys.readouterr().out)
    assert [(r["name"], r["n"], r.get("l"), r["m"]) for r in out["records"]] == [
        ("transitivity", 8, 4, 0),
        ("adjoint_extension", 8, None, 0),
    ]


def test_defect_check_usage_errors():
    assert run(["defect-check", "--n", "2"]) == 2  # partial chain flags
    assert run(["defect-check", "--n", "1", "--l", "2", "--m", "0"]) == 2  # bad ordering


def test_defect_check_rejects_negative_max_n(capsys):
    # --max-n -1 used to check no chain and report "pass": true
    assert run(["defect-check", "--max-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fockcalc: error: --max-n must be >= 0, got -1\n"


# -- selftest and shared flags -----------------------------------------------------------


def test_selftest_counts_a_check_that_raises_as_failed(monkeypatch, capsys):
    def broken():
        raise RuntimeError("no value")

    monkeypatch.setattr(checks, "selftest_checks", lambda: [("ok", lambda: (True, "fine")), ("broken", broken)])
    assert run(["selftest"]) == 1
    assert capsys.readouterr().out == (
        "PASS ok: fine\nFAIL broken: raised RuntimeError: no value\nselftest: 1/2 passed\n"
    )


def test_selftest(tmp_path):
    out_path = tmp_path / "selftest.txt"
    assert run(["selftest", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.strip().endswith("selftest: 9/9 passed")
    assert text.count("PASS") == 9 and "FAIL" not in text


def test_shared_flag_validation(tmp_path, capsys):
    lf = kernel_file(tmp_path, "l.json", unit_expr(Bergman(1)))
    cases = [
        (["oracle-check", "--tol", "0"], "--tol must be positive and finite, got 0.0"),
        (["oracle-check", "--nodes", "0"], "--nodes must be >= 1, got 0"),
        (["oracle-check", "--degree-cap", "-1"], "--degree-cap must be >= 0, got -1"),
        (["compose", "--degree-cap", "-1"], "--degree-cap must be >= 0, got -1"),
    ]
    for (command, *flag), message in cases:
        assert run([command, "--left", lf, "--right", lf, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"fockcalc: error: {message}\n"
    # a negative seed used to raise a traceback from c0 on a rank-2 geometry
    assert run(["constants", "--geom", lf, "--which", "c0", "--seed", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "fockcalc: error: --seed must be >= 0, got -5\n"


# The shared flags each subcommand reads; --out is everyone's.
SHARED_FLAGS = {
    "compose": {"--degree-cap", "--out"},
    "oracle-check": {"--tol", "--nodes", "--degree-cap", "--out"},
    "spectrum": {"--out"},
    "toeplitz-leading": {"--out"},
    "constants": {"--seed", "--out"},
    "defect-check": {"--tol", "--out"},
    "selftest": {"--out"},
}


def test_each_command_declares_only_the_shared_flags_it_reads(capsys):
    shared = {"--tol", "--seed", "--nodes", "--degree-cap", "--out"}
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    declared = {
        name: {opt for action in sub._actions for opt in action.option_strings} & shared
        for name, sub in commands.items()
    }
    assert declared == SHARED_FLAGS
    assert sum(map(len, declared.values())) == 13
    # a flag the command would ignore is a usage error, not a silent no-op
    assert run(["spectrum", "--input", "m.json", "--tol", "1e-3"]) == 2
    assert capsys.readouterr().err == "fockcalc: error: unrecognized arguments: --tol 1e-3\n"
    assert run(["compose", "--left", "a.json", "--right", "b.json", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "fockcalc: error: unrecognized arguments: --seed 1\n"


def test_oracle_check_reads_the_degree_cap(tmp_path, capsys):
    # the cap used to reach compose only: oracle-check exited 2 with
    # "composition term degree 36 exceeds cap 16" on this pair
    e = KernelExpr(Poly.monomial(Dims.of(1), {"z1": 9, "zb'1": 9}), Bergman(1))
    kf = kernel_file(tmp_path, "k.json", e)
    assert run(["compose", "--left", kf, "--right", kf, "--degree-cap", "40"]) == 0
    capsys.readouterr()
    assert run(["oracle-check", "--left", kf, "--right", kf, "--degree-cap", "40", "--nodes", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["pass"] is True
    assert run(["oracle-check", "--left", kf, "--right", kf, "--nodes", "12"]) == 2
    assert capsys.readouterr().err == "fockcalc: error: composition term degree 36 exceeds cap 16\n"


def test_kernel_exponent_past_int64_is_a_usage_error(tmp_path, capsys):
    body = {"schema": "kernel/1", **unit_expr(Bergman(1)).to_json_dict()}
    body["terms"][0]["exps"] = {"z1": 2**63}
    kf = write_json(tmp_path, "k.json", body)
    assert run(["compose", "--left", kf, "--right", kf]) == 2
    assert capsys.readouterr().err == f"fockcalc: error: {kf}: invalid kernel payload: exponent out of range\n"


def test_geometry_number_past_float_range_names_its_field(tmp_path, capsys, geom_data):
    # an int too large for a float used to end in "int too large to convert to float"
    body = geom_data.to_json_dict()
    body["samples"][0]["kappa"] = 10**400
    gf = write_json(tmp_path, "geom.json", body)
    assert run(["constants", "--geom", gf, "--which", "c0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{gf}: invalid geometry payload: kappa of sample 'p0' must be finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_a_usage_error(capsys, tol):
    # a NaN tolerance used to fail every check (exit 1) or reach the output
    assert run(["defect-check", "--max-n", "0", "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--tol must be positive and finite" in err


@pytest.mark.parametrize(
    "command, payload, edit",
    [
        ("compose", "kernel", lambda d: d["terms"][0]["exps"].update({"z1": math.inf})),
        ("compose", "kernel", lambda d: d["dims"].update({"n": -math.inf})),
        ("compose", "kernel", lambda d: d["terms"][0].update({"exps": None})),
        ("constants", "geom", lambda d: d["samples"].append(["id"])),
        ("constants", "geom", lambda d: d["samples"][0]["normal_dirs"].append(None)),
        ("constants", "geom", lambda d: d.update({"dims": [0, math.inf]})),
    ],
    ids=["inf-exponent", "inf-dims", "null-exps", "list-sample", "null-direction", "inf-chain"],
)
def test_malformed_payload_values_are_usage_errors(tmp_path, capsys, geom_data, command, payload, edit):
    # int(inf) raised OverflowError and a non-object term or sample raised
    # AttributeError; both escaped the loaders as tracebacks
    doc = {
        "kernel": {"schema": "kernel/1", **unit_expr(Bergman(1)).to_json_dict()},
        "geom": geom_data.to_json_dict(),
    }[payload]
    edit(doc)
    path = write_json(tmp_path, "in.json", doc)
    argv = {"compose": ["--left", path, "--right", path], "constants": ["--geom", path, "--which", "c0"]}
    assert run([command, *argv[command]]) == 2
    assert capsys.readouterr().err.count("\n") == 1


INTEGER_FIELD_EDITS = {
    "kernel-exponent": ("compose", "kernel", lambda d: d["terms"][0]["exps"].update({"z1": 1.5}), "exponent of z1"),
    "kernel-dims-n": ("compose", "kernel", lambda d: d["dims"].update({"n": 1.9}), "dims n"),
    "symbol-hol-fraction": ("toeplitz-leading", "symbol", lambda d: d["terms"][0].update({"hol": [1.5]}), "symbol hol"),
    "symbol-hol-bool": ("toeplitz-leading", "symbol", lambda d: d["terms"][0].update({"hol": [True]}), "symbol hol"),
    "symbol-n-string": ("toeplitz-leading", "symbol", lambda d: d.update({"n": "1"}), "n must"),
    "symbol-n-fraction": ("toeplitz-leading", "symbol", lambda d: d.update({"n": 1.7}), "n must"),
    "geom-dims": ("constants", "geom", lambda d: d.update({"dims": [0, 1.5]}), "dims entry"),
    "geom-fiber-rank": ("constants", "geom", lambda d: d.update({"fiber_rank": 1.5}), "fiber_rank"),
}


def _integer_field_run(tmp_path, geom_data, command, payload, edit):
    doc = {
        "kernel": {"schema": "kernel/1", **unit_expr(Bergman(1)).to_json_dict()},
        "symbol": {"schema": "symbol/1", **Symbol.monomial(1, 0, (1,), (1,)).to_json_dict()},
        "geom": geom_data.to_json_dict(),
    }[payload]
    edit(doc)
    path = write_json(tmp_path, "in.json", doc)
    return run(
        {
            "compose": ["compose", "--left", path, "--right", path],
            "toeplitz-leading": ["toeplitz-leading", "--kind", "YY", "--symbol", path],
            "constants": ["constants", "--geom", path, "--which", "c0"],
        }[command]
    )


@pytest.mark.parametrize("case", sorted(INTEGER_FIELD_EDITS))
def test_non_integer_fields_are_usage_errors(tmp_path, capsys, geom_data, case):
    # each of these used to exit 0 with the field read as int(value)
    command, payload, edit, field = INTEGER_FIELD_EDITS[case]
    assert _integer_field_run(tmp_path, geom_data, command, payload, edit) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err and "must be an integer" in err


@pytest.mark.parametrize(
    "command, payload, edit",
    [
        ("compose", "kernel", lambda d: d["terms"][0]["exps"].update({"z1": 2.0})),
        ("toeplitz-leading", "symbol", lambda d: d.update({"n": 1.0})),
        ("constants", "geom", lambda d: d.update({"dims": [0.0, 1.0, 2.0]})),
    ],
    ids=["kernel-exponent", "symbol-n", "geom-dims"],
)
def test_integral_floats_are_accepted(tmp_path, capsys, geom_data, command, payload, edit):
    assert _integer_field_run(tmp_path, geom_data, command, payload, edit) == 0
    json.loads(capsys.readouterr().out)


def test_help_exits_clean(capsys):
    assert run(["--help"]) == 0
    assert "compose" in capsys.readouterr().out
    assert run([]) == 2  # a subcommand is required


def test_constants_help_names_the_geometry_schema(capsys):
    assert run(["constants", "--help"]) == 0
    assert f"(schema {GEOM_SCHEMA})" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,prefix",
    [
        ([], "fockcalc: error: "),
        (["nonsense"], "fockcalc: error: "),
        (["compose"], "fockcalc compose: error: "),
        (["oracle-check", "--left", "a.json"], "fockcalc oracle-check: error: "),
        (["spectrum", "--input", "m.json", "--out"], "fockcalc spectrum: error: "),
        (["toeplitz-leading", "--kind", "XX", "--symbol", "s.json"], "fockcalc toeplitz-leading: error: "),
        (["constants", "--geom", "g.json", "--which", "c1"], "fockcalc constants: error: "),
        (["defect-check", "--bogus"], "fockcalc: error: "),
        (["defect-check", "--tol", "x"], "fockcalc defect-check: error: "),
    ],
)
def test_usage_errors_are_one_line(capsys, argv, prefix):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(prefix)


@pytest.mark.skipif(shutil.which("fockcalc") is None, reason="console script not installed")
def test_console_script_entry_point(tmp_path):
    mf = write_json(tmp_path, "m.json", matrix_json(np.diag([2.0, 1.0])))
    proc = subprocess.run(
        ["fockcalc", "spectrum", "--input", mf],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eigenvalues"] == [1.0, 2.0]


@pytest.mark.parametrize("module", ["fockcalc", "fockcalc.cli"])
def test_python_dash_m_runs_selftest(module):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", module, "selftest"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("selftest: 9/9 passed")


def run_python(code: str, cwd) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd, env=env)


@pytest.mark.parametrize(
    "command,unused",
    [
        ("compose", {"oracle", "operators", "geometry"}),
        ("spectrum", {"oracle", "operators", "kernels", "compose", "poly", "geometry"}),
        ("toeplitz-leading", {"oracle"}),
        ("defect-check", {"oracle"}),
        ("constants", {"oracle", "operators", "kernels", "compose", "poly"}),
    ],
)
def test_command_loads_only_the_modules_it_uses(tmp_path, geom_data, command, unused):
    lf = kernel_file(tmp_path, "l.json", unit_expr(Bergman(1)))
    mf = write_json(tmp_path, "m.json", matrix_json(np.diag([2.0, 1.0])))
    sf = symbol_file(tmp_path, "g.json", Symbol.monomial(1, 0, (1,), (1,)))
    gf = geom_file(tmp_path, "geom.json", geom_data)
    argv = {
        "compose": ["compose", "--left", lf, "--right", lf],
        "spectrum": ["spectrum", "--input", mf],
        "constants": ["constants", "--geom", gf, "--which", "c0"],
        "toeplitz-leading": ["toeplitz-leading", "--kind", "YY", "--symbol", sf],
        "defect-check": ["defect-check", "--max-n", "1"],
    }[command]
    code = (
        "import sys\n"
        "import fockcalc.cli\n"
        f"assert fockcalc.cli.run({argv!r} + ['--out', 'out.json']) == 0\n"
        "print(*sorted(m[9:] for m in sys.modules if m.startswith('fockcalc.')))\n"
        "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    modules, numpy_extras = proc.stdout.splitlines()
    loaded = set(modules.split())
    masked, polynomial = numpy_extras.split()
    assert masked == "False", f"{command} imported numpy.ma"  # ~1 MB and its import time
    assert polynomial == "False", f"{command} imported numpy.polynomial"  # only Gauss rules need it
    assert {"cli", "fields", "arrays"} <= loaded
    unused = unused | {"checks"}  # selftest's module, loaded by selftest alone
    assert not loaded & unused, f"{command} loaded {sorted(loaded & unused)}"
    assert (tmp_path / "out.json").is_file()


def test_selftest_loads_its_checks(tmp_path):
    code = (
        "import sys\n"
        "import fockcalc.cli\n"
        "assert fockcalc.cli.run(['selftest', '--out', 'out.txt']) == 0\n"
        "print('fockcalc.checks' in sys.modules)\n"
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
    assert (tmp_path / "out.txt").read_text().endswith("selftest: 9/9 passed\n")


# -- the read stage: flags and files are checked before numpy is loaded ----------------


@pytest.mark.parametrize(
    "code",
    ["import fockcalc", "import fockcalc.cli", "from fockcalc.cli import run; run(['--help'])"],
    ids=["package", "cli", "help"],
)
def test_import_and_help_load_no_numpy(tmp_path, code):
    proc = run_python(f"import sys\n{code}\nprint('numpy' in sys.modules)\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# case -> (argv, a fragment of the one stderr line, whether numpy is loaded by then)
READ_STAGE_ERRORS = {
    "truncated JSON": (["compose", "--left", "truncated.json", "--right", "k.json"], "malformed JSON in", False),
    "wrong schema": (["compose", "--left", "k9.json", "--right", "k.json"], "'kernel/9' does not match", False),
    "missing file": (["oracle-check", "--left", "absent.json", "--right", "k.json"], "cannot read absent.json", False),
    "negative tol": (["oracle-check", "--left", "k.json", "--right", "k.json", "--tol", "-1"], "--tol must be", False),
    "no matrix field": (["spectrum", "--input", "no_matrix.json"], "missing 'matrix' field", False),
    "symbol schema": (["toeplitz-leading", "--kind", "YY", "--symbol", "k.json"], "expected 'symbol/1'", False),
    "geometry schema": (["constants", "--geom", "s.json", "--which", "c3c4"], "expected 'geom/1'", False),
    "scalar-matrix": (["spectrum", "--input", "scalar.json"], "'matrix' must be a list of rows", False),
    "dp3-direction": (
        ["constants", "--geom", "geom.json", "--which", "dp3", "--direction", '{"d1": ["a", 1]}'],
        "--direction value for 'd1'",
        False,
    ),
    # flags the command would ignore
    "c0-direction": (
        ["constants", "--geom", "geom.json", "--which", "c0", "--direction", '{"d1": 1.0}'],
        "--direction only applies to direction contractions (dp3, tower)",
        False,
    ),
    "c3c4-sample": (["constants", "--geom", "geom.json", "--which", "c3c4", "--sample", "p0"], "--sample only applies to dp3", False),
    "tower-sample": (
        ["constants", "--geom", "geom.json", "--which", "tower", "--direction", '{"d1": 1.0}', "--sample", "p0"],
        "--sample only applies to dp3",
        False,
    ),
    "chain-max-n": (
        ["defect-check", "--n", "2", "--l", "1", "--m", "0", "--max-n", "3"],
        "--max-n only applies without a chain (--n, --l, --m)",
        False,
    ),
    # these need numbers to find the error
    "unsupported pair": (["compose", "--left", "r.json", "--right", "r.json"], "middle dimension mismatch", True),
    "not hermitian": (["spectrum", "--input", "skew.json"], "not Hermitian", True),
    "nan-coefficient": (["compose", "--left", "nan.json", "--right", "k.json"], "non-finite coefficient", True),
}


@pytest.mark.parametrize("case", list(READ_STAGE_ERRORS))
def test_usage_errors_exit_before_numpy_where_no_number_is_needed(tmp_path, geom_data, case):
    argv, fragment, numeric = READ_STAGE_ERRORS[case]
    body = {"schema": "kernel/1", **unit_expr(Bergman(1)).to_json_dict()}
    kernel_file(tmp_path, "k.json", unit_expr(Bergman(1)))
    kernel_file(tmp_path, "r.json", unit_expr(Restriction(2, 1)))
    write_json(tmp_path, "k9.json", {**body, "schema": "kernel/9"})
    (tmp_path / "truncated.json").write_text('{"schema": "kernel/1", "dims": ')
    write_json(tmp_path, "nan.json", {**body, "terms": [{"exps": {"z1": 1}, "coef": [[[math.nan, 0.0]]]}]})
    write_json(tmp_path, "no_matrix.json", {"schema": "matrix/1"})
    write_json(tmp_path, "scalar.json", {"schema": "matrix/1", "matrix": 5})
    write_json(tmp_path, "skew.json", matrix_json(np.array([[1.0, 2.0], [0.0, 1.0]])))
    symbol_file(tmp_path, "s.json", Symbol.monomial(1, 0, (1,), (1,)))
    geom_file(tmp_path, "geom.json", geom_data)
    code = f"import sys\nfrom fockcalc.cli import run\nprint(run({argv!r}), 'numpy' in sys.modules)\n"
    proc = run_python(code, tmp_path)
    assert proc.stdout == f"2 {numeric}\n", proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("fockcalc: error: ")
    assert fragment in proc.stderr
