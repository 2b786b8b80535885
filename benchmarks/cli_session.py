"""cli_session: one ``fockcalc`` process per op, run one after another.

This is the per-call cost a scripted user pays: interpreter start and
import take most of each call, the rest is argparse, JSON parse and emit,
an uncached ``gauss_hermite`` and the Jacobi eigensolver.  The CLI is
started as ``python -c "from fockcalc.cli import main; main()"`` because
``python -m fockcalc`` does not work.

Four ops fail every time because of program faults, on inputs that do not
depend on the seed; they stay in the list and count as failed until a fix
lands (see ``FAULTS``).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from fockcalc import (
    GeometryData,
    GeometrySample,
    KernelExpr,
    NormalDirection,
    oracle_compose,
)

from common import Op, Workload, child_env, process_reference
from inputs import CHAINS, Source, factor_pair, hermitian, kind_pairs, own_lambda, random_symbol

PI = math.pi
CLI = "from fockcalc.cli import main; main()"
SPECTRUM_TOL = 1e-10
CONST_TOL = 1e-10
LAMBDA_TOL = 1e-12
# Sizes of the seeded spectrum matrices.  Larger random Hermitian matrices
# make hermitian_eigs fail on some seeds and not others (see FAULTS), and a
# failure that depends on the seed cannot be counted the same in every run.
SPECTRUM_SIZES = (2, 3, 3, 2, 3, 2, 2, 3)
COMPOSE_PAIRS = 8
ORACLE_PAIRS = 6
TOEPLITZ = (
    ("YY", 1, 0, 1),
    ("XY_even", 2, 1, 1),
    ("YX_odd", 2, 1, 2),
    ("XY_odd", 1, 0, 2),
    ("YX_even", 3, 1, 1),
    ("YY", 2, 0, 2),
)

# The known faults: op name -> what goes wrong.  Their inputs are fixed.
FAULTS = {
    "spectrum fault: jacobi-16": "hermitian_eigs cannot meet its stopping test",
    "constants fault: dp3-direction": "--direction value ['a', 1] raises a traceback",
    "spectrum fault: scalar-matrix": "a scalar 'matrix' raises a traceback",
    "compose fault: nan-coefficient": "a NaN coefficient is accepted and emitted",
}


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    rss_kb: int


def run_cli(workdir: Path, tag: str, argv: list[str]) -> CliResult:
    """Run one CLI process to completion; its peak RSS comes from wait4."""
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI, *argv],
            stdout=out,
            stderr=err,
            cwd=workdir,
            env=child_env(),
        )
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss)


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def strict_json(data: bytes):
    """Parse output as JSON proper: NaN and Infinity are not JSON."""
    return json.loads(data, parse_constant=_reject_constant)


def judge_ok(res: CliResult) -> str | None:
    """A valid request: exit 0 and strict JSON on stdout (selftest prints text)."""
    if res.code != 0:
        return f"exit {res.code}: {res.stderr.decode(errors='replace').strip()[-200:]}"
    return None


def judge_json(res: CliResult) -> str | None:
    err = judge_ok(res)
    if err:
        return err
    try:
        strict_json(res.stdout)
    except ValueError as e:
        return f"exit 0 but stdout is not JSON: {e}"
    return None


def judge_usage_error(res: CliResult) -> str | None:
    """Malformed input: exit 2 with one stderr line and no traceback."""
    lines = res.stderr.decode(errors="replace").splitlines()
    if res.code != 2:
        return f"exit {res.code}, want 2; stderr ends {lines[-1:] if lines else []}"
    if len(lines) != 1 or "Traceback" in res.stderr.decode(errors="replace"):
        return f"exit 2 but {len(lines)} stderr lines"
    return None


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


def _kernel_file(path: Path, e: KernelExpr) -> None:
    _write(path, {"schema": "kernel/1", **e.to_json_dict()})


def _matrix_json(M: np.ndarray) -> dict:
    return {"schema": "matrix/1", "matrix": [[[v.real, v.imag] for v in row] for row in M]}


def _geometry(src: Source, n_samples: int, fiber_rank: int) -> GeometryData:
    samples = []
    for s in range(n_samples):
        dirs = []
        for d, level in enumerate(("WY", "WY", "XW")):
            A = src.value.normal(size=(fiber_rank,) * 2) + 1j * src.value.normal(size=(fiber_rank,) * 2)
            dirs.append(
                NormalDirection(
                    id=f"d{d + 1}",
                    level=level,
                    d_scal_diff=float(src.value.normal()) * 8.0 * PI,
                    nabla_lambda_diff=A,
                )
            )
        lam = {}
        for which in ("X", "Y"):
            H = hermitian(src.value, fiber_rank)
            lam[which] = 2j * PI * H  # stored so that V / (2 pi i) is Hermitian
        samples.append(
            GeometrySample(
                id=f"s{s}",
                scal_X=float(src.value.normal()) * 16.0 * PI,
                scal_Y=float(src.value.normal()) * 16.0 * PI,
                lambda_RF_X=lam["X"],
                lambda_RF_Y=lam["Y"],
                kappa=float(src.value.uniform(0.5, 2.0)),
                normal_dirs=tuple(dirs),
            )
        )
    return GeometryData(dims=(0, 1, 2), fiber_rank=fiber_rank, samples=tuple(samples))


def write_inputs(seed: int, workdir: Path) -> dict:
    """Write every input file of the session; returns what the checks need."""
    workdir.mkdir(parents=True, exist_ok=True)
    src = Source(seed, 3)
    info: dict = {"symbols": {}}
    for i in range(max(COMPOSE_PAIRS, ORACLE_PAIRS)):
        chain = CHAINS[(3 * i + 2) % len(CHAINS)]
        k1, k2 = kind_pairs(*chain)[(3 * i) % 10]
        rank = 1 + i % 2
        e1, e2 = (
            KernelExpr(f[0].mul(f[1]), k)
            for k, f in ((k1, factor_pair(src, k1, rank, i)), (k2, factor_pair(src, k2, rank, i + 5)))
        )
        _kernel_file(workdir / f"left{i}.json", e1)
        _kernel_file(workdir / f"right{i}.json", e2)
    for j, (kind, n, m, rank) in enumerate(TOEPLITZ):
        g, terms = random_symbol(src, n, m, rank, 3, one_parity=True)
        _write(workdir / f"symbol{j}.json", {"schema": "symbol/1", **g.to_json_dict()})
        info["symbols"][j] = (terms, rank)
    geom_a = _geometry(src, 3, 1)
    geom_b = _geometry(src, 3, 3)
    _write(workdir / "geom_a.json", geom_a.to_json_dict())
    _write(workdir / "geom_b.json", geom_b.to_json_dict())
    direction = {"d1": [float(src.value.normal()), float(src.value.normal())], "d3": 0.5}
    info["direction"] = direction
    for j, size in enumerate(SPECTRUM_SIZES):
        M = hermitian(src.value, size)
        _write(workdir / f"matrix{j}.json", _matrix_json(M))

    # Malformed inputs (exit 2 expected) and the fixed inputs of the faults.
    (workdir / "truncated.json").write_text('{"schema": "kernel/1", "dims": ')
    _write(workdir / "wrong_schema.json", {"schema": "kernel/9"})
    _write(workdir / "no_matrix.json", {"schema": "matrix/1"})
    _write(workdir / "not_hermitian.json", _matrix_json(np.array([[1.0, 2.0], [0.0, 1.0]])))
    _write(workdir / "fault_jacobi.json", _matrix_json(hermitian(np.random.default_rng(1), 16)))
    _write(workdir / "fault_scalar.json", {"schema": "matrix/1", "matrix": 5})
    _write(workdir / "fault_geom.json", _geometry(Source(0, 4), 1, 1).to_json_dict())
    nan_kernel = {
        "schema": "kernel/1",
        "dims": {"n": 1, "l": 1, "m": 1, "fiber_rank": 1},
        "kind": "Bergman",
        "terms": [{"exps": {"z1": 1}, "coef": [[[float("nan"), 0.0]]]}],
    }
    (workdir / "fault_nan.json").write_text(json.dumps(nan_kernel))
    return info


def op_list(info: dict) -> list[tuple[str, list[str], object]]:
    """(name, argv, judge) for one pass, in run order."""
    direction = json.dumps(info["direction"])
    ops = []
    for i in range(COMPOSE_PAIRS):
        ops.append((f"compose pair{i}", ["compose", "--left", f"left{i}.json", "--right", f"right{i}.json"], judge_json))
    ops.append(("compose pair0 repeat", ["compose", "--left", "left0.json", "--right", "right0.json"], judge_json))
    for i in range(ORACLE_PAIRS):
        argv = ["oracle-check", "--left", f"left{i}.json", "--right", f"right{i}.json"]
        ops.append((f"oracle-check pair{i}", argv + (["--nodes", "24"] if i % 2 else []), judge_json))
    for j, (kind, *_rest) in enumerate(TOEPLITZ):
        ops.append((f"toeplitz-leading {kind} #{j}", ["toeplitz-leading", "--kind", kind, "--symbol", f"symbol{j}.json"], judge_json))
    ops.append(("constants c0", ["constants", "--geom", "geom_a.json", "--which", "c0"], judge_json))
    ops.append(("constants c3c4 a", ["constants", "--geom", "geom_a.json", "--which", "c3c4"], judge_json))
    ops.append(("constants c3c4 b", ["constants", "--geom", "geom_b.json", "--which", "c3c4"], judge_json))
    ops.append(("constants dp3", ["constants", "--geom", "geom_a.json", "--which", "dp3", "--direction", direction], judge_json))
    ops.append(("constants tower", ["constants", "--geom", "geom_a.json", "--which", "tower", "--direction", direction], judge_json))
    for j, size in enumerate(SPECTRUM_SIZES):
        ops.append((f"spectrum {size}x{size} #{j}", ["spectrum", "--input", f"matrix{j}.json"], judge_json))
    ops.append(("defect-check max-n 3", ["defect-check", "--max-n", "3"], judge_json))
    ops.append(("defect-check n3 l2 m1", ["defect-check", "--n", "3", "--l", "2", "--m", "1"], judge_json))
    ops.append(("selftest", ["selftest"], judge_ok))
    malformed = [
        ("malformed: truncated JSON", ["compose", "--left", "truncated.json", "--right", "right0.json"]),
        ("malformed: wrong schema", ["compose", "--left", "wrong_schema.json", "--right", "right0.json"]),
        ("malformed: missing file", ["oracle-check", "--left", "absent.json", "--right", "right0.json"]),
        ("malformed: negative tol", ["oracle-check", "--left", "left0.json", "--right", "right0.json", "--tol", "-1"]),
        ("malformed: unsupported pair", ["compose", "--left", "right1.json", "--right", "left3.json"]),
        ("malformed: not hermitian", ["spectrum", "--input", "not_hermitian.json"]),
        ("malformed: no matrix field", ["spectrum", "--input", "no_matrix.json"]),
        ("malformed: symbol schema", ["toeplitz-leading", "--kind", "YY", "--symbol", "left0.json"]),
        ("malformed: geometry schema", ["constants", "--geom", "symbol0.json", "--which", "c3c4"]),
    ]
    ops += [(name, argv, judge_usage_error) for name, argv in malformed]
    ops += [
        ("spectrum fault: jacobi-16", ["spectrum", "--input", "fault_jacobi.json"], judge_json),
        ("constants fault: dp3-direction", ["constants", "--geom", "fault_geom.json", "--which", "dp3", "--direction", '{"d1": ["a", 1]}'], judge_usage_error),
        ("spectrum fault: scalar-matrix", ["spectrum", "--input", "fault_scalar.json"], judge_usage_error),
        ("compose fault: nan-coefficient", ["compose", "--left", "fault_nan.json", "--right", "fault_nan.json"], judge_usage_error),
    ]
    return ops


# -- independent recomputations for the checks ------------------------------


def _matrix(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _direction_matrix(d: dict, r: int) -> np.ndarray:
    return (d["d_scal_diff"] / (8.0 * PI)) * np.eye(r) + (1j / (2.0 * PI)) * _matrix(d["nabla_lambda_diff"])


def _own_dp3(geom: dict, direction: dict, tower: bool) -> np.ndarray:
    r = geom["fiber_rank"]
    coefs = {k: complex(*v) if isinstance(v, list) else complex(v) for k, v in direction.items()}
    acc = np.zeros((r, r), dtype=complex)
    for sample in geom["samples"] if tower else geom["samples"][:1]:
        for d in sample["normal_dirs"]:
            if d["id"] in coefs and (tower or d["level"] == "WY"):
                acc += coefs[d["id"]] * _direction_matrix(d, r)
    return acc


def _own_c0(geom: dict) -> float:
    """Fiber rank 1: the tensor norm is the Euclidean norm of the WY entries."""
    best = max(
        float(np.linalg.norm([_direction_matrix(d, 1)[0, 0] for d in s["normal_dirs"] if d["level"] == "WY"]))
        for s in geom["samples"]
    )
    return best / math.sqrt(PI)


def _own_c3c4(geom: dict) -> tuple[float, float]:
    low, high = math.inf, -math.inf
    for s in geom["samples"]:
        sv = (s["scal_X"] - s["scal_Y"]) / (8.0 * PI)
        H = (_matrix(s["lambda_RF_X"]) - _matrix(s["lambda_RF_Y"])) / (2j * PI)
        eigs = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
        low, high = min(low, sv - eigs[-1]), max(high, sv - eigs[0])
    return -0.5 * low, 0.5 * high


def _rel(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def check_outputs(ops, results: list, workdir: Path, info: dict) -> list[str]:
    """Check every output of one pass against independent computations."""
    errors: list[str] = []
    by_name = {name: res for (name, _argv, _judge), res in zip(ops, results)}

    def out(name):
        res = by_name.get(name)
        return None if res is None else strict_json(res.stdout)

    def load(path):
        return json.loads((workdir / path).read_text())

    first, repeat = by_name.get("compose pair0"), by_name.get("compose pair0 repeat")
    if first is not None and repeat is not None and first.stdout != repeat.stdout:
        errors.append("compose pair0: identical input gave different bytes")
    for i in range(COMPOSE_PAIRS):
        payload = out(f"compose pair{i}")
        if payload is None:
            continue
        e1 = KernelExpr.from_json_dict({k: v for k, v in load(f"left{i}.json").items() if k != "schema"})
        e2 = KernelExpr.from_json_dict({k: v for k, v in load(f"right{i}.json").items() if k != "schema"})
        got = KernelExpr.from_json_dict({k: v for k, v in payload["result"].items() if k != "schema"})
        rep = oracle_compose(e1, e2, expected=got)
        if not rep.passed:
            errors.append(f"compose pair{i}: output off quadrature by {rep.max_rel:.2e}")
    for i in range(ORACLE_PAIRS):
        payload = out(f"oracle-check pair{i}")
        if payload is not None and not (payload["report"]["pass"] and payload["report"]["max_rel"] <= payload["tol"]):
            errors.append(f"oracle-check pair{i}: report {payload['report']}")
    for j, (kind, *_rest) in enumerate(TOEPLITZ):
        payload = out(f"toeplitz-leading {kind} #{j}")
        if payload is None:
            continue
        terms, rank = info["symbols"][j]
        family = kind.split("_")[0]
        want = own_lambda(terms, family)
        if payload["value_type"] == "matrix":
            got = {None: _matrix(payload["value"])}
        else:
            got = {
                (tuple(t["hol"]), tuple(t["antihol"])): _matrix(t["coef"]) for t in payload["value"]["terms"]
            }
        zero = np.zeros((rank, rank))
        for key in set(got) | set(want):
            if _rel(got.get(key, zero), want.get(key, zero)) > LAMBDA_TOL:
                errors.append(f"toeplitz-leading {kind} #{j}: term {key} off own contraction")
    geom_a = load("geom_a.json")
    payload = out("constants c0")
    if payload is not None and _rel(payload["C0"], _own_c0(geom_a)) > CONST_TOL:
        errors.append(f"constants c0: {payload['C0']} != own {_own_c0(geom_a)}")
    for tag, path in (("a", "geom_a.json"), ("b", "geom_b.json")):
        payload = out(f"constants c3c4 {tag}")
        if payload is not None and _rel([payload["C3"], payload["C4"]], _own_c3c4(load(path))) > CONST_TOL:
            errors.append(f"constants c3c4 {tag}: {payload['C3']}, {payload['C4']} != own {_own_c3c4(load(path))}")
    for which in ("dp3", "tower"):
        payload = out(f"constants {which}")
        if payload is not None:
            want = _own_dp3(geom_a, info["direction"], which == "tower")
            if _rel(_matrix(payload["matrix"]), want) > CONST_TOL:
                errors.append(f"constants {which}: matrix off own recomputation")
    for j, size in enumerate(SPECTRUM_SIZES):
        payload = out(f"spectrum {size}x{size} #{j}")
        if payload is not None:
            want = np.linalg.eigvalsh(_matrix(load(f"matrix{j}.json")["matrix"]))
            if len(payload["eigenvalues"]) != size or _rel(payload["eigenvalues"], want) > SPECTRUM_TOL:
                errors.append(f"spectrum #{j}: eigenvalues off eigvalsh")
    for name, count in (("defect-check max-n 3", 30), ("defect-check n3 l2 m1", 2)):
        payload = out(name)
        if payload is not None and not (
            payload["pass"] and payload["max_deviation"] <= 1e-12 and len(payload["records"]) == count
        ):
            errors.append(f"{name}: pass={payload['pass']} max={payload['max_deviation']} records={len(payload['records'])}")
    res = by_name.get("selftest")
    if res is not None:
        last = res.stdout.decode().strip().splitlines()[-1]
        done, _, total = last.removeprefix("selftest: ").removesuffix(" passed").partition("/")
        if not (done.isdigit() and done == total and int(total) > 0):
            errors.append(f"selftest: {last!r}")
    return errors


def setup(seed: int, workdir: Path) -> Workload:
    info = write_inputs(seed, workdir)
    ops_spec = op_list(info)
    ops = [
        Op(name, partial(run_cli, workdir, f"op{i}", argv), judge)
        for i, (name, argv, judge) in enumerate(ops_spec)
    ]
    return Workload(
        ops=ops,
        check=lambda results: check_outputs(ops_spec, results, workdir, info),
        reference=process_reference,
        replay_argv={name: argv for name, argv, _ in ops_spec},
        known_faults=FAULTS,
    )


if __name__ == "__main__":
    # Write a session's input files without running it:
    #   python3 benchmarks/cli_session.py <seed> <directory>
    write_inputs(int(sys.argv[1]), Path(sys.argv[2]))
