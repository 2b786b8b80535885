"""Command-line surface: file-based, reproducible access to the calculus.

Subcommands: compose, oracle-check, spectrum, toeplitz-leading, constants,
defect-check, selftest.  All inputs and outputs are JSON with a ``schema``
version field (CSV export exists only for constant tables); exit codes are
0 for pass, 1 for a numerical-check failure, 2 for usage or format errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .poly import DEFAULT_DEGREE_CAP, DegreeOverflowError, Dims, Poly, _coef_to_json, _coef_from_json

# Every command needs ``poly``; the other modules are imported by the
# functions that use them, so a process loads only what its command needs.
if TYPE_CHECKING:
    from .geometry import GeometryData
    from .kernels import KernelExpr
    from .operators import Symbol

PI = math.pi

KERNEL_SCHEMA = "kernel/1"
SYMBOL_SCHEMA = "symbol/1"
MATRIX_SCHEMA = "matrix/1"


class CliError(Exception):
    """Carries the process exit code for input/usage problems."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """Validated shared flags of one invocation."""

    command: str
    tol: float
    seed: int
    nodes: int | None
    degree_cap: int
    out: str | None

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise CliError(f"--tol must be positive and finite, got {self.tol}")
        if self.nodes is not None and self.nodes < 1:
            raise CliError(f"--nodes must be >= 1, got {self.nodes}")
        if self.degree_cap < 0:
            raise CliError(f"--degree-cap must be >= 0, got {self.degree_cap}")


# -- helpers ---------------------------------------------------------------------


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"malformed JSON in {path}: {e}")
    if not isinstance(data, dict):
        raise CliError(f"top-level JSON in {path} must be an object")
    return data


def _strip_schema(d: dict, expected: str, path: str) -> dict:
    got = d.get("schema")
    if got != expected:
        raise CliError(f"{path}: schema {got!r} does not match expected {expected!r}")
    return {k: v for k, v in d.items() if k != "schema"}


def _load_kernel(path: str) -> KernelExpr:
    from .kernels import KernelExpr

    body = _strip_schema(_read_json(path), KERNEL_SCHEMA, path)
    try:
        return KernelExpr.from_json_dict(body)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise CliError(f"{path}: invalid kernel payload: {e}")


def _load_symbol(path: str) -> Symbol:
    from .operators import Symbol

    body = _strip_schema(_read_json(path), SYMBOL_SCHEMA, path)
    try:
        return Symbol.from_json_dict(body)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise CliError(f"{path}: invalid symbol payload: {e}")


def _load_geometry(path: str) -> GeometryData:
    from .geometry import GeometryData

    try:
        return GeometryData.from_json_dict(_read_json(path))
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise CliError(f"{path}: invalid geometry payload: {e}")


def _kernel_json(e: KernelExpr) -> dict:
    return {"schema": KERNEL_SCHEMA, **e.to_json_dict()}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as e:
        raise CliError(f"result is not finite: {e}")
    _emit(text + "\n", out)


def _parse_direction(text: str | None) -> dict[str, complex]:
    if text is None:
        raise CliError("--direction is required for dp3 and tower")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"--direction is not valid JSON: {e}")
    if not isinstance(raw, dict) or not raw:
        raise CliError("--direction must be a non-empty JSON object of id -> coefficient")
    out: dict[str, complex] = {}
    for key, val in raw.items():
        parts = [val, 0.0] if isinstance(val, (int, float)) else val
        z = None
        if isinstance(parts, list) and len(parts) == 2:
            try:
                z = complex(float(parts[0]), float(parts[1]))
            except (TypeError, ValueError, OverflowError):
                pass
        if z is None or not np.isfinite(z):
            raise CliError(f"--direction value for {key!r} must be a finite number or [re, im]")
        out[str(key)] = z
    return out


# -- subcommands -------------------------------------------------------------------


def _cmd_compose(cfg: RunConfig, args) -> int:
    from .compose import UnsupportedCompositionError, compose, compose_plan

    e1, e2 = _load_kernel(args.left), _load_kernel(args.right)
    try:
        plan = compose_plan(e1.kind, e2.kind)
        # a result kind without a kernel/1 name cannot be written
        result = _kernel_json(compose(e1, e2, degree_cap=cfg.degree_cap))
    except (UnsupportedCompositionError, DegreeOverflowError, ValueError) as e:
        raise CliError(str(e))
    _emit_json({"schema": "compose/1", "plan": plan.to_json_dict(), "result": result}, cfg.out)
    return 0


def _cmd_oracle_check(cfg: RunConfig, args) -> int:
    from .compose import UnsupportedCompositionError, compose_plan
    from .oracle import QuadGrid, default_eval_points, oracle_compose

    if args.points < 1:
        raise CliError(f"--points must be >= 1, got {args.points}")
    e1, e2 = _load_kernel(args.left), _load_kernel(args.right)
    try:
        plan = compose_plan(e1.kind, e2.kind)
        grid = None
        if cfg.nodes is not None:
            grid = QuadGrid(nodes_per_axis=cfg.nodes, n=e1.kind.dp)
        points = default_eval_points(e1.kind, e2.kind, count=args.points)
        report = oracle_compose(e1, e2, grid=grid, eval_points=points, rel_tol=cfg.tol)
    except (UnsupportedCompositionError, DegreeOverflowError, ValueError) as e:
        raise CliError(str(e))
    _emit_json(
        {
            "schema": "oracle/1",
            "plan": plan.to_json_dict(),
            "tol": cfg.tol,
            "report": report.to_json_dict(),
        },
        cfg.out,
    )
    return 0 if report.passed else 1


def _cmd_spectrum(cfg: RunConfig, args) -> int:
    from .geometry import hermitian_eigs

    body = _strip_schema(_read_json(args.input), MATRIX_SCHEMA, args.input)
    raw = body.get("matrix")
    if raw is None:
        raise CliError(f"{args.input}: missing 'matrix' field")
    if not isinstance(raw, list):
        raise CliError(f"{args.input}: 'matrix' must be a list of rows")
    r = len(raw)
    try:
        H = _coef_from_json(raw, r)
        vals = hermitian_eigs(H)
    except (ValueError, TypeError, RuntimeError) as e:
        raise CliError(f"{args.input}: {e}")
    _emit_json(
        {"schema": "spectrum/1", "eigenvalues": [float(v) for v in vals]},
        cfg.out,
    )
    return 0


def _cmd_toeplitz_leading(cfg: RunConfig, args) -> int:
    from .operators import Symbol, _effective_kind, toeplitz_leading

    g = _load_symbol(args.symbol)
    try:
        value = toeplitz_leading(args.kind, g)
    except (ValueError, AssertionError) as e:
        raise CliError(str(e))
    effective = _effective_kind(args.kind, g)
    payload: dict = {
        "schema": "toeplitz/1",
        "kind": args.kind,
        "effective_kind": effective,
        "order": 1 if effective.endswith("odd") else 0,
    }
    if isinstance(value, Symbol):
        payload["value_type"] = "symbol"
        payload["value"] = {"schema": SYMBOL_SCHEMA, **value.to_json_dict()}
    else:
        payload["value_type"] = "matrix"
        payload["value"] = _coef_to_json(value)
    _emit_json(payload, cfg.out)
    return 0


def _cmd_constants(cfg: RunConfig, args) -> int:
    from .geometry import c0, c3_c4, dp3, tower_dp3

    data = _load_geometry(args.geom)
    which = args.which
    csv_rows: list[tuple[str, float, str]] | None = None
    if which == "c0":
        res = c0(data, seed=cfg.seed)
        payload = {
            "schema": "constants/1",
            "which": "c0",
            "C0": res.value,
            "sample_id": res.sample_id,
        }
        csv_rows = [("C0", res.value, res.sample_id)]
    elif which == "c3c4":
        res34 = c3_c4(data)
        payload = {"schema": "constants/1", "which": "c3c4", **res34.to_json_dict()}
        csv_rows = [
            ("C3", res34.c3, res34.c3_sample_id),
            ("C4", res34.c4, res34.c4_sample_id),
        ]
    elif which in ("dp3", "tower"):
        direction = _parse_direction(args.direction)
        try:
            if which == "dp3":
                mat = dp3(data, direction, sample_id=args.sample)
            else:
                mat = tower_dp3(data.samples, direction, fiber_rank=data.fiber_rank)
        except ValueError as e:
            raise CliError(str(e))
        payload = {"schema": "constants/1", "which": which, "matrix": _coef_to_json(mat)}
    else:  # pragma: no cover - argparse choices guard this
        raise CliError(f"unknown --which {which!r}")
    if args.csv is not None:
        if csv_rows is None:
            raise CliError("--csv only applies to constant tables (c0, c3c4)")
        lines = ["constant,value,sample_id"]
        lines += [f"{name},{value!r},{sid}" for name, value, sid in csv_rows]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    _emit_json(payload, cfg.out)
    return 0


def _cmd_defect_check(cfg: RunConfig, args) -> int:
    from .operators import flat_defect_checks

    if args.max_n < 0:
        raise CliError(f"--max-n must be >= 0, got {args.max_n}")
    explicit = [v is not None for v in (args.n, args.l, args.m)]
    if any(explicit) and not all(explicit):
        raise CliError("--n, --l, --m must be given together")
    records = []
    if all(explicit):
        n, l, m = args.n, args.l, args.m
        if not (0 <= m <= l <= n):
            raise CliError(f"need 0 <= m <= l <= n, got n={n} l={l} m={m}")
        full = flat_defect_checks(max_n=n)
        records = [
            rec
            for rec in full
            if (rec.name == "transitivity" and (rec.n, rec.l, rec.m) == (n, l, m))
            or (rec.name == "adjoint_extension" and (rec.n, rec.m) == (n, m))
        ]
    else:
        records = flat_defect_checks(max_n=args.max_n)
    worst = max((rec.deviation for rec in records), default=0.0)
    passed = worst <= cfg.tol
    _emit_json(
        {
            "schema": "defect/1",
            "tol": cfg.tol,
            "max_deviation": worst,
            "pass": passed,
            "records": [rec.to_json_dict() for rec in records],
        },
        cfg.out,
    )
    return 0 if passed else 1


# -- selftest ----------------------------------------------------------------------


def _selftest_checks(seed: int):
    """Yield (name, callable) pairs; each callable returns (ok, detail)."""
    from .compose import k_base_exact
    from .geometry import (
        GeometryData,
        GeometrySample,
        NormalDirection,
        c0,
        c3_c4,
        dp3,
        hermitian_eigs,
        tower_dp3,
    )
    from .kernels import Bergman, Extension, KernelExpr, Restriction, unit_expr
    from .oracle import laplacian_eigencheck, norm_estimate, oracle_compose
    from .operators import (
        Symbol,
        flat_defect_checks,
        m_op,
        toeplitz_flat_composite,
        toeplitz_predicted_kernel,
    )

    def base_goldens():
        tang = k_base_exact(1, 1, "tangential")
        want_t = {(1, 1): {0: 1}, (0, 0): {1: 1}}
        got_t = {k: {p: int(f) for p, f in v.items()} for k, v in tang.items()}
        norm = k_base_exact(1, 1, "normal")
        got_n = {k: {p: int(f) for p, f in v.items()} for k, v in norm.items()}
        ok = got_t == want_t and got_n == {(0, 0): {1: 1}}
        return ok, f"tangential={got_t} normal={got_n}"

    def compose_oracle():
        dims = Dims(n=2, l=2, m=1)
        a = KernelExpr(
            Poly.monomial(dims, {"z1": 1, "zb'1": 1}, 0.5).add(Poly.one(dims)),
            Bergman(2),
        )
        b = KernelExpr(Poly.monomial(dims, {"zb1": 2}, 1.0), Extension(2, 1))
        report = oracle_compose(a, b)
        return report.passed, f"max_rel={report.max_rel:.2e}"

    def laplacian():
        rep = laplacian_eigencheck((1, 0), (0, 1))
        return rep.passed, f"max_rel={rep.max_rel:.2e}"

    def duality(seed=seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for n, m in ((1, 0), (2, 1), (3, 1)):
            pts = [
                (rng.normal(size=m) + 1j * rng.normal(size=m), rng.normal(size=n) + 1j * rng.normal(size=n))
                for _ in range(60)
            ]
            zy = np.array([p for p, _ in pts]).reshape(60, m)
            w = np.array([q for _, q in pts])
            lhs = unit_expr(Restriction(n, m)).evaluate_batch(zy, w)[:, 0, 0]
            rhs = np.conj(unit_expr(Extension(n, m)).evaluate_batch(w, zy)[:, 0, 0])
            pad = np.hstack([zy, np.zeros((60, n - m))])
            berg = unit_expr(Bergman(n)).evaluate_batch(pad, w)[:, 0, 0]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(lhs - berg))))
        return worst <= 1e-12, f"max_abs={worst:.2e}"

    def flat_defects():
        records = flat_defect_checks(max_n=3)
        worst = max(rec.deviation for rec in records)
        return worst <= 1e-12, f"max_dev={worst:.2e} over {len(records)} chains"

    def toeplitz_table():
        worst = 0.0
        cases = [
            Symbol.monomial(1, 0, (0,), (1,)),
            Symbol.monomial(1, 0, (2,), (0,)),
            Symbol.monomial(1, 0, (2,), (1,)),
            Symbol.monomial(2, 1, (1,), (1,)),
        ]
        for g in cases:
            for family in ("YY", "XY", "YX"):
                got = toeplitz_flat_composite(family, g)
                want = toeplitz_predicted_kernel(family, g)
                worst = max(worst, got.numerator.max_coef_diff(want.numerator))
        return worst <= 1e-10, f"max_dev={worst:.2e}"

    def constants_goldens():
        s_val = 16.0 * PI
        flat_sample = GeometrySample(id="s0", scal_X=s_val, scal_Y=0.0)
        data = GeometryData(dims=(0, 1), samples=(flat_sample,))
        res = c3_c4(data)
        ok1 = abs(res.c3 + 1.0) <= 1e-12 and abs(res.c4 - 1.0) <= 1e-12
        dir_sample = GeometrySample(
            id="y0",
            normal_dirs=(
                NormalDirection(id="d1", level="WY", d_scal_diff=8.0 * PI),
                NormalDirection(id="e1", level="XW", d_scal_diff=3.0),
            ),
        )
        ddata = GeometryData(dims=(0, 1, 2), samples=(dir_sample,))
        ok2 = abs(float(c0(ddata)) - 1.0 / math.sqrt(PI)) <= 1e-12
        zero = dp3(ddata, {"e1": 1.0})
        ok3 = float(np.max(np.abs(zero))) <= 1e-15
        lhs = tower_dp3((dir_sample,), {"d1": 0.5})
        rhs = dp3(ddata, {"d1": 0.5})
        ok4 = float(np.max(np.abs(lhs - rhs))) <= 1e-15
        return ok1 and ok2 and ok3 and ok4, f"c3c4=({res.c3:.6f},{res.c4:.6f})"

    def eigs():
        v1 = hermitian_eigs(np.diag([3.0, 1.0, 2.0]))
        v2 = hermitian_eigs(np.array([[0.0, 1j], [-1j, 0.0]]))
        ok = np.allclose(v1, [1.0, 2.0, 3.0], atol=1e-12) and np.allclose(
            v2, [-1.0, 1.0], atol=1e-12
        )
        return ok, f"diag={v1.tolist()} pauli={v2.tolist()}"

    def model_norm():
        op = m_op(Symbol.monomial(1, 0, (0,), (1,)), p=4.0)
        val = norm_estimate(op, basis_cutoff=8)
        want = 1.0 / (2.0 * math.sqrt(PI))
        return abs(val - want) <= 1e-10, f"norm={val:.10f} want={want:.10f}"

    yield "base_goldens", base_goldens
    yield "compose_oracle", compose_oracle
    yield "laplacian_eigen", laplacian
    yield "duality", duality
    yield "flat_defects", flat_defects
    yield "toeplitz_table", toeplitz_table
    yield "constants_goldens", constants_goldens
    yield "hermitian_eigs", eigs
    yield "model_norm", model_norm


def _cmd_selftest(cfg: RunConfig, args) -> int:
    lines = []
    failures = 0
    total = 0
    for name, check in _selftest_checks(cfg.seed):
        total += 1
        try:
            ok, detail = check()
        except Exception as e:  # a crashed check is a failure, not an abort
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    lines.append(f"selftest: {total - failures}/{total} passed")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line, ``fockcalc <cmd>: error: ...``, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    from .kernels import TOEPLITZ_KINDS

    parser = _Parser(
        prog="fockcalc",
        description="Polynomial Gaussian-kernel calculus: composition, quadrature "
        "oracle, leading terms, and geometric constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, tol_default: float = 1e-9) -> None:
        sp.add_argument("--tol", type=float, default=tol_default, help="numerical tolerance")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        sp.add_argument("--nodes", type=int, default=None, help="quadrature nodes per axis")
        sp.add_argument(
            "--degree-cap",
            dest="degree_cap",
            type=int,
            default=DEFAULT_DEGREE_CAP,
            help="polynomial degree cap",
        )
        sp.add_argument("--out", type=str, default=None, help="write output to this file")

    p = sub.add_parser("compose", help="compose two kernel JSON files symbolically")
    p.add_argument("--left", required=True, help="left kernel JSON file")
    p.add_argument("--right", required=True, help="right kernel JSON file")
    add_common(p)

    p = sub.add_parser("oracle-check", help="compare symbolic composition against quadrature")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--points", type=int, default=5, help="number of evaluation point pairs")
    add_common(p)

    p = sub.add_parser("spectrum", help="eigenvalues of a Hermitian matrix JSON file")
    p.add_argument("--input", required=True, help=f"matrix JSON file (schema {MATRIX_SCHEMA})")
    add_common(p)

    p = sub.add_parser("toeplitz-leading", help="leading term of a basic operator kind")
    p.add_argument("--kind", required=True, choices=list(TOEPLITZ_KINDS))
    p.add_argument("--symbol", required=True, help=f"symbol JSON file (schema {SYMBOL_SCHEMA})")
    add_common(p)

    p = sub.add_parser("constants", help="geometric constants from sampled data")
    # the schema is spelled out so that building the parser does not load geometry
    p.add_argument("--geom", required=True, help="geometry JSON file (schema geom/1)")
    p.add_argument("--which", required=True, choices=["c0", "c3c4", "dp3", "tower"])
    p.add_argument("--direction", default=None, help='JSON object, e.g. \'{"d1": 1.0}\'')
    p.add_argument("--sample", default=None, help="sample id for dp3 (default: first)")
    p.add_argument("--csv", default=None, help="also write a CSV constant table here")
    add_common(p)

    p = sub.add_parser("defect-check", help="flat defect identities")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=4)
    add_common(p, tol_default=1e-12)

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    add_common(p)

    return parser


_DISPATCH = {
    "compose": _cmd_compose,
    "oracle-check": _cmd_oracle_check,
    "spectrum": _cmd_spectrum,
    "toeplitz-leading": _cmd_toeplitz_leading,
    "constants": _cmd_constants,
    "defect-check": _cmd_defect_check,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = RunConfig(
            command=args.command,
            tol=args.tol,
            seed=args.seed,
            nodes=args.nodes,
            degree_cap=args.degree_cap,
            out=args.out,
        )
        return _DISPATCH[args.command](cfg, args)
    except CliError as e:
        sys.stderr.write(f"fockcalc: error: {e}\n")
        return e.code
    except OSError as e:
        sys.stderr.write(f"fockcalc: error: {e}\n")
        return 2


def main() -> None:
    sys.exit(run())


__all__ = ["CliError", "RunConfig", "build_parser", "run", "main"]


if __name__ == "__main__":
    main()
