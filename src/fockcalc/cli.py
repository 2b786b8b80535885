"""Command-line surface: file-based, reproducible access to the calculus.

Subcommands: compose, oracle-check, spectrum, toeplitz-leading, constants,
defect-check, selftest.  All inputs and outputs are JSON with a ``schema``
version field (CSV export exists only for constant tables); exit codes are
0 for pass, 1 for a numerical-check failure, 2 for usage or format errors.
:func:`run` is where every input error, a ``ValueError`` raised anywhere in
a command, becomes one stderr line and exit 2.

A call runs in two stages.  The read stage uses the standard library and
:mod:`.fields` only: it checks the flags, reads each file, parses its JSON,
checks its schema and the fields the command line reads itself (the
``matrix`` rows, ``--direction``).  So a bad flag or file exits before numpy
is loaded.  The compute stage (:func:`_numeric`) loads numpy and the
submodules a command uses, and builds and evaluates the objects.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack
from pathlib import Path

from .fields import DEFAULT_DEGREE_CAP, GEOM_SCHEMA, MAX_NODES, TOEPLITZ_KINDS, _json_list, _json_object, _json_real

KERNEL_SCHEMA = "kernel/1"
SYMBOL_SCHEMA = "symbol/1"
MATRIX_SCHEMA = "matrix/1"


def _check_flags(args) -> None:
    """Validate the shared flags the command declares."""
    tol, seed, nodes, degree_cap = (getattr(args, name, None) for name in ("tol", "seed", "nodes", "degree_cap"))
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {tol}")
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    if nodes is not None and nodes < 1:
        raise ValueError(f"--nodes must be >= 1, got {nodes}")
    if nodes is not None and nodes > MAX_NODES:
        raise ValueError(f"--nodes must be <= {MAX_NODES}, got {nodes}")
    if degree_cap is not None and degree_cap < 0:
        raise ValueError(f"--degree-cap must be >= 0, got {degree_cap}")


def _numeric(stack: ExitStack) -> None:
    """Enter the compute stage: load numpy and silence its floating-point warnings
    until :func:`run` closes ``stack``, as what overflows is rejected where it is
    stored or written."""
    import numpy as np

    stack.enter_context(np.errstate(all="ignore"))


# -- helpers ---------------------------------------------------------------------


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}")
    try:
        data = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer too long to convert
        raise ValueError(f"malformed JSON in {path}: {e}")
    if not isinstance(data, dict):
        raise ValueError(f"top-level JSON in {path} must be an object")
    return data


# schema -> how its payload errors are prefixed after the path
_PAYLOAD_ERRORS = {
    KERNEL_SCHEMA: "invalid kernel payload: ",
    SYMBOL_SCHEMA: "invalid symbol payload: ",
    GEOM_SCHEMA: "invalid geometry payload: ",
    MATRIX_SCHEMA: "",
}


def _load(path: str, schema: str):
    """Read a ``schema`` file, whose ``schema`` field must match: a bad file is a
    usage error.  Returns ``parse``: ``parse(reader)`` is ``reader`` applied to the
    payload, the JSON object without its ``schema`` field (geom/1's reader takes
    the whole object), with the reader's errors named as the file's."""
    data = _read_json(path)
    if data.get("schema") != schema:
        raise ValueError(f"{path}: schema {data.get('schema')!r} does not match expected {schema!r}")
    if schema != GEOM_SCHEMA:
        data = {k: v for k, v in data.items() if k != "schema"}

    def parse(reader):
        try:
            return reader(data)
        except (ValueError, KeyError, TypeError, OverflowError) as e:
            raise ValueError(f"{path}: {_PAYLOAD_ERRORS[schema]}{e}")

    return parse


def _matrix_rows(body: dict) -> list:
    """The rows of a matrix/1 payload."""
    body = _json_object(body, "matrix", ("matrix",))
    if "matrix" not in body:
        raise ValueError("missing 'matrix' field")
    return _json_list(body["matrix"], "'matrix'", "rows")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as e:
        raise ValueError(f"result is not finite: {e}")
    _emit(text + "\n", out)


def _parse_direction(text: str | None) -> dict[str, complex]:
    if text is None:
        raise ValueError("--direction is required for dp3 and tower")
    try:
        raw = json.loads(text)
    except ValueError as e:
        raise ValueError(f"--direction is not valid JSON: {e}")
    if not isinstance(raw, dict) or not raw:
        raise ValueError("--direction must be a non-empty JSON object of id -> coefficient")
    out: dict[str, complex] = {}
    for key, val in raw.items():
        try:
            re, im = val if isinstance(val, list) else (val, 0.0)
            out[key] = complex(_json_real(re, key), _json_real(im, key))
        except ValueError:
            raise ValueError(f"--direction value for {key!r} must be a finite number or [re, im]") from None
    return out


# -- subcommands -------------------------------------------------------------------
#
# Each reads its flags and files first, then enters the compute stage.


def _kernel_pair(args, numeric: ExitStack) -> tuple:
    """Read ``--left`` and ``--right``, enter the compute stage, plan and compose:
    ``(e1, e2, plan, composite)``."""
    left, right = (_load(path, KERNEL_SCHEMA) for path in (args.left, args.right))
    _numeric(numeric)
    from .compose import compose, compose_plan
    from .kernels import KernelExpr

    e1, e2 = left(KernelExpr.from_json_dict), right(KernelExpr.from_json_dict)
    return e1, e2, compose_plan(e1.kind, e2.kind), compose(e1, e2, degree_cap=args.degree_cap)


def _cmd_compose(args, numeric: ExitStack) -> int:
    _, _, plan, composite = _kernel_pair(args, numeric)
    # a result kind without a kernel/1 name cannot be written
    result = {"schema": KERNEL_SCHEMA, **composite.to_json_dict()}
    _emit_json({"schema": "compose/1", "plan": plan, "result": result}, args.out)
    return 0


def _cmd_oracle_check(args, numeric: ExitStack) -> int:
    e1, e2, plan, expected = _kernel_pair(args, numeric)
    from .oracle import QuadGrid, oracle_compose

    grid = None if args.nodes is None else QuadGrid(nodes_per_axis=args.nodes, n=e1.kind.dp)
    report = oracle_compose(e1, e2, grid=grid, expected=expected, rel_tol=args.tol)
    _emit_json(
        {
            "schema": "oracle/1",
            "plan": plan,
            "tol": args.tol,
            "report": report.to_json_dict(),
        },
        args.out,
    )
    return 0 if report.passed else 1


def _cmd_spectrum(args, numeric: ExitStack) -> int:
    matrix = _load(args.input, MATRIX_SCHEMA)
    rows = matrix(_matrix_rows)
    _numeric(numeric)
    from .arrays import _coef_from_json, hermitian_eigs

    vals = matrix(lambda _: hermitian_eigs(_coef_from_json(rows, len(rows), "matrix")))
    _emit_json(
        {"schema": "spectrum/1", "eigenvalues": [float(v) for v in vals]},
        args.out,
    )
    return 0


def _cmd_toeplitz_leading(args, numeric: ExitStack) -> int:
    symbol = _load(args.symbol, SYMBOL_SCHEMA)
    _numeric(numeric)
    from .arrays import _coef_to_json
    from .operators import Symbol, _effective_kind, toeplitz_leading

    g = symbol(Symbol.from_json_dict)
    value = toeplitz_leading(args.kind, g)
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
    _emit_json(payload, args.out)
    return 0


def _cmd_constants(args, numeric: ExitStack) -> int:
    geom = _load(args.geom, GEOM_SCHEMA)
    which = args.which
    table = which in ("c0", "c3c4")  # argparse allows no other --which than these and dp3, tower
    if args.direction is not None and table:
        raise ValueError("--direction only applies to direction contractions (dp3, tower)")
    direction = None if table else _parse_direction(args.direction)
    if args.csv is not None and not table:
        raise ValueError("--csv only applies to constant tables (c0, c3c4)")
    if args.sample is not None and which != "dp3":
        raise ValueError("--sample only applies to dp3")
    _numeric(numeric)
    from .arrays import _coef_to_json
    from .geometry import GeometryData, c0, c3_c4, dp3, tower_dp3

    data = geom(GeometryData.from_json_dict)
    if which == "c0":
        res = c0(data, seed=args.seed)
        payload = {"schema": "constants/1", "which": "c0", "C0": res.value, "sample_id": res.sample_id}
        csv_rows = [("C0", res)]
    elif which == "c3c4":
        c3, c4 = c3_c4(data)
        payload = {
            "schema": "constants/1",
            "which": "c3c4",
            "C3": c3.value,
            "C4": c4.value,
            "c3_sample_id": c3.sample_id,
            "c4_sample_id": c4.sample_id,
        }
        csv_rows = [("C3", c3), ("C4", c4)]
    else:
        if which == "dp3":
            mat = dp3(data, direction, sample_id=args.sample)
        else:
            mat = tower_dp3(data.samples, direction, fiber_rank=data.fiber_rank)
        payload = {"schema": "constants/1", "which": which, "matrix": _coef_to_json(mat)}
    if args.csv is not None:
        lines = ["constant,value,sample_id"]
        lines += [f"{name},{res.value!r},{res.sample_id}" for name, res in csv_rows]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    _emit_json(payload, args.out)
    return 0


def _cmd_defect_check(args, numeric: ExitStack) -> int:
    max_n = 4 if args.max_n is None else args.max_n
    if max_n < 0:
        raise ValueError(f"--max-n must be >= 0, got {max_n}")
    explicit = [v is not None for v in (args.n, args.l, args.m)]
    if any(explicit) and not all(explicit):
        raise ValueError("--n, --l, --m must be given together")
    if all(explicit) and not (0 <= args.m <= args.l <= args.n):
        raise ValueError(f"need 0 <= m <= l <= n, got n={args.n} l={args.l} m={args.m}")
    if all(explicit) and args.max_n is not None:
        raise ValueError("--max-n only applies without a chain (--n, --l, --m)")
    _numeric(numeric)
    from .operators import _defect_records, flat_defect_checks

    records = _defect_records([(args.n, args.l, args.m)]) if all(explicit) else flat_defect_checks(max_n)
    worst = max((rec.deviation for rec in records), default=0.0)
    passed = worst <= args.tol
    _emit_json(
        {
            "schema": "defect/1",
            "tol": args.tol,
            "max_deviation": worst,
            "pass": passed,
            "records": [rec.to_json_dict() for rec in records],
        },
        args.out,
    )
    return 0 if passed else 1


def _cmd_selftest(args, numeric: ExitStack) -> int:
    _numeric(numeric)
    from .checks import selftest_checks

    lines = []
    failures = 0
    total = 0
    for name, check in selftest_checks():
        total += 1
        try:
            ok, detail = check()
        except Exception as e:  # a crashed check is a failure, not an abort
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    lines.append(f"selftest: {total - failures}/{total} passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line, ``fockcalc <cmd>: error: ...``, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockcalc",
        description="Polynomial Gaussian-kernel calculus: composition, quadrature "
        "oracle, leading terms, and geometric constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, *flags: str, tol_default: float = 1e-9) -> None:
        """The shared flags the command reads, out of tol, seed, nodes and degree-cap, and --out."""
        if "tol" in flags:
            sp.add_argument("--tol", type=float, default=tol_default, help="numerical tolerance")
        if "seed" in flags:
            sp.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        if "nodes" in flags:
            sp.add_argument("--nodes", type=int, default=None, help="quadrature nodes per axis")
        if "degree-cap" in flags:
            sp.add_argument(
                "--degree-cap", dest="degree_cap", type=int, default=DEFAULT_DEGREE_CAP, help="polynomial degree cap"
            )
        sp.add_argument("--out", type=str, default=None, help="write output to this file")

    p = sub.add_parser("compose", help="compose two kernel JSON files symbolically")
    p.set_defaults(run=_cmd_compose)
    p.add_argument("--left", required=True, help="left kernel JSON file")
    p.add_argument("--right", required=True, help="right kernel JSON file")
    add_common(p, "degree-cap")

    p = sub.add_parser("oracle-check", help="compare symbolic composition against quadrature")
    p.set_defaults(run=_cmd_oracle_check)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_common(p, "tol", "nodes", "degree-cap")

    p = sub.add_parser("spectrum", help="eigenvalues of a Hermitian matrix JSON file")
    p.set_defaults(run=_cmd_spectrum)
    p.add_argument("--input", required=True, help=f"matrix JSON file (schema {MATRIX_SCHEMA})")
    add_common(p)

    p = sub.add_parser("toeplitz-leading", help="leading term of a basic operator kind")
    p.set_defaults(run=_cmd_toeplitz_leading)
    p.add_argument("--kind", required=True, choices=list(TOEPLITZ_KINDS))
    p.add_argument("--symbol", required=True, help=f"symbol JSON file (schema {SYMBOL_SCHEMA})")
    add_common(p)

    p = sub.add_parser("constants", help="geometric constants from sampled data")
    p.set_defaults(run=_cmd_constants)
    p.add_argument("--geom", required=True, help=f"geometry JSON file (schema {GEOM_SCHEMA})")
    p.add_argument("--which", required=True, choices=["c0", "c3c4", "dp3", "tower"])
    p.add_argument("--direction", default=None, help='JSON object, e.g. \'{"d1": 1.0}\'')
    p.add_argument("--sample", default=None, help="sample id for dp3 (default: first)")
    p.add_argument("--csv", default=None, help="also write a CSV constant table here")
    add_common(p, "seed")

    p = sub.add_parser("defect-check", help="flat defect identities")
    p.set_defaults(run=_cmd_defect_check)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    add_common(p, "tol", tol_default=1e-12)

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    p.set_defaults(run=_cmd_selftest)
    add_common(p)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # Any ValueError is an input error: a bad flag, file or payload, or one the
    # calculus cannot take (say a degree over the cap).
    try:
        with ExitStack() as numeric:
            _check_flags(args)
            return args.run(args, numeric)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"fockcalc: error: {e}\n")
        return 2


def main() -> None:
    sys.exit(run())


__all__ = ["build_parser", "run", "main"]


if __name__ == "__main__":
    main()
