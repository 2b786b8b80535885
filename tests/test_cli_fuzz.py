"""Mutated CLI inputs: every call exits 0 or 2, a usage error is one stderr
line, and nothing escapes as a traceback.

Each case takes a valid ``kernel/1``, ``symbol/1``, ``matrix/1`` or ``geom/1``
payload, mutates it (a deleted, replaced or added field, or truncated JSON
text), draws flag values for the command that reads it and runs the command
in-process through ``cli.run``; ``defect-check`` cases draw flags only.
Replacement integers stay small or far beyond any index range, so no case
asks for a large allocation.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockcalc import (
    Bergman,
    Dims,
    GeometryData,
    GeometrySample,
    KernelExpr,
    NormalDirection,
    Poly,
    Symbol,
)
from fockcalc.cli import run

PI = math.pi

KERNEL = {
    "schema": "kernel/1",
    **KernelExpr(Poly.monomial(Dims.of(1), {"z1": 1, "zb'1": 1}, 2.0), Bergman(1)).to_json_dict(),
}
UNIT_KERNEL = {"schema": "kernel/1", **KernelExpr(Poly.one(Dims.of(1)), Bergman(1)).to_json_dict()}
SYMBOL = {
    "schema": "symbol/1",
    **Symbol.monomial(2, 1, (1,), (1,), coef=np.eye(2), fiber_rank=2).to_json_dict(),
}
MATRIX = {"schema": "matrix/1", "matrix": [[[2.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]]}
GEOM = GeometryData(
    dims=(0, 1, 2),
    fiber_rank=2,
    samples=(
        GeometrySample(
            id="p0",
            scal_X=16.0 * PI,
            lambda_RF_X=2j * PI * np.eye(2),
            normal_dirs=(
                NormalDirection(id="d1", level="WY", d_scal_diff=8.0 * PI, nabla_lambda_diff=2j * np.eye(2)),
                NormalDirection(id="f1", level="XW", d_scal_diff=3.0),
            ),
        ),
    ),
).to_json_dict()

# command -> (payload, flag that names its file)
INPUTS = {
    "compose": (KERNEL, "--left"),
    "toeplitz-leading": (SYMBOL, "--symbol"),
    "spectrum": (MATRIX, "--input"),
    "constants": (GEOM, "--geom"),
    "defect-check": (None, None),
}

JUNK = [None, True, -1, 0, 1, 2, 3, 17, 2**70, 0.5, -0.0, math.nan, math.inf]
JUNK += ["", "z1", [], [1], [[1.0, 0.0]], {}]
# integer fields: fractions, an integral float and a numeric string
JUNK += [1.5, 1.9, 2.0, "1", [1.5], [True]]

TOL = ["1e-9", "0", "-1", "nan", "inf", "x"]
FLAGS = {
    "compose": {"--degree-cap": ["0", "3", "16", "-1", "x"], "--tol": TOL, "--seed": ["0", "-5", "x"]},
    "toeplitz-leading": {"--kind": ["YY", "XY_even", "XY_odd", "XX"]},
    "spectrum": {"--tol": TOL},
    "constants": {
        "--which": ["c0", "c3c4", "dp3", "tower", "zz"],
        "--direction": ['{"d1": 1.0}', '{"d1": [1, 2]}', '{"zz": 1}', '{"d1": "x"}', "[]", "{"],
        "--sample": ["p0", "zz"],
    },
    "defect-check": {
        "--max-n": ["0", "1", "-1", "x"],
        "--tol": TOL,
        "--n": ["1", "-1"],
        "--l": ["1"],
        "--m": ["0", "2"],
    },
}
REQUIRED = {
    "toeplitz-leading": ["--kind", "YY"],
    "constants": ["--which", "c0"],
    "defect-check": ["--max-n", "1"],
}


@st.composite
def mutated(draw, payload):
    """The payload's JSON text after one to three structural mutations, or cut short."""
    doc = json.loads(json.dumps(payload))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        junk = copy.deepcopy(draw(st.sampled_from(JUNK)))
        if action == "add" and isinstance(node, dict):
            node["extra"] = junk
        elif action == "delete" and parent is not None:
            del parent[key]
        elif parent is not None:
            parent[key] = junk
        else:
            doc = junk
    text = json.dumps(doc)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[: draw(st.integers(min_value=0, max_value=len(text) - 1))]
    return text


@st.composite
def cli_case(draw):
    command = draw(st.sampled_from(sorted(INPUTS)))
    flags = []
    for flag, values in FLAGS[command].items():
        if draw(st.booleans()):
            flags += [flag, draw(st.sampled_from(values))]
    if REQUIRED.get(command, [None])[0] not in flags:
        flags += REQUIRED.get(command, [])
    payload, _ = INPUTS[command]
    return command, None if payload is None else draw(mutated(payload)), flags


def _run(command, text, flags):
    """Exit code, stdout and stderr of one in-process call on the input text."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags]
        if text is not None:
            path = Path(tmp) / "input.json"
            path.write_text(text)
            argv += [INPUTS[command][1], str(path)]
        if command == "compose":
            unit = Path(tmp) / "unit.json"
            unit.write_text(json.dumps(UNIT_KERNEL))
            argv += ["--right", str(unit)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_clean_exit(code, out, err):
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        json.loads(out)


@settings(max_examples=120)
@given(cli_case())
def test_mutated_inputs_exit_cleanly(case):
    _check_clean_exit(*_run(*case))


# Integer fields given a fraction, a boolean or a string: (command, path, value).
INTEGER_MUTATIONS = [
    ("compose", ("terms", 0, "exps", "z1"), 1.5),
    ("compose", ("dims", "n"), 1.9),
    ("toeplitz-leading", ("terms", 0, "hol", 0), 1.5),
    ("toeplitz-leading", ("terms", 0, "hol", 0), True),
    ("toeplitz-leading", ("n",), "1"),
    ("toeplitz-leading", ("n",), 1.7),
    ("constants", ("dims", 1), 1.5),
    ("constants", ("fiber_rank",), 1.5),
]


@pytest.mark.parametrize("command, path, value", INTEGER_MUTATIONS)
def test_non_integer_field_mutations_are_usage_errors(command, path, value):
    doc = copy.deepcopy(INPUTS[command][0])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, out, err = _run(command, json.dumps(doc), REQUIRED.get(command, []))
    _check_clean_exit(code, out, err)
    assert code == 2 and "must be an integer" in err
