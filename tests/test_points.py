"""Every evaluation entry reads its points by one rule (``arrays._as_points``)."""

import math
import re

import numpy as np
import pytest

from fockcalc import (
    Bergman,
    CutoffSpec,
    Dims,
    Poly,
    Symbol,
    lambda_a_quadrature,
    lambda_h_quadrature,
    oracle_compose,
    oracle_compose_values,
    unit_expr,
)
from fockcalc.arrays import _as_points

_E = unit_expr(Bergman(1))
_P = Poly.monomial(Dims.of(1), {"z1": 1, "z'1": 2}, 0.5)  # reads the z and zp slots
_G1 = Symbol.monomial(1, 0, (1,), (1,))  # one normal variable
_G2 = Symbol.monomial(2, 0, (1, 1), (0, 0))  # two

# entry -> (the name its errors give, valid points for the slot under test, the
# call with that slot filled).  Points are small integers, so that int, float
# and complex arrays and lists all hold the same numbers.
ENTRIES = {
    "Poly.evaluate_batch": ("z", [[1], [2]], lambda v: _P.evaluate_batch(v, 0.5, 0.5, 0.5)),
    "Poly.evaluate_batch zp": ("zp", [[1], [2]], lambda v: _P.evaluate_batch(0.5, 0.5, v, 0.5)),
    "KernelExpr Z": ("unprimed points", [[1], [0]], lambda v: _E.evaluate_batch(v, [[1], [2]])),
    "KernelExpr Zp": ("primed points", [[1], [0]], lambda v: _E.evaluate_batch([[1], [2]], v)),
    "Symbol.evaluate_batch": ("anti", [[1], [2]], lambda v: _G1.evaluate_batch([[1], [0]], v)),
    "Symbol.evaluate_split": ("hol", [2], lambda v: _G1.evaluate_split(v, [1])),
    "lambda_h_quadrature": ("z_point", [1, 0], lambda v: lambda_h_quadrature(_G2, v, 4)),
    "lambda_a_quadrature": ("zbar_point", [1, 0], lambda v: lambda_a_quadrature(_G2, v, 4)),
    "oracle_compose_values": ("evaluation point", [1], lambda v: oracle_compose_values(_E, _E, None, [(v, [1])])),
    "oracle_compose": ("evaluation point", [1], lambda v: oracle_compose(_E, _E, eval_points=[([1], v)]).max_abs),
    "CutoffSpec.rho": ("x", [[0, 1]], lambda v: CutoffSpec().rho(v)),
}


def _with_first(points, cell):
    """The points as nested lists, their first coordinate replaced by ``cell``."""
    rows = [list(row) if isinstance(row, list) else row for row in points]
    if isinstance(rows[0], list):
        rows[0][0] = cell
    else:
        rows[0] = cell
    return rows


# Each was read as a number (or NaN evaluated, or an int beyond float range
# raised an OverflowError) until the one reader; booleans and strings are no
# coordinates, whatever numpy makes of them.
BAD_CELLS = [("0.5", "numbers, got '0.5'"), (True, "numbers, got True"), (math.nan, "non-finite"), (10**400, "non-finite")]


@pytest.mark.parametrize("cell, error", BAD_CELLS)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_points_that_are_no_numbers_are_rejected_by_name(entry, cell, error):
    what, points, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=re.escape(what)) as info:
        call(_with_first(points, cell))
    assert error in str(info.value)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_boolean_and_string_arrays_are_no_points(entry):
    what, points, call = ENTRIES[entry]
    for bad in (np.ones_like(points, dtype=bool), np.array(points).astype(str)):
        with pytest.raises(ValueError, match=re.escape(what)):
            call(bad)


# Wrong widths whose error did not name the argument, or that numpy broadcast:
# a length-1 shift on a k = 2 symbol read 0.25, where [0.5, 0.0] reads 0.
WRONG_WIDTHS = {
    "Poly.evaluate_batch zp": [[1, 2]],
    "Symbol.evaluate_batch": [[1, 2]],
    "Symbol.evaluate_split": [1, 2],
    "lambda_h_quadrature": [0.5],
    "lambda_a_quadrature": [0.5],
}


@pytest.mark.parametrize("entry", sorted(WRONG_WIDTHS))
def test_points_of_the_wrong_width_are_rejected_by_name(entry):
    what, _, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(what)} .*(shape|length)"):
        call(WRONG_WIDTHS[entry])


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_numeric_points_keep_their_bits_whatever_their_type(entry):
    what, points, call = ENTRIES[entry]
    real = entry == "CutoffSpec.rho"
    want = np.asarray(call(np.array(points, dtype=float if real else complex))).tobytes()
    variants = [np.array(points, dtype=np.int64), np.array(points, dtype=float), points]
    variants.append(np.array(points, dtype=float).tolist())
    if not real:
        variants.append(np.array(points, dtype=complex).tolist())
    for v in variants:
        assert np.asarray(call(v)).tobytes() == want, type(v)


def test_a_complex_point_array_is_read_without_a_copy():
    a = np.array([[1.0 + 2.0j, 0.5]])
    assert _as_points(a, 2, "points") is a
    assert _as_points([a[0], a[0]], 2, "points").tolist() == [a[0].tolist()] * 2
    for ragged in ([a[0], a[0, :1]], [a[0], a], [a, [1, 2]]):  # numpy could not broadcast the last two
        with pytest.raises(ValueError, match=r"^points have shape \(2,\), need \(N, 2\)$"):
            _as_points(ragged, 2, "points")
