"""Array readers and the one Hermitian eigen path, on numpy alone.

The readers turn a caller's coefficients, points and numbers into finite
complex (or float) arrays, and write and read the ``[re, im]`` matrix fields
of the JSON payloads: booleans and strings are no numbers, and the value at
fault is named in the error.  :func:`hermitian_eigs` is the eigensolver
every module uses (``geometry`` exports it).  The module imports no other
submodule than :mod:`.fields`, so a command that needs only these, such as
``fockcalc spectrum``, loads neither ``poly`` nor ``geometry``.
"""

from __future__ import annotations

import numbers

import numpy as np

from .fields import _json_number


def _as_coef(value, r: int, count: int | None = None, what: str = "coefficient") -> np.ndarray:
    """A read-only finite ``(r, r)`` complex matrix, or ``count`` of them stacked;
    a number stands for a 1x1 matrix.  Booleans and strings are no numbers, and
    ``what`` names the value in the errors."""
    lead = () if count is None else (count,)
    if all(type(v) is np.ndarray and v.dtype.kind in "iufc" for v in (value if count is not None else [value])):
        a = np.array(value, dtype=complex)  # a copy; numeric arrays need no cell-by-cell check
    elif (a := _cast_cells(np.asarray(value, dtype=object), complex, what)) is None:
        raise ValueError(f"{what} must be a number or a matrix of numbers, got {value!r}")
    if a.shape == lead and r == 1:
        a = a.reshape(lead + (1, 1))
    if a.shape != lead + (r, r):
        raise ValueError(f"{what} must be {r}x{r}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite {what}")
    a.setflags(write=False)
    return a


def _cast_cells(cells: np.ndarray, dtype, what: str, number=numbers.Number) -> np.ndarray | None:
    """An object array cast to ``dtype``, or None if a cell is no ``number`` (no
    boolean is); an integer beyond float range is a non-finite ``what``."""
    if not all(issubclass(t, number) and t is not bool for t in set(map(type, cells.flat))):
        return None
    try:
        return cells.astype(dtype)
    except OverflowError:
        raise ValueError(f"non-finite {what}") from None


def _as_points(value, d: int | None, what: str, count=None, wrong_shape="{what} have shape {shape}, need ({n}, {d})"):
    """N points of C^d read by :func:`_as_numbers`, an ``(N, d)`` array: ``count``
    points if given, of any width if ``d`` is None.  A list of numeric ndarrays
    of one shape is stacked by one numpy cast.  A wrong shape, ragged rows
    included, raises ``wrong_shape`` formatted with ``what``, ``shape`` and the
    shape needed, ``n`` by ``d``."""
    if type(value) is list and all(type(v) is np.ndarray and v.dtype.kind in "iufc" for v in value):
        value = np.array(value, dtype=complex) if len({v.shape for v in value}) == 1 else value
    try:
        a = value if type(value) is np.ndarray else np.asarray(value, dtype=object)
    except ValueError:  # rows of several depths, which numpy cannot hold even as objects
        a = np.empty(len(value), object)
    if a.ndim != 2 or (d is not None and a.shape[1] != d) or (count is not None and len(a) != count):
        need = {"n": "N" if count is None else count, "d": "d" if d is None else d}
        raise ValueError(wrong_shape.format(what=what, shape=a.shape, **need))
    return _as_numbers(a, what)


def _as_numbers(value, what: str, real: bool = False) -> np.ndarray:
    """A finite complex (or, if ``real``, float) array of any shape.  A numeric-dtype
    ndarray is cast at once, and not copied if it has the dtype already; anything
    else is read cell by cell, as :func:`_as_coef` reads, so booleans and strings
    are no numbers.  ``what`` names the value in the errors."""
    dtype, number = (float, numbers.Real) if real else (complex, numbers.Number)
    if type(value) is np.ndarray and value.dtype.kind in ("iuf" if real else "iufc"):
        a = value.astype(dtype, copy=False)
    elif (a := _cast_cells(cells := np.asarray(value, dtype=object), dtype, what, number)) is None:
        bad = next(v for v in cells.flat if type(v) is bool or not isinstance(v, number))
        raise ValueError(f"{what} must be {'real ' if real else ''}numbers, got {bad!r}")
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite {what}")
    return a


# -- matrix fields -------------------------------------------------------------------


def _coef_to_json(coef: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in coef]


def _coef_from_json(data, r: int, what: str = "coef") -> np.ndarray:
    """An ``(r, r)`` complex matrix from ``r`` rows of ``[re, im]`` pairs of finite reals."""
    cells = np.array(data, dtype=object)
    if cells.shape != (r, r, 2):
        raise ValueError(f"{what} shape {cells.shape} != ({r}, {r}, 2)")
    a = np.array([_json_number(v, f"{what} entry") for v in cells.flat]).reshape(r, r, 2)
    if not np.isfinite(a).all():  # the message the coefficient constructors raise too
        raise ValueError("non-finite coefficient")
    return a[..., 0] + 1j * a[..., 1]


# -- eigensolver ------------------------------------------------------------------

_HERM_TOL = 1e-10


def _check_hermitian(H: np.ndarray, message: str) -> np.ndarray:
    """Raise ``message`` with the deviation unless the square matrix H is
    Hermitian within 1e-10, scaled by 1 + its largest entry; return ``H/2``.
    Both sides are compared at half scale, where no finite H overflows them."""
    half = 0.5 * H
    dev = float(np.max(np.abs(half - half.conj().T), initial=0.0))
    if dev > _HERM_TOL * (0.5 + float(np.max(np.abs(half), initial=0.0))):
        raise ValueError(f"{message} (deviation {2.0 * dev:.3e})")
    return half


def hermitian_eigs(H) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, by ``numpy.linalg.eigvalsh``.

    The input must be finite, square and Hermitian within 1e-10 (scaled by
    its largest entry); it is symmetrized as ``A/2 + A^H/2`` before the
    solve, which cannot overflow.  An eigenvalue beyond float range raises a
    ``ValueError``.
    """
    shape = np.shape(H)
    if len(shape) not in (0, 2) or shape[:1] != shape[1:]:
        raise ValueError(f"need a square matrix, got shape {shape}")
    A = _as_coef(H, shape[0] if shape else 1, what="matrix")
    half = _check_hermitian(A, "matrix is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh(half + half.conj().T)
    if not np.isfinite(vals).all():
        raise ValueError("an eigenvalue overflows a float")
    return vals
