"""Field readers and the settings the command line names, with no numpy.

Every payload loader reads its fields through the ``_json_*`` readers (and
``arrays._as_coef``), and so does every public function or constructor for its
counts, levels, scalars and matrices: each field type has one rule, and a bad
field or argument is named in the error.  Point coordinates are arrays, read
by ``arrays._as_points``.  The command line checks its flags and files through
this module before it loads numpy.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import Mapping

#: Hard ceiling on total degree produced by multiplication; results above
#: this raise ``DegreeOverflowError`` instead of silently growing.
DEFAULT_DEGREE_CAP = 16

#: The most Gauss-Hermite nodes per axis a rule is built with: numpy tests ``hermgauss``
#: only up to degree 100, and 100000 nodes would ask for a 75 GiB companion matrix.
MAX_NODES = 100

# The five basic operator kinds whose leading terms ``operators.toeplitz_leading`` gives.
TOEPLITZ_KINDS = ("YY", "XY_even", "XY_odd", "YX_even", "YX_odd")

# The schema name of a sampled-geometry file, read by ``geometry`` and the command line.
GEOM_SCHEMA = "geom/1"


def _json_object(value, what: str, keys=None) -> Mapping:
    """A JSON object; given ``keys``, one with no key outside them."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    if keys is not None and (extra := set(value) - set(keys)):
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    return value


def _json_list(value, what: str, items: str) -> list:
    """A JSON list (or a tuple, from Python callers), never an object's keys."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list of {items}")
    return value


def _json_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _json_int(value, what: str) -> int:
    """An integer field: ints and integral floats such as ``2.0``; booleans,
    strings and fractional or non-finite numbers are rejected by name."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _json_number(value, what: str) -> float:
    """A JSON int or float as a float (an int beyond float range as +-inf);
    booleans, strings and null are rejected by name."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond float range, which copysign could not read either
        return math.inf if value > 0 else -math.inf


def _json_real(value, what: str) -> float:
    """A finite real field, read like :func:`_json_number`."""
    x = _json_number(value, what)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return x


def _json_complex(value, what: str) -> complex:
    """A finite complex number: any real or complex number but a boolean; strings
    and null are rejected by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        z = complex(value)
    except OverflowError:  # an int beyond float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return z
