"""Sparse polynomials in two groups of complex variables.

A :class:`Poly` lives on C^n x C^n with coordinates written
``z_1..z_n`` (unprimed slot) and ``z'_1..z'_n`` (primed slot), each
together with its conjugate.  Coefficients are dense ``(r, r)`` complex
matrices (``r`` = fiber rank), so scalar problems use ``r = 1`` and
matrix-symbol problems keep full endomorphism coefficients.

A term's exponents are a row of length ``4*n`` (a tuple as a ``terms`` key)
with layout ``exps[4*(i-1) + o]`` where ``o`` selects, in order,
``z_i``, ``conj(z_i)``, ``z'_i``, ``conj(z'_i)``.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _EXPORTS
from .arrays import _as_coef, _as_points, _coef_from_json, _coef_to_json
from .fields import DEFAULT_DEGREE_CAP, _json_complex, _json_int, _json_list, _json_object

__all__ = list(_EXPORTS["poly"])

# Offsets within one coordinate block.
_O_Z, _O_ZB, _O_ZP, _O_ZBP = 0, 1, 2, 3

_O_NAMES = {_O_Z: "z", _O_ZB: "zb", _O_ZP: "z'", _O_ZBP: "zb'"}

class DegreeOverflowError(ValueError):
    """Raised when a product term would exceed the configured degree cap."""


@dataclass(frozen=True)
class Dims:
    """Ambient dimensions: C^m inside C^l inside C^n, fiber rank r >= 1.

    ``l`` is carried for the JSON formats and nothing reads it; the calculus
    reads ``n``, ``m`` and ``fiber_rank``.
    """

    n: int
    l: int
    m: int
    fiber_rank: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "l", "m", "fiber_rank"):
            if type(getattr(self, name)) is not int:
                object.__setattr__(self, name, _json_int(getattr(self, name), f"dims {name}"))
        if not (0 <= self.m <= self.l <= self.n):
            raise ValueError(f"need 0 <= m <= l <= n, got n={self.n} l={self.l} m={self.m}")
        if self.fiber_rank < 1:
            raise ValueError(f"fiber_rank must be >= 1, got {self.fiber_rank}")

    @classmethod
    def of(cls, n: int, m: int | None = None, *, fiber_rank: int = 1) -> "Dims":
        return cls(n=n, l=n, m=n if m is None else m, fiber_rank=fiber_rank)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "l": self.l, "m": self.m, "fiber_rank": self.fiber_rank}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Dims":
        d = _json_object(d, "dims", ("n",), ("l", "m", "fiber_rank"))
        n = d["n"]
        return cls(n=n, l=d.get("l", n), m=d.get("m", n), fiber_rank=d.get("fiber_rank", 1))


def _var_offset(index: int, o: int) -> int:
    return 4 * (index - 1) + o


def _var_name(index: int, o: int) -> str:
    return f"{_O_NAMES[o]}{index}"


def _parse_var_name(name: str) -> tuple[int, int]:
    """Inverse of :func:`_var_name`: 'zb'2' -> (2, 3)."""
    if not isinstance(name, str) or (match := re.fullmatch(r"z(b?)('?)([0-9]+)", name)) is None:
        raise ValueError(f"bad variable name {name!r}")
    anti, primed, digits = match.groups()
    if (index := int(digits)) < 1:
        raise ValueError(f"bad variable index in {name!r}")
    return index, (2 if primed else 0) + (1 if anti else 0)


ExpKey = tuple[int, ...]


class Poly:
    """Sparse polynomial with matrix coefficients; exact zeros are pruned.

    The store is two read-only arrays: exponent rows ``exps`` ``(T, 4n)`` and
    coefficients ``coefs`` ``(T, r, r)``, in first-occurrence order (the order
    of the mapping given, or of the term pairs a product visits).  ``terms``
    and ``table`` are views derived from it.
    """

    def __init__(self, dims: Dims, terms: Mapping[ExpKey, object] | None = None) -> None:
        r, width = dims.fiber_rank, 4 * dims.n
        terms = terms or {}
        keys, values = list(terms), list(terms.values())
        count = len(keys)
        for exps in keys:
            if len(exps) != width:
                raise ValueError(f"exponent tuple length {len(exps)} != {width}")
        if not all(type(v) is int for exps in keys for v in exps):
            keys = [[_json_int(v, "exponent") for v in exps] for exps in keys]
        E = _exponent_rows(keys, width)
        if (E < 0).any():
            row = E[(E < 0).any(axis=1)][0]
            raise ValueError(f"negative exponent in {tuple(row.tolist())}")
        # One stacked pass over the coefficients; mixed scalars and matrices, and
        # a fault, go value by value, so the error names the value at fault.
        try:
            C = _as_coef(values, r, count)
        except ValueError:
            C = np.array([_as_coef(v, r) for v in values], dtype=complex).reshape(count, r, r)
        self._store(dims, E, C)

    @classmethod
    def _from_arrays(cls, dims: Dims, E: np.ndarray, C: np.ndarray) -> "Poly":
        """A polynomial over distinct exponent rows ``E`` with coefficients ``C``."""
        p = cls.__new__(cls)
        p._store(dims, E, C)
        return p

    def _store(self, dims: Dims, E: np.ndarray, C: np.ndarray) -> None:
        if not np.isfinite(C).all():
            raise ValueError("non-finite coefficient")
        live = C.any(axis=(1, 2))
        if not live.all():
            E, C = E[live], C[live]
        E.setflags(write=False)
        C.setflags(write=False)
        self.dims, self.exps, self.coefs = dims, E, C

    def __repr__(self) -> str:
        return f"Poly({self.dims!r}, {dict(self.terms)!r})"

    @property
    def terms(self) -> Mapping[ExpKey, np.ndarray]:
        """Read-only ``{exponent tuple: coefficient}`` in store order, built on each access."""
        return MappingProxyType(dict(zip(map(tuple, self.exps.tolist()), self.coefs)))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dims: Dims) -> "Poly":
        return cls(dims, {})

    @classmethod
    def one(cls, dims: Dims) -> "Poly":
        return cls.constant(dims, np.eye(dims.fiber_rank))

    @classmethod
    def constant(cls, dims: Dims, coef) -> "Poly":
        E = np.zeros((1, 4 * dims.n), dtype=np.int64)
        return cls._from_arrays(dims, E, _as_coef(coef, dims.fiber_rank)[None])

    @classmethod
    def monomial(cls, dims: Dims, powers: Mapping[str, int], coef=1.0) -> "Poly":
        E = _exponent_rows([_exponent_row(dims, powers)], 4 * dims.n)
        return cls._from_arrays(dims, E, _as_coef(coef, dims.fiber_rank)[None])

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not len(self.exps)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return int(self.exps.sum(axis=1).max(initial=-1))

    def parity(self) -> int | None:
        """0 if every term has even total degree, 1 if odd, None if mixed or zero."""
        ps = self.exps.sum(axis=1) % 2
        return int(ps[0]) if len(ps) and (ps == ps[0]).all() else None

    def uses_slot(self, slot: str, beyond: int = 0) -> bool:
        """Whether any term uses a variable of the slot with coordinate index > beyond."""
        lo, hi = (2, 4) if slot == "primed" else (0, 2)
        return bool(self._blocks()[:, beyond:, lo:hi].any())

    def _blocks(self) -> np.ndarray:
        """The exponent rows as ``(T, n, 4)`` coordinate blocks."""
        return self.exps.reshape(len(self.exps), self.dims.n, 4)

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        E = np.concatenate([self.exps, other.exps])
        return Poly._from_arrays(self.dims, *_collect(E, np.concatenate([self.coefs, other.coefs])))

    def scale(self, scalar: complex) -> "Poly":
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as non-finite
            return Poly._from_arrays(self.dims, self.exps, self.coefs * _json_complex(scalar, "scalar"))

    def mul(self, other: "Poly", degree_cap: int = DEFAULT_DEGREE_CAP) -> "Poly":
        """Product; terms accumulate in term-pair order (self outer, other inner)."""
        self._check_compatible(other)
        degree_cap = _json_int(degree_cap, "degree_cap")
        count, r = len(self.exps) * len(other.exps), self.dims.fiber_rank
        E = (self.exps[:, None] + other.exps[None]).reshape(count, self.exps.shape[1])
        degree = E.sum(axis=1)
        if (over := degree > degree_cap).any():
            d = degree[over.argmax()]
            raise DegreeOverflowError(f"product term degree {d} exceeds cap {degree_cap}")
        with np.errstate(over="ignore", invalid="ignore"):
            C = _block_products(self.coefs[:, None], other.coefs[None]).reshape(count, r, r)
        return Poly._from_arrays(self.dims, *_collect(E, C))

    def conjugate_swap(self) -> "Poly":
        """Kernel adjoint on numerators: swap slots, conjugate, transpose coefficients.

        For a term C z^a zb^b z'^c zb'^d the image is C^H z^d zb^c z'^b zb'^a,
        i.e. offsets map o -> 3 - o.  Involution and mul-antihomomorphism.
        """
        E = self._blocks()[:, :, ::-1].reshape(self.exps.shape)
        return Poly._from_arrays(self.dims, E, self.coefs.conj().transpose(0, 2, 1))

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def _order(self) -> np.ndarray | None:
        """Permutation that sorts the store's rows like the exponent tuples; None if they are."""
        keys = _row_keys(self.exps)
        return None if (keys[1:] > keys[:-1]).all() else keys.argsort()

    @property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only exponent rows ``(T, 4n)`` and coefficients ``(T, r, r)``, sorted."""
        if self._order is None:
            return self.exps, self.coefs
        E, C = self.exps[self._order], self.coefs[self._order]
        E.setflags(write=False)
        C.setflags(write=False)
        return E, C

    def evaluate_batch(self, z, zb, zp, zbp) -> np.ndarray:
        """Values ``(N, r, r)`` at N points given slot by slot: the values of
        ``z_i``, ``conj(z_i)``, ``z'_i`` and ``conj(z'_i)``.

        Each slot is an ``(N, d)`` array of points filling the first ``d <= n``
        coordinates (the rest read 0) or a number for all ``n``, and one slot at
        least is an array.  The slots need not be conjugate pairs, which is how
        polarized and partial evaluation work.
        """
        slots, count = [], None
        for name, v in zip(("z", "zb", "zp", "zbp"), (z, zb, zp, zbp)):
            if isinstance(v, numbers.Number):
                v = _json_complex(v, name)
            elif (v := _as_points(v, None, name, count)).shape[1] > self.dims.n:
                raise ValueError(f"{name} have shape {v.shape}, need (N, d) with d <= {self.dims.n}")
            else:
                count = len(v)
            slots.append(v)
        if count is None:
            raise ValueError("need an array of points in at least one slot")
        return self._values(slots)

    def _values(self, slots) -> np.ndarray:
        """:meth:`evaluate_batch` at slots already read, as :func:`_monomials` reads them."""
        E, C = self.table
        r = self.dims.fiber_rank
        M = _monomials(slots, E)
        return (M @ C.reshape(-1, r * r)).reshape(len(M), r, r)

    # -- comparison ---------------------------------------------------------

    def max_coef_diff(self, other: "Poly") -> float:
        self._check_compatible(other)
        E = np.concatenate([self.exps, other.exps])
        _, C = _collect(E, np.concatenate([self.coefs, -other.coefs]))
        return float(np.abs(C).max(initial=0.0))

    def _check_compatible(self, other: "Poly") -> None:
        if self.dims.n != other.dims.n or self.dims.fiber_rank != other.dims.fiber_rank:
            raise ValueError(f"incompatible dims: {self.dims} vs {other.dims}")

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        names = [_var_name(i, o) for i in range(1, self.dims.n + 1) for o in range(4)]
        E, C = self.table
        terms = [
            {"exps": {name: p for name, p in zip(names, exps) if p}, "coef": _coef_to_json(coef)}
            for exps, coef in zip(E.tolist(), C)
        ]
        return {"dims": self.dims.to_json_dict(), "terms": terms}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Poly":
        d = _json_object(d, "poly", ("dims", "terms"))
        dims = Dims.from_json_dict(d["dims"])
        rows, coefs = [], []
        for t in _json_list(d["terms"], "terms", "term objects"):
            t = _json_object(t, "term", ("exps", "coef"))
            rows.append(_exponent_row(dims, _json_object(t["exps"], "term exps")))
            coefs.append(_coef_from_json(t["coef"], dims.fiber_rank))
        C = np.array(coefs, dtype=complex).reshape(len(rows), dims.fiber_rank, dims.fiber_rank)
        return cls._from_arrays(dims, *_collect(_exponent_rows(rows, 4 * dims.n), C))


def _monomials(slots, E: np.ndarray) -> np.ndarray:
    """The ``(N, T)`` table of the monomials ``E`` ``(T, 4n)`` at N points given
    by four slots, one per offset ``o`` (``z``, ``zb``, ``z'``, ``zb'``).

    For each nonzero exponent column ``j = 4i + o``, in ascending order, the
    table is multiplied by slot ``o``'s coordinate ``i`` to the power
    ``E[:, j]``.  An ``(N, d)`` array slot covers the first ``d`` coordinates
    and reads 0 beyond them, a number fills every coordinate, and ``None``
    adds no factor.  One slot at least is an array.
    """
    count = next(len(v) for v in slots if type(v) is np.ndarray)
    out = np.ones((count, len(E)), dtype=complex)
    for j in E.any(axis=0).nonzero()[0].tolist():
        i, o = divmod(j, 4)
        if (v := slots[o]) is None:
            continue
        if type(v) is np.ndarray:
            v = v[:, i, None] if i < v.shape[1] else 0j
        out *= v ** E[:, j]
    return out


def _exponent_row(dims: Dims, powers: Mapping[str, int]) -> list[int]:
    """The exponent row of a ``{variable name: power}`` map; names of one variable (z1, z01) add."""
    exps = [0] * (4 * dims.n)
    for name, p in powers.items():
        index, o = _parse_var_name(name)
        if index > dims.n:
            raise ValueError(f"variable {name} exceeds n={dims.n}")
        if (p := _json_int(p, f"exponent of {name}")) < 0:
            raise ValueError(f"negative exponent for {name}")
        exps[_var_offset(index, o)] += p
    return exps


def _exponent_rows(rows, width: int) -> np.ndarray:
    """Integer exponent rows as an int64 ``(T, width)`` array."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        raise ValueError("exponent out of range") from None


def _row_keys(E: np.ndarray) -> np.ndarray:
    """One int64 per exponent row that sorts like the row tuples: its digits in
    base (largest exponent + 1), first column most significant.  Rows too wide
    for 63 bits are keyed by their rank among the distinct rows instead."""
    base, width = int(E.max(initial=0)) + 1, E.shape[1]
    if base**width > 2**63:
        return np.unique(E, axis=0, return_inverse=True)[1].ravel()
    return E @ _digit_weights(base, width)


@lru_cache(maxsize=64)
def _digit_weights(base: int, width: int) -> np.ndarray:
    return base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _block_products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The products of broadcast stacks of ``(r, r)`` blocks, each entry summed
    over the inner index k = 0, 1, ... in order (for r = 1 the one product
    ``A * B``), so their bits do not depend on the BLAS kernel a stacked ``@``
    would call once per block."""
    out = A[..., :, 0, None] * B[..., 0, None, :]
    for k in range(1, A.shape[-1]):
        out += A[..., :, k, None] * B[..., k, None, :]
    return out


def _collect(E: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the coefficients of equal exponent rows; distinct rows in first-occurrence order.

    Each sum starts from its group's first row and adds the others in row
    order (the sums a dict accumulating ``out[k] = out[k] + c if k in out
    else c`` forms, a lone signed zero included), and distinct rows come back
    as is.
    """
    if len(E) < 2:
        return E, C
    keys = _row_keys(E)
    order = keys.argsort(kind="stable")  # equal rows stay in row order
    ordered = keys[order]
    new = np.empty(len(E), dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    if new.all():
        return E, C
    first = order[new]
    acc = C[first]
    dup = ~new
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past float range reads inf
        np.add.at(acc, new.cumsum()[dup] - 1, C[order[dup]])  # unbuffered, so in row order
    rank = first.argsort()
    return E[first[rank]], acc[rank]
