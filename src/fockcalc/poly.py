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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Union

import numpy as np

__all__ = [
    "DEFAULT_DEGREE_CAP",
    "DegreeOverflowError",
    "Dims",
    "VarId",
    "Poly",
    "O_Z",
    "O_ZB",
    "O_ZP",
    "O_ZBP",
    "var_offset",
    "var_name",
    "parse_var_name",
    "variable_columns",
    "monomial_values",
]

# Offsets within one coordinate block.
O_Z, O_ZB, O_ZP, O_ZBP = 0, 1, 2, 3

_O_NAMES = {O_Z: "z", O_ZB: "zb", O_ZP: "z'", O_ZBP: "zb'"}

#: Hard ceiling on total degree produced by multiplication; results above
#: this raise :class:`DegreeOverflowError` instead of silently growing.
DEFAULT_DEGREE_CAP = 16


class DegreeOverflowError(ValueError):
    """Raised when a product term would exceed the configured degree cap."""


@dataclass(frozen=True)
class Dims:
    """Ambient dimensions: C^m inside C^l inside C^n, fiber rank r >= 1.

    ``l`` only matters for two-step extension chains; everything else reads
    ``n`` and ``m``.
    """

    n: int
    l: int
    m: int
    fiber_rank: int = 1

    def __post_init__(self) -> None:
        if not (0 <= self.m <= self.l <= self.n):
            raise ValueError(f"need 0 <= m <= l <= n, got n={self.n} l={self.l} m={self.m}")
        if self.fiber_rank < 1:
            raise ValueError(f"fiber_rank must be >= 1, got {self.fiber_rank}")

    @classmethod
    def of(cls, n: int, m: int | None = None, l: int | None = None, fiber_rank: int = 1) -> "Dims":
        if m is None:
            m = n
        if l is None:
            l = n
        return cls(n=n, l=l, m=m, fiber_rank=fiber_rank)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "l": self.l, "m": self.m, "fiber_rank": self.fiber_rank}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Dims":
        extra = set(d) - {"n", "l", "m", "fiber_rank"}
        if extra:
            raise ValueError(f"unknown dims keys: {sorted(extra)}")
        n = _json_int(d["n"], "dims n")
        return cls(
            n=n,
            l=_json_int(d.get("l", n), "dims l"),
            m=_json_int(d.get("m", n), "dims m"),
            fiber_rank=_json_int(d.get("fiber_rank", 1), "dims fiber_rank"),
        )


@dataclass(frozen=True)
class VarId:
    """One variable: slot ('unprimed'|'primed'), kind ('holomorphic'|'antiholomorphic'), 1-based index."""

    slot: str
    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.slot not in ("unprimed", "primed"):
            raise ValueError(f"bad slot {self.slot!r}")
        if self.kind not in ("holomorphic", "antiholomorphic"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.index < 1:
            raise ValueError(f"index is 1-based, got {self.index}")

    @property
    def o(self) -> int:
        return (2 if self.slot == "primed" else 0) + (1 if self.kind == "antiholomorphic" else 0)

    @property
    def name(self) -> str:
        return var_name(self.index, self.o)

    @classmethod
    def from_name(cls, name: str) -> "VarId":
        index, o = parse_var_name(name)
        return cls(
            slot="primed" if o >= 2 else "unprimed",
            kind="antiholomorphic" if o % 2 else "holomorphic",
            index=index,
        )


def var_offset(index: int, o: int) -> int:
    return 4 * (index - 1) + o


def var_name(index: int, o: int) -> str:
    return f"{_O_NAMES[o]}{index}"


def parse_var_name(name: str) -> tuple[int, int]:
    """Inverse of :func:`var_name`: 'zb'2' -> (2, 3)."""
    s = name
    if not s.startswith("z"):
        raise ValueError(f"bad variable name {name!r}")
    s = s[1:]
    anti = s.startswith("b")
    if anti:
        s = s[1:]
    primed = s.startswith("'")
    if primed:
        s = s[1:]
    if not s.isdigit():
        raise ValueError(f"bad variable name {name!r}")
    index = int(s)
    if index < 1:
        raise ValueError(f"bad variable index in {name!r}")
    return index, (2 if primed else 0) + (1 if anti else 0)


def _as_coef(value, r: int) -> np.ndarray:
    a = np.asarray(value, dtype=complex)
    if a.ndim == 0:
        if r != 1:
            raise ValueError("scalar coefficient only allowed for fiber_rank 1")
        a = a.reshape(1, 1)
    if a.shape != (r, r):
        raise ValueError(f"coefficient shape {a.shape} != ({r}, {r})")
    if not np.isfinite(a).all():
        raise ValueError("non-finite coefficient")
    a = a.copy()
    a.setflags(write=False)
    return a


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
        try:
            E = np.array(keys, dtype=np.int64).reshape(count, width)
        except OverflowError:
            raise ValueError("exponent out of range") from None
        if (E < 0).any():
            row = E[(E < 0).any(axis=1)][0]
            raise ValueError(f"negative exponent in {tuple(row.tolist())}")
        # One stacked pass over the coefficients; scalars (fiber rank 1) and
        # mixed inputs go through _as_coef, which also names a bad shape.
        try:
            C = np.array(values, dtype=complex)
        except (ValueError, TypeError):
            C = None
        if C is not None and C.shape == (count,) and r == 1:
            C = C.reshape(count, 1, 1)
        if C is None or C.shape != (count, r, r):
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
    def monomial(cls, dims: Dims, powers: Mapping[Union[VarId, str], int], coef=1.0) -> "Poly":
        exps = [0] * (4 * dims.n)
        for var, p in powers.items():
            if isinstance(var, str):
                var = VarId.from_name(var)
            if var.index > dims.n:
                raise ValueError(f"variable index {var.index} exceeds n={dims.n}")
            exps[var_offset(var.index, var.o)] += int(p)
        return cls(dims, {tuple(exps): coef})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not len(self.exps)

    def sorted_terms(self) -> list[tuple[ExpKey, np.ndarray]]:
        E, C = self.table
        return list(zip(map(tuple, E.tolist()), C))

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

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.scale(-1.0))

    def scale(self, scalar: complex) -> "Poly":
        return Poly._from_arrays(self.dims, self.exps, self.coefs * complex(scalar))

    def scale_matrix(self, left=None, right=None) -> "Poly":
        """Multiply every coefficient by fixed matrices: left @ coef @ right."""
        r = self.dims.fiber_rank
        lm = np.eye(r) if left is None else _as_coef(left, r)
        rm = np.eye(r) if right is None else _as_coef(right, r)
        return Poly._from_arrays(self.dims, self.exps, lm @ self.coefs @ rm)

    def mul(self, other: "Poly", degree_cap: int = DEFAULT_DEGREE_CAP) -> "Poly":
        """Product; terms accumulate in term-pair order (self outer, other inner)."""
        self._check_compatible(other)
        count, r = len(self.exps) * len(other.exps), self.dims.fiber_rank
        E = (self.exps[:, None] + other.exps[None]).reshape(count, self.exps.shape[1])
        degree = E.sum(axis=1)
        if (over := degree > degree_cap).any():
            d = degree[over.argmax()]
            raise DegreeOverflowError(f"product term degree {d} exceeds cap {degree_cap}")
        C = (self.coefs[:, None] @ other.coefs[None]).reshape(count, r, r)
        return Poly._from_arrays(self.dims, *_collect(E, C))

    def conjugate_swap(self) -> "Poly":
        """Kernel adjoint on numerators: swap slots, conjugate, transpose coefficients.

        For a term C z^a zb^b z'^c zb'^d the image is C^H z^d zb^c z'^b zb'^a,
        i.e. offsets map o -> 3 - o.  Involution and mul-antihomomorphism.
        """
        E = self._blocks()[:, :, ::-1].reshape(self.exps.shape)
        return Poly._from_arrays(self.dims, E, self.coefs.conj().transpose(0, 2, 1))

    # -- calculus helpers ---------------------------------------------------

    def diff(self, index: int, o: int) -> "Poly":
        """Formal partial derivative in the variable (index, o)."""
        off = var_offset(index, o)
        keep = self.exps[:, off] > 0
        E, p = self.exps[keep], self.exps[keep, off]
        E[:, off] -= 1
        return Poly._from_arrays(self.dims, E, self.coefs[keep] * p[:, None, None])

    def times_var(self, index: int, o: int, power: int = 1) -> "Poly":
        off = var_offset(index, o)
        E = self.exps.copy()
        E[:, off] += power
        if (E[:, off] < 0).any():
            raise ValueError(f"negative exponent from times_var power {power}")
        return Poly._from_arrays(self.dims, E, self.coefs)

    def set_var_zero(self, index: int, o: int) -> "Poly":
        keep = self.exps[:, var_offset(index, o)] == 0
        return Poly._from_arrays(self.dims, self.exps[keep], self.coefs[keep])

    def dilate(self, s: float) -> "Poly":
        """P(Z, Z') -> P(sZ, sZ') for real s: coefficient times s^degree."""
        factor = float(s) ** self.exps.sum(axis=1).astype(float)
        return Poly._from_arrays(self.dims, self.exps, self.coefs * factor[:, None, None])

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

    def evaluate_batch(self, X) -> np.ndarray:
        """Values at N points given as an ``(N, 4n)`` array of variable values
        in the exponent layout (see :func:`variable_columns`): ``(N, r, r)``."""
        E, C = self.table
        X = np.asarray(X, dtype=complex)
        if X.ndim != 2 or X.shape[1] != E.shape[1]:
            raise ValueError(f"variable values have shape {X.shape}, need (N, {E.shape[1]})")
        r = self.dims.fiber_rank
        return (monomial_values(X, E) @ C.reshape(-1, r * r)).reshape(len(X), r, r)

    def evaluate(self, Z, Zp=None) -> np.ndarray:
        """Value at (Z, Z'); both arrays padded/validated to length n."""
        n = self.dims.n
        z, zp = _pad_point(Z, n)[None], _pad_point(Zp, n)[None]
        return self.evaluate_batch(variable_columns(n, z, z.conj(), zp, zp.conj()))[0]

    # -- comparison ---------------------------------------------------------

    def almost_equal(self, other: "Poly", tol: float = 1e-12) -> bool:
        return self.max_coef_diff(other) <= tol

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
        names = [var_name(i, o) for i in range(1, self.dims.n + 1) for o in range(4)]
        terms = [
            {"exps": {name: p for name, p in zip(names, exps) if p}, "coef": _coef_to_json(coef)}
            for exps, coef in self.sorted_terms()
        ]
        return {"dims": self.dims.to_json_dict(), "terms": terms}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Poly":
        extra = set(d) - {"dims", "terms"}
        if extra:
            raise ValueError(f"unknown poly keys: {sorted(extra)}")
        dims = Dims.from_json_dict(d["dims"])
        out: dict[ExpKey, np.ndarray] = {}
        for t in d["terms"]:
            textra = set(_json_object(t, "term")) - {"exps", "coef"}
            if textra:
                raise ValueError(f"unknown term keys: {sorted(textra)}")
            exps = [0] * (4 * dims.n)
            for name, p in _json_object(t["exps"], "term exps").items():
                index, o = parse_var_name(name)
                if index > dims.n:
                    raise ValueError(f"variable {name} exceeds n={dims.n}")
                p = _json_int(p, f"exponent of {name}")
                if p < 0:
                    raise ValueError(f"negative exponent for {name}")
                exps[var_offset(index, o)] += p
            k = tuple(exps)
            c = _coef_from_json(t["coef"], dims.fiber_rank)
            out[k] = out[k] + c if k in out else c
        return cls(dims, out)


def variable_columns(n: int, z, zb, zp, zbp) -> np.ndarray:
    """Values of ``z_i``, ``conj(z_i)``, ``z'_i``, ``conj(z'_i)`` in the ``(N, 4n)``
    exponent layout.

    Each slot is an ``(N, d)`` array filling the first ``d <= n`` coordinates
    (the rest stay 0) or a scalar for all ``n``.  The slots need not be
    conjugate pairs, which is how polarized and partial evaluation work.
    """
    slots = [np.asarray(v, dtype=complex) for v in (z, zb, zp, zbp)]
    count = max(len(v) for v in slots if v.ndim)
    X = np.zeros((count, n, 4), dtype=complex)
    for o, v in enumerate(slots):
        X[:, : v.shape[1] if v.ndim else n, o] = v
    return X.reshape(count, 4 * n)


def monomial_values(X, E) -> np.ndarray:
    """``prod_j X[:, j] ** E[t, j]`` for N value rows and T exponent rows: ``(N, T)``."""
    out = np.ones((len(X), len(E)), dtype=complex)
    for j in E.any(axis=0).nonzero()[0]:
        out *= X[:, j, None] ** E[:, j]
    return out


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


def _collect(E: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the coefficients of equal exponent rows; distinct rows in first-occurrence order.

    Each sum runs in row order from -0.0, so its first addition is exact and
    a lone signed zero survives (the sums a dict accumulating ``out[k] =
    out[k] + c if k in out else c`` forms), and distinct rows come back as is.
    """
    if len(E) < 2:
        return E, C
    keys = _row_keys(E)
    order = keys.argsort(kind="stable")  # equal rows stay in row order
    ordered = keys[order]
    new = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    if new.all():
        return E, C
    acc = np.full((new.sum(),) + C.shape[1:], complex(-0.0, -0.0))
    np.add.at(acc, new.cumsum() - 1, C[order])
    first = order[new]
    rank = first.argsort()
    return E[first[rank]], acc[rank]


def _pad_point(Z, n: int) -> np.ndarray:
    if Z is None:
        return np.zeros(n, dtype=complex)
    z = np.asarray(Z, dtype=complex).ravel()
    if len(z) > n:
        raise ValueError(f"point has {len(z)} coords, dims allow {n}")
    if len(z) < n:
        z = np.concatenate([z, np.zeros(n - len(z), dtype=complex)])
    return z


def _json_object(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
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


def _coef_to_json(coef: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in coef]


def _coef_from_json(data, r: int) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if a.shape != (r, r, 2):
        raise ValueError(f"coef shape {a.shape} != ({r}, {r}, 2)")
    if not np.isfinite(a).all():
        raise ValueError("non-finite coefficient")
    return a[..., 0] + 1j * a[..., 1]

