"""Sparse polynomials in two groups of complex variables.

A :class:`Poly` lives on C^n x C^n with coordinates written
``z_1..z_n`` (unprimed slot) and ``z'_1..z'_n`` (primed slot), each
together with its conjugate.  Coefficients are dense ``(r, r)`` complex
matrices (``r`` = fiber rank), so scalar problems use ``r = 1`` and
matrix-symbol problems keep full endomorphism coefficients.

Exponents are stored as a flat tuple of length ``4*n`` with layout
``exps[4*(i-1) + o]`` where ``o`` selects, in order,
``z_i``, ``conj(z_i)``, ``z'_i``, ``conj(z'_i)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
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
        return cls(
            n=int(d["n"]),
            l=int(d.get("l", d["n"])),
            m=int(d.get("m", d["n"])),
            fiber_rank=int(d.get("fiber_rank", 1)),
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


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial with matrix coefficients; exact zeros are pruned."""

    dims: Dims
    terms: Mapping[ExpKey, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        r = self.dims.fiber_rank
        width = 4 * self.dims.n
        keys = list(self.terms)
        count = len(keys)
        if not count:
            object.__setattr__(self, "terms", {})
            return
        for exps in keys:
            if len(exps) != width:
                raise ValueError(f"exponent tuple length {len(exps)} != {width}")
        try:
            E = np.array(keys, dtype=np.int64).reshape(count, width)
        except OverflowError:
            raise ValueError("exponent out of range") from None
        if (E < 0).any():
            row = E[(E < 0).any(axis=1)][0]
            raise ValueError(f"negative exponent in {tuple(row.tolist())}")
        # One stacked pass over the coefficients; scalars (fiber rank 1) and
        # mixed inputs go through _as_coef, which also names a bad shape.
        values = list(self.terms.values())
        try:
            C = np.array(values, dtype=complex)
        except (ValueError, TypeError):
            C = None
        if C is not None and C.shape == (count,) and r == 1:
            C = C.reshape(count, 1, 1)
        if C is None or C.shape != (count, r, r):
            C = np.array([_as_coef(v, r) for v in values], dtype=complex).reshape(count, r, r)
        if not np.isfinite(C).all():
            raise ValueError("non-finite coefficient")
        C.setflags(write=False)
        live = C.reshape(count, r * r).any(axis=1).tolist()
        clean = {tuple(k): c for k, c, keep in zip(E.tolist(), C, live) if keep}
        object.__setattr__(self, "terms", clean)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dims: Dims) -> "Poly":
        return cls(dims, {})

    @classmethod
    def one(cls, dims: Dims) -> "Poly":
        return cls.constant(dims, np.eye(dims.fiber_rank))

    @classmethod
    def constant(cls, dims: Dims, coef) -> "Poly":
        return cls(dims, {tuple([0] * (4 * dims.n)): _as_coef(coef, dims.fiber_rank)})

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
        return not self.terms

    def sorted_terms(self) -> list[tuple[ExpKey, np.ndarray]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def parity(self) -> int | None:
        """0 if every term has even total degree, 1 if odd, None if mixed or zero."""
        if not self.terms:
            return None
        ps = {sum(e) % 2 for e in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def max_exponent(self, index: int, o: int) -> int:
        off = var_offset(index, o)
        return max((e[off] for e in self.terms), default=0)

    def uses_slot(self, slot: str) -> bool:
        lo, hi = (2, 4) if slot == "primed" else (0, 2)
        return any(
            any(e[4 * i + o] for o in range(lo, hi))
            for e in self.terms
            for i in range(self.dims.n)
        )

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out: dict[ExpKey, np.ndarray] = {k: v for k, v in self.terms.items()}
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return Poly(self.dims, out)

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.scale(-1.0))

    def scale(self, scalar: complex) -> "Poly":
        return Poly(self.dims, {k: v * complex(scalar) for k, v in self.terms.items()})

    def scale_matrix(self, left=None, right=None) -> "Poly":
        """Multiply every coefficient by fixed matrices: left @ coef @ right."""
        r = self.dims.fiber_rank
        lm = np.eye(r) if left is None else _as_coef(left, r)
        rm = np.eye(r) if right is None else _as_coef(right, r)
        return Poly(self.dims, {k: lm @ v @ rm for k, v in self.terms.items()})

    def mul(self, other: "Poly", degree_cap: int = DEFAULT_DEGREE_CAP) -> "Poly":
        self._check_compatible(other)
        out: dict[ExpKey, np.ndarray] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                d = sum(e)
                if d > degree_cap:
                    raise DegreeOverflowError(
                        f"product term degree {d} exceeds cap {degree_cap}"
                    )
                c = c1 @ c2
                out[e] = out[e] + c if e in out else c
        return Poly(self.dims, out)

    def conjugate_swap(self) -> "Poly":
        """Kernel adjoint on numerators: swap slots, conjugate, transpose coefficients.

        For a term C z^a zb^b z'^c zb'^d the image is C^H z^d zb^c z'^b zb'^a,
        i.e. offsets map o -> 3 - o.  Involution and mul-antihomomorphism.
        """
        out: dict[ExpKey, np.ndarray] = {}
        for exps, coef in self.terms.items():
            new = [0] * len(exps)
            for i in range(self.dims.n):
                for o in range(4):
                    new[4 * i + (3 - o)] = exps[4 * i + o]
            k = tuple(new)
            c = coef.conj().T
            out[k] = out[k] + c if k in out else c
        return Poly(self.dims, out)

    # -- calculus helpers ---------------------------------------------------

    def diff(self, index: int, o: int) -> "Poly":
        """Formal partial derivative in the variable (index, o)."""
        off = var_offset(index, o)
        out: dict[ExpKey, np.ndarray] = {}
        for exps, coef in self.terms.items():
            p = exps[off]
            if p == 0:
                continue
            e = list(exps)
            e[off] = p - 1
            k = tuple(e)
            c = coef * p
            out[k] = out[k] + c if k in out else c
        return Poly(self.dims, out)

    def times_var(self, index: int, o: int, power: int = 1) -> "Poly":
        off = var_offset(index, o)
        out: dict[ExpKey, np.ndarray] = {}
        for exps, coef in self.terms.items():
            e = list(exps)
            e[off] = exps[off] + power
            out[tuple(e)] = coef
        return Poly(self.dims, out)

    def set_var_zero(self, index: int, o: int) -> "Poly":
        off = var_offset(index, o)
        return Poly(self.dims, {e: c for e, c in self.terms.items() if e[off] == 0})

    def dilate(self, s: float) -> "Poly":
        """P(Z, Z') -> P(sZ, sZ') for real s: coefficient times s^degree."""
        s = float(s)
        return Poly(self.dims, {e: c * (s ** sum(e)) for e, c in self.terms.items()})

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only exponent rows ``(T, 4n)`` and coefficients ``(T, r, r)``, sorted."""
        n, r = self.dims.n, self.dims.fiber_rank
        items = self.sorted_terms()
        E = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), 4 * n)
        C = np.array([c for _, c in items], dtype=complex).reshape(len(items), r, r)
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
        self._check_compatible(other)
        keys = set(self.terms) | set(other.terms)
        zero = np.zeros((self.dims.fiber_rank,) * 2)
        for k in keys:
            a = self.terms.get(k, zero)
            b = other.terms.get(k, zero)
            if np.max(np.abs(a - b)) > tol:
                return False
        return True

    def max_coef_diff(self, other: "Poly") -> float:
        self._check_compatible(other)
        keys = set(self.terms) | set(other.terms)
        zero = np.zeros((self.dims.fiber_rank,) * 2)
        out = 0.0
        for k in keys:
            a = self.terms.get(k, zero)
            b = other.terms.get(k, zero)
            out = max(out, float(np.max(np.abs(a - b))))
        return out

    def _check_compatible(self, other: "Poly") -> None:
        if self.dims.n != other.dims.n or self.dims.fiber_rank != other.dims.fiber_rank:
            raise ValueError(f"incompatible dims: {self.dims} vs {other.dims}")

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for exps, coef in self.sorted_terms():
            named = {}
            for i in range(1, self.dims.n + 1):
                for o in range(4):
                    p = exps[var_offset(i, o)]
                    if p:
                        named[var_name(i, o)] = p
            terms.append({"exps": named, "coef": _coef_to_json(coef)})
        return {"dims": self.dims.to_json_dict(), "terms": terms}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Poly":
        extra = set(d) - {"dims", "terms"}
        if extra:
            raise ValueError(f"unknown poly keys: {sorted(extra)}")
        dims = Dims.from_json_dict(d["dims"])
        out: dict[ExpKey, np.ndarray] = {}
        for t in d["terms"]:
            textra = set(t) - {"exps", "coef"}
            if textra:
                raise ValueError(f"unknown term keys: {sorted(textra)}")
            exps = [0] * (4 * dims.n)
            for name, p in t["exps"].items():
                index, o = parse_var_name(name)
                if index > dims.n:
                    raise ValueError(f"variable {name} exceeds n={dims.n}")
                if int(p) < 0:
                    raise ValueError(f"negative exponent for {name}")
                exps[var_offset(index, o)] += int(p)
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


def _pad_point(Z, n: int) -> np.ndarray:
    if Z is None:
        return np.zeros(n, dtype=complex)
    z = np.asarray(Z, dtype=complex).ravel()
    if len(z) > n:
        raise ValueError(f"point has {len(z)} coords, dims allow {n}")
    if len(z) < n:
        z = np.concatenate([z, np.zeros(n - len(z), dtype=complex)])
    return z


def _coef_to_json(coef: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in coef]


def _coef_from_json(data, r: int) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if a.shape != (r, r, 2):
        raise ValueError(f"coef shape {a.shape} != ({r}, {r}, 2)")
    if not np.isfinite(a).all():
        raise ValueError("non-finite coefficient")
    return a[..., 0] + 1j * a[..., 1]

