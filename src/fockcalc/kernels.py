"""Model kernels on C^n with a marked subspace C^m, and ladder operators.

Four Gaussian kernel families, all written with the weight split evenly
between the two arguments so they act on plain L^2 of Lebesgue measure:

- ``Bergman(n)``        P_n(Z, Z')      on C^n x C^n
- ``OrthBergman(n, m)`` P-perp_{n,m}    cross terms only in the first m coords
- ``Extension(n, m)``   E_{n,m}(Z, Z')  second argument lives on C^m
- ``Restriction(n, m)`` R_{n,m}(Z, Z')  first argument lives on C^m

A :class:`KernelExpr` is ``numerator * kernel`` with a polynomial numerator;
ladder operators act on expressions and stay in the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .poly import Dims, Poly, O_Z, O_ZB, O_ZP, O_ZBP, variable_columns

__all__ = [
    "Bergman",
    "OrthBergman",
    "Extension",
    "Restriction",
    "KernelKind",
    "KernelExpr",
    "ScaledKernel",
    "unit_expr",
    "kernel_eval",
    "kernel_expr_eval",
    "apply_ladder",
    "apply_model_laplacian",
    "kind_name",
    "kind_from_json",
    "unprimed_dim",
    "primed_dim",
    "cross_count",
    "TOEPLITZ_KINDS",
]

PI = math.pi

# The five basic operator kinds whose leading terms ``operators.toeplitz_leading``
# gives.  Defined here so the command line can list them without loading
# ``operators``.
TOEPLITZ_KINDS = ("YY", "XY_even", "XY_odd", "YX_even", "YX_odd")


@dataclass(frozen=True)
class Bergman:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")


@dataclass(frozen=True)
class OrthBergman:
    n: int
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= self.n:
            raise ValueError(f"need 0 <= m <= n, got n={self.n} m={self.m}")


@dataclass(frozen=True)
class Extension:
    n: int
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= self.n:
            raise ValueError(f"need 0 <= m <= n, got n={self.n} m={self.m}")


@dataclass(frozen=True)
class Restriction:
    n: int
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= self.n:
            raise ValueError(f"need 0 <= m <= n, got n={self.n} m={self.m}")


KernelKind = Union[Bergman, OrthBergman, Extension, Restriction]

_KIND_NAMES = {Bergman: "Bergman", OrthBergman: "OrthBergman", Extension: "Extension", Restriction: "Restriction"}


def kind_name(kind: KernelKind) -> str:
    return _KIND_NAMES[type(kind)]


def kind_from_json(name: str, dims: Dims) -> KernelKind:
    if name == "Bergman":
        return Bergman(dims.n)
    if name == "OrthBergman":
        return OrthBergman(dims.n, dims.m)
    if name == "Extension":
        return Extension(dims.n, dims.m)
    if name == "Restriction":
        return Restriction(dims.n, dims.m)
    raise ValueError(f"unknown kernel kind {name!r}")


def unprimed_dim(kind: KernelKind) -> int:
    return kind.m if isinstance(kind, Restriction) else kind.n


def primed_dim(kind: KernelKind) -> int:
    return kind.m if isinstance(kind, Extension) else kind.n


def cross_count(kind: KernelKind) -> int:
    """Number of leading coordinates i where the kernel couples z_i to conj(z'_i)."""
    return kind.n if isinstance(kind, Bergman) else kind.m


def kernel_eval(kind: KernelKind, Z, Zp) -> complex:
    """Pure exponential kernel value at (Z, Z')."""
    zu = _point(Z, unprimed_dim(kind), "unprimed")[None]
    zp = _point(Zp, primed_dim(kind), "primed")[None]
    return complex(_gaussian(kind, zu, zp)[0])


def _gaussian(kind: KernelKind, zu: np.ndarray, zp: np.ndarray) -> np.ndarray:
    """Kernel values at N point pairs, ``zu`` of shape (N, du) and ``zp`` (N, dp)."""
    c = cross_count(kind)
    q = (abs(zu) ** 2).sum(1) + (abs(zp) ** 2).sum(1) - 2.0 * (zu[:, :c] * zp[:, :c].conj()).sum(1)
    return np.exp(-0.5 * PI * q)


def _point(Z, dim: int, label: str) -> np.ndarray:
    z = np.zeros(dim, dtype=complex) if Z is None else np.asarray(Z, dtype=complex).ravel()
    if len(z) != dim:
        raise ValueError(f"{label} argument has {len(z)} coords, kernel expects {dim}")
    return z


@dataclass(frozen=True)
class KernelExpr:
    """``numerator(Z, Z') * kernel(Z, Z')`` with per-kind variable-domain checks."""

    numerator: Poly
    kind: KernelKind

    def __post_init__(self) -> None:
        num, kind = self.numerator, self.kind
        if num.dims.n != kind.n:
            raise ValueError(f"numerator dims n={num.dims.n} != kernel n={kind.n}")
        checks = ((Extension, "extension", "primed", O_ZP), (Restriction, "restriction", "unprimed", O_Z))
        for family, label, slot, offset in checks:
            if isinstance(kind, family):
                used = num._blocks()[:, kind.m :, offset : offset + 2].any(axis=(0, 2))
                if used.any():
                    i = kind.m + 1 + int(used.argmax())
                    raise ValueError(f"{label} numerator uses {slot} coordinate {i} > m={kind.m}")

    @property
    def dims(self) -> Dims:
        return self.numerator.dims

    def scale(self, scalar: complex) -> "KernelExpr":
        return KernelExpr(self.numerator.scale(scalar), self.kind)

    def add(self, other: "KernelExpr") -> "KernelExpr":
        if self.kind != other.kind:
            raise ValueError(f"cannot add {self.kind} and {other.kind}")
        return KernelExpr(self.numerator.add(other.numerator), self.kind)

    def adjoint(self) -> "KernelExpr":
        """Kernel adjoint: numerator conjugate-swap plus kind swap (E <-> R)."""
        kind = self.kind
        if isinstance(kind, Extension):
            new_kind: KernelKind = Restriction(kind.n, kind.m)
        elif isinstance(kind, Restriction):
            new_kind = Extension(kind.n, kind.m)
        else:
            new_kind = kind
        return KernelExpr(self.numerator.conjugate_swap(), new_kind)

    def evaluate(self, Z, Zp) -> np.ndarray:
        return kernel_expr_eval(self, Z, Zp)

    def evaluate_batch(self, Z, Zp) -> np.ndarray:
        """Values at N point pairs: Z is (N, du), Zp is (N, dp); returns (N, r, r)."""
        kind, n = self.kind, self.kind.n
        zu, zp = np.asarray(Z, dtype=complex), np.asarray(Zp, dtype=complex)
        for z, dim, label in ((zu, unprimed_dim(kind), "unprimed"), (zp, primed_dim(kind), "primed")):
            if z.ndim != 2 or z.shape[1] != dim or len(z) != len(zu):
                raise ValueError(f"{label} points have shape {z.shape}, kernel expects (N, {dim})")
        X = variable_columns(n, zu, zu.conj(), zp, zp.conj())
        return self.numerator.evaluate_batch(X) * _gaussian(kind, zu, zp)[:, None, None]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = self.numerator.to_json_dict()
        return {"dims": d["dims"], "kind": kind_name(self.kind), "terms": d["terms"]}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "KernelExpr":
        extra = set(d) - {"dims", "kind", "terms"}
        if extra:
            raise ValueError(f"unknown kernel expr keys: {sorted(extra)}")
        num = Poly.from_json_dict({"dims": d["dims"], "terms": d["terms"]})
        kind = kind_from_json(d["kind"], num.dims)
        return cls(num, kind)


def unit_expr(kind: KernelKind, fiber_rank: int = 1) -> KernelExpr:
    dims = Dims(n=kind.n, l=kind.n, m=getattr(kind, "m", kind.n), fiber_rank=fiber_rank)
    return KernelExpr(Poly.one(dims), kind)


@dataclass(frozen=True)
class ScaledKernel:
    """``prefactor * expr(sqrt(p) Z, sqrt(p) Z')`` -- semiclassical rescaling.

    Rescaling is always substitution plus prefactor, never a separate kernel
    family; ``p = 1, prefactor = 1`` wraps a plain expression.
    """

    expr: KernelExpr
    p: float = 1.0
    prefactor: complex = 1.0

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("p must be positive")

    @property
    def kind(self) -> KernelKind:
        return self.expr.kind

    def evaluate(self, Z, Zp) -> np.ndarray:
        s = math.sqrt(self.p)
        zu = s * _point(Z, unprimed_dim(self.kind), "unprimed")
        zp = s * _point(Zp, primed_dim(self.kind), "primed")
        return self.prefactor * kernel_expr_eval(self.expr, zu, zp)

    def scale(self, scalar: complex) -> "ScaledKernel":
        return ScaledKernel(self.expr, self.p, self.prefactor * complex(scalar))

    def adjoint(self) -> "ScaledKernel":
        return ScaledKernel(self.expr.adjoint(), self.p, complex(np.conj(self.prefactor)))


def kernel_expr_eval(e: KernelExpr, Z, Zp) -> np.ndarray:
    """Matrix value numerator(Z, Z') * kernel(Z, Z')."""
    zu = _point(Z, unprimed_dim(e.kind), "unprimed")
    zp = _point(Zp, primed_dim(e.kind), "primed")
    return e.evaluate_batch(zu[None], zp[None])[0]


# -- ladder operators --------------------------------------------------------
#
# Unprimed slot:   creation      b_j   = -2 d/dz_j + pi conj(z_j).
#                  annihilation  b+_j  =  2 d/dzb_j + pi z_j
# Primed slot uses the conjugated pair (the kernels are antiholomorphic there):
#                  creation      -2 d/dzb'_j + pi z'_j
#                  annihilation   2 d/dz'_j + pi conj(z'_j)
#
# Acting on numerator * kernel, the annihilation multiplication term always
# cancels against the kernel derivative, so annihilation = 2 d(numerator).
# The creation derivative picks up the kernel cross term when present.


def apply_ladder(e: KernelExpr, j: int, which: str, slot: str = "unprimed") -> KernelExpr:
    if which not in ("creation", "annihilation"):
        raise ValueError(f"bad ladder kind {which!r}")
    if slot not in ("unprimed", "primed"):
        raise ValueError(f"bad slot {slot!r}")
    dim = unprimed_dim(e.kind) if slot == "unprimed" else primed_dim(e.kind)
    if not 1 <= j <= dim:
        raise ValueError(f"coordinate {j} outside {slot} slot of dimension {dim}")
    P = e.numerator
    crossed = j <= cross_count(e.kind)
    if slot == "unprimed":
        if which == "annihilation":
            out = P.diff(j, O_ZB).scale(2.0)
        else:
            out = P.diff(j, O_Z).scale(-2.0).add(P.times_var(j, O_ZB).scale(2 * PI))
            if crossed:
                out = out.add(P.times_var(j, O_ZBP).scale(-2 * PI))
    else:
        if which == "annihilation":
            out = P.diff(j, O_ZP).scale(2.0)
        else:
            out = P.diff(j, O_ZBP).scale(-2.0).add(P.times_var(j, O_ZP).scale(2 * PI))
            if crossed:
                out = out.add(P.times_var(j, O_Z).scale(-2 * PI))
    return KernelExpr(out, e.kind)


def apply_model_laplacian(e: KernelExpr, slot: str = "unprimed") -> KernelExpr:
    """Sum over coordinates of creation after annihilation, in the given slot."""
    dim = unprimed_dim(e.kind) if slot == "unprimed" else primed_dim(e.kind)
    acc = KernelExpr(Poly.zero(e.numerator.dims), e.kind)
    for j in range(1, dim + 1):
        acc = acc.add(apply_ladder(apply_ladder(e, j, "annihilation", slot), j, "creation", slot))
    return acc
