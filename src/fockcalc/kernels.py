"""Model kernels on C^n with a marked subspace C^m, and ladder operators.

Every kernel is a Gaussian with the weight split evenly between its two
arguments, so it acts on plain L^2 of Lebesgue measure.  One descriptor
:class:`KernelKind` ``(du, dp, c)`` names it: the unprimed argument lives on
C^du, the primed one on C^dp, and the first c coordinates couple z_i to
conj(z'_i).  Four families have names:

- ``Bergman(n)``        ``(n, n, n)``  P_n(Z, Z')
- ``OrthBergman(n, m)`` ``(n, n, m)``  P-perp_{n,m}, cross terms in the first m coords
- ``Extension(n, m)``   ``(n, m, m)``  E_{n,m}(Z, Z'), second argument on C^m
- ``Restriction(n, m)`` ``(m, n, m)``  R_{n,m}(Z, Z'), first argument on C^m

A :class:`KernelExpr` is ``numerator * kernel`` with a polynomial numerator;
ladder operators act on expressions and stay in the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import _EXPORTS
from .arrays import _as_points
from .fields import _json_int, _json_object
from .poly import Dims, Poly, _O_Z, _O_ZB, _O_ZP, _O_ZBP, _var_offset, _collect

__all__ = list(_EXPORTS["kernels"])

PI = math.pi

@dataclass(frozen=True, eq=False, repr=False)
class KernelKind:
    """The kernel exp(-pi/2 (|Z|^2 + |Z'|^2) + pi sum_{i<=c} z_i conj(z'_i)), Z in C^du, Z' in C^dp.

    Kinds compare and hash by descriptor, so ``Extension(n, n) == Bergman(n)``;
    the name a kind was built with is kept for labels and JSON.
    """

    du: int
    dp: int
    c: int

    def __post_init__(self) -> None:
        for name in ("du", "dp", "c"):
            if type(getattr(self, name)) is not int:
                object.__setattr__(self, name, _json_int(getattr(self, name), name))
        if not 0 <= self.c <= min(self.du, self.dp):
            raise ValueError(f"need 0 <= c <= min(du, dp), got (du, dp, c) = {(self.du, self.dp, self.c)}")

    @property
    def n(self) -> int:
        """Ambient dimension: numerators are polynomials on C^n x C^n."""
        return max(self.du, self.dp)

    @property
    def m(self) -> int:
        return self.c

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelKind):
            return NotImplemented
        return (self.du, self.dp, self.c) == (other.du, other.dp, other.c)

    def __hash__(self) -> int:
        return hash((self.du, self.dp, self.c))

    def __repr__(self) -> str:
        args = (self.du, self.dp, self.c) if type(self) is KernelKind else (self.n, self.m)
        return f"{type(self).__name__}({','.join(map(str, args))})"


class Bergman(KernelKind):
    def __init__(self, n: int):
        super().__init__(n, n, n)

    def __repr__(self) -> str:
        return f"Bergman({self.n})"


class OrthBergman(KernelKind):
    def __init__(self, n: int, m: int):
        super().__init__(n, n, m)


class Extension(KernelKind):
    def __init__(self, n: int, m: int):
        super().__init__(n, m, m)


class Restriction(KernelKind):
    def __init__(self, n: int, m: int):
        super().__init__(m, n, m)


@lru_cache(maxsize=256)
def _named(du: int, dp: int, c: int) -> KernelKind:
    """The kind ``(du, dp, c)`` under its canonical name, or unnamed if it has none;
    one object per descriptor, as kinds are frozen."""
    if du == dp == c:
        return Bergman(du)
    if du == dp:
        return OrthBergman(du, c)
    if c == dp:
        return Extension(du, c)
    if c == du:
        return Restriction(dp, c)
    return KernelKind(du, dp, c)


def kind_name(kind: KernelKind) -> str:
    """The ``kernel/1`` name: the one the kind was built with, else its canonical one."""
    if type(kind) is KernelKind:
        kind = _named(kind.du, kind.dp, kind.c)
    if type(kind) is KernelKind:
        raise ValueError(f"{kind!r} has no kernel/1 name")
    return type(kind).__name__


_FROM_JSON = {
    "Bergman": lambda n, m: Bergman(n),
    "OrthBergman": OrthBergman,
    "Extension": Extension,
    "Restriction": Restriction,
}


def primed_dim(kind: KernelKind) -> int:
    return kind.dp


def _kernel_points(kind: KernelKind, Z, Zp) -> tuple[np.ndarray, np.ndarray]:
    """The N point pairs a kernel of ``kind`` is evaluated at, read: ``(N, du)`` and ``(N, dp)``."""
    shape = "{what} have shape {shape}, kernel expects (N, {d})"
    zu = _as_points(Z, kind.du, "unprimed points", wrong_shape=shape)
    return zu, _as_points(Zp, kind.dp, "primed points", len(zu), shape)


def _gaussian(kind: KernelKind, zu: np.ndarray, zp: np.ndarray) -> np.ndarray:
    """Kernel values at N point pairs, ``zu`` of shape (N, du) and ``zp`` (N, dp)."""
    c = kind.c
    q = (abs(zu) ** 2).sum(1) + (abs(zp) ** 2).sum(1) - 2.0 * (zu[:, :c] * zp[:, :c].conj()).sum(1)
    return np.exp(-0.5 * PI * q)


@dataclass(frozen=True)
class KernelExpr:
    """``numerator(Z, Z') * kernel(Z, Z')``; the numerator uses no coordinate beyond its slot's dimension."""

    numerator: Poly
    kind: KernelKind

    def __post_init__(self) -> None:
        num, kind = self.numerator, self.kind
        if num.dims.n != kind.n:
            raise ValueError(f"numerator dims n={num.dims.n} != kernel n={kind.n}")
        for slot, dim in (("unprimed", kind.du), ("primed", kind.dp)):
            if dim < kind.n and num.uses_slot(slot, beyond=dim):
                raise ValueError(f"{kind!r} numerator uses a {slot} coordinate beyond {dim}")

    @classmethod
    def _of(cls, numerator: Poly, kind: KernelKind) -> "KernelExpr":
        """The expression, unchecked: for numerators that fit ``kind`` by construction."""
        e = object.__new__(cls)
        object.__setattr__(e, "numerator", numerator)
        object.__setattr__(e, "kind", kind)
        return e

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
        """Kernel adjoint: numerator conjugate-swap plus kind swap ``(du, dp, c) -> (dp, du, c)``."""
        kind = self.kind
        return KernelExpr._of(self.numerator.conjugate_swap(), _named(kind.dp, kind.du, kind.c))

    def evaluate_batch(self, Z, Zp) -> np.ndarray:
        """Values at N point pairs: Z is (N, du), Zp is (N, dp); returns (N, r, r)."""
        return self._values(*_kernel_points(self.kind, Z, Zp))

    def _values(self, zu: np.ndarray, zp: np.ndarray) -> np.ndarray:
        """:meth:`evaluate_batch` at point pairs already read."""
        return self.numerator._values((zu, zu.conj(), zp, zp.conj())) * _gaussian(self.kind, zu, zp)[:, None, None]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The ``kernel/1`` payload; its dims are the kind's, which the reader takes the kind from."""
        kind, d = self.kind, self.numerator.to_json_dict()
        dims = Dims.of(kind.n, kind.m, fiber_rank=self.dims.fiber_rank)
        return {"dims": dims.to_json_dict(), "kind": kind_name(kind), "terms": d["terms"]}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "KernelExpr":
        d = _json_object(d, "kernel expr", ("dims", "kind", "terms"))
        num = Poly.from_json_dict({"dims": d["dims"], "terms": d["terms"]})
        name = d["kind"]
        if not isinstance(name, str) or name not in _FROM_JSON:
            raise ValueError(f"unknown kernel kind {name!r}")
        return cls(num, _FROM_JSON[name](num.dims.n, num.dims.m))


def unit_expr(kind: KernelKind, fiber_rank: int = 1) -> KernelExpr:
    return KernelExpr(Poly.one(Dims.of(kind.n, kind.m, fiber_rank=fiber_rank)), kind)


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
# The creation derivative picks up the kernel cross term when present.  Per
# coordinate, each operator on numerators is (variable differentiated,
# factor), ((variable multiplied in, factor), ...), the cross term last.
_LADDER = {
    ("unprimed", "creation"): ((_O_Z, -2.0), ((_O_ZB, 2 * PI), (_O_ZBP, -2 * PI))),
    ("unprimed", "annihilation"): ((_O_ZB, 2.0), ()),
    ("primed", "creation"): ((_O_ZBP, -2.0), ((_O_ZP, 2 * PI), (_O_Z, -2 * PI))),
    ("primed", "annihilation"): ((_O_ZP, 2.0), ()),
}


def _slot_dim(kind: KernelKind, slot: str) -> int:
    if slot not in ("unprimed", "primed"):
        raise ValueError(f"bad slot {slot!r}")
    return kind.du if slot == "unprimed" else kind.dp


def _ladder_rows(E: np.ndarray, C: np.ndarray, j: int, op: tuple, crossed: bool) -> tuple[np.ndarray, np.ndarray]:
    """A ``_LADDER`` operator on coordinate j of exponent rows ``(T, 4n)`` and coefficients
    ``(T, r, r)``: the image rows, uncollected, the derivative's first and then each product's.
    Its callers run it under one ``np.errstate`` guard each."""
    (o, factor), products = op
    keep = E[:, col := _var_offset(j, o)] > 0
    rows, coefs = [E[keep]], [C[keep] * E[keep, col, None, None] * complex(factor)]
    rows[0][:, col] -= 1
    for o, factor in products[: None if crossed else 1]:
        rows.append(E.copy())
        rows[-1][:, _var_offset(j, o)] += 1
        coefs.append(C * complex(factor))
    return np.concatenate(rows), np.concatenate(coefs)


def apply_ladder(e: KernelExpr, j: int, which: str, slot: str = "unprimed") -> KernelExpr:
    """The ladder operator on coordinate j of the slot, collected.  The image fits the kind
    unchecked: a step multiplies in only variables of coordinate j <= the slot's dimension,
    and the cross term, taken where j <= c, those of the other slot's coordinate j."""
    if which not in ("creation", "annihilation"):
        raise ValueError(f"bad ladder kind {which!r}")
    j, dim = _json_int(j, "ladder coordinate"), _slot_dim(e.kind, slot)
    if not 1 <= j <= dim:
        raise ValueError(f"coordinate {j} outside {slot} slot of dimension {dim}")
    P = e.numerator
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as non-finite
        E, C = _collect(*_ladder_rows(P.exps, P.coefs, j, _LADDER[slot, which], j <= e.kind.c))
    return KernelExpr._of(Poly._from_arrays(P.dims, E, C), e.kind)


def apply_model_laplacian(e: KernelExpr, slot: str = "unprimed") -> KernelExpr:
    """Sum over coordinates of creation after annihilation in the slot; each coordinate is collected first."""
    P = e.numerator
    parts = [(P.exps[:0], P.coefs[:0])]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as non-finite
        for j in range(1, _slot_dim(e.kind, slot) + 1):
            E, C = _ladder_rows(P.exps, P.coefs, j, _LADDER[slot, "annihilation"], False)
            parts.append(_collect(*_ladder_rows(E, C, j, _LADDER[slot, "creation"], j <= e.kind.c)))
    E, C = map(np.concatenate, zip(*parts))
    return KernelExpr(Poly._from_arrays(P.dims, *_collect(E, C)), e.kind)
