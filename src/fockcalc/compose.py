"""Closed-form composition of polynomial-times-Gaussian kernel expressions.

Composing two model kernels integrates out the shared middle variable
W in C^k against the Gaussian weight exp(-pi |W|^2) that the two kernel
halves always assemble.  Per middle coordinate the answer depends only on
whether the left kernel couples the outer unprimed variable to conj(w)
and whether the right kernel couples w to the outer conj(z'):

==============  ==========================================================
left, right     one-coordinate value of the pairing  <w^a wbar^b>
==============  ==========================================================
both            sum_k  a! b! / ((a-k)! (b-k)! k!) pi^-k  z^(a-k) zb'^(b-k)
left only       [a >= b]  a!/(a-b)! pi^-b  z^(a-b)
right only      [b >= a]  b!/(b-a)! pi^-a  zb'^(b-a)
neither         [a == b]  a! pi^-a
==============  ==========================================================

Everything else (outer polynomial factors, spectator variables, matrix
coefficients multiplying in operator order) tensors over coordinates.
The generator :func:`base_terms` yields exact rational-in-1/pi
coefficients; the float engine reads the same terms through a memoised
float table.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .poly import (
    DEFAULT_DEGREE_CAP,
    DegreeOverflowError,
    Dims,
    Poly,
    O_Z,
    O_ZB,
    O_ZP,
    O_ZBP,
)
from .kernels import (
    Bergman,
    OrthBergman,
    Extension,
    Restriction,
    KernelExpr,
    KernelKind,
    kind_name,
)

__all__ = [
    "ComposePlan",
    "UnsupportedCompositionError",
    "base_terms",
    "k_base_exact",
    "k_base",
    "k_nm",
    "k_prime_nm",
    "k_ep",
    "k_e",
    "compose",
    "compose_plan",
]

PI = math.pi


class UnsupportedCompositionError(ValueError):
    """Raised for kind pairs outside the supported composition table."""


@dataclass(frozen=True)
class ComposePlan:
    left_kind: str
    right_kind: str
    result_kind: str
    rule: str

    def to_json_dict(self) -> dict:
        return {
            "left_kind": self.left_kind,
            "right_kind": self.right_kind,
            "result_kind": self.result_kind,
            "rule": self.rule,
        }


# -- base cases ---------------------------------------------------------------


def base_terms(a: int, b: int, left_cross: bool, right_cross: bool) -> Iterator[tuple[int, int, Fraction, int]]:
    """Pairing of one middle coordinate carrying w^a conj(w)^b.

    Yields ``(dz, dzp, coef, p)`` meaning ``coef * pi**(-p) * z^dz * zb'^dzp``
    where z is the outer unprimed and zb' the outer primed-conjugate variable
    of that coordinate.  Empty iteration means the pairing vanishes.
    """
    if a < 0 or b < 0:
        raise ValueError("negative exponent")
    if left_cross and right_cross:
        for k in range(min(a, b) + 1):
            coef = Fraction(
                math.factorial(a) * math.factorial(b),
                math.factorial(a - k) * math.factorial(b - k) * math.factorial(k),
            )
            yield (a - k, b - k, coef, k)
    elif left_cross:
        if a >= b:
            yield (a - b, 0, Fraction(math.factorial(a), math.factorial(a - b)), b)
    elif right_cross:
        if b >= a:
            yield (0, b - a, Fraction(math.factorial(b), math.factorial(b - a)), a)
    else:
        if a == b:
            yield (0, 0, Fraction(math.factorial(a)), a)


def k_base_exact(a: int, b: int, coordinate_kind: str) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Exact rational-in-1/pi base case for one coordinate.

    ``coordinate_kind``: 'tangential' (both kernels couple the coordinate)
    or 'normal' (neither does).  Returns {(dz, dzp): {p: coef}} so the value
    reads sum coef * pi**(-p) * z^dz * zb'^dzp, with no floats anywhere.
    """
    if coordinate_kind == "tangential":
        lc = rc = True
    elif coordinate_kind == "normal":
        lc = rc = False
    else:
        raise ValueError(f"coordinate_kind must be 'tangential' or 'normal', got {coordinate_kind!r}")
    out: dict[tuple[int, int], dict[int, Fraction]] = {}
    for dz, dzp, coef, p in base_terms(a, b, lc, rc):
        out.setdefault((dz, dzp), {})
        out[(dz, dzp)][p] = out[(dz, dzp)].get(p, Fraction(0)) + coef
    return {k: v for k, v in out.items() if any(c != 0 for c in v.values())}


# -- the shared bracket core --------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _pairing_table(
    a: int, b: int, left_cross: bool, right_cross: bool
) -> tuple[tuple[int, int, float], ...]:
    """:func:`base_terms` in float form: ``((dz, dzp, coef / pi**p), ...)``.

    Memoised: exponents up to the default degree cap give about a thousand
    keys, well inside the cache bound.  An empty table means the pairing
    vanishes.  A coefficient too large for a float reads ``inf``, because
    the whole table is built before the degree cap is checked; the bracket
    rejects a term only once it has passed the cap.
    """
    return tuple(
        (dz, dzp, _over_pi_power(frac, p))
        for dz, dzp, frac, p in base_terms(a, b, left_cross, right_cross)
    )


def _over_pi_power(frac: Fraction, p: int) -> float:
    try:
        return float(frac) / PI**p
    except OverflowError:
        return math.inf


def _split_terms(p: Poly, side: str, n_mid: int, out_dims: Dims) -> list:
    """Split each term of one side of a bracket once, before the pair loop.

    Per term: outer exponents laid out in the result's slots, their total
    degree, the middle ``(a, b)`` per middle coordinate, and the coefficient.
    The left side's outer variable is unprimed and its middle primed; the
    right side the other way round.
    """
    if side == "left":
        outer_offsets, mid_offsets = (O_Z, O_ZB), (O_ZP, O_ZBP)
    else:
        outer_offsets, mid_offsets = (O_ZP, O_ZBP), (O_Z, O_ZB)
    out = []
    for e, c in p.terms.items():
        outer = [0] * (4 * out_dims.n)
        for i in range(p.dims.n):
            for o in outer_offsets:
                if e[4 * i + o]:
                    if i >= out_dims.n:
                        raise ValueError(f"{side} outer variable beyond result dimensions")
                    outer[4 * i + o] = e[4 * i + o]
            if i >= n_mid and any(e[4 * i + o] for o in mid_offsets):
                raise ValueError(f"{side} middle variable beyond middle dimension")
        mid = tuple(
            tuple(e[4 * i + o] for o in mid_offsets) if i < p.dims.n else (0, 0)
            for i in range(n_mid)
        )
        out.append((outer, sum(outer), mid, c))
    return out


def _bracket(
    left: Poly,
    right: Poly,
    n_mid: int,
    left_cross: int,
    right_cross: int,
    out_dims: Dims,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Poly:
    """Integrate out the middle variable between two polynomials.

    ``left``: unprimed = outer (stays unprimed), primed = middle.
    ``right``: unprimed = middle, primed = outer (stays primed).
    Coordinates i < left_cross couple the left outer variable, i <
    right_cross the right one.  Indices are preserved coordinate-wise.
    Each term is split once; the pair loop only looks pairings up and
    accumulates, in term-pair order.
    """
    if left.dims.fiber_rank != right.dims.fiber_rank:
        raise ValueError("fiber rank mismatch")
    if not left.terms or not right.terms:
        return Poly.zero(out_dims)
    lefts = _split_terms(left, "left", n_mid, out_dims)
    rights = _split_terms(right, "right", n_mid, out_dims)
    cross = [(i < left_cross, i < right_cross) for i in range(n_mid)]
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for outer1, deg1, mid1, c1 in lefts:
        for outer2, deg2, mid2, c2 in rights:
            tables = [
                _pairing_table(a1 + a2, b1 + b2, lc, rc)
                for (a1, b1), (a2, b2), (lc, rc) in zip(mid1, mid2, cross)
            ]
            if not all(tables):
                continue
            coef = c1 @ c2
            base = list(map(operator.add, outer1, outer2))
            for combo in itertools.product(*tables):
                exps = list(base)
                degree = deg1 + deg2
                scalar = 1.0
                for i, (dz, dzp, s) in enumerate(combo):
                    if dz:
                        exps[4 * i + O_Z] += dz
                    if dzp:
                        exps[4 * i + O_ZBP] += dzp
                    degree += dz + dzp
                    scalar *= s
                if degree > degree_cap:
                    raise DegreeOverflowError(
                        f"composition term degree {degree} exceeds cap {degree_cap}"
                    )
                if scalar == math.inf:
                    raise ValueError(f"composition term of degree {degree} overflows a float")
                key = tuple(exps)
                contrib = scalar * coef
                acc[key] = acc[key] + contrib if key in acc else contrib
    return Poly(out_dims, acc)


# -- named bracket assemblies (polynomial level) -------------------------------


def _out_dims(n: int, m: int, r: int) -> Dims:
    return Dims(n=n, l=n, m=m, fiber_rank=r)


def k_base(B: Poly, n: int, m: int) -> Poly:
    """Pairing of 1 against a middle-only polynomial B on C^n, tangential in C^m."""
    if B.uses_slot("primed"):
        raise ValueError("k_base middle polynomial must use unprimed variables only")
    dims = _out_dims(n, m, B.dims.fiber_rank)
    return _bracket(Poly.one(dims), _embed(B, n), n, m, m, dims)


def k_nm(A1: Poly, A2: Poly, n: int, m: int) -> Poly:
    """Full pairing: A1(Z, W) against A2(W, Z'), tangential in the first m coords."""
    dims = _out_dims(n, m, A1.dims.fiber_rank)
    return _bracket(_embed(A1, n), _embed(A2, n), n, m, m, dims)


def k_prime_nm(A1: Poly, A2: Poly, n: int, m: int) -> Poly:
    """Pairing with a full Bergman kernel on the left: normal coords couple z only."""
    dims = _out_dims(n, m, A1.dims.fiber_rank)
    return _bracket(_embed(A1, n), _embed(A2, n), n, n, m, dims)


def k_ep(A: Poly, D: Poly, n: int, m: int) -> Poly:
    """Pairing over a C^m middle: A(Z, W_Y) against D(W_Y, Z'_Y)."""
    for i in range(m, n):
        for o in (O_ZP, O_ZBP):
            if A.max_exponent(i + 1, o):
                raise ValueError("A must not use primed coordinates beyond m")
    dims = _out_dims(n, m, A.dims.fiber_rank)
    return _bracket(_embed(A, n), _embed(D, n), m, m, m, dims)


def k_e(A4: Poly, A5: Poly, n: int, l: int, m: int) -> Poly:
    """Two-step extension pairing over a C^l middle, landing tangential in C^m."""
    if not (m <= l <= n):
        raise ValueError(f"need m <= l <= n, got n={n} l={l} m={m}")
    for i in range(l, n):
        for o in (O_ZP, O_ZBP):
            if A4.max_exponent(i + 1, o):
                raise ValueError("A4 must not use primed coordinates beyond l")
    for i in range(m, A5.dims.n):
        for o in (O_ZP, O_ZBP):
            if A5.max_exponent(i + 1, o):
                raise ValueError("A5 must not use primed coordinates beyond m")
    dims = Dims(n=n, l=l, m=m, fiber_rank=A4.dims.fiber_rank)
    return _bracket(_embed(A4, n), _embed(A5, n), l, l, m, dims)


def _embed(p: Poly, n: int) -> Poly:
    """Reindex a polynomial into ambient dimension n (exponents keep coordinates)."""
    if p.dims.n == n:
        return p
    if p.dims.n > n:
        for e in p.terms:
            if any(e[4 * i + o] for i in range(n, p.dims.n) for o in range(4)):
                raise ValueError(f"polynomial uses coordinates beyond n={n}")
        dims = Dims(n=n, l=n, m=min(p.dims.m, n), fiber_rank=p.dims.fiber_rank)
        return Poly(dims, {e[: 4 * n]: c for e, c in p.terms.items()})
    dims = Dims(n=n, l=n, m=p.dims.m, fiber_rank=p.dims.fiber_rank)
    return Poly(dims, {e + (0,) * (4 * (n - p.dims.n)): c for e, c in p.terms.items()})


# -- kernel-level composition ---------------------------------------------------


def _plan_config(k1: KernelKind, k2: KernelKind):
    """Return (n_mid, left_cross, right_cross, result_kind, rule) or raise."""
    if isinstance(k1, Bergman) and isinstance(k2, Bergman):
        _need(k1.n == k2.n, k1, k2)
        return k1.n, k1.n, k2.n, Bergman(k1.n), "full tangential pairing"
    if isinstance(k1, OrthBergman) and isinstance(k2, OrthBergman):
        _need(k1 == k2, k1, k2)
        return k1.n, k1.m, k2.m, OrthBergman(k1.n, k1.m), "tangential pairing, normal moments"
    if isinstance(k1, Bergman) and isinstance(k2, OrthBergman):
        _need(k1.n == k2.n, k1, k2)
        return k1.n, k1.n, k2.m, OrthBergman(k2.n, k2.m), "tangential pairing, bergman-left normal band"
    if isinstance(k1, Bergman) and isinstance(k2, Extension):
        _need(k1.n == k2.n, k1, k2)
        return k1.n, k1.n, k2.m, Extension(k2.n, k2.m), "tangential pairing, bergman-left normal band"
    if isinstance(k1, OrthBergman) and isinstance(k2, Extension):
        _need(k1.n == k2.n and k1.m == k2.m, k1, k2)
        return k1.n, k1.m, k2.m, Extension(k2.n, k2.m), "tangential pairing, normal moments"
    if isinstance(k1, Restriction) and isinstance(k2, Extension):
        _need(k1.n == k2.n and k1.m == k2.m, k1, k2)
        return k1.n, k1.m, k2.m, Bergman(k1.m), "tangential pairing, normal moments, lands on the subspace"
    if isinstance(k1, Extension) and isinstance(k2, Bergman):
        _need(k1.m == k2.n, k1, k2)
        return k2.n, k1.m, k2.n, Extension(k1.n, k1.m), "tangential pairing over the subspace"
    if isinstance(k1, Extension) and isinstance(k2, Extension):
        _need(k1.m == k2.n, k1, k2)
        return k2.n, k1.m, k2.m, Extension(k1.n, k2.m), "two-step extension pairing"
    if isinstance(k1, Restriction) and isinstance(k2, Bergman):
        _need(k1.n == k2.n, k1, k2)
        return k1.n, k1.m, k2.n, Restriction(k1.n, k1.m), "tangential pairing, bergman-right normal band"
    if isinstance(k1, Bergman) and isinstance(k2, Restriction):
        _need(k1.n == k2.m, k1, k2)
        return k1.n, k1.n, k2.m, Restriction(k2.n, k2.m), "tangential pairing over the subspace"
    raise UnsupportedCompositionError(
        f"unsupported kind pair ({_kind_str(k1)}, {_kind_str(k2)})"
    )


def _need(cond: bool, k1: KernelKind, k2: KernelKind) -> None:
    if not cond:
        raise UnsupportedCompositionError(
            f"dimension mismatch in pair ({_kind_str(k1)}, {_kind_str(k2)})"
        )


def _kind_str(k: KernelKind) -> str:
    if isinstance(k, Bergman):
        return f"Bergman({k.n})"
    return f"{kind_name(k)}({k.n},{k.m})"


def compose_plan(k1: KernelKind, k2: KernelKind) -> ComposePlan:
    _, _, _, result, rule = _plan_config(k1, k2)
    return ComposePlan(_kind_str(k1), _kind_str(k2), _kind_str(result), rule)


def compose(e1: KernelExpr, e2: KernelExpr, degree_cap: int = DEFAULT_DEGREE_CAP) -> KernelExpr:
    """Operator composition (e1 o e2) within the supported kind table."""
    n_mid, lc, rc, result_kind, _ = _plan_config(e1.kind, e2.kind)
    if e1.dims.fiber_rank != e2.dims.fiber_rank:
        raise ValueError("fiber rank mismatch")
    r = e1.dims.fiber_rank
    res_n = result_kind.n
    res_m = getattr(result_kind, "m", result_kind.n)
    out_dims = Dims(n=res_n, l=res_n, m=res_m, fiber_rank=r)
    num = _bracket(e1.numerator, e2.numerator, n_mid, lc, rc, out_dims, degree_cap)
    return KernelExpr(num, result_kind)
