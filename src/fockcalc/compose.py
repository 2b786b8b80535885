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
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .poly import DEFAULT_DEGREE_CAP, DegreeOverflowError, Dims, Poly, _collect, _group
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
        return asdict(self)


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


def _split_terms(p: Poly, side: str, n_mid: int, out_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the terms of one side of a bracket, before the pairs are formed.

    Returns the outer exponents laid out in the result's coordinate blocks
    ``(T, out_n, 4)`` and the middle ``(a, b)`` per middle coordinate
    ``(T, n_mid, 2)``.  The left side's outer variable is unprimed and its
    middle primed; the right side the other way round.
    """
    outer, mid = (slice(0, 2), slice(2, 4)) if side == "left" else (slice(2, 4), slice(0, 2))
    E = p._blocks()
    count, n = E.shape[:2]
    if n > out_n and E[:, out_n:, outer].any():
        raise ValueError(f"{side} outer variable beyond result dimensions")
    if n > n_mid and E[:, n_mid:, mid].any():
        raise ValueError(f"{side} middle variable beyond middle dimension")
    outers = np.zeros((count, out_n, 4), dtype=np.int64)
    outers[:, : min(n, out_n), outer] = E[:, :out_n, outer]
    mids = np.zeros((count, n_mid, 2), dtype=np.int64)
    mids[:, : min(n, n_mid)] = E[:, :n_mid, mid]
    return outers, mids


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
    Each term pair expands into the product of its coordinates' pairing
    tables (last coordinate fastest); the expanded terms accumulate in
    term-pair order.
    """
    if left.dims.fiber_rank != right.dims.fiber_rank:
        raise ValueError("fiber rank mismatch")
    if left.is_zero() or right.is_zero():
        return Poly.zero(out_dims)
    out_n, r = out_dims.n, out_dims.fiber_rank
    outer1, mid1 = _split_terms(left, "left", n_mid, out_n)
    outer2, mid2 = _split_terms(right, "right", n_mid, out_n)
    pairs = len(outer1) * len(outer2)
    # one table lookup per distinct (coordinate, a, b), stacked as entry rows
    mids = (mid1[:, None] + mid2[None]).reshape(pairs, n_mid, 2)
    span = int(mids.max(initial=0)) + 1
    spec = (np.arange(n_mid) * span + mids[:, :, 0]) * span + mids[:, :, 1]
    specs, which, _ = _group(spec.ravel())
    decoded = [(s // span**2, s // span % span, s % span) for s in specs.tolist()]
    tables = [_pairing_table(a, b, i < left_cross, i < right_cross) for i, a, b in decoded]
    sizes = np.array([len(t) for t in tables], dtype=np.int64)
    # per entry: what it adds to its coordinate's (z, zb, z', zb') exponents, and its coefficient
    step = np.array([(dz, 0, 0, dzp) for t in tables for dz, dzp, _ in t], dtype=np.int64).reshape(-1, 4)
    coef = np.array([c for t in tables for *_, c in t], dtype=float)
    # each expanded term's entry in its coordinates' tables: the digits of its
    # index within the pair, in the mixed radix of the table sizes
    which = which.reshape(pairs, n_mid)
    radix = sizes[which]
    counts = radix.prod(axis=1)
    pair = np.repeat(np.arange(pairs), counts)
    within = np.arange(len(pair)) - (np.cumsum(counts) - counts)[pair]
    stride = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1] // np.maximum(radix, 1)
    entry = (np.cumsum(sizes) - sizes)[which[pair]] + within[:, None] // stride[pair] % radix[pair]
    E = (outer1[:, None] + outer2[None]).reshape(pairs, out_n, 4)[pair]
    E[:, : min(n_mid, out_n)] += step[entry[:, :out_n]]
    E = E.reshape(len(pair), 4 * out_n)
    scalar = coef[entry].prod(axis=1)  # multiply-reductions run in order: coordinate 0 first
    degree = E.sum(axis=1)
    if degree.max(initial=0) > degree_cap or scalar.max(initial=0.0) == math.inf:
        d = degree[((degree > degree_cap) | (scalar == math.inf)).argmax()]
        if d > degree_cap:
            raise DegreeOverflowError(f"composition term degree {d} exceeds cap {degree_cap}")
        raise ValueError(f"composition term of degree {d} overflows a float")
    coefs = (left.coefs[:, None] @ right.coefs[None]).reshape(pairs, r, r)
    return Poly._from_arrays(out_dims, *_collect(E, scalar[:, None, None] * coefs[pair]))


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
    if A.uses_slot("primed", beyond=m):
        raise ValueError("A must not use primed coordinates beyond m")
    dims = _out_dims(n, m, A.dims.fiber_rank)
    return _bracket(_embed(A, n), _embed(D, n), m, m, m, dims)


def k_e(A4: Poly, A5: Poly, n: int, l: int, m: int) -> Poly:
    """Two-step extension pairing over a C^l middle, landing tangential in C^m."""
    if not (m <= l <= n):
        raise ValueError(f"need m <= l <= n, got n={n} l={l} m={m}")
    if A4.uses_slot("primed", beyond=l):
        raise ValueError("A4 must not use primed coordinates beyond l")
    if A5.uses_slot("primed", beyond=m):
        raise ValueError("A5 must not use primed coordinates beyond m")
    dims = Dims(n=n, l=l, m=m, fiber_rank=A4.dims.fiber_rank)
    return _bracket(_embed(A4, n), _embed(A5, n), l, l, m, dims)


def _embed(p: Poly, n: int) -> Poly:
    """Reindex a polynomial into ambient dimension n (exponents keep coordinates)."""
    if p.dims.n == n:
        return p
    if p.exps[:, 4 * n :].any():
        raise ValueError(f"polynomial uses coordinates beyond n={n}")
    E = np.pad(p.exps[:, : 4 * n], ((0, 0), (0, 4 * max(0, n - p.dims.n))))
    dims = Dims(n=n, l=n, m=min(p.dims.m, n), fiber_rank=p.dims.fiber_rank)
    return Poly._from_arrays(dims, E, p.coefs)


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
