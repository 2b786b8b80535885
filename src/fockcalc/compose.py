"""Closed-form composition of polynomial-times-Gaussian kernel expressions.

Composing ``(du1, dp1, c1)`` with ``(du2, dp2, c2)`` needs ``dp1 == du2``
and gives ``(du1, dp2, min(c1, c2))``: it integrates out the shared middle
variable W in C^dp1 against the Gaussian weight exp(-pi |W|^2) that the two
kernel halves always assemble.  Per middle coordinate the answer depends
only on whether the left kernel couples the outer unprimed variable to
conj(w) (coordinate i < c1) and whether the right kernel couples w to the
outer conj(z') (i < c2):

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
from .kernels import KernelExpr, KernelKind, _named

__all__ = [
    "ComposePlan",
    "UnsupportedCompositionError",
    "base_terms",
    "k_base_exact",
    "compose",
    "compose_plan",
]

PI = math.pi


class UnsupportedCompositionError(ValueError):
    """Raised when the left kind's primed dimension differs from the right kind's unprimed one."""


@dataclass(frozen=True)
class ComposePlan:
    """The kinds of a composition and the three integers the pairing rule uses:
    the middle dimension and how many leading middle coordinates each side couples."""

    left_kind: str
    right_kind: str
    result_kind: str
    middle_dim: int
    left_cross: int
    right_cross: int

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
    vanishes.  A coefficient too large for a float reads ``inf``; the
    bracket checks the degree cap before it builds any table, so only
    pairs within the cap get here.
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


def _live_pairs_within_cap(
    outer1: np.ndarray,
    outer2: np.ndarray,
    mids: np.ndarray,
    left_cross: int,
    right_cross: int,
    degree_cap: int,
) -> np.ndarray:
    """Indices of the term pairs whose pairing does not vanish, once each one's
    top output degree is known to be within ``degree_cap``.

    A pair survives when at every middle coordinate ``(a, b)`` the left side
    couples or ``a <= b``, and the right side couples or ``b <= a``.  Its top
    degree is its outer degree plus ``a + b`` per coordinate both sides
    couple and ``|a - b|`` per other one.  No pairing table is built, so a
    huge exponent costs nothing.
    """
    a, b = mids[:, :, 0], mids[:, :, 1]
    coord = np.arange(mids.shape[1])
    lc, rc = coord < left_cross, coord < right_cross
    live = np.flatnonzero(((lc | (a <= b)) & (rc | (b <= a))).all(axis=1))
    outer = (outer1.sum(axis=(1, 2))[:, None] + outer2.sum(axis=(1, 2))[None]).ravel()
    top = outer[live] + np.where(lc & rc, a + b, abs(a - b))[live].sum(axis=1)
    if top.max(initial=0) > degree_cap:
        d = top[(top > degree_cap).argmax()]
        raise DegreeOverflowError(f"composition term degree {d} exceeds cap {degree_cap}")
    return live


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
    term-pair order.  The degree cap is checked before any pairing table
    is built.
    """
    if left.dims.fiber_rank != right.dims.fiber_rank:
        raise ValueError("fiber rank mismatch")
    if left.is_zero() or right.is_zero():
        return Poly.zero(out_dims)
    out_n, r = out_dims.n, out_dims.fiber_rank
    outer1, mid1 = _split_terms(left, "left", n_mid, out_n)
    outer2, mid2 = _split_terms(right, "right", n_mid, out_n)
    pairs = len(outer1) * len(outer2)
    mids = (mid1[:, None] + mid2[None]).reshape(pairs, n_mid, 2)
    live = np.arange(pairs)
    # a pair's output degree is at most the sum of its two terms' degrees, so
    # only inputs past that bound need each pair's exact top degree
    if left.degree() + right.degree() > degree_cap:
        live = _live_pairs_within_cap(outer1, outer2, mids, left_cross, right_cross, degree_cap)
        mids = mids[live]
    # one table lookup per distinct (coordinate, a, b), stacked as entry rows
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
    which = which.reshape(len(live), n_mid)
    radix = sizes[which]
    counts = radix.prod(axis=1)
    pair = np.repeat(np.arange(len(live)), counts)
    within = np.arange(len(pair)) - (np.cumsum(counts) - counts)[pair]
    stride = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1] // np.maximum(radix, 1)
    entry = (np.cumsum(sizes) - sizes)[which[pair]] + within[:, None] // stride[pair] % radix[pair]
    source = live[pair]  # each expanded term's index among all term pairs
    E = (outer1[:, None] + outer2[None]).reshape(pairs, out_n, 4)[source]
    E[:, : min(n_mid, out_n)] += step[entry[:, :out_n]]
    E = E.reshape(len(pair), 4 * out_n)
    scalar = coef[entry].prod(axis=1)  # multiply-reductions run in order: coordinate 0 first
    if scalar.max(initial=0.0) == math.inf:
        d = E[(scalar == math.inf).argmax()].sum()
        raise ValueError(f"composition term of degree {d} overflows a float")
    coefs = (left.coefs[:, None] @ right.coefs[None]).reshape(pairs, r, r)
    return Poly._from_arrays(out_dims, *_collect(E, scalar[:, None, None] * coefs[source]))


# -- kernel-level composition ---------------------------------------------------


def _result_kind(k1: KernelKind, k2: KernelKind) -> KernelKind:
    if k1.dp != k2.du:
        raise UnsupportedCompositionError(
            f"middle dimension mismatch in pair ({k1!r}, {k2!r}): {k1.dp} vs {k2.du}"
        )
    return _named(k1.du, k2.dp, min(k1.c, k2.c))


def compose_plan(k1: KernelKind, k2: KernelKind) -> ComposePlan:
    result = _result_kind(k1, k2)
    return ComposePlan(repr(k1), repr(k2), repr(result), k1.dp, k1.c, k2.c)


def compose(e1: KernelExpr, e2: KernelExpr, degree_cap: int = DEFAULT_DEGREE_CAP) -> KernelExpr:
    """Operator composition (e1 o e2) of any two kinds whose middle dimensions match."""
    k1, k2 = e1.kind, e2.kind
    result_kind = _result_kind(k1, k2)
    if e1.dims.fiber_rank != e2.dims.fiber_rank:
        raise ValueError("fiber rank mismatch")
    out_dims = Dims(n=result_kind.n, l=result_kind.n, m=result_kind.m, fiber_rank=e1.dims.fiber_rank)
    num = _bracket(e1.numerator, e2.numerator, k1.dp, k1.c, k2.c, out_dims, degree_cap)
    return KernelExpr(num, result_kind)
