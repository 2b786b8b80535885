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
both            sum_k  C(a,k) b!/(b-k)! pi^-k  z^(a-k) zb'^(b-k)
left only       [a >= b]  a!/(a-b)! pi^-b  z^(a-b)
right only      [b >= a]  b!/(b-a)! pi^-a  zb'^(b-a)
neither         [a == b]  a! pi^-a
==============  ==========================================================

Everything else (outer polynomial factors, spectator variables, matrix
coefficients multiplying in operator order) tensors over coordinates.
The generator :func:`base_terms` yields exact rational-in-1/pi
coefficients; the float engine reads the same terms from one bounded
registry of float entries, which builds each coordinate's table once;
:mod:`.operators` reads the one-sided rows as integers (:func:`_one_sided`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import _EXPORTS
from .fields import DEFAULT_DEGREE_CAP, _json_int
from .poly import DegreeOverflowError, Dims, Poly, _collect
from .kernels import KernelExpr, KernelKind, _named

__all__ = list(_EXPORTS["compose"])

PI = math.pi


class UnsupportedCompositionError(ValueError):
    """Raised when the left kind's primed dimension differs from the right kind's unprimed one."""


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
            yield (a - k, b - k, Fraction(math.comb(a, k) * math.perm(b, k)), k)
    elif left_cross:
        if a >= b:
            yield (a - b, 0, Fraction(math.perm(a, b)), b)
    elif right_cross:
        if b >= a:
            yield (0, b - a, Fraction(math.perm(b, a)), a)
    else:
        if a == b:
            yield (0, 0, Fraction(math.factorial(a)), a)


@lru_cache(maxsize=4096)
def _one_sided(a: int, b: int, left_cross: bool, right_cross: bool) -> tuple[int, int, int, int] | None:
    """The one term of a pairing that couples at most one side, as
    ``(dz, dzp, coef, p)`` with an integer ``coef``, or None where it vanishes."""
    for dz, dzp, coef, p in base_terms(a, b, left_cross, right_cross):
        return dz, dzp, int(coef), p
    return None


# -- the shared bracket core --------------------------------------------------


def _pairing_table(a: int, b: int, left_cross: bool, right_cross: bool) -> tuple[tuple[int, int, float], ...]:
    """:func:`base_terms` in float form: ``((dz, dzp, coef / pi**p), ...)``.

    The bracket reads it through the pairing registry, which builds each key's
    table once.  An empty table means the pairing vanishes.  A coefficient
    too large for a float reads ``inf``; the bracket checks the degree cap
    before it builds any table, so only pairs within the cap get here.
    """
    return tuple((dz, dzp, _over_pi(frac, p)) for dz, dzp, frac, p in base_terms(a, b, left_cross, right_cross))


def _over_pi(x, p: int) -> float:
    """``float(x) / pi**p``; where either is beyond float range, the exact quotient of the
    rational ``x`` by the p-th power of the float pi, rounded once, or ``inf`` where that is too."""
    try:
        return float(x) / PI**p
    except OverflowError:
        # |x| > 2**(n - d - 1), for n and d the bit lengths of its numerator and denominator,
        # and pi**p < 2**(1.66 p): where that leaves the quotient above 2**1025, it is not formed
        if x.numerator.bit_length() - x.denominator.bit_length() > 1026 + 1.66 * p:
            return math.inf
        try:
            return float(Fraction(x) / Fraction(PI) ** p)
        except OverflowError:
            return math.inf


#: Middle exponents below this pack into one registry key.
_EXPONENT_LIMIT = 1 << 30
_PACK = np.array([4 * _EXPONENT_LIMIT, 4])  # (a, b) -> 4 * (a * _EXPONENT_LIMIT + b)
#: The registry starts afresh rather than hold more keys (the default cap allows about a thousand).
_REGISTRY_BOUND = 4096


class _PairingRegistry:
    """Every pairing table built so far, as flat float entries, in one tuple
    replaced whole: the sorted keys and a sentinel after them, each key's
    first entry and entry count (0 where the pairing vanishes), and per entry
    the ``(dz, 0, 0, dzp)`` it adds to its coordinate's exponents and its
    coefficient.  A key, ``4 * (a * _EXPONENT_LIMIT + b) + 2 * left_cross +
    right_cross``, names one middle coordinate's pairing."""

    state = (np.array([2**63 - 1]), *np.zeros((2, 0), np.int64), np.zeros((0, 4), np.int64), np.zeros(0))

    def __len__(self) -> int:
        return len(self.state[1])

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each key's first entry and entry count, then every entry's step and coefficient."""
        state = self.state
        at = state[0].searchsorted(keys)
        if not (state[0][at] == keys).all():
            wanted = set(keys.ravel().tolist())
            if len(self) + len(wanted) > _REGISTRY_BOUND:
                state = _PairingRegistry.state
            known, first, count, step, coef = state
            new = sorted(wanted.difference(known.tolist()))
            tables = [_pairing_table(k >> 32, (k >> 2) % _EXPONENT_LIMIT, k & 2 > 0, k & 1 > 0) for k in new]
            sizes = np.array([len(t) for t in tables], np.int64)
            rows = [row for t in tables for row in t]
            every = np.append(known[:-1], new)
            order = every.argsort()
            self.state = state = (
                np.append(every[order], known[-1]),
                np.append(first, len(coef) + np.cumsum(sizes) - sizes)[order],
                np.append(count, sizes)[order],
                np.append(step, np.array([(dz, 0, 0, dzp) for dz, dzp, _ in rows], np.int64).reshape(-1, 4), 0),
                np.append(coef, [c for *_, c in rows]),
            )
            at = state[0].searchsorted(keys)
        return state[1][at], state[2][at], state[3], state[4]


_REGISTRY = _PairingRegistry()


def _split_terms(p: Poly, side: str, n_mid: int, out_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the terms of one side of a bracket, before the pairs are formed.

    Returns the outer exponents laid out in the result's coordinate blocks
    ``(T, out_n, 4)`` and the middle ``(a, b)`` per middle coordinate
    ``(T, n_mid, 2)``, a view (a side has at least ``n_mid`` coordinates).
    The left side's outer variable is unprimed and its middle primed; the
    right side the other way round.
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
    return outers, E[:, :n_mid, mid]


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
    Each term pair whose pairing does not vanish expands into the product of
    its coordinates' pairing tables (last coordinate fastest); the expanded
    terms accumulate in term-pair order.  The degree cap is checked before
    any pairing table is built.
    """
    out_n = out_dims.n
    outer1, mid1 = _split_terms(left, "left", n_mid, out_n)
    outer2, mid2 = _split_terms(right, "right", n_mid, out_n)
    live = np.arange(len(mid1) * len(mid2))
    coupling = [2 * (c < left_cross) + (c < right_cross) for c in range(n_mid)]  # each key's low bits
    keys = ((mid1 @ _PACK + coupling)[:, None] + (mid2 @ _PACK)[None]).reshape(len(live), n_mid)
    # the sides' degrees bound every pair's degree and middle exponents; past
    # that, find the live pairs without a table and check each one's top degree
    if left.degree() + right.degree() > min(degree_cap, _EXPONENT_LIMIT - 1):
        lc, rc = np.arange(n_mid) < left_cross, np.arange(n_mid) < right_cross
        mids = (mid1[:, None] + mid2[None]).reshape(len(live), n_mid, 2)
        a, b = mids[:, :, 0], mids[:, :, 1]
        # a pairing vanishes unless at every middle coordinate the left side
        # couples or a <= b, and the right side couples or a >= b (see base_terms)
        live = np.flatnonzero(((lc | (a <= b)) & (rc | (b <= a))).all(axis=1))
        outer = (outer1.sum(axis=(1, 2))[:, None] + outer2.sum(axis=(1, 2))[None]).ravel()
        top = outer[live] + np.where(lc & rc, a + b, abs(a - b))[live].sum(axis=1)
        if (top > degree_cap).any():
            worst = top[(top > degree_cap).argmax()]
            raise DegreeOverflowError(f"composition term degree {worst} exceeds cap {degree_cap}")
        if (mids[live] >= _EXPONENT_LIMIT).any():
            raise ValueError(f"composition middle exponent {mids[live].max()} is too large to pair")
        keys = keys[live]
    first, count, step, coef = _REGISTRY.lookup(keys)
    alive = count.all(axis=1)  # a pair whose pairing vanishes in a coordinate adds nothing
    live, first, count = live[alive], first[alive], count[alive]
    if (count == 1).all():
        pair, entry = slice(None), first
    else:
        # each expanded term's entry in its coordinates' tables: the digits of
        # its index within the pair, in the mixed radix of the entry counts
        total = count.prod(axis=1)
        pair = np.repeat(np.arange(len(live)), total)
        within = np.arange(len(pair)) - (np.cumsum(total) - total)[pair]
        stride = np.cumprod(count[:, ::-1], axis=1)[:, ::-1] // count
        entry = first[pair] + within[:, None] // stride[pair] % count[pair]
    i, j = np.divmod(live, len(outer2))
    E = (outer1[i] + outer2[j])[pair]
    E[:, : min(n_mid, out_n)] += step[entry[:, :out_n]]
    scalar = coef[entry].prod(axis=1)  # multiply-reductions run in order: coordinate 0 first
    if (scalar == math.inf).any():
        d = E[(scalar == math.inf).argmax()].sum()
        raise ValueError(f"composition term of degree {d} overflows a float")
    with np.errstate(over="ignore", invalid="ignore"):  # Poly refuses a non-finite coefficient
        C = scalar[:, None, None] * (left.coefs[i] @ right.coefs[j])[pair]
    return Poly._from_arrays(out_dims, *_collect(E.reshape(len(E), 4 * out_n), C))


# -- kernel-level composition ---------------------------------------------------


def _result_kind(k1: KernelKind, k2: KernelKind) -> KernelKind:
    if k1.dp != k2.du:
        raise UnsupportedCompositionError(
            f"middle dimension mismatch in pair ({k1!r}, {k2!r}): {k1.dp} vs {k2.du}"
        )
    return _named(k1.du, k2.dp, min(k1.c, k2.c))


def compose_plan(k1: KernelKind, k2: KernelKind) -> dict:
    """The kinds of a composition and the three integers the pairing rule uses: the
    middle dimension and how many leading middle coordinates each side couples, as
    the ``plan`` object the command line writes."""
    result = _result_kind(k1, k2)
    return {
        "left_kind": repr(k1),
        "right_kind": repr(k2),
        "result_kind": repr(result),
        "middle_dim": k1.dp,
        "left_cross": k1.c,
        "right_cross": k2.c,
    }


def compose(e1: KernelExpr, e2: KernelExpr, degree_cap: int = DEFAULT_DEGREE_CAP) -> KernelExpr:
    """Operator composition (e1 o e2) of any two kinds whose middle dimensions match."""
    k1, k2 = e1.kind, e2.kind
    result_kind = _result_kind(k1, k2)
    if e1.dims.fiber_rank != e2.dims.fiber_rank:
        raise ValueError("fiber rank mismatch")
    out_dims = Dims.of(result_kind.n, result_kind.m, fiber_rank=e1.dims.fiber_rank)
    num = _bracket(e1.numerator, e2.numerator, k1.dp, k1.c, k2.c, out_dims, _json_int(degree_cap, "degree_cap"))
    return KernelExpr._of(num, result_kind)  # each side's outer variables stay in its slot
