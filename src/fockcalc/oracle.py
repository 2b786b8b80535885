"""Independent numerics: the quadrature composition oracle, its grids and
meshes, and the ladder-spectrum check, which compares coefficients.

Nothing here reuses the closed-form pairing rules from :mod:`.compose`;
composites are integrated directly on Gauss-Hermite grids so the two
routes check each other.  The one-axis rule is numpy's ``hermgauss``
(:func:`gauss_hermite`).  The composition oracle shifts each middle
axis's contour so that its integrand is a polynomial, which the rule
integrates exactly at any evaluation point.  The lambda witnesses in
:mod:`.operators` work one coordinate at a time on :func:`_plane_mesh`,
the rule's ``x + iy`` grid on C; none builds a tensor mesh on C^k.  The
exact Fock pairings and the Gram-matrix norm estimate are closed forms
and live in :mod:`.operators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .arrays import _as_points
from .fields import MAX_NODES, _json_int, _json_list, _json_number
from .poly import Dims, Poly, _block_products, _collect, _monomials
from .kernels import KernelExpr, Extension, apply_ladder, apply_model_laplacian
from .compose import compose

__all__ = list(_EXPORTS["oracle"])

PI = math.pi


class InsufficientNodesError(ValueError):
    """Raised when the requested grid cannot integrate a quadrature's degree exactly."""


# -- Gauss-Hermite ------------------------------------------------------------


@lru_cache(maxsize=64, typed=True)  # typed, so True is read and rejected, not served the rule for 1
def gauss_hermite(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights for integral f(x) exp(-x^2) dx, k-point rule (numpy's ``hermgauss``)."""
    if (k := _json_int(k, "k")) < 1:
        raise ValueError("need at least one node")
    if k > MAX_NODES:
        raise ValueError(f"need at most {MAX_NODES} nodes, the largest rule numpy tests, got {k}")
    from numpy.polynomial.hermite import hermgauss  # only commands that build a rule pay the import

    rule = hermgauss(k)
    for a in rule:
        a.setflags(write=False)
    return rule


@dataclass(frozen=True)
class QuadGrid:
    """Per-axis Gauss-Hermite rule for the weight exp(-pi x^2) on each real axis of C^n:
    exact up to degree ``2 * nodes_per_axis - 1``, the oracle's whole accuracy contract."""

    nodes_per_axis: int
    n: int

    def __post_init__(self):
        for name, least in (("nodes_per_axis", 1), ("n", 0)):  # n = 0 is a valid middle dimension
            if (value := _json_int(getattr(self, name), name)) < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, value)

    def axis_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes/weights absorbing the Gaussian: sum w f(x) ~ int f(x) e^{-pi x^2} dx."""
        xs, ws = gauss_hermite(self.nodes_per_axis)
        s = math.sqrt(PI)
        return xs / s, ws / s

    def to_json_dict(self) -> dict:
        return {"nodes_per_axis": self.nodes_per_axis, "n": self.n}


@lru_cache(maxsize=32, typed=True)  # typed, as gauss_hermite
def _plane_mesh(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only mesh on C against exp(-pi |u|^2), exact to degree ``2 * nodes - 1`` in
    x and in y: the ``x + iy`` grid ``(nodes^2,)`` of the ``QuadGrid`` axis nodes, x
    slower than y, and the weight products.  A mesh on C^k is k copies, first slowest."""
    xs, ws = QuadGrid(_json_int(nodes, "nodes"), 1).axis_nodes()
    mesh = (xs[:, None] + 1j * xs[None, :]).ravel(), (ws[:, None] * ws[None, :]).ravel()
    for a in mesh:
        a.setflags(write=False)
    return mesh


@dataclass(frozen=True)
class OracleReport:
    """Largest error over the points; ``max_rel`` and ``worst_point`` scale each point by its own values.

    ``grid`` is the quadrature rule, or ``None`` for :func:`laplacian_eigencheck`, whose
    points are coefficient rows."""

    max_abs: float
    max_rel: float
    worst_point: int
    grid: QuadGrid | None
    passed: bool

    def to_json_dict(self) -> dict:
        errors = {"max_abs": self.max_abs, "max_rel": self.max_rel, "worst_point": self.worst_point}
        return {**errors, "grid": None if self.grid is None else self.grid.to_json_dict(), "pass": self.passed}


# -- numeric composition -------------------------------------------------------

_PALETTE = np.array(
    [0.35 + 0.20j, -0.40 + 0.55j, 0.80 - 0.30j, -0.15 - 0.70j, 0.50 + 0.45j, 1.00 + 0.10j, -0.90 + 0.25j, 0.30 - 0.95j]
)


@lru_cache(maxsize=32)
def _palette_points(du: int, dp: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's default evaluation pairs, read-only: five deterministic points with
    moderate coordinates, stacked into ``(5, du)`` and ``(5, dp)``."""
    t = np.arange(5)[:, None]
    points = _PALETTE[(t + 2 * np.arange(du)) % len(_PALETTE)], _PALETTE[(t + 3 * np.arange(dp) + 5) % len(_PALETTE)]
    for a in points:
        a.setflags(write=False)
    return points


def _oracle_inputs(
    e1: KernelExpr, e2: KernelExpr, grid: QuadGrid | None, eval_points: Sequence[tuple] | None
) -> tuple[QuadGrid, np.ndarray, np.ndarray]:
    """The grid (default 44 nodes per axis) and the evaluation pairs (default
    :func:`_palette_points`) stacked into ``(P, du)`` and ``(P, dp)`` arrays."""
    n_mid = e1.kind.dp
    if n_mid != e2.kind.du:
        raise ValueError(f"middle dimension mismatch: {n_mid} vs {e2.kind.du}")
    if grid is None:
        grid = QuadGrid(nodes_per_axis=44, n=n_mid)
    elif grid.n != n_mid:
        raise ValueError(f"grid n {grid.n} does not match the middle dimension {n_mid}")
    if eval_points is None:
        return grid, *_palette_points(e1.kind.du, e2.kind.dp)
    if not len(eval_points):
        raise ValueError("need at least one evaluation point")
    shape = "evaluation point has wrong dimensions"
    z = _as_points([Z for Z, _ in eval_points], e1.kind.du, "evaluation point", wrong_shape=shape)
    return grid, z, _as_points([Zp for _, Zp in eval_points], e2.kind.dp, "evaluation point", len(z), shape)


@lru_cache(maxsize=128)
def _expansion(d: int) -> np.ndarray:
    """Read-only ``(d + 1, d + 1)``: row a holds the c_m of w^a conj(w)^(d-a) = sum_m c_m x^m y^(d-m),
    w = x + iy, built a degree at a time by the factor x + iy (rows a >= 1) or x - iy (row 0);
    Gaussian integers, exact up to d = 56.  An entry is 16 (d + 1)^2 bytes: 64 nodes^2 at a
    grid's degree limit 2 nodes - 1, 124 KB at the default 44; every degree to 87 takes 3.7 MB."""
    c = np.ones((1, 1), dtype=complex)
    for e in range(1, d + 1):
        nxt = np.zeros((e + 1, e + 1), dtype=complex)
        nxt[1:, 1:], nxt[0, 1:] = c, c[0]
        nxt[1:, :e] += 1j * c
        nxt[0, :e] -= 1j * c[0]
        c = nxt
    c.setflags(write=False)
    return c


def oracle_compose_values(
    e1: KernelExpr, e2: KernelExpr, grid: QuadGrid | None = None, eval_points: Sequence[tuple] | None = None
) -> np.ndarray:
    """Numeric values ``(P, r, r)`` of (e1 o e2)(Z, Z') at the P evaluation pairs.

    Works for any kind pair with matching middle dimension; the middle
    Gaussian weight is always exp(-pi |W|^2) and each kernel couples a
    prefix of coordinates, so the integral factorizes per coordinate and
    term pair into moments of w^a conj(w)^b.

    Middle coordinate i carries the coupling exp(pi z_i conj(w) + pi zp_i w),
    with z_i the left outer coordinate where the left kernel couples i and
    zp_i = conj(z'_i) where the right one does (else 0).  Completing the
    square, -pi w conj(w) + pi z_i conj(w) + pi zp_i w equals
    pi z_i zp_i - pi (w - z_i)(conj(w) - zp_i), so with w = x + iy the
    contours shift to x = xi + (z_i + zp_i)/2 and y = eta + i(zp_i - z_i)/2,
    and the integrand is a polynomial of degree a + b against
    exp(-pi (xi^2 + eta^2)).  Expanding w^a conj(w)^b in x^m y^(a+b-m)
    leaves products of one-axis Gauss-Hermite sums at the shifted nodes.
    The grid is exact once ``2 * nodes - 1 >= a + b``, which
    :class:`InsufficientNodesError` enforces, at every point however far.
    e^{pi z_i zp_i} joins the outer normalisation in one exponent, so far
    points do not overflow.
    """
    grid, z, zp = _oracle_inputs(e1, e2, grid, eval_points)
    if e1.dims.fiber_rank != e2.dims.fiber_rank:
        raise ValueError("fiber rank mismatch")
    r, n_mid = e1.dims.fiber_rank, e1.kind.dp
    lc, rc = e1.kind.c, e2.kind.c
    (E1, C1), (E2, C2) = e1.numerator.table, e2.numerator.table
    T1, T2 = len(E1), len(E2)

    # Middle exponents (a, b) of every coordinate and term pair, (n_mid, T1 * T2):
    # z'^a zb'^b of the left term times z^a zb^b of the right one.
    ab = E1[:, : 4 * n_mid].reshape(T1, 1, n_mid, 4)[..., 2:] + E2[:, : 4 * n_mid].reshape(1, T2, n_mid, 4)[..., :2]
    ab = ab.reshape(T1 * T2, n_mid, 2).transpose(1, 0, 2)
    max_ab = int(ab.sum(axis=-1).max(initial=0))
    if 2 * grid.nodes_per_axis - 1 < max_ab:
        raise InsufficientNodesError(f"{grid.nodes_per_axis} nodes per axis cannot integrate middle degree {max_ab}")

    P = len(z)
    outer1 = _monomials((z, z.conj(), None, None), E1)  # the middle slots are integrated below
    outer2 = _monomials((None, None, zp, zp.conj()), E2)
    factor = (outer1[:, :, None] * outer2[:, None]).reshape(P, -1)
    zi, zpi = np.zeros((2, n_mid, P), dtype=complex)
    zi[:lc], zpi[:rc] = z[:, :lc].T, zp[:, :rc].conj().T

    # Distinct (coordinate, a, b), ascending, marked in the packed key range (C order, as the product below reduces).
    S = max_ab + 1  # also the length of every moment and coefficient row
    packed = np.ascontiguousarray((np.arange(n_mid)[:, None] * S + ab[..., 0]) * S + ab[..., 1])
    seen = np.zeros(n_mid * S * S, dtype=bool)
    seen[packed] = True
    keys = np.flatnonzero(seen)
    coord, a, b = keys // (S * S), keys // S % S, keys % S

    # mu[0 | 1, i, m, p]: sum_j W_j (xi_j + shift)^m on the x | y axis of coordinate i.
    xs, ws = grid.axis_nodes()
    shifted = np.stack([0.5 * (zi + zpi), 0.5j * (zpi - zi)])[..., None] + xs
    mu = np.empty((2, n_mid, S, P), dtype=complex)
    mu[:, :, 0] = ws.sum()
    term = ws * shifted
    for power in range(1, S):
        mu[:, :, power] = term.sum(axis=-1)
        term *= shifted

    # w^a conj(w)^b = sum_m c_m x^m y^(a+b-m) on the shifted axes, c from the table of degree
    # a + b; past a + b the rows of c vanish, so the clipped y indices only meet zeros.
    c = np.zeros((len(keys), S), dtype=complex)
    for k, (i, j) in enumerate(zip(a.tolist(), b.tolist())):
        c[k, : i + j + 1] = _expansion(i + j)[i]
    m, d = np.arange(S), a + b
    mu_y = mu[1][coord[:, None], np.maximum(d[:, None] - m, 0)]
    moments = np.einsum("km,kmp,kmp->pk", c, mu[0][coord], mu_y)

    factor = factor * np.prod(moments[:, (np.cumsum(seen) - 1)[packed]], axis=1)
    pair_coefs = _block_products(C1[:, None], C2[None, :]).reshape(T1 * T2, r * r)
    acc = (factor @ pair_coefs).reshape(P, r, r)
    norms = (abs(z) ** 2).sum(axis=1) + (abs(zp) ** 2).sum(axis=1)
    return np.exp(PI * ((zi * zpi).sum(axis=0) - 0.5 * norms))[:, None, None] * acc


def oracle_compose(
    e1: KernelExpr,
    e2: KernelExpr,
    grid: QuadGrid | None = None,
    eval_points: Sequence[tuple] | None = None,
    expected: KernelExpr | None = None,
    rel_tol: float = 1e-9,
) -> OracleReport:
    """Compare the closed-form composite against direct quadrature (:func:`oracle_compose_values`).

    ``expected`` defaults to ``compose(e1, e2)``; pass it to check another
    closed form.  ``rel_tol`` must be positive and finite.
    """
    if not 0 < (rel_tol := _json_number(rel_tol, "rel_tol")) < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    grid, z, zp = _oracle_inputs(e1, e2, grid, eval_points)
    if expected is None:
        expected = compose(e1, e2)
    if (expected.kind.du, expected.kind.dp) != (e1.kind.du, e2.kind.dp):
        raise ValueError(f"expected kind {expected.kind!r} does not match the composite's dimensions")
    if (rank := expected.dims.fiber_rank) != e1.dims.fiber_rank:
        raise ValueError(f"expected fiber rank {rank} does not match the composite's {e1.dims.fiber_rank}")
    numeric = oracle_compose_values(e1, e2, grid, eval_points)
    want = expected._values(z, zp)
    return _report(want, numeric.reshape(want.shape), grid, rel_tol)


def _report(want: np.ndarray, got: np.ndarray, grid: QuadGrid | None, tol: float) -> OracleReport:
    """Errors per point (or coefficient row), each scaled by its largest |want| entry (absolute below 1e-150)."""
    err = abs(want - got).reshape(len(want), -1).max(axis=1, initial=0.0)
    scale = abs(want).reshape(len(want), -1).max(axis=1, initial=0.0)
    rel = np.where(scale > 1e-150, err / np.maximum(scale, 1e-150), err)
    worst = int(rel.argmax())
    max_rel = float(rel[worst])
    return OracleReport(max_abs=float(err.max()), max_rel=max_rel, worst_point=worst, grid=grid, passed=max_rel <= tol)


# -- ladder spectrum check -----------------------------------------------------


def _ladder_state(alpha: tuple[int, ...], beta: tuple[int, ...]) -> KernelExpr:
    """creation^alpha (z^beta) on ``Extension(n, 0)``, a chain of :func:`~fockcalc.kernels.apply_ladder` calls."""
    n = len(alpha)
    E = np.zeros((1, 4 * n), dtype=np.int64)
    E[0, ::4] = beta  # z_j is column 4 (j - 1): the start z^beta fits Extension(n, 0)
    state = KernelExpr._of(Poly._from_arrays(Dims.of(n, 0), E, np.ones((1, 1, 1), complex)), Extension(n, 0))
    for j, a in enumerate(alpha, 1):
        for _ in range(a):
            state = apply_ladder(state, j, "creation")
    return state


def laplacian_eigencheck(alpha: Sequence[int], beta: Sequence[int]) -> OracleReport:
    """Check the flat spectrum: creation^alpha lifts of z^beta Gaussians.

    The state creation^alpha (z^beta exp(-pi|Z|^2/2)) must satisfy Laplacian = 4 pi |alpha|,
    an identity between numerators, so it is checked on coefficients, to 1e-9 relative.
    The state is a chain of ladder steps (:func:`_ladder_state`).  Each exponent row of
    either side is one "point" of the report, in :func:`~fockcalc.poly._collect` order,
    and the report has no grid: nothing is integrated.
    """
    alpha = tuple(_json_int(a, "alpha entry") for a in _json_list(alpha, "alpha", "integers"))
    beta = tuple(_json_int(b, "beta entry") for b in _json_list(beta, "beta", "integers"))
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have the same length")
    if not alpha or min(alpha + beta) < 0:
        raise ValueError(f"alpha and beta must be non-empty and non-negative, got {alpha} and {beta}")
    state = _ladder_state(alpha, beta)
    (Ew, Cw), (El, Cl) = state.numerator.table, apply_model_laplacian(state).numerator.table
    # Both sides on the union of their rows, each zero on the other's rows, collected alike.
    E = np.concatenate([Ew, El])
    _, want = _collect(E, np.concatenate([4.0 * PI * sum(alpha) * Cw, np.zeros_like(Cl)]))
    _, got = _collect(E, np.concatenate([np.zeros_like(Cw), Cl]))
    return _report(want, got, None, 1e-9)
