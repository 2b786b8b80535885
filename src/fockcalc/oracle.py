"""Independent numerics: the quadrature composition oracle, its grids and
meshes, and the ladder-spectrum check.

Nothing here reuses the closed-form pairing rules from :mod:`.compose`;
composites are integrated directly on Gauss-Hermite grids so the two
routes check each other.  The one-axis rule is numpy's ``hermgauss``
(:func:`gauss_hermite`).  The composition oracle shifts each middle
axis's contour so that its integrand is a polynomial, which the rule
integrates exactly at any evaluation point; :func:`gaussian_mesh` is the
one tensor mesh the other quadratures here and in :mod:`.operators`
integrate on.  The exact Fock pairings and the Gram-matrix norm estimate
are closed forms and live in :mod:`.operators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .poly import Dims, Poly, _as_points, _columns, _json_int, _json_number, monomial_values
from .kernels import KernelExpr, KernelKind, Extension, apply_ladder, apply_model_laplacian
from .compose import compose

__all__ = [
    "InsufficientNodesError",
    "QuadGrid",
    "OracleReport",
    "gauss_hermite",
    "gaussian_mesh",
    "default_eval_points",
    "oracle_compose_values",
    "oracle_compose",
    "laplacian_eigencheck",
]

PI = math.pi


class InsufficientNodesError(ValueError):
    """Raised when the requested grid cannot integrate the middle degree exactly."""


# -- Gauss-Hermite ------------------------------------------------------------


@lru_cache(maxsize=64, typed=True)  # typed, so True is read and rejected, not served the rule for 1
def gauss_hermite(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights for integral f(x) exp(-x^2) dx, k-point rule (numpy's ``hermgauss``)."""
    if (k := _json_int(k, "k")) < 1:
        raise ValueError("need at least one node")
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
def gaussian_mesh(k: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tensor mesh on C^k for integrals against exp(-pi |u|^2).

    Points are ``(nodes^(2k), k)``: each coordinate runs over the
    ``x + iy`` grid of the ``QuadGrid(nodes, k)`` axis nodes, x slower
    than y, the first coordinate slowest.  The weights ``(nodes^(2k),)``
    are products of axis weights, which absorb exp(-pi x^2) on each real
    axis, so a polynomial of degree up to ``2 * nodes - 1`` in each real
    variable integrates exactly.
    """
    k, nodes = _json_int(k, "k"), _json_int(nodes, "nodes")
    xs, ws = QuadGrid(nodes, k).axis_nodes()
    axis = (xs[:, None] + 1j * xs[None, :]).ravel()
    axis_w = (ws[:, None] * ws[None, :]).ravel()
    idx = np.indices((len(axis),) * k).reshape(k, len(axis) ** k).T
    pts = axis[idx]
    wts = np.prod(axis_w[idx], axis=1)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


@dataclass(frozen=True)
class OracleReport:
    """Largest error over the points; ``max_rel`` and ``worst_point`` scale each point by its own values."""

    max_abs: float
    max_rel: float
    worst_point: int
    grid: QuadGrid
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "worst_point": self.worst_point,
            "grid": self.grid.to_json_dict(),
            "pass": self.passed,
        }


# -- numeric composition -------------------------------------------------------

_PALETTE = [
    0.35 + 0.20j,
    -0.40 + 0.55j,
    0.80 - 0.30j,
    -0.15 - 0.70j,
    0.50 + 0.45j,
    1.00 + 0.10j,
    -0.90 + 0.25j,
    0.30 - 0.95j,
]


def default_eval_points(kind1: KernelKind, kind2: KernelKind, count: int = 5) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic point pairs with moderate coordinates for oracle checks."""
    du, dp = kind1.du, kind2.dp
    pts = []
    for t in range(_json_int(count, "count")):
        Z = np.array([_PALETTE[(t + 2 * i) % len(_PALETTE)] for i in range(du)])
        Zp = np.array([_PALETTE[(t + 3 * i + 5) % len(_PALETTE)] for i in range(dp)])
        pts.append((Z, Zp))
    return pts


def _oracle_inputs(
    e1: KernelExpr, e2: KernelExpr, grid: QuadGrid | None, eval_points: Sequence[tuple] | None
) -> tuple[QuadGrid, np.ndarray, np.ndarray]:
    """The grid (default 44 nodes per axis) and the evaluation pairs (default
    :func:`default_eval_points`) stacked into ``(P, du)`` and ``(P, dp)`` arrays."""
    n_mid = e1.kind.dp
    if n_mid != e2.kind.du:
        raise ValueError(f"middle dimension mismatch: {n_mid} vs {e2.kind.du}")
    if grid is None:
        grid = QuadGrid(nodes_per_axis=44, n=n_mid)
    if eval_points is None:
        eval_points = default_eval_points(e1.kind, e2.kind)
    if not len(eval_points):
        raise ValueError("need at least one evaluation point")
    shape = "evaluation point has wrong dimensions"
    z = _as_points([Z for Z, _ in eval_points], e1.kind.du, "evaluation point", wrong_shape=shape)
    return grid, z, _as_points([Zp for _, Zp in eval_points], e2.kind.dp, "evaluation point", len(z), shape)


def oracle_compose_values(
    e1: KernelExpr,
    e2: KernelExpr,
    grid: QuadGrid | None = None,
    eval_points: Sequence[tuple] | None = None,
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
    E1, C1 = e1.numerator.table
    E2, C2 = e2.numerator.table
    T1, T2 = len(E1), len(E2)

    # Middle exponents (a, b) of every coordinate and term pair, (n_mid, T1 * T2):
    # z'^a zb'^b of the left term times z^a zb^b of the right one.
    ab = (
        E1[:, : 4 * n_mid].reshape(T1, 1, n_mid, 4)[..., 2:]
        + E2[:, : 4 * n_mid].reshape(1, T2, n_mid, 4)[..., :2]
    ).reshape(T1 * T2, n_mid, 2).transpose(1, 0, 2)
    max_ab = int(np.max(ab.sum(axis=-1), initial=0))
    if 2 * grid.nodes_per_axis - 1 < max_ab:
        raise InsufficientNodesError(
            f"{grid.nodes_per_axis} nodes per axis cannot integrate middle degree {max_ab}"
        )

    P = len(z)
    factor = (
        monomial_values(_columns(e1.dims.n, P, (z, z.conj(), 1.0, 1.0)), E1)[:, :, None]
        * monomial_values(_columns(e2.dims.n, P, (1.0, 1.0, zp, zp.conj())), E2)[:, None, :]
    ).reshape(P, T1 * T2)
    zi, zpi = np.zeros((2, n_mid, P), dtype=complex)
    zi[:lc], zpi[:rc] = z[:, :lc].T, zp[:, :rc].conj().T

    # Distinct (coordinate, a, b) under one packed key; d = a + b is the degree.
    S = max_ab + 1
    keys, inverse = np.unique((np.arange(n_mid)[:, None] * S + ab[..., 0]) * S + ab[..., 1], return_inverse=True)
    coord, a, b = keys // (S * S), keys // S % S, keys % S
    d = a + b
    top = int(np.max(d, initial=0))

    # mu[0 | 1, i, m, p]: sum_j W_j (xi_j + shift)^m on the x | y axis of coordinate i.
    xs, ws = grid.axis_nodes()
    shifted = np.stack([0.5 * (zi + zpi), 0.5j * (zpi - zi)])[..., None] + xs
    mu = np.empty((2, n_mid, top + 1, P), dtype=complex)
    mu[:, :, 0] = ws.sum()
    term = ws * shifted
    for power in range(1, top + 1):
        mu[:, :, power] = term.sum(axis=-1)
        term *= shifted

    # w^a conj(w)^b = sum_m c_m x^m y^(a+b-m) on the shifted axes: c convolves
    # (x + iy)^a's row C(a, s) i^(a-s) with (x - iy)^b's row C(b, t) (-i)^(b-t).
    m = np.arange(top + 1)
    binom = np.array([[math.comb(n, k) for k in range(top + 1)] for n in range(top + 1)], dtype=float)
    i_pow = np.array([1.0, 1j, -1.0, -1j])
    left = binom[a] * i_pow[(a[:, None] - m) % 4]
    right = binom[b] * i_pow[(m - b[:, None]) % 4]
    lag = m - m[:, None]
    c = np.einsum("ks,ksm->km", left, np.where(lag >= 0, right[:, lag], 0.0))
    # Past a + b the rows of c vanish, so the clipped y indices only meet zeros.
    mu_y = mu[1][coord[:, None], np.maximum(d[:, None] - m, 0)]
    moments = np.einsum("km,kmp,kmp->pk", c, mu[0][coord], mu_y)

    factor = factor * np.prod(moments[:, inverse.reshape(n_mid, T1 * T2)], axis=1)
    pair_coefs = (C1[:, None] @ C2[None, :]).reshape(T1 * T2, r * r)
    acc = (factor @ pair_coefs).reshape(P, r, r)
    norms = np.sum(np.abs(z) ** 2, axis=1) + np.sum(np.abs(zp) ** 2, axis=1)
    return np.exp(PI * (np.sum(zi * zpi, axis=0) - 0.5 * norms))[:, None, None] * acc


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
    closed form.
    """
    grid, z, zp = _oracle_inputs(e1, e2, grid, eval_points)
    if expected is None:
        expected = compose(e1, e2)
    numeric = oracle_compose_values(e1, e2, grid, list(zip(z, zp)))
    want = expected.evaluate_batch(z, zp)
    return _report(want, numeric.reshape(want.shape), grid, rel_tol)


def _report(want: np.ndarray, got: np.ndarray, grid: QuadGrid, tol: float) -> OracleReport:
    """Errors per point, each scaled by that point's largest |want| entry (absolute below 1e-150)."""
    err = np.max(np.abs(want - got).reshape(len(want), -1), axis=1, initial=0.0)
    scale = np.max(np.abs(want).reshape(len(want), -1), axis=1, initial=0.0)
    rel = np.where(scale > 1e-150, err / np.maximum(scale, 1e-150), err)
    worst = int(np.argmax(rel))
    max_rel, tol = float(rel[worst]), _json_number(tol, "tol")
    return OracleReport(
        max_abs=float(np.max(err)), max_rel=max_rel, worst_point=worst, grid=grid, passed=max_rel <= tol
    )


# -- ladder spectrum check -----------------------------------------------------


def laplacian_eigencheck(
    alpha: Sequence[int],
    beta: Sequence[int],
    grid: QuadGrid | None = None,
    tol: float = 1e-9,
) -> OracleReport:
    """Check the flat spectrum: creation^alpha lifts of z^beta Gaussians.

    The state creation^alpha (z^beta exp(-pi|Z|^2/2)) must satisfy
    Laplacian = 4 pi |alpha| pointwise; the residual is evaluated on the
    grid's tensor mesh, thinned to at most 4096 points by a fixed stride.
    """
    alpha = tuple(_json_int(a, "alpha entry") for a in alpha)
    beta = tuple(_json_int(b, "beta entry") for b in beta)
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have the same length")
    if not alpha or min(alpha + beta) < 0:
        raise ValueError(f"alpha and beta must be non-empty and non-negative, got {alpha} and {beta}")
    n = len(alpha)
    if grid is None:
        grid = QuadGrid(nodes_per_axis=5, n=n)
    dims = Dims(n=n, l=n, m=0, fiber_rank=1)
    powers = {f"z{i + 1}": beta[i] for i in range(n) if beta[i]}
    state = KernelExpr(Poly.monomial(dims, powers) if powers else Poly.one(dims), Extension(n, 0))
    for j in range(1, n + 1):
        for _ in range(alpha[j - 1]):
            state = apply_ladder(state, j, "creation")
    lap = apply_model_laplacian(state)
    want = state.scale(4.0 * PI * sum(alpha))

    pts, _ = gaussian_mesh(n, grid.nodes_per_axis)
    if len(pts) > 4096:
        pts = pts[:: len(pts) // 4096 + 1]
    no_primed = np.zeros((len(pts), 0))
    return _report(want._values(pts, no_primed), lap._values(pts, no_primed), grid, tol)
