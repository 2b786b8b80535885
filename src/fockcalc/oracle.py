"""Independent numerics: quadrature composition oracle, Fock-basis tools.

Nothing here reuses the closed-form pairing rules from :mod:`.compose`;
composites are integrated directly on Gauss-Hermite grids so the two
routes check each other.  The Gauss-Hermite rule itself is built from
scratch (Newton on the orthonormal Hermite recurrence, Christoffel
weights), and :func:`gaussian_mesh` is the one tensor mesh every
quadrature here and in :mod:`.operators` integrates on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .poly import Dims, Poly, monomial_values, variable_columns
from .kernels import (
    KernelExpr,
    KernelKind,
    ScaledKernel,
    Extension,
    apply_ladder,
    apply_model_laplacian,
)
from .compose import compose

__all__ = [
    "InsufficientNodesError",
    "QuadGrid",
    "OracleReport",
    "FockIndex",
    "fock_indices",
    "gauss_hermite",
    "gaussian_mesh",
    "gaussian_moment",
    "fock_norm",
    "default_eval_points",
    "oracle_compose_values",
    "oracle_compose",
    "laplacian_eigencheck",
    "gaussian_pairing",
    "norm_estimate",
]

PI = math.pi


class InsufficientNodesError(ValueError):
    """Raised when the requested grid cannot integrate the middle degree exactly."""


class FockIndex(tuple):
    """Multi-index into the weighted monomial basis."""

    @property
    def total(self) -> int:
        return sum(self)

    @property
    def factorial(self) -> int:
        out = 1
        for a in self:
            out *= math.factorial(a)
        return out


def fock_indices(dim: int, max_total: int) -> list[FockIndex]:
    """All multi-indices of length dim with |beta| <= max_total, sorted."""
    if dim == 0:
        return [FockIndex(())]
    out: list[FockIndex] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            for a in range(remaining + 1):
                out.append(FockIndex(prefix + (a,)))
            return
        for a in range(remaining + 1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), max_total, dim)
    return sorted(out)


# -- Gauss-Hermite ------------------------------------------------------------


def _hermite_ortho(k: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite value h_k(x) for weight exp(-x^2)."""
    h0 = np.full_like(x, PI ** -0.25, dtype=float)
    if k == 0:
        return h0
    h1 = math.sqrt(2.0) * x * PI ** -0.25
    if k == 1:
        return h1
    hm, h = h0, h1
    for j in range(1, k):
        hm, h = h, x * math.sqrt(2.0 / (j + 1)) * h - math.sqrt(j / (j + 1)) * hm
    return h


@lru_cache(maxsize=64)
def gauss_hermite(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights for integral f(x) exp(-x^2) dx, k-point rule.

    Roots by sign-change bracketing plus Newton on the orthonormal
    recurrence (h_k' = sqrt(2k) h_{k-1}); weights are Christoffel numbers
    1 / sum_{j<k} h_j(x)^2.
    """
    if k < 1:
        raise ValueError("need at least one node")
    if k == 1:
        return (0.0,), (math.sqrt(PI),)
    R = math.sqrt(2 * k + 1) + 1.0
    grid = np.linspace(-R, R, 40 * k + 1)
    vals = _hermite_ortho(k, grid)
    # Zero-free sign convention: a grid node landing exactly on a root (the
    # origin, for odd k) still registers as one sign change, not as sign 0.
    sign = np.where(vals >= 0, 1, -1)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) != k:
        raise RuntimeError(f"bracketing found {len(idx)} sign changes, expected {k}")
    lo, hi = grid[idx].copy(), grid[idx + 1].copy()
    flo = vals[idx].copy()
    for _ in range(4):
        mid = 0.5 * (lo + hi)
        fm = _hermite_ortho(k, mid)
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    x = 0.5 * (lo + hi)
    for _ in range(60):
        f = _hermite_ortho(k, x)
        fp = math.sqrt(2 * k) * _hermite_ortho(k - 1, x)
        step = f / fp
        x = x - step
        if np.max(np.abs(step)) < 1e-15 * max(1.0, float(np.max(np.abs(x)))):
            break
    x = np.sort(x)
    # Christoffel weights: one recurrence pass accumulating sum h_j(x)^2.
    h_prev = np.full_like(x, PI ** -0.25)
    acc = h_prev**2
    h = math.sqrt(2.0) * x * PI ** -0.25
    if k >= 2:
        acc = acc + h**2
    for j in range(1, k - 1):
        h_prev, h = h, x * math.sqrt(2.0 / (j + 1)) * h - math.sqrt(j / (j + 1)) * h_prev
        acc = acc + h**2
    ws = 1.0 / acc
    return tuple(float(v) for v in x), tuple(float(v) for v in ws)


@dataclass(frozen=True)
class QuadGrid:
    """Per-axis Gauss rule for the radial weight exp(-weight_scale * x^2) on C^n."""

    nodes_per_axis: int
    n: int
    weight_scale: float = PI

    def __post_init__(self):
        nodes, scale = self.nodes_per_axis, self.weight_scale
        if not float(nodes).is_integer() or nodes < 1:
            raise ValueError(f"nodes_per_axis must be an integer >= 1, got {nodes!r}")
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"weight_scale must be positive and finite, got {scale!r}")

    def axis_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes/weights absorbing the Gaussian: sum w f(x) ~ int f(x) e^{-s x^2} dx."""
        xs, ws = gauss_hermite(self.nodes_per_axis)
        s = math.sqrt(self.weight_scale)
        return np.array(xs) / s, np.array(ws) / s

    def to_json_dict(self) -> dict:
        return {
            "nodes_per_axis": self.nodes_per_axis,
            "n": self.n,
            "weight_scale": self.weight_scale,
        }


@lru_cache(maxsize=32)
def gaussian_mesh(k: int, nodes: int, weight_scale: float = PI) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tensor mesh on C^k for integrals against exp(-pi |u|^2).

    Points are ``(nodes^(2k), k)``: each coordinate runs over the
    ``x + iy`` grid of the ``QuadGrid(nodes, k, weight_scale)`` axis nodes,
    x slower than y, the first coordinate slowest.  The axis rule absorbs
    exp(-weight_scale x^2), so the weights ``(nodes^(2k),)`` carry
    exp((weight_scale - pi) |u|^2) back in.
    """
    xs, ws = QuadGrid(nodes, k, weight_scale).axis_nodes()
    axis = (xs[:, None] + 1j * xs[None, :]).ravel()
    axis_w = (ws[:, None] * ws[None, :]).ravel()
    idx = np.indices((len(axis),) * k).reshape(k, len(axis) ** k).T
    pts = axis[idx]
    wts = np.prod(axis_w[idx], axis=1) * np.exp((weight_scale - PI) * np.sum(np.abs(pts) ** 2, axis=1))
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


@dataclass(frozen=True)
class OracleReport:
    max_abs: float
    max_rel: float
    grid: QuadGrid
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "grid": self.grid.to_json_dict(),
            "pass": self.passed,
        }


# -- exact one-coordinate moments ---------------------------------------------


def gaussian_moment(a: int, b: int) -> float:
    """integral over C of z^a conj(z)^b exp(-pi |z|^2): diagonal a!/pi^a."""
    if a < 0 or b < 0:
        raise ValueError("negative exponent")
    if a != b:
        return 0.0
    return math.factorial(a) / PI**a


def fock_norm(beta: Sequence[int]) -> float:
    """L^2 norm of z^beta exp(-pi |Z|^2 / 2): sqrt(beta! / pi^|beta|)."""
    idx = FockIndex(tuple(int(b) for b in beta))
    if any(b < 0 for b in idx):
        raise ValueError("negative exponent")
    return math.sqrt(idx.factorial / PI**idx.total)


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
    for t in range(count):
        Z = np.array([_PALETTE[(t + 2 * i) % len(_PALETTE)] for i in range(du)])
        Zp = np.array([_PALETTE[(t + 3 * i + 5) % len(_PALETTE)] for i in range(dp)])
        pts.append((Z, Zp))
    return pts


def _middle_dim(e1: KernelExpr, e2: KernelExpr) -> int:
    d1, d2 = e1.kind.dp, e2.kind.du
    if d1 != d2:
        raise ValueError(f"middle dimension mismatch: {d1} vs {d2}")
    return d1


def _stack_points(eval_points: Sequence[tuple], du: int, dp: int) -> tuple[np.ndarray, np.ndarray]:
    z = [np.asarray(Z, dtype=complex).ravel() for Z, _ in eval_points]
    zp = [np.asarray(Zp, dtype=complex).ravel() for _, Zp in eval_points]
    if any(len(u) != du for u in z) or any(len(v) != dp for v in zp):
        raise ValueError("evaluation point has wrong dimensions")
    return np.array(z, dtype=complex).reshape(len(z), du), np.array(zp, dtype=complex).reshape(len(zp), dp)


def oracle_compose_values(
    e1: KernelExpr,
    e2: KernelExpr,
    grid: QuadGrid | None = None,
    eval_points: Sequence[tuple] | None = None,
) -> list[np.ndarray]:
    """Numeric values of (e1 o e2)(Z, Z') at the evaluation pairs.

    Works for any kind pair with matching middle dimension; the middle
    Gaussian weight is always exp(-pi |W|^2) and each kernel couples a
    prefix of coordinates, so the integral factorizes per coordinate and
    term pair.
    """
    n_mid = _middle_dim(e1, e2)
    if e1.dims.fiber_rank != e2.dims.fiber_rank:
        raise ValueError("fiber rank mismatch")
    r = e1.dims.fiber_rank
    if grid is None:
        grid = QuadGrid(nodes_per_axis=44, n=n_mid)
    if eval_points is None:
        eval_points = default_eval_points(e1.kind, e2.kind)
    lc, rc = e1.kind.c, e2.kind.c
    E1, C1 = e1.numerator.table
    E2, C2 = e2.numerator.table
    T1, T2 = len(E1), len(E2)

    # Middle exponents (a, b) of every term pair and coordinate, (T1, T2, n_mid, 2):
    # z'^a zb'^b of the left term times z^a zb^b of the right one.
    ab = (
        E1[:, : 4 * n_mid].reshape(T1, 1, n_mid, 4)[..., 2:]
        + E2[:, : 4 * n_mid].reshape(1, T2, n_mid, 4)[..., :2]
    )
    max_ab = int(np.max(ab.sum(axis=-1), initial=0))
    if 2 * grid.nodes_per_axis - 1 < max_ab:
        raise InsufficientNodesError(
            f"{grid.nodes_per_axis} nodes per axis cannot integrate middle degree {max_ab}"
        )

    z, zp = _stack_points(eval_points, e1.kind.du, e2.kind.dp)
    factor = (
        monomial_values(variable_columns(e1.dims.n, z, z.conj(), 1.0, 1.0), E1)[:, :, None]
        * monomial_values(variable_columns(e2.dims.n, 1.0, 1.0, zp, zp.conj()), E2)[:, None, :]
    )
    # On the one-coordinate mesh as a tensor grid w = x_i + i y_j the coupling
    # exp(pi z conj(w) + pi conj(z') w) splits into exp(pi u x_i) exp(pi v y_j), so each
    # moment is (P, nodes) @ (nodes, nodes) and no (P, nodes^2) array is formed.
    nodes = grid.nodes_per_axis
    mesh, wts = gaussian_mesh(1, nodes, grid.weight_scale)
    w, weights = mesh.reshape(nodes, nodes), wts.reshape(nodes, nodes)
    x, y, wc = w[:, 0].real, w[0, :].imag, w.conj()
    for i in range(n_mid):
        pairs, index = np.unique(ab[:, :, i].reshape(T1 * T2, 2), axis=0, return_inverse=True)
        zi = z[:, i] if i < lc else np.zeros(len(z))
        zpi = zp[:, i].conj() if i < rc else np.zeros(len(z))
        ex = np.exp(PI * np.multiply.outer(zi + zpi, x))
        ey = np.exp(1j * PI * np.multiply.outer(zpi - zi, y))
        moments = np.empty((len(z), len(pairs)), dtype=complex)
        for k, (ai, bi) in enumerate(pairs.tolist()):
            moments[:, k] = np.sum((ex @ (weights * w**ai * wc**bi)) * ey, axis=1)
        factor = factor * moments[:, index.reshape(T1, T2)]
    pair_coefs = (C1[:, None] @ C2[None, :]).reshape(T1 * T2, r * r)
    acc = (factor.reshape(len(z), T1 * T2) @ pair_coefs).reshape(len(z), r, r)
    gauss_out = np.exp(-0.5 * PI * (np.sum(np.abs(z) ** 2, axis=1) + np.sum(np.abs(zp) ** 2, axis=1)))
    return list(gauss_out[:, None, None] * acc)


def oracle_compose(
    e1: KernelExpr,
    e2: KernelExpr,
    grid: QuadGrid | None = None,
    eval_points: Sequence[tuple] | None = None,
    expected: KernelExpr | None = None,
    rel_tol: float = 1e-9,
) -> OracleReport:
    """Compare the closed-form composite against direct quadrature.

    ``expected`` defaults to ``compose(e1, e2)``; pass it to check another
    closed form.
    """
    n_mid = _middle_dim(e1, e2)
    if grid is None:
        grid = QuadGrid(nodes_per_axis=44, n=n_mid)
    if eval_points is None:
        eval_points = default_eval_points(e1.kind, e2.kind)
    if len(eval_points) == 0:
        raise ValueError("need at least one evaluation point")
    if expected is None:
        expected = compose(e1, e2)
    numeric = oracle_compose_values(e1, e2, grid, eval_points)
    want = expected.evaluate_batch(*_stack_points(eval_points, e1.kind.du, e2.kind.dp))
    return _report(want, np.array(numeric).reshape(want.shape), grid, rel_tol)


def _report(want: np.ndarray, got: np.ndarray, grid: QuadGrid, tol: float) -> OracleReport:
    max_abs = float(np.max(np.abs(want - got), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    max_rel = max_abs / scale if scale > 1e-150 else max_abs
    return OracleReport(max_abs=max_abs, max_rel=max_rel, grid=grid, passed=max_rel <= tol)


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
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have the same length")
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

    pts, _ = gaussian_mesh(n, grid.nodes_per_axis, grid.weight_scale)
    if len(pts) > 4096:
        pts = pts[:: len(pts) // 4096 + 1]
    no_primed = np.zeros((len(pts), 0))
    return _report(want.evaluate_batch(pts, no_primed), lap.evaluate_batch(pts, no_primed), grid, tol)


# -- exact Fock pairings and norm estimation -----------------------------------


def gaussian_pairing(expr: KernelExpr, beta: Sequence[int], gamma: Sequence[int]) -> np.ndarray:
    """Exact integral conj(z)^beta expr(Z, Z') z'^gamma against the split weight.

    Both slots carry exp(-pi |.|^2 / 2) from the weighted monomials; the
    kernel contributes the other half, so each coordinate reduces to
    diagonal Gaussian moments (with the cross series where the kernel
    couples the coordinate).  Only Bergman / OrthBergman kinds make sense
    here (both slots must carry the same dimension).
    """
    kind = expr.kind
    d = kind.du
    if kind.dp != d:
        raise ValueError("pairing needs a square kernel (Bergman or OrthBergman)")
    beta = tuple(int(x) for x in beta)
    gamma = tuple(int(x) for x in gamma)
    if len(beta) != d or len(gamma) != d:
        raise ValueError(f"index length must be {d}")
    return _pairing_sum(expr.numerator.sorted_terms(), kind.c, expr.dims.fiber_rank, beta, gamma)


def _pairing_sum(terms: list, c: int, r: int, beta: tuple[int, ...], gamma: tuple[int, ...]) -> np.ndarray:
    """:func:`gaussian_pairing` summed over a numerator's ``sorted_terms``."""
    d = len(beta)
    acc = np.zeros((r, r), dtype=complex)
    for exps, coef in terms:
        val = 1.0
        for i in range(d):
            u, v, s, t = exps[4 * i : 4 * i + 4]
            if i < c:
                j = v + beta[i] - u
                if j < 0 or s + gamma[i] - t != j:
                    val = 0.0
                    break
                val *= (
                    PI**j
                    / math.factorial(j)
                    * gaussian_moment(u + j, u + j)
                    * gaussian_moment(s + gamma[i], s + gamma[i])
                )
            else:
                if u != v + beta[i] or s + gamma[i] != t:
                    val = 0.0
                    break
                val *= gaussian_moment(u, u) * gaussian_moment(t, t)
        if val:
            acc = acc + val * coef
    return acc


def _scaled_compose(s1: ScaledKernel, s2: ScaledKernel) -> ScaledKernel:
    if s1.p != s2.p:
        raise ValueError("cannot compose kernels at different scales")
    n_mid = _middle_dim(s1.expr, s2.expr)
    base = compose(s1.expr, s2.expr)
    return ScaledKernel(base, s1.p, s1.prefactor * s2.prefactor / s1.p**n_mid)


def norm_estimate(op: KernelExpr | ScaledKernel, basis_cutoff: int) -> float:
    """Operator norm from the largest eigenvalue of a Gram matrix of basis images.

    Builds the Gram kernel on the smaller side, T*T on C^dp when
    ``dp <= du`` and TT* on C^du otherwise, evaluates it exactly on the
    weighted monomial basis up to ``basis_cutoff`` and takes the square root
    of the PSD matrix's top eigenvalue.  The result is a monotone lower
    bound converging in the cutoff.
    """
    if isinstance(op, KernelExpr):
        op = ScaledKernel(op, 1.0, 1.0)
    if op.kind.dp <= op.kind.du:
        gram_kernel = _scaled_compose(op.adjoint(), op)
    else:
        gram_kernel = _scaled_compose(op, op.adjoint())
    d = gram_kernel.kind.du
    r = gram_kernel.expr.dims.fiber_rank
    basis = fock_indices(d, basis_cutoff)
    blocks = np.zeros((len(basis), len(basis), r, r), dtype=complex)
    terms, c = gram_kernel.expr.numerator.sorted_terms(), gram_kernel.kind.c
    for ib, b in enumerate(basis):
        for ig, g in enumerate(basis):
            raw = _pairing_sum(terms, c, r, b, g)
            w = (
                gram_kernel.prefactor
                * gram_kernel.p ** (-d)
                * PI ** ((b.total + g.total) / 2.0)
                / math.sqrt(b.factorial * g.factorial)
            )
            blocks[ib, ig] = w * raw
    G = blocks.transpose(0, 2, 1, 3).reshape(len(basis) * r, len(basis) * r)
    G = 0.5 * (G + G.conj().T)
    return math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0))
