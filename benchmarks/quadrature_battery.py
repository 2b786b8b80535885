"""quadrature_battery: pointwise evaluation loops, compose a small share.

The ops are ``oracle_compose`` on seeded pairs at 24 and 44 nodes, the
``lambda_eq``/``lambda_h``/``lambda_a`` quadratures on k = 1 and k = 2
symbols, ``laplacian_eigencheck``, ``norm_estimate`` on ``m_op`` model
operators and on ``z1 * Bergman(1)``, and ``h_gp`` with the identity and
the smooth-bump cutoff.  Time goes to ``Poly.evaluate``,
``Symbol.evaluate_split``, the oracle's per-point moments and mesh
building.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from fockcalc import (
    Bergman,
    CutoffSpec,
    Dims,
    KernelExpr,
    Poly,
    QuadGrid,
    Symbol,
    fock_indices,
    gauss_hermite,
    lambda_a,
    lambda_eq,
    lambda_eq_quadrature,
    lambda_h,
    m_op,
    primed_dim,
)

from common import Op, Workload, call
from inputs import CHAINS, Source, kind_pairs, own_lambda, random_factor, random_point, random_symbol

PI = math.pi
LAMBDA_TOL = 1e-10
NORM_TOL = 1e-12
HGP_TOL = 1e-10
ORDER_TOL = 1e-12

# (n, m, fiber_rank, nodes per axis): k = n - m normal variables.
LAMBDA_SHAPES = [(1, 0, 1, 12), (1, 0, 2, 12), (2, 1, 1, 16), (2, 0, 1, 4), (3, 1, 2, 4)]
HGP_SHAPES = [(1, 0, 1), (1, 0, 2), (2, 1, 1), (2, 0, 1), (3, 1, 2), (2, 0, 2)]
BUMP_SHAPES = [(1, 0, 1), (2, 1, 2), (2, 0, 1)]
NORM_CUTOFFS = (2, 6, 10, 16)  # for z1 * Bergman(1)
MOP_SHAPES = [(1, 0, 8), (2, 1, 8), (3, 2, 4)]  # (n, m, largest cutoff)
ORACLE_NODES = (24, 44)
ORACLE_PAIRS = 6  # per node count
LAPLACIAN_DIMS = (1, 1, 1, 1, 1, 1, 2, 2, 2)


def _scale(a) -> float:
    return float(np.max(np.abs(a)))


def _close(got, want, tol) -> float | None:
    """The deviation when ``got`` is off ``want`` by more than tol * scale."""
    dev = _scale(np.asarray(got) - np.asarray(want))
    return dev if dev > tol * max(1.0, _scale(want)) else None


def _oracle_pairs(src: Source, nodes: int, first: int):
    for i in range(ORACLE_PAIRS):
        shape = first + i
        chain = CHAINS[(3 * shape + 1) % len(CHAINS)]
        k1, k2 = kind_pairs(*chain)[(7 * shape) % 10]
        rank = 1 + shape % 2
        e1 = KernelExpr(random_factor(src, k1, rank, 2 + shape % 5, shape % 2), k1)
        e2 = KernelExpr(random_factor(src, k2, rank, 2 + (shape + 2) % 5, (shape // 2) % 2), k2)
        grid = QuadGrid(nodes_per_axis=nodes, n=primed_dim(k1))
        yield f"oracle_compose {nodes}n pair{i} r{rank}", partial(call, "oracle_compose", e1, e2, grid=grid)


def setup(seed: int, workdir) -> Workload:
    src = Source(seed, 2)
    ops: list[Op] = []
    checks: list = []  # one callable per op: result -> error or None

    def add(name, fn, check):
        ops.append(Op(f"{name} #{len(ops)}", fn))
        checks.append(check)

    for j, nodes in enumerate(ORACLE_NODES):
        for name, fn in _oracle_pairs(src, nodes, j * ORACLE_PAIRS):
            add(name, fn, lambda rep: None if rep.passed else f"oracle rel {rep.max_rel:.2e}")

    meshes = set()
    for n, m, rank, nodes in LAMBDA_SHAPES:
        g, terms = random_symbol(src, n, m, rank, 4)
        z = random_point(src, n - m)
        zb = np.conj(random_point(src, n - m))
        meshes.add((n - m, nodes))
        tag = f"k{n - m} r{rank} {nodes}n"

        def eq_check(val, g=g, terms=terms):
            dev = _close(val, lambda_eq(g), LAMBDA_TOL)
            own = _close(val, own_lambda(terms, "YY").get(None, 0), LAMBDA_TOL)
            if dev is not None or own is not None:
                return f"lambda_eq quadrature off closed form {dev} / own sum {own}"
            return None

        def h_check(val, g=g, z=z):
            dev = _close(val, lambda_h(g).evaluate_split(z, np.zeros_like(z)), LAMBDA_TOL)
            return None if dev is None else f"lambda_h quadrature off closed form by {dev:.2e}"

        def a_check(val, g=g, zb=zb):
            dev = _close(val, lambda_a(g).evaluate_split(np.zeros_like(zb), zb), LAMBDA_TOL)
            return None if dev is None else f"lambda_a quadrature off closed form by {dev:.2e}"

        add(f"lambda_eq_quadrature {tag}", partial(call, "lambda_eq_quadrature", g, nodes), eq_check)
        add(f"lambda_h_quadrature {tag}", partial(call, "lambda_h_quadrature", g, z, nodes), h_check)
        add(f"lambda_a_quadrature {tag}", partial(call, "lambda_a_quadrature", g, zb, nodes), a_check)

    for dim in LAPLACIAN_DIMS:
        indices = fock_indices(dim, 3)
        alpha = tuple(indices[int(src.shape.integers(0, len(indices)))])
        beta = tuple(indices[int(src.shape.integers(0, len(indices)))])
        add(
            f"laplacian_eigencheck {alpha} {beta}",
            partial(call, "laplacian_eigencheck", alpha, beta),
            lambda rep: None if rep.passed else f"laplacian residual {rep.max_rel:.2e}",
        )

    z1 = KernelExpr(Poly.monomial(Dims.of(1), {"z1": 1}), Bergman(1))
    for cutoff in NORM_CUTOFFS:
        want = math.sqrt((cutoff + 1) / PI)
        add(
            f"norm_estimate z1*Bergman(1) c{cutoff}",
            partial(call, "norm_estimate", z1, cutoff),
            lambda v, want=want: None
            if abs(v - want) <= NORM_TOL * want
            else f"norm {v!r} != sqrt((c+1)/pi) = {want!r}",
        )
    for n, m, top in MOP_SHAPES:
        for _ in range(2):
            p = float(src.value.integers(1, 17))
            cutoff = int(src.shape.integers(2, top + 1))
            op = m_op(Symbol.monomial(n, m, (0,), (1,)), p=p)
            want = 1.0 / math.sqrt(p * PI)
            add(
                f"norm_estimate m_op(wbar) n{n}m{m} c{cutoff}",
                partial(call, "norm_estimate", op, cutoff),
                lambda v, want=want: None
                if abs(v - want) <= NORM_TOL * want
                else f"norm {v!r} != 1/sqrt(p pi) = {want!r}",
            )

    for n, m, rank in HGP_SHAPES:
        g, _ = random_symbol(src, n, m, rank, 3)
        p = float(src.value.integers(1, 17))
        add(
            f"h_gp identity k{n - m} r{rank}",
            partial(call, "h_gp", g, p),
            lambda res: None
            if res.max_abs_diff <= HGP_TOL * _scale(res.leading)
            else f"identity cutoff off leading term by {res.max_abs_diff:.2e}",
        )
    for n, m, rank in BUMP_SHAPES:
        g, _ = random_symbol(src, n, m, rank, 3)
        add(f"h_gp bump k{n - m} r{rank}", partial(call, "h_gp", g, 64.0, CutoffSpec(r_perp=1.0)), _bump_check)

    def check(results: list) -> list[str]:
        errors = []
        for op, judge, res in zip(ops, checks, results):
            if res is not None:
                err = judge(res)
                if err:
                    errors.append(f"{op.name}: {err}")
        return errors

    def warm():
        for nodes in ORACLE_NODES + (5,):  # 5 = laplacian_eigencheck's default grid
            gauss_hermite(nodes)
        for k, nodes in sorted(meshes):
            lambda_eq_quadrature(Symbol.zero(k, 0), nodes)

    return Workload(ops=ops, check=check, warm=warm)


def _bump_check(res) -> str | None:
    """A cutoff 0 <= rho <= 1 keeps h^2 between 0 and the identity value."""
    h = 0.5 * (res.h_sq + res.h_sq.conj().T)
    gap = res.leading - h
    gap = 0.5 * (gap + gap.conj().T)
    floor = -ORDER_TOL * max(1.0, _scale(res.leading))
    low, high = float(np.linalg.eigvalsh(h)[0]), float(np.linalg.eigvalsh(gap)[0])
    if low < floor or high < floor:
        return f"bump h^2 outside [0, identity]: min eigs {low:.2e}, {high:.2e}"
    return None
