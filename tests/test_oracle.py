"""Quadrature oracle: the hand-rolled Gauss rule, numeric composition, norms."""

import math

import numpy as np
import pytest

from fockcalc import (
    Bergman,
    Dims,
    Extension,
    FockIndex,
    InsufficientNodesError,
    KernelExpr,
    OrthBergman,
    Poly,
    QuadGrid,
    Restriction,
    ScaledKernel,
    Symbol,
    compose,
    default_eval_points,
    fock_indices,
    fock_norm,
    gauss_hermite,
    gaussian_mesh,
    gaussian_moment,
    gaussian_pairing,
    laplacian_eigencheck,
    m_op,
    norm_estimate,
    oracle_compose,
    oracle_compose_values,
    unit_expr,
)
from fockcalc.oracle import _scaled_compose

from conftest import random_kernel_expr, supported_kind_pairs

PI = math.pi


# -- Gauss-Hermite rule -----------------------------------------------------------


def test_gauss_hermite_against_reference():
    for k in (1, 2, 3, 5, 8, 13, 21, 34, 44, 55):
        xs, ws = gauss_hermite(k)
        rx, rw = np.polynomial.hermite.hermgauss(k)
        assert np.max(np.abs(np.array(xs) - rx)) < 1e-13
        assert np.max(np.abs(np.array(ws) - rw)) < 1e-13


def test_gauss_hermite_moments_exact():
    # the k-point rule integrates x^(2j) e^{-x^2} exactly for 2j <= 2k - 1.
    def double_factorial(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    for k in (1, 2, 5, 9):
        xs, ws = gauss_hermite(k)
        x, w = np.array(xs), np.array(ws)
        assert abs(np.sum(w) - math.sqrt(PI)) < 1e-13
        for j in range(k):
            got = float(np.sum(w * x ** (2 * j)))
            want = double_factorial(2 * j - 1) * math.sqrt(PI) / 2.0**j
            assert abs(got - want) < 1e-12 * max(1.0, want)
        # odd moments vanish by symmetry
        assert abs(float(np.sum(w * x))) < 1e-12


def test_gauss_hermite_errors():
    with pytest.raises(ValueError):
        gauss_hermite(0)


def test_quad_grid():
    g = QuadGrid(nodes_per_axis=7, n=2)
    xs, ws = g.axis_nodes()
    # absorbs exp(-pi x^2): total mass integrates to 1.
    assert abs(float(np.sum(ws)) - 1.0) < 1e-13
    assert abs(float(np.sum(ws * xs**2)) - 1.0 / (2 * PI)) < 1e-13
    with pytest.raises(ValueError):
        QuadGrid(nodes_per_axis=0, n=1)
    with pytest.raises(ValueError):
        QuadGrid(nodes_per_axis=3, n=1, weight_scale=-1.0)


def test_quad_grid_rejects_nan_weight_scale():
    with pytest.raises(ValueError, match="weight_scale must be positive and finite"):
        QuadGrid(4, 1, weight_scale=math.nan)


def test_quad_grid_rejects_fractional_node_count():
    with pytest.raises(ValueError, match="nodes_per_axis must be an integer"):
        QuadGrid(4.5, 1)


# -- basis bookkeeping ---------------------------------------------------------------


def test_fock_indices():
    idx = fock_indices(2, 2)
    assert len(idx) == 6  # (0,0),(0,1),(0,2),(1,0),(1,1),(2,0)
    assert idx == sorted(idx)
    assert fock_indices(0, 3) == [FockIndex(())]
    b = FockIndex((2, 1))
    assert b.total == 3 and b.factorial == 2


def test_gaussian_moment_and_fock_norm():
    assert gaussian_moment(0, 0) == 1.0
    assert gaussian_moment(2, 2) == 2.0 / PI**2
    assert gaussian_moment(1, 2) == 0.0
    with pytest.raises(ValueError):
        gaussian_moment(-1, 0)
    assert fock_norm((0, 0)) == 1.0
    assert abs(fock_norm((1,)) - 1 / math.sqrt(PI)) < 1e-15
    assert abs(fock_norm((2, 1)) - math.sqrt(2.0 / PI**3)) < 1e-15
    with pytest.raises(ValueError):
        fock_norm((-1,))


# -- numeric composition vs the closed form -------------------------------------------


def test_oracle_agrees_with_closed_form(rng):
    for k1, k2 in supported_kind_pairs(2, 2, 1):
        e1 = random_kernel_expr(rng, k1, fiber_rank=2, max_deg=3)
        e2 = random_kernel_expr(rng, k2, fiber_rank=2, max_deg=3)
        report = oracle_compose(e1, e2)
        assert report.passed, f"{k1} o {k2}: rel={report.max_rel:.2e}"


def test_oracle_insufficient_nodes():
    dims = Dims.of(1)
    e1 = KernelExpr(Poly.monomial(dims, {"zb'1": 4}), Bergman(1))
    e2 = KernelExpr(Poly.monomial(dims, {"z1": 4}), Bergman(1))
    with pytest.raises(InsufficientNodesError):
        oracle_compose_values(e1, e2, grid=QuadGrid(nodes_per_axis=4, n=1))
    # 5 nodes integrate middle degree 8 exactly
    vals = oracle_compose_values(e1, e2, grid=QuadGrid(nodes_per_axis=5, n=1))
    assert len(vals) == 5


def test_oracle_middle_dimension_mismatch():
    with pytest.raises(ValueError):
        oracle_compose_values(unit_expr(Extension(2, 1)), unit_expr(Bergman(2)))


def test_oracle_expected_override_projector_identity(rng):
    # Extension o Restriction is the sub-band projector: a pair outside the
    # closed-form table, checked via the explicit expected kernel.
    for n, m in ((1, 0), (2, 1), (3, 2)):
        e = unit_expr(Extension(n, m))
        r = unit_expr(Restriction(n, m))
        report = oracle_compose(e, r, expected=unit_expr(OrthBergman(n, m)))
        assert report.passed, f"(n,m)=({n},{m}): rel={report.max_rel:.2e}"


def test_default_eval_points_shapes():
    pts = default_eval_points(Extension(3, 1), Restriction(2, 1), count=4)
    assert len(pts) == 4
    for Z, Zp in pts:
        assert len(Z) == 3 and len(Zp) == 2


def test_oracle_needs_an_evaluation_point():
    # no points used to report max_rel 0.0 and a pass
    e = unit_expr(Bergman(1))
    with pytest.raises(ValueError, match="at least one evaluation point"):
        oracle_compose(e, e, eval_points=[])


def test_oracle_report_shape(rng):
    e = unit_expr(Bergman(1))
    rep = oracle_compose(e, e)
    d = rep.to_json_dict()
    assert set(d) == {"max_abs", "max_rel", "grid", "pass"}
    assert d["pass"] is True


# -- ladder spectrum -----------------------------------------------------------------


def test_laplacian_eigencheck_passes():
    for alpha, beta in (((0,), (0,)), ((2,), (1,)), ((1, 1), (0, 1)), ((0, 2), (2, 0))):
        rep = laplacian_eigencheck(alpha, beta)
        assert rep.passed, f"alpha={alpha} beta={beta}: rel={rep.max_rel:.2e}"


def test_gaussian_mesh_order_and_weights():
    # first coordinate slowest, x before y within a coordinate: the order the
    # Laplacian check strides through.
    xs, _ = QuadGrid(nodes_per_axis=3, n=2).axis_nodes()
    axis = [complex(x, y) for x in xs for y in xs]
    pts, wts = gaussian_mesh(2, 3)
    assert pts.shape == (81, 2) and wts.shape == (81,)
    assert np.array_equal(pts, np.array([(a, b) for a in axis for b in axis]))
    assert not pts.flags.writeable and not wts.flags.writeable
    # every scale integrates against exp(-pi |u|^2): mass 1, E|u|^2 = 1/pi
    # (off pi the integrand is not polynomial, hence the 44 nodes)
    for s in (PI, 2.0, 5.0):
        pts, wts = gaussian_mesh(1, 44, s)
        assert abs(float(np.sum(wts)) - 1.0) < 1e-13
        assert abs(float(np.sum(wts * np.abs(pts[:, 0]) ** 2)) - 1.0 / PI) < 1e-13
    pts, wts = gaussian_mesh(0, 4)
    assert pts.shape == (1, 0) and wts.tolist() == [1.0]


@pytest.mark.parametrize("scale", [2.0, 5.0])
def test_oracle_honours_weight_scale(scale):
    # the grid's axis rule absorbs exp(-scale x^2); the middle weight stays exp(-pi |W|^2)
    dims = Dims.of(2)
    b = unit_expr(Bergman(1))
    pair = (
        KernelExpr(Poly.monomial(dims, {"z1": 1, "zb'2": 1}, 0.5).add(Poly.one(dims)), Bergman(2)),
        KernelExpr(Poly.monomial(dims, {"zb2": 1}, 2.0).add(Poly.monomial(dims, {"z1": 2})), Bergman(2)),
    )
    for e1, e2 in ((b, b), pair):
        grid = QuadGrid(nodes_per_axis=44, n=e1.kind.n, weight_scale=scale)
        report = oracle_compose(e1, e2, grid=grid)
        assert report.passed, f"scale {scale}: rel={report.max_rel:.2e}"


def test_laplacian_eigencheck_validation():
    with pytest.raises(ValueError):
        laplacian_eigencheck((1,), (1, 0))


# -- exact pairings ----------------------------------------------------------------------


def _pairing_quadrature(expr, beta, gamma, nodes=14):
    """Direct 4-real-dimensional quadrature of the double Gaussian pairing.

    The Gauss weights absorb exp(-pi(|z|^2+|z'|^2)) while the kernel carries
    the half-weight exp(+pi/2(...)) factors, so those are multiplied back in.
    """
    xs, ws = gauss_hermite(nodes)
    x = np.array(xs) / math.sqrt(PI)
    w = np.array(ws) / math.sqrt(PI)
    zs = (x[:, None] + 1j * x[None, :]).ravel()
    zw = (w[:, None] * w[None, :]).ravel()
    Z1 = zs[:, None]
    Z2 = zs[None, :]
    W = zw[:, None] * zw[None, :]
    # kv[i, j] = expr(zs[i], zs[j]), all pairs in one batched call
    pairs = expr.evaluate_batch(np.repeat(zs, len(zs))[:, None], np.tile(zs, len(zs))[:, None])
    kv = pairs[:, 0, 0].reshape(len(zs), len(zs))
    integrand = (
        np.conj(Z1) ** beta[0]
        * Z2 ** gamma[0]
        * kv
        * np.exp(0.5 * PI * (np.abs(Z1) ** 2 + np.abs(Z2) ** 2))
    )
    return complex(np.sum(W * integrand))


@pytest.mark.parametrize(
    "powers,beta,gamma",
    [
        ({}, (0,), (0,)),
        ({"z1": 1}, (0,), (1,)),
        ({"zb'1": 1}, (1,), (0,)),
        ({"z1": 1, "zb'1": 1}, (1,), (1,)),
        ({}, (2,), (2,)),
    ],
)
def test_gaussian_pairing_vs_quadrature(powers, beta, gamma):
    dims = Dims.of(1)
    poly = Poly.monomial(dims, powers) if powers else Poly.one(dims)
    expr = KernelExpr(poly, Bergman(1))
    exact = gaussian_pairing(expr, beta, gamma)[0, 0]
    quad = _pairing_quadrature(expr, beta, gamma)
    assert abs(exact - quad) < 1e-9 * max(1.0, abs(exact))


def test_gaussian_pairing_orthogonality():
    # the unit kernel reproduces the weighted monomials: <z^b, K z^g> = 0 unless b == g.
    e = unit_expr(Bergman(2))
    assert abs(gaussian_pairing(e, (1, 0), (0, 1))[0, 0]) == 0.0
    got = gaussian_pairing(e, (1, 1), (1, 1))[0, 0]
    assert abs(got - fock_norm((1, 1)) ** 2) < 1e-15
    with pytest.raises(ValueError):
        gaussian_pairing(unit_expr(Extension(2, 1)), (0, 0), (0,))
    with pytest.raises(ValueError):
        gaussian_pairing(e, (0,), (0, 0))


# -- norms ------------------------------------------------------------------------------


def test_norm_estimate_projectors():
    assert abs(norm_estimate(unit_expr(Bergman(2)), 3) - 1.0) < 1e-10
    assert abs(norm_estimate(unit_expr(Extension(2, 1)), 3) - 1.0) < 1e-10
    assert abs(norm_estimate(unit_expr(Restriction(2, 1)), 3) - 1.0) < 1e-10


@pytest.mark.parametrize("cutoff", [0, 2, 4, 8, 16])
def test_norm_estimate_golden_through_cutoff(cutoff):
    # z1 * Bergman(1) has Gram matrix diag(1/pi, ..., (c+1)/pi) up to cutoff c:
    # the basis path is exercised and the estimate is the last entry.
    z1 = KernelExpr(Poly.monomial(Dims.of(1), {"z1": 1}), Bergman(1))
    want = math.sqrt((cutoff + 1) / PI)
    assert abs(norm_estimate(z1, cutoff) - want) <= 1e-12 * want


def test_norm_estimate_zero():
    z = KernelExpr(Poly.zero(Dims.of(1)), Bergman(1))
    assert norm_estimate(z, 2) == 0.0


def test_norm_estimate_model_operator():
    op = m_op(Symbol.monomial(1, 0, (0,), (1,)), p=4.0)
    want = 1.0 / math.sqrt(4.0 * PI)
    assert abs(norm_estimate(op, basis_cutoff=8) - want) < 1e-10


# Estimates pinned bit for bit: the Gram kernel is T*T on C^dp when dp <= du
# and TT* on C^du otherwise, so restriction operators (dp = n > du = m) keep
# their Gram matrix on C^m.
PINNED_NORMS = [
    ((1, 0, (0,), (1,)), "adjoint", 1.0, 4, 0.5641895835477563),
    ((1, 0, (0,), (1,)), "adjoint", 4.0, 6, 1.1283791670955126),
    ((2, 1, (0,), (1,)), "adjoint", 1.0, 4, 0.5641895835477564),
    ((2, 1, (0,), (1,)), "adjoint", 4.0, 6, 1.1283791670955128),
    ((3, 1, (1, 0), (0, 1)), "adjoint", 1.0, 4, 0.3183098861837907),
    ((3, 1, (1, 0), (0, 1)), "adjoint", 4.0, 6, 1.2732395447351628),
    ((3, 2, (2,), (1,)), "adjoint", 1.0, 4, 0.4398968135815455),
    ((3, 2, (2,), (1,)), "adjoint", 4.0, 6, 0.879793627163091),
    ((3, 2, (2,), (1,)), "direct", 4.0, 6, 0.21994840679077274),
]


@pytest.mark.parametrize("shape, variant, p, cutoff, want", PINNED_NORMS)
def test_norm_estimate_gram_side_is_pinned(shape, variant, p, cutoff, want):
    op = m_op(Symbol.monomial(*shape), p=p, variant=variant)
    assert norm_estimate(op, cutoff) == want


def test_norm_estimate_z1_is_pinned():
    z1 = KernelExpr(Poly.monomial(Dims.of(1), {"z1": 1}), Bergman(1))
    got = [norm_estimate(z1, cutoff) for cutoff in (0, 2, 4, 8, 16)]
    assert got == [0.5641895835477563, 0.9772050238058398, 1.2615662610100802, 1.692568750643269, 2.326213245840639]


def test_norm_estimate_scaling():
    e = unit_expr(Bergman(1))
    assert abs(norm_estimate(ScaledKernel(e, 1.0, 2.5), 4) - 2.5) < 1e-9


def test_scaled_compose_requires_matching_p():
    e = unit_expr(Bergman(1))
    with pytest.raises(ValueError):
        _scaled_compose(ScaledKernel(e, 1.0), ScaledKernel(e, 4.0))
    out = _scaled_compose(ScaledKernel(e, 4.0, 2.0), ScaledKernel(e, 4.0, 3.0))
    assert abs(out.prefactor - 2.0 * 3.0 / 4.0) < 1e-15
    got = compose(e, e)
    assert out.expr.numerator.max_coef_diff(got.numerator) < 1e-15
