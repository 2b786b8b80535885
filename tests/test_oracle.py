"""Quadrature oracle: the Gauss-Hermite rule and numeric composition; the exact
Fock pairings and norm estimates checked against it."""

import ast
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fockcalc import (
    Bergman,
    Dims,
    Extension,
    InsufficientNodesError,
    KernelExpr,
    OrthBergman,
    Poly,
    QuadGrid,
    Restriction,
    ScaledKernel,
    Symbol,
    apply_ladder,
    c1_c2,
    compose,
    fock_indices,
    gauss_hermite,
    laplacian_eigencheck,
    m_op,
    norm_estimate,
    oracle_compose,
    oracle_compose_values,
    unit_expr,
)
from fockcalc import oracle
from fockcalc.oracle import _report
from fockcalc.operators import _pairing_row, _scaled_compose

from conftest import random_kernel_expr, supported_kind_pairs

PI = math.pi


# -- Gauss-Hermite rule -----------------------------------------------------------


def test_gauss_hermite_moments_exact():
    # the k-point rule integrates x^(2j) e^{-x^2} exactly for 2j <= 2k - 1.
    def double_factorial(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    for k in (1, 2, 5, 9, 24, 44, 80):
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


def test_quad_grid_rejects_fractional_node_count():
    with pytest.raises(ValueError, match="nodes_per_axis must be an integer"):
        QuadGrid(4.5, 1)


def test_quad_grid_stores_an_int_node_count():
    # 4.0 used to be kept as a float and fail at first use inside hermgauss;
    # True used to run as a one-node grid and report a pass
    grid = QuadGrid(4.0, 1)
    assert type(grid.nodes_per_axis) is int and grid.nodes_per_axis == 4
    e = unit_expr(Bergman(1))
    assert oracle_compose(e, e, grid=grid).passed
    with pytest.raises(ValueError, match="nodes_per_axis must be an integer, got True"):
        QuadGrid(True, 1)


def test_integer_arguments_are_read_by_name():
    # each used to raise a TypeError or run on the value as an int; QuadGrid(4, "x")
    # was accepted and oracle/1 then carried "n": "x"
    oracle._plane_mesh(1), gauss_hermite(1)  # cached, so True must not be served what 1 gets
    calls = [
        (lambda: fock_indices(1, 1.5), "max_total"),
        (lambda: fock_indices(True, 2), "dim"),
        (lambda: oracle._plane_mesh(True), "nodes"),
        (lambda: oracle._plane_mesh(2.5), "nodes"),
        (lambda: gauss_hermite(True), "k"),
        (lambda: gauss_hermite(2.5), "k"),
        (lambda: QuadGrid(4, "x"), "n"),
    ]
    for call, name in calls:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()


def test_counts_below_their_least_are_rejected_by_name():
    # fock_indices(-1, 2) raised itertools' "repeat argument cannot be negative"
    calls = [
        (lambda: fock_indices(-1, 2), "dim must be an integer >= 0, got -1"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_numbers_are_no_sequences():
    # each raised a bare "'int' object is not iterable" (or "'float' ...")
    g = Symbol.monomial(1, 0, (1,), (0,))
    calls = [
        (lambda: laplacian_eigencheck(1, 0), "alpha must be a list of integers"),
        (lambda: laplacian_eigencheck((1,), 0), "beta must be a list of integers"),
        (lambda: c1_c2(g, 1.0), "kappa_samples must be a list of numbers"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_quad_grid_middle_dimension_is_not_negative():
    # QuadGrid(4, -1) was accepted and written to oracle/1 as "n": -1; 0 is a valid middle dimension
    with pytest.raises(ValueError, match="^n must be an integer >= 0, got -1$"):
        QuadGrid(4, -1)
    assert QuadGrid(4, 0).to_json_dict() == {"nodes_per_axis": 4, "n": 0}


# -- basis bookkeeping ---------------------------------------------------------------


def test_fock_indices():
    idx = fock_indices(2, 2)
    assert len(idx) == 6  # (0,0),(0,1),(0,2),(1,0),(1,1),(2,0)
    assert idx == sorted(idx)
    assert fock_indices(0, 3) == [()]


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


def test_oracle_compose_takes_its_values_from_oracle_compose_values(monkeypatch):
    # one numeric entry: the default grid, the default points and their stacking live there
    calls = []
    values = oracle.oracle_compose_values

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return values(*args, **kwargs)

    monkeypatch.setattr(oracle, "oracle_compose_values", counted)
    e1 = KernelExpr(Poly.monomial(Dims.of(1), {"zb'1": 2}), Bergman(1))
    e2 = unit_expr(Bergman(1))
    report = oracle_compose(e1, e2)
    assert len(calls) == 1 and report.passed
    assert report.grid.nodes_per_axis == 44
    want = values(e1, e2)
    assert want.shape == (5, 1, 1)
    assert np.array_equal(counted(*calls[0][0], **calls[0][1]), want)


def test_default_points_are_built_once_per_dimension_pair():
    # oracle_compose and its oracle_compose_values call used to build them each
    oracle._palette_points.cache_clear()
    e = KernelExpr(Poly.monomial(Dims.of(2), {"zb'1": 1}), Bergman(2))
    report = oracle_compose(e, e)
    info = oracle._palette_points.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    z, zp = oracle._palette_points(2, 2)
    assert not z.flags.writeable and not zp.flags.writeable
    assert oracle_compose(e, e, eval_points=list(zip(z.copy(), zp.copy()))) == report


def test_oracle_compose_refuses_an_expected_form_of_other_dimensions():
    # the closed form is evaluated at the points already read, so its kind must fit them
    e = unit_expr(Bergman(1))
    with pytest.raises(ValueError, match="does not match"):
        oracle_compose(e, e, expected=unit_expr(Bergman(2)))
    with pytest.raises(ValueError, match="does not match"):
        oracle_compose(e, e, expected=unit_expr(Extension(1, 0)))


def test_oracle_compose_refuses_an_expected_form_of_another_fiber_rank():
    # numpy used to fail with "cannot reshape array of size 5 into shape (5,2,2)"
    e = unit_expr(Bergman(1))
    with pytest.raises(ValueError, match="^expected fiber rank 2 does not match the composite's 1$"):
        oracle_compose(e, e, expected=unit_expr(Bergman(1), fiber_rank=2))


def test_oracle_refuses_a_grid_of_another_middle_dimension():
    # QuadGrid(8, 7) used to pass for a 2-dimensional middle and be reported as "n": 7
    e = unit_expr(Bergman(2))
    for check in (oracle_compose, oracle_compose_values):
        with pytest.raises(ValueError, match="^grid n 7 does not match the middle dimension 2$"):
            check(e, e, grid=QuadGrid(8, 7))
    assert oracle_compose(e, e, grid=QuadGrid(8, 2)).to_json_dict()["grid"] == {"nodes_per_axis": 8, "n": 2}


def test_oracle_middle_dimension_mismatch():
    with pytest.raises(ValueError):
        oracle_compose_values(unit_expr(Extension(2, 1)), unit_expr(Bergman(2)))


def test_oracle_rejects_misshapen_points_and_mixed_fiber_ranks():
    e = unit_expr(Bergman(1))
    for check in (oracle_compose, oracle_compose_values):
        with pytest.raises(ValueError, match="^evaluation point has wrong dimensions$"):
            check(e, e, eval_points=[(np.zeros(1), np.zeros(1)), (np.zeros(2), np.zeros(1))])
    with pytest.raises(ValueError, match="^fiber rank mismatch$"):
        oracle_compose_values(e, unit_expr(Bergman(1), fiber_rank=2))


def test_oracle_expected_override_projector_identity(rng):
    # Extension o Restriction is the sub-band projector: a pair outside the
    # closed-form table, checked via the explicit expected kernel.
    for n, m in ((1, 0), (2, 1), (3, 2)):
        e = unit_expr(Extension(n, m))
        r = unit_expr(Restriction(n, m))
        report = oracle_compose(e, r, expected=unit_expr(OrthBergman(n, m)))
        assert report.passed, f"(n,m)=({n},{m}): rel={report.max_rel:.2e}"


def test_oracle_needs_an_evaluation_point():
    # no points used to report max_rel 0.0 and a pass
    e = unit_expr(Bergman(1))
    with pytest.raises(ValueError, match="at least one evaluation point"):
        oracle_compose(e, e, eval_points=[])


def test_oracle_report_shape(rng):
    e = unit_expr(Bergman(1))
    rep = oracle_compose(e, e)
    d = rep.to_json_dict()
    assert set(d) == {"max_abs", "max_rel", "worst_point", "grid", "pass"}
    assert d["grid"] == {"nodes_per_axis": 44, "n": 1}
    assert d["pass"] is True


def test_report_scales_each_point_by_its_own_values():
    # one point's values are 1e-6 of the other's: a shared scale hid its error
    want = np.array([[[1e-6]], [[1.0]]], dtype=complex)
    got = want + 1e-12
    rep = _report(want, got, QuadGrid(4, 1), 1e-9)
    assert rep.worst_point == 0 and not rep.passed
    assert abs(rep.max_rel - 1e-6) < 1e-9 and abs(rep.max_abs - 1e-12) < 1e-15
    # below the 1e-150 floor a point's error stays absolute
    rep = _report(np.zeros((2, 1, 1)), np.array([[[0.0]], [[1e-300]]]), QuadGrid(4, 1), 1e-9)
    assert rep.worst_point == 1 and rep.max_rel == 1e-300 and rep.passed


@pytest.mark.parametrize("t", [3, 6])
def test_oracle_exact_at_far_points(t):
    # the coupling exp(pi z conj(w) + pi conj(z') w) is no polynomial; an
    # unshifted grid read max_rel 3e-9 (t = 3) and 1.0 (t = 6) at Z' = t - 0.5i
    e = unit_expr(Bergman(1))
    Z = np.array([t + 0.3j])
    points = [(Z, np.array([t - 0.5j])), (Z, np.array([-t])), (Z, np.array([0.2]))]
    rep = oracle_compose(e, e, eval_points=points)
    assert rep.max_rel <= 1e-12, f"rel={rep.max_rel:.2e} at point {rep.worst_point}"


def test_oracle_exact_at_far_points_bergman2_pair():
    dims = Dims.of(2)
    e1 = KernelExpr(Poly.monomial(dims, {"z1": 1, "zb'2": 1}, 0.5).add(Poly.one(dims)), Bergman(2))
    e2 = KernelExpr(Poly.monomial(dims, {"zb2": 1}, 2.0).add(Poly.monomial(dims, {"z1": 2})), Bergman(2))
    points = [
        (np.array([3.2 + 2.4j, -1.5 + 0.5j]), np.array([2.5 - 1.0j, -0.8 + 1.1j])),
        (np.array([-4.0, 2.0 - 3.0j]), np.array([-3.5 + 0.5j, 1.5 - 2.5j])),
        (np.array([0.5j, 3.9]), np.array([1.0 + 1.0j, 2.0])),
    ]
    for nodes in (24, 44):
        rep = oracle_compose(e1, e2, grid=QuadGrid(nodes, 2), eval_points=points)
        assert rep.max_rel <= 1e-12, f"{nodes} nodes: rel={rep.max_rel:.2e} at point {rep.worst_point}"


def test_oracle_keeps_its_digits_on_middle_powers_to_eight():
    # (z'^a + 1) Bergman(1) o (zbar^b + 1) Bergman(1) for a, b <= 8 at 81 point pairs with
    # |z| <= 4, on the 9-node grid that integrates middle degree 16 exactly.  The worst
    # per-point error read 6.55e-12 while the expansion was rebuilt on every call from
    # binomials; a way of building the moments that loses digits fails this 10x bound.
    dims = Dims.of(1)
    ring = [4.0, 4.0j, -4.0, -4.0j, 2.8 + 2.8j, -2.8 + 2.8j, 1.0 - 3.0j, 0.5, 0.0]
    points = [(np.array([z]), np.array([zp])) for z in ring for zp in ring]
    worst = 0.0
    for a in range(9):
        for b in range(9):
            e1 = KernelExpr(Poly.monomial(dims, {"z'1": a}).add(Poly.one(dims)), Bergman(1))
            e2 = KernelExpr(Poly.monomial(dims, {"zb1": b}).add(Poly.one(dims)), Bergman(1))
            worst = max(worst, oracle_compose(e1, e2, grid=QuadGrid(9, 1), eval_points=points).max_rel)
    assert worst <= 6.6e-11, worst


def _names_in(node) -> set[str]:
    """Every name and attribute a piece of syntax reads."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_oracle_imports_only_compose_from_compose():
    # the independence contract: no pairing rule, registry or base case, no
    # hand-written moment, and none of the closed forms that moved to operators
    src = Path(__file__).resolve().parent.parent / "src" / "fockcalc"
    tree = ast.parse((src / "oracle.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("compose", "fockcalc.compose"):
            names += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # the module itself, e.g. from . import compose
            names += [f"module {alias.name}" for alias in node.names if alias.name.endswith("compose")]
    assert names == ["compose"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "factorial" not in used
    for name in ("norm_estimate", "gaussian_pairing", "fock_indices", "_pairing_row"):
        assert not hasattr(oracle, name), name
    # the expansion table the oracle caches reads no name compose defines
    defined = {"compose"} | {
        target.id if isinstance(target, ast.Name) else target.name
        for node in ast.parse((src / "compose.py").read_text()).body
        for target in (node.targets if isinstance(node, ast.Assign) else [node])
        if isinstance(target, (ast.Name, ast.FunctionDef, ast.ClassDef))
    }
    assert {"base_terms", "_one_sided", "_over_pi", "_REGISTRY"} <= defined
    expansion = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_expansion")
    assert not _names_in(expansion) & defined
    # the lambda quadratures, and every operators function they reach, use no pairing
    # table, no moment rule and none of the closed forms they check
    body = ast.parse((src / "operators.py").read_text()).body
    functions = {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["lambda_eq_quadrature", "lambda_h_quadrature", "lambda_a_quadrature"]
    while todo:
        if (name := todo.pop()) not in reached:
            reached.add(name)
            todo += [used for used in _names_in(functions[name]) if used in functions]
    assert "_witness" in reached
    used = set().union(*(_names_in(functions[name]) for name in reached))
    for rule in ("_one_sided", "_over_pi", "_contract", "base_terms", "_REGISTRY", "compose", "lambda_eq", "lambda_h"):
        assert rule not in used, rule


# -- ladder spectrum -----------------------------------------------------------------


def test_laplacian_eigencheck_passes():
    for alpha, beta in (((0,), (0,)), ((2,), (1,)), ((1, 1), (0, 1)), ((0, 2), (2, 0))):
        rep = laplacian_eigencheck(alpha, beta)
        assert rep.passed, f"alpha={alpha} beta={beta}: rel={rep.max_rel:.2e}"


def test_ladder_state_is_the_apply_ladder_chain_bit_for_bit():
    # the check steps creation^alpha on exponent rows; the chain of validated
    # KernelExprs it replaced must give the same rows and coefficient bytes
    for n in (1, 2, 3):
        dims, indices = Dims(n=n, l=n, m=0), fock_indices(n, 3)
        for beta in indices:
            powers = {f"z{i + 1}": b for i, b in enumerate(beta) if b}
            start = KernelExpr(Poly.monomial(dims, powers) if powers else Poly.one(dims), Extension(n, 0))
            for alpha in indices:
                chain = start
                for j, a in enumerate(alpha, 1):
                    for _ in range(a):
                        chain = apply_ladder(chain, j, "creation")
                state = oracle._ladder_state(alpha, beta)
                assert state.kind == chain.kind and state.dims == chain.dims
                got, want = state.numerator, chain.numerator
                assert got.exps.tobytes() == want.exps.tobytes() and got.exps.shape == want.exps.shape
                assert got.coefs.tobytes() == want.coefs.tobytes(), (alpha, beta)


def test_laplacian_eigencheck_thins_a_large_mesh(monkeypatch):
    # n = 3 used to span a 15,625-point mesh; the check now reads coefficient rows
    alpha, beta = (1, 0, 1), (0, 1, 0)
    rep = laplacian_eigencheck(alpha, beta)
    assert rep.passed and rep.max_rel <= 1e-12, rep
    # a Laplacian off by one part in a million fails on the rows
    laplacian = oracle.apply_model_laplacian
    monkeypatch.setattr(oracle, "apply_model_laplacian", lambda e: laplacian(e).scale(1.0 + 1e-6))
    rep = laplacian_eigencheck(alpha, beta)
    assert not rep.passed and 0 <= rep.worst_point < len(oracle._ladder_state(alpha, beta).numerator.exps)
    assert math.isclose(rep.max_rel, 1e-6, rel_tol=1e-6)


def test_laplacian_eigencheck_at_six_coordinates_builds_no_tensor_mesh(monkeypatch):
    # n = 6 spans a 25^6 = 244M-point mesh, which the check used to build whole
    # (gaussian_mesh) before keeping 4,096 of its points
    def no_mesh(*args):
        raise AssertionError("the tensor mesh was built")

    monkeypatch.setattr(oracle, "gaussian_mesh", no_mesh, raising=False)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rep = laplacian_eigencheck((1, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0, 0))
        seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.max_rel <= 1e-12, rep
    assert seconds < 1.0 and peak < 16 * 2**20, (seconds, peak)


def test_laplacian_eigencheck_passes_at_many_coordinates():
    # n >= 14 raised IndexError: the mesh size 25^n no longer fit an int64 index
    for n in (14, 20):
        rep = laplacian_eigencheck((1,) + (0,) * (n - 1), (0,) * n)
        assert rep.passed and rep.max_rel == 0.0, (n, rep)
    rep = laplacian_eigencheck((0, 2) + (1,) * 18, (1,) + (0,) * 19)
    assert rep.passed and rep.max_rel <= 1e-12, rep


def test_laplacian_eigencheck_names_a_row_the_state_lacks(monkeypatch):
    alpha, beta = (1, 1), (0, 1)
    state = oracle._ladder_state(alpha, beta).numerator
    stray = Poly.monomial(state.dims, {"z1": 7})
    assert not (state.exps == stray.exps).all(axis=1).any()
    laplacian = oracle.apply_model_laplacian
    monkeypatch.setattr(oracle, "apply_model_laplacian", lambda e: KernelExpr(laplacian(e).numerator.add(stray), e.kind))
    rep = laplacian_eigencheck(alpha, beta)
    # rows come in first-occurrence order: the state's, then the Laplacian's new one
    assert not rep.passed and rep.max_rel == 1.0 and rep.worst_point == len(state.exps), rep


def test_laplacian_eigencheck_report_has_no_grid():
    rep = laplacian_eigencheck((1, 0), (0, 1))
    assert rep.grid is None
    assert rep.to_json_dict() == {"max_abs": 0.0, "max_rel": 0.0, "worst_point": 0, "grid": None, "pass": True}


def test_plane_mesh_order_and_weights():
    # x before y in each coordinate
    xs, _ = QuadGrid(nodes_per_axis=3, n=1).axis_nodes()
    pts, wts = oracle._plane_mesh(3)
    assert pts.shape == (9,) and wts.shape == (9,)
    assert np.array_equal(pts, np.array([complex(x, y) for x in xs for y in xs]))
    assert not pts.flags.writeable and not wts.flags.writeable
    # integrates against exp(-pi |u|^2): mass 1, E|u|^2 = 1/pi
    pts, wts = oracle._plane_mesh(44)
    assert abs(float(np.sum(wts)) - 1.0) < 1e-13
    assert abs(float(np.sum(wts * np.abs(pts) ** 2)) - 1.0 / PI) < 1e-13


def test_laplacian_eigencheck_validation():
    with pytest.raises(ValueError):
        laplacian_eigencheck((1,), (1, 0))
    # (1.7,), (0.2,) used to be checked as (1,), (0,) and pass
    with pytest.raises(ValueError, match="alpha entry must be an integer"):
        laplacian_eigencheck((1.7,), (0.2,))
    with pytest.raises(ValueError, match="beta entry must be an integer"):
        laplacian_eigencheck((1,), (0.2,))
    # (-1,), (0,) used to read the eigenvalue as -4 pi and fail like a numerical
    # error; (), () used to pass by comparing 0 with 0 at one point
    for alpha, beta in (((-1,), (0,)), ((0,), (-1,)), ((1, 0), (0, -2)), ((), ())):
        with pytest.raises(ValueError, match="must be non-empty and non-negative"):
            laplacian_eigencheck(alpha, beta)


# -- exact pairings ----------------------------------------------------------------------


def _pairing(expr, beta, gamma):
    """The exact pairing of conj(z)^beta with expr z'^gamma that ``norm_estimate``'s Gram rows
    hold: the gamma entry of ``_pairing_row``, zero where its selection rule drops gamma."""
    (E, C), r = expr.numerator.table, expr.dims.fiber_rank
    row = _pairing_row(E.tolist(), C, expr.kind.c, r, tuple(beta))
    return row.get(tuple(gamma), np.zeros((r, r), dtype=complex))


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
        ({}, (1,), (1,)),
        ({}, (0,), (1,)),
        ({"z1": 1}, (1,), (0,)),
        ({"zb1": 1}, (0,), (1,)),
        ({"z'1": 1}, (1,), (0,)),
    ],
)
def test_gaussian_pairing_vs_quadrature(powers, beta, gamma):
    # Bergman(1) couples its coordinate and OrthBergman(1, 0) does not; each
    # case vanishes on one kind, both or neither.  A pair the quadrature finds
    # zero must be exactly zero in closed form: the selection rule drops it.
    dims = Dims.of(1)
    poly = Poly.monomial(dims, powers) if powers else Poly.one(dims)
    for kind in (Bergman(1), OrthBergman(1, 0)):
        expr = KernelExpr(poly, kind)
        exact = _pairing(expr, beta, gamma)[0, 0]
        quad = _pairing_quadrature(expr, beta, gamma)
        assert abs(exact - quad) < 1e-9 * max(1.0, abs(exact)), kind
        if abs(quad) < 1e-12:
            assert exact == 0.0, kind
        else:
            assert abs(quad) > 1e-2, kind  # no case sits near the threshold


def _pairing_by_oracle(expr, beta, gammas, nodes=6):
    """{gamma: <z^beta, expr z^gamma>} with both integrals numeric and no pairing rule.

    The bra conj(w)^beta exp(-pi |w|^2 / 2) is a Restriction(d, 0) kernel; the
    oracle integrates it against expr at the mesh points z', and the mesh sums
    the result against z'^gamma.  The composite carries exp(-pi |z'|^2 / 2),
    and the ket's half weight over the mesh's exp(-pi |z'|^2) leaves
    exp(pi |z'|^2 / 2), so each integrand is a polynomial the mesh integrates
    exactly.
    """
    d, r = expr.kind.du, expr.dims.fiber_rank
    bra_kind = Restriction(d, 0)
    powers = {f"zb'{i + 1}": b for i, b in enumerate(beta) if b}
    bra = KernelExpr(Poly.monomial(unit_expr(bra_kind, r).dims, powers, np.eye(r)), bra_kind)
    xs, ws = (a / math.sqrt(PI) for a in gauss_hermite(nodes))  # the tensor mesh on C^d, first coordinate slowest
    axis, axis_w = (xs[:, None] + 1j * xs[None, :]).ravel(), (ws[:, None] * ws[None, :]).ravel()
    idx = np.indices((len(axis),) * d).reshape(d, -1).T
    pts, wts = axis[idx], np.prod(axis_w[idx], axis=1)
    values = oracle_compose_values(bra, expr, eval_points=[(np.zeros(0), zp) for zp in pts])
    weight = wts * np.exp(0.5 * PI * np.sum(np.abs(pts) ** 2, axis=1))
    return {g: np.tensordot(weight * np.prod(pts ** np.array(g), axis=1), values, axes=1) for g in gammas}


_D2_TERMS = [
    {},
    {"z1": 1},
    {"zb'2": 1},
    {"z1": 1, "zb'1": 1},
    {"zb1": 1, "z'2": 1},
    {"z2": 1, "zb'1": 1, "zb2": 1},
    {"z'1": 1, "zb'1": 1},
]


@pytest.mark.parametrize("kind", [Bergman(2), OrthBergman(2, 1), OrthBergman(2, 0)], ids=repr)
def test_gaussian_pairing_vs_oracle_quadrature_d2(kind):
    # multi-coordinate Gram rows: both coordinates coupled, one, or neither,
    # with rank-2 coefficients that do not commute
    rng = np.random.default_rng(11)
    dims = Dims.of(2, fiber_rank=2)
    numerator = Poly.zero(dims)
    for powers in _D2_TERMS:
        coef = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        numerator = numerator.add(Poly.monomial(dims, powers, coef))
    expr = KernelExpr(numerator, kind)
    indices = fock_indices(2, 2)
    nonzero = 0
    for beta in indices:
        quad = _pairing_by_oracle(expr, beta, indices)
        for gamma in indices:
            exact = _pairing(expr, beta, gamma)
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(exact - quad[gamma])) < 1e-9 * scale, (beta, gamma)
            if np.max(np.abs(quad[gamma])) < 1e-12:
                assert not exact.any(), (beta, gamma)  # the selection rule drops it exactly
            else:
                nonzero += 1
    assert nonzero >= 5  # 18, 9 and 5 of the 36 pairs, so no kind passes on zeros alone


def test_gaussian_pairing_orthogonality():
    # the unit kernel reproduces the weighted monomials: <z^b, K z^g> = 0 unless b == g.
    e = unit_expr(Bergman(2))
    assert abs(_pairing(e, (1, 0), (0, 1))[0, 0]) == 0.0
    got = _pairing(e, (1, 1), (1, 1))[0, 0]
    assert abs(got - 1.0 / PI**2) < 1e-15  # ||z1 z2||^2 = 1! 1! / pi^2


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


def test_norm_estimate_rejects_bad_cutoff():
    e = unit_expr(Bergman(2))
    with pytest.raises(ValueError, match="basis_cutoff must be >= 0, got -1"):
        norm_estimate(e, -1)  # used to raise IndexError from an empty Gram matrix
    with pytest.raises(ValueError, match="basis_cutoff must be an integer"):
        norm_estimate(e, 2.5)


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


# Pinned from the basis x basis double loop that filled the Gram matrix
# before it was filled row by row from the selection rule.
SELECTION_RULE_NORMS = [
    (unit_expr(Bergman(2)), 14, 1.0),
    (unit_expr(OrthBergman(3, 1)), 10, 1.0),
    (KernelExpr(Poly.monomial(Dims.of(2), {"z1": 1, "zb'1": 1}), Bergman(2)), 10, 3.183098861837907),
]


@pytest.mark.parametrize("op, cutoff, want", SELECTION_RULE_NORMS, ids=["Bergman2", "OrthBergman31", "z1zb'1"])
def test_norm_estimate_selection_rule_is_pinned(op, cutoff, want):
    assert norm_estimate(op, cutoff) == want


def _poly(dims, terms):
    out = Poly.zero(dims)
    for powers, coef in terms:
        out = out.add(Poly.monomial(dims, powers, coef))
    return out


# Non-diagonal Gram matrices with three or more terms on one entry, so the
# pins also fix the order terms accumulate in and the basis order: reversing
# either (in _pairing_row or before eigvalsh) moves the Bergman(2) value.
_MIXED_TERMS = [
    ({"z1": 1}, 0.7),
    ({"zb'2": 1}, 0.3 - 0.2j),
    ({"z1": 1, "zb'1": 1}, 1.1),
    ({}, 0.45),
    ({"z2": 1, "zb'1": 1}, -0.6j),
    ({"zb1": 1, "z'2": 1}, 0.25),
]
ORDER_NORMS = [
    (KernelExpr(_poly(Dims.of(2), _MIXED_TERMS), Bergman(2)), 4, 2.3856263052865927),
    (KernelExpr(_poly(Dims.of(2), _MIXED_TERMS), OrthBergman(2, 1)), 4, 2.3202558244658875),
]


@pytest.mark.parametrize("op, cutoff, want", ORDER_NORMS, ids=["Bergman2", "OrthBergman21"])
def test_norm_estimate_accumulation_order_is_pinned(op, cutoff, want):
    assert norm_estimate(op, cutoff) == want


def test_norm_estimate_z1_is_pinned():
    z1 = KernelExpr(Poly.monomial(Dims.of(1), {"z1": 1}), Bergman(1))
    got = [norm_estimate(z1, cutoff) for cutoff in (0, 2, 4, 8, 16)]
    assert got == [0.5641895835477563, 0.9772050238058398, 1.26156626101008, 1.692568750643269, 2.3262132458406386]


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
