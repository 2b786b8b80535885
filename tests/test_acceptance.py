"""Acceptance battery: ten numbered checks, one per headline guarantee.

Each test pins the guarantee's tolerance (and time box where one applies)
and prints a one-line summary; run with ``pytest -v`` for the per-criterion
pass/fail report.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from fockcalc import (
    Bergman,
    CutoffSpec,
    Dims,
    Extension,
    GeometryData,
    GeometrySample,
    KernelExpr,
    NormalDirection,
    OrthBergman,
    Poly,
    Restriction,
    Symbol,
    QuadGrid,
    base_terms,
    c0,
    c1_c2,
    c3_c4,
    compose,
    dp3,
    flat_defect_checks,
    fock_indices,
    h_gp,
    laplacian_eigencheck,
    m_op,
    norm_estimate,
    oracle_compose,
    oracle_compose_values,
    primed_dim,
    toeplitz_leading,
    tower_dp3,
    unit_expr,
)
from fockcalc.oracle import _palette_points

from conftest import bidegrees, linear_symbol, random_kernel_expr, supported_kind_pairs

PI = math.pi

CHAINS = [
    (1, 1, 0),
    (2, 1, 1),
    (2, 2, 1),
    (3, 2, 1),
    (3, 3, 2),
    (2, 2, 0),
    (3, 1, 1),
    (1, 1, 1),
    (3, 3, 3),
    (2, 0, 0),
]


def report(num: int, tol, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS tol={tol} {detail}")


def far_eval_points(rng, kind1, kind2, count: int = 5):
    """Point pairs with each coordinate uniform in the disc |z| <= 4, far past the palette's 1.05."""

    def draw(d):
        return 4.0 * np.sqrt(rng.random(d)) * np.exp(2j * PI * rng.random(d))

    return [(draw(kind1.du), draw(kind2.dp)) for _ in range(count)]


def test_criterion_01_oracle_equivalence():
    # First pass on the default palette points, second on far points.
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    summary = []
    for far in (False, True):
        count, worst = 0, 0.0
        while count < 500:
            n, l, m = CHAINS[count // 10 % len(CHAINS)]
            for k1, k2 in supported_kind_pairs(n, l, m):
                rank = 1 + count % 2
                e1 = random_kernel_expr(rng, k1, fiber_rank=rank, max_deg=4)
                e2 = random_kernel_expr(rng, k2, fiber_rank=rank, max_deg=4)
                grid = QuadGrid(nodes_per_axis=24, n=primed_dim(e1.kind))
                points = far_eval_points(rng, k1, k2) if far else None
                rep = oracle_compose(e1, e2, grid=grid, eval_points=points, rel_tol=1e-9)
                worst = max(worst, rep.max_rel)
                assert rep.passed, f"{k1} o {k2} rank {rank} far={far}: rel={rep.max_rel:.2e} at point {rep.worst_point}"
                count += 1
        summary.append(f"{count} compositions {'|z| <= 4' if far else 'palette'}, worst rel {worst:.2e}")
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"battery took {elapsed:.1f}s"
    report(1, "1e-9 rel", f"{'; '.join(summary)}, {elapsed:.1f}s")


def test_criterion_02_base_case_goldens():
    one = Fraction(1)
    # rows are (dz, dzp, coef, p): coef * pi**(-p) * z^dz * zb'^dzp
    tangential = list(base_terms(1, 1, True, True))
    assert tangential == [(1, 1, one, 0), (0, 0, one, 1)]  # z zbar' + 1/pi
    normal = list(base_terms(1, 1, False, False))
    assert normal == [(0, 0, one, 1)]  # 1/pi
    assert all(isinstance(f, Fraction) for _, _, f, _ in tangential + normal)
    report(2, 0, "exact rational coefficients for both pairing base cases")


def test_criterion_03_degree_and_parity_laws():
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 1000:
        n, l, m = CHAINS[checked // 10 % len(CHAINS)]
        for k1, k2 in supported_kind_pairs(n, l, m):
            e1 = random_kernel_expr(rng, k1, max_deg=3)
            e2 = random_kernel_expr(rng, k2, max_deg=3)
            out = compose(e1, e2)
            d1, d2, d3 = e1.numerator.degree(), e2.numerator.degree(), out.numerator.degree()
            assert d3 <= d1 + d2, f"degree {d3} > {d1} + {d2}"
            p1, p2, p3 = e1.numerator.parity(), e2.numerator.parity(), out.numerator.parity()
            if p1 is not None and p2 is not None and p3 is not None:
                assert p3 == (p1 + p2) % 2, f"parity {p3} != {p1} + {p2} mod 2"
            checked += 1
    report(3, "exact", f"{checked} random pairs, degree bound and parity law")


def test_criterion_04_laplacian_spectrum():
    t0 = time.monotonic()
    count, worst = 0, 0.0
    for dim in (1, 2):
        indices = [tuple(ix) for ix in fock_indices(dim, 3)]
        for alpha, beta in itertools.product(indices, indices):
            rep = laplacian_eigencheck(alpha, beta)
            worst = max(worst, rep.max_rel)
            assert rep.passed and rep.max_rel <= 1e-9, f"alpha={alpha} beta={beta}: rel={rep.max_rel:.2e}"
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0, f"battery took {elapsed:.1f}s"
    report(4, "1e-9", f"{count} ladder states, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_flat_defects():
    records = flat_defect_checks(max_n=4)
    worst = max(rec.deviation for rec in records)
    assert worst <= 1e-12, f"worst deviation {worst:.2e}"
    assert len(records) == 50
    report(5, "1e-12", f"{len(records)} chain identities, worst deviation {worst:.2e}")


def test_criterion_06_h_squared_law():
    symbols = {
        "antihol": Symbol.monomial(1, 0, (0,), (1,)),
        "antihol-squared": Symbol.monomial(1, 0, (0,), (2,)),
        "mixed": Symbol.monomial(1, 0, (1,), (2,)),
    }
    worst_identity = 0.0
    for name, g in symbols.items():
        for p in (1.0, 4.0, 16.0):
            res = h_gp(g, p=p)
            worst_identity = max(worst_identity, res.max_abs_diff)
            assert res.max_abs_diff <= 1e-10, f"{name} p={p}: {res.max_abs_diff:.2e}"
    worst_bump = 0.0
    for name, g in symbols.items():
        res = h_gp(g, p=64.0, cutoff=CutoffSpec(r_perp=1.0))
        worst_bump = max(worst_bump, res.max_abs_diff)
        assert res.max_abs_diff <= 1e-6, f"{name} bump: {res.max_abs_diff:.2e}"
    report(
        6,
        "1e-10 / 1e-6",
        f"identity worst {worst_identity:.2e}, bump-vs-closed-form worst {worst_bump:.2e}",
    )


def test_criterion_07_norm_asymptotics():
    t0 = time.monotonic()
    op = m_op(Symbol.monomial(1, 0, (0,), (1,)), p=4.0)
    got = norm_estimate(op, basis_cutoff=12)
    want = 1.0 / (2.0 * math.sqrt(PI))
    err = abs(got - want)
    # the OrthBergman(3, 1) projector on its 286-element basis, pinned bit for bit
    projector = norm_estimate(unit_expr(OrthBergman(3, 1)), basis_cutoff=10)
    elapsed = time.monotonic() - t0
    assert err <= 1e-4, f"norm {got:.8f} vs {want:.8f}"
    assert projector == 1.0, f"OrthBergman(3,1) norm {projector!r} != 1.0"
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    report(
        7,
        "1e-4 / ==",
        f"norm {got:.8f} vs closed form {want:.8f} (err {err:.2e}), OrthBergman(3,1) {projector!r}, {elapsed:.1f}s",
    )


# -- criterion 8 machinery ---------------------------------------------------------


def _leading_kernel(family: str, g: Symbol) -> KernelExpr:
    """Predicted kernel built from the public dispatcher's leading value."""
    n, m, r = g.n, g.m, g.fiber_rank
    if family == "YY":
        value = toeplitz_leading("YY", g)
        dims = Dims(n=m, l=m, m=m, fiber_rank=r)
        return KernelExpr(Poly.constant(dims, value), Bergman(m))
    kind = f"{family}_even"  # parity reroute picks the real target
    value = toeplitz_leading(kind, g)
    if family == "XY":
        return KernelExpr(value.to_poly("unprimed"), Extension(n, m))
    return KernelExpr(value.to_poly("primed"), Restriction(n, m))


def _palette(kind1, kind2) -> list:
    """The oracle's default point pairs for a kind1 o kind2 composite."""
    return list(zip(*_palette_points(kind1.du, kind2.dp)))


def _numeric_composite(family: str, g: Symbol):
    """Quadrature values of the flat p = 1 operator chain at shared points."""
    n, m, r = g.n, g.m, g.fiber_rank
    bergman = unit_expr(Bergman(n), r)
    ext = unit_expr(Extension(n, m), r)
    res = unit_expr(Restriction(n, m), r)
    sandwich = compose(bergman, KernelExpr(g.to_poly("unprimed"), Bergman(n)))
    inner = compose(sandwich, ext)
    if family == "YY":
        pts = _palette(res.kind, inner.kind)
        vals = oracle_compose_values(res, inner, eval_points=pts)
    elif family == "XY":
        pts = _palette(bergman.kind, inner.kind)
        direct = oracle_compose_values(bergman, inner, eval_points=pts)
        reflected = oracle_compose_values(ext, compose(res, inner), eval_points=pts)
        vals = direct - reflected
    else:  # YX
        left = compose(res, sandwich)
        pts = _palette(left.kind, bergman.kind)
        direct = oracle_compose_values(left, bergman, eval_points=pts)
        reflected = oracle_compose_values(compose(left, ext), res, eval_points=pts)
        vals = direct - reflected
    return pts, vals


def _constant_coef_norm(e: KernelExpr) -> float:
    coef = e.numerator.terms.get((0,) * (4 * e.dims.n))
    return 0.0 if coef is None else float(np.max(np.abs(coef)))


def test_criterion_08_leading_term_table():
    """All ten leading-term table entries: the contraction each names against
    the flat p = 1 operator chain, composed in closed form up to its last
    step, which the oracle integrates.

    The contractions and ``compose`` take their Gaussian moments from one
    table, ``compose.base_terms``, so this compares compose's expansion with
    the contraction bookkeeping (which terms survive, with which exponents),
    not two moment formulas.  Criterion 1 (compose against the quadrature
    oracle) and the lambda quadratures still check the moment values
    independently.
    """
    entries_seen = set()
    worst = 0.0

    def check(family: str, g: Symbol, entries: tuple[int, ...], zero_order_entry=None):
        nonlocal worst
        predicted = _leading_kernel(family, g)
        pts, vals = _numeric_composite(family, g)
        Z = np.array([z for z, _ in pts]).reshape(len(pts), predicted.kind.du)
        Zp = np.array([zp for _, zp in pts]).reshape(len(pts), predicted.kind.dp)
        dev = float(np.max(np.abs(predicted.evaluate_batch(Z, Zp) - vals)))
        worst = max(worst, dev)
        assert dev <= 1e-8, f"{family} {bidegrees(g)}: {dev:.2e}"
        entries_seen.update(entries)
        if zero_order_entry is not None:
            assert _constant_coef_norm(predicted) == 0.0
            entries_seen.add(zero_order_entry)

    for n, m, max_deg in ((1, 0, 3), (2, 1, 2)):
        const = Symbol.monomial(n, m, (0,), (0,), coef=0.7 - 0.3j)
        check("YY", const, entries=(1,))  # constant symbol passes through
        check("XY", const, entries=(2,))  # and has no off-diagonal leading term
        check("YX", const, entries=(7,))
        for a in range(max_deg + 1):
            for b in range(max_deg + 1 - a):
                if (a, b) == (0, 0):
                    continue
                g = Symbol.monomial(n, m, (a,), (b,))
                check("YY", g, entries=(3,))
                if (a + b) % 2 == 0:
                    check("XY", g, entries=(4,))
                    check("YX", g, entries=(8,))
                else:
                    check("XY", g, entries=(6,), zero_order_entry=5)
                    check("YX", g, entries=(10,), zero_order_entry=9)

    assert entries_seen == set(range(1, 11)), f"missing entries: {set(range(1, 11)) - entries_seen}"
    report(8, "1e-8", f"all ten table entries vs quadrature, worst deviation {worst:.2e}")


def test_criterion_09_constants_goldens():
    worst = 0.0
    for s_raw in (16.0 * PI, 5.0):
        sample = GeometrySample(id="s", scal_X=s_raw, scal_Y=0.0)
        c3, c4 = c3_c4(GeometryData(dims=(0, 1), samples=(sample,)))
        worst = max(worst, abs(c3.value + s_raw / (16.0 * PI)), abs(c4.value - s_raw / (16.0 * PI)))
    sample = GeometrySample(
        id="y0",
        normal_dirs=(
            NormalDirection(id="d1", level="WY", d_scal_diff=8.0 * PI),
            NormalDirection(id="f1", level="XW", d_scal_diff=3.0),
        ),
    )
    data = GeometryData(dims=(0, 1, 2), samples=(sample,))
    worst = max(worst, abs(c0(data).value - 1.0 / math.sqrt(PI)))
    worst = max(worst, float(np.max(np.abs(dp3(data, {"f1": 1.0})))))
    lower = GeometrySample(id="low", normal_dirs=(NormalDirection(id="d1", level="WY", d_scal_diff=8.0 * PI),))
    upper = GeometrySample(id="up", normal_dirs=(NormalDirection(id="d2", level="WY", d_scal_diff=16.0 * PI),))
    single = tower_dp3((sample,), {"d1": 0.5})
    worst = max(worst, float(np.max(np.abs(single - dp3(data, {"d1": 0.5})))))
    telescoped = tower_dp3((lower, upper), {"d1": 1.0, "d2": 1.0})
    worst = max(worst, float(np.max(np.abs(telescoped - np.array([[3.0]])))))
    # c1_c2 and both model-operator norms of g_M = sum_d M_d wbar_d are the ends of
    # c0's bracket, a / sqrt(pi) and b / sqrt(pi): closed forms on both sides
    rng = np.random.default_rng(9)
    worst_rel = 0.0
    for D, r, m in ((1, 1, 0), (2, 2, 1), (3, 3, 1)):
        g, a, b = linear_symbol(rng.normal(size=(D, r, r)) + 1j * rng.normal(size=(D, r, r)), m)
        got = (*c1_c2(g), norm_estimate(m_op(g, 1.0), 3), norm_estimate(m_op(g, 1.0, variant="adjoint"), 3))
        worst_rel = max(worst_rel, *(abs(x - want) / want for x, want in zip(got, (a, b, a, b))))
    assert worst <= 1e-12, f"worst deviation {worst:.2e}"
    assert worst_rel <= 1e-12, f"worst c1_c2 / norm_estimate relative deviation {worst_rel:.2e}"
    report(
        9,
        "1e-12",
        f"C3/C4, C0, dp3 and tower goldens, worst deviation {worst:.2e}; "
        f"c1_c2 and m_op norms vs bracket ends, worst relative {worst_rel:.2e}",
    )


def test_criterion_10_restriction_extension_duality():
    rng = np.random.default_rng(1010)
    total, worst = 0, 0.0
    for n, m in ((1, 0), (2, 1), (3, 1), (4, 2)):
        pts = [
            (rng.normal(size=m) + 1j * rng.normal(size=m), rng.normal(size=n) + 1j * rng.normal(size=n))
            for _ in range(2500)
        ]
        zy, w = np.array([z for z, _ in pts]).reshape(2500, m), np.array([v for _, v in pts])
        lhs = unit_expr(Restriction(n, m)).evaluate_batch(zy, w)[:, 0, 0]
        rhs = np.conj(unit_expr(Extension(n, m)).evaluate_batch(w, zy)[:, 0, 0])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        total += len(lhs)
    assert total == 10_000
    assert worst <= 1e-12, f"worst deviation {worst:.2e}"
    report(10, "1e-12", f"{total} point pairs, worst deviation {worst:.2e}")
