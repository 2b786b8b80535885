"""Normal symbols, Lambda contractions, model operators, leading-term table."""

import hashlib
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockcalc import (
    CutoffSpec,
    Dims,
    Extension,
    IDENTITY_CUTOFF,
    InsufficientNodesError,
    MOpField,
    Poly,
    Restriction,
    ScaledKernel,
    Symbol,
    TOEPLITZ_KINDS,
    c1_c2,
    flat_defect_checks,
    h_gp,
    lambda_a,
    lambda_a_quadrature,
    lambda_eq,
    lambda_eq_quadrature,
    lambda_h,
    lambda_h_quadrature,
    m_op,
    norm_estimate,
    toeplitz_flat_composite,
    toeplitz_leading,
    toeplitz_predicted_kernel,
    unit_expr,
)
from fockcalc import operators
from fockcalc.geometry import hermitian_eigs
from fockcalc.poly import _coef_to_json

from conftest import complex_rows, linear_symbol, random_symbol, term_sum

PI = math.pi


def _symbol_diff(a: Symbol, b: Symbol) -> float:
    return a.poly.max_coef_diff(b.poly)


# -- Symbol ------------------------------------------------------------------------


def test_symbol_construction_and_accessors():
    g = Symbol.monomial(3, 1, (2, 0), (0, 1), coef=2.0)
    assert (g.n, g.m, g.k, g.fiber_rank) == (3, 1, 2, 1)
    assert g.bidegrees() == [(2, 1)]
    assert g.degree() == 3
    assert g.parity() == 1
    assert not g.is_zero()
    z = Symbol.zero(2, 1)
    assert z.is_zero() and z.parity() is None and z.degree() == -1


def test_symbol_validation():
    with pytest.raises(ValueError, match="length"):
        Symbol.monomial(3, 1, (1,), (0, 0))
    with pytest.raises(ValueError, match="negative"):
        Symbol.monomial(2, 1, (-1,), (0,))
    dims = Dims.of(2, m=1)
    with pytest.raises(ValueError, match="tangential"):
        Symbol(dims, Poly.monomial(dims, {"z1": 1}))
    with pytest.raises(ValueError, match="primed"):
        Symbol(dims, Poly.monomial(dims, {"z'2": 1}))
    with pytest.raises(ValueError, match="dims"):
        Symbol(dims, Poly.one(Dims.of(2, m=0)))
    # a fractional or boolean exponent used to be stored as int(value)
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match="symbol exponent must be an integer"):
            Symbol.from_terms(1, 0, {((bad,), (0,)): 1.0})
    assert Symbol.from_terms(1, 0, {((2.0,), (0,)): 1.0}).terms().keys() == {((2,), (0,))}


def test_symbol_algebra():
    a = Symbol.monomial(1, 0, (1,), (0,))
    b = Symbol.monomial(1, 0, (0,), (1,), coef=3.0)
    s = a.add(b).scale(2.0)
    assert s.terms()[((1,), (0,))][0, 0] == 2.0
    assert s.terms()[((0,), (1,))][0, 0] == 6.0
    prod = a.mul(b)
    assert prod.bidegrees() == [(1, 1)]
    # matrix coefficients multiply left-to-right
    E01 = [[0.0, 1.0], [0.0, 0.0]]
    E10 = [[0.0, 0.0], [1.0, 0.0]]
    x = Symbol.monomial(1, 0, (1,), (0,), coef=E01, fiber_rank=2)
    y = Symbol.monomial(1, 0, (0,), (1,), coef=E10, fiber_rank=2)
    xy = x.mul(y).terms()[((1,), (1,))]
    yx = y.mul(x).terms()[((1,), (1,))]
    assert np.allclose(xy, [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(yx, [[0.0, 0.0], [0.0, 1.0]])


def test_symbol_adjoint():
    g = Symbol.monomial(1, 0, (2,), (1,), coef=[[1.0, 2.0j], [0.0, 1.0]], fiber_rank=2)
    ga = g.adjoint()
    assert ga.bidegrees() == [(1, 2)]
    assert np.allclose(ga.terms()[((1,), (2,))], [[1.0, 0.0], [-2.0j, 1.0]])
    assert _symbol_diff(ga.adjoint(), g) == 0.0
    h = Symbol.monomial(1, 0, (1,), (0,), coef=[[0, 1], [0, 0]], fiber_rank=2)
    assert _symbol_diff(g.mul(h).adjoint(), h.adjoint().mul(g.adjoint())) == 0.0


def test_symbol_evaluate():
    g = Symbol.monomial(2, 1, (2,), (1,), coef=2.0)
    w = 0.3 + 0.4j
    got = g.evaluate_batch([[w]], [[np.conj(w)]])[0, 0, 0]
    assert abs(got - 2.0 * w**2 * np.conj(w)) < 1e-15
    split = g.evaluate_split([w], [1.0 - 1.0j])[0, 0]
    assert abs(split - 2.0 * w**2 * (1.0 - 1.0j)) < 1e-15
    for hol, anti in (([w, w], [w, w]), ([[w, w]], [[w, w]]), ([[w]], [[w], [w]])):
        with pytest.raises(ValueError, match="normal point must have length 1"):
            g.evaluate_batch(hol, anti)
    with pytest.raises(ValueError, match="normal point must have length 1"):
        g.evaluate_split([w, w], [w, w])


@given(st.integers(1, 3), st.data())
def test_evaluate_split_matches_term_sum(n, data):
    m = data.draw(st.integers(0, n))
    rank = data.draw(st.sampled_from([1, 2]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    g = random_symbol(np.random.default_rng(seed), n, m, rank, max_deg=3 if m < n else 0)
    count = data.draw(st.sampled_from([0, 1, 7]))
    hol, anti = data.draw(complex_rows(count, n - m)), data.draw(complex_rows(count, n - m))
    batch = g.evaluate_batch(hol, anti)
    assert batch.shape == (count, rank, rank)
    for row, zh, za in zip(batch, hol, anti):
        zh_full = np.concatenate([np.zeros(m), zh])
        za_full = np.concatenate([np.zeros(m), za])
        x = np.stack([zh_full, za_full, 0 * zh_full, 0 * za_full], axis=1).ravel()
        want, scale = term_sum(g.poly, x)
        assert np.max(np.abs(row - want)) <= 1e-12 * (1.0 + scale)
        assert np.max(np.abs(g.evaluate_split(zh, za) - want)) <= 1e-12 * (1.0 + scale)


def test_symbol_to_poly_slots():
    g = Symbol.monomial(2, 1, (1,), (2,))
    unprimed = g.to_poly("unprimed")
    primed = g.to_poly("primed")
    w, wp = 0.2 + 0.1j, -0.5 + 0.3j
    # unprimed slot reads the unprimed normal coordinate of Z
    Z = np.array([[0.9, w]])
    vu = unprimed.evaluate_batch(Z, Z.conj(), 0.0, 0.0)[0, 0, 0]
    assert abs(vu - w * np.conj(w) ** 2) < 1e-15
    # primed slot reads the primed normal coordinate of Z'
    Zp = np.array([[0.9, wp]])
    vp = primed.evaluate_batch(0.0, 0.0, Zp, Zp.conj())[0, 0, 0]
    assert abs(vp - wp * np.conj(wp) ** 2) < 1e-15
    with pytest.raises(ValueError):
        g.to_poly("sideways")


def test_symbol_json_round_trip():
    g = Symbol.monomial(2, 1, (2,), (1,), coef=[[1.0, 1.0j], [0.0, 2.0]], fiber_rank=2)
    d = g.to_json_dict()
    assert set(d) == {"n", "m", "fiber_rank", "terms"}
    back = Symbol.from_json_dict(d)
    assert _symbol_diff(back, g) == 0.0
    with pytest.raises(ValueError, match="unknown symbol keys"):
        Symbol.from_json_dict({**d, "extra": 1})
    bad = {**d, "terms": [{**d["terms"][0], "note": "x"}]}
    with pytest.raises(ValueError, match="unknown symbol term keys"):
        Symbol.from_json_dict(bad)


def test_symbol_rejects_string_and_boolean_coefficients():
    # from_terms used to store "3" as 3
    for bad in ("3", True):
        with pytest.raises(ValueError, match="coefficient must be a number"):
            Symbol.from_terms(1, 0, {((1,), (0,)): bad})


def rotate_symbol(g: Symbol, U) -> Symbol:
    """A scalar symbol with w_i -> sum_j U[i, j] w_j and wbar_i -> sum_j conj(U[i, j]) wbar_j
    substituted, each term expanded as a product of linear forms."""
    k, none = g.k, (0,) * g.k
    units = [tuple(row) for row in np.eye(k, dtype=int).tolist()]
    hol = [Symbol.from_terms(g.n, g.m, {(u, none): U[i][j] for j, u in enumerate(units)}) for i in range(k)]
    anti = [Symbol.from_terms(g.n, g.m, {(none, u): np.conj(U[i][j]) for j, u in enumerate(units)}) for i in range(k)]
    out = Symbol.zero(g.n, g.m)
    for (a, b), coef in g.terms().items():
        term = Symbol.from_terms(g.n, g.m, {(none, none): coef})
        for form, power in zip(hol + anti, a + b):
            for _ in range(power):
                term = term.mul(form)
        out = out.add(term)
    return out


def test_rotate_symbol(rng):
    # unitary substitution: lambda_eq is invariant, lambda_h is equivariant
    theta = 0.7
    U = np.array(
        [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ],
        dtype=complex,
    )
    for _ in range(5):
        g = random_symbol(rng, 2, 0, max_deg=3)
        gU = rotate_symbol(g, U)
        assert np.max(np.abs(lambda_eq(gU) - lambda_eq(g))) < 1e-12
        lhs = lambda_h(gU)
        rhs = rotate_symbol(lambda_h(g), U)
        assert _symbol_diff(lhs, rhs) < 1e-12


def test_rotate_symbol_signed_permutation_is_exact():
    # w1 -> -w2, w2 -> w3, w3 -> w1 (and conjugates) maps each monomial to one
    # monomial, so every coefficient comes through to the bit
    U = np.array([[0, -1, 0], [0, 0, 1], [1, 0, 0]])
    g = Symbol.from_terms(
        4, 1, {((2, 0, 1), (0, 1, 1)): 1.5 - 0.25j, ((0, 1, 0), (3, 0, 0)): -0.75 + 2.0j, ((0, 0, 0), (0, 0, 0)): 3.0}
    )
    want = {((1, 2, 0), (1, 0, 1)): 1.5 - 0.25j, ((0, 0, 1), (0, 3, 0)): 0.75 - 2.0j, ((0, 0, 0), (0, 0, 0)): 3.0}
    got = rotate_symbol(g, U).terms()
    assert got.keys() == want.keys()
    for key, coef in want.items():
        assert got[key][0, 0] == coef
    assert rotate_symbol(Symbol.zero(4, 1), U).is_zero()


# A number each public operator function or constructor reads, as a call on the
# value and the start of the error it must raise.  Each once took a string or a
# boolean as a number (or failed with a TypeError), and a NaN scale of the zero
# symbol passed.
_G = Symbol.monomial(2, 1, (1,), (1,))
NUMBER_ARGUMENTS = {
    "CutoffSpec r_perp": (lambda v: CutoffSpec(r_perp=v), "r_perp must be"),
    "m_op p": (lambda v: m_op(_G, p=v), "p must be"),
    "h_gp p": (lambda v: h_gp(_G, p=v), "p must be"),
    "c1_c2 kappa": (lambda v: c1_c2(_G, kappa_samples=[1.0, v]), "kappa sample"),
    "Symbol.scale": (lambda v: _G.scale(v), "scalar must be"),
    "Symbol.scale of zero": (lambda v: Symbol.zero(2, 1).scale(v), "scalar must be"),
}


@pytest.mark.parametrize("value", ["4", True, math.nan])
@pytest.mark.parametrize("site", sorted(NUMBER_ARGUMENTS))
def test_number_arguments_reject_strings_booleans_and_nan(site, value):
    call, match = NUMBER_ARGUMENTS[site]
    with pytest.raises(ValueError, match=f"^{match}"):
        call(value)


# SHA-256 over the JSON of lambda_eq, lambda_h, lambda_a, adjoint and both
# to_poly slots of every symbol of ``_pinned_symbols``, in order, each
# polynomial with its exponent rows in store order (the order later products
# accumulate in).  Any change to a contraction weight, the accumulation or row
# order or the signed zeros changes it; no matrix product is involved, so it
# does not depend on the BLAS kernel.
PINNED_SYMBOL_SHA256 = "cf1500bcd308d78a77633fcb0e6a9fa920b76704161f157d3dd841fc819105b8"


def _pinned_symbols():
    """Seeded symbols for k = 0..3 normal variables, m in {0, 1}, fiber ranks 1
    and 2, one to five terms of exponents <= 2, every third with signed-zero
    coefficient entries."""
    rng = np.random.default_rng(20261018)
    case = 0
    for k in range(4):
        for m in (0, 1):
            for rank in (1, 2):
                for _ in range(12):
                    terms = {}
                    for _ in range(1 + case % 5):
                        hol = tuple(int(v) for v in rng.integers(0, 3, size=k))
                        anti = tuple(int(v) for v in rng.integers(0, 3, size=k))
                        coef = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
                        if case % 3 == 0:
                            coef[0, 0] = complex(-0.0, coef[0, 0].imag)
                            coef[-1, -1] = complex(coef[-1, -1].real, -0.0)
                        terms[(hol, anti)] = coef
                    case += 1
                    yield Symbol.from_terms(m + k, m, terms, rank)


def _fingerprint(x) -> list:
    if isinstance(x, np.ndarray):
        return _coef_to_json(x)
    poly = x.poly if isinstance(x, Symbol) else x
    return [x.to_json_dict(), poly.exps.tolist()]


def test_symbol_layer_output_bytes_are_pinned():
    h = hashlib.sha256()
    seen = set()
    for g in _pinned_symbols():
        outputs = [lambda_eq(g), lambda_h(g), lambda_a(g), g.adjoint(), g.to_poly("unprimed"), g.to_poly("primed")]
        h.update(json.dumps([_fingerprint(x) for x in outputs]).encode())
        seen.add((g.k, g.fiber_rank))
    assert seen == {(k, r) for k in range(4) for r in (1, 2)}
    assert h.hexdigest() == PINNED_SYMBOL_SHA256


# -- cutoff profiles ------------------------------------------------------------------


def test_cutoff_profile_values():
    c = CutoffSpec(r_perp=2.0)
    assert not c.is_identity
    plateaus = c.rho(np.array([0.0, 0.25, 0.5, 1.7]))
    assert plateaus.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert abs(c.rho(np.array([0.375]))[0] - math.exp(1.0 - 1.0 / (1.0 - 0.25))) < 1e-15
    arr = c.rho(np.array([0.1, 0.375, 0.9]))
    assert arr.shape == (3,)
    assert arr[0] == 1.0 and arr[2] == 0.0
    assert c.rho(np.zeros((2, 3))).shape == (2, 3)
    assert IDENTITY_CUTOFF.is_identity and IDENTITY_CUTOFF.rho(np.array([7.0])).tolist() == [1.0]


def test_cutoff_validation():
    with pytest.raises(ValueError):
        CutoffSpec(r_perp=0.0)
    with pytest.raises(ValueError):
        CutoffSpec(profile="hard_edge")


@pytest.mark.parametrize("r_perp", [math.nan, math.inf])
def test_cutoff_rejects_non_finite_radius(r_perp):
    with pytest.raises(ValueError, match="r_perp must be positive and finite"):
        CutoffSpec(r_perp=r_perp)


# -- Lambda contractions ---------------------------------------------------------------


def test_lambda_eq_goldens():
    g = Symbol.monomial(1, 0, (1,), (1,))
    assert abs(lambda_eq(g)[0, 0] - 1.0 / PI) < 1e-15
    assert np.max(np.abs(lambda_eq(Symbol.monomial(1, 0, (2,), (1,))))) == 0.0
    g2 = Symbol.monomial(2, 0, (2, 0), (2, 0))
    assert abs(lambda_eq(g2)[0, 0] - 2.0 / PI**2) < 1e-15
    const = Symbol.monomial(1, 0, (0,), (0,), coef=5.0)
    assert lambda_eq(const)[0, 0] == 5.0


def test_lambda_h_goldens():
    g = Symbol.monomial(1, 0, (2,), (1,))
    out = lambda_h(g)
    assert out.bidegrees() == [(1, 0)]
    assert abs(out.terms()[((1,), (0,))][0, 0] - 2.0 / PI) < 1e-15
    pure = lambda_h(Symbol.monomial(1, 0, (2,), (0,)))
    assert abs(pure.terms()[((2,), (0,))][0, 0] - 1.0) < 1e-15
    assert lambda_h(Symbol.monomial(1, 0, (1,), (1,))).is_zero()
    # antiholomorphic-dominant bidegrees are dropped entirely
    assert lambda_h(Symbol.monomial(1, 0, (1,), (2,))).is_zero()


def test_lambda_a_goldens():
    g = Symbol.monomial(1, 0, (1,), (2,))
    out = lambda_a(g)
    assert out.bidegrees() == [(0, 1)]
    assert abs(out.terms()[((0,), (1,))][0, 0] - 2.0 / PI) < 1e-15
    assert lambda_a(Symbol.monomial(1, 0, (2,), (1,))).is_zero()


def test_contraction_overflow_is_a_value_error():
    # 200! / pi^200 is about 3e275, but 200! itself does not fit a float; the
    # contraction used to end in an OverflowError from int to float
    g = Symbol.monomial(2, 1, (200,), (200,))
    for f in (lambda_eq, lambda_h, lambda_a, c1_c2, h_gp):
        with pytest.raises(ValueError, match=r"symbol term hol \[\d+\], antihol \[\d+\] overflows a float"):
            f(g)
    # a finite weight can still carry a coefficient beyond float range
    with pytest.raises(ValueError, match=r"hol \[151\], antihol \[150\] overflows a float"):
        lambda_h(Symbol.monomial(2, 1, (151,), (150,), coef=1e150))


def test_lambda_eq_sum_overflow_is_a_value_error():
    # each of the four w_i wbar_i terms contracts to 1.7e308 / pi, finite; their sum is not
    k = 4
    g = Symbol.from_terms(5, 1, {(e, e): 1.7e308 for e in (tuple(int(i == j) for j in range(k)) for i in range(k))})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(ValueError, match=r"^lambda_eq: the sum of 4 contracted symbol terms overflows a float$"):
            lambda_eq(g)


def test_lambda_duality(rng):
    for _ in range(6):
        g = random_symbol(rng, 2, 1, fiber_rank=2, max_deg=3)
        lhs = lambda_a(g)
        rhs = lambda_h(g.adjoint()).adjoint()
        assert _symbol_diff(lhs, rhs) < 1e-13
        eq_dual = lambda_eq(g.adjoint())
        assert np.max(np.abs(eq_dual - lambda_eq(g).conj().T)) < 1e-13


def test_lambda_quadrature_cross_checks(rng):
    g = random_symbol(rng, 2, 1, max_deg=3)
    assert np.max(np.abs(lambda_eq(g) - lambda_eq_quadrature(g))) < 1e-10
    z = np.array([0.4 - 0.2j])
    got_h = lambda_h_quadrature(g, z)
    want_h = lambda_h(g).evaluate_split(z, np.zeros(1))
    assert np.max(np.abs(got_h - want_h)) < 1e-10
    got_a = lambda_a_quadrature(g, z)
    want_a = lambda_a(g).evaluate_split(np.zeros(1), z)
    assert np.max(np.abs(got_a - want_a)) < 1e-10


def test_lambda_quadrature_rank_two():
    g = Symbol.monomial(2, 0, (1, 1), (0, 1), coef=[[1.0, 2.0], [0.5j, 0.0]], fiber_rank=2)
    z = np.array([0.3, -0.6j])
    got = lambda_h_quadrature(g, z, nodes=24)
    want = lambda_h(g).evaluate_split(z, np.zeros(2))
    assert np.max(np.abs(got - want)) < 1e-10


def _witness_values(g, z, nodes):
    return (lambda_eq_quadrature(g, nodes), lambda_h_quadrature(g, z, nodes), lambda_a_quadrature(g, z, nodes))


def _closed_form_values(g, z):
    zero = np.zeros(g.k)
    return (lambda_eq(g), lambda_h(g).evaluate_split(z, zero), lambda_a(g).evaluate_split(zero, z))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fiber_rank", [1, 2])
def test_lambda_witnesses_agree_with_the_closed_forms(k, fiber_rank):
    # degree 4 needs 3 nodes per axis; complex points, so a shift that lost its
    # imaginary part fails
    rng = np.random.default_rng(100 * k + fiber_rank)
    for m in (0, 1):
        for _ in range(4):
            g = random_symbol(rng, k + m, m, fiber_rank, max_deg=4, n_terms=5)
            z = rng.normal(size=k) + 1j * rng.normal(size=k)
            for got, want in zip(_witness_values(g, z, 6), _closed_form_values(g, z)):
                assert got.shape == (fiber_rank, fiber_rank)
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_lambda_witnesses_at_the_default_nodes_on_three_normal_variables():
    # 20 nodes on C^3 is a 20^6 = 64M-point tensor mesh; the witnesses used to
    # build it (1.5 GB of indices alone) and were killed for lack of memory
    rng = np.random.default_rng(5)
    g = random_symbol(rng, 4, 1, 2, max_deg=4, n_terms=6)
    z = np.array([0.3 - 0.2j, -0.5j, 0.7])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        got = _witness_values(g, z, 20)
        seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1.0 and peak < 16 * 2**20, (seconds, peak)
    for value, want in zip(got, _closed_form_values(g, z)):
        assert np.max(np.abs(value - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_lambda_witnesses_on_no_normal_variable_and_the_zero_symbol():
    # k = 0: the integral is the symbol's constant, and a shift has nothing to move
    coef = np.array([[1.0, 2.0j], [-0.5, 3.0]])
    g = Symbol.from_terms(2, 2, {((), ()): coef}, fiber_rank=2)
    assert np.array_equal(lambda_eq_quadrature(g, 4), coef)
    assert not lambda_h_quadrature(g, [], 4).any() and not lambda_a_quadrature(g, [], 4).any()
    for k in (1, 3):
        zero = Symbol.zero(k + 1, 1, fiber_rank=2)
        for value in _witness_values(zero, np.full(k, 0.5j), 20):
            assert value.shape == (2, 2) and not value.any()


def test_lambda_witnesses_refuse_a_grid_below_the_symbol_degree():
    # |w1|^6 |w2|^2 has real degree 6 in w1, past the 3 that 2 nodes integrate exactly:
    # lambda_eq_quadrature read 0.01027 there against lambda_eq's 0.06160
    g, z = Symbol.monomial(2, 0, (3, 1), (3, 1)), np.array([0.5, 0.0])
    for nodes in (2, 3):
        message = f"^{nodes} nodes per axis cannot integrate degree 6$"
        with pytest.raises(InsufficientNodesError, match=message):
            lambda_eq_quadrature(g, nodes)
        with pytest.raises(InsufficientNodesError, match=message):
            lambda_h_quadrature(g, z, nodes)
        with pytest.raises(InsufficientNodesError, match=message):
            lambda_a_quadrature(g, z, nodes)
    # 4 nodes are exact to degree 7
    for got, want in zip(_witness_values(g, z, 4), _closed_form_values(g, z)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_lambda_eq_positive_on_squares(rng):
    for _ in range(5):
        g = random_symbol(rng, 2, 0, fiber_rank=2, max_deg=2)
        mat = lambda_eq(g.adjoint().mul(g))
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        eigs = hermitian_eigs(mat)
        assert eigs[0] > -1e-12


# -- model operators ---------------------------------------------------------------------


def test_m_op_direct_golden():
    g = Symbol.monomial(1, 0, (0,), (1,))
    op = m_op(g, p=4.0)
    assert isinstance(op, ScaledKernel)
    assert op.p == 4.0 and op.prefactor == 1.0  # p^m with m = 0
    Z, none = np.array([[0.3 + 0.1j]]), np.zeros((1, 0))
    want = np.conj(2.0 * Z[0, 0]) * unit_expr(Extension(1, 0)).evaluate_batch(2.0 * Z, none)[0, 0, 0]
    assert abs(op.evaluate_batch(Z, none)[0, 0, 0] - want) < 1e-14


def test_m_op_adjoint_prefactor():
    g = Symbol.monomial(2, 1, (0,), (1,))
    direct = m_op(g, p=4.0)
    adj = m_op(g, p=4.0, variant="adjoint")
    assert direct.prefactor == 4.0  # p^m, m = 1
    assert adj.prefactor == 16.0  # p^n, n = 2
    assert adj.expr.kind == Restriction(2, 1)


def test_m_op_errors():
    g = Symbol.monomial(1, 0, (0,), (1,))
    with pytest.raises(ValueError):
        m_op(g, p=0.5)
    with pytest.raises(ValueError, match="variant"):
        m_op(g, p=2.0, variant="sideways")


def test_m_op_rejects_nan_level():
    with pytest.raises(ValueError, match="p must be finite"):
        m_op(Symbol.monomial(1, 0, (0,), (1,)), p=math.nan)


def test_m_op_bump_field():
    g = Symbol.monomial(2, 1, (1,), (0,))
    op = m_op(g, p=1.0, cutoff=CutoffSpec(r_perp=1.0))
    assert isinstance(op, MOpField)
    Z, Zp = np.array([[0.5, 0.1], [0.5, 0.9]]), np.array([[0.4], [0.4]])
    values = op.evaluate_batch(Z, Zp)
    base = op.base.evaluate_batch(Z, Zp)
    assert np.max(np.abs(values[0] - base[0])) < 1e-15  # |w| = 0.1 on the plateau
    assert np.max(np.abs(values[1])) == 0.0  # |w| = 0.9 cut off
    adj = m_op(g, p=1.0, cutoff=CutoffSpec(r_perp=1.0), variant="adjoint")
    # adjoint reads the normal radius off the primed argument
    assert np.max(np.abs(adj.evaluate_batch(Zp[1:], Z[1:]))) == 0.0
    with pytest.raises(ValueError, match="kernel expects"):
        op.evaluate_batch([0.5, 0.1], [0.4])


def test_m_op_field_takes_its_normal_side_from_the_kind():
    # the field had a normal_slot of its own, and MOpField(base, cutoff, "sideways") read the unprimed side
    op = m_op(Symbol.monomial(2, 1, (1,), (0,)), p=1.0, cutoff=CutoffSpec(r_perp=1.0))
    with pytest.raises(TypeError):
        MOpField(op.base, op.cutoff, "sideways")
    square = m_op(Symbol.monomial(1, 1, (), ()), p=1.0, cutoff=CutoffSpec(r_perp=1.0))  # n = m: no normal variable
    Z = np.array([[5.0]])
    assert np.array_equal(square.evaluate_batch(Z, Z), square.base.evaluate_batch(Z, Z))


def test_m_op_adjoint_identity(rng):
    # (adjoint-variant kernel).adjoint() == p^(n-m) * direct kernel of g*
    for n, m in ((1, 0), (2, 1), (3, 1)):
        g = random_symbol(rng, n, m, fiber_rank=2, max_deg=2)
        p = 4.0
        lhs = m_op(g, p=p, variant="adjoint").adjoint()
        rhs = m_op(g.adjoint(), p=p)
        pts = [
            (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=m) + 1j * rng.normal(size=m))
            for _ in range(6)
        ]
        Z, Zp = np.array([z for z, _ in pts]), np.array([zp for _, zp in pts]).reshape(6, m)
        a = lhs.evaluate_batch(Z, Zp)
        b = p ** (n - m) * rhs.evaluate_batch(Z, Zp)
        worst = float(np.max(np.abs(a - b)))
        assert worst < 1e-10, f"(n,m)=({n},{m}): {worst:.2e}"


# -- the h^2 fibre integral -----------------------------------------------------------


def test_h_gp_identity_goldens():
    g = Symbol.monomial(1, 0, (0,), (1,))
    res = h_gp(g, p=1.0)
    assert abs(res.h_sq[0, 0] - 1.0 / PI) < 1e-12
    assert res.max_abs_diff < 1e-12
    res4 = h_gp(g, p=4.0)
    assert abs(res4.leading[0, 0] - 1.0 / (4.0 * PI)) < 1e-15
    assert res4.max_abs_diff < 1e-12


def test_h_gp_identity_matches_contraction(rng):
    for n, m in ((1, 0), (2, 0), (2, 1)):
        g = random_symbol(rng, n, m, max_deg=2)
        res = h_gp(g, p=2.0)
        assert res.max_abs_diff < 1e-12, f"(n,m)=({n},{m}): {res.max_abs_diff:.2e}"


def test_h_gp_bump_below_identity():
    g = Symbol.monomial(1, 0, (0,), (1,))
    ident = h_gp(g, p=4.0)
    bump = h_gp(g, p=4.0, cutoff=CutoffSpec(r_perp=1.0))
    assert 0.0 < bump.h_sq[0, 0].real < ident.h_sq[0, 0].real
    # at large p the bump misses almost nothing
    tight = h_gp(g, p=64.0, cutoff=CutoffSpec(r_perp=1.0))
    assert tight.max_abs_diff < 1e-6


def test_h_gp_constant_symbol():
    g = Symbol.monomial(2, 2, (), (), coef=2.0)
    res = h_gp(g, p=4.0)
    assert res.h_sq[0, 0] == 4.0 and res.max_abs_diff == 0.0


@pytest.mark.parametrize("cutoff", [IDENTITY_CUTOFF, CutoffSpec(r_perp=1.0)])
def test_h_gp_without_a_diagonal_degree_is_zero(cutoff):
    # g = 0 leaves g* g no diagonal bidegree, so no radial moment is taken
    for g in (Symbol.zero(2, 0), Symbol.zero(3, 1, fiber_rank=2)):
        res = h_gp(g, p=4.0, cutoff=cutoff)
        r = g.fiber_rank
        assert np.array_equal(res.h_sq, np.zeros((r, r))) and np.array_equal(res.leading, np.zeros((r, r)))
    assert operators._radial_moments(set(), 2.0, cutoff) == {}


def test_identity_radial_moments_are_the_gamma_integral(monkeypatch):
    # int_0^inf e^{-pi r^2} r^(2N+1) 2 dr = N!/pi^(N+1).  The bound, set from the rule's
    # error before the run: cutting the integral at sqrt((2N + 80)/pi) drops under
    # e^{-60} of it for N <= 20, and 160 Legendre nodes per piece leave no visible
    # error on an entire integrand.  What is left is rounding over positive summands:
    # a node off by 3 eps relative moves its summand by (2N + 1 + 2 pi r^2) 3 eps, at
    # most 840 eps at r^2 = (2N + 80)/pi, and exp, the power, five products and the
    # pairwise sums add under 20 eps; the Legendre nodes and weights numpy returns may
    # err as much again.  So 2 * 860 eps ~ 3.8e-13, rounded up to 1e-12.
    Ns = set(range(21))
    moments = operators._radial_moments(Ns, 1.0, IDENTITY_CUTOFF)
    for N in Ns:
        exact = math.factorial(N) / PI ** (N + 1)
        assert abs(moments[N] - exact) <= 1e-12 * exact, (N, moments[N], exact)
    # the moments come from the Legendre rule, not a closed form: criterion 6 checks
    # the Dirichlet constant through this quadrature, and doubled weights double it
    x, w = operators._gl_rule()
    monkeypatch.setattr(operators, "_gl_rule", lambda: (x, 2.0 * w))
    assert operators._radial_moments(Ns, 1.0, IDENTITY_CUTOFF) == {N: 2.0 * v for N, v in moments.items()}


def test_h_gp_errors():
    g = Symbol.monomial(1, 0, (0,), (1,))
    with pytest.raises(ValueError):
        h_gp(g, p=0.25)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_h_gp_rejects_non_finite_level(p):
    with pytest.raises(ValueError, match="p must be finite"):
        h_gp(Symbol.monomial(1, 0, (0,), (1,)), p=p)


def test_h_gp_refuses_an_overflowing_radial_moment():
    # r^(2N+1) passes 1e308 before the Gaussian weight brings it down: N = 150 used to
    # return a nan h_sq, with a RuntimeWarning, next to a finite leading 1.53e188
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radial moment of degree 150 overflows"):
            h_gp(Symbol.monomial(1, 0, (0,), (150,)))
        res = h_gp(Symbol.monomial(1, 0, (0,), (140,)))
    assert res.h_sq.tobytes() == np.array([[3.3738658587470234e171]], dtype=complex).tobytes()
    assert res.leading.tobytes() == np.array([[3.3738658587470075e171]], dtype=complex).tobytes()


def test_gl_rule_is_built_once_per_node_count(monkeypatch):
    builds = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(nodes):
        builds.append(nodes)
        return leggauss(nodes)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    operators._gl_rule.cache_clear()
    g = Symbol.monomial(2, 0, (1, 0), (2, 1)).add(Symbol.monomial(2, 0, (0, 0), (0, 3)))
    for cutoff in (None, CutoffSpec(r_perp=1.0)):
        for p in (1.0, 4.0, 64.0):
            h_gp(g, p=p, cutoff=cutoff)
    operators._gl_rule.cache_clear()
    assert builds == [160]


def test_gl_rule_arrays_are_read_only():
    x, w = operators._gl_rule()
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("cutoff", [IDENTITY_CUTOFF, CutoffSpec(r_perp=1.0)])
def test_h_gp_cached_rule_is_bit_identical(monkeypatch, cutoff):
    terms = {((1, 0), (1, 2)): [[1.0, 2.0j], [0.5, -1.0]], ((0, 2), (0, 0)): 3.0 * np.eye(2)}
    g = Symbol.from_terms(2, 0, terms, fiber_rank=2)
    cached = [h_gp(g, p=p, cutoff=cutoff) for p in (1.0, 8.0)]
    cached += [h_gp(g, p=p, cutoff=cutoff) for p in (1.0, 8.0)]  # cache hits
    monkeypatch.setattr(operators, "_gl_rule", lambda: np.polynomial.legendre.leggauss(160))
    fresh = [h_gp(g, p=p, cutoff=cutoff) for p in (1.0, 8.0)] * 2
    for got, want in zip(cached, fresh):
        assert np.array_equal(got.h_sq, want.h_sq)
        assert np.array_equal(got.leading, want.leading)


# SHA-256 over the JSON of h_sq and leading of h_gp for every symbol of
# ``_pinned_symbols`` with k >= 1, under the identity cutoff at p = 1 and 4 and
# the bump at p = 64.  It pins the radial moments' node layout and summation
# order bit for bit.  g* g is a Poly.mul product, whose coefficient products
# run through BLAS, so like PINNED_OUTPUT_SHA256 it holds for one BLAS kernel.
PINNED_HGP_SHA256 = "8e3c34ca4cd1d586853a625955e755c334e42128d5bbd65beee80e1b5a0bfeb7"


def test_h_gp_output_bytes_are_pinned():
    h = hashlib.sha256()
    calls = 0
    for g in _pinned_symbols():
        if g.k == 0:
            continue
        for p, cutoff in ((1.0, IDENTITY_CUTOFF), (4.0, IDENTITY_CUTOFF), (64.0, CutoffSpec(r_perp=1.0))):
            res = h_gp(g, p=p, cutoff=cutoff)
            h.update(json.dumps([_coef_to_json(res.h_sq), _coef_to_json(res.leading)]).encode())
            calls += 1
    assert calls == 432
    assert h.hexdigest() == PINNED_HGP_SHA256


# -- norm constants ----------------------------------------------------------------------


def test_c1_c2():
    g = Symbol.monomial(1, 0, (0,), (1,))
    c1, c2 = c1_c2(g)
    assert abs(c1 - 1.0 / math.sqrt(PI)) < 1e-12
    assert abs(c2 - 1.0 / math.sqrt(PI)) < 1e-12
    c1b, _ = c1_c2(g.scale(2.0))
    assert abs(c1b - 2.0 / math.sqrt(PI)) < 1e-12
    c1k, c2k = c1_c2(g, kappa_samples=[1.0, 4.0])
    assert abs(c1k - 2.0 / math.sqrt(PI)) < 1e-12
    assert abs(c2k - 1.0 / math.sqrt(PI)) < 1e-12
    with pytest.raises(ValueError):
        c1_c2(g, kappa_samples=[])
    with pytest.raises(ValueError):
        c1_c2(g, kappa_samples=[-1.0])


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_linear_symbol_norms_are_the_bracket_ends(D, r, m, seed):
    # a closed form against closed forms, no quadrature: for g_M = sum_d M_d wbar_d,
    # c1_c2 contracts the symbol and norm_estimate composes and pairs the model
    # operator's Gram kernel; both read the ends of c0's bracket
    rng = np.random.default_rng(seed)
    g, a, b = linear_symbol(rng.normal(size=(D, r, r)) + 1j * rng.normal(size=(D, r, r)), m)
    c1, c2 = c1_c2(g)
    direct = norm_estimate(m_op(g, 1.0), 3)
    adjoint = norm_estimate(m_op(g, 1.0, variant="adjoint"), 3)
    for got, want in ((c1, a), (c2, b), (direct, a), (adjoint, b)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


def test_fibre_integrals_take_symbols_beyond_the_default_cap():
    # g* g of w^5 wbar^4 has degree 18 > DEFAULT_DEGREE_CAP = 16; h_gp and
    # c1_c2 used to raise DegreeOverflowError on it
    g = Symbol.monomial(1, 0, (5,), (4,))
    want = math.factorial(9) / PI**9  # lambda_eq(|w|^18)
    res = h_gp(g)
    assert abs(res.leading[0, 0] - want) <= 1e-13 * want
    assert res.max_abs_diff <= 1e-12 * want
    c1, c2 = c1_c2(g)
    assert math.isclose(c1, math.sqrt(want), rel_tol=1e-13)
    assert math.isclose(c2, math.sqrt(want), rel_tol=1e-13)


def test_c1_c2_rejects_nan_kappa():
    with pytest.raises(ValueError, match="positive and finite"):
        c1_c2(Symbol.monomial(1, 0, (0,), (1,)), kappa_samples=[math.nan])


# -- leading-term dispatch ------------------------------------------------------------


def test_toeplitz_leading_dispatch():
    even = Symbol.monomial(1, 0, (1,), (1,))
    odd = Symbol.monomial(1, 0, (2,), (1,))
    yy = toeplitz_leading("YY", even)
    assert abs(yy[0, 0] - 1.0 / PI) < 1e-15
    # parity reroute: an odd symbol fed to the even kind lands on the odd one
    out = toeplitz_leading("XY_even", odd)
    assert out.bidegrees() == [(1, 0)]
    out2 = toeplitz_leading("YX_odd", even.mul(even))
    assert out2.is_zero() or all(a == b for a, b in out2.bidegrees())
    mixed = even.add(odd)
    with pytest.raises(ValueError, match="mixed parity"):
        toeplitz_leading("XY_even", mixed)
    with pytest.raises(ValueError, match="unknown kind"):
        toeplitz_leading("XX", even)
    assert "YY" in TOEPLITZ_KINDS and len(TOEPLITZ_KINDS) == 5


def test_toeplitz_odd_kinds_have_no_constant_term():
    for hol, antihol in (((1,), (0,)), ((2,), (1,)), ((3,), (0,))):
        g = Symbol.monomial(2, 1, hol, antihol)
        out = toeplitz_leading("XY_odd", g)
        zero_key = ((0,), (0,))
        assert zero_key not in out.terms()
        out_a = toeplitz_leading("YX_odd", g.adjoint())
        assert zero_key not in out_a.terms()


def _composite_matches_prediction(family: str, g: Symbol) -> float:
    got = toeplitz_flat_composite(family, g)
    want = toeplitz_predicted_kernel(family, g)
    assert got.kind == want.kind
    return got.numerator.max_coef_diff(want.numerator)


def test_toeplitz_composites_match_predictions():
    worst = 0.0
    for n, m in ((1, 0), (2, 1)):
        for a in range(4):
            for b in range(4 - a):
                g = Symbol.monomial(n, m, (a,), (b,))
                for family in ("YY", "XY", "YX"):
                    worst = max(worst, _composite_matches_prediction(family, g))
    assert worst < 1e-12, f"worst deviation {worst:.2e}"


def test_toeplitz_composites_rank_two():
    g = Symbol.monomial(1, 0, (2,), (1,), coef=[[1.0, 2.0j], [0.0, -1.0]], fiber_rank=2)
    for family in ("YY", "XY", "YX"):
        assert _composite_matches_prediction(family, g) < 1e-12
    with pytest.raises(ValueError, match="unknown family"):
        toeplitz_flat_composite("ZZ", g)
    with pytest.raises(ValueError, match="unknown family"):
        toeplitz_predicted_kernel("ZZ", g)


# -- flat defect identities ------------------------------------------------------------


def test_flat_defects_vanish():
    records = flat_defect_checks(max_n=3)
    assert len(records) == 30
    assert all(r.deviation == 0.0 for r in records)
    names = {r.name for r in records}
    assert len(names) == 2


def test_flat_defect_record_shape():
    records = flat_defect_checks(max_n=2)
    trans = next(r for r in records if r.l is not None)
    d = trans.to_json_dict()
    assert set(d) == {"name", "n", "m", "deviation", "l"}
    adj = next(r for r in records if r.l is None)
    assert set(adj.to_json_dict()) == {"name", "n", "m", "deviation"}


def test_flat_defect_checks_needs_a_chain():
    # max_n < 0 used to return no records, which a caller reads as "no defect"
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        flat_defect_checks(max_n=-1)
    assert [(r.name, r.n, r.m) for r in flat_defect_checks(max_n=0)] == [
        ("transitivity", 0, 0),
        ("adjoint_extension", 0, 0),
    ]


@pytest.mark.parametrize("max_n", [True, 1.5, "1"])
def test_flat_defect_checks_reads_max_n_as_an_integer(max_n):
    # max_n=True used to run as max_n=1 and return 7 records; 1.5 raised a TypeError
    with pytest.raises(ValueError, match="^max_n must be an integer"):
        flat_defect_checks(max_n=max_n)
