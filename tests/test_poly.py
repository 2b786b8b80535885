"""Polynomial layer: ring structure, the adjoint swap, calculus helpers, JSON."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockcalc import (
    DEFAULT_DEGREE_CAP,
    DegreeOverflowError,
    Dims,
    Poly,
    VarId,
    O_Z,
    O_ZB,
    O_ZP,
    O_ZBP,
    parse_var_name,
    var_name,
    var_offset,
)

from conftest import complex_rows, dims_st, poly_st, term_sum

PI = math.pi


# -- Dims -------------------------------------------------------------------------


def test_dims_validation():
    with pytest.raises(ValueError):
        Dims(n=1, l=2, m=0)
    with pytest.raises(ValueError):
        Dims(n=2, l=1, m=2)
    with pytest.raises(ValueError):
        Dims(n=1, l=1, m=0, fiber_rank=0)
    d = Dims.of(3)
    assert (d.n, d.l, d.m, d.fiber_rank) == (3, 3, 3, 1)
    d = Dims.of(3, m=1)
    assert (d.n, d.l, d.m) == (3, 3, 1)


def test_dims_json_round_trip():
    d = Dims(n=3, l=2, m=1, fiber_rank=2)
    assert Dims.from_json_dict(d.to_json_dict()) == d
    with pytest.raises(ValueError):
        Dims.from_json_dict({"n": 1, "bogus": 2})


# -- variable naming ----------------------------------------------------------------


def test_var_names_round_trip():
    for i in (1, 2, 7):
        for o in range(4):
            assert parse_var_name(var_name(i, o)) == (i, o)
    assert var_name(2, O_ZBP) == "zb'2"
    assert VarId.from_name("zb'3") == VarId(slot="primed", kind="antiholomorphic", index=3)
    assert VarId(slot="unprimed", kind="holomorphic", index=1).o == O_Z
    assert VarId(slot="primed", kind="holomorphic", index=1).o == O_ZP


def test_var_name_errors():
    for bad in ("w1", "z0", "z-1", "zb", "z1x", ""):
        with pytest.raises(ValueError):
            parse_var_name(bad)
    with pytest.raises(ValueError):
        VarId(slot="middle", kind="holomorphic", index=1)
    with pytest.raises(ValueError):
        VarId(slot="primed", kind="holomorphic", index=0)


# -- construction and validation ----------------------------------------------------


def test_zero_pruning_and_is_zero():
    dims = Dims.of(1)
    p = Poly(dims, {(0, 0, 0, 0): 0.0})
    assert p.is_zero() and p.degree() == -1
    q = Poly.monomial(dims, {"z1": 1}, 1.0).add(Poly.monomial(dims, {"z1": 1}, -1.0))
    assert q.is_zero()


def test_bad_terms_rejected():
    dims = Dims.of(1)
    with pytest.raises(ValueError):
        Poly(dims, {(1, 0): 1.0})  # wrong exponent width
    with pytest.raises(ValueError):
        Poly(dims, {(-1, 0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        Poly(Dims.of(1, fiber_rank=2), {(0, 0, 0, 0): 1.0})  # scalar for rank 2
    with pytest.raises(ValueError):
        Poly(dims, {(0, 0, 0, 0): np.ones((2, 2))})  # rank mismatch
    with pytest.raises(ValueError):
        Poly.monomial(dims, {"z2": 1})  # index beyond n


@pytest.mark.parametrize("bad", [1.5, True, "1", math.inf])
def test_non_integer_exponents_rejected(bad):
    # the exponent used to be stored as int(bad), 1.5 as 1
    with pytest.raises(ValueError, match="exponent must be an integer"):
        Poly(Dims.of(1), {(bad, 0, 0, 0): 1.0})


def test_integral_float_and_numpy_exponents_accepted():
    want = Poly.monomial(Dims.of(1), {"z1": 2})
    for exps in [(2.0, 0, 0, 0), tuple(np.array([2, 0, 0, 0]))]:
        got = Poly(Dims.of(1), {exps: 1.0})
        assert got.exps.tolist() == [[2, 0, 0, 0]] and got.max_coef_diff(want) == 0.0


def test_non_finite_coefficients_rejected():
    dims = Dims.of(1)
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            Poly(dims, {(0, 0, 0, 0): bad})  # scalar path
        with pytest.raises(ValueError, match="non-finite"):
            Poly(dims, {(1, 0, 0, 0): [[1.0]], (0, 0, 0, 0): [[bad]]})  # stacked path
        with pytest.raises(ValueError, match="non-finite"):
            Poly.constant(Dims.of(1, fiber_rank=2), np.array([[1.0, 0.0], [bad, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        Poly.from_json_dict({"dims": {"n": 1}, "terms": [{"exps": {}, "coef": [[[math.nan, 0.0]]]}]})


def test_stored_coefficients_are_read_only_copies():
    dims = Dims.of(1, fiber_rank=2)
    src = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = Poly(dims, {(1, 0, 0, 0): src, (0, 0, 0, 0): [[0.0, 0.0], [0.0, -0.0]]})
    src[0, 0] = 99.0
    (key,) = p.terms  # the exact-zero term is pruned
    coef = p.terms[key]
    assert coef.dtype == complex and coef.shape == (2, 2) and coef[0, 0] == 1.0
    with pytest.raises(ValueError):
        coef[0, 0] = 5.0
    # fiber rank 1 accepts scalars, 1x1 matrices and a mix of both
    q = Poly(Dims.of(1), {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): [[3.0]], (0, 0, 0, 0): 0.0})
    assert {k: complex(v[0, 0]) for k, v in q.terms.items()} == {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): 3.0}


def test_monomial_and_constant():
    dims = Dims.of(2, fiber_rank=2)
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = Poly.constant(dims, c)
    assert np.array_equal(p.terms[tuple([0] * 8)], c)
    q = Poly.monomial(dims, {"z1": 2, "zb'2": 1}, np.eye(2))
    (key,) = q.terms
    assert key[var_offset(1, O_Z)] == 2 and key[var_offset(2, O_ZBP)] == 1
    assert Poly.one(dims).degree() == 0


# -- ring structure -------------------------------------------------------------------


@given(dims_st())
def test_add_identity_and_inverse(dims):
    z = Poly.zero(dims)
    p = Poly.one(dims)
    assert p.add(z).almost_equal(p)
    assert p.sub(p).is_zero()


@given(poly_st(), poly_st())
def test_add_commutes(a, b):
    if a.dims.n != b.dims.n or a.dims.fiber_rank != b.dims.fiber_rank:
        return
    assert a.add(b).almost_equal(b.add(a))


@given(poly_st(max_deg=2, max_terms=2))
def test_mul_unit_and_zero(p):
    one = Poly.one(p.dims)
    assert one.mul(p).almost_equal(p)
    assert p.mul(one).almost_equal(p)
    assert p.mul(Poly.zero(p.dims)).is_zero()


def test_mul_distributes_and_associates(rng):
    dims = Dims.of(2, fiber_rank=2)
    from conftest import random_poly

    for _ in range(10):
        a = random_poly(rng, dims, max_deg=2, n_terms=2)
        b = random_poly(rng, dims, max_deg=2, n_terms=2)
        c = random_poly(rng, dims, max_deg=2, n_terms=2)
        lhs = a.mul(b.add(c))
        rhs = a.mul(b).add(a.mul(c))
        assert lhs.max_coef_diff(rhs) < 1e-12
        assert a.mul(b).mul(c).max_coef_diff(a.mul(b.mul(c))) < 1e-10


def test_mul_respects_matrix_order():
    dims = Dims.of(1, fiber_rank=2)
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    pa, pb = Poly.constant(dims, A), Poly.constant(dims, B)
    ab = pa.mul(pb).terms[tuple([0] * 4)]
    ba = pb.mul(pa).terms[tuple([0] * 4)]
    assert np.array_equal(ab, A @ B)
    assert np.array_equal(ba, B @ A)
    assert not np.array_equal(ab, ba)


def test_degree_cap():
    dims = Dims.of(1)
    p = Poly.monomial(dims, {"z1": 9})
    with pytest.raises(DegreeOverflowError):
        p.mul(p)  # 18 > 16 default
    assert p.mul(p, degree_cap=20).degree() == 18
    assert DEFAULT_DEGREE_CAP == 16


# -- conjugate swap ---------------------------------------------------------------------


def test_conjugate_swap_golden():
    dims = Dims.of(1, fiber_rank=2)
    c = np.array([[1.0 + 1j, 2.0], [0.0, 1.0 - 2j]])
    p = Poly(dims, {(2, 1, 0, 3): c})
    q = p.conjugate_swap()
    (key,) = q.terms
    # z^2 zb^1 zb'^3 -> z^3 zb'^1 zb^0 z'^... offsets o -> 3 - o.
    assert key == (3, 0, 1, 2)
    assert np.array_equal(q.terms[key], c.conj().T)


@given(poly_st())
def test_conjugate_swap_involution(p):
    assert p.conjugate_swap().conjugate_swap().almost_equal(p)


def test_conjugate_swap_antihomomorphism(rng):
    dims = Dims.of(2, fiber_rank=2)
    from conftest import random_poly

    for _ in range(10):
        a = random_poly(rng, dims, max_deg=2, n_terms=2)
        b = random_poly(rng, dims, max_deg=2, n_terms=2)
        lhs = a.mul(b).conjugate_swap()
        rhs = b.conjugate_swap().mul(a.conjugate_swap())
        assert lhs.max_coef_diff(rhs) < 1e-12


# -- degree / parity ----------------------------------------------------------------------


def test_degree_and_parity():
    dims = Dims.of(1)
    assert Poly.zero(dims).parity() is None
    assert Poly.one(dims).parity() == 0
    assert Poly.monomial(dims, {"z1": 3}).parity() == 1
    mixed = Poly.one(dims).add(Poly.monomial(dims, {"z1": 1}))
    assert mixed.parity() is None
    assert mixed.degree() == 1


# -- calculus helpers -----------------------------------------------------------------------


def test_diff_times_var_set_zero_dilate():
    dims = Dims.of(1)
    p = Poly.monomial(dims, {"z1": 3, "zb1": 1}, 2.0)
    d = p.diff(1, O_Z)
    assert d.almost_equal(Poly.monomial(dims, {"z1": 2, "zb1": 1}, 6.0))
    assert p.diff(1, O_ZP).is_zero()
    t = p.times_var(1, O_ZBP, 2)
    assert t.almost_equal(Poly.monomial(dims, {"z1": 3, "zb1": 1, "zb'1": 2}, 2.0))
    assert p.set_var_zero(1, O_Z).is_zero()
    assert p.set_var_zero(1, O_ZP).almost_equal(p)
    s = p.dilate(2.0)
    assert s.almost_equal(Poly.monomial(dims, {"z1": 3, "zb1": 1}, 2.0 * 2.0**4))


def test_evaluate_matches_manual():
    dims = Dims.of(2, fiber_rank=1)
    p = Poly.monomial(dims, {"z1": 2, "zb2": 1, "z'1": 1}, 1.5)
    Z = np.array([0.3 + 0.4j, -0.2 + 0.1j])
    Zp = np.array([0.7 - 0.5j, 0.0])
    want = 1.5 * Z[0] ** 2 * np.conj(Z[1]) * Zp[0]
    got = p.evaluate(Z, Zp)[0, 0]
    assert abs(got - want) < 1e-14
    # short points are zero-padded
    assert abs(p.evaluate(Z, Zp[:1])[0, 0] - want) < 1e-14
    with pytest.raises(ValueError):
        p.evaluate(np.zeros(3), None)


@given(poly_st(), st.sampled_from([0, 1, 7]), st.data())
def test_evaluate_batch_matches_term_sum(p, count, data):
    X = data.draw(complex_rows(count, 4 * p.dims.n))
    got = p.evaluate_batch(X)
    r = p.dims.fiber_rank
    assert got.shape == (count, r, r)
    for row, x in zip(got, X):
        want, scale = term_sum(p, x)
        assert np.max(np.abs(row - want)) <= 1e-12 * (1.0 + scale)


@given(poly_st(), st.data())
def test_evaluate_pads_short_points(p, data):
    n = p.dims.n
    Z = data.draw(complex_rows(1, data.draw(st.integers(0, n))))[0]
    Zp = data.draw(complex_rows(1, data.draw(st.integers(0, n))))[0]
    z = np.concatenate([Z, np.zeros(n - len(Z))])
    zp = np.concatenate([Zp, np.zeros(n - len(Zp))])
    want, scale = term_sum(p, np.stack([z, z.conj(), zp, zp.conj()], axis=1).ravel())
    assert np.max(np.abs(p.evaluate(Z, Zp) - want)) <= 1e-12 * (1.0 + scale)


def test_evaluate_batch_zero_and_shape_errors():
    zero = Poly.zero(Dims.of(2, fiber_rank=2))
    assert np.array_equal(zero.evaluate_batch(np.ones((7, 8))), np.zeros((7, 2, 2)))
    assert zero.evaluate_batch(np.ones((0, 8))).shape == (0, 2, 2)
    assert np.array_equal(zero.evaluate([1.0, 2.0], None), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        zero.evaluate_batch(np.ones((3, 4)))
    with pytest.raises(ValueError):
        zero.evaluate_batch(np.ones(8))


def test_scale_matrix():
    dims = Dims.of(1, fiber_rank=2)
    p = Poly.constant(dims, np.array([[1.0, 0.0], [0.0, 2.0]]))
    L = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = p.scale_matrix(left=L)
    assert np.allclose(q.terms[tuple([0] * 4)], L @ np.diag([1.0, 2.0]))


# -- comparison and serialization --------------------------------------------------------------


def test_max_coef_diff():
    dims = Dims.of(1)
    a = Poly.monomial(dims, {"z1": 1}, 1.0)
    b = Poly.monomial(dims, {"z1": 1}, 1.0 + 3e-3).add(Poly.one(dims).scale(2e-3))
    assert abs(a.max_coef_diff(b) - 3e-3) < 1e-12
    with pytest.raises(ValueError):
        a.max_coef_diff(Poly.one(Dims.of(2)))


@given(poly_st())
def test_json_round_trip(p):
    q = Poly.from_json_dict(p.to_json_dict())
    assert q.dims == p.dims
    assert q.max_coef_diff(p) < 1e-15


def test_json_rejects_unknown_keys():
    p = Poly.one(Dims.of(1))
    d = p.to_json_dict()
    d["extra"] = 1
    with pytest.raises(ValueError):
        Poly.from_json_dict(d)
    d2 = p.to_json_dict()
    d2["terms"] = [{"exps": {}, "coef": [[[1.0, 0.0]]], "oops": 1}]
    with pytest.raises(ValueError):
        Poly.from_json_dict(d2)

