"""Polynomial layer: ring structure, the adjoint swap, calculus helpers, JSON."""

import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockcalc import DEFAULT_DEGREE_CAP, DegreeOverflowError, Dims, Poly
from fockcalc.poly import _O_Z, _O_ZBP, _parse_var_name, _var_name, _var_offset

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


def test_dims_of_takes_no_middle_dimension():
    # l is n for every caller; only the constructor and the loader take an l.  A third
    # positional argument, once l, is refused rather than read as the fiber rank
    assert inspect.signature(Dims.of).parameters.keys() == {"n", "m", "fiber_rank"}
    assert Dims.of(3, 1, fiber_rank=2) == Dims(n=3, l=3, m=1, fiber_rank=2)
    with pytest.raises(TypeError):
        Dims.of(3, 1, 2)


def test_dims_of_rejects_a_fractional_dimension():
    with pytest.raises(ValueError, match="dims n must be an integer"):
        Dims.of(1.5)


def test_dims_rejects_boolean_fields():
    with pytest.raises(ValueError, match="dims n must be an integer"):
        Dims(n=True, l=True, m=0)
    d = Dims(n=2.0, l=2, m=1, fiber_rank=2.0)  # integral floats are read as ints, like the loader
    assert (type(d.n), type(d.fiber_rank)) == (int, int) and d == Dims.of(2, m=1, fiber_rank=2)


def test_dims_json_round_trip():
    d = Dims(n=3, l=2, m=1, fiber_rank=2)
    assert Dims.from_json_dict(d.to_json_dict()) == d
    with pytest.raises(ValueError):
        Dims.from_json_dict({"n": 1, "bogus": 2})


@pytest.mark.parametrize("field", ["l", "m", "fiber_rank"])
def test_dims_loader_names_each_field(field):
    # the loader hands its fields to the constructor, which reads and names them
    with pytest.raises(ValueError, match=f"^dims {field} must be an integer, got 1.5$"):
        Dims.from_json_dict({"n": 2, "l": 2, "m": 1, field: 1.5})


# -- variable naming ----------------------------------------------------------------


def test_var_names_round_trip():
    for i in (1, 2, 7):
        for o in range(4):
            assert _parse_var_name(_var_name(i, o)) == (i, o)
    assert _var_name(2, _O_ZBP) == "zb'2"


def test_var_name_errors():
    for bad in ("w1", "z0", "z-1", "zb", "z1x", ""):
        with pytest.raises(ValueError):
            _parse_var_name(bad)


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
    # the exponent used to be stored as int(bad), 1.5 as 1, by both constructors
    with pytest.raises(ValueError, match="exponent must be an integer"):
        Poly(Dims.of(1), {(bad, 0, 0, 0): 1.0})
    with pytest.raises(ValueError, match="exponent of z1 must be an integer"):
        Poly.monomial(Dims.of(1), {"z1": bad})


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


@pytest.mark.parametrize(
    "bad",
    ["1", True, "2+1j", np.True_, np.array(True), np.array("1"), np.array(True, dtype=object), np.array("1", dtype=object)],
)
def test_string_and_boolean_coefficients_rejected(bad):
    # each used to be stored as a number: "1" and True as 1, "2+1j" as 2+1j
    dims = Dims.of(1)
    match = "coefficient must be a number or a matrix of numbers"
    with pytest.raises(ValueError, match=match):
        Poly(dims, {(0, 0, 0, 0): bad})  # scalar path
    with pytest.raises(ValueError, match=match):
        Poly(dims, {(1, 0, 0, 0): 1.0, (0, 0, 0, 0): bad})  # stacked path
    with pytest.raises(ValueError, match=match):
        Poly(dims, {(1, 0, 0, 0): [[1.0]], (0, 0, 0, 0): [[bad]]})  # stacked matrices
    with pytest.raises(ValueError, match=match):
        Poly(Dims.of(1, fiber_rank=2), {(0, 0, 0, 0): [[1.0, 0.0], [bad, 1.0]]})  # one cell of a matrix
    with pytest.raises(ValueError, match=match):
        Poly.monomial(dims, {"z1": 1}, bad)


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
    assert key[_var_offset(1, _O_Z)] == 2 and key[_var_offset(2, _O_ZBP)] == 1
    assert Poly.one(dims).degree() == 0


@pytest.mark.parametrize(
    "powers, message",
    [
        ({"z3": 1}, "^variable z3 exceeds n=2$"),
        ({"z1": -1}, "^negative exponent for z1$"),
        ({"q1": 1}, "^bad variable name 'q1'$"),
        ({"z0": 1}, "^bad variable index in 'z0'$"),
        ({"z1": 2**62, "z01": 2**62}, "^exponent out of range$"),
    ],
    ids=["beyond-n", "negative", "bad-name", "bad-index", "past-int64"],
)
def test_monomial_and_json_read_exponent_maps_alike(powers, message):
    dims = Dims.of(2)
    with pytest.raises(ValueError, match=message):
        Poly.monomial(dims, powers)
    with pytest.raises(ValueError, match=message):
        Poly.from_json_dict({"dims": dims.to_json_dict(), "terms": [{"exps": powers, "coef": [[[1.0, 0.0]]]}]})


@settings(max_examples=60)
@given(dims_st(max_n=3, max_rank=2), st.data())
def test_monomial_is_the_one_term_mapping(dims, data):
    # the array path stores the same bytes as the mapping constructor
    names = [_var_name(i, o) for i in range(1, dims.n + 1) for o in range(4)]
    powers = data.draw(st.dictionaries(st.sampled_from(names), st.integers(0, 5), max_size=4))
    coef = data.draw(complex_rows(dims.fiber_rank, dims.fiber_rank))
    row = [0] * (4 * dims.n)
    for name, power in powers.items():
        row[_var_offset(*_parse_var_name(name))] = power
    got, want = Poly.monomial(dims, powers, coef), Poly(dims, {tuple(row): coef})
    assert got.exps.dtype == want.exps.dtype and got.exps.shape == want.exps.shape
    assert got.exps.tobytes() == want.exps.tobytes() and got.coefs.tobytes() == want.coefs.tobytes()


# -- ring structure -------------------------------------------------------------------


@given(dims_st())
def test_add_identity_and_inverse(dims):
    z = Poly.zero(dims)
    p = Poly.one(dims)
    assert p.add(z).max_coef_diff(p) <= 1e-12
    assert p.add(p.scale(-1.0)).is_zero()


@given(poly_st(), poly_st())
def test_add_commutes(a, b):
    if a.dims.n != b.dims.n or a.dims.fiber_rank != b.dims.fiber_rank:
        return
    assert a.add(b).max_coef_diff(b.add(a)) <= 1e-12


@given(poly_st(max_deg=2, max_terms=2))
def test_mul_unit_and_zero(p):
    one = Poly.one(p.dims)
    assert one.mul(p).max_coef_diff(p) <= 1e-12
    assert p.mul(one).max_coef_diff(p) <= 1e-12
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
    assert p.conjugate_swap().conjugate_swap().max_coef_diff(p) <= 1e-12


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


# -- evaluation ---------------------------------------------------------------------------


def test_evaluate_matches_manual():
    dims = Dims.of(2, fiber_rank=1)
    p = Poly.monomial(dims, {"z1": 2, "zb2": 1, "z'1": 1}, 1.5)
    Z = np.array([[0.3 + 0.4j, -0.2 + 0.1j]])
    Zp = np.array([[0.7 - 0.5j, 0.0]])
    want = 1.5 * Z[0, 0] ** 2 * np.conj(Z[0, 1]) * Zp[0, 0]
    got = p.evaluate_batch(Z, Z.conj(), Zp, Zp.conj())[0, 0, 0]
    assert abs(got - want) < 1e-14
    # short points are zero-padded
    short = Zp[:, :1]
    assert abs(p.evaluate_batch(Z, Z.conj(), short, short.conj())[0, 0, 0] - want) < 1e-14
    with pytest.raises(ValueError):
        p.evaluate_batch(np.zeros((1, 3)), 0.0, 0.0, 0.0)


@given(poly_st(), st.sampled_from([0, 1, 7]), st.data())
def test_evaluate_batch_matches_term_sum(p, count, data):
    X = data.draw(complex_rows(count, 4 * p.dims.n))
    got = p.evaluate_batch(*X.reshape(count, p.dims.n, 4).transpose(2, 0, 1))
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
    got = p.evaluate_batch(Z[None], Z[None].conj(), Zp[None], Zp[None].conj())
    assert np.max(np.abs(got[0] - want)) <= 1e-12 * (1.0 + scale)


def test_evaluate_batch_zero_and_shape_errors():
    zero = Poly.zero(Dims.of(2, fiber_rank=2))
    assert np.array_equal(zero.evaluate_batch(*np.ones((4, 7, 2))), np.zeros((7, 2, 2)))
    assert zero.evaluate_batch(*np.ones((4, 0, 2))).shape == (0, 2, 2)
    one_point = np.array([[1.0, 2.0]])
    assert np.array_equal(zero.evaluate_batch(one_point, one_point, 0.0, 0.0), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="^z have shape"):
        zero.evaluate_batch(np.ones((3, 4)), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^zb have shape"):
        zero.evaluate_batch(0.0, np.ones(8), 0.0, 0.0)
    with pytest.raises(ValueError, match="^zbp have shape"):
        zero.evaluate_batch(np.ones((3, 2)), 0.0, 0.0, np.ones((2, 2)))
    with pytest.raises(ValueError, match="at least one slot"):
        zero.evaluate_batch(0.0, 0.0, 0.0, 0.0)


def test_evaluate_batch_rejects_rows_of_several_widths():
    # numpy cannot hold the two point arrays even as objects
    with pytest.raises(ValueError, match=r"^z have shape \(2,\), need \(N, d\)$"):
        Poly.one(Dims.of(2)).evaluate_batch([np.zeros((2, 2)), np.zeros((2, 3))], 0, 0, 0)


def test_scale_by_an_int_past_float_range_is_refused():
    with pytest.raises(ValueError, match="^scalar must be finite"):
        Poly.one(Dims.of(1)).scale(10**400)


_HUGE = Poly.constant(Dims.of(1), 1e200)
_TOP = Poly.constant(Dims.of(1), 1.7e308)


@pytest.mark.parametrize(
    "call",
    [lambda: _HUGE.mul(_HUGE), lambda: _HUGE.scale(1e200), lambda: _TOP.add(_TOP)],
    ids=["mul", "scale", "add"],
)
def test_an_overflowing_product_is_refused_without_a_warning(call):
    # numpy's overflow warning (an error under this suite's filter) used to come first
    with pytest.raises(ValueError, match="^non-finite coefficient$"):
        call()


def test_max_coef_diff_past_float_range_is_inf_without_a_warning():
    assert _TOP.max_coef_diff(_TOP.scale(-1.0)) == math.inf


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



# Payloads whose terms repeat exponents: a pair that cancels to an exact zero
# (and is pruned), a pair whose real part sums to -0.0 (only ``[-0.0, -0.0]``
# loads with a negative real zero), three-way sums whose value depends on the
# order, and single terms between them.
DUPLICATE_KERNEL = {
    "dims": {"n": 1, "l": 1, "m": 1, "fiber_rank": 1},
    "kind": "Bergman",
    "terms": [
        {"exps": {"z1": 1}, "coef": [[[1.5, -0.25]]]},
        {"exps": {"zb1": 2}, "coef": [[[-0.0, 2.0]]]},
        {"exps": {}, "coef": [[[0.1, 0.2]]]},
        {"exps": {"z1": 1}, "coef": [[[-1.5, 0.25]]]},
        {"exps": {"z1": 2, "zb'1": 1}, "coef": [[[0.7, -0.0]]]},
        {"exps": {"zb1": 2}, "coef": [[[-0.0, 1.0]]]},
        {"exps": {}, "coef": [[[0.2, 0.1]]]},
        {"exps": {}, "coef": [[[0.3, -0.3]]]},
    ],
}
DUPLICATE_SYMBOL = {
    "n": 2,
    "m": 1,
    "fiber_rank": 2,
    "terms": [
        {"hol": [1], "antihol": [0], "coef": [[[-0.0, -0.0], [0.0, 0.5]], [[2.0, 0.0], [0.0, 0.0]]]},
        {"hol": [0], "antihol": [0], "coef": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.3]]]},
        {"hol": [2], "antihol": [1], "coef": [[[1.0, -1.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.4]]]},
        {"hol": [1], "antihol": [0], "coef": [[[-0.0, -0.0], [0.0, 0.25]], [[0.0, 0.0], [0.0, 0.0]]]},
        {"hol": [0], "antihol": [0], "coef": [[[0.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.3]]]},
        {"hol": [2], "antihol": [1], "coef": [[[-1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, -0.4]]]},
        {"hol": [0], "antihol": [0], "coef": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, -0.6]]]},
    ],
}


def _dict_sum(pairs):
    """Equal keys summed as ``out[k] = out[k] + c if k in out else c``."""
    out = {}
    for k, c in pairs:
        out[k] = out[k] + c if k in out else c
    return out


def _store_bytes(poly, payload) -> bytes:
    return poly.exps.tobytes() + poly.coefs.tobytes() + json.dumps(payload).encode()


def test_duplicate_terms_load_bit_identically():
    # the loaders sum repeated exponents with _collect; a dict summing them
    # first, as the loaders once did, must give the same bits
    from fockcalc import KernelExpr, Symbol
    from fockcalc.arrays import _coef_from_json

    e = KernelExpr.from_json_dict(DUPLICATE_KERNEL)
    dims = e.numerator.dims
    terms = DUPLICATE_KERNEL["terms"]
    want = Poly(dims, _dict_sum(
        (tuple(Poly.monomial(dims, t["exps"]).exps[0].tolist()), _coef_from_json(t["coef"], 1)) for t in terms
    ))
    got_k = _store_bytes(e.numerator, e.to_json_dict())
    assert got_k == _store_bytes(want, KernelExpr(want, e.kind).to_json_dict())
    assert e.numerator.exps.tolist() == [[0, 2, 0, 0], [0, 0, 0, 0], [2, 0, 0, 1]]  # z1 cancelled

    g = Symbol.from_json_dict(DUPLICATE_SYMBOL)
    want = Symbol.from_terms(2, 1, _dict_sum(
        ((tuple(t["hol"]), tuple(t["antihol"])), _coef_from_json(t["coef"], 2)) for t in DUPLICATE_SYMBOL["terms"]
    ), 2)
    got_s = _store_bytes(g.poly, g.to_json_dict())
    assert got_s == _store_bytes(want.poly, want.to_json_dict())
    assert len(g.poly.exps) == 2  # w^2 wbar cancelled
    assert np.signbit(g.terms()[(1,), (0,)][0, 0].real)
    # the bytes at the commit whose loaders still summed into a dict
    assert hashlib.sha256(got_k + got_s).hexdigest() == "da998c7f9a8d50e72c888e23e9006320e9344308a6e980b5f269a461e66a419f"


# -- the coefficient reader's numeric-array path ------------------------------------------


def test_mixed_and_object_coefficient_arrays_take_the_checked_path():
    match = "coefficient must be a number or a matrix of numbers"
    r2 = Dims.of(1, fiber_rank=2)
    mixed = [np.array([1.0, 0.0]), [True, 1.0]]  # a numeric array beside a boolean
    for dims, bad in ((r2, mixed), (r2, np.array([[1.0, 0.0], [True, 1.0]], dtype=object))):
        with pytest.raises(ValueError, match=match):
            Poly(dims, {(0, 0, 0, 0): bad})  # scalar path
        with pytest.raises(ValueError, match=match):
            Poly(dims, {(1, 0, 0, 0): np.eye(2), (0, 0, 0, 0): bad})  # stacked path
        with pytest.raises(ValueError, match=match):
            Poly.constant(dims, bad)
    with pytest.raises(ValueError, match=match):
        Poly(Dims.of(1), {(1, 0, 0, 0): np.array(1.0), (0, 0, 0, 0): True})  # stacked values, mixed
    # an object array of numbers is still read, cell by cell
    p = Poly.constant(r2, np.array([[1.0, 2], [3j, 4]], dtype=object))
    assert p.coefs.tobytes() == np.array([[[1.0, 2], [3j, 4]]], dtype=complex).tobytes()


def test_an_integer_coefficient_beyond_float_range_is_non_finite():
    # it raised an OverflowError from the cast
    for call in (lambda: Poly.constant(Dims.of(1), 10**400), lambda: Poly(Dims.of(1), {(1, 0, 0, 0): [[10**400]]})):
        with pytest.raises(ValueError, match="^non-finite coefficient$"):
            call()


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64, np.float32, np.float64, np.complex64, complex])
def test_numeric_coefficient_arrays_read_like_the_checked_path(dtype):
    from fockcalc.arrays import _as_coef

    rng = np.random.default_rng(7)
    big = {np.int64: 2**62 + 1, np.uint64: 2**64 - 1}.get(dtype, 100)  # beyond float precision for the wide ints
    values = [np.array(rng.integers(0, big, size=(2, 2), endpoint=True, dtype=np.uint64)).astype(dtype) for _ in range(3)]
    if np.dtype(dtype).kind in "fc":
        values = [(v * 0.37).astype(dtype) for v in values]
    if np.dtype(dtype).kind == "c":
        values = [(v - 1.5j * v).astype(dtype) for v in values]
    for v in values:
        fast = _as_coef(v, 2)
        assert fast.tobytes() == _as_coef(v.astype(object), 2).tobytes()
        assert not fast.flags.writeable and v.flags.writeable  # a read-only copy; the caller's array is untouched
    stacked = _as_coef(values, 2, len(values))
    assert stacked.tobytes() == _as_coef([v.astype(object) for v in values], 2, len(values)).tobytes()
    scalars = [v[0, 0] * np.ones((), dtype) for v in values]  # 0-d arrays read as 1x1 matrices
    assert _as_coef(scalars, 1, 3).tobytes() == _as_coef([s.item() for s in scalars], 1, 3).tobytes()


# -- summing equal exponent rows ----------------------------------------------------------

_parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, -0.7, 1e16, -1e16, 3.5e-300])


@st.composite
def _collect_input(draw):
    """Exponent rows drawn with repeats from a few distinct ones, and coefficients
    of +-0.0 and order-sensitive parts; some rows' every addend is -0.0."""
    width, r = draw(st.sampled_from([4, 8])), draw(st.sampled_from([1, 2]))
    pool = draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=12))
    all_negative_zero = draw(st.sets(st.integers(0, len(pool) - 1)))
    coefs = []
    for k in picks:
        if k in all_negative_zero:
            coefs.append(np.full((r, r), complex(-0.0, -0.0)))
        else:
            cells = draw(st.lists(st.tuples(_parts, _parts), min_size=r * r, max_size=r * r))
            coefs.append(np.array([complex(a, b) for a, b in cells]).reshape(r, r))
    E = np.array([pool[k] for k in picks], dtype=np.int64).reshape(len(picks), width)
    return E, np.array(coefs, dtype=complex).reshape(len(picks), r, r)


@settings(max_examples=200)
@given(_collect_input())
def test_collect_sums_like_a_dict_in_first_occurrence_order(data):
    from fockcalc.poly import _collect

    E, C = data
    want = _dict_sum(zip(map(tuple, E.tolist()), C))
    got_E, got_C = _collect(E, C)
    assert got_E.tolist() == [list(k) for k in want]
    r = C.shape[1]
    assert got_C.tobytes() == np.array(list(want.values()), dtype=complex).reshape(len(want), r, r).tobytes()


def test_collect_keeps_a_group_of_negative_zeros():
    from fockcalc.poly import _collect

    E = np.array([[1, 0], [0, 0], [1, 0], [1, 0]])
    nz = complex(-0.0, -0.0)
    C = np.array([nz, 0.1, nz, nz]).reshape(4, 1, 1)
    got_E, got_C = _collect(E, C)
    assert got_E.tolist() == [[1, 0], [0, 0]]
    assert np.signbit(got_C[0, 0, 0].real) and np.signbit(got_C[0, 0, 0].imag)
