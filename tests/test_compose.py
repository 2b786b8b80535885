"""Closed-form composition: exact base cases, the one composition rule, algebraic laws."""

import hashlib
import importlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockcalc import (
    Bergman,
    Dims,
    Extension,
    KernelExpr,
    KernelKind,
    OrthBergman,
    Poly,
    Restriction,
    UnsupportedCompositionError,
    base_terms,
    compose,
    compose_plan,
    oracle_compose_values,
    unit_expr,
    DegreeOverflowError,
)
from fockcalc.compose import _bracket, _over_pi, _pairing_table, _PairingRegistry
from fockcalc.kernels import _named
from fockcalc.oracle import _palette_points
from fockcalc.poly import _var_offset

from conftest import random_kernel_expr, supported_kind_pairs

# the module, which the package's ``compose`` function shadows as an attribute
compose_module = importlib.import_module("fockcalc.compose")

PI = math.pi

F = Fraction


# -- exact base cases (tolerance zero) ----------------------------------------------


def test_base_exact_tangential_goldens():
    # both kernels couple the coordinate; rows are (dz, dzp, coef, p)
    assert list(base_terms(0, 0, True, True)) == [(0, 0, F(1), 0)]
    assert list(base_terms(1, 1, True, True)) == [(1, 1, F(1), 0), (0, 0, F(1), 1)]
    assert list(base_terms(2, 1, True, True)) == [(2, 1, F(1), 0), (1, 0, F(2), 1)]
    assert list(base_terms(1, 2, True, True)) == [(1, 2, F(1), 0), (0, 1, F(2), 1)]
    assert list(base_terms(2, 2, True, True)) == [
        (2, 2, F(1), 0),
        (1, 1, F(4), 1),
        (0, 0, F(2), 2),
    ]
    assert list(base_terms(3, 3, True, True)) == [
        (3, 3, F(1), 0),
        (2, 2, F(9), 1),
        (1, 1, F(18), 2),
        (0, 0, F(6), 3),
    ]


def test_coupled_and_one_sided_base_terms_form_no_factorial(monkeypatch):
    # each is a binomial times a falling factorial; only the diagonal's a! is a full factorial
    factorial = math.factorial
    quotient = {
        (True, True): lambda a, b, k: F(factorial(a) * factorial(b), factorial(a - k) * factorial(b - k) * factorial(k)),
        (True, False): lambda a, b, k: F(factorial(a), factorial(a - b)),
        (False, True): lambda a, b, k: F(factorial(b), factorial(b - a)),
    }
    want = {
        (a, b, cross): [(dz, dzp, quotient[cross](a, b, p), p) for dz, dzp, _, p in base_terms(a, b, *cross)]
        for a in range(12) for b in range(12) for cross in quotient
    }

    def no_factorial(n):
        raise AssertionError("a factorial was formed")

    monkeypatch.setattr(math, "factorial", no_factorial)
    assert {(a, b, cross): list(base_terms(a, b, *cross)) for a, b, cross in want} == want


def test_base_exact_normal_goldens():
    # neither kernel couples the coordinate
    assert list(base_terms(0, 0, False, False)) == [(0, 0, F(1), 0)]
    assert list(base_terms(1, 1, False, False)) == [(0, 0, F(1), 1)]
    assert list(base_terms(3, 3, False, False)) == [(0, 0, F(6), 3)]
    assert list(base_terms(1, 0, False, False)) == []
    assert list(base_terms(2, 1, False, False)) == []


def test_base_terms_one_sided():
    assert list(base_terms(3, 1, True, False)) == [(2, 0, F(6, 2), 1)]
    assert list(base_terms(1, 3, True, False)) == []
    assert list(base_terms(1, 3, False, True)) == [(0, 2, F(6, 2), 1)]
    assert list(base_terms(2, 2, False, True)) == [(0, 0, F(2), 2)]
    with pytest.raises(ValueError):
        list(base_terms(-1, 0, True, True))


def test_base_exact_matches_gaussian_moments():
    # with no outer coupling the pairing is the plain moment a!/pi^a.
    for a in range(5):
        for b in range(5):
            val = 0.0
            for dz, dzp, c, p in base_terms(a, b, False, False):
                assert (dz, dzp) == (0, 0)
                val += float(c) / PI**p
            want = math.factorial(a) / PI**a if a == b else 0.0
            assert abs(val - want) < 1e-15


# -- hand-computed composite goldens ---------------------------------------------------


def test_composite_golden_tangential():
    # pair 1 against z zbar across a fully tangential middle: z zb' + 1/pi.
    dims = Dims.of(1)
    left = unit_expr(Bergman(1))
    right = KernelExpr(Poly.monomial(dims, {"z1": 1, "zb1": 1}), Bergman(1))
    got = compose(left, right)
    want = Poly.monomial(dims, {"z1": 1, "zb'1": 1}).add(Poly.one(dims).scale(1 / PI))
    assert got.kind == Bergman(1)
    assert got.numerator.max_coef_diff(want) < 1e-15


def test_composite_golden_normal():
    # the same middle polynomial integrated over a normal coordinate: 1/pi.
    dims = Dims.of(1, m=0)
    B = Poly.monomial(dims, {"z1": 1, "zb1": 1})
    got = compose(unit_expr(OrthBergman(1, 0)), KernelExpr(B, OrthBergman(1, 0)))
    want = Poly.one(dims).scale(1 / PI)
    assert got.numerator.max_coef_diff(want) < 1e-15


def test_composite_mixed_coordinates():
    # one tangential and one normal middle coordinate at once.
    dims = Dims(n=2, l=2, m=1)
    mid = Poly.monomial(dims, {"z1": 1, "zb1": 1, "z2": 1, "zb2": 1})
    got = compose(unit_expr(OrthBergman(2, 1)), KernelExpr(mid, OrthBergman(2, 1)))
    want = Poly.monomial(dims, {"z1": 1, "zb'1": 1}, 1 / PI).add(
        Poly.one(dims).scale(1 / PI**2)
    )
    assert got.numerator.max_coef_diff(want) < 1e-15


def test_matrix_coefficients_multiply_in_operator_order():
    dims = Dims.of(1, fiber_rank=2)
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    ea = KernelExpr(Poly.constant(dims, A), Bergman(1))
    eb = KernelExpr(Poly.constant(dims, B), Bergman(1))
    got = compose(ea, eb)
    assert got.numerator.max_coef_diff(Poly.constant(dims, A @ B)) < 1e-15


# -- the composition rule ----------------------------------------------------------------


def test_plan_table_covers_all_supported_pairs():
    n, l, m = 3, 2, 1
    # result kind, middle dimension, left and right cross counts
    expected = [
        (Bergman(n), n, n, n),
        (OrthBergman(n, m), n, m, m),
        (OrthBergman(n, m), n, n, m),
        (Extension(n, m), n, n, m),
        (Extension(n, m), n, m, m),
        (Bergman(m), n, m, m),
        (Extension(n, m), m, m, m),
        (Extension(n, m), l, l, m),
        (Restriction(n, m), n, m, n),
        (Restriction(n, m), m, m, m),
    ]
    for (k1, k2), (want, mid, lc, rc) in zip(supported_kind_pairs(n, l, m), expected):
        assert compose_plan(k1, k2) == {
            "left_kind": repr(k1),
            "right_kind": repr(k2),
            "result_kind": repr(want),
            "middle_dim": mid,
            "left_cross": lc,
            "right_cross": rc,
        }
        got = compose(unit_expr(k1), unit_expr(k2))
        assert got.kind == want and type(got.kind) is type(want)
    labels = compose_plan(Extension(n, l), Extension(l, m))
    assert [labels[k] for k in ("left_kind", "right_kind", "result_kind")] == [
        "Extension(3,2)",
        "Extension(2,1)",
        "Extension(3,1)",
    ]
    assert compose_plan(Bergman(m), Restriction(n, m))["left_kind"] == "Bergman(1)"


def test_unsupported_pairs_raise():
    # the left kind's primed dimension must equal the right kind's unprimed one
    bad = [
        (Restriction(2, 1), Restriction(2, 1)),
        (Extension(2, 1), OrthBergman(2, 1)),
        (OrthBergman(2, 1), Restriction(2, 1)),
        (Bergman(2), Bergman(3)),
        (Bergman(2), Extension(3, 1)),
        (Extension(3, 1), Extension(3, 1)),
        (KernelKind(3, 2, 1), Bergman(3)),
    ]
    for k1, k2 in bad:
        with pytest.raises(UnsupportedCompositionError, match="^middle dimension mismatch in pair"):
            compose_plan(k1, k2)
        with pytest.raises(UnsupportedCompositionError):
            compose(unit_expr(k1), unit_expr(k2))


# Pairs the old ten-row kind table rejected although their middle dimensions
# match; the last three compose to kinds the table never produced.
NEWLY_COMPOSABLE = [
    (Extension(2, 1), Restriction(2, 1)),
    (OrthBergman(2, 1), Bergman(2)),
    (Restriction(2, 1), OrthBergman(2, 1)),
    (Restriction(3, 1), Extension(3, 2)),
    (Extension(3, 2), OrthBergman(2, 1)),
    (Extension(3, 1), Restriction(3, 1)),
    (OrthBergman(3, 1), Extension(3, 2)),
]


@pytest.mark.parametrize("k1, k2", NEWLY_COMPOSABLE, ids=repr)
def test_matching_middle_dimensions_compose_like_the_oracle(rng, k1, k2):
    points = list(zip(*_palette_points(k1.du, k2.dp)))  # the oracle's default pairs
    Z = np.array([z for z, _ in points]).reshape(len(points), k1.du)
    Zp = np.array([zp for _, zp in points]).reshape(len(points), k2.dp)
    for rank in (1, 2):
        e1 = random_kernel_expr(rng, k1, rank, max_deg=3)
        e2 = random_kernel_expr(rng, k2, rank, max_deg=3)
        got = compose(e1, e2)
        assert got.kind == KernelKind(k1.du, k2.dp, min(k1.c, k2.c))
        want = np.array(oracle_compose_values(e1, e2, eval_points=points))
        err = np.max(np.abs(got.evaluate_batch(Z, Zp) - want))
        assert err <= 1e-12 * np.max(np.abs(want))


@st.composite
def kind_chain(draw, length: int = 3, max_dim: int = 3):
    """``length`` kinds on random descriptors, each one's primed dimension the next one's unprimed."""
    dims = [draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(length + 1)]
    return [
        KernelKind(du, dp, draw(st.integers(min_value=0, max_value=min(du, dp))))
        for du, dp in zip(dims, dims[1:])
    ]


def _coef_scale(e: KernelExpr) -> float:
    return max(1.0, float(np.max(np.abs(e.numerator.coefs), initial=0.0)))


@given(kind_chain(), st.sampled_from([1, 2]), st.integers(min_value=0, max_value=2**32 - 1))
def test_composition_is_associative_and_reversed_by_adjoints(kinds, rank, seed):
    rng = np.random.default_rng(seed)
    e1, e2, e3 = (random_kernel_expr(rng, kind, rank, max_deg=2) for kind in kinds)
    left = compose(compose(e1, e2), e3)
    right = compose(e1, compose(e2, e3))
    assert left.kind == right.kind == KernelKind(kinds[0].du, kinds[2].dp, min(k.c for k in kinds))
    assert left.numerator.max_coef_diff(right.numerator) <= 1e-10 * _coef_scale(left)
    # (a o b)* == b* o a*
    ab = compose(e1, e2).adjoint()
    ba = compose(e2.adjoint(), e1.adjoint())
    assert ab.kind == ba.kind
    assert ab.numerator.max_coef_diff(ba.numerator) <= 1e-12 * _coef_scale(ab)


@st.composite
def supported_pair(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    l = draw(st.integers(min_value=0, max_value=n))
    m = draw(st.integers(min_value=0, max_value=l))
    return draw(st.sampled_from(supported_kind_pairs(n, l, m)))


@given(st.one_of(supported_pair(), kind_chain(length=2)), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
def test_unchecked_results_pass_the_public_checks(kinds, rank, seed):
    # compose and adjoint build their results with KernelExpr._of, which skips the
    # domain checks; the public constructor must accept each one as it is
    rng = np.random.default_rng(seed)
    e1, e2 = (random_kernel_expr(rng, kind, rank, max_deg=3) for kind in kinds)
    out = compose(e1, e2)
    for e in (out, out.adjoint(), e1.adjoint(), e2.adjoint()):
        assert KernelExpr(e.numerator, e.kind) == e
        du, dp, c = e.kind.du, e.kind.dp, e.kind.c
        assert e.kind is _named(du, dp, c)  # one interned object per descriptor
        fresh = _named.__wrapped__(du, dp, c)
        assert type(e.kind) is type(fresh) and repr(e.kind) == repr(fresh)


def test_fiber_rank_mismatch():
    with pytest.raises(ValueError):
        compose(unit_expr(Bergman(1), 1), unit_expr(Bergman(1), 2))


# -- projector / absorption identities ---------------------------------------------------


def test_unit_kernel_identities():
    n, l, m = 3, 2, 1
    B, Bm = unit_expr(Bergman(n)), unit_expr(Bergman(m))
    OB = unit_expr(OrthBergman(n, m))
    E, R = unit_expr(Extension(n, m)), unit_expr(Restriction(n, m))
    Enl, Elm = unit_expr(Extension(n, l)), unit_expr(Extension(l, m))

    def eq(a, b):
        assert a.kind == b.kind
        assert a.numerator.max_coef_diff(b.numerator) < 1e-14

    eq(compose(B, B), B)  # projector
    eq(compose(OB, OB), OB)  # projector
    eq(compose(B, OB), OB)  # absorbed
    eq(compose(B, E), E)  # extension lands in the holomorphic range
    eq(compose(OB, E), E)  # extensions already live in the sub-band
    eq(compose(R, E), Bm)  # restriction after extension is the identity
    eq(compose(E, Bm), E)
    eq(compose(Enl, Elm), unit_expr(Extension(n, m)))  # transitivity
    eq(compose(R, B), R)
    eq(compose(Bm, R), R)


def test_associativity_of_supported_chains(rng):
    chains = [
        (Bergman(2), Bergman(2), Extension(2, 1)),
        (Restriction(2, 1), Bergman(2), Extension(2, 1)),
        (Extension(3, 2), Extension(2, 1), Bergman(1)),
        (Bergman(1), Restriction(2, 1), Bergman(2)),
    ]
    for kinds in chains:
        e1, e2, e3 = (random_kernel_expr(rng, k, max_deg=2) for k in kinds)
        left = compose(compose(e1, e2), e3)
        right = compose(e1, compose(e2, e3))
        assert left.kind == right.kind
        assert left.numerator.max_coef_diff(right.numerator) < 1e-10


# -- structural laws -------------------------------------------------------------------


def test_degree_law(rng):
    for _ in range(40):
        for k1, k2 in supported_kind_pairs(3, 2, 1):
            e1 = random_kernel_expr(rng, k1, max_deg=3)
            e2 = random_kernel_expr(rng, k2, max_deg=3)
            out = compose(e1, e2)
            assert out.numerator.degree() <= e1.numerator.degree() + e2.numerator.degree()


def test_parity_law(rng):
    # pure-parity numerators compose to the product parity (or vanish).
    for _ in range(40):
        for k1, k2 in supported_kind_pairs(2, 1, 1):
            e1 = random_kernel_expr(rng, k1, max_deg=3)
            e2 = random_kernel_expr(rng, k2, max_deg=3)
            p1, p2 = e1.numerator.parity(), e2.numerator.parity()
            if p1 is None or p2 is None:
                continue
            out = compose(e1, e2).numerator
            if not out.is_zero():
                assert out.parity() == (p1 + p2) % 2


def test_degree_cap_propagates():
    dims = Dims.of(1)
    big = KernelExpr(Poly.monomial(dims, {"z1": 9}), Bergman(1))
    other = KernelExpr(Poly.monomial(dims, {"zb'1": 9}), Bergman(1))
    with pytest.raises(DegreeOverflowError):
        compose(big, other)
    out = compose(big, other, degree_cap=20)
    assert out.numerator.degree() == 18


# -- the float pairing tables, their registry and the bracket's guards --------------


def test_pairing_table_matches_exact_base_terms():
    vanishing = 0
    for a in range(9):
        for b in range(9):
            for lc in (False, True):
                for rc in (False, True):
                    want = [
                        (dz, dzp, float(frac) / PI**p) for dz, dzp, frac, p in base_terms(a, b, lc, rc)
                    ]
                    assert list(_pairing_table(a, b, lc, rc)) == want
                    vanishing += not want
    # one-sided and normal coordinates vanish off their exponent conditions
    assert vanishing == 2 * (9 * 8 // 2) + (9 * 9 - 9)


def _bracket_args(left_exps, right_exps, n_left=2, n_right=2, n_mid=1, out_n=1):
    left = Poly.monomial(Dims.of(n_left), left_exps)
    right = Poly.monomial(Dims.of(n_right), right_exps)
    return left, right, n_mid, n_mid, n_mid, Dims.of(out_n)


@pytest.mark.parametrize(
    "left_exps, right_exps, n_mid, out_n, message",
    [
        ({"z2": 1}, {}, 1, 1, "left outer variable beyond result dimensions"),
        ({"z'2": 1}, {}, 1, 2, "left middle variable beyond middle dimension"),
        ({}, {"zb'2": 1}, 1, 1, "right outer variable beyond result dimensions"),
        ({}, {"zb2": 1}, 1, 2, "right middle variable beyond middle dimension"),
    ],
)
def test_bracket_dimension_guards(left_exps, right_exps, n_mid, out_n, message):
    args = _bracket_args(left_exps, right_exps, n_mid=n_mid, out_n=out_n)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _bracket(*args)


def test_bracket_degree_cap_boundary():
    # <z1^2 w^2 | zb'1^2 wbar^2> over one tangential coordinate has top degree 8
    left = Poly.monomial(Dims.of(1), {"z1": 2, "z'1": 2})
    right = Poly.monomial(Dims.of(1), {"zb1": 2, "zb'1": 2})
    out = _bracket(left, right, 1, 1, 1, Dims.of(1), degree_cap=8)
    assert out.degree() == 8
    with pytest.raises(DegreeOverflowError, match="^composition term degree 8 exceeds cap 7$"):
        _bracket(left, right, 1, 1, 1, Dims.of(1), degree_cap=7)


@pytest.mark.parametrize("a", [300, 700])
def test_float_overflowing_pairing_fails_cleanly(a):
    # 300!/pi^300 overflows a float and so does 700!/pi^700; the top-degree term
    # still meets the degree cap first, as it did when pairings were converted lazily
    dims = Dims.of(1)
    left = KernelExpr(Poly.monomial(dims, {"z'1": a}), Bergman(1))
    right = KernelExpr(Poly.monomial(dims, {"zb1": a}), Bergman(1))
    with pytest.raises(DegreeOverflowError, match=f"^composition term degree {2 * a} exceeds cap 16$"):
        compose(left, right)
    with pytest.raises(ValueError, match="overflows a float"):
        compose(left, right, degree_cap=2 * a)


def test_a_pairing_whose_factorial_overflows_is_exact():
    # 171! does not fit a float, but 171!/pi^171 does; it used to raise "overflows a float"
    dims = Dims.of(1)
    left = KernelExpr(Poly.monomial(dims, {"zb'1": 171}), Bergman(1))
    right = KernelExpr(Poly.monomial(dims, {"z1": 171}), OrthBergman(1, 0))
    out = compose(left, right, degree_cap=400)
    want = float(Fraction(math.factorial(171)) / Fraction(math.pi) ** 171)
    assert {e: c.tolist() for e, c in out.numerator.terms.items()} == {(0, 0, 0, 0): [[want]]}


def test_a_coefficient_past_float_range_is_refused_without_a_warning():
    # the coefficients' product, and then the pairing times it, overflow; numpy's overflow
    # warning (an error under this suite's filter) used to come first
    dims = Dims.of(1)
    huge = KernelExpr(Poly.constant(dims, 1e200), Bergman(1))
    with pytest.raises(ValueError, match="^non-finite coefficient$"):
        compose(huge, huge)
    left = KernelExpr(Poly.monomial(dims, {"zb'1": 171}, 1e300), Bergman(1))
    right = KernelExpr(Poly.monomial(dims, {"z1": 171}), OrthBergman(1, 0))
    with pytest.raises(ValueError, match="^non-finite coefficient$"):
        compose(left, right, degree_cap=400)


def test_a_quotient_past_float_range_on_bit_lengths_is_not_formed(monkeypatch):
    # on either side of the top of float range the quotient is the exact one rounded once
    for p in (0, 1, 100, 700, 2000):
        top, power = 1024 + round(p * math.log2(math.pi)), Fraction(math.pi) ** p
        for x in (m << (top + k) for m in (1, 3, 7) for k in range(-3, 24, 3)):
            exact = Fraction(x) / power
            assert _over_pi(x, p) == (float(exact) if exact < 2**1024 else math.inf), (x, p)
    # 700! is past 2**5600, so 700!/pi^10 is past float range without being formed; it was
    # formed exactly, and z'^700 Bergman(1) composed with zb^700 Bergman(1) took twice as long to fail
    def no_fraction(*args):
        raise AssertionError("the quotient was formed exactly")

    monkeypatch.setattr(compose_module, "Fraction", no_fraction)
    assert _over_pi(math.factorial(700), 10) == math.inf


@pytest.fixture
def registry(monkeypatch):
    """A fresh, empty pairing registry for the test."""
    fresh = _PairingRegistry()
    monkeypatch.setattr(compose_module, "_REGISTRY", fresh)
    return fresh


def test_degree_cap_is_checked_before_any_pairing_table_is_built(registry):
    dims = Dims.of(1)
    left = KernelExpr(Poly.monomial(dims, {"z'1": 1000}), Bergman(1))
    right = KernelExpr(Poly.monomial(dims, {"zb1": 1000}), Bergman(1))
    t0 = time.perf_counter()
    with pytest.raises(DegreeOverflowError, match="^composition term degree 2000 exceeds cap 16$"):
        compose(left, right)
    assert time.perf_counter() - t0 < 0.1
    # a pair that vanishes in one coordinate builds no table for the others either
    dims = Dims.of(2, m=1)
    left = KernelExpr(Poly.monomial(dims, {"z'1": 1000, "z'2": 1}), OrthBergman(2, 1))
    right = KernelExpr(Poly.monomial(dims, {"zb1": 1000}), OrthBergman(2, 1))
    assert compose(left, right).numerator.is_zero()
    assert len(registry) == 0


def _registry_cases():
    """Seeded compositions over every supported pair of two chains, at ranks 1 and 2."""
    rng = np.random.default_rng(5)
    return [
        (random_kernel_expr(rng, k1, rank, 4), random_kernel_expr(rng, k2, rank, 5))
        for chain in [(2, 1, 1), (3, 2, 1)]
        for k1, k2 in supported_kind_pairs(*chain)
        for rank in (1, 2)
    ]


def _output_bytes(e: KernelExpr) -> bytes:
    return json.dumps(e.to_json_dict()).encode()


def test_a_repeated_composition_builds_no_pairing_table(registry, monkeypatch):
    built = []

    def counting_base_terms(*args):
        built.append(args)
        return base_terms(*args)

    monkeypatch.setattr(compose_module, "base_terms", counting_base_terms)
    cases = _registry_cases()
    first = [_output_bytes(compose(e1, e2)) for e1, e2 in cases]
    # one build per distinct (a, b, left couples, right couples)
    assert len(built) == len(set(built)) == len(registry) > 0
    built.clear()
    assert [_output_bytes(compose(e1, e2)) for e1, e2 in cases] == first
    assert built == []


def test_a_registry_past_its_bound_gives_the_same_composites(registry, monkeypatch):
    cases = _registry_cases()
    want = [_output_bytes(compose(e1, e2)) for e1, e2 in cases]
    bounded = _PairingRegistry()
    monkeypatch.setattr(compose_module, "_REGISTRY", bounded)
    # smaller than the keys of many single compositions, so the registry starts
    # afresh again and again and, after such a call, holds more than its bound
    monkeypatch.setattr(compose_module, "_REGISTRY_BOUND", 3)
    assert [_output_bytes(compose(e1, e2)) for e1, e2 in cases] == want
    assert 0 < len(bounded) < len(registry)


def test_a_middle_exponent_past_the_registry_key_is_rejected():
    # a == b over a coordinate neither side couples adds no degree, so the
    # degree cap lets it through; its registry key could not hold it
    dims = Dims.of(1, m=0)
    left = KernelExpr(Poly.monomial(dims, {"z'1": 1 << 30}), OrthBergman(1, 0))
    right = KernelExpr(Poly.monomial(dims, {"zb1": 1 << 30}), OrthBergman(1, 0))
    with pytest.raises(ValueError, match=f"^composition middle exponent {1 << 30} is too large to pair$"):
        compose(left, right)


def test_uncoupled_coordinates_do_not_count_toward_the_cap():
    # <w^10 | wbar^10> over a coordinate neither side couples is 10!/pi^10: a
    # constant, although a + b = 20 exceeds the default cap of 16
    dims = Dims.of(1, m=0)
    left = KernelExpr(Poly.monomial(dims, {"z'1": 10}), OrthBergman(1, 0))
    right = KernelExpr(Poly.monomial(dims, {"zb1": 10}), OrthBergman(1, 0))
    out = compose(left, right).numerator
    assert out.degree() == 0
    assert out.max_coef_diff(Poly.constant(dims, math.factorial(10) / PI**10)) == 0.0


# -- output bytes pinned across refactors ----------------------------------------------

# SHA-256 over ``json.dumps(x.to_json_dict(), indent=2)`` of every ``Poly.mul``
# and ``compose`` output of ``_pinned_outputs``, in order.  Any change to the
# arithmetic, the accumulation order or the signed zeros changes it.  So does
# the BLAS kernel behind the coefficient matmuls: the digest holds for
# OpenBLAS's auto-selected kernel on an AVX-512 host (SkylakeX); under
# OPENBLAS_CORETYPE=Haswell it reads e49c8565... and under Prescott 05ac2a0c...
PINNED_OUTPUT_SHA256 = "1c94495bc904aecedc39bfd7a74641b5afbc5f79adfdd0eafd1617bf847cf702"


def _numerator_slots(kind) -> list[int]:
    """Exponent columns a numerator of this kind may use."""
    m = getattr(kind, "m", kind.n)
    return [
        _var_offset(i, o)
        for i in range(1, kind.n + 1)
        for o in range(4)
        if not (isinstance(kind, Extension) and o >= 2 and i > m)
        and not (isinstance(kind, Restriction) and o < 2 and i > m)
    ]


def _pinned_factor(rng, kind, rank: int, count: int, signed_zero: bool) -> Poly:
    dims = Dims(n=kind.n, l=kind.n, m=getattr(kind, "m", kind.n), fiber_rank=rank)
    slots = _numerator_slots(kind)
    terms = {}
    for _ in range(8 * count):
        if len(terms) == count:
            break
        exps = [0] * (4 * kind.n)
        for _ in range(int(rng.integers(0, 3)) if slots else 0):
            exps[slots[int(rng.integers(0, len(slots)))]] += 1
        terms[tuple(exps)] = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    if signed_zero:
        key = next(iter(terms))
        coef = terms[key].copy()
        coef[0, 0] = complex(-0.0, coef[0, 0].imag)
        terms[key] = coef
    return Poly(dims, terms)


def _pinned_outputs():
    """Products of seeded factors (about 3 to 30 terms) and their composites over
    the ten supported kind pairs of several chains, at fiber ranks 1 and 2."""
    rng = np.random.default_rng(60220112)
    case = 0
    for chain in [(2, 1, 1), (3, 2, 1), (2, 2, 0), (3, 3, 3)]:
        for k1, k2 in supported_kind_pairs(*chain):
            for rank in (1, 2):
                sides = []
                for kind in (k1, k2):
                    f = _pinned_factor(rng, kind, rank, 1 + case % 5, signed_zero=case % 3 == 0)
                    g = _pinned_factor(rng, kind, rank, 3 + case % 4, signed_zero=False)
                    product = f.mul(g)
                    yield product
                    sides.append(KernelExpr(product, kind))
                    case += 1
                yield compose(*sides)


def test_compose_and_mul_output_bytes_are_pinned():
    h = hashlib.sha256()
    sizes = []
    for out in _pinned_outputs():
        h.update(json.dumps(out.to_json_dict(), indent=2).encode())
        if isinstance(out, Poly):
            sizes.append(len(out.terms))
    assert min(sizes) <= 3 and max(sizes) >= 20
    assert h.hexdigest() == PINNED_OUTPUT_SHA256
