"""Closed-form composition: exact base cases, the kind table, algebraic laws."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fockcalc import (
    Bergman,
    Dims,
    Extension,
    KernelExpr,
    OrthBergman,
    Poly,
    Restriction,
    UnsupportedCompositionError,
    base_terms,
    compose,
    compose_plan,
    k_base,
    k_base_exact,
    k_e,
    k_ep,
    k_nm,
    k_prime_nm,
    unit_expr,
    DegreeOverflowError,
    var_offset,
)
from fockcalc.compose import _bracket, _pairing_table

from conftest import random_kernel_expr, supported_kind_pairs, trim_poly_for_kind, random_poly

PI = math.pi

F = Fraction


# -- exact base cases (tolerance zero) ----------------------------------------------


def test_base_exact_tangential_goldens():
    assert k_base_exact(0, 0, "tangential") == {(0, 0): {0: F(1)}}
    assert k_base_exact(1, 1, "tangential") == {(1, 1): {0: F(1)}, (0, 0): {1: F(1)}}
    assert k_base_exact(2, 1, "tangential") == {(2, 1): {0: F(1)}, (1, 0): {1: F(2)}}
    assert k_base_exact(1, 2, "tangential") == {(1, 2): {0: F(1)}, (0, 1): {1: F(2)}}
    assert k_base_exact(2, 2, "tangential") == {
        (2, 2): {0: F(1)},
        (1, 1): {1: F(4)},
        (0, 0): {2: F(2)},
    }
    assert k_base_exact(3, 3, "tangential") == {
        (3, 3): {0: F(1)},
        (2, 2): {1: F(9)},
        (1, 1): {2: F(18)},
        (0, 0): {3: F(6)},
    }


def test_base_exact_normal_goldens():
    assert k_base_exact(0, 0, "normal") == {(0, 0): {0: F(1)}}
    assert k_base_exact(1, 1, "normal") == {(0, 0): {1: F(1)}}
    assert k_base_exact(3, 3, "normal") == {(0, 0): {3: F(6)}}
    assert k_base_exact(1, 0, "normal") == {}
    assert k_base_exact(2, 1, "normal") == {}
    with pytest.raises(ValueError):
        k_base_exact(1, 1, "diagonal")


def test_base_terms_one_sided():
    assert list(base_terms(3, 1, True, False)) == [(2, 0, F(6, 2), 1)]
    assert list(base_terms(1, 3, True, False)) == []
    assert list(base_terms(1, 3, False, True)) == [(0, 2, F(6, 2), 1)]
    assert list(base_terms(2, 2, False, True)) == [(0, 0, F(2), 2)]
    with pytest.raises(ValueError):
        list(base_terms(-1, 0, True, True))


def test_base_exact_matches_gaussian_moments():
    # with no outer coupling the pairing is the plain moment a!/pi^a.
    from fockcalc import gaussian_moment

    for a in range(5):
        for b in range(5):
            table = k_base_exact(a, b, "normal")
            val = 0.0
            for (dz, dzp), fr in table.items():
                assert (dz, dzp) == (0, 0)
                val += sum(float(c) / PI**p for p, c in fr.items())
            assert abs(val - gaussian_moment(a, b)) < 1e-15


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
    B = Poly.monomial(Dims.of(1, m=0), {"z1": 1, "zb1": 1})
    got = k_base(B, 1, 0)
    want = Poly.one(dims).scale(1 / PI)
    assert got.max_coef_diff(want) < 1e-15
    with pytest.raises(ValueError):
        k_base(Poly.monomial(Dims.of(1, m=0), {"z'1": 1}), 1, 0)


def test_composite_mixed_coordinates():
    # one tangential and one normal middle coordinate at once.
    dims = Dims(n=2, l=2, m=1)
    mid = Poly.monomial(dims, {"z1": 1, "zb1": 1, "z2": 1, "zb2": 1})
    got = k_base(mid, 2, 1)
    want = Poly.monomial(dims, {"z1": 1, "zb'1": 1}, 1 / PI).add(
        Poly.one(dims).scale(1 / PI**2)
    )
    assert got.max_coef_diff(want) < 1e-15


def test_matrix_coefficients_multiply_in_operator_order():
    dims = Dims.of(1, fiber_rank=2)
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    ea = KernelExpr(Poly.constant(dims, A), Bergman(1))
    eb = KernelExpr(Poly.constant(dims, B), Bergman(1))
    got = compose(ea, eb)
    assert got.numerator.max_coef_diff(Poly.constant(dims, A @ B)) < 1e-15


# -- the kind table ---------------------------------------------------------------------


def test_plan_table_covers_all_supported_pairs():
    n, l, m = 3, 2, 1
    expected_kinds = [
        Bergman(n),
        OrthBergman(n, m),
        OrthBergman(n, m),
        Extension(n, m),
        Extension(n, m),
        Bergman(m),
        Extension(n, m),
        Extension(n, m),
        Restriction(n, m),
        Restriction(n, m),
    ]
    from fockcalc import kind_name

    def kind_str(k):
        if isinstance(k, Bergman):
            return f"Bergman({k.n})"
        return f"{kind_name(k)}({k.n},{k.m})"

    for (k1, k2), want in zip(supported_kind_pairs(n, l, m), expected_kinds):
        plan = compose_plan(k1, k2)
        assert plan.result_kind == kind_str(want)
        got = compose(unit_expr(k1), unit_expr(k2))
        assert got.kind == want
        d = plan.to_json_dict()
        assert set(d) == {"left_kind", "right_kind", "result_kind", "rule"}


def test_unsupported_pairs_raise():
    bad = [
        (Extension(2, 1), Restriction(2, 1)),
        (Restriction(2, 1), Restriction(2, 1)),
        (OrthBergman(2, 1), Bergman(2)),
        (Extension(2, 1), OrthBergman(2, 1)),
        (OrthBergman(2, 1), Restriction(2, 1)),
        (Restriction(2, 1), OrthBergman(2, 1)),
    ]
    for k1, k2 in bad:
        with pytest.raises(UnsupportedCompositionError):
            compose_plan(k1, k2)
    # dimension mismatches inside supported shapes
    with pytest.raises(UnsupportedCompositionError):
        compose_plan(Bergman(2), Bergman(3))
    with pytest.raises(UnsupportedCompositionError):
        compose_plan(Bergman(2), Extension(3, 1))
    with pytest.raises(UnsupportedCompositionError):
        compose_plan(Extension(3, 1), Extension(3, 1))
    with pytest.raises(UnsupportedCompositionError):
        compose_plan(Restriction(3, 1), Extension(3, 2))


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


def test_named_assemblies_match_kernel_composition(rng):
    n, m = 2, 1
    dims = Dims(n=n, l=n, m=m)
    A1 = random_poly(rng, dims, max_deg=2)
    A2 = random_poly(rng, dims, max_deg=2)

    got = k_nm(A1, A2, n, m)
    want = compose(KernelExpr(A1, OrthBergman(n, m)), KernelExpr(A2, OrthBergman(n, m)))
    assert got.max_coef_diff(want.numerator) < 1e-12

    got = k_prime_nm(A1, A2, n, m)
    want = compose(KernelExpr(A1, Bergman(n)), KernelExpr(A2, OrthBergman(n, m)))
    assert got.max_coef_diff(want.numerator) < 1e-12

    Aext = trim_poly_for_kind(A1, Extension(n, m))
    D = random_poly(rng, Dims.of(m), max_deg=2)
    got = k_ep(Aext, D, n, m)
    want = compose(KernelExpr(Aext, Extension(n, m)), KernelExpr(D, Bergman(m)))
    assert got.max_coef_diff(want.numerator) < 1e-12
    with pytest.raises(ValueError):
        k_ep(Poly.monomial(dims, {"z'2": 1}), D, n, m)

    n2, l2, m2 = 3, 2, 1
    A4 = trim_poly_for_kind(random_poly(rng, Dims(n=n2, l=n2, m=l2), max_deg=2), Extension(n2, l2))
    A5 = trim_poly_for_kind(random_poly(rng, Dims(n=l2, l=l2, m=m2), max_deg=2), Extension(l2, m2))
    got = k_e(A4, A5, n2, l2, m2)
    want = compose(KernelExpr(A4, Extension(n2, l2)), KernelExpr(A5, Extension(l2, m2)))
    assert got.max_coef_diff(want.numerator) < 1e-12
    with pytest.raises(ValueError):
        k_e(A4, A5, n2, 1, 2)


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


# -- the cached float pairing table and the bracket's guards ----------------------------


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


@pytest.mark.parametrize("a", [200, 700])
def test_float_overflowing_pairing_fails_cleanly(a):
    # 200! overflows a float and so does pi**700; the top-degree term still
    # meets the degree cap first, as it did when pairings were converted lazily
    dims = Dims.of(1)
    left = KernelExpr(Poly.monomial(dims, {"z'1": a}), Bergman(1))
    right = KernelExpr(Poly.monomial(dims, {"zb1": a}), Bergman(1))
    with pytest.raises(DegreeOverflowError, match=f"^composition term degree {2 * a} exceeds cap 16$"):
        compose(left, right)
    with pytest.raises(ValueError, match="overflows a float"):
        compose(left, right, degree_cap=2 * a)


# -- output bytes pinned across refactors ----------------------------------------------

# SHA-256 over ``json.dumps(x.to_json_dict(), indent=2)`` of every ``Poly.mul``
# and ``compose`` output of ``_pinned_outputs``, in order.  Any change to the
# arithmetic, the accumulation order or the signed zeros changes it.
PINNED_OUTPUT_SHA256 = "89740716cefdf4d837902bf45ed6a9375b50bb97b17539f647789abb332156a4"


def _numerator_slots(kind) -> list[int]:
    """Exponent columns a numerator of this kind may use."""
    m = getattr(kind, "m", kind.n)
    return [
        var_offset(i, o)
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
