"""Kernel families: evaluation formulas, domain checks, adjoints, ladder operators."""

import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockcalc import (
    Bergman,
    Dims,
    Extension,
    KernelExpr,
    OrthBergman,
    Poly,
    Restriction,
    apply_ladder,
    apply_model_laplacian,
    KernelKind,
    kind_name,
    unit_expr,
)

from conftest import complex_rows, kind_st, random_kernel_expr, random_poly, term_sum, trim_poly_for_kind

PI = math.pi


def _pts(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def _gaussian(kind, z, zp):
    """The pure kernel at one point pair: the unit kernel's batched value at a batch of one."""
    return unit_expr(kind).evaluate_batch(np.asarray(z)[None], np.asarray(zp)[None])[0, 0, 0]


# -- pure kernel values ---------------------------------------------------------


def test_kernel_eval_bergman_golden(rng):
    z, zp = _pts(rng, 2), _pts(rng, 2)
    want = np.exp(
        -0.5
        * PI
        * (np.sum(np.abs(z) ** 2) + np.sum(np.abs(zp) ** 2) - 2 * np.sum(z * np.conj(zp)))
    )
    assert abs(_gaussian(Bergman(2), z, zp) - want) < 1e-12 * abs(want)


def test_kernel_eval_extension_golden(rng):
    z, zp = _pts(rng, 2), _pts(rng, 1)
    cross = abs(z[0]) ** 2 + abs(zp[0]) ** 2 - 2 * z[0] * np.conj(zp[0])
    want = np.exp(-0.5 * PI * (cross + abs(z[1]) ** 2))
    assert abs(_gaussian(Extension(2, 1), z, zp) - want) < 1e-12 * abs(want)


def test_kernel_eval_restriction_and_orth(rng):
    z, zp = _pts(rng, 1), _pts(rng, 2)
    cross = abs(z[0]) ** 2 + abs(zp[0]) ** 2 - 2 * z[0] * np.conj(zp[0])
    want = np.exp(-0.5 * PI * (cross + abs(zp[1]) ** 2))
    assert abs(_gaussian(Restriction(2, 1), z, zp) - want) < 1e-12 * abs(want)

    z2, zp2 = _pts(rng, 2), _pts(rng, 2)
    cross = abs(z2[0]) ** 2 + abs(zp2[0]) ** 2 - 2 * z2[0] * np.conj(zp2[0])
    want = np.exp(-0.5 * PI * (cross + abs(z2[1]) ** 2 + abs(zp2[1]) ** 2))
    assert abs(_gaussian(OrthBergman(2, 1), z2, zp2) - want) < 1e-12 * abs(want)


@given(kind_st(), st.sampled_from([1, 2]), st.sampled_from([0, 1, 7]), st.data())
def test_kernel_expr_eval_matches_gaussian_closed_form(kind, rank, count, data):
    e = random_kernel_expr(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), kind, rank, 3)
    du, dp, n = kind.du, kind.dp, kind.n
    Z, Zp = data.draw(complex_rows(count, du)), data.draw(complex_rows(count, dp))
    batch = e.evaluate_batch(Z, Zp)
    assert batch.shape == (count, rank, rank)
    for row, z, zp in zip(batch, Z, Zp):
        # exp(-pi/2 (|Z|^2 + |Z'|^2) + pi sum over coupled i of z_i conj(z'_i))
        exponent = -0.5 * PI * (np.sum(np.abs(z) ** 2) + np.sum(np.abs(zp) ** 2))
        exponent += PI * sum(z[i] * np.conj(zp[i]) for i in range(kind.c))
        zf, zpf = np.concatenate([z, np.zeros(n - du)]), np.concatenate([zp, np.zeros(n - dp)])
        poly, scale = term_sum(e.numerator, np.stack([zf, zf.conj(), zpf, zpf.conj()], axis=1).ravel())
        want = poly * cmath.exp(exponent)
        tol = 1e-12 * (1.0 + scale) * abs(cmath.exp(exponent))
        assert np.max(np.abs(row - want)) <= tol


def test_kernel_eval_dimension_errors():
    with pytest.raises(ValueError, match=r"unprimed points have shape \(1, 1\), kernel expects \(N, 2\)"):
        _gaussian(Bergman(2), np.zeros(1), np.zeros(2))
    with pytest.raises(ValueError, match=r"primed points have shape \(1, 2\), kernel expects \(N, 1\)"):
        _gaussian(Extension(2, 1), np.zeros(2), np.zeros(2))
    e = unit_expr(Bergman(1))
    for Z, Zp in ((np.zeros(1), np.zeros((1, 1))), (np.zeros((2, 1)), np.zeros((3, 1)))):
        with pytest.raises(ValueError, match="kernel expects"):
            e.evaluate_batch(Z, Zp)


def test_restriction_is_bergman_on_padded_point(rng):
    for n, m in ((1, 0), (2, 1), (3, 1)):
        zy, w = _pts(rng, m), _pts(rng, n)
        pad = np.concatenate([zy, np.zeros(n - m)])
        got = _gaussian(Restriction(n, m), zy, w)
        want = _gaussian(Bergman(n), pad, w)
        assert abs(got - want) < 1e-13


def test_dims_helpers():
    # each named family is one descriptor (du, dp, c), with n = max(du, dp) and m = c
    named = {
        Bergman(3): (3, 3, 3),
        OrthBergman(3, 1): (3, 3, 1),
        Extension(3, 2): (3, 2, 2),
        Restriction(3, 2): (2, 3, 2),
    }
    for kind, descriptor in named.items():
        assert (kind.du, kind.dp, kind.c) == descriptor
        assert (kind.n, kind.m) == (max(descriptor[:2]), descriptor[2])
        assert kind == KernelKind(*descriptor) and hash(kind) == hash(KernelKind(*descriptor))
    assert repr(Extension(3, 2)) == "Extension(3,2)" and repr(Bergman(3)) == "Bergman(3)"
    assert repr(KernelKind(3, 2, 1)) == "KernelKind(3,2,1)"
    # the three named families on m = n are the Bergman kind
    assert OrthBergman(2, 2) == Extension(2, 2) == Restriction(2, 2) == Bergman(2)
    assert Extension(2, 1) != Restriction(2, 1)
    for du, dp, c in ((2, 1, 2), (1, 2, 2), (2, 2, -1), (-1, 2, 0)):
        with pytest.raises(ValueError, match="need 0 <= c <= min"):
            KernelKind(du, dp, c)
    with pytest.raises(ValueError):
        Extension(1, 2)


def test_kind_fields_are_integers():
    # KernelKind(1.5, 1, 1) and KernelKind(True, 1, 1) used to be accepted
    for bad, name in (((1.5, 1, 1), "du"), ((True, 1, 1), "du"), ((1, "1", 1), "dp"), ((1, 1, 0.5), "c")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            KernelKind(*bad)
    with pytest.raises(ValueError, match="du must be an integer"):
        Bergman(1.5)
    kind = KernelKind(2.0, np.int64(1), 1)
    assert all(type(v) is int for v in (kind.du, kind.dp, kind.c)) and kind == Extension(2, 1)


def test_kind_json_round_trip():
    for kind in (Bergman(2), OrthBergman(3, 1), Extension(3, 2), Restriction(2, 0)):
        back = KernelExpr.from_json_dict(unit_expr(kind).to_json_dict()).kind
        assert back == kind and kind_name(back) == kind_name(kind)
    # a kind keeps the name it was built with; a bare descriptor takes its canonical one
    assert kind_name(Extension(2, 2)) == "Extension"
    assert kind_name(KernelKind(2, 2, 2)) == "Bergman"
    assert kind_name(KernelKind(1, 3, 1)) == "Restriction"
    payload = unit_expr(Bergman(1)).to_json_dict()
    for name in ("Hankel", ["Bergman"], None):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            KernelExpr.from_json_dict({**payload, "kind": name})
    # a descriptor outside the four families has no kernel/1 name
    e = unit_expr(KernelKind(3, 2, 1))
    for write in (lambda: kind_name(e.kind), e.to_json_dict):
        with pytest.raises(ValueError, match=r"^KernelKind\(3,2,1\) has no kernel/1 name$"):
            write()


def test_adjoint_names_its_kind_canonically():
    assert unit_expr(Extension(3, 1)).adjoint().kind.__class__ is Restriction
    assert unit_expr(Extension(2, 2)).adjoint().kind.__class__ is Bergman
    assert unit_expr(KernelKind(3, 2, 1)).adjoint().kind == KernelKind(2, 3, 1)


# -- expression-level checks ------------------------------------------------------


def test_kernel_expr_domain_validation():
    dims = Dims(n=2, l=2, m=1)
    bad_ext = Poly.monomial(dims, {"z'2": 1})
    with pytest.raises(ValueError):
        KernelExpr(bad_ext, Extension(2, 1))
    bad_res = Poly.monomial(dims, {"zb2": 1})
    with pytest.raises(ValueError):
        KernelExpr(bad_res, Restriction(2, 1))
    # allowed: primed only up to m for extension, unprimed beyond m for extension
    KernelExpr(Poly.monomial(dims, {"z'1": 1, "z2": 1}), Extension(2, 1))
    KernelExpr(Poly.monomial(dims, {"z1": 1, "z'2": 1}), Restriction(2, 1))
    with pytest.raises(ValueError):
        KernelExpr(Poly.one(Dims.of(3)), Bergman(2))
    # any descriptor: no variable beyond its slot's dimension
    kind = KernelKind(3, 2, 1)
    KernelExpr(Poly.monomial(Dims.of(3), {"z3": 1, "zb'2": 1}), kind)
    with pytest.raises(ValueError, match=r"^KernelKind\(3,2,1\) numerator uses a primed coordinate beyond 2$"):
        KernelExpr(Poly.monomial(Dims.of(3), {"zb'3": 1}), kind)


def test_kernel_expr_eval_and_add_scale(rng):
    dims = Dims(n=2, l=2, m=1)
    p = Poly.monomial(dims, {"z1": 1, "zb'1": 1}, 0.5)
    e = KernelExpr(p, Extension(2, 1))
    z, zp = _pts(rng, 2), _pts(rng, 1)
    want = 0.5 * z[0] * np.conj(zp[0]) * _gaussian(Extension(2, 1), z, zp)
    assert abs(e.evaluate_batch(z[None], zp[None])[0, 0, 0] - want) < 1e-13
    two = e.add(e)
    assert abs(two.evaluate_batch(z[None], zp[None])[0, 0, 0] - 2 * want) < 1e-13
    assert abs(e.scale(-3.0).evaluate_batch(z[None], zp[None])[0, 0, 0] + 3 * want) < 1e-13
    with pytest.raises(ValueError):
        e.add(unit_expr(Bergman(2)))


def test_adjoint_swaps_kind_and_duality(rng):
    # matrix-fiber duality: adjoint kernel value is the conjugate transpose
    # of the original evaluated with swapped arguments.
    dims = Dims(n=2, l=2, m=1, fiber_rank=2)
    coef = np.array([[1.0 + 0.5j, 0.25], [0.0, -1.0j]])
    p = Poly.monomial(dims, {"z1": 1, "z2": 2, "zb'1": 1}, coef)
    e = KernelExpr(p, Extension(2, 1))
    a = e.adjoint()
    assert isinstance(a.kind, Restriction)
    assert isinstance(a.adjoint().kind, Extension)
    pts = [(_pts(rng, 2), _pts(rng, 1)) for _ in range(25)]
    Z, Zp = np.array([z for z, _ in pts]), np.array([zp for _, zp in pts])
    lhs = a.evaluate_batch(Zp, Z)
    rhs = e.evaluate_batch(Z, Zp).conj().transpose(0, 2, 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unit_restriction_extension_duality(rng):
    for n, m in ((1, 0), (2, 1), (3, 1), (4, 2)):
        res, ext = unit_expr(Restriction(n, m)), unit_expr(Extension(n, m))
        pts = [(_pts(rng, m), _pts(rng, n)) for _ in range(10)]
        zy, w = np.array([z for z, _ in pts]).reshape(10, m), np.array([v for _, v in pts])
        lhs = res.evaluate_batch(zy, w)[:, 0, 0]
        rhs = np.conj(ext.evaluate_batch(w, zy)[:, 0, 0])
        assert np.max(np.abs(lhs - rhs)) < 1e-13


@pytest.mark.parametrize("scalar, match", [("1e3", "a number"), (True, "a number"), (math.nan, "finite")])
def test_kernel_expr_scale_reads_its_scalar(scalar, match):
    # unit_expr(Bergman(1)).scale("1e3") used to multiply by 1000
    with pytest.raises(ValueError, match=f"^scalar must be {match}"):
        unit_expr(Bergman(1)).scale(scalar)
    assert unit_expr(Bergman(1)).scale(np.float32(2.0)).numerator.coefs[0, 0, 0] == 2.0


# -- ladder operators ---------------------------------------------------------------


def _numeric_ladder(e, j, which, slot, Z, Zp, h=1e-5):
    """Finite-difference application of the analytic ladder operator."""

    def val(z, zp):
        return e.evaluate_batch(z[None], zp[None])[0, 0, 0]

    Z = np.asarray(Z, dtype=complex).copy()
    Zp = np.asarray(Zp, dtype=complex).copy()

    def shifted(dv):
        z, zp = Z.copy(), Zp.copy()
        if slot == "unprimed":
            z[j - 1] += dv
        else:
            zp[j - 1] += dv
        return val(z, zp)

    fx = (shifted(h) - shifted(-h)) / (2 * h)
    fy = (shifted(1j * h) - shifted(-1j * h)) / (2 * h)
    d_hol = 0.5 * (fx - 1j * fy)  # d/dz
    d_anti = 0.5 * (fx + 1j * fy)  # d/dzbar
    w = Z[j - 1] if slot == "unprimed" else Zp[j - 1]
    if slot == "unprimed":
        if which == "creation":
            return -2.0 * d_hol + PI * np.conj(w) * val(Z, Zp)
        return 2.0 * d_anti + PI * w * val(Z, Zp)
    if which == "creation":
        return -2.0 * d_anti + PI * w * val(Z, Zp)
    return 2.0 * d_hol + PI * np.conj(w) * val(Z, Zp)


@pytest.mark.parametrize("which", ["creation", "annihilation"])
@pytest.mark.parametrize("slot", ["unprimed", "primed"])
def test_ladder_matches_finite_differences(rng, which, slot):
    dims = Dims(n=2, l=2, m=1)
    cases = [
        (unit_expr(Bergman(2)), 1),
        (unit_expr(Bergman(2)), 2),
        (KernelExpr(Poly.monomial(dims, {"z1": 1, "zb2": 1}), Bergman(2)), 2),
        (unit_expr(OrthBergman(2, 1)), 1),
        (unit_expr(OrthBergman(2, 1)), 2),
    ]
    if slot == "unprimed":
        cases.append((KernelExpr(Poly.monomial(dims, {"z2": 2}), Extension(2, 1)), 2))
    for e, j in cases:
        out = apply_ladder(e, j, which, slot)
        for _ in range(4):
            Z = _pts(rng, e.kind.du) * 0.5
            Zp = _pts(rng, e.kind.dp) * 0.5
            got = out.evaluate_batch(Z[None], Zp[None])[0, 0, 0]
            want = _numeric_ladder(e, j, which, slot, Z, Zp)
            assert abs(got - want) < 2e-7 * max(1.0, abs(want))


def test_annihilation_kills_unit_kernels():
    for kind in (Bergman(2), OrthBergman(2, 1), Extension(2, 1)):
        e = unit_expr(kind)
        for j in range(1, kind.du + 1):
            assert apply_ladder(e, j, "annihilation").numerator.is_zero()
        for j in range(1, kind.dp + 1):
            assert apply_ladder(e, j, "annihilation", "primed").numerator.is_zero()


def test_creation_on_bergman_golden():
    # creation_j on the unit kernel multiplies by 2 pi (zb_j - zb'_j).
    n = 2
    e = unit_expr(Bergman(n))
    for j in (1, 2):
        got = apply_ladder(e, j, "creation")
        dims = e.numerator.dims
        want = Poly.monomial(dims, {f"zb{j}": 1}, 2 * PI).add(
            Poly.monomial(dims, {f"zb'{j}": 1}, -2 * PI)
        )
        assert got.numerator.max_coef_diff(want) < 1e-14


def test_ladder_commutator_is_4pi(rng):
    # [annihilation, creation] = 4 pi, checked on random numerators.
    from conftest import random_kernel_expr

    for kind, slot in ((Bergman(2), "unprimed"), (Bergman(2), "primed"), (Extension(2, 1), "unprimed")):
        e = random_kernel_expr(rng, kind, max_deg=3)
        for j in range(1, (kind.du if slot == "unprimed" else kind.dp) + 1):
            ac = apply_ladder(apply_ladder(e, j, "creation", slot), j, "annihilation", slot)
            ca = apply_ladder(apply_ladder(e, j, "annihilation", slot), j, "creation", slot)
            comm = ac.numerator.add(ca.numerator.scale(-1.0))
            assert comm.max_coef_diff(e.numerator.scale(4 * PI)) < 1e-10


def test_ladder_errors():
    e = unit_expr(Bergman(1))
    with pytest.raises(ValueError):
        apply_ladder(e, 1, "raise")
    with pytest.raises(ValueError):
        apply_ladder(e, 1, "creation", "sideways")
    with pytest.raises(ValueError):
        apply_ladder(e, 2, "creation")
    # 1.5 used to end in an IndexError and True was read as 1; 1.0 is read as 1
    for j in (1.5, True):
        with pytest.raises(ValueError, match="ladder coordinate must be an integer"):
            apply_ladder(e, j, "creation")
    assert apply_ladder(e, 1.0, "creation").numerator.max_coef_diff(apply_ladder(e, 1, "creation").numerator) == 0
    with pytest.raises(ValueError):
        apply_ladder(unit_expr(Extension(2, 1)), 2, "creation", "primed")
    # the Laplacian checks its slot too, also where a slot has no coordinates
    for kind in (Bergman(1), Extension(2, 0)):
        with pytest.raises(ValueError, match="bad slot 'sideways'"):
            apply_model_laplacian(unit_expr(kind), "sideways")


def _ladder_family():
    """Seeded numerators for the ladder pins: ranks 1 and 2 on kinds with coupled
    and uncoupled coordinates, plus hand-built ones whose images collide within
    one coordinate (creation_1 sends both 1 and z1 zb1 to zb1, and the pi
    coefficient cancels that row exactly) and across coordinates."""
    rng = np.random.default_rng(20261019)
    kinds = (Bergman(1), Bergman(2), OrthBergman(2, 1), OrthBergman(3, 1), Extension(2, 1), Restriction(2, 1))
    for kind in kinds:
        for r in (1, 2):
            dims = Dims(n=kind.n, l=kind.n, m=kind.m, fiber_rank=r)
            yield KernelExpr(trim_poly_for_kind(random_poly(rng, dims, max_deg=3, n_terms=6), kind), kind)
    one = Dims(n=1, l=1, m=1)
    rows = {(0, 0, 0, 0): 1.0, (1, 1, 0, 0): PI, (0, 1, 0, 1): -0.5j, (1, 0, 1, 0): 2.0}
    yield KernelExpr(Poly(one, rows), Bergman(1))
    two = Dims(n=2, l=2, m=1, fiber_rank=2)
    m = np.array([[1.0, -2.0], [0.5j, 3.0]])
    rows = {(0,) * 8: m, (1, 1, 0, 0, 0, 0, 0, 0): PI * m, (0, 0, 0, 0, 1, 1, 0, 0): -m, (0, 0, 1, 1, 0, 0, 2, 0): 1j * m}
    yield KernelExpr(Poly(two, rows), OrthBergman(2, 1))
    # z1 zb1 z2 zb2 gets two Laplacian rows from each coordinate, so summing
    # coordinate by coordinate and summing all rows in turn round differently
    rows = {(2, 2, 0, 0, 1, 1, 0, 0): 0.3, (1, 1, 0, 0, 2, 2, 0, 0): 0.7, (1, 1, 0, 0, 1, 1, 0, 0): 0.45}
    yield KernelExpr(Poly(Dims.of(2), rows), Bergman(2))


def _slot_dims(kind):
    return (("unprimed", kind.du), ("primed", kind.dp))


def test_ladder_images_fit_their_kind():
    # apply_ladder builds its image unchecked (KernelExpr._of): on a numerator using
    # every variable its kind allows, each step's image must pass the checked constructor
    variables = {"unprimed": ("z", "zb"), "primed": ("z'", "zb'")}
    for n in (1, 2, 3):
        for kind in [Bergman(n)] + [K(n, m) for K in (OrthBergman, Extension, Restriction) for m in range(n + 1)]:
            dims = Dims(n=n, l=n, m=kind.m)
            powers = {f"{v}{i}": 1 for slot, dim in _slot_dims(kind) for i in range(1, dim + 1) for v in variables[slot]}
            e = KernelExpr(Poly.monomial(dims, powers).add(Poly.one(dims)), kind)
            for slot, dim in _slot_dims(kind):
                for j in range(1, dim + 1):
                    for which in ("creation", "annihilation"):
                        image = apply_ladder(e, j, which, slot)
                        assert KernelExpr(image.numerator, image.kind).kind == kind, (kind, slot, j, which)


# sha256 of the ``table`` bytes of every ladder step (both kinds, both slots,
# every coordinate) and of the model Laplacian in both slots, over
# :func:`_ladder_family`.
PINNED_LADDER_SHA256 = "26f1c88f9c9b376dbc041d7adfbc4c3a9c89d07485f879e934c356fccb9b0ccd"


def test_ladder_output_bytes_are_pinned():
    h = hashlib.sha256()
    for e in _ladder_family():
        for slot, dim in _slot_dims(e.kind):
            for j in range(1, dim + 1):
                for which in ("creation", "annihilation"):
                    for a in apply_ladder(e, j, which, slot).numerator.table:
                        h.update(a.tobytes())
            for a in apply_model_laplacian(e, slot).numerator.table:
                h.update(a.tobytes())
    assert h.hexdigest() == PINNED_LADDER_SHA256


_HUGE_STATE = KernelExpr(Poly.monomial(Dims.of(1), {"z1": 1, "zb1": 1}, 1e308), Bergman(1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_ladder(_HUGE_STATE, 1, "creation"),
        lambda: apply_ladder(_HUGE_STATE, 1, "annihilation"),
        lambda: apply_model_laplacian(_HUGE_STATE),
    ],
    ids=["creation", "annihilation", "laplacian"],
)
def test_an_overflowing_ladder_step_is_refused_without_a_warning(call):
    # numpy's overflow warning (an error under this suite's filter) used to come first
    with pytest.raises(ValueError, match="^non-finite coefficient$"):
        call()


def test_model_laplacian_is_the_sum_of_ladder_pairs():
    for e in _ladder_family():
        for slot, dim in _slot_dims(e.kind):
            want = Poly.zero(e.dims)
            for j in range(1, dim + 1):
                pair = apply_ladder(apply_ladder(e, j, "annihilation", slot), j, "creation", slot)
                want = want.add(pair.numerator)
            assert apply_model_laplacian(e, slot).numerator.max_coef_diff(want) == 0


def test_model_laplacian_eigenrelation():
    # creation^alpha states are 4 pi |alpha| eigenfunctions, symbolically.
    for n, alpha, beta in ((1, (2,), (1,)), (2, (1, 1), (0, 2)), (2, (0, 3), (1, 0))):
        dims = Dims(n=n, l=n, m=0)
        powers = {f"z{i + 1}": beta[i] for i in range(n) if beta[i]}
        state = KernelExpr(
            Poly.monomial(dims, powers) if powers else Poly.one(dims), Extension(n, 0)
        )
        for j in range(1, n + 1):
            for _ in range(alpha[j - 1]):
                state = apply_ladder(state, j, "creation")
        lap = apply_model_laplacian(state)
        want = state.numerator.scale(4 * PI * sum(alpha))
        assert lap.numerator.max_coef_diff(want) < 1e-8 * max(1.0, 4 * PI * sum(alpha))


# -- serialization ----------------------------------------------------------------------


def test_kernel_expr_json_round_trip(rng):
    from conftest import random_kernel_expr

    for kind in (Bergman(2), OrthBergman(2, 1), Extension(3, 1), Restriction(2, 1)):
        e = random_kernel_expr(rng, kind, fiber_rank=2)
        d = e.to_json_dict()
        back = KernelExpr.from_json_dict(d)
        assert back.kind == e.kind
        assert back.numerator.max_coef_diff(e.numerator) < 1e-15
    with pytest.raises(ValueError):
        KernelExpr.from_json_dict({"dims": {"n": 1}, "kind": "Bergman", "terms": [], "x": 1})


@pytest.mark.parametrize(
    "kind, dims",
    [
        (Bergman(2), Dims.of(2, m=0)),
        (OrthBergman(2, 1), Dims.of(2, m=0)),
        (Extension(3, 1), Dims.of(3)),
        (Restriction(3, 1), Dims(n=3, l=1, m=0, fiber_rank=2)),
    ],
)
def test_kernel_json_keeps_the_kind_whatever_the_numerator_dims(kind, dims):
    # kernel/1 used to carry the numerator's own m, so OrthBergman(2,1) read back
    # as OrthBergman(2,0) and Extension(3,1) as Extension(3,3)
    e = KernelExpr(Poly.one(dims), kind)
    back = KernelExpr.from_json_dict(e.to_json_dict())
    assert (type(back.kind), back.kind) == (type(kind), kind)
    assert back.dims.fiber_rank == dims.fiber_rank
    assert back.numerator.max_coef_diff(e.numerator) == 0.0
