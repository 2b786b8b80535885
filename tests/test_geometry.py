"""Sampled-geometry constants: eigensolver, C0, C3/C4, defect coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockcalc import (
    ConstantResult,
    GEOM_SCHEMA,
    GeometryData,
    GeometrySample,
    NormalDirection,
    c0,
    c3_c4,
    dp3,
    hermitian_eigs,
    tower_dp3,
)
from fockcalc import geometry
from fockcalc.geometry import _tensor_norm

from conftest import complex_rows

PI = math.pi


def wy(dir_id, d_scal=0.0, nabla=None):
    return NormalDirection(id=dir_id, level="WY", d_scal_diff=d_scal, nabla_lambda_diff=nabla)


def data_with(samples, dims=(1, 2), fiber_rank=1):
    return GeometryData(dims=dims, fiber_rank=fiber_rank, samples=tuple(samples))


# -- data model ---------------------------------------------------------------------


def test_geometry_data_rejects_boolean_dims():
    with pytest.raises(ValueError, match="dims entry must be an integer"):
        GeometryData(dims=(True, 2), samples=(GeometrySample(id="a"),))
    with pytest.raises(ValueError, match="fiber_rank must be an integer"):
        GeometryData(dims=(1, 2), fiber_rank=1.5, samples=(GeometrySample(id="a"),))


def test_validation_errors():
    with pytest.raises(ValueError, match="level"):
        NormalDirection(id="d", level="YZ")
    with pytest.raises(ValueError, match="kappa"):
        GeometrySample(id="a", kappa=0.0)
    with pytest.raises(ValueError, match="duplicate direction"):
        GeometrySample(id="a", normal_dirs=(wy("d"), wy("d")))
    good = GeometrySample(id="a", normal_dirs=(wy("d", d_scal=1.0),))
    with pytest.raises(ValueError, match="fiber_rank"):
        data_with([good], fiber_rank=0)
    with pytest.raises(ValueError, match="chain"):
        data_with([good], dims=(2,))
    with pytest.raises(ValueError, match="non-decreasing"):
        data_with([good], dims=(3, 1))
    with pytest.raises(ValueError, match="non-empty"):
        data_with([])
    with pytest.raises(ValueError, match="unique"):
        data_with([good, good])
    with pytest.raises(ValueError, match="not Hermitian"):
        data_with([GeometrySample(id="a", lambda_RF_X=np.array([[1.0]]))])
    # 2 pi i times a Hermitian matrix is accepted
    data_with([GeometrySample(id="a", lambda_RF_X=2j * PI * np.array([[3.0]]))])


def test_constructors_read_reals_and_ids_like_the_loader():
    # the geom/1 loader passes reals and ids to the constructors, which read them
    s = GeometrySample(id="a", scal_X=2, kappa=np.float64(0.5), normal_dirs=(wy("d", d_scal=3),))
    assert (type(s.scal_X), type(s.kappa), type(s.normal_dirs[0].d_scal_diff)) == (float, float, float)
    for bad in ("2", True, None):
        with pytest.raises(ValueError, match="kappa of sample 'a' must be a real number"):
            GeometrySample(id="a", kappa=bad)
        with pytest.raises(ValueError, match="d_scal_diff of direction 'd' must be a real number"):
            wy("d", d_scal=bad)
    with pytest.raises(ValueError, match="sample id must be a string"):
        GeometrySample(id=None)
    with pytest.raises(ValueError, match="direction id must be a string"):
        wy(1)


def test_constructors_reject_non_finite_and_misshapen_matrices():
    # each was accepted at construction and failed, or read 0.0, only once a
    # constant read the matrix
    for nabla, match in (([[math.nan, 0.0], [0.0, 1.0]], "non-finite"), (np.eye(3), "must be 2x2")):
        with pytest.raises(ValueError, match=match):
            data_with([GeometrySample(id="s", normal_dirs=(wy("d", nabla=nabla),))], fiber_rank=2)
    with pytest.raises(ValueError, match="non-finite"):
        data_with([GeometrySample(id="s", lambda_RF_X=[[math.nan]], normal_dirs=(wy("d", d_scal=1.0),))])


@pytest.mark.parametrize("value", ["2j", True, [[None]]])
def test_constructors_reject_matrices_of_non_numbers(value):
    # nabla_lambda_diff="2j" used to be read as 2j and True as 1
    with pytest.raises(ValueError, match=r"^nabla_lambda_diff\[d\] must be a number or a matrix of numbers"):
        data_with([GeometrySample(id="s", normal_dirs=(wy("d", nabla=value),))])
    with pytest.raises(ValueError, match=r"^lambda_RF_Y\[s\] must be a number or a matrix of numbers"):
        data_with([GeometrySample(id="s", lambda_RF_Y=value, normal_dirs=(wy("d", d_scal=1.0),))])
    with pytest.raises(ValueError, match=r"^nabla_lambda_diff\[d\] must be a number"):
        wy("d", nabla=value).matrix(1)


def test_json_round_trip():
    h = 2j * PI * np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])
    sample = GeometrySample(
        id="p0",
        scal_X=3.0,
        scal_Y=1.0,
        scal_W=2.0,
        lambda_RF_X=h,
        lambda_RF_Y=np.zeros((2, 2)),
        lambda_RF_W=0.5 * h,
        kappa=2.0,
        normal_dirs=(
            wy("e1", d_scal=1.5, nabla=np.eye(2) * 1.0j),
            NormalDirection(id="f1", level="XW", d_scal_diff=0.25),
        ),
    )
    data = data_with([sample], dims=(1, 2, 4), fiber_rank=2)
    d = data.to_json_dict()
    assert d["schema"] == GEOM_SCHEMA
    back = GeometryData.from_json_dict(d)
    assert back.to_json_dict() == d


def test_json_validation():
    base = data_with([GeometrySample(id="a")]).to_json_dict()
    with pytest.raises(ValueError, match="schema"):
        GeometryData.from_json_dict({**base, "schema": "geom/9"})
    with pytest.raises(ValueError, match="unknown geometry keys"):
        GeometryData.from_json_dict({**base, "extra": 1})
    bad_sample = {**base, "samples": [{**base["samples"][0], "note": "x"}]}
    with pytest.raises(ValueError, match="unknown sample keys"):
        GeometryData.from_json_dict(bad_sample)
    rec = dict(base["samples"][0])
    rec["normal_dirs"] = [{"id": "d", "level": "WY", "typo": 1}]
    with pytest.raises(ValueError, match="unknown direction keys"):
        GeometryData.from_json_dict({**base, "samples": [rec]})


@pytest.mark.parametrize(
    "what, key",
    [("geometry", "schema"), ("geometry", "dims"), ("geometry", "samples"), ("sample", "id"), ("direction", "id"), ("direction", "level")],
)
def test_json_loader_names_a_missing_field(what, key):
    # each used to raise a bare KeyError
    d = data_with([GeometrySample(id="a", normal_dirs=(NormalDirection("d", "WY"),))]).to_json_dict()
    rec = {"geometry": d, "sample": d["samples"][0], "direction": d["samples"][0]["normal_dirs"][0]}[what]
    del rec[key]
    with pytest.raises(ValueError, match=f"^missing '{key}' field in {what}$"):
        GeometryData.from_json_dict(d)


def test_json_non_object_is_refused_by_name():
    # the payload is read as an object before its schema (a list used to raise AttributeError)
    with pytest.raises(ValueError, match="^geometry must be a JSON object, got list$"):
        GeometryData.from_json_dict([1, 2])


# -- eigensolver ---------------------------------------------------------------------


def test_hermitian_eigs_goldens():
    assert np.allclose(hermitian_eigs(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])
    pauli_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert np.allclose(hermitian_eigs(pauli_y), [-1.0, 1.0])
    assert np.allclose(hermitian_eigs(2.5), [2.5])
    assert np.allclose(hermitian_eigs(np.array([[4.0]])), [4.0])


def test_hermitian_eigs_random(rng):
    for r in (2, 3, 4, 6):
        raw = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        H = raw + raw.conj().T
        got = hermitian_eigs(H)
        want = np.linalg.eigvalsh(H)
        assert np.max(np.abs(got - want)) < 1e-10
        assert abs(np.sum(got) - np.trace(H).real) < 1e-10
        assert abs(np.sum(got**2) - np.sum(np.abs(H) ** 2)) < 1e-8


def test_hermitian_eigs_no_false_non_convergence():
    # A cyclic-Jacobi sweep once raised RuntimeError on this matrix: its
    # off-diagonal norm, taken as sum|A|^2 - sum|diag|^2, cancelled to ~3e-7.
    rng = np.random.default_rng(1)
    M = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    H = M + M.conj().T
    assert np.max(np.abs(hermitian_eigs(H) - np.linalg.eigvalsh(H))) <= 1e-12


def test_hermitian_eigs_errors():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        hermitian_eigs(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^matrix must be a number or a matrix of numbers"):
        hermitian_eigs([["2", 0.0], [0.0, True]])  # once read as diag(2, 1)
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigs(np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_hermitian_eigs_near_the_float_maximum():
    # symmetrizing as (A + A^H) / 2 once overflowed finite input to nan
    assert hermitian_eigs(np.diag([1e308, -1e308])).tolist() == [-1e308, 1e308]
    with pytest.raises(ValueError, match="^an eigenvalue overflows a float$"):
        hermitian_eigs(np.full((2, 2), 1e308))
    # H - H^H, or the largest |entry| that scales the tolerance, leaves float
    # range: each is refused without a RuntimeWarning (an infinite tolerance
    # once let the second matrix, with its non-real diagonal, through)
    for H in ([[0.0, 1e308], [-1e308, 0.0]], [[1.7e308 + 1.7e308j, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match=r"not Hermitian within tolerance \(deviation inf\)"):
            hermitian_eigs(np.array(H))


def test_hermitian_eigs_symmetrizes_to_the_same_bits(rng):
    # A/2 + A^H/2 equals (A + A^H)/2 wherever the halves are normal floats
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
        raw = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        H = raw + raw.conj().T
        H[0, 1] += scale * 1e-12  # Hermitian within tolerance, not exactly
        want = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
        assert hermitian_eigs(H).tobytes() == want.tobytes()


def test_hermitian_eigs_of_an_empty_matrix():
    # the Hermitian test once took the maximum of an empty array and raised
    assert hermitian_eigs(np.zeros((0, 0))).shape == (0,)


# -- C0 -----------------------------------------------------------------------------


def test_c0_scalar_case():
    s1 = GeometrySample(id="low", normal_dirs=(wy("d", d_scal=8.0 * PI),))
    s2 = GeometrySample(id="high", normal_dirs=(wy("d", d_scal=24.0 * PI),))
    out = c0(data_with([s1, s2]))
    assert abs(out.value - 3.0 / math.sqrt(PI)) < 1e-14
    assert out.sample_id == "high"


def test_c0_scalar_euclidean_norm():
    # rank one: the sup over unit direction combinations is the plain 2-norm
    dirs = (wy("a", d_scal=8.0 * PI * 3.0), wy("b", d_scal=8.0 * PI * 4.0))
    out = c0(data_with([GeometrySample(id="s", normal_dirs=dirs)]))
    assert abs(out.value - 5.0 / math.sqrt(PI)) < 1e-12


def test_c0_requires_wy_direction():
    xw_only = GeometrySample(
        id="a", normal_dirs=(NormalDirection(id="f", level="XW", d_scal_diff=1.0),)
    )
    with pytest.raises(ValueError, match="direction data"):
        c0(data_with([xw_only]))


def test_c0_commuting_matrix_case():
    # diagonal direction matrices: sup_u ||u1 D1 + u2 D2|| = max_j ||(D1_jj, D2_jj)||
    d1 = wy("a", nabla=-2j * PI * np.diag([3.0, 1.0]))
    d2 = wy("b", nabla=-2j * PI * np.diag([0.0, 4.0]))
    out = c0(data_with([GeometrySample(id="s", normal_dirs=(d1, d2))], fiber_rank=2))
    assert abs(out.value - math.sqrt(17.0) / math.sqrt(PI)) < 1e-10


def test_c0_rank_one_family():
    # every direction a multiple of one matrix M: sup is ||c||_2 * ||M||
    M = np.array([[0.0, 2.0], [0.0, 0.0]])
    d1 = wy("a", nabla=-2j * PI * 1.0 * M)
    d2 = wy("b", nabla=-2j * PI * 2.0 * M)
    out = c0(data_with([GeometrySample(id="s", normal_dirs=(d1, d2))], fiber_rank=2))
    want = math.sqrt(5.0) * 2.0 / math.sqrt(PI)
    assert abs(out.value - want) < 1e-10


def test_c0_rank_two_golden():
    # the direction matrix is -[[2, -1], [-1, 2]], with singular values 1 and 3;
    # a power iteration started from the ones vector (the singular vector for
    # 1) never leaves it and reads this constant low
    d = wy("a", nabla=2j * PI * np.array([[2.0, -1.0], [-1.0, 2.0]]))
    out = c0(data_with([GeometrySample(id="s", normal_dirs=(d,))], fiber_rank=2))
    assert abs(out.value - 3.0 / math.sqrt(PI)) < 1e-12


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda D: st.integers(min_value=2, max_value=3).flatmap(
            lambda r: complex_rows(D * r, r).map(lambda rows: list(rows.reshape(D, r, r)))
        )
    )
)
def test_tensor_norm_lies_in_its_bracket(mats):
    r = mats[0].shape[0]
    got = _tensor_norm(mats, r)
    lower = max(np.linalg.norm(m, 2) for m in mats)
    upper = math.sqrt(max(np.linalg.eigvalsh(sum(m.conj().T @ m for m in mats))[-1], 0.0))
    slack = 1e-12 * max(1.0, upper)
    assert lower - slack <= got <= upper + slack
    if len(mats) == 1:
        assert abs(got - lower) <= slack


def test_c0_lies_in_its_bracket():
    # The tensor norm of the family M_d lies in [max_d ||M_d||_2, min(a, b)],
    # a = sqrt(lambda_max(sum M_d^H M_d)), b = sqrt(lambda_max(sum M_d M_d^H)).
    # A value the alternating maximisation left slightly low would still lie
    # inside, so this does not catch that; the Bloch-sphere test below does.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        D, r = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        mats = rng.normal(size=(D, r, r)) + 1j * rng.normal(size=(D, r, r))
        if seed % 2:
            mats = 1j * (mats + mats.conj().transpose(0, 2, 1)) / 2
        dirs = tuple(wy(f"d{d}", nabla=-2j * PI * M) for d, M in enumerate(mats))
        got = c0(data_with([GeometrySample(id="s", normal_dirs=dirs)], fiber_rank=r)).value * math.sqrt(PI)
        lower = max(np.linalg.norm(M, 2) for M in mats)
        a = math.sqrt(np.linalg.eigvalsh(sum(M.conj().T @ M for M in mats))[-1])
        b = math.sqrt(np.linalg.eigvalsh(sum(M @ M.conj().T for M in mats))[-1])
        assert lower * (1 - 1e-12) <= got <= min(a, b) * (1 + 1e-12), seed


def _bloch_maximum(mats):
    """max over unit x in C^2 of sigma_max([M_1 x, ..., M_D x]), the tensor norm at r = 2:
    a 1-degree grid over the Bloch sphere, then twenty 21 x 21 grids, each a quarter as wide,
    around the best point so far."""

    def value(theta, phi):
        x = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        return np.linalg.svd(np.einsum("dij,nj->ndi", mats, x), compute_uv=False)[:, 0]

    theta, phi = (a.ravel() for a in np.meshgrid(np.linspace(0, PI, 181), np.linspace(0, 2 * PI, 361), indexing="ij"))
    best = int(value(theta, phi).argmax())
    t, p, h = theta[best], phi[best], PI / 180
    for _ in range(20):
        dt, dp = (a.ravel() for a in np.meshgrid(np.linspace(-h, h, 21), np.linspace(-h, h, 21), indexing="ij"))
        vals = value(t + dt, p + dp)
        best = int(vals.argmax())
        t, p, h = t + dt[best], p + dp[best], h / 4
    return float(vals[best])


def _seed_49_sample():
    """Seed 49 of the bracket family (D = 2, r = 2, Hermitian times i) as geom/1 directions,
    d_scal_diff = 0 and nabla_lambda_diff = -2 pi i M_d, whose direction matrices are the M_d."""
    rng = np.random.default_rng(49)
    D, r = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    mats = [rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)) for _ in range(D)]
    mats = np.array([1j * (M + M.conj().T) / 2 for M in mats])
    dirs = tuple(wy(f"d{d}", nabla=-2j * PI * M) for d, M in enumerate(mats))
    return mats, data_with([GeometrySample(id="s49", normal_dirs=dirs)], fiber_rank=r)


def test_c0_reaches_the_bloch_sphere_maximum():
    # each start used to stop after 80 iterations: this read 2.458646890398218,
    # 2.1e-6 below the maximum, 2.4586490273810537
    mats, data = _seed_49_sample()
    assert mats.shape == (2, 2, 2)
    want = _bloch_maximum(mats)
    assert c0(data).value * math.sqrt(PI) >= want * (1 - 1e-11)


def test_c0_that_is_not_stationary_within_the_cap_raises(monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_ITERATIONS", 80)
    _, data = _seed_49_sample()
    with pytest.raises(ValueError, match="^sample 's49': the tensor norm is not stationary after 80 iterations$"):
        c0(data)


def test_constant_result_shape():
    out = ConstantResult(value=1.5, sample_id="s")
    assert (out.value, out.sample_id) == (1.5, "s")


# -- C3 / C4 -------------------------------------------------------------------------


def test_c3_c4_constant_scalar():
    s = GeometrySample(id="a", scal_X=16.0 * PI, scal_Y=0.0)
    c3, c4 = c3_c4(data_with([s]))
    assert abs(c3.value - (-1.0)) < 1e-14
    assert abs(c4.value - 1.0) < 1e-14
    assert c3.sample_id == "a" and c4.sample_id == "a"


def test_c3_c4_matrix_case():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues -1, 1
    s = GeometrySample(id="a", lambda_RF_X=2j * PI * H)
    c3, c4 = c3_c4(data_with([s], fiber_rank=2))
    assert abs(c3.value - 0.5) < 1e-12
    assert abs(c4.value - 0.5) < 1e-12


def test_c3_c4_rank_two_golden():
    # H = (lambda_X - lambda_Y)/(2 pi i) = [[2, 1-i], [1+i, 3]] is complex and
    # non-diagonal, with trace 5 and determinant 4: eigenvalues 1 and 4
    B = np.array([[1.0, 0.5j], [-0.5j, -1.0]])
    H = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    s = GeometrySample(
        id="a", scal_X=24.0 * PI, scal_Y=8.0 * PI, lambda_RF_X=2j * PI * (H + B), lambda_RF_Y=2j * PI * B
    )
    c3, c4 = c3_c4(data_with([s], fiber_rank=2))
    # s = (scal_X - scal_Y)/(8 pi) = 2, so C3 = -(2 - 4)/2 and C4 = (2 - 1)/2;
    # the diagonal alone would give 0.5 and 0, the swapped difference -1.5 and 3
    assert abs(c3.value - 1.0) < 1e-12
    assert abs(c4.value - 0.5) < 1e-12


def test_c3_c4_monotone_and_stable():
    s1 = GeometrySample(id="a", scal_X=8.0 * PI)
    s2 = GeometrySample(id="b", scal_X=-16.0 * PI)
    small = c3_c4(data_with([s1]))
    big = c3_c4(data_with([s1, s2]))
    assert all(b.value >= s.value - 1e-15 for b, s in zip(big, small))
    assert [b.sample_id for b in big] == ["b", "a"]
    assert c3_c4(data_with([s2, s1])) == big


def test_c0_and_c3_c4_name_the_first_of_tied_samples():
    # equal samples under other ids: each constant names the first that attains it
    dirs = (wy("e1", d_scal=8.0 * PI), wy("e2", d_scal=-8.0 * PI))
    b, a, c = (GeometrySample(id=sid, scal_X=8.0 * PI, normal_dirs=dirs) for sid in "bac")
    low = GeometrySample(id="z", normal_dirs=(wy("e1"),))  # below the tie in C0, C3's term and C4's
    high = GeometrySample(id="y", scal_X=16.0 * PI, normal_dirs=(wy("e1"),))  # above it in both terms
    cases = [([b, a, c], "b", "b", "b"), ([low, b, a], "b", "z", "b"), ([high, c, b], "c", "c", "y")]
    for samples, c0_id, c3_id, c4_id in cases:
        data = data_with(samples)
        c3, c4 = c3_c4(data)
        assert (c0(data).sample_id, c3.sample_id, c4.sample_id) == (c0_id, c3_id, c4_id)


# -- dp3 and the tower ----------------------------------------------------------------


def _two_frame_sample(sid="s"):
    return GeometrySample(
        id=sid,
        normal_dirs=(
            wy("e1", d_scal=8.0 * PI),
            wy("e2", d_scal=16.0 * PI),
            NormalDirection(id="f1", level="XW", d_scal_diff=100.0),
        ),
    )


def test_dp3_goldens():
    data = data_with([_two_frame_sample()])
    assert np.allclose(dp3(data, {"e1": 1.0}), [[1.0]])
    # XW components contribute nothing
    assert np.max(np.abs(dp3(data, {"f1": 1.0}))) == 0.0
    # linear in the direction coefficients
    combo = dp3(data, {"e1": 2.0, "e2": -1.0j})
    assert np.allclose(combo, 2.0 * dp3(data, {"e1": 1.0}) - 1.0j * dp3(data, {"e2": 1.0}))


def test_dp3_sample_selection():
    other = GeometrySample(id="t", normal_dirs=(wy("e1", d_scal=24.0 * PI),))
    data = data_with([_two_frame_sample(), other])
    assert np.allclose(dp3(data, {"e1": 1.0}), [[1.0]])  # defaults to the first sample
    assert np.allclose(dp3(data, {"e1": 1.0}, sample_id="t"), [[3.0]])
    with pytest.raises(ValueError, match="unknown sample id"):
        dp3(data, {"e1": 1.0}, sample_id="nope")
    with pytest.raises(ValueError, match="not tabulated"):
        dp3(data, {"missing": 1.0})


def test_tower_single_level_matches_dp3():
    sample = _two_frame_sample()
    data = data_with([sample])
    direction = {"e1": 1.0, "e2": 0.5j}
    assert np.allclose(tower_dp3([sample], direction), dp3(data, direction))
    # an XW-level component counts in the tower but not in dp3
    assert np.max(np.abs(dp3(data, {"f1": 1.0}))) == 0.0
    assert np.allclose(tower_dp3([sample], {"f1": 1.0}), [[100.0 / (8.0 * PI)]], rtol=0, atol=1e-15)


def test_tower_telescopes():
    lower = GeometrySample(id="low", normal_dirs=(wy("e1", d_scal=8.0 * PI),))
    upper = GeometrySample(id="up", normal_dirs=(wy("e2", d_scal=16.0 * PI),))
    total = tower_dp3([lower, upper], {"e1": 1.0, "e2": 1.0})
    assert np.allclose(total, [[3.0]])
    # a direction tabulated at both levels accumulates level by level
    both = tower_dp3([lower, lower], {"e1": 1.0})
    assert np.allclose(both, [[2.0]])


def test_tower_flat_is_zero():
    flat = GeometrySample(id="f", normal_dirs=(wy("e1"), wy("e2")))
    assert np.max(np.abs(tower_dp3([flat], {"e1": 1.0, "e2": 1.0}))) == 0.0


# Rank 2: non-diagonal, non-Hermitian nabla_lambda_diff, so a transposed or
# conjugated matrix term would show.
_NABLA_A = 2.0 * PI * np.array([[0.0, 1.0], [-3.0, 0.0]])
_NABLA_B = np.array([[1.0 + 2.0j, 3.0 - 1.0j], [0.5j, -2.0]])


def _rank_two_closed_form(components):
    """sum_d c_d (d_scal_diff/(8 pi) I + (i/(2 pi)) nabla_lambda_diff)."""
    return sum(
        c * (d_scal / (8.0 * PI) * np.eye(2) + (1j / (2.0 * PI)) * nabla)
        for c, d_scal, nabla in components
    )


def _rank_two_sample(sid="r2"):
    return GeometrySample(
        id=sid,
        normal_dirs=(
            wy("a", d_scal=8.0 * PI, nabla=_NABLA_A),
            wy("b", d_scal=-3.0, nabla=_NABLA_B),
            NormalDirection(id="x", level="XW", d_scal_diff=5.0, nabla_lambda_diff=_NABLA_B),
        ),
    )


def test_dp3_rank_two_golden():
    data = data_with([_rank_two_sample()], fiber_rank=2)
    # d_scal = 8 pi gives I; (i/(2 pi)) * 2 pi [[0, 1], [-3, 0]] = [[0, i], [-3i, 0]]
    assert np.allclose(dp3(data, {"a": 1.0}), [[1.0, 1.0j], [-3.0j, 1.0]], rtol=0, atol=1e-15)
    got = dp3(data, {"a": 0.5 - 1.0j, "b": 2.0j, "x": 7.0})
    want = _rank_two_closed_form([(0.5 - 1.0j, 8.0 * PI, _NABLA_A), (2.0j, -3.0, _NABLA_B)])
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    flipped = _rank_two_closed_form([(0.5 - 1.0j, 8.0 * PI, _NABLA_A.T), (2.0j, -3.0, _NABLA_B.T)])
    assert np.max(np.abs(got - flipped)) > 0.1


def test_tower_rank_two_golden():
    lower = _rank_two_sample("low")
    upper = GeometrySample(id="up", normal_dirs=(wy("c", d_scal=1.0, nabla=_NABLA_B.conj()),))
    direction = {"a": 1.0, "b": -0.5, "c": 1.0j}
    got = tower_dp3([lower, upper], direction, fiber_rank=2)
    want = _rank_two_closed_form(
        [(1.0, 8.0 * PI, _NABLA_A), (-0.5, -3.0, _NABLA_B), (1.0j, 1.0, _NABLA_B.conj())]
    )
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    single = tower_dp3([lower], {"a": 1.0, "b": -0.5}, fiber_rank=2)
    assert np.array_equal(single, dp3(data_with([lower], fiber_rank=2), {"a": 1.0, "b": -0.5}))


def test_tower_errors():
    lower = GeometrySample(id="low", normal_dirs=(wy("e1"),))
    with pytest.raises(ValueError, match="at least one level"):
        tower_dp3([], {"e1": 1.0})
    with pytest.raises(ValueError, match="not tabulated in any level"):
        tower_dp3([lower], {"e9": 1.0})
    with pytest.raises(ValueError, match="^fiber_rank must be an integer"):
        tower_dp3([lower], {"e1": 1.0}, fiber_rank=1.5)


@pytest.mark.parametrize("rank", [0, -1])
def test_tower_rejects_a_fiber_rank_below_one(rank):
    # 0 gave a 0x0 matrix and -1 numpy's "negative dimensions are not allowed"
    lower = GeometrySample(id="low", normal_dirs=(wy("e1"),))
    with pytest.raises(ValueError, match=f"^fiber_rank must be >= 1, got {rank}$"):
        tower_dp3([lower], {"e1": 1.0}, fiber_rank=rank)


@pytest.mark.parametrize("value, match", [("1", "a number"), (True, "a number"), (None, "a number"), (math.nan, "finite")])
@pytest.mark.parametrize("component", ["e1", "f1"])
def test_dp3_and_tower_read_direction_coefficients(component, value, match):
    # a string coefficient used to be read as a number, and a NaN one gave a NaN matrix
    sample = _two_frame_sample()
    for call in (lambda d: dp3(data_with([sample]), d), lambda d: tower_dp3([sample], d)):
        with pytest.raises(ValueError, match=f"^direction coefficient '{component}' must be {match}"):
            call({component: value})
    with pytest.raises(ValueError, match="^direction must be a JSON object"):
        dp3(data_with([sample]), [("e1", 1.0)])
