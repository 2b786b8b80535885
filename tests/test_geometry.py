"""Sampled-geometry constants: eigensolver, C0, C3/C4, defect coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockcalc import (
    C3C4Result,
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
from fockcalc.geometry import _tensor_norm

from conftest import complex_rows

PI = math.pi


def wy(dir_id, d_scal=0.0, nabla=None):
    return NormalDirection(id=dir_id, level="WY", d_scal_diff=d_scal, nabla_lambda_diff=nabla)


def data_with(samples, dims=(1, 2), fiber_rank=1):
    return GeometryData(dims=dims, fiber_rank=fiber_rank, samples=tuple(samples))


# -- data model ---------------------------------------------------------------------


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
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigs(np.array([[1.0, 0.0], [0.0, np.nan]]))


# -- C0 -----------------------------------------------------------------------------


def test_c0_scalar_case():
    s1 = GeometrySample(id="low", normal_dirs=(wy("d", d_scal=8.0 * PI),))
    s2 = GeometrySample(id="high", normal_dirs=(wy("d", d_scal=24.0 * PI),))
    out = c0(data_with([s1, s2]))
    assert abs(float(out) - 3.0 / math.sqrt(PI)) < 1e-14
    assert out.sample_id == "high"


def test_c0_scalar_euclidean_norm():
    # rank one: the sup over unit direction combinations is the plain 2-norm
    dirs = (wy("a", d_scal=8.0 * PI * 3.0), wy("b", d_scal=8.0 * PI * 4.0))
    out = c0(data_with([GeometrySample(id="s", normal_dirs=dirs)]))
    assert abs(float(out) - 5.0 / math.sqrt(PI)) < 1e-12


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
    assert abs(float(out) - math.sqrt(17.0) / math.sqrt(PI)) < 1e-10


def test_c0_rank_one_family():
    # every direction a multiple of one matrix M: sup is ||c||_2 * ||M||
    M = np.array([[0.0, 2.0], [0.0, 0.0]])
    d1 = wy("a", nabla=-2j * PI * 1.0 * M)
    d2 = wy("b", nabla=-2j * PI * 2.0 * M)
    out = c0(data_with([GeometrySample(id="s", normal_dirs=(d1, d2))], fiber_rank=2))
    want = math.sqrt(5.0) * 2.0 / math.sqrt(PI)
    assert abs(float(out) - want) < 1e-10


def test_c0_rank_two_golden():
    # the direction matrix is -[[2, -1], [-1, 2]], with singular values 1 and 3;
    # a power iteration started from the ones vector (the singular vector for
    # 1) never leaves it and reads this constant low
    d = wy("a", nabla=2j * PI * np.array([[2.0, -1.0], [-1.0, 2.0]]))
    out = c0(data_with([GeometrySample(id="s", normal_dirs=(d,))], fiber_rank=2))
    assert abs(float(out) - 3.0 / math.sqrt(PI)) < 1e-12


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda D: st.integers(min_value=2, max_value=3).flatmap(
            lambda r: complex_rows(D * r, r).map(lambda rows: list(rows.reshape(D, r, r)))
        )
    )
)
def test_tensor_norm_lies_in_its_bracket(mats):
    r = mats[0].shape[0]
    got = _tensor_norm(mats, r, seed=0)
    lower = max(np.linalg.norm(m, 2) for m in mats)
    upper = math.sqrt(max(np.linalg.eigvalsh(sum(m.conj().T @ m for m in mats))[-1], 0.0))
    slack = 1e-12 * max(1.0, upper)
    assert lower - slack <= got <= upper + slack
    if len(mats) == 1:
        assert abs(got - lower) <= slack


def test_constant_result_shape():
    out = ConstantResult(value=1.5, sample_id="s")
    assert float(out) == 1.5
    assert out.to_json_dict() == {"value": 1.5, "sample_id": "s"}


# -- C3 / C4 -------------------------------------------------------------------------


def test_c3_c4_constant_scalar():
    s = GeometrySample(id="a", scal_X=16.0 * PI, scal_Y=0.0)
    res = c3_c4(data_with([s]))
    c3, c4 = res
    assert abs(c3 - (-1.0)) < 1e-14
    assert abs(c4 - 1.0) < 1e-14
    assert res.c3_sample_id == "a" and res.c4_sample_id == "a"


def test_c3_c4_matrix_case():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues -1, 1
    s = GeometrySample(id="a", lambda_RF_X=2j * PI * H)
    res = c3_c4(data_with([s], fiber_rank=2))
    assert abs(res.c3 - 0.5) < 1e-12
    assert abs(res.c4 - 0.5) < 1e-12


def test_c3_c4_monotone_and_stable():
    s1 = GeometrySample(id="a", scal_X=8.0 * PI)
    s2 = GeometrySample(id="b", scal_X=-16.0 * PI)
    small = c3_c4(data_with([s1]))
    big = c3_c4(data_with([s1, s2]))
    assert big.c3 >= small.c3 - 1e-15 and big.c4 >= small.c4 - 1e-15
    assert big.c3_sample_id == "b" and big.c4_sample_id == "a"
    reordered = c3_c4(data_with([s2, s1]))
    assert (reordered.c3, reordered.c4) == (big.c3, big.c4)
    d = big.to_json_dict()
    assert set(d) == {"C3", "C4", "c3_sample_id", "c4_sample_id"}
    assert isinstance(C3C4Result(0.0, 0.0, "x", "y").to_json_dict(), dict)


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
