"""Sampled geometry along the submanifold chain and the headline constants.

The package does no differential geometry: callers supply per-point samples
of scalar curvatures, curvature contractions, normal-direction derivative
data and the density kappa, following the ``geom/1`` JSON schema.  This
module evaluates the constants C0, C3, C4, the third-order defect
coefficient ``dp3`` and its tower generalization, with numpy's Hermitian
eigensolver (``eigvalsh``) underneath.  That eigen path,
:func:`hermitian_eigs`, lives in :mod:`.arrays` and is exported here.

Direction records are understood as an orthonormal frame of the relevant
normal space: every ``d_scal_diff`` / ``nabla_lambda_diff`` entry is the
derivative along one unit frame vector, and suprema over unit directions
range over unit-norm complex combinations of the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from . import _EXPORTS
from .arrays import _as_coef, _check_hermitian, _coef_from_json, _coef_to_json, hermitian_eigs
from .fields import GEOM_SCHEMA, _json_complex, _json_int, _json_list, _json_object, _json_real, _json_str

PI = math.pi


# -- data model -----------------------------------------------------------------


@dataclass(frozen=True)
class NormalDirection:
    """Derivative data along one unit normal frame vector."""

    id: str
    level: str  # "WY" or "XW"
    d_scal_diff: float = 0.0
    nabla_lambda_diff: np.ndarray | None = None

    def __post_init__(self) -> None:
        _json_str(self.id, "direction id")
        if self.level not in ("WY", "XW"):
            raise ValueError(f"direction level must be 'WY' or 'XW', got {self.level!r}")
        object.__setattr__(self, "d_scal_diff", _json_real(self.d_scal_diff, f"d_scal_diff of direction {self.id!r}"))

    def matrix(self, r: int) -> np.ndarray:
        return _field_matrix(self, "nabla_lambda_diff", r)

    def to_json_dict(self, r: int) -> dict:
        return {"id": self.id, "level": self.level, **_fields_to_json(self, _DIRECTION_FIELDS, r)}


@dataclass(frozen=True)
class GeometrySample:
    """Pointwise curvature data at one sample point of the submanifold."""

    id: str
    scal_X: float = 0.0
    scal_Y: float = 0.0
    scal_W: float | None = None
    lambda_RF_X: np.ndarray | None = None
    lambda_RF_Y: np.ndarray | None = None
    lambda_RF_W: np.ndarray | None = None
    kappa: float = 1.0
    normal_dirs: tuple[NormalDirection, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _json_str(self.id, "sample id")
        for name in ("scal_X", "scal_Y", "scal_W", "kappa"):
            value = getattr(self, name)
            if value is not None or name != "scal_W":  # scal_W alone is optional
                object.__setattr__(self, name, _json_real(value, f"{name} of sample {self.id!r}"))
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        ids = [d.id for d in self.normal_dirs]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate direction ids in sample {self.id!r}")

    def lam(self, which: str, r: int) -> np.ndarray:
        return _field_matrix(self, f"lambda_RF_{which}", r)


@dataclass(frozen=True)
class GeometryData:
    """A batch of geometry samples plus the dimension chain."""

    dims: tuple[int, ...]
    fiber_rank: int = 1
    samples: tuple[GeometrySample, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fiber_rank", _json_int(self.fiber_rank, "fiber_rank"))
        object.__setattr__(self, "dims", tuple(_json_int(v, "dims entry") for v in self.dims))
        if self.fiber_rank < 1:
            raise ValueError("fiber_rank must be >= 1")
        if len(self.dims) < 2 or any(d < 0 for d in self.dims):
            raise ValueError("dims must list the chain m <= ... <= n")
        if list(self.dims) != sorted(self.dims):
            raise ValueError("dims chain must be non-decreasing")
        if not self.samples:
            raise ValueError("sample list must be non-empty")
        ids = [s.id for s in self.samples]
        if len(ids) != len(set(ids)):
            raise ValueError("sample ids must be unique")
        r = self.fiber_rank
        for s in self.samples:
            for which in ("X", "Y", "W"):
                if getattr(s, f"lambda_RF_{which}") is not None:
                    H = s.lam(which, r) / (2j * PI)
                    _check_hermitian(H, f"lambda_RF_{which}[{s.id}] / (2 pi i) is not Hermitian")
            for d in s.normal_dirs:
                d.matrix(r)  # a wrong shape or a non-finite entry raises here

    def to_json_dict(self) -> dict:
        r = self.fiber_rank
        samples = [
            {
                "id": s.id,
                **_fields_to_json(s, _SAMPLE_FIELDS, r),
                "normal_dirs": [d.to_json_dict(r) for d in s.normal_dirs],
                **_fields_to_json(s, _SAMPLE_W_FIELDS, r),
            }
            for s in self.samples
        ]
        return {"schema": GEOM_SCHEMA, "dims": list(self.dims), "fiber_rank": r, "samples": samples}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "GeometryData":
        d = _json_object(d, "geometry", ("schema", "dims", "fiber_rank", "samples"))
        if d.get("schema") != GEOM_SCHEMA:
            raise ValueError(
                f"unsupported geometry schema {d.get('schema')!r}; expected {GEOM_SCHEMA!r}"
            )
        r = _json_int(d.get("fiber_rank", 1), "fiber_rank")
        samples = []
        for rec in _json_list(d["samples"], "samples", "sample objects"):
            rec = _json_object(rec, "sample", ("id", "normal_dirs", *_SAMPLE_FIELDS, *_SAMPLE_W_FIELDS))
            dirs = []
            for dd in _json_list(rec.get("normal_dirs", []), "normal_dirs", "direction objects"):
                dd = _json_object(dd, "direction", ("id", "level", *_DIRECTION_FIELDS))
                fields = _fields_from_json(dd, _DIRECTION_FIELDS, r, f"direction {dd['id']!r}")
                dirs.append(NormalDirection(dd["id"], dd["level"], **fields))
            fields = _fields_from_json(rec, _SAMPLE_FIELDS + _SAMPLE_W_FIELDS, r, f"sample {rec['id']!r}")
            samples.append(GeometrySample(rec["id"], normal_dirs=tuple(dirs), **fields))
        dims = tuple(_json_list(d["dims"], "dims", "integers"))
        return cls(dims=dims, fiber_rank=r, samples=tuple(samples))


# -- geom/1 fields ------------------------------------------------------------------

# The real and matrix fields of a sample and of a direction, in output order.
# The W-level sample fields are written only when set; any other unset
# matrix is written as zeros.
_SAMPLE_FIELDS = ("scal_X", "scal_Y", "lambda_RF_X", "lambda_RF_Y", "kappa")
_SAMPLE_W_FIELDS = ("scal_W", "lambda_RF_W")
_DIRECTION_FIELDS = ("d_scal_diff", "nabla_lambda_diff")
_REAL_FIELDS = {"scal_X", "scal_Y", "scal_W", "kappa", "d_scal_diff"}


def _field_matrix(owner, name: str, r: int) -> np.ndarray:
    """The matrix field ``name`` of a sample or direction, zeros if unset."""
    value = getattr(owner, name)
    if value is None:
        return np.zeros((r, r), dtype=complex)
    return _as_coef(value, r, what=f"{name}[{owner.id}]")


def _fields_to_json(owner, names, r: int) -> dict:
    out = {}
    for name in names:
        value = getattr(owner, name)
        if value is None and name in _SAMPLE_W_FIELDS:
            continue
        out[name] = value if name in _REAL_FIELDS else _coef_to_json(_field_matrix(owner, name, r))
    return out


def _fields_from_json(rec: Mapping, names, r: int, owner: str) -> dict:
    """The named fields present in ``rec``: matrices read from JSON pairs, reals
    as given (the constructors read them)."""
    return {
        name: rec[name] if name in _REAL_FIELDS else _coef_from_json(rec[name], r, f"{name} of {owner}")
        for name in names
        if name in rec
    }


# -- constant assembly -------------------------------------------------------------


def _direction_matrix(d: NormalDirection, r: int) -> np.ndarray:
    """(1/8pi) d_scal * Id - (1/2pi i) * nabla_lambda, the shared integrand."""
    return (d.d_scal_diff / (8.0 * PI)) * np.eye(r) + (1j / (2.0 * PI)) * d.matrix(r)


@dataclass(frozen=True)
class ConstantResult:
    """A constant's value and the id of the sample that attains it."""

    value: float
    sample_id: str


_MAX_ITERATIONS = 10_000  # per start of _tensor_norm: over 2.5 times the most that 300 random families need
_RESTARTS = 8  # seeded random starts of _tensor_norm


def _tensor_norm(mats: Sequence[np.ndarray], r: int, seed: int) -> float:
    """sup over unit u in C^D of the spectral norm of sum_d u_d mats[d].

    Alternating maximisation over u and the top singular pair of
    sum_d u_d mats[d], started from each mats[d] alone (so from its top right
    singular vector) and from ``_RESTARTS`` seeded random u, each run until the
    value is stationary to 1e-14 relative; a start that is not stationary
    within ``_MAX_ITERATIONS`` raises a ``ValueError``.  The result lies
    between max_d ||mats[d]|| and sqrt(lambda_max(sum_d mats[d]^H mats[d])).
    """
    D = len(mats)
    if r == 1:
        vec = np.array([m[0, 0] for m in mats])
        return float(np.linalg.norm(vec))
    stack = np.stack(mats)
    rng = np.random.default_rng(seed)
    starts = [np.eye(D, dtype=complex)[d] for d in range(D)]
    for _ in range(_RESTARTS):
        raw = rng.normal(size=D) + 1j * rng.normal(size=D)
        starts.append(raw / np.linalg.norm(raw))
    best = 0.0
    for u in starts:
        value = 0.0
        for _ in range(_MAX_ITERATIONS):
            A = np.tensordot(u, stack, axes=(0, 0))
            x = np.linalg.eigh(A.conj().T @ A)[1][:, -1]  # top right singular vector of A
            y = A @ x
            ny = np.linalg.norm(y)
            if ny == 0.0:
                break
            y = y / ny
            c = np.array([np.vdot(y, m @ x) for m in mats])
            nc = np.linalg.norm(c)
            if nc == 0.0:
                break
            u = np.conj(c) / nc
            if abs(nc - value) <= 1e-14 * max(1.0, nc):
                value = nc
                break
            value = nc
        else:
            raise ValueError(f"the tensor norm is not stationary after {_MAX_ITERATIONS} iterations")
        best = max(best, value)
    return float(best)


def c0(data: GeometryData, seed: int = 0) -> ConstantResult:
    """(1/sqrt(pi)) * sup over samples of the induced tensor norm of the
    direction-indexed family (1/8pi) d_scal * Id - (1/2pi i) nabla_lambda."""
    r, seed = data.fiber_rank, _json_int(seed, "seed")
    rows = []
    for s in data.samples:
        mats = [_direction_matrix(d, r) for d in s.normal_dirs if d.level == "WY"]
        if not mats:
            raise ValueError(f"sample {s.id!r} has no N^(W|Y) direction data")
        try:
            rows.append((_tensor_norm(mats, r, seed), s.id))
        except ValueError as e:
            raise ValueError(f"sample {s.id!r}: {e}") from None
    value, sample_id = max(rows, key=itemgetter(0))  # the first of equal values
    return ConstantResult(value=value / math.sqrt(PI), sample_id=sample_id)


def c3_c4(data: GeometryData) -> tuple[ConstantResult, ConstantResult]:
    """(C3, C4): C3 = -(1/2) inf(s - lambda_max(H)), C4 = (1/2) sup(s - lambda_min(H)),
    with s = (scal_X - scal_Y)/8pi and H = (lambda_RF_X - lambda_RF_Y)/(2 pi i)."""
    r, rows = data.fiber_rank, []
    for s in data.samples:
        sv = (s.scal_X - s.scal_Y) / (8.0 * PI)
        eigs = hermitian_eigs((s.lam("X", r) - s.lam("Y", r)) / (2j * PI))
        rows.append((sv - float(eigs[-1]), sv - float(eigs[0]), s.id))
    t3, _, c3_id = min(rows, key=itemgetter(0))  # the first of equal values, as in c0
    _, t4, c4_id = max(rows, key=itemgetter(1))
    return ConstantResult(-0.5 * t3, c3_id), ConstantResult(0.5 * t4, c4_id)


def dp3(
    data: GeometryData,
    direction: Mapping[str, complex],
    sample_id: str | None = None,
) -> np.ndarray:
    """Third defect coefficient contracted with a direction.

    The direction is given as coefficients over a sample's tabulated frame;
    XW-level components contribute zero, WY-level components contribute the
    shared integrand matrix, linearly.
    """
    r = data.fiber_rank
    sample = (
        data.samples[0]
        if sample_id is None
        else next((s for s in data.samples if s.id == sample_id), None)
    )
    if sample is None:
        raise ValueError(f"unknown sample id {sample_id!r}")
    tabulated = {d.id: d for d in sample.normal_dirs}
    acc = np.zeros((r, r), dtype=complex)
    for dir_id, coef in _json_object(direction, "direction").items():
        if (d := tabulated.get(str(dir_id))) is None:
            raise ValueError(f"direction {str(dir_id)!r} is not tabulated in sample {sample.id!r}")
        coef = _json_complex(coef, f"direction coefficient {dir_id!r}")
        if d.level == "WY":
            acc = acc + coef * _direction_matrix(d, r)
    return acc


def tower_dp3(
    levels: Sequence[GeometrySample],
    direction: Mapping[str, complex],
    fiber_rank: int = 1,
) -> np.ndarray:
    """Tower version: sum over levels of the same integrand, each level using
    the components of the direction tabulated in its own frame.

    Every tabulated component counts, XW-level ones included, where
    :func:`dp3` skips those.  So a single level reproduces :func:`dp3` only
    for a direction with no XW-level component.
    """
    if not levels:
        raise ValueError("tower needs at least one level record")
    if (r := _json_int(fiber_rank, "fiber_rank")) < 1:
        raise ValueError(f"fiber_rank must be >= 1, got {r}")
    direction = _json_object(direction, "direction")
    direction = {k: _json_complex(v, f"direction coefficient {k!r}") for k, v in direction.items()}
    acc = np.zeros((r, r), dtype=complex)
    known: set[str] = set()
    for level in levels:
        tabulated = {d.id: d for d in level.normal_dirs}
        known |= set(tabulated)
        for dir_id, coef in direction.items():
            d = tabulated.get(str(dir_id))
            if d is not None:
                acc = acc + coef * _direction_matrix(d, r)
    missing = set(str(k) for k in direction) - known
    if missing:
        raise ValueError(f"direction components not tabulated in any level: {sorted(missing)}")
    return acc


__all__ = list(_EXPORTS["geometry"])
