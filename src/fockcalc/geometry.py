"""Sampled geometry along the submanifold chain and the headline constants.

The package does no differential geometry: callers supply per-point samples
of scalar curvatures, curvature contractions, normal-direction derivative
data and the density kappa, following the ``geom/1`` JSON schema.  This
module evaluates the constants C0, C3, C4, the third-order defect
coefficient ``dp3`` and its tower generalization, with numpy's Hermitian
eigensolver (``eigvalsh``) underneath.

Direction records are understood as an orthonormal frame of the relevant
normal space: every ``d_scal_diff`` / ``nabla_lambda_diff`` entry is the
derivative along one unit frame vector, and suprema over unit directions
range over unit-norm complex combinations of the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .poly import _coef_to_json, _coef_from_json, _json_int, _json_object

PI = math.pi

GEOM_SCHEMA = "geom/1"

_HERM_TOL = 1e-10


def _as_matrix(value, r: int, label: str) -> np.ndarray:
    a = np.asarray(value, dtype=complex)
    if a.shape == () and r == 1:
        a = a.reshape(1, 1)
    if a.shape != (r, r):
        raise ValueError(f"{label} must be {r}x{r}, got shape {a.shape}")
    a = a.copy()
    a.setflags(write=False)
    return a


def _check_i_hermitian(V: np.ndarray, label: str) -> None:
    """V is stored so that V / (2 pi i) must be Hermitian."""
    H = V / (2j * PI)
    dev = float(np.max(np.abs(H - H.conj().T))) if H.size else 0.0
    scale = 1.0 + float(np.max(np.abs(H))) if H.size else 1.0
    if dev > _HERM_TOL * scale:
        raise ValueError(f"{label} / (2 pi i) is not Hermitian (deviation {dev:.3e})")


def _check_finite(value: float | None, name: str, owner: str) -> None:
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{name} of {owner} must be finite, got {value!r}")


# -- data model -----------------------------------------------------------------


@dataclass(frozen=True)
class NormalDirection:
    """Derivative data along one unit normal frame vector."""

    id: str
    level: str  # "WY" or "XW"
    d_scal_diff: float = 0.0
    nabla_lambda_diff: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.level not in ("WY", "XW"):
            raise ValueError(f"direction level must be 'WY' or 'XW', got {self.level!r}")
        _check_finite(self.d_scal_diff, "d_scal_diff", f"direction {self.id!r}")

    def matrix(self, r: int) -> np.ndarray:
        if self.nabla_lambda_diff is None:
            return np.zeros((r, r), dtype=complex)
        return _as_matrix(self.nabla_lambda_diff, r, f"nabla_lambda_diff[{self.id}]")

    def to_json_dict(self, r: int) -> dict:
        return {
            "id": self.id,
            "level": self.level,
            "d_scal_diff": float(self.d_scal_diff),
            "nabla_lambda_diff": _coef_to_json(self.matrix(r)),
        }


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
        for name in ("scal_X", "scal_Y", "scal_W", "kappa"):
            _check_finite(getattr(self, name), name, f"sample {self.id!r}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        ids = [d.id for d in self.normal_dirs]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate direction ids in sample {self.id!r}")

    def lam(self, which: str, r: int) -> np.ndarray:
        v = getattr(self, f"lambda_RF_{which}")
        if v is None:
            return np.zeros((r, r), dtype=complex)
        return _as_matrix(v, r, f"lambda_RF_{which}[{self.id}]")

    def direction(self, dir_id: str) -> NormalDirection:
        for d in self.normal_dirs:
            if d.id == dir_id:
                return d
        raise ValueError(f"direction {dir_id!r} is not tabulated in sample {self.id!r}")


@dataclass(frozen=True)
class GeometryData:
    """A batch of geometry samples plus the dimension chain."""

    dims: tuple[int, ...]
    fiber_rank: int = 1
    samples: tuple[GeometrySample, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.fiber_rank < 1:
            raise ValueError("fiber_rank must be >= 1")
        if len(self.dims) < 2 or any(int(d) < 0 for d in self.dims):
            raise ValueError("dims must list the chain m <= ... <= n")
        if list(self.dims) != sorted(int(d) for d in self.dims):
            raise ValueError("dims chain must be non-decreasing")
        if not self.samples:
            raise ValueError("sample list must be non-empty")
        ids = [s.id for s in self.samples]
        if len(ids) != len(set(ids)):
            raise ValueError("sample ids must be unique")
        r = self.fiber_rank
        for s in self.samples:
            for which in ("X", "Y", "W"):
                v = getattr(s, f"lambda_RF_{which}")
                if v is not None:
                    _check_i_hermitian(
                        _as_matrix(v, r, f"lambda_RF_{which}[{s.id}]"),
                        f"lambda_RF_{which}[{s.id}]",
                    )

    def to_json_dict(self) -> dict:
        r = self.fiber_rank
        out = {
            "schema": GEOM_SCHEMA,
            "dims": [int(d) for d in self.dims],
            "fiber_rank": r,
            "samples": [],
        }
        for s in self.samples:
            rec = {
                "id": s.id,
                "scal_X": float(s.scal_X),
                "scal_Y": float(s.scal_Y),
                "lambda_RF_X": _coef_to_json(s.lam("X", r)),
                "lambda_RF_Y": _coef_to_json(s.lam("Y", r)),
                "kappa": float(s.kappa),
                "normal_dirs": [d.to_json_dict(r) for d in s.normal_dirs],
            }
            if s.scal_W is not None:
                rec["scal_W"] = float(s.scal_W)
            if s.lambda_RF_W is not None:
                rec["lambda_RF_W"] = _coef_to_json(s.lam("W", r))
            out["samples"].append(rec)
        return out

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "GeometryData":
        if d.get("schema") != GEOM_SCHEMA:
            raise ValueError(
                f"unsupported geometry schema {d.get('schema')!r}; expected {GEOM_SCHEMA!r}"
            )
        allowed = {"schema", "dims", "fiber_rank", "samples"}
        extra = set(d) - allowed
        if extra:
            raise ValueError(f"unknown geometry keys: {sorted(extra)}")
        r = _json_int(d.get("fiber_rank", 1), "fiber_rank")
        samples = []
        for rec in d["samples"]:
            bad = set(_json_object(rec, "sample")) - {
                "id",
                "scal_X",
                "scal_Y",
                "scal_W",
                "lambda_RF_X",
                "lambda_RF_Y",
                "lambda_RF_W",
                "kappa",
                "normal_dirs",
            }
            if bad:
                raise ValueError(f"unknown sample keys: {sorted(bad)}")
            dirs = []
            for dd in rec.get("normal_dirs", []):
                badd = set(_json_object(dd, "direction")) - {"id", "level", "d_scal_diff", "nabla_lambda_diff"}
                if badd:
                    raise ValueError(f"unknown direction keys: {sorted(badd)}")
                dirs.append(
                    NormalDirection(
                        id=str(dd["id"]),
                        level=str(dd["level"]),
                        d_scal_diff=float(dd.get("d_scal_diff", 0.0)),
                        nabla_lambda_diff=(
                            _coef_from_json(dd["nabla_lambda_diff"], r)
                            if "nabla_lambda_diff" in dd
                            else None
                        ),
                    )
                )
            samples.append(
                GeometrySample(
                    id=str(rec["id"]),
                    scal_X=float(rec.get("scal_X", 0.0)),
                    scal_Y=float(rec.get("scal_Y", 0.0)),
                    scal_W=(float(rec["scal_W"]) if "scal_W" in rec else None),
                    lambda_RF_X=(
                        _coef_from_json(rec["lambda_RF_X"], r) if "lambda_RF_X" in rec else None
                    ),
                    lambda_RF_Y=(
                        _coef_from_json(rec["lambda_RF_Y"], r) if "lambda_RF_Y" in rec else None
                    ),
                    lambda_RF_W=(
                        _coef_from_json(rec["lambda_RF_W"], r) if "lambda_RF_W" in rec else None
                    ),
                    kappa=float(rec.get("kappa", 1.0)),
                    normal_dirs=tuple(dirs),
                )
            )
        return cls(
            dims=tuple(_json_int(v, "dims entry") for v in d["dims"]),
            fiber_rank=r,
            samples=tuple(samples),
        )


# -- eigensolver ------------------------------------------------------------------


def hermitian_eigs(H) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, by ``numpy.linalg.eigvalsh``.

    The input must be finite, square and Hermitian within 1e-10 (scaled by
    its largest entry); it is symmetrized before the solve.
    """
    A = np.asarray(H, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    scale = 1.0 + float(np.max(np.abs(A))) if A.size else 1.0
    dev = float(np.max(np.abs(A - A.conj().T)))
    if dev > _HERM_TOL * scale:
        raise ValueError(f"matrix is not Hermitian within tolerance (deviation {dev:.3e})")
    return np.linalg.eigvalsh(0.5 * (A + A.conj().T))


# -- constant assembly -------------------------------------------------------------


def _direction_matrix(d: NormalDirection, r: int) -> np.ndarray:
    """(1/8pi) d_scal * Id - (1/2pi i) * nabla_lambda, the shared integrand."""
    return (d.d_scal_diff / (8.0 * PI)) * np.eye(r) + (1j / (2.0 * PI)) * d.matrix(r)


@dataclass(frozen=True)
class ConstantResult:
    value: float
    sample_id: str

    def __float__(self) -> float:
        return float(self.value)

    def to_json_dict(self) -> dict:
        return {"value": self.value, "sample_id": self.sample_id}


@dataclass(frozen=True)
class C3C4Result:
    c3: float
    c4: float
    c3_sample_id: str
    c4_sample_id: str

    def __iter__(self):
        return iter((self.c3, self.c4))

    def to_json_dict(self) -> dict:
        return {
            "C3": self.c3,
            "C4": self.c4,
            "c3_sample_id": self.c3_sample_id,
            "c4_sample_id": self.c4_sample_id,
        }


def _tensor_norm(mats: Sequence[np.ndarray], r: int, seed: int, restarts: int = 8) -> float:
    """sup over unit u in C^D of the spectral norm of sum_d u_d mats[d].

    Alternating maximisation over u and the top singular pair of
    sum_d u_d mats[d], started from each mats[d] alone (so from its top right
    singular vector) and from ``restarts`` seeded random u.  The result lies
    between max_d ||mats[d]|| and sqrt(lambda_max(sum_d mats[d]^H mats[d])).
    """
    D = len(mats)
    if D == 0:
        return 0.0
    if r == 1:
        vec = np.array([m[0, 0] for m in mats])
        return float(np.linalg.norm(vec))
    stack = np.stack(mats)
    rng = np.random.default_rng(seed)
    starts = [np.eye(D, dtype=complex)[d] for d in range(D)]
    for _ in range(restarts):
        raw = rng.normal(size=D) + 1j * rng.normal(size=D)
        starts.append(raw / np.linalg.norm(raw))
    best = 0.0
    for u in starts:
        value = 0.0
        for _ in range(80):
            A = np.tensordot(u, stack, axes=(0, 0))
            x = _top_right_singular(A)
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
        best = max(best, value)
    return float(best)


def _top_right_singular(A: np.ndarray) -> np.ndarray:
    """Unit eigenvector of A^H A for its largest eigenvalue."""
    return np.linalg.eigh(A.conj().T @ A)[1][:, -1]


def c0(data: GeometryData, seed: int = 0) -> ConstantResult:
    """(1/sqrt(pi)) * sup over samples of the induced tensor norm of the
    direction-indexed family (1/8pi) d_scal * Id - (1/2pi i) nabla_lambda."""
    r = data.fiber_rank
    best_val, best_id = -1.0, ""
    for s in data.samples:
        mats = [_direction_matrix(d, r) for d in s.normal_dirs if d.level == "WY"]
        if not mats:
            raise ValueError(f"sample {s.id!r} has no N^(W|Y) direction data")
        val = _tensor_norm(mats, r, seed)
        if val > best_val:
            best_val, best_id = val, s.id
    return ConstantResult(value=best_val / math.sqrt(PI), sample_id=best_id)


def c3_c4(data: GeometryData) -> C3C4Result:
    """C3 = -(1/2) inf(s - lambda_max(H)), C4 = (1/2) sup(s - lambda_min(H)),
    with s = (scal_X - scal_Y)/8pi and H = (lambda_RF_X - lambda_RF_Y)/(2 pi i)."""
    r = data.fiber_rank
    inf_val, inf_id = math.inf, ""
    sup_val, sup_id = -math.inf, ""
    for s in data.samples:
        sv = (s.scal_X - s.scal_Y) / (8.0 * PI)
        H = (s.lam("X", r) - s.lam("Y", r)) / (2j * PI)
        eigs = hermitian_eigs(H)
        t3 = sv - float(eigs[-1])
        t4 = sv - float(eigs[0])
        if t3 < inf_val:
            inf_val, inf_id = t3, s.id
        if t4 > sup_val:
            sup_val, sup_id = t4, s.id
    return C3C4Result(
        c3=-0.5 * inf_val, c4=0.5 * sup_val, c3_sample_id=inf_id, c4_sample_id=sup_id
    )


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
    acc = np.zeros((r, r), dtype=complex)
    for dir_id, coef in direction.items():
        d = sample.direction(str(dir_id))
        if d.level == "XW":
            continue
        acc = acc + complex(coef) * _direction_matrix(d, r)
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
    r = fiber_rank
    acc = np.zeros((r, r), dtype=complex)
    known: set[str] = set()
    for level in levels:
        tabulated = {d.id: d for d in level.normal_dirs}
        known |= set(tabulated)
        for dir_id, coef in direction.items():
            d = tabulated.get(str(dir_id))
            if d is not None:
                acc = acc + complex(coef) * _direction_matrix(d, r)
    missing = set(str(k) for k in direction) - known
    if missing:
        raise ValueError(f"direction components not tabulated in any level: {sorted(missing)}")
    return acc


__all__ = [
    "GEOM_SCHEMA",
    "NormalDirection",
    "GeometrySample",
    "GeometryData",
    "ConstantResult",
    "C3C4Result",
    "hermitian_eigs",
    "c0",
    "c3_c4",
    "dp3",
    "tower_dp3",
]
