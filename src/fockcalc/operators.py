"""Normal-fibre symbols and the operator layer built on them.

A :class:`Symbol` is a polynomial in the normal variables ``w_j = z_{m+j}``
(and conjugates) with matrix coefficients.  It is a view over one
:class:`~fockcalc.poly.Poly` store: every operation below reads the store's
sorted exponent rows as ``hol`` / ``anti`` blocks and writes its result back
as arrays, and only the ``{(hol, antihol): coef}`` constructors and
serializers build or walk a dict.  On top of it this module provides:

* the three Gaussian-moment contractions ``lambda_eq`` / ``lambda_h`` /
  ``lambda_a`` plus quadrature cross-checks of each;
* cutoff profiles (:class:`CutoffSpec`) and the ``bracket`` field;
* model operators ``m_op`` (direct and adjoint variants);
* the normal-fibre integral ``h_gp`` and norm constants ``c1_c2``;
* the leading-term dispatch ``toeplitz_leading`` together with the fully
  symbolic composite chains it is checked against;
* the flat defect identity battery ``flat_defect_checks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .poly import (
    Dims,
    Poly,
    O_Z,
    O_ZB,
    variable_columns,
    _as_coef,
    _collect,
    _coef_to_json,
    _coef_from_json,
    _json_int,
)
from .kernels import (
    TOEPLITZ_KINDS,
    KernelExpr,
    ScaledKernel,
    Bergman,
    Extension,
    Restriction,
    unit_expr,
)
from .compose import compose
from .geometry import hermitian_eigs

PI = math.pi

MultiIndex = tuple[int, ...]


def _check_level(p: float) -> float:
    """The scaling level as a float; it must be finite and >= 1."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p!r}")
    return float(p)


# -- symbols ------------------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    """Polynomial in the normal variables with End(C^r) coefficients.

    Stored as a :class:`Poly` over the ambient dims that only touches the
    unprimed variables of index ``m+1 .. n``; the pair of multi-exponents of
    a monomial is its bidegree.
    """

    dims: Dims
    poly: Poly = field(default_factory=lambda: Poly.zero(Dims.of(1, m=0)))

    def __post_init__(self) -> None:
        if self.poly.dims != self.dims:
            raise ValueError("symbol poly dims disagree with declared dims")
        if self.poly.uses_slot("primed"):
            raise ValueError("symbol uses a primed variable")
        if self.poly._blocks()[:, : self.dims.m].any():
            raise ValueError("symbol uses a tangential variable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, n: int, m: int, fiber_rank: int = 1) -> "Symbol":
        dims = Dims.of(n, m=m, fiber_rank=fiber_rank)
        return cls(dims, Poly.zero(dims))

    @classmethod
    def from_terms(
        cls,
        n: int,
        m: int,
        terms: Mapping[tuple[MultiIndex, MultiIndex], object],
        fiber_rank: int = 1,
    ) -> "Symbol":
        dims = Dims.of(n, m=m, fiber_rank=fiber_rank)
        k = n - m
        rows = []
        for hol, antihol in terms:
            if len(hol) != k or len(antihol) != k:
                raise ValueError(f"multi-index length must be n-m={k}")
            rows.append([_json_int(a, "symbol exponent") for a in (*hol, *antihol)])
        if any(a < 0 for row in rows for a in row):
            raise ValueError("negative exponent in symbol term")
        try:
            HA = np.array(rows, dtype=np.int64).reshape(len(rows), 2, k)
        except OverflowError:
            raise ValueError("exponent out of range") from None
        C = np.array([_as_coef(c, fiber_rank) for c in terms.values()], dtype=complex)
        return cls._from_blocks(dims, HA[:, 0], HA[:, 1], C)

    @classmethod
    def _from_blocks(cls, dims: Dims, hol: np.ndarray, anti: np.ndarray, C) -> "Symbol":
        """The sum of ``C[t] w^hol[t] wbar^anti[t]`` over the ``(T, k)`` exponent
        blocks; equal rows are summed in row order (see :func:`~fockcalc.poly._collect`)."""
        n, r, count = dims.n, dims.fiber_rank, len(hol)
        E = np.zeros((count, n, 4), dtype=np.int64)
        E[:, dims.m :, O_Z], E[:, dims.m :, O_ZB] = hol, anti
        E, C = _collect(E.reshape(count, 4 * n), np.ascontiguousarray(C).reshape(count, r, r))
        return cls(dims, Poly._from_arrays(dims, E, C))

    @classmethod
    def monomial(
        cls,
        n: int,
        m: int,
        hol: Sequence[int],
        antihol: Sequence[int],
        coef=1.0,
        fiber_rank: int = 1,
    ) -> "Symbol":
        return cls.from_terms(n, m, {(tuple(hol), tuple(antihol)): coef}, fiber_rank)

    # -- structure ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def m(self) -> int:
        return self.dims.m

    @property
    def k(self) -> int:
        """Number of normal variables."""
        return self.dims.n - self.dims.m

    @property
    def fiber_rank(self) -> int:
        return self.dims.fiber_rank

    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exponent blocks ``hol`` and ``anti`` ``(T, k)`` of ``w`` and ``wbar``
        and the coefficients ``(T, r, r)``, in the sorted order of ``poly.table``."""
        E, C = self.poly.table
        B = E.reshape(len(E), self.n, 4)[:, self.m :]
        return B[:, :, O_Z], B[:, :, O_ZB], C

    def terms(self) -> dict[tuple[MultiIndex, MultiIndex], np.ndarray]:
        hol, anti, C = self._table()
        return dict(zip(zip(map(tuple, hol.tolist()), map(tuple, anti.tolist())), C))

    def bidegrees(self) -> list[tuple[int, int]]:
        hol, anti, _ = self._table()
        return sorted(set(zip(hol.sum(axis=1).tolist(), anti.sum(axis=1).tolist())))

    def degree(self) -> int:
        return self.poly.degree()

    def parity(self) -> int | None:
        return self.poly.parity()

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    # -- algebra --------------------------------------------------------------

    def add(self, other: "Symbol") -> "Symbol":
        return Symbol(self.dims, self.poly.add(other.poly))

    def scale(self, scalar: complex) -> "Symbol":
        return Symbol(self.dims, self.poly.scale(scalar))

    def mul(self, other: "Symbol") -> "Symbol":
        """Pointwise product (coefficients multiply as matrices, left first)."""
        return Symbol(self.dims, self.poly.mul(other.poly))

    def adjoint(self) -> "Symbol":
        """g*: swap each bidegree (i, j) -> (j, i), conjugate-transpose coefs.

        The rows come out in the sorted order of ``self``, which fixes the
        order later products accumulate in."""
        hol, anti, C = self._table()
        return Symbol._from_blocks(self.dims, anti, hol, C.conj().transpose(0, 2, 1))

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, Z_N) -> np.ndarray:
        """Value at a normal point (length n-m), conjugates taken from it."""
        z = np.asarray(Z_N, dtype=complex).reshape(1, -1)
        return self.evaluate_batch(z, z.conj())[0]

    def evaluate_split(self, hol_point, anti_point) -> np.ndarray:
        """Polarized value: w^alpha from hol_point, wbar^beta from anti_point."""
        return self.evaluate_batch(np.reshape(hol_point, (1, -1)), np.reshape(anti_point, (1, -1)))[0]

    def evaluate_batch(self, hol, anti) -> np.ndarray:
        """Polarized values at N points: hol and anti are (N, n-m); returns (N, r, r)."""
        zh, za = np.asarray(hol, dtype=complex), np.asarray(anti, dtype=complex)
        if zh.ndim != 2 or zh.shape[1] != self.k or za.shape != zh.shape:
            raise ValueError(f"normal point must have length {self.k}")
        tangential = np.zeros((len(zh), self.m))
        zh, za = np.concatenate([tangential, zh], axis=1), np.concatenate([tangential, za], axis=1)
        return self.poly.evaluate_batch(variable_columns(self.n, zh, za, 0.0, 0.0))

    # -- kernel embeddings ----------------------------------------------------

    def to_poly(self, slot: str = "unprimed") -> Poly:
        """The symbol as a kernel numerator, on the requested slot's variables."""
        if slot == "unprimed":
            return self.poly
        if slot != "primed":
            raise ValueError(f"bad slot {slot!r}")
        B = self.poly._blocks()
        E = np.zeros_like(B)
        E[:, :, 2:] = B[:, :, :2]  # (z, zb) -> (z', zb'), in store order
        return Poly._from_arrays(self.dims, E.reshape(self.poly.exps.shape), self.poly.coefs)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "fiber_rank": self.fiber_rank,
            "terms": [
                {"hol": list(hol), "antihol": list(antihol), "coef": _coef_to_json(coef)}
                for (hol, antihol), coef in sorted(self.terms().items())
            ],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Symbol":
        extra = set(d) - {"n", "m", "fiber_rank", "terms"}
        if extra:
            raise ValueError(f"unknown symbol keys: {sorted(extra)}")
        r = _json_int(d.get("fiber_rank", 1), "fiber_rank")
        terms: dict[tuple[MultiIndex, MultiIndex], np.ndarray] = {}
        for t in d["terms"]:
            bad = set(t) - {"hol", "antihol", "coef"}
            if bad:
                raise ValueError(f"unknown symbol term keys: {sorted(bad)}")
            key = tuple(tuple(_json_int(a, f"symbol {side}") for a in t[side]) for side in ("hol", "antihol"))
            c = _coef_from_json(t["coef"], r)
            terms[key] = terms[key] + c if key in terms else c
        return cls.from_terms(_json_int(d["n"], "n"), _json_int(d["m"], "m"), terms, r)


def rotate_symbol(g: Symbol, U) -> Symbol:
    """Substitute w_i -> sum_j U[i, j] w_j (and the conjugate on wbar)."""
    U = np.asarray(U, dtype=complex)
    n, m, k, cap = g.n, g.m, g.k, g.degree()
    if U.shape != (k, k):
        raise ValueError(f"rotation must be {k}x{k}")
    if g.is_zero():
        return g
    scalar = Dims.of(n, m=m)

    def linear(row, o: int) -> Poly:
        E = np.zeros((k, n, 4), dtype=np.int64)
        E[np.arange(k), m + np.arange(k), o] = 1
        return Poly._from_arrays(scalar, E.reshape(k, 4 * n), row.reshape(k, 1, 1))

    forms = [linear(U[i], O_Z) for i in range(k)] + [linear(U[i].conj(), O_ZB) for i in range(k)]
    hol, anti, C = g._table()
    rows, coefs = [], []
    for powers, coef in zip(np.hstack([hol, anti]).tolist(), C):
        term = Poly.one(scalar)
        for form, power in zip(forms, powers):
            for _ in range(power):
                term = term.mul(form, degree_cap=cap)
        rows.append(term.exps)
        coefs.append(term.coefs * coef)
    E, C = _collect(np.concatenate(rows), np.concatenate(coefs))
    return Symbol(g.dims, Poly._from_arrays(g.dims, E, C))


# -- cutoff profiles ----------------------------------------------------------


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff profile rho(|Z_N| / r_perp).

    ``smooth_bump`` is 1 below 1/4, 0 above 1/2, and
    exp(1 - 1/(1 - t^2)) with t affine over [1/4, 1/2] between the plateaus;
    ``identity`` means rho == 1 everywhere.
    """

    r_perp: float = 1.0
    profile: str = "smooth_bump"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_perp) and self.r_perp > 0):
            raise ValueError(f"r_perp must be positive and finite, got {self.r_perp!r}")
        if self.profile not in ("smooth_bump", "identity"):
            raise ValueError(f"unknown cutoff profile {self.profile!r}")

    @property
    def is_identity(self) -> bool:
        return self.profile == "identity"

    def rho(self, x):
        """Profile value at x = |Z_N| / r_perp (scalar or array)."""
        scalar = np.ndim(x) == 0
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.is_identity:
            out = np.ones_like(arr)
        else:
            out = np.zeros_like(arr)
            out[arr <= 0.25] = 1.0
            mid = (arr > 0.25) & (arr < 0.5)
            if np.any(mid):
                t = 4.0 * arr[mid] - 1.0
                out[mid] = np.exp(1.0 - 1.0 / (1.0 - t * t))
        return float(out[0]) if scalar else out


IDENTITY_CUTOFF = CutoffSpec(r_perp=1.0, profile="identity")


# -- the three Lambda contractions --------------------------------------------


def lambda_eq(g: Symbol) -> np.ndarray:
    """Equal-bidegree contraction: sum over alpha == beta of coef * alpha!/pi^|alpha|."""
    hol, anti, C = g._table()
    diag = (hol == anti).all(axis=1)
    weights = [math.prod(map(math.factorial, a)) / PI ** sum(a) for a in anti[diag].tolist()]
    # builtin sum adds row by row onto +0.0, in the order of the sorted rows
    return sum(C[diag] * np.reshape(weights, (-1, 1, 1)), np.zeros((g.fiber_rank,) * 2, dtype=complex))


def lambda_h(g: Symbol) -> Symbol:
    """Holomorphic contraction: (alpha, beta) with alpha > beta componentwise-ge
    maps to coef * prod alpha_i!/(alpha_i-beta_i)! / pi^|beta| * w^(alpha-beta)."""
    return _contract(g, holomorphic=True)


def lambda_a(g: Symbol) -> Symbol:
    """Antiholomorphic contraction, mirror of :func:`lambda_h`."""
    return _contract(g, holomorphic=False)


def _contract(g: Symbol, holomorphic: bool) -> Symbol:
    """lambda_h (holomorphic) or lambda_a: with (top, bottom) the (hol, anti)
    blocks or the reverse, each row with top >= bottom componentwise and
    top != bottom maps to coef * prod top_i!/(top_i - bottom_i)! / pi^|bottom|
    times the monomial top - bottom in w (holomorphic) or wbar."""
    hol, anti, C = g._table()
    top, bottom = (hol, anti) if holomorphic else (anti, hol)
    keep = (top >= bottom).all(axis=1) & (top != bottom).any(axis=1)
    top, bottom, C = top[keep], bottom[keep], C[keep]
    weights = []
    for t, b in zip(top.tolist(), bottom.tolist()):
        weight = 1.0
        for ti, bi in zip(t, b):
            weight *= math.factorial(ti) / math.factorial(ti - bi)
        weights.append(weight / PI ** sum(b))
    diff, zero = top - bottom, np.zeros_like(top)
    blocks = (diff, zero) if holomorphic else (zero, diff)
    return Symbol._from_blocks(g.dims, *blocks, C * np.reshape(weights, (-1, 1, 1)))


def _mesh_integral(g: Symbol, nodes: int, hol_shift=0.0, anti_shift=0.0) -> np.ndarray:
    """integral of g(u + hol_shift, conj(u) + anti_shift) exp(-pi|u|^2) du on the mesh."""
    from .oracle import gaussian_mesh  # only the quadrature checks need the oracle

    pts, wts = gaussian_mesh(g.k, nodes)
    return np.tensordot(wts, g.evaluate_batch(pts + hol_shift, pts.conj() + anti_shift), axes=1)


def lambda_eq_quadrature(g: Symbol, nodes: int = 20) -> np.ndarray:
    """Independent check of lambda_eq: integral of g(u) exp(-pi|u|^2) du."""
    return _mesh_integral(g, nodes)


def lambda_h_quadrature(g: Symbol, z_point, nodes: int = 20) -> np.ndarray:
    """Independent check of lambda_h at a holomorphic point z:
    integral of g(z + u, ubar) exp(-pi|u|^2) du minus the lambda_eq part."""
    return _mesh_integral(g, nodes, hol_shift=np.ravel(z_point)) - lambda_eq_quadrature(g, nodes)


def lambda_a_quadrature(g: Symbol, zbar_point, nodes: int = 20) -> np.ndarray:
    """Independent check of lambda_a at an antiholomorphic point zbar."""
    return _mesh_integral(g, nodes, anti_shift=np.ravel(zbar_point)) - lambda_eq_quadrature(g, nodes)


# -- bracket fields and model operators ----------------------------------------


@dataclass(frozen=True)
class BracketField:
    """The cutoff symbol field rho(|Z_N|/r_perp) * g(sqrt(p) Z_N)."""

    symbol: Symbol
    p: float
    cutoff: CutoffSpec

    def __call__(self, Z_N) -> np.ndarray:
        z = np.asarray(Z_N, dtype=complex).reshape(-1)
        radius = float(np.linalg.norm(z))
        return self.cutoff.rho(radius / self.cutoff.r_perp) * self.symbol.evaluate(
            math.sqrt(self.p) * z
        )

    def polynomial(self) -> Poly:
        """The field as a plain polynomial; identity profile only."""
        if not self.cutoff.is_identity:
            raise ValueError("smooth_bump bracket has no polynomial form")
        return self.symbol.poly.dilate(math.sqrt(self.p))


def bracket(g: Symbol, p: float, cutoff: CutoffSpec | None = None) -> BracketField:
    return BracketField(g, _check_level(p), cutoff or IDENTITY_CUTOFF)


@dataclass(frozen=True)
class MOpField:
    """Sampled model-operator kernel: cutoff factor times a scaled kernel."""

    base: ScaledKernel
    cutoff: CutoffSpec
    normal_slot: str  # which argument carries the normal variables

    def evaluate(self, Z, Zp) -> np.ndarray:
        n, m = self.base.kind.n, self.base.kind.m
        point = np.asarray(Zp if self.normal_slot == "primed" else Z, dtype=complex)
        point = point.reshape(-1)
        if len(point) != n:
            raise ValueError(f"expected a point in C^{n}")
        radius = float(np.linalg.norm(point[m:]))
        return self.cutoff.rho(radius / self.cutoff.r_perp) * self.base.evaluate(Z, Zp)


def m_op(
    g: Symbol,
    p: float,
    n: int | None = None,
    m: int | None = None,
    cutoff: CutoffSpec | None = None,
    variant: str = "direct",
):
    """Model operator kernel.

    ``direct``   : prefactor p^m, bracket symbol on the unprimed normal
                   variables, extension kernel;
    ``adjoint``  : prefactor p^n (the extra p^(n-m) from fibre integration),
                   bracket symbol on the primed normal variables, restriction
                   kernel.

    Identity cutoff returns a :class:`ScaledKernel`; a smooth bump returns a
    sampled :class:`MOpField`.
    """
    p = _check_level(p)
    n = g.n if n is None else int(n)
    m = g.m if m is None else int(m)
    if (n, m) != (g.n, g.m):
        raise ValueError(
            f"dimension mismatch: symbol has (n, m) = {(g.n, g.m)}, requested {(n, m)}"
        )
    cutoff = cutoff or IDENTITY_CUTOFF
    if variant == "direct":
        expr = KernelExpr(g.to_poly("unprimed"), Extension(n, m))
        base = ScaledKernel(expr, p, p**m)
        slot = "unprimed"
    elif variant == "adjoint":
        expr = KernelExpr(g.to_poly("primed"), Restriction(n, m))
        base = ScaledKernel(expr, p, p**n)
        slot = "primed"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if cutoff.is_identity:
        return base
    return MOpField(base, cutoff, slot)


# -- the h^2 fibre integral ----------------------------------------------------


@dataclass(frozen=True)
class HgpResult:
    """Quadrature value of h^2 and the predicted leading term."""

    h_sq: np.ndarray
    leading: np.ndarray

    @property
    def max_abs_diff(self) -> float:
        return float(np.max(np.abs(self.h_sq - self.leading)))


@lru_cache(maxsize=8)
def _gl_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _radial_pieces(N: int, R: float, cutoff: CutoffSpec) -> list[tuple[float, float]]:
    if cutoff.is_identity:
        r_top = math.sqrt((2 * N + 80.0) / PI)
        edges = np.linspace(0.0, r_top, 9)
        return list(zip(edges[:-1], edges[1:]))
    lo, hi = R / 4.0, R / 2.0
    fracs = [0.0, 1.0 / 16, 1.0 / 4, 1.0 / 2, 3.0 / 4, 15.0 / 16, 1.0]
    pieces = [(0.0, lo / 2.0), (lo / 2.0, lo)]
    for fa, fb in zip(fracs[:-1], fracs[1:]):
        pieces.append((lo + fa * (hi - lo), lo + fb * (hi - lo)))
    return pieces


def _radial_moment(N: int, R: float, cutoff: CutoffSpec, nodes: int) -> float:
    """integral over C of |u|^(2N) -> reduced: int_0^inf e^{-pi r^2} rho(r/R)^2 r^(2N+1) 2 dr."""
    x, w = _gl_rule(nodes)
    total = 0.0
    for a, b in _radial_pieces(N, R, cutoff):
        r = 0.5 * (a + b) + 0.5 * (b - a) * x
        wt = 0.5 * (b - a) * w
        rho = cutoff.rho(r / R)
        total += float(np.sum(wt * np.exp(-PI * r * r) * rho * rho * r ** (2 * N + 1) * 2.0))
    return total


def h_gp(
    g: Symbol,
    p: float = 1.0,
    cutoff: CutoffSpec | None = None,
    grid: int | None = None,
) -> HgpResult:
    """Normal-fibre integral of e^{-p pi |Z_N|^2} (g g)(sqrt(p) Z_N) rho^2.

    After substitution the integral is p^{-k} * integral of
    e^{-pi|u|^2} g(u)^H g(u) rho(|u| / (sqrt(p) r_perp))^2 du.  Off-diagonal
    bidegrees vanish against the radial weight, so each diagonal bidegree
    alpha reduces to a 1-d radial integral with the Dirichlet constant
    pi^k * prod(alpha_i!) / (|alpha| + k - 1)!.  ``grid`` is the number of
    Gauss-Legendre nodes on each of the radial pieces; the rule for a node
    count is built once and cached.
    """
    p = _check_level(p)
    cutoff = cutoff or IDENTITY_CUTOFF
    if grid is not None and not float(grid).is_integer():
        raise ValueError(f"grid must be an integer node count, got {grid!r}")
    nodes = 160 if grid is None else int(grid)
    if nodes < 8:
        from .oracle import InsufficientNodesError

        raise InsufficientNodesError("quadrature budget too small for h_gp")
    k = g.k
    r = g.fiber_rank
    product = _product(g.adjoint(), g)
    leading = lambda_eq(product) / p**k
    hol, anti, C = product._table()
    if k == 0:  # only the constant row
        h_sq = C[0].copy() if len(C) else np.zeros((r, r), dtype=complex)
        return HgpResult(h_sq=h_sq, leading=leading)
    R = math.sqrt(p) * cutoff.r_perp
    diag = (hol == anti).all(axis=1)
    moments: dict[int, float] = {}
    dirichlet, moment = [], []
    for alpha in hol[diag].tolist():
        N = sum(alpha)
        if N not in moments:
            moments[N] = _radial_moment(N + k - 1, R, cutoff, nodes)
        dirichlet.append(PI**k * math.prod(map(math.factorial, alpha)) / math.factorial(N + k - 1))
        moment.append(moments[N])
    terms = C[diag] * np.reshape(dirichlet, (-1, 1, 1)) * np.reshape(moment, (-1, 1, 1))
    h_sq = sum(terms, np.zeros((r, r), dtype=complex))
    return HgpResult(h_sq=h_sq / p**k, leading=leading)


def _product(a: Symbol, b: Symbol) -> Symbol:
    """a b, capped at its own degree: fibre integrals take any valid symbol."""
    return Symbol(a.dims, a.poly.mul(b.poly, degree_cap=a.degree() + b.degree()))


# -- norm constants -------------------------------------------------------------


def c1_c2(g: Symbol, kappa_samples: Sequence[float] | None = None) -> tuple[float, float]:
    """sup over kappa samples of kappa^(1/2) ||lambda_eq(g* g)||^(1/2) and
    kappa^(-1/2) ||lambda_eq(g g*)||^(1/2), norms as largest eigenvalues."""
    kappas = [1.0] if kappa_samples is None else [float(v) for v in kappa_samples]
    if not kappas:
        raise ValueError("need at least one kappa sample")
    if not all(math.isfinite(v) and v > 0 for v in kappas):
        raise ValueError(f"kappa samples must be positive and finite, got {kappas}")
    lam1 = max(0.0, float(hermitian_eigs(lambda_eq(_product(g.adjoint(), g)))[-1]))
    lam2 = max(0.0, float(hermitian_eigs(lambda_eq(_product(g, g.adjoint())))[-1]))
    c1 = max(math.sqrt(v) for v in kappas) * math.sqrt(lam1)
    c2 = max(1.0 / math.sqrt(v) for v in kappas) * math.sqrt(lam2)
    return c1, c2


# -- leading-term dispatch -------------------------------------------------------


def toeplitz_leading(kind: str, g: Symbol):
    """Leading coefficient of the basic operator of the given kind.

    YY returns the constant matrix lambda_eq(g); XY kinds return the
    holomorphic symbol lambda_h(g); YX kinds the antiholomorphic lambda_a(g).
    Even/odd kinds reroute to the sibling matching the symbol's parity; a
    mixed-parity symbol is rejected.  For odd kinds the order-0 coefficient
    vanishes and the returned value sits at order 1.
    """
    kind = _effective_kind(kind, g)
    if kind == "YY":
        return lambda_eq(g)
    result = lambda_h(g) if kind.startswith("XY") else lambda_a(g)
    hol, anti, _ = result._table()
    if kind.endswith("odd") and not (hol.any(axis=1) | anti.any(axis=1)).all():
        raise AssertionError("odd symbol produced a nonzero order-0 coefficient")
    return result


def _effective_kind(kind: str, g: Symbol) -> str:
    """The table row that answers ``kind`` for ``g``: an even/odd kind reroutes
    to its sibling of g's parity; a mixed-parity symbol is rejected."""
    if kind not in TOEPLITZ_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {TOEPLITZ_KINDS}")
    parity = g.parity()
    if parity is None and not g.is_zero():
        raise ValueError("symbol has mixed parity; split it into even and odd parts")
    if kind == "YY" or parity is None:
        return kind
    return f"{kind.split('_')[0]}_{'odd' if parity else 'even'}"


def toeplitz_flat_composite(family: str, g: Symbol) -> KernelExpr:
    """The p = 1 flat composite the leading-term table predicts.

    family YY: Res o (B g B) o E          -> lambda_eq(g) * Bergman(m)
    family XY: (B - Borth) o (B g B) o E  -> lambda_h(g) * Extension(n, m)
    family YX: Res o (B g B) o (B - Borth)-> lambda_a(g) * Restriction(n, m)

    Borth = E o Res is the projector onto the sub-band, an OrthBergman(n, m)
    kernel composed directly from the pair.
    """
    n, m, r = g.n, g.m, g.fiber_rank
    bergman = unit_expr(Bergman(n), r)
    ext = unit_expr(Extension(n, m), r)
    res = unit_expr(Restriction(n, m), r)
    sandwich = compose(bergman, KernelExpr(g.to_poly("unprimed"), Bergman(n)))
    if family == "YY":
        return compose(res, compose(sandwich, ext))
    if family == "XY":
        inner = compose(sandwich, ext)
        through = compose(compose(ext, res), inner)
        return compose(bergman, inner).add(through.scale(-1.0))
    if family == "YX":
        left = compose(res, sandwich)
        through = compose(left, compose(ext, res))
        return compose(left, bergman).add(through.scale(-1.0))
    raise ValueError(f"unknown family {family!r}; expected YY, XY or YX")


def toeplitz_predicted_kernel(family: str, g: Symbol) -> KernelExpr:
    """lambda-contraction of g attached to the kernel the table names."""
    n, m, r = g.n, g.m, g.fiber_rank
    if family == "YY":
        dims = Dims(n=m, l=m, m=m, fiber_rank=r)
        return KernelExpr(Poly.constant(dims, lambda_eq(g)), Bergman(m))
    if family == "XY":
        return KernelExpr(lambda_h(g).to_poly("unprimed"), Extension(n, m))
    if family == "YX":
        return KernelExpr(lambda_a(g).to_poly("primed"), Restriction(n, m))
    raise ValueError(f"unknown family {family!r}; expected YY, XY or YX")


# -- flat defect identities -------------------------------------------------------


@dataclass(frozen=True)
class DefectRecord:
    name: str
    n: int
    l: int | None
    m: int
    deviation: float

    def to_json_dict(self) -> dict:
        d = {"name": self.name, "n": self.n, "m": self.m, "deviation": self.deviation}
        if self.l is not None:
            d["l"] = self.l
        return d


def flat_defect_checks(max_n: int = 4, fiber_rank: int = 1) -> list[DefectRecord]:
    """Coefficient deviations of the two flat defect identities.

    (i)  transitivity: compose(E_{n,l}, E_{l,m}) = E_{n,m} for all chains;
    (ii) adjoint extension: Res o (Res o B_n)* = B_m.
    Both vanish identically in the flat model.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    records: list[DefectRecord] = []
    for n in range(max_n + 1):
        for l in range(n + 1):
            for m in range(l + 1):
                got = compose(
                    unit_expr(Extension(n, l), fiber_rank),
                    unit_expr(Extension(l, m), fiber_rank),
                )
                want = unit_expr(Extension(n, m), fiber_rank)
                records.append(
                    DefectRecord(
                        name="transitivity",
                        n=n,
                        l=l,
                        m=m,
                        deviation=got.numerator.max_coef_diff(want.numerator),
                    )
                )
    for n in range(max_n + 1):
        for m in range(n + 1):
            res = unit_expr(Restriction(n, m), fiber_rank)
            restricted = compose(res, unit_expr(Bergman(n), fiber_rank))
            got = compose(res, restricted.adjoint())
            want = unit_expr(Bergman(m), fiber_rank)
            records.append(
                DefectRecord(
                    name="adjoint_extension",
                    n=n,
                    l=None,
                    m=m,
                    deviation=got.numerator.max_coef_diff(want.numerator),
                )
            )
    return records


__all__ = [
    "Symbol",
    "CutoffSpec",
    "IDENTITY_CUTOFF",
    "BracketField",
    "MOpField",
    "HgpResult",
    "DefectRecord",
    "rotate_symbol",
    "lambda_eq",
    "lambda_h",
    "lambda_a",
    "lambda_eq_quadrature",
    "lambda_h_quadrature",
    "lambda_a_quadrature",
    "bracket",
    "m_op",
    "h_gp",
    "c1_c2",
    "toeplitz_leading",
    "toeplitz_flat_composite",
    "toeplitz_predicted_kernel",
    "flat_defect_checks",
]
