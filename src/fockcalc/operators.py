"""Normal-fibre symbols and the operator layer built on them.

A :class:`Symbol` is a polynomial in the normal variables ``w_j = z_{m+j}``
(and conjugates) with matrix coefficients.  It is a view over one
:class:`~fockcalc.poly.Poly` store: every operation below reads the store's
sorted exponent rows as ``hol`` / ``anti`` blocks and writes its result back
as arrays, and only the ``{(hol, antihol): coef}`` constructors and
serializers build or walk a dict.  On top of it this module provides:

* the three Gaussian-moment contractions ``lambda_eq`` / ``lambda_h`` /
  ``lambda_a`` plus quadrature cross-checks of each;
* cutoff profiles (:class:`CutoffSpec`);
* model operators ``m_op`` (direct and adjoint variants, sampled under a cutoff);
* the normal-fibre integral ``h_gp``, norm constants ``c1_c2`` and the
  Gram-matrix ``norm_estimate`` over exact Fock pairings;
* the leading-term dispatch ``toeplitz_leading`` together with the fully
  symbolic composite chains it is checked against;
* the flat defect identity battery ``flat_defect_checks``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add
from typing import Mapping, Sequence

import numpy as np

from .fields import TOEPLITZ_KINDS, _json_int, _json_list, _json_number, _json_object
from .poly import Dims, Poly, _O_Z, _O_ZB, _as_coef, _as_numbers, _as_points, _collect, _coef_to_json
from .poly import _coef_from_json, _exponent_rows
from .kernels import KernelExpr, ScaledKernel, Bergman, Extension, Restriction, unit_expr
from .kernels import _kernel_points
from .compose import _one_sided, _over_pi, compose
from .geometry import hermitian_eigs

PI = math.pi

MultiIndex = tuple[int, ...]


def _check_level(p: float) -> float:
    """The scaling level as a float; it must be finite and >= 1."""
    p = _json_number(p, "p")
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p!r}")
    return p


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
        return cls._from_pairs(Dims.of(n, m=m, fiber_rank=fiber_rank), terms.items())

    @classmethod
    def _from_pairs(cls, dims: Dims, pairs) -> "Symbol":
        """The sum of ``((hol, antihol), coef)`` terms, equal exponents summed in order."""
        k, rows, coefs = dims.n - dims.m, [], []
        for (hol, antihol), c in pairs:
            if len(hol) != k or len(antihol) != k:
                raise ValueError(f"multi-index length must be n-m={k}")
            rows.append([_json_int(a, "symbol exponent") for a in (*hol, *antihol)])
            coefs.append(_as_coef(c, dims.fiber_rank))
        if any(a < 0 for row in rows for a in row):
            raise ValueError("negative exponent in symbol term")
        HA = _exponent_rows(rows, 2 * k).reshape(len(rows), 2, k)
        return cls._from_blocks(dims, HA[:, 0], HA[:, 1], np.array(coefs, dtype=complex))

    @classmethod
    def _from_blocks(cls, dims: Dims, hol: np.ndarray, anti: np.ndarray, C) -> "Symbol":
        """The sum of ``C[t] w^hol[t] wbar^anti[t]`` over the ``(T, k)`` exponent
        blocks; equal rows are summed in row order (see :func:`~fockcalc.poly._collect`)."""
        n, r, count = dims.n, dims.fiber_rank, len(hol)
        E = np.zeros((count, n, 4), dtype=np.int64)
        E[:, dims.m :, _O_Z], E[:, dims.m :, _O_ZB] = hol, anti
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
        return B[:, :, _O_Z], B[:, :, _O_ZB], C

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

    def evaluate_split(self, hol_point, anti_point) -> np.ndarray:
        """Polarized value: w^alpha from hol_point, wbar^beta from anti_point, each of length n-m."""
        return self.evaluate_batch([hol_point], [anti_point])[0]

    def evaluate_batch(self, hol, anti) -> np.ndarray:
        """Polarized values at N points: hol and anti are (N, n-m); returns (N, r, r)."""
        shape = "{what} normal point must have length {d}"
        zh = _as_points(hol, self.k, "hol", wrong_shape=shape)
        za = _as_points(anti, self.k, "anti", len(zh), shape)
        return self.poly._values((zh, za, None, None), self.m)  # after the m tangential ones

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
        d = _json_object(d, "symbol", ("n", "m", "fiber_rank", "terms"))
        r = _json_int(d.get("fiber_rank", 1), "fiber_rank")
        pairs = []
        for t in _json_list(d["terms"], "terms", "term objects"):
            t = _json_object(t, "symbol term", ("hol", "antihol", "coef"))
            key = tuple(
                tuple(_json_int(a, f"symbol {side}") for a in _json_list(t[side], f"symbol {side}", "integers"))
                for side in ("hol", "antihol")
            )
            pairs.append((key, _coef_from_json(t["coef"], r)))
        return cls._from_pairs(Dims.of(_json_int(d["n"], "n"), m=_json_int(d["m"], "m"), fiber_rank=r), pairs)


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
        r_perp = _json_number(self.r_perp, "r_perp")
        if not (math.isfinite(r_perp) and r_perp > 0):
            raise ValueError(f"r_perp must be positive and finite, got {r_perp!r}")
        object.__setattr__(self, "r_perp", r_perp)
        if self.profile not in ("smooth_bump", "identity"):
            raise ValueError(f"unknown cutoff profile {self.profile!r}")

    @property
    def is_identity(self) -> bool:
        return self.profile == "identity"

    def rho(self, x) -> np.ndarray:
        """Profile values at an array of x = |Z_N| / r_perp, elementwise."""
        x = _as_numbers(x, "x", real=True)
        if self.is_identity:
            return np.ones_like(x)
        out = np.zeros_like(x)
        out[x <= 0.25] = 1.0
        mid = (x > 0.25) & (x < 0.5)
        t = 4.0 * x[mid] - 1.0
        out[mid] = np.exp(1.0 - 1.0 / (1.0 - t * t))
        return out


IDENTITY_CUTOFF = CutoffSpec(r_perp=1.0, profile="identity")


# -- the three Lambda contractions --------------------------------------------


def lambda_eq(g: Symbol) -> np.ndarray:
    """Equal-bidegree contraction: sum over alpha == beta of coef * alpha!/pi^|alpha|."""
    _, C = _contract(g, False, False)
    # builtin sum adds row by row onto +0.0, in the order of the sorted rows
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(C, np.zeros((g.fiber_rank,) * 2, dtype=complex))
    if not np.isfinite(total).all():
        raise ValueError(f"lambda_eq: the sum of {len(C)} contracted symbol terms overflows a float")
    return total


def lambda_h(g: Symbol) -> Symbol:
    """Holomorphic contraction: (alpha, beta) with alpha > beta componentwise-ge
    maps to coef * prod alpha_i!/(alpha_i-beta_i)! / pi^|beta| * w^(alpha-beta)."""
    dz, C = _contract(g, True, False)
    moved = dz.any(axis=1)  # the rows left constant are lambda_eq's
    return Symbol._from_blocks(g.dims, dz[moved], 0 * dz[moved], C[moved])


def lambda_a(g: Symbol) -> Symbol:
    """Antiholomorphic contraction, mirror of :func:`lambda_h`."""
    dzp, C = _contract(g, False, True)
    moved = dzp.any(axis=1)
    return Symbol._from_blocks(g.dims, 0 * dzp[moved], dzp[moved], C[moved])


def _contract(g: Symbol, left_cross: bool, right_cross: bool) -> tuple[np.ndarray, np.ndarray]:
    """Pair each row of g through compose's one-sided table, coupled to z, to zb' or
    neither; for the rows whose pairing does not vanish, in order, the exponents
    ``(T, k)`` it leaves (on w or wbar) and the coefficients times the pairing."""
    hol, anti, C = g._table()
    span = int(anti.max(initial=0)) + 1
    keys = hol * span + anti
    distinct = sorted(set(keys.ravel().tolist()))  # each (a, b) in the symbol is looked up once
    table = [_one_sided(key // span, key % span, left_cross, right_cross) or (0, 0, 0, -1) for key in distinct]
    steps = np.array([(dz + dzp, p) for dz, dzp, _, p in table], dtype=np.int64).reshape(-1, 2)  # p = -1: vanishes
    at = np.searchsorted(distinct, keys)
    keep = (steps[at, 1] >= 0).all(axis=1)
    at = at[keep]
    powers = steps[at, 1].sum(axis=1).tolist()
    weights = [_over_pi(math.prod(table[j][2] for j in row), p) for row, p in zip(at.tolist(), powers)]
    with np.errstate(over="ignore", invalid="ignore"):
        C = C[keep] * np.reshape(weights, (-1, 1, 1))
    if (bad := ~np.isfinite(C).all(axis=(1, 2))).any():
        h, a = (x[keep][bad][0].tolist() for x in (hol, anti))
        raise ValueError(f"contracting symbol term hol {h}, antihol {a} overflows a float")
    return steps[at, 0], C


def _witness(g: Symbol, nodes: int, point=None, what: str = "", side: int = 0) -> np.ndarray:
    """Quadrature of integral g(u + hol, ubar + anti) exp(-pi|u|^2) du: unshifted, or with the normal
    ``point`` as the hol (side 0) or anti (side 1) shift less the unshifted value, both in one pass.
    Weight and terms are products over coordinates, so it is sum_t C_t prod_i S_i[t], S_i[t] the sum of
    w (u + hol_i)^a (ubar + anti_i)^b at term t's exponents over coordinate i's ``nodes^2``-point mesh
    (:func:`~fockcalc.oracle._plane_mesh`): exact once 2 nodes - 1 reaches each real degree a + b,
    and :class:`~fockcalc.oracle.InsufficientNodesError` when it does not."""
    from .oracle import InsufficientNodesError, _plane_mesh  # only the quadrature checks need the oracle

    shifts = np.zeros((2, 1 if point is None else 2, g.k), dtype=complex)  # (hol | anti, shifted | plain, k)
    if point is not None:
        shifts[side, 0] = _as_points([point], g.k, what, wrong_shape="{what} must have length {d}")[0]
    pts, wts = _plane_mesh(nodes := _json_int(nodes, "nodes"))
    (a, b, C), r = g._table(), g.fiber_rank
    if 2 * nodes - 1 < (degree := int((a + b).max(initial=0))):
        raise InsufficientNodesError(f"{nodes} nodes per axis cannot integrate degree {degree}")
    x, y = pts + shifts[0, ..., None], pts.conj() + shifts[1, ..., None]  # (shifts, k, nodes^2)
    x_pow = x[..., None, :] ** np.arange(int(a.max(initial=0)) + 1)[:, None]  # each coordinate's powers, once
    y_pow = y[..., None, :] ** np.arange(int(b.max(initial=0)) + 1)[:, None]
    sums = (x_pow * wts) @ y_pow.swapaxes(-1, -2)  # (shifts, k, a, b): every exponent pair of each coordinate
    values = (sums[:, np.arange(g.k), a, b].prod(axis=-1) @ C.reshape(-1, r * r)).reshape(-1, r, r)
    return values[0] if point is None else values[0] - values[1]


def lambda_eq_quadrature(g: Symbol, nodes: int = 20) -> np.ndarray:
    """Independent check of lambda_eq: integral of g(u) exp(-pi|u|^2) du, one-coordinate mesh sums per term."""
    return _witness(g, nodes)


def lambda_h_quadrature(g: Symbol, z_point, nodes: int = 20) -> np.ndarray:
    """Independent check of lambda_h at z: integral of g(z + u, ubar) exp(-pi|u|^2) du less its value at z = 0."""
    return _witness(g, nodes, z_point, "z_point", 0)


def lambda_a_quadrature(g: Symbol, zbar_point, nodes: int = 20) -> np.ndarray:
    """Independent check of lambda_a at an antiholomorphic point zbar, mirror of :func:`lambda_h_quadrature`."""
    return _witness(g, nodes, zbar_point, "zbar_point", 1)


# -- model operators --------------------------------------------------------------


@dataclass(frozen=True)
class MOpField:
    """Sampled model-operator kernel: cutoff factor times a scaled kernel.

    The normal variables are the coordinates past m of the wider argument:
    the primed one of a restriction kernel (``dp > du``), else the unprimed.
    """

    base: ScaledKernel
    cutoff: CutoffSpec

    def evaluate_batch(self, Z, Zp) -> np.ndarray:
        """Values at N point pairs: Z is (N, du), Zp is (N, dp); returns (N, r, r)."""
        kind = self.base.kind
        zu, zp = _kernel_points(kind, Z, Zp)
        normal = (zp if kind.dp > kind.du else zu)[:, kind.m :]
        rho = self.cutoff.rho(np.linalg.norm(normal, axis=1) / self.cutoff.r_perp)
        return rho[:, None, None] * self.base._values(zu, zp)


def m_op(
    g: Symbol,
    p: float,
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
    n, m = g.n, g.m
    cutoff = cutoff or IDENTITY_CUTOFF
    if variant == "direct":
        expr = KernelExpr(g.to_poly("unprimed"), Extension(n, m))
        base = ScaledKernel(expr, p, p**m)
    elif variant == "adjoint":
        expr = KernelExpr(g.to_poly("primed"), Restriction(n, m))
        base = ScaledKernel(expr, p, p**n)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if cutoff.is_identity:
        return base
    return MOpField(base, cutoff)


# -- the h^2 fibre integral ----------------------------------------------------


@dataclass(frozen=True)
class HgpResult:
    """Quadrature value of h^2 and the predicted leading term."""

    h_sq: np.ndarray
    leading: np.ndarray

    @property
    def max_abs_diff(self) -> float:
        return float(np.max(np.abs(self.h_sq - self.leading)))


@lru_cache(maxsize=1)
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only 160-node Gauss-Legendre nodes and weights on [-1, 1], built once."""
    x, w = np.polynomial.legendre.leggauss(160)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _radial_moments(Ns: set[int], R: float, cutoff: CutoffSpec) -> dict[int, float]:
    """N -> reduced integral over C of |u|^(2N): int_0^inf e^{-pi r^2} rho(r/R)^2 r^(2N+1) 2 dr.

    Eight Gauss-Legendre pieces: per N, equal ones out to sqrt((2N + 80)/pi)
    under the identity, all N weighted in one ``(G, 8, 160)`` pass with no rho
    factor (rho = 1, and a product by 1.0 changes no bit); under the bump one
    set for every N, two on the plateau and six over [R/4, R/2].  Piece sums
    add as floats in order: ``reduce``, because builtin ``sum`` compensates
    floats from Python 3.12.
    """
    x, w = _gl_rule()
    if cutoff.is_identity:
        Ns = sorted(Ns)
        twice = 2.0 * np.array(Ns, dtype=float)
        edges = np.linspace(0.0, np.sqrt((twice + 80.0) / PI), 9, axis=-1)  # each row the linspace of its N
        a, b = edges[:, :-1, None], edges[:, 1:, None]
        r = 0.5 * (a + b) + 0.5 * (b - a) * x
        sums = np.sum(0.5 * (b - a) * w * np.exp(-PI * r * r) * r ** (twice + 1.0)[:, None, None] * 2.0, axis=-1)
        return {N: reduce(add, piece_sums, 0.0) for N, piece_sums in zip(Ns, sums.tolist())}
    lo, hi = R / 4.0, R / 2.0
    transition = [lo + f * (hi - lo) for f in (0.0, 1.0 / 16, 1.0 / 4, 1.0 / 2, 3.0 / 4, 15.0 / 16, 1.0)]
    edges = np.array([0.0, lo / 2.0, *transition])
    a, b = edges[:-1, None], edges[1:, None]
    r = 0.5 * (a + b) + 0.5 * (b - a) * x
    rho = cutoff.rho(r / R)
    weight = 0.5 * (b - a) * w * np.exp(-PI * r * r) * rho * rho
    return {N: reduce(add, np.sum(weight * r ** (2 * N + 1) * 2.0, axis=1).tolist(), 0.0) for N in Ns}


def h_gp(g: Symbol, p: float = 1.0, cutoff: CutoffSpec | None = None) -> HgpResult:
    """Normal-fibre integral of e^{-p pi |Z_N|^2} (g g)(sqrt(p) Z_N) rho^2.

    After substitution the integral is p^{-k} * integral of
    e^{-pi|u|^2} g(u)^H g(u) rho(|u| / (sqrt(p) r_perp))^2 du.  Off-diagonal
    bidegrees vanish against the radial weight, so each diagonal bidegree
    alpha reduces to a 1-d radial integral with the Dirichlet constant
    pi^k * prod(alpha_i!) / (|alpha| + k - 1)!, taken with 160
    Gauss-Legendre nodes on each of the radial pieces (:func:`_gl_rule`, built
    once).  Every radial degree the call needs is taken from one array pass
    under either cutoff (:func:`_radial_moments`).
    """
    p = _check_level(p)
    cutoff = cutoff or IDENTITY_CUTOFF
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
    alphas = hol[diag].tolist()
    Ns = [sum(alpha) + k - 1 for alpha in alphas]
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _radial_moments(set(Ns), R, cutoff)
    if overflowed := [N for N in sorted(moments) if not math.isfinite(moments[N])]:
        raise ValueError(f"h_gp: the radial moment of degree {overflowed[0]} overflows a float")
    dirichlet = [PI**k * math.prod(map(math.factorial, a)) / math.factorial(N) for a, N in zip(alphas, Ns)]
    terms = C[diag] * np.reshape(dirichlet, (-1, 1, 1)) * np.reshape([moments[N] for N in Ns], (-1, 1, 1))
    h_sq = sum(terms, np.zeros((r, r), dtype=complex))
    return HgpResult(h_sq=h_sq / p**k, leading=leading)


def _product(a: Symbol, b: Symbol) -> Symbol:
    """a b, capped at its own degree: fibre integrals take any valid symbol."""
    return Symbol(a.dims, a.poly.mul(b.poly, degree_cap=a.degree() + b.degree()))


# -- norm constants -------------------------------------------------------------


def c1_c2(g: Symbol, kappa_samples: Sequence[float] | None = None) -> tuple[float, float]:
    """sup over kappa samples of kappa^(1/2) ||lambda_eq(g* g)||^(1/2) and
    kappa^(-1/2) ||lambda_eq(g g*)||^(1/2), norms as largest eigenvalues."""
    samples = [1.0] if kappa_samples is None else _json_list(kappa_samples, "kappa_samples", "numbers")
    kappas = [_json_number(v, "kappa sample") for v in samples]
    if not kappas:
        raise ValueError("need at least one kappa sample")
    if not all(math.isfinite(v) and v > 0 for v in kappas):
        raise ValueError(f"kappa samples must be positive and finite, got {kappas}")
    lam1 = max(0.0, float(hermitian_eigs(lambda_eq(_product(g.adjoint(), g)))[-1]))
    lam2 = max(0.0, float(hermitian_eigs(lambda_eq(_product(g, g.adjoint())))[-1]))
    c1 = max(math.sqrt(v) for v in kappas) * math.sqrt(lam1)
    c2 = max(1.0 / math.sqrt(v) for v in kappas) * math.sqrt(lam2)
    return c1, c2


# -- exact Fock pairings and norm estimation -----------------------------------


def fock_indices(dim: int, max_total: int) -> list[tuple[int, ...]]:
    """All multi-indices of length dim with |beta| <= max_total, sorted."""
    dim, max_total = _json_int(dim, "dim"), _json_int(max_total, "max_total")
    if dim < 0:
        raise ValueError(f"dim must be an integer >= 0, got {dim!r}")
    grid = itertools.product(range(max_total + 1), repeat=dim)
    return [b for b in grid if sum(b) <= max_total]


def _pairing_row(rows: list, C: np.ndarray, c: int, r: int, beta: tuple) -> dict[tuple[int, ...], np.ndarray]:
    """{gamma: pairing of conj(z)^beta with z'^gamma}, summed over a ``table``'s rows (as lists) and ``C``.

    Each coordinate of a term z^u zb^v z'^s zb'^t pairs twice through
    compose's one-sided table: first w^u wbar^(v + beta_i) against the
    kernel, which leaves zb'^j where it couples the coordinate (i < c) and
    nothing (j = 0) where it does not; then z'^(s + gamma_i) against the
    leftover zb'^(t + j), uncoupled, which fixes gamma_i = t + j - s >= 0.
    Every other gamma pairs to zero, so a row costs one pass over the terms,
    added in order.
    """
    zero = np.zeros((r, r), dtype=complex)
    row: dict[tuple[int, ...], np.ndarray] = {}
    for exps, coef in zip(rows, C):
        num, p, gamma = 1, 0, []
        for i, b in enumerate(beta):
            u, v, s, t = exps[4 * i : 4 * i + 4]
            kernel = _one_sided(u, v + b, False, i < c)
            if kernel is None or (g := kernel[1] + t - s) < 0:
                break
            _, j, k1, p1 = kernel
            _, _, k2, p2 = _one_sided(s + g, t + j, False, False)
            num, p = num * k1 * k2, p + p1 + p2
            gamma.append(g)
        else:
            key = tuple(gamma)
            row[key] = row.get(key, zero) + num / PI**p * coef
    return row


def _scaled_compose(s1: ScaledKernel, s2: ScaledKernel) -> ScaledKernel:
    if s1.p != s2.p:
        raise ValueError("cannot compose kernels at different scales")
    base = compose(s1.expr, s2.expr)
    return ScaledKernel(base, s1.p, s1.prefactor * s2.prefactor / s1.p**s1.kind.dp)


def norm_estimate(op: KernelExpr | ScaledKernel, basis_cutoff: int) -> float:
    """Operator norm from the largest eigenvalue of a Gram matrix of basis images.

    Builds the Gram kernel on the smaller side, T*T on C^dp when
    ``dp <= du`` and TT* on C^du otherwise, evaluates it exactly on the
    weighted monomial basis up to ``basis_cutoff`` and takes the square root
    of the PSD matrix's top eigenvalue.  The result is a monotone lower
    bound converging in the cutoff.  Each row of the Gram matrix is one
    :func:`_pairing_row`, so filling it costs basis size times terms, not
    basis size squared; the eigenvalue is taken of the full matrix.
    """
    basis_cutoff = _json_int(basis_cutoff, "basis_cutoff")
    if basis_cutoff < 0:
        raise ValueError(f"basis_cutoff must be >= 0, got {basis_cutoff}")
    if isinstance(op, KernelExpr):
        op = ScaledKernel(op, 1.0, 1.0)
    if op.kind.dp <= op.kind.du:
        gram_kernel = _scaled_compose(op.adjoint(), op)
    else:
        gram_kernel = _scaled_compose(op, op.adjoint())
    d = gram_kernel.kind.du
    r = gram_kernel.expr.dims.fiber_rank
    basis = fock_indices(d, basis_cutoff)
    index = {b: i for i, b in enumerate(basis)}
    total = [sum(b) for b in basis]
    factorial = [math.prod(map(math.factorial, b)) for b in basis]
    blocks = np.zeros((len(basis), len(basis), r, r), dtype=complex)
    (E, C), c = gram_kernel.expr.numerator.table, gram_kernel.kind.c
    rows = E.tolist()
    scale = gram_kernel.prefactor * gram_kernel.p ** (-d)
    for ib, b in enumerate(basis):
        for gamma, raw in _pairing_row(rows, C, c, r, b).items():
            if (ig := index.get(gamma)) is not None:
                w = scale * PI ** ((total[ib] + total[ig]) / 2.0) / math.sqrt(factorial[ib] * factorial[ig])
                blocks[ib, ig] = w * raw
    G = blocks.transpose(0, 2, 1, 3).reshape(len(basis) * r, len(basis) * r)
    return math.sqrt(max(float(hermitian_eigs(G)[-1]), 0.0))


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
    return lambda_h(g) if kind.startswith("XY") else lambda_a(g)


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
    max_n = _json_int(max_n, "max_n")
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    records: list[DefectRecord] = []
    # each unit kernel is built once per call and shared by the chains that use it
    ext = {(n, m): unit_expr(Extension(n, m), fiber_rank) for n in range(max_n + 1) for m in range(n + 1)}
    bergman = [unit_expr(Bergman(n), fiber_rank) for n in range(max_n + 1)]
    for n in range(max_n + 1):
        for l in range(n + 1):
            for m in range(l + 1):
                got = compose(ext[n, l], ext[l, m])
                records.append(DefectRecord("transitivity", n, l, m, got.numerator.max_coef_diff(ext[n, m].numerator)))
    for n in range(max_n + 1):
        for m in range(n + 1):
            res = unit_expr(Restriction(n, m), fiber_rank)
            got = compose(res, compose(res, bergman[n]).adjoint())
            deviation = got.numerator.max_coef_diff(bergman[m].numerator)
            records.append(DefectRecord("adjoint_extension", n, None, m, deviation))
    return records


__all__ = [
    "Symbol",
    "CutoffSpec",
    "IDENTITY_CUTOFF",
    "MOpField",
    "HgpResult",
    "DefectRecord",
    "lambda_eq",
    "lambda_h",
    "lambda_a",
    "lambda_eq_quadrature",
    "lambda_h_quadrature",
    "lambda_a_quadrature",
    "m_op",
    "h_gp",
    "c1_c2",
    "fock_indices",
    "norm_estimate",
    "toeplitz_leading",
    "toeplitz_flat_composite",
    "toeplitz_predicted_kernel",
    "flat_defect_checks",
    "TOEPLITZ_KINDS",
]
