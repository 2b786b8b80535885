"""Normal-fibre symbols and the operator layer built on them.

A :class:`Symbol` is a polynomial in the normal variables ``w_j = z_{m+j}``
(and conjugates) with matrix coefficients.  On top of it this module
provides:

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
from typing import Mapping, Sequence

import numpy as np

from .poly import (
    Dims,
    Poly,
    O_Z,
    O_ZB,
    O_ZP,
    O_ZBP,
    var_offset,
    variable_columns,
    _as_coef,
    _coef_to_json,
    _coef_from_json,
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


def _multi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


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
        n, m = self.dims.n, self.dims.m
        for exps in self.poly.terms:
            for i in range(1, n + 1):
                for o in (O_ZP, O_ZBP):
                    if exps[var_offset(i, o)]:
                        raise ValueError("symbol uses a primed variable")
                if i <= m and (exps[var_offset(i, O_Z)] or exps[var_offset(i, O_ZB)]):
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
        acc: dict[tuple, np.ndarray] = {}
        for (hol, antihol), coef in terms.items():
            hol, antihol = tuple(int(a) for a in hol), tuple(int(b) for b in antihol)
            if len(hol) != k or len(antihol) != k:
                raise ValueError(f"multi-index length must be n-m={k}")
            if any(a < 0 for a in hol + antihol):
                raise ValueError("negative exponent in symbol term")
            exps = [0] * (4 * n)
            for j in range(k):
                exps[var_offset(m + j + 1, O_Z)] = hol[j]
                exps[var_offset(m + j + 1, O_ZB)] = antihol[j]
            key = tuple(exps)
            c = _as_coef(coef, fiber_rank)
            acc[key] = acc[key] + c if key in acc else c
        return cls(dims, Poly(dims, acc))

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

    def terms(self) -> dict[tuple[MultiIndex, MultiIndex], np.ndarray]:
        n, m, k = self.n, self.m, self.k
        out: dict[tuple[MultiIndex, MultiIndex], np.ndarray] = {}
        for exps, coef in self.poly.sorted_terms():
            hol = tuple(exps[var_offset(m + j + 1, O_Z)] for j in range(k))
            antihol = tuple(exps[var_offset(m + j + 1, O_ZB)] for j in range(k))
            out[(hol, antihol)] = coef
        return out

    def bidegrees(self) -> list[tuple[int, int]]:
        return sorted({(sum(h), sum(a)) for h, a in self.terms()})

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
        """g*: swap each bidegree (i, j) -> (j, i), conjugate-transpose coefs."""
        out = {
            (antihol, hol): coef.conj().T for (hol, antihol), coef in self.terms().items()
        }
        return Symbol.from_terms(self.n, self.m, out, self.fiber_rank)

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
        out: dict[tuple, np.ndarray] = {}
        for exps, coef in self.poly.terms.items():
            e = [0] * len(exps)
            for i in range(1, self.n + 1):
                e[var_offset(i, O_ZP)] = exps[var_offset(i, O_Z)]
                e[var_offset(i, O_ZBP)] = exps[var_offset(i, O_ZB)]
            out[tuple(e)] = coef
        return Poly(self.dims, out)

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
        r = int(d.get("fiber_rank", 1))
        terms: dict[tuple[MultiIndex, MultiIndex], np.ndarray] = {}
        for t in d["terms"]:
            bad = set(t) - {"hol", "antihol", "coef"}
            if bad:
                raise ValueError(f"unknown symbol term keys: {sorted(bad)}")
            key = (tuple(int(a) for a in t["hol"]), tuple(int(b) for b in t["antihol"]))
            c = _coef_from_json(t["coef"], r)
            terms[key] = terms[key] + c if key in terms else c
        return cls.from_terms(int(d["n"]), int(d["m"]), terms, r)


def _scalar_dict_mul(d1: dict, d2: dict) -> dict:
    out: dict[MultiIndex, complex] = {}
    for e1, v1 in d1.items():
        for e2, v2 in d2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + v1 * v2
    return out


def _linear_power(coeffs: np.ndarray, power: int) -> dict:
    """(sum_j coeffs[j] x_j)^power as dict[exp tuple -> scalar]."""
    k = len(coeffs)
    out: dict[MultiIndex, complex] = {tuple([0] * k): 1.0 + 0.0j}
    lin = {
        tuple(int(i == j) for i in range(k)): complex(c)
        for j, c in enumerate(coeffs)
        if c != 0
    }
    for _ in range(power):
        out = _scalar_dict_mul(out, lin)
    return out


def rotate_symbol(g: Symbol, U) -> Symbol:
    """Substitute w_i -> sum_j U[i, j] w_j (and the conjugate on wbar)."""
    U = np.asarray(U, dtype=complex)
    k = g.k
    if U.shape != (k, k):
        raise ValueError(f"rotation must be {k}x{k}")
    acc: dict[tuple[MultiIndex, MultiIndex], np.ndarray] = {}
    for (hol, antihol), coef in g.terms().items():
        hol_part: dict[MultiIndex, complex] = {tuple([0] * k): 1.0 + 0.0j}
        anti_part: dict[MultiIndex, complex] = {tuple([0] * k): 1.0 + 0.0j}
        for i in range(k):
            if hol[i]:
                hol_part = _scalar_dict_mul(hol_part, _linear_power(U[i], hol[i]))
            if antihol[i]:
                anti_part = _scalar_dict_mul(
                    anti_part, _linear_power(np.conj(U[i]), antihol[i])
                )
        for eh, vh in hol_part.items():
            for ea, va in anti_part.items():
                key = (eh, ea)
                c = vh * va * coef
                acc[key] = acc[key] + c if key in acc else c
    return Symbol.from_terms(g.n, g.m, acc, g.fiber_rank)


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
        if self.r_perp <= 0:
            raise ValueError("r_perp must be positive")
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
    r = g.fiber_rank
    acc = np.zeros((r, r), dtype=complex)
    for (hol, antihol), coef in g.terms().items():
        if hol == antihol:
            acc = acc + coef * (_multi_factorial(antihol) / PI ** sum(antihol))
    return acc


def lambda_h(g: Symbol) -> Symbol:
    """Holomorphic contraction: (alpha, beta) with alpha > beta componentwise-ge
    maps to coef * prod alpha_i!/(alpha_i-beta_i)! / pi^|beta| * w^(alpha-beta)."""
    out: dict[tuple[MultiIndex, MultiIndex], np.ndarray] = {}
    zero = tuple([0] * g.k)
    for (hol, antihol), coef in g.terms().items():
        if hol == antihol or any(a < b for a, b in zip(hol, antihol)):
            continue
        weight = 1.0
        for a, b in zip(hol, antihol):
            weight *= math.factorial(a) / math.factorial(a - b)
        weight /= PI ** sum(antihol)
        key = (tuple(a - b for a, b in zip(hol, antihol)), zero)
        c = coef * weight
        out[key] = out[key] + c if key in out else c
    return Symbol.from_terms(g.n, g.m, out, g.fiber_rank)


def lambda_a(g: Symbol) -> Symbol:
    """Antiholomorphic contraction, mirror of :func:`lambda_h`."""
    out: dict[tuple[MultiIndex, MultiIndex], np.ndarray] = {}
    zero = tuple([0] * g.k)
    for (hol, antihol), coef in g.terms().items():
        if hol == antihol or any(b < a for a, b in zip(hol, antihol)):
            continue
        weight = 1.0
        for a, b in zip(hol, antihol):
            weight *= math.factorial(b) / math.factorial(b - a)
        weight /= PI ** sum(hol)
        key = (zero, tuple(b - a for a, b in zip(hol, antihol)))
        c = coef * weight
        out[key] = out[key] + c if key in out else c
    return Symbol.from_terms(g.n, g.m, out, g.fiber_rank)


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
    if p < 1:
        raise ValueError("p must be >= 1")
    return BracketField(g, float(p), cutoff or IDENTITY_CUTOFF)


@dataclass(frozen=True)
class MOpField:
    """Sampled model-operator kernel: cutoff factor times a scaled kernel."""

    base: ScaledKernel
    cutoff: CutoffSpec
    normal_slot: str  # which argument carries the normal variables

    def evaluate(self, Z, Zp) -> np.ndarray:
        n = self.base.kind.n
        m = getattr(self.base.kind, "m", n)
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
    symbolic: bool | None = None,
):
    """Model operator kernel.

    ``direct``   : prefactor p^m, bracket symbol on the unprimed normal
                   variables, extension kernel;
    ``adjoint``  : prefactor p^n (the extra p^(n-m) from fibre integration),
                   bracket symbol on the primed normal variables, restriction
                   kernel.

    Identity cutoff returns a :class:`ScaledKernel`; a smooth bump returns a
    sampled :class:`MOpField` (or raises if ``symbolic=True`` is forced).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    n = g.n if n is None else int(n)
    m = g.m if m is None else int(m)
    if (n, m) != (g.n, g.m):
        raise ValueError(
            f"dimension mismatch: symbol has (n, m) = {(g.n, g.m)}, requested {(n, m)}"
        )
    cutoff = cutoff or IDENTITY_CUTOFF
    if symbolic and not cutoff.is_identity:
        raise ValueError("smooth_bump cutoff has no symbolic kernel form")
    if variant == "direct":
        expr = KernelExpr(g.to_poly("unprimed"), Extension(n, m))
        base = ScaledKernel(expr, float(p), float(p) ** m)
        slot = "unprimed"
    elif variant == "adjoint":
        expr = KernelExpr(g.to_poly("primed"), Restriction(n, m))
        base = ScaledKernel(expr, float(p), float(p) ** n)
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


def _gl_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


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
    pi^k * prod(alpha_i!) / (|alpha| + k - 1)!.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    cutoff = cutoff or IDENTITY_CUTOFF
    nodes = 160 if grid is None else int(grid)
    if nodes < 8:
        from .oracle import InsufficientNodesError

        raise InsufficientNodesError("quadrature budget too small for h_gp")
    k = g.k
    r = g.fiber_rank
    product = g.adjoint().mul(g)
    leading = lambda_eq(product) / float(p) ** k
    if k == 0:
        consts = product.terms().get(((), ()))
        h_sq = np.zeros((r, r), dtype=complex) if consts is None else consts.copy()
        return HgpResult(h_sq=h_sq, leading=leading)
    R = math.sqrt(p) * cutoff.r_perp
    h_sq = np.zeros((r, r), dtype=complex)
    moments: dict[int, float] = {}
    for (hol, antihol), coef in product.terms().items():
        if hol != antihol:
            continue
        N = sum(hol)
        if N not in moments:
            moments[N] = _radial_moment(N + k - 1, R, cutoff, nodes)
        dirichlet = PI**k * _multi_factorial(hol) / math.factorial(N + k - 1)
        h_sq = h_sq + coef * dirichlet * moments[N]
    return HgpResult(h_sq=h_sq / float(p) ** k, leading=leading)


# -- norm constants -------------------------------------------------------------


def c1_c2(g: Symbol, kappa_samples: Sequence[float] | None = None) -> tuple[float, float]:
    """sup over kappa samples of kappa^(1/2) ||lambda_eq(g* g)||^(1/2) and
    kappa^(-1/2) ||lambda_eq(g g*)||^(1/2), norms as largest eigenvalues."""
    kappas = [1.0] if kappa_samples is None else [float(v) for v in kappa_samples]
    if not kappas:
        raise ValueError("need at least one kappa sample")
    if any(v <= 0 for v in kappas):
        raise ValueError("kappa samples must be positive")
    lam1 = max(0.0, float(hermitian_eigs(lambda_eq(g.adjoint().mul(g)))[-1]))
    lam2 = max(0.0, float(hermitian_eigs(lambda_eq(g.mul(g.adjoint())))[-1]))
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
    if kind not in TOEPLITZ_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {TOEPLITZ_KINDS}")
    parity = g.parity()
    if parity is None and not g.is_zero():
        raise ValueError("symbol has mixed parity; split it into even and odd parts")
    if kind == "YY":
        return lambda_eq(g)
    family = kind.split("_")[0]
    if parity is not None:
        kind = f"{family}_{'odd' if parity else 'even'}"
    result = lambda_h(g) if family == "XY" else lambda_a(g)
    if kind.endswith("odd"):
        order0 = result.terms().get((tuple([0] * g.k), tuple([0] * g.k)))
        if order0 is not None and np.max(np.abs(order0)) > 0:
            raise AssertionError("odd symbol produced a nonzero order-0 coefficient")
    return result


def toeplitz_flat_composite(family: str, g: Symbol) -> KernelExpr:
    """The p = 1 flat composite the leading-term table predicts.

    family YY: Res o (B g B) o E          -> lambda_eq(g) * Bergman(m)
    family XY: (B - Borth) o (B g B) o E  -> lambda_h(g) * Extension(n, m)
    family YX: Res o (B g B) o (B - Borth)-> lambda_a(g) * Restriction(n, m)

    Borth = E o Res is the projector onto the sub-band; its leg is applied
    as E after Res, one composition at a time.
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
        through = compose(ext, compose(res, inner))
        return compose(bergman, inner).add(through.scale(-1.0))
    if family == "YX":
        left = compose(res, sandwich)
        through = compose(compose(left, ext), res)
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
