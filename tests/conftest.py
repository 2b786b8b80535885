"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from fockcalc import (
    Bergman,
    Dims,
    Extension,
    KernelExpr,
    OrthBergman,
    Poly,
    Restriction,
    Symbol,
)
from fockcalc.poly import _var_offset

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# -- value strategies -----------------------------------------------------------

small_complex = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def complex_rows(draw, count: int, width: int) -> np.ndarray:
    """A (count, width) array of small complex values."""
    flat = draw(st.lists(small_complex, min_size=count * width, max_size=count * width))
    return np.array(flat, dtype=complex).reshape(count, width)


@st.composite
def kind_st(draw, max_n: int = 3):
    """Any of the four kernel kinds on C^n, n <= max_n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=n))
    family = draw(st.sampled_from([OrthBergman, Extension, Restriction, None]))
    return Bergman(n) if family is None else family(n, m)


@st.composite
def dims_st(draw, max_n: int = 3, max_rank: int = 2):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=n))
    r = draw(st.integers(min_value=1, max_value=max_rank))
    return Dims(n=n, l=n, m=m, fiber_rank=r)


@st.composite
def poly_st(draw, dims: Dims | None = None, max_deg: int = 3, max_terms: int = 3):
    if dims is None:
        dims = draw(dims_st())
    n, r = dims.n, dims.fiber_rank
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = [0] * (4 * n)
        budget = draw(st.integers(min_value=0, max_value=max_deg))
        for _ in range(budget):
            slot = draw(st.integers(min_value=0, max_value=4 * n - 1))
            exps[slot] += 1
        coef = np.array(
            [[draw(small_complex) for _ in range(r)] for _ in range(r)]
        )
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coef
    return Poly(dims, terms)


def term_sum(poly: Poly, x) -> tuple[np.ndarray, float]:
    """Per-point reference for evaluation: sum over ``poly.terms`` of
    coef * prod_j x[j] ** e[j], with x in the exponent layout, and the sum of
    the terms' magnitudes (the scale a rounding error is relative to)."""
    r = poly.dims.fiber_rank
    acc = np.zeros((r, r), dtype=complex)
    scale = 0.0
    for exps, coef in poly.terms.items():
        v = 1.0 + 0.0j
        for xj, ej in zip(x, exps):
            v *= complex(xj) ** ej
        acc = acc + v * coef
        scale += abs(v) * float(np.max(np.abs(coef)))
    return acc, scale


# -- seeded random builders (for the larger battery loops) -----------------------


def random_poly(
    rng: np.random.Generator,
    dims: Dims,
    max_deg: int = 4,
    n_terms: int = 3,
    unprimed_only: bool = False,
) -> Poly:
    """Random sparse polynomial with coordinates restricted to the given dims."""
    n, r = dims.n, dims.fiber_rank
    terms = {}
    for _ in range(n_terms):
        exps = [0] * (4 * n)
        degree = int(rng.integers(0, max_deg + 1)) if n else 0
        for _ in range(degree):
            i = int(rng.integers(1, n + 1))
            o = int(rng.integers(0, 2)) if unprimed_only else int(rng.integers(0, 4))
            exps[_var_offset(i, o)] += 1
        coef = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coef
    return Poly(dims, terms)


def trim_poly_for_kind(poly: Poly, kind) -> Poly:
    """Drop the terms that use a variable the kernel kind's domain check forbids:
    unprimed ones beyond ``du`` and primed ones beyond ``dp``.  The rest keep
    their store order."""
    B = poly._blocks()
    keep = ~(B[:, kind.du :, :2].any(axis=(1, 2)) | B[:, kind.dp :, 2:].any(axis=(1, 2)))
    return Poly._from_arrays(poly.dims, poly.exps[keep], poly.coefs[keep])


def random_kernel_expr(rng: np.random.Generator, kind, fiber_rank: int = 1, max_deg: int = 4) -> KernelExpr:
    n = kind.n
    dims = Dims(n=n, l=n, m=kind.m, fiber_rank=fiber_rank)
    poly = random_poly(rng, dims, max_deg=max_deg)
    poly = trim_poly_for_kind(poly, kind)
    if poly.is_zero():
        poly = Poly.one(dims)
    return KernelExpr(poly, kind)


def supported_kind_pairs(n: int, l: int, m: int):
    """All composable kind pairs within one (n, l, m) chain."""
    return [
        (Bergman(n), Bergman(n)),
        (OrthBergman(n, m), OrthBergman(n, m)),
        (Bergman(n), OrthBergman(n, m)),
        (Bergman(n), Extension(n, m)),
        (OrthBergman(n, m), Extension(n, m)),
        (Restriction(n, m), Extension(n, m)),
        (Extension(n, m), Bergman(m)),
        (Extension(n, l), Extension(l, m)),
        (Restriction(n, m), Bergman(n)),
        (Bergman(m), Restriction(n, m)),
    ]


def random_symbol(
    rng: np.random.Generator,
    n: int,
    m: int,
    fiber_rank: int = 1,
    max_deg: int = 3,
    n_terms: int = 3,
) -> Symbol:
    k = n - m
    terms = {}
    for _ in range(n_terms):
        hol = [0] * k
        antihol = [0] * k
        for _ in range(int(rng.integers(0, max_deg + 1))):
            j = int(rng.integers(0, k))
            if rng.integers(0, 2):
                hol[j] += 1
            else:
                antihol[j] += 1
        coef = rng.normal(size=(fiber_rank,) * 2) + 1j * rng.normal(size=(fiber_rank,) * 2)
        key = (tuple(hol), tuple(antihol))
        terms[key] = terms.get(key, 0) + coef
    return Symbol.from_terms(n, m, terms, fiber_rank)


def bidegrees(g: Symbol) -> list[tuple[int, int]]:
    """The sorted distinct (|hol|, |antihol|) of g's terms."""
    return sorted({(sum(hol), sum(anti)) for hol, anti in g.terms()})


def linear_symbol(mats: np.ndarray, m: int) -> tuple[Symbol, float, float]:
    """g_M = sum_d M_d wbar_d on C^(m + D) over C^m for the D matrices ``mats``, and the
    ends of c0's bracket over sqrt(pi): a / sqrt(pi) and b / sqrt(pi), with
    a^2 = lambda_max(sum M_d^H M_d) and b^2 = lambda_max(sum M_d M_d^H)."""
    D, r = len(mats), mats.shape[1]
    terms = {((0,) * D, tuple(int(e == d) for e in range(D))): M for d, M in enumerate(mats)}
    a2 = np.linalg.eigvalsh(sum(M.conj().T @ M for M in mats))[-1]
    b2 = np.linalg.eigvalsh(sum(M @ M.conj().T for M in mats))[-1]
    return Symbol.from_terms(m + D, m, terms, fiber_rank=r), math.sqrt(a2 / math.pi), math.sqrt(b2 / math.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
