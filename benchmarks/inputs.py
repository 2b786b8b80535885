"""Seeded inputs for the benchmark workloads.

Inputs are built through the program's own constructors (``Poly``,
``KernelExpr``, ``Symbol``) or JSON loaders.  Nothing is read from the
test suite, so later changes to the tests cannot move the benchmark's
inputs.

Each input draws from two generators (:class:`Source`).  The ``shape``
generator has a fixed seed and picks structure: exponents, term counts,
multi-indices.  The ``value`` generator is seeded from the command line
and picks coefficients, points and scales.  So every seed does the same
amount of work, and the spread between runs with different seeds is the
spread of the machine, not of the inputs.
"""

from __future__ import annotations

import math

import numpy as np

from fockcalc import (
    Bergman,
    Dims,
    Extension,
    OrthBergman,
    Poly,
    Restriction,
    Symbol,
)

SHAPE_SEED = 20220112


class Source:
    """The fixed-seed ``shape`` and the run-seeded ``value`` generators."""

    def __init__(self, seed: int, stream: int):
        self.shape = np.random.default_rng([SHAPE_SEED, stream])
        self.value = np.random.default_rng([seed, stream])

    def coef(self, fiber_rank: int) -> np.ndarray:
        size = (fiber_rank, fiber_rank)
        return self.value.normal(size=size) + 1j * self.value.normal(size=size)


# The acceptance-battery chains (n, l, m), all with n, l, m <= 3.
CHAINS = [
    (1, 1, 0),
    (2, 1, 1),
    (2, 2, 1),
    (3, 2, 1),
    (3, 3, 2),
    (2, 2, 0),
    (3, 1, 1),
    (1, 1, 1),
    (3, 3, 3),
    (2, 0, 0),
]


def kind_pairs(n: int, l: int, m: int) -> list[tuple]:
    """The ten composable kind pairs of one (n, l, m) chain."""
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


def kind_dims(kind, fiber_rank: int) -> Dims:
    n = kind.n
    return Dims(n=n, l=n, m=getattr(kind, "m", n), fiber_rank=fiber_rank)


def allowed_slots(kind) -> list[tuple[int, int]]:
    """(coordinate index, offset) pairs a numerator of this kind may use."""
    n = kind.n
    m = getattr(kind, "m", n)
    slots = []
    for i in range(1, n + 1):
        for o in range(4):
            primed = o >= 2
            if isinstance(kind, Extension) and primed and i > m:
                continue
            if isinstance(kind, Restriction) and not primed and i > m:
                continue
            slots.append((i, o))
    return slots


def random_factor(src: Source, kind, fiber_rank: int, n_terms: int, parity: int) -> Poly:
    """A factor of up to ``n_terms`` monomials sharing the degree parity.

    Term j has degree ``parity + 2 * (j % 2)``, so the degree profile of a
    factor is fixed by its shape.  A single parity per factor makes products and
    composites keep one, which gives the parity law something to check.
    Kinds with few free variables (``Bergman(0)`` has none) get fewer terms.
    """
    dims = kind_dims(kind, fiber_rank)
    slots = allowed_slots(kind)
    terms: dict[tuple[int, ...], np.ndarray] = {}
    for j in range(8 * n_terms):
        if len(terms) == n_terms:
            break
        exps = [0] * (4 * dims.n)
        for _ in range(parity + 2 * (j % 2) if slots else 0):
            i, o = slots[int(src.shape.integers(0, len(slots)))]
            exps[4 * (i - 1) + o] += 1
        terms[tuple(exps)] = src.coef(fiber_rank)
    return Poly(dims, terms)


def factor_pair(src: Source, kind, fiber_rank: int, shape: int) -> tuple[Poly, Poly]:
    """Two factors whose product has about 3 to 30 terms.

    ``shape`` (the op's position in the list) picks the term counts and
    parities, so the ops cover the size range evenly.
    """
    return (
        random_factor(src, kind, fiber_rank, 1 + shape % 5, shape % 2),
        random_factor(src, kind, fiber_rank, 3 + (shape // 5) % 4, (shape // 2) % 2),
    )


def random_symbol(
    src: Source,
    n: int,
    m: int,
    fiber_rank: int,
    n_terms: int,
    max_deg: int = 3,
    one_parity: bool = False,
) -> tuple[Symbol, dict]:
    """A symbol and the raw ``{(hol, antihol): coef}`` terms it was built from.

    With ``one_parity`` every term has the same degree parity (the Toeplitz
    chains reject mixed parity); degrees stay <= ``max_deg`` either way.
    """
    k = n - m
    parity = int(src.shape.integers(0, 2))
    terms: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}
    for _ in range(8 * n_terms):
        if len(terms) == n_terms:
            break
        if one_parity:
            degree = parity + 2 * int(src.shape.integers(0, (max_deg - parity) // 2 + 1))
        else:
            degree = int(src.shape.integers(0, max_deg + 1))
        hol, antihol = [0] * k, [0] * k
        for _ in range(degree):
            j = int(src.shape.integers(0, k))
            if src.shape.integers(0, 2):
                hol[j] += 1
            else:
                antihol[j] += 1
        terms[(tuple(hol), tuple(antihol))] = src.coef(fiber_rank)
    return Symbol.from_terms(n, m, terms, fiber_rank), terms


def random_point(src: Source, dim: int, scale: float = 0.6) -> np.ndarray:
    return scale * (src.value.normal(size=dim) + 1j * src.value.normal(size=dim))


def hermitian(rng: np.random.Generator, size: int) -> np.ndarray:
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return a + a.conj().T


def own_lambda(terms: dict, family: str) -> dict:
    """lambda_eq ("YY"), lambda_h ("XY") or lambda_a ("YX") recomputed from a
    symbol's raw ``{(hol, antihol): coef}`` terms, for the checks; the
    lambda_eq value sits under the key ``None``."""
    out: dict = {}
    for (hol, antihol), coef in terms.items():
        if family == "YY":
            if hol != antihol:
                continue
            key, w = None, math.prod(math.factorial(a) for a in hol) / math.pi ** sum(hol)
        else:
            top, bottom = (hol, antihol) if family == "XY" else (antihol, hol)
            if top == bottom or any(t < b for t, b in zip(top, bottom)):
                continue
            w = math.prod(math.factorial(t) / math.factorial(t - b) for t, b in zip(top, bottom))
            w /= math.pi ** sum(bottom)
            diff = tuple(t - b for t, b in zip(top, bottom))
            zero = tuple(0 for _ in diff)
            key = (diff, zero) if family == "XY" else (zero, diff)
        out[key] = out.get(key, 0) + np.asarray(coef) * w
    return out
