"""compose_battery: symbolic composition, no quadrature on the timed path.

Each compose op multiplies two seeded factors per side with ``Poly.mul``
(numerators of ~3 to ~30 terms) and calls ``compose``.  The ops cover the
ten supported kind pairs on every acceptance-battery chain at fiber ranks
1 and 2.  Toeplitz flat-composite chains and ``flat_defect_checks`` ride
along.  Almost all of the time goes to ``poly`` and ``compose``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from fockcalc import (
    KernelExpr,
    QuadGrid,
    UnsupportedCompositionError,
    compose,
    compose_plan,
    kind_name,
    oracle_compose,
    primed_dim,
    toeplitz_flat_composite,
    toeplitz_predicted_kernel,
)

from common import Op, Workload, call
from inputs import CHAINS, Source, factor_pair, kind_pairs, random_symbol

ORACLE_EVERY = 8  # every 8th compose op is cross-checked by quadrature
ORACLE_NODES = 24
REVERSE_TOL = 1e-12
ORACLE_TOL = 1e-9
TOEPLITZ_TOL = 1e-10
DEFECT_TOL = 1e-12
TOEPLITZ_SHAPES = [(1, 0, 1), (2, 1, 1), (3, 1, 1), (1, 0, 2), (2, 1, 2)]
DEFECT_CASES = [(3, 1), (2, 2)]  # (max_n, fiber_rank)


def _label(kind) -> str:
    dims = f"{kind.n},{kind.m}" if hasattr(kind, "m") else f"{kind.n}"
    return f"{kind_name(kind)}({dims})"


def _compose_op(k1, f1, k2, f2):
    e1 = KernelExpr(f1[0].mul(f1[1]), k1)
    e2 = KernelExpr(f2[0].mul(f2[1]), k2)
    return e1, e2, compose(e1, e2)


def _toeplitz_op(family, g):
    return toeplitz_flat_composite(family, g), toeplitz_predicted_kernel(family, g)


def _scale(poly) -> float:
    return max((float(np.max(np.abs(c))) for c in poly.terms.values()), default=0.0)


def defect_count(max_n: int) -> int:
    """Chains flat_defect_checks must report: sum (n+1)(n+2)/2 + (n+1)."""
    return sum((n + 1) * (n + 2) // 2 + (n + 1) for n in range(max_n + 1))


def check_compose(res, with_oracle: bool) -> list[str]:
    e1, e2, out = res
    errors = []
    d1, d2, d3 = e1.numerator.degree(), e2.numerator.degree(), out.numerator.degree()
    if d3 > d1 + d2:
        errors.append(f"degree {d3} > {d1} + {d2}")
    p1, p2, p3 = e1.numerator.parity(), e2.numerator.parity(), out.numerator.parity()
    if None not in (p1, p2) and not out.numerator.is_zero() and p3 != (p1 + p2) % 2:
        errors.append(f"parity {p3} != ({p1} + {p2}) mod 2")
    a1, a2 = e1.adjoint(), e2.adjoint()
    try:
        compose_plan(a2.kind, a1.kind)
    except UnsupportedCompositionError:
        pass
    else:
        back = compose(a2, a1).adjoint()
        dev = out.numerator.max_coef_diff(back.numerator)
        if dev > REVERSE_TOL * max(1.0, _scale(out.numerator)):
            errors.append(f"compose(a, b) != compose(b*, a*)*: {dev:.2e}")
    if with_oracle:
        grid = QuadGrid(nodes_per_axis=ORACLE_NODES, n=primed_dim(e1.kind))
        rep = oracle_compose(e1, e2, grid=grid, expected=out, rel_tol=ORACLE_TOL)
        if not rep.passed:
            errors.append(f"oracle disagrees: rel {rep.max_rel:.2e}")
    return errors


def check_toeplitz(res) -> list[str]:
    got, want = res
    dev = got.numerator.max_coef_diff(want.numerator)
    if dev > TOEPLITZ_TOL * max(1.0, _scale(want.numerator)):
        return [f"flat composite off prediction by {dev:.2e}"]
    return []


def check_defects(records, max_n: int) -> list[str]:
    errors = []
    if len(records) != defect_count(max_n):
        errors.append(f"{len(records)} records, want {defect_count(max_n)}")
    worst = max(rec.deviation for rec in records)
    if worst > DEFECT_TOL:
        errors.append(f"defect {worst:.2e}")
    return errors


def setup(seed: int, workdir) -> Workload:
    src = Source(seed, 1)
    ops: list[Op] = []
    checks: list = []  # one callable per op: result -> list of errors
    composes: list[int] = []
    for c, chain in enumerate(CHAINS):
        for k1, k2 in kind_pairs(*chain):
            for rank in (1, 2):
                shape = len(ops)
                f1, f2 = factor_pair(src, k1, rank, shape), factor_pair(src, k2, rank, shape + 7)
                ops.append(Op(f"compose {_label(k1)}o{_label(k2)} r{rank} chain{c}", partial(_compose_op, k1, f1, k2, f2)))
                checks.append(partial(check_compose, with_oracle=len(composes) % ORACLE_EVERY == 0))
                composes.append(len(ops) - 1)
    for n, m, rank in TOEPLITZ_SHAPES:
        g, _ = random_symbol(src, n, m, rank, 2 + len(ops) % 3, one_parity=True)
        for family in ("YY", "XY", "YX"):
            ops.append(Op(f"toeplitz {family} n{n}m{m} r{rank}", partial(_toeplitz_op, family, g)))
            checks.append(check_toeplitz)
    for max_n, rank in DEFECT_CASES:
        ops.append(Op(f"flat_defects max_n{max_n} r{rank}", partial(call, "flat_defect_checks", max_n, rank)))
        checks.append(partial(check_defects, max_n=max_n))

    def check(results: list) -> list[str]:
        errors = [
            f"{op.name}: {err}"
            for op, judge, res in zip(ops, checks, results)
            if res is not None
            for err in judge(res)
        ]
        outs = [results[i][2] for i in composes if results[i] is not None]
        parities = sum(out.numerator.parity() is not None for out in outs)
        if parities < len(outs) // 2:
            errors.append(f"parity law exercised on only {parities} of {len(outs)} composites")
        return errors

    return Workload(ops=ops, check=check)
