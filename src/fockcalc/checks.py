"""The checks ``fockcalc selftest`` runs: small invariants of the calculus.

Each check recomputes a golden value or an identity at desk size and says
whether it holds.  Only the ``selftest`` command imports this module, so no
other command compiles it or loads the submodules it reaches.
"""

from __future__ import annotations

import math

import numpy as np

from .compose import base_terms
from .geometry import (
    GeometryData,
    GeometrySample,
    NormalDirection,
    c0,
    c3_c4,
    dp3,
    hermitian_eigs,
    tower_dp3,
)
from .kernels import Bergman, Extension, KernelExpr, Restriction, unit_expr
from .oracle import laplacian_eigencheck, oracle_compose
from .operators import (
    Symbol,
    flat_defect_checks,
    m_op,
    norm_estimate,
    toeplitz_flat_composite,
    toeplitz_predicted_kernel,
)
from .poly import Dims, Poly

PI = math.pi


def selftest_checks():
    """Yield (name, callable) pairs; each callable returns (ok, detail)."""

    def base_goldens():
        # coupled on both sides ("tangential") and on neither ("normal")
        got_t = {(dz, dzp): {p: int(f)} for dz, dzp, f, p in base_terms(1, 1, True, True)}
        got_n = {(dz, dzp): {p: int(f)} for dz, dzp, f, p in base_terms(1, 1, False, False)}
        ok = got_t == {(1, 1): {0: 1}, (0, 0): {1: 1}} and got_n == {(0, 0): {1: 1}}
        return ok, f"tangential={got_t} normal={got_n}"

    def compose_oracle():
        dims = Dims.of(2, 1)
        a = KernelExpr(
            Poly.monomial(dims, {"z1": 1, "zb'1": 1}, 0.5).add(Poly.one(dims)),
            Bergman(2),
        )
        b = KernelExpr(Poly.monomial(dims, {"zb1": 2}, 1.0), Extension(2, 1))
        report = oracle_compose(a, b)
        return report.passed, f"max_rel={report.max_rel:.2e}"

    def laplacian():
        rep = laplacian_eigencheck((1, 0), (0, 1))
        return rep.passed, f"max_rel={rep.max_rel:.2e}"

    def duality():
        rng = np.random.default_rng(0)
        worst = 0.0
        for n, m in ((1, 0), (2, 1), (3, 1)):
            pts = [
                (rng.normal(size=m) + 1j * rng.normal(size=m), rng.normal(size=n) + 1j * rng.normal(size=n))
                for _ in range(60)
            ]
            zy = np.array([p for p, _ in pts]).reshape(60, m)
            w = np.array([q for _, q in pts])
            lhs = unit_expr(Restriction(n, m)).evaluate_batch(zy, w)[:, 0, 0]
            rhs = np.conj(unit_expr(Extension(n, m)).evaluate_batch(w, zy)[:, 0, 0])
            pad = np.hstack([zy, np.zeros((60, n - m))])
            berg = unit_expr(Bergman(n)).evaluate_batch(pad, w)[:, 0, 0]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(lhs - berg))))
        return worst <= 1e-12, f"max_abs={worst:.2e}"

    def flat_defects():
        records = flat_defect_checks(max_n=3)
        worst = max(rec.deviation for rec in records)
        return worst <= 1e-12, f"max_dev={worst:.2e} over {len(records)} chains"

    def toeplitz_table():
        worst = 0.0
        cases = [
            Symbol.monomial(1, 0, (0,), (1,)),
            Symbol.monomial(1, 0, (2,), (0,)),
            Symbol.monomial(1, 0, (2,), (1,)),
            Symbol.monomial(2, 1, (1,), (1,)),
        ]
        for g in cases:
            for family in ("YY", "XY", "YX"):
                got = toeplitz_flat_composite(family, g)
                want = toeplitz_predicted_kernel(family, g)
                worst = max(worst, got.numerator.max_coef_diff(want.numerator))
        return worst <= 1e-10, f"max_dev={worst:.2e}"

    def constants_goldens():
        s_val = 16.0 * PI
        flat_sample = GeometrySample(id="s0", scal_X=s_val, scal_Y=0.0)
        data = GeometryData(dims=(0, 1), samples=(flat_sample,))
        c3, c4 = c3_c4(data)
        ok1 = abs(c3.value + 1.0) <= 1e-12 and abs(c4.value - 1.0) <= 1e-12
        dir_sample = GeometrySample(
            id="y0",
            normal_dirs=(
                NormalDirection(id="d1", level="WY", d_scal_diff=8.0 * PI),
                NormalDirection(id="e1", level="XW", d_scal_diff=3.0),
            ),
        )
        ddata = GeometryData(dims=(0, 1, 2), samples=(dir_sample,))
        ok2 = abs(c0(ddata).value - 1.0 / math.sqrt(PI)) <= 1e-12
        zero = dp3(ddata, {"e1": 1.0})
        ok3 = float(np.max(np.abs(zero))) <= 1e-15
        lhs = tower_dp3((dir_sample,), {"d1": 0.5})
        rhs = dp3(ddata, {"d1": 0.5})
        ok4 = float(np.max(np.abs(lhs - rhs))) <= 1e-15
        return ok1 and ok2 and ok3 and ok4, f"c3c4=({c3.value:.6f},{c4.value:.6f})"

    def eigs():
        v1 = hermitian_eigs(np.diag([3.0, 1.0, 2.0]))
        v2 = hermitian_eigs(np.array([[0.0, 1j], [-1j, 0.0]]))
        ok = np.allclose(v1, [1.0, 2.0, 3.0], atol=1e-12) and np.allclose(
            v2, [-1.0, 1.0], atol=1e-12
        )
        return ok, f"diag={v1.tolist()} pauli={v2.tolist()}"

    def model_norm():
        op = m_op(Symbol.monomial(1, 0, (0,), (1,)), p=4.0)
        val = norm_estimate(op, basis_cutoff=8)
        want = 1.0 / (2.0 * math.sqrt(PI))
        return abs(val - want) <= 1e-10, f"norm={val:.10f} want={want:.10f}"

    yield "base_goldens", base_goldens
    yield "compose_oracle", compose_oracle
    yield "laplacian_eigen", laplacian
    yield "duality", duality
    yield "flat_defects", flat_defects
    yield "toeplitz_table", toeplitz_table
    yield "constants_goldens", constants_goldens
    yield "hermitian_eigs", eigs
    yield "model_norm", model_norm
