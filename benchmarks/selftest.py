#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must flag a deliberately wrong result.

    python3 benchmarks/selftest.py

For each workload it runs a few real ops, asserts that the check accepts
their true results, then feeds a wrong result and asserts that the check
flags it: a composite coefficient perturbed by 1e-6, a lambda quadrature
value off by 1e-8, a shifted eigenvalue and a NaN in emitted JSON.  Exits 0
when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

from run import OUT, import_program, run_op


def run_some(workload, prefixes: tuple[str, ...]) -> list:
    """Results of the first op whose name starts with each prefix; None elsewhere."""
    results = [None] * len(workload.ops)
    for prefix in prefixes:
        i = next(i for i, op in enumerate(workload.ops) if op.name.startswith(prefix))
        result, reason, _ = run_op(workload.ops[i])
        if reason:
            raise RuntimeError(f"{workload.ops[i].name} failed: {reason}")
        results[i] = result
    return results


def compose_cases(workdir):
    import compose_battery
    from fockcalc import KernelExpr, Poly

    w = compose_battery.setup(0, workdir)
    results = run_some(w, ("compose",))
    yield "compose: true composite accepted", not w.check(results)
    i = next(i for i, r in enumerate(results) if r is not None)
    e1, e2, out = results[i]
    terms = dict(out.numerator.terms)
    key = sorted(terms)[0]
    terms[key] = terms[key] + 1e-6
    results[i] = (e1, e2, KernelExpr(Poly(out.numerator.dims, terms), out.kind))
    yield "compose: coefficient perturbed by 1e-6 flagged", bool(w.check(results))


def quadrature_cases(workdir):
    import quadrature_battery

    w = quadrature_battery.setup(0, workdir)
    prefixes = ("lambda_eq_quadrature", "lambda_h_quadrature", "lambda_a_quadrature")
    results = run_some(w, prefixes)
    yield "quadrature: true lambda values accepted", not w.check(results)
    for i, r in enumerate(results):
        if r is not None:
            wrong = list(results)
            wrong[i] = r + 1e-8
            yield f"quadrature: {w.ops[i].name} off by 1e-8 flagged", bool(w.check(wrong))


def cli_cases(workdir):
    import cli_session

    w = cli_session.setup(0, workdir)
    results = run_some(w, ("spectrum 2x2", "compose pair0"))
    yield "cli: true spectrum and compose outputs accepted", not w.check(results)
    i = next(i for i, op in enumerate(w.ops) if op.name.startswith("spectrum 2x2"))
    payload = json.loads(results[i].stdout)
    payload["eigenvalues"][0] += 1e-8
    wrong = list(results)
    wrong[i] = replace(results[i], stdout=json.dumps(payload).encode())
    yield "cli: eigenvalue shifted by 1e-8 flagged", bool(w.check(wrong))
    j = next(i for i, op in enumerate(w.ops) if op.name == "compose pair0")
    text = results[j].stdout.decode()
    start = text.index('"coef"')
    number = text.index("[", text.index("[", text.index("[", start) + 1) + 1) + 1
    end = text.index(",", number)
    nan = replace(results[j], stdout=(text[:number] + "NaN" + text[end:]).encode())
    yield "cli: NaN in emitted JSON flagged", w.ops[j].judge(nan) is not None
    traceback = cli_session.CliResult(1, b"", b"Traceback (most recent call last):\nValueError: x\n", 0)
    yield "cli: traceback on malformed input flagged", cli_session.judge_usage_error(traceback) is not None


def main() -> int:
    import_program()
    workdir = OUT / "selftest"
    bad = 0
    try:
        for cases in (compose_cases, quadrature_cases, cli_cases):
            for name, ok in cases(workdir):
                print(f"{'PASS' if ok else 'FAIL'} {name}")
                bad += not ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"check self-test: {'all cases behaved' if not bad else f'{bad} cases failed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
