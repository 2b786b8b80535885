#!/usr/bin/env python3
"""The fockcalc benchmark: three workloads, end-to-end metrics, a layer trace.

Run from the repository root:

    python3 benchmarks/run.py --workload compose_battery --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

``--trace 0`` times whole passes over the workload's fixed op list until
``--seconds`` have gone by (at least ``MIN_TIMED_OPS`` ops) and prints the
end-to-end metrics.  ``--trace 1`` is a separate run that wraps the
program's public functions and prints per-layer metrics per pass.  Every
run checks the outputs of its first pass.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

from common import BLAS_ENV, OUT, ROOT, SRC, HostClock, Op, child_env

os.environ.update(BLAS_ENV)  # before numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("compose_battery", "quadrature_battery", "cli_session")
SETUP_SAMPLES = 7  # fresh-interpreter set-ups per run; setup_s is their median
MIN_TIMED_OPS = 150  # so op_p90_ms has at least 15 samples beyond it
CHILD_TIMEOUT = 120

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = [
    "poly.mul.calls",
    "poly.mul.ms",
    "poly.evaluate.calls",
    "poly.evaluate.ms",
    "poly.json.ms",
    "kernels.eval.calls",
    "kernels.eval.ms",
    "kernels.ladder.ms",
    "compose.calls",
    "compose.ms",
    "compose.term_pairs",
    "compose.terms_out",
    "oracle.values.calls",
    "oracle.values.ms",
    "oracle.points",
    "oracle.gauss_hermite.builds",
    "oracle.gauss_hermite.ms",
    "oracle.laplacian.ms",
    "oracle.norm.ms",
    "oracle.pairing.calls",
    "operators.lambda_quad.calls",
    "operators.lambda_quad.ms",
    "operators.mesh_points",
    "operators.symbol_eval.calls",
    "operators.hgp.ms",
    "operators.toeplitz.ms",
    "geometry.eigs.calls",
    "geometry.eigs.ms",
    "geometry.eigs.dim_sum",
    "geometry.eigs.failed",
    "geometry.constants.ms",
    "cli.import_ms",
    "cli.run_ms",
    "cli.process_ms",
]


def fail(message: str) -> None:
    print(f"run.py: error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import fockcalc from this checkout's src/, never from elsewhere."""
    if not (SRC / "fockcalc" / "__init__.py").is_file():
        fail(f"no fockcalc package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fockcalc

    if Path(fockcalc.__file__).resolve().parent != (SRC / "fockcalc").resolve():
        fail(f"imported fockcalc from {fockcalc.__file__}, not from {SRC}")
    return fockcalc


def program_caches() -> list:
    """The program's lru_caches; the traced run empties them as a process start would."""
    from fockcalc import oracle, operators

    found = [getattr(oracle, "gauss_hermite", None), getattr(operators, "_gaussian_mesh", None)]
    return [c for c in found if hasattr(c, "cache_clear")]


# -- set-up time -------------------------------------------------------------------


def measure_setup(workload: str, seed: int, workdir: Path) -> list[tuple[float, float]]:
    """(set-up seconds, host slowdown) of SETUP_SAMPLES fresh-interpreter
    set-ups, one after another; each child samples the slowdown itself."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = workdir / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed), str(probe_dir)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=CHILD_TIMEOUT,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        setup_s, slow = proc.stdout.split()
        samples.append((float(setup_s), float(slow)))
    return samples


# -- one op ------------------------------------------------------------------------


def run_op(op: Op) -> tuple[object, str | None, float]:
    """(result, failure reason or None, seconds).  Only the op itself is timed;
    the judge that decides whether it failed runs after the clock stops."""
    t0 = time.perf_counter()
    try:
        result = op.fn()
    except Exception as e:
        return None, f"{type(e).__name__}: {e}", time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    return result, (op.judge(result) if op.judge else None), elapsed


class Tally:
    """Attempted and failed ops, with every failure's op name and reason."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, list] = {}  # name -> [count, reason]

    def add(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed.setdefault(name, [0, reason])[0] += 1

    @property
    def failed_count(self) -> int:
        return sum(count for count, _ in self.failed.values())


def quantile_op(latencies: list[tuple[float, int]], ops: list[Op], q: float) -> str:
    """Name of the op at quantile q of the sorted latencies (tail placement)."""
    ranked = sorted(latencies)
    return ops[ranked[min(len(ranked) - 1, int(q * len(ranked)))][1]].name


# -- the untraced, timed run -----------------------------------------------------------


def timed_run(workload, seconds: float):
    ops = workload.ops
    tally = Tally()
    timed: list[tuple[float, float, int]] = []  # (start, seconds, op index)
    first: list = []
    child_rss_kb = 0
    min_passes = math.ceil(MIN_TIMED_OPS / len(ops))
    passes = 0
    clock = HostClock(workload.reference)
    gc.collect()
    start = time.perf_counter()
    clock.sample()
    while passes < min_passes or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            clock.tick()
            t0 = time.perf_counter()
            result, reason, elapsed = run_op(op)
            timed.append((t0, elapsed, i))
            tally.add(op.name, reason)
            child_rss_kb = max(child_rss_kb, getattr(result, "rss_kb", 0))
            if passes == 0:
                first.append(None if reason else result)
        passes += 1
    clock.sample()
    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = [elapsed for _, elapsed, _ in timed]
    usual = [(elapsed / clock.at(t0), i) for t0, elapsed, i in timed]
    lat = [x for x, _ in usual]
    metrics = {
        "ops_per_s": len(lat) / math.fsum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": (child_rss_kb or own_rss_kb) / 1024.0,
    }
    info = {
        "passes": passes,
        "slowdown": clock.slowdown,
        "reference_samples": len(clock.samples),
        "raw": {
            "ops_per_s": len(raw) / math.fsum(raw),
            "op_p50_ms": 1000.0 * statistics.median(raw),
            "op_p90_ms": 1000.0 * statistics.quantiles(raw, n=10)[8],
        },
        "p50_op": quantile_op(usual, ops, 0.5),
        "p90_op": quantile_op(usual, ops, 0.9),
        "op_median_ms": {
            op.name: 1000.0 * statistics.median(x for x, j in usual if j == i) for i, op in enumerate(ops)
        },
    }
    return metrics, tally, first, info


# -- the traced run ----------------------------------------------------------------------


def replay_cli(argv: list[str], workdir: Path) -> None:
    """Run one CLI call in-process, in the directory the subprocess used."""
    from fockcalc import cli

    here = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.run(argv)
    finally:
        os.chdir(here)


def import_ms() -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import fockcalc.cli"], env=child_env(), check=True, timeout=CHILD_TIMEOUT
    )
    return 1000.0 * (time.perf_counter() - t0)


def traced_run(workload, seconds: float, workdir: Path, spans: Path):
    from layer_trace import Tracer

    ops = workload.ops
    argv = workload.replay_argv
    caches = program_caches()
    tracer = Tracer()
    tracer.install()
    tally = Tally()
    first: list = []
    cli = {"cli.import_ms": 0.0, "cli.run_ms": 0.0, "cli.process_ms": 0.0}
    timed: list[tuple[float, float]] = []  # in-process ops: (start, seconds)
    passes = 0
    clock = HostClock(workload.reference)
    start = time.perf_counter()
    clock.sample()
    try:
        while passes == 0 or time.perf_counter() - start < seconds:
            for cache in caches:
                cache.cache_clear()
            if argv:
                cli["cli.import_ms"] += import_ms()
            for op in ops:
                clock.tick()
                if argv is None:
                    t0 = time.perf_counter()
                    with tracer.root(op.name):
                        result, reason, elapsed = run_op(op)
                    timed.append((t0, elapsed))
                else:
                    result, reason, elapsed = run_op(op)  # the process, untraced
                    cli["cli.process_ms"] += 1000.0 * elapsed
                    for cache in caches:
                        cache.cache_clear()
                    t0 = time.perf_counter()
                    with tracer.root(op.name):
                        try:
                            replay_cli(argv[op.name], workdir)
                        except Exception:  # the known faults raise here as in the CLI
                            pass
                    cli["cli.run_ms"] += 1000.0 * (time.perf_counter() - t0)
                tally.add(op.name, reason)
                if passes == 0:
                    first.append(None if reason else result)
            passes += 1
            tracer.keep_spans = False
    finally:
        tracer.uninstall()
    clock.sample()
    totals = tracer.layer_totals()
    metrics = {name: totals.get(name, 0) / passes for name in PER_LAYER}
    if argv:
        metrics["cli.import_ms"] = cli["cli.import_ms"] / passes
        metrics["cli.run_ms"] = cli["cli.run_ms"] / (passes * len(ops))
        metrics["cli.process_ms"] = cli["cli.process_ms"] / (passes * len(ops))
    for name in metrics:
        if name.endswith("ms"):
            metrics[name] /= clock.slowdown
    tracer.write_spans(spans)
    info = {
        "passes": passes,
        # traced against untraced ops_per_s gives the tracing overhead
        "traced_ops_per_s": len(timed) / math.fsum(e / clock.at(t) for t, e in timed) if timed else None,
        "spans_file": str(spans.relative_to(ROOT)),
        "absent": tracer.absent,
        "broken_counters": sorted(tracer.broken_hooks),
    }
    return metrics, tally, first, info


# -- report ------------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    module = importlib.import_module(name)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    try:
        setup_samples = [] if trace else measure_setup(name, seed, workdir)
        workload = module.setup(seed, workdir)
        names = [op.name for op in workload.ops]
        if len(set(names)) != len(names):
            fail(f"{name}: op names are not unique")
        workload.warm()
        if trace:
            spans = OUT / f"{name}-seed{seed}.spans.jsonl"
            metrics, tally, first, info = traced_run(workload, seconds, workdir, spans)
            units = {m: ("ms" if m.endswith("ms") else "count") for m in metrics}
        else:
            metrics, tally, first, info = timed_run(workload, seconds)
            metrics["setup_s"] = statistics.median(t / slow for t, slow in setup_samples)
            info["setup_samples_s"] = setup_samples
            units = END_TO_END
        errors = workload.check(first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    known = workload.known_faults
    report = {
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed_count,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **info,
        "failures": {
            op: {"count": c, "reason": r, "known_fault": known.get(op)} for op, (c, r) in sorted(tally.failed.items())
        },
        "check_errors": errors,
        "result": report,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=2) + "\n")
    print(f"workload {name}  seed {seed}  passes {info['passes']}  ops {tally.attempted}  failed {tally.failed_count}")
    for m, entry in report["metrics"].items():
        print(f"  {m:<28} {entry['value']:>14.6g} {entry['unit']}")
    for key in ("p50_op", "p90_op"):
        if key in info:
            print(f"  {key[:3]} rank falls on: {info[key]}")
    for missing in info.get("absent", []):
        print(f"  ABSENT {missing}")
    for op, (count, reason) in sorted(tally.failed.items()):
        tag = f" [known fault: {known[op]}]" if op in known else " [NEW FAILURE]"
        print(f"  FAILED {op} x{count}: {reason}{tag}")
    for err in errors:
        print(f"  CHECK ERROR {err}")
    print(f"  outputs checked: {'ok' if not errors else f'{len(errors)} errors'}")
    return report


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True, env=child_env())
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        report = json.loads(lines[-1])
        combined["correct"] &= report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        for m, entry in report["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = entry
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    if args.workload == "all":
        report = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
