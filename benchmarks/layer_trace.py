"""Per-layer tracing, from the benchmark's side of the program's API.

:class:`Tracer` replaces public functions of the ``fockcalc`` modules with
wrappers that record one span per call: name, start, end and the span that
was open when it started.  It patches every loaded module that binds the
same function object, so names one module imports from another (such as
``fockcalc.oracle.compose``, or ``compose`` in a workload module) are
traced too.  A layer's self time is its
spans' duration minus the part covered by child spans.

Totals are kept per metric for the whole run; the spans themselves are kept
for the first pass only and written out when the run ends.  A name that a
later change removes is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType

# (layer metric, module, qualified name) for every wrapped function.  The
# metric's ``.calls`` and ``.ms`` (self time) come from these spans.
TARGETS = [
    ("poly.mul", "fockcalc.poly", "Poly.mul"),
    ("poly.evaluate", "fockcalc.poly", "Poly.evaluate"),
    ("poly.json", "fockcalc.poly", "Poly.to_json_dict"),
    ("poly.json", "fockcalc.poly", "Poly.from_json_dict"),
    ("poly.json", "fockcalc.kernels", "KernelExpr.to_json_dict"),
    ("poly.json", "fockcalc.kernels", "KernelExpr.from_json_dict"),
    ("poly.json", "fockcalc.operators", "Symbol.to_json_dict"),
    ("poly.json", "fockcalc.operators", "Symbol.from_json_dict"),
    ("kernels.eval", "fockcalc.kernels", "kernel_expr_eval"),
    ("kernels.ladder", "fockcalc.kernels", "apply_ladder"),
    ("kernels.ladder", "fockcalc.kernels", "apply_model_laplacian"),
    ("compose", "fockcalc.compose", "compose"),
    ("oracle.values", "fockcalc.oracle", "oracle_compose_values"),
    ("oracle.gauss_hermite", "fockcalc.oracle", "gauss_hermite"),
    ("oracle.laplacian", "fockcalc.oracle", "laplacian_eigencheck"),
    ("oracle.norm", "fockcalc.oracle", "norm_estimate"),
    ("oracle.pairing", "fockcalc.oracle", "gaussian_pairing"),
    ("operators.lambda_quad", "fockcalc.operators", "lambda_eq_quadrature"),
    ("operators.lambda_quad", "fockcalc.operators", "lambda_h_quadrature"),
    ("operators.lambda_quad", "fockcalc.operators", "lambda_a_quadrature"),
    ("operators.symbol_eval", "fockcalc.operators", "Symbol.evaluate_split"),
    ("operators.hgp", "fockcalc.operators", "h_gp"),
    ("operators.toeplitz", "fockcalc.operators", "toeplitz_flat_composite"),
    ("operators.toeplitz", "fockcalc.operators", "toeplitz_predicted_kernel"),
    ("operators.toeplitz", "fockcalc.operators", "toeplitz_leading"),
    ("geometry.eigs", "fockcalc.geometry", "hermitian_eigs"),
    ("geometry.constants", "fockcalc.geometry", "c0"),
    ("geometry.constants", "fockcalc.geometry", "c3_c4"),
    ("geometry.constants", "fockcalc.geometry", "dp3"),
    ("geometry.constants", "fockcalc.geometry", "tower_dp3"),
]


# -- counters read from a call's arguments and result ---------------------------


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_compose(c, fn, args, kwargs, result, exc):
    a = _bind(fn, args, kwargs)
    e1, e2 = list(a.values())[:2]
    c["compose.term_pairs"] += len(e1.numerator.terms) * len(e2.numerator.terms)
    if exc is None:
        c["compose.terms_out"] += len(result.numerator.terms)


def _count_oracle_points(c, fn, args, kwargs, result, exc):
    from fockcalc.kernels import primed_dim

    a = _bind(fn, args, kwargs)
    e1 = list(a.values())[0]
    grid, points = a.get("grid"), a.get("eval_points")
    nodes = grid.nodes_per_axis if grid is not None else 44  # the oracle's default grid
    c["oracle.points"] += (5 if points is None else len(points)) * nodes**2 * primed_dim(e1.kind)


def _count_mesh(c, fn, args, kwargs, result, exc):
    a = _bind(fn, args, kwargs)
    g = list(a.values())[0]
    c["operators.mesh_points"] += a["nodes"] ** (2 * g.k)


def _count_eigs(c, fn, args, kwargs, result, exc):
    import numpy as np

    c["geometry.eigs.dim_sum"] += int(np.atleast_2d(np.asarray(args[0])).shape[0])
    if isinstance(exc, RuntimeError):
        c["geometry.eigs.failed"] += 1


HOOKS = {
    "compose": _count_compose,
    "oracle.values": _count_oracle_points,
    "operators.lambda_quad": _count_mesh,
    "geometry.eigs": _count_eigs,
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent, name, start, end), first pass only
        self.keep_spans = True
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._undo: list[tuple] = []
        self._next_id = 0

    # -- spans ----------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, metric: str, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self.calls[metric] += 1
        self.self_s[metric] += duration - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if self.keep_spans:
            self.spans.append((frame[0], parent[0] if parent else None, name, frame[1], end))

    @contextmanager
    def root(self, name: str):
        """One op: the parent of the spans it causes."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, "op", name)

    def _wrap(self, metric: str, name: str, fn):
        tracer = self
        hook = HOOKS.get(metric)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            frame = tracer._enter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer._exit(frame, metric, name)
                if metric == "oracle.gauss_hermite":
                    # a build is a cache miss; without a cache every call builds
                    tracer.counters["oracle.gauss_hermite.builds"] += (
                        cache_info().misses - misses if cache_info else 1
                    )
                elif hook is not None:
                    try:
                        hook(tracer.counters, fn, args, kwargs, result, exc)
                    except Exception:  # a changed signature loses a counter, not the run
                        tracer.broken_hooks.add(metric)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for m in list(sys.modules.values()) if isinstance(m, ModuleType)]
        for metric, modname, qualname in TARGETS:
            owner = sys.modules.get(modname)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{modname}.{qualname}")
                continue
            is_method = isinstance(raw, (classmethod, staticmethod))
            fn = raw.__func__ if is_method else raw
            wrapped = self._wrap(metric, f"{modname}.{qualname}", fn)
            self._patch(owner, attr, type(raw)(wrapped) if is_method else wrapped)
            if not path:  # also every module that imported the function by name
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Calls, self milliseconds and counters, summed over the run."""
        out: dict[str, float] = {}
        for metric in self.calls:
            out[f"{metric}.calls"] = self.calls[metric]
            out[f"{metric}.ms"] = 1000.0 * self.self_s[metric]
        out.update(self.counters)
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as f:
            for span_id, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end}) + "\n")
