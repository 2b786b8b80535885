"""The package namespace: the public names, and that they load lazily."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fockcalc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBMODULES = ("poly", "kernels", "compose", "oracle", "operators", "geometry")

# The public API.  Removing a name is an API change: note it in CHANGES.md.
PUBLIC_API = {
    "__version__",
    # poly
    "DEFAULT_DEGREE_CAP", "DegreeOverflowError", "Dims", "Poly",
    # kernels
    "Bergman", "OrthBergman", "Extension", "Restriction", "KernelKind", "KernelExpr",
    "unit_expr", "apply_ladder", "apply_model_laplacian", "kind_name",
    "primed_dim", "TOEPLITZ_KINDS",
    # compose
    "UnsupportedCompositionError", "base_terms", "compose", "compose_plan",
    # oracle
    "InsufficientNodesError", "QuadGrid", "OracleReport", "gauss_hermite",
    "oracle_compose_values", "oracle_compose", "laplacian_eigencheck",
    # operators
    "Symbol", "CutoffSpec", "HgpResult",
    "DefectRecord", "lambda_eq", "lambda_h", "lambda_a",
    "lambda_eq_quadrature", "lambda_h_quadrature", "lambda_a_quadrature", "m_op",
    "h_gp", "c1_c2", "fock_indices", "norm_estimate", "toeplitz_leading",
    "toeplitz_flat_composite", "toeplitz_predicted_kernel", "flat_defect_checks",
    # geometry
    "GEOM_SCHEMA", "NormalDirection", "GeometrySample", "GeometryData", "ConstantResult",
    "hermitian_eigs", "c0", "c3_c4", "dp3", "tower_dp3",
}


def run_python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_public_api():
    assert len(fockcalc.__all__) == len(set(fockcalc.__all__))
    assert set(fockcalc.__all__) == PUBLIC_API
    assert set(dir(fockcalc)) == PUBLIC_API


def test_each_name_is_the_object_its_submodule_defines():
    owner = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"fockcalc.{name}")
        for attr in module.__all__:
            assert attr not in owner, f"{attr} exported by {owner.get(attr)} and {name}"
            owner[attr] = module
    assert set(owner) == PUBLIC_API - {"__version__"}
    for attr, module in owner.items():
        assert getattr(fockcalc, attr) is getattr(module, attr)


def test_each_submodule_reads_its_names_from_the_export_table():
    # the public names are listed once in src, in ``_EXPORTS``, which the lazy
    # ``__getattr__`` reads without importing the owner; no submodule lists them again
    for name in SUBMODULES:
        tree = ast.parse((SRC / "fockcalc" / f"{name}.py").read_text())
        statements = [ast.unparse(node) for node in tree.body if "__all__" in ast.unparse(node)]
        assert statements == [f"__all__ = list(_EXPORTS[{name!r}])"], name


def test_benchmark_uses_only_public_names():
    # the benchmark imports names and submodules from the package, imports
    # names from submodules, and calls names through ``call("<name>", ...)`` or
    # ``partial(call, "<name>", ...)``; each name must stay in the ``__all__``
    # of the package or of the submodule it is imported from
    used, from_submodule = {}, {}
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "fockcalc":
                used.update({alias.name: path.name for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fockcalc."):
                from_submodule.update({(node.module, alias.name): path.name for alias in node.names})
            elif isinstance(node, ast.Call):
                args = [node.func, *node.args]
                for fn, name in zip(args, args[1:]):
                    if isinstance(fn, ast.Name) and fn.id == "call" and isinstance(name, ast.Constant):
                        used[name.value] = path.name
    assert {"primed_dim", "kind_name", "compose_plan", "flat_defect_checks"} <= set(used)
    modules = {*SUBMODULES, "cli"}
    missing = {name: where for name, where in used.items() if name not in {*fockcalc.__all__, *modules}}
    assert not missing
    assert ("fockcalc.kernels", "primed_dim") in from_submodule
    missing = {
        key: where
        for key, where in from_submodule.items()
        if key[1] not in importlib.import_module(key[0]).__all__
    }
    assert not missing


def test_benchmark_tracer_reaches_each_layer(monkeypatch):
    # the benchmark's per-layer tracer, loaded read-only from its file: a layer
    # whose function the program stops calling reads 0 calls and fails here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layer_trace", ROOT / "benchmarks" / "layer_trace.py")
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    for name in SUBMODULES:
        importlib.import_module(f"fockcalc.{name}")
    # resolve the names first, so that the package caches the functions and not their wrappers
    names = ("compose", "oracle_compose", "lambda_eq_quadrature")
    functions = [getattr(fockcalc, name) for name in names]
    e = fockcalc.KernelExpr(fockcalc.Poly.monomial(fockcalc.Dims.of(1), {"zb'1": 1}), fockcalc.Bergman(1))
    g = fockcalc.Symbol.monomial(1, 0, (1,), (1,))
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        fockcalc.compose(e, e)
        fockcalc.oracle_compose(e, e)
        fockcalc.lambda_eq_quadrature(g, 4)
    finally:
        tracer.uninstall()
    assert all(getattr(fockcalc, name) is fn for name, fn in zip(names, functions))
    totals = tracer.layer_totals()
    for layer in ("compose", "oracle.values", "operators.lambda_quad"):
        assert totals.get(f"{layer}.calls", 0) > 0, layer
    assert totals["oracle.points"] > 0
    # the benchmark still names two deleted functions and two that moved from
    # ``oracle`` to ``operators``; it reports each as absent
    assert sorted(tracer.absent) == [
        "fockcalc.kernels.kernel_expr_eval",
        "fockcalc.oracle.gaussian_pairing",
        "fockcalc.oracle.norm_estimate",
        "fockcalc.poly.Poly.evaluate",
    ]
    assert not tracer.broken_hooks


def _unused_imports(path: Path) -> list[str]:
    """Names a module's top-level imports bind that no name in it reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_every_top_level_import_is_used():
    # __init__ included: it binds ``compose`` without importing a submodule
    paths = [*sorted((SRC / "fockcalc").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    unused = {path.name: names for path in paths if (names := _unused_imports(path))}
    assert not unused


def _unbounded_caches(source: str) -> list[str]:
    """Functions the source caches with ``functools`` but without an integer ``maxsize``
    literal: a bare ``lru_cache``, ``maxsize=None``, a computed size, or ``cache``."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        for deco in getattr(fn, "decorator_list", ()):
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name not in ("cache", "lru_cache"):
                continue
            sizes = ([k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]) if call else []
            if name == "cache" or not (
                len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
            ):
                out.append(fn.name)
    return out


def test_every_cache_is_bounded():
    # a per-shape cache with no bound grows for the life of the process
    sources = [path.read_text() for path in sorted((SRC / "fockcalc").glob("*.py"))]
    assert sum(source.count("@lru_cache(maxsize=") for source in sources) >= 8
    assert not [name for source in sources for name in _unbounded_caches(source)]
    # each unbounded form is caught, and the bounded ones pass
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache\ndef a(): pass\n@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache(maxsize=2 * 8)\ndef c(): pass\n@cache\ndef d(): pass\n"
        "@functools.lru_cache(32)\ndef e(): pass\n@lru_cache(maxsize=4, typed=True)\ndef f(): pass\n"
    )
    assert _unbounded_caches(source) == ["a", "b", "c", "d"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fockcalc.no_such_name
    with pytest.raises(AttributeError):
        fockcalc.poly_arith  # removed; Poly.add/mul/scale/conjugate_swap remain
    with pytest.raises(ImportError):
        from fockcalc import poly_arith  # noqa: F401
    assert not hasattr(fockcalc, "_bracket")


def test_compose_stays_the_function_after_submodule_imports():
    out = run_python(
        "import fockcalc.oracle, fockcalc.operators, fockcalc.compose\n"
        "import fockcalc, sys\n"
        "from fockcalc import compose\n"
        "print(type(fockcalc.compose).__name__, compose is sys.modules['fockcalc.compose'].compose)\n"
    )
    assert out.split() == ["function", "True"]


def test_import_loads_only_what_is_used():
    out = run_python(
        "import sys, fockcalc\n"
        "loaded = lambda: sorted(m[9:] for m in sys.modules if m.startswith('fockcalc.'))\n"
        "print(*loaded())\n"
        "print(type(fockcalc.oracle).__name__, *loaded())\n"
        "fockcalc.Symbol\n"
        "print(*loaded())\n"
    )
    assert out.splitlines() == [
        "",
        "module arrays compose fields kernels oracle poly",
        "arrays compose fields geometry kernels operators oracle poly",
    ]


def test_package_attributes_are_cached():
    value = fockcalc.QuadGrid
    assert vars(fockcalc)["QuadGrid"] is value
    assert isinstance(fockcalc.compose, types.FunctionType)
