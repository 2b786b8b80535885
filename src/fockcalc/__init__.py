"""Polynomial Gaussian-kernel calculus for a flat fibered model.

The package is organised bottom-up:

- ``fields``    JSON field readers and the command line's settings, no numpy
- ``arrays``    array readers, matrix fields and the one Hermitian eigen path
- ``poly``      four-family polynomial coefficients with matrix fibers
- ``kernels``   the one kernel descriptor, its four named families, and ladder ops
- ``compose``   closed-form operator composition on those families
- ``oracle``    Gauss-Hermite quadrature cross-checks, nothing closed-form
- ``operators`` symbols, leading-term contractions, model ops, norm estimation
- ``geometry``  curvature-sample data model and comparison constants
- ``cli``       file-based command line (``fockcalc`` entry point)
- ``checks``    the invariants ``fockcalc selftest`` runs

Every name in ``__all__`` is importable from the package itself.
``import fockcalc`` loads no submodule: the one that defines a name is
imported on first use, so a process loads only the submodules it touches.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The public names, by the submodule that exports them; each submodule's ``__all__`` is read from here.
_EXPORTS = {
    "poly": (
        "DEFAULT_DEGREE_CAP", "DegreeOverflowError", "Dims", "Poly",
    ),
    "kernels": (
        "Bergman", "OrthBergman", "Extension", "Restriction", "KernelKind", "KernelExpr",
        "unit_expr", "apply_ladder", "apply_model_laplacian", "kind_name", "primed_dim",
    ),
    "compose": (
        "UnsupportedCompositionError", "base_terms", "compose", "compose_plan",
    ),
    "oracle": (
        "InsufficientNodesError", "QuadGrid", "OracleReport", "gauss_hermite",
        "oracle_compose_values", "oracle_compose", "laplacian_eigencheck",
    ),
    "operators": (
        "Symbol", "CutoffSpec", "HgpResult",
        "DefectRecord", "lambda_eq", "lambda_h", "lambda_a",
        "lambda_eq_quadrature", "lambda_h_quadrature", "lambda_a_quadrature",
        "m_op", "h_gp", "c1_c2", "fock_indices", "norm_estimate",
        "toeplitz_leading", "toeplitz_flat_composite", "toeplitz_predicted_kernel",
        "flat_defect_checks", "TOEPLITZ_KINDS",
    ),
    "geometry": (
        "GEOM_SCHEMA", "NormalDirection", "GeometrySample", "GeometryData",
        "ConstantResult", "hermitian_eigs", "c0", "c3_c4", "dp3", "tower_dp3",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


class _Package(types.ModuleType):
    """``compose`` is both a submodule and its main function.  The import system
    binds a submodule to the package attribute of its name when it first loads
    it; this binds the submodule's function of that name instead, so
    ``fockcalc.compose`` stays the function under every import order."""

    def __setattr__(self, name: str, value) -> None:
        if name == "compose" and isinstance(value, types.ModuleType):
            value = value.compose
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    if name in _OWNER:  # before the submodules, so ``compose`` is the function
        module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
