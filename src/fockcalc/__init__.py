"""Polynomial Gaussian-kernel calculus for a flat fibered model.

The package is organised bottom-up:

- ``poly``      four-family polynomial coefficients with matrix fibers
- ``kernels``   the one kernel descriptor, its four named families, and ladder ops
- ``compose``   closed-form operator composition on those families
- ``oracle``    Gauss-Hermite quadrature cross-checks, nothing closed-form
- ``operators`` symbols, leading-term contractions, model ops, norm estimation
- ``geometry``  curvature-sample data model and comparison constants
- ``cli``       file-based command line (``fockcalc`` entry point)

Every name in ``__all__`` is importable from the package itself; the
submodule that defines it is imported on first use, so a process loads only
the submodules it touches.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "poly": (
        "DEFAULT_DEGREE_CAP", "DegreeOverflowError", "Dims", "Poly",
        "O_Z", "O_ZB", "O_ZP", "O_ZBP", "var_offset", "var_name", "parse_var_name",
    ),
    "kernels": (
        "Bergman", "OrthBergman", "Extension", "Restriction", "KernelKind", "KernelExpr",
        "ScaledKernel", "unit_expr", "apply_ladder", "apply_model_laplacian", "kind_name",
        "primed_dim", "TOEPLITZ_KINDS",
    ),
    "compose": (
        "ComposePlan", "UnsupportedCompositionError", "base_terms", "compose", "compose_plan",
    ),
    "oracle": (
        "InsufficientNodesError", "QuadGrid", "OracleReport", "gauss_hermite",
        "oracle_compose_values", "oracle_compose", "laplacian_eigencheck",
    ),
    "operators": (
        "Symbol", "CutoffSpec", "IDENTITY_CUTOFF", "MOpField", "HgpResult",
        "DefectRecord", "lambda_eq", "lambda_h", "lambda_a",
        "lambda_eq_quadrature", "lambda_h_quadrature", "lambda_a_quadrature",
        "m_op", "h_gp", "c1_c2", "fock_indices", "norm_estimate",
        "toeplitz_leading", "toeplitz_flat_composite", "toeplitz_predicted_kernel",
        "flat_defect_checks",
    ),
    "geometry": (
        "GEOM_SCHEMA", "NormalDirection", "GeometrySample", "GeometryData",
        "ConstantResult", "C3C4Result", "hermitian_eigs", "c0", "c3_c4", "dp3", "tower_dp3",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]

# ``compose`` is both a submodule and its main function.  The first import of
# a submodule sets the package attribute of that name to the module, so the
# function is bound here, after ``fockcalc.compose`` has been imported; bound
# lazily, any later ``import fockcalc.compose`` would replace it by the module.
from .compose import compose  # noqa: E402


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return list(__all__)
