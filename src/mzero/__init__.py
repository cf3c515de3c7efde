"""Multiplicity structure, certified separation bounds, and quadratically
convergent refinement for corank-one multiple zeros of square polynomial
systems.

The package loads lazily (PEP 562): `import mzero` imports no layer, and
a name below, or a layer module such as `mzero.certify`, is imported from
its home module on first use. So the numpy-free `constants` layer can be
used without paying for numpy and the numeric layers.
"""

import importlib

_EXPORTS = {
    "certify": (
        "ClusterCertificate", "ResidualBound", "certify_cluster",
        "residual_lower_bound", "separation_bound",
    ),
    "constants": (
        "CoefficientTable", "SeparationResult", "ThresholdSet", "coefficient_table",
        "p_of_d", "separation_constant",
        "smallest_positive_root", "threshold_constants",
    ),
    "dualspace": ("DualBasis", "compute_dual_basis", "is_normalized", "normalizing_frame"),
    "errors": (
        "BreadthError", "CorankError", "InputError", "MathDomainError",
        "MultiplicityNotFoundError", "MZeroError", "NoRootError",
        "NotNormalizedError", "ParseError", "SingularMatrixError",
    ),
    "frames": ("NormalizedFrame", "unitary_pullback"),
    "functionals": ("DualFunctional", "apply_functional", "chainrule_Lk"),
    "gamma": ("GammaReport", "LocalModel", "gamma_mu"),
    "newton": (
        "NewtonTrace", "iterate_until", "n1_step", "refine_double",
        "refine_general", "refine_triple",
    ),
    "numkit": (
        "LinearSolver", "SvdResult", "matrix_spectral_norm", "solve_least_squares",
        "solve_linear", "svd",
    ),
    "polycore": ("Poly", "PolySystem", "parse_system"),
}
_SUBMODULES = (*_EXPORTS, "cli")

__version__ = "0.1.0"

# the iterations of `newton.iterate_until` (normalized of order 2, of order
# 3, general) and the variants of `constants.threshold_constants`, named
# here so that the command line reads its choices without loading a layer
VARIANTS = ("normalized_double", "normalized_triple", "general")
THRESHOLD_VARIANTS = ("normalized_double", "normalized_triple", "general_triple")

# defaults of the chain-length detection and of refinement, for the layers
# and the command line
DEFAULT_TOLERANCES = {"gap_tol": 1e-8, "delta_zero_tol": 1e-8, "max_order": 10,
                      "eps": 1e-10, "max_iter": 50}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _reexport(module, homes):
    """A PEP 562 `__getattr__` for the layer `module` that imports each name
    of `homes` (home module -> names moved there) from its home on use."""
    home = {name: where for where, names in homes.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError("module %r has no attribute %r" % (module, name))
        return getattr(importlib.import_module("." + home[name], __name__), name)

    return __getattr__


_export = _reexport(__name__, _EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    value = globals()[name] = _export(name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
