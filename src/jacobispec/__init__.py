"""Numerical laboratory for Jacobi matrices with power-asymptotic parameters.

Classifies parameter families as limit circle / limit point, predicts the
convergence exponent and density bounds of the spectrum, and verifies the
predictions at desk scale through truncated spectra, recurrence
asymptotics and entire-function growth estimation.

The package root imports nothing: each name below, and each module that
exports one (``jacobispec.growth``, ``jacobispec.params``, ...), is loaded
on first use (PEP 562), so ``import jacobispec`` loads no numpy and
``python -m jacobispec`` can pin OpenBLAS to one thread before numpy loads
(see ``__main__``).
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "_kernels": ("BACKEND",),
    "classify": (
        "Classification",
        "CriterionConclusion",
        "CriterionVerdict",
        "Regime",
        "berezanskii_test",
        "carleman_test",
        "classify",
        "classify_distinct_roots",
        "classify_double_root",
        "wouk_test",
    ),
    "growth": (
        "MaxModulusFit",
        "NevanlinnaPartial",
        "convergence_exponent_from_zeros",
        "leading_coefficient_logs",
        "log_majorant_product",
        "nevanlinna_evaluate",
        "order_type_from_coefficients",
        "order_type_from_max_modulus",
        "scan_b_zeros",
        "scan_b_zeros_each",
        "upper_density",
    ),
    "hamburger": (
        "DeltaExponents",
        "HamburgerData",
        "delta_exponents",
        "exceptional_order_bound",
        "exponent_upper_bounds",
        "lengths_angles",
    ),
    "params": (
        "CarlemanVerdict",
        "ExpansionOrder",
        "JacobiSequence",
        "PowerAsymptotics",
        "RemainderKind",
        "RemainderModel",
        "carleman_sum",
        "descriptor_from_json",
        "descriptor_to_json",
        "materialize",
        "sequence_from_csv",
        "sequence_to_csv",
        "wouk_margin",
    ),
    "recurrence": (
        "ExponentFit",
        "PolySolution",
        "RecurrenceOverflowError",
        "SummabilityTrend",
        "norm_exponent",
        "solve_at_zero",
        "square_summability_probe",
        "transformed_recurrence",
        "wronskian_residual",
    ),
    "spectrum": (
        "TruncatedSpectrum",
        "charpoly_eigenvalues",
        "charpoly_eigenvalues_each",
        "eigenvalues_in",
        "eigenvalues_in_each",
        "full_spectra",
        "full_spectrum",
        "stabilized_counting",
        "sturm_count",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:
            # a module the eager root imported; importing it binds the attribute
            return import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Root(types.ModuleType):
    """Importing a submodule binds it as an attribute of the package; an
    exported name of the same name (the function ``classify``) keeps its
    place, as it did when the root imported every module eagerly."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root
