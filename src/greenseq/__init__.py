"""Maximal green sequences of representation-finite algebras.

Supports Nakayama algebras given by a Kupisch series (linear or cyclic)
and hereditary type-A path algebras given by an orientation word.

The names exported from `green` and `orders` are resolved on first
access (PEP 562), so importing the package, or a command that reads
only the module category, loads neither layer.
"""

from importlib import import_module

from .algebra import AlgebraSpec
from .errors import (GateError, InvariantViolation, SpecError,
                     TheoremViolation, UsageError)
from .modcat import Indec, ModuleCategory, ModuleSum, SesRecord, TorsionLattice

# name -> the module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("EquivClass", "ExchangePair", "GreenEngine", "HNLayer",
                     "HNResult", "MGS", "SiltingSummand"), "green"),
    **dict.fromkeys(("ClassPoset", "build_order", "check_extrema", "hasse_dot",
                     "iepd_cover_pairs", "orders_equal_report"), "orders"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AlgebraSpec", "ClassPoset", "EquivClass", "ExchangePair", "GateError",
    "GreenEngine", "HNLayer", "HNResult", "Indec", "InvariantViolation",
    "MGS", "ModuleCategory", "ModuleSum", "SesRecord", "SiltingSummand",
    "SpecError", "TheoremViolation", "TorsionLattice",
    "UsageError", "build_order", "check_extrema", "hasse_dot",
    "iepd_cover_pairs", "orders_equal_report",
]
