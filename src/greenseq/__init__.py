"""Maximal green sequences of representation-finite algebras.

Supports Nakayama algebras given by a Kupisch series (linear or cyclic)
and hereditary type-A path algebras given by an orientation word.
"""

from .algebra import AlgebraSpec
from .errors import (GateError, InvariantViolation, SpecError,
                     TheoremViolation, UsageError)
from .green import (EquivClass, ExchangePair, GreenEngine, HNLayer, HNResult,
                    MGS, SiltingSummand)
from .modcat import (Indec, ModuleCategory, ModuleSum, SesRecord,
                     TorsionClass, TorsionLattice)
from .orders import (ClassPoset, build_order, check_extrema, hasse_dot,
                     iepd_cover_pairs, orders_equal_report)

__all__ = [
    "AlgebraSpec", "ClassPoset", "EquivClass", "ExchangePair", "GateError",
    "GreenEngine", "HNLayer", "HNResult", "Indec", "InvariantViolation",
    "MGS", "ModuleCategory", "ModuleSum", "SesRecord", "SiltingSummand",
    "SpecError", "TheoremViolation", "TorsionClass", "TorsionLattice",
    "UsageError", "build_order", "check_extrema", "hasse_dot",
    "iepd_cover_pairs", "orders_equal_report",
]
