"""Exception taxonomy.

Exit-code mapping used by the CLI: SpecError/UsageError/GateError are
usage-class failures (exit 2); TheoremViolation and InvariantViolation
mean a mathematical check failed (exit 1).
"""


class SpecError(ValueError):
    """Invalid algebra description (Kupisch series, orientation word, file)."""


class UsageError(ValueError):
    """Operation applied to arguments it does not support."""


class GateError(RuntimeError):
    """A size gate was exceeded: the work it bounds was refused before it
    started or, for a bound checked during a search, stopped at the bound."""


class InvariantViolation(RuntimeError):
    """An internal structural invariant failed: indicates a bug."""


class TheoremViolation(RuntimeError):
    """An executable theorem check failed; carries the witnessing data."""
