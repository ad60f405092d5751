"""Exception types shared across the package.

Plain argument validation raises ``ValueError``; the classes below mark
domain failures that callers may want to handle separately.
"""


class VqdiffError(Exception):
    """Base class for domain errors raised by this package."""


class ScheduleError(VqdiffError):
    """A noise schedule violates its structural invariants."""


class InconsistencyError(VqdiffError):
    """A conditioning event has zero probability under the forward process."""


class ContractError(VqdiffError):
    """A pluggable component returned output violating its contract."""


class FittingError(VqdiffError):
    """Fitting cannot proceed (e.g. too few distinct frames, or training diverges)."""


class SizeGuardError(VqdiffError):
    """A brute-force oracle, a table or a schedule was asked for beyond its intended size."""
