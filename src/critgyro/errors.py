"""Exception types used across the package."""


class CritgyroError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CritgyroError, ValueError):
    """Invalid argument values (bad bounds, non-positive inputs, ...)."""


class InputError(CritgyroError, ValueError):
    """Structurally valid call with unusable data (e.g. unnormalized state)."""


class StructureError(CritgyroError):
    """Mismatched components, e.g. a cache built over a different mode list."""


class RangeError(CritgyroError):
    """A requested point or crossing lies outside the available grid."""


class StaleCatalogError(CritgyroError):
    """Catalog file is missing, unreadable or from an incompatible version."""


class DegenerateUpdateError(CritgyroError):
    """Bayesian update produced an all-zero posterior; carries the index."""

    def __init__(self, message, measurement_index=None):
        super().__init__(message)
        self.measurement_index = measurement_index
