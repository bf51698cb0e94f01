"""Exception types raised across the package."""


class FbmcBerError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedFilterOrder(FbmcBerError):
    """Requested overlap factor has no known frequency-sampling design."""


class UnsupportedSpreading(FbmcBerError):
    """EGF spreading factor outside the supported range."""


class DegenerateFilter(FbmcBerError):
    """Filter has a non-finite tap, or no energy and cannot be normalized."""


class ConstellationError(FbmcBerError):
    """Invalid constellation order (not a power of two / not square)."""


class EnumerationBudgetExceeded(FbmcBerError):
    """Offset support would exceed the configured point budget."""

    def __init__(self, required, budget):
        self.required = int(required)
        self.budget = int(budget)
        super().__init__(
            f"offset support needs {self.required} support points, "
            f"budget is {self.budget}"
        )


class ShapeError(FbmcBerError):
    """Array dimensions incompatible with the requested operation."""


class RangeError(FbmcBerError):
    """Index or support range outside the available signal."""


class GridError(FbmcBerError):
    """SNR grids of two result sets do not line up."""
