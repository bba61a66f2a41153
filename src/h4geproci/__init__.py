"""Exact-arithmetic toolkit for the 60-point golden-ratio configuration in P^3.

The package builds the configuration over Q(phi), reproduces its incidence
tables, and emits machine-checkable certificates: the general projection of
the 60 points to P^2 is a (6,10) complete intersection, each 30-point half
is a (5,6) half-grid, and the full set is neither a grid nor a half-grid.
"""

from .config import H4Configuration, build_h4, verify_grid
from .coverings import enumerate_coverings, enumerate_grids
from .geproci import verify_geproci, verify_half_grid, verify_not_half_grid

__version__ = "0.1.0"

__all__ = [
    "H4Configuration", "build_h4",
    "enumerate_coverings", "enumerate_grids",
    "verify_geproci", "verify_grid", "verify_half_grid",
    "verify_not_half_grid",
    "__version__",
]
