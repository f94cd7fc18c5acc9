"""Few-photon scattering in atom-coupled resonator arrays.

Closed-form S/T-matrices for one to three photons, single-photon bound
states, spatial out-state wavefunctions and second-order correlations,
together with finite-lattice and Bethe-ansatz cross-checks.
"""

from photon_scatter.core import (
    CosineBand,
    HWGParams,
    TCRAParams,
    Term,
    TWGParams,
)

__version__ = "0.1.0"

__all__ = [
    "CosineBand",
    "HWGParams",
    "TCRAParams",
    "Term",
    "TWGParams",
    "__version__",
]
