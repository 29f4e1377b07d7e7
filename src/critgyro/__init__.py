"""critgyro: rotating-BEC gyroscope simulation and adaptive Bayesian estimation.

H takes one form, `Operators.hamiltonian(g, A, omega)`, a sparse CSR matrix;
`System(basis, cache)` builds its operators over the condensate's L-parity
sector, and `System.sweep` solves that sector along a rotation grid.
"""

__version__ = "0.1.0"

from .fock import Mode, FockBasis, enumerate_basis, enumerate_modes
from .melem import ElementCache
from .hamiltonian import System
from .observables import (
    GapProfile,
    SPDM,
    adiabatic_time,
    expected_L,
    gap_profile,
    p_zero,
    spdm,
    transition_width,
)
from .curves import (
    CurveCatalog,
    ResonanceCurve,
    catalog_build,
    catalog_load,
    catalog_save,
    compute_curve,
    lookup_by_width,
)
from .estimate import (
    Posterior,
    ProtocolConfig,
    ProtocolResult,
    run_ensemble,
    run_protocol,
    sigma_scaling,
)

__all__ = [
    "__version__",
    "Mode", "FockBasis", "enumerate_basis", "enumerate_modes",
    "ElementCache",
    "System",
    "GapProfile", "SPDM", "adiabatic_time", "expected_L",
    "gap_profile", "p_zero", "spdm", "transition_width",
    "CurveCatalog", "ResonanceCurve", "catalog_build", "catalog_load",
    "catalog_save", "compute_curve", "lookup_by_width",
    "Posterior", "ProtocolConfig", "ProtocolResult",
    "run_ensemble", "run_protocol", "sigma_scaling",
]
