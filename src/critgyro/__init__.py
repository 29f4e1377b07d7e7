"""critgyro: rotating-BEC gyroscope simulation and adaptive Bayesian estimation."""

__version__ = "0.1.0"

from .fock import Mode, FockBasis, enumerate_basis, enumerate_modes, total_L
from .melem import ElementCache
from .hamiltonian import ModelParams, SparseHamiltonian, assemble, physical_to_g
from .spectrum import EigenResult, ground_state, lowest_k
from .observables import (
    GapProfile,
    SPDM,
    adiabatic_time,
    critical_frequency,
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
    MeasurementRecord,
    Posterior,
    ProtocolConfig,
    ProtocolResult,
    bayes_update,
    init_prior,
    recenter_offset,
    retune,
    run_ensemble,
    run_protocol,
    sigma_scaling,
    simulate_outcome,
)

__all__ = [
    "__version__",
    "Mode", "FockBasis", "enumerate_basis", "enumerate_modes", "total_L",
    "ElementCache",
    "ModelParams", "SparseHamiltonian", "assemble", "physical_to_g",
    "EigenResult", "ground_state", "lowest_k",
    "GapProfile", "SPDM", "adiabatic_time", "critical_frequency",
    "expected_L", "gap_profile", "p_zero", "spdm", "transition_width",
    "CurveCatalog", "ResonanceCurve", "catalog_build", "catalog_load",
    "catalog_save", "compute_curve", "lookup_by_width",
    "MeasurementRecord", "Posterior", "ProtocolConfig", "ProtocolResult",
    "bayes_update", "init_prior", "recenter_offset", "retune",
    "run_ensemble", "run_protocol", "sigma_scaling", "simulate_outcome",
]
