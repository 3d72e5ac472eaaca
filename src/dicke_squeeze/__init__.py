"""Quantum squeezing in the Dicke model and its experimentally relevant
perturbations: analytic normal modes cross-validated by exact
diagonalization."""

from . import ed
from .bogoliubov import (
    NormalModeData,
    SqueezingReport,
    SuperradiantInputError,
    classical_critical_temperature,
    normal_modes,
    single_mode_variances,
    spin_squeezing_parameter,
    squeezing_ratio_ground,
    superradiant_modes,
    thermal_squeezing_ratio,
    thermal_squeezing_ratios,
    two_mode_quadrature_coefficients,
)
from .core import (
    DickeParams,
    EffectiveDickeSpec,
    LadderParams,
    PhaseLabel,
    classify_phase,
    critical_coupling,
    dicke_params_from_dict,
    dicke_params_from_file,
    ladder_params_from_dict,
    ladder_params_from_file,
    map_ladder_to_dicke,
)
from .disorder import (
    DisorderEnsemble,
    PerturbativeReport,
    disorder_xi_perturbative,
    perturbativity_check,
    renormalized_coupling,
)
from .ising import (
    IsingParams,
    MagnonMode,
    critical_coupling_k,
    dicke_ising_modes,
    magnon_spectrum,
    mixing_angle_k,
    squeezed_quadrature_coefficients_k,
)

__version__ = "0.1.0"

__all__ = [
    "DickeParams",
    "DisorderEnsemble",
    "EffectiveDickeSpec",
    "IsingParams",
    "LadderParams",
    "MagnonMode",
    "NormalModeData",
    "PerturbativeReport",
    "PhaseLabel",
    "SqueezingReport",
    "SuperradiantInputError",
    "classical_critical_temperature",
    "classify_phase",
    "critical_coupling",
    "critical_coupling_k",
    "dicke_ising_modes",
    "dicke_params_from_dict",
    "dicke_params_from_file",
    "disorder_xi_perturbative",
    "ed",
    "ladder_params_from_dict",
    "ladder_params_from_file",
    "magnon_spectrum",
    "map_ladder_to_dicke",
    "mixing_angle_k",
    "normal_modes",
    "perturbativity_check",
    "renormalized_coupling",
    "single_mode_variances",
    "spin_squeezing_parameter",
    "squeezing_ratio_ground",
    "superradiant_modes",
    "thermal_squeezing_ratio",
    "thermal_squeezing_ratios",
    "two_mode_quadrature_coefficients",
]
