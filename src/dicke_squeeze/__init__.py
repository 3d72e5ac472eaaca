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
    squeezing_ratio_ground,
    superradiant_modes,
    thermal_squeezing_map,
    thermal_squeezing_ratio,
)
from .core import (
    DickeParams,
    EffectiveDickeSpec,
    LadderParams,
    PhaseLabel,
    classify_phase,
    critical_coupling,
    ladder_params_from_dict,
    map_ladder_to_dicke,
)
from .disorder import (
    DisorderEnsemble,
    PerturbativeReport,
    disorder_xi_perturbative,
    renormalized_coupling,
)
from .ising import (
    IsingParams,
    MagnonMode,
    critical_coupling_k,
    dicke_ising_modes,
    mixing_angle_k,
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
    "disorder_xi_perturbative",
    "ed",
    "ladder_params_from_dict",
    "map_ladder_to_dicke",
    "mixing_angle_k",
    "normal_modes",
    "renormalized_coupling",
    "squeezing_ratio_ground",
    "superradiant_modes",
    "thermal_squeezing_map",
    "thermal_squeezing_ratio",
]
