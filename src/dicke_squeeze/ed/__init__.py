"""Exact diagonalization over a truncated boson (x) spin basis (product or collective-spin layout)."""

from .basis import BasisDescriptor, build_basis, parity_diagonal
from .hamiltonians import (
    SparseHamiltonian,
    build_dicke_hamiltonian,
    build_dicke_ising_hamiltonian,
    build_disordered_hamiltonian,
    build_hopfield_hamiltonian,
    hopfield_parity_diagonal,
)
from .quadratures import (
    QuadratureOperator,
    expectation_symmetric,
    hopfield_p_minus,
    p_d,
    p_minus_k0,
    p_tilde_minus,
    s_tilde_y,
    total_spin_expectation,
    variance,
    variance_symmetric,
)
from .solver import (
    ConvergenceError,
    GroundStateResult,
    ground_state,
    lowest_eigenvalues,
)
from .thermal import thermal_variance

__all__ = [
    "BasisDescriptor",
    "ConvergenceError",
    "GroundStateResult",
    "QuadratureOperator",
    "SparseHamiltonian",
    "build_basis",
    "build_dicke_hamiltonian",
    "build_dicke_ising_hamiltonian",
    "build_disordered_hamiltonian",
    "build_hopfield_hamiltonian",
    "expectation_symmetric",
    "ground_state",
    "hopfield_p_minus",
    "hopfield_parity_diagonal",
    "lowest_eigenvalues",
    "p_d",
    "p_minus_k0",
    "p_tilde_minus",
    "parity_diagonal",
    "s_tilde_y",
    "thermal_variance",
    "total_spin_expectation",
    "variance",
    "variance_symmetric",
]
