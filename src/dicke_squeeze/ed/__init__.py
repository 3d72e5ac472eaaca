"""Exact diagonalization over a truncated boson (x) spin basis (product,
collective-spin or k = 0 ring layout). H and the quadratures are one type, a
sum of Kronecker terms over shared cached factors; each parity block of H is
built from them, and no full-dim matrix of H is formed unless a caller asks.
The Gibbs oracle (``thermal_variance``) is the one dense path: it holds one
parity block's dense matrix and eigenvectors at a time, and reads the
quadrature's sparse matrix at that block's columns."""

from .basis import BasisDescriptor, build_basis
from .hamiltonians import (
    SparseHamiltonian,
    build_dicke_hamiltonian,
    build_hopfield_hamiltonian,
)
from .quadratures import (
    QuadratureOperator,
    hopfield_p_minus,
    p_d,
    p_minus_k0,
    p_tilde_minus,
    s_tilde_y,
    total_spin_expectation,
    variance,
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
    "build_hopfield_hamiltonian",
    "ground_state",
    "hopfield_p_minus",
    "lowest_eigenvalues",
    "p_d",
    "p_minus_k0",
    "p_tilde_minus",
    "s_tilde_y",
    "thermal_variance",
    "total_spin_expectation",
    "variance",
]
