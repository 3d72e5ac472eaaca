"""Sparse Hamiltonian builders over the truncated boson (x) spin basis.

One builder covers the Dicke model and its two perturbations, defects and
the Ising ring; the spin primitives of ``operators`` carry the basis layout
(product spins, collective blocks of permutation-equivalent spins beside
explicit sites, or the k = 0 ring sector), so nothing here reads it.

Every matrix is real-symmetric by construction (kron products and sums of
exactly symmetric pieces), so H == H^T holds entry-for-entry, not just to
rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..core import DickeParams
from ..disorder import DisorderEnsemble
from .basis import BasisDescriptor, lift_boson, lift_spin
from .operators import (
    boson_x,
    ising_xx_ring,
    spin_flip_total,
    spin_z_values,
)


@dataclass(frozen=True)
class SparseHamiltonian:
    """A real-symmetric sparse Hamiltonian.

    ``parity`` is the (+-1) diagonal of a conserved parity when the builder
    supplies one (every builder here does); ``ground_state`` and the thermal
    oracle then diagonalize its two blocks apart.
    """

    matrix: sp.csr_matrix
    parity: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return (self.matrix != self.matrix.T).nnz == 0


def _assemble(parts, parity):
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    total = total.tocsr()
    total.sum_duplicates()
    total.sort_indices()
    return SparseHamiltonian(matrix=total, parity=parity)


@functools.lru_cache(maxsize=4)
def _coupling_term(basis: BasisDescriptor) -> sp.csr_matrix:
    """(a + a') (x) sum_i (S_+^i + S_-^i) on ``basis``. Cached: the points of
    a sweep at one basis scale the same (read-only) matrix."""
    return sp.kron(boson_x(basis.n_max), spin_flip_total(basis), format="csr")


@functools.lru_cache(maxsize=4)
def _ring_term(basis: BasisDescriptor) -> sp.csr_matrix:
    """1 (x) sum_n S_x^n S_x^{n+1} on ``basis``, cached like the coupling."""
    return lift_spin(ising_xx_ring(basis), basis.boson_dim)


def build_dicke_hamiltonian(
    p: DickeParams,
    basis: BasisDescriptor,
    disorder: DisorderEnsemble | None = None,
    eta: float = 0.0,
) -> SparseHamiltonian:
    """omega a'a + omega0 sum_i S_z^i + (g/sqrt(N)) (a+a') sum_i (S_+^i+S_-^i),
    plus a2_coeff * (a+a')^2 when present (squared after truncation).

    The coupling enters through S_+ + S_-, whose collective bosonization has
    unit weight; with this normalization the finite-size model shares the
    quadratic model's critical coupling sqrt(omega*omega0)/2.

    ``disorder`` adds its m defects after the p.n_spins = n_clean clean spins:
    defect i carries (omega'_i, g'_i) and every coupling is collectively
    normalized by 1/sqrt(N+m). ``eta`` adds the nearest-neighbor ring
    4J sum_n S_x^n S_x^{n+1} with J = eta*omega0, which breaks the permutation
    symmetry but keeps the translation. With no defects and eta = 0 this is
    the ideal model, built the same way. The two perturbations do not
    combine.
    """
    defects = () if disorder is None else disorder.defects
    if disorder is not None and disorder.n_clean != p.n_spins:
        raise ValueError(
            f"params specify {p.n_spins} spins but the ensemble has "
            f"n_clean={disorder.n_clean}"
        )
    if basis.n_spins != p.n_spins + len(defects):
        raise ValueError(
            f"basis holds {basis.n_spins} spins but the model needs "
            f"{p.n_spins + len(defects)}"
        )
    if defects and eta != 0.0:
        raise ValueError("the Ising ring and defects do not combine: pass one of them")
    n = basis.n_spins
    coupling = None
    if defects:
        z = spin_z_values(basis, [p.omega0] * p.n_spins + [w for w, _ in defects])
        x_weights = [p.g] * p.n_spins + [gp for _, gp in defects]
        if any(x_weights):
            flip = spin_flip_total(basis, x_weights)
            coupling = (1.0 / np.sqrt(n)) * sp.kron(boson_x(basis.n_max), flip, format="csr")
    else:
        z = p.omega0 * spin_z_values(basis)
        if p.g != 0.0:
            coupling = (p.g / np.sqrt(n)) * _coupling_term(basis)
    diag = np.add.outer(p.omega * np.arange(basis.boson_dim), z).ravel()
    parts = [sp.diags(diag, format="csr")]
    if coupling is not None:
        parts.append(coupling)
    if p.a2_coeff != 0.0:
        x = boson_x(basis.n_max)
        parts.append(p.a2_coeff * lift_boson((x @ x).tocsr(), basis.spin_dim))
    if eta != 0.0:
        parts.append((4.0 * eta * p.omega0) * _ring_term(basis))
    return _assemble(parts, parity_diagonal(basis))


def build_hopfield_hamiltonian(
    p: DickeParams, n_max_a: int, n_max_b: int
) -> SparseHamiltonian:
    """Two truncated bosons, omega0 b'b + omega a'a + g (a+a')(b+b'), plus the
    a2_coeff term on the a mode. Index = n_a*(n_max_b+1) + n_b. Carries the
    conserved parity (-1)^(n_a + n_b)."""
    dim_b = n_max_b + 1
    diag = np.add.outer(
        p.omega * np.arange(n_max_a + 1), p.omega0 * np.arange(dim_b)
    ).ravel()
    parts = [sp.diags(diag, format="csr")]
    if p.g != 0.0:
        parts.append(p.g * sp.kron(boson_x(n_max_a), boson_x(n_max_b), format="csr"))
    if p.a2_coeff != 0.0:
        x = boson_x(n_max_a)
        parts.append(p.a2_coeff * lift_boson((x @ x).tocsr(), dim_b))
    return _assemble(parts, hopfield_parity_diagonal(n_max_a, n_max_b))


def parity_diagonal(basis: BasisDescriptor) -> np.ndarray:
    """Diagonal (+-1) of the conserved parity (-1)^(n + number of up spins).

    All Hamiltonians built here (ideal, disordered, Ising-coupled) commute
    with it: the coupling flips one spin while shifting n by one, and the
    Ising term flips spins in pairs. A spin state's up count is S_z + N/2,
    exact in floating point (S_z is a sum of +-1/2 terms).
    """
    ups = spin_z_values(basis) + 0.5 * basis.n_spins
    total = np.add.outer(np.arange(basis.boson_dim), ups).ravel()
    return np.where(total % 2 == 0, 1.0, -1.0)


def hopfield_parity_diagonal(n_max_a: int, n_max_b: int) -> np.ndarray:
    """(-1)^(n_a + n_b) over the two-boson basis."""
    n_a = np.arange(n_max_a + 1)
    n_b = np.arange(n_max_b + 1)
    return np.where((np.add.outer(n_a, n_b) % 2) == 0, 1.0, -1.0).ravel()
