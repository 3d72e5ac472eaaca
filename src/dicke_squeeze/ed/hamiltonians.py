"""Sparse Hamiltonian builders over the truncated boson (x) spin basis.

The ideal and disordered builders take either spin layout of the basis (the
product basis, or a collective block of permutation-equivalent spins plus
explicit sites); the Ising ring needs the product basis.

Every matrix is real-symmetric by construction (kron products and sums of
exactly symmetric pieces), so H == H^T holds entry-for-entry, not just to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..core import DickeParams
from ..disorder import DisorderEnsemble
from .basis import BasisDescriptor, lift_boson, lift_spin, parity_diagonal
from .operators import (
    boson_x,
    ising_xx_ring,
    spin_flip_total,
    spin_z_values,
)


@dataclass(frozen=True)
class SparseHamiltonian:
    """A real-symmetric sparse Hamiltonian plus a human-readable label.

    ``parity`` is the (+-1) diagonal of a conserved parity when the builder
    supplies one (every builder here does); the thermal oracle then
    diagonalizes its two blocks apart, and ``ground_state`` projects a
    near-degenerate ground state onto it.
    """

    matrix: sp.csr_matrix
    label: str
    parity: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return (self.matrix != self.matrix.T).nnz == 0


def _assemble(parts, label, parity=None):
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    total = total.tocsr()
    total.sum_duplicates()
    total.sort_indices()
    return SparseHamiltonian(matrix=total, label=label, parity=parity)


def build_dicke_hamiltonian(p: DickeParams, basis: BasisDescriptor) -> SparseHamiltonian:
    """omega a'a + omega0 sum_i S_z^i + (g/sqrt(N)) (a+a') sum_i (S_+^i+S_-^i),
    plus a2_coeff * (a+a')^2 when present (squared after truncation).

    The coupling enters through S_+ + S_-, whose collective bosonization has
    unit weight; with this normalization the finite-size model shares the
    quadratic model's critical coupling sqrt(omega*omega0)/2."""
    if basis.n_spins != p.n_spins:
        raise ValueError(
            f"basis holds {basis.n_spins} spins but params specify {p.n_spins}"
        )
    n, n_c = basis.n_spins, basis.n_collective
    diag = np.add.outer(
        p.omega * np.arange(basis.boson_dim), p.omega0 * spin_z_values(n, n_collective=n_c)
    ).ravel()
    parts = [sp.diags(diag, format="csr")]
    if p.g != 0.0:
        parts.append(
            (p.g / np.sqrt(n))
            * sp.kron(boson_x(basis.n_max), spin_flip_total(n, n_collective=n_c), format="csr")
        )
    if p.a2_coeff != 0.0:
        x = boson_x(basis.n_max)
        parts.append(p.a2_coeff * lift_boson((x @ x).tocsr(), basis.spin_dim))
    return _assemble(parts, "dicke", parity_diagonal(basis))


def build_disordered_hamiltonian(
    p: DickeParams, d: DisorderEnsemble, basis: BasisDescriptor
) -> SparseHamiltonian:
    """Dicke model with defects: the first N spins carry (omega0, g), the last
    m carry their individual (omega'_i, g'_i); every coupling is collectively
    normalized by 1/sqrt(N+m). A collective block in the basis must hold spins
    of equal (omega, g), i.e. clean spins."""
    total = d.n_clean + d.m
    if basis.n_spins != total:
        raise ValueError(
            f"basis holds {basis.n_spins} spins but the ensemble needs N+m={total}"
        )
    if d.m == 0:
        # no defects: take the plain construction path so the matrices are
        # identical entry for entry
        ideal = build_dicke_hamiltonian(
            DickeParams(p.omega, p.omega0, p.g, d.n_clean, p.a2_coeff), basis
        )
        return SparseHamiltonian(
            matrix=ideal.matrix, label="dicke-disordered", parity=ideal.parity
        )
    z_weights = np.concatenate(
        [np.full(d.n_clean, p.omega0), np.array([w for w, _ in d.defects])]
    )
    x_weights = np.concatenate(
        [np.full(d.n_clean, p.g), np.array([gp for _, gp in d.defects])]
    )
    n_c = basis.n_collective
    diag = np.add.outer(
        p.omega * np.arange(basis.boson_dim), spin_z_values(total, z_weights, n_c)
    ).ravel()
    parts = [sp.diags(diag, format="csr")]
    if np.any(x_weights != 0.0):
        parts.append(
            (1.0 / np.sqrt(total))
            * sp.kron(boson_x(basis.n_max), spin_flip_total(total, x_weights, n_c), format="csr")
        )
    if p.a2_coeff != 0.0:
        x = boson_x(basis.n_max)
        parts.append(p.a2_coeff * lift_boson((x @ x).tocsr(), basis.spin_dim))
    return _assemble(parts, "dicke-disordered", parity_diagonal(basis))


def build_dicke_ising_hamiltonian(
    p: DickeParams, eta: float, basis: BasisDescriptor
) -> SparseHamiltonian:
    """Dicke model plus the nearest-neighbor ring term 4J sum_n S_x^n S_x^{n+1}
    with J = eta*omega0. For eta = 0 this takes exactly the plain-Dicke
    construction path, so the matrices are bitwise identical. The ring breaks
    the permutation symmetry, so the basis must be the product basis."""
    if basis.n_collective:
        raise ValueError("the Ising ring breaks permutation symmetry: use n_collective=0")
    if basis.n_spins < 2:
        raise ValueError("the Ising ring needs n_spins >= 2")
    ideal = build_dicke_hamiltonian(p, basis)
    if eta == 0.0:
        return SparseHamiltonian(
            matrix=ideal.matrix, label="dicke-ising", parity=ideal.parity
        )
    coupling = 4.0 * eta * p.omega0
    ring = coupling * lift_spin(ising_xx_ring(basis.n_spins), basis.boson_dim)
    return _assemble([ideal.matrix, ring], "dicke-ising", ideal.parity)


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
        parts.append(
            p.a2_coeff * sp.kron((x @ x).tocsr(), sp.identity(dim_b, format="csr"), format="csr")
        )
    return _assemble(parts, "hopfield", hopfield_parity_diagonal(n_max_a, n_max_b))


def hopfield_parity_diagonal(n_max_a: int, n_max_b: int) -> np.ndarray:
    """(-1)^(n_a + n_b) over the two-boson basis."""
    n_a = np.arange(n_max_a + 1)
    n_b = np.arange(n_max_b + 1)
    return np.where((np.add.outer(n_a, n_b) % 2) == 0, 1.0, -1.0).ravel()
