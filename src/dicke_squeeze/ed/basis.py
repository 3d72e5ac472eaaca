"""Truncated boson (x) spin basis bookkeeping.

Basis states are |n, s> with n the boson occupation (0..n_max, hard cutoff)
and s the index of the spin state. Flat index = n * spin_dim + s, so the
boson occupation is the major axis.

The spin factor holds the first ``n_collective`` spins as one collective spin
J = n_collective/2 in its symmetric (Dicke) states |k>, k = number of up spins
(n_collective + 1 levels), tensored with the remaining spins as explicit
sites: s = e * (n_collective + 1) + k, with e a bitmask whose bit j set means
spin n_collective + j points up. With n_collective = 0 (or 1) this is the
plain spin-1/2^N product basis, s an N-bit mask with bit i set meaning spin i
up. Hamiltonians invariant under permuting the collective spins conserve
their J^2, and their ground state lies in the J = n_collective/2 sector this
basis keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class BasisDescriptor:
    n_spins: int
    n_max: int
    n_collective: int = 0

    def __post_init__(self):
        if int(self.n_spins) != self.n_spins or self.n_spins < 1:
            raise ValueError("n_spins must be an integer >= 1")
        if int(self.n_max) != self.n_max or self.n_max < 0:
            raise ValueError("n_max must be an integer >= 0")
        if int(self.n_collective) != self.n_collective or not (
            0 <= self.n_collective <= self.n_spins
        ):
            raise ValueError("n_collective must be an integer in 0..n_spins")

    @property
    def n_explicit(self) -> int:
        return self.n_spins - self.n_collective

    @property
    def spin_dim(self) -> int:
        return (self.n_collective + 1) << self.n_explicit

    @property
    def boson_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.boson_dim * self.spin_dim

    def index(self, n: int, spins: int) -> int:
        """Flat index of |n, spin state> (the spin-state index s above)."""
        if not (0 <= n <= self.n_max):
            raise ValueError(f"boson occupation {n} outside 0..{self.n_max}")
        if not (0 <= spins < self.spin_dim):
            raise ValueError(f"spin state {spins} outside 0..{self.spin_dim - 1}")
        return n * self.spin_dim + spins

    def occupation(self, index: int) -> tuple[int, int]:
        """Inverse of ``index``: (boson occupation, spin-state index)."""
        if not (0 <= index < self.dim):
            raise ValueError(f"index {index} outside 0..{self.dim - 1}")
        return divmod(index, self.spin_dim)


def build_basis(n_spins: int, n_max: int, n_collective: int = 0) -> BasisDescriptor:
    """Boson (x) spin basis; the first ``n_collective`` spins form one
    collective spin (0 keeps the product basis)."""
    return BasisDescriptor(n_spins=n_spins, n_max=n_max, n_collective=n_collective)


def lift_boson(op: sp.spmatrix, spin_dim: int) -> sp.csr_matrix:
    """A boson operator acting on the full basis: op (x) 1_spin."""
    return sp.kron(op, sp.identity(spin_dim, format="csr"), format="csr")


def lift_spin(op: sp.spmatrix, boson_dim: int) -> sp.csr_matrix:
    """A spin operator acting on the full basis: 1_boson (x) op."""
    return sp.kron(sp.identity(boson_dim, format="csr"), op, format="csr")


def parity_diagonal(basis: BasisDescriptor) -> np.ndarray:
    """Diagonal (+-1) of the conserved parity (-1)^(n + number of up spins).

    All Hamiltonians built here (ideal, disordered, Ising-coupled) commute
    with it: the coupling flips one spin while shifting n by one, and the
    Ising term flips spins in pairs. The up count of a spin state is
    k + popcount(explicit bits).
    """
    explicit = np.bitwise_count(np.arange(1 << basis.n_explicit, dtype=np.uint64))
    ups = np.add.outer(explicit, np.arange(basis.n_collective + 1))
    total = np.add.outer(np.arange(basis.boson_dim), ups.ravel()).ravel()
    return np.where(total % 2 == 0, 1.0, -1.0)
