"""Truncated boson (x) spin basis bookkeeping.

Basis states are |n, s> with n the boson occupation (0..n_max, hard cutoff)
and s the index of the spin state. Flat index = n * spin_dim + s, so the
boson occupation is the major axis.

The spin index is a mixed-radix number with one digit per block
(``BasisDescriptor.blocks``): s = sum_b d_b * stride_b, block 0 fastest. A
block holds n_b permutation-equivalent spins in their symmetric (Dicke)
states, and its digit d_b = 0..n_b counts their up spins. The tuple
``collective`` gives the spin counts of the leading blocks, in spin order;
every remaining spin is a block of one, a bit of radix 2. With ``collective``
empty this is the plain spin-1/2^N product basis, s an N-bit mask with bit i
set meaning spin i up. Hamiltonians invariant under permuting a block's spins
conserve its J^2, and their ground state lies in the J = n_b/2 sector this
basis keeps.

With ``k0`` set the spins instead form a ring in its zero-momentum sector:
s indexes the translation orbits of the N-bit masks (ordered by their
smallest member, the representative r), and spin state s is the orbit sum
|r~> = L_r^(-1/2) sum_{t < L_r} T^t |r>, with T the cyclic shift by one site
and L_r the orbit length. Hamiltonians invariant under T conserve the
momentum, and for the Ising ring the ground state lies in k = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class BasisDescriptor:
    n_spins: int
    n_max: int
    collective: tuple[int, ...] = ()
    k0: bool = False

    def __post_init__(self):
        if int(self.n_spins) != self.n_spins or self.n_spins < 1:
            raise ValueError("n_spins must be an integer >= 1")
        if int(self.n_max) != self.n_max or self.n_max < 0:
            raise ValueError("n_max must be an integer >= 0")
        sizes = tuple(self.collective)
        if any(int(n) != n or n < 1 for n in sizes) or sum(sizes) > self.n_spins:
            raise ValueError(f"collective must be integers >= 1 summing to <= n_spins: {sizes}")
        object.__setattr__(self, "collective", tuple(map(int, sizes)))
        if self.k0 and self.collective:
            raise ValueError("the k = 0 ring layout has no collective block: use collective=()")

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """(spin count, stride) of each digit of the spin index, in spin
        order: the ``collective`` blocks, then one block per remaining spin.
        On the k = 0 layout, the digits of the product spins the sector is
        built from."""
        sizes = self.collective + (1,) * (self.n_spins - sum(self.collective))
        return tuple((n, math.prod(k + 1 for k in sizes[:b])) for b, n in enumerate(sizes))

    @property
    def spin_dim(self) -> int:
        """The product of the blocks' radices n_b + 1, or the orbit count."""
        if self.k0:
            return translation_orbits(self.n_spins)[0].size
        return math.prod(n + 1 for n in self.collective) << (self.n_spins - sum(self.collective))

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


def build_basis(
    n_spins: int, n_max: int, collective: tuple[int, ...] = (), k0: bool = False
) -> BasisDescriptor:
    """Boson (x) spin basis; the leading spins form one collective spin per
    entry of ``collective`` (empty keeps the product basis), or with ``k0``
    the spins form a ring held in its zero-momentum sector."""
    return BasisDescriptor(n_spins=n_spins, n_max=n_max, collective=collective, k0=k0)


@functools.lru_cache(maxsize=8)
def translation_orbits(n_spins: int) -> tuple[np.ndarray, sp.csr_matrix]:
    """(representatives, P) of the zero-momentum sector of an n_spins ring.

    The representatives are the smallest N-bit mask of each translation
    orbit, ascending; P is the 2^N x (number of orbits) isometry whose column
    r is the normalized orbit sum |r~>. An operator O on the product spins
    that commutes with the translation restricts to the sector as P^T O P.
    Cached per N: every point of a sweep shares one P (read-only).
    """
    masks = np.arange(1 << n_spins, dtype=np.int64)
    full = (1 << n_spins) - 1
    smallest, shifted = masks, masks
    for _ in range(n_spins - 1):
        shifted = ((shifted << 1) | (shifted >> (n_spins - 1))) & full
        smallest = np.minimum(smallest, shifted)
    reps, orbit = np.unique(smallest, return_inverse=True)
    length = np.bincount(orbit)
    isometry = sp.csr_matrix(
        (1.0 / np.sqrt(length[orbit]), (masks, orbit)), shape=(masks.size, reps.size)
    )
    reps.setflags(write=False)
    return reps, isometry


def lift_boson(op: sp.spmatrix, spin_dim: int) -> sp.csr_matrix:
    """A boson operator acting on the full basis: op (x) 1_spin."""
    return sp.kron(op, sp.identity(spin_dim, format="csr"), format="csr")


def lift_spin(op: sp.spmatrix, boson_dim: int) -> sp.csr_matrix:
    """A spin operator acting on the full basis: 1_boson (x) op."""
    return sp.kron(sp.identity(boson_dim, format="csr"), op, format="csr")
