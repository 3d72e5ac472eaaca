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

from ..core import integer_at_least


@dataclass(frozen=True)
class BasisDescriptor:
    n_spins: int
    n_max: int
    collective: tuple[int, ...] = ()
    k0: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_spins", integer_at_least("n_spins", self.n_spins, 1))
        object.__setattr__(self, "n_max", integer_at_least("n_max", self.n_max, 0))
        sizes = tuple(integer_at_least("collective entry", n, 1) for n in self.collective)
        if sum(sizes) > self.n_spins:
            raise ValueError(f"collective must sum to <= n_spins: {sizes}")
        object.__setattr__(self, "collective", sizes)
        if self.k0 and self.collective:
            raise ValueError("the k = 0 ring layout has no collective block: use collective=()")

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """(spin count, stride) of each digit of the spin index, in spin
        order: the ``collective`` blocks, then one block per remaining spin.
        On the k = 0 layout, the bits of the orbit representatives."""
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


def build_basis(
    n_spins: int, n_max: int, collective: tuple[int, ...] = (), k0: bool = False
) -> BasisDescriptor:
    """Boson (x) spin basis; the leading spins form one collective spin per
    entry of ``collective`` (empty keeps the product basis), or with ``k0``
    the spins form a ring held in its zero-momentum sector."""
    return BasisDescriptor(n_spins=n_spins, n_max=n_max, collective=collective, k0=k0)


@functools.lru_cache(maxsize=8)
def translation_orbits(n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, orbit, length) of the zero-momentum sector of an n_spins ring.

    reps holds the smallest N-bit mask of each translation orbit, ascending;
    orbit[x] is the index of mask x's orbit and length[i] the size of orbit i.
    Cached per N and read-only: every point of a sweep shares them.
    """
    masks = np.arange(1 << n_spins, dtype=np.int64)
    full = (1 << n_spins) - 1
    smallest, shifted = masks, masks
    for _ in range(n_spins - 1):
        shifted = ((shifted << 1) | (shifted >> (n_spins - 1))) & full
        smallest = np.minimum(smallest, shifted)
    reps, orbit = np.unique(smallest, return_inverse=True)
    length = np.bincount(orbit)
    for array in (reps, orbit, length):
        array.setflags(write=False)
    return reps, orbit, length
