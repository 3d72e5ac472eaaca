"""Sparse operator primitives on the boson and spin factors.

Everything is kept real: Hamiltonian pieces are exactly symmetric matrices,
momentum-like quadratures are represented by exactly antisymmetric generators
M (the observable being i*M); S_z|up> = +1/2|up>.

The spin primitives take a ``basis.BasisDescriptor`` and build on its own
spin states, read as mixed-radix numbers over ``basis.blocks``: digit d_b
counts the up spins of block b, and J_+ on the block takes d_b to d_b + 1
with amplitude sqrt((d_b+1)(n_b-d_b)) (1 on an explicit spin, a block of
one). Every flip term comes from the one raise operator R = sum_b w_b J_+^b,
and S_z is sum_b w_b (d_b - n_b/2) summed over the blocks in order, so the
spins of a block must share one weight. On the k = 0 ring sector the states
are the orbit representatives r, and a term taking r to the mask x lands on
x's orbit i, scaled by sqrt(L_r/L_i): for an operator O that commutes with
the translation, <i~|O|r~> = sum_{x in orbit i} O_xr sqrt(L_r/L_i). That
holds only when every spin carries the same weight.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .basis import BasisDescriptor, translation_orbits


def boson_x(n_max: int) -> sp.csr_matrix:
    """a + a' (symmetric)."""
    root = np.sqrt(np.arange(1, n_max + 1))
    return sp.diags([root, root], offsets=[1, -1], format="csr")


def boson_momentum_generator(n_max: int) -> sp.csr_matrix:
    """a' - a (antisymmetric); the quadrature i(a'-a) is i times this."""
    root = np.sqrt(np.arange(1, n_max + 1))
    return sp.diags([root, -root], offsets=[-1, 1], format="csr")


def _fold(basis: BasisDescriptor, amplitude, target, source) -> sp.csr_matrix:
    """The spin matrix with amplitude[j] from state source[j] (a position in
    ``basis``'s states) to the spin index target[j], duplicates summed. On
    the k = 0 ring the target mask is folded onto its orbit."""
    if basis.k0:
        _, orbit, length = translation_orbits(basis.n_spins)
        target = orbit[target]
        amplitude = amplitude * np.sqrt(length[source] / length[target])
    return sp.coo_matrix((amplitude, (target, source)), shape=(basis.spin_dim,) * 2).tocsr()


def _states(basis: BasisDescriptor) -> np.ndarray:
    """``basis``'s spin states as spin indices of its blocks: 0..spin_dim-1,
    or the orbit representatives on the k = 0 ring."""
    return translation_orbits(basis.n_spins)[0] if basis.k0 else np.arange(basis.spin_dim)


def block_weights(basis: BasisDescriptor, weights=None) -> np.ndarray:
    """The one weight of each block of ``basis.blocks``, from one weight per
    spin (all 1 when None); ValueError unless the spins of each block, and on
    the k = 0 ring every spin, share one weight."""
    n = np.array([size for size, _ in basis.blocks])
    weights = np.ones(basis.n_spins) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (basis.n_spins,):
        raise ValueError(f"need one weight per spin ({basis.n_spins}), got {weights.shape}")
    w = weights[np.cumsum(n) - n]
    if np.any(weights != np.repeat(w, n)):
        raise ValueError("the spins of each block must share one weight")
    if basis.k0 and np.any(weights != weights[0]):
        raise ValueError("the k = 0 ring layout needs one weight for every spin")
    return w


def _digits(basis: BasisDescriptor):
    """(n, stride, d) of ``basis.blocks``: each block's spin count and
    stride, and d[b, s] its digit in every spin state s."""
    n, stride = np.array(basis.blocks).T
    return n, stride, _states(basis) // stride[:, None] % (n[:, None] + 1)


def spin_raise(basis: BasisDescriptor, weights=None) -> sp.csr_matrix:
    """R = sum_b w_b J_+^b: s -> s + stride_b where d_b < n_b, with amplitude
    w_b sqrt((d_b+1)(n_b-d_b))."""
    w = block_weights(basis, weights)
    n, stride, d = _digits(basis)
    block, s = np.nonzero(d < n[:, None])
    up = d[block, s]
    amplitude = w[block] * np.sqrt((up + 1.0) * (n[block] - up))
    return _fold(basis, amplitude, _states(basis)[s] + stride[block], s)


def spin_z_values(basis: BasisDescriptor, weights=None) -> np.ndarray:
    """Diagonal of sum_i w_i S_z^i over the spin states of ``basis``: block
    b's S_z, d_b - n_b/2, weighted and summed in block order."""
    w = block_weights(basis, weights)
    n, _, d = _digits(basis)
    return sum(w_b * (d_b - 0.5 * n_b) for w_b, n_b, d_b in zip(w, n, d))


def spin_flip_total(basis: BasisDescriptor, weights=None) -> sp.csr_matrix:
    """sum_i w_i (S_+^i + S_-^i) = R + R^T: flips spin i with amplitude w_i
    (symmetric).

    This is the combination whose collective bosonization carries unit weight
    (sum_i (S_+^i + S_-^i) -> sqrt(N)(b' + b) near the polarized state), so it
    is what the spin-boson coupling terms are built from; S_x is half of it
    (exactly, as halving is exact in floating point).
    """
    up = spin_raise(basis, weights)
    return up + up.T


def ising_xx_ring(basis: BasisDescriptor) -> sp.csr_matrix:
    """sum_n S_x^n S_x^{n+1} with periodic wrap: flips each adjacent pair with
    amplitude 1/4 (for N = 2 the single bond is counted twice, matching the
    literal ring sum); on the product spins or the k = 0 ring sector."""
    n = basis.n_spins
    if basis.collective:
        raise ValueError("the Ising ring breaks permutation symmetry: use collective=()")
    if n < 2:
        raise ValueError("the ring term needs n_spins >= 2")
    s = _states(basis)
    sites = np.arange(n)
    flipped = (s ^ ((1 << sites) | (1 << (sites + 1) % n))[:, None]).ravel()
    # tocsr sums duplicates: the N = 2 ring's two bonds flip the same pair
    ring = _fold(basis, np.full(flipped.size, 0.25), flipped, np.tile(np.arange(s.size), n))
    # folded onto k = 0 the ring is symmetric only to rounding
    return (0.5 * (ring + ring.T)).tocsr() if basis.k0 else ring
