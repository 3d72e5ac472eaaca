"""Sparse operator primitives on the boson and spin factors.

Everything is kept real: Hamiltonian pieces are exactly symmetric matrices,
momentum-like quadratures are represented by exactly antisymmetric generators
M (the observable being i*M); S_z|up> = +1/2|up>.

The spin primitives take a ``basis.BasisDescriptor`` and read its spin index
as the mixed-radix number of ``basis.blocks``: digit d_b counts the up spins
of block b, and J_+ on the block takes d_b to d_b + 1 with amplitude
sqrt((d_b+1)(n_b-d_b)) (1 on an explicit spin, a block of one). Every flip
term comes from the one raise operator R = sum_b w_b J_+^b, so the spins of a
block share its one weight. On the k = 0 ring sector the operator is P^T O P,
with O built on the product spins and P the cached orbit-sum isometry of
``basis.translation_orbits``; that restriction holds for operators that
commute with the translation, so every spin must carry the same weight.
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


def _on_layout(basis: BasisDescriptor, op, sign: float = 1.0):
    """``op``, built on the spin index of ``basis.blocks``, on ``basis``'s
    layout. Only the k = 0 ring reads differently: a diagonal (a vector)
    takes its value on each orbit's representative, which translation keeps,
    and a matrix becomes P^T op P, averaged with its transpose to keep it
    exactly symmetric (sign +1) or antisymmetric (sign -1), the product's
    summation order not being mirror-symmetric."""
    if not basis.k0:
        return op
    reps, isometry = translation_orbits(basis.n_spins)
    if op.ndim == 1:
        return op[reps]
    sector = (isometry.T @ op @ isometry).tocsr()
    return (0.5 * (sector + sign * sector.T)).tocsr()


def _digits(basis: BasisDescriptor, weights):
    """(n, stride, w, d) of ``basis.blocks``: each block's spin count, stride
    and one weight, and d[b, s] its digit in every spin index s."""
    n, stride = np.array(basis.blocks).T
    weights = np.ones(basis.n_spins) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (basis.n_spins,):
        raise ValueError(f"need one weight per spin ({basis.n_spins}), got {weights.shape}")
    if np.any(weights[: basis.n_collective] != weights[0]):
        raise ValueError("the collective spins must share one weight")
    if basis.k0 and np.any(weights != weights[0]):
        raise ValueError("the k = 0 ring layout needs one weight for every spin")
    # s is the row-major flat index over the radices n_b + 1, block 0 fastest
    digits = np.indices(tuple(n[::-1] + 1)).reshape(n.size, -1)[::-1]
    return n, stride, weights[np.cumsum(n) - n], digits


def _raise(basis: BasisDescriptor, weights=None) -> sp.csr_matrix:
    """R = sum_b w_b J_+^b: s -> s + stride_b where d_b < n_b, with amplitude
    w_b sqrt((d_b+1)(n_b-d_b))."""
    n, stride, w, d = _digits(basis, weights)
    block, s = np.nonzero(d < n[:, None])
    up = d[block, s]
    amplitude = w[block] * np.sqrt((up + 1.0) * (n[block] - up))
    return sp.coo_matrix((amplitude, (s + stride[block], s)), shape=(d.shape[1],) * 2).tocsr()


def spin_z_values(basis: BasisDescriptor, weights=None) -> np.ndarray:
    """Diagonal of sum_i w_i S_z^i over the spin states of ``basis``."""
    n, _, w, d = _digits(basis, weights)
    diag = np.zeros(d.shape[1])
    # the explicit spins in order, then the collective block (row 0): the
    # summation order fixes the diagonal's rounding
    for b in [*range(1, n.size), 0] if basis.n_collective else range(n.size):
        diag += w[b] * (d[b] - 0.5 * n[b])
    return _on_layout(basis, diag)


def spin_flip_total(basis: BasisDescriptor, weights=None) -> sp.csr_matrix:
    """sum_i w_i (S_+^i + S_-^i) = R + R^T: flips spin i with amplitude w_i
    (symmetric).

    This is the combination whose collective bosonization carries unit weight
    (sum_i (S_+^i + S_-^i) -> sqrt(N)(b' + b) near the polarized state), so it
    is what the spin-boson coupling terms are built from; S_x is half of it
    (exactly, as halving is exact in floating point).
    """
    up = _raise(basis, weights)
    return _on_layout(basis, up + up.T)


def spin_pm_total(basis: BasisDescriptor) -> sp.csr_matrix:
    """S_+ - S_- summed over sites, R - R^T (antisymmetric): +1 on an up-flip
    of any site, -1 on the corresponding down-flip."""
    up = _raise(basis)
    return _on_layout(basis, up - up.T, sign=-1.0)


def ising_xx_ring(basis: BasisDescriptor) -> sp.csr_matrix:
    """sum_n S_x^n S_x^{n+1} with periodic wrap: flips each adjacent pair with
    amplitude 1/4 (for N = 2 the single bond is counted twice, matching the
    literal ring sum); on the product spins or the k = 0 ring sector."""
    n = basis.n_spins
    if basis.n_collective:
        raise ValueError("the Ising ring breaks permutation symmetry: use n_collective=0")
    if n < 2:
        raise ValueError("the ring term needs n_spins >= 2")
    s = np.arange(1 << n)
    sites = np.arange(n)
    flipped = (s ^ ((1 << sites) | (1 << (sites + 1) % n))[:, None]).ravel()
    # tocsr sums duplicates: the N = 2 ring's two bonds flip the same pair
    ring = sp.coo_matrix((np.full(flipped.size, 0.25), (np.tile(s, n), flipped)), (s.size,) * 2)
    return _on_layout(basis, ring.tocsr())
