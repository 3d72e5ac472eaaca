"""Sparse operator primitives on the boson and spin factors.

Everything is kept real: Hamiltonian pieces are exactly symmetric matrices,
momentum-like quadratures are represented by exactly antisymmetric generators
M (the observable being i*M). Spin operators act on N-bit masks, bit i set
meaning spin i up; S_z|up> = +1/2|up>.

The spin primitives take a ``basis.BasisDescriptor`` and return the operator
on its spin factor; ``_on_layout`` is the one place that reads the layout. On
a collective block (the first ``n_collective`` spins as one spin J =
n_collective/2 on its symmetric states |k>, k up spins, with
<k+1|J_+|k> = sqrt((k+1)(N_c-k))) per-spin weights must agree on the block,
which then carries that one weight. On the k = 0 ring sector the operator is
P^T O P, with O built on the product spins and P the cached orbit-sum
isometry of ``basis.translation_orbits``; that restriction holds for
operators that commute with the translation, so every spin must carry the
same weight.
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


def _on_layout(basis: BasisDescriptor, sites, block=None, sign: float = 1.0):
    """The spin operator on ``basis``'s layout, given its part ``sites`` on the
    explicit spins and ``block`` on the collective spin. A diagonal comes as
    a vector, anything else as a matrix that is exactly symmetric (sign +1)
    or antisymmetric (sign -1).

    - k = 0 ring: P^T sites P, averaged with its transpose to keep that
      exact (the product's summation order is not mirror-symmetric); a
      diagonal takes its value on each orbit's representative, which
      translation keeps.
    - collective block: sites (x) 1 + 1 (x) block (explicit bits major).
    - product spins: ``sites`` as it is.
    """
    if basis.k0:
        reps, isometry = translation_orbits(basis.n_spins)
        if sites.ndim == 1:
            return sites[reps]
        sector = (isometry.T @ sites @ isometry).tocsr()
        return (0.5 * (sector + sign * sector.T)).tocsr()
    if not basis.n_collective:
        return sites
    if sites.ndim == 1:
        return np.add.outer(sites, block).ravel()
    mat = sp.kron(sites, sp.identity(basis.n_collective + 1, format="csr"), format="csr")
    return mat + sp.kron(sp.identity(sites.shape[0], format="csr"), block, format="csr")


def _split_weights(basis: BasisDescriptor, weights):
    """(weight of the collective block, weights of the explicit sites)."""
    n_c = basis.n_collective
    weights = np.ones(basis.n_spins) if weights is None else np.asarray(weights, dtype=float)
    if n_c and np.any(weights[:n_c] != weights[0]):
        raise ValueError("the collective spins must share one weight")
    if basis.k0 and np.any(weights != weights[0]):
        raise ValueError("the k = 0 ring layout needs one weight for every spin")
    return (weights[0] if n_c else 0.0), weights[n_c:]


def _collective_raise(n_collective: int) -> sp.csr_matrix:
    """J_+ on the n_collective + 1 symmetric states."""
    k = np.arange(n_collective)
    dim = n_collective + 1
    return sp.diags(
        np.sqrt((k + 1.0) * (n_collective - k)), offsets=-1, shape=(dim, dim), format="csr"
    )


def _flips(n_bits: int, terms) -> sp.csr_matrix:
    """sum of |s><s ^ mask| times amplitude over the (mask, amplitude) pairs
    in ``terms``, on the n_bits-bit masks s; an amplitude is one number or
    one per s."""
    s = np.arange(1 << n_bits)
    if not terms:
        return sp.csr_matrix((s.size, s.size))
    masks, amplitudes = zip(*terms)
    mat = sp.coo_matrix(
        (
            np.concatenate([np.broadcast_to(a, s.shape) for a in amplitudes]),
            (np.tile(s, len(masks)), np.concatenate([s ^ mask for mask in masks])),
        ),
        shape=(s.size, s.size),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def spin_z_values(basis: BasisDescriptor, weights=None) -> np.ndarray:
    """Diagonal of sum_i w_i S_z^i over the spin states of ``basis``."""
    w_c, weights = _split_weights(basis, weights)
    s = np.arange(1 << weights.size, dtype=np.uint64)
    diag = np.zeros(s.size)
    for i in range(weights.size):
        bit = ((s >> np.uint64(i)) & np.uint64(1)).astype(float)
        diag += weights[i] * (bit - 0.5)
    jz = np.arange(basis.n_collective + 1) - 0.5 * basis.n_collective
    return _on_layout(basis, diag, w_c * jz)


def spin_flip_total(basis: BasisDescriptor, weights=None) -> sp.csr_matrix:
    """sum_i w_i (S_+^i + S_-^i): flips spin i with amplitude w_i (symmetric).

    This is the combination whose collective bosonization carries unit weight
    (sum_i (S_+^i + S_-^i) -> sqrt(N)(b' + b) near the polarized state), so it
    is what the spin-boson coupling terms are built from; S_x is half of it
    (exactly, as halving is exact in floating point).
    """
    w_c, weights = _split_weights(basis, weights)
    sites = _flips(weights.size, [(1 << i, w) for i, w in enumerate(weights)])
    jp = _collective_raise(basis.n_collective)
    return _on_layout(basis, sites, w_c * (jp + jp.T))


def spin_pm_total(basis: BasisDescriptor) -> sp.csr_matrix:
    """S_+ - S_- summed over sites (antisymmetric): +1 on an up-flip of any
    site, -1 on the corresponding down-flip."""
    n_sites = basis.n_explicit
    s = np.arange(1 << n_sites)
    # <s|S_+|s ^ bit> = 1 where s has the bit up, <s|S_-|s ^ bit> = 1 where down
    sites = _flips(n_sites, [(1 << i, np.where(s >> i & 1, 1.0, -1.0)) for i in range(n_sites)])
    jp = _collective_raise(basis.n_collective)
    return _on_layout(basis, sites, jp - jp.T, sign=-1.0)


def ising_xx_ring(basis: BasisDescriptor) -> sp.csr_matrix:
    """sum_n S_x^n S_x^{n+1} with periodic wrap: flips each adjacent pair with
    amplitude 1/4 (for N = 2 the single bond is counted twice, matching the
    literal ring sum); on the product spins or the k = 0 ring sector."""
    n = basis.n_spins
    if basis.n_collective:
        raise ValueError("the Ising ring breaks permutation symmetry: use n_collective=0")
    if n < 2:
        raise ValueError("the ring term needs n_spins >= 2")
    bonds = [((1 << i) | (1 << ((i + 1) % n)), 0.25) for i in range(n)]
    return _on_layout(basis, _flips(n, bonds))
