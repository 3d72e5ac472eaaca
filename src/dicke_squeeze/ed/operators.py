"""Sparse operator primitives on the boson and spin factors.

Everything is kept real: Hamiltonian pieces are exactly symmetric matrices,
momentum-like quadratures are represented by exactly antisymmetric generators
M (the observable being i*M). Spin operators act on N-bit masks, bit i set
meaning spin i up; S_z|up> = +1/2|up>.

The spin primitives take the basis layout of ``basis.BasisDescriptor``: the
first ``n_collective`` spins form one collective spin J = n_collective/2 on
its symmetric states |k> (k up spins), with <k+1|J_+|k> = sqrt((k+1)(N_c-k)),
and the other spins stay explicit sites. Per-spin weights must agree on the
collective spins, which then carry that one weight.

With ``k0`` set they return the operator in the zero-momentum sector of the
ring layout instead: P^T O P, with O built on the product spins and P the
cached orbit-sum isometry of ``basis.translation_orbits``. That restriction
holds for operators that commute with the translation, so every spin must
carry the same weight.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .basis import translation_orbits


def boson_x(n_max: int) -> sp.csr_matrix:
    """a + a' (symmetric)."""
    root = np.sqrt(np.arange(1, n_max + 1))
    return sp.diags([root, root], offsets=[1, -1], format="csr")


def boson_momentum_generator(n_max: int) -> sp.csr_matrix:
    """a' - a (antisymmetric); the quadrature i(a'-a) is i times this."""
    root = np.sqrt(np.arange(1, n_max + 1))
    return sp.diags([root, -root], offsets=[-1, 1], format="csr")


def _split_weights(n_spins: int, weights, n_collective: int, k0: bool = False):
    """(weight of the collective block, weights of the explicit sites)."""
    weights = np.ones(n_spins) if weights is None else np.asarray(weights, dtype=float)
    if n_collective and np.any(weights[:n_collective] != weights[0]):
        raise ValueError("the collective spins must share one weight")
    if k0 and (n_collective or np.any(weights != weights[0])):
        raise ValueError("the k = 0 ring layout needs n_collective=0 and one weight for every spin")
    return (weights[0] if n_collective else 0.0), weights[n_collective:]


def _k0_sector(op: sp.csr_matrix, n_spins: int, sign: float = 1.0) -> sp.csr_matrix:
    """P^T op P for a translation-invariant op that is exactly symmetric
    (sign +1) or antisymmetric (sign -1); averaging with the transpose keeps
    that exact, since the product's summation order is not mirror-symmetric."""
    isometry = translation_orbits(n_spins)[1]
    sector = (isometry.T @ op @ isometry).tocsr()
    return (0.5 * (sector + sign * sector.T)).tocsr()


def _collective_raise(n_collective: int) -> sp.csr_matrix:
    """J_+ on the n_collective + 1 symmetric states."""
    k = np.arange(n_collective)
    dim = n_collective + 1
    return sp.diags(
        np.sqrt((k + 1.0) * (n_collective - k)), offsets=-1, shape=(dim, dim), format="csr"
    )


def _with_collective(explicit: sp.csr_matrix, collective, n_collective: int) -> sp.csr_matrix:
    """explicit (x) 1 + 1 (x) collective on the spin factor (explicit bits
    major); the product layout returns ``explicit`` as it is."""
    if n_collective == 0:
        return explicit
    mat = sp.kron(explicit, sp.identity(n_collective + 1, format="csr"), format="csr")
    return mat + sp.kron(sp.identity(explicit.shape[0], format="csr"), collective, format="csr")


def _csr(rows, cols, data, dim: int) -> sp.csr_matrix:
    if not data:
        return sp.csr_matrix((dim, dim))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def spin_z_values(
    n_spins: int, weights=None, n_collective: int = 0, k0: bool = False
) -> np.ndarray:
    """Diagonal of sum_i w_i S_z^i over the spin states (in the k = 0 layout,
    its value on each orbit's representative, which translation keeps)."""
    w_c, weights = _split_weights(n_spins, weights, n_collective, k0)
    s = np.arange(1 << weights.size, dtype=np.uint64)
    diag = np.zeros(s.size)
    for i in range(weights.size):
        bit = ((s >> np.uint64(i)) & np.uint64(1)).astype(float)
        diag += weights[i] * (bit - 0.5)
    if n_collective:
        jz = np.arange(n_collective + 1) - 0.5 * n_collective
        diag = np.add.outer(diag, w_c * jz).ravel()
    if k0:
        return diag[translation_orbits(n_spins)[0]]
    return diag


def spin_x_total(
    n_spins: int, weights=None, n_collective: int = 0, k0: bool = False
) -> sp.csr_matrix:
    """sum_i w_i S_x^i: flips spin i with amplitude w_i/2 (symmetric)."""
    w_c, weights = _split_weights(n_spins, weights, n_collective, k0)
    dim = 1 << weights.size
    s = np.arange(dim)
    rows, cols, data = [], [], []
    for i in range(weights.size):
        rows.append(s)
        cols.append(s ^ (1 << i))
        data.append(np.full(dim, 0.5 * weights[i]))
    sites = _csr(rows, cols, data, dim)
    if k0:
        return _k0_sector(sites, n_spins)
    jp = _collective_raise(n_collective)
    return _with_collective(sites, 0.5 * w_c * (jp + jp.T), n_collective)


def spin_flip_total(
    n_spins: int, weights=None, n_collective: int = 0, k0: bool = False
) -> sp.csr_matrix:
    """sum_i w_i (S_+^i + S_-^i): flips spin i with amplitude w_i (symmetric).

    This is the combination whose collective bosonization carries unit weight
    (sum_i (S_+^i + S_-^i) -> sqrt(N)(b' + b) near the polarized state), so it
    is what the spin-boson coupling terms are built from.
    """
    return 2.0 * spin_x_total(n_spins, weights, n_collective, k0)


def spin_pm_total(n_spins: int, n_collective: int = 0, k0: bool = False) -> sp.csr_matrix:
    """S_+ - S_- summed over sites (antisymmetric): +1 on an up-flip of any
    site, -1 on the corresponding down-flip."""
    n_sites = n_spins - n_collective
    dim = 1 << n_sites
    s = np.arange(dim)
    rows, cols, data = [], [], []
    for i in range(n_sites):
        bit = 1 << i
        down = s[(s & bit) == 0]
        # S_+ entry |s or bit><s|, S_- entry is minus its transpose
        rows.append(down | bit)
        cols.append(down)
        data.append(np.ones(down.size))
        rows.append(down)
        cols.append(down | bit)
        data.append(-np.ones(down.size))
    sites = _csr(rows, cols, data, dim)
    if k0:
        return _k0_sector(sites, n_spins, sign=-1.0)
    jp = _collective_raise(n_collective)
    return _with_collective(sites, jp - jp.T, n_collective)


def ising_xx_ring(n_spins: int, k0: bool = False) -> sp.csr_matrix:
    """sum_n S_x^n S_x^{n+1} with periodic wrap: flips each adjacent pair with
    amplitude 1/4 (for N = 2 the single bond is counted twice, matching the
    literal ring sum); on the product spins, or in the k = 0 sector."""
    if n_spins < 2:
        raise ValueError("the ring term needs n_spins >= 2")
    dim = 1 << n_spins
    s = np.arange(dim)
    rows, cols, data = [], [], []
    for n in range(n_spins):
        mask = (1 << n) | (1 << ((n + 1) % n_spins))
        rows.append(s)
        cols.append(s ^ mask)
        data.append(np.full(dim, 0.25))
    ring = _csr(rows, cols, data, dim)
    return _k0_sector(ring, n_spins) if k0 else ring
