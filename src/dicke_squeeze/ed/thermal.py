"""Gibbs-state variances from the thermally weighted part of a dense spectrum.

Intended as the finite-temperature oracle for the two-boson model, where the
full spectrum at the required truncations stays below a few thousand states.
The parity blocks are diagonalized one after the other, and each holds two
dense b x b arrays while it is reduced (its matrix and LAPACK's eigenvector
array), so the memory is that of the largest block, 2*b^2*8 bytes: 11 MB at
criterion 03's dim 1681 (b = 841).

Time, on criterion 03's first six draws (b = 840, 841; best of 7, 2 vCPUs,
OpenBLAS 0.3.31 on 2 threads): a block's eigh takes 34-67 ms, of which the
tridiagonal reduction (dsytrd) is 24-30 ms at any window and the rest
(bisection, inverse iteration, back-transform) grows with the kept pairs:
9-11 ms at 4-8, 29-31 ms at 52-56, 37-41 ms at 78-79. The blocks are not
threaded: LAPACK drops the GIL, yet two at once took 63-128 ms a draw against
61-129 ms in turn, with OpenBLAS on one thread or two; one block's dsytrd
already spreads over both vCPUs (45-52 ms on one OpenBLAS thread).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from ..core import real_at_least
from .quadratures import QuadratureOperator, variance
from .hamiltonians import SparseHamiltonian
from .solver import ground_state

# refuse dense decompositions beyond this size; a block of b states takes
# 2*b^2*8 bytes, 1.6 GB for two blocks of 10000 and 6.4 GB for one of 20000
_DENSE_SPECTRUM_LIMIT = 20000

TAIL_BOUND = 1e-10

# Boltzmann window, in units of T. A diagonal entry of H is a Rayleigh
# quotient, so min(diag H) >= E_0, and every eigenpair above
# min(diag H) + W*T has relative weight exp(-(E - E_0)/T) < e^-W. At most dim
# such pairs hold less than dim*e^-W of the Gibbs weight, and dropping them
# moves the variance by less than dim*e^-W*||M||^2: with W = 40
# (e^-40 = 4.2e-18), 9.6e-13 at criterion 03's dim 1681, whose p_- generator
# has ||M||^2 = 135. Beyond the window the spectrum starts above E_0 + W*T, so
# the tail bound holds there by construction.
BOLTZMANN_WINDOW = 40.0


def thermal_variance(h: SparseHamiltonian, q: QuadratureOperator, temperature: float) -> float:
    """Gibbs-weighted variance of the observable i*M at the given temperature.

    Each parity block (``SparseHamiltonian.parity_blocks``) is diagonalized
    densely from its band, one at a time (``_block_pairs``), but only up to
    the Boltzmann window min(diag H) + W*T, W = BOLTZMANN_WINDOW; the spectra
    are merged and the kept pairs averaged as ||M v_j||^2 with weights
    exp(-(E_j - E_0)/T) (eigenstate means vanish identically for real
    eigenvectors, and the thermal mean inherits that). The kept spectrum must
    cover the ensemble: exp(-(E_cut - E_0)/T) < TAIL_BOUND, where E_cut is
    the highest kept eigenvalue, or the window edge when the window drops
    pairs; otherwise a ValueError reports the violated tail bound. T = 0
    returns the ground-state variance; a temperature that is not a finite
    real number >= 0 is a ValueError.
    """
    temperature = real_at_least("temperature", temperature, 0.0)
    dim = h.dim
    if q.dim != dim:
        raise ValueError(f"dimension mismatch: operator {q.dim}, matrix {dim}")
    if temperature == 0.0:
        return variance(ground_state(h), q)
    if dim > _DENSE_SPECTRUM_LIMIT:
        raise ValueError(
            f"thermal oracle needs a dense spectrum; dim={dim} exceeds "
            f"{_DENSE_SPECTRUM_LIMIT}"
        )
    bands = [(index, block.band()) for index, block in h.parity_blocks()]
    # row 0 of a band is the block's diagonal
    window = min(band[0].min() for _, band in bands) + BOLTZMANN_WINDOW * temperature
    energies, second_moments = zip(*(_block_pairs(*item, window, q) for item in bands))
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    second_moments = np.concatenate(second_moments)[order]
    # when the window dropped pairs, the spectrum past it starts above E_0 + W*T
    e_cut = window if energies.size < dim else energies[-1]
    # at a tiny T, (E - E_0)/T overflows to inf and its weight is exactly 0
    with np.errstate(over="ignore"):
        tail = np.exp(-(e_cut - energies[0]) / temperature)
        weights = np.exp(-(energies - energies[0]) / temperature)
    if tail >= TAIL_BOUND:
        raise ValueError(
            f"Boltzmann tail bound violated: exp(-(E_cut-E_0)/T) = {tail:.3e} "
            f">= {TAIL_BOUND:.0e}; increase the truncation"
        )
    weights /= weights.sum()
    return float(weights @ second_moments)


def _block_pairs(index, band, window: float, q: QuadratureOperator):
    """(E_j, ||M v_j||^2) of one parity block's eigenpairs up to ``window``,
    from the block's lower ``band``.

    The block is built Fortran-ordered (``_lower_dense``) and LAPACK reduces
    it in place, so the call holds two dense b x b arrays: the block, which
    dies when eigh returns, and the eigenvector array Z, which eigh returns a
    view of and which dies with this call. M v_j is read from M's columns at
    the block's places, with no lift to the full basis."""
    w, vectors = la.eigh(
        _lower_dense(band), overwrite_a=True, subset_by_value=[-np.inf, window]
    )
    mv = q.matrix[:, index] @ vectors
    return w, np.einsum("ij,ij->j", mv, mv)


def _lower_dense(band: np.ndarray) -> np.ndarray:
    """The lower triangle of the block with lower ``band``, the only
    triangle eigh reads, in a Fortran-ordered n x n array; zeros above."""
    n = band.shape[1]
    dense = np.zeros((n, n), order="F")
    # H[j + d, j] sits at j (n + 1) + d of the Fortran-ordered array
    flat = dense.ravel(order="F")
    for d, diagonal in enumerate(band):
        flat[d :: n + 1][: n - d] = diagonal[: n - d]
    return dense
