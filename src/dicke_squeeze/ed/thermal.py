"""Gibbs-state variances from a full (dense) spectrum.

Intended as the finite-temperature oracle for the two-boson model, where the
full spectrum at the required truncations stays below a few thousand states.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .hamiltonians import SparseHamiltonian
from .quadratures import QuadratureOperator
from .solver import _as_matrix, ground_state

# refuse dense decompositions beyond this size
_DENSE_SPECTRUM_LIMIT = 20000

TAIL_BOUND = 1e-10


def thermal_variance(
    h,
    q: QuadratureOperator,
    temperature: float,
    n_eigenpairs: int | None = None,
) -> float:
    """Gibbs-weighted variance of the observable i*M at the given temperature.

    Diagonalizes ``h`` densely and averages ||M v_j||^2 with Boltzmann weights
    (eigenstate means vanish identically for real eigenvectors, and the
    thermal mean inherits that). A SparseHamiltonian carrying a parity
    diagonal is diagonalized block by block (even, odd) and the two spectra
    are merged; ``n_eigenpairs`` keeps the lowest of the merged spectrum. The
    retained spectrum must cover the ensemble: exp(-(E_cut - E_0)/T) < 1e-10,
    otherwise a ValueError reports the violated tail bound. T = 0 returns the
    ground-state variance.
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    mat = _as_matrix(h)
    dim = mat.shape[0]
    if q.dim != dim:
        raise ValueError(f"dimension mismatch: operator {q.dim}, matrix {dim}")
    if temperature == 0.0:
        gs = ground_state(h)
        mv = q.generator @ gs.vector
        return float(mv @ mv)
    if dim > _DENSE_SPECTRUM_LIMIT:
        raise ValueError(
            f"thermal oracle needs a dense spectrum; dim={dim} exceeds "
            f"{_DENSE_SPECTRUM_LIMIT}"
        )
    n_used = dim if n_eigenpairs is None else min(n_eigenpairs, dim)
    if n_used < 1:
        raise ValueError("n_eigenpairs must be >= 1")
    if isinstance(h, SparseHamiltonian) and h.parity is not None:
        blocks = [np.flatnonzero(h.parity > 0), np.flatnonzero(h.parity < 0)]
    else:
        blocks = [slice(None)]
    energies, second_moments = [], []
    for idx in blocks:
        block = mat[idx][:, idx].toarray()
        n_block = min(n_used, block.shape[0])
        if n_block == 0:
            continue
        w, vectors = la.eigh(block, subset_by_index=[0, n_block - 1])
        mv = q.generator[:, idx] @ vectors
        energies.append(w)
        second_moments.append(np.einsum("ij,ij->j", mv, mv))
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")[:n_used]
    energies = energies[order]
    second_moments = np.concatenate(second_moments)[order]
    beta = 1.0 / temperature
    tail = np.exp(-beta * (energies[-1] - energies[0]))
    if tail >= TAIL_BOUND:
        raise ValueError(
            f"Boltzmann tail bound violated: exp(-beta*(E_cut-E_0)) = {tail:.3e} "
            f">= {TAIL_BOUND:.0e}; increase the truncation or n_eigenpairs"
        )
    weights = np.exp(-beta * (energies - energies[0]))
    weights /= weights.sum()
    return float(weights @ second_moments)
