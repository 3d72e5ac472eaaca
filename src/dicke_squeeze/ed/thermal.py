"""Gibbs-state variances from the thermally weighted part of a dense spectrum.

Intended as the finite-temperature oracle for the two-boson model, where the
full spectrum at the required truncations stays below a few thousand states.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .quadratures import QuadratureOperator
from .solver import _as_matrix, ground_state, parity_blocks

# refuse dense decompositions beyond this size
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


def thermal_variance(h, q: QuadratureOperator, temperature: float) -> float:
    """Gibbs-weighted variance of the observable i*M at the given temperature.

    Diagonalizes ``h`` densely, but only up to the Boltzmann window
    min(diag H) + W*T with W = BOLTZMANN_WINDOW = 40: every eigenpair above
    it has relative weight below e^-40, so together they move the variance by
    less than dim*e^-40*||M||^2. The retained pairs are averaged as
    ||M v_j||^2 with Boltzmann weights (eigenstate means vanish identically
    for real eigenvectors, and the thermal mean inherits that). Each parity
    block (``parity_blocks``) is diagonalized within the same window, and the
    spectra are merged. The retained spectrum must cover the ensemble:
    exp(-(E_cut - E_0)/T) < 1e-10, where E_cut is the highest kept
    eigenvalue, or the window edge when the window drops pairs; otherwise a
    ValueError reports the violated tail bound. T = 0 returns the
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
    window = mat.diagonal().min() + BOLTZMANN_WINDOW * temperature
    energies, second_moments = [], []
    for idx in parity_blocks(h):
        block = mat[idx][:, idx].toarray()
        w, vectors = la.eigh(block, subset_by_value=[-np.inf, window])
        mv = q.generator[:, idx] @ vectors
        energies.append(w)
        second_moments.append(np.einsum("ij,ij->j", mv, mv))
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    second_moments = np.concatenate(second_moments)[order]
    # when the window dropped pairs, the spectrum past it starts above E_0 + W*T
    e_cut = window if energies.size < dim else energies[-1]
    beta = 1.0 / temperature
    tail = np.exp(-beta * (e_cut - energies[0]))
    if tail >= TAIL_BOUND:
        raise ValueError(
            f"Boltzmann tail bound violated: exp(-beta*(E_cut-E_0)) = {tail:.3e} "
            f">= {TAIL_BOUND:.0e}; increase the truncation"
        )
    weights = np.exp(-beta * (energies - energies[0]))
    weights /= weights.sum()
    return float(weights @ second_moments)
