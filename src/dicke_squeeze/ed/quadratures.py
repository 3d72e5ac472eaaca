"""Momentum-like quadrature observables as real antisymmetric generators.

An observable O = i*M with M real antisymmetric is Hermitian, has exactly zero
expectation value in any real state (v^T M v = 0 identically), and its
variance in a real unit vector v is -v^T M^2 v = ||M v||^2, so everything
stays in real arithmetic.

The spin-model quadratures take any spin layout of the basis, except the
Ising-model p_minus_k0, which needs the product basis or the k = 0 ring
sector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BasisDescriptor, lift_boson, lift_spin
from .operators import boson_momentum_generator, spin_flip_total, spin_pm_total, spin_z_values
from .solver import GroundStateResult


@dataclass(frozen=True)
class QuadratureOperator:
    """Observable i*generator with generator exactly antisymmetric."""

    generator: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.generator.shape[0]


@functools.lru_cache(maxsize=4)
def _quadrature_terms(basis: BasisDescriptor) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(a'-a) (x) 1 and 1 (x) (S+ - S-) on ``basis``. Cached: the points of a
    sweep at one basis scale the same (read-only) pair."""
    boson = lift_boson(boson_momentum_generator(basis.n_max), basis.spin_dim)
    return boson, lift_spin(spin_pm_total(basis), basis.boson_dim)


def _combine(boson_coeff, spin_coeff, basis):
    """boson_coeff (a'-a) (x) 1 + spin_coeff 1 (x) (S+ - S-); a None boson_coeff
    drops the boson term."""
    boson, spin = _quadrature_terms(basis)
    total = spin_coeff * spin
    if boson_coeff is not None:
        total = (boson_coeff * boson + total).tocsr()
    total.sum_duplicates()
    total.sort_indices()
    return QuadratureOperator(generator=total)


def p_tilde_minus(basis: BasisDescriptor) -> QuadratureOperator:
    """Finite-size squeezed quadrature
    i/sqrt(2) (a'-a) - i/sqrt(2N) (S+ - S-)."""
    spin = -1.0 / math.sqrt(2.0 * basis.n_spins)
    return _combine(1.0 / math.sqrt(2.0), spin, basis)


def s_tilde_y(basis: BasisDescriptor) -> QuadratureOperator:
    """Collective spin quadrature i/sqrt(N) (S+ - S-)."""
    return _combine(None, 1.0 / math.sqrt(basis.n_spins), basis)


def p_d(
    basis: BasisDescriptor, omega: float, omega0: float, gamma_bar: float
) -> QuadratureOperator:
    """All-spin squeezed quadrature for the disordered model,
    i sqrt(omega/2) cos(gb) (a'-a) - i sqrt(omega0/(2(N+m))) sin(gb) (S+ - S-),
    summed over every spin in the basis (clean and defect alike)."""
    boson = math.sqrt(omega / 2.0) * math.cos(gamma_bar)
    spin = -math.sqrt(omega0 / (2.0 * basis.n_spins)) * math.sin(gamma_bar)
    return _combine(boson, spin, basis)


def p_minus_k0(
    basis: BasisDescriptor,
    omega_k0: float,
    magnon_energy_k0: float,
    gamma_k0: float,
    eta: float,
) -> QuadratureOperator:
    """Zero-momentum squeezed quadrature of the Ising-coupled model,
    i sqrt(w_0/2) cos(g0) (a'-a)
    - i sqrt(E_0/(2N)) sin(g0) (1-eta) (S+ - S-). Needs the product basis
    or its k = 0 ring sector, which holds the Ising ground state."""
    if basis.collective:
        raise ValueError("the Ising model breaks permutation symmetry: use collective=()")
    boson = math.sqrt(omega_k0 / 2.0) * math.cos(gamma_k0)
    spin = -math.sqrt(magnon_energy_k0 / (2.0 * basis.n_spins)) * math.sin(gamma_k0) * (1.0 - eta)
    return _combine(boson, spin, basis)


def hopfield_p_minus(
    n_max_a: int, n_max_b: int, omega: float, omega0: float, gamma: float
) -> QuadratureOperator:
    """Two-boson squeezed quadrature
    i sqrt(omega/2) cos(gamma) (a'-a) - i sqrt(omega0/2) sin(gamma) (b'-b)."""
    da = math.sqrt(omega / 2.0) * math.cos(gamma) * boson_momentum_generator(n_max_a)
    db = math.sqrt(omega0 / 2.0) * math.sin(gamma) * boson_momentum_generator(n_max_b)
    total = (
        sp.kron(da, sp.identity(n_max_b + 1, format="csr"), format="csr")
        - sp.kron(sp.identity(n_max_a + 1, format="csr"), db, format="csr")
    ).tocsr()
    total.sum_duplicates()
    total.sort_indices()
    return QuadratureOperator(generator=total)


def variance(gs: GroundStateResult, q: QuadratureOperator) -> float:
    """Ground-state variance of the observable i*M.

    For a real state the mean is identically zero, so the variance is
    -v^T M^2 v, evaluated as ||M v||^2 (equal for exactly antisymmetric M and
    manifestly nonnegative)."""
    if q.dim != gs.vector.size:
        raise ValueError(f"dimension mismatch: operator {q.dim}, state {gs.vector.size}")
    mv = q.generator @ gs.vector
    return float(mv @ mv)


def expectation_symmetric(vector: np.ndarray, op: sp.spmatrix) -> float:
    """<v|S|v> for a real-symmetric sparse operator."""
    return float(vector @ (op @ vector))


def variance_symmetric(vector: np.ndarray, op: sp.spmatrix) -> float:
    """Variance of a real-symmetric observable in a real state."""
    sv = op @ vector
    mean = float(vector @ sv)
    return float(sv @ sv) - mean * mean


def total_spin_expectation(gs: GroundStateResult, basis: BasisDescriptor) -> float:
    """<S^2> of the collective spin in the ground state, computed in real
    arithmetic as ||S_x v||^2 + ||S_z v||^2 + ||(S+ - S-) v||^2 / 4."""
    sx = lift_spin(0.5 * spin_flip_total(basis), basis.boson_dim)
    sz = lift_spin(sp.diags(spin_z_values(basis), format="csr"), basis.boson_dim)
    k = lift_spin(spin_pm_total(basis), basis.boson_dim)
    v = gs.vector
    sxv = sx @ v
    szv = sz @ v
    kv = k @ v
    return float(sxv @ sxv + szv @ szv + 0.25 * (kv @ kv))
