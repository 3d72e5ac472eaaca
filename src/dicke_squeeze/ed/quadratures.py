"""Momentum-like quadrature observables as real antisymmetric generators.

An observable O = i*M with M real antisymmetric is Hermitian, has exactly zero
expectation value in any real state (v^T M v = 0 identically), and its
variance in a real unit vector v is -v^T M^2 v = ||M v||^2, so everything
stays in real arithmetic.

The spin-model quadratures take either spin layout of the basis, except the
Ising-model p_minus_k0, which needs the product basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BasisDescriptor
from .hamiltonians import _lift_boson, _lift_spin
from .operators import boson_momentum_generator, spin_pm_total, spin_x_total, spin_z_values
from .solver import GroundStateResult


@dataclass(frozen=True)
class QuadratureOperator:
    """Observable i*generator with generator exactly antisymmetric."""

    generator: sp.csr_matrix
    label: str

    @property
    def dim(self) -> int:
        return self.generator.shape[0]


def _combine(boson_part, spin_part, basis, label):
    parts = []
    if boson_part is not None:
        parts.append(_lift_boson(boson_part, basis.spin_dim))
    if spin_part is not None:
        parts.append(_lift_spin(spin_part, basis.boson_dim))
    total = parts[0] if len(parts) == 1 else (parts[0] + parts[1]).tocsr()
    total.sum_duplicates()
    total.sort_indices()
    return QuadratureOperator(generator=total, label=label)


def p_tilde_minus(basis: BasisDescriptor) -> QuadratureOperator:
    """Finite-size squeezed quadrature
    i/sqrt(2) (a'-a) - i/sqrt(2N) (S+ - S-)."""
    boson = (1.0 / math.sqrt(2.0)) * boson_momentum_generator(basis.n_max)
    spin = (-1.0 / math.sqrt(2.0 * basis.n_spins)) * spin_pm_total(
        basis.n_spins, basis.n_collective
    )
    return _combine(boson, spin, basis, "p_tilde_minus")


def s_tilde_y(basis: BasisDescriptor) -> QuadratureOperator:
    """Collective spin quadrature i/sqrt(N) (S+ - S-)."""
    spin = (1.0 / math.sqrt(basis.n_spins)) * spin_pm_total(
        basis.n_spins, basis.n_collective
    )
    return _combine(None, spin, basis, "s_tilde_y")


def p_d(
    basis: BasisDescriptor, omega: float, omega0: float, gamma_bar: float
) -> QuadratureOperator:
    """All-spin squeezed quadrature for the disordered model,
    i sqrt(omega/2) cos(gb) (a'-a) - i sqrt(omega0/(2(N+m))) sin(gb) (S+ - S-),
    summed over every spin in the basis (clean and defect alike)."""
    n_total = basis.n_spins
    boson = math.sqrt(omega / 2.0) * math.cos(gamma_bar) * boson_momentum_generator(
        basis.n_max
    )
    spin = (
        -math.sqrt(omega0 / (2.0 * n_total))
        * math.sin(gamma_bar)
        * spin_pm_total(basis.n_spins, basis.n_collective)
    )
    return _combine(boson, spin, basis, "p_d")


def p_minus_k0(
    basis: BasisDescriptor,
    omega_k0: float,
    magnon_energy_k0: float,
    gamma_k0: float,
    eta: float,
) -> QuadratureOperator:
    """Zero-momentum squeezed quadrature of the Ising-coupled model,
    i sqrt(w_0/2) cos(g0) (a'-a)
    - i sqrt(E_0/(2N)) sin(g0) (1-eta) (S+ - S-). Needs the product basis."""
    if basis.n_collective:
        raise ValueError("the Ising model breaks permutation symmetry: use n_collective=0")
    boson = math.sqrt(omega_k0 / 2.0) * math.cos(gamma_k0) * boson_momentum_generator(
        basis.n_max
    )
    spin = (
        -math.sqrt(magnon_energy_k0 / (2.0 * basis.n_spins))
        * math.sin(gamma_k0)
        * (1.0 - eta)
        * spin_pm_total(basis.n_spins, basis.n_collective)
    )
    return _combine(boson, spin, basis, "p_minus_k0")


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
    return QuadratureOperator(generator=total, label="hopfield_p_minus")


def variance(gs: GroundStateResult, q: QuadratureOperator) -> float:
    """Ground-state variance of the observable i*M.

    For a real state the mean is identically zero, so the variance is
    -v^T M^2 v, evaluated as ||M v||^2 (equal for exactly antisymmetric M and
    manifestly nonnegative)."""
    if q.dim != gs.vector.size:
        raise ValueError(f"dimension mismatch: operator {q.dim}, state {gs.vector.size}")
    mv = q.generator @ gs.vector
    return float(mv @ mv)


def variance_in_state(vector: np.ndarray, q: QuadratureOperator) -> float:
    """Same as ``variance`` for a bare real unit vector."""
    if q.dim != vector.size:
        raise ValueError(f"dimension mismatch: operator {q.dim}, state {vector.size}")
    mv = q.generator @ vector
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
    n, n_c = basis.n_spins, basis.n_collective
    sx = _lift_spin(spin_x_total(n, n_collective=n_c), basis.boson_dim)
    sz = _lift_spin(sp.diags(spin_z_values(n, n_collective=n_c), format="csr"), basis.boson_dim)
    k = _lift_spin(spin_pm_total(n, n_collective=n_c), basis.boson_dim)
    v = gs.vector
    sxv = sx @ v
    szv = sz @ v
    kv = k @ v
    return float(sxv @ sxv + szv @ szv + 0.25 * (kv @ kv))
