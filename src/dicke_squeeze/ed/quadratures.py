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

import math

from ..core import finite_real
from .basis import BasisDescriptor
from .hamiltonians import KronSum, boson_factors, spin_factors, two_boson_factors
from .solver import GroundStateResult


class QuadratureOperator(KronSum):
    """Observable i*M with M = c_b P (x) 1 + c_s 1 (x) K: P = a' - a acts on
    the boson occupation, K on the spin states (or on a second boson), both
    exactly antisymmetric."""

    @classmethod
    def of(cls, boson_coeff: float, bosons, spin_coeff: float, spin, spin_identity):
        """The terms (c_b, bosons.momentum, spin_identity) and
        (c_s, bosons.identity, spin) over cached factors; a zero c_b drops its
        term. ValueError on a weight that is not a finite real number."""
        boson_coeff = finite_real("quadrature weights", boson_coeff)
        spin_coeff = finite_real("quadrature weights", spin_coeff)
        boson = ((boson_coeff, bosons.momentum, spin_identity),) if boson_coeff else ()
        return cls(boson + ((spin_coeff, bosons.identity, spin),))

    @classmethod
    def on(cls, basis: BasisDescriptor, boson_coeff: float, spin_coeff: float):
        """boson_coeff (a'-a) (x) 1 + spin_coeff 1 (x) (S+ - S-) on ``basis``."""
        bosons, spins = boson_factors(basis.n_max), spin_factors(basis)
        return cls.of(boson_coeff, bosons, spin_coeff, spins.pm, spins.identity)


def p_tilde_minus(basis: BasisDescriptor) -> QuadratureOperator:
    """Finite-size squeezed quadrature
    i/sqrt(2) (a'-a) - i/sqrt(2N) (S+ - S-)."""
    spin = -1.0 / math.sqrt(2.0 * basis.n_spins)
    return QuadratureOperator.on(basis, 1.0 / math.sqrt(2.0), spin)


def s_tilde_y(basis: BasisDescriptor) -> QuadratureOperator:
    """Collective spin quadrature i/sqrt(N) (S+ - S-)."""
    return QuadratureOperator.on(basis, 0.0, 1.0 / math.sqrt(basis.n_spins))


def p_d(
    basis: BasisDescriptor, omega: float, omega0: float, gamma_bar: float
) -> QuadratureOperator:
    """All-spin squeezed quadrature for the disordered model,
    i sqrt(omega/2) cos(gb) (a'-a) - i sqrt(omega0/(2(N+m))) sin(gb) (S+ - S-),
    summed over every spin in the basis (clean and defect alike)."""
    boson = math.sqrt(omega / 2.0) * math.cos(gamma_bar)
    spin = -math.sqrt(omega0 / (2.0 * basis.n_spins)) * math.sin(gamma_bar)
    return QuadratureOperator.on(basis, boson, spin)


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
    return QuadratureOperator.on(basis, boson, spin)


def hopfield_p_minus(
    n_max_a: int, n_max_b: int, omega: float, omega0: float, gamma: float
) -> QuadratureOperator:
    """Two-boson squeezed quadrature
    i sqrt(omega/2) cos(gamma) (a'-a) - i sqrt(omega0/2) sin(gamma) (b'-b).
    ValueError unless each n_max is an integer >= 0."""
    a, b = two_boson_factors(n_max_a, n_max_b)
    boson = math.sqrt(omega / 2.0) * math.cos(gamma)
    spin = -math.sqrt(omega0 / 2.0) * math.sin(gamma)
    return QuadratureOperator.of(boson, a, spin, b.momentum, b.identity)


def variance(gs: GroundStateResult, q: QuadratureOperator) -> float:
    """Ground-state variance of the observable i*M.

    For a real state the mean is identically zero, so the variance is
    -v^T M^2 v, evaluated as ||M v||^2 (equal for exactly antisymmetric M and
    manifestly nonnegative)."""
    if q.dim != gs.vector.size:
        raise ValueError(f"dimension mismatch: operator {q.dim}, state {gs.vector.size}")
    mv = q.apply(gs.vector)
    return float(mv @ mv)


def total_spin_expectation(gs: GroundStateResult, basis: BasisDescriptor) -> float:
    """<S^2> of the collective spin in the ground state, computed in real
    arithmetic as ||S_x v||^2 + ||S_z v||^2 + ||(S+ - S-) v / 2||^2."""
    spins, one = spin_factors(basis), boson_factors(basis.n_max).identity
    terms = ((0.5, spins.flip), (1.0, spins.z), (0.5, spins.pm))
    parts = [KronSum(((c, one, s),)).apply(gs.vector) for c, s in terms]
    return float(sum(part @ part for part in parts))
