"""Collective-spin layout of the ED basis against the product basis, and the
parity-block, Boltzmann-window Gibbs oracle against the full dense spectrum."""

import math

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_squeeze import DickeParams, DisorderEnsemble, normal_modes
from dicke_squeeze.ed import (
    build_basis,
    build_dicke_hamiltonian,
    build_dicke_ising_hamiltonian,
    build_disordered_hamiltonian,
    build_hopfield_hamiltonian,
    ground_state,
    hopfield_p_minus,
    p_d,
    p_minus_k0,
    p_tilde_minus,
    parity_diagonal,
    s_tilde_y,
    thermal_variance,
    total_spin_expectation,
    variance,
)
from dicke_squeeze.ed.operators import spin_z_values
from dicke_squeeze.ed.solver import DEFAULT_TOL, matrix_inf_norm
from dicke_squeeze.ed.thermal import BOLTZMANN_WINDOW

# derandomized: the same examples on every run, so the suite stays reproducible
_EXAMPLES = settings(derandomize=True, max_examples=12, deadline=None)
_N_MAX = 20


def _observables(h, basis, gamma):
    gs = ground_state(h, parity_diag=parity_diagonal(basis))
    return gs.energy, [
        variance(gs, p_tilde_minus(basis)),
        variance(gs, s_tilde_y(basis)),
        variance(gs, p_d(basis, 1.0, 1.0, gamma)),
    ]


def _assert_same_ground_state(build, n_spins, n_collective, gamma):
    product = build_basis(n_spins, _N_MAX)
    collective = build_basis(n_spins, _N_MAX, n_collective=n_collective)
    h_product = build(product)
    e_product, v_product = _observables(h_product, product, gamma)
    e_collective, v_collective = _observables(build(collective), collective, gamma)
    assert abs(e_collective - e_product) <= DEFAULT_TOL * matrix_inf_norm(h_product.matrix)
    assert np.allclose(v_collective, v_product, rtol=0.0, atol=1e-9)


@_EXAMPLES
@given(
    n_spins=st.integers(2, 8),
    omega0=st.floats(0.5, 2.0),
    g=st.floats(0.0, 0.9),
    a2_coeff=st.sampled_from([0.0, 0.05, 0.2]),
    gamma=st.floats(0.0, math.pi / 2),
)
def test_ideal_model_collective_matches_product(n_spins, omega0, g, a2_coeff, gamma):
    # g reaches 0.9 > g_c = sqrt(omega0)/2 for omega0 < 3.24: both phases
    p = DickeParams(1.0, omega0, g, n_spins, a2_coeff)
    _assert_same_ground_state(
        lambda basis: build_dicke_hamiltonian(p, basis), n_spins, n_spins, gamma
    )


@_EXAMPLES
@given(
    n_clean=st.integers(1, 6),
    defects=st.lists(
        st.tuples(st.floats(0.5, 3.0), st.floats(0.0, 2.0)), min_size=1, max_size=2
    ),
    g=st.floats(0.0, 0.8),
    gamma=st.floats(0.0, math.pi / 2),
)
def test_disordered_model_collective_matches_product(n_clean, defects, g, gamma):
    ens = DisorderEnsemble(n_clean, tuple(defects))
    p = DickeParams(1.0, 1.0, g, n_clean)
    _assert_same_ground_state(
        lambda basis: build_disordered_hamiltonian(p, ens, basis),
        n_clean + ens.m,
        n_clean,
        gamma,
    )


@_EXAMPLES
@given(
    omega0=st.floats(0.5, 2.0),
    g_fraction=st.floats(0.0, 0.9),
    temperature=st.floats(0.05, 0.5),
    n_max=st.integers(4, 16),
)
def test_parity_block_oracle_matches_full_spectrum(omega0, g_fraction, temperature, n_max):
    p = DickeParams(1.0, omega0, g_fraction * math.sqrt(omega0) / 2.0)
    h = build_hopfield_hamiltonian(p, n_max, n_max)
    q = hopfield_p_minus(n_max, n_max, 1.0, omega0, normal_modes(p).gamma)
    energies, vectors = la.eigh(h.matrix.toarray())
    weights = np.exp(-(energies - energies[0]) / temperature)
    mv = q.generator @ vectors
    full = float((weights / weights.sum()) @ np.einsum("ij,ij->j", mv, mv))
    assert thermal_variance(h, q, temperature) == pytest.approx(full, rel=0.0, abs=1e-12)
    assert thermal_variance(h.matrix, q, temperature) == pytest.approx(full, rel=0.0, abs=1e-12)


def test_parity_block_oracle_keeps_lowest_merged_pairs():
    p = DickeParams(1.0, 1.0, 0.3)
    h = build_hopfield_hamiltonian(p, 12, 12)
    q = hopfield_p_minus(12, 12, 1.0, 1.0, normal_modes(p).gamma)
    for n_pairs in (60, 101):
        assert thermal_variance(h, q, 0.1, n_eigenpairs=n_pairs) == pytest.approx(
            thermal_variance(h.matrix, q, 0.1, n_eigenpairs=n_pairs), rel=0.0, abs=1e-12
        )


def test_boltzmann_window_matches_full_spectrum():
    # criterion 03's truncation: both parity blocks hold 840-841 states
    omega0 = 1.3
    p = DickeParams(1.0, omega0, 0.6 * math.sqrt(omega0) / 2.0)
    h = build_hopfield_hamiltonian(p, 40, 40)
    q = hopfield_p_minus(40, 40, 1.0, omega0, normal_modes(p).gamma)
    energies, vectors = la.eigh(h.matrix.toarray())
    mv = q.generator @ vectors
    moments = np.einsum("ij,ij->j", mv, mv)
    smaller_block = min(np.count_nonzero(h.parity > 0), np.count_nonzero(h.parity < 0))
    ref = min(1.0, omega0) / 2.0
    for temperature in (0.05, 0.3, 0.5):
        # the window must drop pairs from both blocks, not cover everything
        window = h.matrix.diagonal().min() + BOLTZMANN_WINDOW * temperature
        assert np.count_nonzero(energies <= window) < smaller_block
        weights = np.exp(-(energies - energies[0]) / temperature)
        xi_full = float((weights / weights.sum()) @ moments) / ref
        for ham in (h, h.matrix):
            xi = thermal_variance(ham, q, temperature) / ref
            assert xi == pytest.approx(xi_full, rel=0.0, abs=1e-12)


def test_spin_builders_carry_the_conserved_parity():
    p = DickeParams(1.0, 1.2, 0.7, 3, 0.1)
    product, collective = build_basis(3, 6), build_basis(3, 6, n_collective=3)
    mixed = build_basis(3, 6, n_collective=2)
    defect = DisorderEnsemble(2, ((2.0, 0.5),))
    built = [
        (build_dicke_hamiltonian(p, product), product),
        (build_dicke_hamiltonian(p, collective), collective),
        (build_disordered_hamiltonian(p, DisorderEnsemble(3, ()), collective), collective),
        (build_disordered_hamiltonian(p, defect, mixed), mixed),
        (build_dicke_ising_hamiltonian(p, 0.0, product), product),
        (build_dicke_ising_hamiltonian(p, 0.3, product), product),
    ]
    for h, basis in built:
        assert np.array_equal(h.parity, parity_diagonal(basis))
        # conserved: H has no entry between the two parity sectors
        assert np.all(np.outer(h.parity, h.parity)[h.matrix.nonzero()] > 0)


def test_ground_state_defaults_to_the_builders_parity():
    # near-degenerate wells, as in the solver's projection test
    h = build_dicke_hamiltonian(DickeParams(1.0, 1e-12, 0.4, 1), build_basis(1, 24))
    gs = ground_state(h)
    assert gs.near_degenerate
    assert float(np.sum(h.parity * gs.vector**2)) == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(gs.vector, ground_state(h, parity_diag=h.parity).vector)


class TestLayout:
    def test_dims(self):
        assert build_basis(12, 50).dim == 208896
        assert build_basis(12, 50, n_collective=12).dim == 663
        # fig6 default at N = 6 clean spins plus one explicit defect
        assert build_basis(7, 50, n_collective=6).dim == 714
        assert build_basis(3, 4, n_collective=0) == build_basis(3, 4)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError, match="n_collective"):
            build_basis(3, 4, n_collective=4)
        with pytest.raises(ValueError, match="n_collective"):
            build_basis(3, 4, n_collective=-1)

    def test_single_collective_spin_is_the_product_basis(self):
        # one spin in the block: k is bit 0, so indices and matrices coincide
        p = DickeParams(1.0, 1.3, 0.4, 3, 0.1)
        product = build_basis(3, 6)
        single = build_basis(3, 6, n_collective=1)
        assert single.dim == product.dim
        h_product = build_dicke_hamiltonian(p, product).matrix
        h_single = build_dicke_hamiltonian(p, single).matrix
        assert (h_product != h_single).nnz == 0
        assert np.array_equal(parity_diagonal(product), parity_diagonal(single))

    def test_parity_counts_block_and_explicit_ups(self):
        basis = build_basis(3, 1, n_collective=2)
        # spin index s = e * 3 + k: up count k + e
        ups = np.array([0, 1, 2, 1, 2, 3])
        expected = np.concatenate([(-1.0) ** ups, (-1.0) ** (ups + 1)])
        assert np.array_equal(parity_diagonal(basis), expected)

    def test_total_spin_is_maximal(self):
        basis = build_basis(5, 20, n_collective=5)
        gs = ground_state(build_dicke_hamiltonian(DickeParams(1, 1, 0.45, 5), basis))
        assert total_spin_expectation(gs, basis) == pytest.approx(2.5 * 3.5, abs=1e-8)

    def test_block_needs_one_weight(self):
        with pytest.raises(ValueError, match="share one weight"):
            spin_z_values(3, [1.0, 2.0, 1.0], n_collective=2)
        basis = build_basis(3, 4, n_collective=3)
        with pytest.raises(ValueError, match="share one weight"):
            build_disordered_hamiltonian(
                DickeParams(1, 1, 0.3, 2), DisorderEnsemble(2, ((2.0, 1.0),)), basis
            )

    def test_ising_model_rejects_collective_block(self):
        basis = build_basis(4, 6, n_collective=4)
        with pytest.raises(ValueError, match="permutation"):
            build_dicke_ising_hamiltonian(DickeParams(1, 1, 0.5, 4), 0.3, basis)
        with pytest.raises(ValueError, match="permutation"):
            p_minus_k0(basis, 1.0, 1.2, 0.6, 0.3)
