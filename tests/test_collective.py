"""Collective-spin and k = 0 ring layouts of the ED basis against the product
basis, and the parity-block, Boltzmann-window Gibbs oracle against the full
dense spectrum."""

import math
from functools import reduce

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicke_squeeze import DickeParams, DisorderEnsemble, IsingParams, normal_modes
from dicke_squeeze.ising import magnon_energy, mixing_angle_k
from dicke_squeeze.ed import (
    build_basis,
    build_dicke_hamiltonian,
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
from dicke_squeeze.ed.basis import translation_orbits
from dicke_squeeze.ed.operators import spin_flip_total, spin_pm_total, spin_z_values
from dicke_squeeze.ed.solver import DEFAULT_TOL, matrix_inf_norm
from dicke_squeeze.ed.thermal import BOLTZMANN_WINDOW

# derandomized: the same examples on every run, so the suite stays reproducible
_EXAMPLES = settings(derandomize=True, max_examples=12, deadline=None)
_N_MAX = 20


def _observables(h, basis, gamma):
    gs = ground_state(h)
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
        lambda basis: build_dicke_hamiltonian(p, basis, disorder=ens),
        n_clean + ens.m,
        n_clean,
        gamma,
    )


@settings(derandomize=True, max_examples=24, deadline=None)
@given(
    n_spins=st.integers(2, 8),
    eta=st.floats(0.0, 3.0),
    g=st.floats(0.0, 0.9),
    n_max=st.integers(2, 5),
)
# the generated examples stop at N = 7: pin the largest ring at a fig7-like
# point and at the corner of the range
@example(n_spins=8, eta=0.5, g=0.5, n_max=3)
@example(n_spins=8, eta=3.0, g=0.9, n_max=3)
def test_ising_ground_state_lies_in_k0(n_spins, eta, g, n_max):
    # fig7 solves only the k = 0 sector: its lowest level must be the global
    # one, found here by a dense eigh of the whole product-basis matrix
    p = DickeParams(1.0, 1.0, g, n_spins)
    ip = IsingParams(eta=eta, omega0=1.0, dispersion=1.0, g=g, n_spins=n_spins)
    angle, e0 = mixing_angle_k(ip, 0.0), magnon_energy(ip, 0.0)
    product, sector = build_basis(n_spins, n_max), build_basis(n_spins, n_max, k0=True)
    h_product = build_dicke_hamiltonian(p, product, eta=eta)
    h_sector = build_dicke_hamiltonian(p, sector, eta=eta)
    lowest = la.eigh(h_product.matrix.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
    gs_sector = ground_state(h_sector)
    assert abs(gs_sector.energy - lowest) <= DEFAULT_TOL * matrix_inf_norm(h_product.matrix)
    # dense: ARPACK's all-ones start vector would itself stay in k = 0
    gs_product = ground_state(h_product, method="dense")
    xi_product = variance(gs_product, p_minus_k0(product, 1.0, e0, angle, eta))
    xi_sector = variance(gs_sector, p_minus_k0(sector, 1.0, e0, angle, eta))
    assert xi_sector == pytest.approx(xi_product, rel=0.0, abs=1e-9)


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
    ring = build_basis(3, 6, k0=True)
    defect = DisorderEnsemble(2, ((2.0, 0.5),))
    p_clean = DickeParams(1.0, 1.2, 0.7, 2, 0.1)
    built = [
        (build_dicke_hamiltonian(p, product), product),
        (build_dicke_hamiltonian(p, collective), collective),
        (build_dicke_hamiltonian(p, collective, disorder=DisorderEnsemble(3, ())), collective),
        (build_dicke_hamiltonian(p_clean, mixed, disorder=defect), mixed),
        (build_dicke_hamiltonian(p, product, eta=0.0), product),
        (build_dicke_hamiltonian(p, product, eta=0.3), product),
        (build_dicke_hamiltonian(p, ring, eta=0.3), ring),
        (build_dicke_hamiltonian(p, ring), ring),
    ]
    for h, basis in built:
        assert np.array_equal(h.parity, parity_diagonal(basis))
        # conserved: H has no entry between the two parity sectors
        assert np.all(np.outer(h.parity, h.parity)[h.matrix.nonzero()] > 0)


def test_ground_state_defaults_to_the_builders_parity():
    # near-degenerate wells, as in the solver's even-block test: the blocks
    # come from the parity the builder attached
    h = build_dicke_hamiltonian(DickeParams(1.0, 1e-12, 0.4, 1), build_basis(1, 24))
    gs = ground_state(h)
    assert gs.near_degenerate
    assert float(np.sum(h.parity * gs.vector**2)) == pytest.approx(1.0, abs=1e-10)
    assert np.all(gs.vector[h.parity < 0] == 0.0)


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

    @pytest.mark.parametrize(
        "n_spins, n_collective", [(n, c) for n in range(2, 7) for c in range(2, n + 1)]
    )
    def test_mixed_layout_operators_against_symmetrized_product(self, n_spins, n_collective):
        # P_sym maps block state |k> (x) explicit bits e to the normalized sum
        # of the product masks with k of the first n_collective bits up: P_sym
        # = U / sqrt(C(n_collective, k)) with U 0/1, so with dyadic weights
        # U^T O U is exact and only the normalization rounds
        basis = build_basis(n_spins, 0, n_collective=n_collective)
        masks = np.arange(1 << n_spins)
        k = np.array([bin(m).count("1") for m in masks & ((1 << n_collective) - 1)])
        u = np.zeros((masks.size, basis.spin_dim))
        u[masks, (masks >> n_collective) * (n_collective + 1) + k] = 1.0
        count = np.tile(
            [math.comb(n_collective, j) for j in range(n_collective + 1)],
            1 << (n_spins - n_collective),
        )
        norm = np.sqrt(np.outer(count, count))
        explicit = 1.25 + 0.25 * np.arange(n_spins - n_collective)
        w_z = np.concatenate([np.full(n_collective, 0.75), explicit])
        w_x = np.concatenate([np.full(n_collective, 1.5), explicit[::-1]])

        def total(op, weights):
            # site 0 is the lowest bit, so it sits rightmost in the kron product
            sites = [[op if j == n_spins - 1 - i else np.eye(2) for j in range(n_spins)]
                     for i in range(n_spins)]
            return sum(w * reduce(np.kron, ops) for w, ops in zip(weights, sites))

        flip, pm = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1.0], [1.0, 0.0]])
        pairs = [
            (np.diag(spin_z_values(basis, w_z)), total(np.diag([-0.5, 0.5]), w_z)),
            (spin_flip_total(basis, w_x).toarray(), total(flip, w_x)),
            (spin_pm_total(basis).toarray(), total(pm, [1.0] * n_spins)),
        ]
        for layout, product in pairs:
            assert np.allclose(layout, (u.T @ product @ u) / norm, rtol=0.0, atol=1e-15)

    def test_total_spin_is_maximal(self):
        basis = build_basis(5, 20, n_collective=5)
        gs = ground_state(build_dicke_hamiltonian(DickeParams(1, 1, 0.45, 5), basis))
        assert total_spin_expectation(gs, basis) == pytest.approx(2.5 * 3.5, abs=1e-8)

    def test_block_needs_one_weight(self):
        for weights in ([1.0, 2.0], [1.0, 2.0, 1.0, 5.0]):
            with pytest.raises(ValueError, match="one weight per spin"):
                spin_flip_total(build_basis(3, 0), weights)
        with pytest.raises(ValueError, match="share one weight"):
            spin_z_values(build_basis(3, 0, n_collective=2), [1.0, 2.0, 1.0])
        basis = build_basis(3, 4, n_collective=3)
        with pytest.raises(ValueError, match="share one weight"):
            build_dicke_hamiltonian(
                DickeParams(1, 1, 0.3, 2), basis, disorder=DisorderEnsemble(2, ((2.0, 1.0),))
            )

    def test_k0_ring_dims(self):
        assert [build_basis(n, 0, k0=True).spin_dim for n in (2, 6, 10, 12)] == [3, 14, 108, 352]
        # fig7 default at N = 6, n_max = 50: parity blocks of 358 and 356
        parity = parity_diagonal(build_basis(6, 50, k0=True))
        assert parity.size == 714
        assert np.count_nonzero(parity > 0) == 358
        assert np.count_nonzero(parity < 0) == 356

    def test_k0_orbit_sums_are_translation_invariant_and_orthonormal(self):
        n = 6
        reps, isometry = translation_orbits(n)
        masks = np.arange(1 << n)
        shifted = ((masks << 1) | (masks >> (n - 1))) & ((1 << n) - 1)
        shift = np.zeros((1 << n, 1 << n))
        shift[shifted, masks] = 1.0
        dense = isometry.toarray()
        assert np.allclose(dense.T @ dense, np.eye(reps.size), rtol=0.0, atol=1e-15)
        assert np.array_equal(shift @ dense, dense)
        # each column's smallest member is its representative
        assert np.array_equal([np.flatnonzero(col)[0] for col in dense.T], reps)

    def test_k0_parity_counts_representative_ups(self):
        basis = build_basis(4, 1, k0=True)
        reps = translation_orbits(4)[0]
        assert reps.tolist() == [0, 1, 3, 5, 7, 15]
        ups = np.array([0, 1, 2, 2, 3, 4])
        expected = np.concatenate([(-1.0) ** ups, (-1.0) ** (ups + 1)])
        assert np.array_equal(parity_diagonal(basis), expected)

    def test_k0_rejects_collective_block_and_unequal_weights(self):
        with pytest.raises(ValueError, match="k = 0"):
            build_basis(4, 2, n_collective=4, k0=True)
        with pytest.raises(ValueError, match="one weight"):
            spin_flip_total(build_basis(3, 0, k0=True), [1.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="one weight"):
            build_dicke_hamiltonian(
                DickeParams(1, 1, 0.3, 2),
                build_basis(3, 4, k0=True),
                disorder=DisorderEnsemble(2, ((2.0, 1.0),)),
            )

    def test_ising_model_rejects_collective_block(self):
        basis = build_basis(4, 6, n_collective=4)
        with pytest.raises(ValueError, match="permutation"):
            build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 4), basis, eta=0.3)
        with pytest.raises(ValueError, match="permutation"):
            p_minus_k0(basis, 1.0, 1.2, 0.6, 0.3)
