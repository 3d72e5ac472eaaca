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
    SparseHamiltonian,
    build_basis,
    build_dicke_hamiltonian,
    build_hopfield_hamiltonian,
    ground_state,
    hopfield_p_minus,
    p_d,
    p_minus_k0,
    p_tilde_minus,
    s_tilde_y,
    thermal_variance,
    total_spin_expectation,
    variance,
)
from dicke_squeeze.ed.basis import translation_orbits
from dicke_squeeze.ed.hamiltonians import spin_factors
from dicke_squeeze.ed.operators import ising_xx_ring, spin_flip_total, spin_z_values
from dicke_squeeze.ed.solver import DEFAULT_TOL, matrix_inf_norm
from dicke_squeeze.ed.thermal import BOLTZMANN_WINDOW, TAIL_BOUND

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


def _orbit_isometry(n_spins):
    """The 2^N x orbits isometry whose column i is the normalized orbit sum
    of orbit i, from ``translation_orbits``."""
    reps, orbit, length = translation_orbits(n_spins)
    isometry = np.zeros((orbit.size, reps.size))
    isometry[np.arange(orbit.size), orbit] = 1.0 / np.sqrt(length[orbit])
    return isometry


def _assert_same_ground_state(build, n_spins, blocks, gamma):
    product = build_basis(n_spins, _N_MAX)
    collective = build_basis(n_spins, _N_MAX, blocks)
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
        lambda basis: build_dicke_hamiltonian(p, basis), n_spins, (n_spins,), gamma
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
        (n_clean,),
        gamma,
    )


@_EXAMPLES
@given(
    n_clean=st.integers(1, 6),
    m=st.integers(2, 3),
    # a negative splitting points the defects up: the J = m/2 block must
    # still hold the ground state
    omega_prime=st.floats(0.5, 3.0) | st.floats(-3.0, -0.5),
    g_prime=st.floats(0.0, 2.0),
    g=st.floats(0.0, 0.8),
    gamma=st.floats(0.0, math.pi / 2),
)
def test_equal_defects_as_one_block_match_explicit_sites(
    n_clean, m, omega_prime, g_prime, g, gamma
):
    # fig6's layout for m equal defects: dim (N+1)(m+1)(n_max+1), not
    # (N+1) 2^m (n_max+1); both solved dense, so only rounding separates them
    ens = DisorderEnsemble(n_clean, ((omega_prime, g_prime),) * m)
    p = DickeParams(1.0, 1.0, g, n_clean)
    results = []
    for blocks in ((n_clean,), (n_clean, m)):
        basis = build_basis(n_clean + m, _N_MAX, blocks)
        gs = ground_state(build_dicke_hamiltonian(p, basis, disorder=ens), method="dense")
        results.append((gs.energy, variance(gs, p_d(basis, 1.0, 1.0, gamma)) / 0.5))
    assert results[1][0] == pytest.approx(results[0][0], rel=0.0, abs=1e-12)
    assert results[1][1] == pytest.approx(results[0][1], rel=0.0, abs=1e-12)


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
# n_max = 4 holds too little of the Gibbs state at T = 0.5
@example(omega0=1.0, g_fraction=0.0, temperature=0.5, n_max=4)
def test_parity_block_oracle_matches_full_spectrum(omega0, g_fraction, temperature, n_max):
    p = DickeParams(1.0, omega0, g_fraction * math.sqrt(omega0) / 2.0)
    h = build_hopfield_hamiltonian(p, n_max, n_max)
    q = hopfield_p_minus(n_max, n_max, 1.0, omega0, normal_modes(p).gamma)
    energies, vectors = la.eigh(h.matrix.toarray())
    plain = SparseHamiltonian.from_matrix(h.matrix)
    if math.exp(-(energies[-1] - energies[0]) / temperature) >= TAIL_BOUND:
        # the truncation holds too little of the Gibbs state: both forms refuse
        for op in (h, plain):
            with pytest.raises(ValueError, match="tail bound violated"):
                thermal_variance(op, q, temperature)
        return
    weights = np.exp(-(energies - energies[0]) / temperature)
    mv = q.matrix @ vectors
    full = float((weights / weights.sum()) @ np.einsum("ij,ij->j", mv, mv))
    assert thermal_variance(h, q, temperature) == pytest.approx(full, rel=0.0, abs=1e-12)
    assert thermal_variance(plain, q, temperature) == pytest.approx(full, rel=0.0, abs=1e-12)


def test_boltzmann_window_matches_full_spectrum():
    # criterion 03's truncation: both parity blocks hold 840-841 states
    omega0 = 1.3
    p = DickeParams(1.0, omega0, 0.6 * math.sqrt(omega0) / 2.0)
    h = build_hopfield_hamiltonian(p, 40, 40)
    q = hopfield_p_minus(40, 40, 1.0, omega0, normal_modes(p).gamma)
    energies, vectors = la.eigh(h.matrix.toarray())
    mv = q.matrix @ vectors
    moments = np.einsum("ij,ij->j", mv, mv)
    smaller_block = min(np.count_nonzero(h.parity > 0), np.count_nonzero(h.parity < 0))
    ref = min(1.0, omega0) / 2.0
    for temperature in (0.05, 0.3, 0.5):
        # the window must drop pairs from both blocks, not cover everything
        window = h.matrix.diagonal().min() + BOLTZMANN_WINDOW * temperature
        assert np.count_nonzero(energies <= window) < smaller_block
        weights = np.exp(-(energies - energies[0]) / temperature)
        xi_full = float((weights / weights.sum()) @ moments) / ref
        # H's factors, one plain block, and the plain matrix's two parity blocks
        for ham in (h, SparseHamiltonian.from_matrix(h.matrix),
                    SparseHamiltonian.from_matrix(h.matrix, h.parity)):
            xi = thermal_variance(ham, q, temperature) / ref
            assert xi == pytest.approx(xi_full, rel=0.0, abs=1e-12)


def _parity(basis):
    """(-1)^(n + up count) at the flat index n * spin_dim + s of ``basis``."""
    ups = spin_z_values(basis) + 0.5 * basis.n_spins
    return np.where((np.arange(basis.boson_dim)[:, None] + ups) % 2 == 0, 1.0, -1.0).ravel()


def test_spin_builders_carry_the_conserved_parity():
    p = DickeParams(1.0, 1.2, 0.7, 3, 0.1)
    product, collective = build_basis(3, 6), build_basis(3, 6, (3,))
    mixed, two_blocks = build_basis(3, 6, (2,)), build_basis(4, 6, (2, 2))
    ring = build_basis(3, 6, k0=True)
    defect = DisorderEnsemble(2, ((2.0, 0.5),))
    p_clean = DickeParams(1.0, 1.2, 0.7, 2, 0.1)
    built = [
        (build_dicke_hamiltonian(p, product), product),
        (build_dicke_hamiltonian(p, collective), collective),
        (build_dicke_hamiltonian(p, collective, disorder=DisorderEnsemble(3, ())), collective),
        (build_dicke_hamiltonian(p_clean, mixed, disorder=defect), mixed),
        (
            build_dicke_hamiltonian(
                p_clean, two_blocks, disorder=DisorderEnsemble(2, ((2.0, 0.5),) * 2)
            ),
            two_blocks,
        ),
        (build_dicke_hamiltonian(p, product, eta=0.0), product),
        (build_dicke_hamiltonian(p, product, eta=0.3), product),
        (build_dicke_hamiltonian(p, ring, eta=0.3), ring),
        (build_dicke_hamiltonian(p, ring), ring),
    ]
    for h, basis in built:
        assert np.array_equal(h.parity, _parity(basis))
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
        assert build_basis(12, 50, (12,)).dim == 663
        # fig6 default at N = 6 clean spins plus one explicit defect
        assert build_basis(7, 50, (6,)).dim == 714
        # fig6 at m = 3 equal defects: one block of three, or three sites
        assert build_basis(9, 50, (6, 3)).dim == 1428
        assert build_basis(9, 50, (6,)).dim == 2856
        assert build_basis(3, 4, ()) == build_basis(3, 4)
        assert build_basis(3, 4, [2]) == build_basis(3, 4, (2,))
        assert build_basis(6, 0, (3, 2)).blocks == ((3, 1), (2, 4), (1, 12))

    def test_rejects_bad_block_size(self):
        # a zero, negative or fractional block, and blocks holding more spins
        # than the basis
        for blocks in ((4,), (0,), (-1,), (1.5,), (2, 0), (2, 2)):
            with pytest.raises(ValueError, match="collective"):
                build_basis(3, 4, blocks)

    def test_single_collective_spin_is_the_product_basis(self):
        # one spin in the block: k is bit 0, so indices and matrices coincide
        p = DickeParams(1.0, 1.3, 0.4, 3, 0.1)
        product = build_basis(3, 6)
        single = build_basis(3, 6, (1,))
        assert single.dim == product.dim
        h_product = build_dicke_hamiltonian(p, product).matrix
        h_single = build_dicke_hamiltonian(p, single).matrix
        assert (h_product != h_single).nnz == 0
        assert np.array_equal(_parity(product), _parity(single))

    def test_parity_counts_block_and_explicit_ups(self):
        basis = build_basis(3, 1, (2,))
        # spin index s = e * 3 + k: up count k + e
        ups = np.array([0, 1, 2, 1, 2, 3])
        expected = np.concatenate([(-1.0) ** ups, (-1.0) ** (ups + 1)])
        assert np.array_equal(_parity(basis), expected)

    @pytest.mark.parametrize(
        "n_spins, blocks",
        [pytest.param(n, (c,), id=f"{n}-{c}") for n in range(2, 7) for c in range(2, n + 1)]
        + [pytest.param(6, (3, 2), id="6-3-2")],
    )
    def test_mixed_layout_operators_against_symmetrized_product(self, n_spins, blocks):
        # P_sym maps the block digits (up counts d_b) to the normalized sum of
        # the product masks with d_b of block b's bits up: P_sym = U / sqrt(c)
        # with U 0/1 and c the number of masks in a column, so with dyadic
        # weights U^T O U is exact and only the normalization rounds
        basis = build_basis(n_spins, 0, blocks)
        masks = np.arange(1 << n_spins)
        column, first = 0, 0
        for n, stride in basis.blocks:
            ups = np.array([bin(m).count("1") for m in (masks >> first) & ((1 << n) - 1)])
            column, first = column + ups * stride, first + n
        u = np.zeros((masks.size, basis.spin_dim))
        u[masks, column] = 1.0
        count = u.sum(axis=0)
        norm = np.sqrt(np.outer(count, count))
        # one dyadic weight per block, a different one on each
        sizes = [n for n, _ in basis.blocks]
        w_z = np.repeat(0.75 + 0.25 * np.arange(len(sizes)), sizes)
        w_x = np.repeat(1.5 - 0.125 * np.arange(len(sizes)), sizes)

        def total(op, weights):
            # site 0 is the lowest bit, so it sits rightmost in the kron product
            sites = [[op if j == n_spins - 1 - i else np.eye(2) for j in range(n_spins)]
                     for i in range(n_spins)]
            return sum(w * reduce(np.kron, ops) for w, ops in zip(weights, sites))

        flip, pm = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1.0], [1.0, 0.0]])
        pairs = [
            (np.diag(spin_z_values(basis, w_z)), total(np.diag([-0.5, 0.5]), w_z)),
            (spin_flip_total(basis, w_x).toarray(), total(flip, w_x)),
            # the builder's unit-weight factors
            (spin_factors(basis).flip.matrix.toarray(), total(flip, [1.0] * n_spins)),
            (spin_factors(basis).pm.matrix.toarray(), total(pm, [1.0] * n_spins)),
        ]
        for layout, product in pairs:
            assert np.allclose(layout, (u.T @ product @ u) / norm, rtol=0.0, atol=1e-15)

    def test_total_spin_is_maximal(self):
        basis = build_basis(5, 20, (5,))
        gs = ground_state(build_dicke_hamiltonian(DickeParams(1, 1, 0.45, 5), basis))
        assert total_spin_expectation(gs, basis) == pytest.approx(2.5 * 3.5, abs=1e-8)

    def test_block_needs_one_weight(self):
        for weights in ([1.0, 2.0], [1.0, 2.0, 1.0, 5.0]):
            with pytest.raises(ValueError, match="one weight per spin"):
                spin_flip_total(build_basis(3, 0), weights)
        with pytest.raises(ValueError, match="share one weight"):
            spin_z_values(build_basis(3, 0, (2,)), [1.0, 2.0, 1.0])
        # the second block as well as the first
        with pytest.raises(ValueError, match="share one weight"):
            spin_flip_total(build_basis(5, 0, (2, 2)), [1.0, 1.0, 1.0, 2.0, 3.0])
        basis = build_basis(3, 4, (3,))
        with pytest.raises(ValueError, match="share one weight"):
            build_dicke_hamiltonian(
                DickeParams(1, 1, 0.3, 2), basis, disorder=DisorderEnsemble(2, ((2.0, 1.0),))
            )

    def test_k0_ring_dims(self):
        assert [build_basis(n, 0, k0=True).spin_dim for n in (2, 6, 10, 12)] == [3, 14, 108, 352]
        # fig7 default at N = 6, n_max = 50: parity blocks of 358 and 356
        parity = _parity(build_basis(6, 50, k0=True))
        assert parity.size == 714
        assert np.count_nonzero(parity > 0) == 358
        assert np.count_nonzero(parity < 0) == 356

    def test_k0_orbit_sums_are_translation_invariant_and_orthonormal(self):
        n = 6
        reps = translation_orbits(n)[0]
        masks = np.arange(1 << n)
        shifted = ((masks << 1) | (masks >> (n - 1))) & ((1 << n) - 1)
        shift = np.zeros((1 << n, 1 << n))
        shift[shifted, masks] = 1.0
        dense = _orbit_isometry(n)
        assert np.allclose(dense.T @ dense, np.eye(reps.size), rtol=0.0, atol=1e-15)
        assert np.array_equal(shift @ dense, dense)
        # each column's smallest member is its representative
        assert np.array_equal([np.flatnonzero(col)[0] for col in dense.T], reps)

    @pytest.mark.parametrize("n_spins", range(2, 9))
    def test_k0_operators_fold_the_product_operators(self, n_spins):
        # the folded operators equal P^T O P of the product-layout ones,
        # symmetrized as a symmetric or antisymmetric operator is
        isometry = _orbit_isometry(n_spins)
        product, sector = build_basis(n_spins, 0), build_basis(n_spins, 0, k0=True)
        def flip(basis):
            return spin_factors(basis).flip.matrix

        def pm(basis):
            return spin_factors(basis).pm.matrix

        for op, sign in ((spin_flip_total, 1.0), (flip, 1.0), (pm, -1.0), (ising_xx_ring, 1.0)):
            projected = isometry.T @ op(product).toarray() @ isometry
            expected = 0.5 * (projected + sign * projected.T)
            assert np.allclose(op(sector).toarray(), expected, rtol=0.0, atol=1e-15)
        assert np.array_equal(
            spin_z_values(sector), spin_z_values(product)[translation_orbits(n_spins)[0]]
        )
        h = build_dicke_hamiltonian(
            DickeParams(1.0, 1.2, 0.45, n_spins), build_basis(n_spins, 6, k0=True), eta=0.3
        )
        assert (h.matrix != h.matrix.T).nnz == 0

    def test_k0_parity_counts_representative_ups(self):
        basis = build_basis(4, 1, k0=True)
        reps = translation_orbits(4)[0]
        assert reps.tolist() == [0, 1, 3, 5, 7, 15]
        ups = np.array([0, 1, 2, 2, 3, 4])
        expected = np.concatenate([(-1.0) ** ups, (-1.0) ** (ups + 1)])
        assert np.array_equal(_parity(basis), expected)

    def test_k0_rejects_collective_block_and_unequal_weights(self):
        with pytest.raises(ValueError, match="k = 0"):
            build_basis(4, 2, (4,), k0=True)
        with pytest.raises(ValueError, match="one weight"):
            spin_flip_total(build_basis(3, 0, k0=True), [1.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="one weight"):
            build_dicke_hamiltonian(
                DickeParams(1, 1, 0.3, 2),
                build_basis(3, 4, k0=True),
                disorder=DisorderEnsemble(2, ((2.0, 1.0),)),
            )

    def test_ising_model_rejects_collective_block(self):
        basis = build_basis(4, 6, (4,))
        with pytest.raises(ValueError, match="permutation"):
            build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 4), basis, eta=0.3)
        with pytest.raises(ValueError, match="permutation"):
            p_minus_k0(basis, 1.0, 1.2, 0.6, 0.3)
