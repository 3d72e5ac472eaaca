import math
from functools import reduce

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from dicke_squeeze import DickeParams, DisorderEnsemble, normal_modes
from dicke_squeeze.ed import (
    ConvergenceError,
    GroundStateResult,
    build_basis,
    build_dicke_hamiltonian,
    build_dicke_ising_hamiltonian,
    build_disordered_hamiltonian,
    build_hopfield_hamiltonian,
    expectation_symmetric,
    ground_state,
    hopfield_p_minus,
    hopfield_parity_diagonal,
    lowest_eigenvalues,
    p_d,
    p_minus_k0,
    p_tilde_minus,
    parity_diagonal,
    s_tilde_y,
    thermal_variance,
    total_spin_expectation,
    variance,
    variance_symmetric,
)
from dicke_squeeze.ed.basis import lift_boson, lift_spin
from dicke_squeeze.ed.operators import boson_x, ising_xx_ring, spin_x_total


# -- independent dense oracle (explicit loops, no reuse of package builders) --

def dense_dicke_oracle(omega, omega0, g, n_spins, n_max):
    """Spin-major dense construction by explicit matrix-element loops."""
    spin_dim = 2**n_spins
    dim = spin_dim * (n_max + 1)

    def idx(spins, n):
        return spins * (n_max + 1) + n

    h = np.zeros((dim, dim))
    for spins in range(spin_dim):
        ups = bin(spins).count("1")
        for n in range(n_max + 1):
            i = idx(spins, n)
            h[i, i] = omega * n + omega0 * (ups - n_spins / 2)
            for site in range(n_spins):
                flipped = spins ^ (1 << site)
                # (S+ + S-) flip with amplitude 1, times (a + a')
                if n + 1 <= n_max:
                    h[idx(flipped, n + 1), i] += g / math.sqrt(n_spins) * math.sqrt(n + 1)
                if n - 1 >= 0:
                    h[idx(flipped, n - 1), i] += g / math.sqrt(n_spins) * math.sqrt(n)
    return h


class TestBasis:
    def test_dims(self):
        assert build_basis(1, 1).dim == 4
        assert build_basis(7, 50).dim == 6528
        assert build_basis(6, 40).dim == 2624

    def test_bijection_small(self):
        basis = build_basis(3, 4)
        seen = set()
        for n in range(5):
            for s in range(8):
                i = basis.index(n, s)
                assert basis.occupation(i) == (n, s)
                seen.add(i)
        assert seen == set(range(basis.dim))

    def test_bijection_spot_large(self):
        basis = build_basis(7, 50)
        for i in (0, 1, 127, 128, 6527, 4000):
            n, s = basis.occupation(i)
            assert basis.index(n, s) == i

    def test_bounds(self):
        basis = build_basis(2, 3)
        with pytest.raises(ValueError):
            basis.index(4, 0)
        with pytest.raises(ValueError):
            basis.index(0, 4)
        with pytest.raises(ValueError):
            basis.occupation(16)

    def test_pure_spin_basis_allowed(self):
        assert build_basis(4, 0).dim == 16


class TestBuilders:
    def test_decoupled_spectrum(self):
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.0, 1), build_basis(1, 1))
        assert np.allclose(sorted(la.eigvalsh(h.matrix.toarray())), [-0.5, 0.5, 0.5, 1.5])

    def test_decoupled_ground_energy(self):
        for n in (2, 4):
            h = build_dicke_hamiltonian(DickeParams(1, 1.3, 0.0, n), build_basis(n, 6))
            assert ground_state(h).energy == pytest.approx(-n * 1.3 / 2, abs=1e-12)

    def test_against_independent_oracle(self):
        # same truncation, independently coded layout: spectra must agree
        omega, omega0, g = 1.0, 1.0, 0.2
        oracle = dense_dicke_oracle(omega, omega0, g, 1, 31)
        h = build_dicke_hamiltonian(DickeParams(omega, omega0, g, 1), build_basis(1, 31))
        assert la.eigvalsh(oracle)[0] == pytest.approx(
            ground_state(h).energy, abs=1e-10
        )

    def test_oracle_multiple_spins(self):
        oracle = dense_dicke_oracle(1.0, 1.4, 0.35, 3, 12)
        h = build_dicke_hamiltonian(DickeParams(1.0, 1.4, 0.35, 3), build_basis(3, 12))
        assert np.allclose(
            la.eigvalsh(oracle)[:5],
            la.eigvalsh(h.matrix.toarray())[:5],
            atol=1e-10,
        )

    def test_exact_symmetry(self):
        basis = build_basis(3, 8)
        builds = [
            build_dicke_hamiltonian(DickeParams(1, 1, 0.45, 3, 0.2), basis),
            build_disordered_hamiltonian(
                DickeParams(1, 1, 0.5, 2), DisorderEnsemble(2, ((2.1, 2.0),)), basis
            ),
            build_dicke_ising_hamiltonian(DickeParams(1, 1, 0.5, 3), 0.3, basis),
            build_hopfield_hamiltonian(DickeParams(1, 1, 0.3), 8, 9),
        ]
        for h in builds:
            assert (h.matrix != h.matrix.T).nnz == 0
            assert h.is_symmetric

    def test_disorder_reduces_to_ideal(self):
        basis = build_basis(3, 6)
        ideal = build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 3), basis)
        disordered = build_disordered_hamiltonian(
            DickeParams(1, 1, 0.4, 3), DisorderEnsemble(3, ()), basis
        )
        assert (ideal.matrix != disordered.matrix).nnz == 0

    def test_all_couplings_zero_is_diagonal(self):
        basis = build_basis(2, 4)
        h = build_disordered_hamiltonian(
            DickeParams(1, 1, 0.0, 1), DisorderEnsemble(1, ((2.0, 0.0),)), basis
        )
        off = h.matrix - sp.diags(h.matrix.diagonal())
        assert off.nnz == 0

    def test_disorder_weights_placement(self):
        # diagonal carries omega0 for clean spins and omega' for the defect
        basis = build_basis(2, 0)
        h = build_disordered_hamiltonian(
            DickeParams(1, 0.7, 0.0, 1), DisorderEnsemble(1, ((2.5, 0.0),)), basis
        )
        # spin bit 0 = clean (omega0), bit 1 = defect (omega')
        diag = h.matrix.diagonal()
        assert diag[0] == pytest.approx(-0.35 - 1.25)   # both down
        assert diag[1] == pytest.approx(+0.35 - 1.25)   # clean up
        assert diag[2] == pytest.approx(-0.35 + 1.25)   # defect up
        assert diag[3] == pytest.approx(+0.35 + 1.25)

    def test_ising_zero_coupling_bitwise_identical(self):
        basis = build_basis(4, 10)
        ideal = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 4), basis)
        ising = build_dicke_ising_hamiltonian(DickeParams(1, 1, 0.5, 4), 0.0, basis)
        assert np.array_equal(ideal.matrix.data, ising.matrix.data)
        assert np.array_equal(ideal.matrix.indices, ising.matrix.indices)
        assert np.array_equal(ideal.matrix.indptr, ising.matrix.indptr)

    def test_ising_ring_against_enumeration(self):
        # 4J sum S_x S_x is diagonal in the x basis: eigenvalues are
        # J * sum s_n s_{n+1} over sign configurations
        n = 4
        ring = (ising_xx_ring(n) * 4.0).toarray()  # J = 1
        expected = []
        for config in range(2**n):
            signs = [1 if config & (1 << i) else -1 for i in range(n)]
            expected.append(sum(signs[i] * signs[(i + 1) % n] for i in range(n)))
        assert np.allclose(sorted(la.eigvalsh(ring)), sorted(expected), atol=1e-12)
        assert min(expected) == -n  # J > 0: alternating order, even ring

    def test_ising_builder_spin_sector(self):
        # g = 0 decouples the boson; spin block must match an explicit
        # kron-product construction
        n, eta, omega0 = 4, 0.7, 1.0
        basis = build_basis(n, 0)
        h = build_dicke_ising_hamiltonian(DickeParams(1, omega0, 0.0, n), eta, basis)
        sz = np.diag([-0.5, 0.5])  # basis index 0 = spin down
        sx = np.array([[0.0, 0.5], [0.5, 0.0]])
        eye = np.eye(2)

        def site(op, i):
            return reduce(np.kron, [op if j == i else eye for j in range(n)])

        # site 0 is the lowest bit, so it sits rightmost in the kron product
        dense = omega0 * sum(site(sz, n - 1 - i) for i in range(n))
        dense += 4 * eta * omega0 * sum(
            site(sx, n - 1 - i) @ site(sx, n - 1 - (i + 1) % n) for i in range(n)
        )
        assert np.allclose(h.matrix.toarray(), dense, atol=1e-14)

    def test_hopfield_decoupled(self):
        h = build_hopfield_hamiltonian(DickeParams(1, 1, 0.0), 5, 5)
        assert ground_state(h).energy == 0.0


class TestGroundState:
    def test_diagonal_matrix_dense(self):
        mat = sp.diags(np.array([3.0, -1.0, 2.0, 7.0])).tocsr()
        gs = ground_state(mat)
        assert gs.energy == -1.0
        assert np.allclose(np.abs(gs.vector), [0, 1, 0, 0])

    def test_diagonal_matrix_lanczos(self):
        rng = np.random.default_rng(0)
        d = rng.permutation(np.arange(3000, dtype=float))
        mat = sp.diags(d).tocsr()
        gs = ground_state(mat, method="lanczos")
        assert gs.energy == pytest.approx(0.0, abs=1e-8)
        assert gs.method == "lanczos"

    def test_lanczos_matches_dense(self):
        basis = build_basis(3, 20)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.3, 3), basis)
        dense = ground_state(h, method="dense")
        lanczos = ground_state(h, method="lanczos")
        assert lanczos.energy == pytest.approx(dense.energy, abs=1e-10)
        assert abs(np.dot(dense.vector, lanczos.vector)) == pytest.approx(1.0, abs=1e-9)

    def test_residual_and_norm_contract(self):
        basis = build_basis(6, 40)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), basis)
        gs = ground_state(h, tol=1e-10)
        from dicke_squeeze.ed.solver import matrix_inf_norm

        assert np.linalg.norm(gs.vector) == pytest.approx(1.0, abs=1e-12)
        assert gs.residual <= 1e-10 * matrix_inf_norm(h.matrix)

    def test_deterministic_repeat(self):
        basis = build_basis(5, 25)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.45, 5), basis)
        a = ground_state(h, method="lanczos")
        b = ground_state(h, method="lanczos")
        assert a.energy == b.energy
        assert np.array_equal(a.vector, b.vector)

    def test_convergence_error_reports(self):
        basis = build_basis(6, 40)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), basis)
        with pytest.raises(ConvergenceError) as info:
            ground_state(h, method="lanczos", max_iter=8)
        assert info.value.iterations == 8
        assert info.value.best_residual > info.value.tolerance

    def test_near_degenerate_parity_projection(self):
        # tiny splitting: two displaced wells split only through a 1e-12
        # spin term, far below the 1e-8 near-degeneracy threshold
        basis = build_basis(1, 24)
        h = build_dicke_hamiltonian(DickeParams(1.0, 1e-12, 0.4, 1), basis)
        pi_diag = parity_diagonal(basis)
        gs = ground_state(h, parity_diag=pi_diag)
        assert gs.near_degenerate
        parity = float(np.sum(pi_diag * gs.vector * gs.vector))
        assert parity == pytest.approx(1.0, abs=1e-10)
        again = ground_state(h, parity_diag=pi_diag)
        assert np.array_equal(gs.vector, again.vector)

    def test_lowest_eigenvalues_dense_and_lanczos_agree(self):
        from dicke_squeeze.ed.solver import _lanczos, matrix_inf_norm

        # g chosen so the low levels n- * eps- + n+ * eps+ are all distinct
        # (a Krylov space from one vector resolves one copy per eigenvalue)
        h = build_hopfield_hamiltonian(DickeParams(1, 1, 0.35), 44, 44)
        dense = lowest_eigenvalues(h, 6)
        w, _, _ = _lanczos(h.matrix, matrix_inf_norm(h.matrix), 1e-10, 5000, k=6)
        assert np.allclose(dense, w[:6], atol=1e-9)


class TestQuadratures:
    def test_generators_exactly_antisymmetric(self):
        basis = build_basis(3, 10)
        ops = [
            p_tilde_minus(basis),
            s_tilde_y(basis),
            p_d(basis, 1.0, 1.0, math.pi / 4),
            p_minus_k0(basis, 1.0, 1.2, 0.6, 0.1),
            hopfield_p_minus(6, 7, 1.0, 1.0, math.pi / 4),
        ]
        for q in ops:
            m = q.generator
            assert (m != -m.T).nnz == 0

    def test_decoupled_variances_are_unity(self):
        basis = build_basis(4, 10)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.0, 4), basis)
        gs = ground_state(h)
        assert variance(gs, p_tilde_minus(basis)) == pytest.approx(1.0, abs=1e-12)
        assert variance(gs, s_tilde_y(basis)) == pytest.approx(1.0, abs=1e-12)

    def test_variance_nonnegative_random_states(self):
        basis = build_basis(3, 6)
        q = p_tilde_minus(basis)
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.normal(size=basis.dim)
            v /= np.linalg.norm(v)
            gs = GroundStateResult(
                energy=0.0, vector=v, residual=0.0, iterations=0, method="random", gap=0.0
            )
            assert variance(gs, q) >= 0.0

    def test_dimension_mismatch(self):
        basis = build_basis(2, 4)
        other = build_basis(2, 6)
        gs = ground_state(build_dicke_hamiltonian(DickeParams(1, 1, 0.2, 2), basis))
        with pytest.raises(ValueError, match="dimension"):
            variance(gs, p_tilde_minus(other))

    def test_all_spin_quadrature_consumes_analytic_coefficients(self):
        # with no defects the all-spin quadrature built from the analytic
        # mixing angle is the finite-size two-mode quadrature; at resonance it
        # is exactly p~-/sqrt(2)
        basis = build_basis(4, 12)
        q_d = p_d(basis, 1.0, 1.0, math.pi / 4)
        q_pt = p_tilde_minus(basis)
        diff = (math.sqrt(2) * q_d.generator - q_pt.generator).tocsr()
        assert abs(diff).max() < 1e-14
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 4), basis)
        gs = ground_state(h)
        assert variance(gs, q_d) == pytest.approx(variance(gs, q_pt) / 2, rel=1e-14)

    def test_parity_conservation_expectations(self):
        basis = build_basis(3, 30)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.45, 3), basis)
        gs = ground_state(h, parity_diag=parity_diagonal(basis))
        x_op = lift_boson(boson_x(30), basis.spin_dim)
        sx_op = lift_spin(spin_x_total(3), basis.boson_dim)
        assert abs(expectation_symmetric(gs.vector, x_op)) < 1e-8
        assert abs(expectation_symmetric(gs.vector, sx_op)) < 1e-8

    def test_total_spin_sector_conserved(self):
        basis = build_basis(3, 30)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.3, 3), basis)
        gs = ground_state(h)
        assert total_spin_expectation(gs, basis) == pytest.approx(
            1.5 * 2.5, abs=1e-8
        )

    def test_ising_breaks_total_spin(self):
        basis = build_basis(4, 20)
        h = build_dicke_ising_hamiltonian(DickeParams(1, 1, 0.5, 4), 0.5, basis)
        gs = ground_state(h, parity_diag=parity_diagonal(basis))
        assert total_spin_expectation(gs, basis) < 2.0 * 3.0 - 1e-6


class TestHopfieldOracle:
    def test_ground_variance_matches_soft_mode(self):
        p = DickeParams(1, 1, 0.3)
        modes = normal_modes(p)
        h = build_hopfield_hamiltonian(p, 60, 60)
        gs = ground_state(h)
        q = hopfield_p_minus(60, 60, 1.0, 1.0, modes.gamma)
        assert variance(gs, q) == pytest.approx(modes.eps_minus / 2, abs=1e-6)

    def test_antisqueezed_position_variance(self):
        p = DickeParams(1, 1, 0.3)
        modes = normal_modes(p)
        h = build_hopfield_hamiltonian(p, 60, 60)
        gs = ground_state(h)
        c, s = math.cos(modes.gamma), math.sin(modes.gamma)
        x_part = sp.kron(
            boson_x(60) / math.sqrt(2.0), sp.identity(61, format="csr"), format="csr"
        )
        y_part = sp.kron(
            sp.identity(61, format="csr"), boson_x(60) / math.sqrt(2.0), format="csr"
        )
        q_minus = (c * x_part - s * y_part).tocsr()
        assert variance_symmetric(gs.vector, q_minus) == pytest.approx(
            1 / (2 * modes.eps_minus), rel=1e-5
        )

    def test_excitation_gaps_reproduce_mode_energies(self):
        p = DickeParams(1, 1, 0.35)
        modes = normal_modes(p)
        w = lowest_eigenvalues(build_hopfield_hamiltonian(p, 60, 60), 6)
        gaps = w - w[0]
        assert gaps[1] == pytest.approx(modes.eps_minus, abs=1e-6)
        # eps_plus appears once enough soft quanta lie below it
        assert any(abs(gap - modes.eps_plus) < 1e-5 for gap in gaps)


class TestThermalOracle:
    def test_zero_temperature_equals_ground(self):
        p = DickeParams(1, 1, 0.375)
        m = normal_modes(p)
        h = build_hopfield_hamiltonian(p, 30, 30)
        q = hopfield_p_minus(30, 30, 1.0, 1.0, m.gamma)
        assert thermal_variance(h, q, 0.0) == pytest.approx(
            variance(ground_state(h), q), abs=1e-12
        )

    def test_coth_point(self):
        p = DickeParams(1, 1, 0.375)
        m = normal_modes(p)
        h = build_hopfield_hamiltonian(p, 40, 40)
        q = hopfield_p_minus(40, 40, 1.0, 1.0, m.gamma)
        xi = 2.0 * thermal_variance(h, q, 0.25)
        coth1 = (math.e**2 + 1) / (math.e**2 - 1)
        assert xi == pytest.approx(0.5 * coth1, abs=1e-9)
        assert xi == pytest.approx(0.65652, abs=5e-6)

    def test_tail_bound_guard(self):
        p = DickeParams(1, 1, 0.3)
        m = normal_modes(p)
        h = build_hopfield_hamiltonian(p, 10, 10)
        q = hopfield_p_minus(10, 10, 1.0, 1.0, m.gamma)
        with pytest.raises(ValueError, match="tail"):
            thermal_variance(h, q, 1000.0)
        with pytest.raises(ValueError, match="tail"):
            thermal_variance(h, q, 0.5, n_eigenpairs=3)

    def test_negative_temperature_rejected(self):
        p = DickeParams(1, 1, 0.3)
        h = build_hopfield_hamiltonian(p, 5, 5)
        q = hopfield_p_minus(5, 5, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            thermal_variance(h, q, -0.1)

    def test_near_critical_high_temperature_needs_larger_basis(self):
        # at eps- = 0.1 and k_B T = 0.5 the antisqueezed direction thermally
        # occupies far more than 40 quanta: the 40-state oracle misses the
        # formula by over 1e-3, and enlarging the basis shrinks the error
        g = (1 - 0.01) / 2
        p = DickeParams(1, 1, g)
        m = normal_modes(p)
        xi_formula = (m.eps_minus / 1.0) / math.tanh(m.eps_minus / (2 * 0.5))
        errors = {}
        for n_max in (40, 56):
            h = build_hopfield_hamiltonian(p, n_max, n_max)
            q = hopfield_p_minus(n_max, n_max, 1.0, 1.0, m.gamma)
            errors[n_max] = abs(2.0 * thermal_variance(h, q, 0.5) - xi_formula)
        assert errors[40] > 1e-3
        assert errors[56] < errors[40]


class TestHopfieldParity:
    def test_parity_diagonal(self):
        diag = hopfield_parity_diagonal(2, 2)
        assert np.array_equal(diag, [1, -1, 1, -1, 1, -1, 1, -1, 1])

