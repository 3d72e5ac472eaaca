import math
from functools import reduce

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_squeeze import DickeParams, DisorderEnsemble, normal_modes
from dicke_squeeze.ed import (
    ConvergenceError,
    GroundStateResult,
    SparseHamiltonian,
    build_basis,
    build_dicke_hamiltonian,
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
from dicke_squeeze.ed.solver import (
    DEFAULT_TOL,
    DENSE_DIM_LIMIT,
    _lower_band,
    matrix_inf_norm,
    parity_blocks,
)
from dicke_squeeze.ed.operators import boson_x, ising_xx_ring, spin_flip_total


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
            build_dicke_hamiltonian(
                DickeParams(1, 1, 0.5, 2), basis, disorder=DisorderEnsemble(2, ((2.1, 2.0),))
            ),
            build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 3), basis, eta=0.3),
            # orbit lengths 1, 2, 3 and 6 meet in the projected entries
            build_dicke_hamiltonian(
                DickeParams(1, 1, 0.5, 6), build_basis(6, 8, k0=True), eta=0.3
            ),
            build_hopfield_hamiltonian(DickeParams(1, 1, 0.3), 8, 9),
        ]
        for h in builds:
            assert (h.matrix != h.matrix.T).nnz == 0
            assert h.is_symmetric

    def test_disorder_reduces_to_ideal(self):
        basis = build_basis(3, 6)
        ideal = build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 3), basis)
        disordered = build_dicke_hamiltonian(
            DickeParams(1, 1, 0.4, 3), basis, disorder=DisorderEnsemble(3, ())
        )
        assert (ideal.matrix != disordered.matrix).nnz == 0

    def test_rejects_mismatched_spin_counts(self):
        ens = DisorderEnsemble(2, ((2.0, 0.5),))
        # params and ensemble disagree on the clean spins
        with pytest.raises(ValueError, match="n_clean=2"):
            build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 3), build_basis(3, 4), disorder=ens)
        # the basis must hold the clean spins plus the defects
        with pytest.raises(ValueError, match="basis holds 2 spins"):
            build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 2), build_basis(2, 4), disorder=ens)
        with pytest.raises(ValueError, match="basis holds 3 spins"):
            build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 2), build_basis(3, 4))

    def test_rejects_ring_with_defects(self):
        ens = DisorderEnsemble(2, ((2.0, 0.5),))
        with pytest.raises(ValueError, match="do not combine"):
            build_dicke_hamiltonian(
                DickeParams(1, 1, 0.4, 2), build_basis(3, 4), disorder=ens, eta=0.3
            )

    def test_all_couplings_zero_is_diagonal(self):
        basis = build_basis(2, 4)
        h = build_dicke_hamiltonian(
            DickeParams(1, 1, 0.0, 1), basis, disorder=DisorderEnsemble(1, ((2.0, 0.0),))
        )
        off = h.matrix - sp.diags(h.matrix.diagonal())
        assert off.nnz == 0

    def test_disorder_weights_placement(self):
        # diagonal carries omega0 for clean spins and omega' for the defect
        basis = build_basis(2, 0)
        h = build_dicke_hamiltonian(
            DickeParams(1, 0.7, 0.0, 1), basis, disorder=DisorderEnsemble(1, ((2.5, 0.0),))
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
        ising = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 4), basis, eta=0.0)
        assert np.array_equal(ideal.matrix.data, ising.matrix.data)
        assert np.array_equal(ideal.matrix.indices, ising.matrix.indices)
        assert np.array_equal(ideal.matrix.indptr, ising.matrix.indptr)

    def test_ising_ring_against_enumeration(self):
        # 4J sum S_x S_x is diagonal in the x basis: eigenvalues are
        # J * sum s_n s_{n+1} over sign configurations
        n = 4
        ring = (ising_xx_ring(build_basis(n, 0)) * 4.0).toarray()  # J = 1
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
        h = build_dicke_hamiltonian(DickeParams(1, omega0, 0.0, n), basis, eta=eta)
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

    def test_lower_parity_block_is_lifted(self):
        # the odd block holds the ground level, 3 below the even block's
        h = SparseHamiltonian(
            sp.diags([2.0, -1.0, 3.0, 0.5]).tocsr(), np.array([1.0, -1.0, 1.0, -1.0])
        )
        for method in ("dense", "lanczos"):
            gs = ground_state(h, method=method)
            assert gs.method == method
            assert gs.energy == pytest.approx(-1.0, abs=1e-12)
            assert gs.gap == pytest.approx(3.0, abs=1e-12)
            assert not gs.near_degenerate
            assert np.allclose(gs.vector, [0.0, 1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)

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
            ground_state(h, method="lanczos", max_iter=1)
        # one ARPACK restart cycle of matvecs, far short of convergence
        assert 0 < info.value.iterations < 100
        assert info.value.tolerance == 1e-10

    def test_near_degenerate_takes_the_even_block(self):
        # tiny splitting: two displaced wells split only through a 1e-12
        # spin term, far below the 1e-8 near-degeneracy threshold
        h = build_dicke_hamiltonian(DickeParams(1.0, 1e-12, 0.4, 1), build_basis(1, 24))
        for method in ("dense", "lanczos"):
            gs = ground_state(h, method=method)
            assert gs.method == method
            assert gs.near_degenerate
            assert gs.gap < 1e-8
            assert np.all(gs.vector[h.parity < 0] == 0.0)
            assert float(h.parity @ gs.vector**2) == pytest.approx(1.0, abs=1e-12)
            again = ground_state(h, method=method)
            assert np.array_equal(gs.vector, again.vector)

    def test_lowest_eigenvalues_dense_and_lanczos_agree(self):
        # g chosen so the low levels n- * eps- + n+ * eps+ are all distinct
        # (a Krylov space from one vector resolves one copy per eigenvalue);
        # dim 2025 is above the dense limit, so lowest_eigenvalues runs ARPACK
        h = build_hopfield_hamiltonian(DickeParams(1, 1, 0.35), 44, 44)
        assert h.dim > DENSE_DIM_LIMIT
        dense = la.eigh(h.matrix.toarray(), eigvals_only=True, subset_by_index=[0, 5])
        assert np.allclose(lowest_eigenvalues(h, 6), dense, rtol=0.0, atol=1e-9)


def _blocks(h):
    return [h.matrix[idx][:, idx] for idx in parity_blocks(h)]


class TestBandSolve:
    @pytest.mark.parametrize(
        "layout",
        ["product", "collective", "mixed", "k0", "hopfield"],
    )
    def test_band_equals_dense_block_bitwise(self, layout):
        p = DickeParams(1.0, 1.2, 0.45, 3)
        if layout == "product":
            h = build_dicke_hamiltonian(p, build_basis(3, 12), eta=0.3)
        elif layout == "collective":
            h = build_dicke_hamiltonian(p, build_basis(3, 12, (3,)))
        elif layout == "mixed":
            ens = DisorderEnsemble(3, ((2.0, 0.3), (1.5, 0.6)))
            h = build_dicke_hamiltonian(p, build_basis(5, 12, (3,)), disorder=ens)
        elif layout == "k0":
            h = build_dicke_hamiltonian(
                DickeParams(1.0, 1.2, 0.45, 6), build_basis(6, 12, k0=True), eta=0.5
            )
        else:
            h = build_hopfield_hamiltonian(p, 12, 12)
        for block in _blocks(h):
            ab, dense = _lower_band(block), block.toarray()
            n, rows = dense.shape[0], ab.shape[0]
            assert rows < n // 2  # the boson-major index keeps every block banded
            for d in range(rows):
                assert np.array_equal(ab[d, : n - d], np.diagonal(dense, -d))
                assert not ab[d, n - d :].any()
            assert not np.tril(dense, -rows).any()

    def test_band_sums_duplicate_entries(self):
        # a CSR matrix may store one entry twice; both copies count
        data, indices = np.array([0.5, 0.5, 0.5, 0.5, 2.0]), np.array([0, 0, 1, 0, 1])
        mat = sp.csr_matrix((data, indices, np.array([0, 3, 5])), shape=(2, 2))
        assert np.array_equal(_lower_band(mat), [[1.0, 2.0], [0.5, 0.0]])

    def test_degenerate_lowest_level_lies_in_its_eigenspace(self):
        # two identical decoupled copies of one Dicke block: the lowest level
        # is exactly doubly degenerate
        basis = build_basis(4, 30, (4,))
        block = _blocks(build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 4), basis))[0]
        h = sp.block_diag((block, block), format="csr")
        assert h.shape[0] <= DENSE_DIM_LIMIT
        w, v = la.eigh(block.toarray(), subset_by_index=[0, 1])
        assert w[1] - w[0] > 1e-3
        gs = ground_state(h)
        assert (gs.method, gs.iterations) == ("dense", 0)
        assert gs.residual <= DEFAULT_TOL * matrix_inf_norm(h)
        assert gs.energy == pytest.approx(w[0], abs=1e-12)
        n = block.shape[0]
        in_space = np.hypot(v[:, 0] @ gs.vector[:n], v[:, 0] @ gs.vector[n:])
        assert in_space == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_blocks_are_exact(self):
        one = ground_state(sp.csr_matrix([[2.5]]))
        assert (one.energy, one.residual, one.method, one.iterations) == (2.5, 0.0, "dense", 0)
        assert np.array_equal(one.vector, [1.0])
        h = SparseHamiltonian(
            sp.diags([0.25, -0.75, 0.125, -0.25, 1.0]).tocsr(),
            np.array([1.0, 1.0, -1.0, -1.0, 1.0]),
        )
        gs = ground_state(h)
        assert (gs.energy, gs.residual, gs.gap) == (-0.75, 0.0, 0.5)
        assert np.array_equal(gs.vector, [0.0, 1.0, 0.0, 0.0, 0.0])

    def test_direct_path_reports_dense(self):
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 12), build_basis(12, 50, (12,)))
        assert max(block.shape[0] for block in _blocks(h)) <= DENSE_DIM_LIMIT
        gs = ground_state(h)
        assert (gs.method, gs.iterations) == ("dense", 0)
        assert gs.residual <= DEFAULT_TOL * matrix_inf_norm(h.matrix)
        w = la.eigh(h.matrix.toarray(), eigvals_only=True, subset_by_index=[0, 0])
        assert gs.energy == pytest.approx(w[0], rel=0.0, abs=1e-12)

    def test_lowest_eigenvalues_from_the_band(self):
        h = build_hopfield_hamiltonian(DickeParams(1, 1.3, 0.4), 15, 15)
        assert h.dim <= DENSE_DIM_LIMIT
        full = la.eigvalsh(h.matrix.toarray())
        assert np.allclose(lowest_eigenvalues(h, 6), full[:6], rtol=0.0, atol=1e-12)
        assert np.allclose(lowest_eigenvalues(h, h.dim), full, rtol=0.0, atol=1e-12)


def _solver_instance(kind, n_spins, omega0, g, eta):
    p = DickeParams(1.0, omega0, g, n_spins)
    if kind == "dicke":
        return build_dicke_hamiltonian(p, build_basis(n_spins, 12, (n_spins,)))
    if kind == "disordered":
        ens = DisorderEnsemble(n_spins, ((2.0 * omega0, g),))
        basis = build_basis(n_spins + 1, 12, (n_spins,))
        return build_dicke_hamiltonian(p, basis, disorder=ens)
    if kind == "ising":
        return build_dicke_hamiltonian(p, build_basis(n_spins, 12), eta=eta)
    return build_hopfield_hamiltonian(p, 12, 12)


# derandomized: the same examples on every run, so the suite stays reproducible
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["dicke", "disordered", "ising", "hopfield"]),
    n_spins=st.integers(2, 4),
    omega0=st.floats(0.5, 2.0),
    g=st.floats(0.0, 0.6),
    eta=st.floats(-0.4, 0.4),
    method=st.sampled_from(["dense", "lanczos"]),
)
def test_blocked_ground_state_matches_full_dense(kind, n_spins, omega0, g, eta, method):
    h = _solver_instance(kind, n_spins, omega0, g, eta)
    w, v = la.eigh(h.matrix.toarray(), subset_by_index=[0, 1])
    gs = ground_state(h, method=method)
    assert gs.method == method
    assert abs(gs.energy - w[0]) <= DEFAULT_TOL * matrix_inf_norm(h.matrix)
    # g <= 0.6 keeps the full spectrum's lowest gap open, so v[:, 0] is pure
    assert w[1] - w[0] > 1e-6
    assert abs(v[:, 0] @ gs.vector) == pytest.approx(1.0, abs=1e-9)
    assert abs(float(h.parity @ gs.vector**2)) == pytest.approx(1.0, abs=1e-12)


class TestQuadratures:
    def test_generators_exactly_antisymmetric(self):
        basis = build_basis(3, 10)
        ops = [
            p_tilde_minus(basis),
            s_tilde_y(basis),
            p_d(basis, 1.0, 1.0, math.pi / 4),
            p_minus_k0(basis, 1.0, 1.2, 0.6, 0.1),
            p_minus_k0(build_basis(6, 8, k0=True), 1.0, 1.2, 0.6, 0.1),
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
        gs = ground_state(h)
        x_op = lift_boson(boson_x(30), basis.spin_dim)
        sx_op = lift_spin(0.5 * spin_flip_total(basis), basis.boson_dim)
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
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 4), basis, eta=0.5)
        gs = ground_state(h)
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


# Derandomized normal-phase instances of the two-boson model against its
# closed-form normal modes. n_max = 25 keeps both parity blocks at 338 states,
# under DENSE_DIM_LIMIT, so the ground state and both block spectra come from
# the band solve. Bounds from a 7 x 9 grid over the drawn range (omega0 x
# g/g_c): the four lowest levels of each block deviate by up to 2.6e-9 (the
# truncation, largest at omega0 = 2, g = 0.8 g_c), the variances by 9.3e-15
# relative.
LADDER_ATOL = 1e-8
VARIANCE_RTOL = 1e-13


@settings(derandomize=True, max_examples=30, deadline=None)
@given(omega0=st.floats(0.5, 2.0), g_fraction=st.floats(0.0, 0.8))
def test_hopfield_band_solve_matches_normal_modes(omega0, g_fraction):
    n_max = 25
    p = DickeParams(1.0, omega0, g_fraction * math.sqrt(omega0) / 2.0)
    modes = normal_modes(p)
    h = build_hopfield_hamiltonian(p, n_max, n_max)
    gs = ground_state(h)
    assert (gs.method, gs.iterations) == ("dense", 0)
    # each parity block holds the levels j*eps- + k*eps+ with (-1)^(j+k) its parity
    for parity, block in zip((1, -1), _blocks(h)):
        assert block.shape[0] <= DENSE_DIM_LIMIT
        ladder = sorted(
            j * modes.eps_minus + k * modes.eps_plus
            for j in range(8)
            for k in range(8)
            if (-1) ** (j + k) == parity
        )
        levels = lowest_eigenvalues(block, 4) - gs.energy
        assert np.allclose(levels, ladder[:4], rtol=0.0, atol=LADDER_ATOL)
    q_p = hopfield_p_minus(n_max, n_max, 1.0, omega0, modes.gamma)
    assert variance(gs, q_p) == pytest.approx(modes.eps_minus / 2.0, rel=VARIANCE_RTOL)
    c, s = math.cos(modes.gamma), math.sin(modes.gamma)
    x_a = sp.kron(boson_x(n_max), sp.identity(n_max + 1), format="csr") / math.sqrt(2.0)
    x_b = sp.kron(sp.identity(n_max + 1), boson_x(n_max), format="csr") / math.sqrt(2.0 * omega0)
    x_minus = (c * x_a - s * x_b).tocsr()
    assert variance_symmetric(gs.vector, x_minus) == pytest.approx(
        1.0 / (2.0 * modes.eps_minus), rel=VARIANCE_RTOL
    )


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

