import math
import pickle
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ed_caches

from dicke_squeeze import DickeParams, DisorderEnsemble, normal_modes
from dicke_squeeze.ed import (
    ConvergenceError,
    GroundStateResult,
    QuadratureOperator,
    SparseHamiltonian,
    build_basis,
    build_dicke_hamiltonian,
    build_hopfield_hamiltonian,
    expectation_symmetric,
    ground_state,
    hopfield_p_minus,
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
from dicke_squeeze.ed.solver import (
    DEFAULT_TOL,
    DENSE_DIM_LIMIT,
    _band_lowest,
    _lower_band,
    matrix_inf_norm,
)
from dicke_squeeze.ed import hamiltonians, solver
from dicke_squeeze.ed.operators import boson_x, ising_xx_ring, spin_flip_total, spin_z_values


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

    def test_pure_spin_basis_allowed(self):
        assert build_basis(4, 0).dim == 16

    def test_integral_floats_are_stored_as_ints(self):
        # 3.0 spins once failed in spin_dim's shift, and n_max = 4.0 made dim
        # the float 40.0
        for basis, dim in (
            (build_basis(3.0, 4), 40),
            (build_basis(3, 4.0), 40),
            (build_basis(3, 4, (2.0,)), 30),
        ):
            assert basis == build_basis(3, 4, basis.collective)
            assert type(basis.n_spins) is int and type(basis.n_max) is int
            assert all(type(n) is int for n in basis.collective)
            assert type(basis.dim) is int and basis.dim == dim

    @pytest.mark.parametrize(
        "args, name",
        [((True, 4), "n_spins"), ((3, False), "n_max"), ((3, 4, (True,)), "collective")],
    )
    def test_bools_are_not_counts(self, args, name):
        # a JSON true once ran as N = 1
        with pytest.raises(ValueError, match=name):
            build_basis(*args)


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

    def test_ising_ring_needs_two_spins(self):
        with pytest.raises(ValueError, match="the ring term needs n_spins >= 2"):
            ising_xx_ring(build_basis(1, 0))
        with pytest.raises(ValueError, match="the ring term needs n_spins >= 2"):
            build_dicke_hamiltonian(DickeParams(1, 1, 0.3, 1), build_basis(1, 4), eta=0.5)

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

    @pytest.mark.parametrize("name", ["a2", "defects", "k0", "quadrature"])
    def test_matrix_is_the_kronecker_sum(self, name):
        # sum_t c_t kron(B_t, S_t) in term order, bit for bit, as canonical CSR
        basis = build_basis(7, 10, (4,))
        op = {
            "a2": lambda: build_dicke_hamiltonian(
                DickeParams(1, 1.2, 0.45, 7, 0.3), build_basis(7, 10, (7,))
            ),
            "defects": lambda: build_dicke_hamiltonian(
                DickeParams(1, 1.2, 0.45, 4),
                basis,
                disorder=DisorderEnsemble(4, ((2.0, 0.3), (1.5, 0.0), (2.5, 0.2))),
            ),
            "k0": lambda: build_dicke_hamiltonian(
                DickeParams(1, 1.2, 0.45, 6), build_basis(6, 8, k0=True), eta=0.5
            ),
            "quadrature": lambda: p_d(basis, 1.0, 1.2, 0.3),
        }[name]()
        dense = sum(c * np.kron(b.matrix.toarray(), s.matrix.toarray()) for c, b, s in op.terms)
        mat = op.matrix
        assert np.array_equal(mat.toarray(), dense)
        assert mat.has_canonical_format and np.all(mat.data != 0)

    def test_matrix_drops_the_zeros_of_one_term(self):
        # no second term sums them away: n = 0 and S_z = 0 rows, a zero weight
        basis = build_basis(4, 6, (4,))
        spins, bosons = hamiltonians.spin_factors(basis), hamiltonians.boson_factors(6)
        number = hamiltonians.KronSum(((1.0, bosons.number, spins.z),)).matrix
        assert np.all(number.data != 0) and number.nnz == 6 * 4
        assert hamiltonians.KronSum(((0.0, bosons.x, spins.flip),)).matrix.nnz == 0


class TestGroundState:
    def test_diagonal_matrix_dense(self):
        mat = sp.diags(np.array([3.0, -1.0, 2.0, 7.0])).tocsr()
        gs = ground_state(mat)
        assert gs.energy == -1.0
        assert np.allclose(np.abs(gs.vector), [0, 1, 0, 0])

    def test_lower_parity_block_is_lifted(self):
        # the odd block holds the ground level, 3 below the even block's
        h = SparseHamiltonian.from_matrix(
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

    def test_convergence_error_reports(self, monkeypatch):
        basis = build_basis(6, 40)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), basis)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as info:
            ground_state(h, method="lanczos")
        # one ARPACK restart cycle of matvecs, far short of convergence
        assert 0 < info.value.iterations < 100
        assert info.value.tolerance == 1e-10

    def test_convergence_error_survives_pickling(self):
        # a worker pool hands a point's error to its parent pickled
        exc = pickle.loads(pickle.dumps(ConvergenceError(60, 1e-10)))
        assert type(exc) is ConvergenceError
        assert (exc.iterations, exc.tolerance) == (60, 1e-10)
        assert str(exc) == "no convergence after 60 iterations at relative tolerance 1.000e-10"

    @pytest.mark.parametrize("scale", [1e130, 1e-130])
    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_block_scale_past_its_residual_is_rejected(self, scale, method):
        # the residual squares the block's scale, and inverse iteration's
        # iterates its inverse: both paths refuse, with no failed shifts
        basis = build_basis(3, 10, (3,))
        h = build_dicke_hamiltonian(DickeParams(scale, scale, 0.5 * scale, 3), basis)
        with pytest.raises(ValueError, match="overflows its residual"):
            ground_state(h, method=method)

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
        h = build_hopfield_hamiltonian(DickeParams(1, 1, 0.35), 44, 44)
        dense = la.eigh(h.matrix.toarray(), eigvals_only=True, subset_by_index=[0, 5])
        assert np.allclose(lowest_eigenvalues(h, 6), dense, rtol=0.0, atol=1e-9)

    def test_arpack_leaves_the_permutation_symmetric_sector(self):
        # a start vector every spin permutation fixes keeps the Krylov space in
        # their symmetric sector, which misses the ideal model's fourth level
        # (dim 704) and, on the product basis of the Ising ring, the lowest
        # level of one parity block
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), build_basis(6, 10))
        dense = la.eigvalsh(h.matrix.toarray())
        assert np.allclose(lowest_eigenvalues(h, 4), dense[:4], rtol=0.0, atol=1e-9)
        ring = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), build_basis(6, 50), eta=0.5)
        arpack, direct = ground_state(ring, method="lanczos"), ground_state(ring, method="dense")
        assert arpack.gap == pytest.approx(direct.gap, rel=0.0, abs=1e-8)

    def test_lowest_eigenvalues_counts_degenerate_levels(self):
        # ideal Dicke N = 6, n_max = 10 (dim 704): the 4th to 6th levels are one
        # degenerate level, -2.1015, which a Krylov space from one start vector
        # holds only once
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), build_basis(6, 10))
        dense = la.eigvalsh(h.matrix.toarray())[:6]
        levels = lowest_eigenvalues(h, 6)
        assert np.allclose(levels, dense, rtol=0.0, atol=1e-9)
        assert np.count_nonzero(np.abs(levels + 2.10153) < 1e-5) == 3

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0, True, "1e-3"])
    def test_bad_tolerance_rejected(self, tol):
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.3, 2), build_basis(2, 6))
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            ground_state(h, tol=tol)

    def test_unknown_method_rejected(self):
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.3, 2), build_basis(2, 6))
        with pytest.raises(ValueError, match="unknown method 'eigh'"):
            ground_state(h, method="eigh")

    @pytest.mark.parametrize("k", [0, 29, True, 2.5, "2"])
    def test_lowest_eigenvalues_rejects_bad_k(self, k):
        # dim 28; True read as k = 1 and 2.5 failed inside scipy
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.3, 2), build_basis(2, 6))
        match = "k must be in 1..28" if k == 29 else "k must be an integer >= 1"
        with pytest.raises(ValueError, match=match):
            lowest_eigenvalues(h, k)

    def test_band_solve_stops_at_max_shifts(self, monkeypatch):
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), build_basis(6, 40, (6,)))
        monkeypatch.setattr(solver, "MAX_SHIFTS", 1)
        with pytest.raises(ConvergenceError) as info:
            ground_state(h)
        assert (info.value.iterations, info.value.tolerance) == (1, DEFAULT_TOL)


def _blocks(h):
    """Each parity block cut from the assembled full matrix."""
    return [h.matrix[index][:, index] for index, _ in h.parity_blocks()]


def _band_lowest_of(dense):
    """(E_0, v) of the band solve of a dense symmetric matrix."""
    return _band_lowest(_lower_band(sp.csr_matrix(dense)), DEFAULT_TOL)[:2]


_FIG_LAYOUTS = ["fig3", "fig6-run", "fig6-random", "fig7", "from-matrix"]


def _fig_layout(layout):
    """The presets' layouts at their default points: fig3's collective spin,
    fig6 with a run of two equal defects and with three distinct random ones
    (one collective block each), fig7's k = 0 ring, and a plain matrix with
    its parity."""
    p = DickeParams(1.0, 1.0, 0.5, 5)
    if layout == "fig3":
        return build_dicke_hamiltonian(p, build_basis(5, 40, (5,)))
    if layout == "fig6-run":
        ens = DisorderEnsemble(5, ((2.1, 2.0), (2.1, 2.0)))
        return build_dicke_hamiltonian(p, build_basis(7, 40, (5, 2)), disorder=ens)
    if layout == "fig6-random":
        ens = DisorderEnsemble(5, ((1.7, 0.35), (2.45, 1.3), (0.8, 0.05)))
        return build_dicke_hamiltonian(p, build_basis(8, 30, (5, 1, 1, 1)), disorder=ens)
    ring = build_dicke_hamiltonian(
        DickeParams(1.0, 1.0, 0.5, 6), build_basis(6, 40, k0=True), eta=0.7
    )
    return ring if layout == "fig7" else SparseHamiltonian.from_matrix(ring.matrix, ring.parity)


def _layout(layout):
    """A Hamiltonian of each spin layout, the two-boson model, the cases
    whose duplicate entries sum in term order, and the presets' layouts."""
    if layout in _FIG_LAYOUTS:
        return _fig_layout(layout)
    p = DickeParams(1.0, 1.2, 0.45, 3)
    if layout == "product":
        return build_dicke_hamiltonian(p, build_basis(3, 12), eta=0.3)
    if layout == "collective":
        return build_dicke_hamiltonian(p, build_basis(3, 12, (3,)))
    if layout == "mixed":
        ens = DisorderEnsemble(3, ((2.0, 0.3), (1.5, 0.6)))
        return build_dicke_hamiltonian(p, build_basis(5, 12, (3,)), disorder=ens)
    if layout == "mixed-g0":
        # a clean block, a run of two equal defects and a g' = 0 defect, whose
        # flip entries would widen the band
        ens = DisorderEnsemble(3, ((2.1, 2.0), (2.1, 2.0), (1.5, 0.0)))
        return build_dicke_hamiltonian(p, build_basis(6, 12, (3, 2)), disorder=ens)
    if layout == "k0":
        return build_dicke_hamiltonian(
            DickeParams(1.0, 1.2, 0.45, 6), build_basis(6, 12, k0=True), eta=0.5
        )
    if layout == "hopfield":
        return build_hopfield_hamiltonian(p, 12, 12)
    if layout == "a2":
        # (a + a')^2 puts a third term on the diagonal
        return build_dicke_hamiltonian(DickeParams(1.0, 1.2, 0.45, 3, 0.3), build_basis(3, 12))
    if layout == "hopfield-a2":
        return build_hopfield_hamiltonian(DickeParams(1.0, 1.2, 0.45, 1, 0.3), 12, 9)
    if layout == "ring-2":
        # the N = 2 ring's two bonds flip the same pair
        return build_dicke_hamiltonian(DickeParams(1.0, 1.2, 0.45, 2), build_basis(2, 12), eta=0.4)
    # the folded k = 0 ring has diagonal entries at N = 3 and 6 (2 each), summed
    # with omega n, omega0 S_z and (a + a')^2 on the diagonal
    n_spins = int(layout.removeprefix("k0-"))
    return build_dicke_hamiltonian(
        DickeParams(1.0, 1.2, 0.45, n_spins, 0.3), build_basis(n_spins, 12, k0=True), eta=0.5
    )


class TestBandSolve:
    @pytest.mark.parametrize(
        "layout",
        ["product", "collective", "mixed", "mixed-g0", "k0", "hopfield", "a2", "hopfield-a2",
         "ring-2", "k0-3", "k0-6", *_FIG_LAYOUTS],
    )
    def test_band_equals_dense_block_bitwise(self, layout, clear_ed_caches, monkeypatch):
        prepared = []
        prepare = hamiltonians._unit_band
        monkeypatch.setattr(
            hamiltonians, "_unit_band", lambda *args: prepared.append(args) or prepare(*args)
        )
        first = _layout(layout)
        # a plain matrix's factors live with its one Hamiltonian
        repeat = first if layout == "from-matrix" else _layout(layout)
        for k, h in enumerate((first, repeat)):
            before = len(prepared)
            built = list(h.parity_blocks())
            assert len(built) == 2
            for (index, block), cut in zip(built, _blocks(h)):
                # the unit bands, scaled and summed, are the band of the block
                # cut from the assembled matrix, bit for bit, duplicates summed
                # in one order; the CSR matrix of the ARPACK path sums its
                # duplicates in its own order (the folded ring's diagonal)
                dense = cut.toarray()
                ab = block.band()
                assert np.array_equal(ab, _lower_band(cut))
                csr = block.matrix().toarray()
                assert np.allclose(csr, dense, rtol=0.0, atol=4e-16 * np.abs(dense).max())
                assert np.array_equal(h.parity[index], np.full(index.size, h.parity[index[0]]))
                n, rows = dense.shape[0], ab.shape[0]
                assert rows < n // 2  # the boson-major index keeps every block banded
                for d in range(rows):
                    assert np.array_equal(ab[d, : n - d], np.diagonal(dense, -d))
                    assert not ab[d, n - d :].any()
                assert not np.tril(dense, -rows).any()
            # the blocks cover the basis, and the matrix holds nothing between them
            assert np.array_equal(np.sort(np.concatenate([i for i, _ in built])), np.arange(h.dim))
            assert sum(block.nnz for block in _blocks(h)) == h.matrix.nnz
            # each term's band is prepared once per parity; a repeat prepares
            # only the terms of factors built for its own point (a defect
            # model's weighted z and flip)
            fresh = sum(s is not s0 for (_, _, s), (_, _, s0) in zip(h.terms, first.terms))
            assert len(prepared) - before == 2 * (fresh if k else len(h.terms))
        assert fresh == (2 if layout.startswith(("mixed", "fig6")) else 0)

    @pytest.mark.parametrize("layout", ["fig3", "fig6-run", "fig6-random", "fig7"])
    def test_block_layouts_are_kept_per_factor_pair(self, layout, clear_ed_caches):
        # a block's places and level offsets depend on the first term's two
        # factors only: a repeat call, and a second point on the same
        # layout, reuse them read-only, and the ground state keeps its bits
        first = _layout(layout)
        cold = ground_state(first)
        built = list(first.parity_blocks())
        second = _layout(layout)
        for (index, block), (again, block_again) in zip(built, second.parity_blocks()):
            assert again is index and block_again.offset is block.offset
            assert not (index.flags.writeable or block.offset.flags.writeable)
            assert np.array_equal(index, np.flatnonzero(first.parity == first.parity[index[0]]))
        assert all(a is b for (a, _), (b, _) in zip(first.parity_blocks(), built))
        warm = ground_state(second)
        assert warm.energy.hex() == cold.energy.hex()
        assert warm.vector.tobytes() == cold.vector.tobytes()

    def test_clear_ed_caches_empties_every_cache(self, clear_ed_caches):
        # a fig7 point and one Hopfield thermal draw fill the factor, orbit,
        # pair and start-vector caches; the fixture empties every one
        h = _layout("fig7")
        gs = ground_state(h)
        variance(gs, p_minus_k0(build_basis(6, 40, k0=True), 1.0, 1.0, 0.3, 0.7))
        p = DickeParams(1.0, 1.2, 0.3)
        q = hopfield_p_minus(12, 12, 1.0, 1.2, normal_modes(p).gamma)
        thermal_variance(build_hopfield_hamiltonian(p, 12, 12), q, 0.2)

        def size(cache):
            return cache.cache_info().currsize if hasattr(cache, "cache_info") else len(cache)

        caches = ed_caches()
        filled = {name for name, cache in caches.items() if size(cache)}
        assert filled >= {
            "basis.translation_orbits",
            "hamiltonians._PAIRS",
            "hamiltonians._spin_factors",
            "hamiltonians.boson_factors",
            "solver._start_vector",
        }
        clear_ed_caches()
        assert not any(size(cache) for cache in caches.values())

    @pytest.mark.parametrize(
        "n_clean, collective, defects",
        [
            (3, (3,), ((2.0, 0.3), (1.5, 0.6))),
            (5, (5, 2), ((2.1, 2.0), (2.1, 2.0))),
            (5, (5, 1, 1, 1), ((1.7, 0.35), (2.45, 1.3), (0.8, 0.05))),
            (3, (3, 1, 1), ((2.0, 0.0), (1.5, 0.6))),
            (3, (3, 2), ((1.5, 0.0), (1.5, 0.0))),
        ],
    )
    @pytest.mark.parametrize("g", [0.45, 0.0])
    def test_defect_terms_keep_the_weighted_operators_bits(self, n_clean, collective, defects, g):
        # the layout's per-block z rows and flips, weighted at the point, give
        # the blocks of one z diagonal and one flip factor built from the
        # per-spin weights by spin_z_values and spin_flip_total, bit for bit,
        # zero-weight blocks (no flip entries) included
        p = DickeParams(1.0, 1.2, g, n_clean)
        basis = build_basis(n_clean + len(defects), 14, collective)
        h = build_dicke_hamiltonian(p, basis, disorder=DisorderEnsemble(n_clean, defects))
        bosons, bits = hamiltonians.boson_factors(14), hamiltonians.spin_factors(basis).bits
        z = spin_z_values(basis, [p.omega0] * n_clean + [w for w, _ in defects])
        x_weights = [g] * n_clean + [gp for _, gp in defects]
        terms = [h.terms[0], (1.0, bosons.identity, hamiltonians.Factor.diagonal(z, bits))]
        if any(x_weights):
            flip = hamiltonians.Factor.of(spin_flip_total(basis, x_weights), bits)
            terms.append((1.0 / np.sqrt(basis.n_spins), bosons.x, flip))
        weighted = SparseHamiltonian(tuple(terms))
        for (_, block), (_, reference) in zip(h.parity_blocks(), weighted.parity_blocks()):
            assert np.array_equal(block.band(), reference.band())
        assert (h.matrix != weighted.matrix).nnz == 0

    @pytest.mark.parametrize("layout", ["fig3", "fig6-random", "fig7", "from-matrix"])
    def test_forced_lanczos_agrees_with_the_band_solve(self, layout):
        # ARPACK on each block's CSR matrix, against the direct solve on its band
        h = _layout(layout)
        band, arpack = ground_state(h), ground_state(h, method="lanczos")
        assert (band.method, arpack.method) == ("dense", "lanczos")
        assert arpack.iterations > 0
        assert arpack.residual <= DEFAULT_TOL * arpack.norm
        assert arpack.energy == pytest.approx(band.energy, rel=0.0, abs=DEFAULT_TOL * band.norm)
        assert abs(arpack.vector @ band.vector) == pytest.approx(1.0, rel=0.0, abs=1e-9)

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
        h = SparseHamiltonian.from_matrix(
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

    def test_first_shift_above_the_level_bisects_back(self, monkeypatch):
        # fig7's even block at eta = 0, n_max = 50: after the first step from
        # the Gershgorin bound, rho - r = -2.99 lies above E_0 = -3.18, so that
        # factorization fails and the shift is bisected back
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.5, 6), build_basis(6, 50, k0=True))
        block = _blocks(h)[0]
        diagonal = block.diagonal()
        assert (block.shape[0], _lower_band(block).shape[0] - 1) == (358, 10)
        failed = []
        factor = lapack.dpbtrf

        def recorded(shifted, **kwargs):
            # the shift, read back off the first diagonal entry before the
            # factorization overwrites it
            shift = diagonal[0] - shifted[0, 0]
            result = factor(shifted, **kwargs)
            if result[1] > 0:
                failed.append(shift)
            return result

        monkeypatch.setattr(lapack, "dpbtrf", recorded)
        _assert_band_lowest_matches(block.toarray())
        e0 = la.eigvalsh(block.toarray(), subset_by_index=[0, 0])[0]
        assert (e0, failed[0]) == pytest.approx((-3.1843, -2.9937), abs=1e-4)

    def test_close_pair_gives_the_lower_vector(self):
        # two interleaved copies of one block, the second raised by
        # 1e-6*||B||_inf: the lowest pair's vectors are the block's vector on
        # the even or on the odd indices, exactly, and any mix of them passes
        # a 1e-10 residual contract up to a weight of ~1e-4 on the upper one
        rng = np.random.default_rng(5)
        a = _random_band(rng, 150, 6)
        split = 1e-6 * np.abs(a).sum(axis=1).max()
        dense = np.kron(a, np.eye(2)) + np.kron(np.eye(150), np.diag([0.0, split]))
        w, v = la.eigh(a, subset_by_index=[0, 1])
        assert w[1] - w[0] > 1e4 * split
        energy, vector = _band_lowest_of(dense)
        assert abs(energy - w[0]) <= BAND_ENERGY_ATOL * np.abs(dense).sum(axis=1).max()
        assert np.linalg.norm(vector[1::2]) <= BAND_VECTOR_ATOL
        assert abs(abs(vector[::2] @ v[:, 0]) - 1.0) <= BAND_VECTOR_ATOL

    def test_laplacian_starts_on_its_lowest_level(self):
        # a weighted graph Laplacian's Gershgorin bound is its lowest level 0,
        # with the constant vector
        rng = np.random.default_rng(3)
        off = [rng.uniform(0.5, 1.5, 60 - d) for d in range(1, 4)]
        dense = sum(np.diag(-w, -d) + np.diag(-w, d) for d, w in enumerate(off, 1))
        dense -= np.diag(dense.sum(axis=1))
        energy, vector = _band_lowest_of(dense)
        assert abs(energy) <= BAND_ENERGY_ATOL * np.abs(dense).sum(axis=1).max()
        assert abs(abs(vector.sum()) / math.sqrt(60) - 1.0) <= BAND_VECTOR_ATOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        basis = build_basis(4, 10, (4,))
        mat = build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 4), basis).matrix.tolil()
        mat[3, 3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            ground_state(mat.tocsr())
        with pytest.raises(ValueError, match="infs or NaNs"):
            ground_state(sp.diags([1.0, bad, 2.0]).tocsr())

    def test_lowest_eigenvalues_from_the_band(self):
        h = build_hopfield_hamiltonian(DickeParams(1, 1.3, 0.4), 15, 15)
        full = la.eigvalsh(h.matrix.toarray())
        assert np.allclose(lowest_eigenvalues(h, 6), full[:6], rtol=0.0, atol=1e-12)
        assert np.allclose(lowest_eigenvalues(h, h.dim), full, rtol=0.0, atol=1e-12)


def _random_band(rng, dim, band):
    """A symmetric dim x dim matrix with Gaussian entries on its 2*band + 1
    central diagonals."""
    dense = np.diag(rng.standard_normal(dim))
    for d in range(1, min(band, dim - 1) + 1):
        off = np.diag(rng.standard_normal(dim - d), -d)
        dense += off + off.T
    return dense


# E_0 and the vector of the band solve against a dense eigh
BAND_ENERGY_ATOL = 1e-14
BAND_VECTOR_ATOL = 1e-12


def _assert_band_lowest_matches(dense):
    norm = np.abs(dense).sum(axis=1).max()
    energy, vector = _band_lowest_of(dense)
    w, v = la.eigh(dense)
    # levels within 1e-10*||B||_inf of E_0 count as one eigenspace
    space = v[:, w - w[0] <= 1e-10 * norm]
    assert abs(energy - w[0]) <= BAND_ENERGY_ATOL * norm
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
    # distance from the lowest eigenspace, whatever its dimension
    assert np.linalg.norm(vector - space @ (space.T @ vector)) <= BAND_VECTOR_ATOL


# derandomized: random band matrices over six decades of scale each way.
# "psd" shifts the matrix so its lowest level is 0 to rounding; "pair" is two
# interleaved copies of one matrix, so the lowest level is exactly doubly
# degenerate and the vector is only fixed up to its eigenspace
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "psd", "pair"]),
    dim=st.integers(2, 400),
    band=st.integers(1, 25),
    scale=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_lowest_matches_dense_eigh(kind, dim, band, scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "pair":
        dense = np.kron(_random_band(rng, max(dim // 2, 1), band // 2), np.eye(2))
    else:
        dense = _random_band(rng, dim, band)
    if kind == "psd":
        dense -= la.eigvalsh(dense, subset_by_index=[0, 0])[0] * np.eye(dim)
    _assert_band_lowest_matches(dense * 10.0**scale / np.abs(dense).sum(axis=1).max())


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
            m = q.matrix
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
        diff = (math.sqrt(2) * q_d.matrix - q_pt.matrix).tocsr()
        assert abs(diff).max() < 1e-14
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.4, 4), basis)
        gs = ground_state(h)
        assert variance(gs, q_d) == pytest.approx(variance(gs, q_pt) / 2, rel=1e-14)

    def test_parity_conservation_expectations(self):
        basis = build_basis(3, 30)
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.45, 3), basis)
        gs = ground_state(h)
        x_op = sp.kron(boson_x(30), sp.identity(basis.spin_dim))
        sx_op = sp.kron(sp.identity(basis.boson_dim), 0.5 * spin_flip_total(basis))
        assert abs(expectation_symmetric(gs.vector, x_op)) < 1e-8
        assert abs(expectation_symmetric(gs.vector, sx_op)) < 1e-8

    def test_non_finite_weights_rejected(self):
        # a NaN or infinite weight would come back as a NaN variance
        basis = build_basis(3, 6)
        for build in (
            lambda: p_d(basis, 1.0, 1.0, math.nan),
            lambda: QuadratureOperator.on(basis, math.inf, 1.0),
            lambda: QuadratureOperator.on(basis, 1.0, -math.inf),
            lambda: p_minus_k0(basis, 1.0, 1.2, 0.6, math.nan),
            lambda: hopfield_p_minus(4, 4, 1.0, 1.0, math.nan),
        ):
            with pytest.raises(ValueError, match="quadrature weights must be finite"):
                build()

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


def _preset_operators():
    """name -> (H or quadrature) of every operator the ED presets build, at
    small sizes: fig3's collective spin, fig6's defect blocks, fig7's k = 0
    ring and the Hopfield pair."""
    fig3 = build_basis(4, 12, (4,))
    ens = DisorderEnsemble(3, ((2.0, 0.1), (2.0, 0.1), (1.5, 0.3)))
    fig6 = build_basis(6, 10, (3, 2, 1))
    fig7 = build_basis(6, 10, k0=True)
    p, hop = DickeParams(1.0, 1.2, 0.45, 3), DickeParams(1.0, 1.3, 0.4, 1, 0.2)
    return {
        "fig3-H": build_dicke_hamiltonian(DickeParams(1.0, 1.0, 0.45, 4), fig3),
        "fig3-p_tilde_minus": p_tilde_minus(fig3),
        "fig3-s_tilde_y": s_tilde_y(fig3),
        "fig6-H": build_dicke_hamiltonian(p, fig6, disorder=ens),
        "fig6-p_d": p_d(fig6, 1.0, 1.2, 0.6),
        "fig7-H": build_dicke_hamiltonian(DickeParams(1.0, 1.0, 0.5, 6), fig7, eta=0.3),
        "fig7-p_minus_k0": p_minus_k0(fig7, 1.0, 1.4, 0.6, 0.3),
        "hopfield-H": build_hopfield_hamiltonian(hop, 8, 9),
        "hopfield-p_minus": hopfield_p_minus(8, 9, 1.0, 1.3, 0.7),
    }


@pytest.mark.parametrize("name", list(_preset_operators()))
def test_apply_matches_the_assembled_matrix(name):
    # the matrix-free product against the full matrix assembled from the
    # same triplets: the two group each row's sum differently (per term, and
    # the coefficient before or after the sum), so they agree to rounding
    op = _preset_operators()[name]
    v = np.random.default_rng(5).standard_normal((op.dim, 3))
    bound = 1e-13 * matrix_inf_norm(op.matrix) * np.abs(v).max()
    for x in (v[:, 0], v):
        got = op.apply(x)
        assert got.shape == x.shape
        assert np.abs(got - op.matrix @ x).max() <= bound


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

    @pytest.mark.parametrize("n_max", [-1, True, 2.5])
    @pytest.mark.parametrize("mode", ["a", "b"])
    def test_bad_truncation_rejected(self, n_max, mode):
        # -1 built a dim-0 operator, True read as 1, 2.5 a numpy TypeError
        p = DickeParams(1, 1, 0.3)
        n_max_a, n_max_b = (n_max, 3) if mode == "a" else (3, n_max)
        match = f"n_max_{mode} must be an integer >= 0"
        with pytest.raises(ValueError, match=match):
            build_hopfield_hamiltonian(p, n_max_a, n_max_b)
        with pytest.raises(ValueError, match=match):
            hopfield_p_minus(n_max_a, n_max_b, 1.0, 1.0, 0.5)


# Derandomized normal-phase instances of the two-boson model against its
# closed-form normal modes. n_max = 25 keeps both parity blocks at 338 states,
# under DENSE_DIM_LIMIT, so the ground state comes from the band solve. Bounds from a 7 x 9 grid over the drawn range (omega0 x
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

    @pytest.mark.parametrize(
        "temperature", [math.nan, math.inf, -math.inf, True, "0.3", None, 1j, [0.2]]
    )
    def test_non_finite_temperature_rejected(self, temperature):
        # before any spectrum: nan reached scipy's eigenvalue-bounds error, and
        # inf a violated Boltzmann tail bound; True would read as T = 1; a
        # string, None, a complex or a list raised math.isfinite's TypeError
        p = DickeParams(1, 1, 0.3)
        h = build_hopfield_hamiltonian(p, 5, 5)
        q = hopfield_p_minus(5, 5, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
            thermal_variance(h, q, temperature)

    def test_dimension_mismatch_rejected(self):
        p = DickeParams(1, 1, 0.3)
        q = hopfield_p_minus(6, 5, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="dimension mismatch: operator 42, matrix 36"):
            thermal_variance(build_hopfield_hamiltonian(p, 5, 5), q, 0.2)

    def test_dimension_past_the_dense_spectrum_limit_rejected(self):
        # dim 151^2 = 22801: refused before any block is diagonalized
        p = DickeParams(1, 1, 0.3)
        q = hopfield_p_minus(150, 150, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="dim=22801 exceeds 20000"):
            thermal_variance(build_hopfield_hamiltonian(p, 150, 150), q, 0.2)

    def test_numpy_float_temperature_accepted(self):
        p = DickeParams(1, 1, 0.3)
        h = build_hopfield_hamiltonian(p, 20, 20)
        q = hopfield_p_minus(20, 20, 1.0, 1.0, normal_modes(p).gamma)
        assert thermal_variance(h, q, np.float64(0.2)) == thermal_variance(h, q, 0.2)

    def test_peak_memory_is_two_dense_blocks(self):
        # criterion 03's truncation: the largest parity block holds b = 841
        # states, and one call holds its dense matrix and eigenvectors, 2 b^2
        # doubles (2.09 b^2 measured); a third b x b array breaks the bound
        omega0 = 1.3
        p = DickeParams(1.0, omega0, 0.6 * math.sqrt(omega0) / 2.0)
        h = build_hopfield_hamiltonian(p, 40, 40)
        q = hopfield_p_minus(40, 40, 1.0, omega0, normal_modes(p).gamma)
        b = max(index.size for index, _ in h.parity_blocks())
        tracemalloc.start()
        try:
            thermal_variance(h, q, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * b * b * 8

    def test_subnormal_temperature_gives_the_ground_variance(self):
        # 1/T overflows at T = 5e-324, so the weights are formed from (E - E_0)/T
        p = DickeParams(1, 1, 0.375)
        h = build_hopfield_hamiltonian(p, 20, 20)
        q = hopfield_p_minus(20, 20, 1.0, 1.0, normal_modes(p).gamma)
        ground = variance(ground_state(h), q)
        for temperature in (5e-324, 1e-300):
            assert thermal_variance(h, q, temperature) == pytest.approx(ground, rel=1e-12)

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
        # (-1)^(n_a + n_b) at index n_a*(n_max_b + 1) + n_b
        h = build_hopfield_hamiltonian(DickeParams(1, 1, 0.3), 2, 2)
        assert np.array_equal(h.parity, [1, -1, 1, -1, 1, -1, 1, -1, 1])

