"""Ground-state solver over the conserved-parity blocks of the Hamiltonian.

A SparseHamiltonian carrying its parity diagonal is solved block by block
(even, odd); any other matrix is one block. Each block's lowest eigenpair
comes from a direct solve on its band up to DENSE_DIM_LIMIT and from ARPACK's
implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``) above it. The
flat index is boson-major (n * spin_dim + s): the coupling links n to n +- 1
and everything else stays inside one n, so every block is a band matrix of
small half-bandwidth b (7 for fig3 at N = 12, 10 for fig7, 14 for the
Hopfield model at n_max = 25). The direct solve reads that band from the
sparse block, takes E_0 from LAPACK's banded reduction (O(n^2 b), no dense
n x n matrix) and the vector from two steps of banded inverse iteration; it
is still labelled "dense". Both start vectors are fixed (all ones for ARPACK,
a seed-0 Gaussian draw for the inverse iteration), so results are bitwise
reproducible for a fixed thread configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hamiltonians import SparseHamiltonian

# Largest parity block solved directly. Lowest pair of one even block at
# g = 0.5, n_max = 50 (2 vCPUs, OpenBLAS, median of 31; band is the
# half-bandwidth; eigsh as in _arpack; dense eigh is
# la.eigh(block.toarray(), subset_by_index=[0, 0]); the Ising row is the
# median over fig7's default eta grid, 0 to 1.5 in 16 steps, range in []):
#
#   block dim   builder                 band   banded           eigsh            dense eigh
#     332       collective Dicke N=12     7    3.5 ms           4.0 ms            6.7 ms
#     358       Ising ring k0 N=6        10    4.6 [3.5-5.7]    3.3 [2.3-4.4]     7.3 ms
#     638       collective Dicke N=24    13   11.8 ms           5.5 ms           26.5 ms
#
# Up to the limit the band solve is exact to rounding and within ~1.5 ms of
# eigsh, which is tol-accurate (forced on fig6 it moves xi by up to 1.0e-11).
# On fig7's blocks eigsh is the faster at every eta of the grid (both blocks
# timed in turn: median 10.2 against 7.6 ms); the wider band costs there.
# The banded reduction grows as n^2 b and eigsh about as n, so above the
# limit eigsh wins (2x at dim 638).
DENSE_DIM_LIMIT = 400
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 5000
NEAR_DEGENERATE_GAP = 1e-8

# Shift of the banded inverse iteration, in units of ||B||_inf of the block:
# it solves (B - (E_0 - delta)) x' = x with delta = INVERSE_SHIFT*||B||_inf.
# delta must exceed the error of E_0, or B - (E_0 - delta) is not positive
# definite and the banded Cholesky of solveh_banded fails. The banded
# reduction is backward stable, |E_0 - lambda_0| <= c*(b+1)*eps*||B||; on the
# fig3 N = 12, fig7 N = 6 and Hopfield blocks it measured <= 2.8e-16*||B||,
# and the Cholesky still ran at delta = 1e-15*||B||: 1e-12 leaves a margin of
# ~1000 on both. Each step scales an excited component against the ground
# one by delta/(lambda_i - E_0 + delta) <= delta/gap, so INVERSE_STEPS = 2
# from a start x leave (delta/gap)^2/|<x|v_0>| of them: 1e-18 at a block gap
# of 1e-2*||B|| and an overlap of 0.01, below rounding. The same scale is the
# least residual the direct solve is held to: a rounded eigenvector already
# has ||Bv - Ev|| up to ~sqrt(n)*(2b+2)*eps*||B||, 2e-13 at n = 400, b = 21,
# so a smaller tol is left to the caller's residual check instead of raising.
INVERSE_SHIFT = 1e-12
INVERSE_STEPS = 2


class ConvergenceError(RuntimeError):
    """A solve missed its residual contract: ARPACK within the restart cap,
    or banded inverse iteration in INVERSE_STEPS steps."""

    def __init__(self, iterations: int, tolerance: float):
        self.iterations = iterations
        self.tolerance = tolerance
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"at relative tolerance {tolerance:.3e}"
        )


@dataclass
class GroundStateResult:
    """Lowest eigenpair of a real-symmetric matrix.

    residual is ||H v - E v||_2. gap is the distance between the lowest
    levels the solver found in the two parity blocks (inf for a single
    block); near_degenerate marks gaps below 1e-8, in which case the even
    block's state is taken. iterations counts ARPACK matvecs over all blocks
    (0 when every block was solved directly). method is "dense" when every
    block was solved directly: by the banded eigenvalue and inverse
    iteration of ``_band_lowest``, exact to rounding, with no dense matrix
    formed; "lanczos" when some block went to ARPACK.

    On a direct solve gap is the block gap. On an ARPACK block it need not
    be: the search stays in the symmetry sector of its start vector (see
    ``_arpack``), so on the product basis of the Ising ring it is the
    distance between the even and odd k = 0 levels (at N = 6, eta = 0.5,
    n_max = 50 it reads 0.900, the true block gap being 0.142). In the k = 0
    ring layout (``BasisDescriptor.k0``) gap is the even-k0 vs odd-k0
    distance, taken over the reflection-even states when the block is
    solved by ARPACK.
    """

    energy: float
    vector: np.ndarray
    residual: float
    iterations: int
    method: str
    gap: float
    near_degenerate: bool = False


def _as_matrix(h) -> sp.csr_matrix:
    if isinstance(h, SparseHamiltonian):
        return h.matrix
    return sp.csr_matrix(h)


def parity_blocks(h) -> list:
    """Basis indices of the nonempty even and odd blocks of ``h`` (in that
    order), or one slice over the whole matrix when it carries no parity."""
    if isinstance(h, SparseHamiltonian) and h.parity is not None:
        blocks = (np.flatnonzero(h.parity > 0), np.flatnonzero(h.parity < 0))
        return [idx for idx in blocks if idx.size]
    return [slice(None)]


def matrix_inf_norm(mat: sp.spmatrix) -> float:
    norm = np.abs(mat).sum(axis=1).max()
    return float(norm) if norm > 0 else 1.0


def _lower_band(mat: sp.spmatrix) -> np.ndarray:
    """The lower band of a symmetric sparse matrix in LAPACK's lower band
    storage, ab[i - j, j] = H[i, j] for i >= j, with as many rows as the
    half-bandwidth + 1. Read from the stored entries; no dense copy."""
    low = sp.tril(mat, format="coo")
    low.sum_duplicates()
    offset = low.row - low.col
    ab = np.zeros((int(offset.max(initial=0)) + 1, mat.shape[0]))
    ab[offset, low.col] = low.data
    return ab


def _band_lowest(block: sp.spmatrix, tol: float):
    """(E_0, v) of one block from its band. A diagonal block (half-bandwidth
    0) gives its smallest entry and the unit vector there, exactly. Otherwise
    E_0 comes from ``eig_banded`` and v from INVERSE_STEPS steps of inverse
    iteration at E_0 - INVERSE_SHIFT*||B||_inf; ConvergenceError when the
    residual ||Bv - (v.Bv) v|| exceeds max(tol, INVERSE_SHIFT)*||B||_inf.

    The start vector is a fixed Gaussian draw (seed 0), so its overlap with
    the lowest level is generic. The all-ones vector is not: it is invariant
    under every permutation of the product spins, and on the product basis of
    the Ising ring a block's lowest level can lie outside the sector those
    permutations fix (see ``_arpack``), where inverse iteration from it never
    arrives."""
    ab = _lower_band(block)
    if ab.shape[0] == 1:
        i = int(np.argmin(ab[0]))
        vector = np.zeros(ab.shape[1])
        vector[i] = 1.0
        return float(ab[0, i]), vector
    norm = matrix_inf_norm(block)
    energy = la.eig_banded(ab, lower=True, eigvals_only=True, select="i", select_range=(0, 0))[0]
    ab[0] -= energy - INVERSE_SHIFT * norm
    vector = np.random.default_rng(0).standard_normal(ab.shape[1])
    try:
        for _ in range(INVERSE_STEPS):
            vector = la.solveh_banded(ab, vector, lower=True)
            vector /= np.linalg.norm(vector)
    except la.LinAlgError as exc:
        raise ConvergenceError(INVERSE_STEPS, tol) from exc
    hv = block @ vector
    if np.linalg.norm(hv - (vector @ hv) * vector) > max(tol, INVERSE_SHIFT) * norm:
        raise ConvergenceError(INVERSE_STEPS, tol)
    return float(energy), vector


def _arpack(mat, k, tol, max_iter):
    """(values, vectors, matvecs) of the k lowest eigenpairs by ARPACK from
    the all-ones start vector, each with residual below tol * ||H||_inf.

    ARPACK stops at a Ritz residual <= tol' * max(|theta|, eps^(2/3)): far
    below the contract near theta = 0, and on diag(0, 1, ..., 2999) it
    returns 1, missing the zero level. On H + 2||H||_inf the spectrum lies in
    [||H||_inf, 3||H||_inf], so tol' = tol/30 stops at or below
    tol/10 * ||H||_inf, 10x under the contract. On the product-basis fig7
    points that held xi within 5.2e-12 of a dense solve (2.5e-11 at tol/3)
    for 7% more matvecs.

    The all-ones start vector is invariant under every permutation of the
    product spins. Where H commutes with some of them (the ring's
    translation and reflection; all of them in the ideal model), the Krylov
    space never leaves the sector they fix, and ARPACK returns the block's
    lowest level within that sector. That is the ground state wherever the
    ground state is symmetric (for the Ising ring it lies in k = 0), but a
    block's true lowest level can lie outside it: on the product basis at
    N = 6, eta = 0.5, n_max = 50 the odd-block level returned is 0.759 above
    that block's lowest level from a dense eigh."""
    shift = 2.0 * matrix_inf_norm(mat)
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return mat @ x + shift * x

    op = spla.LinearOperator(mat.shape, matvec=matvec, dtype=float)
    try:
        w, vectors = spla.eigsh(
            op, k=k, which="SA", v0=np.ones(mat.shape[0]), tol=tol / 30.0, maxiter=max_iter
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(matvecs, tol) from exc
    return w - shift, vectors, matvecs


def ground_state(
    h,
    tol: float = DEFAULT_TOL,
    method: str = "auto",
    max_iter: int = MAX_ITERATIONS,
) -> GroundStateResult:
    """Lowest eigenpair of ``h`` (SparseHamiltonian or sparse matrix).

    Each parity block (see ``parity_blocks``) gives its lowest eigenpair:
    method "auto" solves a block of dim <= DENSE_DIM_LIMIT directly on its
    band (``_band_lowest``) and uses ARPACK (at ``tol``, at most ``max_iter``
    restarts) above; "dense"/"lanczos" force the path. The ground state is the lower block's
    vector lifted to the full basis. When the two blocks' lowest levels lie
    within 1e-8 (a near-degenerate parity doublet) the even block's state is
    taken, so the pick is deterministic. The residual satisfies
    ||Hv - Ev|| <= tol * ||H||_inf, and the eigenvector sign is fixed so the
    largest-magnitude component is positive.
    """
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    mat = _as_matrix(h)
    blocks = parity_blocks(h)
    lowest, matvecs, used_arpack = [], 0, False
    for idx in blocks:
        block = mat[idx][:, idx]
        dim = block.shape[0]
        if method == "dense" or dim < 2 or (method == "auto" and dim <= DENSE_DIM_LIMIT):
            lowest.append(_band_lowest(block, tol))
        else:
            w, v, count = _arpack(block, 1, tol, max_iter)
            matvecs += count
            used_arpack = True
            lowest.append((float(w[0]), v[:, 0]))

    gap = abs(lowest[1][0] - lowest[0][0]) if len(lowest) > 1 else np.inf
    near_degenerate = gap < NEAR_DEGENERATE_GAP
    pick = 0 if near_degenerate else int(np.argmin([e for e, _ in lowest]))
    vector = np.zeros(mat.shape[0])
    vector[blocks[pick]] = lowest[pick][1] / np.linalg.norm(lowest[pick][1])
    if vector[np.argmax(np.abs(vector))] < 0:
        vector = -vector
    hv = mat @ vector
    energy = float(vector @ hv)
    residual = float(np.linalg.norm(hv - energy * vector))
    return GroundStateResult(
        energy=energy,
        vector=vector,
        residual=residual,
        iterations=matvecs,
        method="lanczos" if used_arpack else "dense",
        gap=gap,
        near_degenerate=near_degenerate,
    )


def lowest_eigenvalues(h, k: int, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITERATIONS) -> np.ndarray:
    """The k lowest eigenvalues of the whole matrix: from its band up to
    DENSE_DIM_LIMIT (or when k is the full dim), ARPACK above."""
    mat = _as_matrix(h)
    dim = mat.shape[0]
    if k < 1 or k > dim:
        raise ValueError(f"k must be in 1..{dim}")
    if dim <= DENSE_DIM_LIMIT or k == dim:
        return la.eig_banded(
            _lower_band(mat), lower=True, eigvals_only=True, select="i", select_range=(0, k - 1)
        )
    return np.sort(_arpack(mat, k, tol, max_iter)[0])
