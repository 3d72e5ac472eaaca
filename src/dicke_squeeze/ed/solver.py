"""Ground-state solver over the conserved-parity blocks of the Hamiltonian.

A SparseHamiltonian carrying its parity diagonal is solved block by block
(even, odd); any other matrix is one block. Each block's lowest eigenpair
comes from a dense ``eigh`` up to DENSE_DIM_LIMIT and from ARPACK's
implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``) above it. The
ARPACK start vector is fixed (all ones), so results are bitwise reproducible
for a fixed thread configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hamiltonians import SparseHamiltonian

# Largest parity block solved densely. Lowest pair of one even block at
# g = 0.5, n_max = 50 (2 vCPUs, OpenBLAS, median of 15; eigsh as in _arpack):
#
#   block dim   builder                   dense eigh   eigsh(k=1, tol 1e-10)
#     153       disordered N=2, m=1          1.3 ms      3.8 ms
#     255       collective Dicke N=9         4.1 ms      3.9 ms
#     357       disordered N=6, m=1          5.4 ms      4.5 ms
#     408       collective Dicke N=15       10.3 ms      4.8 ms
#     992       Ising ring N=6, n_max=30    61.4 ms      6.3 ms
#    1632       Ising ring N=6             275 ms        8.4 ms
#
# Up to the limit dense costs at most ~1 ms more and is exact to rounding;
# eigsh is tol-accurate (forced on fig6 it moves xi by up to 1.0e-11).
DENSE_DIM_LIMIT = 400
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 5000
NEAR_DEGENERATE_GAP = 1e-8


class ConvergenceError(RuntimeError):
    """ARPACK failed to converge within the restart cap."""

    def __init__(self, iterations: int, tolerance: float):
        self.iterations = iterations
        self.tolerance = tolerance
        super().__init__(
            f"no convergence after {iterations} matvecs "
            f"at relative tolerance {tolerance:.3e}"
        )


@dataclass
class GroundStateResult:
    """Lowest eigenpair of a real-symmetric matrix.

    residual is ||H v - E v||_2. gap is the distance between the lowest
    levels the solver found in the two parity blocks (inf for a single
    block); near_degenerate marks gaps below 1e-8, in which case the even
    block's state is taken. iterations counts ARPACK matvecs over all blocks
    (0 when every block was solved densely).

    On a dense solve gap is the block gap. On an ARPACK block it need not
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
    method "auto" uses a dense decomposition for block dim <= DENSE_DIM_LIMIT
    and ARPACK (at ``tol``, at most ``max_iter`` restarts) above;
    "dense"/"lanczos" force the path. The ground state is the lower block's
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
            w, v = la.eigh(block.toarray(), subset_by_index=[0, 0])
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
    """The k lowest eigenvalues of the whole matrix: dense up to
    DENSE_DIM_LIMIT (or when k is the full dim), ARPACK above."""
    mat = _as_matrix(h)
    dim = mat.shape[0]
    if k < 1 or k > dim:
        raise ValueError(f"k must be in 1..{dim}")
    if dim <= DENSE_DIM_LIMIT or k == dim:
        return la.eigh(mat.toarray(), eigvals_only=True, subset_by_index=[0, k - 1])
    return np.sort(_arpack(mat, k, tol, max_iter)[0])
