"""Ground-state solver: deterministic Lanczos with full reorthogonalization,
dense fallback for small problems.

The Lanczos start vector is fixed (normalized all-ones), so results are
bitwise reproducible for a fixed thread configuration. Full
reorthogonalization (two Gram-Schmidt passes per step) keeps the Krylov basis
orthonormal to rounding, which is what makes the low Ritz values trustworthy
without restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .hamiltonians import SparseHamiltonian

DENSE_DIM_LIMIT = 2048
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 5000
NEAR_DEGENERATE_GAP = 1e-8
_CHECK_EVERY = 5


class ConvergenceError(RuntimeError):
    """Lanczos failed to converge within the iteration cap."""

    def __init__(self, iterations: int, best_residual: float, tolerance: float):
        self.iterations = iterations
        self.best_residual = best_residual
        self.tolerance = tolerance
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"best residual {best_residual:.3e} > tolerance {tolerance:.3e}"
        )


@dataclass
class GroundStateResult:
    """Lowest eigenpair of a real-symmetric matrix.

    residual is ||H v - E v||_2; gap is the distance to the next (Ritz)
    eigenvalue. near_degenerate marks gaps below 1e-8, in which case the
    vector has been parity-projected when a parity diagonal was supplied.
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


def matrix_inf_norm(mat: sp.spmatrix) -> float:
    norm = np.abs(mat).sum(axis=1).max()
    return float(norm) if norm > 0 else 1.0


def _fix_sign(v: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        return -v
    return v


def _lanczos(mat, hnorm, tol, max_iter, k):
    """Return (values[k], vectors[dim, k], iterations) for the k lowest
    eigenpairs. Residual bound per Ritz pair: beta_m * |last Ritz row|."""
    dim = mat.shape[0]
    max_iter = min(max_iter, dim)
    cap = min(128, max_iter)
    basis = np.empty((cap, dim))

    q = np.full(dim, 1.0 / np.sqrt(dim))
    basis[0] = q
    r = mat @ q
    alphas = [float(q @ r)]
    betas: list[float] = []
    r = r - alphas[0] * q

    target = 0.5 * tol * hnorm
    m = 1
    exhausted = False
    while m < max_iter:
        # full reorthogonalization, two passes
        for _ in range(2):
            r -= basis[:m].T @ (basis[:m] @ r)
        beta = float(np.linalg.norm(r))
        if beta <= 1e-14 * hnorm:
            exhausted = True  # invariant subspace: Ritz pairs are exact
            break
        if m == cap:
            cap = min(max_iter, 2 * cap)
            grown = np.empty((cap, dim))
            grown[:m] = basis[:m]
            basis = grown
        q = r / beta
        basis[m] = q
        betas.append(beta)
        r = mat @ q - beta * basis[m - 1]
        alphas.append(float(q @ r))
        r = r - alphas[-1] * q
        m += 1
        if m >= k + 1 and (m % _CHECK_EVERY == 0 or m == max_iter):
            beta_next = float(np.linalg.norm(r))
            w, y = la.eigh_tridiagonal(
                np.asarray(alphas),
                np.asarray(betas),
                select="i",
                select_range=(0, min(k, m) - 1),
            )
            bounds = beta_next * np.abs(y[-1, :])
            if bounds.max() <= target:
                break
    w, y = la.eigh_tridiagonal(
        np.asarray(alphas),
        np.asarray(betas),
        select="i",
        select_range=(0, min(k, m) - 1),
    )
    vectors = basis[:m].T @ y
    if not exhausted and m >= max_iter:
        # explicit residual of the lowest pair for the error report
        v = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
        resid = float(np.linalg.norm(mat @ v - (v @ (mat @ v)) * v))
        if resid > tol * hnorm:
            raise ConvergenceError(m, resid, tol * hnorm)
    return w, vectors, m


def ground_state(
    h,
    tol: float = DEFAULT_TOL,
    parity_diag: np.ndarray | None = None,
    method: str = "auto",
    max_iter: int = MAX_ITERATIONS,
) -> GroundStateResult:
    """Lowest eigenpair of ``h`` (SparseHamiltonian or sparse matrix).

    method "auto" uses a dense full decomposition for dim <= 2048 and Lanczos
    above; "dense"/"lanczos" force the path. The residual satisfies
    ||Hv - Ev|| <= tol * ||H||_inf, and the eigenvector sign is fixed so the
    largest-magnitude component is positive.

    Near-degenerate ground states (gap < 1e-8) are flagged; when a parity
    diagonal is known (``parity_diag``, else ``h.parity``) the deterministic
    parity-even combination is selected by projection (falling back to odd if
    the even part vanishes).
    """
    if parity_diag is None and isinstance(h, SparseHamiltonian):
        parity_diag = h.parity
    mat = _as_matrix(h)
    dim = mat.shape[0]
    hnorm = matrix_inf_norm(mat)
    if method == "auto":
        method = "dense" if dim <= DENSE_DIM_LIMIT else "lanczos"
    if method == "dense":
        n_low = min(2, dim)
        w, vectors = la.eigh(mat.toarray(), subset_by_index=[0, n_low - 1])
        iterations = 0
    elif method == "lanczos":
        w, vectors, iterations = _lanczos(mat, hnorm, tol, max_iter, k=min(2, dim))
    else:
        raise ValueError(f"unknown method {method!r}")

    energy = float(w[0])
    vector = np.asarray(vectors[:, 0], dtype=float)
    vector /= np.linalg.norm(vector)
    gap = float(w[1] - w[0]) if len(w) > 1 else np.inf
    near_degenerate = gap < NEAR_DEGENERATE_GAP

    if near_degenerate and parity_diag is not None:
        even = vector * (parity_diag > 0)
        norm_even = np.linalg.norm(even)
        if norm_even > 1e-6:
            vector = even / norm_even
        else:
            odd = vector * (parity_diag < 0)
            vector = odd / np.linalg.norm(odd)

    vector = _fix_sign(vector)
    hv = mat @ vector
    energy = float(vector @ hv)
    residual = float(np.linalg.norm(hv - energy * vector))
    return GroundStateResult(
        energy=energy,
        vector=vector,
        residual=residual,
        iterations=iterations,
        method=method,
        gap=gap,
        near_degenerate=near_degenerate,
    )


def lowest_eigenvalues(h, k: int, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITERATIONS) -> np.ndarray:
    """The k lowest eigenvalues (dense below the size cutoff, Lanczos above)."""
    mat = _as_matrix(h)
    dim = mat.shape[0]
    if k < 1 or k > dim:
        raise ValueError(f"k must be in 1..{dim}")
    if dim <= DENSE_DIM_LIMIT:
        return la.eigh(mat.toarray(), eigvals_only=True, subset_by_index=[0, k - 1])
    w, _, _ = _lanczos(mat, matrix_inf_norm(mat), tol, max_iter, k=k)
    return w[:k]
