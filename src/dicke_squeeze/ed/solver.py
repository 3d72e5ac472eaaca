"""Ground-state solver over the conserved-parity blocks of the Hamiltonian.

A SparseHamiltonian is solved block by block (even, odd), each block built
from its Kronecker factors in the block's own coordinates
(``SparseHamiltonian.parity_blocks``). Each block's lowest eigenpair comes
from a direct solve on its band up to DENSE_DIM_LIMIT and from ARPACK's
implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``) above it, on a
CSR matrix built from the block's entries at each call. The flat index is
boson-major (n * spin_dim + s): the coupling links n to n +- 1 and
everything else stays inside one n, so every block is a band matrix of small
half-bandwidth b (7 for fig3 at N = 12, 10 for fig7, 14 for the
Hopfield model at n_max = 25). The direct solve reads the block in LAPACK's
band storage (``ParityBlock.band``: each term's unit band, prepared once per
layout, scaled and summed) and finds the lowest level by shifted inverse iteration
on banded Cholesky factors of B - sigma (LAPACK pbtrf/pbtrs, O(n b^2) each,
about ten per block, no dense n x n matrix), with its products taken on the
band (BLAS sbmv). A factorization succeeds only when sigma lies below every
level, so the last one certifies the level found as the block's lowest. The
direct solve is still labelled "dense". Both paths start from one fixed
seed-0 Gaussian vector, so results are bitwise reproducible for a fixed
thread configuration.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.linalg as la
from scipy.linalg import blas, lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..core import integer_at_least, real_at_least
from .hamiltonians import SparseHamiltonian, lower_band

# DENSE_DIM_LIMIT is the largest parity block solved directly on its band
# (``ParityBlock.band``). Lowest pair of one even block at
# g = 0.5 (n_max = 50, 80 at N = 96; 2 vCPUs, OpenBLAS; median of 31, of 9 at
# N = 96, in two runs; band is the half-bandwidth; banded is _band_lowest,
# eigsh as in _arpack, dense eigh is la.eigh(block.toarray(),
# subset_by_index=[0, 0])):
#
#   block dim   builder                   band   banded        eigsh         dense eigh
#     332       collective Dicke N=12       7    1.0 / 1.4     3.4 / 4.1     5.5 / 6.0 ms
#     358       Ising ring k0 N=6, eta=0   10    1.3 / 1.4     2.5 / 3.0     6.7 / 6.9 ms
#     638       collective Dicke N=24      13    1.3 / 2.0     3.4 / 7.7      23 / 24 ms
#    1250       collective Dicke N=48      25    4.3 / 5.0     6.5 / 8.3     108 / 117 ms
#    3929       collective Dicke N=96      49     25 / 29       23 / 27         -
#
# Over fig7's default eta grid (0 to 1.5 in 16 steps) both blocks take
# 3.2 [1.9-3.7] ms banded against 6.5 [4.3-8.6] ms by eigsh (median [range]).
# The banded solve costs about ten Cholesky factorizations of O(n b^2) each,
# eigsh some hundred products with the sparse block (about 5 entries a row
# here), so the band loses once b is wide: it wins by 1.3-1.7x at dim 1250
# and loses at 3929. The limit sits at the last clear win, 1250. Up to it the
# band solve is exact to rounding, while eigsh is tol-accurate (forced on fig6
# it moves xi by up to 1.0e-11).
DENSE_DIM_LIMIT = 1250
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 5000
NEAR_DEGENERATE_GAP = 1e-8

# Final shift of the banded inverse iteration, in units of ||B||_inf of the
# block: once the iterate's residual r = ||Bx - rho x|| is at most
# SWITCH_RESIDUAL*||B||_inf, the last INVERSE_STEPS steps solve
# (B - sigma) x' = x at sigma = rho - delta, delta = INVERSE_SHIFT*||B||_inf.
# The Cholesky factorization of B - sigma succeeds only when sigma < E_0, up
# to its backward error of ~(b+1)*eps*||B|| (6e-15*||B|| at b = 25, so 1e-12
# leaves a margin of ~200), and rho >= E_0: its success puts rho within delta
# of the block's lowest level. If rho is an excited level, or more than delta
# above E_0, it fails and the iteration goes on. At the switch rho - E_0 is at
# most r^2/gap, so sigma lies in [E_0 - delta, E_0) and each final step
# scales an excited component against the ground one by at most
# delta/(lambda_i - E_0 + delta) <= delta/gap: 1e-12 over the two steps for a
# pair split by 1e-6*||B|| (the tests hold it to 1e-12 there). The same scale
# is the least residual the direct solve is held to: a rounded eigenvector
# already has ||Bv - Ev|| up to ~sqrt(n)*(2b+2)*eps*||B||, 2e-13 at n = 400,
# b = 21, so a smaller tol is left to the caller's residual check instead of
# raising.
INVERSE_SHIFT = 1e-12
INVERSE_STEPS = 2
# Before the switch the shift is max(rho - r, last accepted shift): once r is
# below the gap, rho - r lies below E_0 and the steps converge about
# quadratically (r fell from 1.3e-6 to 2.6e-12 in one step on the fig3 N = 12
# block). At 1e-10 the iterate already meets the default residual contract,
# and the final steps certify and polish it. Switching at 1e-6 still left
# every vector within 1e-13 of a dense eigh on the blocks above and on 300
# random band matrices: a final shift above E_0 fails its factorization and
# is bisected back.
SWITCH_RESIDUAL = 1e-10
# Cap on the steps of one block, failed factorizations included. The fig3,
# fig7 and Dicke N = 24 blocks take 8-9; 300 random band matrices (dim <= 400,
# b <= 25) took a median of 12 and at most 22.
MAX_SHIFTS = 60
# Largest ||B||_inf of a block, and its inverse the smallest: the residual
# squares entries up to ||B||_inf, and inverse iteration's iterates reach
# 1/(INVERSE_SHIFT*||B||_inf) before each normalization, so past
# sqrt(DBL_MAX) ~ 1.3e154 on either side a norm overflows (or underflows) and
# every step fails. 2^400 ~ 2.6e120 keeps a wide margin.
SCALE_LIMIT = 2.0**400


class ConvergenceError(RuntimeError):
    """A solve missed its residual contract: ARPACK within the restart cap,
    or banded inverse iteration within MAX_SHIFTS steps."""

    def __init__(self, iterations: int, tolerance: float):
        self.iterations = iterations
        self.tolerance = tolerance
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"at relative tolerance {tolerance:.3e}"
        )

    def __reduce__(self):
        # args holds the message only: rebuild from the fields, so a worker
        # pool can hand the error to its parent
        return type(self), (self.iterations, self.tolerance)


@dataclasses.dataclass
class GroundStateResult:
    """Lowest eigenpair of a real-symmetric matrix.

    residual is ||H v - E v||_2 and norm is ||H||_inf, both read off the
    blocks. gap is the distance between the lowest levels the solver found
    in the two parity blocks (inf for a single block); near_degenerate marks
    gaps below 1e-8, in which case the even block's state is taken.
    iterations counts ARPACK matvecs over all blocks (0 when every block was
    solved directly). method is "dense" when every block was solved
    directly: by shifted inverse iteration on banded Cholesky factors
    (``_band_lowest``), exact to rounding and certified as the block's lowest
    level, with no dense matrix formed; "lanczos" when some block went to
    ARPACK.

    In the k = 0 ring layout (``BasisDescriptor.k0``) gap is the distance
    between the even and odd k = 0 levels.
    """

    energy: float
    vector: np.ndarray
    residual: float
    iterations: int
    method: str
    gap: float
    near_degenerate: bool = False
    norm: float = 1.0


def matrix_inf_norm(mat: sp.spmatrix) -> float:
    norm = np.abs(mat).sum(axis=1).max()
    return float(norm) if norm > 0 else 1.0


def _in_scale(norm: float) -> float:
    """``norm``, a block's ||B||_inf; ValueError outside [1/SCALE_LIMIT,
    SCALE_LIMIT], where its residual would overflow or underflow."""
    if not 1.0 / SCALE_LIMIT <= norm <= SCALE_LIMIT:
        raise ValueError(
            f"block scale ||B||_inf = {norm:.3e} overflows its residual: "
            f"outside [{1.0 / SCALE_LIMIT:.1e}, {SCALE_LIMIT:.1e}]"
        )
    return norm


def _lower_band(mat: sp.spmatrix) -> np.ndarray:
    """``lower_band`` of a symmetric sparse matrix, read from its stored
    entries in the order they are stored: the band a block's assembled
    entries give, which ``ParityBlock.band`` reproduces from its unit
    bands."""
    coo = mat.tocoo()
    return lower_band(coo.row, coo.col, coo.data, mat.shape[0])


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    return blas.dsbmv(ab.shape[0] - 1, 1.0, ab, x, lower=1)


@functools.lru_cache(maxsize=64)
def _start_vector(n: int) -> np.ndarray:
    """The start vector of both solves, drawn once per n and read-only (both
    solves copy it): a seed-0 Gaussian draw, whose overlap
    with every level is generic. A symmetric vector is not: the all-ones
    vector is invariant under every permutation of the product spins, so
    where H commutes with some of them the Krylov space never leaves the
    sector they fix, and levels outside it (a parity block's lowest on the
    Ising ring's product basis, excited levels of the ideal model) are
    missed."""
    vector = np.random.default_rng(0).standard_normal(n)
    vector.flags.writeable = False
    return vector


def _band_lowest(ab: np.ndarray, tol: float):
    """(E_0, v, ||B||_inf) of one block from its band ``ab``
    (``lower_band``), by shifted inverse iteration on banded Cholesky
    factors. A diagonal block (half-bandwidth 0) gives its smallest entry
    and the unit vector there, exactly.

    Every shift sigma is tried by a Cholesky factorization of B - sigma: it
    succeeds only while sigma < E_0, and a failure bisects sigma back toward
    the last accepted shift. The first shift is the Gershgorin lower bound less
    INVERSE_SHIFT*||B||_inf. Each step solves with the factor, takes the
    Rayleigh quotient rho and the residual r = ||Bx - rho x||, and moves to
    max(rho - r, last accepted shift). Once r <= SWITCH_RESIDUAL*||B||_inf it
    takes INVERSE_STEPS steps at rho - INVERSE_SHIFT*||B||_inf and returns
    rho: that factorization succeeding certifies rho as the block's lowest
    level to INVERSE_SHIFT*||B||_inf. ConvergenceError after MAX_SHIFTS steps,
    or when the residual ||Bv - (v.Bv) v|| exceeds
    max(tol, INVERSE_SHIFT)*||B||_inf; ValueError on a non-finite entry, or
    on a ||B||_inf outside [1/SCALE_LIMIT, SCALE_LIMIT].

    It starts from ``_start_vector``."""
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    n = ab.shape[1]
    # radius[i] = sum_{j != i} |B_ij|: the entries below the diagonal of
    # column i, then row i's entries left of it
    mag = np.abs(ab)
    radius = mag[1:].sum(axis=0)
    for d in range(1, ab.shape[0]):
        radius[d:] += mag[d, : n - d]
    norm = _in_scale(float(np.max(radius + mag[0])) or 1.0)
    if ab.shape[0] == 1:
        i = int(np.argmin(ab[0]))
        vector = np.zeros(n)
        vector[i] = 1.0
        return float(ab[0, i]), vector, norm
    delta = INVERSE_SHIFT * norm
    lower = float(np.min(ab[0] - radius))
    # every level lies at least norm above lower - norm: a safe floor to
    # bisect toward before any factorization has succeeded
    floor, shift, final, factor = lower - norm, lower - delta, False, None
    vector = _start_vector(n)
    for count in range(1, MAX_SHIFTS + 1):
        if factor is None or shift != floor:
            shifted = ab.copy(order="F")
            shifted[0] -= shift
            shifted, info = lapack.dpbtrf(shifted, lower=1, overwrite_ab=1)
            if info > 0:
                shift, final = 0.5 * (shift + floor), False
                continue
            if info < 0:
                raise ValueError(f"dpbtrf: illegal value in argument {-info}")
            factor, floor = shifted, shift
        for _ in range(INVERSE_STEPS if final else 1):
            vector, info = lapack.dpbtrs(factor, vector, lower=1)
            if info != 0:
                raise ValueError(f"dpbtrs: illegal value in argument {-info}")
            vector /= math.sqrt(vector @ vector)
        hv = _band_matvec(ab, vector)
        energy = float(vector @ hv)
        hv -= energy * vector
        residual = math.sqrt(hv @ hv)
        if final:
            if residual > max(tol, INVERSE_SHIFT) * norm:
                raise ConvergenceError(count, tol)
            return energy, vector, norm
        final = residual <= SWITCH_RESIDUAL * norm
        shift = energy - delta if final else max(energy - residual, floor)
    raise ConvergenceError(MAX_SHIFTS, tol)


def _arpack(mat, tol):
    """(v, ||H||_inf, matvecs) of the lowest eigenpair by ARPACK from
    ``_start_vector``, with residual below tol * ||H||_inf, in at most
    MAX_ITERATIONS restarts.

    ARPACK stops at a Ritz residual <= tol' * max(|theta|, eps^(2/3)): far
    below the contract near theta = 0, and on diag(0, 1, ..., 2999) it
    returns 1, missing the zero level. On H + 2||H||_inf the spectrum lies in
    [||H||_inf, 3||H||_inf], so tol' = tol/30 stops at or below
    tol/10 * ||H||_inf, 10x under the contract. On the product-basis fig7
    points that held xi within 5.2e-12 of a dense solve (2.5e-11 at tol/3)
    for 7% more matvecs."""
    norm = _in_scale(matrix_inf_norm(mat))
    shift, matvecs = 2.0 * norm, 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return mat @ x + shift * x

    op = spla.LinearOperator(mat.shape, matvec=matvec, dtype=float)
    try:
        _, vectors = spla.eigsh(
            op, k=1, which="SA", v0=_start_vector(mat.shape[0]), tol=tol / 30.0,
            maxiter=MAX_ITERATIONS,
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(matvecs, tol) from exc
    return vectors[:, 0], norm, matvecs


def _block_lowest(item, method: str, tol: float):
    """(index, lowest pair) of one (index, block) of ``parity_blocks``: a
    GroundStateResult in the block's coordinates, its energy, residual and
    norm taken on the operator that solved it."""
    index, block = item
    if method == "dense" or block.dim < 2 or (method == "auto" and block.dim <= DENSE_DIM_LIMIT):
        ab = block.band()
        _, v, norm = _band_lowest(ab, tol)
        apply, matvecs = functools.partial(_band_matvec, ab), 0
    else:
        csr = block.matrix()
        v, norm, matvecs = _arpack(csr, tol)
        apply = csr.dot
    v = v / np.linalg.norm(v)
    hv = apply(v)
    energy = float(v @ hv)
    residual = float(np.linalg.norm(hv - energy * v))
    path = "lanczos" if matvecs else "dense"
    return index, GroundStateResult(energy, v, residual, matvecs, path, np.inf, norm=norm)


def ground_state(
    h: SparseHamiltonian, tol: float = DEFAULT_TOL, method: str = "auto"
) -> GroundStateResult:
    """Lowest eigenpair of ``h``.

    Each parity block (``SparseHamiltonian.parity_blocks``) gives its lowest
    eigenpair: method "auto" solves a block of dim <= DENSE_DIM_LIMIT
    directly on its band (``_band_lowest``) and uses ARPACK (at ``tol``, at
    most MAX_ITERATIONS restarts) above; "dense"/"lanczos" force the path
    (a forced "dense" keeps a larger block's unit bands too). The
    ground state is the lower block's vector lifted to the full basis. When
    the two blocks' lowest levels lie within 1e-8 (a near-degenerate parity
    doublet) the even block's state is taken, so the pick is deterministic.
    The residual satisfies ||Hv - Ev|| <= tol * ||H||_inf, and the
    eigenvector sign is fixed so the largest-magnitude component is
    positive. ValueError on an unknown method, a tol that is not a finite
    number > 0, or a block whose ||B||_inf lies outside [1/SCALE_LIMIT,
    SCALE_LIMIT].
    """
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    tol = real_at_least("tol", tol, 0.0, strict=True)
    solve = functools.partial(_block_lowest, method=method, tol=tol)
    # map keeps no block once it is solved: one block's entries at a time
    lowest = list(map(solve, h.parity_blocks()))
    energies = [result.energy for _, result in lowest]
    gap = abs(energies[1] - energies[0]) if len(lowest) > 1 else np.inf
    near_degenerate = gap < NEAR_DEGENERATE_GAP
    index, pick = lowest[0 if near_degenerate else int(np.argmin(energies))]
    vector = np.zeros(h.dim)
    # the sign flip leaves the energy and residual as they are
    vector[index] = -pick.vector if pick.vector[np.argmax(np.abs(pick.vector))] < 0 else pick.vector
    return dataclasses.replace(
        pick,
        vector=vector,
        iterations=sum(result.iterations for _, result in lowest),
        method="lanczos" if any(r.method == "lanczos" for _, r in lowest) else "dense",
        gap=gap,
        near_degenerate=near_degenerate,
        norm=max(result.norm for _, result in lowest),
    )


def lowest_eigenvalues(h: SparseHamiltonian, k: int) -> np.ndarray:
    """The k lowest eigenvalues of the whole matrix, each level as often as
    its multiplicity: the k lowest of each parity block from LAPACK's band
    reduction (``eig_banded``, O(n^2 b)), merged. ValueError unless k is an
    integer in 1..dim."""
    k = integer_at_least("k", k, 1)
    if k > h.dim:
        raise ValueError(f"k must be in 1..{h.dim}")
    levels = [
        la.eig_banded(
            block.band(),
            lower=True,
            eigvals_only=True,
            select="i",
            select_range=(0, min(k, block.dim) - 1),
        )
        for _, block in h.parity_blocks()
    ]
    return np.sort(np.concatenate(levels))[:k]
