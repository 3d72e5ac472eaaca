"""Kronecker-factored operators over the truncated boson (x) spin basis.

Every ED operator, H and quadrature alike, is a ``KronSum`` of terms c B (x) S
over cached factors: B acts on the boson occupation (n, a + a', (a + a')^2,
a' - a) and S on the spin states (1, S_z, the flip, S+ - S-, the Ising ring),
or on a second boson. The spin primitives of ``operators`` carry the basis
layout, so nothing here reads it. Each term of H keeps or flips both factor
parities, (-1)^n and (-1)^(up count), so their product is conserved:
``parity_blocks`` gives each parity block in its own coordinates, and
``apply`` multiplies without a matrix; ``matrix`` assembles one on request.
H's factors are exactly symmetric, so H == H^T holds entry-for-entry.

What is prepared once per layout and what per point. The factors are cached
per boson truncation and per spin layout (``boson_factors``,
``spin_factors``, two of each), with the block each flip entry moves, which
a defect model weights. Each (left, right) factor pair keeps one record
(``_pair``) while both factors live: the places and level offsets of its
parity blocks, computed once for a first-term pair, and for each parity its
unit band U_t, the term's lower band in block coordinates with coefficient
1, prepared on first use. Each point then builds its band as sum_t c_t U_t
in term order, which is bit for bit the band of the assembled block. A
defect model's point adds two new factors, its weighted z diagonal and its
weighted flip, so it prepares those two terms' unit bands. Every unit band
is kept while both its factors live, one per term and parity of the live
factor pairs, each of (half-bandwidth + 1) x dim doubles: 196 KB for fig7's
16, 0.9 MB for the 16 of a Dicke N = 48 block of 1250 states. ARPACK blocks
(``solver``) build a CSR matrix from their triplets and ask for no band.
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from ..core import DickeParams, integer_at_least
from ..disorder import DisorderEnsemble
from .basis import BasisDescriptor
from .operators import (
    block_weights,
    boson_momentum_generator,
    boson_x,
    ising_xx_ring,
    spin_raise,
    spin_z_values,
)


class Factor:
    """One square factor of a Kronecker term, held as its entries (row, col,
    value), with the parity ``bits`` of its states (n mod 2 for a boson, the
    up-spin count mod 2 for a spin state), ``count`` of them 0 and 1."""

    def __init__(self, row, col, value, bits: np.ndarray):
        self.row, self.col, self.value, self.bits = row, col, value, bits
        self.count = np.bincount(bits, minlength=2)

    @classmethod
    def of(cls, matrix: sp.spmatrix, bits: np.ndarray) -> Factor:
        m = matrix.tocsr()
        return cls(np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data, bits)

    @classmethod
    def diagonal(cls, values: np.ndarray, bits: np.ndarray) -> Factor:
        index = np.arange(values.size)
        return cls(index, index, values, bits)

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.value, (self.row, self.col)), shape=(self.bits.size,) * 2)

    @functools.cached_property
    def is_identity(self) -> bool:
        index = np.arange(self.bits.size)
        return bool(
            np.array_equal(self.row, index)
            and np.array_equal(self.col, index)
            and (self.value == 1.0).all()
        )

    @functools.cached_property
    def groups(self) -> dict:
        """(to, from) -> (entries, row, col, row rank, col rank) of the
        entries from states of bit ``from`` to states of bit ``to``, a
        state's rank being its place among the states of its bit; the values
        are read at ``entries``."""
        bits = self.bits
        ones = np.cumsum(bits, dtype=np.int32) - bits
        rank = np.where(bits, ones, np.arange(bits.size, dtype=np.int32) - ones)
        key = 2 * bits[self.row] + bits[self.col]
        groups = {}
        for k in np.unique(key):
            entries = np.flatnonzero(key == k)
            r, c = self.row[entries], self.col[entries]
            groups[divmod(int(k), 2)] = (entries, r, c, rank[r], rank[c])
        return groups


@dataclasses.dataclass(frozen=True, eq=False)
class KronSum:
    """A real operator sum_t c_t B_t (x) S_t, held as ``terms`` of
    (c_t, B_t, S_t) ``Factor``s; the B_t share one dimension, as do the S_t."""

    terms: tuple

    @property
    def dim(self) -> int:
        return self.terms[0][1].bits.size * self.terms[0][2].bits.size

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The CSR matrix sum_t c_t kron(B_t, S_t) in term order, indices
        sorted, exact zeros dropped. No solve or ground-state observable reads
        it; the Gibbs oracle reads a quadrature's columns at each parity
        block's states, and a quadrature has about 4 entries a column."""
        total = sum(c * sp.kron(b.matrix, s.matrix, format="csr") for c, b, s in self.terms)
        total.eliminate_zeros()
        return total

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The operator times v of shape (dim,) or (dim, k), matrix-free: on v
        reshaped to (B, S, k), sum_t c_t B_t V S_t^T, summed in term order.
        An identity factor is skipped: its product is exact."""
        _, left, right = self.terms[0]
        m, n = left.bits.size, right.bits.size
        cols = v.reshape(m, n, -1)
        out = np.zeros(cols.shape)
        for coeff, b, s in self.terms:
            vs = cols
            if not s.is_identity:
                vs = s.matrix @ cols.transpose(1, 0, 2).reshape(n, -1)
                vs = vs.reshape(n, m, -1).transpose(1, 0, 2)
            if not b.is_identity:
                vs = (b.matrix @ vs.reshape(m, -1)).reshape(out.shape)
            out += coeff * vs
        return out.reshape(v.shape)


def lower_band(row, col, value, n: int) -> np.ndarray:
    """The lower band of the symmetric n x n matrix with entries (row, col,
    value) in LAPACK's lower band storage, ab[i - j, j] = H[i, j] for
    i >= j, with as many rows as the half-bandwidth + 1, Fortran-ordered for
    LAPACK. A duplicate entry is summed by bincount over the flat band index,
    in the order the entries come; no dense copy."""
    low = row >= col
    offset, col = row[low] - col[low], col[low]
    rows = int(offset.max(initial=0)) + 1
    flat = col.astype(np.int64) * rows + offset
    return np.bincount(flat, weights=value[low], minlength=rows * n).reshape(n, rows).T


def _term_entries(left: Factor, right: Factor, p: int, offset: np.ndarray):
    """(row, col, value) of the term left (x) right, coefficient 1, in the
    coordinates of parity block p: the entries of right between bits (a, b)
    pair with the entries of left between bits (a, b) xor p, at those
    levels' offsets, each value bv * sv."""
    rows, cols, values = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)], [np.zeros(0)]
    for (to, fro), (entries, _, _, r, c) in right.groups.items():
        if (to ^ p, fro ^ p) in left.groups:
            levels, i, j, _, _ = left.groups[to ^ p, fro ^ p]
            rows.append((offset[i, None] + r).ravel())
            cols.append((offset[j, None] + c).ravel())
            values.append((left.value[levels][:, None] * right.value[entries]).ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _unit_band(left: Factor, right: Factor, p: int, offset: np.ndarray) -> np.ndarray:
    """The lower band of left (x) right, coefficient 1, in parity block p."""
    return lower_band(*_term_entries(left, right, p, offset), int(offset[-1]))


# right factor -> left factor -> the pair's record (``_pair``); keyed weakly
# at both levels, so a record dies with either factor
_PAIRS = weakref.WeakKeyDictionary()


def _pair(left: Factor, right: Factor) -> SimpleNamespace:
    """What the factor pair (left, right) prepares once, made empty on first
    use: ``layouts``, the (p, index, offset) of its nonempty parity blocks
    (None until ``parity_blocks`` asks), and ``bands``, the unit band of
    each parity block whose band was asked for, by parity."""
    by_left = _PAIRS.get(right)
    if by_left is None:
        by_left = _PAIRS[right] = weakref.WeakKeyDictionary()
    record = by_left.get(left)
    if record is None:
        record = by_left[left] = SimpleNamespace(layouts=None, bands={})
    return record


@dataclasses.dataclass(frozen=True, eq=False)
class ParityBlock:
    """Parity block p of the KronSum ``terms``, in its own coordinates: level
    n of the left factor holds the states of the right factor of bit
    (n + p) mod 2, in order, from ``offset[n]`` on."""

    terms: tuple
    p: int
    offset: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.offset[-1])

    def band(self) -> np.ndarray:
        """The block's lower band (``lower_band``), sum_t c_t U_t summed in
        term order from zeros, U_t being term t's unit band: the bits of a
        band read off the assembled entries. Each U_t is prepared once and
        kept while both of the term's factors live."""
        units = [(coeff, self._unit_band(b, s)) for coeff, b, s in self.terms]
        band = np.zeros((max(u.shape[0] for _, u in units), self.dim), order="F")
        for coeff, unit in units:
            band[: unit.shape[0]] += coeff * unit
        return band

    def _unit_band(self, left: Factor, right: Factor) -> np.ndarray:
        bands = _pair(left, right).bands
        if self.p not in bands:
            unit = _unit_band(left, right, self.p, self.offset)
            unit.flags.writeable = False
            bands[self.p] = unit
        return bands[self.p]

    def matrix(self) -> sp.csr_matrix:
        """The block as a CSR matrix, built from its triplets at each call
        (the ARPACK path), each entry c_t (bv * sv), duplicates summed in
        term order."""
        return sp.csr_matrix(self._triplets(), shape=(self.dim,) * 2)

    def _triplets(self):
        # built in a call, so only the joined triplets outlive it
        rows, cols, values = [], [], []
        for coeff, b, s in self.terms:
            r, c, v = _term_entries(b, s, self.p, self.offset)
            rows.append(r)
            cols.append(c)
            values.append(coeff * v)
        return np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))


class SparseHamiltonian(KronSum):
    """A real-symmetric ``KronSum`` H. ``parity`` is the conserved (+-1)
    diagonal (-1)^n (x) (-1)^bits(S)."""

    @classmethod
    def from_matrix(cls, matrix, parity=None) -> SparseHamiltonian:
        """A plain symmetric matrix as the term 1 (x) matrix: one block, or
        the two of the (+-1) ``parity`` diagonal, whose cross entries the
        blocks drop."""
        mat = sp.csr_matrix(matrix, dtype=float)
        bits = np.zeros(mat.shape[0], np.int8) if parity is None else np.asarray(parity) < 0
        one = Factor.diagonal(np.ones(1), np.zeros(1, np.int8))
        return cls(((1.0, one, Factor.of(mat, bits.astype(np.int8))),))

    @functools.cached_property
    def parity(self) -> np.ndarray:
        return _parity(self.terms[0][1].bits.size, self.terms[0][2].bits)

    def parity_blocks(self) -> Iterator[tuple[np.ndarray, ParityBlock]]:
        """(index, block) of the nonempty even and odd blocks, in that order:
        index holds the block's places in the full basis, ascending, and
        block is H[index][:, index] as a ``ParityBlock``, which builds its
        band or CSR matrix when asked. index and the block's level offsets
        depend on the first term's two factors only: they are computed once
        per factor pair, kept while both live, and read-only."""
        _, left, right = self.terms[0]
        record = _pair(left, right)
        if record.layouts is None:
            record.layouts = _layouts(left, right)
        for p, index, offset in record.layouts:
            yield index, ParityBlock(self.terms, p, offset)


def _layouts(left: Factor, right: Factor) -> tuple:
    """(p, index, offset) of each nonempty parity block p of left (x) right,
    the arrays read-only: offset[n] is where level n of the left factor
    starts in the block, index the block's places in the full basis."""
    levels = np.arange(left.bits.size)
    layouts = []
    for p in (0, 1):
        offset = np.zeros(levels.size + 1, dtype=np.int32)
        np.cumsum(right.count[(left.bits + p) % 2], out=offset[1:])
        if offset[-1]:
            index = np.flatnonzero(((levels[:, None] + right.bits) % 2 == p).ravel())
            index.flags.writeable = offset.flags.writeable = False
            layouts.append((p, index, offset))
    return tuple(layouts)


@functools.lru_cache(maxsize=2)
def _spin_factors(spins: BasisDescriptor) -> SimpleNamespace:
    """Cached for the two spin layouts a sweep alternates between (fig3 and
    fig6 visit each at every n_max in turn); spin_dim-sized and read-only,
    so every point of the layout shares them."""
    z = spin_z_values(spins)
    # the up count S_z + N/2 is exact in floating point
    bits = ((z + 0.5 * spins.n_spins) % 2).astype(np.int8)
    # flip is R + R^T (spin_flip_total) and pm R - R^T; R raises the up
    # count, so R and R^T share no entry
    up = Factor.of(spin_raise(spins), bits)
    ring = not spins.collective and spins.n_spins > 1
    flip = _flip(up, 1.0)
    flip_block = None
    if not spins.k0:
        # an entry of R + R^T moves one block's digit: |row - col| is its stride
        stride = np.array([s for _, s in spins.blocks])
        flip_block = np.searchsorted(stride, np.abs(flip.row - flip.col))
        flip_block.flags.writeable = False
    return SimpleNamespace(
        bits=bits,
        identity=Factor.diagonal(np.ones(spins.spin_dim), bits),
        z=Factor.diagonal(z, bits),
        flip=flip,
        pm=_flip(up, -1.0),
        ring=Factor.of(ising_xx_ring(spins), bits) if ring else None,
        flip_block=flip_block,
    )


def _flip(up: Factor, sign: float) -> Factor:
    """R + sign R^T of the raise factor R."""
    return Factor(
        np.concatenate((up.row, up.col)), np.concatenate((up.col, up.row)),
        np.concatenate((up.value, sign * up.value)), up.bits,
    )


def spin_factors(basis: BasisDescriptor) -> SimpleNamespace:
    """The unit-weight spin factors of ``basis``'s spin layout, whatever its
    n_max: identity, z, flip, pm and ring (None where the layout has none),
    and ``flip_block``, the block of ``basis.blocks`` each entry of flip
    moves (None on the k = 0 ring, whose orbit sums mix the sites)."""
    return _spin_factors(dataclasses.replace(basis, n_max=0))


@functools.lru_cache(maxsize=2)
def boson_factors(n_max: int) -> SimpleNamespace:
    """identity, number, x = a + a', x2 = (a + a')^2 (squared after
    truncation) and momentum = a' - a at ``n_max``, cached like the spin
    factors."""
    bits = (np.arange(n_max + 1) % 2).astype(np.int8)
    x = boson_x(n_max)
    return SimpleNamespace(
        identity=Factor.diagonal(np.ones(n_max + 1), bits),
        number=Factor.diagonal(np.arange(n_max + 1.0), bits),
        x=Factor.of(x, bits),
        x2=Factor.of(x @ x, bits),
        momentum=Factor.of(boson_momentum_generator(n_max), bits),
    )


def two_boson_factors(n_max_a: int, n_max_b: int) -> tuple[SimpleNamespace, SimpleNamespace]:
    """The boson factors of modes a and b; ValueError, before the cache,
    unless each n_max is an integer >= 0."""
    n_max_a = integer_at_least("n_max_a", n_max_a, 0)
    n_max_b = integer_at_least("n_max_b", n_max_b, 0)
    return boson_factors(n_max_a), boson_factors(n_max_b)


def build_dicke_hamiltonian(
    p: DickeParams,
    basis: BasisDescriptor,
    disorder: DisorderEnsemble | None = None,
    eta: float = 0.0,
) -> SparseHamiltonian:
    """omega a'a + omega0 sum_i S_z^i + (g/sqrt(N)) (a+a') sum_i (S_+^i+S_-^i),
    plus a2_coeff * (a+a')^2 when present (squared after truncation).

    The coupling enters through S_+ + S_-, whose collective bosonization has
    unit weight; with this normalization the finite-size model shares the
    quadratic model's critical coupling sqrt(omega*omega0)/2.

    ``disorder`` adds its m defects after the p.n_spins = n_clean clean spins:
    defect i carries (omega'_i, g'_i) and every coupling is collectively
    normalized by 1/sqrt(N+m). Its z and flip terms are one weighted z
    diagonal (``spin_z_values``) and one flip factor, the layout's flip
    entries of nonzero weight each times its block's g: the entries of
    ``spin_flip_total`` at those weights, bit for bit. ``eta`` adds the
    nearest-neighbor ring 4J sum_n S_x^n S_x^{n+1} with J = eta*omega0,
    which breaks the permutation symmetry but keeps the translation. With no
    defects and eta = 0 this is the ideal model, built the same way. The two
    perturbations do not combine.
    """
    defects = () if disorder is None else disorder.defects
    if disorder is not None and disorder.n_clean != p.n_spins:
        raise ValueError(
            f"params specify {p.n_spins} spins but the ensemble has "
            f"n_clean={disorder.n_clean}"
        )
    if basis.n_spins != p.n_spins + len(defects):
        raise ValueError(
            f"basis holds {basis.n_spins} spins but the model needs "
            f"{p.n_spins + len(defects)}"
        )
    if defects and eta != 0.0:
        raise ValueError("the Ising ring and defects do not combine: pass one of them")
    n, spins, bosons = basis.n_spins, spin_factors(basis), boson_factors(basis.n_max)
    terms = [(p.omega, bosons.number, spins.identity)]
    if defects:
        if basis.k0:
            raise ValueError("the k = 0 ring layout needs one weight for every spin: no defects")
        # spin_z_values' and spin_flip_total's arithmetic on the layout's
        # factors; a zero-weight block's flip entries are left out, so they
        # cannot widen the band
        z = spin_z_values(basis, [p.omega0] * p.n_spins + [w for w, _ in defects])
        terms.append((1.0, bosons.identity, Factor.diagonal(z, spins.bits)))
        w = block_weights(basis, [p.g] * p.n_spins + [gp for _, gp in defects])[spins.flip_block]
        keep, flip = w != 0, spins.flip
        if keep.any():
            flip = Factor(flip.row[keep], flip.col[keep], w[keep] * flip.value[keep], flip.bits)
            terms.append((1.0 / np.sqrt(n), bosons.x, flip))
    else:
        terms.append((p.omega0, bosons.identity, spins.z))
        if p.g != 0.0:
            terms.append((p.g / np.sqrt(n), bosons.x, spins.flip))
    if p.a2_coeff != 0.0:
        terms.append((p.a2_coeff, bosons.x2, spins.identity))
    if eta != 0.0:
        # on a layout without the ring, ising_xx_ring raises why
        ring = spins.ring or Factor.of(ising_xx_ring(basis), spins.bits)
        terms.append((4.0 * eta * p.omega0, bosons.identity, ring))
    return SparseHamiltonian(tuple(terms))


def build_hopfield_hamiltonian(
    p: DickeParams, n_max_a: int, n_max_b: int
) -> SparseHamiltonian:
    """Two truncated bosons, omega0 b'b + omega a'a + g (a+a')(b+b'), plus the
    a2_coeff term on the a mode; b is the right factor. Index =
    n_a*(n_max_b+1) + n_b. Carries the conserved parity (-1)^(n_a + n_b).
    ValueError unless each n_max is an integer >= 0."""
    a, b = two_boson_factors(n_max_a, n_max_b)
    terms = [(p.omega, a.number, b.identity), (p.omega0, a.identity, b.number)]
    if p.g != 0.0:
        terms.append((p.g, a.x, b.x))
    if p.a2_coeff != 0.0:
        terms.append((p.a2_coeff, a.x2, b.identity))
    return SparseHamiltonian(tuple(terms))


def _parity(left_dim: int, bits: np.ndarray) -> np.ndarray:
    return np.where((np.arange(left_dim)[:, None] + bits) % 2 == 0, 1.0, -1.0).ravel()


def parity_diagonal(basis: BasisDescriptor) -> np.ndarray:
    """Diagonal (+-1) of the conserved parity (-1)^(n + number of up spins).

    All Hamiltonians built here (ideal, disordered, Ising-coupled) commute
    with it: the coupling flips one spin while shifting n by one, and the
    Ising term flips spins in pairs.
    """
    return _parity(basis.boson_dim, spin_factors(basis).bits)
