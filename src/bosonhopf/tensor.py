"""Tensor-space utilities: Kronecker products, slot swap and embeddings, windows.

Slot convention: the FIRST Kronecker factor is the LEFTMOST tensor slot.
Every index convention in the package (slot swap, R-matrix slot embeddings,
multi-site windows) agrees with this ordering.

A validity window is one number, its top level: an identity of raising
degree k is exact on the states of total level up to ``dim - 1 - k``, and
every windowed norm passes that top to :func:`spectral_norm`; an
exactly-zero residual reports 0.0 without an SVD.  Given the level-sector
index of its space (:func:`level_sectors`), an operator whose nonzero
entries all shift the total level by one amount is block diagonal up to a
permutation: column sector L maps into row sector L + shift only.
:class:`SectorOperator` keeps such an operator as those blocks, built from a
dense matrix or gathered straight from the factors of a tensor product on
any number of sites (one factor may act on a slot pair, as R13 does),
optionally on the column sectors up to a window's top level only: each
factor's entries for all blocks are one ``take`` of a flat index that the
shift's plan keeps per slot tuple.  Products, sums, functional calculus on
a diagonal and the norm then work on the blocks, between sector operators
only.  The norm is the largest singular value over the blocks, found by
factoring them one at a time in descending order of a certified bound
until no bound left exceeds it: the value one batched SVD of all the
blocks gives, bit for bit, at the cost of one or a few small SVDs.  An
operator built one column level at a time, never whole, is normed as its
blocks come (:class:`StreamedNorm`), with the same bound deciding which
blocks to factor; a series whose term t moves the level by t is read at any
entry of a block from its stacked terms (:class:`SectorStack`).  A
dense matrix that mixes level shifts (an ``eval`` expression such as
``a + ad``) has no blocks: its norm is the SVD of its nonzero rows and window
columns.  The dense products (kron_all, embed_two_site, swap_matrix, and
kron, which the expression language also calls) and the dense window oracle
(total_window_projector, windowed_norm) serve the tests and trace targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor leftmost.

    Entry ``(i k, j l)`` is the one product ``a[i, j] * b[k, l]``, as in
    ``np.kron``, so the result is bit-identical to it.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def swap_matrix(dim: int) -> np.ndarray:
    """Permutation matrix exchanging the two slots of a dim x dim two-site space."""
    return np.eye(dim * dim)[np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)]


def embed_two_site(r: np.ndarray, slots: tuple, sites: int, site_dim: int) -> np.ndarray:
    """Place a two-site operator into the given ordered slot pair of an n-site space.

    embed_two_site(R, (0, 2), 3, D) is the usual R13.
    """
    i, j = slots
    if i == j or not (0 <= i < sites and 0 <= j < sites):
        raise ValueError(f"bad slot pair {slots} for {sites} sites")
    d = site_dim
    t = r.reshape(d, d, d, d)  # [out_i, out_j, in_i, in_j]
    # Represent the n-site operator as a 2n-index tensor and insert r on (i, j).
    letters = "abcdefgh"
    outs = letters[:sites]
    ins = letters[sites:2 * sites]
    spec_in = f"{outs[i]}{outs[j]}{ins[i]}{ins[j]}"
    operands = [t]
    spec_parts = [spec_in]
    eye = np.eye(d)
    for k in range(sites):
        if k in (i, j):
            continue
        operands.append(eye)
        spec_parts.append(f"{outs[k]}{ins[k]}")
    spec = ",".join(spec_parts) + "->" + outs + ins
    tens = np.einsum(spec, *operands)
    return tens.reshape(d ** sites, d ** sites)


@dataclass(frozen=True)
class LevelSectors:
    """The basis of a ``sites``-fold tensor power of ``dim`` levels, grouped
    by total level.

    ``level[i]`` is the total level of basis index ``i``.  Row ``L`` of
    ``index`` lists the indices of total level ``L`` in increasing order,
    padded with 0 to a common width; ``size[L]`` of them are real and
    ``valid`` marks them.  ``position[i]`` is the place of basis index ``i``
    in its level's row: its row and column in that level's block.
    """

    dim: int
    sites: int
    level: np.ndarray
    index: np.ndarray
    size: np.ndarray
    valid: np.ndarray
    position: np.ndarray
    _plans: dict = field(default_factory=dict, compare=False, repr=False)

    def states(self, level: int) -> np.ndarray:
        """The basis indices of total level ``level`` in increasing order
        (none when it is not a level)."""
        if not 0 <= level < self.size.size:
            return self.index[0, :0]
        return self.index[level, :self.size[level]]

    def site_levels(self, level: int) -> tuple:
        """The level on each site of the states of total level ``level``, in
        the order of :meth:`states`: one array per site."""
        return np.unravel_index(self.states(level), (self.dim,) * self.sites)

    def plan(self, shift: int, levels: int | None = None) -> "_ShiftPlan":
        """The gather pattern of level shift ``shift`` on column levels below ``levels``."""
        levels = self.size.size if levels is None else min(levels, self.size.size)
        plan = self._plans.get((shift, levels))
        if plan is None:
            plan = self._plans[shift, levels] = _ShiftPlan.build(self, shift, levels)
        return plan


@dataclass(frozen=True)
class _ShiftPlan:
    """Where the blocks of one level shift on column sectors ``0 .. levels-1``
    sit in the dense matrix.

    ``rows[L]`` is row sector ``L + shift`` (index row 0 when that is not a
    level) and ``cols[L]`` column sector ``L``, padded to the largest sector
    either reaches; ``ok[L]`` marks the block entries that are real on both
    sides and ``pad`` the others; ``flat_rows``/``flat_cols`` are the dense
    positions of the ``ok`` entries, in the order ``blocks[ok]`` lists them.
    ``row_sites[s]``/``col_sites[s]`` are the block entries' row and column
    indices on site ``s``.
    """

    rows: np.ndarray
    cols: np.ndarray
    ok: np.ndarray
    pad: np.ndarray
    flat_rows: np.ndarray
    flat_cols: np.ndarray
    row_sites: tuple
    col_sites: tuple
    _flat: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, sectors: LevelSectors, shift: int, levels: int) -> "_ShiftPlan":
        row_level = np.arange(levels) + shift
        inside = (row_level >= 0) & (row_level < sectors.size.size)
        row_level = np.clip(row_level, 0, sectors.size.size - 1)
        width = max(sectors.size[:levels].max(initial=1),
                    sectors.size[row_level[inside]].max(initial=1))
        rows = sectors.index[row_level, :width]
        cols = sectors.index[:levels, :width]
        ok = ((sectors.valid[row_level, :width] & inside[:, None])[:, :, None]
              & sectors.valid[:levels, None, :width])
        flat_rows = np.broadcast_to(rows[:, :, None], ok.shape)[ok]
        flat_cols = np.broadcast_to(cols[:, None, :], ok.shape)[ok]
        # unravel the two-dimensional index, then add the axis: numpy 2.4's
        # unravel_index misreads an input with a length-1 axis and more
        # than 8192 entries (a three-site window from D = 26 on)
        site_shape = (sectors.dim,) * sectors.sites
        return cls(rows, cols, ok, ~ok, flat_rows, flat_cols,
                   tuple(x[:, :, None] for x in np.unravel_index(rows, site_shape)),
                   tuple(x[:, None, :] for x in np.unravel_index(cols, site_shape)))

    def flat_index(self, slots: tuple, dim: int) -> np.ndarray:
        """The flat position, in a matrix on the sites ``slots`` of ``dim``
        levels each, of every block entry's row and column indices on those
        sites: ``matrix.take`` of it reads a factor's entries for all blocks
        at once.  Built once per slot tuple and kept in the smallest integer
        type that holds it: the plans live as long as their level-sector
        index, and take reads such an index nearly as fast as a native one."""
        index = self._flat.get(slots)
        if index is None:
            row = col = 0
            for site in slots:
                row = row * dim + self.row_sites[site]
                col = col * dim + self.col_sites[site]
            index = row * dim ** len(slots) + col
            index = self._flat[slots] = index.astype(np.min_scalar_type(index.max(initial=0)))
        return index


@lru_cache(maxsize=32)
def level_sectors(dim: int, sites: int) -> LevelSectors:
    """The level-sector index of ``(dim, sites)``, built once and shared
    (its arrays are read-only)."""
    levels = np.arange(dim)
    total = levels.copy()
    for _ in range(sites - 1):
        total = (total[:, None] + levels[None, :]).reshape(-1)
    size = np.bincount(total)
    valid = np.arange(size.max())[None, :] < size[:, None]
    index = np.zeros(valid.shape, dtype=np.intp)
    index[valid] = np.argsort(total, kind="stable")
    # a scatter: an argsort here raised each run's peak RSS by about 0.3 MB
    position = np.zeros(total.size, dtype=np.intp)
    position[index[valid]] = np.nonzero(valid)[1]
    for arr in (total, index, size, valid, position):
        arr.flags.writeable = False
    return LevelSectors(dim, sites, total, index, size, valid, position)


def _level_shift(mat: np.ndarray, dim: int, sites: int):
    """The level shift of every nonzero entry of a matrix on ``sites`` sites
    (0 when it has none), or None when they differ: the offsets between the
    total levels of each nonzero entry's row and column (on one site, the
    row and column themselves)."""
    rows, cols = mat.nonzero()
    if sites > 1:
        level = level_sectors(dim, sites).level
        rows, cols = level[rows], level[cols]
    offsets = rows - cols
    shift = int(offsets[0]) if offsets.size else 0
    return shift if (offsets == shift).all() else None


@dataclass(eq=False)
class SectorOperator:
    """An operator that shifts the total level by the one amount ``shift``,
    kept as its level-sector blocks.

    ``blocks[L]`` maps column sector ``L`` into row sector ``L + shift`` of
    ``sectors``, padded as in :class:`LevelSectors`; padding, and the blocks
    whose row sector is not a level, are zero.  One gathered for a window
    holds, and is known on, the column sectors up to its top level only, and
    is a right factor of ``@`` only.  ``@``, ``+``, ``-``, ``abs`` and scalar
    ``*`` work block by block, on sector operators only; a sum of nonzero
    operators of different shifts raises ValueError.  ``+=`` adds into the
    left operand's blocks when they hold the sum, as ``+=`` on an ndarray
    does.  ``shape`` is the dense shape.
    """

    sectors: LevelSectors
    shift: int
    blocks: np.ndarray

    __array_ufunc__ = None   # an ndarray operand raises TypeError, never broadcasts

    @property
    def shape(self) -> tuple:
        n = self.sectors.level.size
        return (n, n)

    def _plan(self) -> _ShiftPlan:
        return self.sectors.plan(self.shift, len(self.blocks))

    @classmethod
    def from_dense(cls, mat: np.ndarray, sectors: LevelSectors, top: int | None = None):
        """The sector operator of mat, or of its window of column sectors up
        to ``top``: :meth:`gather` of mat as the one factor on every site,
        or None when those columns' nonzero entries shift the total level by
        more than one amount."""
        if top is not None:
            mat = np.where(sectors.level <= top, mat, 0)
        shift = _level_shift(mat, sectors.dim, sectors.sites)
        if shift is None:
            return None
        return cls._gathered([(mat, tuple(range(sectors.sites)))], sectors, shift, top)

    @classmethod
    def identity(cls, sectors: LevelSectors, dtype=float) -> "SectorOperator":
        """The identity, gathered from the one-site identity on every site."""
        eye = np.eye(sectors.dim, dtype=dtype)
        return cls.gather([(eye, (site,)) for site in range(sectors.sites)], sectors)

    @classmethod
    def gather(cls, factors, sectors: LevelSectors, top: int | None = None):
        """The tensor product of ``factors`` on the sites of ``sectors``,
        gathered straight from the factors' entries on the column sectors of
        total level up to ``top`` (every level by default).

        ``factors`` lists ``(matrix, slots)`` pairs that cover each site
        once: a one-site matrix on ``(s,)`` or a two-site one on a slot pair
        ``(s, t)`` (R13 is R on ``(0, 2)`` beside the identity on ``(1,)``),
        or a sector operator, taken as its dense scatter.  Each block entry
        is the product of the factors' entries at their sites' row and
        column indices, in the order of ``factors``: the product
        :func:`kron_all` forms, so scattered back it is bit-identical to it.
        Scale by a coefficient on the side the dense sum did: complex
        products round through fused multiply-adds, so ``c * x`` and
        ``x * c`` may differ in the last bit.  A factor whose entries mix
        level shifts has no blocks and is refused.
        """
        factors = [(mat.to_dense() if isinstance(mat, SectorOperator) else mat, slots)
                   for mat, slots in factors]
        shifts = [_level_shift(mat, sectors.dim, len(slots)) for mat, slots in factors]
        if None in shifts:
            raise ValueError("a gathered factor must shift the total level by one amount")
        return cls._gathered(factors, sectors, sum(shifts), top)

    @classmethod
    def _gathered(cls, factors, sectors: LevelSectors, shift: int, top=None):
        plan = sectors.plan(shift, _window_levels(top))
        blocks = None
        for mat, slots in factors:
            entries = mat.take(plan.flat_index(slots, sectors.dim))
            if blocks is None:
                blocks = entries
            elif np.result_type(blocks, entries) == blocks.dtype:
                blocks *= entries   # the product blocks * entries, in the array take made
            else:
                blocks = blocks * entries
        np.putmask(blocks, plan.pad, 0)
        return cls(sectors, shift, blocks)

    def to_dense(self) -> np.ndarray:
        plan = self._plan()
        out = np.zeros(self.shape, dtype=self.blocks.dtype)
        out[plan.flat_rows, plan.flat_cols] = self.blocks[plan.ok]
        return out

    def window(self, levels: int) -> "SectorOperator":
        """A copy of the operator on its column sectors below ``levels`` only."""
        if len(self.blocks) < levels:
            raise ValueError(f"the operator does not hold column sectors 0 .. {levels - 1}")
        return self._like(self.shift, self.blocks[:levels].copy())

    def scale_rows(self, diag: np.ndarray) -> "SectorOperator":
        """``diag(diag) @ self`` for a diagonal of the dense space, formed
        entry by entry: each entry times its row's value."""
        return self._like(self.shift, self.blocks * diag[self._plan().rows][:, :, None])

    def _like(self, shift: int, blocks: np.ndarray) -> "SectorOperator":
        return SectorOperator(self.sectors, shift, blocks)

    def __matmul__(self, other):
        if not isinstance(other, SectorOperator):
            return NotImplemented
        # other's column sector L maps into sector L + s, whose columns self
        # holds: a window operator is a right factor only
        s, n, levels = other.shift, self.sectors.size.size, len(other.blocks)
        out = np.zeros(self.sectors.plan(self.shift + s, levels).ok.shape,
                       dtype=np.result_type(self.blocks, other.blocks))
        lo, hi = max(0, -s), min(levels, n - s)
        if lo < hi:
            # the shared sectors fit the narrower width; the rest is padding
            inner = min(self.blocks.shape[2], other.blocks.shape[1])
            rows, cols = min(self.blocks.shape[1], out.shape[1]), min(other.blocks.shape[2], out.shape[2])
            np.matmul(self.blocks[lo + s:hi + s, :rows, :inner],
                      other.blocks[lo:hi, :inner, :cols], out=out[lo:hi, :rows, :cols])
        return self._like(self.shift + s, out)

    def _combine(self, other, op):
        if not isinstance(other, SectorOperator):
            return NotImplemented
        if other.shift == self.shift:
            return self._like(self.shift, op(self.blocks, other.blocks))
        # an all-zero operator has every shift (and any padded width)
        if not other.blocks.any():
            return self._like(self.shift, op(self.blocks, 0))
        if not self.blocks.any():
            return self._like(other.shift, op(0, other.blocks))
        raise ValueError(f"level shifts {self.shift} and {other.shift} have no common blocks")

    def __add__(self, other):
        return self._combine(other, np.add)

    def __iadd__(self, other):
        """``self + other`` written into self's blocks where it fits them
        (the same shift, padded shape and dtype); ``+`` otherwise."""
        if (isinstance(other, SectorOperator) and other.shift == self.shift
                and other.blocks.shape == self.blocks.shape
                and np.result_type(self.blocks, other.blocks) == self.blocks.dtype):
            self.blocks += other.blocks
            return self
        return NotImplemented

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __abs__(self):
        return self._like(self.shift, np.abs(self.blocks))

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return self._like(self.shift, self.blocks * scalar)

    def __rmul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return self._like(self.shift, scalar * self.blocks)

    def diagonal_map(self, fn) -> "SectorOperator":
        """``fn`` applied at once to the array of diagonal entries of a
        diagonal operator: functional calculus, as ``fock.diag_function``.

        An off-diagonal entry above 1e-12 * max(1, largest |diagonal entry|)
        rejects the operator, as there.
        """
        lev, i = np.nonzero(self.sectors.valid)
        diag = self.blocks[lev, i, i] if self.shift == 0 else np.zeros(0)
        off = self.blocks.copy()
        if self.shift == 0:
            off[lev, i, i] = 0
        if np.abs(off).max() > 1e-12 * max(1.0, np.abs(diag).max(initial=0.0)):
            raise ValueError("functional calculus requires a diagonal operator")
        out = np.zeros(self.blocks.shape, dtype=complex)
        out[lev, i, i] = fn(diag)
        return self._like(0, out)

    def norm(self, top: int | None = None) -> float:
        """Spectral norm, or that of the window of column sectors up to
        ``top``: the largest singular value over the blocks of the live
        column sectors, each trimmed to the widest live row and column
        sector.  Exactly 0.0 when those blocks are all zero; the largest
        modulus when they are 1x1 (one site).

        Each block's top singular value is at most ``sqrt(|B|_1 |B|_inf)``,
        the geometric mean of its largest column and row abs-sums; that
        bound, inflated by 1e-12 relative so that rounding never lets it
        fall below a computed singular value, orders the blocks.  They are
        factored one at a time, largest bound first, until the largest
        singular value found is at least the next bound: no block left can
        exceed it.  Each SVD is the LAPACK call a batched SVD makes on that
        padded block, so the result is the same value, bit for bit, as the
        largest singular value of one SVD over all the blocks.
        """
        # the live column sectors L: held, in the window, and L + shift a level
        sec, shift = self.sectors, self.shift
        levels = len(self.blocks) if top is None else min(len(self.blocks), _window_levels(top))
        lo, hi = max(0, -shift), min(levels, sec.size.size - shift)
        if lo >= hi:
            return 0.0
        if self.blocks.shape[1] == 1:   # one-site sectors: the modulus is the singular value
            return float(np.abs(self.blocks[lo:hi, 0, 0]).max())
        width_in = sec.size[lo:hi].max()
        width_out = sec.size[lo + shift:hi + shift].max()
        blocks = self.blocks[lo:hi, :width_out, :width_in]
        if not blocks.any():
            return 0.0
        bound = _bound(blocks)
        best = 0.0
        for i in np.argsort(-bound, kind="stable"):
            if best >= bound[i]:   # an all-zero block's bound is 0: it ends here too
                break
            best = max(best, np.linalg.svd(blocks[i], compute_uv=False)[0])
        return float(best)


def _bound(blocks: np.ndarray) -> np.ndarray:
    """``sqrt(|B|_1 |B|_inf)`` of each block B over the last two axes, an
    upper bound of its largest singular value, inflated by 1e-12 relative
    so that rounding never lets it fall below a computed singular value."""
    mags = np.abs(blocks)
    bound = np.sqrt(mags.sum(axis=-2).max(axis=-1) * mags.sum(axis=-1).max(axis=-1))
    bound *= 1.0 + 1e-12
    return bound


class StreamedNorm:
    """The spectral norm of a block-diagonal operator whose blocks are fed
    one at a time and not kept.

    ``value`` is the largest singular value over the blocks fed so far.
    :meth:`add` factors a block only when its bound (:func:`_bound`)
    exceeds ``value``, so blocks fed largest first mostly cost no SVD, and
    ``value`` stays exactly 0.0 while every block fed is zero.
    """

    def __init__(self):
        self.value = 0.0

    def add(self, block: np.ndarray) -> None:
        if block.size and _bound(block) > self.value:
            self.value = max(self.value, float(np.linalg.svd(block, compute_uv=False)[0]))


class SectorStack:
    """Sector operators of one level-sector index and one block shape,
    stacked in order: the ``t``-th is term ``t`` of a series.

    :meth:`entries` reads, at each entry of a block, the entry of the one
    term that the caller names there, straight from the stacked blocks.
    """

    def __init__(self, ops):
        self.sectors = ops[0].sectors
        self.shifts = np.array([op.shift for op in ops])
        self.blocks = np.stack([op.blocks for op in ops])

    def entries(self, term: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entry ``(i, j)`` of term ``term[i, j]``'s dense matrix at row
        ``rows[i]`` and column ``cols[j]``: 0 where ``term[i, j]`` names no
        term or that term holds nothing there."""
        sec, (count, levels, width_out, width_in) = self.sectors, self.blocks.shape
        known = np.minimum(np.maximum(term, 0), count - 1)
        col_level = sec.level[cols]
        held = ((known == term) & (col_level < levels)
                & (sec.level[rows][:, None] == col_level + self.shifts[known]))
        # clipped where nothing is held, so that every read is in bounds
        return np.where(held, self.blocks[known, np.minimum(col_level, levels - 1),
                                          np.minimum(sec.position[rows], width_out - 1)[:, None],
                                          np.minimum(sec.position[cols], width_in - 1)], 0)


def _window_levels(top: int | None) -> int | None:
    """The column sectors the window up to total level ``top`` holds (all of
    them for None); an empty one, of a raise degree at or above dim, is refused."""
    if top is not None and top < 0:
        raise ValueError(f"the validity window up to total level {top} is empty")
    return None if top is None else top + 1


def spectral_norm(mat, sectors: LevelSectors | None = None,
                  top: int | None = None) -> float:
    """Spectral norm of mat, or of its window of states of total level up
    to ``top``.

    A :class:`SectorOperator` takes its own norm.  A dense matrix without a
    nonzero entry (in the window) reports 0.0 without an SVD.  With
    ``sectors``, the level-sector index of mat's space (which a window of a
    dense matrix needs), and every nonzero window entry shifting the total
    level by the same amount, the norm is taken on its sector operator.
    Otherwise it is the SVD of the nonzero rows and window columns only:
    all-zero rows and columns carry no singular value, so dropping them is
    exact.  The zero pattern is read before anything is copied.
    """
    if isinstance(mat, SectorOperator):
        return mat.norm(top)
    levels = _window_levels(top)
    cols = slice(None) if levels is None else sectors.level < levels
    nonzero = (mat != 0)[:, cols]
    if not nonzero.any():
        return 0.0
    if sectors is not None:
        op = SectorOperator.from_dense(mat, sectors, top)
        if op is not None:
            return op.norm(top)
    return float(np.linalg.norm(
        mat[:, cols][np.ix_(nonzero.any(axis=1), nonzero.any(axis=0))], 2))


def total_window_projector(dim: int, sites: int, raise_degree: int) -> np.ndarray:
    """Dense diagonal 0/1 projector onto the states of total level up to
    ``dim - 1 - raise_degree``: the window :func:`windowed_norm` takes."""
    if not 0 <= raise_degree < dim:
        raise ValueError(f"raise_degree must lie in [0, {dim}), got {raise_degree}")
    return np.diag((level_sectors(dim, sites).level <= dim - 1 - raise_degree).astype(complex))


def windowed_norm(mat, projector: np.ndarray,
                  sectors: LevelSectors | None = None) -> float:
    """The dense oracle of a windowed norm: :func:`spectral_norm` of
    ``mat @ projector``.  The checks pass their window's top level to
    :func:`spectral_norm` instead; the tests and the benchmark's trace
    targets call this.
    """
    return spectral_norm(mat @ projector, sectors)
