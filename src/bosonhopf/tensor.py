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
optionally on the column sectors up to a window's top level only; products,
sums, functional calculus on a diagonal and the norm (the largest singular
value of one batched SVD) then work on the blocks, between sector operators
only.  A dense matrix that mixes level shifts (an ``eval`` expression such as
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
    ``valid`` marks them.
    """

    dim: int
    sites: int
    level: np.ndarray
    index: np.ndarray
    size: np.ndarray
    valid: np.ndarray
    _plans: dict = field(default_factory=dict, compare=False, repr=False)

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
    sides; ``flat_rows``/``flat_cols`` are the dense positions of the
    ``ok`` entries, in the order ``blocks[ok]`` lists them, and ``kept[L]``
    marks the real columns of column sector ``L`` when ``L + shift`` is a
    level.  ``row_sites[s]``/``col_sites[s]`` are the block entries' row
    and column indices on site ``s``.
    """

    rows: np.ndarray
    cols: np.ndarray
    ok: np.ndarray
    flat_rows: np.ndarray
    flat_cols: np.ndarray
    kept: np.ndarray
    row_sites: tuple
    col_sites: tuple

    @classmethod
    def build(cls, sectors: LevelSectors, shift: int, levels: int) -> "_ShiftPlan":
        row_level = np.arange(levels) + shift
        inside = (row_level >= 0) & (row_level < sectors.size.size)
        row_level = np.clip(row_level, 0, sectors.size.size - 1)
        width = max(sectors.size[:levels].max(initial=1),
                    sectors.size[row_level[inside]].max(initial=1))
        rows = sectors.index[row_level, :width]
        cols = sectors.index[:levels, :width]
        kept = sectors.valid[:levels, :width] & inside[:, None]
        ok = ((sectors.valid[row_level, :width] & inside[:, None])[:, :, None]
              & sectors.valid[:levels, None, :width])
        flat_rows = np.broadcast_to(rows[:, :, None], ok.shape)[ok]
        flat_cols = np.broadcast_to(cols[:, None, :], ok.shape)[ok]
        site_shape = (sectors.dim,) * sectors.sites
        return cls(rows, cols, ok, flat_rows, flat_cols, kept,
                   np.unravel_index(rows[:, :, None], site_shape),
                   np.unravel_index(cols[:, None, :], site_shape))


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
    for arr in (total, index, size, valid):
        arr.flags.writeable = False
    return LevelSectors(dim, sites, total, index, size, valid)


def _level_shift(mat: np.ndarray, dim: int, sites: int):
    """The level shift of every nonzero entry of a matrix on ``sites`` sites
    (0 when it has none), or None when they differ: the shift of the first
    nonzero entry, kept when its blocks hold every nonzero entry."""
    sectors, nonzero = level_sectors(dim, sites), mat != 0
    row, col = divmod(int(nonzero.argmax()), mat.shape[1])
    shift = int(sectors.level[row] - sectors.level[col])
    plan = sectors.plan(shift)
    held = np.count_nonzero(nonzero[plan.flat_rows, plan.flat_cols])
    return shift if held == np.count_nonzero(nonzero) else None


@dataclass(eq=False)
class SectorOperator:
    """An operator that shifts the total level by the one amount ``shift``,
    kept as its level-sector blocks.

    ``blocks[L]`` maps column sector ``L`` into row sector ``L + shift`` of
    ``sectors``, padded as in :class:`LevelSectors`; padding, and the blocks
    whose row sector is not a level, are zero.  One gathered for a window
    holds, and is known on, the column sectors up to its top level only.
    ``@``, ``+``, ``-``, ``abs`` and scalar ``*`` work block by block, on
    sector operators only; a sum of nonzero operators of different shifts
    raises ValueError.  ``shape`` is the dense shape.
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
        for mat, (first, *rest) in factors:
            row, col = plan.row_sites[first], plan.col_sites[first]
            for site in rest:
                row = row * sectors.dim + plan.row_sites[site]
                col = col * sectors.dim + plan.col_sites[site]
            blocks = mat[row, col] if blocks is None else blocks * mat[row, col]
        blocks[~plan.ok] = 0
        return cls(sectors, shift, blocks)

    def to_dense(self) -> np.ndarray:
        plan = self._plan()
        out = np.zeros(self.shape, dtype=self.blocks.dtype)
        out[plan.flat_rows, plan.flat_cols] = self.blocks[plan.ok]
        return out

    def scale_rows(self, diag: np.ndarray) -> "SectorOperator":
        """``diag(diag) @ self`` for a diagonal of the dense space, formed
        entry by entry: each entry times its row's value."""
        return self._like(self.shift, self.blocks * diag[self._plan().rows][:, :, None])

    def _like(self, shift: int, blocks: np.ndarray) -> "SectorOperator":
        return SectorOperator(self.sectors, shift, blocks)

    def __matmul__(self, other):
        if not isinstance(other, SectorOperator):
            return NotImplemented
        s, n = other.shift, self.sectors.size.size
        # other's column sector L maps into sector L + s, whose columns self
        # must hold; a window operator holds only its lowest ones
        levels = len(other.blocks)
        if len(self.blocks) < n:
            levels = max(0, min(levels, len(self.blocks) - s))
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
        ``top``: the largest singular value of one batched SVD over the
        blocks of the live column sectors, each trimmed to the widest live
        row and column sector.  Exactly 0.0 when those blocks are all zero;
        the largest modulus when they are 1x1 (one site).
        """
        kept = self._plan().kept[:_window_levels(top)]
        if self.blocks.shape[1] == 1:   # one-site sectors: the modulus is the singular value
            return float(np.abs(self.blocks[:len(kept), 0, 0][kept[:, 0]]).max(initial=0.0))
        live = np.flatnonzero(kept.any(axis=1))
        if not live.size:
            return 0.0
        sec = self.sectors
        width_in = sec.size[live].max()
        width_out = sec.size[live + self.shift].max()
        blocks = self.blocks[live, :width_out, :width_in]
        if not blocks.any():
            return 0.0
        return float(np.linalg.svd(blocks, compute_uv=False).max())


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
