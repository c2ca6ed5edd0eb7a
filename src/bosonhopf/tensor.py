"""Tensor-space utilities: Kronecker products, slot swap and embeddings, windows.

Slot convention: the FIRST Kronecker factor is the LEFTMOST tensor slot.
Every index convention in the package (slot swap, R-matrix slot embeddings,
multi-site windows) agrees with this ordering.

Windowed norms select the window columns by mask rather than multiplying
by the dense projector; an exactly-zero residual reports 0.0 without an
SVD.  Given the level-sector index of its space (:func:`level_sectors`), an
operator whose nonzero entries all shift the total level by one amount is
block diagonal up to a permutation: column sector L maps into row sector
L + shift only.  Its norm is then the largest singular value of a batch of
sector blocks.  Any other operator, or a call without the index, takes the
SVD of its nonzero rows and window columns.  Multi-site checks whose window
keeps only some columns build just those columns of a Kronecker product
with kron_columns, entry for entry the same as the full product's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

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


def kron_columns(mats, cols) -> np.ndarray:
    """The columns ``cols`` of ``kron_all(*mats)``, without the other columns.

    Column ``(i, j, ...)`` is ``mats[0][:, i] x mats[1][:, j] x ...``,
    multiplied in the order of :func:`kron_all`, so each entry is
    bit-identical to the full product's.  Each factor's column count comes
    from its shape, so the factors may differ in size.
    """
    idx = np.unravel_index(cols, tuple(m.shape[1] for m in mats))
    out = mats[0][:, idx[0]]
    for m, i in zip(mats[1:], idx[1:]):
        out = (out[:, None, :] * m[:, i][None, :, :]).reshape(
            out.shape[0] * m.shape[0], len(cols))
    return out


def swap_matrix(dim: int) -> np.ndarray:
    """Permutation matrix exchanging the two slots of a dim x dim two-site space."""
    s = np.zeros((dim * dim, dim * dim))
    for i, j in product(range(dim), repeat=2):
        s[j * dim + i, i * dim + j] = 1.0
    return s


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

    level: np.ndarray
    index: np.ndarray
    size: np.ndarray
    valid: np.ndarray


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
    return LevelSectors(total, index, size, valid)


def window_mask(dim: int, sites: int, raise_degree: int) -> np.ndarray:
    """Boolean vector over multi-indices: True where total level <= dim-1-raise_degree.

    Identities built from total-level-conserving R-matrix summands, or from
    coproduct images raising the total level by at most raise_degree, are
    exact on this subspace of the truncated tensor power.
    """
    if not 0 <= raise_degree < dim:
        raise ValueError(f"raise_degree must lie in [0, {dim}), got {raise_degree}")
    return level_sectors(dim, sites).level <= dim - 1 - raise_degree


def total_window_projector(dim: int, sites: int, raise_degree: int) -> np.ndarray:
    """Diagonal 0/1 projector onto the states of :func:`window_mask`."""
    return np.diag(window_mask(dim, sites, raise_degree).astype(complex))


def spectral_norm(mat: np.ndarray, cols=None, sectors: LevelSectors | None = None) -> float:
    """Spectral norm of mat, or of its columns ``cols``.

    A matrix without a nonzero entry (on those columns) reports 0.0 without
    an SVD.  With ``sectors``, the level-sector index of mat's space, and
    every nonzero entry shifting the total level by the same amount, the
    norm is the largest singular value over the sector blocks
    (:func:`_sector_norm`).  Otherwise it is the SVD of the nonzero rows and
    columns only: all-zero rows and columns carry no singular value, so
    dropping them is exact.  The zero pattern is read before anything is
    copied.
    """
    cols = np.arange(mat.shape[1]) if cols is None else np.asarray(cols)
    nonzero = (mat != 0)[:, cols]
    if not nonzero.any():
        return 0.0
    if sectors is not None:
        norm = _sector_norm(mat, cols, sectors, nonzero)
        if norm is not None:
            return norm
    rows = np.flatnonzero(nonzero.any(axis=1))
    return float(np.linalg.norm(mat[np.ix_(rows, cols[nonzero.any(axis=0)])], 2))


def _sector_norm(mat: np.ndarray, cols: np.ndarray, sectors: LevelSectors,
                 nonzero: np.ndarray) -> float | None:
    """Norm of the columns ``cols`` of mat by one batched SVD of its sector
    blocks, or None when its nonzero entries there (``nonzero``, the zero
    pattern of those columns) shift the total level by more than one amount.

    The shift is read off the first nonzero entry.  Block L holds row sector
    L + shift against column sector L, for each column sector with a kept
    column; padding and columns outside ``cols`` are zeroed, which adds no
    singular value.  Every entry of the kept columns with that shift lands in
    exactly one block, so the blocks hold all nonzero entries exactly when
    they hold as many as ``nonzero`` counts.
    """
    row, at = divmod(int(np.argmax(nonzero)), len(cols))
    shift = int(sectors.level[row] - sectors.level[cols[at]])
    keep = np.zeros(mat.shape[1], dtype=bool)
    keep[cols] = True
    top = sectors.size.size - 1
    col_level = np.arange(max(0, -shift), min(top, top - shift) + 1)
    col_ok = sectors.valid[col_level] & keep[sectors.index[col_level]]
    live = col_ok.any(axis=1)
    col_level, row_level = col_level[live], col_level[live] + shift
    width_in = sectors.size[col_level].max()
    width_out = sectors.size[row_level].max()
    col_idx = sectors.index[col_level, :width_in]
    row_idx = sectors.index[row_level, :width_out]
    ok = sectors.valid[row_level, :width_out, None] & col_ok[live, None, :width_in]
    blocks = np.where(ok, mat[row_idx[:, :, None], col_idx[:, None, :]], 0)
    if np.count_nonzero(blocks) != np.count_nonzero(nonzero):
        return None
    if blocks.shape[1:] == (1, 1):   # one-site sectors: the modulus is the singular value
        return float(np.abs(blocks).max())
    return float(np.linalg.svd(blocks, compute_uv=False).max())


def windowed_norm(mat: np.ndarray, projector: np.ndarray,
                  sectors: LevelSectors | None = None) -> float:
    """Spectral norm of mat restricted to window states (right multiplication).

    The window columns are the projector's nonzero diagonal entries, the
    same as ``mat @ projector`` for a 0/1 diagonal projector, and the norm is
    taken by :func:`spectral_norm` on those columns without forming the
    product, through the sector blocks when ``sectors`` is given.
    """
    return spectral_norm(mat, np.flatnonzero(projector.diagonal()), sectors)
