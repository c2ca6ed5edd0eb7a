"""Tensor-space utilities: Kronecker products, slot swap and embeddings, windows.

Slot convention: the FIRST Kronecker factor is the LEFTMOST tensor slot.
Every index convention in the package (slot swap, R-matrix slot embeddings,
multi-site windows) agrees with this ordering.

Windowed norms select the window columns by mask rather than multiplying
by the dense projector, and take the SVD of the nonzero rows and columns
only; an exactly-zero residual reports 0.0 without an SVD.  Multi-site
checks whose window keeps only some columns build just those columns of a
Kronecker product with kron_columns, entry for entry the same as the full
product's.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor leftmost."""
    return np.kron(a, b)


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
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


def window_mask(dim: int, sites: int, raise_degree: int) -> np.ndarray:
    """Boolean vector over multi-indices: True where total level <= dim-1-raise_degree.

    Identities built from total-level-conserving R-matrix summands, or from
    coproduct images raising the total level by at most raise_degree, are
    exact on this subspace of the truncated tensor power.
    """
    if not 0 <= raise_degree < dim:
        raise ValueError(f"raise_degree must lie in [0, {dim}), got {raise_degree}")
    levels = np.arange(dim)
    total = levels.copy()
    for _ in range(sites - 1):
        total = (total[:, None] + levels[None, :]).reshape(-1)
    return total <= dim - 1 - raise_degree


def total_window_projector(dim: int, sites: int, raise_degree: int) -> np.ndarray:
    """Diagonal 0/1 projector onto the states of :func:`window_mask`."""
    return np.diag(window_mask(dim, sites, raise_degree).astype(complex))


def spectral_norm(mat: np.ndarray, cols=None) -> float:
    """Spectral norm of mat, or of its columns ``cols``, by SVD of the nonzero
    rows and columns only.

    All-zero rows and columns carry no singular value, so dropping them is
    exact; a matrix without a nonzero entry reports 0.0 without an SVD.  The
    zero pattern is read before anything is copied, so the SVD input is the
    only copy of the matrix made.
    """
    cols = np.arange(mat.shape[1]) if cols is None else np.asarray(cols)
    nonzero = (mat != 0)[:, cols]
    rows = np.flatnonzero(nonzero.any(axis=1))
    if rows.size == 0:
        return 0.0
    return float(np.linalg.norm(mat[np.ix_(rows, cols[nonzero.any(axis=0)])], 2))


def windowed_norm(mat: np.ndarray, projector: np.ndarray) -> float:
    """Spectral norm of mat restricted to window states (right multiplication).

    The window columns are the projector's nonzero diagonal entries, the
    same as ``mat @ projector`` for a 0/1 diagonal projector, and the norm is
    taken by :func:`spectral_norm` on those columns without forming the
    product.
    """
    return spectral_norm(mat, np.flatnonzero(projector.diagonal()))
