"""Tensor-space utilities: Kronecker products, slot swap and embeddings, windows.

Slot convention: the FIRST Kronecker factor is the LEFTMOST tensor slot.
Every index convention in the package (slot swap, R-matrix slot embeddings,
multi-site windows) agrees with this ordering.
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


def total_window_projector(dim: int, sites: int, raise_degree: int) -> np.ndarray:
    """Diagonal 0/1 projector keeping multi-indices with total level <= dim-1-raise_degree.

    Identities built from total-level-conserving R-matrix summands, or from
    coproduct images raising the total level by at most raise_degree, are
    exact on this subspace of the truncated tensor power.
    """
    if not 0 <= raise_degree < dim:
        raise ValueError(f"raise_degree must lie in [0, {dim}), got {raise_degree}")
    cut = dim - 1 - raise_degree
    levels = np.arange(dim)
    total = levels.copy()
    for _ in range(sites - 1):
        total = (total[:, None] + levels[None, :]).reshape(-1)
    return np.diag((total <= cut).astype(complex))


def windowed_norm(mat: np.ndarray, projector: np.ndarray) -> float:
    """Spectral norm of mat restricted to window states (right multiplication)."""
    return float(np.linalg.norm(mat @ projector, 2))
