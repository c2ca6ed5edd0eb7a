import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonhopf.tensor import (embed_two_site, kron, kron_all, kron_columns,
                              spectral_norm, swap_matrix, total_window_projector,
                              windowed_norm)


def _rand(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_kron_ordering():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, 10.0])
    # first factor is the leftmost slot: entries (a_ii * b_jj) in row-major order
    assert np.allclose(np.diag(kron(a, b)), [1, 10, 2, 20])
    assert np.allclose(kron_all(a, b, np.eye(2)).shape, (8, 8))


@pytest.mark.parametrize("sizes", [(3,), (9, 3), (3, 9), (2, 4, 3), (4, 1, 2)])
def test_kron_columns_is_bit_identical(sizes):
    """kron_columns equals the same columns of kron_all, entry for entry,
    for factors of different sizes (a two-site factor next to a one-site one)."""
    rng = np.random.default_rng(len(sizes) * 10 + sizes[0])
    mats = [_rand(n, int(rng.integers(1000))) for n in sizes]
    mats[-1] = mats[-1].real   # a real factor next to complex ones, as eye x R
    full = kron_all(*mats)
    for cols in (np.arange(full.shape[1]),
                 np.sort(rng.choice(full.shape[1], size=full.shape[1] // 2, replace=False)),
                 np.array([full.shape[1] - 1, 0])):
        assert np.array_equal(kron_columns(mats, cols), full[:, cols])


@given(seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_twist_swaps_factors(seed):
    # conjugating by the swap exchanges the tensor factors
    s = swap_matrix(3)
    a, b = _rand(3, seed), _rand(3, seed + 1000)
    assert np.allclose(s @ kron(a, b) @ s, kron(b, a))


def test_swap_is_involution():
    s = swap_matrix(4)
    assert np.allclose(s @ s, np.eye(16))


@given(seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_embed_two_site_slot_pairs(seed):
    a, b = _rand(2, seed), _rand(2, seed + 77)
    r = kron(a, b)
    eye = np.eye(2)
    assert np.allclose(embed_two_site(r, (0, 1), 3, 2), kron_all(a, b, eye))
    assert np.allclose(embed_two_site(r, (1, 2), 3, 2), kron_all(eye, a, b))
    assert np.allclose(embed_two_site(r, (0, 2), 3, 2), kron_all(a, eye, b))
    # reversed slot order swaps which factor acts where
    assert np.allclose(embed_two_site(r, (2, 0), 3, 2), kron_all(b, eye, a))


def test_embed_rejects_bad_slots():
    r = np.eye(4)
    with pytest.raises(ValueError):
        embed_two_site(r, (0, 0), 3, 2)
    with pytest.raises(ValueError):
        embed_two_site(r, (0, 3), 3, 2)


def test_total_window_projector_counts():
    proj = total_window_projector(4, 2, 1)
    # pairs (i, j) with i + j <= 2: (0,0),(0,1),(0,2),(1,0),(1,1),(2,0)
    assert int(np.trace(proj).real) == 6
    with pytest.raises(ValueError):
        total_window_projector(4, 2, 4)


def test_windowed_norm_masks_excluded_columns():
    mat = np.zeros((4, 4))
    mat[:, 3] = 100.0
    proj = np.diag([1.0, 1.0, 1.0, 0.0])
    assert windowed_norm(mat, proj) == 0.0
    # an all-zero residual reports exactly 0.0, windowed or not
    zero = np.zeros((4, 4), dtype=complex)
    assert windowed_norm(zero, proj) == 0.0
    assert windowed_norm(zero, np.eye(4)) == 0.0
    assert spectral_norm(zero) == 0.0


@given(dim=st.integers(2, 5), sites=st.integers(1, 3), shift=st.integers(-1, 2),
       density=st.floats(0.05, 1.0), seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_windowed_norm_matches_dense_on_level_graded_matrices(
        dim, sites, shift, density, seed):
    """A matrix mapping total level L to L + shift, under a random window,
    has the same windowed norm as the dense mat @ projector reference."""
    rng = np.random.default_rng(seed)
    levels = np.arange(dim)
    total = levels.copy()
    for _ in range(sites - 1):
        total = (total[:, None] + levels[None, :]).reshape(-1)
    size = total.size
    support = (total[:, None] == total[None, :] + shift) & (rng.random((size, size)) < density)
    mat = np.where(support, rng.normal(size=(size, size))
                   + 1j * rng.normal(size=(size, size)), 0.0)
    proj = np.diag((rng.random(size) < 0.6).astype(complex))
    ref = float(np.linalg.norm(mat @ proj, 2))
    got = windowed_norm(mat, proj)
    assert abs(got - ref) <= 1e-13 * ref
