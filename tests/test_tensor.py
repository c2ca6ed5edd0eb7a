import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonhopf.tensor import (embed_two_site, kron, kron_all, swap_matrix,
                              total_window_projector, windowed_norm)


def _rand(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_kron_ordering():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, 10.0])
    # first factor is the leftmost slot: entries (a_ii * b_jj) in row-major order
    assert np.allclose(np.diag(kron(a, b)), [1, 10, 2, 20])
    assert np.allclose(kron_all(a, b, np.eye(2)).shape, (8, 8))


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
