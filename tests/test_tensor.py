from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonhopf import AlgebraSpec, build_rep, build_tables, tensor
from bosonhopf.hopf import expand_slot, terms_matrix, terms_operator, word_image
from bosonhopf.rmatrix import build_r0
from bosonhopf.tensor import (SectorOperator, SectorStack, StreamedNorm, embed_two_site,
                              kron, kron_all, level_sectors, spectral_norm, swap_matrix,
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


@pytest.mark.parametrize("sizes", [(3,), (9, 3), (3, 9), (2, 4, 3), (4, 1, 2)])
def test_kron_columns_is_bit_identical(sizes):
    """Each column of kron_all is the Kronecker product of the factors'
    columns at its unravelled index, entry for entry, for factors of
    different sizes (a two-site factor next to a one-site one)."""
    rng = np.random.default_rng(len(sizes) * 10 + sizes[0])
    mats = [_rand(n, int(rng.integers(1000))) for n in sizes]
    mats[-1] = mats[-1].real   # a real factor next to complex ones, as eye x R
    full = kron_all(*mats)
    for col in (0, full.shape[1] - 1, *rng.choice(full.shape[1], size=4)):
        parts = np.unravel_index(col, sizes)
        expect = mats[0][:, parts[0]]
        for m, j in zip(mats[1:], parts[1:]):
            expect = np.kron(expect, m[:, j])
        assert np.array_equal(full[:, col], expect), col


FAMILY_POINTS = [("B", (2, 3)), ("Bbar", (1, 2)), ("Bq", (2, 4, 1.3)),
                 ("Bbarq", (1, 2, 0.7)), ("H", (1, 2, 0.25))]


@pytest.mark.parametrize("family, params", FAMILY_POINTS)
def test_gather_is_bit_identical_to_kron_on_sweedler_terms(family, params):
    """The n-site gather, scattered back to dense, equals kron_all and
    Term.matrix entry for entry on every two-slot Delta term and every
    three-slot term of both coassociativity expansions at D = 6.  Gathered
    on the column sectors up to a window's top level, it equals them on
    the window columns and holds nothing on the others; terms_operator sums
    the terms to terms_matrix."""
    dim = 6
    tables = build_tables(build_rep(AlgebraSpec(family, params), dim))
    for name in tables.generator_names():
        two = tables.delta_terms(name)
        for terms in (two, expand_slot(two, 0), expand_slot(two, 1)):
            sectors = level_sectors(dim, terms[0].slots)
            kept = sectors.level <= dim - 3
            for term in terms:
                mats = [word_image(w, dim) for w in term.words]
                factors = [(m, (site,)) for site, m in enumerate(mats)]
                full = SectorOperator.gather(factors, sectors)
                assert np.array_equal(full.to_dense(), kron_all(*mats)), (name, term)
                assert np.array_equal((full * term.coeff).to_dense(), term.matrix(dim))
                window = SectorOperator.gather(factors, sectors, dim - 3).to_dense()
                assert np.array_equal(window[:, kept], kron_all(*mats)[:, kept])
                assert not window[:, ~kept].any()
            assert np.array_equal(terms_operator(terms, dim).to_dense(),
                                  terms_matrix(terms, dim)), name


def test_gather_refuses_a_mixed_shift_factor():
    """A factor whose entries mix level shifts has no sector blocks: the
    gather refuses it, on one site or on a slot pair, and from_dense of
    such a matrix reports None."""
    sectors = level_sectors(3, 3)
    mixed = np.eye(3) + np.diag(np.ones(2), -1)
    eye = np.eye(3)
    for factors in ([(mixed, (0,)), (eye, (1,)), (eye, (2,))],
                    [(kron(mixed, eye), (0, 2)), (eye, (1,))]):
        with pytest.raises(ValueError, match="one amount"):
            SectorOperator.gather(factors, sectors)
    assert SectorOperator.from_dense(kron_all(mixed, eye, eye), sectors) is None


@pytest.mark.parametrize("family, params", FAMILY_POINTS)
def test_kron_all_is_bit_identical_to_numpy_kron(family, params):
    """The broadcast Kronecker product equals np.kron entry for entry on every
    two-slot Sweedler term of every generator, and on the three-slot terms of
    the coassociativity expansion."""
    tables = build_tables(build_rep(AlgebraSpec(family, params), 6))
    for name in tables.generator_names():
        terms = tables.delta_terms(name)
        for term in terms + expand_slot(terms, 0):
            mats = [word_image(w, 6) for w in term.words]
            expect = mats[0]
            for m in mats[1:]:
                expect = np.kron(expect, m)
            assert np.array_equal(kron_all(*mats), expect), (name, term)


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


@contextmanager
def _sector_calls():
    """Record, per sector-path attempt, whether it gave the norm (True) or
    found mixed level shifts and left it to the nonzero-rows SVD (False)."""
    calls = []
    cls = tensor.SectorOperator
    kernel, bound = cls.__dict__["from_dense"], cls.from_dense

    def spy(*args):
        op = bound(*args)
        calls.append(op is not None)
        return op

    cls.from_dense = staticmethod(spy)
    try:
        yield calls
    finally:
        cls.from_dense = kernel


def test_windowed_norm_masks_excluded_columns():
    """Columns above the window's top level carry nothing into the norm; an
    all-zero residual reports exactly 0.0, windowed or not, with or without
    the sector index, and takes no sector path."""
    mat = np.zeros((4, 4))
    mat[:, 3] = 100.0
    sec = level_sectors(4, 1)
    zero = np.zeros((4, 4), dtype=complex)
    with _sector_calls() as calls:
        assert spectral_norm(mat, sec, 2) == 0.0
        assert spectral_norm(zero, sec, 2) == 0.0
        for sectors in (None, sec):
            assert spectral_norm(zero, sectors) == 0.0
    assert calls == []
    assert SectorOperator.from_dense(mat, sec, 2).norm(2) == 0.0
    assert windowed_norm(mat, total_window_projector(4, 1, 1)) == 0.0


def test_an_empty_window_is_refused():
    """A raise degree at or above dim leaves no state in the window (top
    level below 0): the kernel refuses it rather than report a vacuous 0.0."""
    sec = level_sectors(3, 2)
    mat = np.eye(sec.level.size)
    op = SectorOperator.from_dense(mat, sec)
    for call in (lambda: spectral_norm(mat, sec, -1), lambda: op.norm(-1),
                 lambda: spectral_norm(op, top=-1),
                 lambda: SectorOperator.gather([(np.eye(3), (0,)), (np.eye(3), (1,))],
                                               sec, top=-1)):
        with pytest.raises(ValueError, match="empty"):
            call()
    assert spectral_norm(mat, sec, 0) == 1.0 and op.norm(0) == 1.0


def test_windowed_norm_of_a_mixed_shift_matrix_takes_the_nonzero_rows_svd():
    mixed = np.zeros((16, 16))
    mixed[0, 0] = 3.0       # level 0 -> 0
    mixed[1, 0] = 4.0       # level 0 -> 1
    with _sector_calls() as calls:
        got = spectral_norm(mixed, level_sectors(4, 2), 4 - 1 - 1)
    assert got == pytest.approx(5.0, rel=1e-15)
    assert calls == [False]


@given(dim=st.integers(2, 5), sites=st.integers(1, 3), shift=st.integers(-2, 2),
       other=st.one_of(st.none(), st.integers(-2, 2)),
       density=st.floats(0.05, 1.0), seed=st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_windowed_norm_matches_dense_on_level_graded_matrices(
        dim, sites, shift, other, density, seed):
    """A matrix mapping total level L to L + shift (and, given ``other``, to
    L + other as well), under the window of every raise degree k (the
    states of total level up to top = dim - 1 - k), has the dense
    ``mat @ total_window_projector`` norm to 1e-13 relative: from the
    kernel ``spectral_norm(mat, sectors, top)``, dense and as a sector
    operator, and from ``SectorOperator.norm(top)``.  A dense matrix takes
    the sector blocks exactly when the window columns' nonzero entries
    share one shift."""
    rng = np.random.default_rng(seed)
    sec = level_sectors(dim, sites)
    size = sec.level.size
    diff = sec.level[:, None] - sec.level[None, :]
    support = diff == shift
    if other is not None:
        support |= diff == other
    support &= rng.random((size, size)) < density
    mat = np.where(support, rng.normal(size=(size, size))
                   + 1j * rng.normal(size=(size, size)), 0.0)
    whole = SectorOperator.from_dense(mat, sec)
    for degree in range(dim):
        top = dim - 1 - degree
        proj = total_window_projector(dim, sites, degree)
        ref = float(np.linalg.norm(mat @ proj, 2))
        assert abs(windowed_norm(mat, proj) - ref) <= 1e-13 * ref
        with _sector_calls() as calls:
            got = spectral_norm(mat, sec, top)
        assert abs(got - ref) <= 1e-13 * ref
        window = sec.level <= top
        shifts = set(diff[:, window][mat[:, window] != 0].tolist())
        assert calls == ([len(shifts) == 1] if shifts else [])
        if not shifts:
            assert got == 0.0
        ops = [SectorOperator.from_dense(mat, sec, top), whole]
        for op in (op for op in ops if op is not None):
            assert abs(spectral_norm(op, top=top) - ref) <= 1e-13 * ref
            assert abs(op.norm(top) - ref) <= 1e-13 * ref


def test_level_sectors_group_the_basis_by_total_level():
    sec = level_sectors(3, 2)
    assert sec is level_sectors(3, 2)
    assert sec.level.tolist() == [0, 1, 2, 1, 2, 3, 2, 3, 4]
    assert sec.size.tolist() == [1, 2, 3, 2, 1]
    assert [row[ok].tolist() for row, ok in zip(sec.index, sec.valid)] == [
        [0], [1, 3], [2, 4, 6], [5, 7], [8]]
    assert not sec.index.flags.writeable
    assert np.array_equal(total_window_projector(3, 2, 1).diagonal() != 0, sec.level <= 1)


def _graded(rng, sec, shift, density):
    """A random complex matrix of ``sec``'s space whose entries all shift the
    total level by ``shift``."""
    size = sec.level.size
    support = (sec.level[:, None] - sec.level[None, :] == shift) & (
        rng.random((size, size)) < density)
    return np.where(support, rng.normal(size=(size, size))
                    + 1j * rng.normal(size=(size, size)), 0.0)


def _close(got, ref, scale):
    return np.abs(got - ref).max(initial=0.0) <= 1e-13 * scale


@given(dim=st.integers(2, 6), sites=st.integers(1, 3), shifts=st.tuples(
           st.integers(-2, 2), st.integers(-2, 2)),
       density=st.floats(0.05, 1.0), seed=st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_sector_operator_matches_dense(dim, sites, shifts, density, seed):
    """Products, sums, scalar multiples, the diagonal map and the windowed
    norm (the window of every raise degree) of sector operators match the
    dense results to 1e-13 relative; an all-zero operator has norm exactly
    0.0.  A dense operand, and a sum of two nonzero operators of different
    shifts, are refused."""
    rng = np.random.default_rng(seed)
    sec = level_sectors(dim, sites)
    size = sec.level.size
    a, c = (_graded(rng, sec, shifts[0], density) for _ in range(2))
    b = _graded(rng, sec, shifts[1], density)
    ops = [SectorOperator.from_dense(m, sec) for m in (a, b, c)]
    assert all(op is not None and op.shape == (size, size) for op in ops)
    op_a, op_b, op_c = ops
    assert np.array_equal(op_a.to_dense(), a)
    prod = op_a @ op_b
    assert isinstance(prod, SectorOperator)
    assert _close(prod.to_dense(), a @ b, (np.abs(a) @ np.abs(b)).max())
    assert np.array_equal((op_a + op_c).to_dense(), a + c)
    assert np.array_equal((op_a - op_c).to_dense(), a - c)
    assert np.array_equal((2.5j * op_a).to_dense(), 2.5j * a)
    assert np.array_equal((op_a * -3.0).to_dense(), -3.0 * a)
    # dense operands, and sums of two nonzero shifts, are refused; an
    # all-zero operator sums with any shift
    for dense_operand in (lambda: op_a @ b, lambda: a @ op_b, lambda: op_a + b,
                          lambda: a - op_b):
        with pytest.raises(TypeError):
            dense_operand()
    if shifts[0] != shifts[1] and a.any() and b.any():
        with pytest.raises(ValueError, match="have no common blocks"):
            op_a - op_b
    else:
        assert np.array_equal((op_a - op_b).to_dense(), a - b)
    diag = np.diag(rng.normal(size=size) + 0j)
    mapped = SectorOperator.from_dense(diag, sec).diagonal_map(np.exp)
    assert _close(mapped.to_dense(), np.diag(np.exp(diag.diagonal())),
                  np.exp(diag.diagonal().real).max())
    for op, mat in ((op_a, a), (prod, prod.to_dense())):
        for degree in range(dim):
            top = dim - 1 - degree
            ref = float(np.linalg.norm(mat @ total_window_projector(dim, sites, degree), 2))
            assert abs(op.norm(top) - ref) <= 1e-13 * ref
            assert abs(spectral_norm(op, top=top) - ref) <= 1e-13 * ref
            assert abs(spectral_norm(mat, sec, top) - ref) <= 1e-13 * ref
        full = float(np.linalg.norm(mat, 2))
        assert abs(spectral_norm(op) - full) <= 1e-13 * full
    zero = op_a - op_a
    assert spectral_norm(zero) == 0.0 and spectral_norm(zero, top=0) == 0.0
    assert SectorOperator.from_dense(np.zeros((size, size)), sec).norm() == 0.0


def _on_window(mat, sec, shift, top):
    """The sector operator of mat held on the column sectors up to ``top``."""
    plan = sec.plan(shift, top + 1)
    blocks = np.where(plan.ok, mat[plan.rows[:, :, None], plan.cols[:, None, :]], 0)
    return SectorOperator(sec, shift, blocks)


@given(dim=st.integers(2, 5), sites=st.integers(2, 3), shifts=st.tuples(
           st.integers(-2, 2), st.integers(-2, 2)),
       top=st.floats(0, 1), density=st.floats(0.05, 1.0), seed=st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_window_sector_operators_match_dense_on_their_columns(
        dim, sites, shifts, top, density, seed):
    """Operators held on the column sectors up to a top level only.  The
    product of a full operator and such a right factor holds the right
    factor's column sectors, and there it and its norm match the dense
    results to 1e-13 relative; it holds nothing on the other columns.  The
    sum of a window operator and an all-zero one of another shift (padded to
    another width) is the window operator."""
    rng = np.random.default_rng(seed)
    sec = level_sectors(dim, sites)
    levels = sec.size.size
    top = int(top * (levels - 1))
    a, b = (_graded(rng, sec, s, density) for s in shifts)
    op_a, op_b = _on_window(a, sec, shifts[0], levels - 1), _on_window(b, sec, shifts[1], top)
    prod = op_a @ op_b
    assert len(prod.blocks) == top + 1
    known = sec.level <= top
    ref = (a @ b)[:, known]
    got = prod.to_dense()
    assert _close(got[:, known], ref, (np.abs(a) @ np.abs(b)).max())
    assert not got[:, ~known].any()
    norm = float(np.linalg.norm(ref, 2)) if ref.size else 0.0
    assert abs(prod.norm() - norm) <= 1e-13 * norm
    window_a, zero = _on_window(a, sec, shifts[0], top), op_b - op_b
    assert np.array_equal((window_a + zero).to_dense(), window_a.to_dense())
    assert np.array_equal((zero - window_a).to_dense(), -window_a.to_dense())


def _batched_norm(op, top):
    """The norm as one batched SVD over every live block (each trimmed to
    the widest live row and column sector), the largest modulus of 1x1
    blocks: the value the pruned norm must reproduce bit for bit."""
    sec, shift = op.sectors, op.shift
    held = np.arange(len(op.blocks) if top is None else min(len(op.blocks), top + 1))
    live = held[(held + shift >= 0) & (held + shift < sec.size.size)]
    if not live.size:
        return 0.0
    if op.blocks.shape[1] == 1:
        return float(np.abs(op.blocks[live, 0, 0]).max())
    blocks = op.blocks[live, :sec.size[live + shift].max(), :sec.size[live].max()]
    if not blocks.any():
        return 0.0
    return float(np.linalg.svd(blocks, compute_uv=False).max())


@given(dim=st.integers(2, 5), sites=st.integers(1, 3), shift=st.integers(-2, 2),
       kind=st.sampled_from(["dense", "diagonal", "permutation"]),
       scales=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=1, max_size=4),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_pruned_norm_equals_one_batched_svd(dim, sites, shift, kind, scales, seed):
    """SectorOperator.norm factors the blocks one at a time, largest bound
    sqrt(|B|_1 |B|_inf) first, and stops once no bound left exceeds the
    largest singular value found.  On every window top, and on the whole
    space, it equals the largest singular value of one batched SVD over all
    live blocks bit for bit: for dense blocks, for diagonal and scaled
    permutation blocks (whose bound is their norm, so the stop rule meets
    ties, and whose computed norm may exceed the computed bound by an ulp),
    for blocks scaled by a few shared factors (equal bounds across blocks)
    and for all-zero blocks and windows."""
    rng = np.random.default_rng(seed)
    sec = level_sectors(dim, sites)
    plan = sec.plan(shift)
    blocks = np.zeros(plan.ok.shape, dtype=complex)
    rows, cols = blocks.shape[1:]
    for level, scale in enumerate(np.resize(scales, len(blocks))):
        # unit entries of random phase: LAPACK may return their modulus one
        # ulp above the bound, which the bound's 1e-12 margin must absorb
        phases = np.exp(2j * np.pi * rng.random((rows, cols)))
        if kind == "dense":
            block = rng.normal(size=(rows, cols)) * phases
        elif kind == "diagonal":
            block = np.eye(rows, cols) * phases
        else:
            block = np.eye(rows, cols)[rng.permutation(rows)] * phases
        blocks[level] = np.where(plan.ok[level], scale * block, 0)
    op = SectorOperator(sec, shift, blocks)
    for top in [None, *range(sec.size.size)]:
        assert op.norm(top) == _batched_norm(op, top), top


def test_diagonal_map_rejects_an_off_diagonal_operator():
    sec = level_sectors(4, 2)
    diag = np.diag(np.arange(16.0) + 1)
    off = diag.copy()
    off[5, 5] += 1.0
    off[4, 1] = 1e-3     # shift 0, inside a level sector, off the diagonal
    with pytest.raises(ValueError):
        SectorOperator.from_dense(off, sec).diagonal_map(np.exp)
    raise_op = SectorOperator.from_dense(np.diag(np.ones(15), -1), level_sectors(16, 1))
    with pytest.raises(ValueError):
        raise_op.diagonal_map(np.exp)


@pytest.mark.parametrize("family, params", [
    ("B", (2, 3)), ("Bbar", (1, 2)), ("Bq", (2, 4, 1.3)), ("Bbarq", (1, 2, 0.7)),
    ("H", (1, 2, 0.25))])
def test_sector_operator_of_a_sweedler_term_is_bit_identical_to_kron(family, params):
    """The gathered term times its coefficient, scattered back to dense, equals
    np.kron(x, y) * coeff entry for entry on every Delta term at D = 8, the
    summed terms equal the dense
    Delta image, and the summed terms with their words exchanged equal the
    slot-swap sandwich of that image, the reference construction of
    Delta^T."""
    dim = 8
    tables = build_tables(build_rep(AlgebraSpec(family, params), dim))
    sec = level_sectors(dim, 2)
    for name in tables.generator_names():
        for term in tables.delta_terms(name):
            x, y = (word_image(w, dim) for w in term.words)
            op = SectorOperator.gather([(x, (0,)), (y, (1,))], sec) * term.coeff
            assert isinstance(op, SectorOperator), (name, term)
            assert np.array_equal(op.to_dense(), np.kron(x, y) * term.coeff), (name, term)
        total = terms_operator(tables.delta_terms(name), dim)
        assert np.array_equal(total.to_dense(), tables.delta_matrix(name)), name
        opposite = terms_operator(tables.delta_terms(name, transpose=True), dim)
        swap = swap_matrix(dim)
        assert np.array_equal(opposite.to_dense(),
                              swap @ tables.delta_matrix(name) @ swap), name


def test_a_three_site_window_gather_above_8192_plan_entries_reads_each_factor_entry():
    """R13 of the B parity R0 at D = 26, gathered on the three-site window
    of total level <= D - 1 (26 * 351 plan row entries, above the 8192 where
    numpy's unravel_index of an array with a length-1 axis went wrong): each
    block entry equals R0[(i, k), (i', k')] * [j == j'] at its row and column
    states, read through the level sectors of an np.ndindex enumeration."""
    dim = 26
    r0 = build_r0(build_rep(AlgebraSpec("B", (2, 2)), dim)).op.to_dense()
    sectors = level_sectors(dim, 3)
    top = dim - 1
    r13 = SectorOperator.gather([(r0, (0, 2)), (np.eye(dim), (1,))], sectors, top=top)
    states = np.array(list(np.ndindex(dim, dim, dim)))
    level = states.sum(axis=1)
    assert r13.shift == 0 and len(r13.blocks) == top + 1
    for total in range(top + 1):
        i, j, k = states[level == total].T   # the sector's states, in basis order
        n = i.size
        expected = r0[np.ix_(i * dim + k, i * dim + k)] * (j[:, None] == j[None, :])
        assert np.array_equal(r13.blocks[total, :n, :n], expected), total
        assert not r13.blocks[total, n:].any() and not r13.blocks[total, :, n:].any()


@pytest.mark.parametrize("dim", [6, 8])
def test_the_streamed_norm_of_level_blocks_is_the_dense_norm(dim):
    """Random complex blocks of a level-keeping three-site operator, one of
    them scaled by 1e3 to dominate, on each level in turn (level 0 is 1x1):
    the streamed norm of the blocks fed top level first, as the R rows feed
    them, and fed bottom level first, equals np.linalg.norm(., 2) of the
    dense operator to 1e-14 relative.  All-zero blocks read exactly 0.0."""
    sectors = level_sectors(dim, 3)
    levels = range(dim)
    rng = np.random.default_rng(dim)
    for dominant in levels:
        blocks = []
        for level in levels:
            size = sectors.size[level]
            block = _rand(size, int(rng.integers(1000)))
            blocks.append(block * (1e3 if level == dominant else 1.0))
        dense = np.zeros((sectors.level.size,) * 2, dtype=complex)
        for level, block in zip(levels, blocks):
            states = sectors.states(level)
            dense[np.ix_(states, states)] = block
        expect = np.linalg.norm(dense, 2)
        for order in (blocks[::-1], blocks):
            norm = StreamedNorm()
            for block in order:
                norm.add(block)
            assert abs(norm.value - expect) <= 1e-14 * expect, (dominant, norm.value, expect)
    zero = StreamedNorm()
    for level in levels:
        zero.add(np.zeros((sectors.size[level],) * 2))
    assert zero.value == 0.0


@pytest.mark.parametrize("sites", [1, 2])
def test_a_sector_stack_reads_each_terms_dense_entries(sites):
    """A stack of the Bq rep's ladder powers (ad)^t and a^t on one or two
    sites (a^t as the Sweedler image of Delta(a)^t on two), read at every
    entry of a random term map: each entry is that term's dense entry, and
    0 where the map names no term (-1 or past the last)."""
    dim = 5
    rep = build_rep(AlgebraSpec("Bq", (2, 4, 1.3)), dim)
    sectors = level_sectors(dim, sites)
    if sites == 1:
        images = [SectorOperator.from_dense(rep.generator(n), sectors) for n in ("ad", "a")]
    else:
        tables = build_tables(rep)
        images = [tables.delta_image(n) for n in ("ad", "a")]
    rng = np.random.default_rng(sites)
    n = sectors.level.size
    rows, cols = rng.permutation(n)[:7], rng.permutation(n)[:9]
    for image in images:
        powers = [SectorOperator.from_dense(np.eye(n), sectors)]
        for _ in range(dim - 1):
            powers.append(powers[-1] @ image)
        stack = SectorStack([p.window(dim) for p in powers])
        term = rng.integers(-1, dim + 1, size=(len(rows), len(cols)))
        got = stack.entries(term, rows, cols)
        for (i, j), t in np.ndenumerate(term):
            held = 0 <= t < dim and sectors.level[cols[j]] < dim
            expect = powers[t].to_dense()[rows[i], cols[j]] if held else 0
            assert got[i, j] == expect, (i, j, t)
