"""GF(2) algebra: constructions, elimination, kernels, algebraic laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbqec import gf2


def random_matrix(draw, max_dim: int = 8):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    bits = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return gf2.from_rows(bits)


matrices = st.composite(random_matrix)()


def _reference_row_echelon(m: gf2.BinaryMatrix) -> tuple[np.ndarray, list[int]]:
    """Byte-per-bit Gauss-Jordan: scan columns left to right, take the
    first remaining row with a 1 as the pivot, clear the column above and
    below. The reduced form is unique, so ``gf2.row_echelon`` must agree."""
    a = m.bits.copy()
    n_rows, n_cols = a.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        for i in np.nonzero(a[:, c])[0]:
            if i != r:
                a[i] ^= a[r]
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols


def _reference_kernel_basis(m: gf2.BinaryMatrix) -> list[np.ndarray]:
    """One vector per free column: a 1 there, pivot coordinates from it."""
    rref, pivot_cols = _reference_row_echelon(m)
    basis = []
    for fc in sorted(set(range(m.cols)) - set(pivot_cols)):
        v = np.zeros(m.cols, dtype=np.uint8)
        v[fc] = 1
        for r_idx, pc in enumerate(pivot_cols):
            if rref[r_idx, fc]:
                v[pc] = 1
        basis.append(v)
    return basis


@st.composite
def wide_matrices(draw):
    """Up to 96 x 200, across packed byte and word boundaries: a product
    of random factors (so the rank is often short of full), with some
    rows zeroed. Rank 0 gives the all-zero matrix."""
    rows = draw(st.integers(0, 96))
    cols = draw(st.one_of(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 200)))
    inner = draw(st.integers(0, min(rows, cols) + 2))
    density = draw(st.sampled_from([0.05, 0.3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.random((rows, inner)) < density
    right = rng.random((inner, cols)) < 0.5
    bits = (left.astype(np.int64) @ right.astype(np.int64)) & 1
    bits[rng.random(rows) < draw(st.sampled_from([0.0, 0.2]))] = 0
    return gf2.BinaryMatrix(bits.astype(np.uint8))


def test_identity_small():
    assert gf2.identity(2).bits.tolist() == [[1, 0], [0, 1]]
    assert gf2.identity(1).bits.tolist() == [[1]]


def test_identity_rejects_zero_size():
    with pytest.raises(ValueError):
        gf2.identity(0)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        gf2.matmul_mod2(gf2.identity(2), gf2.identity(3))


def test_hstack_shape():
    a = gf2.identity(2)
    b = gf2.zeros(2, 3)
    assert gf2.hstack(a, b).cols == 5


def test_rank_basics():
    assert gf2.rank(gf2.zeros(3, 4)) == 0
    assert gf2.rank(gf2.identity(5)) == 5


def test_kernel_of_identity_empty():
    assert gf2.kernel_basis(gf2.identity(4)) == []


def test_kernel_dimension_rank_nullity():
    m = gf2.from_rows([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    assert gf2.rank(m) == 2
    assert len(gf2.kernel_basis(m)) == 2


def test_reduce_rows_clears_the_row_space_only():
    m = gf2.from_rows([[1, 1, 0], [0, 1, 1]])
    rref, pivots = gf2.row_echelon(m)
    assert not gf2.reduce_rows(rref, pivots, m.bits).any()
    outside = np.array([[1, 0, 0]], dtype=np.uint8)
    assert gf2.reduce_rows(rref, pivots, outside).any()


def test_matrix_immutable():
    m = gf2.identity(3)
    with pytest.raises(ValueError):
        m.bits[0, 0] = 0


def test_entries_validated():
    with pytest.raises(ValueError):
        gf2.from_rows([[0, 2]])


@given(matrices)
@settings(max_examples=80)
def test_rank_equals_rank_of_transpose(m):
    assert gf2.rank(m) == gf2.rank(gf2.transpose(m))


@given(matrices)
@settings(max_examples=80)
def test_kernel_vectors_annihilate(m):
    for v in gf2.kernel_basis(m):
        prod = gf2.matmul_mod2(m, gf2.transpose(v))
        assert not prod.bits.any()


@given(matrices)
@settings(max_examples=80)
def test_rank_nullity(m):
    assert gf2.rank(m) + len(gf2.kernel_basis(m)) == m.cols


@given(matrices)
@settings(max_examples=40)
def test_elimination_deterministic(m):
    r1, p1 = gf2.row_echelon(m)
    r2, p2 = gf2.row_echelon(m)
    assert p1 == p2
    assert np.array_equal(r1, r2)


@given(matrices)
@settings(max_examples=40)
def test_rref_pivots_are_clean(m):
    rref, pivots = gf2.row_echelon(m)
    for r_idx, pc in enumerate(pivots):
        col = rref[:, pc]
        assert col[r_idx] == 1
        assert col.sum() == 1


@given(st.one_of(matrices, wide_matrices()))
@settings(max_examples=150, deadline=None)
def test_row_echelon_and_kernel_match_the_byte_loop(m):
    rref, pivots = gf2.row_echelon(m)
    want_rref, want_pivots = _reference_row_echelon(m)
    assert pivots == want_pivots
    assert rref.dtype == np.uint8 and np.array_equal(rref, want_rref)
    got = [v.bits[0] for v in gf2.kernel_basis(m)]
    want = _reference_kernel_basis(m)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _reference_reduce(rref: np.ndarray, pivots: list[int], v: np.ndarray) -> np.ndarray:
    """One pivot at a time: add the pivot's row wherever v has that bit set."""
    residue = v.copy()
    for r_idx, pc in enumerate(pivots):
        if residue[pc]:
            residue ^= rref[r_idx]
    return residue


@given(st.one_of(matrices, wide_matrices()), st.data())
@settings(max_examples=100, deadline=None)
def test_reduce_rows_is_zero_exactly_on_the_row_space(m, data):
    """Random vectors and sums of m's rows, against the rank test and the
    one-pivot-at-a-time loop."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    count = data.draw(st.integers(1, 6))
    random_rows = rng.integers(0, 2, size=(count, m.cols), dtype=np.uint8)
    mixes = rng.integers(0, 2, size=(count, m.rows))
    sums = ((mixes @ m.bits.astype(np.int64)) & 1).astype(np.uint8)
    rows = np.vstack([random_rows, sums])
    rref, pivots = gf2.row_echelon(m)
    residues = gf2.reduce_rows(rref, pivots, rows)
    for v, residue in zip(rows, residues):
        inside = gf2.rank(gf2.vstack(m, gf2.BinaryMatrix(v[None, :]))) == gf2.rank(m)
        assert residue.any() != inside
        assert np.array_equal(residue, _reference_reduce(rref, pivots, v))
    assert not residues[count:].any()


@pytest.mark.parametrize("rank", [255, 256, 257])
def test_reduce_rows_keeps_parity_when_uint8_sums_wrap(rank):
    # [I | 1]: the last column sums one bit per pivot
    m = gf2.BinaryMatrix(
        np.hstack([np.eye(rank, dtype=np.uint8), np.ones((rank, 1), dtype=np.uint8)])
    )
    rref, pivots = gf2.row_echelon(m)
    v = np.ones((1, rank + 1), dtype=np.uint8)
    residue = gf2.reduce_rows(rref, pivots, v)
    assert np.array_equal(residue[0], _reference_reduce(rref, pivots, v[0]))
    assert residue[0, -1] == (rank + 1) % 2


@pytest.mark.parametrize("shape", [(0, 5), (4, 0), (3, 64), (2, 129)])
def test_row_echelon_of_empty_and_zero_matrices(shape):
    m = gf2.zeros(*shape)
    rref, pivots = gf2.row_echelon(m)
    assert pivots == [] and rref.shape == shape and not rref.any()
    assert len(gf2.kernel_basis(m)) == shape[1]


@pytest.mark.parametrize("cols", [1, 8, 63, 64, 65, 128, 129, 200])
def test_pack_rows_round_trips_with_bit_i_in_word_i_over_64(cols):
    bits = np.random.default_rng(cols).integers(0, 2, size=(5, cols), dtype=np.uint8)
    words = gf2.pack_rows(bits)
    assert words.dtype == gf2.WORD and words.shape == (5, -(-cols // 64))
    i = np.arange(cols)
    assert np.array_equal((words[:, i // 64] >> (i % 64).astype(np.uint64)) & 1, bits)
    assert np.array_equal(gf2.unpack_rows(words, cols), bits)


@st.composite
def _packed_rows(draw):
    """0-60 packed rows of 0-4 words, picked from a small pool: the zero
    row, and up to three rows each with a twin that differs from it in the
    last word only, so repeats, zero rows and last-word differences occur."""
    words = draw(st.integers(0, 4))
    word = st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
    pool = [(0,) * words]
    for row in draw(st.lists(st.tuples(*[word] * words), max_size=3)) if words else ():
        pool += [row, (*row[:-1], row[-1] ^ 1)]
    n = draw(st.integers(0, 60))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(rows, dtype=gf2.WORD).reshape(n, words)


@given(_packed_rows())
@settings(max_examples=200, deadline=None)
def test_word_by_word_row_helpers_match_the_any_forms(rows):
    """``_rows_differ`` and ``_group_rows`` against ``.any(axis=1)``, the
    forms they replace; rows of no words are all equal, and none is set."""
    assert np.array_equal(gf2._rows_differ(rows, 0), rows.any(axis=1))
    flipped = rows[::-1]
    assert np.array_equal(gf2._rows_differ(rows, flipped), (rows != flipped).any(axis=1))
    order, new = gf2._group_rows(rows)
    # sorted on the words, the last word first, and in row order among equals
    assert order.tolist() == sorted(range(len(rows)), key=lambda i: (rows[i].tolist()[::-1], i))
    ranked = rows[order]
    expected = np.ones(len(rows), dtype=bool)
    expected[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    assert np.array_equal(new, expected)
    if not rows.shape[1]:
        assert new.sum() == min(1, len(rows))
