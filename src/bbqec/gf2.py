"""Dense linear algebra over GF(2).

Everything in this package that touches check matrices, kernels, or row
spaces goes through this module. A ``BinaryMatrix`` holds one uint8 per
bit, so construction, products and indexing are plain numpy. The one
elimination, ``row_echelon``, runs on bit-packed rows (``pack_rows``:
bit i in little-endian uint64 word i // 64), which is several times
faster than a byte-per-bit loop over columns at every size used here.
``reduce_rows`` reduces vectors against its output; a vector lies in
the row space exactly when its residue is zero.

Vectors are represented as 1 x n matrices; there is no separate vector type.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "WORD",
    "BinaryMatrix",
    "identity",
    "zeros",
    "from_rows",
    "matmul_mod2",
    "transpose",
    "hstack",
    "vstack",
    "pack_rows",
    "unpack_rows",
    "row_echelon",
    "rank",
    "kernel_basis",
    "reduce_rows",
]


class BinaryMatrix:
    """Immutable dense matrix with entries in {0, 1}.

    Wraps a read-only numpy uint8 array. All arithmetic lives in module
    functions; the class only guards the representation invariants
    (2-D shape, 0/1 entries, immutability).
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: np.ndarray | Sequence[Sequence[int]]):
        arr = np.array(bits, dtype=np.uint8, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={arr.ndim}")
        if arr.size and arr.max() > 1:
            raise ValueError("entries must be 0 or 1")
        arr.setflags(write=False)
        self._bits = arr

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 array of shape (rows, cols)."""
        return self._bits

    @property
    def rows(self) -> int:
        return self._bits.shape[0]

    @property
    def cols(self) -> int:
        return self._bits.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self._bits.shape == other._bits.shape and bool(
            np.array_equal(self._bits, other._bits)
        )

    def __hash__(self) -> int:
        return hash((self._bits.shape, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


def identity(m: int) -> BinaryMatrix:
    """m x m identity matrix. Rejects m < 1."""
    if m < 1:
        raise ValueError(f"invalid size {m}")
    return BinaryMatrix(np.eye(m, dtype=np.uint8))


def zeros(rows: int, cols: int) -> BinaryMatrix:
    return BinaryMatrix(np.zeros((rows, cols), dtype=np.uint8))


def from_rows(rows: Iterable[Iterable[int]]) -> BinaryMatrix:
    """Build a matrix from an iterable of 0/1 row iterables."""
    return BinaryMatrix([list(r) for r in rows])


def matmul_mod2(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    prod = (a.bits.astype(np.int64) @ b.bits.astype(np.int64)) & 1
    return BinaryMatrix(prod.astype(np.uint8))


def transpose(a: BinaryMatrix) -> BinaryMatrix:
    return BinaryMatrix(a.bits.T)


def hstack(*ms: BinaryMatrix) -> BinaryMatrix:
    """Concatenate columns, left to right."""
    if not ms:
        raise ValueError("hstack needs at least one matrix")
    return BinaryMatrix(np.hstack([m.bits for m in ms]))


def vstack(*ms: BinaryMatrix) -> BinaryMatrix:
    if not ms:
        raise ValueError("vstack needs at least one matrix")
    return BinaryMatrix(np.vstack([m.bits for m in ms]))


WORD = np.dtype("<u8")


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 bytes -> rows of ceil(cols / 64) packed words."""
    words = -(-bits.shape[1] // 64)
    out = np.zeros((bits.shape[0], 8 * words), dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    out[:, : packed.shape[1]] = packed
    return out.view(WORD)


def unpack_rows(rows: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of packed rows, as rows of 0/1 bytes."""
    raw = np.ascontiguousarray(rows, dtype=WORD).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=count, bitorder="little")


def _set_bits(rows: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) of every set bit below ``count`` in packed rows, in
    row-major order: ``np.nonzero(unpack_rows(rows, count))`` without
    expanding each bit to a byte. One flat nonzero over a bool mask (numpy
    scans bools fastest) finds the nonzero bytes, and one over
    ``np.unpackbits`` of those bytes their set bits."""
    raw = np.ascontiguousarray(rows, dtype=WORD).view(np.uint8)
    byte = np.flatnonzero(raw != 0)
    i = np.flatnonzero(np.unpackbits(raw.reshape(-1)[byte], bitorder="little").view(bool))
    r, bit = np.divmod(byte[i >> 3] * 8 + (i & 7), raw.shape[1] * 8)
    keep = bit < count
    return r[keep], bit[keep]


def _rows_differ(a: np.ndarray, b) -> np.ndarray:
    """``(a != b).any(axis=1)`` for packed rows ``a`` and rows or a word ``b``,
    word by word: numpy runs ``.any`` over a short last axis as a
    per-column inner loop. Rows of no words are equal."""
    out = np.zeros(len(a), dtype=bool)
    for x, y in zip(a.T, np.broadcast_to(b, a.shape).T):
        out |= x != y
    return out


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, new): a stable ``np.lexsort`` order of packed rows, equal rows
    together in row order, and whether each differs from the one before it."""
    order = np.lexsort(rows.T) if rows.shape[1] else np.arange(len(rows))  # no words: all equal
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = _rows_differ(ranked[1:], ranked[:-1])
    return order, new


def row_echelon(m: BinaryMatrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2).

    The reduced form of a matrix and its pivot columns are unique, so
    they do not depend on how they are computed. Here each packed row
    is one Python int, with column c as bit c. Each row in turn is
    reduced by its lowest set bit against the pivot rows found so far;
    a row that keeps a nonzero remainder adds a pivot at that bit. Back
    substitution from the highest pivot down then clears every pivot
    column above and below its row.

    Returns:
        (rref, pivot_cols): the reduced uint8 array (same shape, nonzero
        rows first, in pivot order) and the list of pivot column indices
        in increasing order.
    """
    n_rows, n_cols = m.bits.shape
    packed = pack_rows(m.bits)
    pivot_rows: dict[int, int] = {}  # lowest set bit -> row
    for row in packed:
        v = int.from_bytes(row.tobytes(), "little")
        while v:
            low = v & -v
            pivot = pivot_rows.get(low)
            if pivot is None:
                pivot_rows[low] = v
                break
            v ^= pivot
    lows = sorted(pivot_rows)
    for i in range(len(lows) - 1, -1, -1):
        top = pivot_rows[lows[i]]
        for low in lows[:i]:
            if pivot_rows[low] & lows[i]:
                pivot_rows[low] ^= top
    reduced = [pivot_rows[low] for low in lows] + [0] * (n_rows - len(lows))
    data = b"".join(v.to_bytes(8 * packed.shape[1], "little") for v in reduced)
    words = np.frombuffer(data, dtype=WORD).reshape(packed.shape)
    return unpack_rows(words, n_cols), [low.bit_length() - 1 for low in lows]


def rank(m: BinaryMatrix) -> int:
    return len(row_echelon(m)[1])


def kernel_basis(m: BinaryMatrix) -> list[BinaryMatrix]:
    """Basis of {v : M v^T = 0 (mod 2)} as 1 x cols matrices.

    Deterministic: one basis vector per free column, in increasing column
    order, with the free coordinate set to 1 and pivot coordinates read
    from that column of the reduced echelon form.
    """
    rref, pivot_cols = row_echelon(m)
    free = np.ones(m.cols, dtype=bool)
    free[pivot_cols] = False
    basis = np.eye(m.cols, dtype=np.uint8)[free]
    basis[:, pivot_cols] = rref[: len(pivot_cols), free].T
    return [BinaryMatrix(v[None, :]) for v in basis]


def reduce_rows(rref: np.ndarray, pivots: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """Residues of 0/1 rows against the output of ``row_echelon``.

    Each row gets the reduced row of every pivot column it has set added
    to it, all in one product: every pivot column of a reduced form is
    zero outside its own row, so no addition disturbs another pivot
    column. A residue is zero exactly when its row lies in the row space.
    The product may wrap in uint8, which keeps the parity of each sum.
    """
    pivots = list(pivots)
    return rows ^ ((rows[:, pivots] @ rref[: len(pivots)]) & 1)
