"""Dense linear algebra over GF(2).

Everything in this package that touches check matrices, kernels, or row
spaces goes through this module. Matrices are small (at most a few hundred
columns), so a dense uint8 representation beats any sparse or bit-packed
scheme in both speed and simplicity.

Vectors are represented as 1 x n matrices; there is no separate vector type.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BinaryMatrix",
    "identity",
    "zeros",
    "cyclic_shift",
    "from_rows",
    "kron",
    "matmul_mod2",
    "matpow_mod2",
    "add_mod2",
    "transpose",
    "hstack",
    "vstack",
    "row_echelon",
    "rank",
    "kernel_basis",
    "row_space_contains",
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


def _wrap(arr: np.ndarray) -> BinaryMatrix:
    return BinaryMatrix(arr)


def identity(m: int) -> BinaryMatrix:
    """m x m identity matrix. Rejects m < 1."""
    if m < 1:
        raise ValueError(f"invalid size {m}")
    return _wrap(np.eye(m, dtype=np.uint8))


def zeros(rows: int, cols: int) -> BinaryMatrix:
    return _wrap(np.zeros((rows, cols), dtype=np.uint8))


def cyclic_shift(l: int) -> BinaryMatrix:
    """l x l cyclic shift permutation: row i has its 1 in column (i+1) mod l.

    cyclic_shift(1) is the 1x1 identity; cyclic_shift(l)**l is identity(l).
    """
    if l < 1:
        raise ValueError(f"invalid size {l}")
    arr = np.zeros((l, l), dtype=np.uint8)
    for i in range(l):
        arr[i, (i + 1) % l] = 1
    return _wrap(arr)


def from_rows(rows: Iterable[Iterable[int]]) -> BinaryMatrix:
    """Build a matrix from an iterable of 0/1 row iterables."""
    return BinaryMatrix([list(r) for r in rows])


def kron(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Kronecker product. Over GF(2) the entries stay in {0, 1}."""
    return _wrap(np.kron(a.bits, b.bits))


def matmul_mod2(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    prod = (a.bits.astype(np.int64) @ b.bits.astype(np.int64)) & 1
    return _wrap(prod.astype(np.uint8))


def matpow_mod2(a: BinaryMatrix, e: int) -> BinaryMatrix:
    """a**e by repeated squaring; a must be square, e >= 0."""
    if a.rows != a.cols:
        raise ValueError("matrix power needs a square matrix")
    if e < 0:
        raise ValueError("negative exponent")
    result = identity(a.rows)
    base = a
    while e:
        if e & 1:
            result = matmul_mod2(result, base)
        base = matmul_mod2(base, base)
        e >>= 1
    return result


def add_mod2(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"shape mismatch: {a.bits.shape} + {b.bits.shape}")
    return _wrap(np.bitwise_xor(a.bits, b.bits))


def transpose(a: BinaryMatrix) -> BinaryMatrix:
    return _wrap(a.bits.T)


def hstack(*ms: BinaryMatrix) -> BinaryMatrix:
    """Concatenate columns, left to right."""
    if not ms:
        raise ValueError("hstack needs at least one matrix")
    return _wrap(np.hstack([m.bits for m in ms]))


def vstack(*ms: BinaryMatrix) -> BinaryMatrix:
    if not ms:
        raise ValueError("vstack needs at least one matrix")
    return _wrap(np.vstack([m.bits for m in ms]))


def row_echelon(m: BinaryMatrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2).

    Pivot rule is deterministic: columns are scanned left to right and the
    first remaining row with a 1 in the current column becomes the pivot.
    Pivot columns are cleared above and below.

    Returns:
        (rref, pivot_cols): the reduced uint8 array (same shape) and the
        list of pivot column indices in increasing order.
    """
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
        # clear every other 1 in this column, above and below
        hits = np.nonzero(a[:, c])[0]
        for i in hits:
            if i != r:
                a[i] ^= a[r]
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols


def rank(m: BinaryMatrix) -> int:
    return len(row_echelon(m)[1])


def kernel_basis(m: BinaryMatrix) -> list[BinaryMatrix]:
    """Basis of {v : M v^T = 0 (mod 2)} as 1 x cols matrices.

    Deterministic: one basis vector per free column, in increasing column
    order, with the free coordinate set to 1 and pivot coordinates solved
    from the reduced echelon form.
    """
    rref, pivot_cols = row_echelon(m)
    n_cols = m.cols
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis: list[BinaryMatrix] = []
    for fc in free_cols:
        v = np.zeros(n_cols, dtype=np.uint8)
        v[fc] = 1
        for r_idx, pc in enumerate(pivot_cols):
            if rref[r_idx, fc]:
                v[pc] = 1
        basis.append(_wrap(v[None, :]))
    return basis


def row_space_contains(m: BinaryMatrix, v: BinaryMatrix) -> bool:
    """True iff the 1 x n vector v lies in the row space of m."""
    if v.rows != 1 or v.cols != m.cols:
        raise ValueError(f"expected a 1x{m.cols} vector, got {v.rows}x{v.cols}")
    rref, pivot_cols = row_echelon(m)
    residue = v.bits[0].copy()
    for r_idx, pc in enumerate(pivot_cols):
        if residue[pc]:
            residue ^= rref[r_idx]
    return not residue.any()
