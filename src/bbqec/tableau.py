"""Stabilizer-tableau simulator, the independent oracle of circuit semantics.

Standard destabilizer/stabilizer tableau with sign tracking: rows 0..n-1
hold destabilizers, rows n..2n-1 stabilizers. Pauli rows are stored as
(x bits, z bits, sign bits) and products are accumulated with the usual
group-phase bookkeeping (Aaronson & Gottesman, PRA 70, 052328, 2004).
Its two jobs are to run compiled circuits noiselessly
(``circuit.verify_circuit``) and to replay forced faults against the
noise module's fault-effect table (``tests/test_noise.py``), so it keeps
only what they call: ``h``, ``cz``, the faults ``pauli_x`` and
``pauli_z``, and Z measurement. It imports nothing from the package.

The tableau is updated a layer at a time, and each public call checks
its qubits once. ``h`` and ``cz`` take a whole layer of gates on
distinct qubits: each gate then reads and writes only its own columns,
so the gates commute and one numpy step over all their columns is exact. ``measure_many`` takes a
layer of Z measurements. One that is deterministic when the layer starts
keeps its outcome whatever the layer's other (commuting) Z measurements
do, and it leaves the tableau as it is; so all of those outcomes come
from one grouped sign product, and only the rest are measured one by
one, in order.

One tableau runs B computational basis states at once. Clifford gates,
Pauli gates and the choice of measurement pivot act on the x/z part
independently of the signs, and every rowsum's power of i depends on x/z
alone; only the signs differ between the states. So the x/z part is
shared and the signs are a (2n, B) bit array, one column per state.
Measurements return B outcome bits and are random for all states or for
none. Their coin flips come from an injectable source so that runs
replay deterministically.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["StabilizerTableau"]

# Returns the B outcome bits of one random measurement; a scalar serves all.
CoinSource = Callable[[], "int | Sequence[int] | np.ndarray"]


def _g_sum(x1, z1, x2, z2) -> np.ndarray:
    """Exponent of i from multiplying Pauli rows (x1, z1) into (x2, z2),
    summed over qubits (the last axis)."""
    x1, z1, x2, z2 = (a.astype(np.int8) for a in (x1, z1, x2, z2))
    g = (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )
    return g.sum(axis=-1, dtype=np.int64)


def _sign_flips(g: np.ndarray) -> np.ndarray:
    """Sign flip (0/1) of each rowsum from its exponent of i."""
    if (g % 2).any():
        raise AssertionError("non-Hermitian rowsum; tableau corrupted")
    return ((g % 4) // 2).astype(np.uint8)


def _xor_prefix(a: np.ndarray) -> np.ndarray:
    """Exclusive XOR prefixes of the rows of a: row i of the result is the
    XOR of rows 0..i-1, and one more row holds the XOR of them all."""
    head = np.zeros((1, *a.shape[1:]), a.dtype)
    return np.vstack([head, np.bitwise_xor.accumulate(a, axis=0)])


def _qubits(n: int, qubits) -> np.ndarray:
    """One qubit, or a sequence of them, as an index array. ValueError
    unless each is an int (not a bool) in [0, n)."""
    qs = np.asarray(qubits).reshape(-1)
    flat = qs.tolist()  # min and max of a list cost less than numpy's on a layer
    if flat and (qs.dtype.kind not in "iu" or min(flat) < 0 or max(flat) >= n):
        raise ValueError(f"qubits must be ints in [0, {n}), got {qubits!r}")
    return qs.astype(np.intp, copy=False)


def _layer(n: int, *legs) -> list[np.ndarray]:
    """The legs of one gate, or of a layer of gates, as ``_qubits`` arrays
    (one per operand); ValueError for legs of unequal length or a repeat."""
    legs = [_qubits(n, q) for q in legs]
    qubits = np.concatenate(legs).tolist()
    if len({len(leg) for leg in legs}) != 1 or len(set(qubits)) != len(qubits):
        raise ValueError(f"a layer acts on each qubit once, in whole gates: {legs}")
    return legs


class StabilizerTableau:
    """n-qubit stabilizer states sharing one x/z part.

    ``states`` is a (B, n) array of 0/1: state b starts in the
    computational basis state with qubit q set iff states[b, q] is 1. By
    default there is one state, all zeros. Outcomes are (B,) uint8 arrays.
    """

    def __init__(
        self,
        n: int,
        coin: CoinSource | None = None,
        states: np.ndarray | Sequence[Sequence[int]] | None = None,
    ):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"need an int count of qubits >= 1, got {n!r}")
        self.n = n = int(n)
        if states is None:
            states = np.zeros((1, n), dtype=np.uint8)
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != n:
            raise ValueError(f"states must have shape (B, {n}) with B >= 1")
        if ((states != 0) & (states != 1)).any():
            raise ValueError("states must hold 0 and 1 only")
        self.x = np.eye(2 * n, n, dtype=np.uint8)  # destabilizer X_i
        self.z = np.eye(2 * n, n, -n, dtype=np.uint8)  # stabilizer (-1)^s Z_i
        self.r = np.zeros((2 * n, states.shape[0]), dtype=np.uint8)
        self.r[n:] = states.T
        self._coin = coin if coin is not None else (lambda: 0)

    # ---- gates ----

    def h(self, qubits: int | Sequence[int]) -> None:
        """Hadamard on one qubit, or on a layer of distinct qubits."""
        (qs,) = _layer(self.n, qubits)
        x, z = self.x[:, qs], self.z[:, qs]  # copies
        self.r ^= np.bitwise_xor.reduce(x & z, axis=1)[:, None]
        self.x[:, qs], self.z[:, qs] = z, x

    def cz(self, a: int | Sequence[int], b: int | Sequence[int]) -> None:
        """CZ on one pair, or on a layer of pairs (a[i], b[i]) whose qubits
        are all distinct."""
        a, b = _layer(self.n, a, b)
        # composition H(b) CNOT(a,b) H(b) reduced to a direct update
        xa, xb = self.x[:, a], self.x[:, b]
        flip = xa & xb & (self.z[:, a] ^ self.z[:, b])
        self.r ^= np.bitwise_xor.reduce(flip, axis=1)[:, None]
        self.z[:, a] ^= xb
        self.z[:, b] ^= xa

    def pauli_x(self, q: int) -> None:
        """X on qubit q in every state."""
        (q,) = _qubits(self.n, q).tolist()
        self.r ^= self.z[:, q][:, None]

    def pauli_z(self, q: int) -> None:
        """Z on qubit q in every state."""
        (q,) = _qubits(self.n, q).tolist()
        self.r ^= self.x[:, q][:, None]

    # ---- phase bookkeeping ----

    def _product_signs(self, rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Signs (groups, B) of products of rows: group g multiplies
        rows[bounds[g]:bounds[g + 1]] together in order. An empty group
        is the identity, sign 0."""
        xs, zs = self.x[rows], self.z[rows]
        start = np.repeat(bounds[:-1], np.diff(bounds))  # each row's group start
        px, pz = _xor_prefix(xs), _xor_prefix(zs)
        # the product so far in its group, which each row is multiplied into
        flip = _sign_flips(_g_sum(xs, zs, px[:-1] ^ px[start], pz[:-1] ^ pz[start]))
        signs = _xor_prefix(self.r[rows] ^ flip[:, None])
        return signs[bounds[1:]] ^ signs[bounds[:-1]]

    # ---- measurement ----

    def measure(self, q: int) -> np.ndarray:
        """Z-basis measurement of qubit q in every state; collapses them."""
        (out,) = self.measure_many([q])
        return out

    def measure_many(self, qubits: Sequence[int]) -> np.ndarray:
        """Z-basis measurements of the qubits in order, as if made one at
        a time: outcomes (len(qubits), B), the coins drawn in order, one
        per random measurement, and the tableau collapsed by each.

        A measurement that is deterministic when the call starts stays
        so, with the same outcome, and changes nothing; those come from
        one grouped sign product. The rest are measured in order.
        """
        n, qs = self.n, _qubits(self.n, qubits)
        out = np.empty((len(qs), self.r.shape[1]), dtype=np.uint8)
        fixed = ~self.x[n:, qs].any(axis=0)
        # (measurement, destabilizer) pairs, grouped by measurement
        group, rows = np.nonzero(self.x[:n, qs[fixed]].T)
        bounds = np.searchsorted(group, np.arange(int(fixed.sum()) + 1))
        out[fixed] = self._product_signs(n + rows, bounds)
        for i, q in zip(np.flatnonzero(~fixed).tolist(), qs[~fixed].tolist()):
            stab_hits = np.nonzero(self.x[n:, q])[0]
            if not stab_hits.size:  # fixed by an earlier outcome of this call
                rows = n + np.flatnonzero(self.x[:n, q])
                out[i] = self._product_signs(rows, np.array([0, len(rows)]))[0]
                continue
            p = n + int(stab_hits[0])
            # row p-n is about to be overwritten by row p; multiplying it
            # first would form an anti-Hermitian product, so skip it
            hit = self.x[:, q].astype(bool)
            hit[[p, p - n]] = False
            rows = np.flatnonzero(hit)
            flip = _sign_flips(_g_sum(self.x[p], self.z[p], self.x[rows], self.z[rows]))
            self.r[rows] ^= self.r[p] ^ flip[:, None]
            self.x[rows] ^= self.x[p]
            self.z[rows] ^= self.z[p]
            for a in (self.x, self.z, self.r):
                a[p - n] = a[p]
            self.x[p] = self.z[p] = 0
            self.z[p, q] = 1
            coin = np.asarray(self._coin(), dtype=np.uint8) & 1
            out[i] = self.r[p] = np.broadcast_to(coin, self.r.shape[1:])
        return out
