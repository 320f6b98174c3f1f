"""Stabilizer-tableau simulator used as a verification oracle.

Standard destabilizer/stabilizer tableau with sign tracking: rows 0..n-1
hold destabilizers, rows n..2n-1 stabilizers. Pauli rows are stored as
(x bits, z bits, sign bits) and products are accumulated with the usual
group-phase bookkeeping (Aaronson & Gottesman, PRA 70, 052328, 2004).
It checks compiled circuits (``circuit.verify_circuit``) and the
fault-effect table of the noise module (the forced-fault oracle in
``tests/test_noise.py``).

The tableau is updated a layer at a time. ``h`` and ``cz`` take a whole
layer of gates on distinct qubits: each gate then reads and writes only
its own columns, so the gates commute and one numpy step over all their
columns is exact. ``measure_many`` takes a layer of Z measurements. One
that is deterministic when the layer starts keeps its outcome whatever
the layer's other (commuting) Z measurements do, and it leaves the
tableau as it is; so all of those outcomes come from one grouped sign
product, and only the rest are measured one by one, in order.

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

from . import gf2

__all__ = ["StabilizerTableau"]

# Returns the B outcome bits of one random measurement (a scalar serves
# every state).
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


def _layer(*legs) -> list[np.ndarray]:
    """The legs of one gate, or of a layer of gates, as index arrays (one
    per operand). Legs of unequal length, or a qubit used twice, raise
    ValueError."""
    legs = [np.asarray(q, dtype=np.intp).reshape(-1) for q in legs]
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
        if n < 1:
            raise ValueError("need at least one qubit")
        if states is None:
            states = np.zeros((1, n), dtype=np.uint8)
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != n:
            raise ValueError(f"states must have shape (B, {n}) with B >= 1")
        if ((states != 0) & (states != 1)).any():
            raise ValueError("states must hold 0 and 1 only")
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros((2 * n, states.shape[0]), dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1          # destabilizer X_i
            self.z[n + i, i] = 1      # stabilizer (-1)^s Z_i
        self.r[n:] = states.T
        self._coin = coin if coin is not None else (lambda: 0)

    def copy(self) -> "StabilizerTableau":
        dup = StabilizerTableau.__new__(StabilizerTableau)
        dup.n = self.n
        dup.x = self.x.copy()
        dup.z = self.z.copy()
        dup.r = self.r.copy()
        dup._coin = self._coin
        return dup

    # ---- gates ----

    def h(self, qubits: int | Sequence[int]) -> None:
        """Hadamard on one qubit, or on a layer of distinct qubits."""
        (qs,) = _layer(qubits)
        x, z = self.x[:, qs], self.z[:, qs]  # copies
        self.r ^= np.bitwise_xor.reduce(x & z, axis=1)[:, None]
        self.x[:, qs], self.z[:, qs] = z, x

    def s(self, q: int) -> None:
        self.r ^= (self.x[:, q] & self.z[:, q])[:, None]
        self.z[:, q] ^= self.x[:, q]

    def cnot(self, c: int, t: int) -> None:
        flip = self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.r ^= flip[:, None]
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def cz(self, a: int | Sequence[int], b: int | Sequence[int]) -> None:
        """CZ on one pair, or on a layer of pairs (a[i], b[i]) whose qubits
        are all distinct."""
        a, b = _layer(a, b)
        # composition H(b) CNOT(a,b) H(b) reduced to a direct update
        xa, xb = self.x[:, a], self.x[:, b]
        flip = xa & xb & (self.z[:, a] ^ self.z[:, b])
        self.r ^= np.bitwise_xor.reduce(flip, axis=1)[:, None]
        self.z[:, a] ^= xb
        self.z[:, b] ^= xa

    def pauli_x(self, q: int) -> None:
        self.r ^= self.z[:, q][:, None]

    def pauli_z(self, q: int) -> None:
        self.r ^= self.x[:, q][:, None]

    def pauli_y(self, q: int) -> None:
        self.r ^= (self.x[:, q] ^ self.z[:, q])[:, None]

    def apply_gate(self, gate: str, qubits: Sequence[int]) -> None:
        table = {
            "H": self.h,
            "S": self.s,
            "X": self.pauli_x,
            "Z": self.pauli_z,
            "Y": self.pauli_y,
            "CNOT": self.cnot,
            "CZ": self.cz,
        }
        table[gate](*qubits)

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
        n = self.n
        stab_hits = np.nonzero(self.x[n:, q])[0]
        if stab_hits.size:
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
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            coin = np.asarray(self._coin(), dtype=np.uint8) & 1
            self.r[p] = np.broadcast_to(coin, self.r.shape[1:])
            return self.r[p].copy()
        # deterministic: the matching stabilizer product
        rows = n + np.flatnonzero(self.x[:n, q])
        return self._product_signs(rows, np.array([0, len(rows)]))[0]

    def measure_many(self, qubits: Sequence[int]) -> np.ndarray:
        """Z-basis measurements of the qubits in order, as ``measure``
        would make them one by one: outcomes (len(qubits), B), the same
        coins drawn in the same order, and the same final tableau.

        A measurement that is deterministic when the call starts stays
        so, with the same outcome, and changes nothing; those come from
        one grouped sign product. The rest are measured in order.
        """
        n = self.n
        qs = np.asarray(qubits, dtype=np.intp).reshape(-1)
        out = np.empty((len(qs), self.r.shape[1]), dtype=np.uint8)
        fixed = ~self.x[n:, qs].any(axis=0)
        # (measurement, destabilizer) pairs, grouped by measurement
        group, rows = np.nonzero(self.x[:n, qs[fixed]].T)
        bounds = np.searchsorted(group, np.arange(int(fixed.sum()) + 1))
        out[fixed] = self._product_signs(n + rows, bounds)
        for i in np.flatnonzero(~fixed).tolist():
            out[i] = self.measure(int(qs[i]))
        return out

    def measure_deterministic(self, q: int) -> np.ndarray | None:
        """Outcomes of measuring Z_q if determined, else None. No collapse."""
        if self.x[self.n :, q].any():
            return None
        return self.measure(q)

    def z_parity(self, support: Sequence[int]) -> np.ndarray:
        """Sampled joint parity of Z over the support qubits.

        Measures a copy qubit-by-qubit; the XOR of individual outcomes is a
        valid sample of the product observable (all factors commute).
        """
        return np.bitwise_xor.reduce(self.copy().measure_many(support), axis=0)

    def z_parity_deterministic(self, support: Sequence[int]) -> np.ndarray | None:
        """Joint Z parity when the product observable is fixed, else None.

        The Z product over the support is determined exactly when it lies in
        the stabilizer group (up to sign); membership is solved over GF(2)
        with the row combination tracked, and the sign accumulated by
        multiplying the selected stabilizer rows together.
        """
        n = self.n
        # reduce [target | 0] against the RREF of [stabilizer x | z | I]:
        # the stabilizer rows are independent, so every pivot lies in the
        # x|z part, and the identity part of the residue records which
        # stabilizers the reduction added
        target = np.zeros((1, 3 * n), dtype=np.uint8)
        for q in support:
            target[0, n + q] ^= 1
        rref, pivots = gf2.row_echelon(
            gf2.BinaryMatrix(np.hstack([self.x[n:], self.z[n:], np.eye(n, dtype=np.uint8)]))
        )
        residue = gf2.reduce_rows(rref, pivots, target)[0]
        if residue[: 2 * n].any():
            return None
        rows = n + np.flatnonzero(residue[2 * n :])
        return self._product_signs(rows, np.array([0, len(rows)]))[0]
