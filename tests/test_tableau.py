"""Tableau simulator against a dense statevector oracle on small systems."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbqec.tableau import StabilizerTableau

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class Statevector:
    """Dense reference simulator; qubit 0 is the most significant axis."""

    def __init__(self, n: int):
        self.n = n
        self.psi = np.zeros(2**n, dtype=complex)
        self.psi[0] = 1.0

    def _apply_1q(self, u: np.ndarray, q: int):
        psi = self.psi.reshape([2] * self.n)
        psi = np.moveaxis(psi, q, 0)
        psi = np.tensordot(u, psi, axes=(1, 0))
        self.psi = np.moveaxis(psi, 0, q).reshape(-1)

    def _apply_2q(self, u4: np.ndarray, a: int, b: int):
        psi = self.psi.reshape([2] * self.n)
        psi = np.moveaxis(psi, (a, b), (0, 1))
        shape = psi.shape
        psi = u4 @ psi.reshape(4, -1)
        psi = psi.reshape(shape)
        self.psi = np.moveaxis(psi, (0, 1), (a, b)).reshape(-1)

    def apply(self, gate: str, qubits):
        if gate == "H":
            self._apply_1q(H, qubits[0])
        elif gate == "X":
            self._apply_1q(X, qubits[0])
        elif gate == "Z":
            self._apply_1q(Z, qubits[0])
        elif gate == "CZ":
            self._apply_2q(np.diag([1, 1, 1, -1]).astype(complex), *qubits)
        else:
            raise KeyError(gate)

    def pauli_row_matrix(self, xbits, zbits, r):
        op = np.array([[1.0 + 0j]])
        for xb, zb in zip(xbits, zbits):
            local = np.eye(2, dtype=complex)
            if xb:
                local = local @ X
            if zb:
                local = local @ Z
            op = np.kron(op, local)
        phase = (-1) ** int(r) * (1j) ** int(np.dot(xbits, zbits) % 4)
        return phase * op

    def prob_zero(self, q: int) -> float:
        psi = self.psi.reshape([2] * self.n)
        psi = np.moveaxis(psi, q, 0)
        return float(np.sum(np.abs(psi[0]) ** 2))

    def collapse(self, q: int, outcome: int):
        psi = self.psi.reshape([2] * self.n)
        psi = np.moveaxis(psi, q, 0).copy()
        psi[1 - outcome] = 0
        norm = np.linalg.norm(psi)
        psi /= norm
        self.psi = np.moveaxis(psi, 0, q).reshape(-1)


GATES_1Q = ["H", "X", "Z"]
GATES_2Q = ["CZ"]
# H(1) CZ(0, 1) H(1) is CNOT(0, 1): the gates of a Bell pair
BELL = [("H", (0,)), ("H", (1,)), ("CZ", (0, 1)), ("H", (1,))]


def apply(tab: StabilizerTableau, gate: str, qubits) -> None:
    """One gate of a random circuit on the tableau."""
    {"H": tab.h, "X": tab.pauli_x, "Z": tab.pauli_z, "CZ": tab.cz}[gate](*qubits)


@st.composite
def random_circuits(draw):
    n = draw(st.integers(2, 5))
    length = draw(st.integers(1, 25))
    ops = []
    for _ in range(length):
        if draw(st.booleans()):
            ops.append((draw(st.sampled_from(GATES_1Q)), (draw(st.integers(0, n - 1)),)))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1))
            if a == b:
                b = (a + 1) % n
            ops.append((draw(st.sampled_from(GATES_2Q)), (a, b)))
    return n, ops


def run_both(n, ops):
    tab = StabilizerTableau(n)
    vec = Statevector(n)
    for gate, qubits in ops:
        apply(tab, gate, qubits)
        vec.apply(gate, qubits)
    return tab, vec


def measure_on_two_replays(n, ops, q, *, states=None, before=(), coins=lambda k: 0):
    """Measure q after ``ops`` and Z measurements of ``before`` on two
    fresh tableaux whose k-th coin is coins(k), except that the second
    one draws the complement for q. So q's outcome is deterministic
    exactly when the two outcomes agree. Returns the first tableau and
    both outcomes."""
    runs = []
    for flip in (0, 1):
        draws, last = itertools.count(), [0]  # last: what q's coin is XORed with
        tab = StabilizerTableau(
            n, coin=lambda d=draws, f=last: np.asarray(coins(next(d))) ^ f[0], states=states
        )
        for gate, qubits in ops:
            apply(tab, gate, qubits)
        for p in before:
            tab.measure(p)
        last[0] = flip
        runs.append((tab, tab.measure(q)))
    (tab, first), (_, second) = runs
    return tab, first, second


def assert_stabilizers_fix_state(tab: StabilizerTableau, vec: Statevector, state: int = 0):
    for i in range(tab.n, 2 * tab.n):
        op = vec.pauli_row_matrix(tab.x[i], tab.z[i], tab.r[i, state])
        np.testing.assert_allclose(op @ vec.psi, vec.psi, atol=1e-9)


@given(random_circuits())
@settings(max_examples=60, deadline=None)
def test_stabilizer_rows_fix_the_statevector(circ):
    n, ops = circ
    tab, vec = run_both(n, ops)
    assert_stabilizers_fix_state(tab, vec)


@given(random_circuits())
@settings(max_examples=40, deadline=None)
def test_measurement_agrees_with_statevector(circ):
    n, ops = circ
    _, vec = run_both(n, ops)
    for q in range(n):
        p0 = vec.prob_zero(q)
        # coins read 0, and 1 on the second replay's measurement of q
        tab, got, other = measure_on_two_replays(n, ops, q, before=range(q))
        if p0 > 1 - 1e-9 or p0 < 1e-9:
            expected = 0 if p0 > 0.5 else 1
            assert got == other == expected
            vec.collapse(q, expected)
        else:
            assert abs(p0 - 0.5) < 1e-9
            assert (got, other) == (0, 1)
            vec.collapse(q, got)
        assert_stabilizers_fix_state(tab, vec)


@given(random_circuits(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_every_state_of_a_batch_follows_its_statevector(circ, seed):
    n, ops = circ
    rng = np.random.default_rng(seed)
    states = rng.integers(0, 2, size=(3, n))
    coins = rng.integers(0, 2, size=(n, 3))
    tab = StabilizerTableau(n, states=states)
    vecs = []
    for bits in states:
        vec = Statevector(n)
        for q in np.flatnonzero(bits):
            vec.apply("X", (q,))
        vecs.append(vec)
    for gate, qubits in ops:
        apply(tab, gate, qubits)
        for vec in vecs:
            vec.apply(gate, qubits)
    for b, vec in enumerate(vecs):
        assert_stabilizers_fix_state(tab, vec, b)
    for q in range(n):
        tab, got, other = measure_on_two_replays(
            n, ops, q, states=states, before=range(q), coins=coins.__getitem__
        )
        assert got.shape == (3,)
        # random for every state or for none
        assert (got == other).all() or (got != other).all()
        random_outcome = (got != other).all()
        for b, vec in enumerate(vecs):
            p0 = vec.prob_zero(q)
            if random_outcome:
                assert abs(p0 - 0.5) < 1e-9
            else:
                assert abs(p0 - (1 - got[b])) < 1e-9
            vec.collapse(q, int(got[b]))
            assert_stabilizers_fix_state(tab, vec, b)


@st.composite
def layered_circuits(draw):
    """A random circuit, then layers of H or CZ gates on distinct qubits."""
    n, ops = draw(random_circuits())
    layers = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.permutations(range(n)))
        used = order[: draw(st.integers(0, n))]
        if draw(st.booleans()):
            layers.append(("H", [(q,) for q in used]))
        else:
            layers.append(("CZ", list(zip(used[0::2], used[1::2]))))
    return n, ops, layers


@given(layered_circuits(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_layer_calls_equal_gate_by_gate_calls(circ, seed):
    n, ops, layers = circ
    states = np.random.default_rng(seed).integers(0, 2, size=(3, n))
    by_layer = StabilizerTableau(n, states=states)
    by_gate = StabilizerTableau(n, states=states)
    vecs = []
    for bits in states:
        vec = Statevector(n)
        for q in np.flatnonzero(bits):
            vec.apply("X", (q,))
        vecs.append(vec)
    for gate, qubits in ops:
        apply(by_layer, gate, qubits)
        apply(by_gate, gate, qubits)
        for vec in vecs:
            vec.apply(gate, qubits)
    for gate, gates in layers:
        if gate == "H":
            by_layer.h([q for (q,) in gates])
        else:
            by_layer.cz([a for a, _ in gates], [b for _, b in gates])
        for qubits in gates:
            apply(by_gate, gate, qubits)
            for vec in vecs:
                vec.apply(gate, qubits)
    assert np.array_equal(by_layer.x, by_gate.x)
    assert np.array_equal(by_layer.z, by_gate.z)
    assert np.array_equal(by_layer.r, by_gate.r)
    for b, vec in enumerate(vecs):
        assert_stabilizers_fix_state(by_layer, vec, b)


@given(
    random_circuits(),
    st.lists(st.lists(st.integers(0, 4), max_size=4), max_size=4),
    st.integers(0, 2**32 - 1),
)
@example(circ=(2, BELL), groups=[[0], [1]], seed=0)  # XX, ZZ
@settings(max_examples=60, deadline=None)
def test_grouped_sign_products_equal_one_product_per_group(circ, groups, seed):
    n, ops = circ
    states = np.random.default_rng(seed).integers(0, 2, size=(3, n))
    tab = StabilizerTableau(n, states=states)
    for gate, qubits in ops:
        apply(tab, gate, qubits)
    # stabilizer rows commute, so every group's product is Hermitian
    groups = [np.array(sorted({n + q % n for q in g}), dtype=np.intp) for g in groups]
    rows = np.concatenate([np.zeros(0, dtype=np.intp), *groups])
    bounds = np.cumsum([0] + [len(g) for g in groups])
    want = [tab._product_signs(g, np.array([0, len(g)]))[0] for g in groups]
    assert np.array_equal(tab._product_signs(rows, bounds), np.reshape(want, (-1, 3)))


def _counting_coins(states: int, log: list):
    """Coin source whose k-th call returns the bits of k + 1, one per
    state, so calls made in another order give other outcomes."""

    def coin():
        log.append(len(log))
        return (len(log) >> np.arange(states)) & 1

    return coin


def _prepared(n, ops, states, log):
    tab = StabilizerTableau(n, coin=_counting_coins(len(states), log), states=states)
    for gate, qubits in ops:
        apply(tab, gate, qubits)
    return tab


def _assert_measure_many_is_measure_in_order(n, ops, states, qubits):
    many_log, one_log = [], []
    many = _prepared(n, ops, states, many_log)
    one = _prepared(n, ops, states, one_log)
    got = many.measure_many(qubits)
    want = np.array([one.measure(q) for q in qubits]).reshape(len(qubits), len(states))
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert many_log == one_log  # the same number of coins, drawn in order
    assert np.array_equal(many.x, one.x)
    assert np.array_equal(many.z, one.z)
    assert np.array_equal(many.r, one.r)
    return got, many_log


@given(random_circuits(), st.lists(st.integers(0, 4), max_size=8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_measure_many_equals_measure_in_order(circ, order, seed):
    n, ops = circ
    states = np.random.default_rng(seed).integers(0, 2, size=(5, n))
    _assert_measure_many_is_measure_in_order(n, ops, states, [q % n for q in order])


def test_measure_many_on_a_bell_pair_reads_the_partner_after_the_collapse():
    states = np.zeros((5, 2), dtype=np.uint8)
    _, first, second = measure_on_two_replays(2, BELL, 1, states=states)
    assert (first != second).all()  # q1 alone is random
    got, log = _assert_measure_many_is_measure_in_order(2, BELL, states, [0, 1])
    # q1 is random when the layer starts, fixed by q0's outcome after it
    assert len(log) == 1
    assert np.array_equal(got[0], got[1]) and got[0].any()


def test_measure_many_with_a_repeated_qubit():
    ops = [("H", (0,)), ("X", (1,))]
    states = np.zeros((5, 3), dtype=np.uint8)
    got, log = _assert_measure_many_is_measure_in_order(3, ops, states, [0, 1, 0, 1, 2])
    assert len(log) == 1  # only the first read of q0 is random
    assert np.array_equal(got[0], got[2])
    assert got[1].all() and got[3].all() and not got[4].any()


def test_layer_calls_reject_a_repeated_qubit():
    tab = StabilizerTableau(4)
    for bad in (lambda: tab.h([0, 1, 0]), lambda: tab.cz([0, 1], [2, 1]),
                lambda: tab.cz(2, 2), lambda: tab.cz([0], [1, 2])):
        with pytest.raises(ValueError):
            bad()
    assert np.array_equal(tab.x, StabilizerTableau(4).x)


def test_states_must_be_basis_states_of_n_qubits():
    for bad in ([[0, 1]], [[0, 2, 1]], np.zeros((0, 3)), [0, 1, 1]):
        with pytest.raises(ValueError):
            StabilizerTableau(3, states=bad)


def test_repeat_measurement_is_stable():
    tab = StabilizerTableau(3, coin=lambda: 1)
    for gate, qubits in BELL:
        apply(tab, gate, qubits)
    first = tab.measure(0)
    assert first == 1
    assert tab.measure(0) == first
    assert tab.measure(1) == first  # Bell pair correlations


def test_injected_coins_replay():
    coins = iter([1, 0, 1])
    tab = StabilizerTableau(3, coin=lambda: next(coins))
    for q in range(3):
        tab.h(q)
    assert [tab.measure(q) for q in range(3)] == [1, 0, 1]


def test_cz_phase_convention():
    # CZ on |++> leaves X1X2 stabilizer product intact up to the known sign
    tab = StabilizerTableau(2)
    tab.h(0)
    tab.h(1)
    tab.cz(0, 1)
    vec = Statevector(2)
    vec.apply("H", (0,))
    vec.apply("H", (1,))
    vec.apply("CZ", (0, 1))
    assert_stabilizers_fix_state(tab, vec)


def test_rejects_empty_register():
    with pytest.raises(ValueError):
        StabilizerTableau(0)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: t.h(-1),
        lambda t: t.h(5),
        lambda t: t.h([0, 2]),
        lambda t: t.h(1.0),
        lambda t: t.h(True),
        lambda t: t.cz(0, 7),
        lambda t: t.cz([0], [-1]),
        lambda t: t.pauli_x(5),
        lambda t: t.pauli_z(-2),
        lambda t: t.measure(3),
        lambda t: t.measure(-1),
        lambda t: t.measure_many([0, 4]),
        lambda t: t.measure_many([0.0]),
    ],
    ids=["h(-1)", "h(5)", "h([0,2])", "h(1.0)", "h(True)", "cz(0,7)", "cz(-1)", "pauli_x(5)",
         "pauli_z(-2)", "measure(3)", "measure(-1)", "measure_many([0,4])", "measure_many(0.0)"],
)
def test_qubits_outside_the_register_are_rejected(call):
    tab = StabilizerTableau(2, coin=lambda: 1)
    tab.h(0)
    before = tab.x.copy(), tab.z.copy(), tab.r.copy()
    with pytest.raises(ValueError):
        call(tab)
    assert all(map(np.array_equal, (tab.x, tab.z, tab.r), before))


@pytest.mark.parametrize("n", [2.5, True, -1, "3", None])
def test_qubit_count_must_be_an_int_of_at_least_one(n):
    with pytest.raises(ValueError):
        StabilizerTableau(n)


def test_numpy_ints_are_qubits():
    tab = StabilizerTableau(np.int64(2))
    tab.h(np.int32(1))
    tab.cz(np.uint8(0), np.int64(1))
    assert tab.n == 2 and type(tab.n) is int
    assert tab.measure_many(np.array([0, 1], dtype=np.uint16)).shape == (2, 1)
