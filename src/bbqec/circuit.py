"""Timed-layer circuits for repeated CZ-based stabilizer extraction.

A circuit is an ordered tuple of gate layers. Each syndrome cycle is a
contiguous slice holding exactly seven CZ layers, the single-qubit layers
compiled around them, one check-measurement layer, and either a
dynamical-decoupling layer (between cycles) or the final data readout.
Check qubits are never reset, so consecutive measurement outcomes must be
differenced downstream to recover stabilizer values.

Qubit indexing is global: data qubits 0..n-1 (left block then right
block), then one ancilla per retained X check, then one per retained
Z check.

The gate table (``GateTable``) is the one array form of a circuit, and
``gate_table``, which reads it, is where a circuit is checked against a
code and memory basis; the tableau oracle and the noise layer read it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import gf2
from .codes import CssCode, _as_int, _is_int, _is_sequence
from .tableau import StabilizerTableau

__all__ = [
    "SINGLE_QUBIT", "CZ", "MEASURE_CHECKS", "READOUT_DATA", "DD_IDLE", "LAYER_KINDS", "GATE_NAMES",
    "ScheduleError", "CircuitParseError", "GateLayer", "Circuit",
    "QubitLayout", "qubit_layout", "CzSchedule", "arrangements", "arrangement_commutes",
    "schedule_cz_layers", "build_syndrome_circuit", "GateTable", "gate_table", "VerifyReport",
    "verify_circuit", "serialize_circuit", "parse_circuit",
]

SINGLE_QUBIT = "SINGLE_QUBIT"
CZ = "CZ"
MEASURE_CHECKS = "MEASURE_CHECKS"
READOUT_DATA = "READOUT_DATA"
DD_IDLE = "DD_IDLE"

LAYER_KINDS = (SINGLE_QUBIT, CZ, MEASURE_CHECKS, READOUT_DATA, DD_IDLE)

# gate name -> (operand count, the only layer kind that may hold it)
_GATE_RULES = {
    "H": (1, SINGLE_QUBIT),
    "I": (1, SINGLE_QUBIT),
    "CZ": (2, CZ),
    "M": (1, MEASURE_CHECKS),
    "RD": (1, READOUT_DATA),
    "DD": (1, DD_IDLE),
}
# a gate table names each gate by its index here
GATE_NAMES = tuple(_GATE_RULES)
_NAME_INDEX = {name: i for i, name in enumerate(GATE_NAMES)}


class ScheduleError(Exception):
    """No valid depth-7 CZ assignment was found."""


class CircuitParseError(ValueError):
    """Text form could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _check_gates(kind: str | None, gates, seen: set[int]) -> list[tuple[str, tuple[int, ...]]]:
    """The gates, each qubit as an int. Raises ValueError unless each
    gate's name is known, ``kind`` is its home layer kind, it has its
    arity and each qubit is a non-negative integer that no other gate of
    the layer uses (``seen`` holds those of its earlier gates and gains
    these)."""
    checked = []
    for name, qubits in gates:
        rule = _GATE_RULES.get(name)
        if rule is None:
            raise ValueError(f"unknown gate {name!r}")
        arity, home = rule
        if home != kind:
            raise ValueError(f"gate {name} cannot appear in a {kind} layer")
        qubits = tuple(qubits)
        if len(qubits) != arity:
            raise ValueError(f"gate {name} takes {arity} qubit operand(s), got {len(qubits)}")
        for q in qubits:
            # int(q) would read 1.7, True or "2" as a qubit
            if type(q) is not int and not isinstance(q, np.integer):
                raise ValueError(f"qubit {q!r} is not an integer")
            if q < 0:
                raise ValueError("negative qubit index")
            if q in seen:
                raise ValueError(f"qubit {q} used twice in one layer")
            seen.add(q)
        checked.append((name, tuple(map(int, qubits))))
    return checked


@dataclass(frozen=True)
class GateLayer:
    kind: str
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if not self.gates and self.kind != CZ:
            # the text form writes an empty layer as a bare TICK, which
            # reads back as CZ
            raise ValueError(f"a {self.kind} layer needs at least one gate")
        object.__setattr__(self, "gates", tuple(_check_gates(self.kind, self.gates, set())))

    def qubits(self) -> frozenset[int]:
        return frozenset(q for _, qs in self.gates for q in qs)

    def count(self, name: str) -> int:
        return sum(1 for g, _ in self.gates if g == name)


@dataclass(frozen=True)
class Circuit:
    """Gate layers with their cycle boundaries.

    ``basis`` is the memory basis ("Z" or "X") the circuit was built
    for, or None when unknown (a hand-built circuit). Consumers that
    take a basis reject a circuit recorded for the other one.
    """

    qubit_count: int
    layers: tuple[GateLayer, ...]
    cycle_boundaries: tuple[int, ...]
    basis: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        b = tuple(self.cycle_boundaries)
        if not all(map(_is_int, b)):  # int(b) would read 0.7, "0" or False as 0
            raise ValueError(f"cycle_boundaries must be ints, got {b!r}")
        b = tuple(map(int, b))
        object.__setattr__(self, "cycle_boundaries", b)
        if not _is_int(self.qubit_count) or self.qubit_count < 0:
            raise ValueError(f"qubit_count must be an int >= 0, got {self.qubit_count!r}")
        if self.basis not in (None, "Z", "X"):
            raise ValueError(f"basis must be 'Z', 'X' or None, got {self.basis!r}")
        # a built circuit repeats its steady-state layer objects
        for layer in {id(L): L for L in self.layers}.values():
            if not isinstance(layer, GateLayer):
                raise ValueError(f"layers must be GateLayers, got {layer!r}")
            high = max(layer.qubits(), default=-1)
            if high >= self.qubit_count:
                raise ValueError(
                    f"layer touches qubit {high} but circuit has {self.qubit_count}"
                )
        if b:
            if b[0] != 0:
                raise ValueError("first cycle must start at layer 0")
            for lo, hi in zip(b, b[1:]):
                if lo >= hi:
                    raise ValueError("cycle boundaries must strictly increase")
            if b[-1] >= len(self.layers):
                raise ValueError("cycle boundary past the last layer")
            for c in range(len(b)):
                lo, hi = self.cycle_layer_range(c)
                n_cz = sum(1 for L in self.layers[lo:hi] if L.kind == CZ)
                if n_cz != 7:
                    raise ValueError(f"cycle {c} has {n_cz} CZ layers, expected 7")

    @property
    def cycles(self) -> int:
        return len(self.cycle_boundaries)

    def cycle_layer_range(self, cycle: int) -> tuple[int, int]:
        b = self.cycle_boundaries
        lo = b[cycle]
        hi = b[cycle + 1] if cycle + 1 < len(b) else len(self.layers)
        return lo, hi

    def cycle_layers(self, cycle: int) -> tuple[GateLayer, ...]:
        lo, hi = self.cycle_layer_range(cycle)
        return self.layers[lo:hi]

    def count_gates(self, name: str, cycle: int | None = None) -> int:
        if cycle is None:
            span = self.layers
        else:
            span = self.cycle_layers(cycle)
        return sum(L.count(name) for L in span)


@dataclass(frozen=True)
class QubitLayout:
    """Where each retained check's ancilla lives in the global indexing."""

    data_count: int
    x_check_qubits: tuple[int, ...]  # aligned with code.retained_x
    z_check_qubits: tuple[int, ...]  # aligned with code.retained_z

    @property
    def qubit_count(self) -> int:
        return self.data_count + len(self.x_check_qubits) + len(self.z_check_qubits)

    @property
    def check_qubits(self) -> tuple[int, ...]:
        return self.x_check_qubits + self.z_check_qubits


def qubit_layout(code: CssCode) -> QubitLayout:
    nx = len(code.retained_x)
    nz = len(code.retained_z)
    return QubitLayout(
        data_count=code.n,
        x_check_qubits=tuple(range(code.n, code.n + nx)),
        z_check_qubits=tuple(range(code.n + nx, code.n + nx + nz)),
    )


# ---------------------------------------------------------------------------
# CZ scheduling


@dataclass(frozen=True)
class CzSchedule:
    """Depth-7 assignment of every check-data CZ to a layer.

    Edges are (check_type, check_row, data_index) triples with data in
    global 0..n-1 indexing. term_rounds records, when the two-block
    cyclic structure was used, the 1-based layer of each polynomial term:
    the X-side left-block and right-block term groups ("A", "B") and the
    Z-side transposed groups ("BT", "AT"), tuples ordered by term index.
    """

    layers: tuple[tuple[tuple[str, int, int], ...], ...]
    term_rounds: tuple[tuple[str, tuple[int, ...]], ...] | None = None


# Round assignment matching the published per-cycle operation
# inventory: X checks touch the left data block in rounds {2,6,7} and
# the right block in {3,4,5}, Z checks mirror it. It compiles to 78
# single-qubit gates per steady cycle on the pruned 18-qubit circuit,
# and it commutes on every two-block code and every retained subset of
# its checks: its X-before-Z crossings are B_g A_1 (A round 2 before
# every BT round) and A_1 B_g (every B round before AT round 6) for
# g = 0..2, and x and y shifts commute, so they cancel in pairs on
# every row.
_INVENTORY_ASSIGNMENT = ((6, 2, 7), (3, 4, 5), (3, 4, 5), (1, 6, 2))
# Production assignments for the 18-qubit codes, swept deterministically
# by scripts/scan_arrangements.py for two properties the inventory
# arrangement lacks. First, ancilla faults between CZ rounds deposit
# errors on the data partners of the rounds still to come, and for a
# poor term order two such deposits on different checks can trip the
# same lone detector while flipping different logical observables;
# this order keeps every single-fault signature tied to one logical
# effect (both bases, any cycle count). Second, placing the last
# Z-side round at 7 with the X-side runs closed earlier steers those
# deposits into mid-run cycles, so the first and final cycles detect
# strictly less than the steady plateau in both memory bases, matching
# the published boundary behavior. No single assignment achieves the
# signature property for the six-logical pruning as well (exhaustive
# sweep), so that code keeps the inventory arrangement.
_PINNED_ASSIGNMENTS = {"18-4-4": ((5, 2, 1), (3, 6, 4), (4, 3, 6), (1, 5, 7))}
_PINNED_ASSIGNMENTS["18-4-4-pruned"] = _PINNED_ASSIGNMENTS["18-4-4"]  # the same term maps
# the term groups of an arrangement, in its order and that of term_rounds
_TERM_GROUPS = ("A", "B", "BT", "AT")
# group pairs that share no round: A and B share the X ancilla, BT and AT
# the Z ancilla, A and BT the left data block, B and AT the right one
_DISJOINT_GROUPS = ((0, 1), (2, 3), (0, 2), (1, 3))


def arrangements():
    """Every placement of the four term groups into rounds 1..7, as round
    tuples (ra, rb, rbt, rat) whose order says which term goes when.

    Constraints: the two X-side groups share the one X ancilla, the two
    Z-side groups share the one Z ancilla, and within a round each data
    block belongs to at most one side. Round sets come in
    ``itertools.combinations`` order, and the term orders within each in
    ``itertools.permutations`` order, A outermost;
    ``scripts/scan_arrangements.py`` sweeps them.
    """
    rounds = tuple(range(1, 8))
    for ra in itertools.combinations(rounds, 3):
        outside_a = tuple(r for r in rounds if r not in ra)
        for rb in itertools.combinations(outside_a, 3):
            for rbt in itertools.combinations(outside_a, 3):
                avail = tuple(r for r in rounds if r not in rb and r not in rbt)
                for rat in itertools.combinations(avail, 3):
                    yield from itertools.product(*map(itertools.permutations, (ra, rb, rbt, rat)))


def _term_maps(code: CssCode):
    """The row -> column maps of the three A terms and the three B terms."""
    spec = code.spec
    a_maps = [spec.term_map(t) for t in spec.a_terms]
    b_maps = [spec.term_map(t) for t in spec.b_terms]
    return a_maps, b_maps


def _commutes(code: CssCode) -> Callable[..., bool]:
    """``arrangement_commutes`` for round groups that ``_arrangement_rounds`` checked."""
    if code.spec is None:
        raise ScheduleError("depth-7 scheduling needs the two-block cyclic construction")
    half = code.half
    a_maps, b_maps = _term_maps(code)
    # comp_ab[a][g][x] = the Z row reached from X row x through the left
    # block (term a then term g); comp_ba mirrors it through the right.
    comp_ab = [[b_maps[g][a_maps[a]] for g in range(3)] for a in range(3)]
    comp_ba = [[a_maps[d][b_maps[b]] for d in range(3)] for b in range(3)]
    sel = np.ix_(np.asarray(code.retained_x), np.asarray(code.retained_z))
    rows = np.arange(half)

    def commutes(ra, rb, rbt, rat) -> bool:
        acc = np.zeros((half, half), dtype=np.uint8)
        for a in range(3):
            for g in range(3):
                if ra[a] < rbt[g]:
                    acc[rows, comp_ab[a][g]] ^= 1
        for b in range(3):
            for d in range(3):
                if rb[b] < rat[d]:
                    acc[rows, comp_ba[b][d]] ^= 1
        return not acc[sel].any()

    return commutes


def arrangement_commutes(code: CssCode) -> Callable[..., bool]:
    """The predicate ``commutes(ra, rb, rbt, rat)``: whether the CZ
    arrangement with these term rounds extracts commuting stabilizer
    values for ``code``.

    For every retained X/Z check pair, the number of shared data qubits
    whose X-side CZ lands in an earlier round than the Z-side CZ must be
    even, otherwise the Z outcome inherits the X ancilla's undetermined
    pre-cycle state. ``schedule_cz_layers`` accepts exactly the
    arrangements this predicate accepts. The predicate raises ValueError
    for round groups that ``schedule_cz_layers`` rejects. Raises
    ScheduleError for a code without the two-block cyclic construction.
    """
    commutes = _commutes(code)
    return lambda *groups: commutes(*_arrangement_rounds(groups))


def schedule_cz_layers(code: CssCode, *, arrangement: tuple | None = None) -> CzSchedule:
    """Assign every retained check-data CZ to one of seven layers.

    For codes with checks of only one type any collision-free coloring
    works and a lowest-free-layer pass is used. With both types present
    the layers must also extract commuting stabilizer values
    (``arrangement_commutes``): the code's pinned assignment is used if
    it commutes, else the inventory arrangement, which commutes on every
    two-block code. An explicit `arrangement` (four round tuples, term
    order significant) bypasses the pins and must itself extract
    commuting values, or ScheduleError is raised. ValueError, naming the
    bad group or groups, unless it is four groups of three distinct int
    rounds in 1..7 with no round shared by A and B, BT and AT, A and BT,
    or B and AT (the placements ``arrangements`` yields).
    """
    if arrangement is not None:
        arrangement = _arrangement_rounds(arrangement)
    if not code.retained_x or not code.retained_z:
        return _sequential_schedule(code)
    commutes = _commutes(code)
    pinned = _PINNED_ASSIGNMENTS.get(code.name or "")
    if arrangement is not None:
        if not commutes(*arrangement):
            raise ScheduleError(
                f"requested arrangement does not extract commuting stabilizer values for {code.name or 'code'}"
            )
    elif pinned is not None and commutes(*pinned):
        arrangement = pinned
    elif commutes(*_INVENTORY_ASSIGNMENT):
        arrangement = _INVENTORY_ASSIGNMENT
    else:
        raise AssertionError("inventory arrangement does not commute; construction bug")
    return _schedule_from_rounds(code, *arrangement)


def _arrangement_rounds(arrangement) -> tuple[tuple[int, ...], ...]:
    """``arrangement`` as four tuples of Python ints, checked as
    ``schedule_cz_layers`` states."""
    if not _is_sequence(arrangement) or len(arrangement) != 4:
        raise ValueError(f"an arrangement is four round groups {_TERM_GROUPS}, got {arrangement!r}")
    groups = []
    for name, group in zip(_TERM_GROUPS, arrangement):
        if not (_is_sequence(group) and len(group) == 3
                and all(_is_int(r) and 1 <= r <= 7 for r in group)):
            raise ValueError(f"arrangement group {name} needs three int rounds in 1..7, got {group!r}")
        if len(set(group)) < 3:
            raise ValueError(f"arrangement group {name} repeats a round: {group!r}")
        groups.append(tuple(map(int, group)))
    for i, j in _DISJOINT_GROUPS:
        shared = set(groups[i]).intersection(groups[j])
        if shared:
            raise ValueError(
                f"arrangement groups {_TERM_GROUPS[i]} and {_TERM_GROUPS[j]} share rounds {sorted(shared)}"
            )
    return tuple(groups)


def _schedule_from_rounds(code, ra, rb, rbt, rat):
    half = code.half
    a_maps, b_maps = _term_maps(code)
    inv_a = [np.argsort(p) for p in a_maps]
    inv_b = [np.argsort(p) for p in b_maps]
    layers: list[list[tuple[str, int, int]]] = [[] for _ in range(7)]
    for k, r in enumerate(ra):
        for x in code.retained_x:
            layers[r - 1].append(("X", x, int(a_maps[k][x])))
    for k, r in enumerate(rb):
        for x in code.retained_x:
            layers[r - 1].append(("X", x, half + int(b_maps[k][x])))
    for k, r in enumerate(rbt):
        for z in code.retained_z:
            layers[r - 1].append(("Z", z, int(inv_b[k][z])))
    for k, r in enumerate(rat):
        for z in code.retained_z:
            layers[r - 1].append(("Z", z, half + int(inv_a[k][z])))
    out = tuple(tuple(sorted(L, key=lambda e: e[2])) for L in layers)
    rounds = tuple(map(tuple, (ra, rb, rbt, rat)))
    return CzSchedule(layers=out, term_rounds=tuple(zip(_TERM_GROUPS, rounds)))


def _sequential_schedule(code: CssCode) -> CzSchedule:
    # One-sided codes have no cross-type interleaving constraint.
    edges: list[tuple[str, int, int]] = []
    for z in code.retained_z:
        for d in np.flatnonzero(code.h_z.bits[z]):
            edges.append(("Z", z, int(d)))
    for x in code.retained_x:
        for d in np.flatnonzero(code.h_x.bits[x]):
            edges.append(("X", x, int(d)))
    layers: list[list[tuple[str, int, int]]] = [[] for _ in range(7)]
    busy: list[set] = [set() for _ in range(7)]
    for typ, row, d in edges:
        key = (typ, row)
        for r in range(7):
            if key not in busy[r] and d not in busy[r]:
                layers[r].append((typ, row, d))
                busy[r].update((key, d))
                break
        else:
            raise ScheduleError(f"check {typ}{row} cannot fit its edges into seven layers")
    out = tuple(tuple(sorted(L, key=lambda e: e[2])) for L in layers)
    return CzSchedule(layers=out, term_rounds=None)


# ---------------------------------------------------------------------------
# Circuit construction


def _x_runs(x_rounds, z_rounds):
    """Maximal groups of X engagements with no Z engagement in between."""
    runs: list[tuple[int, int]] = []
    for r in sorted(x_rounds):
        if runs and not any(runs[-1][1] < z < r for z in z_rounds):
            runs[-1] = (runs[-1][0], r)
        else:
            runs.append((r, r))
    return runs


def build_syndrome_circuit(
    code: CssCode,
    cycles: int,
    *,
    basis: str = "Z",
    schedule: CzSchedule | None = None,
) -> Circuit:
    """Compile `cycles` rounds of simultaneous stabilizer extraction.

    Every check ancilla is Hadamard-bracketed once per cycle. Data qubits
    get Hadamard pairs bracketing each maximal run of X-type CZs, opening
    right after their last preceding Z-type CZ, so each CZ implements the
    intended controlled-NOT direction. The X-basis variant adds a
    preparation Hadamard on all data in the first cycle and flips the
    readout frame in the last; in both places the extra gate is merged
    with any bracket Hadamard already in that slot (H-H cancels).
    ``schedule`` defaults to ``schedule_cz_layers(code)``.
    """
    if not _is_int(cycles) or cycles < 1:
        raise ValueError(f"cycles must be an int >= 1, got {cycles!r}")
    if basis not in ("Z", "X"):
        raise ValueError("basis must be 'Z' or 'X'")
    sched = schedule if schedule is not None else schedule_cz_layers(code)
    layout = qubit_layout(code)
    n = code.n

    check_of: dict[tuple[str, int], int] = {}
    for q, row in zip(layout.x_check_qubits, code.retained_x):
        check_of[("X", row)] = q
    for q, row in zip(layout.z_check_qubits, code.retained_z):
        check_of[("Z", row)] = q

    cz_layers = [
        GateLayer(CZ, tuple(("CZ", (d, check_of[(typ, row)])) for typ, row, d in L))
        for L in sched.layers
    ]

    x_rounds: list[list[int]] = [[] for _ in range(n)]
    z_rounds: list[list[int]] = [[] for _ in range(n)]
    for r, L in enumerate(sched.layers, start=1):
        for typ, row, d in L:
            (x_rounds if typ == "X" else z_rounds)[d].append(r)

    # Slot k holds the single-qubit gates placed right after CZ round k
    # (slot 0 sits before round 1).
    base_slots: list[set[int]] = [set() for _ in range(8)]
    for d in range(n):
        for s, e in _x_runs(x_rounds[d], z_rounds[d]):
            opens = max((z for z in z_rounds[d] if z < s), default=0)
            base_slots[opens].add(d)
            base_slots[e].add(d)

    checks_sorted = tuple(sorted(layout.check_qubits))
    all_data = set(range(n))
    # each distinct layer is built once and shared by every cycle using it
    single_layers: dict[tuple[int, ...], GateLayer] = {}
    measure = GateLayer(MEASURE_CHECKS, tuple(("M", (q,)) for q in checks_sorted))
    idle = GateLayer(DD_IDLE, tuple(("DD", (d,)) for d in range(n)))
    readout = GateLayer(READOUT_DATA, tuple(("RD", (d,)) for d in range(n)))

    layers: list[GateLayer] = []
    boundaries: list[int] = []
    for c in range(1, cycles + 1):
        slots = [set(s) for s in base_slots]
        if basis == "X" and c == 1:
            slots[0] ^= all_data
        if basis == "X" and c == cycles:
            slots[7] ^= all_data
        boundaries.append(len(layers))

        def emit_single(slot_idx: int) -> None:
            qs = tuple(sorted(slots[slot_idx]))
            if slot_idx in (0, 7):
                qs += checks_sorted
            if qs:
                if qs not in single_layers:
                    single_layers[qs] = GateLayer(SINGLE_QUBIT, tuple(("H", (q,)) for q in qs))
                layers.append(single_layers[qs])

        emit_single(0)
        for r in range(1, 8):
            layers.append(cz_layers[r - 1])
            emit_single(r)
        layers.append(measure)
        layers.append(idle if c < cycles else readout)

    return Circuit(
        qubit_count=layout.qubit_count,
        layers=tuple(layers),
        cycle_boundaries=tuple(boundaries),
        basis=basis,
    )


class GateTable(NamedTuple):
    """A circuit as arrays, read and checked by ``gate_table``.

    Layer i has kind ``kind[i]`` (a ``LAYER_KINDS`` string) and holds the
    gate rows ``start[i]:start[i + 1]``. Gate g is ``GATE_NAMES[name[g]]``
    on the qubits ``legs[:, g]``; a one-qubit gate's second leg is the
    circuit's qubit count.
    """

    kind: np.ndarray  # (layers,)
    start: np.ndarray  # (layers + 1,)
    name: np.ndarray  # (gates,)
    legs: np.ndarray  # (2, gates)


def gate_table(circuit: Circuit, code: CssCode, basis: str) -> GateTable:
    """The gate table of ``circuit``, once it is checked against ``code``
    and the memory basis ``basis``.

    Raises ValueError unless: ``basis`` is "Z" or "X" and the circuit
    records no other basis; the circuit has the qubit count of the
    code's layout; it declares at least one cycle, has one measurement
    layer per cycle and ends in its one readout layer; every ``M`` is on
    a check qubit and every ``RD`` on a data qubit; and each measurement
    layer measures every check qubit and the readout reads every data
    qubit.
    """
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    if circuit.basis is not None and circuit.basis != basis:
        raise ValueError(f"circuit was built for the {circuit.basis} basis, not {basis}")
    layout = qubit_layout(code)
    nq = circuit.qubit_count
    if nq != layout.qubit_count:
        raise ValueError(f"circuit has {nq} qubits, code layout needs {layout.qubit_count}")
    if circuit.cycles == 0:
        raise ValueError("circuit declares no cycles")
    layers = circuit.layers
    kind = np.array([layer.kind for layer in layers])
    measured = np.count_nonzero(kind == MEASURE_CHECKS)
    if measured != circuit.cycles:
        raise ValueError(
            f"circuit declares {circuit.cycles} cycles but has {measured} measurement layers"
        )
    readouts = np.flatnonzero(kind == READOUT_DATA).tolist()
    if readouts != [len(layers) - 1]:
        raise ValueError(f"{READOUT_DATA} layers {readouts} of {len(layers)}: need one, the last")
    # rows (name, leg, leg), where nq pads a one-qubit gate; a built circuit
    # repeats its layer objects, so each distinct one is read once
    read: dict[int, np.ndarray] = {}
    for layer in layers:
        if id(layer) not in read:
            gates = [(_NAME_INDEX[g], *qs, nq)[:3] for g, qs in layer.gates]
            read[id(layer)] = np.array(gates, dtype=np.intp).reshape(-1, 3).T
    rows = np.concatenate([read[id(layer)] for layer in layers], axis=1)
    name, legs = rows[0], rows[1:]
    start = np.cumsum([0] + [len(layer.gates) for layer in layers])

    # M and RD gates only sit in their own layer kinds (``GateLayer``)
    gate_layer = np.repeat(np.arange(len(layers)), np.diff(start))
    a = legs[0]
    is_m, is_rd = name == _NAME_INDEX["M"], name == _NAME_INDEX["RD"]
    check = np.zeros(nq, dtype=bool)
    check[list(layout.check_qubits)] = True
    bad = (is_m & ~check[a]) | (is_rd & (a >= layout.data_count))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        gate, home = ("M", "check") if is_m[i] else ("RD", "data")
        raise ValueError(
            f"{gate} on qubit {a[i]} in layer {gate_layer[i]} is not on a {home} qubit "
            "of the code layout"
        )
    # no layer repeats a qubit, so a full count is a full cover
    count = np.bincount(gate_layer[is_m | is_rd], minlength=len(layers))
    need = (kind == MEASURE_CHECKS) * len(layout.check_qubits)
    need += (kind == READOUT_DATA) * layout.data_count
    short = np.flatnonzero(count != need)
    if short.size:
        li = short[0]
        home = "check" if kind[li] == MEASURE_CHECKS else "data"
        raise ValueError(f"layer {li} measures {count[li]} of the {need[li]} {home} qubits")
    return GateTable(kind, start, name, legs)


# ---------------------------------------------------------------------------
# Functional verification


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: tuple[str, ...]
    preparations: int
    basis: str

    def __str__(self) -> str:
        if self.ok:
            return f"ok ({self.preparations} preparations, {self.basis} basis)"
        head = "\n  ".join(self.failures[:8])
        return f"{len(self.failures)} failure(s):\n  {head}"


def verify_circuit(
    circuit: Circuit,
    code: CssCode,
    *,
    basis: str = "Z",
    preparations: int = 25,
    seed: int = 20260816,
    max_failures: int = 20,
) -> VerifyReport:
    """Run the circuit noiselessly on random product states and check it.

    Contracts, with stabilizer values recovered as consecutive-outcome
    differences: (a) every check repeats its value from cycle 2 on,
    (b) first-cycle values of the basis-aligned checks equal the prepared
    parities, and (c) the final data readout reproduces the last cycle's
    basis-aligned values. Preparations are uniform bit patterns, each the
    computational basis state the circuit starts from; in the X basis the
    built-in preparation Hadamards turn them into sign patterns, so the
    same parity bookkeeping applies to the X-type checks.

    The circuit is read through ``gate_table``, which raises ValueError
    for a circuit that does not fit ``code`` and ``basis``: the noise
    layer accepts the same circuits.

    All preparations run in one tableau pass (they share its x/z part),
    with one tableau call per gate or measurement layer. Outcomes and
    coin draws are those of a run gate by gate, since the gates of a
    layer act on distinct qubits and a layer's measurements commute.
    Draws from ``random.Random(seed)``: first the preparations, one bit
    per data qubit, preparation after preparation; then, for each random
    measurement in circuit order, one coin bit per preparation. Failures
    are listed preparation by preparation, and the list stops after the
    preparation that brings it to ``max_failures``.
    """
    table = gate_table(circuit, code, basis)
    preparations, seed = _as_int("preparations", preparations), _as_int("seed", seed)
    max_failures = _as_int("max_failures", max_failures)
    if preparations < 1:
        raise ValueError("need at least one preparation")
    kinds_rows = [("X", r) for r in code.retained_x] + [
        ("Z", r) for r in code.retained_z
    ]
    supports = gf2.transpose(gf2.vstack(code.retained_h_x(), code.retained_h_z()))
    aligned = np.array([kind == basis for kind, _ in kinds_rows], dtype=bool)
    check_qubits = qubit_layout(code).check_qubits
    measure_layers = np.flatnonzero(table.kind == MEASURE_CHECKS).tolist()
    t = len(measure_layers)
    rng = random.Random(seed)
    prep = np.array(
        [[rng.getrandbits(1) for _ in range(code.n)] for _ in range(preparations)],
        dtype=np.uint8,
    )
    states = np.zeros((preparations, circuit.qubit_count), dtype=np.uint8)
    states[:, : code.n] = prep
    tab = StabilizerTableau(
        circuit.qubit_count,
        coin=lambda: [rng.getrandbits(1) for _ in range(preparations)],
        states=states,
    )
    cycle_out, readout = _run_layers(table, tab)

    # fail[p, check, slot]: slot 0 is contract (b), slot c in 1..t-1 is
    # contract (a) between cycles c and c + 1, slot t is contract (c)
    fail = np.zeros((preparations, len(check_qubits), t + 1), dtype=bool)
    m = np.array([[out[q] for q in check_qubits] for out in cycle_out])
    value = (m ^ np.concatenate([np.zeros_like(m[:1]), m[:-1]])).transpose(2, 1, 0)
    expect = gf2.matmul_mod2(gf2.BinaryMatrix(prep), supports).bits
    fail[:, :, 0] = aligned & (value[:, :, 0] != expect)
    fail[:, :, 1:t] = value[:, :, 1:] != value[:, :, :-1]
    rd = np.array([readout[d] for d in range(code.n)]).T
    r_par = gf2.matmul_mod2(gf2.BinaryMatrix(rd), supports).bits
    fail[:, :, t] = aligned & (r_par != value[:, :, -1])

    failures: list[str] = []
    by_prep = np.argwhere(fail)
    for p in range(preparations):
        for _, ci, slot in by_prep[by_prep[:, 0] == p]:
            kind, row = kinds_rows[ci]
            if slot == t:
                failures.append(
                    f"prep {p}: {kind}{row} readout parity {r_par[p, ci]} != final "
                    f"value {value[p, ci, -1]} (layer {len(table.kind) - 1})"
                )
            elif slot == 0:
                failures.append(
                    f"prep {p}: {kind}{row} first-cycle value {value[p, ci, 0]} != "
                    f"prepared parity {expect[p, ci]} (layer {measure_layers[0]})"
                )
            else:
                failures.append(
                    f"prep {p}: {kind}{row} value changed between cycles "
                    f"{slot} and {slot + 1} (layer {measure_layers[slot]})"
                )
        if len(failures) >= max_failures:
            break
    return VerifyReport(
        ok=not failures,
        failures=tuple(failures),
        preparations=preparations,
        basis=basis,
    )


def _run_layers(
    table: GateTable, tab: StabilizerTableau
) -> tuple[list[dict[int, np.ndarray]], dict[int, np.ndarray]]:
    """Run the circuit of the gate table noiselessly on the tableau, one
    call per gate or measurement layer. Returns each measurement layer's
    outcomes and the readout outcomes, keyed by qubit."""
    cycle_out: list[dict[int, np.ndarray]] = []
    readout: dict[int, np.ndarray] = {}
    is_h = table.name == _NAME_INDEX["H"]
    start = table.start.tolist()
    for kind, lo, hi in zip(table.kind.tolist(), start, start[1:]):
        a, b = table.legs[:, lo:hi]
        if kind == SINGLE_QUBIT:
            tab.h(a[is_h[lo:hi]])
        elif kind == CZ:
            tab.cz(a, b)
        elif kind in (MEASURE_CHECKS, READOUT_DATA):
            out = dict(zip(a.tolist(), tab.measure_many(a)))
            if kind == MEASURE_CHECKS:
                cycle_out.append(out)
            else:
                readout.update(out)
        # DD_IDLE acts as identity in the noiseless model.
    return cycle_out, readout


# ---------------------------------------------------------------------------
# Text form


def serialize_circuit(circuit: Circuit) -> str:
    """Line-oriented text form; `parse_circuit` inverts it exactly.

    One gate per line, TICK terminating every layer, CYCLE immediately
    before each cycle's first layer, and a `# qubits N` header so that
    trailing unused qubits survive the round trip. A `# basis Z` (or X)
    header follows when the circuit records its memory basis. Layers
    with no gates serialize as a bare TICK and read back as CZ layers;
    ``GateLayer`` lets no other kind be empty.
    """
    lines = [f"# qubits {circuit.qubit_count}"]
    if circuit.basis is not None:
        lines.append(f"# basis {circuit.basis}")
    marks = set(circuit.cycle_boundaries)
    for i, layer in enumerate(circuit.layers):
        if i in marks:
            lines.append("CYCLE")
        for name, qs in layer.gates:
            lines.append(" ".join((name, *map(str, qs))))
        lines.append("TICK")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Parse the text form; errors carry the offending line number."""
    qubit_count: int | None = None
    basis: str | None = None
    layers: list[GateLayer] = []
    boundaries: list[int] = []
    buf: list[tuple[str, tuple[int, ...]]] = []
    buf_kind: str | None = None
    buf_qubits: set[int] = set()
    pending = False
    line_no = 0

    def close() -> None:
        # every gate was checked as it was read; an empty layer reads as CZ
        nonlocal buf, buf_kind, buf_qubits, pending
        layers.append(GateLayer(buf_kind or CZ, tuple(buf)))
        if pending:
            boundaries.append(len(layers) - 1)
        buf, buf_kind, buf_qubits, pending = [], None, set(), False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("# qubits "):
            try:
                qubit_count = int(raw.split()[2])
            except (IndexError, ValueError):
                raise CircuitParseError(line_no, "bad qubit-count header") from None
            if qubit_count < 0:
                raise CircuitParseError(line_no, "bad qubit-count header")
            continue
        if raw.startswith("# basis "):
            tokens = raw.split()
            if len(tokens) != 3 or tokens[2] not in ("Z", "X"):
                raise CircuitParseError(line_no, "bad basis header")
            basis = tokens[2]
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op = tokens[0]
        if op == "TICK":
            if len(tokens) != 1:
                raise CircuitParseError(line_no, "TICK takes no arguments")
            close()
            continue
        if op == "CYCLE":
            if len(tokens) != 1:
                raise CircuitParseError(line_no, "CYCLE takes no arguments")
            if buf:
                raise CircuitParseError(line_no, "cycle boundary inside a layer")
            if pending:
                raise CircuitParseError(line_no, "repeated cycle boundary")
            pending = True
            continue
        try:
            qs = tuple(int(tok) for tok in tokens[1:])
        except ValueError:
            raise CircuitParseError(line_no, f"bad qubit index in {line!r}") from None
        if buf_kind is None:  # a layer takes the kind of its first gate
            buf_kind = _GATE_RULES.get(op, (0, None))[1]
        try:
            buf += _check_gates(buf_kind, [(op, qs)], buf_qubits)
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from None

    if pending and not buf:
        raise CircuitParseError(line_no, "cycle boundary with no following layer")
    if buf:
        close()
    if qubit_count is None:
        qubit_count = max((q for L in layers for q in L.qubits()), default=-1) + 1
    return Circuit(
        qubit_count=qubit_count,
        layers=tuple(layers),
        cycle_boundaries=tuple(boundaries),
        basis=basis,
    )
