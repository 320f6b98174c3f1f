"""Timed-layer circuits for repeated CZ-based stabilizer extraction.

A circuit is an ordered tuple of gate layers, which alone fix its
cycles: cycle c ends with the c-th check-measurement layer and the layer
after it, dynamical decoupling between cycles or the final data readout.
A built cycle has seven CZ layers and the single-qubit layers compiled
around them before that. Check qubits are never reset, so consecutive
measurement outcomes must be differenced to recover stabilizer values.

Qubit indexing is global: data qubits 0..n-1 (left block then right
block), then one ancilla per retained X check, then one per retained
Z check. So the ancilla of check column j (``code.checks[j]``) is qubit
n + j, and a circuit for ``code`` has n + len(code.checks) qubits.

A circuit reads its layers once: each layer's gates are read into gate
table rows where ``GateLayer`` checks them, and ``Circuit.table`` (a
``GateTable``, the one array form of a circuit) joins them on first read.
``gate_table`` checks a circuit against a code and memory basis and
returns that table, which the tableau oracle and the noise layer read.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import gf2
from .codes import CssCode, _as_int, _is_int, _is_sequence
from .tableau import StabilizerTableau

__all__ = [
    "SINGLE_QUBIT", "CZ", "MEASURE_CHECKS", "READOUT_DATA", "DD_IDLE", "LAYER_KINDS", "GATE_NAMES",
    "ScheduleError", "GateLayer", "Circuit",
    "CzSchedule", "arrangements", "arrangement_commutes",
    "schedule_cz_layers", "build_syndrome_circuit", "GateTable", "gate_table", "VerifyReport",
    "verify_circuit",
]

SINGLE_QUBIT = "SINGLE_QUBIT"
CZ = "CZ"
MEASURE_CHECKS = "MEASURE_CHECKS"
READOUT_DATA = "READOUT_DATA"
DD_IDLE = "DD_IDLE"

LAYER_KINDS = (SINGLE_QUBIT, CZ, MEASURE_CHECKS, READOUT_DATA, DD_IDLE)

# layer kind -> (operand count of its gates, the only gates it may hold)
_LAYER_RULES = {
    SINGLE_QUBIT: (1, ("H", "I")),
    CZ: (2, ("CZ",)),
    MEASURE_CHECKS: (1, ("M",)),
    READOUT_DATA: (1, ("RD",)),
    DD_IDLE: (1, ("DD",)),
}
# a gate table names each gate by its index here
GATE_NAMES = tuple(g for _, names in _LAYER_RULES.values() for g in names)
_NAME_INDEX = {name: i for i, name in enumerate(GATE_NAMES)}


class ScheduleError(Exception):
    """No valid depth-7 CZ assignment was found."""


def _check_gates(kind: str, gates) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The gates, each qubit an int, and their gate table rows as columns:
    name index, first leg, second leg (-1 for a one-qubit gate). Raises
    ValueError unless each gate's name is known and one that a ``kind``
    layer may hold, it has that kind's operand count and each qubit is a
    non-negative integer no other gate uses; each rule in turn, layer-wide."""
    arity, allowed = _LAYER_RULES[kind]
    gates = [(name, tuple(qubits)) for name, qubits in gates]
    names, operands = zip(*gates) if gates else ((), ())
    if not set(names).issubset(allowed):
        name = next(name for name in names if name not in allowed)
        if name not in _NAME_INDEX:
            raise ValueError(f"unknown gate {name!r}")
        raise ValueError(f"gate {name} cannot appear in a {kind} layer")
    if not {arity}.issuperset(map(len, operands)):
        name, qubits = next(gate for gate in gates if len(gate[1]) != arity)
        raise ValueError(f"gate {name} takes {arity} qubit operand(s), got {len(qubits)}")
    flat = list(itertools.chain.from_iterable(operands))
    if not {int}.issuperset(map(type, flat)):
        # int(q) would read 1.7, True or "2" as a qubit
        for q in flat:
            if type(q) is not int and not isinstance(q, np.integer):
                raise ValueError(f"qubit {q!r} is not an integer")
        flat = list(map(int, flat))
        gates = list(zip(names, zip(*[iter(flat)] * arity)))
    if min(flat, default=0) < 0:
        raise ValueError("negative qubit index")
    if len(set(flat)) < len(flat):
        seen: set[int] = set()
        q = next(q for q in flat if q in seen or seen.add(q))
        raise ValueError(f"qubit {q} used twice in one layer")
    legs = (flat[0::2], flat[1::2]) if arity == 2 else (flat, [-1] * len(flat))
    return tuple(gates), (tuple(map(_NAME_INDEX.__getitem__, names)), *map(tuple, legs))


@dataclass(frozen=True)
class GateLayer:
    """Gates of one kind on distinct qubits, checked by ``_check_gates``,
    which also reads their gate table ``rows`` (not part of ``==``,
    ``hash`` or ``repr``)."""

    kind: str
    gates: tuple[tuple[str, tuple[int, ...]], ...]
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        gates, rows = _check_gates(self.kind, self.gates)
        if not gates and self.kind != CZ:
            # a cycle keeps seven CZ layers where its schedule leaves a round
            # empty (a code with checks of one type); no other layer is empty
            raise ValueError(f"a {self.kind} layer needs at least one gate")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class Circuit:
    """Gate layers, each layer object's qubits checked to be below
    ``qubit_count``. Cycle c ends with the c-th measurement layer and the
    next layer, so ``cycles`` and ``cycle_boundaries`` (each cycle's first
    layer) are read from the layers; the last cycle runs to the end.

    ``basis`` is the memory basis ("Z" or "X") the circuit was built
    for, or None when unknown (a hand-built circuit). Consumers that
    take a basis reject a circuit recorded for the other one.
    """

    qubit_count: int
    layers: tuple[GateLayer, ...]
    basis: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not _is_int(self.qubit_count) or self.qubit_count < 0:
            raise ValueError(f"qubit_count must be an int >= 0, got {self.qubit_count!r}")
        if self.basis not in (None, "Z", "X"):
            raise ValueError(f"basis must be 'Z', 'X' or None, got {self.basis!r}")
        # a built circuit repeats its steady-state layer objects
        for layer in {id(L): L for L in self.layers}.values():
            if not isinstance(layer, GateLayer):
                raise ValueError(f"layers must be GateLayers, got {layer!r}")
            high = max(layer.rows[1] + layer.rows[2], default=-1)
            if high >= self.qubit_count:
                raise ValueError(f"layer touches qubit {high} but circuit has {self.qubit_count}")

    @cached_property
    def table(self) -> GateTable:
        """The circuit as a read-only ``GateTable``, joined from its layers' rows."""
        layers = self.layers
        kind = np.array([layer.kind for layer in layers], dtype=str)
        start = np.cumsum([0] + [len(layer.gates) for layer in layers])
        # a built circuit repeats its layer objects; each one's rows become one array
        read = {id(layer): layer.rows for layer in layers}
        read = {key: np.array(rows, dtype=np.intp) for key, rows in read.items()}
        rows = np.concatenate([np.zeros((3, 0), np.intp)] + [read[id(L)] for L in layers], axis=1)
        name, legs = rows[0], rows[1:]
        legs[1, legs[1] < 0] = self.qubit_count
        table = GateTable(kind, start, name, legs)
        for array in table:
            array.flags.writeable = False
        return table

    @cached_property
    def cycle_boundaries(self) -> tuple[int, ...]:
        ends = [i + 2 for i, layer in enumerate(self.layers) if layer.kind == MEASURE_CHECKS]
        return tuple([0] + ends[:-1]) if ends else ()

    @property
    def cycles(self) -> int:
        return len(self.cycle_boundaries)

    def cycle_layer_range(self, cycle: int) -> tuple[int, int]:
        """Layers ``lo:hi`` of ``cycle``, an int (not a bool) in [0, cycles), else ValueError."""
        b = self.cycle_boundaries
        if not _is_int(cycle) or not 0 <= cycle < len(b):
            raise ValueError(f"cycle must be an int in [0, {len(b)}), got {cycle!r}")
        return b[cycle], (b[cycle + 1] if cycle + 1 < len(b) else len(self.layers))

    def cycle_layers(self, cycle: int) -> tuple[GateLayer, ...]:
        lo, hi = self.cycle_layer_range(cycle)
        return self.layers[lo:hi]

    def count_gates(self, name: str, cycle: int | None = None) -> int:
        """The number of ``name`` gates in the circuit, or in cycle
        ``cycle``. Raises ValueError for a name not in ``GATE_NAMES``."""
        if name not in _NAME_INDEX:
            raise ValueError(f"unknown gate {name!r}")
        lo, hi = (0, len(self.layers)) if cycle is None else self.cycle_layer_range(cycle)
        start = self.table.start
        return int(np.count_nonzero(self.table.name[start[lo] : start[hi]] == _NAME_INDEX[name]))


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
    or B and AT (the placements ``arrangements`` yields); ValueError too
    for an arrangement given to a code with checks of one type.
    """
    if arrangement is not None:
        arrangement = _arrangement_rounds(arrangement)
    if not code.retained_x or not code.retained_z:
        if arrangement is not None:
            raise ValueError(
                f"an arrangement places X and Z checks; {code.name or 'the code'} "
                "has checks of one type"
            )
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
        for d in np.flatnonzero(code.h_z[z]):
            edges.append(("Z", z, int(d)))
    for x in code.retained_x:
        for d in np.flatnonzero(code.h_x[x]):
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


def _check_schedule(code: CssCode, sched: CzSchedule) -> None:
    """Raises ValueError unless ``sched`` has seven CZ layers whose edges
    are the supports of the code's retained check rows, each edge once
    (a schedule made for another code, or from a ``spec`` that does not
    describe ``h_x`` and ``h_z``, fails here), naming the first check
    that differs."""
    if len(sched.layers) != 7:
        raise ValueError(f"a CZ schedule has 7 layers, got {len(sched.layers)}")
    side = {"X": 0, "Z": 1}
    edges = [e for L in sched.layers for e in L]
    typ, row, data = zip(*edges) if edges else ((), (), ())
    want = np.zeros((2, max(len(code.h_x), len(code.h_z)), code.n), dtype=np.uint8)
    try:
        # (side, check row, data qubit) per edge: an unknown side (None) or a
        # row or qubit that is not an int makes an object, float or str
        # array, which ravel_multi_index refuses, as it refuses an index
        # out of range
        at = np.array([list(map(side.get, typ)), row, data]) if edges else np.zeros((3, 0), np.intp)
        flat = np.ravel_multi_index(at, want.shape)
    except (TypeError, ValueError):
        raise ValueError("schedule edges must be ('X' or 'Z', check row, data qubit) of the code") from None
    for s, h, retained in ((0, code.h_x, code.retained_x), (1, code.h_z, code.retained_z)):
        want[s, list(retained)] = h[list(retained)]
    differ = (np.bincount(flat, minlength=want.size).reshape(want.shape) != want).any(axis=2)
    if differ.any():
        s, row = np.argwhere(differ)[0]
        raise ValueError(
            f"the schedule's CZs of check {'XZ'[s]}{row} are not that check's support "
            f"in {code.name or 'the code'}, each data qubit once"
        )


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
    _check_schedule(code, sched)
    n = code.n
    column = {check: j for j, check in enumerate(code.checks)}
    nq = n + len(column)
    ancillas = tuple(range(n, nq))  # check column j's ancilla is qubit n + j

    cz_layers = [
        GateLayer(CZ, tuple(("CZ", (d, ancillas[column[(typ, row)]])) for typ, row, d in L))
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

    all_data = set(range(n))
    # each distinct layer is built once and shared by every cycle using it
    single_layers: dict[tuple[int, ...], GateLayer] = {}
    measure = GateLayer(MEASURE_CHECKS, tuple(("M", (q,)) for q in ancillas))
    idle = GateLayer(DD_IDLE, tuple(("DD", (d,)) for d in range(n)))
    readout = GateLayer(READOUT_DATA, tuple(("RD", (d,)) for d in range(n)))

    layers: list[GateLayer] = []
    for c in range(1, cycles + 1):
        slots = [set(s) for s in base_slots]
        if basis == "X" and c == 1:
            slots[0] ^= all_data
        if basis == "X" and c == cycles:
            slots[7] ^= all_data

        def emit_single(slot_idx: int) -> None:
            qs = tuple(sorted(slots[slot_idx]))
            if slot_idx in (0, 7):
                qs += ancillas
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

    return Circuit(qubit_count=nq, layers=tuple(layers), basis=basis)


class GateTable(NamedTuple):
    """A circuit as read-only arrays: ``Circuit.table``.

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
    """``circuit.table``, once the circuit is checked against ``code``
    and the memory basis ``basis``.

    Raises ValueError unless: ``basis`` is "Z" or "X" and the circuit
    records no other basis; the circuit has n + len(code.checks) qubits,
    the data qubits 0..n-1 and then one ancilla per check column (the
    module's numbering rule); it has at least one measurement layer and
    ends in its one readout layer, right after its last measurement
    layer (so its last cycle ends with the readout); every ``M`` is on a
    check qubit (n or above) and every ``RD`` on a data qubit (below n);
    and each measurement layer measures every check qubit and the
    readout reads every data qubit.
    """
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    if circuit.basis is not None and circuit.basis != basis:
        raise ValueError(f"circuit was built for the {circuit.basis} basis, not {basis}")
    n, nq = code.n, circuit.qubit_count
    if nq != n + len(code.checks):
        raise ValueError(f"circuit has {nq} qubits, code layout needs {n + len(code.checks)}")
    table = circuit.table
    kind, start, name, legs = table
    measured = np.flatnonzero(kind == MEASURE_CHECKS)
    if not measured.size:
        raise ValueError("circuit has no measurement layer")
    readouts = np.flatnonzero(kind == READOUT_DATA).tolist()
    if readouts != [len(kind) - 1] or measured[-1] != len(kind) - 2:
        raise ValueError(
            f"{READOUT_DATA} layers {readouts} of {len(kind)}: need one, the last, right "
            f"after the last {MEASURE_CHECKS} layer ({measured[-1]})"
        )

    # M and RD gates only sit in their own layer kinds (``GateLayer``)
    gate_layer = np.repeat(np.arange(len(kind)), np.diff(start))
    a = legs[0]
    is_m, is_rd = name == _NAME_INDEX["M"], name == _NAME_INDEX["RD"]
    bad = (is_m & (a < n)) | (is_rd & (a >= n))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        gate, home = ("M", "check") if is_m[i] else ("RD", "data")
        raise ValueError(
            f"{gate} on qubit {a[i]} in layer {gate_layer[i]} is not on a {home} qubit "
            "of the code layout"
        )
    # no layer repeats a qubit, so a full count is a full cover
    count = np.bincount(gate_layer[is_m | is_rd], minlength=len(kind))
    need = (kind == MEASURE_CHECKS) * (nq - n)
    need += (kind == READOUT_DATA) * n
    short = np.flatnonzero(count != need)
    if short.size:
        li = short[0]
        home = "check" if kind[li] == MEASURE_CHECKS else "data"
        raise ValueError(f"layer {li} measures {count[li]} of the {need[li]} {home} qubits")
    return table


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
    layer accepts the same circuits. By the module's numbering rule,
    check column j (``code.checks[j]``) is read from qubit n + j and the
    readout from the data qubits 0..n-1.

    All preparations run in one tableau pass (they share its x/z part),
    with one tableau call per gate or measurement layer. Outcomes and
    coin draws are those of a run gate by gate, since the gates of a
    layer act on distinct qubits and a layer's measurements commute.
    Draws from ``random.Random(seed)``: first the preparations, one bit
    per data qubit, preparation after preparation; then, for each random
    measurement in circuit order, one coin bit per preparation. Failures
    are listed preparation by preparation, and the list stops after the
    preparation that brings it to ``max_failures`` (at least 1); ``ok``
    reads every failure, listed or not.
    """
    table = gate_table(circuit, code, basis)
    preparations, seed = _as_int("preparations", preparations), _as_int("seed", seed)
    max_failures = _as_int("max_failures", max_failures)
    if preparations < 1:
        raise ValueError("need at least one preparation")
    if max_failures < 1:
        raise ValueError(f"max_failures must be >= 1, got {max_failures}")
    checks, n = code.checks, code.n
    supports = np.vstack([code.retained_h_x(), code.retained_h_z()]).T
    aligned = np.array([kind == basis for kind, _ in checks], dtype=bool)
    measure_layers = np.flatnonzero(table.kind == MEASURE_CHECKS).tolist()
    t = len(measure_layers)
    rng = random.Random(seed)
    prep = np.array(
        [[rng.getrandbits(1) for _ in range(n)] for _ in range(preparations)],
        dtype=np.uint8,
    )
    states = np.zeros((preparations, circuit.qubit_count), dtype=np.uint8)
    states[:, :n] = prep
    tab = StabilizerTableau(
        circuit.qubit_count,
        coin=lambda: [rng.getrandbits(1) for _ in range(preparations)],
        states=states,
    )
    out = _run_layers(table, tab)

    # fail[p, check, slot]: slot 0 is contract (b), slot c in 1..t-1 is
    # contract (a) between cycles c and c + 1, slot t is contract (c)
    fail = np.zeros((preparations, len(checks), t + 1), dtype=bool)
    m = out[:-1, n:]
    value = (m ^ np.concatenate([np.zeros_like(m[:1]), m[:-1]])).transpose(2, 1, 0)
    expect = gf2.matmul_mod2(prep, supports)
    fail[:, :, 0] = aligned & (value[:, :, 0] != expect)
    fail[:, :, 1:t] = value[:, :, 1:] != value[:, :, :-1]
    rd = out[-1, :n].T
    r_par = gf2.matmul_mod2(rd, supports)
    fail[:, :, t] = aligned & (r_par != value[:, :, -1])

    failures: list[str] = []
    by_prep = np.argwhere(fail)
    for p in range(preparations):
        for _, ci, slot in by_prep[by_prep[:, 0] == p]:
            kind, row = checks[ci]
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
        ok=not fail.any(),
        failures=tuple(failures),
        preparations=preparations,
        basis=basis,
    )


def _run_layers(table: GateTable, tab: StabilizerTableau) -> np.ndarray:
    """Run the circuit of the gate table noiselessly on the tableau, one
    call per gate or measurement layer. Returns the outcomes as one uint8
    array (measurement layers + readout, qubits, states): row i holds the
    i-th measurement layer's outcomes, the last row the readout's, each
    at its qubit, and 0 where the layer measures nothing."""
    kinds = table.kind.tolist()
    out = np.zeros((kinds.count(MEASURE_CHECKS) + 1, tab.n, tab.r.shape[1]), dtype=np.uint8)
    is_h = table.name == _NAME_INDEX["H"]
    start = table.start.tolist()
    i = 0
    for kind, lo, hi in zip(kinds, start, start[1:]):
        a, b = table.legs[:, lo:hi]
        if kind == SINGLE_QUBIT:
            tab.h(a[is_h[lo:hi]])
        elif kind == CZ:
            tab.cz(a, b)
        elif kind in (MEASURE_CHECKS, READOUT_DATA):
            out[i, a] = tab.measure_many(a)
            i += 1
        # DD_IDLE acts as identity in the noiseless model.
    return out
