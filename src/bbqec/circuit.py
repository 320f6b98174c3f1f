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
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .codes import CssCode
from .tableau import StabilizerTableau

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

# Per-cycle single-qubit gate count of the compiled 18-qubit circuit with
# the four redundant checks dropped; `count_hadamards_as_paper` pins it.
_PINNED_SINGLE_QUBIT_PER_CYCLE = 78


class ScheduleError(Exception):
    """No valid depth-7 CZ assignment was found."""


class CircuitBuildError(Exception):
    """Compiled circuit violates a requested structural guarantee."""


class CircuitParseError(ValueError):
    """Text form could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class GateLayer:
    kind: str
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        normalized = []
        seen: set[int] = set()
        for name, qubits in self.gates:
            rule = _GATE_RULES.get(name)
            if rule is None:
                raise ValueError(f"unknown gate {name!r}")
            arity, home = rule
            if home != self.kind:
                raise ValueError(f"gate {name} cannot appear in a {self.kind} layer")
            qubits = tuple(int(q) for q in qubits)
            if len(qubits) != arity:
                raise ValueError(
                    f"gate {name} takes {arity} qubit operand(s), got {len(qubits)}"
                )
            for q in qubits:
                if q < 0:
                    raise ValueError("negative qubit index")
                if q in seen:
                    raise ValueError(f"qubit {q} used twice in one layer")
                seen.add(q)
            normalized.append((name, qubits))
        object.__setattr__(self, "gates", tuple(normalized))

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
        object.__setattr__(
            self, "cycle_boundaries", tuple(int(b) for b in self.cycle_boundaries)
        )
        if self.qubit_count < 0:
            raise ValueError("negative qubit count")
        if self.basis not in (None, "Z", "X"):
            raise ValueError(f"basis must be 'Z', 'X' or None, got {self.basis!r}")
        for layer in self.layers:
            high = max(layer.qubits(), default=-1)
            if high >= self.qubit_count:
                raise ValueError(
                    f"layer touches qubit {high} but circuit has {self.qubit_count}"
                )
        b = self.cycle_boundaries
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

    def total_edges(self) -> int:
        return sum(len(L) for L in self.layers)


# Round assignment matching the published per-cycle operation
# inventory: X checks touch the left data block in rounds {2,6,7} and
# the right block in {3,4,5}, Z checks mirror it. It extracts commuting
# stabilizer values for every code in the registry and compiles to 78
# single-qubit gates per steady cycle on the pruned 18-qubit circuit.
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
_PINNED_ASSIGNMENTS = {
    "18-4-4": ((5, 2, 1), (3, 6, 4), (4, 3, 6), (1, 5, 7)),
    "18-4-4-pruned": ((5, 2, 1), (3, 6, 4), (4, 3, 6), (1, 5, 7)),
}
_SEARCH_CAP = 2_000_000


def _block_shift_map(l: int, m: int, axis: str, power: int) -> np.ndarray:
    """Row -> column map of the cyclic monomial acting on one block."""
    idx = np.arange(l * m)
    i, j = np.divmod(idx, m)
    if axis == "x":
        i = (i + power) % l
    else:
        j = (j + power) % m
    return i * m + j


def _arrangements():
    """All ways to place the four term groups into rounds 1..7.

    Constraints: the two X-side groups share the one X ancilla, the two
    Z-side groups share the one Z ancilla, and within a round each data
    block belongs to at most one side.
    """
    rounds = tuple(range(1, 8))
    for ra in itertools.combinations(rounds, 3):
        outside_a = tuple(r for r in rounds if r not in ra)
        for rb in itertools.combinations(outside_a, 3):
            for rbt in itertools.combinations(outside_a, 3):
                avail = tuple(r for r in rounds if r not in rb and r not in rbt)
                if len(avail) < 3:
                    continue
                for rat in itertools.combinations(avail, 3):
                    yield ra, rb, rbt, rat


def schedule_cz_layers(
    code: CssCode, *, arrangement: tuple | None = None
) -> CzSchedule:
    """Assign every retained check-data CZ to one of seven layers.

    For codes with checks of only one type any collision-free coloring
    works and a lowest-free-layer pass is used. With both types present
    the layers must also extract commuting stabilizer values: for every
    retained X/Z check pair, the number of shared data qubits whose
    X-side CZ lands in an earlier layer than the Z-side CZ must be even,
    otherwise the Z outcome inherits the X ancilla's undetermined
    pre-cycle state. Per-code pinned assignments are tried first, then
    the inventory arrangement, then a walk over assignments in a fixed
    order, so the result is deterministic; ScheduleError is raised
    rather than ever emitting an eighth layer. An explicit
    `arrangement` (four round tuples, term order significant) bypasses
    the pins and must itself extract commuting values.
    """
    if not code.retained_x or not code.retained_z:
        return _sequential_schedule(code)
    if code.spec is None:
        raise ScheduleError(
            "depth-7 scheduling needs the two-block cyclic construction"
        )
    spec = code.spec
    half = code.half
    a_maps = [_block_shift_map(spec.l, spec.m, ax, e) for ax, e in spec.a_terms]
    b_maps = [_block_shift_map(spec.l, spec.m, ax, e) for ax, e in spec.b_terms]
    inv_a = [np.argsort(p) for p in a_maps]
    inv_b = [np.argsort(p) for p in b_maps]
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

    if arrangement is not None:
        if not commutes(*arrangement):
            raise ScheduleError(
                "requested arrangement does not extract commuting "
                f"stabilizer values for {code.name or 'code'}"
            )
        return _schedule_from_rounds(
            code, a_maps, b_maps, inv_a, inv_b, *arrangement
        )
    pinned = _PINNED_ASSIGNMENTS.get(code.name or "")
    for cand in (pinned, _INVENTORY_ASSIGNMENT):
        if cand is not None and commutes(*cand):
            return _schedule_from_rounds(
                code, a_maps, b_maps, inv_a, inv_b, *cand
            )
    tried = 0
    for ra_set, rb_set, rbt_set, rat_set in _arrangements():
        for ra in itertools.permutations(ra_set):
            for rb in itertools.permutations(rb_set):
                for rbt in itertools.permutations(rbt_set):
                    for rat in itertools.permutations(rat_set):
                        tried += 1
                        if tried > _SEARCH_CAP:
                            raise ScheduleError(
                                "no commuting depth-7 CZ schedule within "
                                f"{_SEARCH_CAP} candidate assignments for "
                                f"{code.name or 'code'}"
                            )
                        if commutes(ra, rb, rbt, rat):
                            return _schedule_from_rounds(
                                code, a_maps, b_maps, inv_a, inv_b, ra, rb, rbt, rat
                            )
    raise ScheduleError(
        f"no commuting depth-7 CZ schedule exists for {code.name or 'code'}"
    )


def _schedule_from_rounds(code, a_maps, b_maps, inv_a, inv_b, ra, rb, rbt, rat):
    half = code.half
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
    _reject_layer_collisions(out)
    return CzSchedule(
        layers=out,
        term_rounds=(
            ("A", tuple(ra)),
            ("B", tuple(rb)),
            ("BT", tuple(rbt)),
            ("AT", tuple(rat)),
        ),
    )


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
            raise ScheduleError(
                f"check {typ}{row} cannot fit its edges into seven layers"
            )
    out = tuple(tuple(sorted(L, key=lambda e: e[2])) for L in layers)
    _reject_layer_collisions(out)
    return CzSchedule(layers=out, term_rounds=None)


def _reject_layer_collisions(layers) -> None:
    for r, L in enumerate(layers, start=1):
        used: set = set()
        for typ, row, d in L:
            for token in ((typ, row), d):
                if token in used:
                    raise ScheduleError(f"layer {r} reuses {token}")
                used.add(token)


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
    count_hadamards_as_paper: bool = False,
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

    count_hadamards_as_paper=True selects the inventory arrangement
    instead of any per-code pin (unless an explicit schedule is passed)
    and fails the build unless each steady-state cycle then compiles to
    exactly 78 single-qubit gates, the published per-cycle count for
    the pruned 18-qubit circuit. The default pins compile to a few more
    because their data basis-change runs overlap less.
    """
    if cycles < 1:
        raise ValueError("need at least one cycle")
    if basis not in ("Z", "X"):
        raise ValueError("basis must be 'Z' or 'X'")
    if schedule is not None:
        sched = schedule
    elif count_hadamards_as_paper:
        sched = schedule_cz_layers(code, arrangement=_INVENTORY_ASSIGNMENT)
    else:
        sched = schedule_cz_layers(code)
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

    checks_sorted = sorted(layout.check_qubits)
    all_data = set(range(n))

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
            qs = sorted(slots[slot_idx])
            if slot_idx in (0, 7):
                qs = qs + checks_sorted
            if qs:
                layers.append(
                    GateLayer(SINGLE_QUBIT, tuple(("H", (q,)) for q in qs))
                )

        emit_single(0)
        for r in range(1, 8):
            layers.append(cz_layers[r - 1])
            emit_single(r)
        layers.append(
            GateLayer(MEASURE_CHECKS, tuple(("M", (q,)) for q in checks_sorted))
        )
        if c < cycles:
            layers.append(GateLayer(DD_IDLE, tuple(("DD", (d,)) for d in range(n))))
        else:
            layers.append(
                GateLayer(READOUT_DATA, tuple(("RD", (d,)) for d in range(n)))
            )

    circuit = Circuit(
        qubit_count=layout.qubit_count,
        layers=tuple(layers),
        cycle_boundaries=tuple(boundaries),
        basis=basis,
    )

    if count_hadamards_as_paper:
        # Prep/readout merging makes the first and last X-basis cycles
        # legitimately differ; the steady-state cycles must hit the pin.
        if basis == "Z":
            targets = range(cycles)
        else:
            targets = range(1, cycles - 1)
        for c in targets:
            got = circuit.count_gates("H", cycle=c)
            if got != _PINNED_SINGLE_QUBIT_PER_CYCLE:
                raise CircuitBuildError(
                    f"cycle {c + 1} compiles to {got} single-qubit gates; "
                    f"the pinned inventory is {_PINNED_SINGLE_QUBIT_PER_CYCLE}"
                )
    return circuit


def check_basis(circuit: Circuit, basis: str) -> None:
    """Raise ValueError if the circuit records a memory basis other than ``basis``."""
    if circuit.basis is not None and circuit.basis != basis:
        raise ValueError(
            f"circuit was built for the {circuit.basis} basis, not {basis}"
        )


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
    basis-aligned values. Preparations are uniform bit patterns applied
    as X gates before the circuit; in the X basis the built-in
    preparation Hadamards turn them into sign patterns, so the same
    parity bookkeeping applies to the X-type checks.

    All preparations run in one tableau pass (they share its x/z part).
    Draws from ``random.Random(seed)``: first the preparations, one bit
    per data qubit, preparation after preparation; then, for each random
    measurement in circuit order, one coin bit per preparation. Failures
    are listed preparation by preparation, and the list stops after the
    preparation that brings it to ``max_failures``.
    """
    if basis not in ("Z", "X"):
        raise ValueError("basis must be 'Z' or 'X'")
    check_basis(circuit, basis)
    if preparations < 1:
        raise ValueError("need at least one preparation")
    layout = qubit_layout(code)
    kinds_rows = [("X", r) for r in code.retained_x] + [
        ("Z", r) for r in code.retained_z
    ]
    supports = np.vstack(
        [code.h_x.bits[list(code.retained_x)], code.h_z.bits[list(code.retained_z)]]
    ).astype(np.int64)
    aligned = np.array([kind == basis for kind, _ in kinds_rows], dtype=bool)
    check_qubits = layout.check_qubits
    measure_layers = [
        i for i, L in enumerate(circuit.layers) if L.kind == MEASURE_CHECKS
    ]
    readout_layers = [
        i for i, L in enumerate(circuit.layers) if L.kind == READOUT_DATA
    ]
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
    cycle_out: list[dict[int, np.ndarray]] = []
    readout: dict[int, np.ndarray] = {}
    for L in circuit.layers:
        if L.kind == SINGLE_QUBIT:
            for name, (q,) in L.gates:
                if name == "H":
                    tab.h(q)
        elif L.kind == CZ:
            for _, (a, b) in L.gates:
                tab.cz(a, b)
        elif L.kind == MEASURE_CHECKS:
            cycle_out.append({q: tab.measure(q) for _, (q,) in L.gates})
        elif L.kind == READOUT_DATA:
            for _, (q,) in L.gates:
                readout[q] = tab.measure(q)
        # DD_IDLE acts as identity in the noiseless model.

    # fail[p, check, slot]: slot 0 is contract (b), slot c in 1..t-1 is
    # contract (a) between cycles c and c + 1, slot t is contract (c)
    fail = np.zeros((preparations, len(check_qubits), t + 1), dtype=bool)
    if t:
        m = np.array([[out[q] for q in check_qubits] for out in cycle_out])
        value = (m ^ np.concatenate([np.zeros_like(m[:1]), m[:-1]])).transpose(2, 1, 0)
        expect = (prep.astype(np.int64) @ supports.T) % 2
        fail[:, :, 0] = aligned & (value[:, :, 0] != expect)
        fail[:, :, 1:t] = value[:, :, 1:] != value[:, :, :-1]
    if readout:
        rd = np.array([readout[d] for d in range(code.n)]).T.astype(np.int64)
        r_par = (rd @ supports.T) % 2
        # with no check measurement there is no final value to match
        final = value[:, :, -1] if t else None
        fail[:, :, t] = aligned & ((r_par != final) if t else True)

    failures: list[str] = []
    by_prep = np.argwhere(fail)
    for p in range(preparations):
        for _, ci, slot in by_prep[by_prep[:, 0] == p]:
            kind, row = kinds_rows[ci]
            if slot == t:
                failures.append(
                    f"prep {p}: {kind}{row} readout parity {r_par[p, ci]} != final "
                    f"value {final if final is None else final[p, ci]} "
                    f"(layer {readout_layers[0]})"
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


# ---------------------------------------------------------------------------
# Text form


def serialize_circuit(circuit: Circuit) -> str:
    """Line-oriented text form; `parse_circuit` inverts it exactly.

    One gate per line, TICK terminating every layer, CYCLE immediately
    before each cycle's first layer, and a `# qubits N` header so that
    trailing unused qubits survive the round trip. A `# basis Z` (or X)
    header follows when the circuit records its memory basis. Layers
    with no gates (possible only for CZ layers) serialize as a bare TICK.
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

    def close(at_line: int) -> None:
        nonlocal buf, buf_kind, buf_qubits, pending
        kind = buf_kind if buf_kind is not None else CZ
        try:
            layers.append(GateLayer(kind, tuple(buf)))
        except ValueError as exc:
            raise CircuitParseError(at_line, str(exc)) from None
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
            close(line_no)
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
        rule = _GATE_RULES.get(op)
        if rule is None:
            raise CircuitParseError(line_no, f"unknown operation {op!r}")
        arity, home = rule
        if len(tokens) - 1 != arity:
            raise CircuitParseError(line_no, f"{op} takes {arity} qubit operand(s)")
        try:
            qs = tuple(int(tok) for tok in tokens[1:])
        except ValueError:
            raise CircuitParseError(line_no, f"bad qubit index in {line!r}") from None
        if any(q < 0 for q in qs):
            raise CircuitParseError(line_no, "negative qubit index")
        if buf_kind is None:
            buf_kind = home
        elif home != buf_kind:
            raise CircuitParseError(
                line_no, f"{op} cannot share a layer with {buf_kind} operations"
            )
        if any(q in buf_qubits for q in qs):
            raise CircuitParseError(line_no, "qubit used twice in one layer")
        buf_qubits.update(qs)
        buf.append((op, qs))

    if pending and not buf:
        raise CircuitParseError(line_no, "cycle boundary with no following layer")
    if buf:
        close(line_no)
    if qubit_count is None:
        qubit_count = max((q for L in layers for q in L.qubits()), default=-1) + 1
    return Circuit(
        qubit_count=qubit_count,
        layers=tuple(layers),
        cycle_boundaries=tuple(boundaries),
        basis=basis,
    )
