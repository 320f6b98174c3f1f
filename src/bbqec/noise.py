"""Circuit-level Pauli noise: fault models, Monte Carlo, detector error models.

Everything here is differential: it tracks only deviations from the
ideal circuit. That is enough because every reported quantity (detection
events, final-readout comparisons, logical flips) is a fixed linear
functional of the injected Paulis that vanishes in the noiseless run.

One fault-effect table (``_fault_table``) gives the signature of every
single-fault variant without simulating any of them. One walk over the
layers of ``_Program``, last to first, carries for each qubit the
outputs that an X or a Z injected there would flip (the reverse pass of
Stim's error analyser, Gidney 2021, Quantum 5, 497). A variant's row is
the XOR of at most four lookups at its slot's layer. Building the table
costs O(layers x qubits x outputs / 64) word operations plus one lookup
per variant. ``build_dem``, ``expected_detection_series`` and
``sample_shot(forced_fault=...)`` read it, and the sampler replays it:
the outputs are linear in the injected Paulis, so a shot is the XOR of
the rows of the variants that its draws pick.

Noise channels and their fault slots:

- ``H`` gates and idle slots draw one of X, Y, Z, each at a third of the
  slot rate. Where idle slots live is set by ``NoiseModel.idle_policy``:
  every qubit without a gate in each CZ layer gets one, and by default
  data qubits also idle through the ancilla basis-rotation layers that
  frame each cycle; the "dense" policy extends idles to every untouched
  qubit in every single-qubit layer.
- ``CZ`` gates draw one of the fifteen nontrivial two-qubit Paulis, each
  at ``p_cz / 15``.
- ``DD`` slots flip X and Z independently: X alone, Z alone or both.
- Check measurement and final data readout flip the recorded outcome
  without touching the state.

``_channel`` states each channel once: its faults with their rates. The
variant enumeration, the table and the sampler all expand it.

Randomness is counter-based: every shot has a 64-bit key derived from
the master seed, and each draw mixes that key with a fixed stream
number, so results are independent of batch size and execution order.
The sampler does not draw once per (shot, slot): it skips to the next
fault with geometric gaps (as Stim's frame simulator does), so the
number of draws scales with the faults that fire. For the slot kind at
index i of ``_SLOT_KINDS``, with P the sum of its fault probabilities
and its m slots in counter order, each shot starts before the first
slot and runs rounds r = 0, 1, ...: the draw of stream (i, 2r + 1) gives
u in (0, 1], the shot skips the #{g in 1..m : (1 - P)^g >= u} slots
that stay quiet and fires the next one, and once past the last slot it
stops. A fired slot takes the draw of stream (i, 2r + 2) to pick its
fault, each in proportion to its probability. The survival table
(1 - P)^g is a sequential product (``np.cumprod``), not a logarithm, so
the draws are the same bits on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .circuit import (
    CZ,
    DD_IDLE,
    MEASURE_CHECKS,
    READOUT_DATA,
    SINGLE_QUBIT,
    Circuit,
    check_basis,
    qubit_layout,
)
from .codes import CssCode, LogicalOperatorSet, logical_operator_set_for

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_STREAM = 0xD1B54A32D192ED03
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53

DEFAULT_MASTER_SEED = 0xBBC0DE


def _mix64(v: np.ndarray | np.uint64) -> np.ndarray:
    v = (v ^ (v >> np.uint64(30))) * _MIX1
    v = (v ^ (v >> np.uint64(27))) * _MIX2
    return v ^ (v >> np.uint64(31))


def derive_shot_seed(master_seed: int, shot_index: int) -> int:
    """The per-shot seed used by run_monte_carlo for one shot index."""
    return int(_derive_keys(master_seed, shot_index, 1)[0])


def _derive_keys(master_seed: int, start: int, count: int) -> np.ndarray:
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64(np.uint64(master_seed % 2**64) + idx * _GOLDEN)


def _uniform(keys: np.ndarray, stream: int, draw: int) -> np.ndarray:
    """Float64 in (0, 1], one per key: draw ``draw`` of stream ``stream``."""
    # Python ints, so the constant wraps mod 2**64 without a numpy
    # scalar overflow
    mix = np.uint64(((stream << 32) | draw) * _STREAM % 2**64)
    return ((_mix64(keys ^ mix) >> np.uint64(11)) + np.uint64(1)) * _U53


# ---------------------------------------------------------------------------
# noise model


IDLE_POLICIES = ("cz_layers", "frames", "dense")


@dataclass(frozen=True)
class NoiseModel:
    """Component error probabilities plus a global suppression factor.

    Every rate used by the sampler and the fault enumeration is the base
    rate times ``suppression``, clamped to [0, 1].

    idle_policy picks where idle error slots live. "cz_layers" places
    one on every qubit not acted on within each CZ layer and nothing in
    the short single-qubit layers. "frames" (default) adds idles on
    data qubits during the two ancilla basis-rotation layers that frame
    each cycle, where every qubit must wait out a global step; interior
    data-only basis changes still pack into adjacent slack. This
    inventory reproduces the published simulated detection
    probabilities including the boundary-cycle dips. "dense" places
    idle slots on every untouched qubit in every single-qubit layer,
    the heaviest reading of the inventory. In all policies DD slots
    replace data-qubit idles during check measurement and the
    measurement/readout layers carry no idles.
    """

    p_h: float = 0.0
    p_i: float = 0.0
    p_cz: float = 0.0
    p_m: float = 0.0
    p_f: float = 0.0
    p_dd_x: float = 0.0
    p_dd_z: float = 0.0
    suppression: float = 1.0
    idle_policy: str = "frames"

    def __post_init__(self):
        for name in ("p_h", "p_i", "p_cz", "p_m", "p_f", "p_dd_x", "p_dd_z"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if not self.suppression >= 0.0:
            raise ValueError(f"suppression={self.suppression} must be >= 0")
        if self.idle_policy not in IDLE_POLICIES:
            raise ValueError(
                f"idle_policy={self.idle_policy!r} not one of {IDLE_POLICIES}"
            )

    def effective(self, base: float) -> float:
        return min(1.0, max(0.0, self.suppression * base))

    def scaled(self, suppression: float) -> "NoiseModel":
        return replace(self, suppression=suppression)

    @classmethod
    def device_rates(
        cls, suppression: float = 1.0, idle_policy: str = "frames"
    ) -> "NoiseModel":
        """Component error probabilities of the simulated device.

        The DD rates are (1 - exp(-tau/T)) / 2 for the tau = 920 ns wait
        through check measurement, with T1 = 41.8 us for X and
        T2 = 28.47 us for Z; p_m and p_f collapse three-outcome readout
        confusion matrices with leakage. All are rounded to three
        significant figures, and the rounded values are the model.
        """
        return cls(
            p_h=8.0e-4,
            p_i=3.5e-3,
            p_cz=9.8e-3,
            p_m=4.03e-2,
            p_f=3.29e-2,
            p_dd_x=1.09e-2,
            p_dd_z=1.59e-2,
            suppression=suppression,
            idle_policy=idle_policy,
        )


# ---------------------------------------------------------------------------
# fault slots and variants


@dataclass(frozen=True)
class FaultSlot:
    """One noisy operation or idle window, with its RNG counter."""

    counter: int
    kind: str  # "h" | "idle" | "cz" | "dd" | "measure" | "readout"
    layer: int
    qubits: tuple[int, ...]
    cycle: int = -1
    check: int = -1  # check column, for measurement slots


@dataclass(frozen=True)
class FaultVariant:
    """One concrete fault realization at one slot."""

    slot: int
    layer: int
    kind: str
    probability: float
    x_qubits: tuple[int, ...] = ()
    z_qubits: tuple[int, ...] = ()
    measurement_flip: tuple[int, int] | None = None  # (cycle, check column)
    readout_flip: int | None = None


_XZ_OF_PAULI = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}  # I X Y Z
_SLOT_KINDS = ("h", "idle", "cz", "dd", "measure", "readout")


class _Program:
    """Preprocessed circuit: layer ops, fault slots, detector layout."""

    def __init__(
        self,
        code: CssCode,
        circuit: Circuit,
        basis: str = "Z",
        logicals: LogicalOperatorSet | None = None,
        idle_policy: str = "frames",
    ):
        if basis not in ("Z", "X"):
            raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
        check_basis(circuit, basis)
        if idle_policy not in IDLE_POLICIES:
            raise ValueError(
                f"idle_policy={idle_policy!r} not one of {IDLE_POLICIES}"
            )
        layout = qubit_layout(code)
        if circuit.qubit_count != layout.qubit_count:
            raise ValueError(
                f"circuit has {circuit.qubit_count} qubits, code layout needs "
                f"{layout.qubit_count}"
            )
        if circuit.cycles == 0:
            raise ValueError("circuit declares no cycles")
        self.code = code
        self.circuit = circuit
        self.basis = basis
        self.n = code.n
        self.t = circuit.cycles

        checks = [("X", r) for r in code.retained_x] + [("Z", r) for r in code.retained_z]
        self.check_labels = tuple(f"{k}{r}" for k, r in checks)
        self.check_count = len(checks)
        anc_to_col = {q: i for i, q in enumerate(layout.check_qubits)}
        x_cols = np.arange(len(code.retained_x))
        z_cols = np.arange(len(code.retained_x), self.check_count)
        self.aligned_cols = z_cols if basis == "Z" else x_cols
        self.opposite_cols = x_cols if basis == "Z" else z_cols
        self.support = (
            code.retained_h_z() if basis == "Z" else code.retained_h_x()
        ).bits.astype(np.uint8)
        self._logicals = logicals

        all_qubits = frozenset(range(circuit.qubit_count))
        slots: list[FaultSlot] = []
        self.layer_ops: list[tuple] = []
        cycle_of_measure = 0
        for li, layer in enumerate(circuit.layers):
            if layer.kind == SINGLE_QUBIT:
                h_qs = [qs[0] for name, qs in layer.gates if name == "H"]
                if idle_policy == "dense":
                    idle_qs = sorted(all_qubits - set(h_qs))
                elif idle_policy == "frames" and any(q >= self.n for q in h_qs):
                    # ancilla basis rotation is a global step: un-gated data
                    # qubits wait; interior data-only layers pack for free
                    idle_qs = sorted(set(range(self.n)) - set(h_qs))
                else:
                    idle_qs = []
                self.layer_ops.append((SINGLE_QUBIT, np.array(h_qs, dtype=np.intp)))
                for kind, qs in (("h", h_qs), ("idle", idle_qs)):
                    for q in qs:
                        slots.append(FaultSlot(len(slots), kind, li, (int(q),)))
            elif layer.kind == CZ:
                a = [qs[0] for _, qs in layer.gates]
                b = [qs[1] for _, qs in layer.gates]
                self.layer_ops.append(
                    (CZ, np.array(a, dtype=np.intp), np.array(b, dtype=np.intp))
                )
                for pa, pb in zip(a, b):
                    slots.append(FaultSlot(len(slots), "cz", li, (int(pa), int(pb))))
                for q in sorted(all_qubits - set(a) - set(b)):
                    slots.append(FaultSlot(len(slots), "idle", li, (int(q),)))
            elif layer.kind == MEASURE_CHECKS:
                anc = [qs[0] for _, qs in layer.gates]
                cols = np.array([anc_to_col[q] for q in anc], dtype=np.intp)
                cyc = cycle_of_measure
                cycle_of_measure += 1
                self.layer_ops.append(
                    (MEASURE_CHECKS, np.array(anc, dtype=np.intp), cols, cyc)
                )
                for q, col in zip(anc, cols):
                    slots.append(
                        FaultSlot(len(slots), "measure", li, (int(q),),
                                  cycle=cyc, check=int(col))
                    )
            elif layer.kind == DD_IDLE:
                self.layer_ops.append((DD_IDLE,))
                for _, (q,) in layer.gates:
                    slots.append(FaultSlot(len(slots), "dd", li, (int(q),)))
            elif layer.kind == READOUT_DATA:
                qs = [q[0] for _, q in layer.gates]
                self.layer_ops.append((READOUT_DATA, np.array(qs, dtype=np.intp)))
                for q in qs:
                    slots.append(FaultSlot(len(slots), "readout", li, (int(q),)))
            else:  # pragma: no cover - layer kinds are closed
                raise AssertionError(layer.kind)
        if cycle_of_measure != self.t:
            raise ValueError(
                f"circuit declares {self.t} cycles but has {cycle_of_measure} "
                "measurement layers"
            )
        self.slots = tuple(slots)

    @cached_property
    def logical_mat(self) -> np.ndarray:
        """Memory-basis logical operators, one row each. Resolved on first
        use: enumerating faults needs none, and ``compute_logicals`` can
        be costly when the code ships no default set."""
        logicals = self._logicals
        if logicals is None:
            logicals = logical_operator_set_for(self.code)
        return (
            logicals.z_matrix() if self.basis == "Z" else logicals.x_matrix()
        ).bits.astype(np.uint8)

    @property
    def detector_count(self) -> int:
        return (self.t + 1) * len(self.aligned_cols)

    # Raw outputs are the deviations the sampler records: dm[c, j] is bit
    # c * checks + j, rd[q] is bit t * checks + q.

    @property
    def raw_bits(self) -> int:
        return self.t * self.check_count + self.n

    def dm_bit(self, cycle, col):
        return cycle * self.check_count + col

    def rd_bit(self, q):
        return self.t * self.check_count + q

    def outcome_bit(self, slot: FaultSlot) -> int:
        """The raw output that a measurement or readout slot records."""
        if slot.kind == "measure":
            return self.dm_bit(slot.cycle, slot.check)
        return self.rd_bit(slot.qubits[0])

    def split_raw(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of raw-output bits -> (dm (B, t, checks), rd (B, n))."""
        tc = self.t * self.check_count
        return bits[:, :tc].reshape(-1, self.t, self.check_count), bits[:, tc:]


class _Pattern(NamedTuple):
    """One fault of a slot kind. Legs index the slot's qubits; ``flip``
    flips the outcome that the slot records."""

    probability: float
    x_legs: tuple[int, ...] = ()
    z_legs: tuple[int, ...] = ()
    flip: bool = False


class _Channel(NamedTuple):
    """One slot kind's noise: its faults, and how a shot's draws pick them.

    ``patterns`` are the nonzero-probability faults in variant order. A
    slot fires with P = the sum of their probabilities and then picks
    each in proportion to its probability, so every pattern occurs at
    its own probability. ``stream`` numbers the kind's draws: it is the
    index of the slot kind in ``_SLOT_KINDS``.
    """

    stream: int
    patterns: list[_Pattern]

    def fires(self, keys: np.ndarray, m: int):
        """The faults that fire among ``m`` slots of this kind, for every
        shot key, one round at a time (the contract in the module
        docstring).

        Yields (shot, slot, pattern) index arrays per round. A round fires
        at most one slot per shot, so its shot indices are distinct.
        """
        cum = np.cumsum([pat.probability for pat in self.patterns])
        # (1 - P)^g for g = m..1, ascending, so the gap #{g : S_g >= u}
        # is m minus searchsorted(survive, u)
        survive = np.cumprod(np.full(m, max(0.0, 1.0 - cum[-1])))[::-1]
        cdf = cum / cum[-1]  # the last entry is exactly 1
        shot = np.arange(len(keys))
        pos = np.full(len(keys), -1, dtype=np.intp)
        draw = 1
        while len(shot):
            u = _uniform(keys, self.stream, draw)
            pos = pos + (m + 1 - np.searchsorted(survive, u))
            live = pos < m
            shot, pos, keys = shot[live], pos[live], keys[live]
            if len(cdf) == 1:
                pick = np.zeros(len(shot), dtype=np.intp)
            else:
                pick = np.searchsorted(cdf, _uniform(keys, self.stream, draw + 1))
            yield shot, pos, pick
            draw += 2


def _uniform_patterns(p: float, shapes) -> list[_Pattern]:
    """Rate p split evenly over faults given as (x legs, z legs, flip)."""
    k = len(shapes)
    return [_Pattern(p / k, *shape) for shape in shapes if p / k > 0]


def _channel(kind: str, noise: NoiseModel) -> _Channel:
    """The noise channel of one slot kind."""
    if kind in ("h", "idle"):
        p = noise.effective(noise.p_h if kind == "h" else noise.p_i)
        pats = _uniform_patterns(p, [((0,), ()), ((0,), (0,)), ((), (0,))])
    elif kind == "cz":
        shapes = []
        for idx in range(1, 16):
            pa, pb = divmod(idx, 4)
            (xa, za), (xb, zb) = _XZ_OF_PAULI[pa], _XZ_OF_PAULI[pb]
            shapes.append((
                tuple(leg for leg, f in ((0, xa), (1, xb)) if f),
                tuple(leg for leg, f in ((0, za), (1, zb)) if f),
            ))
        pats = _uniform_patterns(noise.effective(noise.p_cz), shapes)
    elif kind == "dd":
        px = noise.effective(noise.p_dd_x)
        pz = noise.effective(noise.p_dd_z)
        pats = [
            _Pattern(px * (1 - pz), (0,)),
            _Pattern((1 - px) * pz, (), (0,)),
            _Pattern(px * pz, (0,), (0,)),
        ]
        pats = [pat for pat in pats if pat.probability > 0]
    elif kind == "measure":
        pats = _uniform_patterns(noise.effective(noise.p_m), [((), (), True)])
    elif kind == "readout":
        pats = _uniform_patterns(noise.effective(noise.p_f), [((), (), True)])
    else:  # pragma: no cover - slot kinds are closed
        raise AssertionError(kind)
    return _Channel(_SLOT_KINDS.index(kind), pats)


def _slot_variants(slot: FaultSlot, patterns: list[_Pattern]) -> list[FaultVariant]:
    q = slot.qubits
    measured = (slot.cycle, slot.check) if slot.kind == "measure" else None
    read = q[0] if slot.kind == "readout" else None
    return [
        FaultVariant(
            slot.counter,
            slot.layer,
            slot.kind,
            pat.probability,
            tuple([q[leg] for leg in pat.x_legs]),
            tuple([q[leg] for leg in pat.z_legs]),
            measured if pat.flip else None,
            read if pat.flip else None,
        )
        for pat in patterns
    ]


def enumerate_fault_variants(
    circuit: Circuit, noise: NoiseModel, *, code: CssCode
) -> tuple[FaultVariant, ...]:
    """Every nonzero-probability single-fault realization, in slot order.
    They do not depend on the memory basis."""
    prog = _Program(code, circuit, circuit.basis or "Z", idle_policy=noise.idle_policy)
    patterns = {kind: _channel(kind, noise).patterns for kind in _SLOT_KINDS}
    out: list[FaultVariant] = []
    for slot in prog.slots:
        out.extend(_slot_variants(slot, patterns[slot.kind]))
    return tuple(out)


# ---------------------------------------------------------------------------
# fault-effect table

# Packed output rows: bit i of a row is bit i % 64 of little-endian word i // 64.
_WORD = np.dtype("<u8")


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 bytes -> rows of packed words."""
    words = -(-bits.shape[1] // 64)
    out = np.zeros((bits.shape[0], 8 * words), dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    out[:, : packed.shape[1]] = packed
    return out.view(_WORD)


def _unpack(rows: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of packed rows, as rows of 0/1 bytes."""
    raw = np.ascontiguousarray(rows, dtype=_WORD).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=count, bitorder="little")


def _raw_map(prog: _Program) -> np.ndarray:
    """Row r: raw output r alone, packed. Tables built on it hold raw outputs."""
    return _pack(np.eye(prog.raw_bits, dtype=np.uint8))


def _signature_map(prog: _Program) -> np.ndarray:
    """Row r: what ``_assemble`` makes of raw output r alone, packed as the
    memory-basis detectors (the DEM's order) followed by the logicals.

    ``_assemble`` is linear over GF(2), so a fault's signature is the XOR
    of the rows of the raw outputs it flips.
    """
    eye = np.eye(prog.raw_bits, dtype=np.uint8)
    det, zf, logical = _assemble(prog, *prog.split_raw(eye))
    body = det[:, :, prog.aligned_cols].reshape(len(eye), -1)
    return _pack(np.concatenate([body, zf, logical], axis=1))


def _walk_back(prog: _Program, out_map: np.ndarray):
    """Walk the layers from last to first, carrying the fault effects.

    Yields (layer, sx, sz) for every layer: row q of sx (sz) holds the
    outputs flipped by an X (a Z) on qubit q injected right after that
    layer's gate, as the XOR of the ``out_map`` rows of the raw outputs
    it flips. The two arrays are updated in place after each yield.
    """
    sx = np.zeros((prog.circuit.qubit_count, out_map.shape[1]), dtype=out_map.dtype)
    sz = np.zeros_like(sx)
    for li in range(len(prog.layer_ops) - 1, -1, -1):
        yield li, sx, sz
        op = prog.layer_ops[li]
        kind = op[0]
        if kind == SINGLE_QUBIT:
            qs = op[1]
            sx[qs], sz[qs] = sz[qs], sx[qs]
        elif kind == CZ:
            # X_a before the gate is X_a Z_b after it; Z passes through
            a, b = op[1], op[2]
            sx[a] ^= sz[b]
            sx[b] ^= sz[a]
        elif kind == MEASURE_CHECKS:
            # the outcome reads X on the ancilla, which persists; Z is erased
            anc, cols, cyc = op[1], op[2], op[3]
            sx[anc] ^= out_map[prog.dm_bit(cyc, cols)]
            sz[anc] = 0
        elif kind == READOUT_DATA:
            qs = op[1]
            sx[qs] ^= out_map[prog.rd_bit(qs)]
        # DD_IDLE applies no gate


def _fault_table(prog: _Program, noise: NoiseModel, out_map: np.ndarray):
    """Outputs flipped by every nonzero single-fault variant, in variant order.

    Returns (rows, slot, probability): row v packs the outputs (in the
    basis of ``out_map``) that variant v flips on its own, slot[v] is
    its slot counter and probability[v] its prior. The variants are
    those of enumerate_fault_variants, in the same order.
    """
    patterns = {kind: _channel(kind, noise).patterns for kind in _SLOT_KINDS}
    by_kind: dict[str, list[FaultSlot]] = {}
    for s in prog.slots:
        by_kind.setdefault(s.kind, []).append(s)
    count = np.array([len(patterns[s.kind]) for s in prog.slots], dtype=np.intp)
    first = np.cumsum(count) - count
    rows = np.zeros((int(count.sum()), out_map.shape[1]), dtype=out_map.dtype)
    prob = np.zeros(len(rows))

    lookups = []  # (layer bounds, first variant, qubit legs, patterns) per kind
    for kind, slots in by_kind.items():
        pats = patterns[kind]
        if not pats:
            continue
        base = first[[s.counter for s in slots]]
        prob[base[:, None] + np.arange(len(pats))] = [pat.probability for pat in pats]
        for j, pat in enumerate(pats):
            if pat.flip:
                rows[base + j] ^= out_map[[prog.outcome_bit(s) for s in slots]]
        if any(pat.x_legs or pat.z_legs for pat in pats):
            layers = np.array([s.layer for s in slots])
            bounds = np.searchsorted(layers, np.arange(len(prog.layer_ops) + 1))
            legs = np.array([s.qubits for s in slots], dtype=np.intp)
            lookups.append((bounds, base, legs, pats))

    for li, sx, sz in _walk_back(prog, out_map):
        for bounds, base, legs, pats in lookups:
            lo, hi = bounds[li], bounds[li + 1]
            if lo == hi:
                continue
            lx, lz = sx[legs[lo:hi]], sz[legs[lo:hi]]  # (slots, legs, words)
            for j, pat in enumerate(pats):
                acc = np.zeros((hi - lo, rows.shape[1]), dtype=rows.dtype)
                for k in pat.x_legs:
                    acc ^= lx[:, k]
                for k in pat.z_legs:
                    acc ^= lz[:, k]
                rows[base[lo:hi] + j] ^= acc
    return rows, np.repeat(np.arange(len(prog.slots)), count), prob


def _fault_row(prog: _Program, fault: FaultVariant) -> np.ndarray:
    """Packed raw outputs flipped by one fault, read from the table."""
    if not 0 <= fault.layer < len(prog.layer_ops):
        raise ValueError(
            f"fault layer {fault.layer} outside the circuit's "
            f"{len(prog.layer_ops)} layers"
        )
    qubits = fault.x_qubits + fault.z_qubits
    if not all(0 <= q < prog.circuit.qubit_count for q in qubits):
        raise ValueError(f"fault qubits {qubits} outside the circuit")
    if fault.measurement_flip is not None:
        cyc, col = fault.measurement_flip
        if not (0 <= cyc < prog.t and 0 <= col < prog.check_count):
            raise ValueError(
                f"measurement flip {fault.measurement_flip} outside the circuit"
            )
    if fault.readout_flip is not None and not 0 <= fault.readout_flip < prog.n:
        raise ValueError(f"readout flip {fault.readout_flip} outside the data qubits")
    out_map = _raw_map(prog)
    row = np.zeros(out_map.shape[1], dtype=out_map.dtype)
    if fault.measurement_flip is not None:
        row ^= out_map[prog.dm_bit(*fault.measurement_flip)]
    if fault.readout_flip is not None:
        row ^= out_map[prog.rd_bit(fault.readout_flip)]
    for li, sx, sz in _walk_back(prog, out_map):
        if li == fault.layer:
            for q in fault.x_qubits:
                row ^= sx[q]
            for q in fault.z_qubits:
                row ^= sz[q]
            break
    return row


# ---------------------------------------------------------------------------
# sampler


def _sampler(prog: _Program, noise: NoiseModel):
    """A function from shot keys (one uint64 each) to raw outputs (dm, rd).

    It replays the fault-effect table: each slot kind's draws
    (``_Channel.fires``) pick the variants that fire, and a shot's raw
    outputs are the XOR of their table rows. dm has shape (B, t, checks)
    and rd (B, n).
    """
    rows, slot, _ = _fault_table(prog, noise, _raw_map(prog))
    first = np.searchsorted(slot, np.arange(len(prog.slots)))  # per slot
    kinds = []  # (channel, first variant of each slot in counter order)
    for kind in _SLOT_KINDS:
        channel = _channel(kind, noise)
        ctr = [s.counter for s in prog.slots if s.kind == kind]
        if channel.patterns and ctr:
            kinds.append((channel, first[ctr]))

    def sample(keys: np.ndarray):
        acc = np.zeros((len(keys), rows.shape[1]), dtype=rows.dtype)
        for channel, base in kinds:
            for shot, pos, pick in channel.fires(keys, len(base)):
                acc[shot] ^= rows[base[pos] + pick]
        return prog.split_raw(_unpack(acc, prog.raw_bits))

    return sample


def _assemble(prog: _Program, dm: np.ndarray, rd: np.ndarray):
    """Convert raw deviations into detector, final, and logical bits.

    In-circuit detectors: z1 = m1, z2 = m2, z_j = m_j xor m_{j-2}. The
    final detector compares the readout-derived stabilizer values with
    the last two check readouts: z_F = y_F xor m_t xor m_{t-1}.
    """
    det = dm.copy()
    det[:, 2:] ^= dm[:, :-2]
    yf = ((rd.astype(np.uint32) @ prog.support.T.astype(np.uint32)) & 1).astype(np.uint8)
    zf = yf ^ dm[:, -1, prog.aligned_cols]
    if prog.t >= 2:
        zf ^= dm[:, -2, prog.aligned_cols]
    logical = ((rd.astype(np.uint32) @ prog.logical_mat.T.astype(np.uint32)) & 1).astype(
        np.uint8
    )
    return det, zf, logical


# ---------------------------------------------------------------------------
# shot records


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Detector outcomes of one sampled (or forced-fault) shot.

    All bits are deviations from the noiseless run, which equals the
    actual detector values because every detector is zero there.
    ``detections[c, j]`` is the converted in-circuit detector of cycle
    c+1 for check column j; ``final_syndrome`` holds the final
    readout-comparison detectors of the memory-basis checks;
    ``logical_flips`` the measured flips of the memory-basis logical
    operators, readout errors included.
    """

    basis: str
    detections: np.ndarray
    final_syndrome: np.ndarray
    logical_flips: np.ndarray


@dataclass(frozen=True, eq=False)
class ShotBatch:
    """Stacked shot records plus the check-column layout."""

    basis: str
    cycles: int
    check_labels: tuple[str, ...]
    aligned_columns: tuple[int, ...]
    detections: np.ndarray  # (shots, cycles, checks)
    final_syndrome: np.ndarray  # (shots, aligned)
    logical_flips: np.ndarray  # (shots, k)

    @property
    def shots(self) -> int:
        return self.detections.shape[0]

    def record(self, i: int) -> ShotRecord:
        return ShotRecord(
            self.basis,
            self.detections[i].copy(),
            self.final_syndrome[i].copy(),
            self.logical_flips[i].copy(),
        )

    def detector_matrix(self) -> np.ndarray:
        """Decoder-facing bits, shape (shots, (cycles+1) * aligned).

        Cycle-major: detectors of cycle 1 first, the final comparison
        block last, matching the detector indexing of build_dem.
        """
        cols = list(self.aligned_columns)
        body = self.detections[:, :, cols].reshape(self.shots, -1)
        return np.concatenate([body, self.final_syndrome], axis=1)

    def _kind_columns(self, kind: str) -> list[int]:
        cols = [i for i, lab in enumerate(self.check_labels) if lab[0] == kind]
        if not cols:
            raise ValueError(f"no {kind}-type checks in this batch")
        return cols

    def cycle_series(self, kind: str) -> np.ndarray:
        """Mean detection fraction per detection point for one check type.

        For the memory-basis type the series has cycles+1 points (the
        last one is the final readout comparison). For the opposite type
        the first in-circuit point is omitted, because its reference
        value is randomized by the first measurement; cycles-1 points
        remain.
        """
        cols = self._kind_columns(kind)
        aligned = kind == self.basis
        start = 0 if aligned else 1
        series = [self.detections[:, c, cols].mean() for c in range(start, self.cycles)]
        if aligned:
            series.append(self.final_syndrome.mean())
        return np.array(series)

    def mean_detection_probability(self, kind: str) -> float:
        return float(self.cycle_series(kind).mean())

    def to_csv(self) -> str:
        header = (
            [f"det_c{c + 1}_{lab}" for c in range(self.cycles) for lab in self.check_labels]
            + [f"final_{self.check_labels[c]}" for c in self.aligned_columns]
            + [f"logical_{i + 1}" for i in range(self.logical_flips.shape[1])]
        )
        rows = [",".join(header)]
        flat = np.concatenate(
            [
                self.detections.reshape(self.shots, -1),
                self.final_syndrome,
                self.logical_flips,
            ],
            axis=1,
        )
        for r in flat:
            rows.append(",".join("1" if b else "0" for b in r))
        return "\n".join(rows) + "\n"


def sample_shot(
    circuit: Circuit,
    noise: NoiseModel,
    rng_seed: int,
    *,
    code: CssCode,
    basis: str = "Z",
    logicals: LogicalOperatorSet | None = None,
    forced_fault: FaultVariant | None = None,
) -> ShotRecord:
    """Sample one shot, or replay exactly one fault with no other noise.

    A sampled shot draws by the geometric skip of the module docstring,
    with ``rng_seed`` as its key, so ``rng_seed`` derive_shot_seed(s, i)
    gives shot i of run_monte_carlo with master seed s. A forced fault is not
    simulated: its raw outputs are read from the fault-effect table at
    the fault's layer (one backward walk down to that layer) and
    converted by the same ``_assemble`` as sampled shots. ``rng_seed`` is
    then unused.

    Each call without a forced fault builds the whole fault-effect table
    for its one shot. Callers who need many shots should use
    run_monte_carlo, which builds the table once per call.
    """
    prog = _Program(code, circuit, basis, logicals, noise.idle_policy)
    if forced_fault is not None:
        row = _fault_row(prog, forced_fault)
        dm, rd = prog.split_raw(_unpack(row[None], prog.raw_bits))
    else:
        dm, rd = _sampler(prog, noise)(np.array([rng_seed % 2**64], dtype=np.uint64))
    det, zf, logical = _assemble(prog, dm, rd)
    return ShotRecord(basis, det[0], zf[0], logical[0])


def run_monte_carlo(
    circuit: Circuit,
    noise: NoiseModel,
    shots: int,
    basis: str = "Z",
    *,
    code: CssCode,
    logicals: LogicalOperatorSet | None = None,
    master_seed: int = DEFAULT_MASTER_SEED,
    batch_size: int = 4096,
) -> ShotBatch:
    """Sample many shots deterministically, by replaying the fault-effect
    table (built once per call).

    Shot i uses the key derive_shot_seed(master_seed, i), and its draws
    depend only on that key, so the batch partition cannot change any
    outcome. Draws follow the geometric skip of the module docstring:
    per slot kind, one pair per fault that fires plus one draw past the
    last slot, not one per (shot, slot).
    """
    if shots < 1 or batch_size < 1:
        raise ValueError("shots and batch_size must be >= 1")
    prog = _Program(code, circuit, basis, logicals, noise.idle_policy)
    sample = _sampler(prog, noise)
    det_parts, zf_parts, log_parts = [], [], []
    for start in range(0, shots, batch_size):
        count = min(batch_size, shots - start)
        keys = _derive_keys(master_seed, start, count)
        det, zf, logical = _assemble(prog, *sample(keys))
        det_parts.append(det)
        zf_parts.append(zf)
        log_parts.append(logical)
    return ShotBatch(
        basis=basis,
        cycles=prog.t,
        check_labels=prog.check_labels,
        aligned_columns=tuple(int(c) for c in prog.aligned_cols),
        detections=np.concatenate(det_parts),
        final_syndrome=np.concatenate(zf_parts),
        logical_flips=np.concatenate(log_parts),
    )


# ---------------------------------------------------------------------------
# detector error model


@dataclass(frozen=True)
class DemColumn:
    """One merged fault mechanism: prior, detector and logical supports."""

    probability: float
    detectors: tuple[int, ...]
    logicals: tuple[int, ...]


def _check_indices(what: str, indices: tuple[int, ...], count: int) -> None:
    if indices and not (
        0 <= indices[0] and indices[-1] < count and sorted(set(indices)) == list(indices)
    ):
        raise ValueError(
            f"{what} indices {indices} must be strictly increasing and lie in [0, {count})"
        )


@dataclass(frozen=True)
class DetectorErrorModel:
    """Merged single-fault signatures for one memory basis.

    Detector indices are cycle-major over the memory-basis checks, with
    the final readout-comparison block last: index c * A + a for cycle
    c, check a of A, then t * A + a for the final block.
    """

    detector_count: int
    logical_count: int
    columns: tuple[DemColumn, ...]

    def __post_init__(self):
        if self.detector_count < 0 or self.logical_count < 0:
            raise ValueError("detector and logical counts must be >= 0")
        seen = set()
        for col in self.columns:
            if not 0.0 < col.probability < 1.0:
                raise ValueError(f"column probability {col.probability} outside (0,1)")
            _check_indices("detector", col.detectors, self.detector_count)
            _check_indices("logical", col.logicals, self.logical_count)
            key = (col.detectors, col.logicals)
            if key in seen:
                raise ValueError(f"duplicate column signature {key}")
            seen.add(key)

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(detector matrix M x N, logical matrix K x N, priors N)."""
        n = len(self.columns)
        d = np.zeros((self.detector_count, n), dtype=np.uint8)
        l = np.zeros((self.logical_count, n), dtype=np.uint8)
        p = np.zeros(n)
        for j, col in enumerate(self.columns):
            d[list(col.detectors), j] = 1
            l[list(col.logicals), j] = 1
            p[j] = col.probability
        return d, l, p

    def collisions(self) -> list[tuple[int, ...]]:
        """Groups of columns sharing a detector signature with unequal
        logical effects, plus any undetectable column with a logical
        effect (which collides with the trivial no-fault event)."""
        by_sig: dict[tuple[int, ...], list[int]] = {}
        for j, col in enumerate(self.columns):
            by_sig.setdefault(col.detectors, []).append(j)
        out = []
        for sig, js in sorted(by_sig.items()):
            logicals = {self.columns[j].logicals for j in js}
            if sig == () and any(l != () for l in logicals):
                out.append(tuple(js))
            elif len(logicals) > 1:
                out.append(tuple(js))
        return out


def build_dem(
    circuit: Circuit,
    noise: NoiseModel,
    basis: str = "Z",
    *,
    code: CssCode,
    logicals: LogicalOperatorSet | None = None,
) -> DetectorErrorModel:
    """Single-fault signatures from the fault-effect table, merged.

    The table gives every variant of enumerate_fault_variants its
    (detector, logical) signature without simulating it. Variants with
    identical signatures merge by summing their priors in variant order;
    columns keep the order in which their signature first occurs, and
    zero-signature variants are dropped. Cost: one backward walk,
    O(layers x qubits x outputs / 64) word operations, one lookup per
    variant and one sort of the packed signatures.
    """
    prog = _Program(code, circuit, basis, logicals, noise.idle_policy)
    D, K = prog.detector_count, prog.logical_mat.shape[0]
    rows, _, prob = _fault_table(prog, noise, _signature_map(prog))
    seen = rows.any(axis=1)
    rows, prob = rows[seen], prob[seen]
    if not len(rows):
        return DetectorErrorModel(D, K, ())
    sigs, first, inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    total = np.bincount(inverse.reshape(-1), weights=prob, minlength=len(sigs))
    order = np.argsort(first)
    columns = tuple(
        DemColumn(
            float(total[u]),
            tuple(np.flatnonzero(bits[:D]).tolist()),
            tuple(np.flatnonzero(bits[D:]).tolist()),
        )
        for u, bits in zip(order.tolist(), _unpack(sigs[order], D + K))
    )
    return DetectorErrorModel(D, K, columns)


# Variants unpacked at a time by the series reduction.
_SERIES_BLOCK = 4096


def expected_detection_series(
    circuit: Circuit,
    noise: NoiseModel,
    *,
    code: CssCode,
    basis: str = "Z",
    logicals: LogicalOperatorSet | None = None,
) -> np.ndarray:
    """Exact per-point detection probabilities of the aligned check type.

    Length t+1: the cycle comparisons z_1..z_t averaged over the aligned
    checks, then the final readout comparison. Faults within one slot
    are mutually exclusive draws and distinct slots are independent, so
    a detector covered with probability q_s by slot s fires with
    probability (1 - prod_s (1 - 2 q_s)) / 2, with no sampling error.
    The q_s are summed per (slot, detector) over the fault-effect
    table's rows (the same walk as build_dem), touching only the pairs
    that flip. Matches ShotBatch.cycle_series(basis) in the many-shot
    limit.
    """
    prog = _Program(code, circuit, basis, logicals, noise.idle_policy)
    t, A, D = prog.t, len(prog.aligned_cols), prog.detector_count
    rows, slot, prob = _fault_table(prog, noise, _signature_map(prog))
    if not len(rows):
        return np.zeros(t + 1)
    # (variant, detector) pairs that flip, in variant order
    v_parts, d_parts = [], []
    for lo in range(0, len(rows), _SERIES_BLOCK):
        v, d = np.nonzero(_unpack(rows[lo : lo + _SERIES_BLOCK], D))
        v_parts.append(v + lo)
        d_parts.append(d)
    v, d = np.concatenate(v_parts), np.concatenate(d_parts)
    # q_s per (slot, detector): bincount adds the priors in variant order
    keys, inverse = np.unique(slot[v] * D + d, return_inverse=True)
    q = np.bincount(inverse.reshape(-1), weights=prob[v], minlength=len(keys))
    # keys run slot-major, so a stable sort by detector keeps slot order
    order = np.argsort(keys % D, kind="stable")
    kd = keys[order] % D
    starts = np.flatnonzero(np.diff(kd, prepend=-1))
    # prod_s (1 - 2 q_s) per detector; multiply.reduceat runs in slot order
    survive = np.ones(D)
    survive[kd[starts]] = np.multiply.reduceat(1.0 - 2.0 * q[order], starts)
    p_odd = 0.5 * (1.0 - survive)
    body = p_odd[: t * A].reshape(t, A).mean(axis=1)
    return np.concatenate([body, [p_odd[t * A :].mean()]])


def dem_to_text(dem: DetectorErrorModel) -> str:
    lines = [f"detectors {dem.detector_count} logicals {dem.logical_count}"]
    for col in dem.columns:
        tokens = [repr(col.probability)]
        tokens += [str(i) for i in col.detectors]
        tokens.append("|")
        tokens += [str(i) for i in col.logicals]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def parse_dem(text: str) -> DetectorErrorModel:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty detector error model")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "detectors" or head[2] != "logicals":
        raise ValueError(f"bad header {lines[0]!r}")
    detector_count, logical_count = int(head[1]), int(head[3])
    columns = []
    for ln in lines[1:]:
        parts = ln.split()
        if "|" not in parts:
            raise ValueError(f"missing '|' separator in {ln!r}")
        sep = parts.index("|")
        columns.append(
            DemColumn(
                float(parts[0]),
                tuple(int(tk) for tk in parts[1:sep]),
                tuple(int(tk) for tk in parts[sep + 1 :]),
            )
        )
    return DetectorErrorModel(detector_count, logical_count, tuple(columns))
