"""Circuit-level Pauli noise: fault models, Monte Carlo, detector error models.

Everything here is differential: it tracks only deviations from the
ideal circuit. That is enough because every reported quantity (detection
events, final-readout comparisons, logical flips) is a fixed linear
functional of the injected Paulis that vanishes in the noiseless run.

Faults live in arrays. ``_Program``, the compiled noise program of one
(code, circuit, noise model, basis), reads the circuit through
``circuit.gate_table``, the one array form of a circuit, checked there
against the code and basis; it adds an idle mask, a row per fault slot,
the raw output that each measurement or readout gate records and the
model's channels. Each public entry point builds one, and
``_variants(prog)`` expands its slots by their channel's patterns.
``_output_map`` states, by scatter, what each raw output (a check
measurement or a data readout) flips, in one bit order: the DEM's
detectors, the logicals, then the other checks' detections.
``_fault_table`` gives any set of variants their outputs in that form
without simulating any of them. One walk over the layers, last to
first, carries for each qubit the outputs that an X or a Z injected
there would flip (the reverse pass of Stim's error analyser, Gidney
2021, Quantum 5, 497). Each variant's row is the XOR of two rows of the
walk's buffer, a leg's X, Y or Z row or the map row of the output it
flips, and one pair of gathers per layer writes that layer's variants.
``_fault_rows``, the one producer of table rows, walks the map's leading
bits that its caller reads: ``build_dem`` the detectors and logicals,
``expected_detection_series`` the detectors and the sampler all. The
DEM and the series combine the priors of independent slots by one rule
(``_odd_probability``): a DEM column or a detector flips when an odd
number of its slots fire. The sampler replays the table, each shot the
XOR of the rows of the variants that its draws pick, and keeps the
packed rows and each slot's first variant; a ``ShotBatch`` keeps the
shots as those packed rows, and its arrays unpack them, so
``_output_map`` alone states the bit order.
The walk and the sampler gather rows with ``ndarray.take(..., axis=0)``
(``np.take``'s wrapper costs as much as a small gather) and scatter
them as ``_cells``, one fixed-width ``np.void`` cell per row.
``enumerate_fault_variants`` returns the variant table as a ``FaultVariants`` view;
the first read of a record makes them all, once, each field a column with one
object per distinct value (``_shared``). ``_set_bits`` scans packed bytes flat,
and one ``np.lexsort`` groups equal packed rows (``_group_rows``) for the DEM.
A ``DetectorErrorModel`` is two arrays, float64 priors and the table's
packed rows as signatures; its constructor checks the array rules, and
``parse_dem``, the one reader of DEM text, the tokens and indices.

Noise channels and their fault slots (``_channel`` states each once,
and the variant table and the sampler's draws both expand it):

- ``H`` gates and idle slots draw one of X, Y, Z, each at a third of the
  slot rate; ``NoiseModel.idle_policy`` sets where idle slots live.
- ``CZ`` gates draw one of the fifteen nontrivial two-qubit Paulis, each
  at ``p_cz / 15``.
- ``DD`` slots flip X and Z independently: X alone, Z alone or both.
- Check measurement and final data readout flip the recorded outcome
  without touching the state.

Randomness is counter-based: every shot has a 64-bit key derived from
the master seed, and each draw mixes that key with a fixed stream
number, so results are independent of batch size and execution order.
The sampler does not draw once per (shot, slot): it skips to the next
fault with geometric gaps (as Stim's frame simulator does), so the
number of draws scales with the faults that fire. For the slot kind at
index i of ``_SLOT_KINDS``, with P the sum of its fault probabilities
and its m slots in counter order, each shot starts before the first
slot and runs rounds r = 0, 1, ...: the draw of stream (i, 2r + 1) gives
u in (0, 1], the shot skips the #{g in 1..m : S_g >= u} slots that stay
quiet and fires the next one, and once past the last slot it stops. A
fired slot takes the draw of stream (i, 2r + 2) to pick its fault, each
in proportion to its probability. The survival table S_g = (1 - P)^g is
a sequential product (``np.cumprod``). The draws of a block of rounds,
at most ``_DRAW_BLOCK`` = 2**13 (round, live shot) entries, are made at
once for all live shots (``_Channel.fires``): a logarithm guesses each
gap and the table settles it, so the draws are the same bits on every
platform, and at any block size. Numpy runs a per-column inner loop for
``cumsum`` along axis 0, a 2-D ``nonzero`` and ``.any`` over a short last
axis, so running sums down rounds are row adds, (round, shot) pairs come
from one flat nonzero, and reductions over packed words go word by word.
"""

from __future__ import annotations

import gc
import numbers
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import gf2
from .circuit import (
    CZ,
    GATE_NAMES,
    MEASURE_CHECKS,
    READOUT_DATA,
    SINGLE_QUBIT,
    Circuit,
    gate_table,
    qubit_layout,
)
from .codes import CssCode, LogicalOperatorSet, _as_int, logical_operator_set_for

__all__ = [
    "DEFAULT_MASTER_SEED", "derive_shot_seed", "IDLE_POLICIES", "NoiseModel", "FaultVariant",
    "FaultVariants", "enumerate_fault_variants", "ShotBatch", "run_monte_carlo",
    "DemColumn", "DetectorErrorModel", "build_dem", "expected_detection_series", "dem_to_text",
    "parse_dem",
]

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
    """run_monte_carlo's per-shot seed of a shot index in [0, 2**63)."""
    master_seed = _as_int("master_seed", master_seed)
    shot_index = _as_int("shot_index", shot_index)
    if not 0 <= shot_index < 2**63:
        raise ValueError(f"shot_index={shot_index} is not in [0, 2**63)")
    return int(_derive_keys(master_seed, shot_index, 1)[0])


def _derive_keys(master_seed: int, start: int, count: int) -> np.ndarray:
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64(np.uint64(master_seed % 2**64) + idx * _GOLDEN)


def _uniform(keys: np.ndarray, stream: int, draws: np.ndarray) -> np.ndarray:
    """Float64 in (0, 1]: draw ``draws`` of stream ``stream`` for each key;
    the keys and the array of draw numbers broadcast together."""
    # uint64 arrays wrap mod 2**64 without a numpy scalar overflow
    mix = (np.asarray(draws, dtype=np.uint64) | np.uint64(stream << 32)) * np.uint64(_STREAM)
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
        for name in ("p_h", "p_i", "p_cz", "p_m", "p_f", "p_dd_x", "p_dd_z", "suppression"):
            v = getattr(self, name)
            # a bool would read as a rate of 0 or 1
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise ValueError(f"{name}={v!r} is not a real number")
            high = np.inf if name == "suppression" else 1.0
            if not 0.0 <= v <= high or v == np.inf:  # nan fails every comparison
                raise ValueError(f"{name}={v} is not a finite number in [0, {high:g}]")
        if self.idle_policy not in IDLE_POLICIES:
            raise ValueError(f"idle_policy={self.idle_policy!r} not one of {IDLE_POLICIES}")

    def effective(self, base: float) -> float:
        return min(1.0, max(0.0, self.suppression * base))

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
            p_h=8.0e-4, p_i=3.5e-3, p_cz=9.8e-3, p_m=4.03e-2, p_f=3.29e-2, p_dd_x=1.09e-2,
            p_dd_z=1.59e-2, suppression=suppression, idle_policy=idle_policy,
        )


# ---------------------------------------------------------------------------
# fault slots and variants


class FaultVariant(NamedTuple):
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
_H, _IDLE, _CZ, _DD, _MEASURE, _READOUT = range(len(_SLOT_KINDS))
# the slot kind each gate of ``GATE_NAMES`` makes; "I" makes none
_GATE_SLOT = np.array([{"H": _H, "I": -1, "CZ": _CZ, "DD": _DD, "M": _MEASURE, "RD": _READOUT}[g]
                       for g in GATE_NAMES])


class _Program:
    """Compiled noise program: gate table, fault slots, channels, detector layout.

    ``table`` is the circuit's ``GateTable``; ``gate_flip[g]`` is the raw
    output that gate g records, else ``raw_bits``. Fault slots are int32
    arrays in counter (and layer) order: kind (an index into
    ``_SLOT_KINDS``), layer, legs (2 x slots; a one-qubit slot pads with
    ``qubit_count``) and flip (the raw output a measurement or readout
    slot flips, else ``raw_bits``). Gate slots are the gate table's rows
    (``I`` makes none); idle slots are the set cells of a (layer x qubit)
    mask read row-major, candidates minus the qubits an ``H`` or ``CZ``
    leg makes busy. One stable sort puts each layer's gate slots before
    its idle slots. ``channels[i]`` is the noise model's ``_Channel`` of
    slot kind i. Check columns hold the X checks, then the Z checks, so
    the memory-basis checks are the columns ``aligned`` = [lo, hi).
    """

    def __init__(self, code: CssCode, circuit: Circuit, basis: str, noise: NoiseModel,
                 logicals: LogicalOperatorSet | None = None):
        self.table = table = gate_table(circuit, code, basis)
        self.code, self.circuit, self.basis = code, circuit, basis
        self.n, self.t = code.n, circuit.cycles

        checks = [("X", r) for r in code.retained_x] + [("Z", r) for r in code.retained_z]
        self.check_labels = tuple(f"{k}{r}" for k, r in checks)
        self.check_count = len(checks)
        nx = len(code.retained_x)
        self.aligned = (nx, self.check_count) if basis == "Z" else (0, nx)
        self.aligned_cols = np.arange(*self.aligned)
        self.support = (code.retained_h_z() if basis == "Z" else code.retained_h_x()).bits
        self._logicals = logicals

        kinds, nq, n = table.kind, circuit.qubit_count, self.n
        layer = np.repeat(np.arange(len(kinds)), np.diff(table.start))
        kind = _GATE_SLOT[table.name]
        a, b = table.legs
        measured = kinds == MEASURE_CHECKS
        cycle = np.cumsum(measured) - measured  # measurement layers before each
        layout = qubit_layout(code)
        col_of = np.zeros(nq, dtype=np.intp)
        col_of[list(layout.check_qubits)] = np.arange(len(layout.check_qubits))
        m, r = kind == _MEASURE, kind == _READOUT
        self.gate_flip = flip = np.full(len(kind), self.raw_bits, dtype=np.int32)
        flip[m] = self.dm_bit(cycle[layer[m]], col_of[a[m]])
        flip[r] = self.rd_bit(a[r])

        # idle slots: candidates that no H or CZ leg makes busy; column nq
        # takes the padded legs
        idle = np.zeros((len(kinds), nq + 1), dtype=bool)
        idle[kinds == CZ, :nq] = True
        single = kinds == SINGLE_QUBIT
        h = kind == _H
        if noise.idle_policy == "dense":
            idle[single, :nq] = True
        elif noise.idle_policy == "frames":
            # ancilla basis rotation is a global step: un-gated data
            # qubits wait; interior data-only layers pack for free
            framed = np.zeros(len(kinds), dtype=bool)
            framed[layer[h & (a >= n)]] = True
            idle[single & framed, :n] = True
        gated = h | (kind == _CZ)
        idle[layer[gated], a[gated]] = False
        idle[layer[gated], b[gated]] = False
        idle_layer, idle_q = np.nonzero(idle[:, :nq])

        # slot rows (layer, kind, legs, flip): within each layer, the gate
        # slots and then the idle slots
        keep = kind >= 0
        idles = len(idle_q)
        rows = np.concatenate([
            np.stack([col[keep] for col in (layer, kind, a, b, flip)]),
            np.stack([idle_layer, np.full(idles, _IDLE), idle_q, np.full(idles, nq),
                      np.full(idles, self.raw_bits)]),
        ], axis=1)
        is_idle = np.arange(rows.shape[1]) >= np.count_nonzero(keep)
        rows = rows[:, np.argsort(2 * rows[0] + is_idle, kind="stable")].astype(np.int32)
        self.slot_layer, self.slot_kind, self.slot_flip = rows[0], rows[1], rows[4]
        self.slot_legs = rows[2:4]
        self.channels = [_channel(kind, noise) for kind in _SLOT_KINDS]

    @cached_property
    def logical_mat(self) -> np.ndarray:
        """Memory-basis logical operators, one row each, resolved on first
        use (enumerating faults needs none; ``compute_logicals`` can be
        costly). ValueError unless they act on the code's n qubits and each
        has even overlap with every retained check of the other type."""
        logicals = self._logicals
        if logicals is None:
            logicals = logical_operator_set_for(self.code)
        if logicals.n != self.n:
            raise ValueError(f"logicals act on {logicals.n} qubits, the code on {self.n}")
        Z = self.basis == "Z"
        mat = (logicals.z_matrix() if Z else logicals.x_matrix()).bits.astype(np.uint8)
        other = (self.code.retained_h_x() if Z else self.code.retained_h_z()).bits
        odd = np.argwhere(mat.astype(np.int64) @ other.T % 2)
        if len(odd):
            (i, j), labels = odd[0], [lab for lab in self.check_labels if lab[0] != self.basis]
            raise ValueError(f"{self.basis} logical {i} has odd overlap with check {labels[j]}")
        return mat

    @property
    def detector_count(self) -> int:
        return (self.t + 1) * len(self.aligned_cols)

    @property
    def output_bits(self) -> int:  # the width of ``_output_map``
        return self.t * self.check_count + len(self.aligned_cols) + len(self.logical_mat)

    # Raw outputs are the recorded outcomes that faults flip: check
    # measurement (c, j) is bit c * checks + j, data readout q is bit
    # t * checks + q. ``_output_map`` turns them into detector form.

    @property
    def raw_bits(self) -> int:
        return self.t * self.check_count + self.n

    def dm_bit(self, cycle, col):
        return cycle * self.check_count + col

    def rd_bit(self, q):
        return self.t * self.check_count + q


class _Pattern(NamedTuple):
    """One fault of a slot kind. Legs index the slot's qubits; ``flip``
    flips the outcome that the slot records."""

    probability: float
    x_legs: tuple[int, ...] = ()
    z_legs: tuple[int, ...] = ()
    flip: bool = False


# the most (live shot x round) entries that one block of skip draws holds;
# a block keeps about four arrays of this size live at once
_DRAW_BLOCK = 2**13


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
        docstring): (shot, slot, pattern) index arrays per round, whose
        shots are distinct, as a round fires at most one slot per shot.

        A block of at most m P + 1 rounds is drawn at once. Each gap is
        guessed as floor(log u / log(1 - P)) and settled against the
        survival table (``_count_below``), so it is the table's
        #{g : S_g >= u} whatever the logarithm returns. The slots hit are
        the gaps' running sums, one row add per round (not a ``cumsum`` down
        axis 0), and one flat nonzero (not a 2-D one) lists the live (round,
        shot) pairs, which draw their picks at once.
        """
        cum = np.cumsum([pat.probability for pat in self.patterns])
        q = max(0.0, 1.0 - cum[-1])
        # S_g for g = m..1, ascending, so the gap #{g : S_g >= u} is m
        # minus the count of entries below u
        survive = np.concatenate([[-np.inf], np.cumprod(np.full(m, q))[::-1], [np.inf]])
        log_q = np.log(q) if q > 0.0 else -np.inf  # at P = 1 every gap is 0
        # a pick is the count of cdf entries below u (the last is exactly
        # 1); lut[i] is that count at u = i / 1024, a guess from below
        cdf = np.concatenate([[-np.inf], cum / cum[-1], [np.inf]])
        lut = np.searchsorted(cdf[1:-1], np.arange(1025) / 1024)
        span = min(m + 1, int(np.ceil(m * cum[-1])) + 1)  # about a shot's rounds: m P + 1
        shot = np.arange(len(keys))
        pos = np.full(len(keys), -1, dtype=np.intp)
        first = 0  # the block's first round
        while len(shot):
            rounds = np.arange(first, first + min(span, max(1, _DRAW_BLOCK // len(shot))))
            u = _uniform(keys, self.stream, 2 * rounds[:, None] + 1)  # (round, shot)
            if q == 1.0:  # 1 - P rounds to 1: every shot skips all m slots
                below = np.zeros(u.shape, dtype=np.intp)
            else:
                below = m - np.minimum(np.log(u) / log_q, m).astype(np.intp)
            at = np.subtract(m + 1, _count_below(survive, u, below), out=below)
            at[0] += pos
            for r in range(1, len(rounds)):  # the running sum down the rounds
                at[r] += at[r - 1]
            live = at < m
            counts = np.count_nonzero(live, axis=1)
            flat = np.flatnonzero(live)  # live (round, shot) pairs, round-major
            col = flat - np.repeat(np.arange(0, live.size, len(shot)), counts)
            if len(cdf) == 3:
                pick = np.zeros(len(col), dtype=np.intp)
            else:
                u = _uniform(keys.take(col), self.stream, np.repeat(2 * rounds + 2, counts))
                pick = _count_below(cdf, u, lut[(u * 1024).astype(np.intp)])
            fired, hit = shot.take(col), at.take(flat)
            ends = np.cumsum(counts).tolist()
            for lo, hi in zip([0] + ends, ends):
                yield fired[lo:hi], hit[lo:hi], pick[lo:hi]
                if lo == hi:  # no shot left
                    return
            alive = np.flatnonzero(live[-1])
            shot, keys, pos = shot.take(alive), keys.take(alive), at[-1].take(alive)
            first = rounds[-1] + 1


def _count_below(table: np.ndarray, u: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``np.searchsorted(table[1:-1], u)`` from a guess: ``table`` ascends
    from -inf to inf, and each guessed count (updated in place) that
    misses steps until table[count] < u <= table[count + 1]."""
    c, uf = count.reshape(-1), u.reshape(-1)
    off = np.flatnonzero((table[c] >= uf) | (table[1:][c] < uf))
    while len(off):
        step = (table[1:][c[off]] < uf[off]).astype(np.intp)
        step -= table[c[off]] >= uf[off]
        c[off] += step
        off = off[step != 0]
    return count


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
    elif kind in ("measure", "readout"):
        p = noise.effective(noise.p_m if kind == "measure" else noise.p_f)
        pats = _uniform_patterns(p, [((), (), True)])
    else:  # pragma: no cover - slot kinds are closed
        raise AssertionError(kind)
    return _Channel(_SLOT_KINDS.index(kind), pats)


class _Variants(NamedTuple):
    """Single-fault variants as parallel arrays, in layer order. Variant
    v's table row is the XOR of the two rows ``buffer_rows[:, v]`` (int32)
    of ``_fault_table``'s walk buffer at the end of ``layer[v]``. With R =
    ``qubit_count + 1``, row b R + q of the buffer is qubit q's X, Z or Y
    row (b = 0, 1, 2; q = R - 1 is zero) and row 3 R + r raw output r's
    map row. An index names a leg's Pauli row, the pattern's legs first,
    in leg order, and I or an unused index the zero row R - 1; a
    measurement or readout fault names the map row of the output it
    flips, as no pattern has both a flip and a Pauli leg."""

    slot: np.ndarray
    layer: np.ndarray
    buffer_rows: np.ndarray  # (2, variants) int32
    probability: np.ndarray


def _variants(prog: _Program) -> _Variants:
    """Every nonzero-probability single-fault variant: the slots expanded
    by their channel's patterns, in slot order and then pattern order."""
    channels = [channel.patterns for channel in prog.channels]
    npat = np.array([len(pats) for pats in channels])
    width = npat.max()
    # at kind * width + pattern: the prior and the cells (below) of its two
    # buffer rows; 3 l + b is leg l's X, Z or Y row (b = 0, 1, 2), 6 the
    # zero row and 7 the map row of the slot's output
    prob = np.zeros(len(channels) * width)
    cell = np.full((2, len(prob)), 6, dtype=np.int32)
    for k, pats in enumerate(channels):
        for j, pat in enumerate(pats):
            on = [(leg, leg in pat.x_legs, leg in pat.z_legs) for leg in (0, 1)]
            picks = [3 * leg + x + 2 * z - 1 for leg, x, z in on if x or z] + [7] * pat.flip
            prob[k * width + j] = pat.probability
            cell[: len(picks), k * width + j] = picks
    count = npat.take(prog.slot_kind)
    slot = np.repeat(np.arange(len(count), dtype=np.int32), count)
    # variant v of slot s is pattern v - first[s] of the slot's kind
    first = np.cumsum(count) - count
    kp = np.repeat((prog.slot_kind * width - first).astype(np.int32), count)
    kp += np.arange(len(kp), dtype=np.int32)
    R = prog.circuit.qubit_count + 1
    cell_row = np.empty((8, len(count)), dtype=np.int32)  # cell c of slot s at c S + s
    blocks = R * np.arange(3, dtype=np.int32)[:, None]
    cell_row[:6] = (prog.slot_legs[:, None] + blocks).reshape(6, -1)
    cell_row[6], cell_row[7] = R - 1, 3 * R + prog.slot_flip
    rows = np.empty((2, len(slot)), dtype=np.int32)
    for out, pick in zip(rows, cell * len(count)):
        cell_row.take(pick.take(kp) + slot, out=out)
    return _Variants(slot, prog.slot_layer.take(slot), rows, prob.take(kp))


def _shared(values: np.ndarray, make) -> list:
    """``make(v)`` for each entry v of ``values``, computed once per
    distinct entry and shared by the entries that hold it: the made
    objects sit in a numpy object array, and one ``take`` of it lists them."""
    if values.dtype.kind == "f":
        keys, inverse = np.unique(values, return_inverse=True)
    else:  # small ints >= 0: mark the ones present and rank them, with no sort
        present = np.zeros(values.max(initial=0) + 1, dtype=bool)
        present[values] = True
        keys, inverse = np.flatnonzero(present), (np.cumsum(present) - 1)[values]
    objs = np.fromiter(map(make, keys.tolist()), dtype=object, count=len(keys))
    return objs.take(inverse).tolist()


class FaultVariants(Sequence):
    """A read-only view of one ``enumerate_fault_variants`` call's variant table, in slot
    order. ``len`` reads its slot column; the first record read makes every record, once."""

    def __init__(self, prog: _Program, var: _Variants):
        self._prog, self._var = prog, var

    def __len__(self) -> int:
        return len(self._var.slot)

    def __getitem__(self, index):
        return self._records[index]

    def __iter__(self):
        return iter(self._records)

    @cached_property
    def _records(self) -> tuple[FaultVariant, ...]:
        """Each field is one column over the whole table, one object per distinct value
        (an int, a kind string, a prior, a qubit tuple or a flipped output), and the records
        are zipped from the columns; cyclic GC is paused for both, as it finds no cycle."""
        prog, var = self._prog, self._var
        checks, tc, raw = prog.check_count, prog.t * prog.check_count, prog.raw_bits
        nq = prog.circuit.qubit_count
        R, (i0, i1) = nq + 1, var.buffer_rows
        m = 3 * R  # the buffer row of raw output 0; a flip is in i0
        # the qubit that each buffer row's X (Z) part acts on, else nq
        qs, pad = np.arange(R, dtype=np.int32), np.full(R, nq, dtype=np.int32)
        maps = np.full(raw + 1, nq, dtype=np.int32)
        x_of, z_of = np.concatenate([qs, pad, qs, maps]), np.concatenate([pad, qs, qs, maps])
        made: dict[tuple[int, ...], tuple[int, ...]] = {}

        def legs(k):  # a pair key's qubits, unused legs (nq) dropped, one tuple per value
            qubits = tuple(q for q in divmod(k, R) if q < nq)
            return made.setdefault(qubits, qubits)

        enabled = gc.isenabled()
        gc.disable()
        try:
            columns = (
                _shared(var.slot, int),
                _shared(var.layer, int),
                _shared(prog.slot_kind[var.slot], _SLOT_KINDS.__getitem__),
                _shared(var.probability, float),
                _shared(x_of.take(i0) * R + x_of.take(i1), legs),
                _shared(z_of.take(i0) * R + z_of.take(i1), legs),
                _shared(i0, lambda r: divmod(r - m, checks) if m <= r < m + tc else None),
                _shared(i0, lambda r: r - m - tc if m + tc <= r < m + raw else None),
            )
            # tuple.__new__ fills each record from its zipped row in C, without
            # the Python frame of FaultVariant.__new__; a row has every field
            return tuple(map(tuple.__new__, repeat(FaultVariant), zip(*columns)))
        finally:
            if enabled:
                gc.enable()


def enumerate_fault_variants(
    circuit: Circuit, noise: NoiseModel, *, code: CssCode
) -> FaultVariants:
    """Every nonzero-probability single-fault realization, in slot order (they do not
    depend on the memory basis), as a view that makes no record until one is read."""
    prog = _Program(code, circuit, circuit.basis or "Z", noise)
    return FaultVariants(prog, _variants(prog))


# ---------------------------------------------------------------------------
# fault-effect table (rows packed by ``gf2.pack_rows``)

def _set_bits(rows: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) of every set bit below ``count`` in packed rows, in
    row-major order: ``np.nonzero(gf2.unpack_rows(rows, count))`` without
    expanding each bit to a byte. One flat nonzero over a bool mask (numpy
    scans bools fastest) finds the nonzero bytes, one over ``np.unpackbits``
    of those bytes finds their set bits, and the bits at or past ``count``
    are dropped."""
    raw = np.ascontiguousarray(rows, dtype=gf2.WORD).view(np.uint8)
    byte = np.flatnonzero(raw != 0)
    i = np.flatnonzero(np.unpackbits(raw.reshape(-1)[byte], bitorder="little").view(bool))
    r, bit = np.divmod(byte[i >> 3] * 8 + (i & 7), raw.shape[1] * 8)
    keep = bit < count
    return r[keep], bit[keep]


def _output_map(prog: _Program) -> np.ndarray:
    """Row r: what raw output r alone flips, packed by ``gf2.pack_rows``,
    in the bit order of the DEM's signatures and of ``ShotBatch.rows``.
    With A memory-basis and O other checks, D = (t + 1) A and K logicals:

    - bits [0, D), the DEM's detectors: the memory-basis checks'
      detections cycle-major (c A + a: cycle c + 1, check a), then their
      final comparisons (t A + a);
    - bits [D, D + K): the memory-basis logicals;
    - the rest: the other checks' detections, cycle-major (c O + o).

    The last row is zero, for variants that flip no output. The detectors
    are the paper's, z_1 = m_1, z_2 = m_2, z_j = m_j xor m_(j-2) and, with
    the readout-derived stabilizer values y_F, z_F = y_F xor m_t xor
    m_(t-1) (no m_(t-1) at t = 1); linear over GF(2), so a fault's outputs
    are the XOR of the rows of the raw outputs that it flips.
    """
    t, checks, (lo, hi) = prog.t, prog.check_count, prog.aligned
    A, D, logical = hi - lo, prog.detector_count, prog.logical_mat
    K, col = len(logical), np.arange(checks)
    # det[c, j]: the bit of check column j's detection in cycle c + 1
    c = np.arange(t)[:, None]
    other = D + K + c * (checks - A) + np.where(col < lo, col, col - A)
    det = np.where((lo <= col) & (col < hi), c * A + col - lo, other)
    out = np.zeros((prog.raw_bits + 1, prog.output_bits), dtype=np.uint8)
    dm = prog.dm_bit(c, col)
    out[dm, det] = 1
    out[dm[:-2], det[2:]] = 1
    for cycle in range(max(0, t - 2), t):
        out[prog.dm_bit(cycle, prog.aligned_cols), t * A + np.arange(A)] = 1
    readout = prog.rd_bit(np.arange(prog.n))
    out[readout, t * A : D] = prog.support.T
    out[readout, D : D + K] = logical.T
    return gf2.pack_rows(out)


def _cells(rows: np.ndarray) -> np.ndarray:
    """C-contiguous 2-D ``rows`` as a 1-D view, one fixed-width ``np.void``
    cell per row, so a fancy assignment copies whole rows, not words."""
    return rows.view(np.dtype((np.void, rows.strides[0]))).reshape(-1)


def _fault_table(prog: _Program, var: _Variants, out_map: np.ndarray) -> np.ndarray:
    """Row v packs the outputs (in the basis of ``out_map``) that variant
    v of ``var`` flips on its own.

    One walk over the layers, last to first, carries a buffer: rows sx,
    sz and sy, ``qubit_count + 1`` each, then the ``out_map`` rows. Row q
    of sx (sz) holds the outputs flipped by an X (a Z) on qubit q
    injected right after the current layer's gate, as the XOR of the
    ``out_map`` rows of the raw outputs it flips; row ``qubit_count``
    stays zero. At a layer with variants sy is refreshed to sx ^ sz, and
    each variant's row is the XOR of its two buffer rows
    (``_Variants.buffer_rows``). ``var`` runs in layer order, so that is
    two gathers per layer; the walk stops at the lowest layer with a
    variant. Rows are gathered with ``take`` and written back as ``_cells``.
    """
    table, nq = prog.table, prog.circuit.qubit_count
    rows = np.empty((len(var.slot), out_map.shape[1]), out_map.dtype)
    if not out_map.shape[1]:  # rows of no words hold no output to walk
        return rows
    kinds, start = table.kind.tolist(), table.start.tolist()
    a_leg, b_leg = table.legs
    # the qubit an H swaps X and Z on; any other gate swaps the zero row
    h_leg = np.where(table.name == GATE_NAMES.index("H"), a_leg, nq)
    bounds = np.searchsorted(var.layer, np.arange(len(kinds) + 1))
    buf = np.zeros((3 * (nq + 1) + len(out_map), out_map.shape[1]), out_map.dtype)
    buf[3 * (nq + 1) :] = out_map
    sx, sz, sy = np.split(buf[: 3 * (nq + 1)], 3)
    cx, cz = _cells(sx), _cells(sz)
    for li in range(len(kinds) - 1, -1, -1):
        lo, hi = bounds[li], bounds[li + 1]
        if lo < hi:
            np.bitwise_xor(sx, sz, out=sy)
            i0, i1 = var.buffer_rows[:, lo:hi]
            np.bitwise_xor(buf.take(i0, axis=0), buf.take(i1, axis=0), out=rows[lo:hi])
        if lo == 0:
            break
        gates = slice(start[li], start[li + 1])
        kind = kinds[li]
        if kind == SINGLE_QUBIT:
            qs = h_leg[gates]
            cx[qs], cz[qs] = cz[qs], cx[qs]
        elif kind == CZ:
            # X_a before the gate is X_a Z_b after it; Z passes through
            a, b = a_leg[gates], b_leg[gates]
            cx[a] = _cells(sx.take(a, axis=0) ^ sz.take(b, axis=0))
            cx[b] = _cells(sx.take(b, axis=0) ^ sz.take(a, axis=0))
        elif kind in (MEASURE_CHECKS, READOUT_DATA):
            # the outcome reads X on the qubit, which persists; Z before a
            # Z measurement is lost
            a = a_leg[gates]
            cx[a] = _cells(sx.take(a, axis=0) ^ out_map.take(prog.gate_flip[gates], axis=0))
            sz[a] = 0
        # DD_IDLE applies no gate
    return rows


def _fault_rows(prog: _Program, bits: int) -> tuple[_Variants, np.ndarray]:
    """(``_variants(prog)``, their ``_fault_table`` rows on the first
    ``bits`` bits of ``_output_map``): the walk reads ceil(bits / 64)
    words of the map, with the bits at or past ``bits`` cleared."""
    out_map = _output_map(prog)[:, : -(-bits // 64)].copy()
    if bits % 64:
        out_map[:, -1] &= np.uint64((1 << bits % 64) - 1)
    var = _variants(prog)
    return var, _fault_table(prog, var, out_map)


# ---------------------------------------------------------------------------
# sampler


def _fired(prog: _Program, first: np.ndarray, keys: np.ndarray):
    """Yields (shot, variant) index arrays of the variants that the draws
    of each slot kind (``_Channel.fires``) fire for the shot keys, one
    pair per round; ``first[s]`` is slot s's first variant."""
    for channel in prog.channels:
        base = first[prog.slot_kind == channel.stream]  # the kind's slots, counter order
        if channel.patterns and len(base):
            for shot, pos, pick in channel.fires(keys, len(base)):
                yield shot, base[pos] + pick


def _sampler(prog: _Program):
    """A function from shot keys (one uint64 each) to the shots' outputs,
    packed rows in the bit order of ``_output_map``: each shot is the XOR
    of the table rows of the variants that its draws fire, gathered with
    ``take`` and scattered as ``_cells``. It keeps only the rows, each
    slot's first variant and the program."""
    var, rows = _fault_rows(prog, prog.output_bits)
    first = np.searchsorted(var.slot, np.arange(len(prog.slot_kind)))

    def sample(keys: np.ndarray) -> np.ndarray:
        acc = np.zeros((len(keys), rows.shape[1]), dtype=rows.dtype)
        cells = _cells(acc)
        for shot, v in _fired(prog, first, keys):
            cells[shot] = _cells(acc.take(shot, axis=0) ^ rows.take(v, axis=0))
        return acc

    return sample


# ---------------------------------------------------------------------------
# shot batches


@dataclass(frozen=True, eq=False)
class ShotBatch:
    """Sampled shots as packed rows, plus the check-column layout.

    Row s of ``rows`` is shot s, packed by ``gf2.pack_rows`` in the bit
    order that ``_output_map`` states, so its leading D + K bits are laid
    out as a DEM signature. Bits are deviations from the noiseless run, in
    which every detector is zero; the arrays below unpack them on each
    read. The constructor keeps a read-only copy of ``rows`` and names the
    first rule that a field breaks.
    """

    basis: str
    cycles: int
    check_labels: tuple[str, ...]  # the X checks, then the Z checks
    logical_count: int
    rows: np.ndarray

    def __post_init__(self):
        if self.basis not in ("Z", "X"):
            raise ValueError(f"basis={self.basis!r} is not Z or X")
        kinds = [lab[:1] if isinstance(lab, str) else "?" for lab in self.check_labels]
        if kinds != sorted(kinds) or not {"X", "Z"}.issuperset(kinds):
            raise ValueError(f"check_labels={self.check_labels!r} are not X checks, then Z checks")
        for name, low in (("cycles", 1), ("logical_count", 0)):
            if _as_int(name, getattr(self, name)) < low:
                raise ValueError(f"{name}={getattr(self, name)} is not >= {low}")
        rows, width = np.array(self.rows), self._layout()[2]
        if rows.dtype != gf2.WORD or rows.ndim != 2 or rows.shape[1] != -(-width // 64):
            raise ValueError(f"need 2-D {gf2.WORD} rows of ceil({width} / 64) words, got "
                             f"{rows.dtype} {rows.shape}")
        if _rows_differ(rows[:, -1:] >> np.uint64((width - 1) % 64 + 1), 0).any():
            raise ValueError(f"a row has a bit at or past the width {width}")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def aligned_columns(self) -> tuple[int, ...]:
        """The memory-basis check columns: the basis' run of ``check_labels``."""
        return tuple(i for i, lab in enumerate(self.check_labels) if lab[0] == self.basis)

    def _layout(self) -> tuple[int, int, int]:
        """(A, D, W): memory-basis checks, detectors, cycles x checks + A + K bits."""
        A = len(self.aligned_columns)
        t, K = self.cycles, self.logical_count
        return A, (t + 1) * A, t * len(self.check_labels) + A + K

    @property
    def shots(self) -> int:
        return len(self.rows)

    def detector_matrix(self) -> np.ndarray:
        """(shots, D): each row's leading bits, the DEM's detectors."""
        return gf2.unpack_rows(self.rows, self._layout()[1])

    @property
    def final_syndrome(self) -> np.ndarray:
        """(shots, A): the memory-basis checks' final readout comparisons."""
        A, D, _ = self._layout()
        return gf2.unpack_rows(self.rows, D + self.logical_count)[:, D - A : D]

    @property
    def logical_flips(self) -> np.ndarray:
        """(shots, K): the memory-basis logicals' flips, readout errors included."""
        D = self._layout()[1]
        return gf2.unpack_rows(self.rows, D + self.logical_count)[:, D:]

    @property
    def detections(self) -> np.ndarray:
        """(shots, cycles, checks): check column j's detection in cycle c + 1;
        the one place outside ``_output_map`` that puts the memory-basis
        run and the other checks' run in column order."""
        (A, D, width), shape = self._layout(), (self.shots, self.cycles)
        bits = gf2.unpack_rows(self.rows, width)
        runs = [bits[:, : self.cycles * A].reshape(*shape, A),
                bits[:, D + self.logical_count :].reshape(*shape, len(self.check_labels) - A)]
        return np.concatenate(runs if self.basis == "X" else runs[::-1], axis=2)

    def cycle_series(self, kind: str) -> np.ndarray:
        """Mean detection fraction per detection point for one check type.

        For the memory-basis type the series has cycles+1 points (the
        last one is the final readout comparison). For the opposite type
        the first in-circuit point is omitted, because its reference
        value is randomized by the first measurement; cycles-1 points
        remain. Each bit of the type's run is summed over the shots once,
        as an exact int.
        """
        count = sum(lab[0] == kind for lab in self.check_labels)
        if not count:
            raise ValueError(f"no {kind}-type checks in this batch")
        _, D, width = self._layout()
        aligned = kind == self.basis
        lo, hi = (0, D) if aligned else (D + self.logical_count, width)
        fired = gf2.unpack_rows(self.rows, hi)[:, lo:].sum(axis=0, dtype=np.int64)
        return fired.reshape(-1, count)[0 if aligned else 1 :].sum(axis=1) / (self.shots * count)


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
    table of the call's compiled program.

    Shot i uses the key derive_shot_seed(master_seed, i), and its draws
    depend only on that key, so the batch partition cannot change any
    outcome. Draws follow the geometric skip of the module docstring:
    per slot kind, about one pair per fault that fires, not one per
    (shot, slot).
    """
    shots, batch_size = _as_int("shots", shots), _as_int("batch_size", batch_size)
    master_seed = _as_int("master_seed", master_seed)
    if shots < 1 or batch_size < 1:
        raise ValueError("shots and batch_size must be >= 1")
    prog = _Program(code, circuit, basis, noise, logicals)
    sample = _sampler(prog)
    rows = np.empty((shots, -(-prog.output_bits // 64)), dtype=gf2.WORD)
    for start in range(0, shots, batch_size):
        count = min(batch_size, shots - start)
        rows[start : start + count] = sample(_derive_keys(master_seed, start, count))
    return ShotBatch(basis, prog.t, prog.check_labels, len(prog.logical_mat), rows)


# ---------------------------------------------------------------------------
# detector error model


class DemColumn(NamedTuple):
    """One merged fault mechanism, as ``DetectorErrorModel.columns`` reads it."""

    probability: float
    detectors: tuple[int, ...]
    logicals: tuple[int, ...]


class _ColumnError(ValueError):
    """A rule that ``column`` breaks; ``parse_dem`` names its line and
    ``build_dem`` its first variant."""

    def __init__(self, column: int, rule: str):
        super().__init__(f"column {column}: {rule}")
        self.column, self.rule = column, rule


@dataclass(frozen=True, eq=False)
class DetectorErrorModel:
    """Merged single-fault signatures for one memory basis, as two arrays.

    Column j has the prior ``probabilities[j]`` and the signature
    ``signatures[j]``, a ``gf2.pack_rows`` row in which bit d is detector
    d and bit D + i is logical i (D detectors, K logicals), in the bit
    order that ``_output_map`` states.

    The constructor checks the arrays, keeps read-only copies and names
    the first column that breaks a rule: counts are ints >= 0, priors a
    float64 vector in (0, 1), signatures ``gf2.WORD`` rows of ceil((D + K)
    / 64) words, one per prior, distinct (one ``_group_rows`` sort finds
    a repeat), none with a bit past D + K.
    """

    detector_count: int
    logical_count: int
    probabilities: np.ndarray
    signatures: np.ndarray

    def __post_init__(self):
        D, K = (_as_int(name, getattr(self, name)) for name in ("detector_count", "logical_count"))
        if D < 0 or K < 0:
            raise ValueError(f"detector and logical counts must be >= 0, got {D}, {K}")
        p, s = np.array(self.probabilities), np.array(self.signatures)
        shape = (len(p), -(-(D + K) // 64)) if p.ndim == 1 else None
        if p.dtype != np.float64 or s.dtype != gf2.WORD or s.shape != shape:
            raise ValueError(f"need float64 priors and {gf2.WORD} signatures {shape}, got "
                             f"{p.dtype} {p.shape} and {s.dtype} {s.shape}")
        for name, array in (("probabilities", p), ("signatures", s)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        order, new = _group_rows(s)
        repeat = np.zeros(len(s), dtype=bool)
        repeat[order] = ~new  # a column whose signature an earlier column has
        # the last word's bits from D + K on (a shift by 64 gives 0)
        past = _rows_differ(s[:, -1:] >> np.uint64((D + K - 1) % 64 + 1), 0)
        bad = np.stack([~((0.0 < p) & (p < 1.0)), past, repeat])
        if bad.any():
            j = int(bad.any(axis=0).argmax())
            rules = (f"probability {p[j]} outside (0,1)", f"a bit at or past D + K = {D + K}",
                     f"duplicate column signature {self.columns[j][1:]}")
            raise _ColumnError(j, rules[bad[:, j].argmax()])

    def _supports(self) -> tuple[list[int], list[tuple[float, int, int, int]]]:
        """(indices, spans) from one nonzero over the signatures: spans[j] is
        (prior, lo, mid, hi), column j's detectors indices[lo:mid], logicals indices[mid:hi]."""
        D = self.detector_count
        r, c = _set_bits(self.signatures, D + self.logical_count)
        # key 2j holds column j's detector bits, 2j + 1 its logical bits
        cuts = np.searchsorted(2 * r + (c >= D), range(2 * len(self.probabilities) + 1)).tolist()
        spans = zip(self.probabilities.tolist(), cuts[::2], cuts[1::2], cuts[2::2])
        return np.where(c < D, c, c - D).tolist(), list(spans)

    @cached_property
    def columns(self) -> tuple[DemColumn, ...]:
        """The columns as ``DemColumn``s."""
        indices, spans = self._supports()
        return tuple(DemColumn(p, tuple(indices[lo:mid]), tuple(indices[mid:hi]))
                     for p, lo, mid, hi in spans)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectorErrorModel):
            return NotImplemented
        return all(map(np.array_equal, astuple(self), astuple(other)))

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(detector matrix D x N, logical matrix K x N, priors N): one unpack."""
        D = self.detector_count
        bits = gf2.unpack_rows(self.signatures, D + self.logical_count).T
        return bits[:D].copy(), bits[D:].copy(), self.probabilities.copy()

    def collisions(self) -> list[tuple[int, ...]]:
        """Groups of columns with equal detectors (so unequal logicals), in
        detector order, and an undetectable column that flips a logical."""
        by_sig: dict[tuple[int, ...], list[int]] = {}
        for j, col in enumerate(self.columns):
            by_sig.setdefault(col.detectors, []).append(j)
        return [tuple(js) for sig, js in sorted(by_sig.items())
                if len(js) > 1 or not sig and self.columns[js[0]].logicals]


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, new): a stable ``np.lexsort`` order of packed rows, equal rows
    together in row order, and whether each differs from the one before it."""
    order = np.lexsort(rows.T) if rows.shape[1] else np.arange(len(rows))  # no words: all equal
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = _rows_differ(ranked[1:], ranked[:-1])
    return order, new


def _rows_differ(a: np.ndarray, b) -> np.ndarray:
    """``(a != b).any(axis=1)`` for packed rows ``a`` and rows or a word ``b``,
    word by word (the module docstring says why); rows of no words are equal."""
    out = np.zeros(len(a), dtype=bool)
    for x, y in zip(a.T, np.broadcast_to(b, a.shape).T):
        out |= x != y
    return out


def _odd_probability(key, slot, prior, count: int) -> np.ndarray:
    """For each key in range(count), the probability that an odd number
    of the independent slots listed for it fire (0 if none is). Entries
    (key, slot, prior) come sorted by key, in variant order within a key.

    A slot's faults are exclusive draws, so slot s flips key k with q_s,
    the sum of its priors there in variant order; slots are independent,
    so k flips with probability (1 - prod_s (1 - 2 q_s)) / 2, the product
    in slot order: Stim's XOR rule p (1 - q) + q (1 - p), slot by slot.
    """
    new = np.ones(len(key), dtype=bool)
    new[1:] = (key[1:] != key[:-1]) | (slot[1:] != slot[:-1])
    q = np.bincount(np.cumsum(new) - 1, weights=prior)
    keys = key[new]  # the key of each slot's sum
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    out = np.zeros(count)
    out[keys[starts]] = 0.5 * (1.0 - np.multiply.reduceat(1.0 - 2.0 * q, starts))
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

    The table's rows are the variants' packed (detector, logical)
    signatures, found without simulating any. The DEM keeps each distinct
    nonzero row as a signature, in the order it first occurs, with the
    prior that an odd number of the independent slots with it fire
    (``_odd_probability``), in (0, 1) unless each of those slots flips it
    surely. The constructor checks both arrays; the ValueError for a
    column it rejects adds the slot kind, layer and prior of the column's
    first variant. A code with no checks of the basis' type has D = 0, and
    its columns flip logicals alone (none when K = 0). Cost: one backward
    walk, O(layers x qubits x outputs / 64) word operations, one lookup
    per variant and one sort of the packed signatures.
    """
    prog = _Program(code, circuit, basis, noise, logicals)
    D, K = prog.detector_count, prog.logical_mat.shape[0]
    var, rows = _fault_rows(prog, D + K)
    seen = _rows_differ(rows, 0)  # the nonzero rows
    rows, slot, prob = rows[seen], var.slot[seen], var.probability[seen]
    order, new = _group_rows(rows)
    first = order[new]
    prior = _odd_probability(np.cumsum(new) - 1, slot[order], prob[order], len(first))
    by_first = np.argsort(first)
    first = first[by_first]
    try:
        return DetectorErrorModel(D, K, prior[by_first], rows[first])
    except _ColumnError as exc:
        v = first[exc.column]
        s = slot[v]
        raise ValueError(f"{exc}; its first fault is a {_SLOT_KINDS[prog.slot_kind[s]]} slot at "
                         f"layer {prog.slot_layer[s]} with prior {prob[v]}") from None


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
    checks, then the final readout comparison. A detector fires when an
    odd number of the independent slots flipping it fire
    (``_odd_probability``, the rule that merges DEM columns), so there is
    no sampling error. Matches ShotBatch.cycle_series(basis) in the
    many-shot limit. ``logicals`` is unused: the series reads no logical.
    ValueError if the code has no checks of the basis' type.
    """
    # no logical rows: the table holds the detectors alone
    prog = _Program(code, circuit, basis, noise, LogicalOperatorSet(code.n, (), ()))
    A, D = len(prog.aligned_cols), prog.detector_count
    if not A:
        raise ValueError(f"no {basis}-type checks in code {code.name}")
    var, rows = _fault_rows(prog, D)
    # (variant, detector) pairs that flip, by detector and then variant; a
    # stable sort on the smallest dtype that holds D is numpy's radix sort
    v, d = _set_bits(rows, D)
    order = np.argsort(d.astype(np.min_scalar_type(D)), kind="stable")
    v = v[order]
    p_odd = _odd_probability(d[order], var.slot[v], var.probability[v], D)
    return p_odd.reshape(prog.t + 1, A).mean(axis=1)


def dem_to_text(dem: DetectorErrorModel) -> str:
    indices, spans = dem._supports()
    words = list(map(str, indices))
    lines = [f"detectors {dem.detector_count} logicals {dem.logical_count}"]
    lines += [" ".join([repr(p), *words[lo:mid], "|", *words[mid:hi]]) for p, lo, mid, hi in spans]
    return "\n".join(lines) + "\n"


def parse_dem(text: str) -> DetectorErrorModel:
    """The DEM of ``dem_to_text``'s text. The line loop checks each line's float
    prior and ``|``, one array pass every index token (ASCII decimal, strictly
    increasing, detectors in [0, D), logicals in [0, K)), the constructor the
    rest, on the lines above the first bad one: errors name the first."""
    lines = [(no, parts) for no, parts in enumerate(map(str.split, text.splitlines()), 1) if parts]
    if not lines:
        raise ValueError("empty detector error model")
    (no, head), *body = lines
    decimal = len(head) == 4 and all(c.isascii() and c.isdecimal() for c in head[1::2])
    if not decimal or head[::2] != ["detectors", "logicals"]:
        raise ValueError(f"line {no}: bad header {' '.join(head)!r}; counts must be ASCII decimal")
    D, K = int(head[1]), int(head[3])
    priors, groups, fault = [], [], None  # groups 2j and 2j + 1: line j's detectors, logicals
    for no, parts in body:
        try:
            sep = parts.index("|")  # or ValueError: '|' is not in list
            priors.append(float(parts[0]))
        except ValueError as exc:
            fault = ValueError(f"line {no}: {exc}")
            break
        groups += parts[1:sep], parts[sep + 1 :]
    group = np.repeat(np.arange(len(groups)), list(map(len, groups)))
    # a token that is not ASCII decimal reads -1 (int and float read other
    # digits); a float is exact below 2**53 and keeps any larger token out of range
    value = np.array([t if t.isdecimal() and t.isascii() else "-1" for t in chain(*groups)], float)
    bad = (value < 0) | (value >= np.where(group % 2, K, D))
    bad[1:] |= (group[1:] == group[:-1]) & (value[1:] <= value[:-1])
    rows = len(priors)
    if bad.any():  # on a line above any token fault, which ends the loop
        g = int(group[bad.argmax()])
        rows, what, count = g // 2, ("detector", "logical")[g % 2], (D, K)[g % 2]
        fault = ValueError(f"line {body[rows][0]}: {what} indices {groups[g]}: "
                           f"need strictly increasing ints in [0, {count})")
    keep = group < 2 * rows
    bit = (value[keep] + D * (group[keep] % 2)).astype(gf2.WORD)
    signatures = np.zeros((rows, -(-(D + K) // 64)), dtype=gf2.WORD)
    np.bitwise_or.at(signatures, (group[keep] // 2, bit // 64), np.uint64(1) << bit % 64)
    try:
        dem = DetectorErrorModel(D, K, np.array(priors[:rows], dtype=float), signatures)
    except _ColumnError as exc:
        raise ValueError(f"line {body[exc.column][0]}: {exc.rule}") from None
    if fault is not None:
        raise fault
    return dem
