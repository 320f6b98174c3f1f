"""Noise engine: fault-effect table, sampler and detector error models."""

import copy
import gc
import os
import random
import sys
import threading
from collections.abc import Sequence
from dataclasses import replace
from itertools import chain, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbqec.dem
from bbqec import gf2, noise
from bbqec.circuit import (
    CZ,
    DD_IDLE,
    MEASURE_CHECKS,
    READOUT_DATA,
    SINGLE_QUBIT,
    GATE_NAMES,
    Circuit,
    GateLayer,
    build_syndrome_circuit,
    verify_circuit,
)
from bbqec.codes import (
    CssCode,
    LogicalOperatorSet,
    build_named_code,
    logical_operator_set_for,
    verify_logicals,
)
from bbqec.dem import DemColumn, DetectorErrorModel
from bbqec.noise import NoiseModel
from bbqec.tableau import StabilizerTableau

NOISE = NoiseModel.device_rates()


# ---- fault-effect table against the stabilizer tableau ----


def _tableau_run(circ, fault, coin_seed):
    """Outcomes of one noiseless tableau run, with ``fault`` (if any)
    injected after its layer. Returns (per-cycle {ancilla: outcome},
    {data qubit: readout})."""
    rng = random.Random(coin_seed)
    tab = StabilizerTableau(circ.qubit_count, coin=lambda: rng.getrandbits(1))
    cycles, readout = [], {}
    for li, layer in enumerate(circ.layers):
        if layer.kind == SINGLE_QUBIT:
            for name, (q,) in layer.gates:
                if name == "H":
                    tab.h(q)
        elif layer.kind == CZ:
            for _, (a, b) in layer.gates:
                tab.cz(a, b)
        elif layer.kind == MEASURE_CHECKS:
            cycles.append({q: tab.measure(q)[0] for _, (q,) in layer.gates})
        elif layer.kind == READOUT_DATA:
            for _, (q,) in layer.gates:
                readout[q] = tab.measure(q)[0]
        if fault is not None and li == fault.layer:
            for q in fault.x_qubits:
                tab.pauli_x(q)
            for q in fault.z_qubits:
                tab.pauli_z(q)
    return cycles, readout


def _memory_outputs(code, logicals, basis, cycles, readout, fault):
    """Memory-basis detectors (t x aligned), final comparisons and
    logical readouts, from recorded outcomes, by the paper's detector
    definition: z_c = m_c xor m_{c-2}, z_F = y_F xor m_t xor m_{t-1}."""
    # check column j is measured on qubit n + j
    if fault is not None and fault.measurement_flip is not None:
        cyc, col = fault.measurement_flip
        cycles[cyc][code.n + col] ^= 1
    if fault is not None and fault.readout_flip is not None:
        readout[fault.readout_flip] ^= 1
    aligned = [code.n + j for j, (kind, _) in enumerate(code.checks) if kind == basis]
    if basis == "Z":
        support = code.retained_h_z()
        logical = logicals.z_matrix()
    else:
        support = code.retained_h_x()
        logical = logicals.x_matrix()
    t = len(cycles)
    m = np.array([[cycles[c][q] for q in aligned] for c in range(t)], dtype=np.uint8)
    det = m.copy()
    det[2:] ^= m[:-2]
    rd = np.array([readout[q] for q in range(code.n)], dtype=np.uint8)
    final = (support.astype(int) @ rd) % 2 ^ m[-1]
    if t >= 2:
        final ^= m[-2]
    return det, final.astype(np.uint8), ((logical.astype(int) @ rd) % 2).astype(np.uint8)


def _table_outputs(code, circ, basis, logicals, picked):
    """The picked variants' rows of the fault-effect table that the
    sampler reads, as the arrays of a ``ShotBatch`` that holds them:
    detections (t x checks), final comparisons and logical flips."""
    prog = noise._Program(code, circ, basis, NOISE)
    logical = prog.logical_mat(logicals)
    rows = noise._fault_table(prog, prog.variants, noise._output_map(prog, logical))
    batch = noise.ShotBatch(basis, prog.t, prog.check_labels, len(logical), rows[picked])
    return batch.detections, batch.final_syndrome, batch.logical_flips


@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3"])
@pytest.mark.parametrize("basis", ["Z", "X"])
def test_forced_faults_match_tableau_replay(cid, basis):
    code = build_named_code(cid)
    logicals = logical_operator_set_for(code)
    circ = build_syndrome_circuit(code, 3, basis=basis)
    variants = noise.enumerate_fault_variants(circ, NOISE, code=code)
    rng = np.random.default_rng(7)
    # a few variants of every slot kind, so no kind goes unchecked
    picked = []
    for kind in ("h", "idle", "cz", "dd", "measure", "readout"):
        of_kind = [i for i, v in enumerate(variants) if v.kind == kind]
        assert of_kind, kind
        picked += [of_kind[i] for i in rng.choice(len(of_kind), 3, replace=False)]
    det, final, flips = _table_outputs(code, circ, basis, logicals, picked)
    coin_seed = 11
    clean = _memory_outputs(code, logicals, basis, *_tableau_run(circ, None, coin_seed), None)
    assert not any(a.any() for a in clean[:2]), "noiseless detectors fire"
    aligned_cols = [j for j, (kind, _) in enumerate(code.checks) if kind == basis]
    for i, v in enumerate(variants[j] for j in picked):
        faulty = _memory_outputs(
            code, logicals, basis, *_tableau_run(circ, v, coin_seed), v
        )
        assert np.array_equal(faulty[0] ^ clean[0], det[i][:, aligned_cols]), v
        assert np.array_equal(faulty[1] ^ clean[1], final[i]), v
        assert np.array_equal(faulty[2] ^ clean[2], flips[i]), v


def _forward_raw_outputs(code, circ, variants):
    """Raw outputs flipped by each variant alone, by forward Pauli-frame
    propagation: one X and one Z frame row per variant, pushed through
    the layers first to last, with each variant injected right after its
    layer. Columns: measurement (cycle, check column) at cycle * checks +
    column, then the data readouts."""
    checks, nv = len(code.checks), len(variants)
    fx = np.zeros((nv, circ.qubit_count), dtype=np.uint8)
    fz = np.zeros_like(fx)
    raw = np.zeros((nv, circ.cycles * checks + code.n), dtype=np.uint8)
    inject = {}  # layer -> [(variant, frame, qubit)]
    for i, v in enumerate(variants):
        if v.measurement_flip is not None:
            cyc, col = v.measurement_flip
            raw[i, cyc * checks + col] ^= 1
        if v.readout_flip is not None:
            raw[i, circ.cycles * checks + v.readout_flip] ^= 1
        inject.setdefault(v.layer, []).extend(
            [(i, fx, q) for q in v.x_qubits] + [(i, fz, q) for q in v.z_qubits]
        )
    cycle = 0
    for li, layer in enumerate(circ.layers):
        if layer.kind == SINGLE_QUBIT:
            for name, (q,) in layer.gates:
                if name == "H":  # swaps X and Z
                    fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
        elif layer.kind == CZ:
            for _, (a, b) in layer.gates:  # X_a -> X_a Z_b, X_b -> Z_a X_b
                fz[:, a] ^= fx[:, b]
                fz[:, b] ^= fx[:, a]
        elif layer.kind == MEASURE_CHECKS:
            for _, (q,) in layer.gates:  # X flips the outcome and stays
                raw[:, cycle * checks + q - code.n] ^= fx[:, q]  # column j on qubit n + j
                fz[:, q] = 0
            cycle += 1
        elif layer.kind == READOUT_DATA:
            for _, (q,) in layer.gates:  # as a check measurement
                raw[:, circ.cycles * checks + q] ^= fx[:, q]
                fz[:, q] = 0
        for i, frame, q in inject.get(li, []):
            frame[i, q] ^= 1
    return raw


def _identity_map(prog):
    """Row r: raw output r alone, packed, then a zero row; a table built
    on it holds raw outputs."""
    return gf2.pack_rows(np.eye(prog.raw_bits + 1, prog.raw_bits, dtype=np.uint8))


def _detector_parts(prog, raw):
    """Rows of raw outputs -> the ``ShotBatch`` arrays, by products: every
    check's detections z_c = m_c xor m_{c-2} (rows x t x checks), the
    final comparisons z_F = y_F xor m_t xor m_{t-1} of the memory-basis
    checks, and the memory-basis logicals read from the data readout."""
    t, checks = prog.t, prog.check_count
    dm = raw[:, : t * checks].reshape(-1, t, checks).astype(np.int64)
    rd = raw[:, t * checks :].astype(np.int64)
    det = dm.copy()
    det[:, 2:] ^= dm[:, :-2]
    final = (rd @ prog.support.T.astype(np.int64)) % 2 ^ dm[:, -1, prog.aligned_cols]
    if t >= 2:
        final ^= dm[:, -2, prog.aligned_cols]
    logical = (rd @ prog.logical_mat(None).T.astype(np.int64)) % 2
    return det.astype(np.uint8), final.astype(np.uint8), logical.astype(np.uint8)


def _detector_form(prog, raw):
    """``_detector_parts`` as rows in the bit order of ``noise._output_map``:
    the memory-basis checks' detections (cycle-major), the final
    comparisons, the logicals, then the other checks' detections."""
    det, final, logical = _detector_parts(prog, raw)
    aligned = np.isin(np.arange(prog.check_count), prog.aligned_cols)
    body, rest = (det[:, :, cols].reshape(len(raw), -1) for cols in (aligned, ~aligned))
    return np.concatenate([body, final, logical, rest], axis=1)


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_table_rows_match_forward_frame_propagation(basis):
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2, basis=basis)
    model = NoiseModel.device_rates(idle_policy="dense")
    prog = noise._Program(code, circ, basis, model)
    var = noise._variants(prog)
    rows = noise._fault_table(prog, var, _identity_map(prog))
    variants = noise.enumerate_fault_variants(circ, model, code=code)
    assert len(rows) == len(variants)
    assert var.slot.tolist() == [v.slot for v in variants]
    assert var.probability.tolist() == [v.probability for v in variants]
    expected = _forward_raw_outputs(code, circ, variants)
    assert np.array_equal(gf2.unpack_rows(rows, prog.raw_bits), expected)
    # the sampler's table: the same raw outputs, in detector form
    logical = prog.logical_mat(None)
    rows = noise._fault_table(prog, var, noise._output_map(prog, logical))
    assert np.array_equal(
        gf2.unpack_rows(rows, prog.output_bits(len(logical))), _detector_form(prog, expected)
    )


def _four_gather_variants(prog):
    """Each variant's (slot, qubits, flip), in slot and then pattern order,
    read from the slot legs and each pattern's leg tuples: X on qubits[0:2]
    and Z on qubits[2:4] (``qubit_count`` pads them), and the raw output
    that it flips (``raw_bits`` for none)."""
    npat = np.array([len(channel.patterns) for channel in prog.channels])
    count = npat[prog.slot_kind]
    first = np.cumsum(count) - count
    qubits = np.full((4, count.sum()), prog.circuit.qubit_count)
    flip = np.full(count.sum(), prog.raw_bits)
    for k, channel in enumerate(prog.channels):
        slots = np.flatnonzero(prog.slot_kind == k)
        for j, pat in enumerate(channel.patterns):
            v = first[slots] + j
            for row, leg in chain(enumerate(pat.x_legs), enumerate(pat.z_legs, 2)):
                qubits[row, v] = prog.slot_legs[leg, slots]
            if pat.flip:
                flip[v] = prog.slot_flip[slots]
    return np.repeat(np.arange(len(count)), count), qubits, flip


def _four_gather_table(prog, layer, qubits, flip, out_map):
    """The fault-effect table by the four-gather walk: a variant's row is
    its flip's ``out_map`` row XOR, at its layer, the sx rows of its two X
    qubits and the sz rows of its two Z qubits."""
    table, nq = prog.table, prog.circuit.qubit_count
    rows = out_map[flip]
    sx = np.zeros((nq + 1, out_map.shape[1]), dtype=out_map.dtype)
    sz = np.zeros_like(sx)
    bounds = np.searchsorted(layer, np.arange(len(table.kind) + 1))
    for li in range(len(table.kind) - 1, -1, -1):
        x0, x1, z0, z1 = qubits[:, bounds[li] : bounds[li + 1]]
        rows[bounds[li] : bounds[li + 1]] ^= sx[x0] ^ sx[x1] ^ sz[z0] ^ sz[z1]
        gates = slice(table.start[li], table.start[li + 1])
        a, b = table.legs[:, gates]
        if table.kind[li] == SINGLE_QUBIT:
            h = a[table.name[gates] == GATE_NAMES.index("H")]
            sx[h], sz[h] = sz[h], sx[h]
        elif table.kind[li] == CZ:
            sx[a], sx[b] = sx[a] ^ sz[b], sx[b] ^ sz[a]
        elif table.kind[li] in (MEASURE_CHECKS, READOUT_DATA):
            sx[a] ^= out_map[prog.gate_flip[gates]]
            sz[a] = 0
    return rows


def _assert_table_is_the_four_gather_walk(prog, out_map):
    var = noise._variants(prog)
    slot, qubits, flip = _four_gather_variants(prog)
    assert var.buffer_rows.dtype == np.int32 and var.buffer_rows.shape == (2, len(slot))
    assert np.array_equal(var.slot, slot) and np.array_equal(var.layer, prog.slot_layer[slot])
    got = noise._fault_table(prog, var, out_map)
    want = _four_gather_table(prog, var.layer, qubits, flip, out_map)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# (code, cycles, noise model): every idle policy on the golden grid's
# codes, 144-12-12 (6-word rows at t = 2) and rate-one flips alone
WALK_CASES = {
    f"{cid}-t{t}-{policy}": (cid, t, NoiseModel.device_rates(idle_policy=policy))
    for cid in ("18-4-4-pruned", "18-6-3", "36-4-6") for t in (1, 2, 7)
    for policy in noise.IDLE_POLICIES
} | {
    "144-12-12-t2-frames": ("144-12-12", 2, NOISE),
    "18-6-3-t3-p_m": ("18-6-3", 3, NoiseModel(p_m=1.0)),
    "18-6-3-t3-p_m-p_f": ("18-6-3", 3, NoiseModel(p_m=1.0, p_f=1.0)),
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_fault_table_is_the_four_gather_walk(case):
    """Word for word, on the sampler's map, in both bases."""
    cid, t, model = WALK_CASES[case]
    code = build_named_code(cid, trust_table_distance=True)
    for basis in ("Z", "X"):
        prog = noise._Program(code, build_syndrome_circuit(code, t, basis=basis), basis, model)
        _assert_table_is_the_four_gather_walk(
            prog, noise._output_map(prog, prog.logical_mat(None))
        )


def test_fault_table_of_no_words_is_the_four_gather_walk():
    """A basis with no detectors and no logicals walks a map of no words."""
    code = CHECKS_OF_ONE_TYPE["k0"]
    prog = noise._Program(code, build_syndrome_circuit(code, 2, basis="X"), "X", NOISE)
    logical, rows = noise._fault_rows(prog, None)
    assert prog.detector_count == len(logical) == 0
    assert rows.shape == (len(noise._variants(prog).slot), 0)
    _assert_table_is_the_four_gather_walk(prog, noise._output_map(prog, logical)[:, :0])


@pytest.mark.parametrize("t", [1, 2, 3, 7])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "36-4-6"])
def test_output_map_is_the_detector_formula(cid, basis, t):
    code = build_named_code(cid)
    circ = build_syndrome_circuit(code, t, basis=basis)
    prog = noise._Program(code, circ, basis, NOISE)
    eye = np.eye(prog.raw_bits + 1, prog.raw_bits, dtype=np.uint8)
    expected = _detector_form(prog, eye)
    logical = prog.logical_mat(logical_operator_set_for(code))
    out_map = noise._output_map(prog, logical)
    width = prog.output_bits(len(logical))
    assert out_map.dtype == gf2.WORD and out_map.shape == (len(eye), -(-width // 64))
    assert expected.shape[1] == width
    assert np.array_equal(gf2.unpack_rows(out_map, 64 * out_map.shape[1])[:, :width], expected)
    assert not gf2.unpack_rows(out_map, 64 * out_map.shape[1])[:, width:].any()


@pytest.mark.parametrize("t", [1, 3])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3"])
def test_one_table_one_detector_order(cid, basis, t):
    """The DEM's walk is the leading D + K bits of the sampler's, and the
    sampler's leading D bits are ``ShotBatch.detector_matrix``."""
    code = build_named_code(cid)
    circ = build_syndrome_circuit(code, t, basis=basis)
    prog = noise._Program(code, circ, basis, NOISE)
    logical = prog.logical_mat(None)
    A, D, K = len(prog.aligned_cols), prog.detector_count, len(logical)
    assert D == (t + 1) * A and K > 0
    table = noise._fault_table(prog, prog.variants, noise._output_map(prog, logical))
    _, dem = noise._fault_rows(prog, None)
    assert dem.shape == (len(table), -(-(D + K) // 64))
    assert np.array_equal(gf2.unpack_rows(dem, D + K), gf2.unpack_rows(table, D + K))
    assert not gf2.unpack_rows(dem, 64 * dem.shape[1])[:, D + K :].any()
    # the DEM's bits are its signature order: the memory-basis detections
    # of each cycle, the final block and the logicals
    eye = np.eye(prog.raw_bits + 1, prog.raw_bits, dtype=np.uint8)
    det, final, flips = _detector_parts(prog, eye)
    signature = np.concatenate(
        [det[:, :, prog.aligned_cols].reshape(len(eye), -1), final, flips], axis=1
    )
    assert np.array_equal(gf2.unpack_rows(noise._output_map(prog, logical), D + K), signature)
    shots, seed = 200, 21
    rows = noise._sampler(prog, logical)(noise._derive_keys(seed, 0, shots))
    for size in (64, 200):  # the batch holds one sampler call's rows, at any batch size
        batch = noise.run_monte_carlo(circ, NOISE, shots, basis, code=code, master_seed=seed,
                                      batch_size=size)
        assert batch.rows.dtype == rows.dtype and np.array_equal(batch.rows, rows)
    assert batch.detector_matrix().any()
    assert np.array_equal(gf2.unpack_rows(rows, D), batch.detector_matrix())


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_a_code_with_checks_of_one_type_samples(basis):
    """With no X checks the Z basis has no other checks, and the X basis
    no memory-basis checks: each batch split takes an empty run."""
    h_z = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    code = CssCode("rep3", np.zeros((0, 3), int), h_z, (), (0, 1))
    logicals = LogicalOperatorSet(3, ((0, 1, 2),), ((0,),))
    circ = build_syndrome_circuit(code, 3, basis=basis)
    shots = 200
    prog = noise._Program(code, circ, basis, NOISE)
    logical = prog.logical_mat(logicals)
    rows = noise._sampler(prog, logical)(noise._derive_keys(4, 0, shots))
    for size in (64, 200):
        batch = noise.run_monte_carlo(circ, NOISE, shots, basis, code=code, logicals=logicals,
                                      master_seed=4, batch_size=size)
        assert np.array_equal(batch.rows, rows)
    assert batch.detections.shape == (shots, 3, 2) and batch.detections.any()
    other = batch.detections[:, :, [c for c in range(2) if c not in batch.aligned_columns]]
    got = np.concatenate(
        [batch.detector_matrix(), batch.logical_flips, other.reshape(shots, -1)], axis=1
    )
    assert np.array_equal(got, gf2.unpack_rows(rows, prog.output_bits(len(logical))))


def test_fault_records_are_immutable_named_tuples():
    v = noise.FaultVariant(slot=3, layer=1, kind="idle", probability=0.1, x_qubits=(2,))
    assert (v.z_qubits, v.measurement_flip, v.readout_flip) == ((), None, None)
    assert repr(v) == (
        "FaultVariant(slot=3, layer=1, kind='idle', probability=0.1, x_qubits=(2,), "
        "z_qubits=(), measurement_flip=None, readout_flip=None)"
    )
    assert hash(v) == hash(noise.FaultVariant(3, 1, "idle", 0.1, (2,)))
    col = DemColumn(probability=0.1, detectors=(0, 2), logicals=(1,))
    assert repr(col) == "DemColumn(probability=0.1, detectors=(0, 2), logicals=(1,))"
    assert hash(col) == hash(DemColumn(0.1, (0, 2), (1,)))
    for record, field in ((v, "slot"), (col, "probability")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_enumerated_variants_match_a_per_variant_reference():
    """Each record read from its slot and pattern: the slot's legs picked
    by the pattern's leg tuples, and its output if the pattern flips it."""
    code = build_named_code("18-6-3")
    circ = build_syndrome_circuit(code, 2)
    prog = noise._Program(code, circ, "Z", NOISE)
    checks, tc = prog.check_count, prog.t * prog.check_count
    expected = []
    for s, kind in enumerate(prog.slot_kind.tolist()):
        legs, f = prog.slot_legs[:, s].tolist(), int(prog.slot_flip[s])
        for pat in prog.channels[kind].patterns:
            expected.append(noise.FaultVariant(
                slot=s,
                layer=int(prog.slot_layer[s]),
                kind=noise._SLOT_KINDS[kind],
                probability=pat.probability,
                x_qubits=tuple(legs[leg] for leg in pat.x_legs),
                z_qubits=tuple(legs[leg] for leg in pat.z_legs),
                measurement_flip=divmod(f, checks) if pat.flip and f < tc else None,
                readout_flip=f - tc if pat.flip and f >= tc else None,
            ))
    assert {v.kind for v in expected} == set(noise._SLOT_KINDS)
    variants = noise.enumerate_fault_variants(circ, NOISE, code=code)
    assert tuple(variants) == tuple(expected)
    # the same Python types, not numpy scalars, so the reprs agree too
    assert repr(tuple(variants)) == repr(tuple(expected))


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_enumerated_fields_share_one_object_per_value(basis):
    code = build_named_code("36-4-6")
    circ = build_syndrome_circuit(code, 7, basis=basis)
    variants = noise.enumerate_fault_variants(circ, NOISE, code=code)
    assert len(variants) == 29664
    for field, column in zip(noise.FaultVariant._fields, zip(*variants)):
        # exact types: a numpy float64 is a float subclass
        assert {type(v) for v in column} <= {int, float, str, tuple, type(None)}, field
        assert {type(q) for v in column if type(v) is tuple for q in v} <= {int}, field
        assert len({id(v) for v in column}) == len(set(column)), field


def test_fault_variants_make_no_record_until_one_is_read(monkeypatch):
    code = build_named_code("36-4-6")
    circ = build_syndrome_circuit(code, 7)

    def refuse(values, make):
        raise AssertionError("records made")

    with monkeypatch.context() as patch:
        patch.setattr(noise, "_shared", refuse)
        view = noise.enumerate_fault_variants(circ, NOISE, code=code)
        assert len(view) == 29664 and view
    assert isinstance(view, Sequence) and not isinstance(view, tuple)
    assert view[5] is view[5]
    records = tuple(view)
    assert view[-1] is records[-1]
    assert view[10:20] == records[10:20]
    with pytest.raises(IndexError):
        view[len(view)]
    # each full iteration yields the same objects
    assert list(map(id, view)) == list(map(id, view)) == list(map(id, records))


# ---- packed rows ----


@pytest.mark.parametrize("count", [0, 1, 7, 8, 63, 64, 65, 127, 128, 130, 191])
def test_set_bits_match_nonzero_of_the_unpacked_rows(count):
    """Rows of ceil(count / 64) words, and rows of 3 words, whose bits at
    or past ``count`` are dropped."""
    rng = np.random.default_rng(count)
    cases = []
    for words in sorted({-(-count // 64), 3}):
        cases += [
            rng.integers(0, 2**64, (50, words), dtype=np.uint64),
            # sparse rows, so whole bytes are zero
            rng.integers(0, 2**64, (50, words), dtype=np.uint64)
            & rng.integers(0, 2**64, (50, words), dtype=np.uint64)
            & rng.integers(0, 2**64, (50, words), dtype=np.uint64),
            np.zeros((0, words), dtype=np.uint64),
            np.zeros((5, words), dtype=np.uint64),
            np.full((5, words), 2**64 - 1, dtype=np.uint64),
        ]
    for rows in cases:
        got = gf2._set_bits(rows, count)
        want = np.nonzero(gf2.unpack_rows(rows, count))
        # the same pairs in the same order, so reductions over them match
        assert [g.tolist() for g in got] == [w.tolist() for w in want]


# ---- the compile against a per-layer reference ----


def _reference_program(code, circ, idle_policy):
    """Fault slots (kind, layer, legs, flip) and walk ops built one layer
    at a time with set differences, as a check on ``_Program``. A walk op
    is the layer kind with the H legs, the CZ legs, or the measured
    qubits and the raw outputs they record."""
    n, nq, t = code.n, circ.qubit_count, circ.cycles
    checks = len(code.checks)
    raw = t * checks + n
    slots, ops, cycle = [], [], 0

    def add(kind, li, a, b=None, flips=None):
        for i, q in enumerate(a):
            slots.append((
                noise._SLOT_KINDS.index(kind),
                li,
                q,
                nq if b is None else b[i],
                raw if flips is None else flips[i],
            ))

    def qubits(layer, leg=0):
        return np.array([qs[leg] for _, qs in layer.gates], dtype=np.intp)

    for li, layer in enumerate(circ.layers):
        if layer.kind == SINGLE_QUBIT:
            h_qs = np.array([qs[0] for g, qs in layer.gates if g == "H"], dtype=np.intp)
            if idle_policy == "dense":
                idle_qs = np.setdiff1d(np.arange(nq), h_qs)
            elif idle_policy == "frames" and (h_qs >= n).any():
                idle_qs = np.setdiff1d(np.arange(n), h_qs)
            else:
                idle_qs = h_qs[:0]
            ops.append((SINGLE_QUBIT, h_qs))
            add("h", li, h_qs)
            add("idle", li, idle_qs)
        elif layer.kind == CZ:
            a, b = qubits(layer), qubits(layer, 1)
            ops.append((CZ, a, b))
            add("cz", li, a, b)
            add("idle", li, np.setdiff1d(np.arange(nq), np.concatenate([a, b])))
        elif layer.kind == MEASURE_CHECKS:
            anc = qubits(layer)  # check column j on qubit n + j
            ops.append((MEASURE_CHECKS, anc, cycle * checks + anc - n))
            add("measure", li, anc, flips=cycle * checks + anc - n)
            cycle += 1
        elif layer.kind == DD_IDLE:
            ops.append((DD_IDLE,))
            add("dd", li, qubits(layer))
        else:
            qs = qubits(layer)
            ops.append((READOUT_DATA, qs, t * checks + qs))
            add("readout", li, qs, flips=t * checks + qs)
    kind, layer, a, b, flip = np.array(slots).T
    return kind, layer, np.stack([a, b]), flip, ops


def _walk_ops(prog):
    """The rows of each layer that ``noise._fault_table`` reads from the
    gate table, as walk ops of ``_reference_program``."""
    table, ops = prog.table, []
    for li, kind in enumerate(table.kind.tolist()):
        rows = slice(table.start[li], table.start[li + 1])
        a, b = table.legs[:, rows]
        if kind == SINGLE_QUBIT:
            ops.append((kind, a[table.name[rows] == GATE_NAMES.index("H")]))
        elif kind == CZ:
            ops.append((kind, a, b))
        elif kind in (MEASURE_CHECKS, READOUT_DATA):
            ops.append((kind, a, prog.gate_flip[rows]))
        else:
            ops.append((kind,))
    return ops


def _assert_compiles_like_the_reference(code, circ, basis, policy):
    prog = noise._Program(code, circ, basis, NoiseModel.device_rates(idle_policy=policy))
    kind, layer, legs, flip, ops = _reference_program(code, circ, policy)
    for got, want in (
        (prog.slot_kind, kind),
        (prog.slot_layer, layer),
        (prog.slot_legs, legs),
        (prog.slot_flip, flip),
    ):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    walk = _walk_ops(prog)
    assert len(walk) == len(ops)
    for got, want in zip(walk, ops):
        assert got[0] == want[0] and len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))


@pytest.mark.parametrize("policy", noise.IDLE_POLICIES)
@pytest.mark.parametrize("t", [1, 2, 7])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "36-4-6"])
def test_program_matches_a_per_layer_reference(cid, basis, t, policy):
    code = build_named_code(cid)
    circ = build_syndrome_circuit(code, t, basis=basis)
    _assert_compiles_like_the_reference(code, circ, basis, policy)


def _h_to_i(circ, li, gi):
    """The circuit with gate ``gi`` of layer ``li``, an H, made an I."""
    gates = list(circ.layers[li].gates)
    gates[gi] = ("I", gates[gi][1])
    layers = list(circ.layers)
    layers[li] = GateLayer(SINGLE_QUBIT, tuple(gates))
    return replace(circ, layers=tuple(layers))


@pytest.mark.parametrize("policy", noise.IDLE_POLICIES)
def test_program_matches_the_reference_with_an_h_edited_to_i(policy):
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    ancilla_h = [
        (li, gi)
        for li, layer in enumerate(circ.layers)
        for gi, (g, qs) in enumerate(layer.gates)
        if g == "H" and qs[0] >= code.n
    ]
    # the first H on an ancilla: the layer keeps its frame under "frames"
    # only through its other ancilla H gates, and the qubit idles
    edited = _h_to_i(circ, *ancilla_h[0])
    _assert_compiles_like_the_reference(code, edited, "Z", policy)
    model = NoiseModel.device_rates(idle_policy=policy)
    prog = noise._Program(code, edited, "Z", model)
    assert len(prog.slot_kind) > 0
    # the walk swaps X and Z at an H, not at an I; the last ancilla H has
    # faults before it
    edited = _h_to_i(circ, *ancilla_h[-1])
    prog = noise._Program(code, edited, "Z", model)
    rows = noise._fault_table(prog, noise._variants(prog), _identity_map(prog))
    variants = noise.enumerate_fault_variants(edited, model, code=code)
    expected = _forward_raw_outputs(code, edited, variants)
    assert np.array_equal(gf2.unpack_rows(rows, prog.raw_bits), expected)


def _drop_last_measurement(circ):
    li = max(i for i, layer in enumerate(circ.layers) if layer.kind == MEASURE_CHECKS)
    return replace(circ, layers=circ.layers[:li] + circ.layers[li + 1 :])


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda circ, code: (circ, build_named_code("36-4-6"), "Z"),
         "circuit has 32 qubits, code layout needs 72"),
        (lambda circ, code: (
            replace(circ, layers=tuple(L for L in circ.layers if L.kind != MEASURE_CHECKS)),
            code, "Z"),
         "circuit has no measurement layer"),
        (lambda circ, code: (_drop_last_measurement(circ), code, "Z"),
         r"READOUT_DATA layers \[49\] of 50: need one, the last, right after the last "
         r"MEASURE_CHECKS layer \(32\)"),
        (lambda circ, code: (replace(circ, basis=None), code, "Y"),
         "basis must be 'Z' or 'X'"),
        (lambda circ, code: (Circuit(5, ()), code, "Z"),
         "circuit has 5 qubits, code layout needs 32"),
        (lambda circ, code: (replace(circ, layers=circ.layers[:-1]), code, "Z"),
         r"READOUT_DATA layers \[\] of 50: need one, the last"),
        (lambda circ, code: (
            replace(circ, layers=circ.layers[:-2] + circ.layers[:-3:-1]), code, "Z"),
         r"READOUT_DATA layers \[49\] of 51: need one, the last"),
    ],
    ids=[
        "qubits", "no-cycles", "measurements", "basis", "gate-less", "no-readout",
        "readout-not-last",
    ],
)
def test_compile_rejects_a_mismatched_circuit(edit, message):
    """The noise layer and the tableau oracle read the circuit through
    the same checked gate table, so both reject it alike."""
    code = build_named_code("18-4-4-pruned")
    circ, code, basis = edit(build_syndrome_circuit(code, 3), code)
    with pytest.raises(ValueError, match=message):
        noise.build_dem(circ, NOISE, basis, code=code)
    with pytest.raises(ValueError, match=message):
        verify_circuit(circ, code, basis=basis)


def _shuffle_measurements(circ, seed):
    """The circuit with the gates of each measurement and readout layer in
    a random order, drawn per layer from one ``random.Random(seed)``."""
    rng, layers = random.Random(seed), []
    for layer in circ.layers:
        if layer.kind in (MEASURE_CHECKS, READOUT_DATA):
            gates = list(layer.gates)
            rng.shuffle(gates)
            layer = GateLayer(layer.kind, tuple(gates))
        layers.append(layer)
    return replace(circ, layers=tuple(layers))


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "36-4-6"])
def test_outputs_do_not_depend_on_the_order_of_a_measurement_layer(cid, basis):
    """Outcomes are read by qubit, not by gate position: a built circuit
    lists each measurement layer in qubit order, so it cannot tell."""
    code = build_named_code(cid)
    circ = build_syndrome_circuit(code, 3, basis=basis)
    shuffled = _shuffle_measurements(circ, 29)
    assert shuffled != circ
    assert verify_circuit(shuffled, code, basis=basis) == verify_circuit(circ, code, basis=basis)
    series = [noise.expected_detection_series(c, NOISE, code=code, basis=basis)
              for c in (circ, shuffled)]
    assert series[0].tobytes() == series[1].tobytes()
    # a DEM keeps its columns in first-seen order, which the shuffle moves
    dems = [noise.build_dem(c, NOISE, basis, code=code) for c in (circ, shuffled)]
    got, want = ({c[1:]: c.probability for c in dem.columns} for dem in dems)
    assert got == want and len(got) == len(dems[0].columns)


def test_a_code_that_keeps_a_transcribed_name_but_not_its_checks_gets_computed_logicals():
    # 18-4-4-pruned's name on 18-6-3's checks: the four transcribed
    # logicals commute with them, but the code has six
    pruned, six = build_named_code("18-4-4-pruned"), build_named_code("18-6-3")
    code = replace(pruned, retained_x=six.retained_x, retained_z=six.retained_z)
    logicals = logical_operator_set_for(code)
    assert len(logicals.x_supports) == 6
    assert verify_logicals(code, logicals).ok
    dem = noise.build_dem(build_syndrome_circuit(code, 2), NOISE, "Z", code=code)
    assert dem.logical_count == 6
    assert logical_operator_set_for(pruned) is logical_operator_set_for(build_named_code("18-4-4"))


# ---- sampler against the exact series ----


@pytest.mark.parametrize(
    "cid,basis", [("18-4-4-pruned", "Z"), ("18-6-3", "X"), ("36-4-6", "Z")]
)
def test_sampled_series_within_four_sigma_of_exact(cid, basis):
    code = build_named_code(cid)
    logicals = logical_operator_set_for(code)
    circ = build_syndrome_circuit(code, 7, basis=basis)
    shots = 4096
    batch = noise.run_monte_carlo(
        circ, NOISE, shots, basis, code=code, logicals=logicals, master_seed=2025
    )
    exact = noise.expected_detection_series(
        circ, NOISE, code=code, basis=basis, logicals=logicals
    )
    sampled = batch.cycle_series(basis)
    assert sampled.shape == exact.shape == (8,)
    # shots are the independent trials; a per-shot average lies in
    # [0, 1], so p(1 - p) bounds its variance
    sigma = np.sqrt(exact * (1 - exact) / shots)
    assert np.all(np.abs(sampled - exact) <= 4 * sigma), (sampled, exact)


def test_sampling_follows_the_rng_contract():
    """Shot i depends only on (master seed, i): not on the batch size nor
    on how many shots follow it, and its key is derive_shot_seed(seed, i)."""
    code = build_named_code("18-6-3")
    circ = build_syndrome_circuit(code, 3, basis="X")
    model = NoiseModel.device_rates(suppression=3.0)

    def run(shots=50, **kw):
        return noise.run_monte_carlo(circ, model, shots, "X", code=code, master_seed=9, **kw)

    batch = run()
    assert batch.detections.sum() == 726
    fields = ("detections", "final_syndrome", "logical_flips")
    for size in (1, 7):
        other = run(batch_size=size)
        for f in fields:
            assert np.array_equal(getattr(other, f), getattr(batch, f)), (size, f)
    prefix = run(18)
    for f in fields:
        assert np.array_equal(getattr(prefix, f), getattr(batch, f)[:18]), f
    for i in (0, 17, 49):
        assert noise.derive_shot_seed(9, i) == int(noise._derive_keys(9, i, 1)[0])


HEAVY = NoiseModel.device_rates(suppression=20.0)
HEAVY_MODELS = pytest.mark.parametrize(
    "model",
    [HEAVY, replace(HEAVY, p_dd_x=0.0), replace(HEAVY, p_dd_z=0.0)],
    ids=["heavy", "no-dd-x", "no-dd-z"],
)


def _fires(channel, shots, m):
    """Every (shot, slot, pattern) that the channel fires among m slots
    for the keys of shots 0..shots-1 at master seed 5."""
    rounds = list(channel.fires(noise._derive_keys(5, 0, shots), m))
    for shot, _, _ in rounds:
        assert len(np.unique(shot)) == len(shot), "a round fired a shot twice"
    return [np.concatenate(parts) for parts in zip(*rounds)]


@HEAVY_MODELS
def test_channel_draws_pick_patterns_at_their_probabilities(model):
    """Each channel's draws pick its patterns at the probabilities the
    enumeration and the DEM use, also when DD patterns are dropped."""
    shots, m = 4000, 25
    trials = shots * m
    for kind in noise._SLOT_KINDS:
        channel = noise._channel(kind, model)
        _, pos, pick = _fires(channel, shots, m)
        assert pos.min() >= 0 and pos.max() < m, kind
        p = np.array([pat.probability for pat in channel.patterns])
        assert pick.max() < len(p), kind
        freq = np.bincount(pick, minlength=len(p)) / trials
        sigma = np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(freq - p) <= 4 * sigma), (kind, freq, p)


@HEAVY_MODELS
def test_first_middle_and_last_slots_fire_at_the_channel_rate(model):
    """The geometric skip lands on every position with probability P: an
    off-by-one in the gap would starve or crowd the first or last slot."""
    shots, m = 20000, 41
    for kind in noise._SLOT_KINDS:
        channel = noise._channel(kind, model)
        rate = sum(pat.probability for pat in channel.patterns)
        _, pos, _ = _fires(channel, shots, m)
        freq = np.bincount(pos, minlength=m)[[0, m // 2, m - 1]] / shots
        sigma = np.sqrt(rate * (1 - rate) / shots)
        assert np.all(np.abs(freq - rate) <= 4 * sigma), (kind, freq, rate)


_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _reference_uniform(keys, stream, draw):
    """Draw ``draw`` of stream ``stream`` for each key: splitmix64 of the
    key xor the stream's multiple of 0xD1B54A32D192ED03, top 53 bits,
    plus one, times 2^-53."""
    v = keys ^ np.uint64(((stream << 32) | draw) * 0xD1B54A32D192ED03 % 2**64)
    for shift, mul in zip((30, 27), _MIX):
        v = (v ^ (v >> np.uint64(shift))) * np.uint64(mul)
    v = v ^ (v >> np.uint64(31))
    return ((v >> np.uint64(11)) + np.uint64(1)) * 2.0**-53


def _reference_fires(channel, keys, m):
    """The sampling contract one round at a time: a searchsorted per
    round over the survival table (1 - P)^g, g = m..1, and over the
    patterns' cumulative probabilities."""
    cum = np.cumsum([pat.probability for pat in channel.patterns])
    survive = np.cumprod(np.full(m, max(0.0, 1.0 - cum[-1])))[::-1]
    cdf = cum / cum[-1]
    shot = np.arange(len(keys))
    pos = np.full(len(keys), -1, dtype=np.intp)
    draw = 1
    while len(shot):
        pos = pos + (m + 1 - np.searchsorted(survive, _reference_uniform(keys, channel.stream, draw)))
        live = pos < m
        shot, pos, keys = shot[live], pos[live], keys[live]
        pick = np.searchsorted(cdf, _reference_uniform(keys, channel.stream, draw + 1))
        yield shot, pos, pick
        draw += 2


RATES = {
    "device": NOISE,
    "heavy": NoiseModel.device_rates(suppression=20.0),
    # P = 1, or a hair below it where the fifteen CZ shares sum past 1
    "one": NoiseModel(*[1.0] * 7),
    # 1 - P rounds to 1
    "tiny": NoiseModel(*[1e-17] * 7),
}


@pytest.mark.parametrize(
    "block,rate,m,shots",
    [
        pytest.param(None, rate, m, shots, id=f"{rate}-{m}-{shots}")
        for rate in sorted(RATES) for m in (1, 2, 41, 6048) for shots in (1, 7, 4096)
        # the reference runs thousands of rounds here; one shot covers the
        # table, and the other rates the wide blocks
        if not (rate in ("heavy", "one") and m == 6048 and shots > 1)
    ] + [
        # a block of 1 holds one round, so the running sum adds no row; a
        # block of 2**4 holds two rounds of 7 shots, and at the "tiny" rate
        # every shot stops in the first of them
        pytest.param(block, rate, m, shots, id=f"{rate}-{m}-{shots}-block{block}")
        for block in (1, 2**4) for rate in sorted(RATES) for m in (1, 41) for shots in (1, 7)
    ] + [pytest.param(2**4, "device", 6048, 7, id="device-6048-7-block16")],
)
def test_block_draws_match_the_per_round_reference(monkeypatch, block, rate, m, shots):
    if block is not None:
        monkeypatch.setattr(noise, "_DRAW_BLOCK", block)
    keys = noise._derive_keys(11, 0, shots)
    for kind in noise._SLOT_KINDS:
        channel = noise._channel(kind, RATES[rate])
        if rate == "tiny":
            assert 1.0 - sum(pat.probability for pat in channel.patterns) == 1.0
        rounds = 0
        for got, want in zip(channel.fires(keys, m), _reference_fires(channel, keys, m), strict=True):
            rounds += 1
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.dtype.kind == "i", (kind, rounds)
                assert np.array_equal(g, w), (kind, rounds)
        # at the "tiny" rate every shot stops in its first round, which fires none
        assert rounds == 1 if rate == "tiny" else rounds >= 1


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_wide_code_sampling_matches_the_reference(basis):
    """144-12-12, which the golden grid leaves out: the per-round draws
    replayed on a raw-output table, then put in detector form."""
    code = build_named_code("144-12-12", trust_table_distance=True)
    logicals = logical_operator_set_for(code)
    circ = build_syndrome_circuit(code, 2, basis=basis)
    shots, seed = 300, 77
    batch = noise.run_monte_carlo(
        circ, NOISE, shots, basis, code=code, logicals=logicals, master_seed=seed,
        batch_size=128,
    )
    prog = noise._Program(code, circ, basis, NOISE)
    var = noise._variants(prog)
    rows = noise._fault_table(prog, var, _identity_map(prog))
    first = np.searchsorted(var.slot, np.arange(len(prog.slot_kind)))
    keys = np.array([noise.derive_shot_seed(seed, i) for i in range(shots)], dtype=np.uint64)
    acc = np.zeros((shots, rows.shape[1]), dtype=rows.dtype)
    for i, kind in enumerate(noise._SLOT_KINDS):
        base = first[prog.slot_kind == i]
        for shot, pos, pick in _reference_fires(noise._channel(kind, NOISE), keys, len(base)):
            acc[shot] ^= rows[base[pos] + pick]
    expected = _detector_parts(prog, gf2.unpack_rows(acc, prog.raw_bits))
    got = batch.detections, batch.final_syndrome, batch.logical_flips
    assert expected[0].any() and expected[2].any()
    for array, want in zip(got, expected):
        assert array.shape == want.shape and np.array_equal(array, want)


@pytest.mark.parametrize(
    "value", [1.9, 2.0, True, "3", None, np.float64(3.0)],
    ids=["float", "integral-float", "bool", "str", "none", "numpy-float"],
)
def test_sampler_entry_points_take_only_integers(value):
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 1)
    calls = [
        ("shots", lambda v: noise.run_monte_carlo(circ, NOISE, v, code=code)),
        ("batch_size", lambda v: noise.run_monte_carlo(circ, NOISE, 4, code=code, batch_size=v)),
        ("master_seed", lambda v: noise.run_monte_carlo(circ, NOISE, 4, code=code, master_seed=v)),
        ("master_seed", lambda v: noise.derive_shot_seed(v, 3)),
        ("shot_index", lambda v: noise.derive_shot_seed(1, v)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(value)


@pytest.mark.parametrize("index", [-1, -2, 2**63, 2**64 - 1, np.int64(-1)])
def test_shot_seed_needs_an_index_in_range(index):
    with pytest.raises(ValueError, match=rf"shot_index={int(index)} is not in \[0, 2\*\*63\)"):
        noise.derive_shot_seed(7, index)


def test_shot_seeds_in_range_keep_their_keys():
    assert noise.derive_shot_seed(7, 0) == 7191089600892374487
    assert noise.derive_shot_seed(7, 2**63 - 1) == 17269066681482095964


@pytest.mark.parametrize(
    "field,value",
    [("p_h", "0.1"), ("p_h", None), ("suppression", None), ("p_cz", 1 + 0j), ("p_h", [0.1]),
     ("p_m", True), ("p_f", np.True_), ("suppression", "2"), ("p_h", -0.1), ("p_cz", 1.5),
     ("p_m", float("nan")), ("suppression", -1.0), ("suppression", float("nan")),
     ("suppression", float("inf"))],
    ids=["str", "none", "none-suppression", "complex", "list", "bool", "numpy-bool",
         "str-suppression", "negative", "above-one", "nan", "negative-suppression",
         "nan-suppression", "inf-suppression"],
)
def test_noise_model_rejects_rates_that_are_not_numbers_in_range(field, value):
    with pytest.raises(ValueError, match=f"^{field}="):
        NoiseModel(**{field: value})


def test_noise_model_takes_numpy_numbers():
    model = NoiseModel(p_h=np.float32(0.25), p_m=np.int64(1), suppression=np.float64(2.0))
    assert model.effective(model.p_h) == 0.5 and model.effective(model.p_m) == 1.0


def test_sampler_entry_points_take_numpy_integers():
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    batch = noise.run_monte_carlo(circ, NOISE, 12, code=code, master_seed=5, batch_size=5)
    same = noise.run_monte_carlo(
        circ, NOISE, np.int64(12), code=code, master_seed=np.uint64(5), batch_size=np.int32(5)
    )
    for field in ("detections", "final_syndrome", "logical_flips"):
        assert np.array_equal(getattr(same, field), getattr(batch, field))
    assert noise.derive_shot_seed(np.int64(5), np.uint8(3)) == noise.derive_shot_seed(5, 3)


def test_rate_one_flips_every_slot():
    code = build_named_code("18-6-3")
    circ = build_syndrome_circuit(code, 3)
    shots = 64
    keys = noise._derive_keys(3, 0, shots)
    for model in (NoiseModel(p_m=1.0), NoiseModel(p_m=1.0, p_f=1.0)):
        prog = noise._Program(code, circ, "Z", model)
        flipped = prog.raw_bits if model.p_f else prog.t * prog.check_count
        # the variants are the measured slots, and every shot fires each once
        var = noise._variants(prog)
        # each variant XORs its output's map row (buffer row 3 R on) and the zero row
        R = circ.qubit_count + 1
        assert (var.buffer_rows[1] == R - 1).all()
        assert sorted((var.buffer_rows[0] - 3 * R).tolist()) == list(range(flipped))
        fired = np.zeros((shots, len(var.slot)), dtype=int)
        first = np.searchsorted(var.slot, np.arange(len(prog.slot_kind)))
        for shot, v in noise._fired(prog, first, keys):
            fired[shot, v] += 1
        assert (fired == 1).all()
        # so every shot flips the first ``flipped`` raw outputs and no other
        raw = np.zeros((shots, prog.raw_bits), dtype=np.uint8)
        raw[:, :flipped] = 1
        logical = prog.logical_mat(None)
        rows = noise._sampler(prog, logical)(keys)
        width = prog.output_bits(len(logical))
        assert np.array_equal(gf2.unpack_rows(rows, width), _detector_form(prog, raw))


def test_the_draw_block_sets_no_output(monkeypatch):
    """``_DRAW_BLOCK`` bounds how many skip draws are made at once, not
    which: every block size gives the same bits."""
    code = build_named_code("18-6-3")
    for basis in ("Z", "X"):
        circ = build_syndrome_circuit(code, 3, basis=basis)
        batches = []
        for block in (2**4, 2**12, 2**16):
            monkeypatch.setattr(noise, "_DRAW_BLOCK", block)
            for size in (9, 40):
                batches.append(noise.run_monte_carlo(
                    circ, NOISE, 40, basis, code=code, master_seed=13, batch_size=size
                ))
        assert batches[0].detections.any()
        for batch in batches[1:]:
            for f in ("detections", "final_syndrome", "logical_flips"):
                assert np.array_equal(getattr(batch, f), getattr(batches[0], f)), (basis, f)


def test_the_sampler_keeps_no_variant_table():
    code = build_named_code("18-6-3")
    circ = build_syndrome_circuit(code, 2)
    prog = noise._Program(code, circ, "Z", NOISE)
    sample = noise._sampler(prog, prog.logical_mat(None))
    held = dict(zip(sample.__code__.co_freevars, (c.cell_contents for c in sample.__closure__)))
    # everything the closure reaches through containers and programs
    todo, seen = list(held.values()), set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, noise._Variants)
        if isinstance(obj, noise._Program):
            todo += vars(obj).values()
        elif isinstance(obj, (list, tuple)):
            todo += obj
        elif isinstance(obj, dict):
            todo += obj.values()
    assert any(obj is prog for obj in held.values())
    first = np.searchsorted(noise._variants(prog).slot, np.arange(len(prog.slot_kind)))
    assert np.array_equal(held["first"], first)


@pytest.mark.parametrize(
    "call",
    [
        lambda c, code: noise.run_monte_carlo(c, NOISE, 8, "X", code=code),
        lambda c, code: noise.build_dem(c, NOISE, "X", code=code),
        lambda c, code: noise.expected_detection_series(c, NOISE, code=code, basis="X"),
    ],
    ids=["run_monte_carlo", "build_dem", "expected_detection_series"],
)
def test_a_circuit_of_the_other_basis_is_rejected(call):
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 3, basis="Z")
    with pytest.raises(ValueError, match="built for the Z basis"):
        call(circ, code)
    # a circuit that records no basis is taken at its word
    call(replace(circ, basis=None), code)


@pytest.mark.parametrize(
    "call",
    [
        lambda c, code, logicals: noise.run_monte_carlo(c, NOISE, 8, code=code, logicals=logicals),
        lambda c, code, logicals: noise.build_dem(c, NOISE, code=code, logicals=logicals),
    ],
    ids=["run_monte_carlo", "build_dem"],
)
@pytest.mark.parametrize(
    "logicals,message",
    [
        (LogicalOperatorSet(9, ((0,),), ((0,),)), "logicals act on 9 qubits, the code on 18"),
        # 18-6-3's set is not 18-4-4's: a Z logical meets an X check oddly
        (logical_operator_set_for(build_named_code("18-6-3")),
         r"Z logical \d+ has odd overlap with check X\d+"),
        (LogicalOperatorSet(18, ((0,),), ((0,),)), "Z logical 0 has odd overlap with check X"),
    ],
    ids=["short", "another-code", "single-qubit"],
)
def test_logicals_that_do_not_fit_the_code_are_rejected(call, logicals, message):
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    with pytest.raises(ValueError, match=message):
        call(circ, code, logicals)


def test_fault_enumeration_leaves_the_gc_state_as_it_was():
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 1)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            # reading a record makes them all, with GC paused
            assert noise.enumerate_fault_variants(circ, NOISE, code=code)[0]
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_fault_enumeration_resolves_no_logicals(monkeypatch):
    def refuse(code):
        raise AssertionError("logicals resolved")

    monkeypatch.setattr(noise, "logical_operator_set_for", refuse)
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    # read a record, so that making the records is covered too
    assert noise.enumerate_fault_variants(circ, NOISE, code=code)[0]


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_series_resolves_no_logicals(basis, monkeypatch):
    code = build_named_code("36-4-6")
    logicals = logical_operator_set_for(code)
    circ = build_syndrome_circuit(code, 3, basis=basis)

    def refuse(code):
        raise AssertionError("logicals resolved")

    monkeypatch.setattr(noise, "logical_operator_set_for", refuse)
    series = noise.expected_detection_series(circ, NOISE, code=code, basis=basis)
    given = noise.expected_detection_series(
        circ, NOISE, code=code, basis=basis, logicals=logicals
    )
    assert series.tobytes() == given.tobytes()


def test_a_code_with_no_logical_qubit_reaches_the_noise_layer():
    code = CssCode("k0", np.zeros((0, 2), int), np.array([[1, 0], [0, 1]]), (), (0, 1))
    circ = build_syndrome_circuit(code, 2)
    assert verify_circuit(circ, code).ok
    dem = noise.build_dem(circ, NOISE, code=code)
    assert dem.logical_count == 0 and dem.columns
    batch = noise.run_monte_carlo(circ, NOISE, 16, code=code)
    assert batch.logical_flips.shape == (16, 0)


CHECKS_OF_ONE_TYPE = {
    "rep3": CssCode("rep3", np.zeros((0, 3), int), np.array([[1, 1, 0], [0, 1, 1]]), (), (0, 1)),
    "k0": CssCode("k0", np.zeros((0, 2), int), np.array([[1, 0], [0, 1]]), (), (0, 1)),
}


@pytest.mark.parametrize("cid", sorted(CHECKS_OF_ONE_TYPE))
def test_a_basis_with_no_detectors_gets_a_dem_of_its_logicals(cid):
    """In the X basis a code with Z checks alone has D = 0: the DEM's one
    column flips the X logical (rep3, K = 1), and there is none at K = 0
    (k0); the sampler runs too."""
    code = CHECKS_OF_ONE_TYPE[cid]
    circ = build_syndrome_circuit(code, 2, basis="X")
    dem = noise.build_dem(circ, NOISE, "X", code=code)
    K = code.n - len(code.retained_z)
    assert (dem.detector_count, dem.logical_count) == (0, K)
    assert [col[1:] for col in dem.columns] == [((), (0,))] * K
    assert noise.parse_dem(noise.dem_to_text(dem)) == dem
    batch = noise.run_monte_carlo(circ, NOISE, 16, "X", code=code)
    assert batch.detector_matrix().shape == (16, 0) and batch.logical_flips.shape == (16, K)


@pytest.mark.parametrize("cid", sorted(CHECKS_OF_ONE_TYPE))
def test_the_series_names_the_missing_check_type(cid):
    code = CHECKS_OF_ONE_TYPE[cid]
    circ = build_syndrome_circuit(code, 2, basis="X")
    with pytest.raises(ValueError, match=f"^no X-type checks in code {cid}$"):
        noise.expected_detection_series(circ, NOISE, code=code, basis="X")
    with pytest.raises(ValueError, match="^no X-type checks"):
        noise.run_monte_carlo(circ, NOISE, 16, "X", code=code).cycle_series("X")


def test_empty_noise_model_gives_empty_dem_and_zero_series():
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    dem = noise.build_dem(circ, NoiseModel(), code=code)
    assert dem.columns == () and dem.detector_count == 3 * 7
    assert not noise.expected_detection_series(circ, NoiseModel(), code=code).any()


def _move_first_gate(circ, kind, qubit):
    """The circuit with the first gate of its first ``kind`` layer moved
    onto ``qubit``, or dropped if ``qubit`` is None."""
    i = next(i for i, layer in enumerate(circ.layers) if layer.kind == kind)
    (name, _), *rest = circ.layers[i].gates
    moved = () if qubit is None else ((name, (qubit,)),)
    layers = list(circ.layers)
    layers[i] = GateLayer(kind, (*moved, *rest))
    return replace(circ, layers=tuple(layers))


@pytest.mark.parametrize(
    "kind,qubit,message",
    [(READOUT_DATA, 19, "RD on qubit 19 .* not on a data qubit"),
     (MEASURE_CHECKS, 0, "M on qubit 0 .* not on a check qubit"),
     (READOUT_DATA, None, r"layer \d+ measures 17 of the 18 data qubits"),
     (MEASURE_CHECKS, None, r"layer \d+ measures \d+ of the \d+ check qubits")],
    ids=["readout-on-a-check", "measure-on-data", "readout-skips-one", "measure-skips-one"],
)
def test_a_miswired_measurement_is_rejected(kind, qubit, message):
    code = build_named_code("18-4-4-pruned")
    circ = _move_first_gate(build_syndrome_circuit(code, 1), kind, qubit)
    with pytest.raises(ValueError, match=message):
        noise.build_dem(circ, NOISE, code=code)
    with pytest.raises(ValueError, match=message):
        verify_circuit(circ, code)


# ---- one compiled program for the DEM-path readers ----


def _dem_path_readers(logicals):
    """The three readers that share ``noise._compiled``'s program, each to
    bytes: the records, the DEM text and the series."""
    return {
        "variants": lambda c, code, basis: repr(tuple(
            noise.enumerate_fault_variants(c, NOISE, code=code))).encode(),
        "dem": lambda c, code, basis: noise.dem_to_text(
            noise.build_dem(c, NOISE, basis, code=code, logicals=logicals)).encode(),
        "series": lambda c, code, basis: noise.expected_detection_series(
            c, NOISE, code=code, basis=basis, logicals=logicals).tobytes(),
    }


def _count_compiles(monkeypatch):
    """Spies on ``_Program`` and ``_fault_table``: the lists of programs
    made and of the programs that walked."""
    programs, walks = [], []
    program, fault_table = noise._Program, noise._fault_table

    def counted_program(*args):
        programs.append(program(*args))
        return programs[-1]

    def counted_walk(prog, *args):
        walks.append(prog)
        return fault_table(prog, *args)

    monkeypatch.setattr(noise, "_Program", counted_program)
    monkeypatch.setattr(noise, "_fault_table", counted_walk)
    return programs, walks


def test_the_dem_path_compiles_and_walks_once_per_basis(monkeypatch):
    """The benchmark's sequence: the fault list, the DEM and its text, then
    the series, on one circuit per basis."""
    code = build_named_code("36-4-6", trust_table_distance=True)
    logicals = logical_operator_set_for(code)
    programs, walks = _count_compiles(monkeypatch)
    for count, basis in enumerate(("Z", "X"), 1):
        circ = build_syndrome_circuit(code, 3, basis=basis)
        assert len(noise.enumerate_fault_variants(circ, NOISE, code=code))
        dem = noise.build_dem(circ, NOISE, basis, code=code, logicals=logicals)
        assert noise.parse_dem(noise.dem_to_text(dem)) == dem
        noise.expected_detection_series(circ, NOISE, code=code, basis=basis, logicals=logicals)
        assert len(programs) == len(walks) == count and walks[-1] is programs[-1]


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3"])
def test_the_dem_path_readers_agree_in_every_order(cid, basis):
    code = build_named_code(cid)
    circ = build_syndrome_circuit(code, 2, basis=basis)
    readers = _dem_path_readers(logical_operator_set_for(code))
    fresh = {name: read(replace(circ), code, basis) for name, read in readers.items()}
    for order in permutations(readers):
        shared = replace(circ)
        for name in order:
            assert readers[name](shared, code, basis) == fresh[name], (order, name)


def test_the_dem_follows_a_change_of_logicals():
    """L' adds one logical to another, a basis of the same space: the
    same columns, priors and detectors, other logical bits."""
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    given = logical_operator_set_for(code)

    def added(supports):
        return (tuple(sorted(set(supports[0]) ^ set(supports[1]))), *supports[1:])

    other = LogicalOperatorSet(code.n, added(given.x_supports), added(given.z_supports))
    dems = [noise.build_dem(circ, NOISE, code=code, logicals=L) for L in (given, other, given)]
    for dem, L in zip(dems, (given, other, given)):
        assert dem == noise.build_dem(replace(circ), NOISE, code=code, logicals=L)
    first, second = dems[0].columns, dems[1].columns
    assert [c.detectors for c in first] == [c.detectors for c in second]
    assert dems[0].probabilities.tobytes() == dems[1].probabilities.tobytes()
    assert [c.logicals for c in first] != [c.logicals for c in second]


def test_the_dem_follows_a_change_of_noise_model():
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    model = replace(NOISE, p_cz=2 * NOISE.p_cz)
    assert model is not NOISE
    dem = noise.build_dem(circ, NOISE, code=code)
    doubled = noise.build_dem(circ, model, code=code)
    assert doubled == noise.build_dem(replace(circ), model, code=code) and doubled != dem
    # an equal model is served by the program of the first
    assert noise.build_dem(circ, replace(NOISE), code=code) == dem


def test_a_shared_program_still_checks_each_new_triple():
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    noise.build_dem(circ, NOISE, code=code)
    with pytest.raises(ValueError, match="code layout needs"):
        noise.build_dem(circ, NOISE, code=build_named_code("18-6-3"))
    with pytest.raises(ValueError, match="built for the Z basis"):
        noise.expected_detection_series(circ, NOISE, code=code, basis="X")


def test_a_fault_list_outlives_later_calls():
    """A view holds its program: calls that replace the slot, or walk its
    program again, leave its records as they were."""
    code = build_named_code("18-6-3")
    circ = build_syndrome_circuit(code, 2)
    view = noise.enumerate_fault_variants(circ, NOISE, code=code)
    noise.build_dem(circ, NOISE, code=code)
    noise.expected_detection_series(circ, NOISE, code=code)
    noise.build_dem(circ, NoiseModel(p_m=0.1), code=code)
    noise.enumerate_fault_variants(build_syndrome_circuit(code, 3), NOISE, code=code)
    assert tuple(view) == tuple(noise.enumerate_fault_variants(replace(circ), NOISE, code=code))
    assert view._prog is not noise._slot and view._prog.walk is None  # out of the slot, no rows
    for column in view._var:
        assert not column.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        view._prog.slot_kind[0] = 0


def test_the_sampler_leaves_the_shared_program_as_it_found_it(monkeypatch):
    code = build_named_code("18-4-4-pruned")
    logicals = logical_operator_set_for(code)
    circ = build_syndrome_circuit(code, 2)
    alone = noise.run_monte_carlo(replace(circ), NOISE, 256, code=code, logicals=logicals)
    programs, walks = _count_compiles(monkeypatch)
    noise.build_dem(circ, NOISE, code=code, logicals=logicals)
    shared, walk = noise._slot, noise._slot.walk
    batch = noise.run_monte_carlo(circ, NOISE, 256, code=code, logicals=logicals)
    assert noise._slot is shared and shared.walk is walk and not walk[1].flags.writeable
    noise.expected_detection_series(circ, NOISE, code=code, logicals=logicals)
    assert walks.count(shared) == 1 and len(programs) == len(walks) == 2
    assert np.array_equal(batch.rows, alone.rows)


def test_threads_that_share_the_slot_get_their_own_programs_outputs():
    """The slot is module state: calls from several threads on different
    circuits and models each get the outputs of a fresh build."""
    code = build_named_code("18-4-4-pruned")
    cases = [(build_syndrome_circuit(code, t), model)
             for t in (1, 2) for model in (NOISE, NoiseModel(p_m=0.1, p_cz=0.01))]

    def outputs(circ, model):
        dem = noise.build_dem(circ, model, code=code)
        return noise.dem_to_text(dem), noise.expected_detection_series(circ, model, code=code)

    want = [outputs(replace(circ), model) for circ, model in cases]
    failures = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(15):
                i = rng.randrange(len(cases))
                text, series = outputs(*cases[i])
                if text != want[i][0] or series.tobytes() != want[i][1].tobytes():
                    failures.append(i)
        except Exception as exc:  # reported below, with the thread's case
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,))
                   for s in range(min(os.cpu_count() or 1, 8) + 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# ---- detector error model validation ----


def _dem_text(*columns, detectors=4, logicals=1):
    """DEM text with a header and one line per column (line 2 on)."""
    return "\n".join([f"detectors {detectors} logicals {logicals}", *columns]) + "\n"


def _arrays(*signatures, detectors=4, logicals=1):
    """Priors 0.1, 0.2, ... and packed signatures of (detectors, logicals)
    index tuples."""
    bits = np.zeros((len(signatures), detectors + logicals), dtype=np.uint8)
    for row, (dets, logs) in zip(bits, signatures):
        row[list(dets)] = 1
        row[[detectors + i for i in logs]] = 1
    return 0.1 * np.arange(1, len(signatures) + 1), gf2.pack_rows(bits)


@pytest.mark.parametrize(
    "detectors",
    [(99, 0), (3, 1), (-1,), (1, 1)],
    ids=["out-of-range-first", "decreasing", "negative", "duplicate"],
)
def test_dem_rejects_bad_detector_indices(detectors):
    line = " ".join(["0.1", *map(str, detectors), "|", "0"])
    with pytest.raises(ValueError, match=r"^line 3: detector indices"):
        noise.parse_dem(_dem_text("0.2 1 |", line))


@pytest.mark.parametrize("logicals", [(1,), (0, 0), (-1,)])
def test_dem_rejects_bad_logical_indices(logicals):
    line = " ".join(["0.1", "0", "|", *map(str, logicals)])
    with pytest.raises(ValueError, match=r"^line 2: logical indices"):
        noise.parse_dem(_dem_text(line))


def test_parse_dem_rejects_an_index_past_the_first():
    with pytest.raises(ValueError, match="detector indices"):
        noise.parse_dem("detectors 4 logicals 1\n0.1 99 0 | 0\n")


def test_parse_dem_rejects_an_index_past_int64():
    with pytest.raises(ValueError, match="detector indices"):
        noise.parse_dem("detectors 4 logicals 1\n0.1 99999999999999999999999 | 0\n")


@pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None])
@pytest.mark.parametrize("where", ["detectors", "logicals"])
def test_dem_rejects_indices_that_are_not_ints(index, where):
    # the token of a value that is not an int: 1.5, 1.0, True, '1', None
    dets, logs = (repr(index), "0") if where == "detectors" else ("0", repr(index))
    with pytest.raises(ValueError, match=f"^line 2: {where[:-1]} indices .*: need strictly"):
        noise.parse_dem(_dem_text(f"0.1 {dets} | {logs}", detectors=4, logicals=2))


@pytest.mark.parametrize("prior", [0.0, 1.0, -0.1, float("nan")])
def test_dem_rejects_a_prior_outside_the_open_interval(prior):
    with pytest.raises(ValueError, match=r"^line 3: probability .* outside \(0,1\)"):
        noise.parse_dem(_dem_text("0.1 0 |", f"{prior!r} 1 | 0"))
    p, s = _arrays(((0,), ()), ((1,), (0,)))
    p[1] = prior
    with pytest.raises(ValueError, match=r"^column 1: probability .* outside \(0,1\)"):
        DetectorErrorModel(4, 1, p, s)


def test_dem_rejects_a_repeated_signature():
    lines = ("0.1 0 2 | 0", "0.2 1 |", "", "0.3 0 2 | 0")
    message = r"^line 5: duplicate column signature \(\(0, 2\), \(0,\)\)"
    with pytest.raises(ValueError, match=message):
        noise.parse_dem(_dem_text(*lines))
    # the same detectors with other logicals is another column
    noise.parse_dem(_dem_text(*lines[:3], "0.3 0 2 |"))
    p, s = _arrays(((0, 2), (0,)), ((1,), ()), ((0, 2), (0,)))
    with pytest.raises(ValueError, match=r"^column 2: duplicate column signature"):
        DetectorErrorModel(4, 1, p, s)


def _first_bad_column(D, K, p, s):
    """The constructor's message for the first column that breaks a rule,
    or None, from a loop over the columns: a dict of the signatures seen
    finds a repeat, and each column's rules are checked in order."""
    first = {}
    for j, (prior, row) in enumerate(zip(p.tolist(), s.tolist())):
        repeat = first.setdefault(tuple(row), j) != j
        past = bool(row) and row[-1] >> (D + K - 1) % 64 + 1 != 0
        bits = [i for i in range(D + K) if row[i // 64] >> i % 64 & 1]
        signature = (tuple(i for i in bits if i < D), tuple(i - D for i in bits if i >= D))
        rules = [(not 0.0 < prior < 1.0, f"probability {p[j]} outside (0,1)"),
                 (past, f"a bit at or past D + K = {D + K}"),
                 (repeat, f"duplicate column signature {signature}")]
        for broken, rule in rules:
            if broken:
                return f"column {j}: {rule}"
    return None


@st.composite
def _dem_arrays(draw):
    """(D, K, priors, signatures): signatures picked from a small pool, so
    that repeats occur, most with no bit past D + K. In half the draws the
    picks are distinct, and in half every prior lies in (0, 1)."""
    n, total = draw(st.integers(0, 40)), draw(st.integers(0, 130))
    D = draw(st.integers(0, total))
    words = -(-total // 64)
    # a few bit positions, so that signatures often differ in one word only
    bit = st.integers(0, total - 1) | st.integers(0, 64 * words - 1)
    alphabet = draw(st.lists(bit, min_size=1, max_size=4)) if total else []
    sets = draw(st.lists(st.sets(st.sampled_from(alphabet)) if total else st.just(()), min_size=1,
                         max_size=8))
    packed = {sum(1 << i for i in bits) for bits in sets}
    pool = sorted(tuple(v >> 64 * w & (2**64 - 1) for w in range(words)) for v in packed)
    if draw(st.booleans()):  # distinct picks, as many as the pool holds
        rows = draw(st.permutations(pool))[:n]
    else:
        rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    prior = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if draw(st.booleans()):
        prior |= st.sampled_from([0.0, 1.0, -0.1, 1.5, float("nan")])
    p = np.array(draw(st.lists(prior, min_size=len(rows), max_size=len(rows))), dtype=float)
    s = np.array(rows, dtype=gf2.WORD).reshape(len(rows), words)
    return D, total - D, p, s


@given(_dem_arrays())
@settings(max_examples=200, deadline=None)
def test_dem_names_the_first_bad_column_as_a_column_loop_does(arrays):
    expected = _first_bad_column(*arrays)
    if expected is None:
        DetectorErrorModel(*arrays)
    else:
        with pytest.raises(ValueError) as info:
            DetectorErrorModel(*arrays)
        assert str(info.value) == expected


@pytest.mark.parametrize("counts", [(-1, 1), (4, -1)])
def test_dem_rejects_negative_counts(counts):
    with pytest.raises(ValueError, match="counts must be >= 0"):
        DetectorErrorModel(*counts, np.zeros(0), np.zeros((0, 1), dtype=gf2.WORD))
    with pytest.raises(ValueError, match="^line 2: bad header .*counts must be"):
        noise.parse_dem("\ndetectors {} logicals {}\n".format(*counts))


@pytest.mark.parametrize(
    "lines,message",
    [
        # two bad lines: the first one is named
        (("0.1 3 1 |", "2.0 0 |"), "line 2: detector indices"),
        (("0.1 0 | 0 0", "0.2 9 |"), "line 2: logical indices"),
        # a line that breaks an array rule above a line whose tokens are
        # bad, and the other way round
        (("1.5 0 |", "0.2 9 | 5"), r"line 2: probability 1.5 outside \(0,1\)"),
        (("0.1 0 |", "0.2 9 | 5"), "line 3: detector indices"),
        (("0.1 0 | 0", "0.2 1 | 5", "0.3 0 | 0"), "line 3: logical indices"),
        (("0.1 0 | 0", "0.3 0 | 0", "0.2 1 | 5"), r"line 3: duplicate column signature"),
        # one line breaking two array rules: the prior comes first
        (("0.1 0 |", "1.5 0 |"), r"line 3: probability"),
    ],
    ids=["first-of-two-detectors", "first-of-two-logicals", "prior-first",
         "detectors-before-logicals", "logicals-before-duplicate",
         "duplicate-before-logicals", "prior-before-duplicate"],
)
def test_dem_reports_the_first_fault(lines, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        noise.parse_dem(_dem_text(*lines))


@pytest.mark.parametrize(
    "line",
    ["'0.5' 0 |", "None 0 |", "0.5 '3' |", "(0.1,0.2) 0 |", "[0.1] 0 |", "1+0j 0 |",
     "0.5+0j 0 |", "0.5 +1 2 |", "0.5 -0 |", "0.5 1_0 |"],
    ids=["string-prior", "none-prior", "string-index", "tuple-prior", "list-prior",
         "complex-prior", "complex-prior-in-range", "signed-index", "negative-zero-index",
         "underscored-index"],
)
def test_dem_does_not_accept_columns_of_non_numbers(line):
    # int() reads "+1", "-0" and "1_0"; an index must be a decimal token
    with pytest.raises(ValueError, match="^line 3: "):
        noise.parse_dem(_dem_text("0.1 1 |", line, detectors=16))


@pytest.mark.parametrize(
    "change,message",
    [
        (dict(detector_count=True), "detector_count must be an integer"),
        (dict(logical_count=1.0), "logical_count must be an integer"),
        (dict(probabilities=np.array([1, 2], dtype=np.int64)), "float64 priors"),
        (dict(probabilities=np.array([[0.1], [0.2]])), "float64 priors"),
        (dict(probabilities=np.array([0.1, 0.2], dtype=np.float32)), "float64 priors"),
        (dict(probabilities=np.array([0.1 + 0j, 0.2])), "float64 priors"),
        (dict(signatures=np.zeros((2, 1), dtype=np.int64)), "uint64 signatures"),
        (dict(signatures=np.zeros((2, 2), dtype=gf2.WORD)), r"signatures \(2, 1\)"),
        (dict(signatures=np.zeros((3, 1), dtype=gf2.WORD)), r"signatures \(2, 1\)"),
        (dict(signatures=np.array([[1], [1 << 5]], dtype=gf2.WORD)),
         r"^column 1: a bit at or past D \+ K = 5"),
        (dict(signatures=np.array([[1], [1 << 63]], dtype=gf2.WORD)), "^column 1: a bit"),
    ],
    ids=["bool-count", "float-count", "int-priors", "2d-priors", "float32-priors",
         "complex-priors", "int-signatures", "too-wide", "too-many", "bit-past-the-logicals",
         "top-bit"],
)
def test_dem_rejects_arrays_of_the_wrong_form(change, message):
    p, s = _arrays(((0,), ()), ((1,), (0,)))
    fields = dict(detector_count=4, logical_count=1, probabilities=p, signatures=s) | change
    with pytest.raises(ValueError, match=message):
        DetectorErrorModel(**fields)


def test_dem_keeps_read_only_copies_and_compares_its_arrays():
    p, s = _arrays(((2, 3), ()), ((), (0,)), ((0, 1), (0,)))
    dem = DetectorErrorModel(4, 1, p, s)
    p[0], s[0] = 0.5, 0
    assert dem.probabilities[0] == 0.1 and dem.signatures[0, 0] == 0b1100
    for array in (dem.probabilities, dem.signatures):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert dem.columns == (
        DemColumn(0.1, (2, 3), ()), DemColumn(0.2, (), (0,)), DemColumn(p[2], (0, 1), (0,))
    )
    same = DetectorErrorModel(4, 1, *_arrays(((2, 3), ()), ((), (0,)), ((0, 1), (0,))))
    assert same == dem and not same != dem
    assert dem != DetectorErrorModel(5, 1, *_arrays(((2, 3), ()), ((), (0,)), ((0, 1), (0,)),
                                                      detectors=5))
    assert dem != replace(dem, probabilities=dem.probabilities * 0.5)
    assert dem != DetectorErrorModel(4, 1, *_arrays(((2, 3), ()), ((), (0,)), ((0,), (0,))))
    assert dem != "dem"
    with pytest.raises(TypeError):
        hash(dem)


def test_dem_equality_copies_no_array(monkeypatch):
    """``==`` compares the four fields in place: ``dataclasses.astuple``
    would deep-copy both arrays of both sides."""

    def refuse(*args, **kwargs):
        raise AssertionError("copy.deepcopy was called")

    p, s = _arrays(((2, 3), ()), ((), (0,)))
    dem, same = DetectorErrorModel(4, 1, p, s), DetectorErrorModel(4, 1, p, s)
    monkeypatch.setattr(copy, "deepcopy", refuse)
    assert dem == same and dem != replace(dem, logical_count=2, signatures=s)


def test_dem_accepts_valid_columns_without_the_column_loop(monkeypatch):
    """Building, writing and checking a DEM make no ``DemColumn``: only
    the ``columns`` view does, and it reads the arrays."""

    def refuse(*args):
        raise AssertionError("a DemColumn was made")

    code = build_named_code("18-6-3")
    circ = build_syndrome_circuit(code, 2)
    expected = noise.build_dem(circ, NOISE, code=code).columns
    monkeypatch.setattr(bbqec.dem, "DemColumn", refuse)
    dem = noise.build_dem(circ, NOISE, code=code)
    assert noise.parse_dem(noise.dem_to_text(dem)) == dem
    monkeypatch.undo()
    assert dem.columns == expected


SPARSE = replace(NOISE, p_h=0.0, p_dd_z=0.0)


@pytest.mark.parametrize(
    "model",
    [NoiseModel.device_rates(idle_policy=p) for p in noise.IDLE_POLICIES] + [SPARSE],
    ids=list(noise.IDLE_POLICIES) + ["sparse"],
)
@pytest.mark.parametrize("basis", ["Z", "X"])
def test_dem_columns_match_a_dict_merge_of_the_table(basis, model):
    code = build_named_code("18-4-4-pruned")
    logicals = logical_operator_set_for(code)
    circ = build_syndrome_circuit(code, 2, basis=basis)
    prog = noise._Program(code, circ, basis, model)
    logical, rows = noise._fault_rows(prog, logicals)
    D, K, var = prog.detector_count, len(logical), prog.variants
    bits = gf2.unpack_rows(rows, D + K)
    # signature -> {slot: prior summed in variant order}; dicts keep first
    # occurrence, and the slots of a signature come in slot order
    merged = {}
    for row, slot, p in zip(bits, var.slot.tolist(), var.probability.tolist()):
        sig = tuple(np.flatnonzero(row).tolist())
        if sig:
            slots = merged.setdefault(sig, {})
            slots[slot] = slots.get(slot, 0.0) + p

    def odd(slots):  # independent slots: the product in slot order
        survive = 1.0
        for q in slots.values():
            survive *= 1.0 - 2.0 * q
        return 0.5 * (1.0 - survive)

    expected = tuple(
        DemColumn(odd(slots), tuple(i for i in sig if i < D), tuple(i - D for i in sig if i >= D))
        for sig, slots in merged.items()
    )
    dem = noise.build_dem(circ, model, basis, code=code, logicals=logicals)
    assert dem.columns == expected
    assert [c.probability for c in dem.columns] == [c.probability for c in expected]


def test_dem_priors_stay_probabilities_at_high_rates():
    """Merged priors combine independent slots exactly, so even where a
    sum of priors would pass 1 each column stays in (0, 1)."""
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 3)
    dem = noise.build_dem(circ, NoiseModel.device_rates(suppression=20), code=code)
    assert dem.columns
    assert all(0.0 < col.probability < 1.0 for col in dem.columns)


def test_a_sure_fault_is_named_when_the_dem_rejects_its_prior():
    """At suppression 25 the measurement rate clamps to 1, so one column's
    prior is exactly 1; the error names the fault behind it."""
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 3)
    with pytest.raises(ValueError, match=r"column 88: .* a measure slot at layer 15 with prior 1\.0"):
        noise.build_dem(circ, NoiseModel.device_rates(suppression=25), code=code)
    dem = noise.build_dem(circ, NoiseModel.device_rates(suppression=24), code=code)
    assert len(dem.probabilities) == 242


def test_dem_priors_stay_below_a_half_when_every_slot_does():
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 3)
    model = NoiseModel.device_rates(suppression=10)
    var = noise._variants(noise._Program(code, circ, "Z", model))
    assert np.bincount(var.slot, weights=var.probability).max() < 0.5
    dem = noise.build_dem(circ, model, code=code)
    assert max(col.probability for col in dem.columns) < 0.5


# DEM columns that each added cycle brings
CYCLE_COLUMNS = {"18-4-4-pruned": 77, "18-6-3": 66, "36-4-6": 198}


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", sorted(CYCLE_COLUMNS))
def test_dem_is_periodic_in_the_cycles(cid, basis):
    """Away from the first and last cycles the DEM repeats: each added
    cycle adds the same number of columns, and the columns inside a
    two-cycle window of detectors, shifted to the window's start, are the
    same (priors exactly) wherever the window sits."""
    code = build_named_code(cid)
    logicals = logical_operator_set_for(code)
    dems = {
        t: noise.build_dem(build_syndrome_circuit(code, t, basis=basis), NOISE, basis,
                           code=code, logicals=logicals)
        for t in range(3, 8)
    }
    counts = [len(dems[t].columns) for t in range(3, 8)]
    assert np.diff(counts).tolist() == [CYCLE_COLUMNS[cid]] * 4
    A = dems[7].detector_count // 8  # aligned checks: t + 1 detector blocks

    def window(dem, c):
        lo, hi = c * A, (c + 2) * A
        return {
            (tuple(d - lo for d in col.detectors), col.logicals, col.probability)
            for col in dem.columns
            if col.detectors and lo <= col.detectors[0] and col.detectors[-1] < hi
        }

    middle = window(dems[7], 2)
    assert middle
    for dem, c in ((dems[7], 3), (dems[7], 4), (dems[5], 2)):
        assert window(dem, c) == middle


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_dense_matches_a_column_loop(basis):
    code = build_named_code("36-4-6")
    circ = build_syndrome_circuit(code, 2, basis=basis)
    dem = noise.build_dem(circ, NOISE, basis, code=code)
    n = len(dem.columns)
    d = np.zeros((dem.detector_count, n), dtype=np.uint8)
    l = np.zeros((dem.logical_count, n), dtype=np.uint8)
    for j, col in enumerate(dem.columns):
        d[list(col.detectors), j] = 1
        l[list(col.logicals), j] = 1
    bits = gf2.unpack_rows(dem.signatures, dem.detector_count + dem.logical_count)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits.T, np.vstack([d, l]))
    assert dem.probabilities.tolist() == [col.probability for col in dem.columns]


def test_collisions_group_columns_by_detectors():
    # equal detectors with unequal logicals form one group, in signature order
    dem = noise.parse_dem(_dem_text("0.1 3 | 0", "0.2 0 2 | 0", "0.3 1 |", "0.4 0 2 |", "0.1 3 |"))
    assert dem.collisions() == [(1, 3), (0, 4)]
    # an undetectable column collides with no fault at all if it flips a
    # logical
    assert noise.parse_dem(_dem_text("0.1 1 |", "0.2 | 0")).collisions() == [(1,)]
    assert noise.parse_dem(_dem_text("0.1 1 | 0", "0.2 |")).collisions() == []
    assert noise.parse_dem(_dem_text("0.1 1 |", "0.2 | 0", "0.3 |")).collisions() == [(1, 2)]


@pytest.mark.parametrize("t", [1, 3, 7])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "36-4-6"])
def test_built_dems_have_no_collisions(cid, basis, t):
    """Every single-fault signature has one logical effect, as the
    pinned CZ arrangements are chosen to give."""
    code = build_named_code(cid)
    circ = build_syndrome_circuit(code, t, basis=basis)
    dem = noise.build_dem(circ, NOISE, basis, code=code)
    assert dem.columns and dem.collisions() == []
    # no signature has a bit at or past D + K, and the text holds them
    bits = gf2.unpack_rows(dem.signatures, dem.detector_count + dem.logical_count)
    assert np.array_equal(dem.signatures, gf2.pack_rows(bits))
    assert noise.parse_dem(noise.dem_to_text(dem)) == dem


def test_detector_matrix_is_cycle_major_then_final():
    """Random packed rows read in the bit order of ``noise._output_map``:
    the memory-basis detections cycle-major, their final comparisons, the
    logicals, then the other checks' detections cycle-major."""
    rng = np.random.default_rng(4)
    t, shots, K, labels = 3, 5, 2, ("X0", "X1", "Z0", "Z1", "Z2")
    for basis, aligned in (("Z", (2, 3, 4)), ("X", (0, 1))):
        other = [c for c in range(len(labels)) if c not in aligned]
        A, O = len(aligned), len(other)
        D = (t + 1) * A
        bits = rng.integers(0, 2, (shots, t * len(labels) + A + K), dtype=np.uint8)
        rows = gf2.pack_rows(bits)
        batch = noise.ShotBatch(basis, t, labels, K, rows)
        rows[:] = 0  # the batch keeps its own read-only copy
        assert not batch.rows.flags.writeable and batch.detector_matrix().any()
        assert batch.aligned_columns == aligned and batch.shots == shots
        got = batch.detector_matrix()
        assert np.array_equal(got, bits[:, :D])
        for c in range(t):
            for a, col in enumerate(aligned):
                assert np.array_equal(got[:, c * A + a], batch.detections[:, c, col])
            for o, col in enumerate(other):
                assert np.array_equal(batch.detections[:, c, col], bits[:, D + K + c * O + o])
        for a in range(A):
            assert np.array_equal(got[:, t * A + a], batch.final_syndrome[:, a])
        assert np.array_equal(batch.logical_flips, bits[:, D : D + K])


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_detector_matrix_rows_of_single_faults_are_dem_columns(basis):
    """A shot of a single fault (its row of the sampler's table) is in the
    DEM's form: its leading D + K bits, masked, are a signature word for
    word."""
    code = build_named_code("18-4-4-pruned")
    logicals = logical_operator_set_for(code)
    circ = build_syndrome_circuit(code, 3, basis=basis)
    dem = noise.build_dem(circ, NOISE, basis, code=code, logicals=logicals)
    prog = noise._Program(code, circ, basis, NOISE)
    logical = prog.logical_mat(logicals)
    table = noise._fault_table(prog, prog.variants, noise._output_map(prog, logical))
    picked = np.random.default_rng(6).choice(len(table), 60, replace=False)
    batch = noise.ShotBatch(basis, prog.t, prog.check_labels, len(logical), table[picked])
    bits = dem.detector_count + dem.logical_count
    lead = batch.rows[:, : dem.signatures.shape[1]].copy()
    assert bits % 64 and lead.shape[1] == 1  # so the mask clears bits of the other checks
    lead[:, -1] &= np.uint64((1 << bits % 64) - 1)
    fired = lead[(lead != 0).any(axis=1)]
    assert len(fired) > len(picked) // 2
    assert (fired[:, None, :] == dem.signatures[None]).all(axis=2).any(axis=1).all()


def _per_cycle_series(batch, kind):
    """``ShotBatch.cycle_series`` as it was first written: per cycle, one
    gather of the kind's check columns and one ``mean``."""
    cols = [i for i, lab in enumerate(batch.check_labels) if lab[0] == kind]
    aligned = kind == batch.basis
    series = [batch.detections[:, c, cols].mean() for c in range(0 if aligned else 1, batch.cycles)]
    if aligned:
        series.append(batch.final_syndrome.mean())
    return np.array(series)


@pytest.mark.parametrize("kind", ["Z", "X"])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "rep3"])
def test_cycle_series_is_the_per_cycle_mean(cid, basis, kind):
    code = CHECKS_OF_ONE_TYPE[cid] if cid in CHECKS_OF_ONE_TYPE else build_named_code(cid)
    circ = build_syndrome_circuit(code, 4, basis=basis)
    batch = noise.run_monte_carlo(circ, NOISE, 300, basis, code=code, master_seed=8)
    if not any(lab[0] == kind for lab in batch.check_labels):  # rep3 has Z checks alone
        with pytest.raises(ValueError, match=f"^no {kind}-type checks in this batch$"):
            batch.cycle_series(kind)
        return
    got, want = batch.cycle_series(kind), _per_cycle_series(batch, kind)
    assert got.shape == want.shape == (5 if kind == basis else 3,) and got.dtype == want.dtype
    assert (got == want).all() and got.all(), (got, want)


def _shot_batch(**fields):
    """A valid batch's fields with ``fields`` replaced: t = 2, checks X0 Z0
    Z1, Z basis, K = 1, so the width is 2 x 3 + 2 + 1 = 9 bits."""
    valid = dict(basis="Z", cycles=2, check_labels=("X0", "Z0", "Z1"), logical_count=1,
                 rows=np.full((4, 1), 2**9 - 1, dtype=gf2.WORD))
    return noise.ShotBatch(**{**valid, **fields})


@pytest.mark.parametrize(
    "field,value,match",
    [("basis", "Y", r"^basis='Y' is not Z or X$"), ("basis", None, "^basis=None"),
     ("check_labels", ("Z0", "X0", "Z1"), "are not X checks, then Z checks$"),
     ("check_labels", ("X0", "", "Z1"), "are not X checks"),
     ("check_labels", ("X0", 7, "Z1"), "are not X checks"),
     ("cycles", 0, "^cycles=0 is not >= 1$"), ("cycles", 2.0, "^cycles must be an integer"),
     ("cycles", True, "^cycles must be an integer"),
     ("logical_count", -1, "^logical_count=-1 is not >= 0$"),
     ("logical_count", "1", "^logical_count must be an integer"),
     ("rows", np.zeros((4, 1), dtype=np.int64), r"^need 2-D uint64 rows .* got int64 \(4, 1\)$"),
     ("rows", np.zeros(4, dtype=gf2.WORD), r"got uint64 \(4,\)$"),
     ("rows", np.zeros((4, 2), dtype=gf2.WORD), r"of ceil\(9 / 64\) words, got uint64 \(4, 2\)"),
     ("rows", [[0]], "got int64"),
     ("rows", np.full((4, 1), 2**9, dtype=gf2.WORD), "^a row has a bit at or past the width 9$"),
     ("rows", np.full((4, 1), 2**63, dtype=gf2.WORD), "bit at or past the width 9$")],
    ids=["basis", "basis-none", "labels-order", "labels-empty", "labels-int", "cycles-0",
         "cycles-float", "cycles-bool", "logicals-negative", "logicals-str", "rows-dtype",
         "rows-1d", "rows-words", "rows-list", "rows-bit-at-width", "rows-last-bit"],
)
def test_shot_batch_names_the_rule_a_field_breaks(field, value, match):
    assert _shot_batch().logical_flips.all()  # the valid fields pass
    with pytest.raises(ValueError, match=match):
        _shot_batch(**{field: value})


def test_dem_text_round_trips():
    text = "detectors 4 logicals 1\n0.1 0 3 | 0\n0.2 1 2 |\n"
    dem = noise.parse_dem(text)
    assert noise.dem_to_text(dem) == text
    assert gf2.unpack_rows(dem.signatures, 4 + 1).tolist() == [[1, 0, 0, 1, 1], [0, 1, 1, 0, 0]]
    assert dem.probabilities.tolist() == [0.1, 0.2]
    # the benchmark calls them through noise
    assert noise.dem_to_text is bbqec.dem.dem_to_text and noise.parse_dem is bbqec.dem.parse_dem
