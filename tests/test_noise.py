"""Noise engine: fault-effect table, sampler and detector error models."""

import random
from dataclasses import replace

import numpy as np
import pytest

from bbqec import noise
from bbqec.circuit import (
    CZ,
    MEASURE_CHECKS,
    READOUT_DATA,
    SINGLE_QUBIT,
    build_syndrome_circuit,
    qubit_layout,
)
from bbqec.codes import build_named_code, logical_operator_set_for
from bbqec.noise import DemColumn, DetectorErrorModel, NoiseModel
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
    layout = qubit_layout(code)
    anc = list(layout.check_qubits)
    if fault is not None and fault.measurement_flip is not None:
        cyc, col = fault.measurement_flip
        cycles[cyc][anc[col]] ^= 1
    if fault is not None and fault.readout_flip is not None:
        readout[fault.readout_flip] ^= 1
    if basis == "Z":
        aligned = list(layout.z_check_qubits)
        support = code.retained_h_z().bits
        logical = logicals.z_matrix().bits
    else:
        aligned = list(layout.x_check_qubits)
        support = code.retained_h_x().bits
        logical = logicals.x_matrix().bits
    t = len(cycles)
    m = np.array([[cycles[c][q] for q in aligned] for c in range(t)], dtype=np.uint8)
    det = m.copy()
    det[2:] ^= m[:-2]
    rd = np.array([readout[q] for q in range(code.n)], dtype=np.uint8)
    final = (support.astype(int) @ rd) % 2 ^ m[-1]
    if t >= 2:
        final ^= m[-2]
    return det, final.astype(np.uint8), ((logical.astype(int) @ rd) % 2).astype(np.uint8)


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
        of_kind = [v for v in variants if v.kind == kind]
        assert of_kind, kind
        picked += [of_kind[i] for i in rng.choice(len(of_kind), 3, replace=False)]
    coin_seed = 11
    clean = _memory_outputs(code, logicals, basis, *_tableau_run(circ, None, coin_seed), None)
    assert not any(a.any() for a in clean[:2]), "noiseless detectors fire"
    layout = qubit_layout(code)
    check_qubits = list(layout.check_qubits)
    aligned_cols = [
        check_qubits.index(q)
        for q in (layout.z_check_qubits if basis == "Z" else layout.x_check_qubits)
    ]
    for v in picked:
        faulty = _memory_outputs(
            code, logicals, basis, *_tableau_run(circ, v, coin_seed), v
        )
        rec = noise.sample_shot(
            circ, NOISE, 0, code=code, basis=basis, logicals=logicals, forced_fault=v
        )
        assert np.array_equal(faulty[0] ^ clean[0], rec.detections[:, aligned_cols]), v
        assert np.array_equal(faulty[1] ^ clean[1], rec.final_syndrome), v
        assert np.array_equal(faulty[2] ^ clean[2], rec.logical_flips), v


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_table_rows_match_single_fault_lookups(basis):
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2, basis=basis)
    model = NoiseModel.device_rates(idle_policy="dense")
    prog = noise._Program(code, circ, basis, idle_policy=model.idle_policy)
    rows, slot, prob = noise._fault_table(prog, model, noise._raw_map(prog))
    variants = noise.enumerate_fault_variants(circ, model, code=code)
    assert len(rows) == len(variants)
    assert slot.tolist() == [v.slot for v in variants]
    assert prob.tolist() == [v.probability for v in variants]
    for row, v in zip(rows, variants):
        assert np.array_equal(row, noise._fault_row(prog, v)), v


@pytest.mark.parametrize(
    "fields",
    [
        dict(layer=10**6, x_qubits=(0,)),
        dict(layer=0, x_qubits=(999,)),
        dict(layer=0, measurement_flip=(5, 0)),
        dict(layer=0, measurement_flip=(0, 14)),
        dict(layer=0, readout_flip=18),
    ],
    ids=["layer", "qubit", "cycle", "check", "readout"],
)
def test_forced_fault_outside_the_circuit_is_rejected(fields):
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 1)
    bad = noise.FaultVariant(slot=0, kind="idle", probability=0.1, **fields)
    with pytest.raises(ValueError, match="outside"):
        noise.sample_shot(circ, NOISE, 0, code=code, forced_fault=bad)


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
    """Shot i depends only on (master seed, i): not on the batch size, and
    sample_shot with derive_shot_seed(seed, i) reproduces it."""
    code = build_named_code("18-6-3")
    circ = build_syndrome_circuit(code, 3, basis="X")
    model = NoiseModel.device_rates(suppression=3.0)

    def run(**kw):
        return noise.run_monte_carlo(circ, model, 50, "X", code=code, master_seed=9, **kw)

    batch = run()
    assert batch.detections.sum() == 726
    fields = ("detections", "final_syndrome", "logical_flips")
    for size in (1, 7):
        other = run(batch_size=size)
        for f in fields:
            assert np.array_equal(getattr(other, f), getattr(batch, f)), (size, f)
    for i in (0, 17, 49):
        shot = noise.sample_shot(
            circ, model, noise.derive_shot_seed(9, i), code=code, basis="X"
        )
        expected = batch.record(i)
        for f in fields:
            assert np.array_equal(getattr(shot, f), getattr(expected, f)), (i, f)


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


def test_rate_one_flips_every_slot():
    code = build_named_code("18-6-3")
    circ = build_syndrome_circuit(code, 3)
    prog = noise._Program(code, circ)
    keys = noise._derive_keys(3, 0, 64)
    dm, rd = noise._sampler(prog, NoiseModel(p_m=1.0))(keys)
    assert dm.all() and not rd.any()
    dm, rd = noise._sampler(prog, NoiseModel(p_m=1.0, p_f=1.0))(keys)
    assert dm.all() and rd.all()


@pytest.mark.parametrize(
    "call",
    [
        lambda c, code: noise.run_monte_carlo(c, NOISE, 8, "X", code=code),
        lambda c, code: noise.build_dem(c, NOISE, "X", code=code),
        lambda c, code: noise.expected_detection_series(c, NOISE, code=code, basis="X"),
        lambda c, code: noise.sample_shot(c, NOISE, 0, code=code, basis="X"),
    ],
    ids=["run_monte_carlo", "build_dem", "expected_detection_series", "sample_shot"],
)
def test_a_circuit_of_the_other_basis_is_rejected(call):
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 3, basis="Z")
    with pytest.raises(ValueError, match="built for the Z basis"):
        call(circ, code)
    # a circuit that records no basis is taken at its word
    call(replace(circ, basis=None), code)


def test_fault_enumeration_resolves_no_logicals(monkeypatch):
    def refuse(code):
        raise AssertionError("logicals resolved")

    monkeypatch.setattr(noise, "logical_operator_set_for", refuse)
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    assert noise.enumerate_fault_variants(circ, NOISE, code=code)


def test_empty_noise_model_gives_empty_dem_and_zero_series():
    code = build_named_code("18-4-4-pruned")
    circ = build_syndrome_circuit(code, 2)
    dem = noise.build_dem(circ, NoiseModel(), code=code)
    assert dem.columns == () and dem.detector_count == 3 * 7
    assert not noise.expected_detection_series(circ, NoiseModel(), code=code).any()


# ---- detector error model validation ----


@pytest.mark.parametrize(
    "detectors",
    [(99, 0), (3, 1), (-1,), (1, 1)],
    ids=["out-of-range-first", "decreasing", "negative", "duplicate"],
)
def test_dem_rejects_bad_detector_indices(detectors):
    with pytest.raises(ValueError, match="detector indices"):
        DetectorErrorModel(4, 1, (DemColumn(0.1, detectors, (0,)),))


@pytest.mark.parametrize("logicals", [(1,), (0, 0), (-1,)])
def test_dem_rejects_bad_logical_indices(logicals):
    with pytest.raises(ValueError, match="logical indices"):
        DetectorErrorModel(4, 1, (DemColumn(0.1, (0,), logicals),))


def test_parse_dem_rejects_an_index_past_the_first():
    with pytest.raises(ValueError, match="detector indices"):
        noise.parse_dem("detectors 4 logicals 1\n0.1 99 0 | 0\n")


def test_dem_text_round_trips():
    text = "detectors 4 logicals 1\n0.1 0 3 | 0\n0.2 1 2 |\n"
    dem = noise.parse_dem(text)
    assert noise.dem_to_text(dem) == text
    d, l, p = dem.dense()
    assert d.tolist() == [[1, 0], [0, 1], [0, 1], [1, 0]]
    assert l.tolist() == [[1, 0]]
    assert p.tolist() == [0.1, 0.2]
