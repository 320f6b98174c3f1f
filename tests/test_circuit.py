"""Circuit generation: scheduling, compilation, verification."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

from bbqec import circuit, gf2
from bbqec.codes import CODE_TABLE, BbCodeSpec, CssCode, build_bb_code, build_named_code
from bbqec.tableau import StabilizerTableau


def _edge_set(code):
    edges = set()
    for r in code.retained_x:
        for d in np.flatnonzero(code.h_x[r]):
            edges.add(("X", r, int(d)))
    for r in code.retained_z:
        for d in np.flatnonzero(code.h_z[r]):
            edges.add(("Z", r, int(d)))
    return edges


# ---- scheduling ----


@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "36-4-6"])
def test_schedule_covers_every_edge_exactly_once(cid):
    code = build_named_code(cid)
    sched = circuit.schedule_cz_layers(code)
    assert len(sched.layers) == 7
    seen = []
    for layer in sched.layers:
        used = set()
        for typ, row, d in layer:
            assert (typ, row) not in used, "ancilla used twice in a layer"
            assert ("data", d) not in used, "data qubit used twice in a layer"
            used.add((typ, row))
            used.add(("data", d))
        seen.extend(layer)
    assert len(seen) == len(set(seen))
    assert set(seen) == _edge_set(code)


@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "36-4-6"])
def test_schedule_satisfies_even_crossing_rule(cid):
    # Re-derive the commutation requirement from the schedule's output
    # alone: every retained X/Z pair must cross an even number of times,
    # a crossing being a shared data qubit whose X-side CZ layer precedes
    # its Z-side CZ layer.
    code = build_named_code(cid)
    sched = circuit.schedule_cz_layers(code)
    round_of = {}
    for r, layer in enumerate(sched.layers, start=1):
        for edge in layer:
            round_of[edge] = r
    for x in code.retained_x:
        sup_x = set(np.flatnonzero(code.h_x[x]))
        for z in code.retained_z:
            sup_z = set(np.flatnonzero(code.h_z[z]))
            crossings = sum(
                1
                for d in sup_x & sup_z
                if round_of[("X", x, int(d))] < round_of[("Z", z, int(d))]
            )
            assert crossings % 2 == 0, (x, z)


def test_schedule_is_deterministic():
    code = build_named_code("18-4-4-pruned")
    assert circuit.schedule_cz_layers(code) == circuit.schedule_cz_layers(code)


@pytest.mark.parametrize("cid", ["18-4-4", "18-4-4-pruned"])
def test_18_qubit_codes_get_the_swept_assignment(cid):
    sched = circuit.schedule_cz_layers(build_named_code(cid))
    assert sched.term_rounds == (
        ("A", (5, 2, 1)),
        ("B", (3, 6, 4)),
        ("BT", (4, 3, 6)),
        ("AT", (1, 5, 7)),
    )


@pytest.mark.parametrize("cid", ["18-6-3", "36-4-6", "144-12-12"])
def test_unpinned_codes_fall_back_to_the_inventory_arrangement(cid):
    sched = circuit.schedule_cz_layers(build_named_code(cid))
    assert sched.term_rounds == (
        ("A", (6, 2, 7)),
        ("B", (3, 4, 5)),
        ("BT", (3, 4, 5)),
        ("AT", (1, 6, 2)),
    )


def test_explicit_arrangement_must_commute():
    code = build_named_code("18-4-4-pruned")
    bad = ((1, 2, 3), (4, 5, 6), (4, 5, 6), (1, 2, 3))
    with pytest.raises(circuit.ScheduleError):
        circuit.schedule_cz_layers(code, arrangement=bad)
    good = ((5, 2, 1), (3, 6, 4), (4, 3, 6), (1, 5, 7))
    assert (
        circuit.schedule_cz_layers(code, arrangement=good)
        == circuit.schedule_cz_layers(code)
    )


PINNED = ((5, 2, 1), (3, 6, 4), (4, 3, 6), (1, 5, 7))
MALFORMED = pytest.mark.parametrize(
    "bad, group",
    [
        (((1, 2, 4), (3, 5, 0), (5, 3, 7), (6, 4, 1)), "group B"),  # round 0, read as round 7
        (((1, 2, 4), (3, 5, 6), (5, 3, 8), (6, 4, 1)), "group BT"),
        (((1, 2), (3, 5, 6), (5, 3, 7), (6, 4, 1)), "group A"),
        (((1, 2, 4), (3, 5, 6), (5, 3, 7.0), (6, 4, 1)), "group BT"),
        (((1, 2, 4), (3, 5, 6), (5, 3, 7)), "four round groups"),
        (((5, 2, 1), (3, 6, 4), (4, 3, 6), (True, 5, 7)), "group AT"),
    ],
    ids=["round-0", "round-8", "two-rounds", "float-round", "three-groups", "bool-round"],
)


@MALFORMED
def test_a_malformed_arrangement_is_rejected_naming_its_group(bad, group):
    code = build_named_code("18-4-4")
    with pytest.raises(ValueError, match=group):
        circuit.schedule_cz_layers(code, arrangement=bad)


@MALFORMED
def test_the_commutation_predicate_rejects_a_malformed_arrangement(bad, group):
    commutes = circuit.arrangement_commutes(build_named_code("18-4-4"))
    with pytest.raises(ValueError, match=group):
        commutes(*bad)


@pytest.mark.parametrize(
    "bad, groups",
    [
        # commutes on 18-4-4, so only the input rule stops it
        (((7, 4, 3), (4, 3, 7), (6, 2, 1), (3, 5, 1)), r"groups A and B share rounds \[3, 4, 7\]"),
        (((6, 2, 7), (3, 4, 5), (3, 4, 1), (1, 6, 2)), r"groups BT and AT share rounds \[1\]"),
        (((6, 2, 7), (3, 4, 5), (3, 4, 7), (1, 6, 2)), r"groups A and BT share rounds \[7\]"),
        (((6, 2, 7), (3, 4, 1), (3, 4, 5), (1, 6, 2)), r"groups B and AT share rounds \[1\]"),
        (((6, 2, 6), (3, 4, 5), (3, 4, 5), (1, 7, 2)), "group A repeats a round"),
    ],
    ids=["A-B", "BT-AT", "A-BT", "B-AT", "repeated-round"],
)
def test_a_colliding_arrangement_is_rejected_naming_its_groups(bad, groups):
    code = build_named_code("18-4-4")
    with pytest.raises(ValueError, match=groups):
        circuit.schedule_cz_layers(code, arrangement=bad)
    with pytest.raises(ValueError, match=groups):
        circuit.arrangement_commutes(code)(*bad)


def test_arrangements_are_the_placements_the_input_rules_accept():
    wanted = {PINNED, circuit._INVENTORY_ASSIGNMENT}
    found = set()
    for count, rounds in enumerate(circuit.arrangements(), 1):
        if rounds in wanted:
            found.add(rounds)
        if count % 97 == 0:  # 13,093 of them
            assert circuit._arrangement_rounds(rounds) == rounds
    assert count == 1_270_080
    assert found == wanted


def test_the_inventory_arrangement_commutes_on_every_two_block_code():
    # its X-before-Z crossings cancel in pairs, so no spec and no retained
    # subset of its checks needs another arrangement
    rng = np.random.default_rng(20)
    built = 0
    while built < 40:
        l, m = (int(v) for v in rng.integers(1, 6, size=2))
        terms = [("xy"[rng.integers(2)], int(rng.integers(0, 6))) for _ in range(6)]
        try:
            code = build_bb_code(BbCodeSpec(l, m, terms[:3], terms[3:]))
        except ValueError:  # a repeated monomial
            continue
        built += 1
        keep = lambda: tuple(np.flatnonzero(rng.random(code.half) < 0.7).tolist()) or (0,)
        code = replace(code, retained_x=keep(), retained_z=keep())
        sched = circuit.schedule_cz_layers(code)
        assert sched.term_rounds == tuple(zip(circuit._TERM_GROUPS, circuit._INVENTORY_ASSIGNMENT))
        circ = circuit.build_syndrome_circuit(code, 2)
        assert circuit.verify_circuit(circ, code, preparations=4).ok


def test_a_non_commuting_inventory_is_a_construction_bug(monkeypatch):
    monkeypatch.setattr(circuit, "_INVENTORY_ASSIGNMENT", ((1, 2, 3), (4, 5, 6), (4, 5, 6), (1, 2, 3)))
    with pytest.raises(AssertionError, match="construction bug"):
        circuit.schedule_cz_layers(build_named_code("18-6-3"))


def test_an_arrangement_of_numpy_ints_is_the_pinned_one():
    code = build_named_code("18-4-4")
    rounds = tuple(tuple(np.array(g, dtype=np.int64)) for g in PINNED)
    sched = circuit.schedule_cz_layers(code, arrangement=rounds)
    assert sched == circuit.schedule_cz_layers(code)
    assert all(type(r) is int for _, g in sched.term_rounds for r in g)


def test_arrangement_commutes_agrees_with_the_scheduler():
    code = build_named_code("18-4-4-pruned")
    commutes = circuit.arrangement_commutes(code)
    pinned = ((5, 2, 1), (3, 6, 4), (4, 3, 6), (1, 5, 7))
    bad = ((1, 2, 3), (4, 5, 6), (4, 5, 6), (1, 2, 3))
    assert commutes(*pinned)
    assert not commutes(*bad)
    # the pinned round sets with the terms reordered within each group
    rng = np.random.default_rng(3)
    shuffled = [
        tuple(tuple(rng.permutation(rounds).tolist()) for rounds in pinned)
        for _ in range(12)
    ]
    for arrangement in [pinned, bad, *shuffled]:
        try:
            circuit.schedule_cz_layers(code, arrangement=arrangement)
            scheduled = True
        except circuit.ScheduleError:
            scheduled = False
        assert scheduled == commutes(*arrangement), arrangement


def test_single_weight6_check_schedules_sequentially():
    one = CssCode(
        name="one-z-check",
        h_x=np.zeros((0, 6), dtype=np.uint8),
        h_z=np.array([[1, 1, 1, 1, 1, 1]]),
        retained_x=(),
        retained_z=(0,),
    )
    sched = circuit.schedule_cz_layers(one)
    assert [len(layer) for layer in sched.layers] == [1, 1, 1, 1, 1, 1, 0]
    circ = circuit.build_syndrome_circuit(one, 2)
    assert circuit.verify_circuit(circ, one, preparations=8).ok


def test_an_arrangement_for_checks_of_one_type_is_rejected():
    rep3 = CssCode("rep3", np.zeros((0, 3), int), np.array([[1, 1, 0], [0, 1, 1]]), (), (0, 1))
    with pytest.raises(ValueError, match="rep3 has checks of one type"):
        circuit.schedule_cz_layers(rep3, arrangement=PINNED)
    # the arrangement's own checks come first
    with pytest.raises(ValueError, match="group A repeats a round"):
        circuit.schedule_cz_layers(rep3, arrangement=((1, 1, 2),) + PINNED[1:])
    assert circuit.schedule_cz_layers(rep3).term_rounds is None


def test_schedule_rejects_plain_matrices_with_both_types():
    h = np.array([[1, 1, 1, 1, 1, 1]])
    code = CssCode(
        name="no-structure",
        h_x=h,
        h_z=h,
        retained_x=(0,),
        retained_z=(0,),
    )
    with pytest.raises(circuit.ScheduleError):
        circuit.schedule_cz_layers(code)


# ---- compiled circuit structure ----


def _inventory_schedule(code):
    """The arrangement of the published operation inventory."""
    return circuit.schedule_cz_layers(code, arrangement=circuit._INVENTORY_ASSIGNMENT)


def test_pruned_18_cycle_gate_counts():
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 3, schedule=_inventory_schedule(code))
    for c in range(3):
        assert circ.count_gates("CZ", cycle=c) == 84
        assert circ.count_gates("H", cycle=c) == 78
        assert circ.count_gates("M", cycle=c) == 14
        cz_layers = [L for L in circ.cycle_layers(c) if L.kind == circuit.CZ]
        assert len(cz_layers) == 7
    assert circ.count_gates("DD") == 18 * 2
    assert circ.count_gates("RD") == 18
    assert circ.layers[-1].kind == circuit.READOUT_DATA
    assert circ.cycles == 3


def test_pruned_18_default_build_gate_counts():
    # the swept production assignment trades the 78-gate inventory for
    # its fault-signature and boundary guarantees; CZ structure is fixed
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 3)
    for c in range(3):
        assert circ.count_gates("CZ", cycle=c) == 84
        assert circ.count_gates("H", cycle=c) == 86
        cz_layers = [L for L in circ.cycle_layers(c) if L.kind == circuit.CZ]
        assert len(cz_layers) == 7


def test_18_6_3_cycle_gate_counts():
    code = build_named_code("18-6-3")
    sched = circuit.schedule_cz_layers(code)
    circ = circuit.build_syndrome_circuit(code, 2, schedule=sched)
    assert circ.count_gates("CZ", cycle=0) == 72
    assert circ.count_gates("M", cycle=0) == 12

    # Independent single-qubit count: two gates per check plus two per
    # maximal X-engagement run of each data qubit.
    x_rounds = [[] for _ in range(code.n)]
    z_rounds = [[] for _ in range(code.n)]
    for r, layer in enumerate(sched.layers, start=1):
        for typ, row, d in layer:
            (x_rounds if typ == "X" else z_rounds)[d].append(r)
    expected = 2 * (len(code.retained_x) + len(code.retained_z))
    for d in range(code.n):
        prev = None
        for r in sorted(x_rounds[d]):
            if prev is None or any(prev < z < r for z in z_rounds[d]):
                expected += 2
            prev = r
    assert circ.count_gates("H", cycle=0) == expected == 72


def test_x_basis_reuses_steady_cycle_and_merges_prep():
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 4, basis="X", schedule=_inventory_schedule(code))
    assert circ.count_gates("H", cycle=1) == 78
    assert circ.count_gates("H", cycle=2) == 78
    # prep and readout cycles merge extra Hadamards, never duplicate them
    for c in (0, 3):
        layer0 = circ.cycle_layers(c)[0]
        qs = [q for _, (q,) in layer0.gates]
        assert len(qs) == len(set(qs))


def test_no_qubit_repeats_in_any_layer():
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 2, basis="X")
    for layer in circ.layers:
        flat = [q for _, qs in layer.gates for q in qs]
        assert len(flat) == len(set(flat))


def test_build_is_idempotent():
    code = build_named_code("18-6-3")
    a = circuit.build_syndrome_circuit(code, 3, basis="X")
    b = circuit.build_syndrome_circuit(code, 3, basis="X")
    assert a == b


@pytest.mark.parametrize(
    "cid, made_for, check",
    [("18-6-3", "18-4-4-pruned", "X5"), ("18-4-4-pruned", "18-6-3", "X5"),
     ("36-4-6", "18-4-4-pruned", "X0")],
)
def test_build_rejects_a_schedule_made_for_another_code(cid, made_for, check):
    sched = circuit.schedule_cz_layers(build_named_code(made_for))
    with pytest.raises(ValueError, match=f"CZs of check {check} are not"):
        circuit.build_syndrome_circuit(build_named_code(cid), 1, schedule=sched)


def test_build_rejects_a_spec_that_does_not_describe_the_checks():
    # the scheduler places CZs by the spec's term maps, not by h_x and h_z
    other = build_bb_code(BbCodeSpec.from_exponents(3, 3, (1, 1, 2), (2, 0, 1)))
    code = replace(build_named_code("18-4-4"), h_x=other.h_x, h_z=other.h_z)
    circuit.schedule_cz_layers(code)
    with pytest.raises(ValueError, match="CZs of check X0 are not"):
        circuit.build_syndrome_circuit(code, 1)


def _edit_first_layer(sched, edit):
    return circuit.CzSchedule((tuple(edit(list(sched.layers[0]))),) + sched.layers[1:])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: circuit.CzSchedule(s.layers[:6]), "has 7 layers, got 6"),
        (lambda s: _edit_first_layer(s, lambda L: [("Y", 0, 0)] + L), "'X' or 'Z'"),
        (lambda s: _edit_first_layer(s, lambda L: [("X", -1, 0)] + L), "'X' or 'Z'"),
        (lambda s: _edit_first_layer(s, lambda L: [("Z", 9, 0)] + L), "'X' or 'Z'"),
        (lambda s: _edit_first_layer(s, lambda L: [("X", 0, 18)] + L), "'X' or 'Z'"),
        (lambda s: _edit_first_layer(s, lambda L: [("X", 0, 1.0)] + L), "'X' or 'Z'"),
        (lambda s: _edit_first_layer(s, lambda L: [("X", "0", 1)] + L), "'X' or 'Z'"),
        (lambda s: _edit_first_layer(s, lambda L: L + L[:1]), "CZs of check X1 are not"),
    ],
    ids=["six-layers", "side", "negative-row", "row-past-end", "qubit-past-n", "float-qubit",
         "str-row", "repeated-edge"],
)
def test_build_rejects_a_malformed_schedule(edit, message):
    code = build_named_code("18-4-4-pruned")
    sched = circuit.schedule_cz_layers(code)
    assert sched.layers[0][0][:2] == ("X", 1)  # the repeated edge
    with pytest.raises(ValueError, match=message):
        circuit.build_syndrome_circuit(code, 1, schedule=edit(sched))


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_build_makes_each_distinct_layer_once(basis):
    c = circuit.build_syndrome_circuit(build_named_code("36-4-6"), 7, basis=basis)
    assert len({id(layer) for layer in c.layers}) == len(set(c.layers)) < len(c.layers)


# ---- functional verification ----


@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3"])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("t", [1, 3])
def test_verify_passes_on_generated_circuits(cid, basis, t):
    code = build_named_code(cid)
    circ = circuit.build_syndrome_circuit(code, t, basis=basis)
    report = circuit.verify_circuit(circ, code, basis=basis, preparations=10)
    assert report.ok, str(report)


def _per_gate_run(circ, tab):
    """Reference for ``circuit._run_layers``: the same run read from the
    circuit's layers, with one tableau call per gate and per
    measurement, and its outcomes in the same array form (measurement
    layers + readout, qubits, states)."""
    measuring = (circuit.MEASURE_CHECKS, circuit.READOUT_DATA)
    rows = sum(L.kind in measuring for L in circ.layers)
    out = np.zeros((rows, circ.qubit_count, tab.r.shape[1]), dtype=np.uint8)
    i = 0
    for L in circ.layers:
        if L.kind == circuit.SINGLE_QUBIT:
            for name, (q,) in L.gates:
                if name == "H":
                    tab.h(q)
        elif L.kind == circuit.CZ:
            for _, (a, b) in L.gates:
                tab.cz(a, b)
        elif L.kind in measuring:
            for _, (q,) in L.gates:
                out[i, q] = tab.measure(q)
            i += 1
    return out


def _run_outcomes(circ, tab):
    """Every measurement and readout outcome of one noiseless run, one
    row per (layer, qubit) of ``_per_gate_run``'s array (0 where the
    layer measures nothing)."""
    out = _per_gate_run(circ, tab)
    return out.reshape(-1, out.shape[2])


@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3"])
@pytest.mark.parametrize("basis", ["Z", "X"])
def test_batched_run_equals_single_state_runs(cid, basis):
    code = build_named_code(cid)
    circ = circuit.build_syndrome_circuit(code, 3, basis=basis)
    rng = np.random.default_rng(3)
    states = rng.integers(0, 2, size=(6, circ.qubit_count))
    coins = rng.integers(0, 2, size=(len(circ.layers) * circ.qubit_count, 6))
    drawn = iter(coins)
    together = _run_outcomes(
        circ, StabilizerTableau(circ.qubit_count, coin=lambda: next(drawn), states=states)
    )
    used = len(coins) - sum(1 for _ in drawn)
    assert used > 0  # some outcomes are random
    for b in range(len(states)):
        alone_coins = iter(coins[:used, b])
        alone = _run_outcomes(
            circ,
            StabilizerTableau(
                circ.qubit_count, coin=lambda: next(alone_coins), states=states[b : b + 1]
            ),
        )
        assert np.array_equal(alone[:, 0], together[:, b])
        assert next(alone_coins, None) is None


def _swap_cz_layers(circ):
    lo, hi = circ.cycle_layer_range(0)
    cz_at = [i for i in range(lo, hi) if circ.layers[i].kind == circuit.CZ]
    layers = list(circ.layers)
    # on 18-4-4-pruned: a left-block X round with a left-block Z round
    layers[cz_at[1]], layers[cz_at[2]] = layers[cz_at[2]], layers[cz_at[1]]
    return replace(circ, layers=tuple(layers))


def _drop_one_h(circ):
    layers = list(circ.layers)
    i = next(i for i, L in enumerate(layers) if sum(g == "H" for g, _ in L.gates) > 1)
    gates = list(layers[i].gates)
    gates.remove(next(g for g in gates if g[0] == "H"))
    layers[i] = circuit.GateLayer(circuit.SINGLE_QUBIT, tuple(gates))
    return replace(circ, layers=tuple(layers))


def _one_h_to_i(circ):
    layers = list(circ.layers)
    i = next(i for i, L in enumerate(layers) if sum(g == "H" for g, _ in L.gates) > 1)
    gates = list(layers[i].gates)
    gates[0] = ("I", gates[0][1])
    layers[i] = circuit.GateLayer(circuit.SINGLE_QUBIT, tuple(gates))
    return replace(circ, layers=tuple(layers))


@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "36-4-6"])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize(
    "mutate",
    [lambda c: c, _swap_cz_layers, _drop_one_h, _one_h_to_i],
    ids=["built", "swapped-cz", "no-h", "h-to-i"],
)
def test_verify_by_layer_equals_the_per_gate_loop(cid, basis, mutate, monkeypatch):
    code = build_named_code(cid)
    circ = mutate(circuit.build_syndrome_circuit(code, 3, basis=basis))
    runs = []

    def recorded(run):
        def record(table, tab):
            runs.append(run(table, tab))
            return runs[-1]

        return record

    reports = []
    # the reference reads the circuit's layers, not the gate table
    for run in (circuit._run_layers, lambda table, tab: _per_gate_run(circ, tab)):
        monkeypatch.setattr(circuit, "_run_layers", recorded(run))
        reports.append(
            circuit.verify_circuit(circ, code, basis=basis, max_failures=10**6)
        )
    assert reports[0] == reports[1]
    by_layer, by_gate = runs
    # every outcome of every qubit, and the same shape and dtype
    assert by_layer.dtype == by_gate.dtype == np.uint8
    assert np.array_equal(by_layer, by_gate)


def test_verify_truncates_after_whole_preparations():
    code = build_named_code("18-4-4-pruned")
    mutated = _swap_cz_layers(circuit.build_syndrome_circuit(code, 2))
    full = circuit.verify_circuit(mutated, code, preparations=6, max_failures=10**6)
    preps = [int(f.split(":")[0].split()[1]) for f in full.failures]
    assert preps == sorted(preps) and len(set(preps)) > 2
    short = circuit.verify_circuit(mutated, code, preparations=6, max_failures=3)
    stop = preps[2]  # the preparation that brings the list to 3
    assert short.failures == tuple(
        f for f, p in zip(full.failures, preps) if p <= stop
    )


def test_verify_fails_on_every_failure_whatever_it_lists():
    code = build_named_code("18-4-4-pruned")
    broken = _one_h_to_i(circuit.build_syndrome_circuit(code, 2))
    assert broken.layers[0].gates[0] == ("I", (0,))  # a data qubit's H
    listed = circuit.verify_circuit(broken, code, seed=3, preparations=25, max_failures=20)
    assert not listed.ok and len(listed.failures) == 21
    one = circuit.verify_circuit(broken, code, seed=3, preparations=25, max_failures=1)
    assert not one.ok and one.failures == listed.failures[: len(one.failures)]
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_failures must be >= 1"):
            circuit.verify_circuit(broken, code, seed=3, preparations=25, max_failures=bad)


def test_verify_needs_a_preparation():
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 1)
    with pytest.raises(ValueError):
        circuit.verify_circuit(circ, code, preparations=0)
    # only integers: a float or string seed would seed ``random.Random``
    for name, value in (("seed", 1.5), ("seed", "1"), ("seed", True), ("preparations", 2.5),
                        ("preparations", "2"), ("max_failures", 2.0), ("max_failures", None)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            circuit.verify_circuit(circ, code, **{name: value})
    # numpy integers are taken; the failures of a broken circuit follow the seed
    broken = _swap_cz_layers(circuit.build_syndrome_circuit(code, 2))
    same = circuit.verify_circuit(
        broken, code, seed=np.int64(3), preparations=np.int32(4), max_failures=np.uint8(2)
    )
    assert not same.ok
    assert same == circuit.verify_circuit(broken, code, seed=3, preparations=4, max_failures=2)


def test_verify_rejects_a_circuit_of_the_other_basis():
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 3, basis="Z")
    with pytest.raises(ValueError, match="built for the Z basis"):
        circuit.verify_circuit(circ, code, basis="X")


def test_verify_catches_swapped_cz_layers():
    code = build_named_code("18-4-4-pruned")
    mutated = _swap_cz_layers(circuit.build_syndrome_circuit(code, 2))
    report = circuit.verify_circuit(mutated, code, preparations=5)
    assert not report.ok
    assert any("layer" in f for f in report.failures)


def test_verify_reports_prepared_parity_for_all_zeros():
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 2)
    # all-zeros input is a +1 eigenstate of every Z stabilizer; a single
    # prepared flip must show up as the parity of the touched supports
    report = circuit.verify_circuit(circ, code, preparations=30)
    assert report.ok


# ---- recorded basis ----


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_circuit_records_its_basis(basis):
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 2, basis=basis)
    assert circ.basis == basis
    assert circuit.Circuit(circ.qubit_count, circ.layers).basis is None


def test_circuit_rejects_an_unknown_basis():
    with pytest.raises(ValueError, match="basis"):
        circuit.Circuit(0, (), basis="Y")


# ---- layer and circuit invariants ----


def test_gate_layer_rejects_wrong_kind_and_reuse():
    with pytest.raises(ValueError):
        circuit.GateLayer(circuit.CZ, (("H", (0,)),))
    with pytest.raises(ValueError):
        circuit.GateLayer(circuit.SINGLE_QUBIT, (("H", (0,)), ("H", (0,))))
    with pytest.raises(ValueError):
        circuit.GateLayer(circuit.CZ, (("CZ", (1, 1)),))
    with pytest.raises(ValueError):
        circuit.GateLayer("MYSTERY", ())
    with pytest.raises(ValueError, match="unknown gate 'WOBBLE'"):
        circuit.GateLayer(circuit.SINGLE_QUBIT, (("WOBBLE", (1,)),))
    with pytest.raises(ValueError, match="gate CZ takes 2 qubit operand"):
        circuit.GateLayer(circuit.CZ, (("CZ", (3,)),))
    with pytest.raises(ValueError, match="gate CZ cannot appear in a SINGLE_QUBIT layer"):
        circuit.GateLayer(circuit.SINGLE_QUBIT, (("H", (0,)), ("CZ", (1, 2))))
    # int() would read each of these as a qubit
    for bad in (1.7, 1.0, True, "2", None):
        with pytest.raises(ValueError, match="not an integer"):
            circuit.GateLayer(circuit.SINGLE_QUBIT, (("H", (bad,)),))
        with pytest.raises(ValueError, match="not an integer"):
            circuit.GateLayer(circuit.CZ, (("CZ", (0, bad)),))
    layer = circuit.GateLayer(circuit.CZ, (("CZ", (np.int64(0), np.int32(1))),))
    assert layer.gates == (("CZ", (0, 1)),)
    assert all(type(q) is int for q in layer.gates[0][1])


@pytest.mark.parametrize(
    "kind",
    [circuit.SINGLE_QUBIT, circuit.MEASURE_CHECKS, circuit.DD_IDLE, circuit.READOUT_DATA],
)
def test_only_a_cz_layer_may_be_empty(kind):
    with pytest.raises(ValueError, match="at least one gate"):
        circuit.Circuit(2, (circuit.GateLayer(kind, ()),))
    empty_cz = circuit.Circuit(2, (circuit.GateLayer(circuit.CZ, ()),))
    assert empty_cz.layers[0].gates == ()


def test_gate_layer_rejects_a_negative_qubit():
    with pytest.raises(ValueError, match="negative qubit index"):
        circuit.GateLayer(circuit.CZ, (("CZ", (0, -1)),))


def test_build_rejects_an_unknown_basis():
    with pytest.raises(ValueError, match="basis must be 'Z' or 'X'"):
        circuit.build_syndrome_circuit(build_named_code("18-6-3"), 1, basis="Y")


def test_circuit_rejects_out_of_range_qubits():
    layer = circuit.GateLayer(circuit.SINGLE_QUBIT, (("H", (5,)),))
    with pytest.raises(ValueError):
        circuit.Circuit(5, (layer,))
    # the range check runs once per distinct layer object, on every one
    ok = circuit.GateLayer(circuit.SINGLE_QUBIT, (("H", (4,)),))
    with pytest.raises(ValueError, match="touches qubit 5"):
        circuit.Circuit(5, (ok, ok, layer, ok))
    with pytest.raises(ValueError, match="touches qubit 5"):
        circuit.Circuit(5, (circuit.GateLayer(circuit.CZ, (("CZ", (0, 5)),)),))


@pytest.mark.parametrize("cycles", [2.5, "3", True, np.float64(2.0), 0, -1])
def test_build_rejects_a_cycle_count_that_is_not_a_positive_int(cycles):
    code = build_named_code("18-6-3")
    with pytest.raises(ValueError, match="cycles must be an int >= 1"):
        circuit.build_syndrome_circuit(code, cycles)
    assert circuit.build_syndrome_circuit(code, np.int64(2)).cycles == 2


@pytest.mark.parametrize("qubit_count", [2.5, "3", True, None, -1])
def test_circuit_rejects_a_qubit_count_that_is_not_an_int(qubit_count):
    with pytest.raises(ValueError, match="qubit_count must be an int >= 0"):
        circuit.Circuit(qubit_count, ())
    assert circuit.Circuit(np.int64(2), ()).qubit_count == 2


def test_circuit_rejects_layers_that_are_not_gate_layers():
    with pytest.raises(ValueError, match="layers must be GateLayers"):
        circuit.Circuit(2, ("x",))


# ---- cycles and the gate table ----

NAMED_CODES = [*CODE_TABLE, "18-4-4-pruned", "18-6-3"]


def _read_table(circ):
    """Reference for ``Circuit.table``: each distinct layer's gates read
    into (name, leg, leg) rows, one array per layer, then joined."""
    nq = circ.qubit_count
    layers = circ.layers
    kind = np.array([layer.kind for layer in layers])
    read = {}
    for layer in layers:
        if id(layer) not in read:
            gates = [(circuit.GATE_NAMES.index(g), *qs, nq)[:3] for g, qs in layer.gates]
            read[id(layer)] = np.array(gates, dtype=np.intp).reshape(-1, 3).T
    rows = np.concatenate([read[id(layer)] for layer in layers], axis=1)
    start = np.cumsum([0] + [len(layer.gates) for layer in layers])
    return circuit.GateTable(kind, start, rows[0], rows[1:])


def _assert_tables_equal(got, want):
    for field, a, b in zip(circuit.GateTable._fields, got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def _hand_built():
    layers = (
        circuit.GateLayer(circuit.SINGLE_QUBIT, (("H", (0,)), ("I", (np.int64(2),)))),
        circuit.GateLayer(circuit.CZ, ()),
        circuit.GateLayer(circuit.CZ, (("CZ", (3, 1)),)),
        circuit.GateLayer(circuit.MEASURE_CHECKS, (("M", (3,)),)),
        circuit.GateLayer(circuit.READOUT_DATA, (("RD", (1,)), ("RD", (0,)))),
    )
    return circuit.Circuit(4, layers)


@pytest.mark.parametrize("t", [1, 2, 7])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("cid", NAMED_CODES)
def test_the_circuit_table_is_the_layers_read_gate_by_gate(cid, basis, t):
    circ = circuit.build_syndrome_circuit(build_named_code(cid), t, basis=basis)
    _assert_tables_equal(circ.table, _read_table(circ))
    # each derived cycle: seven CZ layers, its measurement layer, then DD
    # (the readout in the last cycle)
    assert circ.cycles == t and circ.cycle_boundaries[0] == 0
    spans = [circ.cycle_layer_range(c) for c in range(t)]
    assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
    assert spans[-1][1] == len(circ.layers)
    for c in range(t):
        kinds = [layer.kind for layer in circ.cycle_layers(c)]
        assert kinds.count(circuit.CZ) == 7 and kinds.count(circuit.MEASURE_CHECKS) == 1
        assert kinds[-2] == circuit.MEASURE_CHECKS
        assert kinds[-1] == (circuit.READOUT_DATA if c == t - 1 else circuit.DD_IDLE)


@pytest.mark.parametrize(
    "circ",
    [_hand_built(),
     _one_h_to_i(circuit.build_syndrome_circuit(build_named_code("18-4-4-pruned"), 2))],
    ids=["hand-built", "h-to-i"],
)
def test_the_table_of_a_circuit_with_i_gates_and_an_empty_cz_layer(circ):
    _assert_tables_equal(circ.table, _read_table(circ))
    assert circ.count_gates("I") == 1


def test_hand_built_cycles_end_after_each_measurement_layer():
    circ = _hand_built()
    assert [f.name for f in fields(circ)] == ["qubit_count", "layers", "basis"]
    assert circ.cycle_boundaries == (0,) and circ.cycle_layer_range(0) == (0, 5)
    twice = circuit.Circuit(4, circ.layers[:4] + circ.layers)
    assert twice.cycles == 2 and twice.cycle_boundaries == (0, 5)
    assert twice.count_gates("M", cycle=1) == 1 and twice.count_gates("CZ", cycle=0) == 1
    assert circuit.Circuit(4, circ.layers[:3]).cycle_boundaries == ()


def test_gate_layer_rows_take_no_part_in_equality_hash_or_repr():
    layer = circuit.GateLayer(circuit.CZ, (("CZ", (0, 1)), ("CZ", (3, 2))))
    assert layer.rows == ((2, 2), (0, 3), (1, 2))
    other = circuit.GateLayer(circuit.CZ, (("CZ", (np.int64(0), 1)), ("CZ", (3, 2))))
    object.__setattr__(other, "rows", ((), (), ()))
    assert layer == other and hash(layer) == hash(other) and repr(layer) == repr(other)
    assert "rows" not in repr(layer)
    assert circuit.GateLayer(circuit.SINGLE_QUBIT, (("I", (4,)),)).rows == ((1,), (4,), (-1,))


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_gate_table_returns_the_circuits_own_read_only_table(basis):
    code = build_named_code("18-4-4-pruned")
    circ = circuit.build_syndrome_circuit(code, 2, basis=basis)
    assert circuit.gate_table(circ, code, basis) is circ.table
    assert not any(array.flags.writeable for array in circ.table)
    # a circuit made from the same layers reads its own table
    assert circuit.Circuit(circ.qubit_count, circ.layers).table is not circ.table


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda c: c.count_gates("H", cycle=-1), "got -1"),
        (lambda c: c.count_gates("H", cycle=3), "got 3"),
        (lambda c: c.count_gates("H", cycle=True), "got True"),
        (lambda c: c.count_gates("H", cycle=2.0), "got 2.0"),
        (lambda c: c.count_gates("XX"), "unknown gate 'XX'"),
        (lambda c: c.cycle_layer_range(-1), "got -1"),
        (lambda c: c.cycle_layers("1"), "got '1'"),
    ],
    ids=["negative", "past-the-end", "bool", "float", "unknown-gate", "range-negative",
         "str-layers"],
)
def test_cycle_accessors_reject_bad_input(call, message):
    circ = circuit.build_syndrome_circuit(build_named_code("18-4-4-pruned"), 3)
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        call(circ)
    assert circ.count_gates("H", cycle=np.int64(2)) == circ.count_gates("H", cycle=2) > 0
