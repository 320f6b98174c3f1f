"""Fuzzing of the three text parsers: ``parse_code``, ``parse_dem`` and
``parse_circuit``.

Each rejects bad text with ``ValueError`` and nothing else, both on
arbitrary text and on valid files with a few lines dropped, duplicated or
rewritten. Each inverts its writer (``export_code``, ``dem_to_text``,
``serialize_circuit``) on generated inputs.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from bbqec import circuit, codes, gf2, noise
from bbqec.circuit import CZ, DD_IDLE, MEASURE_CHECKS, READOUT_DATA, SINGLE_QUBIT

PARSERS = {
    "code": codes.parse_code,
    "dem": noise.parse_dem,
    "circuit": circuit.parse_circuit,
}


@lru_cache(maxsize=None)
def _valid_texts() -> dict[str, tuple[str, ...]]:
    """Files each writer emits for the paper's two codes."""
    texts: dict[str, list[str]] = {"code": [], "dem": [], "circuit": []}
    for cid in ("18-4-4-pruned", "18-6-3"):
        code = codes.build_named_code(cid)
        logicals = codes.logical_operator_set_for(code)
        texts["code"] += [codes.export_code(code), codes.export_code(code, logicals)]
        circ = circuit.build_syndrome_circuit(code, 1, basis="X")
        texts["circuit"].append(circuit.serialize_circuit(circ))
        dem = noise.build_dem(
            circ, noise.NoiseModel.device_rates(), "X", code=code, logicals=logicals
        )
        texts["dem"].append(noise.dem_to_text(dem))
    return {kind: tuple(ts) for kind, ts in texts.items()}


_TOKENS = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.sampled_from(["?", "|", "#", "HX", "HZ", "CYCLE", "TICK", "CZ", "0.5", "nan"]),
    st.text(max_size=4),
)


@st.composite
def _edited(draw, kind):
    """A valid file of ``kind`` after up to three line edits."""
    lines = draw(st.sampled_from(_valid_texts()[kind])).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "token", "line"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "line":
            lines[i] = draw(st.text(max_size=20))
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _parsed_or_value_error(kind, text):
    try:
        PARSERS[kind](text)
    except ValueError:
        pass


@given(kind=st.sampled_from(sorted(PARSERS)), text=st.text(max_size=200))
@settings(max_examples=150, deadline=None)
def test_parsers_raise_only_value_error_on_arbitrary_text(kind, text):
    _parsed_or_value_error(kind, text)


@given(data=st.data(), kind=st.sampled_from(sorted(PARSERS)))
@settings(max_examples=200, deadline=None)
def test_parsers_raise_only_value_error_on_edited_files(data, kind):
    _parsed_or_value_error(kind, data.draw(_edited(kind)))


# ---- round trips ----


_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", max_size=12)


def _rows(n):
    return st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=5)


def _subsets(size):
    if not size:
        return st.just(())
    return st.lists(st.integers(0, size - 1), unique=True).map(tuple)


@st.composite
def _codes(draw):
    n = draw(st.integers(1, 9))
    hx, hz = draw(_rows(n)), draw(_rows(n))
    maybe = st.none() | st.integers(0, 5)
    code = codes.CssCode(
        name=draw(_NAMES),
        n=n,
        h_x=gf2.from_rows(hx) if hx else gf2.zeros(0, n),
        h_z=gf2.from_rows(hz) if hz else gf2.zeros(0, n),
        retained_x=draw(_subsets(len(hx))),
        retained_z=draw(_subsets(len(hz))),
        k=draw(maybe),
        d=draw(maybe),
    )
    k = draw(st.integers(0, 3))
    supports = st.lists(_subsets(n), min_size=k, max_size=k).map(tuple)
    logicals = draw(
        st.none()
        | st.builds(
            codes.LogicalOperatorSet,
            n=st.just(n),
            x_supports=supports,
            z_supports=supports,
        )
    )
    return code, logicals


@given(_codes())
@settings(max_examples=100, deadline=None)
def test_parse_code_inverts_export_code(case):
    code, logicals = case
    text = codes.export_code(code, logicals)
    parsed, parsed_logicals = codes.parse_code(text)
    assert parsed.name == code.name
    assert parsed.h_x == code.h_x and parsed.h_z == code.h_z
    assert (parsed.retained_x, parsed.retained_z) == (code.retained_x, code.retained_z)
    assert (parsed.k, parsed.d) == (code.k, code.d)
    if logicals is not None and logicals.k:
        assert parsed_logicals == logicals
    assert codes.export_code(parsed, parsed_logicals) == text


@st.composite
def _dem_texts(draw):
    """DEM text as ``dem_to_text`` writes it: counts, then per column its
    prior's repr and its sorted detector and logical indices, no two
    columns alike."""
    detectors = draw(st.integers(0, 12))
    logicals = draw(st.integers(0, 3))
    signatures = draw(
        st.lists(
            st.tuples(
                st.sets(st.integers(0, detectors - 1)) if detectors else st.just(set()),
                st.sets(st.integers(0, logicals - 1)) if logicals else st.just(set()),
            ).map(lambda s: (tuple(sorted(s[0])), tuple(sorted(s[1])))),
            unique=True,
            max_size=10,
        )
    )
    probabilities = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    lines = [f"detectors {detectors} logicals {logicals}"] + [
        " ".join([repr(draw(probabilities)), *map(str, dets), "|", *map(str, logs)])
        for dets, logs in signatures
    ]
    return "\n".join(lines) + "\n"


@given(_dem_texts())
@settings(max_examples=100, deadline=None)
def test_parse_dem_inverts_dem_to_text(text):
    dem = noise.parse_dem(text)
    assert noise.dem_to_text(dem) == text
    assert noise.parse_dem(noise.dem_to_text(dem)) == dem


_GATES = {
    SINGLE_QUBIT: ("H", "I"),
    MEASURE_CHECKS: ("M",),
    READOUT_DATA: ("RD",),
    DD_IDLE: ("DD",),
}
_QUBITS = 8


@st.composite
def _layers(draw, kind):
    qubits = draw(st.permutations(range(_QUBITS)))
    if kind == CZ:
        pairs = draw(st.integers(0, _QUBITS // 2))
        gates = [("CZ", (qubits[2 * i], qubits[2 * i + 1])) for i in range(pairs)]
    else:
        # only CZ layers may be empty: the text form has no kind marker,
        # so a layer without gates reads back as CZ
        size = draw(st.integers(1, _QUBITS))
        gates = [(draw(st.sampled_from(_GATES[kind])), (q,)) for q in qubits[:size]]
    return circuit.GateLayer(kind, tuple(gates))


_OTHER_LAYERS = st.sampled_from(sorted(_GATES)).flatmap(_layers)


@st.composite
def _circuits(draw):
    cycles = draw(st.integers(0, 2))
    if cycles == 0:
        layers = draw(st.lists(st.one_of(_OTHER_LAYERS, _layers(CZ)), max_size=6))
        boundaries = []
    else:
        layers, boundaries = [], []
        for _ in range(cycles):
            # a cycle holds exactly seven CZ layers
            cycle = [draw(_layers(CZ)) for _ in range(7)]
            cycle += draw(st.lists(_OTHER_LAYERS, max_size=3))
            boundaries.append(len(layers))
            layers += draw(st.permutations(cycle))
    used = max((q for layer in layers for q in layer.qubits()), default=-1) + 1
    return circuit.Circuit(
        qubit_count=used + draw(st.integers(0, 2)),
        layers=tuple(layers),
        cycle_boundaries=tuple(boundaries),
        basis=draw(st.sampled_from([None, "Z", "X"])),
    )


@given(_circuits())
@settings(max_examples=100, deadline=None)
def test_parse_circuit_inverts_serialize_circuit(circ):
    assert circuit.parse_circuit(circuit.serialize_circuit(circ)) == circ
