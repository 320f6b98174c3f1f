"""Fuzzing of the one text parser, ``parse_dem``.

It rejects bad text with ``ValueError`` and nothing else, both on
arbitrary text and on valid DEM files with a few lines dropped,
duplicated or rewritten, it rejects text that is not ASCII and priors
with an ``_``, and it inverts ``dem_to_text`` on generated DEMs.
"""

import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbqec import circuit, codes, noise


@lru_cache(maxsize=None)
def _valid_texts() -> tuple[str, ...]:
    """DEM files of the paper's two codes, one per memory basis."""
    texts = []
    for cid in ("18-4-4-pruned", "18-6-3"):
        code = codes.build_named_code(cid)
        logicals = codes.logical_operator_set_for(code)
        for basis in ("Z", "X"):
            circ = circuit.build_syndrome_circuit(code, 1, basis=basis)
            dem = noise.build_dem(
                circ, noise.NoiseModel.device_rates(), basis, code=code, logicals=logicals
            )
            texts.append(noise.dem_to_text(dem))
    return tuple(texts)


_TOKENS = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.sampled_from(["|", "#", "detectors", "logicals", "0.5", "1.0", "0", "-0.1", "nan", "inf"]),
    st.text(max_size=4),
)


@st.composite
def _edited(draw):
    """A valid DEM file after up to three line edits."""
    lines = draw(st.sampled_from(_valid_texts())).splitlines()
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


def _parsed_or_value_error(text):
    try:
        noise.parse_dem(text)
    except ValueError:
        pass


@pytest.mark.parametrize(
    "text,line",
    [
        ("detectors \uff12 logicals 1\n0.1 0 | 0\n", 1),
        ("detectors 4 logicals \u0661\n", 1),
        ("detectors 4 logicals 1\n0.2 1 |\n0.1 \u0661 | 0\n", 3),
        ("detectors 4 logicals 2\n0.1 0 | \u0660\n", 2),
        ("detectors 4 logicals 1\n\u0660.\u0661 0 | 0\n", 2),
        ("detectors 4 logicals 1\n\uff10.\uff11 0 | 0\n", 2),
        ("detectors 4 logicals 1\n0.1_5 0 | 0\n", 2),
        ("detectors 4 logicals 1\n1_0e-2 0 | 0\n", 2),
        ("detectors 4 logicals 1\n0.1\u20030 | 0", 2),
        ("detectors\xa04 logicals 1", 1),
        ("detectors 4 logicals 1\u20280.1 0 | 0", 1),
        ("detectors 4 logicals 1\x850.1 0 | 0", 1),
    ],
    ids=["fullwidth-count", "arabic-indic-count", "arabic-indic-detector", "arabic-indic-logical",
         "arabic-indic-prior", "fullwidth-prior", "underscore-prior", "underscore-exponent-prior",
         "em-space", "no-break-space", "line-separator", "next-line"],
)
def test_parse_dem_rejects_digits_that_are_not_ascii(text, line):
    # str.isdecimal, int and float read these digits, and float reads "_"
    # between them; str.split reads these spaces, and str.splitlines ends a
    # line at U+2028 and U+0085; dem_to_text writes ASCII only
    with pytest.raises(ValueError, match=f"^line {line}: "):
        noise.parse_dem(text)


@pytest.mark.parametrize("prior,value", [("1e-1", 0.1), ("0.25", 0.25)])
def test_parse_dem_reads_an_ascii_prior(prior, value):
    dem = noise.parse_dem(f"detectors 4 logicals 1\n{prior} 0 | 0\n")
    assert dem.probabilities.tolist() == [value]


@given(text=st.text(max_size=200))
@settings(max_examples=150, deadline=None)
def test_parsers_raise_only_value_error_on_arbitrary_text(text):
    _parsed_or_value_error(text)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_parsers_raise_only_value_error_on_edited_files(data):
    _parsed_or_value_error(data.draw(_edited()))


# ---- round trip ----


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


def test_a_large_header_costs_what_the_columns_hold():
    """Three columns under a header of 6.4 million detectors, 100,001 words a
    row: the row scans read the words that a column sets, not every word."""
    text = "detectors 6400000 logicals 1\n0.1 5 |\n0.2 7 |\n0.3 | 0\n"
    tracemalloc.start()
    try:
        dem = noise.parse_dem(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dem.signatures.shape == (3, 100001)
    assert peak < 20 * 2**20
    assert noise.dem_to_text(dem) == text
