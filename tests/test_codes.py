"""Code construction oracles: check matrices, parameters, removals, logicals."""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbqec import codes, gf2


def oracle_18_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Hand-rolled 9x18 check matrices for the l=m=3 code, by index chasing.

    Built with plain loops, independently of the package's monomial maps
    (``BbCodeSpec.term_map``): cell (i, j) maps to row 3*i+j; the first
    polynomial hits (i+1, j), (i, j), (i, j+2) and the second hits
    (i, j+1), (i, j), (i+2, j), all indices mod 3.
    """
    a = np.zeros((9, 9), dtype=np.uint8)
    b = np.zeros((9, 9), dtype=np.uint8)
    for i in range(3):
        for j in range(3):
            r = 3 * i + j
            a[r, 3 * ((i + 1) % 3) + j] ^= 1
            a[r, 3 * i + j] ^= 1
            a[r, 3 * i + (j + 2) % 3] ^= 1
            b[r, 3 * i + (j + 1) % 3] ^= 1
            b[r, 3 * i + j] ^= 1
            b[r, 3 * ((i + 2) % 3) + j] ^= 1
    h_x = np.hstack([a, b])
    h_z = np.hstack([b.T, a.T])
    return h_x, h_z


# Pairs of X-check indices whose joint removal keeps the code parameters,
# exactly as published; the other nine pairs of the 36 must be rejected.
PERMITTED_X_PAIRS = {
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 8),
    (1, 2), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 3), (2, 5), (2, 7), (2, 8),
    (3, 4), (3, 5), (3, 6), (3, 7),
    (4, 5), (4, 7), (4, 8),
    (5, 6), (5, 8),
    (6, 7), (6, 8),
    (7, 8),
}


def lr(l_cols=(), r_cols=()):
    return tuple(sorted(list(l_cols) + [9 + c for c in r_cols]))


# Published logical operator supports, transcribed independently of the
# package's copies so a typo in either place fails loudly.
LOGICALS_18_4_4_X = [
    lr((0, 2, 4, 5, 6, 7)),
    lr((1, 2, 3, 4, 6, 8)),
    lr((0, 1, 6), (0,)),
    lr((0, 1, 4, 5, 6), (1,)),
]
LOGICALS_18_4_4_Z = [
    lr((0, 2, 3, 4, 8), (0,)),
    lr((0, 2, 4, 5, 6, 7)),
    lr((1, 2, 7), (1,)),
    lr((0, 1, 6), (0,)),
]
LOGICALS_18_6_3_X = [
    lr((0, 1, 3, 5, 6)),
    lr((1, 2, 3, 4, 7)),
    lr((0, 2, 4, 5, 8)),
    lr((3, 5), (0,)),
    lr((3, 4), (1,)),
    lr((4, 5), (2,)),
]
LOGICALS_18_6_3_Z = [
    lr((0, 3, 4, 5, 8)),
    lr((0, 3, 8), (0, 1)),
    lr((0, 5, 8), (0, 2)),
    lr((1, 4, 6, 8), (0, 1, 2)),
    lr((0, 1, 2, 4, 7, 8), (2,)),
    lr((2, 4), (1,)),
]


@pytest.fixture(scope="module")
def code_18():
    return codes.build_named_code("18-4-4")


@pytest.fixture(scope="module")
def pruned_18(code_18):
    return codes.remove_redundant_checks(code_18, (2, 8), (3, 4))


@pytest.fixture(scope="module")
def code_18_6_3():
    return codes.build_named_code("18-6-3")


def test_check_matrices_match_hand_oracle(code_18):
    h_x, h_z = oracle_18_matrices()
    assert np.array_equal(code_18.h_x, h_x)
    assert np.array_equal(code_18.h_z, h_z)


def test_18_code_self_dual(code_18):
    assert np.array_equal(code_18.h_x, code_18.h_z)


def test_18_code_parameters(code_18):
    assert code_18.n == 18
    assert code_18.k == 4
    assert gf2.rank(code_18.h_x) == 7
    assert gf2.rank(code_18.h_z) == 7
    dist = codes.compute_distance(code_18)
    assert dist.computed and dist.value == 4


def test_kernel_dimension(code_18):
    assert len(gf2.kernel_basis(code_18.h_x)) == 11


def test_row_and_column_weights(code_18):
    assert (code_18.h_x.sum(axis=1) == 6).all()
    assert (code_18.h_x.sum(axis=0) == 3).all()
    assert (code_18.h_z.sum(axis=0) == 3).all()


def test_data_labels(code_18):
    assert code_18.data_label(0) == "L0"
    assert code_18.data_label(8) == "L8"
    assert code_18.data_label(9) == "R0"
    assert code_18.data_label(17) == "R8"


def test_pruned_code_keeps_parameters(pruned_18):
    assert pruned_18.retained_x == (0, 1, 3, 4, 5, 6, 7)
    assert pruned_18.retained_z == (0, 1, 2, 5, 6, 7, 8)
    assert pruned_18.k == 4
    dist = codes.compute_distance(pruned_18)
    assert dist.computed and dist.value == 4


def test_permitted_removal_pairs_exactly(code_18):
    for i in range(9):
        for j in range(i + 1, 9):
            permitted = (i, j) in PERMITTED_X_PAIRS
            if permitted:
                codes.remove_redundant_checks(code_18, (i, j), ())
            else:
                with pytest.raises(ValueError):
                    codes.remove_redundant_checks(code_18, (i, j), ())


def test_remove_nothing_is_identity(code_18):
    same = codes.remove_redundant_checks(code_18, (), ())
    assert same.retained_x == code_18.retained_x
    assert same.k == code_18.k


def test_removing_missing_check_rejected(pruned_18):
    with pytest.raises(ValueError):
        codes.remove_redundant_checks(pruned_18, (2,), ())


@pytest.mark.parametrize(
    "x_removals, z_removals, message",
    [
        ((True,), (), r"x_removals .* got \(True,\)"),
        ((2.0, 8.0), (3, 4), r"x_removals .* got \(2\.0, 8\.0\)"),
        ((2, 8), (3, np.float64(4)), r"z_removals .* got \(3, np\.float64\(4\.0\)\)"),
        ((2, 2), (), r"x_removals .* got \(2, 2\)"),
        (2, (), "x_removals .* got 2$"),
        ((9,), (), r"x_removals .* got \(9,\)"),
    ],
    ids=["bool", "floats", "numpy-float", "repeat", "bare-int", "past-the-end"],
)
def test_removal_lists_must_be_distinct_retained_ints(code_18, x_removals, z_removals, message):
    with pytest.raises(ValueError, match=message):
        codes.remove_redundant_checks(code_18, x_removals, z_removals)
    # a numpy int, or a list, is a retained index like any other
    pruned = codes.remove_redundant_checks(code_18, [np.int64(2), 8], (3, 4))
    assert pruned.retained_x == (0, 1, 3, 4, 5, 6, 7)


def test_18_6_3_parameters(code_18_6_3):
    assert code_18_6_3.k == 6
    assert code_18_6_3.d == 3
    assert len(code_18_6_3.retained_x) == 6
    assert len(code_18_6_3.retained_z) == 6
    assert 5 not in code_18_6_3.retained_x


def test_checks_are_the_retained_x_then_the_retained_z(code_18_6_3):
    assert code_18_6_3.checks == (
        ("X", 0), ("X", 1), ("X", 3), ("X", 4), ("X", 6), ("X", 7),
        ("Z", 0), ("Z", 1), ("Z", 2), ("Z", 6), ("Z", 7), ("Z", 8),
    )
    # read from the retained lists, in their order, on every replace
    changed = replace(code_18_6_3, retained_x=(7, 2), retained_z=())
    assert changed.checks == (("X", 7), ("X", 2))
    assert replace(changed, retained_x=(), retained_z=(4,)).checks == (("Z", 4),)


def test_named_codes_match_expected_k():
    for code_id, entry in codes.CODE_TABLE.items():
        code = codes.build_named_code(code_id)
        n, k, _ = entry["expected"]
        assert code.n == n
        assert code.k == k


def _six_qubit_code(**change) -> codes.CssCode:
    fields = dict(
        name="six",
        h_x=np.array([[1, 1, 1, 1, 0, 0]]),
        h_z=np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]]),
        retained_x=(0,),
        retained_z=(0, 1),
    )
    return codes.CssCode(**{**fields, **change})


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(retained_x=(3,)), r"retained_x must be distinct ints in \[0, 1\)"),
        (dict(h_z=np.zeros((2, 5), dtype=np.uint8)), "h_z has 5 columns, h_x has 6"),
        (dict(retained_z=(1, 1)), "retained_z must be distinct"),
        (dict(retained_z=(-1,)), "retained_z must be distinct"),
        (dict(retained_x=(0.0,)), "retained_x must be distinct ints"),
        (dict(retained_x=(True,)), "retained_x must be distinct ints"),
        (dict(retained_x=None), "retained_x must be distinct ints"),
        *((dict(table_d=d), rf"table_d must be None or an int >= 1, got {d!r}")
          for d in (0, -1, 2.0, True)),
        # each entry is checked before the cast to uint8, which would cut,
        # wrap or parse it
        *((dict(h_z=h), "^h_z must be a 2-D int or bool array, got " + got) for h, got in (
            ([[0.5, 1]], "2-D float64"), ([[1.7, 0]], "2-D float64"),
            ([["1", "0"]], "2-D <U1"), ([[None]], "2-D object"),
            (np.ones(6, dtype=np.uint8), "1-D uint8"))),
        *((dict(h_z=h), "^h_z entries must be 0 or 1$")
          for h in ([[0, 2]], np.array([[256, 1]]), [[-1, 0]])),
    ],
    ids=["index-out-of-range", "h_z-columns-differ", "repeated-index", "negative-index",
         "float-index", "bool-index", "no-index-list",
         "zero-table-d", "negative-table-d", "float-table-d", "bool-table-d",
         "half-entry", "fractional-entry", "str-entries", "none-entry", "one-d",
         "entry-2", "entry-256", "negative-entry"],
)
def test_css_code_rejects_malformed_input(change, message):
    with pytest.raises(ValueError, match=message):
        _six_qubit_code(**change)


def test_a_code_is_itself_and_keeps_a_read_only_copy_of_its_checks():
    """Compared and hashed by identity, as array fields cannot be."""
    h_x = np.array([[1, 1, 1, 1, 0, 0]])
    code = _six_qubit_code(h_x=h_x, h_z=np.array([[1, 1, 0, 0, 0, 0]], dtype=bool),
                           retained_z=(0,))
    assert code == code and hash(code) == hash(code) and {code: 1}[code] == 1
    twin = replace(code)
    assert twin != code and not twin == code
    for h in (code.h_x, code.h_z, twin.h_x):
        assert h.dtype == np.uint8 and not h.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = 0
    h_x[0, 0] = 0
    assert code.h_x.tolist() == [[1, 1, 1, 1, 0, 0]] and code.h_z.tolist() == [[1, 1, 0, 0, 0, 0]]


def test_css_code_stores_retained_indices_as_a_tuple_of_ints():
    code = _six_qubit_code(retained_z=[np.int64(1), 0])
    assert code.retained_z == (1, 0) and all(type(i) is int for i in code.retained_z)
    assert codes.compute_k(code) == 3
    # replace checks again
    with pytest.raises(ValueError, match="retained_x"):
        replace(code, retained_x=(1,))


def test_k_cross_check_reads_the_two_halves_of_h_x(code_18):
    # with the spec set, the kernel route reads A and B as h_x = [A | B];
    # dropped Z checks leave the rank route at 18 - 7 - 0 = 11
    no_z = replace(code_18, h_z=np.zeros((9, 18), dtype=np.uint8))
    with pytest.raises(ValueError, match="k mismatch: rank route 11, kernel route 4"):
        codes.compute_k(no_z)
    assert codes.compute_k(replace(no_z, spec=None)) == 11
    # an h_z of another two-block code is a caller's mistake, not a bug
    other = codes.build_bb_code(codes.BbCodeSpec.from_exponents(3, 3, (1, 1, 2), (2, 0, 1)))
    with pytest.raises(ValueError, match="not the check matrices of one two-block code"):
        codes.compute_k(replace(code_18, h_z=other.h_z))


def test_distance_refuses_large_kernels():
    code = codes.build_named_code("54-4-8")
    result = codes.compute_distance(code)
    assert not result.computed
    assert result.value is None
    assert "exceeds limit" in result.reason


def _all_vectors(n: int) -> np.ndarray:
    """Every length-n 0/1 vector, one per row."""
    masks = np.arange(1 << n, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def _brute_force_distance(h_x: np.ndarray, h_z: np.ndarray) -> int:
    """Minimum weight of a nontrivial logical, over all 2^n vectors.

    A Z-type logical v has h_x v = 0 and lies outside rowspace(h_z),
    which is ker(h_z)^perp: v pairs oddly with some vector of ker(h_z).
    X-type logicals swap the roles. No elimination is involved.
    """
    vecs = _all_vectors(h_x.shape[1])

    def kernel(h):
        return vecs[~((vecs @ h.T) & 1).any(axis=1)]

    best = h_x.shape[1] + 1
    for kernel_of, dual_of in ((h_x, h_z), (h_z, h_x)):
        cand = kernel(kernel_of)
        outside = ((cand @ kernel(dual_of).T) & 1).any(axis=1)
        best = min(best, int(cand[outside].sum(axis=1).min()))
    return best


RANDOM_CODE_SEEDS = (4, 6, 7, 9)


def _random_commuting_code(seed: int) -> codes.CssCode:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 15))
    h_x = rng.integers(0, 2, size=(int(rng.integers(4, 7)), n), dtype=np.uint8)
    vecs = _all_vectors(n)
    ker_x = vecs[~((vecs @ h_x.T) & 1).any(axis=1)]
    h_z = ker_x[rng.choice(len(ker_x), size=int(rng.integers(4, 7)))]
    code = codes.CssCode(
        name=f"random-{seed}",
        h_x=h_x,
        h_z=h_z,
        retained_x=tuple(range(len(h_x))),
        retained_z=tuple(range(len(h_z))),
    )
    assert codes.compute_k(code) > 0
    return code


@pytest.mark.parametrize(
    "make",
    [
        lambda: codes.build_named_code("18-4-4"),
        lambda: codes.build_named_code("18-4-4-pruned"),
        lambda: codes.build_named_code("18-6-3"),
        # seeds whose codes have 2 <= k <= 4 and d = 2
        *(lambda s=s: _random_commuting_code(s) for s in RANDOM_CODE_SEEDS),
    ],
    ids=["18-4-4", "18-4-4-pruned", "18-6-3", *(f"random-{s}" for s in RANDOM_CODE_SEEDS)],
)
def test_distance_matches_brute_force(make):
    code = make()
    expected = _brute_force_distance(
        code.retained_h_x(), code.retained_h_z()
    )
    assert codes.compute_distance(code).value == expected


def test_distance_search_packs_kernels_wider_than_one_word():
    # 18 rows (past the 16-row table, so high rows are combined too) over
    # 100 columns: an identity block keeps them independent, and the
    # random part beyond column 64 carries most of each weight.
    dim, n, in_span = 18, 100, 3
    rng = np.random.default_rng(5)
    kernel = np.zeros((dim, n), dtype=np.uint8)
    kernel[:, :dim] = np.eye(dim, dtype=np.uint8)
    kernel[:, 64:] = rng.integers(0, 2, size=(dim, n - 64), dtype=np.uint8)
    rref, pivots = gf2.row_echelon(kernel[:in_span])
    # the row space is the span of the first rows, so combination `mask`
    # lies outside it iff it uses a later row
    expected = n
    for start in range(0, 1 << dim, 1 << 14):
        masks = np.arange(start, start + (1 << 14))
        bits = (masks[:, None] >> np.arange(dim)) & 1
        weights = ((bits @ kernel) & 1).sum(axis=1)
        expected = min(expected, int(weights[(masks >> in_span) != 0].min()))
    assert expected > 1  # the second word decides the answer
    got = codes._min_weight_outside_row_space(kernel, rref, pivots)
    assert got == expected


@pytest.mark.parametrize("cid", ["18-4-4-pruned", "18-6-3", "36-4-6"])
def test_computed_logicals_verify(cid):
    code = codes.build_named_code(cid)
    report = codes.verify_logicals(code, codes.compute_logicals(code))
    assert report.ok, report.failures


def _greedy_coset_representatives(commute_with, stabilizers, count):
    """Keep each kernel vector that raises the rank of the rows kept so far."""
    reps, base = [], stabilizers
    for v in gf2.kernel_basis(commute_with):
        grown = np.vstack([base, v])
        if gf2.rank(grown) > gf2.rank(base):
            reps.append(v)
            base = grown
        if len(reps) == count:
            break
    return reps


@pytest.mark.parametrize("cid", sorted(codes.CODE_TABLE) + ["18-4-4-pruned", "18-6-3"])
def test_coset_representatives_match_the_greedy_rank_loop(cid):
    code = codes.build_named_code(cid)
    h_x, h_z = code.retained_h_x(), code.retained_h_z()
    for commute_with, stabilizers in ((h_z, h_x), (h_x, h_z)):
        got = codes._coset_representatives(commute_with, stabilizers, code.k)
        want = _greedy_coset_representatives(commute_with, stabilizers, code.k)
        assert np.array_equal(got, want)
        assert len(got) == code.k


def test_coset_representatives_reject_a_short_kernel(pruned_18):
    with pytest.raises(ValueError, match="found 4 coset representatives, wanted 5"):
        codes._coset_representatives(pruned_18.retained_h_z(), pruned_18.retained_h_x(), 5)


def test_compute_logicals_rejects_a_singular_pairing():
    # checks that anticommute: the one X representative commutes with the
    # one Z representative, so no mixing pairs them up
    code = codes.CssCode(
        name="anticommuting",
        h_x=np.array([[0, 1, 1, 1]]),
        h_z=np.array([[1, 1, 1, 0], [0, 1, 1, 1]]),
        retained_x=(0,),
        retained_z=(0, 1),
    )
    assert codes.compute_k(code) == 1
    with pytest.raises(ValueError, match="pairing matrix is singular"):
        codes.compute_logicals(code)


def test_trusted_distance_injection():
    code = codes.build_named_code("90-8-10", trust_table_distance=True)
    assert code.d == 10
    assert code.d_trusted


def test_a_code_stores_only_its_checks_and_their_source():
    names = [f.name for f in dataclasses.fields(codes.CssCode)]
    assert names == ["name", "h_x", "h_z", "retained_x", "retained_z", "spec", "table_d"]


# (n, k, d) of each named code; d is None where the search cannot run
# and no table distance is trusted
NAMED_FACTS = {
    "18-4-4": (18, 4, 4), "18-4-4-pruned": (18, 4, 4), "18-6-3": (18, 6, 3),
    "36-4-6": (36, 4, 6), "54-4-8": (54, 4, 8), "90-8-10": (90, 8, 10),
    "144-12-12": (144, 12, 12),
}
TABLE_ONLY = {"54-4-8", "90-8-10", "144-12-12"}


@pytest.mark.parametrize("trust", [False, True], ids=["searched", "trusted"])
@pytest.mark.parametrize("cid", sorted(NAMED_FACTS))
def test_named_codes_read_n_k_d_and_trust(cid, trust):
    code = codes.build_named_code(cid, trust_table_distance=trust)
    n, k, d = NAMED_FACTS[cid]
    table_only = cid in TABLE_ONLY
    expected_d = d if trust or not table_only else None
    assert (code.n, code.k, code.d, code.d_trusted) == (n, k, expected_d, trust and table_only)
    assert code.d == codes.compute_distance(code).value or code.d_trusted


def _with_checks_of(name_of: str, checks_of: str) -> codes.CssCode:
    """The first named code, with the retained checks of the second."""
    other = codes.build_named_code(checks_of)
    return replace(codes.build_named_code(name_of), retained_x=other.retained_x,
                   retained_z=other.retained_z)


@pytest.mark.parametrize(
    "name_of, checks_of, k, d",
    [("18-6-3", "18-4-4-pruned", 4, 4), ("18-4-4-pruned", "18-6-3", 6, 3)],
    ids=["six-named-four", "four-named-six"],
)
def test_k_and_d_follow_a_replace_of_the_retained_checks(name_of, checks_of, k, d):
    code = _with_checks_of(name_of, checks_of)
    assert code.k == codes.compute_k(code) == k
    assert code.d == codes.compute_distance(code).value == d and not code.d_trusted
    computed = codes.compute_logicals(code)
    assert computed.k == k
    assert codes.verify_logicals(code, computed).ok
    # the set transcribed for these checks passes; the other code's is rejected
    assert codes.verify_logicals(code, _transcribed(checks_of)).ok
    report = codes.verify_logicals(code, _transcribed(name_of))
    assert f"set has {_transcribed(name_of).k} pairs, code has k={k}" in report.failures


def test_a_pruned_copy_of_a_trusted_code_reads_no_table_distance():
    code = codes.build_named_code("90-8-10", trust_table_distance=True)
    pruned = replace(code, retained_x=code.retained_x[1:])
    assert pruned.table_d == 10
    assert pruned.d is None and not pruned.d_trusted


def _transcribed(code_id: str) -> codes.LogicalOperatorSet:
    return codes.logical_operator_set_for(codes.build_named_code(code_id))


def test_default_logicals_match_transcription():
    set_4 = _transcribed("18-4-4")
    assert list(set_4.x_supports) == LOGICALS_18_4_4_X
    assert list(set_4.z_supports) == LOGICALS_18_4_4_Z
    set_6 = _transcribed("18-6-3")
    assert list(set_6.x_supports) == LOGICALS_18_6_3_X
    assert list(set_6.z_supports) == LOGICALS_18_6_3_Z


def test_verify_logicals_passes(pruned_18, code_18_6_3):
    report = codes.verify_logicals(pruned_18, _transcribed("18-4-4"))
    assert report.ok, report.failures
    report = codes.verify_logicals(code_18_6_3, _transcribed("18-6-3"))
    assert report.ok, report.failures


def test_verify_logicals_reads_sets_of_no_pairs(pruned_18):
    """A k = 0 code verifies its own empty set, and an empty set is one
    failure against a code with k = 4."""
    k0 = codes.build_bb_code(codes.BbCodeSpec(
        2, 4, (("x", 0), ("y", 1), ("y", 2)), (("y", 0), ("x", 1), ("y", 3))))
    assert k0.k == 0 and k0.d is None
    assert str(codes.compute_distance(k0)) == "not computed (k = 0: no logical operator)"
    report = codes.verify_logicals(k0, codes.compute_logicals(k0))
    assert report.ok, report.failures
    report = codes.verify_logicals(pruned_18, codes.LogicalOperatorSet(18, (), ()))
    assert report.failures == ["set has 0 pairs, code has k=4"]


def test_verify_logicals_catches_stabilizer_swap(pruned_18):
    good = _transcribed("18-4-4")
    stab_row = tuple(int(c) for c in np.nonzero(pruned_18.h_x[0])[0])
    bad = codes.LogicalOperatorSet(
        n=18,
        x_supports=(stab_row,) + good.x_supports[1:],
        z_supports=good.z_supports,
    )
    report = codes.verify_logicals(pruned_18, bad)
    assert not report.ok
    assert any("pairing" in f for f in report.failures)


def test_verify_logicals_weight_check(pruned_18):
    good = _transcribed("18-4-4")
    light = codes.LogicalOperatorSet(
        n=18,
        x_supports=((0,),) + good.x_supports[1:],
        z_supports=good.z_supports,
    )
    report = codes.verify_logicals(pruned_18, light)
    assert not report.ok


def test_logical_matrices_hold_one_support_per_row():
    logicals = _transcribed("18-6-3")
    for matrix, supports in ((logicals.x_matrix(), logicals.x_supports),
                             (logicals.z_matrix(), logicals.z_supports)):
        assert matrix.shape == (6, 18)
        assert [tuple(np.flatnonzero(row).tolist()) for row in matrix] == list(supports)
    empty = codes.LogicalOperatorSet(n=4, x_supports=(), z_supports=())
    assert empty.x_matrix().shape == empty.z_matrix().shape == (0, 4)


@pytest.mark.parametrize(
    "n,x_supports,message",
    [
        (3, ((5,),), "support"), (3, ((-1,),), "support"), (3, ((0, 2, 0),), "support"),
        (3, ((True,),), "support"), (3, ((1.0,),), "support"), (3, (("1",),), "support"),
        (2.5, ((0,),), "n must be"), (True, ((0,),), "n must be"), (-1, ((0,),), "n must be"),
        (3, ((0,), (1,)), "pair up"),
    ],
    ids=["past-n", "negative", "repeat", "bool", "float", "str", "float-n", "bool-n",
         "negative-n", "unpaired"],
)
def test_logical_operator_set_rejects_malformed_sizes_and_supports(n, x_supports, message):
    with pytest.raises(ValueError, match=message):
        codes.LogicalOperatorSet(n, x_supports, ((0,),))
    # unsorted supports and numpy ints are fine
    ok = codes.LogicalOperatorSet(np.int64(3), ((2, np.int64(0)),), ((0,),))
    assert ok.x_matrix().tolist() == [[1, 0, 1]]


def test_spec_exponents_reduce_cyclically():
    spec = codes.BbCodeSpec(
        l=6,
        m=3,
        a_terms=(("x", 1), ("y", 0), ("y", 1)),
        b_terms=(("x", 2), ("y", 2), ("y", 3)),
    )
    assert ("y", 0) in spec.b_terms


_GOOD_TERMS = (("x", 1), ("y", 0), ("y", 2))


@pytest.mark.parametrize(
    "l, m, a_terms",
    [
        pytest.param(3, 3, (("x", 1.5), ("y", 0), ("y", 2)), id="float-exponent"),
        pytest.param(3, 3, (("x", 1), ("y", 2.0), ("y", 2)), id="integral-float-exponent"),
        pytest.param(3, 3, (("x", True), ("y", 0), ("y", 2)), id="bool-exponent"),
        pytest.param(3, 3, (("x", "1"), ("y", 0), ("y", 2)), id="str-exponent"),
        pytest.param(3.0, 3, _GOOD_TERMS, id="float-l"),
        pytest.param(3, 3.0, _GOOD_TERMS, id="float-m"),
        pytest.param(True, 3, _GOOD_TERMS, id="bool-l"),
    ],
)
def test_spec_rejects_non_integer_sizes_and_exponents(l, m, a_terms):
    with pytest.raises(ValueError, match="integer"):
        codes.BbCodeSpec(l=l, m=m, a_terms=a_terms, b_terms=_GOOD_TERMS)


@pytest.mark.parametrize(
    "a_terms,message",
    [
        pytest.param(None, "polynomial a needs exactly 3 terms, got None", id="none"),
        pytest.param(5, "polynomial a needs exactly 3 terms, got 5", id="int"),
        pytest.param("xyz", "polynomial a needs exactly 3 terms, got 'xyz'", id="str"),
        pytest.param(_GOOD_TERMS[:2], "polynomial a needs exactly 3 terms", id="two-terms"),
        pytest.param((("y",), ("y", 0), ("y", 2)), r"term \('y',\) of polynomial a", id="one-item"),
        pytest.param((("x", 1, 2), ("y", 0), ("y", 2)), r"term \('x', 1, 2\) of", id="three-items"),
        pytest.param(("x1", ("y", 0), ("y", 2)), "term 'x1' of polynomial a", id="str-term"),
        pytest.param((None, ("y", 0), ("y", 2)), "term None of polynomial a", id="none-term"),
        pytest.param((3, ("y", 0), ("y", 2)), "term 3 of polynomial a", id="int-term"),
    ],
)
def test_spec_rejects_a_malformed_term_list(a_terms, message):
    with pytest.raises(ValueError, match=message):
        codes.BbCodeSpec(3, 3, a_terms, _GOOD_TERMS)
    # the same check guards the second polynomial
    with pytest.raises(ValueError, match=message.replace("polynomial a", "polynomial b")):
        codes.BbCodeSpec(3, 3, _GOOD_TERMS, a_terms)


def test_spec_accepts_term_lists_as_lists():
    spec = codes.BbCodeSpec(3, 3, [["x", 1], ["y", 0], ["y", 2]], list(_GOOD_TERMS))
    assert spec == codes.BbCodeSpec(3, 3, _GOOD_TERMS, _GOOD_TERMS)


def test_spec_accepts_numpy_integers():
    spec = codes.BbCodeSpec(
        np.int64(3), np.int32(3), (("x", np.int64(4)), ("y", 0), ("y", 2)), _GOOD_TERMS
    )
    assert spec == codes.BbCodeSpec(3, 3, _GOOD_TERMS, _GOOD_TERMS)
    assert codes.build_bb_code(spec).k == 4


@pytest.mark.parametrize("cid", sorted(codes.CODE_TABLE))
def test_term_maps_are_powers_of_kronecker_shifts(cid):
    """x = S_l (x) I_m and y = I_l (x) S_m, with S the cyclic shift whose
    row i has its 1 in column i + 1: each term's map is the column of the
    1 in each row of the matrix power."""
    spec = codes.CODE_TABLE[cid]["spec"]
    shift = lambda size: np.roll(np.eye(size, dtype=np.int64), 1, axis=1)
    base = {
        "x": np.kron(shift(spec.l), np.eye(spec.m, dtype=np.int64)),
        "y": np.kron(np.eye(spec.l, dtype=np.int64), shift(spec.m)),
    }
    for axis, exp in spec.a_terms + spec.b_terms:
        power = np.linalg.matrix_power(base[axis], exp)
        assert np.array_equal(power.argmax(axis=1), spec.term_map((axis, exp)))
        assert (power.sum(axis=1) == 1).all()


def test_repeated_monomial_rejected():
    with pytest.raises(ValueError):
        codes.build_bb_code(
            codes.BbCodeSpec(
                l=3,
                m=3,
                a_terms=(("x", 1), ("x", 1), ("y", 2)),
                b_terms=(("y", 1), ("x", 0), ("x", 2)),
            )
        )


@st.composite
def small_specs(draw):
    # nonzero x-power and two distinct y-powers make the three monomials
    # pairwise distinct, so the builder never rejects these
    l = draw(st.integers(3, 4))
    m = draw(st.integers(3, 4))
    ax = draw(st.integers(1, l - 1))
    ay = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    by = draw(st.integers(0, m - 1))
    bx = draw(st.lists(st.integers(1, l - 1), min_size=2, max_size=2, unique=True))
    return codes.BbCodeSpec.from_exponents(l, m, (ax, *ay), (by, *bx))


@given(small_specs())
@settings(max_examples=60, deadline=None)
def test_random_specs_satisfy_css(spec):
    code = codes.build_bb_code(spec)
    prod = gf2.matmul_mod2(code.h_x, code.h_z.T)
    assert not prod.any()
    assert (code.h_x.sum(axis=1) == 6).all()
    assert (code.h_z.sum(axis=1) == 6).all()
    assert (code.h_x.sum(axis=0) == 3).all()
