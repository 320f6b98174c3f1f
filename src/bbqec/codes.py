"""Bivariate-bicycle code construction, parameters, and logical operators.

A code is built from two three-term polynomials in the commuting shift
matrices x and y. The left polynomial block and the right polynomial block
together give the X-type check matrix [A | B] and the Z-type check matrix
[B^T | A^T]; the CSS condition holds automatically because x and y commute.

Data qubits are labeled L0..L{lm-1} (columns 0..lm-1) and R0..R{lm-1}
(columns lm..2lm-1); checks are labeled X{j} / Z{j} by row index, all
zero-indexed. Redundant-check removal is tracked by retained-index lists so
that pruned codes keep the full matrices for reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import gf2
from .gf2 import BinaryMatrix

__all__ = [
    "BbCodeSpec",
    "CssCode",
    "DistanceResult",
    "LogicalOperatorSet",
    "LogicalsReport",
    "CODE_TABLE",
    "build_bb_code",
    "build_named_code",
    "compute_k",
    "compute_distance",
    "remove_redundant_checks",
    "derive_18_6_3",
    "default_logicals",
    "verify_logicals",
    "export_code",
    "parse_code",
]

Monomial = tuple[str, int]


def _is_int(value) -> bool:
    """Whether a size, exponent or index is an int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_int(name: str, value) -> int:
    """``value`` as a Python int: a Python or numpy integer, not a bool."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_sequence(value) -> bool:
    """Whether a term list or a term is a sequence of items: not a string."""
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


@dataclass(frozen=True)
class BbCodeSpec:
    """Two three-term polynomials in x and y over GF(2).

    Terms are (axis, exponent) pairs with axis "x" or "y". Exponents are
    reduced modulo the cycle length of their axis (l for x, m for y), since
    the shift matrices are cyclic. The canonical constructor
    `from_exponents` maps a=[a1,a2,a3] to x^a1 + y^a2 + y^a3 and
    b=[b1,b2,b3] to y^b1 + x^b2 + x^b3; general term lists cover codes
    whose published polynomials mix the axes differently.
    """

    l: int
    m: int
    a_terms: tuple[Monomial, ...]
    b_terms: tuple[Monomial, ...]

    def __post_init__(self):
        if not (_is_int(self.l) and _is_int(self.m)) or self.l < 1 or self.m < 1:
            raise ValueError(
                f"l and m must be positive integers, got {self.l!r} and {self.m!r}"
            )
        for label, terms in (("a", self.a_terms), ("b", self.b_terms)):
            if not _is_sequence(terms) or len(terms) != 3:
                raise ValueError(f"polynomial {label} needs exactly 3 terms, got {terms!r}")
            reduced = []
            for term in terms:
                if not _is_sequence(term) or len(term) != 2:
                    raise ValueError(
                        f"term {term!r} of polynomial {label} is not an (axis, exponent) pair"
                    )
                axis, exp = term
                if axis not in ("x", "y"):
                    raise ValueError(f"unknown axis {axis!r}")
                if not _is_int(exp):
                    raise ValueError(f"exponent {exp!r} is not an integer")
                if exp < 0:
                    raise ValueError("negative exponent")
                period = self.l if axis == "x" else self.m
                reduced.append((axis, exp % period))
            object.__setattr__(self, f"{label}_terms", tuple(reduced))

    @classmethod
    def from_exponents(
        cls, l: int, m: int, a: Sequence[int], b: Sequence[int]
    ) -> "BbCodeSpec":
        a1, a2, a3 = a
        b1, b2, b3 = b
        return cls(
            l=l,
            m=m,
            a_terms=(("x", a1), ("y", a2), ("y", a3)),
            b_terms=(("y", b1), ("x", b2), ("x", b3)),
        )

    def term_map(self, term: Monomial) -> np.ndarray:
        """Row -> column index map of one monomial, a permutation of the
        l*m cells: cell (i, j) is row i*m + j, and x^e sends it to column
        ((i + e) mod l)*m + j, y^e to column i*m + (j + e) mod m."""
        axis, exp = term
        i, j = np.divmod(np.arange(self.l * self.m), self.m)
        if axis == "x":
            i = (i + exp) % self.l
        else:
            j = (j + exp) % self.m
        return i * self.m + j


@dataclass(frozen=True)
class CssCode:
    """A CSS code with full check matrices and retained-check index lists.

    h_x and h_z always hold every construction row; retained_x / retained_z
    say which rows are actually measured. k and d refer to the retained
    code; d is None until computed (d_trusted marks a value taken from a
    published table rather than verified here).

    Raises ValueError unless n is an int >= 0, h_x and h_z are
    BinaryMatrix objects with n columns, and each retained list holds
    distinct int row indices of its matrix.
    """

    name: str
    n: int
    h_x: BinaryMatrix
    h_z: BinaryMatrix
    retained_x: tuple[int, ...]
    retained_z: tuple[int, ...]
    k: int | None = None
    d: int | None = None
    d_trusted: bool = False
    spec: BbCodeSpec | None = None

    def __post_init__(self):
        # cheap by design: dataclasses.replace runs it again in every set-up
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"n must be an int >= 0, got {self.n!r}")
        for label, h, retained in (("x", self.h_x, self.retained_x), ("z", self.h_z, self.retained_z)):
            if not isinstance(h, BinaryMatrix):
                raise ValueError(f"h_{label} must be a BinaryMatrix, got {type(h).__name__}")
            if h.cols != self.n:
                raise ValueError(f"h_{label} has {h.cols} columns, n = {self.n}")
            if not (_is_sequence(retained)
                    and all(_is_int(i) and 0 <= i < h.rows for i in retained)
                    and len(set(retained)) == len(retained)):
                raise ValueError(
                    f"retained_{label} must be distinct ints in [0, {h.rows}), got {retained!r}"
                )
            object.__setattr__(self, f"retained_{label}", tuple(map(int, retained)))

    @property
    def half(self) -> int:
        return self.n // 2

    def data_label(self, col: int) -> str:
        if col < self.half:
            return f"L{col}"
        return f"R{col - self.half}"

    def retained_h_x(self) -> BinaryMatrix:
        return BinaryMatrix(self.h_x.bits[list(self.retained_x)])

    def retained_h_z(self) -> BinaryMatrix:
        return BinaryMatrix(self.h_z.bits[list(self.retained_z)])

    def all_checks_retained(self) -> bool:
        return len(self.retained_x) == self.h_x.rows and len(
            self.retained_z
        ) == self.h_z.rows


def _polynomial(spec: BbCodeSpec, terms: Iterable[Monomial]) -> BinaryMatrix:
    """Sum of the monomials: each adds a 1 at (row, its map of row), so a
    repeated monomial cancels."""
    size = spec.l * spec.m
    total = np.zeros((size, size), dtype=np.uint8)
    rows = np.arange(size)
    for term in terms:
        total[rows, spec.term_map(term)] ^= 1
    return BinaryMatrix(total)


def build_bb_code(spec: BbCodeSpec, name: str = "") -> CssCode:
    """Construct the code for a polynomial spec.

    Raises ValueError if the three monomials of either polynomial are not
    pairwise distinct as matrices (the check rows must have weight 3+3).
    """
    a = _polynomial(spec, spec.a_terms)
    b = _polynomial(spec, spec.b_terms)
    for label, mat in (("a", a), ("b", b)):
        if not (mat.bits.sum(axis=1) == 3).all():
            raise ValueError(
                f"polynomial {label} has a repeated monomial (row weight != 3)"
            )
    h_x = gf2.hstack(a, b)
    h_z = gf2.hstack(gf2.transpose(b), gf2.transpose(a))
    css = gf2.matmul_mod2(h_x, gf2.transpose(h_z))
    if css.bits.any():
        raise AssertionError("CSS condition violated; construction bug")
    every = tuple(range(h_x.rows))
    code = CssCode(name=name or f"bb-l{spec.l}-m{spec.m}", n=2 * spec.l * spec.m, h_x=h_x, h_z=h_z,
                   retained_x=every, retained_z=every, spec=spec)
    return replace(code, k=compute_k(code))


def compute_k(code: CssCode) -> int:
    """Logical qubit count of the retained code.

    For a full (unpruned) polynomial code the rank-based count is
    cross-checked against twice the dimension of ker(A) intersected with
    ker(B), A and B being the two halves of h_x = [A | B]; a mismatch is
    a construction bug, not user error.
    """
    k = code.n - gf2.rank(code.retained_h_x()) - gf2.rank(code.retained_h_z())
    if code.all_checks_retained() and code.spec is not None:
        a, b = np.hsplit(code.h_x.bits, 2)
        joint_kernel_dim = code.half - gf2.rank(BinaryMatrix(np.vstack([a, b])))
        if k != 2 * joint_kernel_dim:
            raise AssertionError(
                f"k mismatch: rank route {k}, kernel route {2 * joint_kernel_dim}"
            )
    return k


@dataclass(frozen=True)
class DistanceResult:
    value: int | None
    computed: bool
    reason: str = ""

    def __str__(self) -> str:
        if self.computed:
            return str(self.value)
        return f"not computed ({self.reason})"


def _span(rows: np.ndarray) -> np.ndarray:
    """All 2^len(rows) XOR combinations of packed rows; entry i combines the
    rows whose index bits are set in i."""
    out = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    for row in rows:
        out = np.concatenate([out, out ^ row])
    return out


def _min_weight_outside_row_space(
    kernel_mat: np.ndarray, rref: np.ndarray, pivots: list[int]
) -> int:
    """Minimum Hamming weight over nonzero kernel vectors not in the row space.

    Records the weight of every one of the 2^dim combinations of the kernel
    rows, bit-parallel: the span of the low (at most 16) rows is tabulated
    once as packed uint64 words, and each combination of the high rows is
    XORed into that table and popcounted. Candidates are then tested in
    increasing weight order until one fails membership.
    """
    dim, n = kernel_mat.shape
    packed = gf2.pack_rows(kernel_mat)
    low_dim = min(dim, 16)
    low = _span(packed[:low_dim])
    high = _span(packed[low_dim:])
    weights = np.empty((len(high), len(low)), dtype=np.min_scalar_type(n))
    for h, offset in enumerate(high):
        np.bitwise_count(low ^ offset).sum(axis=1, out=weights[h])
    weights = weights.reshape(-1)

    for w in np.flatnonzero(np.bincount(weights))[1:]:
        index = np.flatnonzero(weights == w)
        vectors = low[index % len(low)] ^ high[index // len(low)]
        candidates = gf2.unpack_rows(vectors, n)
        if gf2.reduce_rows(rref, pivots, candidates).any():
            return int(w)
    raise AssertionError("kernel contains no vector outside the row space")


# the largest kernel dimension the distance search walks: 2^24 vectors, about 16.7M
_MAX_KERNEL_DIM = 24


def compute_distance(code: CssCode) -> DistanceResult:
    """Exhaustive minimum-distance search over both error types.

    Walks ker(h_x) for weights of Z-type logicals and ker(h_z) for X-type
    logicals, each time excluding the opposite row space, and returns the
    smaller minimum. Kernels larger than ``_MAX_KERNEL_DIM`` yield an
    honest "not computed" result instead of a bound; both kernels are
    sized before either is searched.
    """
    sides = [
        (gf2.kernel_basis(code.retained_h_x()), code.retained_h_z()),
        (gf2.kernel_basis(code.retained_h_z()), code.retained_h_x()),
    ]
    for basis, _ in sides:
        if len(basis) > _MAX_KERNEL_DIM:
            reason = f"kernel dimension {len(basis)} exceeds limit {_MAX_KERNEL_DIM}"
            return DistanceResult(value=None, computed=False, reason=reason)
    minima = []
    for basis, space_of in sides:
        kernel_mat = np.vstack([v.bits[0] for v in basis]) if basis else np.zeros(
            (0, code.n), dtype=np.uint8
        )
        rref, pivots = gf2.row_echelon(space_of)
        minima.append(_min_weight_outside_row_space(kernel_mat, rref, pivots))
    return DistanceResult(value=min(minima), computed=True)


def remove_redundant_checks(
    code: CssCode,
    x_removals: Sequence[int],
    z_removals: Sequence[int],
) -> CssCode:
    """Drop checks whose removal leaves both ranks unchanged.

    Rank preservation is exactly the condition under which the row spaces,
    and therefore k and d, are untouched; a removal that drops either rank
    is rejected with a diagnostic naming the offending set.
    """
    new_rx = tuple(i for i in code.retained_x if i not in set(x_removals))
    new_rz = tuple(i for i in code.retained_z if i not in set(z_removals))
    for removals, retained in ((x_removals, code.retained_x), (z_removals, code.retained_z)):
        for i in removals:
            if i not in retained:
                raise ValueError(f"check index {i} is not currently retained")
    pruned = replace(code, retained_x=new_rx, retained_z=new_rz)
    old_rank_x = gf2.rank(code.retained_h_x())
    old_rank_z = gf2.rank(code.retained_h_z())
    new_rank_x = gf2.rank(pruned.retained_h_x())
    new_rank_z = gf2.rank(pruned.retained_h_z())
    if new_rank_x != old_rank_x or new_rank_z != old_rank_z:
        raise ValueError(
            f"removal X{sorted(x_removals)} / Z{sorted(z_removals)} changes rank "
            f"({old_rank_x},{old_rank_z}) -> ({new_rank_x},{new_rank_z}); "
            "not a redundant set"
        )
    k = compute_k(pruned)
    if code.k is not None and k != code.k:
        raise AssertionError("rank-preserving removal changed k; logic bug")
    return replace(pruned, k=k)


def derive_18_6_3(code: CssCode) -> CssCode:
    """Trade distance for rate: drop one more check of each type.

    Input must be the pruned [[18,4,4]] code (7+7 retained checks). Dropping
    X5 and Z5 lowers both ranks by one, which raises k from 4 to 6 and
    lowers d from 4 to 3; both are recomputed and verified here.
    """
    if code.n != 18 or len(code.retained_x) != 7 or len(code.retained_z) != 7:
        raise ValueError("expected the pruned 18-qubit code with 7+7 checks")
    if 5 not in code.retained_x or 5 not in code.retained_z:
        raise ValueError("check 5 already removed; cannot derive the rate-6 code")
    new_code = replace(
        code,
        name="18-6-3",
        retained_x=tuple(i for i in code.retained_x if i != 5),
        retained_z=tuple(i for i in code.retained_z if i != 5),
        d=None,
        d_trusted=False,
    )
    k = compute_k(new_code)
    dist = compute_distance(new_code)
    return replace(new_code, k=k, d=dist.value)


# Published code family: name -> (l, m, a_terms, b_terms, expected (n, k, d)).
# Distances of the three largest entries are table values, out of reach of
# exhaustive search here.
CODE_TABLE: dict[str, dict] = {
    "18-4-4": {
        "spec": BbCodeSpec.from_exponents(3, 3, (1, 0, 2), (1, 0, 2)),
        "expected": (18, 4, 4),
        "d_computable": True,
    },
    # The published size pair for this row reads "6,3", but with m=3 the
    # polynomial term y^3 collapses to identity and the built code has
    # distance 4; the (3,6) orientation reproduces [[36,4,6]] exactly, so
    # the pair is stored transposed here.
    "36-4-6": {
        "spec": BbCodeSpec(
            l=3,
            m=6,
            a_terms=(("x", 1), ("y", 0), ("y", 1)),
            b_terms=(("x", 2), ("y", 2), ("y", 3)),
        ),
        "expected": (36, 4, 6),
        "d_computable": True,
    },
    "54-4-8": {
        "spec": BbCodeSpec(
            l=9,
            m=3,
            a_terms=(("x", 1), ("y", 0), ("y", 2)),
            b_terms=(("y", 1), ("x", 6), ("x", 5)),
        ),
        "expected": (54, 4, 8),
        "d_computable": False,
    },
    "90-8-10": {
        "spec": BbCodeSpec(
            l=3,
            m=15,
            a_terms=(("x", 0), ("y", 1), ("y", 5)),
            b_terms=(("y", 3), ("x", 1), ("x", 2)),
        ),
        "expected": (90, 8, 10),
        "d_computable": False,
    },
    "144-12-12": {
        "spec": BbCodeSpec(
            l=12,
            m=6,
            a_terms=(("x", 3), ("y", 1), ("y", 2)),
            b_terms=(("y", 3), ("x", 1), ("x", 2)),
        ),
        "expected": (144, 12, 12),
        "d_computable": False,
    },
}

PRUNED_18_4_4_REMOVALS = ((2, 8), (3, 4))


def build_named_code(code_id: str, trust_table_distance: bool = False) -> CssCode:
    """Build a code from the published family table.

    Accepts the table names plus two derived ids: "18-4-4-pruned" (the
    experiment's 14-check layout, removing X2, X8, Z3, Z4) and "18-6-3".
    With trust_table_distance the table's d is attached (d_trusted=True)
    when it cannot be verified by exhaustive search.
    """
    if code_id in ("18-4-4-pruned", "18-6-3"):
        base = build_named_code("18-4-4", trust_table_distance)
        pruned = remove_redundant_checks(base, *PRUNED_18_4_4_REMOVALS)
        if code_id == "18-6-3":
            return derive_18_6_3(pruned)
        return replace(pruned, name="18-4-4-pruned")
    if code_id not in CODE_TABLE:
        raise KeyError(f"unknown code id {code_id!r}")
    entry = CODE_TABLE[code_id]
    code = build_bb_code(entry["spec"], name=code_id)
    n, k, d = entry["expected"]
    if code.n != n or code.k != k:
        raise AssertionError(f"{code_id}: built [[{code.n},{code.k},?]], expected [[{n},{k},{d}]]")
    if trust_table_distance and not entry["d_computable"]:
        code = replace(code, d=d, d_trusted=True)
    return code


@dataclass(frozen=True)
class LogicalOperatorSet:
    """Paired X/Z logical operators as data-qubit support index tuples."""

    n: int
    x_supports: tuple[tuple[int, ...], ...]
    z_supports: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.x_supports) != len(self.z_supports):
            raise ValueError("x and z logical lists must pair up")
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"n must be an int >= 0, got {self.n!r}")
        for support in (*self.x_supports, *self.z_supports):
            ints = all(_is_int(q) and 0 <= q < self.n for q in support)
            if not ints or len(set(support)) < len(support):
                raise ValueError(f"support {support} must be distinct ints in [0, {self.n})")

    @property
    def k(self) -> int:
        return len(self.x_supports)

    def _matrix(self, supports: tuple[tuple[int, ...], ...]) -> BinaryMatrix:
        """Row i marks ``supports[i]``; one scatter, so k = 0 gives 0 x n."""
        bits = np.zeros((self.k, self.n), dtype=np.uint8)
        rows = np.repeat(np.arange(self.k), [len(s) for s in supports])
        bits[rows, [q for s in supports for q in s]] = 1
        return BinaryMatrix(bits)

    def x_matrix(self) -> BinaryMatrix:
        return self._matrix(self.x_supports)

    def z_matrix(self) -> BinaryMatrix:
        return self._matrix(self.z_supports)


def _lr(half: int, l_cols: Sequence[int] = (), r_cols: Sequence[int] = ()):
    return tuple(sorted(list(l_cols) + [half + c for c in r_cols]))


_DEFAULT_LOGICALS = {
    "18-4-4": LogicalOperatorSet(
        n=18,
        x_supports=(
            _lr(9, (0, 2, 4, 5, 6, 7)),
            _lr(9, (1, 2, 3, 4, 6, 8)),
            _lr(9, (0, 1, 6), (0,)),
            _lr(9, (0, 1, 4, 5, 6), (1,)),
        ),
        z_supports=(
            _lr(9, (0, 2, 3, 4, 8), (0,)),
            _lr(9, (0, 2, 4, 5, 6, 7)),
            _lr(9, (1, 2, 7), (1,)),
            _lr(9, (0, 1, 6), (0,)),
        ),
    ),
    "18-6-3": LogicalOperatorSet(
        n=18,
        x_supports=(
            _lr(9, (0, 1, 3, 5, 6)),
            _lr(9, (1, 2, 3, 4, 7)),
            _lr(9, (0, 2, 4, 5, 8)),
            _lr(9, (3, 5), (0,)),
            _lr(9, (3, 4), (1,)),
            _lr(9, (4, 5), (2,)),
        ),
        z_supports=(
            _lr(9, (0, 3, 4, 5, 8)),
            _lr(9, (0, 3, 8), (0, 1)),
            _lr(9, (0, 5, 8), (0, 2)),
            _lr(9, (1, 4, 6, 8), (0, 1, 2)),
            _lr(9, (0, 1, 2, 4, 7, 8), (2,)),
            _lr(9, (2, 4), (1,)),
        ),
    ),
}
_DEFAULT_LOGICALS["18-4-4-pruned"] = _DEFAULT_LOGICALS["18-4-4"]  # the same data qubits


def default_logicals(code_id: str) -> LogicalOperatorSet:
    """The selected logical operator sets for the two experiment codes."""
    if code_id not in _DEFAULT_LOGICALS:
        raise KeyError(f"no default logicals for code id {code_id!r}")
    return _DEFAULT_LOGICALS[code_id]


@dataclass
class LogicalsReport:
    ok: bool
    failures: list[str]

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.failures)


def verify_logicals(code: CssCode, logicals: LogicalOperatorSet) -> LogicalsReport:
    """Check commutation, symplectic pairing, independence, and weight.

    A valid set must commute with every retained stabilizer, anticommute
    exactly with its own partner, be independent of the stabilizer row
    spaces, and (when the code's distance is known) have no operator
    lighter than d.
    """
    failures: list[str] = []
    h_x = code.retained_h_x()
    h_z = code.retained_h_z()
    k = logicals.k

    if logicals.n != code.n:
        return LogicalsReport(False, [f"length mismatch: {logicals.n} != {code.n}"])
    if code.k is not None and k != code.k:
        failures.append(f"set has {k} pairs, code has k={code.k}")

    x_mat = logicals.x_matrix()
    z_mat = logicals.z_matrix()

    comm_x = gf2.matmul_mod2(h_z, gf2.transpose(x_mat))
    for j, i in zip(*np.nonzero(comm_x.bits)):
        failures.append(f"X logical {i + 1} anticommutes with retained Z check row {j}")
    comm_z = gf2.matmul_mod2(h_x, gf2.transpose(z_mat))
    for j, i in zip(*np.nonzero(comm_z.bits)):
        failures.append(f"Z logical {i + 1} anticommutes with retained X check row {j}")

    pairing = gf2.matmul_mod2(x_mat, gf2.transpose(z_mat))
    expected = gf2.identity(k)
    if pairing != expected:
        bad = np.nonzero(pairing.bits != expected.bits)
        for i, j in zip(*bad):
            verb = "commutes" if pairing.bits[i, j] == 0 else "anticommutes"
            failures.append(f"pairing failure: X logical {i + 1} {verb} with Z logical {j + 1}")

    rank_x = gf2.rank(h_x)
    if gf2.rank(gf2.vstack(h_x, x_mat)) != rank_x + k:
        failures.append("X logicals not independent modulo the X stabilizer row space")
    rank_z = gf2.rank(h_z)
    if gf2.rank(gf2.vstack(h_z, z_mat)) != rank_z + k:
        failures.append("Z logicals not independent modulo the Z stabilizer row space")

    if code.d is not None:
        for kind, supports in (("X", logicals.x_supports), ("Z", logicals.z_supports)):
            for i, s in enumerate(supports):
                if len(s) < code.d:
                    failures.append(
                        f"{kind} logical {i + 1} has weight {len(s)} < d={code.d}"
                    )

    return LogicalsReport(not failures, failures)


def _coset_representatives(
    commute_with: BinaryMatrix, stabilizers: BinaryMatrix, count: int
) -> list[BinaryMatrix]:
    """The first ``count`` kernel vectors of one check matrix, in kernel
    basis order, that are independent of the other's rows and of the
    kernel vectors before them.

    One elimination of the transposed stack [stabilizers; kernel basis]:
    column i of the transpose is a pivot exactly when row i of the stack
    is independent of the rows above it.
    """
    kernel = gf2.kernel_basis(commute_with)
    stack = gf2.vstack(stabilizers, *kernel)
    _, pivots = gf2.row_echelon(gf2.transpose(stack))
    reps = [kernel[p - stabilizers.rows] for p in pivots if p >= stabilizers.rows]
    if len(reps) < count:
        raise ValueError(f"found {len(reps)} coset representatives, wanted {count}")
    return reps[:count]


def compute_logicals(code: CssCode) -> LogicalOperatorSet:
    """Derive one paired logical operator set from the check matrices.

    X representatives come from the kernel of the retained Z checks modulo
    the retained X stabilizer rows, Z representatives symmetrically; the Z
    side is then re-mixed so each pair anticommutes and all cross pairs
    commute.
    No attempt is made to minimize weights.
    """
    k = code.k if code.k is not None else compute_k(code)
    if k == 0:
        return LogicalOperatorSet(n=code.n, x_supports=(), z_supports=())
    h_x, h_z = code.retained_h_x(), code.retained_h_z()
    x_reps = _coset_representatives(h_z, h_x, k)
    z_reps = _coset_representatives(h_x, h_z, k)
    x_mat = gf2.vstack(*x_reps)
    z_mat = gf2.vstack(*z_reps)
    pairing = gf2.matmul_mod2(x_mat, gf2.transpose(z_mat))
    # [P | I] reduces to [I | P^-1] exactly when P is invertible
    reduced, pivots = gf2.row_echelon(gf2.hstack(pairing, gf2.identity(k)))
    if pivots[k - 1] != k - 1:
        raise ValueError("pairing matrix is singular")
    z_bits = gf2.matmul_mod2(BinaryMatrix(reduced[:, k:].T), z_mat).bits
    to_support = lambda row: tuple(int(c) for c in np.flatnonzero(row))
    return LogicalOperatorSet(
        n=code.n,
        x_supports=tuple(to_support(r) for r in x_mat.bits),
        z_supports=tuple(to_support(r) for r in z_bits),
    )


def logical_operator_set_for(code: CssCode) -> LogicalOperatorSet:
    """Default logicals for the experiment codes, computed ones otherwise."""
    if code.name in _DEFAULT_LOGICALS:
        return _DEFAULT_LOGICALS[code.name]
    return compute_logicals(code)


def _bits_line(row: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in row)


def export_code(code: CssCode, logicals: LogicalOperatorSet | None = None) -> str:
    """Plain-text code file.

    Layout: header line "n k d" (k and d printed as "?" when unknown), a
    NAME line when the code has a name, an HX section and an HZ section
    with one 0/1 string per full check row, RETAINED_X / RETAINED_Z index
    lines, then optional LOGICAL_X i c1 c2... and LOGICAL_Z lines.
    Newline-terminated; round-trips losslessly through parse_code, so a
    name that the NAME line cannot carry (one that is blank, has leading
    or trailing whitespace, or holds a line break) raises ValueError.
    """
    if code.name and (code.name != code.name.strip() or len(code.name.splitlines()) != 1):
        raise ValueError(f"code name {code.name!r} cannot be written on one NAME line")
    lines = []
    d_text = "?" if code.d is None else str(code.d)
    lines.append(f"{code.n} {code.k if code.k is not None else '?'} {d_text}")
    if code.name:
        lines.append(f"NAME {code.name}")
    lines.append("HX")
    for row in code.h_x.bits:
        lines.append(_bits_line(row))
    lines.append("HZ")
    for row in code.h_z.bits:
        lines.append(_bits_line(row))
    lines.append("RETAINED_X " + " ".join(map(str, code.retained_x)))
    lines.append("RETAINED_Z " + " ".join(map(str, code.retained_z)))
    if logicals is not None:
        for i, s in enumerate(logicals.x_supports):
            lines.append(f"LOGICAL_X {i} " + " ".join(map(str, s)))
        for i, s in enumerate(logicals.z_supports):
            lines.append(f"LOGICAL_Z {i} " + " ".join(map(str, s)))
    return "\n".join(lines) + "\n"


def _ints(tokens: Sequence[str], what: str, bound: int) -> tuple[int, ...]:
    """Integer tokens, each in [0, bound)."""
    try:
        values = tuple(int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"{what}: expected integers, got {' '.join(tokens)!r}") from None
    if any(not 0 <= v < bound for v in values):
        raise ValueError(f"{what} {values} outside [0, {bound})")
    return values


def parse_code(text: str) -> tuple[CssCode, LogicalOperatorSet | None]:
    """Inverse of export_code. Raises ValueError on malformed input."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    head = lines[0].split()
    if (
        len(head) != 3
        or head[0] == "?"
        or not all(t.isdigit() or t == "?" for t in head)
    ):
        raise ValueError(f"bad header {lines[0]!r}")
    n = int(head[0])
    k = None if head[1] == "?" else int(head[1])
    d = None if head[2] == "?" else int(head[2])
    lines.append("")  # end marker: every section test below fails on it
    name = ""
    idx = 1
    if lines[idx].startswith("NAME "):
        name = lines[idx][5:].strip()
        idx += 1
    if lines[idx] != "HX":
        raise ValueError("expected HX section")
    idx += 1

    def matrix(stop: str) -> np.ndarray:
        nonlocal idx
        rows = []
        while lines[idx] and not lines[idx].startswith(stop):
            if set(lines[idx]) - {"0", "1"}:
                raise ValueError(
                    f"expected {stop} or a row of 0 and 1, got {lines[idx]!r}"
                )
            if len(lines[idx]) != n:
                raise ValueError(
                    f"check row {lines[idx]!r} has {len(lines[idx])} columns, n = {n}"
                )
            rows.append([int(c) for c in lines[idx]])
            idx += 1
        if not lines[idx]:
            raise ValueError(f"expected {stop} line")
        return np.array(rows, dtype=np.uint8).reshape(-1, n)

    hx = matrix("HZ")
    idx += 1
    hz = matrix("RETAINED_X")
    retained_x = _ints(lines[idx].split()[1:], "RETAINED_X", len(hx))
    idx += 1
    if not lines[idx].startswith("RETAINED_Z"):
        raise ValueError("expected RETAINED_Z line")
    retained_z = _ints(lines[idx].split()[1:], "RETAINED_Z", len(hz))
    idx += 1
    x_logs: list[tuple[int, ...]] = []
    z_logs: list[tuple[int, ...]] = []
    while lines[idx]:
        parts = lines[idx].split()
        if parts[0] == "LOGICAL_X":
            x_logs.append(_ints(parts[2:], "LOGICAL_X support", n))
        elif parts[0] == "LOGICAL_Z":
            z_logs.append(_ints(parts[2:], "LOGICAL_Z support", n))
        else:
            raise ValueError(f"unexpected line {lines[idx]!r}")
        idx += 1
    code = CssCode(
        name=name,
        n=n,
        h_x=BinaryMatrix(hx),
        h_z=BinaryMatrix(hz),
        retained_x=retained_x,
        retained_z=retained_z,
        k=k,
        d=d,
    )
    logicals = None
    if x_logs or z_logs:
        logicals = LogicalOperatorSet(
            n=n, x_supports=tuple(x_logs), z_supports=tuple(z_logs)
        )
    return code, logicals
