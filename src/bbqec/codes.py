"""Bivariate-bicycle code construction, parameters, and logical operators.

A code is built from two three-term polynomials in the commuting shift
matrices x and y. The left polynomial block and the right polynomial block
together give the X-type check matrix [A | B] and the Z-type check matrix
[B^T | A^T]; the CSS condition holds automatically because x and y commute.

Data qubits are labeled L0..L{lm-1} (columns 0..lm-1) and R0..R{lm-1}
(columns lm..2lm-1); checks are labeled X{j} / Z{j} by row index, all
zero-indexed. Redundant-check removal is tracked by retained-index lists so
that pruned codes keep the full matrices for reference.

A ``CssCode`` stores only its checks, its spec and a published distance
``table_d``; n, k and d are read from the retained checks, so a
``dataclasses.replace`` of the retained lists reads its own k and d.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import gf2

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
    "compute_logicals",
    "logical_operator_set_for",
    "remove_redundant_checks",
    "verify_logicals",
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


def _binary_matrix(name: str, value) -> np.ndarray:
    """A read-only uint8 copy of a 2-D integer or bool array of 0s and 1s.
    The entries are checked before the cast, so 256 is refused, not wrapped."""
    arr = np.asarray(value)
    if arr.ndim != 2 or arr.dtype.kind not in "biu":
        raise ValueError(f"{name} must be a 2-D int or bool array, got {arr.ndim}-D {arr.dtype}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    arr = arr.astype(np.uint8)
    arr.setflags(write=False)
    return arr


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


@dataclass(frozen=True, eq=False)
class CssCode:
    """A CSS code: its full check matrices and which rows are measured.

    h_x and h_z always hold every construction row; retained_x / retained_z
    say which rows are actually measured. Only these, the spec they were
    built from and ``table_d`` are stored. The rest is read from the
    retained checks: n is h_x's column count and k is ``compute_k``, on
    first read. d is ``compute_distance``'s result where its search runs
    (d_trusted False). Where it cannot (a kernel dimension above 24) and
    every check is retained, d is ``table_d``, the published distance,
    and d_trusted says whether one was given; otherwise d is None. So a
    pruned copy of a trusted code never reports the full code's distance.

    h_x and h_z are stored as read-only uint8 copies, so a code is
    compared and hashed by identity. Raises ValueError unless each is a
    2-D integer or bool array of 0s and 1s, both have the same column
    count, each retained list holds distinct int row indices of its
    matrix, and table_d is None or an int >= 1.
    """

    name: str
    h_x: np.ndarray
    h_z: np.ndarray
    retained_x: tuple[int, ...]
    retained_z: tuple[int, ...]
    spec: BbCodeSpec | None = None
    table_d: int | None = None

    def __post_init__(self):
        # cheap by design: dataclasses.replace runs it again in every set-up
        for label, h, retained in (("x", self.h_x, self.retained_x), ("z", self.h_z, self.retained_z)):
            h = _binary_matrix(f"h_{label}", h)
            object.__setattr__(self, f"h_{label}", h)
            if not (_is_sequence(retained)
                    and all(_is_int(i) and 0 <= i < len(h) for i in retained)
                    and len(set(retained)) == len(retained)):
                raise ValueError(
                    f"retained_{label} must be distinct ints in [0, {len(h)}), got {retained!r}"
                )
            object.__setattr__(self, f"retained_{label}", tuple(map(int, retained)))
        if self.h_z.shape[1] != self.h_x.shape[1]:
            raise ValueError(f"h_z has {self.h_z.shape[1]} columns, h_x has {self.h_x.shape[1]}")
        if self.table_d is not None and not (_is_int(self.table_d) and self.table_d >= 1):
            raise ValueError(f"table_d must be None or an int >= 1, got {self.table_d!r}")

    @property
    def n(self) -> int:
        return self.h_x.shape[1]

    @cached_property
    def k(self) -> int:
        return compute_k(self)

    @cached_property
    def _distance(self) -> tuple[int | None, bool]:
        """(d, d_trusted), from one distance search."""
        found = compute_distance(self)
        if found.computed:
            return found.value, False
        if self.table_d is not None and self.all_checks_retained():
            return int(self.table_d), True
        return None, False

    @property
    def d(self) -> int | None:
        return self._distance[0]

    @property
    def d_trusted(self) -> bool:
        return self._distance[1]

    @property
    def half(self) -> int:
        return self.n // 2

    @property
    def checks(self) -> tuple[tuple[str, int], ...]:
        """The retained checks in column order: ("X", r) for each retained
        X row, then ("Z", r) for each retained Z row."""
        return tuple([("X", r) for r in self.retained_x] + [("Z", r) for r in self.retained_z])

    def data_label(self, col: int) -> str:
        if col < self.half:
            return f"L{col}"
        return f"R{col - self.half}"

    def retained_h_x(self) -> np.ndarray:
        return self.h_x[list(self.retained_x)]

    def retained_h_z(self) -> np.ndarray:
        return self.h_z[list(self.retained_z)]

    def all_checks_retained(self) -> bool:
        return len(self.retained_x) == len(self.h_x) and len(
            self.retained_z
        ) == len(self.h_z)


def _polynomial(spec: BbCodeSpec, terms: Iterable[Monomial]) -> np.ndarray:
    """Sum of the monomials: each adds a 1 at (row, its map of row), so a
    repeated monomial cancels."""
    size = spec.l * spec.m
    total = np.zeros((size, size), dtype=np.uint8)
    rows = np.arange(size)
    for term in terms:
        total[rows, spec.term_map(term)] ^= 1
    return total


def build_bb_code(spec: BbCodeSpec, name: str = "") -> CssCode:
    """Construct the code for a polynomial spec.

    Raises ValueError if the three monomials of either polynomial are not
    pairwise distinct as matrices (the check rows must have weight 3+3).
    """
    a = _polynomial(spec, spec.a_terms)
    b = _polynomial(spec, spec.b_terms)
    for label, mat in (("a", a), ("b", b)):
        if not (mat.sum(axis=1) == 3).all():
            raise ValueError(
                f"polynomial {label} has a repeated monomial (row weight != 3)"
            )
    h_x = np.hstack([a, b])
    h_z = np.hstack([b.T, a.T])
    if gf2.matmul_mod2(h_x, h_z.T).any():
        raise AssertionError("CSS condition violated; construction bug")
    every = tuple(range(len(h_x)))
    return CssCode(name=name or f"bb-l{spec.l}-m{spec.m}", h_x=h_x, h_z=h_z,
                   retained_x=every, retained_z=every, spec=spec)


def compute_k(code: CssCode) -> int:
    """Logical qubit count of the retained code.

    For a full (unpruned) polynomial code the rank-based count is
    cross-checked against twice the dimension of ker(A) intersected with
    ker(B), A and B being the two halves of h_x = [A | B]. A mismatch
    means that h_x and h_z are not the two check matrices of one
    two-block code (say, one was replaced), and raises ValueError.
    """
    k = code.n - gf2.rank(code.retained_h_x()) - gf2.rank(code.retained_h_z())
    if code.all_checks_retained() and code.spec is not None:
        a, b = np.hsplit(code.h_x, 2)
        joint_kernel_dim = code.half - gf2.rank(np.vstack([a, b]))
        if k != 2 * joint_kernel_dim:
            raise ValueError(
                f"k mismatch: rank route {k}, kernel route {2 * joint_kernel_dim}; "
                "h_x and h_z are not the check matrices of one two-block code"
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
) -> int | None:
    """Minimum Hamming weight over nonzero kernel vectors not in the row
    space, None if every kernel vector lies in it (k = 0).

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
    return None


# the largest kernel dimension the distance search walks: 2^24 vectors, about 16.7M
_MAX_KERNEL_DIM = 24


def compute_distance(code: CssCode) -> DistanceResult:
    """Exhaustive minimum-distance search over both error types.

    Walks ker(h_x) for weights of Z-type logicals and ker(h_z) for X-type
    logicals, each time excluding the opposite row space, and returns the
    smaller minimum. Kernels larger than ``_MAX_KERNEL_DIM`` yield an
    honest "not computed" result instead of a bound; both kernels are
    sized before either is searched. A code with k = 0 has no logical
    operator, so no distance, and is "not computed" too.
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
        rref, pivots = gf2.row_echelon(space_of)
        minima.append(_min_weight_outside_row_space(basis, rref, pivots))
    if None in minima:
        return DistanceResult(value=None, computed=False, reason="k = 0: no logical operator")
    return DistanceResult(value=min(minima), computed=True)


def remove_redundant_checks(
    code: CssCode,
    x_removals: Sequence[int],
    z_removals: Sequence[int],
) -> CssCode:
    """Drop checks whose removal keeps k.

    Dropping a row never raises a rank, so k = n - rank(h_x) - rank(h_z)
    keeps its value exactly when both ranks do, which is exactly when the
    row spaces, and therefore d, are untouched. Raises ValueError unless
    each removal list is a sequence of distinct ints (not bools) that are
    currently retained, and for a removal that changes k.
    """
    for label, removals, retained in (("x", x_removals, code.retained_x),
                                      ("z", z_removals, code.retained_z)):
        if not (_is_sequence(removals)
                and all(_is_int(i) and i in retained for i in removals)
                and len(set(removals)) == len(removals)):
            raise ValueError(
                f"{label}_removals must be distinct retained check indices, got {removals!r}"
            )
    pruned = replace(
        code,
        retained_x=tuple(i for i in code.retained_x if i not in x_removals),
        retained_z=tuple(i for i in code.retained_z if i not in z_removals),
    )
    if pruned.k != code.k:
        raise ValueError(
            f"removal X{sorted(x_removals)} / Z{sorted(z_removals)} changes k "
            f"{code.k} -> {pruned.k}; not a redundant set"
        )
    return pruned


# Published code family: name -> (spec, expected (n, k, d)). The distances
# of the three largest entries are out of reach of the exhaustive search
# here; trust_table_distance attaches them as table_d.
CODE_TABLE: dict[str, dict] = {
    "18-4-4": {
        "spec": BbCodeSpec.from_exponents(3, 3, (1, 0, 2), (1, 0, 2)),
        "expected": (18, 4, 4),
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
    },
    "54-4-8": {
        "spec": BbCodeSpec(
            l=9,
            m=3,
            a_terms=(("x", 1), ("y", 0), ("y", 2)),
            b_terms=(("y", 1), ("x", 6), ("x", 5)),
        ),
        "expected": (54, 4, 8),
    },
    "90-8-10": {
        "spec": BbCodeSpec(
            l=3,
            m=15,
            a_terms=(("x", 0), ("y", 1), ("y", 5)),
            b_terms=(("y", 3), ("x", 1), ("x", 2)),
        ),
        "expected": (90, 8, 10),
    },
    "144-12-12": {
        "spec": BbCodeSpec(
            l=12,
            m=6,
            a_terms=(("x", 3), ("y", 1), ("y", 2)),
            b_terms=(("y", 3), ("x", 1), ("x", 2)),
        ),
        "expected": (144, 12, 12),
    },
}

PRUNED_18_4_4_REMOVALS = ((2, 8), (3, 4))


def build_named_code(code_id: str, trust_table_distance: bool = False) -> CssCode:
    """Build a code from the published family table.

    Accepts the table names plus two derived ids: "18-4-4-pruned" (the
    experiment's 14-check layout, removing X2, X8, Z3, Z4) and "18-6-3"
    (which also drops X5 and Z5, raising k to 6 and lowering d to 3).
    With trust_table_distance the table's d is attached as ``table_d``,
    which d reads where the distance search cannot run.
    """
    table_id = "18-4-4" if code_id in ("18-4-4-pruned", "18-6-3") else code_id
    if table_id not in CODE_TABLE:
        raise KeyError(f"unknown code id {code_id!r}")
    entry = CODE_TABLE[table_id]
    code = build_bb_code(entry["spec"], name=code_id)
    n, k, d = entry["expected"]
    if trust_table_distance:
        # before the first k read: a replace after it would run compute_k again
        code = replace(code, table_d=d)
    if code.n != n or code.k != k:
        raise AssertionError(f"{table_id}: built [[{code.n},{code.k},?]], expected [[{n},{k},{d}]]")
    if code_id != table_id:
        code = remove_redundant_checks(code, *PRUNED_18_4_4_REMOVALS)
    if code_id == "18-6-3":
        code = replace(code, retained_x=tuple(i for i in code.retained_x if i != 5),
                       retained_z=tuple(i for i in code.retained_z if i != 5))
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

    def _matrix(self, supports: tuple[tuple[int, ...], ...]) -> np.ndarray:
        """Row i marks ``supports[i]``; one scatter, so k = 0 gives 0 x n."""
        bits = np.zeros((self.k, self.n), dtype=np.uint8)
        rows = np.repeat(np.arange(self.k), [len(s) for s in supports])
        bits[rows, [q for s in supports for q in s]] = 1
        return bits

    def x_matrix(self) -> np.ndarray:
        return self._matrix(self.x_supports)

    def z_matrix(self) -> np.ndarray:
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
    if k != code.k:
        failures.append(f"set has {k} pairs, code has k={code.k}")

    x_mat = logicals.x_matrix()
    z_mat = logicals.z_matrix()

    comm_x = gf2.matmul_mod2(h_z, x_mat.T)
    for j, i in zip(*np.nonzero(comm_x)):
        failures.append(f"X logical {i + 1} anticommutes with retained Z check row {j}")
    comm_z = gf2.matmul_mod2(h_x, z_mat.T)
    for j, i in zip(*np.nonzero(comm_z)):
        failures.append(f"Z logical {i + 1} anticommutes with retained X check row {j}")

    pairing = gf2.matmul_mod2(x_mat, z_mat.T)
    for i, j in zip(*np.nonzero(pairing != np.eye(k, dtype=np.uint8))):
        verb = "commutes" if pairing[i, j] == 0 else "anticommutes"
        failures.append(f"pairing failure: X logical {i + 1} {verb} with Z logical {j + 1}")

    rank_x = gf2.rank(h_x)
    if gf2.rank(np.vstack([h_x, x_mat])) != rank_x + k:
        failures.append("X logicals not independent modulo the X stabilizer row space")
    rank_z = gf2.rank(h_z)
    if gf2.rank(np.vstack([h_z, z_mat])) != rank_z + k:
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
    commute_with: np.ndarray, stabilizers: np.ndarray, count: int
) -> np.ndarray:
    """The first ``count`` kernel vectors of one check matrix, in kernel
    basis order, that are independent of the other's rows and of the
    kernel vectors before them, one row each.

    One elimination of the transposed stack [stabilizers; kernel basis]:
    column i of the transpose is a pivot exactly when row i of the stack
    is independent of the rows above it.
    """
    kernel = gf2.kernel_basis(commute_with)
    _, pivots = gf2.row_echelon(np.vstack([stabilizers, kernel]).T)
    reps = kernel[[p - len(stabilizers) for p in pivots if p >= len(stabilizers)]]
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
    k = code.k
    if k == 0:
        return LogicalOperatorSet(n=code.n, x_supports=(), z_supports=())
    h_x, h_z = code.retained_h_x(), code.retained_h_z()
    x_mat = _coset_representatives(h_z, h_x, k)
    z_mat = _coset_representatives(h_x, h_z, k)
    pairing = gf2.matmul_mod2(x_mat, z_mat.T)
    # [P | I] reduces to [I | P^-1] exactly when P is invertible
    reduced, pivots = gf2.row_echelon(np.hstack([pairing, np.eye(k, dtype=np.uint8)]))
    if pivots[k - 1] != k - 1:
        raise ValueError("pairing matrix is singular")
    z_bits = gf2.matmul_mod2(reduced[:, k:].T, z_mat)
    to_support = lambda row: tuple(int(c) for c in np.flatnonzero(row))
    return LogicalOperatorSet(
        n=code.n,
        x_supports=tuple(to_support(r) for r in x_mat),
        z_supports=tuple(to_support(r) for r in z_bits),
    )


def logical_operator_set_for(code: CssCode) -> LogicalOperatorSet:
    """The transcribed logicals named by ``code.name`` if they have
    ``code.k`` pairs (a code may keep the name but not the checks),
    computed ones otherwise."""
    transcribed = _DEFAULT_LOGICALS.get(code.name)
    if transcribed is not None and transcribed.k == code.k:
        return transcribed
    return compute_logicals(code)
