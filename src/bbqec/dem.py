"""Detector error models (DEMs): merged single-fault signatures as two arrays.

A DEM of one memory basis has D detectors and K logicals. Its column j
has the prior ``probabilities[j]``, a float64 in (0, 1), and the
signature ``signatures[j]``, a ``gf2.pack_rows`` row of ceil((D + K) /
64) words in which bit d is detector d and bit D + i is logical i. No
bit is at or past D + K, and no two signatures are equal.

Its one text form is ASCII: a line ``detectors D logicals K``, then a
line per column with its prior (``float`` text with no ``_``), its
detector indices, ``|`` and its logical indices, each run decimal,
strictly increasing and in range. Lines end at ``\\n``, blank ones are
skipped, and a ``ValueError`` names the first line or column that breaks
a rule. ``dem_to_text`` writes it and ``parse_dem`` reads it.
"""

from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gf2
from .codes import _as_int

__all__ = ["DemColumn", "DetectorErrorModel", "dem_to_text", "parse_dem"]


class DemColumn(NamedTuple):
    """One merged fault mechanism, as ``DetectorErrorModel.columns`` reads it."""

    probability: float
    detectors: tuple[int, ...]
    logicals: tuple[int, ...]


class _ColumnError(ValueError):
    """A rule ``column`` breaks; ``parse_dem`` names its line, ``build_dem`` its first fault."""

    def __init__(self, column: int, rule: str):
        super().__init__(f"column {column}: {rule}")
        self.column, self.rule = column, rule


@dataclass(frozen=True, eq=False)
class DetectorErrorModel:
    """A DEM; the constructor checks the module docstring's rules and keeps read-only copies."""

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
        order, new = gf2._group_rows(s)
        repeat = np.zeros(len(s), dtype=bool)
        repeat[order] = ~new  # a column whose signature an earlier column has
        # the last word's bits from D + K on (a shift by 64 gives 0)
        past = gf2._rows_differ(s[:, -1:] >> np.uint64((D + K - 1) % 64 + 1), 0)
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
        r, c = gf2._set_bits(self.signatures, D + self.logical_count)
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
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def collisions(self) -> list[tuple[int, ...]]:
        """Groups of columns with equal detectors (so unequal logicals), in
        detector order, and an undetectable column that flips a logical."""
        by_sig: dict[tuple[int, ...], list[int]] = {}
        for j, col in enumerate(self.columns):
            by_sig.setdefault(col.detectors, []).append(j)
        return [tuple(js) for sig, js in sorted(by_sig.items())
                if len(js) > 1 or not sig and self.columns[js[0]].logicals]


def dem_to_text(dem: DetectorErrorModel) -> str:
    indices, spans = dem._supports()
    words = list(map(str, indices))
    lines = [f"detectors {dem.detector_count} logicals {dem.logical_count}"]
    lines += [" ".join([repr(p), *words[lo:mid], "|", *words[mid:hi]]) for p, lo, mid, hi in spans]
    return "\n".join(lines) + "\n"


def parse_dem(text: str) -> DetectorErrorModel:
    """The DEM of ``dem_to_text``'s text. The line loop checks each line's ``|``
    and prior, one array pass every index token, the constructor the rest, each
    on the lines above the first bad or non-ASCII one: errors name the first."""
    # str.split, int and float read non-ASCII spaces and digits, and
    # str.splitlines also ends a line at U+2028 and U+0085
    given = text.split("\n")
    end = next((i for i, line in enumerate(given) if not line.isascii()), len(given))
    fault = ValueError(f"line {end + 1}: not ASCII") if end < len(given) else None
    lines = [(no, parts) for no, parts in enumerate(map(str.split, given[:end]), 1) if parts]
    if not lines:
        raise fault or ValueError("empty detector error model")
    (no, head), *body = lines
    decimal = len(head) == 4 and all(map(str.isdecimal, head[1::2]))
    if not decimal or head[::2] != ["detectors", "logicals"]:
        raise ValueError(f"line {no}: bad header {' '.join(head)!r}; counts must be decimal")
    D, K = int(head[1]), int(head[3])
    priors, groups = [], []  # groups 2j and 2j + 1: line j's detectors, logicals
    for no, parts in body:
        try:
            sep = parts.index("|")  # or ValueError: '|' is not in list
            if "_" in parts[0]:  # float reads "_" between digits
                raise ValueError(f"prior {parts[0]!r} must have no '_'")
            priors.append(float(parts[0]))
        except ValueError as exc:
            fault = ValueError(f"line {no}: {exc}")
            break
        groups += parts[1:sep], parts[sep + 1 :]
    group = np.repeat(np.arange(len(groups)), list(map(len, groups)))
    # a token that is not decimal reads -1 (int reads "+1" and "1_0"); a
    # float is exact below 2**53 and keeps any larger token out of range
    value = np.array([t if t.isdecimal() else "-1" for g in groups for t in g], float)
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
