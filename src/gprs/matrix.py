"""Dense matrices over a finite field, exact determinants, and subset scans.

Determinants come from Gaussian elimination, one grid at a time (``det_enc``)
or a stack at a time by table gathers (``det_stack``). Column subsets are
always enumerated in lexicographic order of their index tuples, which makes
the first failing minor a reproducible witness. Every batched subset scan (in
``codes`` the k-minors, agreement and the MDS-extension zeros) takes them from
``subset_runs`` in runs of about ``_RUN_BYTES``, sliced from one shape cache of
subset indexes (``_subset_index``) or unranked past it, and ``_drop_ranks``
ranks each with a point deleted. The cache also holds the frame tables of
``codes``; ``_cached`` keeps it under ``_INDEX_BYTES``. Only ``matrix`` and
``codes`` use these names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .galois import FieldElement, FiniteField

_RUN_BYTES = 1 << 22  # about the bytes of one run of any batched subset scan
_INDEX_BYTES = 1 << 22  # the shape cache holds at most this
_indexes: dict = {}  # the shape cache (``_cached``), least recently used first


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: FiniteField, rows):
        """Rows of elements of ``field`` or their encodings."""
        grid = tuple(field.encodings(row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("matrix rows must have equal length")
        self.field = field
        self.nrows = len(grid)
        self.ncols = len(grid[0])
        self._rows = grid

    def row_encodings(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def determinant(self) -> FieldElement:
        """Exact determinant by Gaussian elimination over the field."""
        if self.nrows != self.ncols:
            raise ValueError(f"determinant of a {self.nrows}x{self.ncols} matrix")
        return self.field.element(det_enc(self.field, self._rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self._rows == other._rows

    def __repr__(self):
        body = "; ".join(",".join(str(e) for e in r) for r in self._rows)
        return f"Matrix({self.field!r}, [{body}])"


def det_enc(field: FiniteField, rows) -> int:
    """Determinant of a square grid of canonical encodings."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = 1
    flip = False
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            flip = not flip
        pv = m[col][col]
        det = field.mul_enc(det, pv)
        pv_inv = field.inv_enc(pv)
        base = m[col]
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor:
                scale = field.mul_enc(factor, pv_inv)
                row = m[r]
                for c in range(col, n):
                    if base[c]:
                        row[c] = field.sub_enc(row[c], field.mul_enc(scale, base[c]))
    return field.neg_enc(det) if flip else det


def det_stack(field: FiniteField, stack) -> np.ndarray:
    """Determinants of an (m, s, s) stack of encodings, by elimination in table gathers.

    Each grid takes its own pivot, the first nonzero entry on or below the
    diagonal, and flips its sign per row swap; with no pivot its det is 0.
    """
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    a = np.array(stack, dtype=np.intp)
    det, at = np.ones(len(a), dtype=np.intp), np.arange(len(a))
    for c in range(a.shape[1]):
        piv = c + (a[:, c:, c] != 0).argmax(axis=1)
        top = a[at, piv]
        a[at, piv] = a[:, c]
        a[:, c] = top
        det = mul[det, top[:, c]]
        det = np.where(piv == c, det, neg[det])
        scale = mul[a[:, c + 1 :, c], inv[top[:, c]][:, None]]
        a[:, c + 1 :, c:] = add[a[:, c + 1 :, c:], neg[mul[scale[:, :, None], top[:, None, c:]]]]
    return det


def subset_runs(N: int, m: int, unit: int):
    """(a, subsets) per run of the m-subsets of range(N) in lexicographic order from rank a, a run
    about ``_RUN_BYTES`` at ``unit`` bytes a subset: slices of the cached index, or unranked past it."""
    total, step = math.comb(N, m), max(1, _RUN_BYTES // unit)
    index = _subset_index(N, m) if 8 * m * total <= _INDEX_BYTES else None
    for a in range(0, total, step):
        yield a, _subsets(N, m, a, min(a + step, total)) if index is None else index[a : a + step]


def _binom(N: int, m: int) -> np.ndarray:
    """C(b, j) for b < N and j <= m, as an (N, m + 1) table."""
    return np.array([[math.comb(b, j) for j in range(m + 1)] for b in range(N)], dtype=np.int64)


def _subsets(N: int, m: int, start: int, stop: int) -> np.ndarray:
    """The m-subsets of range(N) of lexicographic ranks start..stop-1, as rows, unranked
    by the combinatorial number system: rank = C(N, m) - 1 - sum_j C(N - 1 - a_j, m - j)."""
    binom = _binom(N, m)
    rest = math.comb(N, m) - 1 - np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(rest), m), dtype=np.intp)
    for j in range(m):
        b = np.searchsorted(binom[:, m - j], rest, side="right") - 1  # the largest C(b, m-j) <= rest
        out[:, j] = N - 1 - b
        rest -= binom[b, m - j]
    return out


def _subset_index(N: int, m: int) -> np.ndarray:
    """The m-subsets of range(N) in lexicographic order, from the shape cache (``_cached``)."""
    return _cached((N, m), lambda: (_subsets(N, m, 0, math.comb(N, m)),))[0]


def _drop_ranks(N: int, subsets: np.ndarray) -> np.ndarray:
    """Per m-subset A of range(N) and j, the rank of A minus A_j among the (m-1)-subsets: in the
    sum of ``_subsets``, C(N-1-a_i, m-1-i) per a_i before A_j and C(N-1-a_i, m-i) per one after."""
    m, binom = subsets.shape[1], _binom(N, subsets.shape[1])
    lo, hi = (binom[N - 1 - subsets, m - d - np.arange(m)] for d in (1, 0))
    ranks = (lo.cumsum(axis=1) - lo) + (hi.sum(axis=1)[:, None] - hi.cumsum(axis=1))
    return math.comb(N, m - 1) - 1 - ranks


def _cached(key, build) -> tuple[np.ndarray, ...]:
    """The arrays under ``key`` in the shape cache, from ``build()`` on a miss. The cache keeps
    subset indexes and the frame tables of ``codes``, at most ``_INDEX_BYTES`` of them together,
    and drops the least recently used first."""
    entry = _indexes.pop(key, None)
    if entry is None:
        entry = build()
        size = sum(a.nbytes for a in entry)
        if size > _INDEX_BYTES:
            return entry
        while sum(a.nbytes for held in _indexes.values() for a in held) + size > _INDEX_BYTES:
            del _indexes[next(iter(_indexes))]
    _indexes[key] = entry
    return entry


def first_singular_column_subset(field: FiniteField, rows, size: int):
    """First (in lexicographic index order) singular size x size column minor.

    `rows` is a grid of encodings with exactly `size` rows. Returns the
    column-index tuple of the first singular minor, or None when every
    minor is nonsingular.
    """
    ncols = len(rows[0])
    for cols in combinations(range(ncols), size):
        sub = [[row[j] for j in cols] for row in rows]
        if det_enc(field, sub) == 0:
            return cols
    return None


@dataclass(frozen=True)
class MdsCheckResult:
    is_mds: bool
    witness: tuple[int, ...] | None = None
