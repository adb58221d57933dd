"""Dense matrices over a finite field, exact determinants, and subset scans.

Determinants come from Gaussian elimination, one grid at a time (``det_enc``)
or a stack at a time by table gathers (``det_stack``, fed runs of column
subsets by ``column_minors``). Column subsets are always enumerated in
lexicographic order of their index tuples, which makes the first failing
minor a reproducible witness. Every batched subset scan (these minors, the
agreement kernel in ``codes``, the MDS-extension verdicts in ``deepholes``)
takes them from ``subset_runs`` in runs of about ``_RUN_BYTES``, sliced from
one shape cache of subset indexes (``_subset_index``) or unranked past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .galois import FieldElement, FiniteField, _field_of

_RUN_BYTES = 1 << 22  # about the bytes of one run of any batched subset scan
_INDEX_BYTES = 1 << 22  # the shape cache of subset indexes holds at most this
_indexes: dict = {}  # (N, m) -> _subset_index(N, m), least recently used first


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


def column_minors(field: FiniteField, rows, size: int):
    """(subsets, dets) for runs of the size-column minors of a grid with ``size`` rows, or of
    each grid of a stack, the subsets in lexicographic order (``subset_runs``)."""
    g = np.array(rows, dtype=np.intp)
    grids = g[..., 0, 0].size
    for _, cols in subset_runs(g.shape[-1], size, 32 * size * size * grids):
        stack = np.moveaxis(g[..., cols], -2, -3)  # (grids..., run, size, size)
        yield cols, det_stack(field, stack.reshape(-1, size, size)).reshape(stack.shape[:-2])


def subset_runs(N: int, m: int, unit: int):
    """(a, subsets) per run of the m-subsets of range(N) in lexicographic order from rank a, a run
    about ``_RUN_BYTES`` at ``unit`` bytes a subset: slices of the cached index, or unranked past it."""
    total, step = math.comb(N, m), max(1, _RUN_BYTES // unit)
    index = _subset_index(N, m)[0] if 16 * m * total <= _INDEX_BYTES else None
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


def _subset_index(N: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-subsets A of range(N) in lexicographic order, and per column j the rank of A minus
    A_j among the (m-1)-subsets, from a shape cache of at most ``_INDEX_BYTES`` (LRU)."""
    index = _indexes.pop((N, m), None)
    if index is None:
        subsets, binom, at = _subsets(N, m, 0, math.comb(N, m)), _binom(N, m), np.arange(m)
        lo, hi = binom[N - 1 - subsets, m - 1 - at], binom[N - 1 - subsets, m - at]  # a_i before, after A_j
        ranks = (lo.cumsum(axis=1) - lo) + (hi.sum(axis=1)[:, None] - hi.cumsum(axis=1))
        index = subsets, math.comb(N, m - 1) - 1 - ranks
        while _indexes and sum(2 * a.nbytes for a, _ in _indexes.values()) + 2 * subsets.nbytes > _INDEX_BYTES:
            del _indexes[next(iter(_indexes))]
    if 2 * index[0].nbytes <= _INDEX_BYTES:
        _indexes[N, m] = index
    return index


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


def vandermonde_det(points) -> FieldElement:
    """prod_{i<j} (points[j] - points[i]) in the field of the first FieldElement."""
    pts = list(points)
    if not pts:
        raise ValueError("vandermonde_det needs at least one point")
    field = _field_of(pts)
    encs = field.encodings(pts)
    out = 1
    for i in range(len(encs)):
        for j in range(i + 1, len(encs)):
            out = field.mul_enc(out, field.sub_enc(encs[j], encs[i]))
            if out == 0:
                return field.zero
    return field.element(out)


@dataclass(frozen=True)
class MdsCheckResult:
    is_mds: bool
    witness: tuple[int, ...] | None = None


def mds_generator_check(g: Matrix, k: int) -> MdsCheckResult:
    """All-minors MDS test: every k columns of g must be independent.

    On failure the witness is the lexicographically first singular
    k-column index tuple.
    """
    if g.nrows != k:
        raise ValueError(f"generator has {g.nrows} rows, expected k = {k}")
    if g.ncols < k:
        raise ValueError("generator needs at least k columns")
    runs = column_minors(g.field, g.row_encodings(), k)
    witness = next((tuple(cols[dets == 0][0].tolist()) for cols, dets in runs if 0 in dets), None)
    return MdsCheckResult(witness is None, witness)
