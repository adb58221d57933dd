"""Dense matrices over a finite field, exact determinants, MDS minor scans.

Determinants come from Gaussian elimination, one grid at a time (``det_enc``)
or a stack at a time by table gathers (``det_stack``, fed runs of column
subsets by ``column_minors``). Column subsets are always enumerated in
lexicographic order of their index tuples, which makes the first failing
minor a reproducible witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .galois import FieldElement, FiniteField, _field_of

_RUN_BYTES = 1 << 22  # about the bytes of one run of minors in column_minors


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
    each grid of a stack, the subsets in lexicographic order; a run takes about ``_RUN_BYTES``."""
    g = np.array(rows, dtype=np.intp)
    grids = g[..., 0, 0].size
    subsets = combinations(range(g.shape[-1]), size)
    while run := list(islice(subsets, max(1, _RUN_BYTES // (32 * size * size * grids)))):
        cols = np.array(run, dtype=np.intp)
        stack = np.moveaxis(g[..., cols], -2, -3)  # (grids..., run, size, size)
        yield cols, det_stack(field, stack.reshape(-1, size, size)).reshape(stack.shape[:-2])


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
