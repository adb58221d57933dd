"""Dense matrices over a finite field, exact determinants, MDS minor scans.

Matrix sizes here stay tiny (n <= q + 1 at desk scale), so every minor is
computed independently by Gaussian elimination; no rank caching. Column
subsets are always enumerated in lexicographic order of their index tuples,
which makes the first failing minor a reproducible witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .galois import FieldElement, FiniteField, _field_of


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
    witness = first_singular_column_subset(g.field, g.row_encodings(), k)
    return MdsCheckResult(witness is None, witness)
