"""Generalized (projective) Reed-Solomon codes: construction and exact metrics.

A GPRS code evaluates message polynomials of degree <= k-1 on an ordered
evaluation set D = F_q minus l excluded points and appends the coefficient
of x^(k-1) as one extra coordinate. D is kept in ascending canonical
encoding order so generator columns and witness reports are deterministic.

Membership is by syndrome: ``_syndrome`` is the word minus the codeword
through its first k coordinates (an information set), on the rest. It is
zero exactly on codewords, and the parity-check columns are the syndromes
of the unit words.

Exact error distance comes in two interchangeable flavors:

* ``enumerate`` scans all q^k message polynomials (budget capped; the cap
  raises BudgetExceededError rather than ever truncating the scan);
* ``agreement`` maximizes codeword agreement over the interpolants of the
  k-subsets of D, which is exact for any word and stays cheap when q^k
  explodes (its budget counts C(length, k+1) pairs).

Codewords come by span doubling, span_(i+1) = span_i + F_q * row_i from
span_0 = {0}, kept a coordinate per row with a code axis (``_spans``).
``enumerate`` scans span_k of one code. The brute-force minimum distance
(``minimum_distances``) scans each row_i + span_i, one codeword per
projective point, and never builds span_k; it walks the spans of a slab's
codes a group at a time, as many as fit one run of ``matrix._RUN_BYTES``.
Both budgets still count q^k codewords.

Agreement scores each k-subset S of D only at the coordinates after max(S),
the projective one last: a word's agreement with the code is k plus the best
count of i > max(S) where it equals the interpolant through S (proved at
``agreement_distances``). The tail tensor T[S + (i,), s] = L_{S,s}(x_i) has
a row per (k+1)-subset of coordinates.

The exact covering radius is the depth of a breadth-first search over the
q^r syndromes, r = length - k, from zero (``_syndrome_bfs_depth``), stepping by
the columns of H = [-A^T | I]: a level steps the unit columns by one ``any``
per axis of the state cube and the k columns of -A^T by gathers. The unit
columns alone reach every syndrome within r steps, so a syndrome unseen after
r-1 levels has weight r, and the last level is never expanded.

Every code over F_q takes its coordinates from one frame: the q points of F_q
in encoding order, then the projective point q. Its generator is the frame
generator on those columns, and the map keeps subset order. So the k-minor
table, whose cofactors decide MDS extensions and which the all-minors MDS check
(``mds_checks``) reads, and the tail tensor depend only on (field, k): each
is built once for the frame (``_frame_minors``, ``_frame_tails``), kept in
the shape cache of ``gprs.matrix``, and a code's rows are gathered from it
by rank. A frame whose build would pass one run of ``matrix._RUN_BYTES`` is
never built; the same builders (``_minors``, ``_tail_tensor``) then run on the
distinct codes of a group of a slab's rows, in the runs of subsets that
``matrix.subset_runs`` hands every batched scan. A code caches nothing.

The paper's families are lam times a base word (x^k, or (x - a)^(q-2)) plus
a codeword, and neither scaling nor adding a codeword moves the error distance
or the MDS-extension verdict, so a family is scored by its base word alone
(``family_verdicts``), from three bits per (k+1)-subset T = S + (i,) of a code's
points (``_family_bits``), each from its own build. Bit 1 says that the
interpolant through S meets the base word at i (from tail rows), bit 2 that the
base word under the generator has a zero minor at T (from k-minor cofactors),
and bit 4, at T = S + (projective point), that the expression of the base word's
paper criterion is zero at S (from its closed form, never from bits 1 and 2, so
that it stays an independent check of them). On the frame's base words
(``_frame_bases``) the bits make the family table (``_family_frame``), gathered
by rank; past one run they are built per code, a run of subsets at a time.
``family_verdicts`` also checks that each sampled word is in its family: its
syndrome (``_syndromes``, from the tail rows of the pairs (0..k-1) + (i,)) is
lam times the base word's.

The test suite pins the two flavors against each other exhaustively on
small codes, the kernel against the per-subset interpolation loop it
replaced, the frame tables against the per-code builds on every small code
and the bits of the family table against each other and the scalar criteria,
the spans against the digit-by-digit q^k build they replaced, and the slab
minimum distances and MDS checks against per-code scans, and the syndrome BFS
against a BFS that steps one generator at a time. It pins the batched syndromes
to ``_syndrome``, and ``family_verdicts`` to the agreement kernel, a reference
MDS-extension scan and ``_syndrome`` on every small code, its per-code bits to
its family table, and its witnesses to the scalar criteria on the sweep grids.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .galois import FieldElement, FiniteField, field_from_spec, lucas_binom
from .polynomial import Polynomial, _eval_enc, _interp_enc
from . import matrix
from .matrix import Matrix, MdsCheckResult, det_stack, subset_runs

DEFAULT_MESSAGE_BUDGET = 10**6
DEFAULT_DISTANCE_BUDGET = 10**8
# bytes per coordinate of a codeword of span_(k-1) in the brute-force walk: its uint16 entry and
# its compare mask; with the codeword's int64 weight this also covers the gather that builds it,
# span_(k-2) and that span's intp index copy, 10 / q bytes a coordinate
_SPAN_BYTES = 3
# bytes per point of a tail pair: per code a tensor build or a frame gather, and the subset index
_TAIL_BUILD, _TAIL_GATHER, _TAIL_INDEX = 24, 16, 48


class BudgetExceededError(RuntimeError):
    """An exhaustive scan would exceed its explicit work budget."""


class ReceivedWord:
    """A word of the ambient space F_q^length attached to its code."""

    __slots__ = ("code", "encs")

    def __init__(self, code, coords):
        encs = code.field.encodings(coords)
        if len(encs) != code.length:
            raise ValueError(
                f"word length {len(encs)} does not match code length {code.length}"
            )
        self.code = code
        self.encs = encs

    def __add__(self, other: "ReceivedWord") -> "ReceivedWord":
        f, encs = self.code.field, self.code._encs_of(other)
        return ReceivedWord(self.code, [f.add_enc(a, b) for a, b in zip(self.encs, encs)])

    def __eq__(self, other):
        if not isinstance(other, ReceivedWord):
            return NotImplemented
        return self.encs == other.encs and _codes_compatible(self.code, other.code)

    def __hash__(self):
        return hash(self.encs)

    def to_text(self) -> str:
        return ",".join(str(e) for e in self.encs)

    def __repr__(self):
        return f"ReceivedWord({self.to_text()})"


def _codes_compatible(cu, cv) -> bool:
    return cu is cv or (
        type(cu) is type(cv)
        and cu.field == cv.field
        and cu.k == cv.k
        and cu.evaluation_encodings() == cv.evaluation_encodings()
    )


class _EvaluationCode:
    """Shared machinery for GRS/GPRS codes (evaluation set + exact scans)."""

    field: FiniteField
    k: int
    length: int
    _d_encs: tuple[int, ...]
    _projective: bool

    def evaluation_encodings(self) -> tuple[int, ...]:
        return self._d_encs

    @property
    def D(self) -> tuple[FieldElement, ...]:
        return tuple(self.field.element(e) for e in self._d_encs)

    def _encs_of(self, word: ReceivedWord) -> tuple[int, ...]:
        """The word's encodings, or a ValueError for a word of another code."""
        if not _codes_compatible(word.code, self):
            raise ValueError("word belongs to a different code")
        return word.encs

    def word(self, coords) -> ReceivedWord:
        """Build a received word from elements or canonical encodings."""
        return ReceivedWord(self, coords)

    def word_from_text(self, text: str) -> ReceivedWord:
        return self.word([int(c) for c in text.split(",")])

    def interpolant(self, word: ReceivedWord) -> Polynomial:
        """Lagrange interpolant of the first n coordinates over D."""
        n = len(self._d_encs)
        return Polynomial(self.field, _interp_enc(self.field, self._d_encs, self._encs_of(word)[:n]))

    def encode(self, f: Polynomial) -> ReceivedWord:
        """Codeword of a message polynomial of degree <= k-1."""
        if f.field != self.field:
            raise ValueError("message polynomial over a different field")
        if not f.degree <= self.k - 1:
            raise ValueError(f"message degree {f.degree} exceeds k - 1 = {self.k - 1}")
        return self.word_from_poly(f)

    def word_from_poly(self, u: Polynomial) -> ReceivedWord:
        """Received word u(D), plus c_{k-1}(u) when projective, for deg u <= q - 2."""
        if u.field != self.field:
            raise ValueError("polynomial over a different field")
        if not u.degree <= self.field.q - 2:
            raise ValueError(
                f"degree {u.degree} >= q - 1 = {self.field.q - 1} is ambiguous "
                "on the field and is rejected"
            )
        return self.word(self._evaluate(u.coeffs))

    def _evaluate(self, coeffs) -> list[int]:
        """Encodings of u(D), plus c_(k-1)(u) when projective, for u's coefficients."""
        encs = [_eval_enc(self.field, coeffs, y) for y in self._d_encs]
        if self._projective:
            encs.append(coeffs[self.k - 1] if len(coeffs) >= self.k else 0)
        return encs

    def _generator_rows(self) -> tuple[tuple[int, ...], ...]:
        """Generator rows: the words of 1, x, ..., x^(k-1)."""
        return tuple(map(tuple, _generator_stack([self])[0].tolist()))

    def _syndrome(self, encs) -> list[int]:
        """H·w for H = [-A^T | I], the parity check of the systematic generator [I | A].

        The word minus the codeword through its first k coordinates, on the rest.
        """
        f, k = self.field, self.k
        through = self._evaluate(_interp_enc(f, self._d_encs[:k], encs[:k]))
        return [f.sub_enc(w, c) for w, c in zip(encs[k:], through[k:])]

    # -- codeword enumeration (numpy) -----------------------------------------

    def _check_message_budget(self, budget: int) -> None:
        """Refuse q^k > budget before any codeword is built."""
        count = self.field.q**self.k
        if count > budget:
            raise BudgetExceededError(f"q^k = {count} codewords exceed budget {budget}")

    def _codeword_matrix(self) -> np.ndarray:
        """All q^k codewords as int16 rows, in message-index order: span_k."""
        *_, span = _spans(self.field, _generator_stack([self]))
        return span[0].T.view(np.int16)

    # -- exact error distance -------------------------------------------------

    def error_distance(
        self,
        word: ReceivedWord,
        method: str = "enumerate",
        budget: int = DEFAULT_MESSAGE_BUDGET,
    ) -> int:
        """Exact minimum Hamming distance from the word to the code.

        ``enumerate`` scans all q^k codewords; ``agreement`` maximizes agreement
        over interpolants of k-subsets of D, checking C(length, k+1) pairs. Both
        refuse a count above the budget before anything is built.
        """
        encs = self._encs_of(word)
        if method == "enumerate":
            self._check_message_budget(budget)
            cw = self._codeword_matrix()
            target = np.array(encs, dtype=np.int16)
            return int((cw != target).sum(axis=1).min())
        if method == "agreement":
            if (pairs := math.comb(self.length, self.k + 1)) > budget:
                raise BudgetExceededError(f"C(length, k+1) = {pairs} agreement pairs exceed budget {budget}")
            return int(agreement_distances([self], [[encs]])[0, 0])
        raise ValueError(f"unknown error-distance method {method!r}")

    def is_codeword(self, word: ReceivedWord) -> bool:
        return not any(self._syndrome(self._encs_of(word)))


def _dot(f: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] * b[..., j] over the last axis, by table gathers."""
    terms = f.mul_table[a, b]
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = f.add_table[total, terms[..., j]]
    return total


def _distinct(codes) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes of a slab as frame points (``_columns``) in first-seen order, and each
    row's index among them. Codes with equal points are one code, whatever their objects."""
    q, seen = codes[0].field.q, {}
    index = [seen.setdefault(code._d_encs + (q,) * code._projective, len(seen)) for code in codes]
    return np.array(list(seen), dtype=np.intp), np.array(index, dtype=np.intp)


def _frame_generator(f: FiniteField, k: int) -> np.ndarray:
    """The frame's generator rows, (k, q + 1): x^i at the q points of F_q by repeated mul_table
    gathers, and at the projective point q the column of the x^(k-1) coefficient. Every code's
    generator is this one on the code's frame points (``_columns``)."""
    g = np.zeros((k, f.q + 1), dtype=np.intp)
    g[0, : f.q] = 1
    for i in range(1, k):
        g[i, : f.q] = f.mul_table[g[i - 1, : f.q], np.arange(f.q)]
    g[k - 1, f.q] = 1
    return g


def _columns(codes) -> np.ndarray:
    """Each code's coordinates as frame points, (codes, length): D, then q if projective. The map
    is increasing, so it keeps the lexicographic order of subsets."""
    q = codes[0].field.q
    return np.array([code._d_encs + (q,) * code._projective for code in codes], dtype=np.intp)


def _generator_stack(codes, columns=None) -> np.ndarray:
    """Each code's generator rows, (codes, k, length): the frame generator on its columns, which
    are ``_columns(codes)`` unless the caller has them."""
    columns = _columns(codes) if columns is None else columns
    return np.moveaxis(_frame_generator(codes[0].field, codes[0].k)[:, columns], 0, 1)


def _frame(kind: str, f: FiniteField, k: int, m: int, unit: int, build):
    """(table, binom): ``build`` on the m-subsets of the q + 1 frame points in lexicographic
    order, and the binomials that rank them. Built once per (kind, field, k) and kept in the
    shape cache; None when the build at ``unit`` bytes a subset would pass one run."""
    N, total = f.q + 1, math.comb(f.q + 1, m)
    if total * unit > matrix._RUN_BYTES:
        return None
    return matrix._cached((kind, f, k), lambda: (build(matrix._subsets(N, m, 0, total)), matrix._binom(N, m)))


def _minors(f: FiniteField, k: int, points: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """``det_stack`` of the frame generator at points[r, T] per row r and k-subset T of ``subsets``."""
    grids = np.moveaxis(_frame_generator(f, k)[:, points[:, subsets]], 0, -2)  # (rows, subsets, k, k)
    return det_stack(f, grids.reshape(-1, k, k)).reshape(grids.shape[:2])


def _frame_minors(f: FiniteField, k: int):
    """The frame's k-minor table, ``_minors`` on every k-subset of the frame points."""
    return _frame("minors", f, k, k, 32 * k * k,
                  lambda subsets: _minors(f, k, np.arange(f.q + 1)[None], subsets)[0].astype(np.uint16))


def _frame_tails(f: FiniteField, k: int):
    """The frame's tail tensor: ``_tail_tensor`` at D = F_q, n = q, on every (k+1)-subset."""
    return _frame("tails", f, k, k + 1, (_TAIL_BUILD + _TAIL_INDEX) * (k + 1),
                  lambda pairs: _tail_tensor(f, np.arange(f.q)[None], pairs)[0])


def _tails(f: FiniteField, n: int, frame, points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Each code's tail rows at ``pairs``, (codes, pairs, k): gathered from the frame tail tensor
    ``frame`` (``_frame_tails``), or built on the codes' D points, points[:, :n], past it."""
    return _tail_tensor(f, points[:, :n], pairs) if frame is None else _gather(frame, points, pairs)


def _gather(frame, points: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Each code's rows of a frame table at the m-subsets of its coordinates, (codes, subsets)."""
    return frame[0][_ranks(frame[1], points, subsets)]


def _ranks(binom: np.ndarray, points: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """The frame rank of each code's m-subsets, (codes, subsets): ``points`` maps them to frame
    points, and the frame subset a is ranked as ``matrix._subsets`` unranks,
    rank = C(N, m) - 1 - sum_j C(N - 1 - a_j, m - j), one column j at a time."""
    N, m = len(binom), subsets.shape[-1]
    rank = math.comb(N, m) - 1
    for j in range(m):
        rank = rank - binom[N - 1 - points[:, subsets[:, j]], m - j]
    return rank


def _minor_tables(codes) -> tuple[np.ndarray, np.ndarray]:
    """det G_T of each distinct code (``_distinct``) for every k-column subset T in lexicographic
    order, (distinct codes, C(length, k)), and each row's index among them: gathered from the frame
    table, or else ``_minors`` per run of subsets (``subset_runs``), at 32 k^2 bytes a subset and code."""
    points, index = _distinct(codes)
    f, k, length = codes[0].field, codes[0].k, codes[0].length
    if (frame := _frame_minors(f, k)) is None:
        runs = subset_runs(length, k, 32 * k * k * len(points))
        return np.concatenate([_minors(f, k, points, subsets) for _, subsets in runs], axis=1), index
    return _gather(frame, points, matrix._subset_index(length, k)), index


def mds_checks(codes) -> list[MdsCheckResult]:
    """The all-minors MDS test of each code, read from the slab's k-minor tables
    (``_minor_tables``): on failure the witness is the first k-column tuple in lexicographic
    order with a zero minor."""
    tables, index = _minor_tables(codes)
    singular = (tables == 0)[index]
    length, k = codes[0].length, codes[0].k
    return [MdsCheckResult(False, tuple(matrix._subsets(length, k, r, r + 1)[0].tolist()))
            if row[r] else MdsCheckResult(True) for row, r in zip(singular, singular.argmax(axis=1))]


def minimum_distances(codes, budget: int = DEFAULT_MESSAGE_BUDGET) -> list[int]:
    """Brute-force minimum distance of each code: the least weight of row_i + span_i over i,
    one codeword per projective point, exhaustive since scaling keeps weight.

    The codes share the field, n and k; q^k above the budget is refused before anything is
    built. A group of codes walks its spans at once, with a code axis (``_spans``); a group is
    as many codes as fit one run of ``matrix._RUN_BYTES`` at ``_SPAN_BYTES`` a coordinate of
    span_(k-1) and 8 bytes a codeword for its weights.
    """
    codes[0]._check_message_budget(budget)
    f, k, length = codes[0].field, codes[0].k, codes[0].length
    group = max(1, matrix._RUN_BYTES // (f.q ** (k - 1) * (_SPAN_BYTES * length + 8)))
    best = []
    for g in range(0, len(codes), group):
        rows = _generator_stack(codes[g : g + group])
        negs = f.neg_table[rows]
        # row_i + span_i is nonzero where span_i differs from -row_i
        best += np.min([(span != negs[:, i, :, None]).sum(axis=1).min(axis=1)
                        for i, span in enumerate(_spans(f, rows[:, :-1]))], axis=0).tolist()
    return best


def _spans(f: FiniteField, rows: np.ndarray):
    """span_0 = {0}, then span_(i+1) = span_i + F_q * rows[:, i], per code as uint16 columns:
    (codes, length, q^i) for rows (codes, i, length), so a codeword's weight sums length rows.
    Column c * q^i + j of span_(i+1) is column j of span_i plus c * rows[:, i]: message-index
    order."""
    scalars = np.arange(f.q)[:, None]
    span = np.zeros((*rows.shape[::2], 1), dtype=np.uint16)
    yield span
    for i in range(rows.shape[1]):
        step = f.mul_table[scalars, rows[:, i, :, None, None]]  # (codes, length, q, 1)
        span = f.add_table[step, span[:, :, None]].reshape(*span.shape[:2], -1)
        yield span


def agreement_distances(codes, words) -> np.ndarray:
    """Exact error distances by agreement of words[r, j] to codes[r], as (rows, words).

    The codes share the field, n and k, and may repeat. A k-subset S of D scores the
    i > max(S) where the word w equals the interpolant through S, sum_s w[S_s] *
    T[S + (i,), s] (``_tail_tensor``), and the agreement is k plus the best score: the
    first k points S of a best agreement set A lie in D, so interp_S matches w on A minus
    S, all past max(S), and no S scores past its interpolant's agreement. A group of rows,
    as many as fit one run, takes the pairs S + (i,) a run at a time (``subset_runs``),
    gathers (``_frame_tails``) or builds its distinct codes' tensor rows once per run, and
    stops at the first run after which every word in it is a codeword.
    """
    f, n, k, top = codes[0].field, codes[0].n, codes[0].k, codes[0].length
    w = np.asarray(words, dtype=np.intp).reshape(len(codes), -1, top)
    best = np.zeros(w.shape[:2], dtype=np.intp)
    frame, pair_index = _frame_tails(f, k), _TAIL_INDEX * (k + 1)
    # per row and pair: its tensor row's build or gather, its index copy, and per word a few gathers
    unit = (_TAIL_BUILD if frame is None else _TAIL_GATHER) * (k + 1) + 2 * k + 40 * w.shape[1]
    group = max(1, (matrix._RUN_BYTES // math.comb(top, k + 1) - pair_index) // unit)
    for start in range(0, len(codes), group):
        points, index = _distinct(codes[start : start + group])
        wr, br, carry = w[start : start + group], best[start : start + group], 0
        for _, pairs in subset_runs(top, k + 1, len(wr) * unit + pair_index):
            T = _tails(f, n, frame, points, pairs)[index]
            vals = _dot(f, np.take(wr, pairs[:, :k], axis=2), T[:, None])
            hits = np.add.reduceat(vals == np.take(wr, pairs[:, k], axis=2), _tail_starts(pairs),
                                   axis=2, dtype=np.intp)
            hits[..., 0] += carry  # the pairs of an S that the last run ended inside
            carry = hits[..., -1] if pairs[-1, k] < top - 1 else 0
            np.maximum(br, hits.max(axis=2), out=br)
            if (br == top - k).all():
                break
    return top - k - best


def _base_words(f: FiniteField, k: int, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The base words of the paper's families at the points x[r] of D, (rows, n + 1): the word of
    x^k where a[r] = -1, else of (x - a[r])^(q-2), which is 1 / (y - a[r]) at y != a[r], with the
    x^(k-1) coefficient C(q-2, k-1) * (-a[r])^(q-1-k) as the last coordinate. As k < q - 1, that
    is C(q-2, k-1) / (-a[r])^k, and 0 at a[r] = 0 (``inv_table`` maps 0 to 0)."""
    words, deg = np.empty((len(a), x.shape[1] + 1), dtype=np.intp), a < 0
    if deg.any():
        power = x
        for _ in range(1, k):
            power = f.mul_table[power, x]
        words[:, :-1], words[:, -1] = power, 0
    if not deg.all():
        neg = f.neg_table[np.maximum(a, 0)]
        power = neg
        for _ in range(1, k):
            power = f.mul_table[power, neg]
        coeff = f.mul_table[lucas_binom(f.q - 2, k - 1, f.p), f.inv_table[power]]
        np.copyto(words[:, :-1], f.inv_table[f.add_table[x, neg[:, None]]], where=~deg[:, None])
        np.copyto(words[:, -1], coeff, where=~deg)
    return words


def _frame_bases(f: FiniteField, k: int) -> np.ndarray:
    """``_base_words`` on the frame, (q + 1, q + 1): row 0 is x^k and row 1 + a is (x - a)^(q-2).
    Entry (1 + a, a) is never read, as a code of that base word excludes a."""
    return _base_words(f, k, np.tile(np.arange(f.q), (f.q + 1, 1)), np.arange(-1, f.q))


def _family_frame(f: FiniteField, k: int):
    """The frame's family table, (q + 1, C(q + 1, k + 1)) uint8: ``_family_bits`` of each base
    word of ``_frame_bases`` on the frame, one at a time, from the frame tail tensor and k-minor
    table; None where either of them or this build does not fit one run."""
    if (tails := _frame_tails(f, k)) is None or (minors := _frame_minors(f, k)) is None:
        return None
    points, need = np.arange(f.q + 1)[None], np.ones(1, dtype=bool)

    def build(subsets):
        cof = _cofactors(f, minors[0], f.q + 1, subsets)
        return np.concatenate([_family_bits(f, k, points, word[None], np.array([row - 1]), subsets, tails[0], cof, need)
                               for row, word in enumerate(_frame_bases(f, k))])

    return _frame("family", f, k, k + 1, f.q + 1 + 64 * (k + 1), build)


def _cofactors(f: FiniteField, minors: np.ndarray, N: int, subsets: np.ndarray) -> np.ndarray:
    """(-1)^j det G_(T minus T_j) per (k+1)-subset T of range(N) in ``subsets`` and j, (...,
    subsets, k + 1), from k-minor tables (..., C(N, k)) at the ranks of ``matrix._drop_ranks``."""
    cof = minors[..., matrix._drop_ranks(N, subsets)]
    cof[..., 1::2] = f.neg_table[cof[..., 1::2]]
    return cof


def _family_bits(f: FiniteField, k: int, points, words, a, subsets, tails, cof, need) -> np.ndarray:
    """The family bits of base words b = words[r] on the frame points points[r], the last one
    projective (``_base_words``, a[r] as there), (rows, subsets) uint8. At a (k+1)-subset
    T = S + (i,) of ``subsets``, bit 1 says that the interpolant through S of b meets b at i, by
    the tail rows ``tails``; on the rows where ``need`` holds, bit 2 that det[G_T; b_T] = 0, by
    their signed cofactors ``cof`` (``_cofactors``); and bit 4, only where i is projective, that
    the row's criterion is zero at S (``_criteria``), never read from bits 1 and 2."""
    bits = (_dot(f, words[:, subsets[:, :k]], tails) == words[:, subsets[:, k]]).astype(np.uint8)
    if need.any():
        bits[need] += np.uint8(2) * (_dot(f, words[need][:, subsets], cof) == 0)
    projective = subsets[:, k] == points.shape[1] - 1
    bits[:, projective] += np.uint8(4) * _criteria(f, k, points[:, subsets[projective, :k]], a)
    return bits


def _criteria(f: FiniteField, k: int, S: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Is row r's paper criterion zero at the k points S[r, c], (rows, subsets)? thm14's
    [sum S = 0] at a[r] = -1, else thm15's [C(q-2, k-1) * a^(q-1-k) * prod_{y in S} (y - a) + 1
    = 0] at a = a[r], never where S holds a or the constant is 0 (a = 0, or p | k). As k < q - 1,
    a^(q-1-k) is 1 / a^k, and 0 at a = 0 (``inv_table`` maps 0 to 0)."""
    out, deg = np.empty(S.shape[:2], dtype=bool), a < 0
    if deg.any():
        total = S[deg, :, 0]
        for j in range(1, k):
            total = f.add_table[total, S[deg, :, j]]
        out[deg] = total == 0
    if not deg.all():
        shift = a[~deg]
        power = shift
        for _ in range(1, k):
            power = f.mul_table[power, shift]
        value = f.mul_table[lucas_binom(f.q - 2, k - 1, f.p), f.inv_table[power]][:, None]
        for factor in np.moveaxis(f.add_table[S[~deg], f.neg_table[shift][:, None, None]], 2, 0):
            value = f.mul_table[value, factor]
        out[~deg] = value == f.neg_enc(1)
    return out


def _first(mask: np.ndarray, start: int = 0) -> np.ndarray:
    """Per row of a mask, start plus its first true column, or -1 for none."""
    return np.where(mask.any(axis=1), start + mask.argmax(axis=1), -1)


def family_verdicts(codes, a, bases, words, lams, mds, distinct=None) -> tuple:
    """The checks of a group of family rows, whose codes share the field, n and k: row r's
    family is lam times its base word bases[r] plus a codeword of codes[r], and words[r, j] its
    sampled word of scale lams[r, j]. bases[r] is the word of x^k at a[r] = -1, else of
    (x - a[r])^(q-2) (``_base_words``). ``distinct`` is ``_distinct(codes)``, made here unless the
    caller has it. Returns

    * inside, (rows, words): is the syndrome of words[r, j] lams[r, j] times the base word's?
    * distances, (rows,): the base word's exact error distance to codes[r];
    * zeros, one per row with mds[r]: the rank of the base word's first (k+1)-subset T with
      det[G_T; b_T] = 0, or -1 for a deep hole;
    * witnesses, per row: the first k-subset of its code's D in lexicographic order at which its
      paper criterion's expression is zero (thm14's at a[r] = -1, else thm15's at a[r]), as
      encodings, or () for none.

    The last three come from the family bits (``_family_bits``) of the base words at each code's
    (k+1)-subsets in lexicographic order: one gather of the frame's family table
    (``_family_frame``) at row 1 + a[r] and the frame ranks (``_ranks``) where it fits one run,
    else built on the distinct codes a run of subsets at a time (``subset_runs``), bit 2 only for
    the rows with mds[r] and no zero yet, from their k-minor tables (``_minor_tables``). A
    distance sums bit 1 per k-subset S of its pairs S + (i,), as ``agreement_distances`` scores a
    word; a zero is the first column with bit 2; a witness is the first with bit 4, whose S is
    the criterion's: a code's projective columns S + (n,) come in the lexicographic order of S.

    The first length - k (k+1)-subsets are the syndrome pairs (0..k-1) + (i,), whose tail rows
    give the syndromes (``_syndromes``). The rows go a group at a time, as many as fit one run at
    24 bytes a syndrome term and 64 bytes a ranked (k+1)-subset, or 8 bytes a k-minor.
    """
    f, n, k, top = codes[0].field, codes[0].n, codes[0].k, codes[0].length
    a, mds = np.asarray(a, dtype=np.intp), np.asarray(mds, dtype=bool)
    w = np.concatenate([np.asarray(words, dtype=np.intp), bases[:, None]], axis=1)
    lams = np.asarray(lams, dtype=np.intp)[:, :, None]
    frame, tails = _family_frame(f, k), _frame_tails(f, k)
    table = 64 * math.comb(top, k + 1) if frame is not None else 8 * math.comb(top, k)
    group = max(1, matrix._RUN_BYTES // (table + 24 * w.shape[1] * (top - k) * k))
    points, index = _distinct(codes) if distinct is None else distinct
    inside, best = np.empty(lams.shape[:2], dtype=bool), np.zeros(len(codes), dtype=np.intp)
    first, witness = np.full(len(codes), -1), np.full((len(codes), k), -1)
    for start in range(0, len(codes), group):
        part = slice(start, start + group)
        used, at = points, index[part]
        if len(codes) > group:  # a part ranks only the codes its rows use
            used, at = np.unique(at, return_inverse=True)
            used = points[used]
        m, carry = mds[part], 0
        if frame is None:
            runs = subset_runs(top, k + 1, (_TAIL_INDEX + _TAIL_BUILD * len(used) + 32 * len(at)) * (k + 1))
            T = _tails(f, n, tails, used, matrix._subsets(top, k + 1, 0, top - k))[at]
            if m.any():
                minors, held = _minor_tables([code for code, x in zip(codes[part], m) if x])
        else:
            runs = [(0, matrix._subset_index(top, k + 1))]
            ranks = _ranks(frame[1], used, runs[0][1])
            T, ranks = tails[0][ranks[:, : top - k]][at], ranks[at]
        syn = _syndromes(f, k, w[part], T)
        inside[part] = (syn[:, :-1] == f.mul_table[lams[part], syn[:, -1:]]).all(axis=2)
        for r, run in runs:
            fresh = m & (first[part] < 0)
            if frame is not None:
                bits = frame[0][a[part, None] + 1, ranks]
            else:
                cof = _cofactors(f, minors, top, run)[held[fresh[m]]] if fresh.any() else None
                bits = _family_bits(f, k, points[index[part]], bases[part], a[part], run,
                                    _tails(f, n, tails, used, run)[at], cof, fresh)
            counts = np.add.reduceat(bits & 1, _tail_starts(run), axis=1, dtype=np.intp)
            counts[:, 0] += carry  # the pairs of an S that the last run ended inside
            carry = counts[:, -1] if run[-1, k] < top - 1 else 0
            np.maximum(best[part], counts.max(axis=1), out=best[part])
            first[part][fresh] = _first(bits[fresh] & 2, r)
            found = (witness[part, 0] < 0) & ((hit := _first(bits & 4)) >= 0)
            witness[part][found] = points[index[part][found, None], run[hit[found], :k]]
    return inside, top - k - best, first[mds], [tuple(e) if e[0] >= 0 else () for e in witness.tolist()]


def _syndromes(f: FiniteField, k: int, words: np.ndarray, T: np.ndarray) -> np.ndarray:
    """H·w of words[r, j], (rows, words, length - k), equal to ``_syndrome``: w on the last
    length - k coordinates minus the interpolant through its first k, which at coordinate i is
    sum_s w_s T[r, i - k, s], the tail rows T of the pairs (0..k-1) + (i,) (``_tail_tensor``)."""
    through = _dot(f, words[:, :, None, :k], T[:, None])
    return f.add_table[words[:, :, k:], f.neg_table[through]]


def _tail_starts(pairs: np.ndarray) -> np.ndarray:
    """Where each S's pairs S + (i,) start in a run of them: at i = max(S) + 1, and at 0."""
    first = pairs[:, -1] == pairs[:, -2] + 1
    first[0] = True
    return np.flatnonzero(first)


def _tail_tensor(f: FiniteField, x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """T[c, A, s] = L_{S,s}(x_i) on the points x[c] of D, (codes, n), for each row A = S + (i,)
    of ``pairs``.

    L_{S,s}(x) = prod_{t != s} (x - x_{S_t}) / (x_{S_s} - x_{S_t}) is the Lagrange basis
    polynomial of S that is 1 at x_{S_s}. Its numerator at x_i is P_i / (x_i - x_{S_s}), with
    P_i = prod_t (x_i - x_{S_t}) nonzero as i is not in S, and its denominators are built once
    per S of the run. At the projective coordinate i = n each x_i - x_{S_t} counts as 1, which
    leaves the x^(k-1) coefficient.
    """
    mul, inv = f.mul_table, f.inv_table
    n, k = x.shape[1], pairs.shape[1] - 1
    diff = np.ones((len(x), n, n + 1), dtype=np.intp)  # diff[c, j, i] = x_i - x_j, 1 at i = n or j
    diff[:, :, :n] = f.add_table[x[:, None, :], f.neg_table[x][:, :, None]]
    diff[:, np.arange(n), np.arange(n)] = 1
    S, i = pairs[:, :k], pairs[:, k]
    new = np.ones(len(pairs), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    first, owner = np.flatnonzero(new), np.cumsum(new) - 1  # each S once, and each pair's S
    den = diff[:, S[first, :1], S[first]]  # prod_t (x_{S_s} - x_{S_t}), the factor t = s being 1
    num = diff[:, S[:, :1], i[:, None]]  # prod_t (x_i - x_{S_t})
    for t in range(1, k):
        den = mul[den, diff[:, S[first, t : t + 1], S[first]]]
        num = mul[num, diff[:, S[:, t : t + 1], i[:, None]]]
    num = mul[num, inv[diff[:, S, i[:, None]]]]
    return mul[num, inv[den][:, owner]].astype(np.uint16)


def parse_excluded(text: str) -> list[int]:
    """Excluded points from their comma list "e1,e2,..."; empty items are dropped."""
    return [int(e) for e in text.split(",") if e != ""]


def _dimension(k, low: int, high: int, where: str = "") -> int:
    """k by ``operator.index`` (a TypeError for a non-integer), or a ValueError naming low..high."""
    k = operator.index(k)
    if not low <= k <= high:
        raise ValueError(f"dimension k = {k} outside {low}..{high}{where}")
    return k


class GprsCode(_EvaluationCode):
    """Generalized projective Reed-Solomon code over F_q.

    Evaluation set D = F_q minus the excluded points (at least one point
    must be excluded), dimension k with 2 <= k <= q - l - 1, length
    q - l + 1. The generator matrix has rows 1, x, ..., x^(k-1) evaluated
    on D plus a final column (0, ..., 0, 1)^T for the x^(k-1) coefficient.
    """

    _projective = True

    def __init__(self, field: FiniteField, excluded, k: int):
        if field.q < 4:
            raise ValueError("code construction requires q >= 4")
        excl = sorted(field.encodings(excluded))
        if not excl:
            raise ValueError("the evaluation set must be a proper subset of the field")
        if len(set(excl)) != len(excl):
            raise ValueError("excluded points must be distinct")
        l = len(excl)
        self.field = field
        self.k = _dimension(k, 2, field.q - l - 1, f" for l = {l}")
        self.excluded = tuple(FieldElement(field, e) for e in excl)
        self.l = l
        excl_set = set(excl)
        self._d_encs = tuple(e for e in range(field.q) if e not in excl_set)
        self.n = field.q - l
        self.length = self.n + 1

    @classmethod
    def from_spec(cls, text: str, modulus_text: str | None = None) -> "GprsCode":
        """Parse "q=<p^s>;exclude=<e1,e2,...>;k=<k>[;mod=c0,...,cs]" into a code.

        Each key may appear once; any other key is rejected.
        """
        parts = dict()
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(f"bad code spec fragment {chunk!r}")
            key, _, value = chunk.partition("=")
            key = key.strip()
            if key not in ("q", "exclude", "k", "mod"):
                raise ValueError(f"unknown code spec key {key!r}")
            if key in parts:
                raise ValueError(f"code spec repeats key {key!r}")
            parts[key] = value.strip()
        missing = {"q", "exclude", "k"} - parts.keys()
        if missing:
            raise ValueError(f"code spec missing {sorted(missing)}")
        field = field_from_spec(parts["q"], parts.get("mod", modulus_text))
        return cls(field, parse_excluded(parts["exclude"]), int(parts["k"]))

    def spec_string(self) -> str:
        excl = ",".join(str(e.encoding) for e in self.excluded)
        return f"q={self.field.spec_string()};exclude={excl};k={self.k}"

    @property
    def generator(self) -> Matrix:
        return Matrix(self.field, self._generator_rows())

    def minimum_distance(
        self, mode: str = "formula", budget: int = DEFAULT_MESSAGE_BUDGET
    ) -> int:
        """Minimum distance q - l - k + 2, or its brute-force confirmation,
        ``minimum_distances`` on this code alone."""
        if mode == "formula":
            return self.field.q - self.l - self.k + 2
        if mode == "bruteforce":
            return minimum_distances([self], budget)[0]
        raise ValueError(f"unknown minimum-distance mode {mode!r}")

    def covering_radius(
        self, mode: str = "formula", budget: int = DEFAULT_DISTANCE_BUDGET
    ) -> int:
        """Covering radius q - l + 1 - k, or its exact computation.

        ``syndrome`` returns the largest coset-leader weight, which is the
        depth of a breadth-first search over the q^(length-k) syndromes from
        zero, one step per scalar multiple of a column of H = [-A^T | I]
        (Cohen, Honkala, Litsyn & Lobstein, *Covering Codes*, 1997, ch. 2);
        each level steps the unit columns by one ``any`` per axis of the state
        cube and the k columns of -A^T a block of states at a time, one gather
        per digit (``_syndrome_bfs_depth``). The unit columns alone reach every
        syndrome within r = length - k steps, so a syndrome unseen after r-1
        levels has weight r and a GPRS code's last level is never expanded. The
        budget prices the full search, states x generators = q^(length-k) *
        length * (q-1), an upper bound on its work.
        """
        if mode == "formula":
            return self.field.q - self.l + 1 - self.k
        if mode == "syndrome":
            q = self.field.q
            work = q ** (self.length - self.k) * self.length * (q - 1)
            if work > budget:
                raise BudgetExceededError(
                    f"{work} syndrome BFS steps (states x generators) exceed budget {budget}"
                )
            return _syndrome_bfs_depth(self.field, self._parity_columns())
        raise ValueError(f"unknown covering-radius mode {mode!r}")

    def _parity_columns(self) -> list[list[int]]:
        """The columns of -A^T in H = [-A^T | I]: the syndromes of the first k unit words."""
        return [self._syndrome([int(j == i) for j in range(self.length)]) for i in range(self.k)]


def _syndrome_bfs_depth(f: FiniteField, dense: list[list[int]]) -> int:
    """Largest BFS depth over F_q^r from zero, stepping by c * column for every c != 0 and
    every column of H = [B | I], B = ``dense`` (k columns of length r).

    A syndrome is the integer sum_t s_t q^t; adding g moves digit t from d to add(d, g_t),
    which shifts the integer by step[t, d, g_t]. The unit column on digit t steps a state to
    every state that differs from it in digit t alone, so each level is one ``any`` of the
    frontier mask over every axis of the (q,)*r state cube. The (q-1)k multiples g_j of B
    step a block of frontier states at once, one gather per digit t from
    shift[d, j] = step[t, d, g_j[t]]. A block is a run of ``matrix._RUN_BYTES`` /
    (8 * (q-1) * (k+r)) states, so its shifts fit one run.

    The unit columns alone reach every syndrome within r steps, so a syndrome still unseen
    after r-1 levels has weight exactly r, and the search returns r there.
    """
    q, r = f.q, len(dense[0])
    cube = (q,) * r
    place = q ** np.arange(r, dtype=np.int64)
    step = (f.add_table.astype(np.int64) - np.arange(q)[:, None]) * place[:, None, None]
    gens = f.mul_table[np.arange(1, q)[:, None, None], np.array(dense)[None]].reshape(-1, r)
    shifts = [step[t][:, gens[:, t]] for t in range(r)]
    run = max(1, matrix._RUN_BYTES // (8 * (q - 1) * (len(dense) + r)))
    seen = np.zeros(q**r, dtype=bool)
    seen[0] = True
    frontier, mask = np.zeros(1, dtype=np.int64), seen  # level 0's frontier is the zero state
    for depth in range(1, r):
        reached = np.zeros_like(seen)
        states = reached.reshape(cube)
        for axis in range(r):
            states |= mask.reshape(cube).any(axis=axis, keepdims=True)
        for start in range(0, frontier.size, run):
            block = frontier[start : start + run]
            digits = block // place[:, None] % q
            nxt = shifts[0][digits[0]]
            nxt += block[:, None]
            for t in range(1, r):
                nxt += shifts[t][digits[t]]
            reached[nxt] = True
        reached &= ~seen
        seen |= reached
        if seen.all():
            return depth
        frontier, mask = np.flatnonzero(reached), reached
    return r


class GrsCode(_EvaluationCode):
    """Plain generalized Reed-Solomon code (no projective coordinate)."""

    _projective = False

    def __init__(self, field: FiniteField, evaluation_set, k: int):
        pts = sorted(field.encodings(evaluation_set))
        if len(set(pts)) != len(pts):
            raise ValueError("evaluation points must be distinct")
        n = len(pts)
        if n < 2:
            raise ValueError(f"a GRS code needs at least two evaluation points, got {n}")
        self.field = field
        self.k = _dimension(k, 1, n - 1)
        self._d_encs = tuple(pts)
        self.n = n
        self.length = n
