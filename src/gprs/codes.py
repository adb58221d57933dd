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
q^r syndromes, r = length - k, from zero (``_syndrome_bfs_depth``): a level
steps each unit column of H by one ``any`` over the state cube and each wider
column support by gathers. Once r-1 levels have reached more than q^(r-1)
syndromes and left one unseen, the columns span and the depth is the
redundancy bound r, so the last level is never expanded.

Every code over F_q takes its coordinates from one frame: the q points of F_q
in encoding order, then the projective point q. Its generator is the frame
generator on those columns, and the map keeps subset order. So the k-minor
table, which ``mds_extension_zeros`` expands and the all-minors MDS check
(``mds_checks``) reads, and the tail tensor depend only on (field, k): each
is built once for the frame (``_frame_minors``, ``_frame_tails``), kept in
the shape cache of ``gprs.matrix``, and a code's rows are gathered from it
by rank. A frame whose build would pass one run of
``matrix._RUN_BYTES`` is never built; its codes build their own rows, once per
distinct code of a slab (rows whose codes share the field, n and k), in the
runs of subsets that ``matrix.subset_runs`` hands every batched scan. A code
caches nothing but its generator rows.

The test suite pins the two flavors against each other exhaustively on
small codes, the kernel against the per-subset interpolation loop it
replaced, the frame tables against the per-code builds on every small code,
the spans against the digit-by-digit q^k build they replaced, and the slab
minimum distances, MDS checks and MDS-extension zeros against per-code scans,
and the syndrome BFS against a BFS that steps one generator at a time.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .galois import FieldElement, FiniteField, field_from_spec
from .polynomial import Polynomial, _eval_enc, _interp_enc
from . import matrix
from .matrix import Matrix, MdsCheckResult, column_minors, det_stack, subset_runs

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
        _check_same_code(self, other)
        f = self.code.field
        return ReceivedWord(self.code, [f.add_enc(a, b) for a, b in zip(self.encs, other.encs)])

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


def _check_same_code(u: ReceivedWord, v: ReceivedWord):
    if len(u.encs) != len(v.encs):
        raise ValueError("words of different lengths")
    if not _codes_compatible(u.code, v.code):
        raise ValueError("words belong to different codes")


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

    def word(self, coords) -> ReceivedWord:
        """Build a received word from elements or canonical encodings."""
        return ReceivedWord(self, coords)

    def word_from_text(self, text: str) -> ReceivedWord:
        return self.word([int(c) for c in text.split(",")])

    def interpolant(self, word: ReceivedWord) -> Polynomial:
        """Lagrange interpolant of the first n coordinates over D."""
        n = len(self._d_encs)
        return Polynomial(self.field, _interp_enc(self.field, self._d_encs, word.encs[:n]))

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
        """Generator rows: the words of 1, x, ..., x^(k-1), cached by ``_cache_rows``."""
        _cache_rows([self])
        return self._rows_cache

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
        *_, span = _spans(self.field, np.array([self._generator_rows()]))
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
        if not _codes_compatible(word.code, self):
            raise ValueError("word belongs to a different code")
        if method == "enumerate":
            self._check_message_budget(budget)
            cw = self._codeword_matrix()
            target = np.array(word.encs, dtype=np.int16)
            return int((cw != target).sum(axis=1).min())
        if method == "agreement":
            if (pairs := math.comb(self.length, self.k + 1)) > budget:
                raise BudgetExceededError(f"C(length, k+1) = {pairs} agreement pairs exceed budget {budget}")
            return int(agreement_distances([self], [[word.encs]])[0, 0])
        raise ValueError(f"unknown error-distance method {method!r}")

    def is_codeword(self, word: ReceivedWord) -> bool:
        return not any(self._syndrome(word.encs))


def _distinct(codes) -> tuple[list, np.ndarray]:
    """The distinct code objects of a slab in first-seen order, and each row's index among them."""
    uniq = {id(code): code for code in codes}
    rank = {key: i for i, key in enumerate(uniq)}
    return list(uniq.values()), np.array([rank[id(code)] for code in codes], dtype=np.intp)


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


def _generator_stack(codes) -> np.ndarray:
    """Each code's generator rows, (codes, k, length): the frame generator on its columns."""
    return np.moveaxis(_frame_generator(codes[0].field, codes[0].k)[:, _columns(codes)], 0, 1)


def _cache_rows(codes) -> None:
    """Cache the generator rows of each code that has none, from one ``_generator_stack``."""
    new = [code for code in codes if getattr(code, "_rows_cache", None) is None]
    for code, rows in zip(new, _generator_stack(new).tolist() if new else ()):
        code._rows_cache = tuple(map(tuple, rows))


def _frame(kind: str, f: FiniteField, k: int, m: int, unit: int, build):
    """(table, binom): ``build`` on the m-subsets of the q + 1 frame points in lexicographic
    order, and the binomials that rank them. Built once per (kind, field, k) and kept in the
    shape cache; None when the build at ``unit`` bytes a subset would pass one run."""
    N, total = f.q + 1, math.comb(f.q + 1, m)
    if total * unit > matrix._RUN_BYTES:
        return None
    return matrix._cached((kind, f, k), lambda: (build(matrix._subsets(N, m, 0, total)), matrix._binom(N, m)))


def _frame_minors(f: FiniteField, k: int):
    """The frame's k-minor table: det of the frame generator on each k-subset, by ``det_stack``
    at the bytes a subset that ``column_minors`` counts."""
    def build(cols):
        return det_stack(f, np.moveaxis(_frame_generator(f, k)[:, cols], 0, 1)).astype(np.uint16)

    return _frame("minors", f, k, k, 32 * k * k, build)


def _frame_tails(f: FiniteField, k: int):
    """The frame's tail tensor, ``_tail_tensor`` on every (k+1)-subset of the frame points: those
    of the GRS code on all of F_q, index q read as the projective point."""
    return _frame("tails", f, k, k + 1, (_TAIL_BUILD + _TAIL_INDEX) * (k + 1),
                  lambda pairs: _tail_tensor([GrsCode(f, range(f.q), k)], pairs)[0])


def _gather(frame, points: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Each code's rows of a frame table at the m-subsets of its coordinates, (codes, subsets):
    ``points`` maps them to frame points, and the frame subset a is ranked as ``matrix._subsets``
    unranks, rank = C(N, m) - 1 - sum_j C(N - 1 - a_j, m - j), one column j at a time."""
    table, binom = frame
    N, m = len(binom), subsets.shape[-1]
    rank = math.comb(N, m) - 1
    for j in range(m):
        rank = rank - binom[N - 1 - points[:, subsets[:, j]], m - j]
    return table[rank]


def _minor_tables(codes) -> np.ndarray:
    """det G_T of each row's code for every k-column subset T, in lexicographic order, as
    (codes, C(length, k)): gathered from the frame table, or past one run one column_minors
    pass over the distinct codes."""
    uniq, index = _distinct(codes)
    f, k = uniq[0].field, uniq[0].k
    if (frame := _frame_minors(f, k)) is None:
        runs = column_minors(f, _generator_stack(uniq), k)
        return np.concatenate([dets for _, dets in runs], axis=1)[index]
    return _gather(frame, _columns(uniq), matrix._subset_index(uniq[0].length, k))[index]


def mds_checks(codes) -> list[MdsCheckResult]:
    """The all-minors MDS test of each code, read from the slab's k-minor tables
    (``_minor_tables``): on failure the witness is the first k-column tuple in lexicographic
    order with a zero minor."""
    singular = _minor_tables(codes) == 0
    length, k = codes[0].length, codes[0].k
    return [MdsCheckResult(False, tuple(matrix._subsets(length, k, r, r + 1)[0].tolist()))
            if row[r] else MdsCheckResult(True) for row, r in zip(singular, singular.argmax(axis=1))]


def mds_extension_zeros(codes, words) -> np.ndarray:
    """Per words[r, j] and codes[r], as (rows, words): the rank of the first (k+1)-subset T of
    range(length) in lexicographic order with det[G_T; w_T] = 0, or -1 for none, a deep hole (Dür).

    Up to sign, det[G_T; w_T] = sum_j (-1)^j w_(T_j) det G_(T minus T_j): k+1 gathers per run of
    subsets (``subset_runs``) from a group of rows' k-minor tables (``_minor_tables``), at the
    ranks of ``matrix._drop_ranks``, until each word of the group has a zero. A group is as many
    rows as fit one run at 8 bytes a k-minor.
    """
    f, n, k = codes[0].field, codes[0].length, codes[0].k
    w = np.asarray(words, dtype=np.intp).reshape(len(codes), -1, n)
    first = np.full(w.shape[:2], -1)
    group = max(1, matrix._RUN_BYTES // (8 * math.comb(n, k)))
    for start in range(0, len(codes), group):
        minors = _minor_tables(codes[start : start + group])
        wr, fr = w[start : start + group], first[start : start + group]
        # a subset's drop ranks and their temporaries; per row a cofactor, per word a point and term
        for a, run in subset_runs(n, k + 1, 8 * (k + 1) * (6 + 2 * (wr.shape[1] + 1) * len(wr))):
            cof = minors[:, matrix._drop_ranks(n, run)]
            cof[..., 1::2] = f.neg_table[cof[..., 1::2]]
            terms = f.mul_table[wr[:, :, run], cof[:, None]]
            vals = terms[..., 0]
            for j in range(1, k + 1):
                vals = f.add_table[vals, terms[..., j]]
            found = (fr < 0) & (zero := vals == 0).any(axis=2)
            fr[found] = a + zero[found].argmax(axis=1)
            if (fr >= 0).all():
                break
    return first


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
    _cache_rows(codes)
    best = []
    for g in range(0, len(codes), group):
        rows = np.array([code._rows_cache for code in codes[g : g + group]])
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
    S, all past max(S), and no S scores past its interpolant's agreement. A group of rows
    stops at the first run of pairs after which every word in it is a codeword.
    """
    f, k, top = codes[0].field, codes[0].k, codes[0].length
    w = np.asarray(words, dtype=np.intp).reshape(len(codes), -1, top)
    best = np.zeros(w.shape[:2], dtype=np.intp)
    # scoring scratch per row and pair: its tensor row's index copy, and per word a few gathers
    for rows, runs in _tail_runs(codes, 2 * k + 40 * w.shape[1]):
        wr, carry = w[rows], 0
        for pairs, T in runs:
            terms = f.mul_table[np.take(wr, pairs[:, :k], axis=2), T[:, None]]
            vals = terms[..., 0]
            for s in range(1, k):
                vals = f.add_table[vals, terms[..., s]]
            hits = np.add.reduceat(vals == np.take(wr, pairs[:, k], axis=2), _tail_starts(pairs),
                                   axis=2, dtype=np.intp)
            hits[..., 0] += carry  # the pairs of an S that the last run ended inside
            carry = hits[..., -1] if pairs[-1, k] < top - 1 else 0
            best[rows] = np.maximum(best[rows], hits.max(axis=2))
            if (best[rows] == top - k).all():
                break
    return top - k - best


def _tail_runs(codes, scratch: int):
    """(rows, runs) per group of distinct codes, with all their rows. A run is (pairs, T): the next
    (k+1)-subsets S + (i,) of range(length) from ``subset_runs``, and T[r, pair], code ``rows[r]``'s
    tensor rows on them, gathered from the frame tensor (``_frame_tails``) or else built, when
    reached. A run's index, tensor rows, gather or build temporaries and ``scratch`` bytes per row
    and pair fit the run cap; a group is as many codes as fit one run."""
    k, top = codes[0].k, codes[0].length
    frame = _frame_tails(codes[0].field, k)
    total, pair_index = math.comb(top, k + 1), _TAIL_INDEX * (k + 1)  # bytes per pair
    uniq, index = _distinct(codes)
    per_point = _TAIL_BUILD if frame is None else _TAIL_GATHER
    per_code = per_point * (k + 1) + int(np.bincount(index).max()) * scratch  # a code and its rows
    group = max(1, min(len(uniq), (matrix._RUN_BYTES // total - pair_index) // per_code))
    for g in range(0, len(uniq), group):
        rows, part = np.flatnonzero(index // group == g // group), uniq[g : g + group]
        runs = subset_runs(top, k + 1, group * per_code + pair_index)
        yield rows, ((p, _tails(part, frame, p)[index[rows] - g]) for _, p in runs)


def _tails(codes, frame, pairs: np.ndarray) -> np.ndarray:
    """The codes' tensor rows on the pairs: gathered from the frame tensor, or built without one."""
    return _tail_tensor(codes, pairs) if frame is None else _gather(frame, _columns(codes), pairs)


def _tail_starts(pairs: np.ndarray) -> np.ndarray:
    """Where each S's pairs S + (i,) start in a run of them: at i = max(S) + 1, and at 0."""
    first = pairs[:, -1] == pairs[:, -2] + 1
    first[0] = True
    return np.flatnonzero(first)


def _tail_tensor(codes, pairs: np.ndarray) -> np.ndarray:
    """T[c, A, s] = L_{S,s}(x_i) on the points of codes[c], for each row A = S + (i,) of ``pairs``.

    L_{S,s}(x) = prod_{t != s} (x - x_{S_t}) / (x_{S_s} - x_{S_t}) is the Lagrange basis
    polynomial of S that is 1 at x_{S_s}. Its numerator at x_i is P_i / (x_i - x_{S_s}), with
    P_i = prod_t (x_i - x_{S_t}) nonzero as i is not in S, and its denominators are built once
    per S of the run. At the projective coordinate i = n each x_i - x_{S_t} counts as 1, which
    leaves the x^(k-1) coefficient.
    """
    f = codes[0].field
    mul, inv = f.mul_table, f.inv_table
    x = np.array([code._d_encs for code in codes], dtype=np.intp)
    n, k = x.shape[1], pairs.shape[1] - 1
    diff = np.ones((len(codes), n, n + 1), dtype=np.intp)  # diff[c, j, i] = x_i - x_j, 1 at i = n or j
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
        zero, one step per scalar multiple of a parity-check column (Cohen,
        Honkala, Litsyn & Lobstein, *Covering Codes*, 1997, ch. 2); each level
        steps a unit column by one ``any`` over the frontier and every other
        group of columns with the same support a block of states at a time, one
        gather per digit (``_syndrome_bfs_depth``). The search stops at the
        redundancy bound: when r-1 levels, r = length - k, leave a syndrome
        unseen but reach more than q^(r-1), the radius is r, so a GPRS code's
        last level is never expanded. The budget prices the full search, states
        x generators = q^(length-k) * length * (q-1), an upper bound on its work.
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
        """Columns of H = [-A^T | I]: the syndromes of the unit words. Only the first k need an
        interpolation; a unit word past the information set is its own syndrome, a unit column."""
        r = self.length - self.k
        head = [self._syndrome([int(j == i) for j in range(self.length)]) for i in range(self.k)]
        return head + [[int(t == i) for t in range(r)] for i in range(r)]


def _syndrome_bfs_depth(f: FiniteField, columns: list[list[int]]) -> int:
    """Largest BFS depth over F_q^r, stepping by c * column for every c != 0.

    A syndrome is the integer sum_t s_t q^t; adding g moves digit t from d to add(d, g_t),
    which shifts the integer by step[t, d, g_t]. The generators are grouped by support, the
    digits they move: for H = [-A^T | I] of an MDS code the k dense columns of -A^T make one
    group and each unit column one more. A unit column on digit t steps a state to every
    state that differs from it in digit t alone, so its level is one ``any`` of the frontier
    mask over axis r-1-t of the (q,)*r state cube. A wider group steps a block of frontier
    states by all its generators g_j at once, one gather per digit t from
    shift[d, j] = step[t, d, g_j[t]]. A block is a run of ``matrix._RUN_BYTES`` /
    (8 * generators) states, so its (states, generators) shifts fit one run.

    The search stops at the redundancy bound: if more than q^(r-1) syndromes are reached
    after r-1 levels and some are still unseen, the depth is r.
    - Every reached state lies in the span W of the columns. More than q^(r-1) of them means
      W = F_q^r, so some r columns are independent, and every syndrome is a combination of
      those r columns: the depth is at most r.
    - A state still unseen after r-1 levels has weight at least r: the depth is at least r.
    - Columns that do not span reach at most q^(r-1) states, so they never stop early; their
      frontier still empties and they still raise.
    - At r = 1 the one state reached at level 0 is q^0, so the single level still runs.
    """
    q, r = f.q, len(columns[0])
    size = q**r
    place = q ** np.arange(r, dtype=np.int64)
    step = (f.add_table.astype(np.int64) - np.arange(q)[:, None]) * place[:, None, None]
    supports: dict[tuple, list] = {}
    for col in columns:
        supports.setdefault(tuple(t for t in range(r) if col[t]), []).append(col)
    # a unit column steps by one ``any`` over its digit's axis, a zero column nowhere
    units = [support[0] for support in supports if len(support) == 1]
    groups = []  # per wider support, (digit, shift table) over its c * column, c = 1..q-1
    for support, cols in supports.items():
        if len(support) > 1:
            gens = f.mul_table[np.arange(1, q)[:, None, None], np.array(cols)[None]].reshape(-1, r)
            groups.append([(t, step[t][:, gens[:, t]]) for t in support])
    run = max(1, matrix._RUN_BYTES // (8 * (q - 1) * len(columns)))
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    unseen = size - 1
    frontier, mask = np.zeros(1, dtype=np.int64), seen  # level 0's frontier is the zero state
    depth = 0
    while unseen > 0:
        if depth == r - 1 and size - unseen > q ** (r - 1):
            return r
        reached = np.zeros(size, dtype=bool)
        cube = reached.reshape((q,) * r)
        for t in units:
            cube |= mask.reshape((q,) * r).any(axis=r - 1 - t, keepdims=True)
        for start in range(0, frontier.size, run):
            block = frontier[start : start + run]
            digits = block // place[:, None] % q
            for (t, shift), *rest in groups:
                nxt = shift[digits[t]]
                nxt += block[:, None]
                for t, shift in rest:
                    nxt += shift[digits[t]]
                reached[nxt] = True
        reached &= ~seen
        seen |= reached
        frontier, mask = np.flatnonzero(reached), reached
        if not frontier.size:
            raise ValueError("the columns do not span the syndrome space")
        unseen -= frontier.size
        depth += 1
    return depth


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
