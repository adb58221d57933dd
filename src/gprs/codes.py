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
span_0 = {0}. ``enumerate`` scans span_k; the brute-force minimum distance
scans each row_i + span_i, one codeword per projective point, and never
builds span_k. Both budgets still count q^k codewords.

Agreement scores each k-subset S of D only at the coordinates after max(S),
the projective one last: a word's agreement with the code is k plus the best
count of i > max(S) where it equals the interpolant through S (proved at
``agreement_distances``). The tail tensor T[S + (i,), s] = L_{S,s}(x_i) has
a row per (k+1)-subset of coordinates, built once per distinct code of a
slab (rows whose codes share the field, n and k), in the runs of subsets that
``matrix.subset_runs`` hands every batched scan under its one 4 MiB cap. A
code caches nothing but its generator rows.

The test suite pins the two flavors against each other exhaustively on
small codes, the kernel against the per-subset interpolation loop it
replaced, and the spans against the digit-by-digit q^k build they replaced.
"""

from __future__ import annotations

import math

import numpy as np

from .galois import FieldElement, FiniteField, field_from_spec
from .polynomial import Polynomial, _eval_enc, _interp_enc
from . import matrix
from .matrix import Matrix, column_minors, subset_runs

DEFAULT_MESSAGE_BUDGET = 10**6
DEFAULT_DISTANCE_BUDGET = 10**8


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


def hamming_distance(u: ReceivedWord, v: ReceivedWord) -> int:
    """Number of coordinates where the two words differ."""
    _check_same_code(u, v)
    return sum(a != b for a, b in zip(u.encs, v.encs))


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
        """Generator rows: the words of 1, x, ..., x^(k-1)."""
        cached = getattr(self, "_rows_cache", None)
        if cached is None:
            cached = self._rows_cache = tuple(map(tuple, _generator_stack([self])[0].tolist()))
        return cached

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

    def _spans(self, rows: np.ndarray):
        """span_0 = {0}, then span_(i+1) = span_i + F_q * rows[i], each as uint16 rows.

        Row c * q^i + j of span_(i+1) is row j of span_i plus c * rows[i]: message-index order.
        """
        f = self.field
        scalars = np.arange(f.q)[:, None, None]
        span = np.zeros((1, self.length), dtype=np.uint16)
        yield span
        for row in rows:
            span = f.add_table[f.mul_table[scalars, row], span].reshape(-1, self.length)
            yield span

    def _codeword_matrix(self) -> np.ndarray:
        """All q^k codewords as int16 rows, in message-index order: span_k."""
        *_, span = self._spans(np.array(self._generator_rows()))
        return span.view(np.int16)

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
            return self.agreement_distances([word])[0]
        raise ValueError(f"unknown error-distance method {method!r}")

    def agreement_distances(self, words) -> list[int]:
        """Exact error distances of the words by agreement: the slab of this code alone."""
        for word in words:
            if not _codes_compatible(word.code, self):
                raise ValueError("word belongs to a different code")
        return agreement_distances([self], [[word.encs for word in words]])[0].tolist()

    def is_codeword(self, word: ReceivedWord) -> bool:
        return not any(self._syndrome(word.encs))


def _distinct(codes) -> tuple[list, np.ndarray]:
    """The distinct code objects of a slab in first-seen order, and each row's index among them."""
    uniq = {id(code): code for code in codes}
    rank = {key: i for i, key in enumerate(uniq)}
    return list(uniq.values()), np.array([rank[id(code)] for code in codes], dtype=np.intp)


def _generator_stack(codes) -> np.ndarray:
    """Each code's generator rows, (codes, k, length): x^i on D by repeated mul_table
    gathers, and for projective codes the column of the x^(k-1) coefficient."""
    f, k, n = codes[0].field, codes[0].k, len(codes[0]._d_encs)
    g = np.zeros((len(codes), k, codes[0].length), dtype=np.intp)
    g[:, 0, :n] = 1
    for i in range(1, k):
        g[:, i, :n] = f.mul_table[g[:, i - 1, :n], [code._d_encs for code in codes]]
    g[:, k - 1, n:] = 1
    return g


def _minor_tables(codes) -> np.ndarray:
    """det G_T of each row's code for every k-column subset T, in lexicographic order,
    as (codes, C(length, k)): one column_minors pass over the distinct codes."""
    uniq, index = _distinct(codes)
    runs = column_minors(uniq[0].field, _generator_stack(uniq), uniq[0].k)
    return np.concatenate([dets for _, dets in runs], axis=1)[index]


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
    tensor rows on them, built when reached. A run's index, tensor rows, build temporaries and
    ``scratch`` bytes per row and pair fit the run cap; a group is as many codes as fit one run."""
    k, top = codes[0].k, codes[0].length
    total, build, pair_index = math.comb(top, k + 1), 16 * k * (k + 2), 48 * (k + 1)  # bytes per pair
    uniq, index = _distinct(codes)
    per_code = build + int(np.bincount(index).max()) * scratch  # a code and its rows
    group = max(1, min(len(uniq), (matrix._RUN_BYTES // total - pair_index) // per_code))
    for g in range(0, len(uniq), group):
        rows = np.flatnonzero(index // group == g // group)
        runs = subset_runs(top, k + 1, group * per_code + pair_index)
        yield rows, ((p, _tail_tensor(uniq[g : g + group], p)[index[rows] - g]) for _, p in runs)


def _tail_starts(pairs: np.ndarray) -> np.ndarray:
    """Where each S's pairs S + (i,) start in a run of them: at i = max(S) + 1, and at 0."""
    first = pairs[:, -1] == pairs[:, -2] + 1
    first[0] = True
    return np.flatnonzero(first)


def _tail_tensor(codes, pairs: np.ndarray) -> np.ndarray:
    """T[c, A, s] = L_{S,s}(x_i) on the points of codes[c], for each row A = S + (i,) of ``pairs``.

    L_{S,s}(x) = prod_{t != s} (x - x_{S_t}) / (x_{S_s} - x_{S_t}) is the Lagrange basis
    polynomial of S that is 1 at x_{S_s}. At the projective coordinate i = n each
    x - x_{S_t} counts as 1, which leaves the x^(k-1) coefficient.
    """
    f = codes[0].field
    x = np.array([code._d_encs for code in codes], dtype=np.intp)
    n, k = x.shape[1], pairs.shape[1] - 1
    diff = np.ones((len(codes), n, n + 1), dtype=np.intp)  # diff[c, j, i] = x_i - x_j, 1 at i = n
    diff[:, :, :n] = f.add_table[x[:, None, :], f.neg_table[x][:, :, None]]
    S = pairs[:, :k]
    # M[c, A, t, s] = (x_i - x_{S_t}) / (x_{S_s} - x_{S_t}), and 1 at t = s
    M = f.mul_table[diff[:, S, pairs[:, k:]][..., None], f.inv_table[diff[:, S[:, :, None], S[:, None, :]]]]
    M[:, :, np.arange(k), np.arange(k)] = 1
    T = M[:, :, 0]
    for t in range(1, k):
        T = f.mul_table[T, M[:, :, t]]
    return T.astype(np.uint16)


def parse_excluded(text: str) -> list[int]:
    """Excluded points from their comma list "e1,e2,..."; empty items are dropped."""
    return [int(e) for e in text.split(",") if e != ""]


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
        if not isinstance(k, int) or not 2 <= k <= field.q - l - 1:
            raise ValueError(
                f"dimension k = {k!r} outside 2..{field.q - l - 1} for l = {l}"
            )
        self.field = field
        self.k = k
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
        """Minimum distance q - l - k + 2, or its brute-force confirmation.

        ``bruteforce`` takes the least weight of row_i + span_i over i: one
        codeword per projective point, exhaustive since scaling keeps weight.
        """
        if mode == "formula":
            return self.field.q - self.l - self.k + 2
        if mode == "bruteforce":
            self._check_message_budget(budget)
            rows = np.array(self._generator_rows())
            # row_i + span_i is nonzero where span_i differs from -row_i
            return min(int((span != neg).sum(axis=1).min())
                       for span, neg in zip(self._spans(rows[:-1]), self.field.neg_table[rows]))
        raise ValueError(f"unknown minimum-distance mode {mode!r}")

    def covering_radius(
        self, mode: str = "formula", budget: int = DEFAULT_DISTANCE_BUDGET
    ) -> int:
        """Covering radius q - l + 1 - k, or its exact computation.

        ``syndrome`` returns the largest coset-leader weight, which is the
        depth of a breadth-first search over the q^(length-k) syndromes from
        zero, one step per scalar multiple of a parity-check column (Cohen,
        Honkala, Litsyn & Lobstein, *Covering Codes*, 1997, ch. 2). The budget
        caps its work, states x generators = q^(length-k) * length * (q-1).
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
        """Columns of H = [-A^T | I]: the syndromes of the unit words."""
        return [
            self._syndrome([int(j == i) for j in range(self.length)])
            for i in range(self.length)
        ]


def _syndrome_bfs_depth(f: FiniteField, columns: list[list[int]]) -> int:
    """Largest BFS depth over F_q^r, stepping by c * column for every c != 0.

    A syndrome is the integer sum_t s_t q^t; adding g moves digit t from d
    to add(d, g_t), which shifts the integer by step[t, d, g_t].
    """
    q, r = f.q, len(columns[0])
    size = q**r
    place = q ** np.arange(r, dtype=np.int64)
    step = (f.add_table.astype(np.int64) - np.arange(q)[:, None]) * place[:, None, None]
    # every c * column for c = 1..q-1
    gens = f.mul_table[np.arange(1, q)[:, None, None], np.array(columns)[None]].reshape(-1, r)
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    unseen = size - 1
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while unseen > 0:
        digits = frontier[:, None] // place % q
        reached = np.zeros(size, dtype=bool)
        for g in gens:
            nxt = frontier.copy()
            for t in np.flatnonzero(g):
                nxt += step[t, digits[:, t], g[t]]
            reached[nxt] = True
        reached &= ~seen
        seen |= reached
        frontier = np.flatnonzero(reached)
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
        if not 1 <= k < n:
            raise ValueError(f"dimension k = {k!r} outside 1..{n - 1}")
        self.field = field
        self.k = k
        self._d_encs = tuple(pts)
        self.n = n
        self.length = n
