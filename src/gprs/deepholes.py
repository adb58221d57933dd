"""Deep-hole verdicts for generalized projective Reed-Solomon codes.

A received word is a deep hole when its exact error distance attains the
covering radius q - l + 1 - k. Four routes produce a verdict:

* ``oracle``: compare the exact error distance against the covering radius;
* ``mds_extension``: stack the word under the generator matrix and demand
  every (k+1)-column minor be nonsingular (a slab of words expands them over
  each code's k-minors in ``matrix.subset_runs`` runs, ``mds_extension_verdicts``);
* ``thm14``: closed form for words whose interpolant has degree exactly k;
  such a word is a deep hole iff no k-subset of D sums to zero;
* ``thm15``: closed form for the family lam*(x - a_j)^(q-2) + nu*x^(k-1)
  + (degree <= k-2); such a word is a deep hole iff
  C(q-2, k-1) * a_j^(q-1-k) * prod_{y in I} (y - a_j) + 1 is nonzero for
  every k-subset I of D. When the characteristic divides k the binomial
  term vanishes and the verdict is always yes.

Each paper family is one base word plus the code: the word of x^k, or of
(x - a_j)^(q-2), scaled by lam != 0, plus the codeword of
nu*x^(k-1) + low. ``family_words`` builds a slab of words that way (rows whose
codes share the field, n and k), and a word is in a family iff its syndrome is
a nonzero multiple of the base word's. Base words are table gathers: x^k, and
(y - a_j)^(q-2) = 1 / (y - a_j) on D, as a_j is excluded.

The closed-form criteria hard-require their hypotheses (odd characteristic
included) and raise HypothesisError outside them; the oracles run anywhere.
Failed criteria always carry a witness subset, enumerated in lexicographic
order of canonical encodings so reruns agree byte-for-byte.

thm14, thm15 and mds_extension each define their witnesses once: a ground
set, a subset size and a field expression that is zero exactly on a
witness. The criterion scan and ``validate_verdict`` both evaluate that one
definition, so a witness is re-checked by the definition that found it;
thm15 validation therefore also requires a_j to be an excluded point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .galois import FieldElement, FiniteField, lucas_binom
from .polynomial import Polynomial
from . import matrix
from .matrix import _subset_index, det_enc, first_singular_column_subset, subset_runs
from .codes import DEFAULT_MESSAGE_BUDGET, GprsCode, ReceivedWord, _generator_stack, _minor_tables


class HypothesisError(ValueError):
    """Criterion invoked outside the parameter range it is proved for."""


@dataclass(frozen=True)
class DeepHoleVerdict:
    """Outcome of one deep-hole check.

    ``witness`` is a sorted tuple of canonical element encodings (a zero-sum
    or product-criterion subset I of D) for the closed-form methods, and a
    tuple of 0-based column indices (n = the projective column) for the
    mds_extension method. Criterion verdicts carry a witness exactly when
    they are negative.
    """

    is_deep_hole: bool
    method: str
    witness: tuple[int, ...] | None = None
    distance: int | None = None

    def to_record(self, parameters: dict | None = None) -> dict:
        record = {"is_deep_hole": self.is_deep_hole, "method": self.method}
        if self.witness is not None:
            record["witness"] = list(self.witness)
        if self.distance is not None:
            record["distance"] = self.distance
        if parameters:
            record["parameters"] = dict(parameters)
        return record


@dataclass(frozen=True)
class WordFamilySpec:
    """Parameters of one structured received word.

    kind "deg_k": lam * x^k + nu * x^(k-1) + low(x).
    kind "shifted_qminus2": lam * (x - a_j)^(q-2) + nu * x^(k-1) + low(x),
    with a_j one of the code's excluded points.
    lam, nu and a_j are elements of the code's field or their encodings;
    ``low`` must have degree <= k - 2 (None means zero).
    """

    kind: str
    lam: FieldElement | int
    nu: FieldElement | int
    a_j: FieldElement | int | None = None
    low: Polynomial | None = None


def build_family_word(code: GprsCode, spec: WordFamilySpec) -> ReceivedWord:
    f = code.field
    lam, nu = f.encodings((spec.lam, spec.nu))
    if lam == 0:
        raise ValueError("family scale lam must be nonzero")
    low = spec.low if spec.low is not None else Polynomial.zero(f)
    if low.field != f:
        raise ValueError("low-order part over a different field")
    if not low.degree <= code.k - 2:
        raise ValueError(f"low-order part degree {low.degree} exceeds k - 2")
    tail = low.coeffs + (0,) * (code.k - 1 - len(low.coeffs)) + (nu,)
    return code.word(family_words([code], spec.kind, [[lam]], [[tail]], [spec.a_j])[0, 0].tolist())


def family_words(codes, kind: str, lams, tails, a_js) -> np.ndarray:
    """Words lam * base + sum_i t_i * G_i of each code, (codes, words, length), for the
    family's base word and the generator rows G_i: one gather per term. G_(k-1) carries
    t_(k-1) into the projective coordinate. ``lams`` is (codes, words), ``tails`` is
    (codes, words, k), and ``a_js`` one a_j per code (read by the shifted family)."""
    f = codes[0].field
    base = _family_bases(codes, kind, a_js)
    words = f.mul_table[np.asarray(lams, dtype=np.intp)[:, :, None], base[:, None]]
    tails = np.moveaxis(np.asarray(tails, dtype=np.intp), 2, 0)
    for t, row in zip(tails, np.moveaxis(_generator_stack(codes), 1, 0)):
        words = f.add_table[words, f.mul_table[t[:, :, None], row[:, None]]]
    return words


def _family_bases(codes, kind: str, a_js) -> np.ndarray:
    """Each code's word of x^k ("deg_k") or of (x - a_j)^(q-2) ("shifted_qminus2"), by
    table gathers on D: x^k by repeated multiplication, or 1 / (y - a_j) with the x^(k-1)
    coefficient C(q-2, k-1) * (-a_j)^(q-1-k)."""
    f, k = codes[0].field, codes[0].k
    x = np.array([code._d_encs for code in codes], dtype=np.intp)
    if kind == "deg_k":
        head, coeff = x, [0] * len(codes)
        for _ in range(1, k):
            head = f.mul_table[head, x]
    elif kind == "shifted_qminus2":
        a = np.array([_excluded_point(code, a_j) for code, a_j in zip(codes, a_js)])
        head = f.inv_table[f.add_table[x, f.neg_table[a][:, None]]]
        binom = lucas_binom(f.q - 2, k - 1, f.p)
        coeff = [f.mul_enc(binom, f.pow_enc(f.neg_enc(e), f.q - 1 - k)) for e in a.tolist()]
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return np.column_stack([head, coeff])


def _excluded_point(code: GprsCode, a_j) -> int:
    """The encoding of a_j, which must be one of the code's excluded points."""
    if a_j is None:
        raise ValueError("shifted family needs the excluded point a_j")
    (aj,) = code.field.encodings((a_j,))
    if aj in code.evaluation_encodings():
        raise ValueError("a_j must be one of the code's excluded points")
    return aj


def is_deep_hole_oracle(
    code: GprsCode,
    word: ReceivedWord,
    method: str = "agreement",
    budget: int = DEFAULT_MESSAGE_BUDGET,
) -> DeepHoleVerdict:
    """Ground truth: the word's exact error distance equals the covering radius.

    Codewords are never deep holes; they come back with distance 0.
    """
    d = code.error_distance(word, method=method, budget=budget)
    return DeepHoleVerdict(d == code.covering_radius("formula"), "oracle", distance=d)


def is_deep_hole_mds_extension(code: GprsCode, word: ReceivedWord) -> DeepHoleVerdict:
    """Stack the word as row k+1 under the generator and scan (k+1)-minors.

    The word is a deep hole iff the stacked matrix still generates an MDS
    code, i.e. every (k+1)-column minor is nonsingular. A codeword makes
    every minor singular, so codewords come back negative here too.
    """
    test = _mds_test(code, word)
    witness = first_singular_column_subset(code.field, test.rows, test.size)
    return DeepHoleVerdict(witness is None, "mds_extension", witness)


def mds_extension_verdicts(codes, words) -> list[list[DeepHoleVerdict]]:
    """``is_deep_hole_mds_extension`` of words[r, j] against codes[r], as (rows, words).

    det[G_S; w_S] = sum_j (-1)^(k+j) w_(S_j) det G_(S minus S_j), k+1 gathers per run of subsets S
    (``subset_runs``) over a group of rows' k-minor tables, up to the first run that leaves each
    word of the group a zero. Past ``matrix._RUN_BYTES`` per row's table each word scans alone.
    """
    code, n, k = codes[0], codes[0].length, codes[0].k
    w = np.asarray(words, dtype=np.intp).reshape(len(codes), -1, n)
    # the cofactor table below has C(n, k+1) * (k+1) = C(n, k) * (n-k) entries per row
    table = math.comb(n, k) * (n - k) * 24
    if table > matrix._RUN_BYTES:
        return [[is_deep_hole_mds_extension(c, c.word(x)) for x in xs] for c, xs in zip(codes, w.tolist())]
    add, mul, neg = code.field.add_table, code.field.mul_table, code.field.neg_table
    subsets, ranks = _subset_index(n, k + 1)
    first = np.full(w.shape[:2], -1)
    group = matrix._RUN_BYTES // table
    for start in range(0, len(codes), group):
        cof = _minor_tables(codes[start : start + group])[:, ranks]
        cof[..., (k + 1) % 2 :: 2] = neg[cof[..., (k + 1) % 2 :: 2]]  # the sign (-1)^(k+j)
        wr, fr = w[start : start + group], first[start : start + group]
        for a, run in subset_runs(n, k + 1, 16 * (k + 1) * (wr.shape[1] + 1) * len(wr)):
            terms = mul[wr[:, :, run], cof[:, None, a : a + len(run)]]
            vals = terms[..., 0]
            for j in range(1, k + 1):
                vals = add[vals, terms[..., j]]
            zero = vals == 0
            found = (fr < 0) & zero.any(axis=2)
            fr[found] = a + zero[found].argmax(axis=1)
            if (fr >= 0).all():
                break
    return [[DeepHoleVerdict(i < 0, "mds_extension", None if i < 0 else tuple(subsets[i].tolist()))
             for i in row] for row in first.tolist()]


def _require_odd(field: FiniteField):
    if not field.has_odd_characteristic:
        raise HypothesisError(
            "closed-form criteria are stated for odd characteristic only; "
            "use the oracle for p = 2"
        )


def thm14_criterion(code: GprsCode) -> DeepHoleVerdict:
    """Subset-sum criterion for words of interpolant degree exactly k.

    Every such word of the code is a deep hole iff no k-subset of D sums
    to zero. Requires 2 <= k <= min(q-3, q-l-1).
    """
    f = code.field
    _require_odd(f)
    if code.k > f.q - 3:  # GprsCode already holds 2 <= k <= q-l-1
        raise HypothesisError(f"thm14 requires 2 <= k <= {f.q - 3}, got k = {code.k}")
    return _criterion("thm14", _thm14_test(code))


def thm15_criterion(code: GprsCode, a_j) -> DeepHoleVerdict:
    """Product criterion for the shifted-power word family at excluded a_j.

    Every family word is a deep hole iff
    C(q-2, k-1) * a_j^(q-1-k) * prod_{y in I}(y - a_j) + 1 != 0 for all
    k-subsets I of D. If p divides k the binomial vanishes mod p and the
    verdict is positive without a scan.
    """
    _require_odd(code.field)
    return _criterion("thm15", _thm15_test(code, a_j))


class _WitnessTest(NamedTuple):
    """The witnesses of one method: the size-subsets I of ground with value(I) == 0.

    ``value`` is None when the expression is a nonzero constant, so that no
    subset is a witness. ``rows`` is the stacked matrix of mds_extension,
    whose minors ``value`` takes.
    """

    ground: tuple[int, ...]
    size: int
    value: Callable[[tuple[int, ...]], int] | None
    rows: tuple[tuple[int, ...], ...] = ()

    def holds(self, subset) -> bool:
        return (
            self.value is not None
            and len(subset) == self.size
            and len(set(subset)) == self.size
            and set(subset) <= set(self.ground)
            and self.value(subset) == 0
        )


def _criterion(method: str, test: _WitnessTest) -> DeepHoleVerdict:
    """Verdict carrying the lexicographically first witness, if there is one."""
    witness = None
    if test.value is not None:
        subsets = combinations(test.ground, test.size)
        witness = next((s for s in subsets if test.value(s) == 0), None)
    return DeepHoleVerdict(witness is None, method, witness)


def _thm14_test(code: GprsCode) -> _WitnessTest:
    add = code.field.add_enc

    def total(subset):
        acc = 0
        for e in subset:
            acc = add(acc, e)
        return acc

    return _WitnessTest(code.evaluation_encodings(), code.k, total)


def _thm15_test(code: GprsCode, a_j) -> _WitnessTest:
    f = code.field
    aj = _excluded_point(code, a_j)
    # (-a_j)^(q-1-k) * prod (a_j - y) of the paper; the signs multiply to
    # (-1)^(q-1) = 1, as q - 1 is even for odd q and -1 = 1 in characteristic 2
    binom = lucas_binom(f.q - 2, code.k - 1, f.p)
    const = f.mul_enc(binom, f.pow_enc(aj, f.q - 1 - code.k))
    add, mul, sub = f.add_enc, f.mul_enc, f.sub_enc

    def shifted(subset):
        acc = const
        for e in subset:
            acc = mul(acc, sub(e, aj))
        return add(acc, 1)

    # const == 0 (p | k, or a_j = 0): the expression is the constant 1
    return _WitnessTest(code.evaluation_encodings(), code.k, shifted if const else None)


def _mds_test(code: GprsCode, word: ReceivedWord) -> _WitnessTest:
    rows = code._generator_rows() + (word.encs,)

    def minor(cols):
        return det_enc(code.field, [[row[j] for j in cols] for row in rows])

    return _WitnessTest(tuple(range(code.length)), code.k + 1, minor, rows)


def zero_sum_subset(field: FiniteField, k: int) -> tuple[FieldElement, ...]:
    """A size-k subset of the nonzero elements summing to zero, constructively.

    Even k: pair each element with its negative in canonical-order scan and
    take k/2 pairs. Odd k: start from a zero-sum triple (1, 2, -3 when the
    characteristic is at least 7; a scan-built triple z', z'', -(z'+z'') for
    p in {3, 5}) and fill up with pairs disjoint from it.
    """
    _require_odd(field)
    if not 2 <= k <= field.q - 3:
        raise ValueError(f"subset size k = {k} outside 2..{field.q - 3}")
    neg = field.neg_enc
    pairs = [(e, neg(e)) for e in range(1, field.q) if e < neg(e)]
    if k % 2 == 0:
        chosen = [e for pair in pairs[: k // 2] for e in pair]
    else:
        triple = _zero_sum_triple(field)
        blocked = set(triple) | {field.neg_enc(e) for e in triple}
        chosen = list(triple)
        for pair in pairs:
            if len(chosen) == k:
                break
            if pair[0] in blocked or pair[1] in blocked:
                continue
            chosen.extend(pair)
    witness = DeepHoleVerdict(False, "thm14", tuple(sorted(chosen)))
    if not validate_verdict(GprsCode(field, [0], k), witness):
        raise AssertionError("constructed subset failed its own invariant")
    return tuple(field.element(e) for e in witness.witness)


def _zero_sum_triple(field: FiniteField) -> tuple[int, int, int]:
    p = field.p
    if p >= 7:
        return 1, 2, field.neg_enc(3)
    z1 = 1
    if p == 3:
        blocked = {z1, field.neg_enc(z1)}
    else:
        two = field.add_enc(z1, z1)
        blocked = {z1, field.neg_enc(z1), two, field.neg_enc(two)}
    z2 = next(e for e in range(1, field.q) if e not in blocked)
    z3 = field.neg_enc(field.add_enc(z1, z2))
    return z1, z2, z3


def vp_binomial(q: int, t: int) -> int:
    """p-adic valuation of C(q-2, t-1) for q an odd prime power.

    Equals v_p(t); the test suite pins this against big-integer binomials.
    """
    from .galois import prime_power_decomposition

    p, _ = prime_power_decomposition(q)
    if p == 2:
        raise ValueError("valuation identity requires odd characteristic")
    if not 2 <= t <= q - 1:
        raise ValueError(f"t = {t} outside 2..{q - 1}")
    v = 0
    while t % p == 0:
        t //= p
        v += 1
    return v


def binom_mod_p(m: int, r: int, field: FiniteField) -> FieldElement:
    """C(m, r) reduced into the prime subfield via base-p digit products."""
    if r < 0 or r > m:
        raise ValueError(f"binomial C({m}, {r}) outside 0 <= r <= m")
    return field.element(lucas_binom(m, r, field.p))


def word_in_degree_k_family(code: GprsCode, word: ReceivedWord) -> bool:
    """Is the word (u(D), c_{k-1}(u)) for some u of degree exactly k?"""
    return _in_family(code, word, "deg_k", None)


def word_in_shifted_family(code: GprsCode, word: ReceivedWord, a_j) -> bool:
    """Is the word lam*(x-a_j)^(q-2) + nu*x^(k-1) + low for some lam != 0?"""
    return _in_family(code, word, "shifted_qminus2", a_j)


def _in_family(code: GprsCode, word: ReceivedWord, kind: str, a_j) -> bool:
    """Is the word lam * base plus a codeword for some lam != 0, base the family's word?

    By linearity that holds iff s(word) = lam * s(base). The base word is
    never a codeword, so s(base) != 0: on D its interpolant has degree k or
    n - 1 (x^k, or 1/(x - a_j)), and n - 1 >= k.
    """
    f = code.field
    base = _family_bases([code], kind, [a_j])[0].tolist()
    s_word, s_base = code._syndrome(word.encs), code._syndrome(base)
    t = next(i for i, b in enumerate(s_base) if b)
    lam = f.div_enc(s_word[t], s_base[t])
    return lam != 0 and all(w == f.mul_enc(lam, b) for w, b in zip(s_word, s_base))


def validate_verdict(
    code: GprsCode,
    verdict: DeepHoleVerdict,
    a_j: FieldElement | int | None = None,
    word: ReceivedWord | None = None,
) -> bool:
    """Re-check a verdict's witness by the definition that found it.

    The witness must be a subset of the right size of the method's ground
    set at which the method's expression is zero. thm15 needs a_j, and a_j
    must be one of the code's excluded points; mds_extension needs the word.
    """
    if verdict.witness is None:
        return True
    if verdict.method == "thm14":
        test = _thm14_test(code)
    elif verdict.method == "thm15":
        if a_j is None:
            raise ValueError("thm15 witness validation needs a_j")
        test = _thm15_test(code, a_j)
    elif verdict.method == "mds_extension":
        if word is None:
            raise ValueError("mds_extension witness validation needs the word")
        test = _mds_test(code, word)
    else:
        raise ValueError(f"no witness semantics for method {verdict.method!r}")
    return test.holds(verdict.witness)
