import math
import random
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gprs.codes as codes_module
import gprs.matrix as matrix_module
from gprs.codes import (
    BudgetExceededError,
    GprsCode,
    GrsCode,
    _generator_stack,
    _tail_starts,
    _tail_tensor,
    family_verdicts,
    mds_checks,
    minimum_distances,
)
from gprs.deepholes import (
    WordFamilySpec,
    _family_bases,
    _thm14_test,
    _thm15_test,
    build_family_word,
    family_words,
    thm14_criterion,
)
from gprs.galois import field, field_of_order, lucas_binom
from gprs.matrix import _subset_index, _subsets
from gprs.polynomial import Polynomial, _eval_enc, _interp_enc
from gprs.verify import SweepConfig, run_sweep
import references
from references import column_minors, mds_extension_zeros, mds_generator_check


# -- independent oracle: plain-int message enumeration --------------------------


def _oracle_distance(code, word_encs):
    # minimal distance by looping all q^k messages with field scalar ops,
    # no numpy, no interpolation
    f = code.field
    q, k = f.q, code.k
    d_encs = code.evaluation_encodings()
    best = code.length + 1
    for msg in product(range(q), repeat=k):
        dist = 0
        for pos, y in enumerate(d_encs):
            acc = 0
            for c in reversed(msg):
                acc = f.add_enc(f.mul_enc(acc, y), c)
            dist += acc != word_encs[pos]
        if getattr(code, "_projective", False):
            dist += msg[k - 1] != word_encs[-1]
        best = min(best, dist)
    return best


def x_squared(f):
    return Polynomial.from_encodings(f, [0, 0, 1])


# -- construction ----------------------------------------------------------------


def test_generator_matches_projective_pattern():
    code = GprsCode(field(5), [3, 4], 2)
    assert code.generator.row_encodings() == ((1, 1, 1, 0), (0, 1, 2, 1))
    assert code.evaluation_encodings() == (0, 1, 2)
    assert (code.n, code.length, code.l) == (3, 4, 2)


def test_empty_exclusion_rejected():
    with pytest.raises(ValueError):
        GprsCode(field(5), [], 2)


def test_duplicate_exclusion_rejected():
    with pytest.raises(ValueError):
        GprsCode(field(5), [3, 3], 2)


def test_dimension_bounds():
    f = field(5)
    with pytest.raises(ValueError):
        GprsCode(f, [4], 1)
    with pytest.raises(ValueError):
        GprsCode(f, [4], 4)  # k <= q - l - 1 = 3
    GprsCode(f, [4], 3)


def test_dimension_is_an_integer_index_in_its_range():
    # one check for both codes: k by operator.index, so a numpy integer is a dimension
    # and a float is not, and a range that names its ends
    f = field(5)
    code = GprsCode(f, [0], np.int64(2))
    assert code.k == 2 and type(code.k) is int
    assert GrsCode(f, [0, 1, 2], np.int64(2)).k == 2
    with pytest.raises(ValueError, match=r"^dimension k = 4 outside 2\.\.3 for l = 1$"):
        GprsCode(f, [0], 4)
    with pytest.raises(ValueError, match=r"^dimension k = 3 outside 1\.\.2$"):
        GrsCode(f, [0, 1, 2], 3)
    with pytest.raises(TypeError):
        GrsCode(f, [0, 1, 2], 1.0)
    with pytest.raises(TypeError):
        GprsCode(f, [0], 2.0)


@pytest.mark.parametrize("points", [[], [2]])
def test_grs_code_needs_two_points(points):
    with pytest.raises(ValueError, match=f"^a GRS code needs at least two evaluation points, got {len(points)}$"):
        GrsCode(field(5), points, 1)


def test_small_field_rejected():
    with pytest.raises(ValueError):
        GprsCode(field(3), [2], 2)


def test_primitive_projective_shape():
    code = GprsCode(field(7), [0], 5)
    assert code.length == 7
    assert code.evaluation_encodings() == (1, 2, 3, 4, 5, 6)


def test_spec_string_roundtrip():
    code = GprsCode.from_spec("q=5;exclude=3,4;k=2")
    assert code.spec_string() == "q=5;exclude=3,4;k=2"
    code9 = GprsCode.from_spec("q=3^2;exclude=0;k=4")
    assert code9.field.q == 9
    assert GprsCode.from_spec("q=9;exclude=0;k=4").field == code9.field
    override = GprsCode.from_spec("q=3^2;exclude=0;k=4;mod=2,2,1")
    assert override.field.modulus == (2, 2, 1)
    for bad in ("q=5;k=2", "exclude=1;k=2", "q=5;exclude=;k=2", "nonsense"):
        with pytest.raises(ValueError):
            GprsCode.from_spec(bad)


def test_spec_rejects_unknown_and_repeated_keys():
    # a misspelt modulus key would otherwise build GF(9) with the default modulus
    with pytest.raises(ValueError, match="unknown code spec key 'modulus'"):
        GprsCode.from_spec("q=3^2;exclude=0;k=2;modulus=2,2,1")
    with pytest.raises(ValueError, match="repeats key 'k'"):
        GprsCode.from_spec("q=5;k=2;exclude=0;k=3")
    with pytest.raises(ValueError, match="repeats key 'mod'"):
        GprsCode.from_spec("q=3^2;exclude=0;k=2;mod=2,2,1;mod=1,0,1")
    code = GprsCode.from_spec(" q = 3^2 ; mod=2,2,1; k=2;exclude=0,1 ;")
    assert code.field.modulus == (2, 2, 1) and code.k == 2


# -- encoding ---------------------------------------------------------------------


def test_encode_example():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    word = code.encode(Polynomial.from_encodings(f, [3, 2]))
    assert word.encs == (3, 0, 2, 2)


def test_encode_zero_and_leading_monomial():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    assert code.encode(Polynomial.zero(f)).encs == (0, 0, 0, 0)
    top = code.encode(Polynomial(f, [0, 1]))
    assert top.encs == (0, 1, 2, 1)  # x on D plus c_1 = 1


def test_encode_rejects_high_degree():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    with pytest.raises(ValueError):
        code.encode(x_squared(f))


def test_word_from_poly_examples():
    f = field(5)
    assert GprsCode(f, [3, 4], 2).word_from_poly(x_squared(f)).encs == (0, 1, 4, 0)
    assert GprsCode(f, [0, 4], 2).word_from_poly(x_squared(f)).encs == (1, 4, 4, 0)


def test_word_from_poly_degree_cap():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    with pytest.raises(ValueError):
        code.word_from_poly(Polynomial(f, [0, 0, 0, 0, 1]))  # degree q-1 is ambiguous
    code.word_from_poly(Polynomial(f, [0, 0, 0, 1]))


def test_low_degree_poly_gives_codeword():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    rng = random.Random(0)
    for _ in range(20):
        u = Polynomial.from_encodings(f, [rng.randrange(5) for _ in range(2)])
        assert code.is_codeword(code.word_from_poly(u))


# -- words ---------------------------------------------------------------------------


def test_word_addition_rejects_mismatched_codes():
    u = GprsCode(field(5), [3, 4], 2).word([0, 0, 0, 0])
    v = GprsCode(field(5), [0, 4], 2).word([0, 0, 0, 0])
    with pytest.raises(ValueError):
        u + v


def test_word_validation():
    code = GprsCode(field(5), [3, 4], 2)
    with pytest.raises(ValueError):
        code.word([0, 0, 0])
    with pytest.raises(ValueError):
        code.word([0, 0, 0, 9])


def test_words_of_equal_codes_compare_equal():
    spec = "q=7;exclude=0;k=2"
    u = GprsCode.from_spec(spec).word([1, 2, 3, 4, 5, 6, 0])
    v = GprsCode.from_spec(spec).word([1, 2, 3, 4, 5, 6, 0])
    assert u.code is not v.code
    assert (u + v).encs == tuple(2 * e % 7 for e in u.encs)
    assert u == v and hash(u) == hash(v)
    other = GprsCode.from_spec("q=7;exclude=0;k=3").word(u.encs)
    assert u != other


def test_word_addition():
    code = GprsCode(field(5), [3, 4], 2)
    u = code.word([1, 2, 3, 4])
    v = code.word([4, 4, 4, 4])
    assert (u + v).encs == (0, 1, 2, 3)


# -- error distance -------------------------------------------------------------------


def test_codeword_distance_zero():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    w = code.encode(Polynomial.from_encodings(f, [3, 2]))
    assert code.error_distance(w) == 0
    assert code.error_distance(w, method="agreement") == 0


def test_error_distance_examples():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    w = code.word_from_poly(x_squared(f))
    assert code.error_distance(w) == 2
    assert _oracle_distance(code, w.encs) == 2
    code2 = GprsCode(f, [0, 4], 2)
    w2 = code2.word_from_poly(x_squared(f))
    assert code2.error_distance(w2) == 1
    assert _oracle_distance(code2, w2.encs) == 1


@pytest.mark.parametrize("excl", [(3, 4), (0, 4), (1, 2)])
def test_enumerate_and_agreement_agree_on_every_word_f5(excl):
    code = GprsCode(field(5), excl, 2)
    for encs in product(range(5), repeat=4):
        w = code.word(encs)
        assert code.error_distance(w) == code.error_distance(w, method="agreement")


@pytest.mark.parametrize(
    "q,excl,k",
    [(7, (5, 6), 3), (9, (0,), 4), (9, (0,), 5), (7, (0,), 5), (11, (0, 10), 3)],
)
def test_enumerate_and_agreement_agree_sampled(q, excl, k):
    code = GprsCode(field_of_order(q), excl, k)
    rng = random.Random(q * k)
    for _ in range(40):
        w = code.word([rng.randrange(q) for _ in range(code.length)])
        assert code.error_distance(w) == code.error_distance(w, method="agreement")


def test_enumerate_and_agreement_agree_on_every_word_gf9():
    # a full ambient-space scan over an extension field
    code = GprsCode(field(3, 2), [3, 4, 5, 6, 7, 8], 2)  # D = {0,1,2}, length 4
    for encs in product(range(9), repeat=4):
        w = code.word(encs)
        assert code.error_distance(w) == code.error_distance(w, method="agreement")


def test_distance_zero_iff_codeword_exhaustive():
    code = GprsCode(field(5), [3, 4], 2)  # length 4, 625 words
    for encs in product(range(5), repeat=4):
        w = code.word(encs)
        assert (code.error_distance(w) == 0) == code.is_codeword(w)


def test_error_distance_budget():
    code = GprsCode(field(5), [3, 4], 2)
    w = code.word([0, 1, 4, 0])
    with pytest.raises(BudgetExceededError):
        code.error_distance(w, budget=24)
    assert code.error_distance(w, budget=25) == 2
    with pytest.raises(ValueError):
        code.error_distance(w, method="bogus")
    # the codeword matrix is now cached; a smaller budget still refuses it
    refused = "^q\\^k = 25 codewords exceed budget 24$"
    with pytest.raises(BudgetExceededError, match=refused):
        code.error_distance(w, budget=24)
    with pytest.raises(BudgetExceededError, match=refused):
        code.minimum_distance("bruteforce", budget=24)
    assert code.minimum_distance("bruteforce", budget=25) == 3


def test_agreement_oracle_matches_plain_enumeration_gf9():
    code = GprsCode(field(3, 2), [0, 1], 3)
    rng = random.Random(99)
    for _ in range(10):
        w = code.word([rng.randrange(9) for _ in range(code.length)])
        assert code.error_distance(w, method="agreement") == _oracle_distance(
            code, w.encs
        )


# -- the run walker's agreement, pinned to the per-subset loop it replaced ---------------


def _loop_agreement_distance(code, encs):
    # interpolate every k-subset of the first n coordinates in lexicographic
    # order and count the interpolant's agreement with the word; a codeword
    # reaches full agreement and ends the scan
    f = code.field
    d_encs = code.evaluation_encodings()
    n, k, top = len(d_encs), code.k, code.length
    best = 0
    for subset in combinations(range(n), k):
        coeffs = _interp_enc(f, [d_encs[i] for i in subset], [encs[i] for i in subset])
        agree = k + sum(
            _eval_enc(f, coeffs, d_encs[i]) == encs[i] for i in range(n) if i not in subset
        )
        if code._projective:
            agree += (coeffs[k - 1] if len(coeffs) > k - 1 else 0) == encs[n]
        best = max(best, agree)
        if best == top:
            break
    return top - best


def _reference_distance(code, encs):
    """A word's error distance by enumerating the code's q^k codewords, or past 10^4 of them by
    the per-subset interpolation loop, whichever reference is quicker there."""
    if code.field.q**code.k <= 10**4:
        return code.error_distance(code.word(encs))
    return _loop_agreement_distance(code, encs)


def _kernel_words(code, rng, count=2):
    """Random words, a codeword, that codeword with one coordinate changed,
    and a degree-k and a shifted family word."""
    f = code.field
    q, k = f.q, code.k
    words = [code.word([rng.randrange(q) for _ in range(code.length)]) for _ in range(count)]
    codeword = code.word_from_poly(Polynomial(f, [rng.randrange(q) for _ in range(k)]))
    pos = rng.randrange(code.length)
    changed = list(codeword.encs)
    changed[pos] = f.add_enc(changed[pos], rng.randrange(1, q))
    words += [codeword, code.word(changed)]
    for kind, a_j in (("deg_k", None), ("shifted_qminus2", rng.choice(code.excluded))):
        spec = WordFamilySpec(
            kind, rng.randrange(1, q), rng.randrange(q), a_j,
            Polynomial(f, [rng.randrange(q) for _ in range(k - 1)]),
        )
        words.append(build_family_word(code, spec))
    return words


def _agreement(code, words):
    """Exact error distances of one code's words by agreement: the run walker on a row per word."""
    return codes_module._walk([code] * len(words), [w.encs for w in words])[0].tolist()


def _slab_agreement(slab, words):
    """``_agreement`` of words[r] on slab[r] for a slab of codes, in one walk, as (rows, words)."""
    rows = [code for code, row in zip(slab, words) for _ in row]
    return codes_module._walk(rows, [w for row in words for w in row])[0].reshape(len(slab), -1).tolist()


def _assert_kernel_matches_loop(code, words):
    expected = [_loop_agreement_distance(code, w.encs) for w in words]
    assert _agreement(code, words) == expected, code.spec_string()
    assert [code.error_distance(w, method="agreement") for w in words] == expected


def _every_code(q):
    f = field_of_order(q)
    for l in range(1, q - 2):
        for excl in combinations(range(q), l):
            for k in range(2, q - l):
                yield GprsCode(f, excl, k)


@pytest.mark.parametrize("q", [5, 7])
def test_agreement_kernel_matches_loop_on_every_code(q):
    rng = random.Random(q)
    codes = list(_every_code(q))
    assert len(codes) == {5: 20, 7: 196}[q]
    for code in codes:
        words = _kernel_words(code, rng)
        _assert_kernel_matches_loop(code, words)
        assert _agreement(code, words)[2:4] == [0, 1]


def _slabs(q, rng):
    """Every code for q <= 8, two sampled exclusion sets per (l, k) above, one slab
    per (l, k) that ends with its first code object once more; then that code
    alone, in two rows."""
    f = field_of_order(q)
    for l in range(1, q - 2):
        sets = list(combinations(range(q), l)) if q <= 8 else [rng.sample(range(q), l) for _ in range(2)]
        for k in range(2, q - l):
            slab = [GprsCode(f, excl, k) for excl in sets]
            yield slab + slab[:1]
            yield slab[:1] * 2


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_agreement_kernel_on_a_slab_matches_loop(monkeypatch, q):
    # the walker on a row per (code, word), four words a code: at the default cap; at a cap of
    # 2 * C(length, k + 1) rows a group, a group being as many rows as fit a run at ``unit``
    # bytes a row, whose pairs then go in runs of a few; on the first slabs also at two rows a
    # group and at a cap so small that each row is its own group, both taking one subset a
    # run, so each distinct code builds its tensor one subset at a time. The loop takes seconds
    # per slab past a few hundred subsets, so those shapes are left out.
    rng = random.Random(q)
    default = matrix_module._RUN_BYTES
    for i, slab in enumerate(_slabs(q, rng)):
        n, k, top = len(slab[0].evaluation_encodings()), slab[0].k, slab[0].length
        if math.comb(n, k) > 330:
            continue
        words = [[w.encs for w in _kernel_words(code, rng, count=0)] for code in slab]
        expected = [[_loop_agreement_distance(c, w) for w in row] for c, row in zip(slab, words)]
        unit = (codes_module._TAIL_BUILD + 32) * (k + 1)
        for cap in [default, 2 * math.comb(top, k + 1) * unit] + [2 * unit, 1] * (i < 4):
            monkeypatch.setattr(matrix_module, "_RUN_BYTES", cap)
            assert _slab_agreement(slab, words) == expected, slab[0].spec_string()


@pytest.mark.parametrize("q", [8, 9])
def test_agreement_kernel_matches_loop_per_shape(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for l in range(1, q - 2):
        excl = rng.sample(range(q), l)
        for k in range(2, q - l):
            code = GprsCode(f, excl, k)
            _assert_kernel_matches_loop(code, _kernel_words(code, rng, count=3))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_agreement_kernel_property(data):
    q = data.draw(st.sampled_from([5, 7, 8, 9, 11]))
    l = data.draw(st.integers(1, q - 3))
    k = data.draw(st.integers(2, q - l - 1))
    excl = data.draw(st.lists(st.integers(0, q - 1), min_size=l, max_size=l, unique=True))
    code = GprsCode(field_of_order(q), excl, k)
    coords = st.integers(0, q - 1)
    words = data.draw(st.lists(st.lists(coords, min_size=code.length, max_size=code.length),
                               min_size=1, max_size=4))
    _assert_kernel_matches_loop(code, [code.word(w) for w in words])


def test_agreement_kernel_matches_grs_loop():
    rng = random.Random(5)
    for q in (5, 7, 9):
        f = field_of_order(q)
        for k in range(1, q - 1):
            code = GrsCode(f, sorted(rng.sample(range(q), q - 1)), k)
            words = [code.word([rng.randrange(q) for _ in range(code.length)]) for _ in range(3)]
            _assert_kernel_matches_loop(code, words)


@pytest.mark.parametrize("two_runs", [1, 6000, 12000])
def test_agreement_chunk_boundaries(monkeypatch, two_runs):
    # a run cap of half of ``two_runs`` splits the pairs into runs of 1 or a few
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", two_runs // 2)
    rng = random.Random(two_runs)
    for q, excl, k in ((7, (0,), 3), (11, (0, 5), 4), (9, (2,), 5)):
        code = GprsCode(field_of_order(q), excl, k)
        words = _kernel_words(code, rng)
        _assert_kernel_matches_loop(code, words)


def test_agreement_tensor_is_cached_when_it_fits():
    # one row per pair (S, i): a 5-subset S of D and a later coordinate i, the
    # projective one included, C(10, 6) + C(10, 5) = C(11, 6) rows of 5 entries;
    # the pair index fits the shape cache and stays there
    code = GprsCode(field_of_order(11), [0], 5)
    pairs = _subset_index(11, 6)
    T = _tail_tensor(code.field, np.array([code.evaluation_encodings()]), pairs)[0]
    assert T.shape == (math.comb(10, 6) + math.comb(10, 5), 5) == (math.comb(11, 6), 5)
    assert [tuple(r) for r in pairs] == list(combinations(range(11), 6))
    assert _subset_index(11, 6) is pairs


def _tail_tensor_reference(codes, pairs):
    # T[c, A, s] = L_{S,s}(x_i) for each row A = S + (i,) of pairs, from a k x k matrix
    # per pair: M[t, s] = (x_i - x_{S_t}) / (x_{S_s} - x_{S_t}), 1 at t = s, multiplied
    # down its rows; every x_i - x_{S_t} is 1 at the projective i = n
    f = codes[0].field
    x = np.array([code.evaluation_encodings() for code in codes], dtype=np.intp)
    n, k = x.shape[1], pairs.shape[1] - 1
    diff = np.ones((len(codes), n, n + 1), dtype=np.intp)
    diff[:, :, :n] = f.add_table[x[:, None, :], f.neg_table[x][:, :, None]]
    S = pairs[:, :k]
    M = f.mul_table[diff[:, S, pairs[:, k:]][..., None], f.inv_table[diff[:, S[:, :, None], S[:, None, :]]]]
    M[:, :, np.arange(k), np.arange(k)] = 1
    T = M[:, :, 0]
    for t in range(1, k):
        T = f.mul_table[T, M[:, :, t]]
    return T.astype(np.uint16)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49])
def test_tail_tensor_matches_the_per_pair_reference(q):
    # the tensor summed in discrete logs, its denominators once per S, equals the per-pair
    # k x k build entry for entry, on every pair and on runs that start and end inside an S;
    # codes are at most 13 long, as in the benchmark's queries, so from q = 16 on l >= q - 12
    rng = random.Random(q)
    f = field_of_order(q)
    for _ in range(6):
        l = rng.randrange(max(1, q - 12), q - 2)
        slab = [GprsCode(f, rng.sample(range(q), l), k) for k in [rng.randrange(2, q - l)] for _ in range(3)]
        grs = GrsCode(f, rng.sample(range(q), q - l), slab[0].k - 1)
        for codes in (slab, [grs]):
            x = np.array([code.evaluation_encodings() for code in codes])
            pairs = _subsets(codes[0].length, codes[0].k + 1, 0, math.comb(codes[0].length, codes[0].k + 1))
            assert (_tail_tensor(f, x, pairs) == _tail_tensor_reference(codes, pairs)).all()
            for a, b in sorted(rng.sample(range(len(pairs) + 1), 2) for _ in range(4)):
                assert (_tail_tensor(f, x, pairs[a:b]) == _tail_tensor_reference(codes, pairs[a:b])).all()


def _every_grs_code(q):
    f = field_of_order(q)
    for n in range(2, q + 1):
        for pts in combinations(range(q), n):
            for k in range(1, n):
                yield GrsCode(f, pts, k)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_frame_tables_match_the_per_code_builds_on_every_code(q):
    # on every GPRS and GRS code over F_q, stacked per (length, k): the minor table and the
    # tail tensor gathered from the frame equal the ones built from the code alone
    by_shape = {}
    for code in [*_every_code(q), *_every_grs_code(q)]:
        by_shape.setdefault((type(code), code.length, code.k), []).append(code)
    assert any(k == 1 for _, _, k in by_shape)
    for (_, length, k), codes in by_shape.items():
        f = codes[0].field
        minors, tails = codes_module._frame_minors(f, k), codes_module._frame_tails(f, k)
        assert minors is not None and tails is not None
        built = np.concatenate([d for _, d in column_minors(f, _generator_stack(codes), k)], axis=1)
        tables, index = codes_module._minor_tables(codes)
        assert (tables[index] == built).all(), (length, k)
        pairs = _subset_index(length, k + 1)
        x = np.array([code.evaluation_encodings() for code in codes])
        gathered = codes_module._gather(tails, codes_module._columns(codes), pairs)
        assert (gathered == _tail_tensor(f, x, pairs)).all(), (length, k)


@pytest.mark.parametrize("two_runs", [300_000, 1_300_000])
def test_agreement_cached_tensor_scored_in_runs(monkeypatch, two_runs):
    # the whole tensor fits a run of half of ``two_runs``, but scoring all 3125 words
    # in one batch takes its 10 pairs in runs of 1, or of 5 and 5
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", two_runs // 2)
    code = GprsCode(field(5), [4], 2)
    _assert_kernel_matches_loop(code, [code.word(w) for w in product(range(5), repeat=5)])


def _recorded_runs(monkeypatch):
    """Log the length of each run that ``matrix.subset_runs`` hands any batched scan, the
    references' included, one list per scan, and each ``_tail_tensor`` build as (codes, pairs)."""
    scans, builds, runs, tensor = [], [], matrix_module.subset_runs, codes_module._tail_tensor

    def subset_runs(*args):
        scans.append([])
        for a, run in runs(*args):
            scans[-1].append(len(run))
            yield a, run

    for module in (matrix_module, codes_module, references):
        monkeypatch.setattr(module, "subset_runs", subset_runs)
    monkeypatch.setattr(codes_module, "_tail_tensor",
                        lambda f, x, p: builds.append((len(x), len(p))) or tensor(f, x, p))
    return scans, builds


def test_agreement_slab_that_fits_scores_in_one_run(monkeypatch):
    # C(7, 4) = 35 pairs: one word of one code builds the GF(7), k = 3 frame tensor once,
    # on its C(8, 4) = 70 pairs, and scores in one run at the default cap; a walk of two
    # codes then gathers from that frame, builds nothing, and scores in one run
    monkeypatch.setattr(matrix_module, "_indexes", {})
    scans, builds = _recorded_runs(monkeypatch)
    code = GprsCode(field(7), [0], 3)
    word = code.word([1, 2, 3, 4, 5, 6, 1])
    assert code.error_distance(word, method="agreement") == code.error_distance(word)
    assert (scans, builds) == ([[35]], [(1, 70)])
    scans.clear()
    builds.clear()
    slab = [code, GprsCode(field(7), [6], 3)]
    words = [[_kernel_words(c, random.Random(7))[0].encs] for c in slab]
    expected = [[_loop_agreement_distance(c, w) for w in row] for c, row in zip(slab, words)]
    assert _slab_agreement(slab, words) == expected
    assert (scans, builds) == ([[35]], [])


def test_agreement_builds_each_groups_distinct_codes_once_a_run(monkeypatch):
    # no frame tensor under a cap of 17500 bytes (GF(7), k = 3 needs C(8, 4) * 72 * 4 = 20160),
    # so each code builds its own rows. A row of the walker takes (24 + 32) * 4 = 224 bytes, so
    # the walk of [A, B, A, A, B] is one group of 5 rows and 2 distinct codes, whose pairs take
    # (48 + 24 * 2 + 32 * 5) * 4 = 1024 bytes each: runs of 17, 17 and 1 of the 35 pairs, each
    # building both codes once. Under a cap of 2 * 224 = 448 bytes a group is 2 rows, scored as
    # [A, B], [A, A], [B], and a pair takes (48 + 24 + 32) * 4 = 416 bytes or more, so each
    # group takes 35 runs of one pair, each building the group's distinct codes only.
    a, b = GprsCode(field(7), [0], 3), GprsCode(field(7), [6], 3)
    built, tensor = [], codes_module._tail_tensor
    monkeypatch.setattr(codes_module, "_tail_tensor", lambda f, x, p: built.append(x.tolist()) or tensor(f, x, p))
    slab = [a, b, a, a, b]
    rng = random.Random(17)
    words = [[w.encs] for code in slab for w in _kernel_words(code, rng, count=1)[:1]]
    expected = [[_loop_agreement_distance(c, w) for w in row] for c, row in zip(slab, words)]
    x_a, x_b = list(a.evaluation_encodings()), list(b.evaluation_encodings())
    for cap, builds in ((17500, [[x_a, x_b]] * 3), (448, [[x_a, x_b]] * 35 + [[x_a]] * 35 + [[x_b]] * 35)):
        monkeypatch.setattr(matrix_module, "_RUN_BYTES", cap)
        assert codes_module._frame_tails(a.field, 3) is None
        built.clear()
        assert _slab_agreement(slab, words) == expected
        assert built == builds


def _base_words(codes, a):
    return codes_module._base_words(codes[0].field, codes[0].k, np.array([c._d_encs for c in codes]), a)


def _family_slabs(q):
    """Every code over F_q with each base word, x^k (a = -1) and (x - a)^(q-2) per excluded a,
    as (codes, a, bases) per slab of one (length, k)."""
    by_shape = {}
    for code in _every_code(q):
        for a in (-1, *(e.encoding for e in code.excluded)):
            by_shape.setdefault((code.length, code.k), []).append((code, a))
    for rows in by_shape.values():
        codes, a = [code for code, _ in rows], np.array([a for _, a in rows])
        yield codes, a, _base_words(codes, a)


@pytest.mark.parametrize("framed", [True, False])
@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_family_verdicts_are_the_per_code_verdicts_of_every_base_word(monkeypatch, q, framed):
    # on every code and base word: the frame route's gathers, or with no frame table the
    # per-code route, give the base word the distance of ``_reference_distance`` and the first
    # zero of ``mds_extension_zeros``; a word lam * base + codeword is inside its
    # family and the same word with one coordinate moved is outside, as ``_syndrome`` decides
    if not framed:
        monkeypatch.setattr(codes_module, "_family_frame", lambda f, k: None)
    rng = random.Random(q)
    for codes, a, bases in _family_slabs(q):
        f, n = codes[0].field, codes[0].length
        kinds = ["deg_k" if e < 0 else "shifted_qminus2" for e in a.tolist()]
        assert bases.tolist() == [_family_bases([code], kind, [e])[0].tolist()
                                  for code, kind, e in zip(codes, kinds, a.tolist())]
        lams = [[rng.randrange(1, q)] * 2 for _ in codes]
        tails = [[[rng.randrange(q) for _ in range(codes[0].k)]] * 2 for _ in codes]
        words = family_words(codes, bases, lams, tails)
        moved = rng.randrange(n)
        words[:, 1, moved] = f.add_table[words[:, 1, moved], rng.randrange(1, q)]
        mds = np.arange(len(codes)) % 3 > 0
        inside, dist, zeros, _ = family_verdicts(codes, a, bases, words, lams, mds)
        assert dist.tolist() == [_reference_distance(code, base) for code, base in zip(codes, bases.tolist())]
        scan = mds_extension_zeros([c for c, m in zip(codes, mds) if m], bases[mds, None])[:, 0]
        assert zeros.tolist() == scan.tolist()
        assert inside[:, 0].all() and not inside[:, 1].any()
        for code, base, row, lam in zip(codes, bases.tolist(), words.tolist(), lams):
            scaled = [f.mul_enc(lam[0], s) for s in code._syndrome(base)]
            assert [code._syndrome(w) == scaled for w in row] == [True, False]


def test_family_verdicts_rank_each_part_of_a_group_by_its_own_codes(monkeypatch):
    # GF(7), length 6, k = 3: every code with each of its base words, 63 rows of 21 codes, 3 rows
    # a code. Under a 25,000-byte run the family table still builds, and the walker's rows go a
    # part of 25000 // (64 * C(6, 4)) = 26 at a time, rows 0-25, 26-51 and 52-62, each part
    # ranking only the distinct codes its rows use, once: codes 0-8, 8-17 and 17-20. The
    # syndrome pairs take their tail rows from those ranks. Every check is as in one part
    codes, a, bases = next(slab for slab in _family_slabs(7) if (slab[0][0].length, slab[0][0].k) == (6, 3))
    lams = np.ones((len(codes), 3), dtype=np.intp)
    words = family_words(codes, bases, lams, np.zeros((len(codes), 3, 3), dtype=np.intp))
    mds = np.arange(len(codes)) % 2 == 0
    whole = family_verdicts(codes, a, bases, words, lams, mds)
    ranked, real = [], codes_module._ranks
    monkeypatch.setattr(codes_module, "_ranks", lambda binom, points, subsets: ranked.append(len(points))
                        or real(binom, points, subsets))
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", 25000)
    parts = family_verdicts(codes, a, bases, words, lams, mds)
    assert len(codes) == 63 and ranked == [9, 10, 4]
    assert all(p.tolist() == w.tolist() for p, w in zip(parts[:3], whole[:3])) and parts[3] == whole[3]


@pytest.mark.parametrize("q", [5, 7, 8])
def test_per_code_family_bits_in_short_runs_give_the_framed_verdicts(monkeypatch, q):
    # every code and base word, in slabs of one (length, k): with no family table and runs of a
    # few subsets, the per-code family bits carry each S's hits across runs, offset each zero
    # and witness by its run's rank and stop bit 2 once every mds row has a zero, and so give
    # the framed verdicts and witnesses
    rng = random.Random(q)
    slabs = []
    for codes, a, bases in _family_slabs(q):
        lams = [[rng.randrange(1, q)] for _ in codes]
        words = family_words(codes, bases, lams, [[[rng.randrange(q) for _ in range(codes[0].k)]] for _ in codes])
        mds = np.arange(len(codes)) % 3 > 0
        slabs.append(((codes, a, bases, words, lams, mds), family_verdicts(codes, a, bases, words, lams, mds)))
    monkeypatch.setattr(codes_module, "_family_frame", lambda f, k: None)
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", 20000)
    for args, framed in slabs:
        inside, dist, zeros, witnesses = family_verdicts(*args)
        assert (inside.tolist(), dist.tolist(), zeros.tolist(), witnesses) == (
            framed[0].tolist(), framed[1].tolist(), framed[2].tolist(), framed[3])


def test_per_code_family_bits_score_any_word_across_runs(monkeypatch):
    # a base word meets a codeword at most once per S (its only hits are projective), so only
    # other words test the per-code sums of bit 1 across runs: with no family table and runs of
    # a few subsets, words at every distance from GF(7) codes, given as base words, get the
    # distances of the per-subset interpolation loop and the first zeros of the reference scan
    rng = random.Random(7)
    monkeypatch.setattr(codes_module, "_family_frame", lambda f, k: None)
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", 20000)
    for codes, a, _ in _family_slabs(7):
        f, length, k = codes[0].field, codes[0].length, codes[0].k
        words = np.array([code.word_from_poly(Polynomial(f, [rng.randrange(7) for _ in range(k)])).encs
                          for code in codes])
        for row in words:
            for i in rng.sample(range(length), rng.randrange(length - k + 1)):
                row[i] = f.add_enc(int(row[i]), rng.randrange(1, 7))
        lams, mds = np.ones((len(codes), 1), dtype=np.intp), np.ones(len(codes), dtype=bool)
        _, dist, zeros, _ = family_verdicts(codes, a, words, words[:, None], lams, mds)
        assert dist.tolist() == [_loop_agreement_distance(code, w) for code, w in zip(codes, words.tolist())]
        assert zeros.tolist() == mds_extension_zeros(codes, words[:, None])[:, 0].tolist()


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_batched_syndromes_are_the_scalar_syndromes(q):
    # on every GPRS and GRS code, stacked per (length, k), random words: the syndrome pairs'
    # tail rows gathered from the frame or built per code give ``_syndrome``
    rng = random.Random(q)
    by_shape = {}
    for code in [*_every_code(q), *_every_grs_code(q)]:
        by_shape.setdefault((type(code), code.length, code.k), []).append(code)
    for (_, length, k), codes in by_shape.items():
        f, n = codes[0].field, codes[0].n
        words = np.array([[[rng.randrange(q) for _ in range(length)] for _ in range(3)] for _ in codes])
        pairs = np.column_stack([np.tile(np.arange(k), (length - k, 1)), np.arange(k, length)])
        points = codes_module._columns(codes)
        expected = [[code._syndrome(w) for w in row] for code, row in zip(codes, words.tolist())]
        for T in (codes_module._gather(codes_module._frame_tails(f, k), points, pairs),
                  _tail_tensor(f, points[:, :n], pairs)):
            assert codes_module._syndromes(f, k, words, T).tolist() == expected, (length, k)


def test_a_code_caches_nothing():
    # every route reads a code's generator and points afresh, so no call leaves state on it
    for code in (GprsCode(field(7), [0], 3), GrsCode(field(7), range(6), 3)):
        word = code.word([1, 2, 3, 4, 5, 6, 1][: code.length])
        before = dict(vars(code))
        code._generator_rows()
        code.error_distance(word)
        code.error_distance(word, method="agreement")
        minimum_distances([code, code])
        mds_checks([code])
        mds_extension_zeros([code], [[word.encs]])
        codes_module._walk([code, code], [word.encs] * 2)
        assert vars(code) == before


def test_one_small_run_cap_splits_every_batched_scan(monkeypatch):
    # the run walker, the MDS-extension verdicts and the all-minors check, on a slab of two
    # GF(4) codes and every word of F_4^4, give the results of the default cap in runs of a
    # few subsets under a 300-byte cap
    slab = [GprsCode(field(2, 2), [e], 2) for e in (0, 1)]
    words = [list(product(range(4), repeat=4))] * 2

    def scan():
        return (_slab_agreement(slab, words), mds_extension_zeros(slab, words).tolist(),
                [mds_generator_check(code.generator, 2) for code in slab])

    expected = scan()
    assert {r < 0 for row in expected[1] for r in row} == {True, False}
    scans, _ = _recorded_runs(monkeypatch)
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", 300)
    assert scan() == expected
    counts = [len(runs) for runs in scans]
    # per (code, word) row a walker group, as a row takes (24 + 32) * 3 = 168 bytes, 2 * 256 of
    # them; the MDS-extension zeros' minor tables and their one group of both codes, as a
    # k-minor table takes 48 bytes; per code a generator
    assert len(counts) == 2 * 256 + 4 and min(counts) > 1


def test_agreement_memory_stays_under_the_cap():
    # GF(23), n = 22, k = 11: the whole tail tensor is C(23, 12) * 11 uint16, about 30 MB
    code = GprsCode(field_of_order(23), [0], 11)
    cap = 8 * 2**20
    assert math.comb(23, 12) * 11 * 2 > 3 * cap
    codeword = code.word_from_poly(Polynomial(code.field, range(1, 12)))
    changed = list(codeword.encs)
    changed[4] = (changed[4] + 1) % 23
    near = code.word(changed)
    tracemalloc.start()
    try:
        distances = _agreement(code, [codeword]), _agreement(code, [near])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distances == ([0], [1])
    assert peak < cap


def _shifted_rows(code, rows):
    """``rows`` rows of the shifted family at a_j = 0 on one code, (codes, a, bases, words, lams):
    row r's one sampled word has scale 1 + r % (q - 1) and nu = r % q."""
    f, codes = code.field, [code] * rows
    a = np.zeros(rows, dtype=np.intp)
    lams = 1 + np.arange(rows)[:, None] % (f.q - 1)
    tails = np.zeros((rows, 1, code.k), dtype=np.intp)
    tails[:, 0, -1] = np.arange(rows) % f.q
    bases = _base_words(codes, a)
    return codes, a, bases, family_words(codes, bases, lams, tails), lams


def test_mds_extension_zeros_memory_stays_under_the_cap():
    # GF(17), n = 16, k = 8, past the family table: the cofactors of every 9-subset would be
    # C(17, 9) * 9 * 24 bytes, about 5 MB, past one run. ``family_verdicts`` builds bit 2 per
    # code, a run of subsets at a time, on two rows of the shifted family at a_j = 0, whose
    # words are deep holes (thm17), so every subset is scanned
    code = GprsCode(field_of_order(17), [0], 8)
    assert math.comb(17, 9) * 9 * 24 > matrix_module._RUN_BYTES
    assert codes_module._family_frame(code.field, 8) is None
    rows = _shifted_rows(code, 2)
    tracemalloc.start()
    try:
        _, dist, zeros, _ = family_verdicts(*rows, np.ones(2, dtype=bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zeros.tolist() == [-1, -1] and (dist == code.covering_radius()).all()
    assert peak < 3 * matrix_module._RUN_BYTES


def test_mds_extension_zeros_of_rows_on_one_code_fit_one_run():
    # GF(13), k = 7, past the frame tables: 150 rows of one code keep one k-minor table in the
    # per-code bit 2 of ``family_verdicts``. A copy per row, 150 * C(13, 7) * 8 bytes, would
    # take about half a run by itself, and with the scan's temporaries pass one
    f, k, rows = field_of_order(13), 7, 150
    code = GprsCode(f, [0], k)
    assert codes_module._family_frame(f, k) is None
    codes, a, bases, words, lams = _shifted_rows(code, rows)
    mds = np.ones(rows, dtype=bool)
    family_verdicts(codes[:1], a[:1], bases[:1], words[:1], lams[:1], mds[:1])
    tracemalloc.start()
    try:
        _, _, zeros, _ = family_verdicts(codes, a, bases, words, lams, mds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (zeros == -1).all()  # thm17: every shifted word at a_j = 0 is a deep hole
    assert peak < matrix_module._RUN_BYTES, peak


def test_agreement_budget_counts_pairs_before_building():
    # the agreement route prices a call at C(length, k+1) pairs: C(n, k+1) on D
    # and C(n, k) at the projective coordinate
    code = GprsCode(field(7), [0], 3)  # n = 6, length 7
    word = code.word([1, 2, 3, 4, 5, 6, 0])
    pairs = math.comb(6, 4) + math.comb(6, 3)
    assert pairs == math.comb(7, 4) == 35
    refused = "^C\\(length, k\\+1\\) = 35 agreement pairs exceed budget 34$"
    with pytest.raises(BudgetExceededError, match=refused):
        code.error_distance(word, method="agreement", budget=34)
    assert code.error_distance(word, method="agreement", budget=35) == code.error_distance(word)
    grs = GrsCode(field(7), range(6), 3)
    with pytest.raises(BudgetExceededError):
        grs.error_distance(grs.word([0] * 6), method="agreement", budget=math.comb(6, 4) - 1)
    assert grs.error_distance(grs.word([0] * 6), method="agreement", budget=math.comb(6, 4)) == 0


def test_refused_agreement_call_builds_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("built after the budget refused the call")

    for name in ("_subsets", "_subset_index", "subset_runs"):
        monkeypatch.setattr(matrix_module, name, refuse)
    for name in ("subset_runs", "_tail_tensor"):
        monkeypatch.setattr(codes_module, name, refuse)
    code = GprsCode(field_of_order(29), [0], 14)
    shapes = list(matrix_module._indexes)
    with pytest.raises(BudgetExceededError, match="77558760"):
        code.error_distance(code.word([1] * 29), method="agreement", budget=10)
    assert list(matrix_module._indexes) == shapes


@pytest.mark.parametrize("q, k, cap", [(7, 3, None), (13, 8, None), (7, 3, 17500)])
def test_agreement_route_builds_only_bit_1(monkeypatch, q, k, cap):
    # ``error_distance(method="agreement")`` walks bit 1 alone: it reads no family table and
    # builds no k-minor table, cofactor, syndrome or criterion. Shapes: GF(7), k = 3 gathers the
    # frame tail tensor; GF(13), k = 8 is past the family table, as its k-minor frame passes one
    # run; GF(7), k = 3 under 17,500 bytes has no frame tail tensor (it needs 20,160), so its
    # tail rows are built. Each on a GPRS code and a GRS code, with a codeword among the words
    f = field_of_order(q)
    if cap is not None:
        monkeypatch.setattr(matrix_module, "_RUN_BYTES", cap)
    assert (codes_module._frame_tails(f, k) is None) == (cap is not None)
    assert (codes_module._family_frame(f, k) is None) == (q == 13 or cap is not None)

    def refuse(*args):
        raise AssertionError("the agreement route built more than bit 1")

    for name in ("_family_frame", "_minor_tables", "det_stack", "_cofactors", "_syndromes", "_criteria"):
        monkeypatch.setattr(codes_module, name, refuse)
    rng = random.Random(q * k)
    for code in (GprsCode(f, [0], k), GrsCode(f, range(1, q), k)):
        words = [[rng.randrange(q) for _ in range(code.length)] for _ in range(2)]
        words.append(list(code.word_from_poly(Polynomial(f, [rng.randrange(q) for _ in range(k)])).encs))
        assert [code.error_distance(code.word(w), method="agreement") for w in words] == [
            _loop_agreement_distance(code, w) for w in words], code
        assert _loop_agreement_distance(code, words[-1]) == 0


@pytest.mark.parametrize("q", [25, 27, 49, 81])
def test_criteria_match_the_scalar_witness_definitions(q):
    # ``_criteria`` in discrete logs against the scalar expressions of thm14 and thm15
    # (``_thm14_test``, ``_thm15_test``) on random k-subsets of F_q, some of them solved to be
    # zeros of the criterion and some holding a, where thm15's product has a zero factor and
    # ``_criteria`` must say False
    rng, f = random.Random(q), field_of_order(q)
    k = rng.choice([k for k in range(2, q - 2) if lucas_binom(q - 2, k - 1, f.p)])
    a = np.array([-1] + rng.sample(range(1, q), 4))
    S, expected = np.empty((len(a), 300, k), dtype=np.intp), np.empty((len(a), 300), dtype=bool)
    for r, a_r in enumerate(a.tolist()):
        code = GprsCode(f, [max(a_r, 0)], k)
        value = (_thm14_test(code) if a_r < 0 else _thm15_test(code, a_r)).value
        for c in range(300):
            subset = rng.sample(range(q), k)
            head = subset[:-1]
            if c % 3 == 0 and a_r >= 0 and a_r not in subset:  # hold a
                subset[rng.randrange(k)] = a_r
            elif c % 3 == 1 and a_r < 0:  # solve the last point for a zero of the sum
                last = f.neg_enc(value(head + [0]))
                subset = head + [last] if last not in head else subset
            elif c % 3 == 1 and a_r not in head:  # or of the product, by its last factor
                rest = f.sub_enc(value(head + [f.add_enc(a_r, 1)]), 1)
                last = f.add_enc(a_r, f.div_enc(f.neg_enc(1), rest))
                subset = head + [last] if last not in head else subset
            S[r, c], expected[r, c] = subset, value(tuple(subset)) == 0
    assert expected[0].any() and expected[1:].any() and (S[1:] == a[1:, None, None]).any(axis=2).any()
    assert (codes_module._criteria(f, k, S, a) == expected).all()


def test_criteria_never_get_a_row_whose_constant_is_zero(monkeypatch):
    # thm15's criterion at a is C(q-2, k-1) * a^(q-1-k) * prod_{y in S} (y - a) + 1 = 0, which
    # never holds where the constant is 0: at a = 0, thm17's rows, or where p | k. ``_criteria``
    # gets no such row, in the family table's build or past it, and those rows have no witness;
    # a thm14 row (a = -1) of the same code still reaches it, with the same witness both ways
    calls, criteria = [], codes_module._criteria

    def spy(f, k, S, a):
        assert 0 not in a.tolist() and (k % f.p or (a < 0).all()), (f.q, k, a.tolist())
        calls.append(len(a))
        return criteria(f, k, S, a)

    monkeypatch.setattr(codes_module, "_criteria", spy)
    for q, excluded, k, a_j in ((7, [0], 3, 0), (9, [2], 3, 2)):  # thm17, and thm15 with p | k
        code = GprsCode(field_of_order(q), excluded, k)
        codes, a = [code, code], np.array([a_j, -1])
        bases = _base_words(codes, a)
        args = codes, a, bases, bases[:, None], np.ones((2, 1), dtype=np.intp), np.zeros(2, dtype=bool)
        found = []
        for framed in (True, False):
            with monkeypatch.context() as patched:
                patched.setattr(matrix_module, "_indexes", {})  # the family table is built afresh
                if not framed:
                    patched.setattr(codes_module, "_family_frame", lambda f, k: None)
                calls.clear()
                found.append(family_verdicts(*args)[3])
                assert calls and found[-1][0] == (), (q, framed)
        assert found[0] == found[1] and found[0][1] == (thm14_criterion(code).witness or ())


def _tail_walk(length, k):
    # the pairs S + (i,) of every k-subset S and each later coordinate i, and
    # where each S's pairs start, by an itertools walk
    pairs, starts = [], []
    for S in combinations(range(length), k):
        if S[-1] < length - 1:
            starts.append(len(pairs))
        pairs += [S + (i,) for i in range(S[-1] + 1, length)]
    return pairs, starts


def test_tail_pair_index_matches_a_combinations_walk():
    for length in range(2, 15):
        for k in range(1, length):
            pairs = _subset_index(length, k + 1)
            walk, starts = _tail_walk(length, k)
            assert pairs.tolist() == [list(p) for p in walk], (length, k)
            assert _tail_starts(pairs).tolist() == starts, (length, k)
            # runs of any size, built from the cached index or unranked on their own,
            # start each S's pairs in place and open with the pair they start at
            for step in (1, 4, 13) if length < 10 else (13, 64):
                for a in range(0, len(walk), step):
                    b = min(a + step, len(walk))
                    run = _subsets(length, k + 1, a, b)
                    assert run.tolist() == pairs[a:b].tolist(), (length, k, a)
                    assert _tail_starts(run).tolist() == sorted({0} | {p - a for p in starts if a <= p < b})


def test_subset_indexes_holds_a_sweep_pass_within_its_bound(monkeypatch):
    # every (length, k) shape of a sampled GF(11) deep-hole pass stays cached, so a
    # second pass builds no index; and the cache never holds more than its bound
    matrix_module._indexes.clear()
    config = SweepConfig(claims=("thm14", "thm15"), q_list=(11,), max_exclusion_sets_per_q=8,
                         words_per_config=1)
    run_sweep(config)
    shapes = set(matrix_module._indexes)
    assert len(shapes) >= 35
    # the frame family tables share the cache and its bound, one per k
    f = field_of_order(11)
    assert {key for key in shapes if key[0] == "family"} == {("family", f, k) for k in range(2, 10)}
    assert sum(a.nbytes for entry in matrix_module._indexes.values() for a in entry) <= matrix_module._INDEX_BYTES
    built = []
    real = matrix_module._subsets
    monkeypatch.setattr(matrix_module, "_subsets", lambda *a: built.append(a) or real(*a))
    run_sweep(config)
    assert built == [] and set(matrix_module._indexes) == shapes
    for N in range(14, 24):
        for m in range(2, N - 1):
            if math.comb(N, m) * m * 8 <= matrix_module._INDEX_BYTES:
                _subset_index(N, m)
            held = sum(a.nbytes for entry in matrix_module._indexes.values() for a in entry)
            assert held <= matrix_module._INDEX_BYTES
    # the least recently used shapes went first, the last one stays
    assert (23, 21) in matrix_module._indexes and (14, 2) not in matrix_module._indexes


def test_frame_family_tables_build_within_one_run_and_never_past_it(monkeypatch):
    # GF(13), every k: with the tail tensor and k-minor table in the cache, the family table
    # builds one base word at a time within one run. It comes only with its minor table (none
    # at k = 7..9, whose minor tables pass one run)
    monkeypatch.setattr(matrix_module, "_indexes", {})
    f = field_of_order(13)
    for k in range(2, 12):
        tails, minors = codes_module._frame_tails(f, k), codes_module._frame_minors(f, k)
        tracemalloc.start()
        try:
            table = codes_module._family_frame(f, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tails is not None and (table is None) == (minors is None) == (7 <= k <= 9), k
        if table is not None:
            assert table[0].shape == (14, math.comb(14, k + 1)) and table[0].dtype == np.uint8
        assert peak < matrix_module._RUN_BYTES, k
    # GF(23), k = 11: no tail tensor and no minor table, so no family table, and nothing built
    monkeypatch.setattr(matrix_module, "_indexes", {})

    def refuse(*args):
        raise AssertionError("built past one run")

    for name in ("_tail_tensor", "det_stack"):
        monkeypatch.setattr(codes_module, name, refuse)
    monkeypatch.setattr(matrix_module, "_subsets", refuse)
    assert codes_module._family_frame(field_of_order(23), 11) is None
    assert matrix_module._indexes == {}


def test_frame_criteria_build_within_one_run_and_never_past_it(monkeypatch):
    # GF(13), every k, from an empty shape cache: the criteria, bit 4 of the family table, build
    # with the tail tensor and minor table they wait on within one run, and lie only on the
    # projective columns. At k = 7..9 there is no table, so no criteria to gather. GF(23),
    # k = 11: they would pass one run, so they are None and no subset is built
    f = field_of_order(13)
    for k in range(2, 12):
        monkeypatch.setattr(matrix_module, "_indexes", {})
        tracemalloc.start()
        try:
            table = codes_module._family_frame(f, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (table is None) == (7 <= k <= 9), k
        if table is not None:
            projective = _subset_index(14, k + 1)[:, k] == 13
            criteria = (table[0] & 4) > 0
            assert criteria.any() and not criteria[:, ~projective].any(), k
        assert peak < matrix_module._RUN_BYTES, k
    monkeypatch.setattr(matrix_module, "_indexes", {})

    def refuse(*args):
        raise AssertionError("built past one run")

    monkeypatch.setattr(matrix_module, "_subsets", refuse)
    assert codes_module._family_frame(field_of_order(23), 11) is None
    assert matrix_module._indexes == {}


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_every_family_table_column_keeps_the_identities_of_its_bits(monkeypatch, q):
    # every column T of the family table at every k a code takes, rows as ``_frame_bases``
    # (row 1 + a of the shifted base word at a, row 0 of x^k, which no a constrains):
    # (i) bit 1 (hits) equals bit 2 (zeros) wherever T avoids a, Dür's equivalence one subset
    # at a time; (ii) no finite T that avoids a hits; (iii) on the projective T = S + (q,) that
    # avoid a, bit 1 equals bit 4 (the criterion), and bit 4 is never set off them. For odd q,
    # bit 4 is the scalar criterion at S on a code whose D holds S: F_q minus a for row 1 + a,
    # F_q minus the least point outside S for row 0. So a wrong build of any one bit fails. The
    # run is raised so that GF(13) builds its tables at k = 7..9 too
    monkeypatch.setattr(matrix_module, "_indexes", {})
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", 1 << 24)
    f, tests, columns = field_of_order(q), {}, 0
    for k in range(2, q - 1):
        table, _ = codes_module._family_frame(f, k)
        subsets = _subset_index(q + 1, k + 1)
        projective = subsets[:, k] == q
        for row, bits in enumerate(table):
            a = row - 1
            avoids = (subsets != a).all(axis=1)
            hits, zeros, criterion = ((bits & bit) > 0 for bit in (1, 2, 4))
            assert (hits == zeros)[avoids].all(), (k, row)
            assert not hits[avoids & ~projective].any(), (k, row)
            assert (hits == criterion)[avoids & projective].all(), (k, row)
            assert not criterion[~projective].any(), (k, row)
            columns += len(subsets)
            if q % 2 == 0:
                continue
            for S, bit in zip(map(tuple, subsets[projective, :k].tolist()), criterion[projective].tolist()):
                if a in S:
                    assert not bit, (k, row, S)
                    continue
                e = a if a >= 0 else min(set(range(q)) - set(S))
                if (k, a, e) not in tests:
                    code = GprsCode(f, [e], k)
                    tests[k, a, e] = _thm14_test(code) if a < 0 else _thm15_test(code, e)
                test = tests[k, a, e]
                assert (test.value is not None and test.value(S) == 0) == bit, (k, row, S)
    assert columns == sum((q + 1) * math.comb(q + 1, k + 1) for k in range(2, q - 1))


@pytest.mark.parametrize("k", range(2, 12))
def test_family_verdicts_hold_a_group_of_rows_within_one_run(k):
    # GF(13), 300 rows of 20 words on one code, every other row with the MDS scan: the rows
    # go a group at a time, and a call on the frame tables peaks within one run (they are
    # built first, as they stay in the shape cache). At k = 7..9 there is no family table:
    # the per-code family bits run a run of subsets at a time, and the rows of one code share
    # its minor table (``test_mds_extension_zeros_of_rows_on_one_code_fit_one_run``)
    f, rng, rows = field_of_order(13), np.random.default_rng(k), 300
    codes, a = [GprsCode(f, [0], k)] * rows, np.zeros(rows, dtype=np.intp)
    bases, mds = _base_words(codes, a), np.arange(rows) % 2 == 0
    lams = rng.integers(1, 13, (rows, 20))
    words = family_words(codes, bases, lams, rng.integers(0, 13, (rows, 20, k)))
    words[:, 1, 0] = f.add_table[words[:, 1, 0], 1]
    family_verdicts(codes[:1], a[:1], bases[:1], words[:1], lams[:1], mds[:1])
    tracemalloc.start()
    try:
        inside, dist, zeros, _ = family_verdicts(codes, a, bases, words, lams, mds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inside[:, 0].all() and not inside[:, 1].any()
    assert (dist == 13 - k).all() and (zeros == -1).all()  # thm17: every base word is a deep hole
    assert peak < matrix_module._RUN_BYTES, peak


def _frame_keys():
    return {key for key in matrix_module._indexes if key[0] in ("minors", "tails")}


def test_second_sweep_pass_builds_no_frame_table(monkeypatch):
    # a sampled GF(11) deep-hole pass builds each frame table once and nothing per code;
    # a second pass gathers every table from the shape cache and builds none
    matrix_module._indexes.clear()
    builds = []
    for name in ("_tail_tensor", "det_stack"):
        real = getattr(codes_module, name)
        monkeypatch.setattr(codes_module, name, lambda *a, real=real: builds.append(a) or real(*a))
    config = SweepConfig(claims=("thm14", "thm15"), q_list=(11,), max_exclusion_sets_per_q=8,
                         words_per_config=1)
    run_sweep(config)
    f = field_of_order(11)
    frames = {("minors", f, k) for k in range(2, 10)} | {("tails", f, k) for k in range(2, 10)}
    assert _frame_keys() == frames and len(builds) == len(frames)
    builds.clear()
    run_sweep(config)
    assert builds == [] and _frame_keys() == frames


def test_second_lemma25_sweep_eliminates_no_minors(monkeypatch):
    # with the shape cache warm, lemma25 reads every code's k-minors from the frame tables,
    # so a second GF(7) sweep makes no det_stack call
    config = SweepConfig(claims=("lemma25",), q_list=(7,))
    run_sweep(config)
    calls = []
    for module in (matrix_module, codes_module):
        real = module.det_stack
        monkeypatch.setattr(module, "det_stack", lambda *a, real=real: calls.append(a) or real(*a))
    rep = run_sweep(config)
    assert calls == [] and rep.summary["agreed"] == rep.summary["total"] > 0


def test_shape_cache_holds_indexes_and_frames_within_its_bound(monkeypatch):
    # subset indexes and frame tables of many fields share the one bound; the least
    # recently used go first and the last one stays
    monkeypatch.setattr(matrix_module, "_indexes", {})
    last = None
    for q in (7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        f = field_of_order(q)
        for k in range(1, q - 1):
            if codes_module._frame_minors(f, k) is not None:
                last = ("minors", f, k)
            if codes_module._frame_tails(f, k) is not None:
                last = ("tails", f, k)
            if math.comb(q, k) * k * 8 <= matrix_module._INDEX_BYTES:
                _subset_index(q, k)
                last = (q, k)
            held = sum(a.nbytes for entry in matrix_module._indexes.values() for a in entry)
            assert held <= matrix_module._INDEX_BYTES
    assert ("tails", field_of_order(7), 2) not in matrix_module._indexes
    assert list(matrix_module._indexes)[-1] == last


def test_frame_route_is_chosen_by_the_size_of_its_build(monkeypatch):
    # GF(7), k = 3: the frame tensor is C(8, 4) = 70 pairs of 72 * 4 bytes and the frame
    # minors C(8, 3) = 56 subsets of 32 * 9 bytes; one byte less than its build and a
    # table is built per code. GF(23), k = 11 never builds a frame, and is decided
    # before anything is built.
    monkeypatch.setattr(matrix_module, "_indexes", {})
    f = field(7)
    for cap, route in ((70 * 72 * 4, True), (70 * 72 * 4 - 1, False)):
        monkeypatch.setattr(matrix_module, "_RUN_BYTES", cap)
        assert (codes_module._frame_tails(f, 3) is not None) == route
    for cap, route in ((56 * 32 * 9, True), (56 * 32 * 9 - 1, False)):
        monkeypatch.setattr(matrix_module, "_RUN_BYTES", cap)
        assert (codes_module._frame_minors(f, 3) is not None) == route
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("built a frame past one run")

    for name in ("_tail_tensor", "det_stack"):
        monkeypatch.setattr(codes_module, name, refuse)
    monkeypatch.setattr(matrix_module, "_subsets", refuse)
    shapes = list(matrix_module._indexes)
    f = field_of_order(23)
    assert codes_module._frame_tails(f, 11) is None and codes_module._frame_minors(f, 11) is None
    assert list(matrix_module._indexes) == shapes


def test_agreement_distance_profile_on_every_code():
    # per code, a word at each distance 0..rho built as a codeword plus an error of
    # weight t, and both family words: the tail kernel, enumeration and the
    # per-subset loop agree on each
    rng = random.Random(13)
    for q in (5, 7):
        for code in _every_code(q):
            f, rho = code.field, code.covering_radius("formula")
            words = []
            for t in range(rho + 1):
                cw = code.word_from_poly(Polynomial(f, [rng.randrange(q) for _ in range(code.k)]))
                encs = list(cw.encs)
                for pos in rng.sample(range(code.length), t):
                    encs[pos] = f.add_enc(encs[pos], rng.randrange(1, q))
                words.append(code.word(encs))
            words += _kernel_words(code, rng, count=0)[2:]
            kernel = _agreement(code, words)
            assert kernel == [code.error_distance(w) for w in words], code.spec_string()
            assert kernel == [_loop_agreement_distance(code, w.encs) for w in words]
            assert kernel[0] == 0 and max(kernel) <= rho
    # GRS codes whose k-subsets ending at the last point have no tail: k = 1 and k = n - 1
    for q in (5, 7):
        f = field_of_order(q)
        for points in (range(q), sorted(rng.sample(range(q), q - 1))):
            for k in (1, len(points) - 1):
                code = GrsCode(f, points, k)
                words = [code.word([rng.randrange(q) for _ in points]) for _ in range(12)]
                words.append(code.word_from_poly(Polynomial(f, [rng.randrange(q) for _ in range(k)])))
                kernel = _agreement(code, words)
                assert kernel == [code.error_distance(w) for w in words], (q, k)
                assert kernel == [_loop_agreement_distance(code, w.encs) for w in words]
                assert kernel[-1] == 0


# -- is_codeword ----------------------------------------------------------------------


def test_is_codeword_cases():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    cw = code.encode(Polynomial.from_encodings(f, [1, 2]))
    assert code.is_codeword(cw)
    assert not code.is_codeword(code.word_from_poly(x_squared(f)))
    tampered = list(cw.encs)
    tampered[-1] = (tampered[-1] + 1) % 5
    assert not code.is_codeword(code.word(tampered))


# -- minimum distance and covering radius ----------------------------------------------


def _digit_codeword_matrix(code):
    # the q^k codewords in message-index order, built digit by digit: digit i
    # of the index times generator row i, added one row at a time
    f = code.field
    q, k = f.q, code.k
    count = q**k
    msgs = np.arange(count, dtype=np.int64)
    gen = np.array(code._generator_rows(), dtype=np.int64)
    cw = np.zeros((count, code.length), dtype=np.uint16)
    for i in range(k):
        cw = f.add_table[cw, f.mul_table[(msgs % q)[:, None], gen[i][None, :]]]
        msgs //= q
    return cw.astype(np.int16)


PINNED_MESSAGES = 10**4  # q^k of the digit-by-digit reference


def _assert_spans_match_reference(code):
    ref = _digit_codeword_matrix(code)
    cw = code._codeword_matrix()
    assert cw.dtype == np.int16 and np.array_equal(cw, ref), code.spec_string()
    if isinstance(code, GprsCode):
        weights = (ref != 0).sum(axis=1)
        assert code.minimum_distance("bruteforce") == weights[1:].min(), code.spec_string()


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_codeword_spans_match_digit_reference_on_every_code(q):
    codes = [code for code in _every_code(q) if q**code.k <= PINNED_MESSAGES]
    assert codes
    for code in codes:
        _assert_spans_match_reference(code)


def test_codeword_spans_match_digit_reference_grs():
    rng = random.Random(25)
    for q in (5, 7, 9):
        f = field_of_order(q)
        for n in (3, q - 1, q):
            for k in range(1, n):
                if q**k <= PINNED_MESSAGES:
                    _assert_spans_match_reference(GrsCode(f, rng.sample(range(q), n), k))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codeword_spans_property(data):
    q = data.draw(st.sampled_from([5, 7, 8, 9, 11]))
    l = data.draw(st.integers(1, q - 3))
    kmax = max(k for k in range(2, q - l) if q**k <= PINNED_MESSAGES)
    k = data.draw(st.integers(2, kmax))
    excl = data.draw(st.lists(st.integers(0, q - 1), min_size=l, max_size=l, unique=True))
    _assert_spans_match_reference(GprsCode(field_of_order(q), excl, k))


@pytest.mark.parametrize("i", [0, 1, 2])
def test_minimum_distance_scans_every_level(monkeypatch, i):
    # a generator whose one weight-1 codeword has its top nonzero message
    # coefficient at row i; every other nonzero codeword weighs at least 2
    code = GprsCode(field(5), [0], 3)
    rows = [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4], [0, 1, 4, 4, 1]]
    rows[i] = [0, 0, 0, 0, 1]
    monkeypatch.setattr(codes_module, "_generator_stack", lambda codes: np.array([rows] * len(codes)))
    assert (_digit_codeword_matrix(code) != 0).sum(axis=1)[1:].min() == 1
    assert code.minimum_distance("bruteforce") == 1


def test_projective_minimum_distance_work_and_memory():
    # GF(8), l = 1, k = 6: the q^k x length uint16 matrix alone would be 4 MiB
    code = GprsCode(field(2, 3), [0], 6)
    assert 8**6 * code.length * 2 == 4 * 2**20
    tracemalloc.start()
    try:
        d = code.minimum_distance("bruteforce")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 3
    assert peak < 2 * 2**20
    assert GprsCode(field(3, 2), [0], 7).minimum_distance("bruteforce", budget=10**7) == 3


def test_minimum_distance_examples():
    assert GprsCode(field(5), [3, 4], 2).minimum_distance() == 3
    assert GprsCode(field(7), [0], 2).minimum_distance() == 6
    assert GprsCode(field(5), [3, 4], 2).minimum_distance("bruteforce") == 3


def test_minimum_distance_modes_agree_exhaustive_f5():
    f = field(5)
    for l in (1, 2):
        for excl in combinations(range(5), l):
            for k in range(2, 5 - l):
                code = GprsCode(f, excl, k)
                assert code.minimum_distance("formula") == code.minimum_distance(
                    "bruteforce"
                )
                assert mds_generator_check(code.generator, k).is_mds


def test_every_generator_is_mds_and_formula_matches_bruteforce_q_le_9():
    # all valid (excluded, k) over q in {4, 5, 7, 9}; brute force wherever
    # q^k stays at most 10^4
    for q in (4, 5, 7, 9):
        f = field_of_order(q)
        for l in range(1, q - 2):
            for excl in combinations(range(q), l):
                for k in range(2, q - l):
                    code = GprsCode(f, excl, k)
                    assert mds_generator_check(code.generator, k).is_mds
                    if q**k <= 10**4:
                        assert code.minimum_distance("formula") == code.minimum_distance(
                            "bruteforce"
                        )


def _minimum_distance_reference(code):
    # the per-code span walk: span_(i+1) = span_i + F_q * row_i as rows in message-index
    # order, one code at a time, and the least weight of row_i + span_i over i
    f = code.field
    rows = np.array(code._generator_rows())
    scalars = np.arange(f.q)[:, None, None]
    spans = [np.zeros((1, code.length), dtype=np.uint16)]
    for row in rows[:-1]:
        spans.append(f.add_table[f.mul_table[scalars, row], spans[-1]].reshape(-1, code.length))
    return min(int((span != neg).sum(axis=1).min()) for span, neg in zip(spans, f.neg_table[rows]))


def _grid_slabs(q, messages=None):
    # every code over F_q, with q^k at most ``messages`` if given, one list per (l, k)
    slabs = {}
    for code in _every_code(q):
        if messages is None or q**code.k <= messages:
            slabs.setdefault((code.l, code.k), []).append(code)
    return slabs


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_slab_minimum_distances_match_the_per_code_walk(monkeypatch, q):
    # on every slab of codes with q^k <= 10^4: the per-code walk, the least nonzero weight of
    # the codeword matrix, and the slab walk in groups of several codes, then of one code
    slabs = list(_grid_slabs(q, PINNED_MESSAGES).values())
    expected = []
    for slab in slabs:
        expected.append([_minimum_distance_reference(code) for code in slab])
        weights = [int((code._codeword_matrix() != 0).sum(axis=1)[1:].min()) for code in slab]
        assert expected[-1] == weights
    groups, spans = [], codes_module._spans
    monkeypatch.setattr(codes_module, "_spans", lambda f, rows: groups.append(len(rows)) or spans(f, rows))
    assert [minimum_distances(slab) for slab in slabs] == expected
    assert max(groups) > 1
    groups.clear()
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", 1)
    assert [minimum_distances(slab) for slab in slabs] == expected
    assert set(groups) == {1}


def test_slab_minimum_distance_memory_stays_within_one_code_and_one_run():
    # GF(9), l = 1, k = 6: span_5 holds 9^5 codewords of length 9. Per codeword the walk holds
    # its uint16 entries and compare mask (3 bytes a coordinate) and an int64 weight, so one
    # code's walk is 9^5 * (3 * 9 + 8) = 2,066,715 bytes and a group of 2 codes fits one
    # run. A group never passes one run unless it is a single code, so the peak stays within
    # one code's walk plus a run, and a margin for the tables and reduction buffers; the
    # nine spans at once would pass that bound on their own.
    slab = [GprsCode(field(3, 2), [e], 6) for e in range(9)]
    walk = 9**5 * (3 * 9 + 8)
    assert walk == 2_066_715 and matrix_module._RUN_BYTES // walk == 2
    bound = walk + matrix_module._RUN_BYTES + 256 * 1024
    assert 9 * 9**5 * 9 * 2 > bound
    tracemalloc.start()
    try:
        distances = minimum_distances(slab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distances == [9 - 1 - 6 + 2] * 9
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_slab_mds_checks_match_the_per_code_scan(monkeypatch, q):
    # on every slab of the grid, by the frame minor tables and, under a run cap below every
    # frame build, by the per-code minors of each slab's distinct codes
    f, slabs = field_of_order(q), _grid_slabs(q)
    expected = {shape: [mds_generator_check(code.generator, code.k) for code in slab]
                for shape, slab in slabs.items()}
    for cap, framed in ((matrix_module._RUN_BYTES, True), (1024, False)):
        monkeypatch.setattr(matrix_module, "_RUN_BYTES", cap)
        assert {codes_module._frame_minors(f, k) is not None for _, k in slabs} == {framed}
        assert {shape: mds_checks(slab) for shape, slab in slabs.items()} == expected


def test_a_zero_planted_in_the_frame_minors_refutes_lemma25(monkeypatch):
    # GF(5), k = 2: zero the frame minor at frame points (1, 2). Every k = 2 code whose D
    # holds both points is refuted, its witness the columns of those points; no other row is
    monkeypatch.setattr(matrix_module, "_indexes", {})
    f = field(5)
    table, binom = codes_module._frame_minors(f, 2)
    planted = table.copy()
    planted[_subset_index(6, 2).tolist().index([1, 2])] = 0
    matrix_module._indexes[("minors", f, 2)] = (planted, binom)
    rep = run_sweep(SweepConfig(claims=("lemma25",), q_list=(5,)))
    refuted = {}
    for row in rep.rows:
        D = [e for e in range(5) if str(e) not in row.excluded.split(",")]
        if row.k == "2" and {1, 2} <= set(D):
            refuted[row.excluded] = f"cols:{D.index(1)},{D.index(2)}"
    assert len(refuted) == 6 and rep.summary["refuted"] == 6
    for row in rep.rows:
        if row.excluded in refuted and row.k == "2":
            assert (row.status, row.witness) == ("refuted", refuted[row.excluded])
            assert row.detail == "generator failed the MDS minor scan"
            assert row.oracle == row.predicted
        else:
            assert (row.status, row.witness) == ("agreed", "")


def _bruteforce_covering_radius(code):
    # largest exact distance over all q^length ambient words, each against
    # every codeword: q^length * q^k comparisons, for small codes only
    q, length = code.field.q, code.length
    count_words = q**length
    cw = _digit_codeword_matrix(code)
    idx = np.arange(count_words, dtype=np.int64)
    words = np.empty((count_words, length), dtype=np.int16)
    for i in range(length):
        words[:, i] = idx % q
        idx //= q
    dmin = np.full(count_words, length + 1, dtype=np.int16)
    for row in cw:
        np.minimum(dmin, (words != row).sum(axis=1).astype(np.int16), out=dmin)
    return int(dmin.max())


PINNED_COVERING_WORK = 10**6  # q^(length+k) of the brute-force reference


def _pinned_shapes(q):
    # every (l, k) whose brute force fits the cap
    return [
        (l, k)
        for l in range(1, q - 2)
        for k in range(2, q - l)
        if q ** (q - l + 1 + k) <= PINNED_COVERING_WORK
    ]


def _pinned_covering_codes(q, sets_per_l=12):
    # exclusion sets exhaustive for q <= 5, seeded samples above
    f = field_of_order(q)
    for l, k in _pinned_shapes(q):
        sets = list(combinations(range(q), l))
        if q > 5 and len(sets) > sets_per_l:
            sets = random.Random(f"covering/{q}/{l}").sample(sets, sets_per_l)
        for excl in sets:
            yield GprsCode(f, excl, k)


def test_covering_radius_examples():
    assert GprsCode(field(5), [3, 4], 2).covering_radius() == 2
    assert GprsCode(field(7), [0], 2).covering_radius() == 5
    assert GprsCode(field(5), [3, 4], 2).covering_radius("syndrome") == 2
    assert _bruteforce_covering_radius(GprsCode(field(5), [3, 4], 2)) == 2


def test_covering_radius_modes_agree_spot():
    for excl, k in [((4,), 2), ((4,), 3), ((0, 4), 2)]:
        code = GprsCode(field(5), excl, k)
        brute = _bruteforce_covering_radius(code)
        assert code.covering_radius("formula") == code.covering_radius("syndrome") == brute


def test_covering_radius_bruteforce_on_extension_field():
    f = field(3, 2)
    for excl, k in [((3, 4, 5, 6, 7, 8), 2), ((0, 1, 2, 7, 8), 2), ((0, 1, 2, 7, 8), 3)]:
        code = GprsCode(f, excl, k)
        brute = _bruteforce_covering_radius(code)
        assert code.covering_radius("formula") == code.covering_radius("syndrome") == brute


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_syndrome_bfs_matches_bruteforce(q):
    codes = list(_pinned_covering_codes(q))
    assert codes
    for code in codes:
        assert code.covering_radius("syndrome") == _bruteforce_covering_radius(code), (
            code.spec_string()
        )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_syndrome_bfs_property(data):
    q = data.draw(st.sampled_from([4, 5, 7, 8, 9]))
    l, k = data.draw(st.sampled_from(_pinned_shapes(q)))
    excl = data.draw(st.lists(st.integers(0, q - 1), min_size=l, max_size=l, unique=True))
    code = GprsCode(field_of_order(q), excl, k)
    syndrome = code.covering_radius("syndrome")
    assert syndrome == _bruteforce_covering_radius(code) == code.covering_radius("formula")


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_parity_columns_annihilate_generator(q):
    # H = [-A^T | I] must satisfy G H^T = 0 for the generator rows 1, x, ..., x^(k-1)
    f = field_of_order(q)
    for code in _pinned_covering_codes(q):
        cols = _with_identity(code._parity_columns())
        for g in code._generator_rows():
            for t in range(code.length - code.k):
                acc = 0
                for gj, col in zip(g, cols):
                    acc = f.add_enc(acc, f.mul_enc(gj, col[t]))
                assert acc == 0, code.spec_string()


def _syndrome_bfs_depth_reference(f, columns):
    # the BFS one generator c * column at a time: a syndrome is sum_t s_t q^t, and adding
    # g moves digit t from d to add(d, g_t), shifting the integer by step[t, d, g_t]
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


def _with_identity(dense):
    # the columns of H = [B | I] for the columns B of length r
    r = len(dense[0])
    return dense + [[int(t == u) for u in range(r)] for t in range(r)]


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_syndrome_bfs_matches_the_per_generator_reference(q):
    f = field_of_order(q)
    for code in _pinned_covering_codes(q):
        dense = code._parity_columns()
        assert codes_module._syndrome_bfs_depth(f, dense) == _syndrome_bfs_depth_reference(
            f, _with_identity(dense)
        ), code.spec_string()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_syndrome_bfs_matches_the_reference_on_any_columns(data):
    # any B: parallel and zero columns among dense ones
    q = data.draw(st.sampled_from([4, 5, 9]))
    f, r = field_of_order(q), data.draw(st.integers(1, 3))
    column = st.lists(st.integers(0, q - 1), min_size=r, max_size=r)
    dense = data.draw(st.lists(column, min_size=1, max_size=6))
    if data.draw(st.booleans()):
        c = data.draw(st.integers(1, q - 1))
        dense += [[0] * r, [f.mul_enc(c, x) for x in dense[0]]]
    depth = codes_module._syndrome_bfs_depth(f, dense)
    assert depth == _syndrome_bfs_depth_reference(f, _with_identity(dense))


def test_syndrome_bfs_matches_the_reference_when_a_level_spans_several_runs(monkeypatch):
    # a run of b frontier states is capped at 8 * b * (q - 1) * (k + r) bytes
    cases = [(field_of_order(q), GprsCode(field_of_order(q), range(l), 2)._parity_columns())
             for q, l in ((5, 1), (7, 2), (8, 3), (9, 4))]
    cases.append((field_of_order(4), [[1, 0, 0], [0, 0, 0], [1, 1, 0], [2, 3, 1], [0, 0, 1]]))
    expected = [_syndrome_bfs_depth_reference(f, _with_identity(dense)) for f, dense in cases]
    for states in (1, 2, 7):
        for (f, dense), depth in zip(cases, expected):
            columns = len(dense) + len(dense[0])
            monkeypatch.setattr(matrix_module, "_RUN_BYTES", 8 * states * (f.q - 1) * columns)
            assert codes_module._syndrome_bfs_depth(f, dense) == depth


def test_syndrome_bfs_memory_stays_within_one_run_and_the_state_masks():
    # GF(8), l = 2, k = 2: r = 5, q^r = 32768 syndromes, 7 * 7 = 49 generators. A run of b
    # states holds its digits (8 r b bytes) and, while the k(q-1) = 14 multiples of the dense
    # columns step it, their sums and one gathered shift (2 * 8 b * 14); r + 2 * 14 <= 49, so a
    # run's temporaries fit the 8 * 49 * b = _RUN_BYTES it is cut to. Per state: the seen and
    # reached masks, the negated mask, and 8 bytes of frontier (the frontiers of two levels are
    # disjoint). Tables stay under 64 KiB.
    code = GprsCode(field(2, 3), [0, 1], 2)
    dense = code._parity_columns()
    q, r = code.field.q, code.length - code.k
    assert (q - 1) * (len(dense) + r) == 49 and r + 2 * code.k * (q - 1) <= 49
    bound = matrix_module._RUN_BYTES + 11 * q**r + 64 * 1024
    tracemalloc.start()
    try:
        depth = codes_module._syndrome_bfs_depth(code.field, dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert depth == code.covering_radius("formula") == 5
    assert peak <= bound, (peak, bound)


def _hamming_columns(f, r):
    # one nonzero column per projective point of F_q^r: leading entry 1
    cols = []
    for v in product(range(f.q), repeat=r):
        lead = next((x for x in v if x), 0)
        if lead == 1:
            cols.append(list(v))
    return cols


@pytest.mark.parametrize(
    "p,s,columns,depth",
    [
        (2, 1, _hamming_columns(field(2), 3), 1),  # binary Hamming [7, 4]
        (3, 1, _hamming_columns(field(3), 2), 1),  # ternary Hamming [4, 2]
        (2, 2, _hamming_columns(field(2, 2), 2), 1),  # Hamming [5, 3] over GF(4)
        (2, 1, [[1, 1, 1, 1]] + [[int(t == u) for u in range(4)] for t in range(4)], 2),
        (3, 1, [[1, 1, 1]] + [[int(t == u) for u in range(3)] for t in range(3)], 2),
    ],
)
def test_syndrome_bfs_depth_below_redundancy(p, s, columns, depth):
    # the BFS on codes whose covering radius is below the redundancy r: Hamming
    # codes (radius 1) and repetition codes [r + 1, 1]
    assert codes_module._syndrome_bfs_depth(field(p, s), columns) == depth


@pytest.mark.parametrize(
    "p,columns,depth",
    [
        # r = 1: the one level runs
        (5, [[3]], 1),
        # depth exactly r - 1 = 2: the ternary repetition code [4, 1]
        (3, [[1, 1, 1]], 2),
        # a state unseen after r - 1 levels: stopped there at depth r
        (5, [[0, 0]], 2),
        (7, [[1, 1, 0]], 3),
        # every state seen before r - 1 levels: the binary Hamming code [7, 4], r = 3
        (2, [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], 1),
    ],
)
def test_syndrome_bfs_stops_at_the_redundancy_bound_with_the_reference_outcome(p, columns, depth):
    f = field(p)
    assert _syndrome_bfs_depth_reference(f, _with_identity(columns)) == depth
    assert codes_module._syndrome_bfs_depth(f, columns) == depth


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_syndrome_bfs_steps_unit_columns_like_the_reference(data):
    # H = [B | I]: a unit column of B repeats a support of I, and B also holds zero, dense and
    # parallel columns; at the default run, and at runs of 1 and 7 states
    q = data.draw(st.sampled_from([4, 5, 7]))
    f, r = field_of_order(q), data.draw(st.integers(1, 4))
    digit, scalar = st.integers(0, r - 1), st.integers(1, q - 1)
    unit = st.builds(lambda t, c: [c * (u == t) for u in range(r)], digit, scalar)
    column = st.lists(st.integers(0, q - 1), min_size=r, max_size=r)
    dense = data.draw(st.lists(st.one_of(unit, column, st.just([0] * r)), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        c = data.draw(scalar)
        dense.append([f.mul_enc(c, x) for x in data.draw(st.sampled_from(dense))])
    depth = _syndrome_bfs_depth_reference(f, _with_identity(dense))
    assert codes_module._syndrome_bfs_depth(f, dense) == depth
    for states in (1, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix_module, "_RUN_BYTES", 8 * states * (q - 1) * (len(dense) + r))
            assert codes_module._syndrome_bfs_depth(f, dense) == depth


def test_covering_radius_budget():
    code = GprsCode(field(7), [0], 2)
    work = 7 ** (7 - 2) * 7 * 6  # q^(length-k) states x length * (q-1) generators
    with pytest.raises(BudgetExceededError, match=f"^{work} syndrome BFS steps"):
        code.covering_radius("syndrome", budget=work - 1)
    assert code.covering_radius("syndrome", budget=work) == 5
    with pytest.raises(ValueError):
        code.covering_radius("bogus")
    with pytest.raises(ValueError):
        code.covering_radius("bruteforce")


# -- translation and scaling invariance --------------------------------------------------


def test_translation_by_codeword_preserves_distance():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    rng = random.Random(21)
    for _ in range(25):
        u = code.word([rng.randrange(5) for _ in range(4)])
        u0 = code.encode(Polynomial.from_encodings(f, [rng.randrange(5), rng.randrange(5)]))
        assert code.error_distance(u) == code.error_distance(u + u0)


def test_scaling_plus_low_order_preserves_distance():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    rng = random.Random(22)
    for _ in range(25):
        v = Polynomial.from_encodings(f, [rng.randrange(5) for _ in range(4)])
        lam = f.element(rng.randrange(1, 5))
        low = Polynomial.from_encodings(f, [rng.randrange(5)])  # degree <= k-2 = 0
        u = v * lam + low
        assert code.error_distance(code.word_from_poly(u)) == code.error_distance(
            code.word_from_poly(v)
        )


# -- GRS ---------------------------------------------------------------------------------


def test_grs_construction_and_errors():
    f = field(5)
    code = GrsCode(f, [0, 1, 2, 3], 2)
    assert code.length == 4
    with pytest.raises(ValueError):
        GrsCode(f, [0, 1], 2)  # k < n required
    with pytest.raises(ValueError):
        GrsCode(f, [0, 0, 1], 1)


def test_grs_distance_example():
    f = field(5)
    code = GrsCode(f, [0, 1, 2, 3], 2)
    w = code.word_from_poly(x_squared(f))
    assert code.error_distance(w) == 2
    assert code.error_distance(w, method="agreement") == 2
    cw = code.encode(Polynomial.from_encodings(f, [1, 3]))
    assert code.error_distance(cw) == 0


def test_grs_liwan_bounds_random():
    f = field(7)
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(3, 8)
        pts = rng.sample(range(7), n)
        k = rng.randrange(1, n)
        code = GrsCode(f, pts, k)
        w = code.word([rng.randrange(7) for _ in range(n)])
        if code.is_codeword(w):
            continue
        d = code.error_distance(w)
        deg = code.interpolant(w).degree
        assert n - deg <= d <= n - k
