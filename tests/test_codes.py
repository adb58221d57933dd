import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gprs.codes as codes_module
from gprs.codes import (
    BudgetExceededError,
    GprsCode,
    GrsCode,
    hamming_distance,
)
from gprs.galois import field, field_of_order
from gprs.matrix import mds_generator_check
from gprs.polynomial import Polynomial


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
    top = code.encode(Polynomial.x_power(f, 1))
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
        code.word_from_poly(Polynomial.x_power(f, 4))  # degree q-1 is ambiguous
    code.word_from_poly(Polynomial.x_power(f, 3))


def test_low_degree_poly_gives_codeword():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    rng = random.Random(0)
    for _ in range(20):
        u = Polynomial.from_encodings(f, [rng.randrange(5) for _ in range(2)])
        assert code.is_codeword(code.word_from_poly(u))


# -- hamming distance ---------------------------------------------------------------


def test_hamming_examples():
    code = GprsCode(field(5), [3, 4], 2)
    u = code.word([3, 0, 2, 2])
    assert hamming_distance(u, u) == 0
    assert hamming_distance(u, code.word([0, 0, 2, 2])) == 1
    assert hamming_distance(u, code.word([4, 1, 3, 3])) == 4


def test_hamming_rejects_mismatched_codes():
    u = GprsCode(field(5), [3, 4], 2).word([0, 0, 0, 0])
    v = GprsCode(field(5), [0, 4], 2).word([0, 0, 0, 0])
    with pytest.raises(ValueError):
        hamming_distance(u, v)


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
    assert hamming_distance(u, v) == 0
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


def _bruteforce_covering_radius(code):
    # largest exact distance over all q^length ambient words, each against
    # every codeword: q^length * q^k comparisons, for small codes only
    q, length = code.field.q, code.length
    count_words = q**length
    cw = code._codeword_matrix()
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
        cols = code._parity_columns()
        for g in code._generator_rows():
            for t in range(code.length - code.k):
                acc = 0
                for gj, col in zip(g, cols):
                    acc = f.add_enc(acc, f.mul_enc(gj, col[t]))
                assert acc == 0, code.spec_string()


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


def test_syndrome_bfs_rejects_columns_that_do_not_span():
    with pytest.raises(ValueError, match="do not span"):
        codes_module._syndrome_bfs_depth(field(5), [[1, 0], [2, 0]])


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
