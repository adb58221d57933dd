import math
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gprs.deepholes as deepholes
import gprs.matrix as matrix_module
from gprs.codes import BudgetExceededError, GprsCode, _generator_stack
from gprs.matrix import _subset_index
from gprs.deepholes import (
    DeepHoleVerdict,
    HypothesisError,
    WordFamilySpec,
    _family_bases,
    binom_mod_p,
    build_family_word,
    family_words,
    is_deep_hole_mds_extension,
    is_deep_hole_oracle,
    mds_extension_verdicts,
    thm14_criterion,
    thm15_criterion,
    validate_verdict,
    vp_binomial,
    word_in_degree_k_family,
    word_in_shifted_family,
    zero_sum_subset,
)
from gprs.galois import field, field_of_order
from gprs.polynomial import Polynomial, _eval_enc, _shifted_power_enc, expand_shifted_power


def x_squared(f):
    return Polynomial.from_encodings(f, [0, 0, 1])


# -- oracle ---------------------------------------------------------------------


def test_oracle_examples():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    v = is_deep_hole_oracle(code, code.word_from_poly(x_squared(f)))
    assert v.is_deep_hole and v.distance == 2
    code2 = GprsCode(f, [0, 4], 2)
    v2 = is_deep_hole_oracle(code2, code2.word_from_poly(x_squared(f)))
    assert not v2.is_deep_hole and v2.distance == 1


def test_oracle_on_codeword_reports_distance_zero():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    cw = code.encode(Polynomial.from_encodings(f, [1, 2]))
    v = is_deep_hole_oracle(code, cw)
    assert not v.is_deep_hole and v.distance == 0


def test_oracle_enumerate_budget():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    w = code.word_from_poly(x_squared(f))
    with pytest.raises(BudgetExceededError):
        is_deep_hole_oracle(code, w, method="enumerate", budget=3)
    v = is_deep_hole_oracle(code, w, method="enumerate", budget=25)
    assert v.is_deep_hole


# -- MDS extension ----------------------------------------------------------------


def test_mds_extension_examples():
    f = field(5)
    code = GprsCode(f, [0, 4], 2)
    v = is_deep_hole_mds_extension(code, code.word([1, 4, 4, 0]))
    assert not v.is_deep_hole
    assert v.witness == (1, 2, 3)  # columns for D-points 2, 3 and the last column
    code2 = GprsCode(f, [3, 4], 2)
    v2 = is_deep_hole_mds_extension(code2, code2.word([0, 1, 4, 0]))
    assert v2.is_deep_hole and v2.witness is None


def test_mds_extension_on_codeword_is_negative():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    cw = code.encode(Polynomial.from_encodings(f, [0, 1]))
    v = is_deep_hole_mds_extension(code, cw)
    assert not v.is_deep_hole
    assert v.witness is not None
    assert validate_verdict(code, v, word=cw)


# -- thm14 criterion -----------------------------------------------------------------


def test_thm14_examples():
    f = field(5)
    assert thm14_criterion(GprsCode(f, [3, 4], 2)).is_deep_hole
    v = thm14_criterion(GprsCode(f, [0, 4], 2))
    assert not v.is_deep_hole
    assert v.witness == (2, 3)


def test_thm14_hypothesis_errors():
    f = field(5)
    with pytest.raises(HypothesisError):
        thm14_criterion(GprsCode(f, [4], 3))  # k = 3 > q - 3 = 2
    f8 = field(2, 3)
    with pytest.raises(HypothesisError):
        thm14_criterion(GprsCode(f8, [0], 2))  # even characteristic


def test_thm14_witness_revalidates():
    v = thm14_criterion(GprsCode(field(5), [0, 4], 2))
    code = GprsCode(field(5), [0, 4], 2)
    assert validate_verdict(code, v)
    fake = DeepHoleVerdict(False, "thm14", (1, 2))
    assert not validate_verdict(code, fake)
    outside = DeepHoleVerdict(False, "thm14", (0, 4))  # not a subset of D
    assert not validate_verdict(code, outside)


def test_thm14_equivalence_exhaustive_f5():
    # every admissible code over F_5 and every degree-2 word family member
    f = field(5)
    for l in (1, 2):
        for excl in combinations(range(5), l):
            code = GprsCode(f, excl, 2)
            predicted = thm14_criterion(code).is_deep_hole
            for lam in range(1, 5):
                for nu in range(5):
                    for c0 in range(5):
                        u = Polynomial.from_encodings(f, [c0, nu, lam])
                        w = code.word_from_poly(u)
                        assert is_deep_hole_oracle(code, w).is_deep_hole == predicted
                        assert (
                            is_deep_hole_mds_extension(code, w).is_deep_hole
                            == predicted
                        )


def test_thm14_equivalence_exhaustive_words_gf9():
    # extension-field check: every degree-2 word of one primitive projective code
    f = field(3, 2)
    code = GprsCode(f, [0], 2)
    predicted = thm14_criterion(code).is_deep_hole
    for lam in range(1, 9):
        for nu in range(9):
            for c0 in range(9):
                w = code.word_from_poly(Polynomial.from_encodings(f, [c0, nu, lam]))
                assert is_deep_hole_oracle(code, w).is_deep_hole == predicted
                assert is_deep_hole_mds_extension(code, w).is_deep_hole == predicted


# -- thm15 criterion -----------------------------------------------------------------


def test_thm15_witness_example():
    f = field(5)
    v = thm15_criterion(GprsCode(f, [0, 1], 2), f.element(1))
    assert not v.is_deep_hole
    assert v.witness == (2, 4)
    assert validate_verdict(GprsCode(f, [0, 1], 2), v, a_j=f.element(1))


def test_thm15_validation_requires_an_excluded_aj():
    # a_j = 1 lies in D; the criterion refuses it, and so must its validator
    f = field(7)
    code = GprsCode(f, [0], 2)
    v = DeepHoleVerdict(False, "thm15", (2, 5))
    for a_j in (1, f.element(1)):
        with pytest.raises(ValueError, match="a_j must be one of the code's excluded points"):
            validate_verdict(code, v, a_j=a_j)
        with pytest.raises(ValueError, match="a_j must be one of the code's excluded points"):
            thm15_criterion(code, a_j)


def _paper_codes(q):
    f = field_of_order(q)
    for l in (1, 2):
        for excl in combinations(range(q), l):
            for k in range(2, q - l):
                yield f, GprsCode(f, excl, k)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_witness_definitions_match_the_paper(q):
    # reference side in FieldElement arithmetic only: thm14 asks for a k-subset
    # I of D with sum(I) = 0, thm15 for one with
    # C(q-2, k-1) * (-a_j)^(q-1-k) * prod_{y in I}(a_j - y) + 1 = 0
    for f, code in _paper_codes(q):
        subsets = list(combinations(code.D, code.k))
        first14 = None
        for subset in subsets:
            total = f.zero
            for y in subset:
                total = total + y
            witness = tuple(y.encoding for y in subset)
            got = validate_verdict(code, DeepHoleVerdict(False, "thm14", witness))
            assert got == total.is_zero
            if got and first14 is None:
                first14 = witness
        if code.k <= q - 3:
            assert thm14_criterion(code).witness == first14
        binom = binom_mod_p(q - 2, code.k - 1, f)
        for a_j in code.excluded:
            first15 = None
            head = binom * (-a_j) ** (q - 1 - code.k)
            for subset in subsets:
                value = head
                for y in subset:
                    value = value * (a_j - y)
                value = value + f.one
                witness = tuple(y.encoding for y in subset)
                verdict = DeepHoleVerdict(False, "thm15", witness)
                got = validate_verdict(code, verdict, a_j=a_j)
                assert got == value.is_zero
                if got and first15 is None:
                    first15 = witness
            v = thm15_criterion(code, a_j)
            assert v.witness == first15
            assert v.is_deep_hole == (first15 is None)


def test_thm15_p_divides_k_fast_path():
    f9 = field(3, 2)
    code = GprsCode(f9, [0], 3)
    assert thm15_criterion(code, 0).is_deep_hole
    code2 = GprsCode(f9, [0, 1], 6)
    assert thm15_criterion(code2, 1).is_deep_hole


def test_thm15_aj_zero_always_positive():
    for q in (5, 7, 9):
        f = field_of_order(q)
        for k in range(2, q - 1):
            code = GprsCode(f, [0], k)
            assert thm15_criterion(code, f.zero).is_deep_hole


def test_thm15_errors():
    f = field(5)
    code = GprsCode(f, [0, 1], 2)
    with pytest.raises(ValueError):
        thm15_criterion(code, f.element(3))  # not excluded
    f8 = field(2, 3)
    with pytest.raises(HypothesisError):
        thm15_criterion(GprsCode(f8, [0], 2), 0)


def test_thm15_equivalence_exhaustive_words_gf9():
    f = field(3, 2)
    code = GprsCode(f, [0, 1], 2)
    a = f.element(1)
    predicted = thm15_criterion(code, a).is_deep_hole
    for lam in range(1, 9):
        for nu in range(9):
            for c0 in range(9):
                low = Polynomial.from_encodings(f, [c0])
                w = build_family_word(
                    code,
                    WordFamilySpec("shifted_qminus2", f.element(lam), f.element(nu), a, low),
                )
                assert is_deep_hole_oracle(code, w).is_deep_hole == predicted


def test_criteria_are_representation_independent():
    # same field under a different reduction modulus: verdicts must agree
    # with the oracle all the same
    from gprs.galois import FiniteField

    f = FiniteField(3, 2, (2, 2, 1))
    rng = random.Random(17)
    for excl, k in [((0,), 2), ((0, 1), 3), ((2, 5), 4), ((1, 3, 7), 2)]:
        code = GprsCode(f, excl, k)
        if k <= 6:
            v14 = thm14_criterion(code)
            for _ in range(10):
                encs = [rng.randrange(9) for _ in range(k)] + [rng.randrange(1, 9)]
                w = code.word_from_poly(Polynomial.from_encodings(f, encs))
                assert is_deep_hole_oracle(code, w).is_deep_hole == v14.is_deep_hole
                assert (
                    is_deep_hole_mds_extension(code, w).is_deep_hole
                    == v14.is_deep_hole
                )
        for aj in excl:
            v15 = thm15_criterion(code, aj)
            for _ in range(6):
                spec = WordFamilySpec(
                    "shifted_qminus2",
                    f.element(rng.randrange(1, 9)),
                    f.element(rng.randrange(9)),
                    f.element(aj),
                    Polynomial.from_encodings(
                        f, [rng.randrange(9) for _ in range(k - 1)]
                    ),
                )
                w = build_family_word(code, spec)
                assert is_deep_hole_oracle(code, w).is_deep_hole == v15.is_deep_hole


def test_thm15_equivalence_exhaustive_f5():
    f = field(5)
    rng = random.Random(5)
    for l in (1, 2):
        for excl in combinations(range(5), l):
            for k in range(2, 5 - l):
                code = GprsCode(f, excl, k)
                for aj in excl:
                    a = f.element(aj)
                    predicted = thm15_criterion(code, a).is_deep_hole
                    for lam, nu in product(range(1, 5), range(5)):
                        low = Polynomial.from_encodings(
                            f, [rng.randrange(5) for _ in range(k - 1)]
                        )
                        w = build_family_word(
                            code,
                            WordFamilySpec("shifted_qminus2", f.element(lam), f.element(nu), a, low),
                        )
                        got = is_deep_hole_oracle(code, w).is_deep_hole
                        assert got == predicted


# -- word families ----------------------------------------------------------------------


def test_build_family_word_examples():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    w = build_family_word(code, WordFamilySpec("deg_k", f.one, f.zero))
    assert w.encs == (0, 1, 4, 0)
    code0 = GprsCode(f, [0], 2)
    w2 = build_family_word(
        code0, WordFamilySpec("shifted_qminus2", f.one, f.zero, a_j=f.zero)
    )
    assert w2.encs == (1, 3, 2, 4, 0)
    w3 = build_family_word(
        code0, WordFamilySpec("shifted_qminus2", f.one, f.element(2), a_j=f.zero)
    )
    assert w3.encs[-1] == (w2.encs[-1] + 2) % 5


def test_family_words_land_in_their_families():
    f = field(7)
    code = GprsCode(f, [0, 3], 3)
    rng = random.Random(73)
    for _ in range(20):
        lam = f.element(rng.randrange(1, 7))
        nu = f.element(rng.randrange(7))
        low = Polynomial.from_encodings(f, [rng.randrange(7) for _ in range(2)])
        w = build_family_word(code, WordFamilySpec("deg_k", lam, nu, low=low))
        assert word_in_degree_k_family(code, w)
        aj = f.element(rng.choice([0, 3]))
        ws = build_family_word(
            code, WordFamilySpec("shifted_qminus2", lam, nu, aj, low)
        )
        assert word_in_shifted_family(code, ws, aj)


def test_family_membership_rejects_outsiders():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    cw = code.encode(Polynomial.from_encodings(f, [1, 1]))
    assert not word_in_degree_k_family(code, cw)
    deg3 = code.word_from_poly(Polynomial.x_power(f, 3))
    assert not word_in_degree_k_family(code, deg3)
    # degree-k word with a mismatched projective coordinate
    w = code.word_from_poly(x_squared(f))
    tampered = code.word([w.encs[0], w.encs[1], w.encs[2], (w.encs[3] + 1) % 5])
    assert not word_in_degree_k_family(code, tampered)


def _shifted_family_by_scale_search(code, word, a_j):
    # reference: try every scale lam and interpolate the residual each time
    f = code.field
    base = code.word_from_poly(expand_shifted_power(f, a_j, f.q - 2))
    for lam in range(1, f.q):
        residual = [
            f.sub_enc(word.encs[i], f.mul_enc(lam, base.encs[i])) for i in range(code.n)
        ]
        h = code.interpolant(code.word(residual + [0]))
        if not h.degree <= code.k - 1:
            continue
        top = h.coefficient(code.k - 1).encoding
        if f.add_enc(f.mul_enc(lam, base.encs[-1]), top) == word.encs[-1]:
            return True
    return False


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_shifted_family_membership_matches_scale_search(q):
    f = field_of_order(q)
    rng = random.Random(q)
    seen = set()
    for _ in range(40):
        l = rng.randrange(1, q - 2)
        code = GprsCode(f, rng.sample(range(q), l), rng.randrange(2, q - l))
        a_j = rng.choice(code.excluded)
        spec = WordFamilySpec(
            "shifted_qminus2",
            f.element(rng.randrange(1, q)),
            f.element(rng.randrange(q)),
            a_j,
            Polynomial.from_encodings(f, [rng.randrange(q) for _ in range(code.k - 1)]),
        )
        member = build_family_word(code, spec)
        perturbed = list(member.encs)
        i = rng.randrange(code.length)
        perturbed[i] = f.add_enc(perturbed[i], rng.randrange(1, q))
        noise = [rng.randrange(q) for _ in range(code.length)]
        for encs in (member.encs, perturbed, noise):
            word = code.word(list(encs))
            expected = _shifted_family_by_scale_search(code, word, a_j)
            assert word_in_shifted_family(code, word, a_j) == expected
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("excluded", [[2], [0, 3]])
def test_membership_by_syndrome_matches_the_paper_on_every_word(excluded):
    # every word of every GPRS code over GF(5) with this exclusion set
    f = field(5)
    outcomes = {"codeword": set(), "deg_k": set(), "shifted": set()}
    for k in range(2, f.q - len(excluded)):
        code = GprsCode(f, excluded, k)
        for encs in product(range(f.q), repeat=code.length):
            word = code.word(encs)
            h = code.interpolant(word)
            last_ok = h.coefficient(k - 1).encoding == encs[-1]
            codeword = h.degree <= k - 1 and last_ok
            assert code.is_codeword(word) == codeword
            outcomes["codeword"].add(codeword)
            deg_k = h.degree == k and last_ok
            assert word_in_degree_k_family(code, word) == deg_k
            outcomes["deg_k"].add(deg_k)
            for a_j in excluded:
                shifted = _shifted_family_by_scale_search(code, word, a_j)
                assert word_in_shifted_family(code, word, a_j) == shifted
                outcomes["shifted"].add(shifted)
    assert all(seen == {True, False} for seen in outcomes.values())


# -- batched routes, pinned to the scalar ones -----------------------------------------


def _scalar_family_word(code, spec):
    """Reference: build_family_word before family_words. The tail polynomial
    nu*x^(k-1) + low is evaluated coordinate by coordinate, then lam * base added."""
    f = code.field
    lam, nu = f.encodings((spec.lam, spec.nu))
    low = spec.low if spec.low is not None else Polynomial.zero(f)
    base = _family_bases([code], spec.kind, [spec.a_j])[0].tolist()
    tail = code._evaluate((Polynomial.x_power(f, code.k - 1, nu) + low).coeffs)
    return code.word([f.add_enc(f.mul_enc(lam, b), c) for b, c in zip(base, tail)])


def _expanded_family_word(code, spec):
    """Reference: the word of the family polynomial itself, expanded in full."""
    f = code.field
    lam, nu = f.encodings((spec.lam, spec.nu))
    if spec.kind == "deg_k":
        head = Polynomial.x_power(f, code.k)
    else:
        head = expand_shifted_power(f, spec.a_j, f.q - 2)
    low = spec.low if spec.low is not None else Polynomial.zero(f)
    return code.word_from_poly(head * f.element(lam) + Polynomial.x_power(f, code.k - 1, nu) + low)


def _random_spec(code, rng, kind, a_j=None):
    q = code.field.q
    low = Polynomial(code.field, [rng.randrange(q) for _ in range(rng.randrange(code.k))])
    return WordFamilySpec(kind, rng.randrange(1, q), rng.randrange(q), a_j, low)


def _random_code(f, rng):
    l = rng.randrange(1, f.q - 2)
    return GprsCode(f, rng.sample(range(f.q), l), rng.randrange(2, f.q - l))


def _tail(code, spec):
    """The coefficients of x^0 .. x^(k-1) in nu*x^(k-1) + low."""
    return spec.low.coeffs + (0,) * (code.k - 1 - len(spec.low.coeffs)) + (spec.nu,)


def _assert_family_word_matches_references(code, spec):
    word = build_family_word(code, spec)
    assert word == _scalar_family_word(code, spec) == _expanded_family_word(code, spec)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11])
def test_family_words_match_scalar_and_expanded_words(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for _ in range(30):
        code = _random_code(f, rng)
        for kind, a_j in (("deg_k", None), ("shifted_qminus2", rng.choice(code.excluded))):
            specs = [_random_spec(code, rng, kind, a_j) for _ in range(4)]
            for spec in specs:
                _assert_family_word_matches_references(code, spec)
            # a batch of rows is the rows built one at a time
            tails = [_tail(code, s) for s in specs]
            rows = family_words([code], kind, [[s.lam for s in specs]], [tails], [a_j])[0].tolist()
            assert rows == [list(_scalar_family_word(code, s).encs) for s in specs]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_family_words_property(data):
    q = data.draw(st.sampled_from([5, 7, 9, 11]))
    l = data.draw(st.integers(1, q - 3))
    k = data.draw(st.integers(2, q - l - 1))
    excl = data.draw(st.lists(st.integers(0, q - 1), min_size=l, max_size=l, unique=True))
    code = GprsCode(field_of_order(q), excl, k)
    kind = data.draw(st.sampled_from(["deg_k", "shifted_qminus2"]))
    low = data.draw(st.lists(st.integers(0, q - 1), max_size=k - 1))
    spec = WordFamilySpec(
        kind,
        data.draw(st.integers(1, q - 1)),
        data.draw(st.integers(0, q - 1)),
        data.draw(st.sampled_from(excl)) if kind == "shifted_qminus2" else None,
        Polynomial(code.field, low),
    )
    _assert_family_word_matches_references(code, spec)


def _mds_words(code, rng):
    """A codeword, one word of each paper family, and three random words."""
    q = code.field.q
    words = [code.encode(Polynomial(code.field, [rng.randrange(q) for _ in range(code.k)]))]
    words.append(build_family_word(code, _random_spec(code, rng, "deg_k")))
    a_j = rng.choice(code.excluded)
    words.append(build_family_word(code, _random_spec(code, rng, "shifted_qminus2", a_j)))
    words += [code.word([rng.randrange(q) for _ in range(code.length)]) for _ in range(3)]
    return words


def _verdicts(code, words):
    # the slab of one code
    return mds_extension_verdicts([code], [[w.encs for w in words]])[0]


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_mds_extension_verdicts_match_scalar_scan(q):
    f = field_of_order(q)
    rng = random.Random(q)
    outcomes = set()
    for _ in range(40):
        code = _random_code(f, rng)
        words = _mds_words(code, rng)
        verdicts = _verdicts(code, words)
        assert verdicts == [is_deep_hole_mds_extension(code, w) for w in words]
        outcomes.update(v.is_deep_hole for v in verdicts)
    assert outcomes == {True, False}


def _counted_scalar_route(monkeypatch):
    calls = [0]
    real = deepholes.is_deep_hole_mds_extension

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(deepholes, "is_deep_hole_mds_extension", counted)
    return calls


def test_mds_extension_verdicts_fall_back_past_the_cap(monkeypatch):
    rng = random.Random(61)
    cases = [(code, _mds_words(code, rng)) for code in
             (GprsCode(field(7), [0], 3), GprsCode(field(2, 3), [1, 5], 2),
              GprsCode(field(11), [0, 5], 4))]
    expected = [[is_deep_hole_mds_extension(c, w) for w in words] for c, words in cases]
    calls = _counted_scalar_route(monkeypatch)
    assert [_verdicts(c, words) for c, words in cases] == expected
    assert calls[0] == 0
    monkeypatch.setattr(matrix_module, "_RUN_BYTES", 1)
    assert [_verdicts(c, words) for c, words in cases] == expected
    assert calls[0] == sum(len(words) for _, words in cases)


@pytest.mark.parametrize("slack", [1, 2, 8])
def test_mds_extension_verdicts_in_runs(monkeypatch, slack):
    # a cap just above the cofactor table scores the subsets in short runs
    rng = random.Random(slack)
    for q, excl, k in ((7, (0,), 3), (9, (2, 4), 4), (11, (0, 5), 2), (13, (1,), 5)):
        code = GprsCode(field_of_order(q), excl, k)
        words = _mds_words(code, rng) * 2
        expected = [is_deep_hole_mds_extension(code, w) for w in words]
        n = code.length
        monkeypatch.setattr(matrix_module, "_RUN_BYTES", slack * math.comb(n, k) * (n - k) * 24)
        calls = _counted_scalar_route(monkeypatch)
        assert _verdicts(code, words) == expected
        assert calls[0] == 0


# -- slabs: rows of codes that share the field, n and k -----------------------------------


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


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11])
def test_table_built_words_match_the_polynomial_route(q):
    # the reference evaluates x^i and the expanded (x - a)^(q-2) by Horner's rule,
    # memoised per point; every code, both kinds, every a_j
    f = field_of_order(q)
    power = {(i, y): _eval_enc(f, [0] * i + [1], y) for i in range(q) for y in range(q)}
    shifted = {a: _shifted_power_enc(f, a, q - 2) for a in range(q)}
    value = {(a, y): _eval_enc(f, shifted[a], y) for a in range(q) for y in range(q)}
    for l in range(1, q - 2):
        sets = list(combinations(range(q), l))
        for k in range(2, q - l):
            codes = [GprsCode(f, excl, k) for excl in sets]
            d_sets = [code.evaluation_encodings() for code in codes]
            assert _generator_stack(codes).tolist() == [
                [[power[i, y] for y in d] + [int(i == k - 1)] for i in range(k)] for d in d_sets
            ]
            deg_k = _family_bases(codes, "deg_k", [None] * len(codes))
            assert deg_k.tolist() == [[power[k, y] for y in d] + [0] for d in d_sets]
            rows = [(code, d, a) for code, d, excl in zip(codes, d_sets, sets) for a in excl]
            bases = _family_bases([r[0] for r in rows], "shifted_qminus2", [r[2] for r in rows])
            assert bases.tolist() == [[value[a, y] for y in d] + [shifted[a][k - 1]] for _, d, a in rows]
    code = GprsCode(f, [0], 2)
    assert code._generator_rows() == tuple(tuple(code._evaluate([0] * i + [1])) for i in range(2))


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_family_words_of_a_slab_match_scalar_words(q):
    rng = random.Random(q)
    for slab in _slabs(q, rng):
        a_js = [rng.choice(code.excluded) for code in slab]
        for kind in ("deg_k", "shifted_qminus2"):
            specs = [[_random_spec(code, rng, kind, a_j) for _ in range(3)] for code, a_j in zip(slab, a_js)]
            lams = [[s.lam for s in row] for row in specs]
            tails = [[_tail(code, s) for s in row] for code, row in zip(slab, specs)]
            assert family_words(slab, kind, lams, tails, a_js).tolist() == [
                [list(_scalar_family_word(code, s).encs) for s in row] for code, row in zip(slab, specs)
            ]


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_mds_extension_verdicts_of_a_slab_match_scalar_scan(monkeypatch, q):
    # at the default cap; with a cap of about two rows' cofactor tables, so a slab
    # goes in groups scanned in short runs; and past the cap, word by word
    rng = random.Random(q)
    outcomes, default = set(), matrix_module._RUN_BYTES
    for i, slab in enumerate(_slabs(q, rng)):
        words = [_mds_words(code, rng) for code in slab]
        expected = [[is_deep_hole_mds_extension(c, w) for w in row] for c, row in zip(slab, words)]
        encs = [[w.encs for w in row] for row in words]
        n, k = slab[0].length, slab[0].k
        table = math.comb(n, k) * (n - k) * 24
        caps = [default, 2 * table] + [1] * (i < 3)
        for cap in caps:
            monkeypatch.setattr(matrix_module, "_RUN_BYTES", cap)
            calls = _counted_scalar_route(monkeypatch)
            assert mds_extension_verdicts(slab, encs) == expected
            assert calls[0] == (len(slab) * len(words[0]) if cap == 1 else 0)
        outcomes.update(v.is_deep_hole for row in expected for v in row)
    assert outcomes == {True, False}


def _cofactor_index(length, k):
    # the dict-built index the rank-built one replaced: the (k+1)-subsets S of
    # range(length), and per column j the rank of S minus S_j among the k-subsets
    rank = {T: i for i, T in enumerate(combinations(range(length), k))}
    subsets = list(combinations(range(length), k + 1))
    ranks = [[rank[S[:j] + S[j + 1 :]] for j in range(k + 1)] for S in subsets]
    return np.array(subsets, dtype=np.intp), np.array(ranks, dtype=np.intp)


def test_rank_built_index_matches_the_dict_built_one():
    for length in range(2, 15):
        for k in range(1, length):
            subsets, ranks = _subset_index(length, k + 1)
            expected = _cofactor_index(length, k)
            assert subsets.tolist() == expected[0].tolist(), (length, k)
            assert ranks.tolist() == expected[1].tolist(), (length, k)
            assert subsets.dtype == ranks.dtype == np.intp


@pytest.mark.parametrize("length,k", [(4, 2), (7, 3), (9, 5), (12, 2)])
def test_cofactor_index_deletes_each_column(length, k):
    subsets, ranks = _subset_index(length, k + 1)
    k_subsets = list(combinations(range(length), k))
    assert [tuple(s) for s in subsets.tolist()] == list(combinations(range(length), k + 1))
    for s, r in zip(subsets.tolist(), ranks.tolist()):
        assert [k_subsets[i] for i in r] == [tuple(s[:j] + s[j + 1 :]) for j in range(k + 1)]


def test_validate_verdict_rejects_bogus_mds_columns():
    code = GprsCode(field(7), [5, 6], 2)
    word = code.word([1, 2, 3, 4, 5, 6])
    # k + 1 = 3 distinct columns in range(6) are required
    for cols in [(0, 0, 1), (-1, 5, 5), (-1, 0, 1), (0, 1, 9), (0, 1), (0, 1, 2, 3)]:
        assert not validate_verdict(
            code, DeepHoleVerdict(False, "mds_extension", cols), word=word
        )


def test_build_family_word_errors():
    f = field(5)
    code = GprsCode(f, [3, 4], 2)
    with pytest.raises(ValueError):
        build_family_word(code, WordFamilySpec("deg_k", f.zero, f.zero))
    with pytest.raises(ValueError):
        build_family_word(
            code, WordFamilySpec("shifted_qminus2", f.one, f.zero, a_j=f.element(1))
        )
    with pytest.raises(ValueError):
        build_family_word(code, WordFamilySpec("bogus", f.one, f.zero))
    with pytest.raises(ValueError):
        build_family_word(
            code,
            WordFamilySpec("deg_k", f.one, f.zero, low=Polynomial.x_power(f, 1)),
        )


# -- zero-sum subsets ---------------------------------------------------------------------


def test_zero_sum_examples():
    assert [e.encoding for e in zero_sum_subset(field(5), 2)] == [1, 4]
    assert [e.encoding for e in zero_sum_subset(field(7), 3)] == [1, 2, 4]
    f9 = field(3, 2)
    triple = zero_sum_subset(f9, 3)
    assert len(triple) == 3
    total = f9.zero
    for e in triple:
        total = total + e
    assert total.is_zero


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_zero_sum_valid_for_all_sizes(q):
    f = field_of_order(q)
    for k in range(2, q - 2):
        subset = zero_sum_subset(f, k)
        encs = [e.encoding for e in subset]
        assert len(set(encs)) == k
        assert 0 not in encs
        acc = 0
        for e in encs:
            acc = f.add_enc(acc, e)
        assert acc == 0
        assert encs == sorted(encs)


def test_zero_sum_errors():
    with pytest.raises(ValueError):
        zero_sum_subset(field(2, 3), 2)
    f = field(7)
    with pytest.raises(ValueError):
        zero_sum_subset(f, 1)
    with pytest.raises(ValueError):
        zero_sum_subset(f, 5)  # k > q - 3


# -- binomial valuations -----------------------------------------------------------------


def test_vp_binomial_examples():
    assert vp_binomial(9, 3) == 1
    assert vp_binomial(7, 2) == 0
    assert vp_binomial(25, 10) == 1
    assert math.comb(7, 2) == 21


@pytest.mark.parametrize("q", [9, 25, 27])
def test_vp_binomial_matches_big_integer_oracle(q):
    from gprs.galois import prime_power_decomposition

    p, _ = prime_power_decomposition(q)
    for t in range(2, q):
        value = math.comb(q - 2, t - 1)
        actual = 0
        while value % p == 0:
            value //= p
            actual += 1
        assert vp_binomial(q, t) == actual


def test_vp_binomial_errors():
    with pytest.raises(ValueError):
        vp_binomial(8, 3)  # even characteristic
    with pytest.raises(ValueError):
        vp_binomial(9, 1)
    with pytest.raises(ValueError):
        vp_binomial(9, 9)
    with pytest.raises(ValueError):
        vp_binomial(12, 2)  # not a prime power


def test_binom_mod_p_examples():
    f5, f9 = field(5), field(3, 2)
    assert binom_mod_p(3, 1, f5) == f5.element(3)
    assert binom_mod_p(7, 2, f9) == f9.zero
    assert binom_mod_p(10, 0, f9) == f9.one
    with pytest.raises(ValueError):
        binom_mod_p(3, 4, f5)


# -- verdict serialization ----------------------------------------------------------------


def test_verdict_record_shape():
    v = DeepHoleVerdict(False, "thm14", (2, 3))
    rec = v.to_record({"code": "q=5;exclude=0,4;k=2"})
    assert rec == {
        "is_deep_hole": False,
        "method": "thm14",
        "witness": [2, 3],
        "parameters": {"code": "q=5;exclude=0,4;k=2"},
    }


def test_validate_verdict_mds_needs_word():
    code = GprsCode(field(5), [0, 4], 2)
    v = DeepHoleVerdict(False, "mds_extension", (1, 2, 3))
    with pytest.raises(ValueError):
        validate_verdict(code, v)
