"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (oracle equivalence and invariant sweeps at desk
scale); there are no statistical tolerances anywhere. Run with

    pytest tests/test_acceptance.py -s

to see the per-criterion lines while they stream.
"""

import random
from contextlib import contextmanager
from itertools import combinations

from gprs.codes import GprsCode, agreement_distances
from gprs.deepholes import (
    DeepHoleVerdict,
    validate_verdict,
    zero_sum_subset,
)
from gprs.galois import field_of_order, prime_power_decomposition
from gprs.matrix import det_enc
from gprs.polynomial import Polynomial
from gprs.verify import SweepConfig, _thm11_rows, run_sweep
from references import expand_shifted_power

SEED = 108

ODD_PRIME_POWERS_49 = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)
ODD_PRIME_POWERS_81 = ODD_PRIME_POWERS_49 + (53, 59, 61, 67, 71, 73, 79, 81)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def _clean(report):
    assert report.summary["refuted"] == 0, report.to_json()
    return report


def test_criterion_01_thm14_equivalence():
    with criterion("criterion 1 (thm14: criterion == mds extension == oracle)"):
        small = _clean(
            run_sweep(
                SweepConfig(claims=("thm14",), q_list=(5, 7), words_per_config=20, seed=SEED)
            )
        )
        assert small.summary["skipped"] == 0
        by_q = {}
        for row in small.rows:
            by_q[row.q] = by_q.get(row.q, 0) + 1
        assert by_q == {5: 15, 7: 189}  # exhaustive over every (excluded, k)

        sampled = _clean(
            run_sweep(
                SweepConfig(
                    claims=("thm14",),
                    q_list=(9, 11),
                    words_per_config=20,
                    seed=SEED,
                    max_exclusion_sets_per_q=32,
                )
            )
        )
        assert sampled.summary["skipped"] == 0
        for q in (9, 11):
            sets = {r.excluded for r in sampled.rows if r.q == q}
            assert len(sets) >= 30


def test_criterion_02_thm15_equivalence():
    with criterion("criterion 2 (thm15: family criterion == oracle, p|k positive)"):
        small = _clean(
            run_sweep(
                SweepConfig(claims=("thm15",), q_list=(5, 7), words_per_config=20, seed=SEED)
            )
        )
        assert small.summary["skipped"] == 0
        assert sum(r.q == 7 for r in small.rows) == 504

        sampled = _clean(
            run_sweep(
                SweepConfig(
                    claims=("thm15",),
                    q_list=(9, 11),
                    words_per_config=20,
                    seed=SEED,
                    max_exclusion_sets_per_q=32,
                )
            )
        )
        assert sampled.summary["skipped"] == 0
        div_rows = [
            r
            for r in sampled.rows
            if int(r.k) % prime_power_decomposition(r.q)[0] == 0
        ]
        assert div_rows, "the grid must include p | k rows"
        assert all(r.predicted == "true" for r in div_rows)


def test_criterion_03_thm16_no_degree_k_deep_holes_on_pprs():
    with criterion("criterion 3 (thm16: primitive projective, degree-k words)"):
        report = _clean(
            run_sweep(
                SweepConfig(
                    claims=("thm16",), q_list=(5, 7, 9, 11), words_per_config=10, seed=SEED
                )
            )
        )
        assert report.summary["skipped"] == 0
        for row in report.rows:
            assert row.witness, "every row must carry a zero-sum witness"
            f = field_of_order(row.q)
            encs = tuple(int(e) for e in row.witness.split(","))
            code = GprsCode(f, [0], int(row.k))
            assert validate_verdict(code, DeepHoleVerdict(False, "thm14", encs))


def test_criterion_04_thm17_shifted_words_are_deep_holes_on_pprs():
    with criterion("criterion 4 (thm17: primitive projective, shifted-power words)"):
        report = _clean(
            run_sweep(
                SweepConfig(
                    claims=("thm17",), q_list=(5, 7, 9), words_per_config=10, seed=SEED
                )
            )
        )
        assert report.summary["skipped"] == 0
        assert report.summary["total"] == (5 - 3) + (7 - 3) + (9 - 3)


def test_criterion_05_minimum_distance_formula_and_mds():
    with criterion("criterion 5 (minimum distance q-l-k+2, all-minors MDS check)"):
        report = _clean(
            run_sweep(SweepConfig(claims=("lemma25",), q_list=(4, 5, 7), seed=SEED))
        )
        assert report.summary["skipped"] == 0
        assert all(r.predicted == r.oracle for r in report.rows)


def test_criterion_06_covering_radius_bruteforce():
    with criterion("criterion 6 (covering radius q-l+1-k == syndrome BFS coset-leader weight)"):
        report = _clean(
            run_sweep(SweepConfig(claims=("lemma26",), q_list=(5, 7), seed=SEED))
        )
        for row in report.rows:
            l = len(row.excluded.split(","))
            if row.q - l + 1 <= 5:  # every code of length <= 5 must actually run
                assert row.status == "agreed", row.to_dict()
        example = [
            r
            for r in report.rows
            if r.q == 5 and r.excluded in ("3,4",) and r.k == "2"
        ]
        assert example and example[0].oracle == "2"


def test_criterion_07_zero_sum_subsets_to_q49():
    with criterion("criterion 7 (constructive zero-sum subsets, q <= 49)"):
        report = _clean(
            run_sweep(SweepConfig(claims=("lemma28",), q_list=ODD_PRIME_POWERS_49))
        )
        assert report.summary["skipped"] == 0
        expected_rows = sum(q - 4 for q in ODD_PRIME_POWERS_49)
        assert report.summary["total"] == expected_rows
        # spot re-validation straight against field arithmetic
        for q in (27, 49):
            f = field_of_order(q)
            for k in range(2, q - 2):
                subset = zero_sum_subset(f, k)
                total = f.zero
                for e in subset:
                    total = total + e
                assert total.is_zero and len(subset) == k


def test_criterion_08_binomial_valuation_identity_to_q81():
    with criterion("criterion 8 (v_p(C(q-2, t-1)) == v_p(t), q <= 81)"):
        report = _clean(
            run_sweep(SweepConfig(claims=("lemma29",), q_list=ODD_PRIME_POWERS_81))
        )
        assert report.summary["skipped"] == 0
        assert report.summary["total"] == sum(q - 2 for q in ODD_PRIME_POWERS_81)


def _check_identities_for_code(code, with_inverse_rows=True):
    f = code.field
    d = code.evaluation_encodings()
    k = code.k
    gen = [list(r) for r in code.generator.row_encodings()]
    proj = len(d)

    degree_row = [f.pow_enc(y, k) for y in d] + [0]
    rows = gen + [degree_row]
    for subset in combinations(range(len(d)), k):
        vdm = 1
        for s in range(k):
            for t in range(s + 1, k):
                vdm = f.mul_enc(vdm, f.sub_enc(d[subset[t]], d[subset[s]]))
        total = 0
        for j in subset:
            total = f.add_enc(total, d[j])
        sub = [[row[j] for j in subset] + [row[proj]] for row in rows]
        assert det_enc(f, sub) == f.neg_enc(f.mul_enc(total, vdm))

    if not with_inverse_rows:
        return
    for a in (e.encoding for e in code.excluded):
        fj_c = expand_shifted_power(f, f.element(a), f.q - 2).coefficient(k - 1)
        inv_row = [f.inv_enc(f.sub_enc(y, a)) for y in d] + [fj_c.encoding]
        rows = gen + [inv_row]
        for subset in combinations(range(len(d)), k):
            vdm = 1
            for s in range(k):
                for t in range(s + 1, k):
                    vdm = f.mul_enc(vdm, f.sub_enc(d[subset[t]], d[subset[s]]))
            prod = 1
            for j in subset:
                prod = f.mul_enc(prod, f.inv_enc(f.sub_enc(a, d[j])))
            expected = f.mul_enc(f.add_enc(fj_c.encoding, prod), vdm)
            sub = [[row[j] for j in subset] + [row[proj]] for row in rows]
            assert det_enc(f, sub) == expected


def test_criterion_09_stacked_determinant_identities():
    with criterion("criterion 9 (stacked-row determinant identities, q <= 9)"):
        for q in (5, 7, 9):
            f = field_of_order(q)
            for l in range(1, q - 2):
                for excl in combinations(range(q), l):
                    for k in range(2, q - l):
                        _check_identities_for_code(GprsCode(f, excl, k))


def test_criterion_10_grs_distance_bounds():
    with criterion("criterion 10 (GRS bounds n-deg u <= d <= n-k, 100 words per q)"):
        for q in (5, 7, 9):
            config = SweepConfig(claims=("thm11",), q_list=(q,), words_per_config=100, seed=SEED)
            rows = _thm11_rows(field_of_order(q), config)
            assert len(rows) == 100
            assert all(r.status == "agreed" for r in rows)


def test_criterion_11_translation_and_scaling_invariance():
    with criterion("criterion 11 (translation/scaling invariance of error distance)"):
        for q in (4, 5, 7):
            f = field_of_order(q)
            for l in range(1, q - 2):
                for excl in combinations(range(q), l):
                    for k in range(2, q - l):
                        code = GprsCode(f, excl, k)
                        _invariance_trials(code, trials=50)


def _invariance_trials(code, trials):
    # every trial's words are drawn first, then scored in one agreement batch
    f = code.field
    q = f.q
    rng = random.Random(f"{SEED}/invariance/{code.spec_string()}")
    words = []
    for _ in range(trials):
        u = code.word([rng.randrange(q) for _ in range(code.length)])
        msg = Polynomial.from_encodings(f, [rng.randrange(q) for _ in range(code.k)])
        u0 = code.encode(msg)

        v = Polynomial.from_encodings(f, [rng.randrange(q) for _ in range(q - 1)])
        lam = f.element(rng.randrange(1, q))
        low = Polynomial.from_encodings(
            f, [rng.randrange(q) for _ in range(code.k - 1)]
        )
        scaled = v * lam + low
        words += [u, u + u0, code.word_from_poly(scaled), code.word_from_poly(v)]
    d = agreement_distances([code], [[w.encs for w in words]])[0].tolist()
    # per trial d(u) == d(u + u0) and d(lam * v + low) == d(v)
    assert d[0::4] == d[1::4]
    assert d[2::4] == d[3::4]
