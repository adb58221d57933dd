import csv
import hashlib
import io
import math
import random
import sys
from itertools import combinations

import pytest

import gprs.verify as verify
from gprs.deepholes import DeepHoleVerdict
from gprs.verify import ROW_FIELDS, SweepConfig, check_liwan_bounds, run_sweep


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(claims=("thm99",), q_list=(5,))
    with pytest.raises(ValueError):
        SweepConfig(claims=("thm14",), q_list=(6,))  # not a prime power
    cfg = SweepConfig(claims=("thm14",), q_list=(5,))
    assert cfg.to_dict()["budgets"]["messages"] == 10**6


def test_reports_are_deterministic():
    cfg = SweepConfig(
        claims=("thm14", "lemma28"), q_list=(5, 9), seed=42, words_per_config=4,
        max_exclusion_sets_per_q=6,
    )
    a, b = run_sweep(cfg), run_sweep(cfg)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_thm14_sweep_f5_exhaustive():
    rep = run_sweep(SweepConfig(claims=("thm14",), q_list=(5,), words_per_config=8))
    # l=1 gives 5 exclusion sets, l=2 gives 10, k=2 throughout
    assert rep.summary == {"total": 15, "agreed": 15, "refuted": 0, "skipped": 0}
    assert rep.exit_status() == "verified"
    negatives = [r for r in rep.rows if r.predicted == "false"]
    assert negatives and all(r.witness for r in negatives)


def test_thm15_sweep_f5_exhaustive():
    rep = run_sweep(SweepConfig(claims=("thm15",), q_list=(5,), words_per_config=6))
    # rows: (l=1: 5 sets x k in {2,3} x 1 aj) + (l=2: 10 sets x k=2 x 2 aj)
    assert rep.summary["total"] == 5 * 2 + 10 * 2
    assert rep.summary["refuted"] == 0 and rep.summary["skipped"] == 0


def test_thm16_thm17_sweeps():
    rep = run_sweep(
        SweepConfig(claims=("thm16", "thm17"), q_list=(5, 7), words_per_config=5)
    )
    by_claim = {}
    for r in rep.rows:
        by_claim.setdefault(r.claim, []).append(r)
    assert len(by_claim["thm16"]) == (5 - 4) + (7 - 4)  # k ranges 2..q-3
    assert len(by_claim["thm17"]) == (5 - 3) + (7 - 3)  # k ranges 2..q-2
    assert rep.summary["refuted"] == 0
    assert all(r.witness for r in by_claim["thm16"])


def test_lemma25_lemma26_sweeps_f5():
    rep = run_sweep(SweepConfig(claims=("lemma25", "lemma26"), q_list=(5,)))
    assert rep.summary["refuted"] == 0
    assert rep.summary["skipped"] == 0
    l25 = [r for r in rep.rows if r.claim == "lemma25"]
    assert all(r.predicted == r.oracle for r in l25)


def test_lemma26_budget_skips_are_recorded():
    cfg = SweepConfig(claims=("lemma26",), q_list=(5,), distance_budget=10**3)
    rep = run_sweep(cfg)
    assert rep.summary["skipped"] == rep.summary["total"]
    assert rep.summary["refuted"] == 0
    assert all("budget" in r.detail for r in rep.rows)


def test_lemma28_lemma29_sweeps():
    rep = run_sweep(SweepConfig(claims=("lemma28", "lemma29"), q_list=(5, 9, 27)))
    assert rep.summary["refuted"] == 0
    l29 = [r for r in rep.rows if r.claim == "lemma29"]
    assert len(l29) == (5 - 2) + (9 - 2) + (27 - 2)


def test_even_characteristic_rows_skip():
    rep = run_sweep(SweepConfig(claims=("thm14", "lemma28"), q_list=(8,)))
    assert rep.summary["skipped"] == rep.summary["total"] == 2
    assert all("odd characteristic" in r.detail for r in rep.rows)


def test_exclusion_set_cap_is_respected_and_seeded():
    cfg = SweepConfig(
        claims=("thm14",), q_list=(9,), words_per_config=2, max_exclusion_sets_per_q=12
    )
    rep = run_sweep(cfg)
    per_l = {}
    for r in rep.rows:
        l = len(r.excluded.split(","))
        per_l.setdefault(l, set()).add(r.excluded)
    assert all(len(sets) <= 2 for sets in per_l.values())  # 12 // 6 valid l
    rep2 = run_sweep(cfg)
    assert rep.to_json() == rep2.to_json()


def _materialised_exclusion_sets(q, l, quota, rng):
    everything = list(combinations(range(q), l))
    if quota is None or len(everything) <= quota:
        return everything
    return sorted(rng.sample(everything, quota))


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_exclusion_sets_match_materialised_sampling(q):
    for l in range(1, q):
        for quota in (None, 1, 3, 8, 50):
            tag = f"{q}/{l}/{quota}"
            expected = _materialised_exclusion_sets(q, l, quota, random.Random(tag))
            assert verify._exclusion_sets(q, l, quota, random.Random(tag)) == expected


def test_exclusion_sets_sample_without_materialising():
    # C(49, 24) is about 6.3e13 subsets; only the 8 sampled ones are built
    sets = verify._exclusion_sets(49, 24, 8, random.Random(0))
    assert len(sets) == 8 and sets == sorted(set(sets))
    assert all(len(s) == 24 and list(s) == sorted(set(s)) and s[-1] < 49 for s in sets)


def _rejection_ranks(total, quota, rng):
    ranks = set()
    while len(ranks) < quota:
        ranks.add(rng.randrange(total))
    return sorted(ranks)


def test_rejection_draw_is_random_sample_for_large_populations():
    # the draw _exclusion_sets falls back to once C(q, l) > sys.maxsize
    total = math.comb(49, 24)
    expected = sorted(random.Random(1).sample(range(total), 8))
    assert _rejection_ranks(total, 8, random.Random(1)) == expected


def test_exclusion_sets_beyond_sys_maxsize():
    assert math.comb(67, 33) > sys.maxsize
    sets = verify._exclusion_sets(67, 33, 8, random.Random(0))
    assert len(sets) == 8 and sets == sorted(set(sets))
    assert all(len(s) == 33 and list(s) == sorted(set(s)) and s[-1] < 67 for s in sets)
    ranks = _rejection_ranks(math.comb(67, 33), 8, random.Random(0))
    assert sets == [verify._unrank_subset(67, 33, r) for r in ranks]


# SHA-256 of the lemma25/lemma26 report below, recorded while lemma26 still
# used the exhaustive brute force; the syndrome BFS must reproduce it
COVERING_REPORT_SHA256 = "8d41ae06425867e252bfd6107953a86797c7d5326c3b5e2ec3af40744fca8674"


def test_covering_sweep_report_is_byte_identical():
    rep = run_sweep(
        SweepConfig(
            claims=("lemma25", "lemma26"),
            q_list=(5, 7, 8),
            max_exclusion_sets_per_q=8,
            distance_budget=20_000_000,
            seed=0,
        )
    )
    assert rep.summary["total"] == 94 and rep.summary["skipped"] == 23
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == COVERING_REPORT_SHA256


def test_csv_is_rfc4180_parseable():
    rep = run_sweep(SweepConfig(claims=("lemma29",), q_list=(9,)))
    text = rep.to_csv()
    assert "\r\n" in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(ROW_FIELDS)
    assert len(rows) == 1 + rep.summary["total"]


def test_json_shape():
    import json

    rep = run_sweep(SweepConfig(claims=("lemma29",), q_list=(9,), seed=3))
    data = json.loads(rep.to_json())
    assert set(data) == {"config", "rows", "summary"}
    assert data["config"]["seed"] == 3
    assert data["summary"]["total"] == len(data["rows"])
    assert set(data["rows"][0]) == set(ROW_FIELDS)


def test_refutation_channel(monkeypatch):
    # force the criterion to lie; the oracle must catch it and flip the report
    def liar(code):
        honest = _real_thm14(code)
        return DeepHoleVerdict(not honest.is_deep_hole, "thm14", None)

    _real_thm14 = verify.thm14_criterion
    monkeypatch.setattr(verify, "thm14_criterion", liar)
    rep = run_sweep(SweepConfig(claims=("thm14",), q_list=(5,), words_per_config=4))
    assert rep.summary["refuted"] > 0
    assert rep.exit_status() == "refuted"
    bad = [r for r in rep.rows if r.status == "refuted"]
    assert any("word=" in r.detail for r in bad)


def test_check_liwan_bounds():
    rows = check_liwan_bounds(7, trials=40, seed=5)
    assert len(rows) == 40
    assert all(r.status == "agreed" for r in rows)
    rows9 = check_liwan_bounds(9, trials=10, seed=5)
    assert all(r.status == "agreed" for r in rows9)


def test_thm11_sweep_rows():
    rep = run_sweep(SweepConfig(claims=("thm11",), q_list=(5,), words_per_config=15))
    assert rep.summary == {"total": 15, "agreed": 15, "refuted": 0, "skipped": 0}
