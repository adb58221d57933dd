import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import gprs.codes as codes_module
import gprs.deepholes as deepholes
import gprs.verify as verify
import references
from gprs.cli import main
from gprs.codes import GprsCode
from gprs.deepholes import (
    DeepHoleVerdict, WordFamilySpec, _family_bases, build_family_word, family_words, thm14_criterion,
    thm15_criterion, zero_sum_subset,
)
from gprs.galois import field_of_order
from gprs.matrix import MdsCheckResult
from gprs.polynomial import Polynomial
from gprs.verify import (
    KNOWN_CLAIMS,
    ROW_FIELDS,
    SweepConfig,
    _thm11_rows,
    run_sweep,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(claims=("thm99",), q_list=(5,))
    with pytest.raises(ValueError):
        SweepConfig(claims=("thm14",), q_list=(6,))  # not a prime power
    with pytest.raises(ValueError, match=r"GF\(999999999989\) is too large"):
        SweepConfig(claims=("thm14",), q_list=(7, 999999999989))  # refused before the sweep
    cfg = SweepConfig(claims=("thm14",), q_list=(5,))
    assert cfg.to_dict()["budgets"]["messages"] == 10**6
    # sweeps that would check nothing
    for bad in (
        dict(claims=(), q_list=(5,)),
        dict(claims=("thm14",), q_list=()),
        dict(claims=("thm14",), q_list=(5,), words_per_config=0),
        dict(claims=("thm14",), q_list=(5,), max_exclusion_sets_per_q=0),
        dict(claims=("thm14",), q_list=(5,), max_exclusion_sets_per_q=-4),
        dict(claims=("thm14",), q_list=(5,), message_budget=0),
        dict(claims=("thm14",), q_list=(5,), distance_budget=0),
    ):
        with pytest.raises(ValueError):
            SweepConfig(**bad)
    # integer fields go through operator.index: floats and strings are refused before any
    # field is built, and numpy integers are stored as plain ints
    for bad in (
        dict(claims=("thm14",), q_list=(7.9,)),
        dict(claims=("thm14",), q_list=("7",)),
        dict(claims=("thm14",), q_list=(5,), words_per_config=2.5),
        dict(claims=("thm14",), q_list=(5,), max_exclusion_sets_per_q=3.0),
        dict(claims=("thm14",), q_list=(5,), message_budget=1e6),
        dict(claims=("thm14",), q_list=(5,), distance_budget="100"),
    ):
        with pytest.raises(TypeError):
            SweepConfig(**bad)
    cfg = SweepConfig(claims=("lemma29",), q_list=(np.int64(5),), words_per_config=np.int64(3),
                      max_exclusion_sets_per_q=np.int32(2), message_budget=np.int64(10**6),
                      distance_budget=np.int16(1000))
    assert all(type(v) is int for v in (*cfg.q_list, cfg.words_per_config, cfg.max_exclusion_sets_per_q,
                                        cfg.message_budget, cfg.distance_budget))
    json.loads(run_sweep(cfg).to_json())


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


def test_hypothesis_skip_rows():
    claims = ("thm11", "thm14", "lemma25", "lemma29")
    rep = run_sweep(SweepConfig(claims=claims, q_list=(2, 3, 4, 8)))
    skips = {(r.claim, r.q): (r.modulus, r.detail) for r in rep.rows if not r.k}
    assert skips == {
        # thm11 draws codes of length >= 3, which GF(2) has no room for
        ("thm11", 2): ("", "q >= 3 required"),
        # the odd-characteristic test comes before the size test
        ("thm14", 2): ("", "odd characteristic required"),
        ("thm14", 3): ("", "q >= 5 required"),
        ("thm14", 4): ("1,1,1", "odd characteristic required"),
        ("thm14", 8): ("1,1,0,1", "odd characteristic required"),
        ("lemma25", 2): ("", "q >= 4 required"),
        ("lemma25", 3): ("", "q >= 4 required"),
        # lemma29 is about integers and prints no modulus
        ("lemma29", 2): ("", "odd characteristic required"),
        ("lemma29", 4): ("", "odd characteristic required"),
        ("lemma29", 8): ("", "odd characteristic required"),
    }
    assert all(r.status == "skipped" and r.agree == "" for r in rep.rows if not r.k)


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


def test_max_sets_is_a_quota_per_l_as_the_help_says(capsys):
    # N = 8 at q = 13 gives each of the 10 l a quota of max(1, 8 // 10) = 1 set: 10 sets
    rep = run_sweep(SweepConfig(claims=("lemma29", "thm14"), q_list=(13,), words_per_config=1,
                                max_exclusion_sets_per_q=8))
    sets = {r.excluded for r in rep.rows if r.claim == "thm14"}
    assert sorted(len(s.split(",")) for s in sets) == list(range(1, 11))
    assert main(["sweep", "--help"]) == 0
    assert "max(1, N // (q-3))" in " ".join(capsys.readouterr().out.split())


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


# SHA-256 of two more reports, recorded before the claim table replaced the
# per-claim row functions: every claim with every hypothesis skip and both
# budget skips, and the exhaustive thm14/thm15 grid on GF(7)
ALL_CLAIMS_JSON_SHA256 = "2d0456306f0682b0bc9e5db2f614275ee46e97ffc97de2734af9526d54278bd7"
ALL_CLAIMS_CSV_SHA256 = "13395f6fc7a636b1091b08bc2c6ae29e598677ee0516a4927fb774d25b52641b"
DEEPHOLE_GF7_JSON_SHA256 = "d312ee1a216645860c536c683387c991829882ede910b932d129e879c331a865"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_all_claims_report_is_byte_identical():
    rep = run_sweep(
        SweepConfig(
            claims=KNOWN_CLAIMS,
            q_list=(3, 4, 5, 7, 8, 9),
            max_exclusion_sets_per_q=6,
            words_per_config=3,
            seed=0,
            message_budget=10**4,
            distance_budget=10**6,
        )
    )
    assert rep.summary["total"] == 324 and rep.summary["skipped"] == 71
    assert _sha256(rep.to_json()) == ALL_CLAIMS_JSON_SHA256
    assert _sha256(rep.to_csv()) == ALL_CLAIMS_CSV_SHA256


def test_deephole_gf7_report_is_byte_identical():
    rep = run_sweep(
        SweepConfig(claims=("thm14", "thm15"), q_list=(7,), words_per_config=2, seed=0)
    )
    assert rep.summary["total"] == 693
    assert _sha256(rep.to_json()) == DEEPHOLE_GF7_JSON_SHA256


# SHA-256 of the thm14..thm17 report below, recorded before the deep-hole rows
# were scored slab by slab: an extension field, sampled grids and 20 words a row
DEEPHOLE_SAMPLED_JSON_SHA256 = "f9f30be2102bb4d3b9df4aa48489582d3b49cff622291af27c55e29e4b99b22e"


def test_deephole_sampled_report_is_byte_identical():
    rep = run_sweep(
        SweepConfig(
            claims=("thm14", "thm15", "thm16", "thm17"),
            q_list=(9, 11, 13),
            max_exclusion_sets_per_q=12,
            words_per_config=20,
            seed=0,
        )
    )
    assert rep.summary == {"total": 626, "agreed": 626, "refuted": 0, "skipped": 0}
    assert _sha256(rep.to_json()) == DEEPHOLE_SAMPLED_JSON_SHA256


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


def _indent_encoder_json(rep):
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"


def test_json_is_the_indent_encoder_bytes():
    # real sweeps with skipped rows, an empty report, and rows refuted by hand whose
    # detail and witness hold quotes, backslashes, control and non-ASCII characters
    skipped = run_sweep(SweepConfig(claims=("lemma26", "thm16"), q_list=(4, 5), distance_budget=10**3))
    assert skipped.summary["skipped"] > 0
    mixed = run_sweep(SweepConfig(claims=("lemma25", "lemma29", "thm14"), q_list=(7, 8), words_per_config=2))
    cfg = SweepConfig(claims=("thm14",), q_list=(5,), max_exclusion_sets_per_q=1)
    empty = verify.SweepReport(cfg, [], {"total": 0, "agreed": 0, "refuted": 0, "skipped": 0})
    rows = [
        verify.SweepRow("thm14", 5, excluded="0,1", k="2", agree="false", status="refuted",
                        witness='{"word": [1, 2]}', detail='a "quoted" C:\\path\ttab'),
        verify.SweepRow("lemma29", 9, status="skipped", detail="ρ ≥ q − k, naïve \u2028 \U0001d53d"),
    ]
    refuted = verify.SweepReport(cfg, rows, {"total": 2, "agreed": 0, "refuted": 1, "skipped": 1})
    for rep in (skipped, mixed, empty, refuted):
        assert rep.to_json() == _indent_encoder_json(rep)


def _negated(real):
    # the criterion's verdict flipped, with no witness to re-validate
    return lambda *args: DeepHoleVerdict(not real(*args).is_deep_hole, "liar")


def _always(value):
    return lambda real: lambda *args, **kwargs: value


def _non_mds(real):
    # every code of the slab fails, each with the witness (0, ..., k-1)
    return lambda codes: [MdsCheckResult(False, tuple(range(codes[0].k)))] * len(codes)


def _zero_everywhere(real):
    # every base word's MDS extension has a zero minor, at the first subset; the class
    # check and the distances are the real ones
    def lie(*args):
        inside, distances, zeros, witnesses = real(*args)
        return inside, distances, np.zeros_like(zeros), witnesses

    return lie


def _one_word_moved(real):
    # the first call's word (0, 1) has its first coordinate moved by one, so that word
    # leaves its row's family
    def lie(codes, *args):
        words = real(codes, *args)
        if not lie.moved:
            words[0, 1, 0] = codes[0].field.add_enc(int(words[0, 1, 0]), 1)
            lie.moved.append(codes[0].word(words[0, 1].tolist()).to_text())
        return words

    lie.moved = []
    return lie


_DEEP = _always(DeepHoleVerdict(True, "liar"))
_NOT_DEEP = _always(DeepHoleVerdict(False, "liar"))


# Each case makes one check lie. What the sweep reported was recorded before
# the claim table replaced the per-claim row functions; thm14-mds, the one case
# where only the MDS oracle lies, was recorded while that kernel still lived in
# gprs.deepholes and returned verdicts, and kept when the MDS verdict moved to the
# base word's, read by ``family_verdicts``. thm15-outside, the one case where a
# sampled word leaves its family, was recorded when the class check came in. The
# criterion lies were recorded on thm14_criterion and thm15_criterion, and kept
# when a sweep's criteria came to be read from the group's witnesses through
# ``criterion_verdict``. A case gives the name
# patched in gprs.verify, the lie, the claim, q_list and the total and refuted
# row counts; then every refuted detail up to its first "="; then the first
# refuted row's excluded, k, aj, oracle and witness; then its detail.
REFUTATIONS = {
    "thm14": (
        ("criterion_verdict", _negated, "thm14", (5,), 4, 4),
        {"word"},
        ("1", "2", "", "false", ""),
        "word=2,3,0,3,2 oracle=false mds=false criterion=true",
    ),
    "thm15": (
        ("criterion_verdict", _negated, "thm15", (5, 9), 64, 64),
        {"word", "p | k must force a positive verdict"},
        ("0", "2", "0", "true", ""),
        "word=1,1,3,3,3 oracle=true criterion=false",
    ),
    "thm16": (
        ("criterion_verdict", _DEEP, "thm16", (5,), 1, 1),
        {"criterion claims a deep hole exists"},
        ("0", "2", "", "", "1,4"),
        "criterion claims a deep hole exists",
    ),
    "thm17": (
        ("criterion_verdict", _NOT_DEEP, "thm17", (5,), 2, 2),
        {"criterion rejected the shifted family"},
        ("0", "2", "0", "", ""),
        "criterion rejected the shifted family",
    ),
    "lemma25": (
        ("mds_checks", _non_mds, "lemma25", (5,), 6, 6),
        {"generator failed the MDS minor scan"},
        ("0,4", "2", "", "3", "cols:0,1"),
        "generator failed the MDS minor scan",
    ),
    "thm14-witness": (
        ("validate_verdict", _always(False), "thm14", (5,), 4, 3),
        {"criterion witness failed re-validation"},
        ("1", "2", "", "false", "2,3"),
        "criterion witness failed re-validation",
    ),
    "thm15-witness": (
        ("validate_verdict", _always(False), "thm15", (5,), 8, 5),
        {"criterion witness failed re-validation"},
        ("0,1", "2", "1", "", "2,4"),
        "criterion witness failed re-validation",
    ),
    "thm14-mds": (
        ("family_verdicts", _zero_everywhere, "thm14", (5,), 4, 1),
        {"word"},
        ("2,4", "2", "", "true", ""),
        "word=2,1,3,0 oracle=true mds=false criterion=true",
    ),
    "thm15-outside": (
        ("family_words", _one_word_moved, "thm15", (5,), 8, 1),
        {"word"},
        ("0", "2", "0", "true", ""),
        "word=0,2,3,1,0 is outside its family",
    ),
    "thm16-zero-sum": (
        ("validate_verdict", _always(False), "thm16", (5,), 1, 1),
        {"constructed zero-sum subset rejected"},
        ("0", "2", "", "", "1,4"),
        "constructed zero-sum subset rejected",
    ),
}


@pytest.mark.parametrize("case", REFUTATIONS)
def test_refutation_channel(monkeypatch, case):
    patch, details, first, detail = REFUTATIONS[case]
    name, lie, claim, q_list, total, refuted = patch
    monkeypatch.setattr(verify, name, lie(getattr(verify, name)))
    cfg = SweepConfig(
        claims=(claim,), q_list=q_list, words_per_config=3, max_exclusion_sets_per_q=4
    )
    rep = run_sweep(cfg)
    assert (rep.summary["total"], rep.summary["refuted"]) == (total, refuted)
    assert rep.exit_status() == "refuted"
    bad = [r for r in rep.rows if r.status == "refuted"]
    assert all(r.agree == "false" for r in bad)
    assert {r.detail.split("=")[0] for r in bad} == details
    r = bad[0]
    assert (r.excluded, r.k, r.aj, r.oracle, r.witness) == first
    assert r.detail == detail


@pytest.mark.parametrize("claim", ["thm14", "thm15", "thm16", "thm17"])
def test_the_word_outside_its_family_is_the_one_moved(monkeypatch, claim):
    # every sampled word is class-checked: the one word moved out of its family refutes
    # its row alone, and the detail names that word as the sweep built it
    lie = _one_word_moved(verify.family_words)
    monkeypatch.setattr(verify, "family_words", lie)
    rep = run_sweep(SweepConfig(claims=(claim,), q_list=(7,), words_per_config=3, max_exclusion_sets_per_q=4))
    (moved,) = lie.moved
    assert [r.detail for r in rep.rows if r.status == "refuted"] == [f"word={moved} is outside its family"]


def _per_word_zeros(real):
    # the thm14-mds lie on the per-word scan the reference calls: every word's MDS extension
    # has a zero minor, at the first subset
    return lambda codes, words: np.zeros(np.shape(words)[:2], dtype=np.intp)


def _rows(config):
    rep = run_sweep(config)
    return [row.to_dict() for row in rep.rows], rep.summary


def _assert_scored_as_the_per_word_reference(monkeypatch, config, reference_lies=()):
    # the rows of the base-word route, field for field, against the per-word scorer with the
    # lies it needs to see the same checks fail
    fast = _rows(config)
    with monkeypatch.context() as patched:
        patched.setattr(verify, "_scored_rows", references.scored_rows_reference)
        for module, name, lie in reference_lies:
            patched.setattr(module, name, lie(getattr(module, name)))
        assert fast == _rows(config)
    return fast


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_base_words_score_as_every_sampled_word(monkeypatch, q):
    claims = ("thm14", "thm15", "thm16", "thm17")
    config = SweepConfig(claims=claims, q_list=(q,), words_per_config=3, max_exclusion_sets_per_q=12)
    rows, summary = _assert_scored_as_the_per_word_reference(monkeypatch, config)
    assert {row["claim"] for row in rows} == set(claims) and summary["agreed"] == summary["total"]


def test_base_words_past_the_frame_score_as_every_sampled_word(monkeypatch):
    # at q = 19 the family tables of k = 4..17 pass one run, or need a tail tensor or k-minor
    # table that does, so those thm16 and thm17 rows take the per-code route of
    # ``family_verdicts``; k = 2 and 3 keep their tables
    f = field_of_order(19)
    framed = [k for k in range(2, 18) if codes_module._family_frame(f, k) is not None]
    assert framed == [2, 3]
    config = SweepConfig(claims=("thm16", "thm17"), q_list=(19,), words_per_config=1)
    _, summary = _assert_scored_as_the_per_word_reference(monkeypatch, config)
    assert summary == {"total": 31, "agreed": 31, "refuted": 0, "skipped": 0}


@pytest.mark.parametrize("case", [case for case in REFUTATIONS if case != "thm15-outside"])
def test_every_lie_refutes_as_in_the_per_word_reference(monkeypatch, case):
    # thm15-outside is left out: only the base-word route class-checks a word; the per-word
    # reference scores a word moved out of its family by its own distance
    name, lie, claim, q_list, total, refuted = REFUTATIONS[case][0]
    monkeypatch.setattr(verify, name, lie(getattr(verify, name)))
    reference_lies = [(references, "mds_extension_zeros", _per_word_zeros)] if case == "thm14-mds" else []
    config = SweepConfig(claims=(claim,), q_list=q_list, words_per_config=3, max_exclusion_sets_per_q=4)
    _, summary = _assert_scored_as_the_per_word_reference(monkeypatch, config, reference_lies)
    assert (summary["total"], summary["refuted"]) == (total, refuted)


@pytest.mark.parametrize("q, cap", [(5, None), (7, None), (9, None), (11, None), (13, 40)])
def test_group_witnesses_are_the_scalar_criteria(q, cap):
    # every code, a_j and k of the thm14/thm15 grid (exhaustive below 13): the witness that
    # ``family_verdicts`` reads from bit 4 of the family bits, gathered from the frame family
    # table or, at GF(13) k = 7..9, built per code, makes the verdict the scalar scan makes,
    # thm14_criterion's or thm15_criterion's, at a_j = 0 and p | k too, where the expression
    # is the constant 1
    f = field_of_order(q)
    config = SweepConfig(claims=("thm15",), q_list=(q,), max_exclusion_sets_per_q=cap)
    constant, kinds = 0, set()
    for slab in verify._code_grid(f, config, "thm15"):
        rows = [(c, a_j) for c in slab for a_j in (None, *c.excluded) if a_j is not None or c.k <= q - 3]
        codes, a_js = [c for c, _ in rows], [a_j for _, a_j in rows]
        a = np.array([-1 if a_j is None else int(a_j) for a_j in a_js])
        shifted = [(c, a_j) for c, a_j in rows if a_j is not None]
        bases = _family_bases(codes, "deg_k", [None] * len(codes))
        bases[a >= 0] = _family_bases([c for c, _ in shifted], "shifted_qminus2", [a_j for _, a_j in shifted])
        mds = np.zeros(len(codes), dtype=bool)
        *_, witnesses = codes_module.family_verdicts(codes, a, bases, bases[:, None], np.ones((len(codes), 1)), mds)
        for code, a_j, witness in zip(codes, a_js, witnesses):
            scalar = thm14_criterion(code) if a_j is None else thm15_criterion(code, a_j)
            assert verify.criterion_verdict(code, a_j, witness) == scalar, (code.spec_string(), a_j)
            kinds.add((a_j is None, scalar.is_deep_hole))
            constant += a_j is not None and (int(a_j) == 0 or code.k % f.p == 0)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)} and constant > 0


def test_a_shape_past_one_run_takes_the_scalar_criteria(monkeypatch):
    # GF(17) has no family table at k = 5..15, whose rows take the per-code family bits: the
    # sweep makes no thm14_criterion or thm15_criterion call, each of those rows has the
    # verdict and witness of its scalar scan, and with no table anywhere the report has the
    # same bytes
    f, middle = field_of_order(17), range(5, 16)
    assert [k for k in range(2, 16) if codes_module._family_frame(f, k) is None] == list(middle)
    config = SweepConfig(claims=("thm14", "thm15"), q_list=(17,), words_per_config=1, max_exclusion_sets_per_q=14)
    scanned = []
    with monkeypatch.context() as counted:
        for name in ("thm14_criterion", "thm15_criterion"):
            real = getattr(deepholes, name)
            counted.setattr(deepholes, name, lambda code, *a, real=real: scanned.append(code.k) or real(code, *a))
        rep = run_sweep(config)
    assert rep.summary["agreed"] == rep.summary["total"] and scanned == []
    rows = [row for row in rep.rows if int(row.k) in middle]
    assert {int(row.k) for row in rows} == set(middle)
    for row in rows:
        code = GprsCode(f, [int(e) for e in row.excluded.split(",")], int(row.k))
        scalar = thm14_criterion(code) if row.claim == "thm14" else thm15_criterion(code, int(row.aj))
        assert (row.predicted, row.witness) == (verify._bool_str(scalar.is_deep_hole),
                                                verify._encs_str(scalar.witness or ())), row
    monkeypatch.setattr(codes_module, "_family_frame", lambda f, k: None)
    assert run_sweep(config).to_json() == rep.to_json()


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_per_code_family_bits_give_the_framed_report(monkeypatch, q):
    # the per-code family bits, witnesses included, on the small grids: with no family table
    # anywhere, the thm14..thm17 report has the bytes of the framed one
    config = SweepConfig(claims=("thm14", "thm15", "thm16", "thm17"), q_list=(q,), words_per_config=3,
                         max_exclusion_sets_per_q=8 if q == 11 else None)
    framed = run_sweep(config).to_json()
    monkeypatch.setattr(codes_module, "_family_frame", lambda f, k: None)
    assert run_sweep(config).to_json() == framed


def test_lemma28_refutation_exits_one_with_its_subsets(monkeypatch, capsys):
    monkeypatch.setattr(verify, "validate_verdict", _always(False)(verify.validate_verdict))
    rep = run_sweep(SweepConfig(claims=("lemma28",), q_list=(7,)))
    f = field_of_order(7)
    assert [(r.k, r.status, r.witness) for r in rep.rows] == [
        (str(k), "refuted", ",".join(str(e.encoding) for e in zero_sum_subset(f, k))) for k in (2, 3, 4)
    ]
    assert main(["sweep", "--claims", "lemma28", "--q-list", "7"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["summary"] == {"total": 3, "agreed": 0, "refuted": 3, "skipped": 0}


def test_check_liwan_bounds():
    config = SweepConfig(claims=("thm11",), q_list=(7,), words_per_config=40, seed=5)
    rows = _thm11_rows(field_of_order(7), config)
    assert len(rows) == 40
    assert all(r.status == "agreed" for r in rows)
    config9 = SweepConfig(claims=("thm11",), q_list=(9,), words_per_config=10, seed=5)
    assert all(r.status == "agreed" for r in _thm11_rows(field_of_order(9), config9))


def test_thm11_past_the_message_budget_is_one_skipped_row(capsys):
    # q = 7 codewords at k = 1 exceed a budget of 5: thm11 skips the q, as lemma25 skips its
    # slabs, and the sweep still reports every row
    rep = run_sweep(SweepConfig(claims=("lemma25", "thm11"), q_list=(7,), message_budget=5))
    assert rep.summary["skipped"] == rep.summary["total"] > 1
    (row,) = [r for r in rep.rows if r.claim == "thm11"]
    assert row.detail == "q^k = 7 codewords at k = 1 exceed message budget 5" and row.k == ""
    assert main(["sweep", "--claims", "thm11", "--q-list", "7", "--budget", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["skipped"] == 1


def test_thm11_sweep_rows():
    rep = run_sweep(SweepConfig(claims=("thm11",), q_list=(5,), words_per_config=15))
    assert rep.summary == {"total": 15, "agreed": 15, "refuted": 0, "skipped": 0}


def test_check_liwan_bounds_rejects_fields_below_three():
    # GRS codes of length >= 3 need three distinct points: the claim table skips q = 2
    rep = run_sweep(SweepConfig(claims=("thm11",), q_list=(2, 3), words_per_config=3))
    assert [(r.q, r.status, r.detail) for r in rep.rows if r.q == 2] == [(2, "skipped", "q >= 3 required")]
    assert [r.status for r in rep.rows if r.q == 3] == ["agreed"] * 3
    with pytest.raises(ValueError):
        SweepConfig(claims=("thm11",), q_list=(1,))  # not a prime power


def test_deephole_sweep_oracle_interpolates_no_subsets(monkeypatch):
    # the agreement oracle scores a row's words with one Lagrange tensor, so a
    # fast path that falls back to per-subset interpolation fails here
    from gprs import polynomial

    real = polynomial._interp_enc
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name == "gprs" or name.startswith("gprs."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    rep = run_sweep(SweepConfig(claims=("thm14", "thm15"), q_list=(7,), words_per_config=5))
    assert rep.summary["total"] == rep.summary["agreed"] > 0
    assert calls[0] <= rep.summary["total"]


@pytest.mark.parametrize("q", [5, 8, 9, 11])
def test_sweep_words_match_the_scalar_route_draw_for_draw(q):
    # each row of a slab's draws, built as its group builds it (``family_words``), is the word
    # ``build_family_word`` makes of the same lam, nu = t_(k-1) and low = t_0..t_(k-2); a
    # degree-k word is also the polynomial t(x) + lam x^k evaluated coordinate by coordinate
    f = field_of_order(q)
    rng = random.Random(q)
    for _ in range(10):
        l = rng.randrange(1, q - 2)
        code = GprsCode(f, rng.sample(range(q), l), rng.randrange(2, q - l))
        draws = verify._draws(random.Random(rng.random()), q, 2, 7, code.k)
        for draw, (kind, a_j) in zip(draws, [("deg_k", None), ("shifted_qminus2", rng.choice(code.excluded))]):
            built = family_words([code], _family_bases([code], kind, [a_j]), draw[None, :, -1], draw[None, :, :-1])
            for word, (*low, nu, lam) in zip(built[0].tolist(), draw.tolist()):
                spec = WordFamilySpec(kind, lam, nu, a_j, Polynomial(f, low))
                assert word == list(build_family_word(code, spec).encs)
                if a_j is None:
                    assert word == list(code.word_from_poly(Polynomial(f, [*low, nu, lam])).encs)


@pytest.mark.parametrize("q", [3, 4, 7, 9])
def test_draws_take_the_tails_then_the_nonzero_scales_from_one_stream(q):
    draws = verify._draws(random.Random(q), q, 40, 6, 3)
    assert draws.shape == (40, 6, 4) and draws.dtype == np.intp
    lams, tails = draws[..., -1], draws[..., :-1]
    # every tail in 0..q-1 and every lam in 1..q-1, and at these sizes each value turns up
    assert set(tails.ravel().tolist()) == set(range(q))
    assert set(lams.ravel().tolist()) == set(range(1, q))
    # one call for all the tails, in row, word, coefficient order, then one for the scales
    replay = random.Random(q)
    assert tails.ravel().tolist() == replay.choices(range(q), k=40 * 6 * 3)
    assert lams.ravel().tolist() == replay.choices(range(1, q), k=40 * 6)


def test_a_sweep_seeds_one_generator_per_slab(monkeypatch):
    # GF(7): 4 values of l, each with its exclusion sets per claim (8), then one stream per
    # (claim, l, k) slab: 9 for thm14 (k <= q - 3) and 10 for thm15
    seeds = []

    class Counted(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(verify.random, "Random", Counted)
    rep = run_sweep(SweepConfig(claims=("thm14", "thm15"), q_list=(7,), words_per_config=5))
    assert rep.summary["total"] == rep.summary["agreed"] == 693
    assert len(seeds) == 27
    assert sum("/sets/" in seed for seed in seeds) == 8


def _drawn_words(monkeypatch, config):
    """The report of a sweep and, per family row, the words it drew."""
    words, real = {}, verify._scored_rows

    def record(specs):
        words.update(((claim, code.spec_string(), None if a_j is None else int(a_j)), draw.tolist())
                     for claim, code, a_j, draw in specs)
        return real(specs)

    with monkeypatch.context() as patched:
        patched.setattr(verify, "_scored_rows", record)
        return run_sweep(config), words


def test_a_refuted_row_moves_no_other_rows_words(monkeypatch):
    # a slab is drawn before its criteria run: witnesses that fail re-validation refute their
    # rows, and every row keeps the words it drew in the honest sweep
    config = SweepConfig(claims=("thm15",), q_list=(7,), words_per_config=3, max_exclusion_sets_per_q=8)
    honest_rep, honest = _drawn_words(monkeypatch, config)
    monkeypatch.setattr(verify, "validate_verdict", _always(False)(verify.validate_verdict))
    lied_rep, lied = _drawn_words(monkeypatch, config)
    assert honest_rep.summary["refuted"] == 0 < lied_rep.summary["refuted"] < lied_rep.summary["total"]
    assert len(lied) == lied_rep.summary["total"] and lied == honest


def test_a_sweep_never_imports_numpy_random():
    # the words come from the standard library's seeded streams: a fresh interpreter that
    # runs a family sweep never loads numpy's generators
    script = (
        "import sys; from gprs.cli import main; "
        "main(['sweep', '--claims', 'thm14,thm15,thm16,thm17', '--q-list', '7', '--words', '3']); "
        "sys.stderr.write(str('numpy.random' in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert run.stderr.endswith("False"), run.stderr
