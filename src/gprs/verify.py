"""Seeded parameter sweeps that machine-check the library's claims.

Each claim tag names one verifiable statement about GPRS codes:

* ``thm14``  degree-k words: subset-sum criterion == mds extension == oracle
* ``thm15``  shifted-power family: product criterion == oracle
* ``thm16``  primitive projective codes never have degree-k deep holes;
             a constructed zero-sum subset certifies why
* ``thm17``  shifted-power words over the primitive projective code are
             always deep holes
* ``lemma25``  minimum distance q-l-k+2 == brute force; generator passes
               the all-minors MDS check, both decided one (l, k) slab at a time
* ``lemma26``  covering radius q-l+1-k == largest coset-leader weight (syndrome BFS),
               admitted one (l, k) slab at a time
* ``lemma28``  the constructed zero-sum subset of every size 2..q-3 validates
* ``lemma29``  v_p(C(q-2, t-1)) == v_p(t), against big-integer binomials
* ``thm11``  random non-codewords respect n - deg u <= d(u, GRS) <= n - k

Each claim is one entry of the claim table ``_CLAIMS``: the function making
its rows, the smallest q its statement covers, and whether it needs odd
characteristic. ``run_sweep`` gives every q outside a claim's hypotheses one
skipped row that names the failed hypothesis, testing odd characteristic
first. thm14, thm15, lemma25 and lemma26 share one code grid: every l in
1..q-3, the exclusion sets of each l, and every k in 2..q-l-1 (thm14 stops at
q-3).

A sweep is deterministic: equal configs produce byte-identical reports.
Exclusion sets are enumerated exhaustively when they fit the per-q cap (split
evenly over the l) and sampled without replacement through a seeded RNG
otherwise. Rows whose exhaustive check would blow a budget are marked skipped,
never dropped. Any criterion/oracle disagreement flips the report to
"refuted" and attaches a machine-readable counterexample to the row.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field as dc_field, fields
from itertools import combinations
from json.encoder import encode_basestring_ascii
from operator import attrgetter

import numpy as np

from .galois import FiniteField, _check_order, field_of_order, prime_power_decomposition
from .codes import (
    DEFAULT_DISTANCE_BUDGET,
    DEFAULT_MESSAGE_BUDGET,
    GprsCode,
    GrsCode,
    agreement_distances,
    mds_checks,
    mds_extension_zeros,
    minimum_distances,
)
from .deepholes import (
    DeepHoleVerdict,
    family_words,
    thm14_criterion,
    thm15_criterion,
    validate_verdict,
    vp_binomial,
    zero_sum_subset,
)

@dataclass(frozen=True)
class SweepConfig:
    claims: tuple[str, ...]
    q_list: tuple[int, ...]
    max_exclusion_sets_per_q: int | None = None
    words_per_config: int = 20
    seed: int = 0
    message_budget: int = DEFAULT_MESSAGE_BUDGET
    distance_budget: int = DEFAULT_DISTANCE_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "claims", tuple(self.claims))
        object.__setattr__(self, "q_list", tuple(int(q) for q in self.q_list))
        unknown = sorted(set(self.claims) - set(KNOWN_CLAIMS))
        if unknown:
            raise ValueError(f"unknown claims {unknown}; expected {list(KNOWN_CLAIMS)}")
        for q in self.q_list:
            _check_order(q, 1)
            prime_power_decomposition(q)
        if not self.claims or not self.q_list:
            raise ValueError("a sweep needs at least one claim and one q")
        if self.words_per_config < 1:
            raise ValueError(f"words_per_config = {self.words_per_config} must be >= 1")
        cap = self.max_exclusion_sets_per_q
        if cap is not None and cap < 1:
            raise ValueError(f"max_exclusion_sets_per_q = {cap} must be >= 1")
        if min(self.message_budget, self.distance_budget) < 1:
            raise ValueError("budgets must be >= 1")

    def to_dict(self) -> dict:
        return {
            "claims": list(self.claims),
            "q_list": list(self.q_list),
            "max_exclusion_sets_per_q": self.max_exclusion_sets_per_q,
            "words_per_config": self.words_per_config,
            "seed": self.seed,
            "budgets": {
                "messages": self.message_budget,
                "distance_evals": self.distance_budget,
            },
        }


@dataclass
class SweepRow:
    claim: str
    q: int
    modulus: str = ""
    excluded: str = ""
    k: str = ""
    aj: str = ""
    predicted: str = ""
    oracle: str = ""
    agree: str = ""
    status: str = "agreed"
    witness: str = ""
    detail: str = ""
    sort_key: tuple = dc_field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in ROW_FIELDS}


# the report columns, in CSV order: every SweepRow field but the sort key
ROW_FIELDS = tuple(f.name for f in fields(SweepRow) if f.compare)
# SweepReport.to_json fills these templates: a row's fields in key order at the depth of the rows
_ROW_VALUES = attrgetter(*sorted(ROW_FIELDS))
_ROW_JSON = "    {{\n" + ",\n".join(f'      "{name}": {{}}' for name in sorted(ROW_FIELDS)) + "\n    }}"
_REPORT_JSON = '{{\n  "config": {},\n  "rows": {},\n  "summary": {}\n}}\n'


def _json_value(value) -> str:
    return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)


def _nested_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True) one level deep."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


@dataclass
class SweepReport:
    config: SweepConfig
    rows: list[SweepRow]
    summary: dict

    @property
    def refuted(self) -> bool:
        return self.summary["refuted"] > 0

    def exit_status(self) -> str:
        return "refuted" if self.refuted else "verified"

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rows": [r.to_dict() for r in self.rows],
            "summary": dict(self.summary),
        }

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n": the rows go through a fixed
        template and the C string encoder, as the indent encoder is pure Python."""
        rows = ",\n".join(_ROW_JSON.format(*map(_json_value, _ROW_VALUES(row))) for row in self.rows)
        return _REPORT_JSON.format(_nested_json(self.config.to_dict()),
                                   f"[\n{rows}\n  ]" if rows else "[]", _nested_json(self.summary))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(ROW_FIELDS)
        for row in self.rows:
            d = row.to_dict()
            writer.writerow([d[f] for f in ROW_FIELDS])
        return buf.getvalue()


def run_sweep(config: SweepConfig) -> SweepReport:
    rows: list[SweepRow] = []
    for claim in sorted(set(config.claims)):
        make_rows, min_q, odd_only = _CLAIMS[claim]
        for q in sorted(set(config.q_list)):
            # lemma29 is a statement about integers: it builds no field
            f = q if claim == "lemma29" else field_of_order(q)
            if odd_only and prime_power_decomposition(q)[0] == 2:
                gap = "odd characteristic required"
            elif q < min_q:
                gap = f"q >= {min_q} required"
            else:
                rows.extend(make_rows(f, config))
                continue
            rows.append(_row(claim, f, (), -1, -1, None, detail=gap))
    rows.sort(key=lambda r: r.sort_key)
    summary = {
        "total": len(rows),
        "agreed": sum(r.status == "agreed" for r in rows),
        "refuted": sum(r.status == "refuted" for r in rows),
        "skipped": sum(r.status == "skipped" for r in rows),
    }
    return SweepReport(config, rows, summary)


# -- shared helpers -----------------------------------------------------------


def _modulus_str(f: FiniteField) -> str:
    return "" if f.modulus is None else ",".join(str(c) for c in f.modulus)


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def _encs_str(encs) -> str:
    return ",".join(str(e) for e in encs)


def _row(claim, f, excluded, k: int, aj: int, ok: bool | None, **cols) -> SweepRow:
    """One report row of ``claim`` over the field ``f``.

    q, modulus, the excluded/k/aj strings and the sort key come from the
    arguments; a k or aj of -1 prints empty. ``ok`` sets agree and status,
    and None marks a skipped row. lemma29 passes the bare order q for ``f``,
    so its rows print no modulus.
    """
    q, modulus = (f, "") if isinstance(f, int) else (f.q, _modulus_str(f))
    excl = tuple(int(e) for e in excluded)
    return SweepRow(
        claim=claim,
        q=q,
        modulus=modulus,
        excluded=_encs_str(excl),
        k="" if k < 0 else str(k),
        aj="" if aj < 0 else str(aj),
        agree="" if ok is None else _bool_str(ok),
        status="skipped" if ok is None else "agreed" if ok else "refuted",
        sort_key=(claim, q, excl, k, aj),
        **cols,
    )


def _rng(config: SweepConfig, *tags) -> random.Random:
    return random.Random("/".join([str(config.seed), *map(str, tags)]))


def _exclusion_sets(q: int, l: int, quota: int | None, rng: random.Random):
    """l-subsets of the field encodings, exhaustive or seeded-sampled.

    The sample draws lexicographic ranks, which picks the same subsets as
    sampling the materialised list of all C(q, l) of them.
    """
    total = math.comb(q, l)
    if quota is None or total <= quota:
        return list(combinations(range(q), l))
    if total <= sys.maxsize:
        ranks = rng.sample(range(total), quota)
    else:
        # len(range(total)) overflows; this is the draw random.sample makes
        # for large populations: uniform ranks, duplicates redrawn
        ranks = set()
        while len(ranks) < quota:
            ranks.add(rng.randrange(total))
    return [_unrank_subset(q, l, r) for r in sorted(ranks)]


def _unrank_subset(q: int, l: int, rank: int) -> tuple[int, ...]:
    """The l-subset of range(q) at the given lexicographic rank."""
    out = []
    x = 0
    for left in range(l, 0, -1):
        # subsets starting with x come next, C(q - x - 1, left - 1) of them
        while rank >= (block := math.comb(q - x - 1, left - 1)):
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _code_grid(f: FiniteField, config: SweepConfig, claim: str, k_cap=None):
    """The claim's codes, one list per (l, k): every l in 1..q-3, its exclusion sets
    (the per-q cap is split evenly over the l), and k in 2..q-l-1, at most ``k_cap``."""
    q = f.q
    ls = range(1, q - 2)
    cap = config.max_exclusion_sets_per_q
    quota = None if cap is None else max(1, cap // len(ls))
    for l in ls:
        k_top = q - l - 1 if k_cap is None else min(k_cap, q - l - 1)
        sets = _exclusion_sets(q, l, quota, _rng(config, claim, q, "sets", l))
        for k in range(2, k_top + 1):
            yield [GprsCode(f, excl, k) for excl in sets]


def _degree_k_draws(code: GprsCode, rng: random.Random, count: int):
    """lams and tails of words t(x) + lam*x^k: per word t's k coefficients, then lam."""
    q = code.field.q
    draws = [[rng.randrange(q) for _ in range(code.k)] + [rng.randrange(1, q)] for _ in range(count)]
    return [d[-1] for d in draws], [d[:-1] for d in draws]


def _shifted_draws(code: GprsCode, rng: random.Random, count: int):
    """lams and tails of words lam*(x-a_j)^(q-2) + nu*x^(k-1) + low: per word lam, nu, low's k-1."""
    q = code.field.q
    draws = [[rng.randrange(1, q), rng.randrange(q)] + [rng.randrange(q) for _ in range(code.k - 1)]
             for _ in range(count)]
    return [d[0] for d in draws], [d[2:] + d[1:2] for d in draws]


def _scored_rows(built, mds: bool = False) -> list[SweepRow]:
    """The rows of one slab, from the (args, cols, draw) of rows whose codes share the field,
    n and k; ``_row(*args, **cols)`` makes a row. A row with words to score has the draw
    (code, a_j, lams, tails, expected, miss), a_j None for the degree-k family. The slab's
    words are built and scored by the oracle and, with ``mds``, the MDS scan, one call
    each. The oracle column is the last oracle verdict walked; the first word a check
    rules on differently from ``expected`` refutes the row, with ``miss`` formatted by
    the word, its distance and the oracle and MDS verdicts as the detail."""
    drawn = [(cols, draw) for _, cols, draw in built if draw]
    if drawn:
        codes, a_js, lams, tails, expected, _ = zip(*(draw for _, draw in drawn))
        words = family_words(codes, "deg_k" if a_js[0] is None else "shifted_qminus2", lams, tails, a_js)
        dist = agreement_distances(codes, words)
        deep = dist == codes[0].covering_radius("formula")
        checked = deep
        if mds:
            checked = mds_extension_zeros(codes, words) < 0
        want = np.array(expected)[:, None]
        bad = (deep != want) | (checked != want)
        for r, (cols, draw) in enumerate(drawn):
            j = int(bad[r].argmax()) if bad[r].any() else -1
            cols["oracle"] = _bool_str(deep[r, j])
            if j >= 0:
                word = codes[r].word(words[r, j].tolist()).to_text()
                cols["ok"], cols["detail"] = False, draw[-1].format(
                    word=word, oracle=cols["oracle"], mds=_bool_str(checked[r, j]), distance=dist[r, j])
    return [_row(*args, **cols) for args, cols, _ in built]


# -- claim builders -----------------------------------------------------------


def _thm14_rows(f: FiniteField, config: SweepConfig):
    grid = _code_grid(f, config, "thm14", k_cap=f.q - 3)
    return [row for slab in grid for row in _scored_rows([_thm14_row(c, config) for c in slab], mds=True)]


def _thm14_row(code: GprsCode, config: SweepConfig):
    f = code.field
    excl = tuple(e.encoding for e in code.excluded)
    predicted = thm14_criterion(code)
    claimed = _bool_str(predicted.is_deep_hole)
    ok, detail = True, ""
    if predicted.witness is not None and not validate_verdict(code, predicted):
        ok, detail = False, "criterion witness failed re-validation"
    rng = _rng(config, "thm14", f.q, _encs_str(excl), code.k)
    miss = "word={word} oracle={oracle} mds={mds} criterion=" + claimed
    draw = (code, None, *_degree_k_draws(code, rng, config.words_per_config), predicted.is_deep_hole, miss)
    cols = dict(ok=ok, predicted=claimed, witness=_encs_str(predicted.witness or ()), detail=detail)
    return ("thm14", f, excl, code.k, -1), cols, draw


def _thm15_rows(f: FiniteField, config: SweepConfig):
    grid = _code_grid(f, config, "thm15")
    return [row for slab in grid for row in _scored_rows(
        [_thm15_row(c, a_j, config) for c in slab for a_j in c.excluded])]


def _thm15_row(code: GprsCode, a_j, config: SweepConfig):
    f = code.field
    excl = tuple(e.encoding for e in code.excluded)
    predicted = thm15_criterion(code, a_j)
    claimed = _bool_str(predicted.is_deep_hole)
    ok, detail, draw = True, "", None
    if code.k % f.p == 0 and not predicted.is_deep_hole:
        ok, detail = False, "p | k must force a positive verdict"
    if predicted.witness is not None and not validate_verdict(code, predicted, a_j=a_j):
        ok, detail = False, "criterion witness failed re-validation"
    if ok:
        rng = _rng(config, "thm15", f.q, _encs_str(excl), code.k, a_j.encoding)
        miss = "word={word} oracle={oracle} criterion=" + claimed
        draw = (code, a_j, *_shifted_draws(code, rng, config.words_per_config), predicted.is_deep_hole, miss)
    cols = dict(ok=ok, predicted=claimed, witness=_encs_str(predicted.witness or ()), detail=detail)
    return ("thm15", f, excl, code.k, a_j.encoding), cols, draw


def _thm16_rows(f: FiniteField, config: SweepConfig):
    return [row for k in range(2, f.q - 2) for row in _scored_rows([_thm16_row(f, k, config)])]


def _thm16_row(f: FiniteField, k: int, config: SweepConfig):
    code = GprsCode(f, [0], k)
    predicted = thm14_criterion(code)
    zs_encs = tuple(e.encoding for e in zero_sum_subset(f, k))
    ok, detail, draw = True, "", None
    if predicted.is_deep_hole:
        ok, detail = False, "criterion claims a deep hole exists"
    elif not validate_verdict(code, DeepHoleVerdict(False, "thm14", zs_encs)):
        ok, detail = False, "constructed zero-sum subset rejected"
    else:
        rng = _rng(config, "thm16", f.q, k)
        draws = _degree_k_draws(code, rng, config.words_per_config)
        draw = (code, None, *draws, False, "word={word} is a deep hole")
    cols = dict(ok=ok, predicted="false", witness=_encs_str(zs_encs), detail=detail)
    return ("thm16", f, (0,), k, -1), cols, draw


def _thm17_rows(f: FiniteField, config: SweepConfig):
    return [row for k in range(2, f.q - 1) for row in _scored_rows([_thm17_row(f, k, config)])]


def _thm17_row(f: FiniteField, k: int, config: SweepConfig):
    code = GprsCode(f, [0], k)
    ok, detail, draw = True, "", None
    if not thm15_criterion(code, f.zero).is_deep_hole:
        ok, detail = False, "criterion rejected the shifted family"
    else:
        rng = _rng(config, "thm17", f.q, k)
        draws = _shifted_draws(code, rng, config.words_per_config)
        draw = (code, f.zero, *draws, True, "word={word} distance={distance}")
    return ("thm17", f, (0,), k, 0), dict(ok=ok, predicted="true", detail=detail), draw


def _lemma25_rows(f: FiniteField, config: SweepConfig):
    rows = []
    for slab in _code_grid(f, config, "lemma25"):
        k, formula = slab[0].k, slab[0].minimum_distance("formula")
        if (count := f.q**k) > config.message_budget:
            detail = f"q^k = {count} exceeds message budget"
            rows.extend(_row("lemma25", f, c.excluded, k, -1, None, predicted=str(formula), detail=detail)
                        for c in slab)
            continue
        brutes = minimum_distances(slab, config.message_budget)
        for code, brute, mds in zip(slab, brutes, mds_checks(slab)):
            cols = {"predicted": str(formula), "oracle": str(brute)}
            if not mds.is_mds:
                cols["witness"] = "cols:" + _encs_str(mds.witness)
                cols["detail"] = "generator failed the MDS minor scan"
            rows.append(_row("lemma25", f, code.excluded, k, -1, brute == formula and mds.is_mds, **cols))
    return rows


def _lemma26_rows(f: FiniteField, config: SweepConfig):
    rows = []
    for slab in _code_grid(f, config, "lemma26"):
        k, formula = slab[0].k, slab[0].covering_radius("formula")
        if (evals := f.q**slab[0].length * f.q**k) > config.distance_budget:
            detail = f"{evals} distance evaluations exceed budget"
            rows.extend(_row("lemma26", f, c.excluded, k, -1, None, predicted=str(formula), detail=detail)
                        for c in slab)
            continue
        for code in slab:
            oracle = code.covering_radius("syndrome", budget=config.distance_budget)
            cols = {"predicted": str(formula), "oracle": str(oracle)}
            if oracle != formula:
                cols["detail"] = "covering radius mismatch"
            rows.append(_row("lemma26", f, code.excluded, k, -1, oracle == formula, **cols))
    return rows


def _lemma28_rows(f: FiniteField, config: SweepConfig):
    rows = []
    for k in range(2, f.q - 2):
        encs = tuple(e.encoding for e in zero_sum_subset(f, k))
        ok = validate_verdict(GprsCode(f, [0], k), DeepHoleVerdict(False, "thm14", encs))
        cols = dict(predicted="true", oracle=_bool_str(ok), witness=_encs_str(encs))
        rows.append(_row("lemma28", f, (), k, -1, ok, **cols))
    return rows


def _lemma29_rows(q: int, config: SweepConfig):
    p, _ = prime_power_decomposition(q)
    rows = []
    for t in range(2, q):
        predicted = vp_binomial(q, t)
        value = math.comb(q - 2, t - 1)
        actual = 0
        while value % p == 0:
            value //= p
            actual += 1
        cols = dict(predicted=str(predicted), oracle=str(actual))
        rows.append(_row("lemma29", q, (), t, -1, predicted == actual, **cols))
    return rows


def _thm11_rows(f: FiniteField, config: SweepConfig):
    """Random GRS non-codewords must satisfy n - deg u <= d(u, C) <= n - k, for lengths n drawn
    from 3..q, which the claim table's smallest q = 3 keeps nonempty."""
    q = f.q
    rng = _rng(config, "thm11", q)
    kmax_global = 1
    while q ** (kmax_global + 1) <= config.message_budget:
        kmax_global += 1
    rows = []
    for trial in range(config.words_per_config):
        n = rng.randrange(3, q + 1)
        pts = sorted(rng.sample(range(q), n))
        kmax = min(n - 1, kmax_global)
        k = rng.randrange(1, kmax + 1)
        code = GrsCode(f, pts, k)
        while True:
            word = code.word([rng.randrange(q) for _ in range(n)])
            if not code.is_codeword(word):
                break
        d = code.error_distance(word, method="enumerate", budget=config.message_budget)
        deg = code.interpolant(word).degree
        ok = (n - deg) <= d <= (n - k)
        excluded = tuple(e for e in range(q) if e not in set(pts))
        cols = dict(
            predicted=f"{n - deg}..{n - k}",
            oracle=str(d),
            witness="" if ok else word.to_text(),
            detail=f"n={n} deg={deg}",
        )
        rows.append(_row("thm11", f, excluded, k, trial, ok, **cols))
    return rows


# claim -> (function making its rows, smallest q, odd characteristic required)
_CLAIMS = {
    "thm14": (_thm14_rows, 5, True),
    "thm15": (_thm15_rows, 4, True),
    "thm16": (_thm16_rows, 5, True),
    "thm17": (_thm17_rows, 4, True),
    "lemma25": (_lemma25_rows, 4, False),
    "lemma26": (_lemma26_rows, 4, False),
    "lemma28": (_lemma28_rows, 5, True),
    "lemma29": (_lemma29_rows, 3, True),
    "thm11": (_thm11_rows, 3, False),
}
KNOWN_CLAIMS = tuple(_CLAIMS)
