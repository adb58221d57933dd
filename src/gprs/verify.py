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

thm14..thm17 rows are families lam * base + codeword, decided by the base word
(x^k, or (x - a_j)^(q-2)), since scaling and adding a codeword move neither the
error distance nor the MDS-extension verdict: a row covers its whole family.
Its sampled words are still built and each is class-checked against the base
word; ``run_sweep`` scores the family rows of one (q, l, k) together, in one
pass (``_scored_rows``) that also decides their criteria: each row's first
witness comes from the family bits of its oracle verdicts
(``codes.family_verdicts``), is made its verdict (``criterion_verdict``) and
is re-checked by its one scalar definition (``validate_verdict``). The words
come from one seeded stream per slab (``_draws``): a (claim, q, l, k) slab of
thm14/thm15 rows, or one thm16/thm17 row, draws all its words before any of
its criteria are decided, so no row's words depend on another's verdict.

Each claim is one entry of the claim table ``_CLAIMS``: the function making
its rows (or, for thm14..thm17, its slabs of family row specs), the smallest q
its statement covers, whether it needs odd characteristic, and for a family
claim the row function that judges a row's criterion verdict. ``run_sweep``
gives every q outside a claim's hypotheses one skipped row that names the
failed hypothesis, testing odd characteristic first. thm14, thm15, lemma25 and
lemma26 share one code grid: every l in 1..q-3, the exclusion sets of each l,
and every k in 2..q-l-1 (thm14 stops at q-3).

A sweep is deterministic: equal configs produce byte-identical reports.
A cap of N exclusion sets gives each l in 1..q-3 a quota of max(1, N // (q-3))
sets: its sets are enumerated exhaustively when they fit the quota and sampled
without replacement through a seeded RNG otherwise, so one q can take more than
N sets (N = 8 at q = 13 takes 10). Rows whose exhaustive check would blow a
budget are marked skipped, never dropped. Any criterion/oracle disagreement
flips the report to "refuted" and attaches a machine-readable counterexample to
the row.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field as dc_field, fields
from itertools import combinations, groupby
from json.encoder import encode_basestring_ascii
from operator import attrgetter, index

import numpy as np

from .galois import FiniteField, _check_order, field_of_order, prime_power_decomposition
from .codes import (
    DEFAULT_DISTANCE_BUDGET,
    DEFAULT_MESSAGE_BUDGET,
    GprsCode,
    GrsCode,
    _base_words,
    _distinct,
    family_verdicts,
    mds_checks,
    minimum_distances,
)
from .deepholes import (
    DeepHoleVerdict,
    criterion_verdict,
    family_words,
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
        # integers by ``operator.index``: numpy integers are stored as plain ints, and floats
        # and strings raise TypeError; a None cap stays None
        object.__setattr__(self, "claims", tuple(self.claims))
        object.__setattr__(self, "q_list", tuple(map(index, self.q_list)))
        for name in ("words_per_config", "seed", "message_budget", "distance_budget", "max_exclusion_sets_per_q"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, index(value))
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


# the report columns, in CSV order: every SweepRow field but the sort key; q, the second, is the
# one integer, and the rest are strings
ROW_FIELDS = tuple(f.name for f in fields(SweepRow) if f.compare)
_ROW_VALUES = attrgetter(*ROW_FIELDS)
# SweepReport.to_json fills these templates: a row's fields in key order at the depth of the
# rows, each slot the field's place in ROW_FIELDS
_ROW_JSON = "    {{\n" + ",\n".join(f'      "{name}": {{{ROW_FIELDS.index(name)}}}'
                                   for name in sorted(ROW_FIELDS)) + "\n    }}"
_REPORT_JSON = '{{\n  "config": {},\n  "rows": {},\n  "summary": {}\n}}\n'


def _row_json(row: SweepRow) -> str:
    """The row in ``_ROW_JSON``: its strings by the C string encoder, and q as the integer it is."""
    claim, q, *strings = _ROW_VALUES(row)
    return _ROW_JSON.format(encode_basestring_ascii(claim), q, *map(encode_basestring_ascii, strings))


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
        rows = ",\n".join(map(_row_json, self.rows))
        return _REPORT_JSON.format(_nested_json(self.config.to_dict()),
                                   f"[\n{rows}\n  ]" if rows else "[]", _nested_json(self.summary))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(ROW_FIELDS)
        writer.writerows(map(_ROW_VALUES, self.rows))
        return buf.getvalue()


def run_sweep(config: SweepConfig) -> SweepReport:
    rows: list[SweepRow] = []
    families = {}  # q -> per family claim, its slabs of row specs in (l, k) order
    for claim in sorted(set(config.claims)):
        make_rows, min_q, odd_only, row_function = _CLAIMS[claim]
        for q in sorted(set(config.q_list)):
            # lemma29 is a statement about integers: it builds no field
            f = q if claim == "lemma29" else field_of_order(q)
            if odd_only and prime_power_decomposition(q)[0] == 2:
                gap = "odd characteristic required"
            elif q < min_q:
                gap = f"q >= {min_q} required"
            elif row_function:
                families.setdefault(q, []).append(make_rows(f, config))
                continue
            else:
                rows.extend(make_rows(f, config))
                continue
            rows.append(_row(claim, f, (), -1, -1, None, detail=gap))
    # the family rows of one (q, l, k) share the field, n and k: one scoring pass each
    for slabs in families.values():
        for _, group in groupby(heapq.merge(*slabs, key=_slab_key), key=_slab_key):
            rows.extend(_scored_rows([row for slab in group for row in slab]))
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
    """The claim's codes, one list per (l, k): every l in 1..q-3, its exclusion sets (at most
    max(1, cap // (q-3)) of them), and k in 2..q-l-1, at most ``k_cap``."""
    q = f.q
    ls = range(1, q - 2)
    cap = config.max_exclusion_sets_per_q
    quota = None if cap is None else max(1, cap // len(ls))
    for l in ls:
        k_top = q - l - 1 if k_cap is None else min(k_cap, q - l - 1)
        sets = _exclusion_sets(q, l, quota, _rng(config, claim, q, "sets", l))
        for k in range(2, k_top + 1):
            yield [GprsCode(f, excl, k) for excl in sets]


def _draws(rng: random.Random, q: int, rows: int, words: int, k: int) -> np.ndarray:
    """A slab's family draws, (rows, words, k + 1): per word its tail coefficients t_0..t_(k-1),
    then lam. All the tails come first in one call, then all the scales lam in 1..q-1."""
    draws = np.empty((rows, words, k + 1), dtype=np.intp)
    draws[..., :k] = np.reshape(rng.choices(range(q), k=rows * words * k), (rows, words, k))
    draws[..., k] = np.reshape(rng.choices(range(1, q), k=rows * words), (rows, words))
    return draws


def _slab_key(slab) -> tuple[int, int]:
    """(l, k) of a slab of family rows, from its first row's code."""
    code = slab[0][1]
    return code.l, code.k


def _scored_rows(specs) -> list[SweepRow]:
    """The rows of one group, from the specs (claim, code, a_j, words) of family rows whose codes
    share the field, n and k: a_j None for the degree-k family, and ``words`` the row's block of
    its slab's ``_draws``, per word its tail coefficients t_0..t_(k-1), then lam.

    A family word is lam times its row's base word plus a codeword, and neither scaling by
    lam != 0 nor adding a codeword moves the error distance or the MDS-extension verdict. So the
    base word decides the whole family. One ranking of the group's distinct codes
    (``_distinct``) serves the base words (``_base_words``), the words (``family_words``: every
    sampled word is still built and class-checked) and ``family_verdicts``, which gives each
    base word its oracle and, on thm14 rows, its MDS scan, and finds each row's first criterion
    witness. ``criterion_verdict`` makes that witness the row's criterion verdict, which its
    claim's row function (``_thm14_row`` .. ``_thm17_row``) judges. A row judged with an
    expectation is refuted by the first word outside its family, or by any word when a base
    verdict differs from it: an outside word with a detail that says so, else the row's miss
    formatted by the word, the base word's distance and its oracle and MDS verdicts. The rows
    share their q, modulus and k strings, and each code's excluded string."""
    claims, codes, a_js, draws = zip(*specs)
    f, k, n = codes[0].field, codes[0].k, codes[0].n
    draws = np.stack(draws)
    lams, a = draws[..., -1], np.array([-1 if a_j is None else a_j.encoding for a_j in a_js])
    mds = np.array([claim == "thm14" for claim in claims])
    points, index = _distinct(codes)
    bases = _base_words(f, k, points[index, :n], a)
    words = family_words(codes, bases, lams, draws[..., :-1], points[index])
    inside, dist, zeros, witnesses = family_verdicts(codes, a, bases, words, lams, mds, (points, index))
    deep = dist == codes[0].covering_radius("formula")
    checked = deep.copy()
    checked[mds] = zeros < 0
    q, modulus, k_text, excluded, rows = f.q, _modulus_str(f), str(k), {}, []
    for r, ((claim, code, a_j, _), at, aj, d, c, whole) in enumerate(zip(
            specs, index.tolist(), a.tolist(), deep.tolist(), checked.tolist(), inside.all(axis=1).tolist())):
        predicted = criterion_verdict(code, a_j, witnesses[r])
        claimed, witness, detail, expected = _CLAIMS[claim][3](code, a_j, predicted)
        oracle = ""
        if expected is not None:
            want, miss = expected
            oracle = _bool_str(d)
            if d != want or c != want or not whole:
                j = int((~inside[r] | (d != want) | (c != want)).argmax())
                word = code.word(words[r, j].tolist()).to_text()
                detail = f"word={word} is outside its family" if not inside[r, j] else miss.format(
                    word=word, oracle=oracle, mds=_bool_str(c), distance=dist[r])
        if at not in excluded:
            excl = tuple(e.encoding for e in code.excluded)
            excluded[at] = excl, _encs_str(excl)
        excl, excl_text = excluded[at]
        agree, status = ("false", "refuted") if detail else ("true", "agreed")
        rows.append(SweepRow(claim, q, modulus, excl_text, k_text, "" if aj < 0 else str(aj), claimed, oracle,
                             agree, status, _encs_str(witness), detail, (claim, q, excl, k, aj)))
    return rows


# -- claim builders -----------------------------------------------------------


def _slab_draws(config: SweepConfig, claim: str, slab, rows: int) -> np.ndarray:
    """``_draws`` of ``rows`` family rows of a (claim, q, l, k) slab of codes, from its one stream."""
    q, l, k = slab[0].field.q, len(slab[0].excluded), slab[0].k
    return _draws(_rng(config, claim, q, l, k), q, rows, config.words_per_config, k)


def _thm14_rows(f: FiniteField, config: SweepConfig):
    for slab in _code_grid(f, config, "thm14", k_cap=f.q - 3):
        yield [("thm14", c, None, words) for c, words in zip(slab, _slab_draws(config, "thm14", slab, len(slab)))]


def _thm14_row(code: GprsCode, a_j, predicted: DeepHoleVerdict):
    """A family claim's row function: from the row's code, a_j and criterion verdict, the
    predicted and witness columns, a detail that refutes the row ("" for none), and the base
    verdict the row expects with its miss, or None for a row left unscored. thm14 re-validates
    the witness and checks the verdict against the oracle and the MDS scan."""
    claimed = _bool_str(predicted.is_deep_hole)
    detail = ""
    if predicted.witness is not None and not validate_verdict(code, predicted):
        detail = "criterion witness failed re-validation"
    miss = "word={word} oracle={oracle} mds={mds} criterion=" + claimed
    return claimed, predicted.witness or (), detail, (predicted.is_deep_hole, miss)


def _thm15_rows(f: FiniteField, config: SweepConfig):
    for slab in _code_grid(f, config, "thm15"):
        draws = iter(_slab_draws(config, "thm15", slab, len(slab) * len(slab[0].excluded)))
        yield [("thm15", c, a_j, next(draws)) for c in slab for a_j in c.excluded]


def _thm15_row(code: GprsCode, a_j, predicted: DeepHoleVerdict):
    claimed = _bool_str(predicted.is_deep_hole)
    detail = ""
    if code.k % code.field.p == 0 and not predicted.is_deep_hole:
        detail = "p | k must force a positive verdict"
    if predicted.witness is not None and not validate_verdict(code, predicted, a_j=a_j):
        detail = "criterion witness failed re-validation"
    expected = None if detail else (predicted.is_deep_hole, "word={word} oracle={oracle} criterion=" + claimed)
    return claimed, predicted.witness or (), detail, expected


def _thm16_rows(f: FiniteField, config: SweepConfig):
    for k in range(2, f.q - 2):
        (words,) = _draws(_rng(config, "thm16", f.q, k), f.q, 1, config.words_per_config, k)
        yield [("thm16", GprsCode(f, [0], k), None, words)]


def _thm16_row(code: GprsCode, a_j, predicted: DeepHoleVerdict):
    zs_encs = tuple(e.encoding for e in zero_sum_subset(code.field, code.k))
    detail = ""
    if predicted.is_deep_hole:
        detail = "criterion claims a deep hole exists"
    elif not validate_verdict(code, DeepHoleVerdict(False, "thm14", zs_encs)):
        detail = "constructed zero-sum subset rejected"
    return "false", zs_encs, detail, None if detail else (False, "word={word} is a deep hole")


def _thm17_rows(f: FiniteField, config: SweepConfig):
    for k in range(2, f.q - 1):
        (words,) = _draws(_rng(config, "thm17", f.q, k), f.q, 1, config.words_per_config, k)
        yield [("thm17", GprsCode(f, [0], k), f.zero, words)]


def _thm17_row(code: GprsCode, a_j, predicted: DeepHoleVerdict):
    detail = "" if predicted.is_deep_hole else "criterion rejected the shifted family"
    return "true", (), detail, None if detail else (True, "word={word} distance={distance}")


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
    from 3..q, which the claim table's smallest q = 3 keeps nonempty. A q above the message
    budget cannot enumerate even k = 1: it gives one skipped row and draws nothing."""
    q = f.q
    if q > config.message_budget:
        detail = f"q^k = {q} codewords at k = 1 exceed message budget {config.message_budget}"
        return [_row("thm11", f, (), -1, -1, None, detail=detail)]
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
        excluded = tuple(sorted(set(range(q)).difference(pts)))
        cols = dict(
            predicted=f"{n - deg}..{n - k}",
            oracle=str(d),
            witness="" if ok else word.to_text(),
            detail=f"n={n} deg={deg}",
        )
        rows.append(_row("thm11", f, excluded, k, trial, ok, **cols))
    return rows


# claim -> (function making its rows, smallest q, odd characteristic required, and for a family
# claim, whose function yields slabs of family row specs in (l, k) order that run_sweep scores,
# its row function; None for a claim whose function makes its rows)
_CLAIMS = {
    "thm14": (_thm14_rows, 5, True, _thm14_row),
    "thm15": (_thm15_rows, 4, True, _thm15_row),
    "thm16": (_thm16_rows, 5, True, _thm16_row),
    "thm17": (_thm17_rows, 4, True, _thm17_row),
    "lemma25": (_lemma25_rows, 4, False, None),
    "lemma26": (_lemma26_rows, 4, False, None),
    "lemma28": (_lemma28_rows, 5, True, None),
    "lemma29": (_lemma29_rows, 3, True, None),
    "thm11": (_thm11_rows, 3, False, None),
}
KNOWN_CLAIMS = tuple(_CLAIMS)
