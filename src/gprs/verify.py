"""Seeded parameter sweeps that machine-check the library's claims.

Each claim tag names one verifiable statement about GPRS codes:

* ``thm14``  degree-k words: subset-sum criterion == mds extension == oracle
* ``thm15``  shifted-power family: product criterion == oracle
* ``thm16``  primitive projective codes never have degree-k deep holes;
             a constructed zero-sum subset certifies why
* ``thm17``  shifted-power words over the primitive projective code are
             always deep holes
* ``lemma25``  minimum distance q-l-k+2 == brute force; generator passes
               the all-minors MDS check
* ``lemma26``  covering radius q-l+1-k == largest coset-leader weight (syndrome BFS)
* ``lemma28``  constructive zero-sum subsets of every size 2..q-3
* ``lemma29``  v_p(C(q-2, t-1)) == v_p(t), against big-integer binomials
* ``thm11``  random non-codewords respect n - deg u <= d(u, GRS) <= n - k

A sweep is deterministic: equal configs produce byte-identical reports.
Exclusion sets are enumerated exhaustively when they fit the per-q cap and
sampled without replacement through a seeded RNG otherwise. Rows whose
exhaustive check would blow a budget are marked skipped, never dropped.
Any criterion/oracle disagreement flips the report to "refuted" and attaches
a machine-readable counterexample to the row.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field as dc_field
from itertools import combinations

from .galois import FiniteField, field_of_order, prime_power_decomposition
from .polynomial import Polynomial
from .matrix import mds_generator_check
from .codes import (
    DEFAULT_DISTANCE_BUDGET,
    DEFAULT_MESSAGE_BUDGET,
    GprsCode,
    GrsCode,
)
from .deepholes import (
    DeepHoleVerdict,
    WordFamilySpec,
    build_family_word,
    is_deep_hole_mds_extension,
    is_deep_hole_oracle,
    thm14_criterion,
    thm15_criterion,
    validate_verdict,
    vp_binomial,
    zero_sum_subset,
)

ROW_FIELDS = (
    "claim",
    "q",
    "modulus",
    "excluded",
    "k",
    "aj",
    "predicted",
    "oracle",
    "agree",
    "status",
    "witness",
    "detail",
)

KNOWN_CLAIMS = (
    "thm14",
    "thm15",
    "thm16",
    "thm17",
    "lemma25",
    "lemma26",
    "lemma28",
    "lemma29",
    "thm11",
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
            prime_power_decomposition(q)

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
        d = asdict(self)
        d.pop("sort_key")
        return d


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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

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
        builder = _CLAIM_BUILDERS[claim]
        for q in sorted(set(config.q_list)):
            rows.extend(builder(q, config))
    rows.sort(key=lambda r: r.sort_key)
    summary = {
        "total": len(rows),
        "agreed": sum(r.status == "agreed" for r in rows),
        "refuted": sum(r.status == "refuted" for r in rows),
        "skipped": sum(r.status == "skipped" for r in rows),
    }
    return SweepReport(config, rows, summary)


# -- shared helpers -----------------------------------------------------------


def _field_for(q: int) -> FiniteField:
    return field_of_order(q)


def _modulus_str(f: FiniteField) -> str:
    return "" if f.modulus is None else ",".join(str(c) for c in f.modulus)


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def _encs_str(encs) -> str:
    return ",".join(str(e) for e in encs)


def _skip_row(claim, q, reason, modulus="") -> SweepRow:
    return SweepRow(
        claim=claim,
        q=q,
        modulus=modulus,
        status="skipped",
        detail=reason,
        sort_key=(claim, q, (), -1, -1),
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


def _per_l_quota(config: SweepConfig, valid_l: int) -> int | None:
    cap = config.max_exclusion_sets_per_q
    if cap is None:
        return None
    return max(1, cap // max(valid_l, 1))


def _random_degree_k_word(code: GprsCode, rng: random.Random):
    f = code.field
    encs = [rng.randrange(f.q) for _ in range(code.k)]
    encs.append(rng.randrange(1, f.q))
    return code.word_from_poly(Polynomial.from_encodings(f, encs))


def _random_shifted_word(code: GprsCode, a_j, rng: random.Random):
    f = code.field
    spec = WordFamilySpec(
        kind="shifted_qminus2",
        lam=f.element(rng.randrange(1, f.q)),
        nu=f.element(rng.randrange(f.q)),
        a_j=a_j,
        low=Polynomial.from_encodings(
            f, [rng.randrange(f.q) for _ in range(code.k - 1)]
        ),
    )
    return build_family_word(code, spec)


def _verdict_str(v: DeepHoleVerdict) -> str:
    return _bool_str(v.is_deep_hole)


# -- claim builders -----------------------------------------------------------


def _thm14_rows(q: int, config: SweepConfig):
    f = _field_for(q)
    if not f.has_odd_characteristic:
        return [_skip_row("thm14", q, "odd characteristic required", _modulus_str(f))]
    if q < 5:
        return [_skip_row("thm14", q, "q >= 5 required", _modulus_str(f))]
    rows = []
    valid_l = [l for l in range(1, q - 2) if min(q - 3, q - l - 1) >= 2]
    quota = _per_l_quota(config, len(valid_l))
    for l in valid_l:
        sets = _exclusion_sets(q, l, quota, _rng(config, "thm14", q, "sets", l))
        for excl in sets:
            for k in range(2, min(q - 3, q - l - 1) + 1):
                code = GprsCode(f, excl, k)
                rows.append(_thm14_one(code, config))
    return rows


def _thm14_one(code: GprsCode, config: SweepConfig) -> SweepRow:
    f = code.field
    excl = tuple(e.encoding for e in code.excluded)
    predicted = thm14_criterion(code)
    rng = _rng(config, "thm14", f.q, _encs_str(excl), code.k)
    status, detail = "agreed", ""
    if predicted.witness is not None and not validate_verdict(code, predicted):
        status, detail = "refuted", "criterion witness failed re-validation"
    oracle_str = ""
    for _ in range(config.words_per_config):
        word = _random_degree_k_word(code, rng)
        o = is_deep_hole_oracle(code, word)
        m = is_deep_hole_mds_extension(code, word)
        oracle_str = _verdict_str(o)
        if (
            o.is_deep_hole != predicted.is_deep_hole
            or m.is_deep_hole != predicted.is_deep_hole
        ):
            status = "refuted"
            detail = (
                f"word={word.to_text()} oracle={_verdict_str(o)} "
                f"mds={_verdict_str(m)} criterion={_verdict_str(predicted)}"
            )
            break
    return SweepRow(
        claim="thm14",
        q=f.q,
        modulus=_modulus_str(f),
        excluded=_encs_str(excl),
        k=str(code.k),
        predicted=_verdict_str(predicted),
        oracle=oracle_str,
        agree=_bool_str(status == "agreed"),
        status=status,
        witness="" if predicted.witness is None else _encs_str(predicted.witness),
        detail=detail,
        sort_key=("thm14", f.q, excl, code.k, -1),
    )


def _thm15_rows(q: int, config: SweepConfig):
    f = _field_for(q)
    if not f.has_odd_characteristic:
        return [_skip_row("thm15", q, "odd characteristic required", _modulus_str(f))]
    if q < 4:
        return [_skip_row("thm15", q, "q >= 4 required", _modulus_str(f))]
    rows = []
    valid_l = [l for l in range(1, q - 2) if q - l - 1 >= 2]
    quota = _per_l_quota(config, len(valid_l))
    for l in valid_l:
        sets = _exclusion_sets(q, l, quota, _rng(config, "thm15", q, "sets", l))
        for excl in sets:
            for k in range(2, q - l - 1 + 1):
                code = GprsCode(f, excl, k)
                for a_j in code.excluded:
                    rows.append(_thm15_one(code, a_j, config))
    return rows


def _thm15_one(code: GprsCode, a_j, config: SweepConfig) -> SweepRow:
    f = code.field
    excl = tuple(e.encoding for e in code.excluded)
    predicted = thm15_criterion(code, a_j)
    rng = _rng(config, "thm15", f.q, _encs_str(excl), code.k, a_j.encoding)
    status, detail = "agreed", ""
    if code.k % f.p == 0 and not predicted.is_deep_hole:
        status, detail = "refuted", "p | k must force a positive verdict"
    if predicted.witness is not None and not validate_verdict(code, predicted, a_j=a_j):
        status, detail = "refuted", "criterion witness failed re-validation"
    oracle_str = ""
    if status == "agreed":
        for _ in range(config.words_per_config):
            word = _random_shifted_word(code, a_j, rng)
            o = is_deep_hole_oracle(code, word)
            oracle_str = _verdict_str(o)
            if o.is_deep_hole != predicted.is_deep_hole:
                status = "refuted"
                detail = (
                    f"word={word.to_text()} oracle={_verdict_str(o)} "
                    f"criterion={_verdict_str(predicted)}"
                )
                break
    return SweepRow(
        claim="thm15",
        q=f.q,
        modulus=_modulus_str(f),
        excluded=_encs_str(excl),
        k=str(code.k),
        aj=str(a_j.encoding),
        predicted=_verdict_str(predicted),
        oracle=oracle_str,
        agree=_bool_str(status == "agreed"),
        status=status,
        witness="" if predicted.witness is None else _encs_str(predicted.witness),
        detail=detail,
        sort_key=("thm15", f.q, excl, code.k, a_j.encoding),
    )


def _thm16_rows(q: int, config: SweepConfig):
    f = _field_for(q)
    if not f.has_odd_characteristic:
        return [_skip_row("thm16", q, "odd characteristic required", _modulus_str(f))]
    if q < 5:
        return [_skip_row("thm16", q, "q >= 5 required", _modulus_str(f))]
    rows = []
    for k in range(2, q - 2):
        code = GprsCode(f, [0], k)
        predicted = thm14_criterion(code)
        zs = zero_sum_subset(f, k)
        zs_encs = tuple(e.encoding for e in zs)
        status, detail = "agreed", ""
        if predicted.is_deep_hole:
            status, detail = "refuted", "criterion claims a deep hole exists"
        elif not validate_verdict(
            code, DeepHoleVerdict(False, "thm14", zs_encs)
        ):
            status, detail = "refuted", "constructed zero-sum subset rejected"
        oracle_str = ""
        if status == "agreed":
            rng = _rng(config, "thm16", q, k)
            for _ in range(config.words_per_config):
                word = _random_degree_k_word(code, rng)
                o = is_deep_hole_oracle(code, word)
                oracle_str = _verdict_str(o)
                if o.is_deep_hole:
                    status = "refuted"
                    detail = f"word={word.to_text()} is a deep hole"
                    break
        rows.append(
            SweepRow(
                claim="thm16",
                q=q,
                modulus=_modulus_str(f),
                excluded="0",
                k=str(k),
                predicted="false",
                oracle=oracle_str,
                agree=_bool_str(status == "agreed"),
                status=status,
                witness=_encs_str(zs_encs),
                detail=detail,
                sort_key=("thm16", q, (0,), k, -1),
            )
        )
    return rows


def _thm17_rows(q: int, config: SweepConfig):
    f = _field_for(q)
    if not f.has_odd_characteristic:
        return [_skip_row("thm17", q, "odd characteristic required", _modulus_str(f))]
    if q < 4:
        return [_skip_row("thm17", q, "q >= 4 required", _modulus_str(f))]
    rows = []
    for k in range(2, q - 1):
        code = GprsCode(f, [0], k)
        predicted = thm15_criterion(code, f.zero)
        status, detail = "agreed", ""
        if not predicted.is_deep_hole:
            status, detail = "refuted", "criterion rejected the shifted family"
        oracle_str = ""
        if status == "agreed":
            rng = _rng(config, "thm17", q, k)
            for _ in range(config.words_per_config):
                word = _random_shifted_word(code, f.zero, rng)
                o = is_deep_hole_oracle(code, word)
                oracle_str = _verdict_str(o)
                if not o.is_deep_hole:
                    status = "refuted"
                    detail = f"word={word.to_text()} distance={o.distance}"
                    break
        rows.append(
            SweepRow(
                claim="thm17",
                q=q,
                modulus=_modulus_str(f),
                excluded="0",
                k=str(k),
                aj="0",
                predicted="true",
                oracle=oracle_str,
                agree=_bool_str(status == "agreed"),
                status=status,
                detail=detail,
                sort_key=("thm17", q, (0,), k, 0),
            )
        )
    return rows


def _code_grid(q: int, config: SweepConfig, claim: str):
    f = _field_for(q)
    valid_l = [l for l in range(1, q - 2) if q - l - 1 >= 2]
    quota = _per_l_quota(config, len(valid_l))
    for l in valid_l:
        sets = _exclusion_sets(q, l, quota, _rng(config, claim, q, "sets", l))
        for excl in sets:
            for k in range(2, q - l - 1 + 1):
                yield GprsCode(f, excl, k)


def _lemma25_rows(q: int, config: SweepConfig):
    f = _field_for(q)
    if q < 4:
        return [_skip_row("lemma25", q, "q >= 4 required", _modulus_str(f))]
    rows = []
    for code in _code_grid(q, config, "lemma25"):
        excl = tuple(e.encoding for e in code.excluded)
        formula = code.minimum_distance("formula")
        key = ("lemma25", q, excl, code.k, -1)
        count = q**code.k
        if count > config.message_budget:
            rows.append(
                SweepRow(
                    claim="lemma25",
                    q=q,
                    modulus=_modulus_str(f),
                    excluded=_encs_str(excl),
                    k=str(code.k),
                    predicted=str(formula),
                    status="skipped",
                    detail=f"q^k = {count} exceeds message budget",
                    sort_key=key,
                )
            )
            continue
        brute = code.minimum_distance("bruteforce", budget=config.message_budget)
        mds = mds_generator_check(code.generator, code.k)
        ok = formula == brute and mds.is_mds
        rows.append(
            SweepRow(
                claim="lemma25",
                q=q,
                modulus=_modulus_str(f),
                excluded=_encs_str(excl),
                k=str(code.k),
                predicted=str(formula),
                oracle=str(brute),
                agree=_bool_str(ok),
                status="agreed" if ok else "refuted",
                witness="" if mds.is_mds else "cols:" + _encs_str(mds.witness),
                detail="" if mds.is_mds else "generator failed the MDS minor scan",
                sort_key=key,
            )
        )
    return rows


def _lemma26_rows(q: int, config: SweepConfig):
    f = _field_for(q)
    if q < 4:
        return [_skip_row("lemma26", q, "q >= 4 required", _modulus_str(f))]
    rows = []
    for code in _code_grid(q, config, "lemma26"):
        excl = tuple(e.encoding for e in code.excluded)
        formula = code.covering_radius("formula")
        key = ("lemma26", q, excl, code.k, -1)
        evals = q**code.length * q**code.k
        if evals > config.distance_budget:
            rows.append(
                SweepRow(
                    claim="lemma26",
                    q=q,
                    modulus=_modulus_str(f),
                    excluded=_encs_str(excl),
                    k=str(code.k),
                    predicted=str(formula),
                    status="skipped",
                    detail=f"{evals} distance evaluations exceed budget",
                    sort_key=key,
                )
            )
            continue
        oracle = code.covering_radius("syndrome", budget=config.distance_budget)
        ok = formula == oracle
        rows.append(
            SweepRow(
                claim="lemma26",
                q=q,
                modulus=_modulus_str(f),
                excluded=_encs_str(excl),
                k=str(code.k),
                predicted=str(formula),
                oracle=str(oracle),
                agree=_bool_str(ok),
                status="agreed" if ok else "refuted",
                detail="" if ok else "covering radius mismatch",
                sort_key=key,
            )
        )
    return rows


def _lemma28_rows(q: int, config: SweepConfig):
    f = _field_for(q)
    if not f.has_odd_characteristic:
        return [_skip_row("lemma28", q, "odd characteristic required", _modulus_str(f))]
    if q < 5:
        return [_skip_row("lemma28", q, "q >= 5 required", _modulus_str(f))]
    rows = []
    for k in range(2, q - 2):
        subset = zero_sum_subset(f, k)
        encs = tuple(e.encoding for e in subset)
        acc = 0
        for e in encs:
            acc = f.add_enc(acc, e)
        ok = acc == 0 and len(set(encs)) == k and all(1 <= e < q for e in encs)
        rows.append(
            SweepRow(
                claim="lemma28",
                q=q,
                modulus=_modulus_str(f),
                k=str(k),
                predicted="true",
                oracle=_bool_str(ok),
                agree=_bool_str(ok),
                status="agreed" if ok else "refuted",
                witness=_encs_str(encs),
                sort_key=("lemma28", q, (), k, -1),
            )
        )
    return rows


def _lemma29_rows(q: int, config: SweepConfig):
    p, _ = prime_power_decomposition(q)
    if p == 2:
        return [_skip_row("lemma29", q, "odd characteristic required")]
    rows = []
    for t in range(2, q):
        predicted = vp_binomial(q, t)
        value = math.comb(q - 2, t - 1)
        actual = 0
        while value % p == 0:
            value //= p
            actual += 1
        ok = predicted == actual
        rows.append(
            SweepRow(
                claim="lemma29",
                q=q,
                k=str(t),
                predicted=str(predicted),
                oracle=str(actual),
                agree=_bool_str(ok),
                status="agreed" if ok else "refuted",
                sort_key=("lemma29", q, (), t, -1),
            )
        )
    return rows


def check_liwan_bounds(
    q: int,
    trials: int,
    seed: int,
    message_budget: int = DEFAULT_MESSAGE_BUDGET,
) -> list[SweepRow]:
    """Random GRS non-codewords must satisfy n - deg u <= d(u, C) <= n - k."""
    f = _field_for(q)
    rng = random.Random(f"{seed}/thm11/{q}")
    kmax_global = 1
    while q ** (kmax_global + 1) <= message_budget:
        kmax_global += 1
    rows = []
    for trial in range(trials):
        n = rng.randrange(3, q + 1)
        pts = sorted(rng.sample(range(q), n))
        kmax = min(n - 1, kmax_global)
        k = rng.randrange(1, kmax + 1)
        code = GrsCode(f, pts, k)
        while True:
            word = code.word([rng.randrange(q) for _ in range(n)])
            if not code.is_codeword(word):
                break
        d = code.error_distance(word, method="enumerate", budget=message_budget)
        deg = code.interpolant(word).degree
        ok = (n - deg) <= d <= (n - k)
        excluded = tuple(e for e in range(q) if e not in set(pts))
        rows.append(
            SweepRow(
                claim="thm11",
                q=q,
                modulus=_modulus_str(f),
                excluded=_encs_str(excluded),
                k=str(k),
                aj=str(trial),
                predicted=f"{n - deg}..{n - k}",
                oracle=str(d),
                agree=_bool_str(ok),
                status="agreed" if ok else "refuted",
                witness="" if ok else word.to_text(),
                detail=f"n={n} deg={deg}",
                sort_key=("thm11", q, excluded, k, trial),
            )
        )
    return rows


def _thm11_rows(q: int, config: SweepConfig):
    return check_liwan_bounds(
        q, config.words_per_config, config.seed, config.message_budget
    )


_CLAIM_BUILDERS = {
    "thm14": _thm14_rows,
    "thm15": _thm15_rows,
    "thm16": _thm16_rows,
    "thm17": _thm17_rows,
    "lemma25": _lemma25_rows,
    "lemma26": _lemma26_rows,
    "lemma28": _lemma28_rows,
    "lemma29": _lemma29_rows,
    "thm11": _thm11_rows,
}
