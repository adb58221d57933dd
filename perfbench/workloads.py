"""The benchmark's workloads: seeded input streams and their correctness checks.

Every workload is an endless, seed-determined stream of items. An item is
the unit a user waits for: one sweep pass (one or two `gprs sweep`
invocations) or one interactive request. Items are run in-process through
`gprs.cli.main`, so the library sees nothing but the generated argv.

* `sweep_deephole`: the thm14/thm15 acceptance traffic on prime fields, GF(7)
  exhaustive plus GF(11) seeded-sampled. The agreement oracle, the MDS minor
  scan and family-word building do the work; covering radii come from the
  formula only, so a faster covering-radius oracle leaves it unchanged.
* `sweep_covering`: lemma25/lemma26 over GF(5), GF(7) and GF(8). The numpy
  codeword matrix and the brute-force covering radius do the work, GF(8) on
  the table path; some rows are budget-skipped. It makes almost no
  polynomial or deep-hole calls.
* `queries`: single `distance` and `deephole` requests on short codes over
  GF(11) .. GF(343). Each request parses its spec and builds a fresh code,
  so per-code set-up is paid every time instead of being amortised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field

from gprs import (
    DeepHoleVerdict,
    GprsCode,
    WordFamilySpec,
    build_family_word,
    field_of_order,
    validate_verdict,
)
from gprs.polynomial import Polynomial


@dataclass(frozen=True)
class Item:
    """One unit of user-visible work: the CLI calls it takes, and its context."""

    calls: tuple[tuple[str, ...], ...]
    units: int
    meta: dict = field(default_factory=dict, compare=False)


@dataclass
class Outcome:
    """What one CLI call returned."""

    argv: tuple[str, ...]
    exit_code: int | None
    stdout: str
    error: str = ""


def run_item(main, item: Item) -> tuple[float, list[Outcome]]:
    """Run an item's calls through `main`; return in-call seconds and outcomes."""
    elapsed = 0.0
    outcomes = []
    for argv in item.calls:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(argv))
                error = ""
            except Exception:  # a crash is a failed operation, not a crashed run
                code, error = None, traceback.format_exc()
            elapsed += time.perf_counter() - start
        outcomes.append(Outcome(argv, code, out.getvalue(), error or err.getvalue()))
    return elapsed, outcomes


def argv_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        for argv in item.calls:
            h.update("\x1f".join(argv).encode() + b"\n")
    return h.hexdigest()


def output_digest(outcome_lists) -> str:
    h = hashlib.sha256()
    for outcomes in outcome_lists:
        for o in outcomes:
            h.update(f"{o.exit_code}\n".encode() + o.stdout.encode())
    return h.hexdigest()


# -- sweeps -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCall:
    args: tuple[str, ...]
    total: int
    skipped: int


class SweepWorkload:
    """Repeated sweep passes; pass i of seed s runs with `--seed s*1000+i`.

    Passes are kept to a few seconds (fewer random words per row, a lower
    distance budget than the CLI default) so that a run holds ten or more of
    them and the median pass rides out bursts of machine noise. Nearly all of
    a thm14/thm15 row's work is per word, so fewer words keep its profile.
    """

    min_items = 1

    def __init__(self, name: str, fields: tuple[int, ...], calls: tuple[SweepCall, ...]):
        self.name = name
        self.fields = fields
        self.calls = calls

    def items(self, seed: int):
        i = 0
        while True:
            sweep_seed = str(seed * 1000 + i)
            yield Item(
                tuple(("sweep", *c.args, "--seed", sweep_seed) for c in self.calls),
                units=sum(c.total for c in self.calls),
            )
            i += 1

    def check(self, item: Item, outcomes: list[Outcome]) -> list[str]:
        """Problems found in one pass: exit codes, refutations, row counts."""
        problems = []
        for call, o in zip(self.calls, outcomes):
            if o.exit_code != 0:
                problems.append(f"{' '.join(o.argv)}: exit {o.exit_code} {o.error.strip()}")
                continue
            summary = json.loads(o.stdout)["summary"]
            if summary["refuted"]:
                problems.append(f"{' '.join(o.argv)}: {summary['refuted']} refuted rows")
            if (summary["total"], summary["skipped"]) != (call.total, call.skipped):
                problems.append(
                    f"{' '.join(o.argv)}: {summary['total']} rows / {summary['skipped']} "
                    f"skipped, expected {call.total} / {call.skipped}"
                )
        return problems

    @staticmethod
    def skipped(outcomes: list[Outcome]) -> int:
        return sum(
            json.loads(o.stdout)["summary"]["skipped"] for o in outcomes if o.exit_code == 0
        )


SWEEP_DEEPHOLE = SweepWorkload(
    "sweep_deephole",
    fields=(7, 11),
    calls=(
        SweepCall(("--claims", "thm14,thm15", "--q-list", "7", "--words", "5"),
                  total=693, skipped=0),
        SweepCall(("--claims", "thm14,thm15", "--q-list", "11", "--max-sets", "8", "--words", "5"),
                  total=155, skipped=0),
    ),
)

SWEEP_COVERING = SweepWorkload(
    "sweep_covering",
    fields=(5, 7, 8),
    calls=(
        SweepCall(("--claims", "lemma25,lemma26", "--q-list", "5,7,8", "--max-sets", "8",
                   "--distance-budget", "20000000"),
                  total=94, skipped=23),
    ),
)


# -- interactive queries --------------------------------------------------------

QUERY_FIELDS = (11, 13, 25, 27, 49, 81, 343)
# thm15's family test tries every scale 1..q-1, so it stays on fields small
# enough for an interactive answer.
THM15_FIELDS = (11, 13, 25, 27, 49)
# Work caps per request kind, keeping each answer interactive (milliseconds).
MAX_AGREEMENT_SUBSETS = 35  # C(n, k) interpolations for `distance --method agreement`
MAX_CODEWORDS = 30_000  # q^k rows of the codeword matrix for `--method oracle`
MAX_MINORS = 56  # C(n+1, k+1) minors for `--method mds`
MAX_CRITERION_SUBSETS = 252  # C(n, k) subsets for thm14/thm15


def _fits(kind: str, q: int, n: int, k: int) -> bool:
    if kind == "distance":
        return math.comb(n, k) <= MAX_AGREEMENT_SUBSETS
    if kind == "oracle":
        return q**k <= MAX_CODEWORDS
    if kind == "mds":
        return math.comb(n + 1, k + 1) <= MAX_MINORS
    if kind == "thm14":
        return k <= q - 3 and math.comb(n, k) <= MAX_CRITERION_SUBSETS
    return math.comb(n, k) <= MAX_CRITERION_SUBSETS


def _sizes(q: int):
    return [(n, k) for n in range(6, min(12, q - 1) + 1) for k in range(2, n)]


# One block of the stream holds every (kind, field) pair that fits the caps,
# a kind once per slot, and is shuffled per block: the mix, and with it the
# latency tail, is then the same for every seed.
QUERY_SLOTS = ("distance",) * 3 + ("oracle", "mds") * 2 + ("thm14",) * 3 + ("thm15",)
QUERY_BLOCK = tuple(
    (kind, q)
    for kind in QUERY_SLOTS
    for q in (THM15_FIELDS if kind == "thm15" else QUERY_FIELDS)
    if any(_fits(kind, q, n, k) for n, k in _sizes(q))
)


def _random_poly(f, rng: random.Random, length: int) -> Polynomial:
    return Polynomial.from_encodings(f, [rng.randrange(f.q) for _ in range(length)])


def make_request(seed: int, index: int) -> Item:
    """Request `index` of the stream for `seed`; depends on nothing else."""
    block, slot = divmod(index, len(QUERY_BLOCK))
    pairs = list(QUERY_BLOCK)
    random.Random(f"queries/{seed}/block/{block}").shuffle(pairs)
    kind, q = pairs[slot]
    rng = random.Random(f"queries/{seed}/{index}")
    n, k = rng.choice([(n, k) for n, k in _sizes(q) if _fits(kind, q, n, k)])
    f = field_of_order(q)
    d_set = set(rng.sample(range(q), n))
    excluded = [e for e in range(q) if e not in d_set]
    code = GprsCode(f, excluded, k)
    spec = code.spec_string()
    meta = {"kind": kind, "q": q, "spec": spec}
    if kind == "thm15":
        a_j = rng.choice(code.excluded)
        family = WordFamilySpec(
            "shifted_qminus2",
            lam=f.element(rng.randrange(1, q)),
            nu=f.element(rng.randrange(q)),
            a_j=a_j,
            low=_random_poly(f, rng, k - 1),
        )
        word = build_family_word(code, family).to_text()
        meta["aj"] = a_j.encoding
        argv = ("deephole", "--code", spec, "--word", word, "--method", "thm15",
                "--aj", str(a_j.encoding))
    else:
        if kind == "thm14" or rng.random() < 0.5:
            family = WordFamilySpec(
                "deg_k",
                lam=f.element(rng.randrange(1, q)),
                nu=f.element(rng.randrange(q)),
                low=_random_poly(f, rng, k - 1),
            )
            word = build_family_word(code, family).to_text()
        else:
            word = ",".join(str(rng.randrange(q)) for _ in range(code.length))
        if kind == "distance":
            argv = ("distance", "--code", spec, "--word", word, "--method", "agreement")
        else:
            argv = ("deephole", "--code", spec, "--word", word, "--method", kind)
    meta["word"] = word
    return Item((argv + ("--format", "json"),), units=1, meta=meta)


class QueryWorkload:
    """A closed-loop stream of single requests from one client."""

    name = "queries"
    fields = QUERY_FIELDS
    min_items = 1000  # the digested prefix, and enough samples for p99

    def items(self, seed: int):
        i = 0
        while True:
            yield make_request(seed, i)
            i += 1

    def check(self, item: Item, outcomes: list[Outcome]) -> list[str]:
        """Problems in one response; negative witnesses are re-validated."""
        (o,) = outcomes
        meta = item.meta
        where = f"{meta['kind']} {meta['spec'][:60]}... word={meta['word']}"
        if o.exit_code not in (0, 1):
            return [f"{where}: exit {o.exit_code} {o.error.strip()}"]
        rec = json.loads(o.stdout)
        code = GprsCode.from_spec(meta["spec"])
        word = code.word_from_text(meta["word"])
        rho = code.covering_radius("formula")
        if meta["kind"] == "distance":
            d = rec["distance"]
            ok = o.exit_code == 0 and 0 <= d <= rho and rec["is_codeword"] == (d == 0)
            return [] if ok else [f"{where}: inconsistent distance record {rec}"]
        deep = rec["is_deep_hole"]
        if o.exit_code != (0 if deep else 1):
            return [f"{where}: exit {o.exit_code} for is_deep_hole={deep}"]
        if meta["kind"] == "oracle":
            ok = deep == (rec["distance"] == rho)
            return [] if ok else [f"{where}: oracle distance {rec['distance']} vs radius {rho}"]
        if deep:
            return []
        method = "mds_extension" if meta["kind"] == "mds" else meta["kind"]
        verdict = DeepHoleVerdict(False, method, tuple(rec.get("witness") or ()))
        a_j = meta.get("aj")
        if not verdict.witness or not validate_verdict(code, verdict, a_j=a_j, word=word):
            return [f"{where}: witness {rec.get('witness')} failed re-validation"]
        return []

    @staticmethod
    def skipped(outcomes: list[Outcome]) -> int:
        return 0


WORKLOADS = {w.name: w for w in (SWEEP_DEEPHOLE, SWEEP_COVERING, QueryWorkload())}
