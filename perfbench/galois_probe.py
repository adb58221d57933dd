"""Per-operation cost of field arithmetic, reported by the traced run.

`galois.{add,mul,inv}_enc.ns.q<q>` is the median time of one call over
batches of seeded operand pairs, loop overhead included. The fields cover a
prime field (11), small and mid-size extension fields on the lookup-table
path (9, 81, 343) and GF(729), above the table limit, where multiplication
falls back to coefficient arithmetic. `galois.tables_s.q<q>` is the time to
construct a fresh field and build its first-use tables.
"""

from __future__ import annotations

import random
import statistics
import time

from setup_probe import warm_field
from tracing import count_calls

PROBE_FIELDS = (11, 9, 81, 343, 729)
TABLE_FIELDS = (81, 343)
PAIRS = 256
MIN_BATCH_S = 0.02
BATCHES = 5


def _batch_seconds(fn, pairs, reps: int, unary: bool) -> float:
    if unary:
        start = time.perf_counter()
        for _ in range(reps):
            for a, _b in pairs:
                fn(a)
        return time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(reps):
        for a, b in pairs:
            fn(a, b)
    return time.perf_counter() - start


def ns_per_call(fn, pairs, unary: bool = False) -> float:
    """Median ns per call over BATCHES batches of at least MIN_BATCH_S each."""
    reps = 1
    while (first := _batch_seconds(fn, pairs, reps, unary)) < MIN_BATCH_S:
        reps *= 2
    times = [first] + [_batch_seconds(fn, pairs, reps, unary) for _ in range(BATCHES - 1)]
    return statistics.median(times) / (reps * len(pairs)) * 1e9


def probe(seed: int) -> dict[str, float]:
    from gprs.galois import FiniteField, field_of_order, prime_power_decomposition

    rng = random.Random(f"galois-probe/{seed}")
    out = {}
    for q in PROBE_FIELDS:
        f = field_of_order(q)
        f.mul_enc(1, 1)  # lazy tables are set-up, not per-call cost
        pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(PAIRS)]
        for op in ("add", "mul", "inv"):
            fn = getattr(f, f"{op}_enc")
            out[f"galois.{op}_enc.ns.q{q}"] = ns_per_call(fn, pairs, unary=op == "inv")
    for q in TABLE_FIELDS:
        start = time.perf_counter()
        warm_field(FiniteField(*prime_power_decomposition(q)))
        out[f"galois.tables_s.q{q}"] = time.perf_counter() - start
    return out


def counting_overhead_ns(seed: int) -> float:
    """Extra ns that the traced run's call counter adds to one GF(11) mul."""
    from gprs.galois import FiniteField, field_of_order

    rng = random.Random(f"galois-count/{seed}")
    pairs = [(rng.randrange(1, 11), rng.randrange(1, 11)) for _ in range(PAIRS)]
    f = field_of_order(11)
    counted = count_calls(FiniteField.mul_enc, [0])
    wrapped = ns_per_call(lambda a, b: counted(f, a, b), pairs)
    bare = ns_per_call(lambda a, b: FiniteField.mul_enc(f, a, b), pairs)
    return wrapped - bare
