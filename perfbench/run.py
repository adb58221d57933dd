"""Benchmark of the `gprs` library and CLI, driven from outside through `gprs.cli.main`.

    python3 perfbench/run.py --workload queries --seed 0 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off for `--seconds`
(at least the workload's fixed prefix). `--trace 1` runs the fixed prefix
once untraced and once traced, and reports per-layer metrics, the galois
per-op probe and the tracing overhead. The last line of stdout is the result
object; the line before it records provenance (machine, input and output
digests). The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

from setup_probe import warm_fields

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_RUNS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_ms.p50": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".builds")):
        return "count"
    if ".ns." in name:
        return "ns"
    if name.endswith("_s") or ".tables_s." in name:
        return "s"
    return {
        "codes.codeword_matrix.reuse": "uses/build",
        "matrix.minors_per_scan": "minors/scan",
    }.get(name, "ratio")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_deephole", "sweep_covering", "queries"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def call_main(argv):
    # looked up on every call so that the tracer's wrapper is the one used
    from gprs import cli

    return cli.main(argv)


def fresh_setup_seconds(fields) -> float:
    """Import plus field and table construction in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), ",".join(map(str, fields))],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy

    commit = "unavailable"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((SRC / "gprs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
    }


class Tally:
    """Latencies, work units and failures of a stream of items."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.problems = []
        self.prefix = []  # (item, outcomes) of the digested prefix

    def record(self, item, seconds: float, outcomes, keep: bool):
        problems = self.workload.check(item, outcomes)
        self.latencies.append(seconds)
        self.attempted += item.units
        self.failed += item.units if problems else 0
        self.skipped += self.workload.skipped(outcomes)
        self.problems.extend(problems)
        if keep:
            self.prefix.append((item, outcomes))

    def digests(self) -> dict:
        from workloads import argv_digest, output_digest

        return {
            "inputs_sha256": argv_digest(item for item, _ in self.prefix),
            "outputs_sha256": output_digest(outcomes for _, outcomes in self.prefix),
            "prefix_items": len(self.prefix),
        }


def check_digests(name: str, seed: int, tally: Tally) -> dict:
    digests = tally.digests()
    digests["checked"] = seed == DEFAULT_SEED
    if digests["checked"]:
        expected = json.loads((HERE / "digests.json").read_text())[name]
        for key in ("inputs_sha256", "outputs_sha256"):
            if digests[key] != expected[key]:
                tally.problems.append(f"{key} {digests[key]} differs from the committed {expected[key]}")
                tally.failed += 1
    return digests


def measured_run(workload, seed: int, seconds: float):
    """End-to-end metrics, tracing off, over at least `seconds` of requests."""
    from workloads import run_item

    setup = []
    tally = Tally(workload)
    deadline = time.perf_counter() + seconds
    for index, item in enumerate(workload.items(seed)):
        now = time.perf_counter()
        if index >= workload.min_items and now >= deadline:
            break
        # Set-up samples are spread over the run, so that they see the same
        # machine as the items; the window is extended by the time they take.
        if len(setup) < SETUP_RUNS and now >= deadline - seconds * (1 - len(setup) / SETUP_RUNS):
            setup.append(fresh_setup_seconds(workload.fields))
            deadline += time.perf_counter() - now
        tally.record(item, *run_item(call_main, item), keep=index < workload.min_items)
    setup += [fresh_setup_seconds(workload.fields) for _ in range(SETUP_RUNS - len(setup))]
    lat = tally.latencies
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] if len(lat) > 1 else lat[0]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": tally.attempted / sum(lat),
        "latency_ms.p50": statistics.median(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # The tail is recorded but not gated: on a shared 2-core machine it moved
    # between runs by more than the largest allowed bound (see README.md).
    extra = {
        "setup_runs_s": setup,
        "items": len(lat),
        "latency_ms_p99": p99 * 1e3,
        "items_beyond_p99": sum(x > p99 for x in lat),
    }
    return {name: (v, END_TO_END_UNITS[name]) for name, v in metrics.items()}, tally, extra


def traced_run(workload, seed: int):
    """Per-layer metrics from the fixed prefix, run once plain and once traced."""
    from galois_probe import counting_overhead_ns, probe
    from tracing import Tracer, layer_metrics, trace_gprs
    from workloads import run_item

    prefix = list(islice(workload.items(seed), workload.min_items))
    plain = Tally(workload)
    for item in prefix:
        plain.record(item, *run_item(call_main, item), keep=True)
    runs = []
    with trace_gprs(Tracer()) as tracer:
        for index, item in enumerate(prefix):
            tracer.request_id = index
            runs.append(run_item(call_main, item))
    traced = Tally(workload)  # checked after the patches are gone, so checks stay untraced
    for item, (seconds, outcomes) in zip(prefix, runs):
        traced.record(item, seconds, outcomes, keep=True)
    if traced.digests() != plain.digests():
        traced.problems.append("traced outputs differ from untraced outputs")
        traced.failed += 1
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    counted = sum(metrics[f"galois.{op}_enc.calls"] for op in ("add", "mul", "inv", "pow"))
    metrics["galois.count_overhead_s"] = counted * counting_overhead_ns(seed) * 1e-9
    metrics.update(probe(seed))
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{workload.name}-seed{seed}.jsonl.gz")
    plain.problems.extend(traced.problems)
    plain.failed += traced.failed
    plain.attempted += traced.attempted
    extra = {"spans": len(tracer.spans), "missing_entry_points": tracer.missing}
    return {name: (v, layer_unit(name)) for name, v in metrics.items()}, plain, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gprs" / "__init__.py").is_file():
        print(f"perfbench: no gprs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    warm_fields(workload.fields)
    if args.trace:
        metrics, tally, extra = traced_run(workload, args.seed)
    else:
        metrics, tally, extra = measured_run(workload, args.seed, args.seconds)
    digests = check_digests(workload.name, args.seed, tally)
    for problem in tally.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "digests": digests,
        "failed_share": tally.failed / tally.attempted,
        "skipped_share": tally.skipped / tally.attempted,
        **extra,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
