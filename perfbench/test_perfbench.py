"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import galois_probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gprs import cli, codes, deepholes, galois, matrix, polynomial, verify  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny_workloads():
    sweep = workloads.SweepWorkload(
        "sweep_deephole",
        fields=(5,),
        calls=(workloads.SweepCall(("--claims", "thm14,thm15", "--q-list", "5", "--words", "2"),
                                   total=45, skipped=0),),
    )
    covering = workloads.SweepWorkload(
        "sweep_covering",
        fields=(5,),
        calls=(workloads.SweepCall(("--claims", "lemma25,lemma26", "--q-list", "5", "--max-sets", "2"),
                                   total=6, skipped=0),),
    )
    queries = workloads.QueryWorkload()
    queries.min_items = 12
    return {w.name: w for w in (sweep, covering, queries)}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", _tiny_workloads())
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(galois_probe, "BATCHES", 1)
    monkeypatch.setattr(galois_probe, "MIN_BATCH_S", 0.0)
    monkeypatch.setattr(galois_probe, "PAIRS", 4)


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2])["provenance"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["sweep_deephole", "sweep_covering", "queries"])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(tiny, workload, trace, section):
    code, provenance, result = _run("--workload", workload, "--seed", "1",
                                    "--seconds", "0", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert provenance["machine"]["nproc"] >= 1
    assert provenance["digests"]["checked"] is False
    if trace:
        assert provenance["missing_entry_points"] == []
        assert result["metrics"]["cli.main.calls"]["value"] >= 1


def _bindings():
    """Identity of every attribute of the gprs modules and classes the tracer patches."""
    owners = [cli, codes, deepholes, galois, matrix, polynomial, verify, sys.modules["gprs"],
              verify.SweepReport, codes.GprsCode, *codes.GprsCode.__mro__, galois.FiniteField]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracing_wrappers_restore_the_originals():
    before = _bindings()
    argv = ["deephole", "--code", "q=7;exclude=0;k=2", "--word", "0,1,4,2,2,4,1",
            "--method", "mds", "--format", "json"]
    plain = workloads.run_item(cli.main, workloads.Item((tuple(argv),), units=1))[1]
    with tracing.trace_gprs(tracing.Tracer()) as tracer:
        assert cli.main is not before[(id(cli), "main")]
        traced = workloads.run_item(lambda a: cli.main(a), workloads.Item((tuple(argv),), 1))[1]
    assert _bindings() == before
    assert [(o.exit_code, o.stdout) for o in traced] == [(o.exit_code, o.stdout) for o in plain]
    assert tracer.calls("cli.main") == 1
    assert tracer.calls("matrix.first_singular_column_subset") == 1
    assert tracer.counters["galois.mul_enc"][0] > 0
    assert tracer.missing == []


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: sum(range(20000)), lambda a, k: "inner", keep=True)
    outer = tracer._wrap(lambda: [inner() for _ in range(3)], lambda a, k: "outer", keep=True)
    outer()
    spans = {name: (start, end) for _, name, start, end, _ in tracer.spans}
    total = spans["outer"][1] - spans["outer"][0]
    assert tracer.calls("inner") == 3 and tracer.edges["outer", "inner"] == 3
    assert tracer.self_s("outer") + tracer.self_s("inner") == pytest.approx(total)


def test_request_stream_is_deterministic_per_seed():
    size = len(workloads.QUERY_BLOCK)
    first = [workloads.make_request(4, i) for i in range(size)]
    again = [workloads.make_request(4, i) for i in range(size)]
    other = [workloads.make_request(5, i) for i in range(size)]
    assert workloads.argv_digest(first) == workloads.argv_digest(again)
    assert workloads.argv_digest(first) != workloads.argv_digest(other)
    for block in (first, other):
        mix = sorted((item.meta["kind"], item.meta["q"]) for item in block)
        assert mix == sorted(workloads.QUERY_BLOCK)


def test_query_check_rejects_a_forged_witness():
    wl = workloads.QueryWorkload()
    item = next(i for i in wl.items(2) if i.meta["kind"] == "thm14")
    (outcome,) = workloads.run_item(cli.main, item)[1]
    assert wl.check(item, [outcome]) == []
    code = codes.GprsCode.from_spec(item.meta["spec"])
    # an excluded point is never part of a zero-sum subset of D
    witness = [code.excluded[0].encoding, *code.evaluation_encodings()[: code.k - 1]]
    forged = {"is_deep_hole": False, "method": "thm14", "witness": sorted(witness)}
    bad = workloads.Outcome(outcome.argv, 1, json.dumps(forged) + "\n")
    assert "failed re-validation" in wl.check(item, [bad])[0]
