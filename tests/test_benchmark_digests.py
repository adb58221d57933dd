"""The benchmark's seed-0 digests, checked on every test run.

``perfbench/run.py --seed 0 --seconds 0`` runs each workload's digested prefix
once and compares the SHA-256 of its inputs and outputs with
``perfbench/digests.json``. Run here in-process with one set-up probe
(``SETUP_RUNS`` = 1), it makes byte identity of the benchmark's reports part of
the test suite.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["sweep_deephole", "sweep_covering", "queries"])
def test_benchmark_digests_hold_at_seed_0(monkeypatch, capsys, workload):
    # run.main puts the sources on sys.path; the patched path is restored afterwards
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0"]) == 0
    provenance, result = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert result["correct"] is True and result["failed"] == 0
    assert provenance["provenance"]["digests"]["checked"] is True
