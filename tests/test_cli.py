import argparse
import json
import re

import pytest

import gprs.cli as cli
import gprs.galois as galois
import gprs.verify as verify
from gprs.cli import main
from gprs.codes import GprsCode
from gprs.polynomial import Polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_text_output(capsys):
    code, out, err = run_cli(capsys, "field", "--q", "3^2")
    assert code == 0
    assert "modulus: 1,0,1" in out
    assert "primitive element: 4" in out


def test_field_json_output(capsys):
    code, out, _ = run_cli(capsys, "field", "--q", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 5 and data["primitive_element"] == 2
    assert len(data["elements"]) == 5


def test_code_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "code", "--q", "5", "--exclude", "3,4", "--k", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["generator"] == [[1, 1, 1, 0], [0, 1, 2, 1]]
    assert data["minimum_distance"] == 3
    assert data["covering_radius"] == 2
    assert data["mds"]["is_mds"] is True


def test_encode_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--code", "q=5;exclude=3,4;k=2", "--poly", "3,2"
    )
    assert code == 0
    assert out.strip() == "3,0,2,2"


def test_encode_rejects_long_message(capsys):
    code, _, err = run_cli(
        capsys, "encode", "--code", "q=5;exclude=3,4;k=2", "--poly", "0,0,1"
    )
    assert code == 2
    assert "error" in err


def test_distance_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--code", "q=5;exclude=0,4;k=2", "--word", "1,4,4,0"
    )
    assert code == 0
    assert out.strip() == "distance: 1"


@pytest.mark.parametrize("method", ["enumerate", "agreement"])
def test_distance_reports_is_codeword_by_membership(capsys, method):
    spec = "q=5;exclude=0,4;k=2"
    code = GprsCode.from_spec(spec)
    codeword = code.encode(Polynomial(code.field, [3, 2]))
    for word, expected in ((codeword, True), (code.word_from_text("1,4,4,0"), False)):
        assert code.is_codeword(word) == expected
        status, out, _ = run_cli(
            capsys, "distance", "--code", spec, "--word", word.to_text(),
            "--method", method, "--format", "json",
        )
        assert status == 0
        assert json.loads(out)["is_codeword"] is expected


def test_code_exclude_option_parses_like_the_spec_key(capsys):
    status, out, _ = run_cli(
        capsys, "code", "--q", "7", "--exclude", "0,1,", "--k", "2", "--format", "json"
    )
    assert status == 0
    data = json.loads(out)
    code = GprsCode.from_spec("q=7;exclude=0,1,;k=2")
    assert data["spec"] == code.spec_string() == "q=7;exclude=0,1;k=2"
    assert data["evaluation_set"] == list(code.evaluation_encodings())
    assert data["generator"] == [list(r) for r in code.generator.row_encodings()]


def test_distance_agreement_budget_exit(capsys):
    # C(29, 15) = 77558760 agreement pairs: refused before any index or tensor is built
    status, out, err = run_cli(
        capsys, "distance", "--code", "q=29;exclude=0;k=14", "--word", ",".join(["1"] * 29),
        "--method", "agreement", "--budget", "10",
    )
    assert status == 2
    assert out == ""
    assert "budget" in err and "77558760" in err


def test_distance_budget_exit(capsys):
    code, _, err = run_cli(
        capsys,
        "distance",
        "--code",
        "q=5;exclude=0,4;k=2",
        "--word",
        "1,4,4,0",
        "--budget",
        "3",
    )
    assert code == 2
    assert "budget" in err


def test_deephole_oracle_positive(capsys):
    code, out, _ = run_cli(
        capsys,
        "deephole",
        "--code",
        "q=5;exclude=3,4;k=2",
        "--word",
        "0,1,4,0",
        "--method",
        "oracle",
    )
    assert code == 0
    assert "is_deep_hole=true" in out


def test_deephole_thm14_negative_with_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        "deephole",
        "--code",
        "q=5;exclude=0,4;k=2",
        "--word",
        "1,4,4,0",
        "--method",
        "thm14",
    )
    assert code == 1
    assert "is_deep_hole=false" in out
    assert "witness: 2,3" in out


def test_deephole_mds_method(capsys):
    code, out, _ = run_cli(
        capsys,
        "deephole",
        "--code",
        "q=5;exclude=0,4;k=2",
        "--word",
        "1,4,4,0",
        "--method",
        "mds",
        "--format",
        "json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["is_deep_hole"] is False
    assert data["witness"] == [1, 2, 3]
    assert data["parameters"]["word"] == "1,4,4,0"


def test_deephole_thm15_with_aj(capsys):
    # the word of u = (x-1)^3 over F_5 with excluded {0, 1}: u(2,3,4) = 1,3,2
    # and c_1(u) = 3
    code, out, _ = run_cli(
        capsys,
        "deephole",
        "--code",
        "q=5;exclude=0,1;k=2",
        "--word",
        "1,3,2,3",
        "--method",
        "thm15",
        "--aj",
        "1",
    )
    assert code == 1
    assert "witness: 2,4" in out


def test_deephole_thm15_requires_aj(capsys):
    code, out, err = run_cli(
        capsys,
        "deephole",
        "--code",
        "q=5;exclude=0,1;k=2",
        "--word",
        "1,3,2,3",
        "--method",
        "thm15",
    )
    assert code == 2
    assert "--aj" in err
    assert out == ""
    assert err.startswith("error: ")


def test_deephole_thm15_rejects_word_outside_the_family(capsys):
    # the word of (x-1)^3 with its last coordinate changed from 3 to 4
    code, out, err = run_cli(
        capsys,
        "deephole",
        "--code",
        "q=5;exclude=0,1;k=2",
        "--word",
        "1,3,2,4",
        "--method",
        "thm15",
        "--aj",
        "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: thm15 applies to words of the form")


def test_deephole_thm14_rejects_inapplicable_word(capsys):
    # the word of x^3 has interpolant degree 3 != k
    code, out, err = run_cli(
        capsys,
        "deephole",
        "--code",
        "q=5;exclude=3,4;k=2",
        "--word",
        "0,1,3,0",
        "--method",
        "thm14",
    )
    assert code == 2
    assert "degree exactly k" in err
    assert out == ""
    assert err.startswith("error: ")


def test_sweep_json(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--claims",
        "lemma29",
        "--q-list",
        "9,25,27",
        "--seed",
        "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["refuted"] == 0
    assert "sweep verified" in err


def test_sweep_csv_and_determinism(capsys):
    args = ("sweep", "--claims", "thm16", "--q-list", "5,7", "--seed", "9", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].startswith("claim,q,")


def test_sweep_q_list_reads_entries_as_q_does(capsys):
    # a blank entry is skipped, as --claims skips one, and an entry is a field spec like --q's
    argv = ("sweep", "--claims", "thm15,lemma29", "--words", "2", "--q-list")
    assert run_cli(capsys, *argv, "7,") == run_cli(capsys, *argv, "7")
    nine = run_cli(capsys, *argv, "9")
    assert nine[0] == 0 and run_cli(capsys, *argv, "3^2") == nine
    for entry in ("x", "4^2"):
        code, out, err = run_cli(capsys, *argv, f"7,{entry}")
        assert (code, out) == (2, "") and f"bad field spec {entry!r}" in err


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--claims",
        "lemma28",
        "--q-list",
        "5",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["summary"]["refuted"] == 0
    # a file that cannot be opened is a usage error, exit 2, not 1 ("claim refuted")
    missing = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "sweep", "--claims", "lemma29", "--q-list", "5", "--out", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_sweep_out_path_is_opened_before_the_sweep(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise ValueError("the sweep failed")

    monkeypatch.setattr(cli, "run_sweep", fail)
    argv = ("sweep", "--claims", "lemma29", "--q-list", "5", "--out")
    # an unwritable path is refused without running the sweep
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "report.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno") and "the sweep failed" not in err
    # a sweep that fails removes the file it created, and leaves an existing report whole
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("report")
    for target in (fresh, kept):
        code, out, err = run_cli(capsys, *argv, str(target))
        assert (code, out, err) == (2, "", "error: the sweep failed\n")
    assert not fresh.exists() and kept.read_text() == "report"


def test_usage_errors(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "field")[0] == 2
    assert run_cli(capsys, "code", "--q", "5", "--exclude", "", "--k", "2")[0] == 2
    code, _, err = run_cli(
        capsys, "sweep", "--claims", "thm99", "--q-list", "5"
    )
    assert code == 2
    assert "thm99" in err
    # sweeps that would check nothing
    for flags in (
        ("--claims", "", "--q-list", "5"),
        ("--claims", "thm14", "--q-list", "5", "--words", "0"),
        ("--claims", "thm14", "--q-list", "5", "--max-sets", "0"),
        ("--claims", "thm14", "--q-list", "5", "--max-sets", "-4"),
    ):
        assert run_cli(capsys, "sweep", *flags)[0] == 2


@pytest.mark.parametrize("argv,order", [
    (("field", "--q", "65521"), "GF(65521)"),
    (("field", "--q", "2305843009213693951"), "GF(2305843009213693951)"),
    (("field", "--q", "3^1000000000"), "GF(3^1000000000)"),
    (("distance", "--code", "q=3^1000000000;exclude=0;k=2", "--word", "0"), "GF(3^1000000000)"),
    (("sweep", "--claims", "thm14", "--q-list", "999999999989"), "GF(999999999989)"),
])
def test_oversized_order_is_a_usage_error(capsys, monkeypatch, argv, order):
    def refuse(*args):
        raise AssertionError("an oversized order was factored or its tables built")

    for name in ("prime_power_decomposition", "is_prime", "_tables"):
        monkeypatch.setattr(galois, name, refuse)
    monkeypatch.setattr(verify, "prime_power_decomposition", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{order} is too large" in err


def test_code_spec_with_unknown_or_repeated_key_is_a_usage_error(capsys):
    for spec in ("q=3^2;exclude=0;k=2;modulus=2,2,1", "q=5;k=2;exclude=0;k=3"):
        code, out, err = run_cli(capsys, "distance", "--code", spec, "--word", "0,0,0,0,0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("GPRS_BUDGET", "3")
    code, _, err = run_cli(
        capsys, "distance", "--code", "q=5;exclude=0,4;k=2", "--word", "1,4,4,0"
    )
    assert code == 2
    assert "budget" in err


def test_malformed_budget_env_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GPRS_BUDGET", "abc")
    code, out, err = run_cli(
        capsys, "distance", "--code", "q=5;exclude=0,4;k=2", "--word", "1,4,4,0"
    )
    assert code == 2
    assert out == ""
    assert err == "error: GPRS_BUDGET must be an integer, got 'abc'\n"


def test_budget_env_variable_is_read_on_every_call(capsys, monkeypatch):
    # q^k = 25 codewords: a budget of 3 refuses the scan, one of 25 allows it
    for argv, allowed in (
        (("distance", "--word", "1,4,4,0"), 0),
        (("deephole", "--word", "1,4,4,0", "--method", "oracle"), 1),
    ):
        for budget, expected in (("3", 2), ("25", allowed), ("3", 2)):
            monkeypatch.setenv("GPRS_BUDGET", budget)
            assert run_cli(capsys, *argv, "--code", "q=5;exclude=0,4;k=2")[0] == expected


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "field", "--q", "5")[0] == 0
    assert built == []


HELP_OPTIONS = {
    "field": "--q --mod --format",
    "code": "--q --mod --exclude --k --format",
    "encode": "--code --mod --poly --format",
    "distance": "--code --mod --word --method --budget --format",
    "deephole": "--code --mod --word --method --aj --budget --format",
    "sweep": "--claims --q-list --seed --words --max-sets --budget --distance-budget "
    "--format --out",
}


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_subcommand_help_lists_its_options(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out))
    assert listed == {"-h", "--help", *HELP_OPTIONS[command].split()}
