import argparse
import json
import re

import pytest

from gprs.cli import main


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
