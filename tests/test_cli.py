"""Command-line interface: outputs, formats, exit codes."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcn7.cli import main, rational


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hurwitz_single(capsys):
    code, out = run(capsys, "hurwitz", "0")
    assert code == 0 and out.strip() == "-1/12"
    code, out = run(capsys, "hurwitz", "44")
    assert code == 0 and out.strip() == "4"


def test_hurwitz_table_csv(capsys):
    code, out = run(capsys, "hurwitz", "--max", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["N,H", "0,-1/12", "1,0", "2,0", "3,1/3", "4,1/2"]


def test_hurwitz_json_roundtrip(capsys):
    code, out = run(capsys, "hurwitz", "0", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "hurwitz"
    assert record["payload"] == {"N": 0, "H": "-1/12"}


def test_hurwitz_no_args_is_usage_error(capsys):
    code, _ = run(capsys, "hurwitz")
    assert code == 2


def test_sum(capsys):
    code, out = run(capsys, "sum", "--m", "0", "--M", "7", "--n", "11")
    assert code == 0 and out.strip() == "4"
    code, out = run(capsys, "sum", "--m", "1", "--M", "7", "--n", "3")
    assert code == 0 and out.strip() == "1"
    # residues reduce mod M
    code, out = run(capsys, "sum", "--m", "8", "--M", "7", "--n", "3")
    assert code == 0 and out.strip() == "1"


def test_table(capsys):
    code, out = run(capsys, "table", "--pmax", "30")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("p=11 (class 4, x=2 y=1)") for line in lines)
    assert any("4/3=4/3" in line for line in lines if line.startswith("p=3 "))
    code, out = run(capsys, "table", "--pmax", "30", "--format", "csv")
    header = out.splitlines()[0].split(",")
    assert header[:4] == ["p", "class", "x", "y"]
    assert "m3_match" in header
    code, _ = run(capsys, "table", "--pmax", "2")
    assert code == 2


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "lemma42")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 and "ok" in out
    code, out = run(capsys, "verify", "--suite", "thm35", "--bound", "40")
    assert code == 0
    assert len(out.strip().splitlines()) == 19
    code, out = run(capsys, "verify", "--suite", "prop31", "--bound", "40", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["payload"]["ok"] is True
    assert len(record["payload"]["reports"]) == 14
    assert "elapsed" not in json.dumps(record)  # payloads carry no clock data


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--bound", "60")
    assert code == 0
    lines = out.strip().splitlines()
    # 19 + 1 + 14 + 1 + 1 + 25
    assert len(lines) == 61


def test_newform(capsys):
    code, out = run(capsys, "newform", "--nmax", "9", "--method", "ec")
    assert code == 0 and out.strip() == "1,1,0,-1,0,0,0,-3,-3"
    code, out = run(capsys, "newform", "--nmax", "11", "--method", "cm")
    assert code == 0 and out.strip().endswith(",4")
    code, out = run(capsys, "newform", "--nmax", "100", "--method", "cross")
    assert code == 0 and "cross-check ok" in out


def test_series(capsys):
    code, out = run(capsys, "series", "H", "--order", "4")
    assert code == 0 and out.strip() == "-1/12,0,0,1/3,1/2"
    code, out = run(capsys, "series", "theta_0_7", "--order", "49")
    assert code == 0
    coeffs = out.strip().split(",")
    assert coeffs[0] == "1" and coeffs[49] == "2"
    code, out = run(capsys, "series", "G", "--order", "9")
    assert code == 0 and out.strip() == "0,1,1,0,-1,0,0,0,-3,-3"
    code, out = run(capsys, "series", "Psi7", "--order", "11", "--format", "csv")
    assert code == 0 and out.splitlines()[-1] == "11,4"
    code, _ = run(capsys, "series", "bogus")
    assert code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2


# Each command's options, written out here rather than read from the
# parser's table
OPTIONS = {
    "hurwitz": ["N", "--max MAX", "--format {text,csv,json}"],
    "sum": ["--m M", "--M M", "--n N", "--format {text,csv,json}"],
    "table": ["--pmax PMAX", "--format {text,csv,json}"],
    "verify": ["--suite {thm35,lemma42,prop31,prop41,hk,main,all}", "--bound BOUND", "--format {text,csv,json}"],
    "newform": ["--nmax NMAX", "--method {ec,cm,cross}", "--format {text,csv,json}"],
    "series": ["name", "--order ORDER", "--format {text,csv,json}"],
}


@pytest.mark.parametrize("command", OPTIONS)
def test_each_command_help_exits_0_and_names_its_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: hcn7 {command} [-h]")
    for option in OPTIONS[command]:
        assert option in out, option


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hcn7 [-h] {hurwitz,sum,table,verify,newform,series} ...\n")
    for command in OPTIONS:
        assert f"\n  {command} " in out, command


@settings(deadline=None, max_examples=500, database=None)
@given(
    num=st.one_of(st.integers(-300, 300), st.integers(-(2**80), 2**80)),
    den=st.one_of(st.sampled_from([1, 2, 12, 24]), st.integers(1, 10**6), st.integers(1, 2**70)),
)
@example(num=0, den=1)
@example(num=0, den=24)
@example(num=-1, den=12)
@example(num=-36, den=24)
@example(num=7, den=2)
@example(num=-2**80, den=2**70)
def test_rational_renders_as_fraction_does(num, den):
    # the one renderer of every rational the CLI shows
    assert rational(num, den) == str(Fraction(num, den))
