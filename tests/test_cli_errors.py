"""Error paths of the hcn7 command: a reader that leaves early, a
negative series order, a negative verify bound, a verify bound below the
least its suite accepts, a `table --pmax` below 3,
`hurwitz` given both a single N and --max, a negative `hurwitz --max` or
`sum --n`, a `sum --M` below 1, a `newform --nmax` below its least value,
and a series name that is not exactly one of the accepted names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcn7.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _hcn7(*argv):
    """Command and environment for `hcn7 ARGV` from this checkout, with
    stdout block-buffered as it is by default when it is a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "hcn7", *argv], env


def test_reader_closing_early_exits_141_quietly(tmp_path):
    # like `hcn7 hurwitz --max 20000 --format json | head -1`
    argv, env = _hcn7("hurwitz", "--max", "20000", "--format", "json")
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
    assert (tmp_path / "stderr").read_bytes() == b""


def test_reader_gone_before_short_output_exits_141_quietly(tmp_path):
    # the whole output fits in the stdout buffer, so the failed write is
    # the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv, env = _hcn7("hurwitz", "44")
    try:
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.run(argv, stdout=write_end, stderr=err, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert (tmp_path / "stderr").read_bytes() == b""


def test_reader_closing_early_on_split_point_counts_exits_141_quietly(tmp_path):
    # like `hcn7 newform --nmax 100000 --method cross --format csv | head -1`:
    # the point counts of 9,590 primes may fork a child; in its own session
    # the command's process group is its pid, so killpg sees any child left
    argv, env = _hcn7("newform", "--nmax", "100000", "--method", "cross", "--format", "csv")
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=env, start_new_session=True
        )
        assert proc.stdout.readline() == b"p,a_p_ec,a_p_cm,match\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
    assert (tmp_path / "stderr").read_bytes() == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("name", ["Psi7", "H"])
def test_negative_series_order_is_usage_error(capsys, name):
    assert main(["series", name, "--order", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --order must be non-negative\n"


@pytest.mark.parametrize("suite", ["thm35", "lemma42", "prop31", "prop41", "hk", "main", "all"])
def test_negative_verify_bound_is_usage_error(capsys, suite):
    assert main(["verify", "--suite", suite, "--bound", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --bound must be non-negative\n"


@pytest.mark.parametrize(
    "suite, least, named",
    [("lemma42", 56, "lemma42"), ("hk", 1, "hk"), ("main", 29, "main"), ("all", 56, "lemma42")],
    ids=["lemma42", "hk", "main", "all"],
)
def test_verify_bound_below_the_suites_least_names_bound(capsys, suite, least, named):
    # before, these named the internal parameters order, n_max and p_max.
    # lemma42 covers its Sturm bound 56, hk starts at n = 1, and 29 is the
    # first prime p = 1 (mod 7): below it row 1 of main would pass on no prime
    assert main(["verify", "--suite", suite, "--bound", str(least - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --bound must be at least {least} for --suite {named}\n"
    assert main(["verify", "--suite", suite, "--bound", str(least), "--format", "csv"]) == 0
    if suite == "main":
        assert capsys.readouterr().out.count(",1,29,,,") == 25  # 24 cells and the row sum


@pytest.mark.parametrize("pmax", ["2", "-4"])
def test_table_pmax_below_3_names_the_option(capsys, pmax):
    # before, this named the internal parameter p_max
    assert main(["table", "--pmax", pmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --pmax must be at least 3\n"


def test_hurwitz_n_and_max_together_is_usage_error(capsys):
    # before, `hurwitz 44 --max 3` printed H(0..3) and dropped the 44
    assert main(["hurwitz", "44", "--max", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give a single N or --max N, exactly one of the two\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hurwitz", "--max", "-1"], "--max must be non-negative"),
        (["sum", "--m", "0", "--M", "7", "--n", "-1"], "--n must be non-negative"),
        (["sum", "--m", "0", "--M", "0", "--n", "5"], "--M must be positive"),
        (["sum", "--m", "1", "--M", "-3", "--n", "-1"], "--M must be positive"),
    ],
)
def test_hurwitz_and_sum_errors_name_the_option(capsys, argv, message):
    # before, these named the internal parameters n_max, n and M
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, least",
    [
        (["--nmax", "2", "--method", "cross"], "3 for --method cross"),
        (["--nmax", "0"], "1 for --method ec"),
        (["--nmax", "-5", "--method", "cm"], "1 for --method cm"),
    ],
)
def test_newform_nmax_below_its_least_is_usage_error(capsys, argv, least):
    # before, these named the internal parameters p_max and n_max
    assert main(["newform", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --nmax must be at least {least}\n"


@pytest.mark.parametrize("name", ["H\n", " H", "h", "theta_7_7", "D1_7_07"])
def test_series_name_not_exactly_accepted_is_usage_error(capsys, name):
    # before, a pattern match let "H\n" through as H: `$` matches before a final newline
    assert main(["series", name, "--order", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: unknown series {name!r}; expected H, D, G, Psi7, D1_7_a, "
        "theta_m_7 or Lambda_1_m_7 with a, m in 0..6\n"
    )
