"""Exact stdout and exit code of every command in every output format.

Each case's expected stdout is the file tests/golden/<case>.out, written by
the CLI as it stood before its per-format branches were folded into one
renderer.  Only the wall-clock seconds in text-format verify lines vary
between runs; they are masked on both sides.  Usage errors must leave
stdout empty.  The patched cases force a mismatch to pin the failure
rendering (exit 1) of table, verify (the hk suite, thm35 with a rational
and an integral first mismatch, prop31 with a half-integer first
mismatch, and an integral and a rational first mismatch of the main
suite) and the cross-check; the two verify-main cases were written while
the table's cells were still Fractions, before they became ints in 24ths,
verify-thm35-fail while thm35's sides were still Fractions, and
verify-prop31-fail and the two series-lambda cases while the correction
series still held Fractions.  After a deliberate change of output,
rewrite a case's file with what run_case returns for it.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import hcn7.newform49
import hcn7.verify
from hcn7.cli import main
from hcn7.arith import lambda_series
from hcn7.qseries import QSeries, chi_minus7, series_add

GOLDEN = Path(__file__).parent / "golden"

_SECONDS = re.compile(r"\d+\.\d\ds\)")


def mask(text: str) -> str:
    return _SECONDS.sub("N.NNs)", text)


def _break_table(mp):
    # 24 more on c_1 of row 4, column 2: one more on H_{2,7}(p) at every
    # p = 4 (mod 7), of which 11 is the only one up to 30
    row = list(hcn7.verify._CELL_WEIGHTS[4])
    c_p, c_1, c_a = row[2]
    row[2] = (c_p, c_1 + 24, c_a)
    mp.setitem(hcn7.verify._CELL_WEIGHTS, 4, tuple(row))


def _nudge_table(mp):
    # 1 more on c_1 of row 4, column 2: the formula side of H_{2,7}(p) is
    # off by 1/24 at every p = 4 (mod 7), so the mismatch at 11 is rational
    row = list(hcn7.verify._CELL_WEIGHTS[4])
    c_p, c_1, c_a = row[2]
    row[2] = (c_p, c_1 + 1, c_a)
    mp.setitem(hcn7.verify._CELL_WEIGHTS, 4, tuple(row))


def _break_hk(mp):
    rhs_series = hcn7.verify.hk_rhs_series

    def broken(order):
        coeffs = list(rhs_series(order).coeffs)
        coeffs[7] += 1
        return QSeries(coeffs)

    mp.setattr(hcn7.verify, "hk_rhs_series", broken)


def _break_g(mp):
    # one more on G's ninth coefficient: every thm35 row that reads G at
    # n = 9, a class-2 exponent, fails there
    g_series = hcn7.verify.g_series

    def broken(order):
        coeffs = list(g_series(order).coeffs)
        coeffs[9] += 1
        return QSeries(coeffs)

    mp.setattr(hcn7.verify, "g_series", broken)


def _halve_prop31(mp):
    # Lambda_{1,1,7} added to the divisor-sum side: its coefficient at
    # n = 1 is 1/2 (the square 1 = 1 * 1, weight 1/2), so every prop31
    # report fails at n = 1 with a half-integer on that side
    rhs_series = hcn7.verify.prop31_rhs

    def broken(k, m, order):
        return series_add(rhs_series(k, m, order), lambda_series(1, 1, 7, order))

    mp.setattr(hcn7.verify, "prop31_rhs", broken)


def _break_cm(mp):
    mp.setattr(hcn7.newform49, "chi_minus7", lambda n: -chi_minus7(n))


_FORMATTED = [
    ("hurwitz-single", ["hurwitz", "3"], 0, None),
    ("hurwitz-max", ["hurwitz", "--max", "12"], 0, None),
    ("sum", ["sum", "--m", "2", "--M", "7", "--n", "13"], 0, None),
    ("table", ["table", "--pmax", "60"], 0, None),
    ("verify-all", ["verify", "--suite", "all", "--bound", "60"], 0, None),
    ("newform-ec", ["newform", "--nmax", "50", "--method", "ec"], 0, None),
    ("newform-cm", ["newform", "--nmax", "50", "--method", "cm"], 0, None),
    ("newform-cross", ["newform", "--nmax", "60", "--method", "cross"], 0, None),
    ("series", ["series", "H", "--order", "20"], 0, None),
    ("series-lambda", ["series", "Lambda_1_0_7", "--order", "50"], 0, None),
    ("series-lambda-halves", ["series", "Lambda_1_1_7", "--order", "50"], 0, None),
    ("table-mismatch", ["table", "--pmax", "30"], 1, _break_table),
    ("verify-fail", ["verify", "--suite", "hk", "--bound", "30"], 1, _break_hk),
    ("verify-thm35-fail", ["verify", "--suite", "thm35", "--bound", "40"], 1, _break_g),
    ("verify-prop31-fail", ["verify", "--suite", "prop31", "--bound", "30"], 1, _halve_prop31),
    ("verify-main-fail", ["verify", "--suite", "main", "--bound", "30"], 1, _break_table),
    ("verify-main-rational", ["verify", "--suite", "main", "--bound", "30"], 1, _nudge_table),
    ("newform-cross-fail", ["newform", "--nmax", "40", "--method", "cross"], 1, _break_cm),
]

CASES = [
    (f"{name}.{fmt}", argv + ["--format", fmt], code, patch)
    for name, argv, code, patch in _FORMATTED
    for fmt in ("text", "csv", "json")
] + [
    ("usage-hurwitz-no-n", ["hurwitz"], 2, None),
    ("usage-hurwitz-n-and-max", ["hurwitz", "44", "--max", "3"], 2, None),
    ("usage-table-pmax-2", ["table", "--pmax", "2"], 2, None),
    ("usage-verify-bound-50", ["verify", "--suite", "all", "--bound", "50"], 2, None),
    ("usage-verify-bad-suite", ["verify", "--suite", "bogus"], 2, None),
    ("usage-newform-nmax-0", ["newform", "--nmax", "0", "--format", "csv"], 2, None),
    ("usage-newform-cross-nmax-2", ["newform", "--nmax", "2", "--method", "cross"], 2, None),
    ("usage-series-unknown", ["series", "bogus", "--format", "json"], 2, None),
    ("usage-no-command", ["nope"], 2, None),
]


def run_case(argv, patch) -> tuple[int, str]:
    """Exit code and masked stdout of `hcn7 ARGV`, with patch applied."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
        if patch is not None:
            patch(mp)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, mask(out.getvalue())


@pytest.mark.parametrize("name, argv, code, patch", CASES, ids=[c[0] for c in CASES])
def test_cli_golden(name, argv, code, patch):
    got_code, got_out = run_case(argv, patch)
    assert got_code == code
    want = (GOLDEN / f"{name}.out").read_text() if code != 2 else ""
    assert got_out == want
