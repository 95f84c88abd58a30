"""Command-line front end.

Commands: hurwitz, sum, table, verify, newform, series, each with its
help line, arguments and function in the one table COMMANDS; a call
builds the parser of the command it names and no other.  Output formats
text (default), csv (header row, LF endings) and json (fixed key order).
Every rational reaches the CLI as an int over a known denominator, and
one function, rational, renders it as "num/den" in lowest terms or as a
plain integer, the bytes of str(fractions.Fraction), never as a float.

Exit codes: 0 success, 1 verification/cross-check failure, 2 usage error,
141 when the reader closes stdout early (as in `hcn7 ... | head`), with
nothing written to stderr.  No environment variable changes what a
command does.

Inputs are capped before anything is allocated: MAX_H_INDEX bounds the
largest H(N) index a command would reach (N for `hurwitz N` and
`hurwitz --max N`, 4n for `sum --n n`, 4P for `table --pmax P`; the H
table checks it again where it grows, and so does the product route)
and MAX_NEWFORM_N bounds `newform --nmax` and `series --order`.  An
input over its cap is a usage error that names the option.

Series names match exactly, as listed in `hcn7 series --help`: no
surrounding space, no trailing newline, no other case.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import partial
from math import gcd

from .arith import d_pa_series, d_series, lambda_series, psi_7, theta_mM
from .hurwitz import hmm_twelfths, hurwitz_series, hurwitz_single, twelfths_upto
from .newform49 import ap_pairs, cm_aps, ec_aps, g_series, newform_an
from .qseries import MAX_H_INDEX, QSeries
from .verify import SUITES, main_table_rows, run_suite

MAX_NEWFORM_N = 10**6


def _check_h_index(option: str, value: int, index: int) -> None:
    """Reject, before any allocation, a negative input or one reaching H past MAX_H_INDEX."""
    if value < 0:
        raise ValueError(f"{option} must be non-negative")
    if index > MAX_H_INDEX:
        raise ValueError(f"{option} {value} would reach H index {index}, over the cap MAX_H_INDEX = {MAX_H_INDEX}")


def rational(num: int, den: int) -> str:
    """num / den, den > 0, in lowest terms, as str(Fraction(num, den)) writes it."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def emit(fmt: str, kind: str, payload, header: list[str], rows, lines) -> None:
    """Print one result as json, csv or text.

    Each form is a zero-argument function, and only the one fmt selects is
    called: payload() gives the json payload, rows() the csv rows under
    header (None renders as an empty field), lines() the text lines.
    """
    if fmt == "json":
        import json  # only here: no other format needs it at start-up

        print(json.dumps({"kind": kind, "payload": payload()}, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
    else:
        for line in lines():
            print(line)


def emit_record(fmt: str, kind: str, record: dict, value: str) -> None:
    """One flat record: its keys are the csv header, value the text."""
    emit(fmt, kind, lambda: record, list(record), lambda: [record.values()], lambda: [value])


def cmd_hurwitz(args) -> int:
    if (args.N is None) == (args.max is None):
        raise ValueError("give a single N or --max N, exactly one of the two")
    if args.max is not None:
        _check_h_index("--max", args.max, args.max)
        pairs = [(n, rational(t, 12)) for n, t in zip(range(args.max + 1), twelfths_upto(args.max))]
        emit(
            args.format,
            "hurwitz-table",
            lambda: {"n_max": args.max, "values": [{"N": n, "H": h} for n, h in pairs]},
            ["N", "H"],
            lambda: pairs,
            lambda: (f"{n} {h}" for n, h in pairs),
        )
        return 0
    _check_h_index("N", args.N, args.N)
    value = rational(hurwitz_single(args.N), 12)
    emit_record(args.format, "hurwitz", {"N": args.N, "H": value}, value)
    return 0


def cmd_sum(args) -> int:
    if args.M < 1:
        raise ValueError("--M must be positive")
    _check_h_index("--n", args.n, 4 * args.n)
    value = rational(hmm_twelfths(args.m, args.M, args.n), 12)
    emit_record(args.format, "sum", {"m": args.m, "M": args.M, "n": args.n, "value": value}, value)
    return 0


def _cells(r):
    """(m, direct, formula, match) per cell of a table row, the two values
    rendered from their 24ths."""
    return ((m, rational(d, 24), rational(f, 24), d == f) for m, d, f in r.cells)


def _table_line(r) -> str:
    rep = f"x={r.x} y={r.y}" if r.x is not None else "inert"
    cells = "  ".join(f"m{m}: {d}{'=' if ok else '!='}{f}" for m, d, f, ok in _cells(r))
    flag = "" if r.ok else "  MISMATCH"
    return f"p={r.p} (class {r.residue}, {rep})  {cells}{flag}"


def cmd_table(args) -> int:
    if args.pmax < 3:
        raise ValueError("--pmax must be at least 3")
    _check_h_index("--pmax", args.pmax, 4 * args.pmax)
    rows = list(main_table_rows(args.pmax))
    all_ok = all(r.ok for r in rows)
    emit(
        args.format,
        "table",
        lambda: {
            "p_max": args.pmax,
            "rows": [
                {
                    "p": r.p,
                    "class": r.residue,
                    "x": r.x,
                    "y": r.y,
                    "cells": [
                        {"m": m, "direct": d, "formula": f, "match": ok}
                        for m, d, f, ok in _cells(r)
                    ],
                }
                for r in rows
            ],
            "ok": all_ok,
        },
        ["p", "class", "x", "y"]
        + [f"m{m}_{col}" for m in range(4) for col in ("direct", "formula", "match")],
        lambda: (
            [r.p, r.residue, r.x, r.y]
            + [v for _, d, f, ok in _cells(r) for v in (d, f, int(ok))]
            for r in rows
        ),
        lambda: map(_table_line, rows),
    )
    return 0 if all_ok else 1


def _mismatch(r) -> tuple[int, str, str] | None:
    if r.first_mismatch is None:
        return None
    n, lhs, rhs = r.first_mismatch
    return n, rational(lhs, r.unit), rational(rhs, r.unit)


def _report_line(r) -> str:
    if r.ok:
        return f"{r.id}: ok, n <= {r.checked_upto} ({r.elapsed:.2f}s)"
    n, lhs, rhs = _mismatch(r)
    return (
        f"{r.id}: FAIL at n = {n}: lhs = {lhs}, rhs = {rhs} "
        f"(checked n <= {r.checked_upto}, {r.elapsed:.2f}s)"
    )


def cmd_verify(args) -> int:
    if args.bound is not None and args.bound < 0:
        raise ValueError("--bound must be non-negative")
    for suite in SUITES if args.suite == "all" else (args.suite,):
        if args.bound is not None and args.bound < SUITES[suite].least:
            raise ValueError(f"--bound must be at least {SUITES[suite].least} for --suite {suite}")
    reports = run_suite(args.suite, args.bound)
    all_ok = all(r.ok for r in reports)
    emit(
        args.format,
        "verify",
        lambda: {
            "suite": args.suite,
            "reports": [
                {
                    "id": r.id,
                    "ok": r.ok,
                    "checked_upto": r.checked_upto,
                    "first_mismatch": None
                    if r.first_mismatch is None
                    else dict(zip(("n", "lhs", "rhs"), _mismatch(r))),
                }
                for r in reports
            ],
            "ok": all_ok,
        },
        ["id", "ok", "checked_upto", "mismatch_n", "lhs", "rhs"],
        lambda: (
            [r.id, int(r.ok), r.checked_upto, *(_mismatch(r) or ("", "", ""))]
            for r in reports
        ),
        lambda: map(_report_line, reports),
    )
    return 0 if all_ok else 1


def cmd_newform(args) -> int:
    least = 3 if args.method == "cross" else 1  # cross compares odd primes p != 7
    if args.nmax < least:
        raise ValueError(f"--nmax must be at least {least} for --method {args.method}")
    if args.nmax > MAX_NEWFORM_N:
        raise ValueError(f"--nmax {args.nmax} is over the cap MAX_NEWFORM_N = {MAX_NEWFORM_N}")
    if args.method != "cross":
        values = newform_an(args.nmax, cm_aps if args.method == "cm" else ec_aps).coeffs[1:]
        emit(
            args.format,
            "newform",
            lambda: {"method": args.method, "n_max": args.nmax, "a": values},
            ["n", "a_n"],
            lambda: enumerate(values, 1),
            lambda: [",".join(map(str, values))],
        )
        return 0
    rows = [(p, ec, cm, ec == cm) for p, ec, cm in ap_pairs(args.nmax)]
    all_ok = all(ok for *_, ok in rows)
    emit(
        args.format,
        "newform-cross",
        lambda: {
            "n_max": args.nmax,
            "primes": [{"p": p, "ec": ec, "cm": cm, "match": ok} for p, ec, cm, ok in rows],
            "ok": all_ok,
        },
        ["p", "a_p_ec", "a_p_cm", "match"],
        lambda: ((p, ec, cm, int(ok)) for p, ec, cm, ok in rows),
        lambda: [
            *(f"p={p} ec={ec} cm={cm} {'ok' if ok else 'MISMATCH'}" for p, ec, cm, ok in rows),
            f"cross-check {'ok' if all_ok else 'FAILED'}: {len(rows)} odd primes <= {args.nmax}",
        ],
    )
    return 0 if all_ok else 1


# Every accepted series name, each with its builder of one argument, the order.
_SERIES_BUILDERS = {
    "H": hurwitz_series,
    "D": d_series,
    "G": g_series,
    "Psi7": psi_7,
    **{f"D1_7_{a}": partial(d_pa_series, 1, 7, a) for a in range(7)},
    **{f"theta_{m}_7": partial(theta_mM, m, 7) for m in range(7)},
    **{f"Lambda_1_{m}_7": partial(lambda_series, 1, m, 7) for m in range(7)},
}


def named_series(name: str, order: int) -> QSeries:
    if name not in _SERIES_BUILDERS:
        raise ValueError(
            f"unknown series {name!r}; expected H, D, G, Psi7, D1_7_a, "
            "theta_m_7 or Lambda_1_m_7 with a, m in 0..6"
        )
    return _SERIES_BUILDERS[name](order)


def cmd_series(args) -> int:
    if args.order < 0:
        raise ValueError("--order must be non-negative")
    if args.order > MAX_NEWFORM_N:
        raise ValueError(f"--order {args.order} is over the cap MAX_NEWFORM_N = {MAX_NEWFORM_N}")
    series = named_series(args.name, args.order)
    coeffs = [rational(c, series.den) for c in series.coeffs]
    emit(
        args.format,
        "series",
        lambda: {"name": args.name, "order": series.order, "coeffs": coeffs},
        ["n", "coeff"],
        lambda: enumerate(coeffs),
        lambda: [",".join(coeffs)],
    )
    return 0


_FORMAT = ("--format", {"choices": ("text", "csv", "json"), "default": "text"})

# Each command's help line, its arguments as (name or flag, add_argument
# keywords), and its function: the one table both parsers are built from.
COMMANDS = {
    "hurwitz": (
        "Hurwitz class number H(N), single or table",
        [
            ("N", {"nargs": "?", "type": int}),
            ("--max", {"type": int, "help": "emit the table for 0..MAX"}),
            _FORMAT,
        ],
        cmd_hurwitz,
    ),
    "sum": (
        "residue-restricted sum H_{m,M}(n)",
        [(flag, {"type": int, "required": True}) for flag in ("--m", "--M", "--n")] + [_FORMAT],
        cmd_sum,
    ),
    "table": (
        "closing table vs the product route per odd prime",
        [("--pmax", {"type": int, "required": True}), _FORMAT],
        cmd_table,
    ),
    "verify": (
        "run an identity suite",
        [
            ("--suite", {"choices": (*SUITES, "all"), "required": True}),
            ("--bound", {"type": int, "help": "truncate the default bounds"}),
            _FORMAT,
        ],
        cmd_verify,
    ),
    "newform": (
        "newform coefficients a_n",
        [
            ("--nmax", {"type": int, "required": True}),
            ("--method", {"choices": ("ec", "cm", "cross"), "default": "ec"}),
            _FORMAT,
        ],
        cmd_newform,
    ),
    "series": (
        "dump a named q-series",
        [
            ("name", {"help": "H | D | G | Psi7 | D1_7_a | theta_m_7 | Lambda_1_m_7 (a, m in 0..6)"}),
            ("--order", {"type": int, "default": 30}),
            _FORMAT,
        ],
        cmd_series,
    ),
}


def parse(argv: list[str]):
    """The command named by argv[0], and argv[1:] parsed by that command's
    parser alone: no other command's parser is built.  A usage error exits 2."""
    top = argparse.ArgumentParser(
        prog="hcn7",
        usage=f"%(prog)s [-h] {{{','.join(COMMANDS)}}} ...",
        description="Exact Hurwitz class number sums mod 7 and their identity battery.",
        epilog="commands:\n" + "\n".join(f"  {name:<20}  {line}" for name, (line, _, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("command", choices=COMMANDS, help="one of the commands below")
    command = top.parse_args(argv[:1]).command
    _, arguments, func = COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"hcn7 {command}")
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    return func, parser.parse_args(argv[1:])


def main(argv=None) -> int:
    func, args = parse(sys.argv[1:] if argv is None else argv)
    try:
        code = func(args)
        # flush here, so that a reader gone early is caught below and not
        # at interpreter exit
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # as the Python docs advise for SIGPIPE: point stdout at devnull
        # so the interpreter's final flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
