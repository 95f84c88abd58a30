"""Command-line front end.

Commands: hurwitz, sum, table, verify, newform, series.  Output formats
text (default), csv (header row, LF endings) and json (fixed key order).
Rationals are always rendered as "num/den" strings, integers as plain
decimals, never as floats.

Exit codes: 0 success, 1 verification/cross-check failure, 2 usage error,
141 when the reader closes stdout early (as in `hcn7 ... | head`), with
nothing written to stderr.  No environment variable changes what a
command does.

Inputs are capped before anything is allocated: MAX_H_INDEX bounds the
largest H(N) index a command would reach (N for `hurwitz N` and
`hurwitz --max N`, 4n for `sum --n n`, 4P for `table --pmax P`; both
H_{m,M} routes, the direct sum and the product, check their largest
index against it too) and MAX_NEWFORM_N bounds `newform --nmax` and
`series --order`.  An input over its cap is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction

from .arith import d_pa_series, d_series, lambda_series, psi_7, theta_mM
from .hurwitz import hmm_sum, hurwitz_batch, hurwitz_series, hurwitz_single
from .newform49 import ap_pairs, cm_ap, g_series, newform_an, newform_ap
from .qseries import MAX_H_INDEX, QSeries
from .verify import SUITE_NAMES, main_table_rows, run_suite

MAX_NEWFORM_N = 10**6


def _check_h_index(option: str, value: int, index: int) -> None:
    """Reject, before any allocation, an input that reaches H past MAX_H_INDEX."""
    if index > MAX_H_INDEX:
        raise ValueError(
            f"{option} {value} would reach H index {index}, "
            f"over the cap MAX_H_INDEX = {MAX_H_INDEX}"
        )


def fmt_rat(x) -> str:
    """Render exactly: "num/den" for proper fractions, plain decimal else."""
    return str(Fraction(x))


def emit(fmt: str, kind: str, payload, header: list[str], rows, lines) -> None:
    """Print one result as json, csv or text.

    Each form is a zero-argument function, and only the one fmt selects is
    called: payload() gives the json payload, rows() the csv rows under
    header (None renders as an empty field), lines() the text lines.
    """
    if fmt == "json":
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
        pairs = [(n, fmt_rat(Fraction(t, 12))) for n, t in enumerate(hurwitz_batch(args.max))]
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
    value = fmt_rat(hurwitz_single(args.N))
    emit_record(args.format, "hurwitz", {"N": args.N, "H": value}, value)
    return 0


def cmd_sum(args) -> int:
    _check_h_index("--n", args.n, 4 * args.n)
    value = fmt_rat(hmm_sum(args.m, args.M, args.n))
    emit_record(args.format, "sum", {"m": args.m, "M": args.M, "n": args.n, "value": value}, value)
    return 0


def _table_line(r) -> str:
    rep = f"x={r.x} y={r.y}" if r.x is not None else "inert"
    cells = "  ".join(
        f"m{m}: {fmt_rat(d)}{'=' if ok else '!='}{fmt_rat(f)}" for m, d, f, ok in r.cells
    )
    flag = "" if r.ok else "  MISMATCH"
    return f"p={r.p} (class {r.residue}, {rep})  {cells}{flag}"


def cmd_table(args) -> int:
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
                        {"m": m, "direct": fmt_rat(d), "formula": fmt_rat(f), "match": ok}
                        for m, d, f, ok in r.cells
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
            + [v for _, d, f, ok in r.cells for v in (fmt_rat(d), fmt_rat(f), int(ok))]
            for r in rows
        ),
        lambda: map(_table_line, rows),
    )
    return 0 if all_ok else 1


def _mismatch(r) -> tuple[int, str, str] | None:
    if r.first_mismatch is None:
        return None
    n, lhs, rhs = r.first_mismatch
    return n, fmt_rat(lhs), fmt_rat(rhs)


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
    if args.nmax > MAX_NEWFORM_N:
        raise ValueError(f"--nmax {args.nmax} is over the cap MAX_NEWFORM_N = {MAX_NEWFORM_N}")
    if args.method != "cross":
        values = newform_an(args.nmax, cm_ap if args.method == "cm" else newform_ap).coeffs[1:]
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


_SERIES_PATTERNS = [
    (re.compile(r"^H$"), lambda m, order: hurwitz_series(order)),
    (re.compile(r"^D$"), lambda m, order: d_series(order)),
    (re.compile(r"^G$"), lambda m, order: g_series(order)),
    (re.compile(r"^Psi7$"), lambda m, order: psi_7(order)),
    (re.compile(r"^D1_7_([0-6])$"), lambda m, order: d_pa_series(1, 7, int(m.group(1)), order)),
    (re.compile(r"^theta_([0-6])_7$"), lambda m, order: theta_mM(int(m.group(1)), 7, order)),
    (re.compile(r"^Lambda_1_([0-6])_7$"), lambda m, order: lambda_series(1, int(m.group(1)), 7, order)),
]


def named_series(name: str, order: int) -> QSeries:
    for pattern, builder in _SERIES_PATTERNS:
        m = pattern.match(name)
        if m:
            return builder(m, order)
    raise ValueError(
        f"unknown series {name!r}; expected H, D, G, Psi7, D1_7_a, "
        "theta_m_7 or Lambda_1_m_7 with a, m in 0..6"
    )


def cmd_series(args) -> int:
    if args.order < 0:
        raise ValueError("--order must be non-negative")
    if args.order > MAX_NEWFORM_N:
        raise ValueError(f"--order {args.order} is over the cap MAX_NEWFORM_N = {MAX_NEWFORM_N}")
    series = named_series(args.name, args.order)
    coeffs = [fmt_rat(c) for c in series.coeffs]
    emit(
        args.format,
        "series",
        lambda: {"name": args.name, "order": series.order, "coeffs": coeffs},
        ["n", "coeff"],
        lambda: enumerate(coeffs),
        lambda: [",".join(coeffs)],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcn7",
        description="Exact Hurwitz class number sums mod 7 and their identity battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("hurwitz", help="Hurwitz class number H(N), single or table")
    p.add_argument("N", nargs="?", type=int, default=None)
    p.add_argument("--max", type=int, default=None, help="emit the table for 0..MAX")
    add_format(p)
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("sum", help="residue-restricted sum H_{m,M}(n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("table", help="closing table vs direct sums per odd prime")
    p.add_argument("--pmax", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--bound", type=int, default=None, help="truncate the default bounds")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("newform", help="newform coefficients a_n")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--method", choices=("ec", "cm", "cross"), default="ec")
    add_format(p)
    p.set_defaults(func=cmd_newform)

    p = sub.add_parser("series", help="dump a named q-series")
    p.add_argument(
        "name",
        help="H | D | G | Psi7 | D1_7_a | theta_m_7 | Lambda_1_m_7 (a, m in 0..6)",
    )
    p.add_argument("--order", type=int, default=30)
    add_format(p)
    p.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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
