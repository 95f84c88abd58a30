"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs each workload once, at a reduced size except for the battery (whose
checks pin the paper's ranges), and requires its check to pass on the real
output and to fail on each corrupted copy of it.  Exits 1 if any check
passes what it should refuse or refuses what it should pass.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import run
from workloads import WORKLOADS, battery_make, newform_make, series_make, table_make


def _edit_field(text: str, line: int, field: int, edit) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[line].rstrip("\n").split(",")
    fields[field] = edit(fields[field])
    lines[line] = ",".join(fields) + "\n"
    return "".join(lines)


def lower_checked_upto(text: str) -> str:
    """The first report (thm35.m0) claims one coefficient fewer."""
    return _edit_field(text, 1, 2, lambda upto: str(int(upto) - 1))


def change_cell(text: str) -> str:
    """The m1 direct sum of the first table row grows by 1."""
    return _edit_field(text, 1, 7, lambda d: str(Fraction(d) + 1))


def drop_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:2] + lines[3:])


def move_coefficient(text: str) -> str:
    """One product-route coefficient moves by 1/12."""
    return _edit_field(text, 5, 3, lambda s: str(Fraction(s) + Fraction(1, 12)))


CASES = [
    ("battery", battery_make, [lower_checked_upto]),
    ("closing-table", lambda rng: table_make(rng, pmax=2000), [change_cell, drop_row]),
    ("newform-cross", lambda rng: newform_make(rng, nmax=2000), [drop_row]),
    ("product-route", lambda rng: series_make(rng, pairs=1), [move_coefficient]),
]


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    wrong = 0
    for name, make, corruptions in CASES:
        inputs, picks = make(random.Random(0))
        output = run.WORK / f"selftest-{name}.out"
        run.run_round(name, inputs, False, output)
        text = output.read_text()
        check = WORKLOADS[name].check
        _, failed, errors = check(text, inputs, picks)
        passed = not errors and not failed
        print(f"{name}: real output {'passes' if passed else 'FAILS: ' + '; '.join(errors[:3])}")
        wrong += not passed
        for corrupt in corruptions:
            _, failed, errors = check(corrupt(text), inputs, picks)
            caught = bool(errors or failed)
            print(f"{name}: {corrupt.__name__} {'caught: ' + errors[0] if caught else 'NOT CAUGHT'}")
            wrong += not caught
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
