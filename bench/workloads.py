"""The four workloads: their inputs, drawn from the seed, and their checks.

Each workload is a Workload with
  make(rng)                    -> (inputs for the program, spot-check picks)
  check(text, inputs, picks)   -> (operations, operations failed, errors)
where text is the round's output.  An operation the program itself reports
as failed (a FAIL report, a mismatched table row or prime) counts in
`failed` and is not checked further; any other departure from the
reference is an error, and the run is then incorrect.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference

TABLE_PMAX = 30_000
NEWFORM_NMAX = 10_000
SERIES_ORDER = 750  # internal order 4 * 750 = 3000, the default HCN_MAX_ORDER
MODULUS_PAIRS = 3  # pairs (M, 25 - M), 3 <= M <= 12
SPOT_TABLE_CELLS = 3
SPOT_NEWFORM_PRIMES = 8
SPOT_SERIES_TERMS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable
    check: Callable


def _rows(text: str, header: list[str], errors: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        errors.append(f"header {rows[:1]} != {header}")
        return []
    return rows[1:]


def _table_primes(limit: int) -> list[int]:
    return [p for p in reference.primes_upto(limit) if p not in (2, 7)]


# -- battery: hcn7 verify --suite all --format csv --------------------------

BATTERY_SUITES = ("thm35", "lemma42", "prop31", "prop41", "hk", "main")


def battery_make(rng):
    """The six suites of `hcn7 verify --suite all`, in its order, as six
    commands in one interpreter: the same work and caches, timed per suite."""
    calls = [["verify", "--suite", suite, "--format", "csv"] for suite in BATTERY_SUITES]
    return {"calls": calls}, {}


def battery_expected() -> dict[str, int]:
    """Each report id with the range the paper checks it on.  The thm35
    ranges are one past Sturm bounds recomputed from the index formula."""
    thm35 = reference.sturm_bound(2, 196, 7) + 1
    thm35_m0 = reference.sturm_bound(2, 196, 1) + 1
    ids = {"thm35.m0": thm35_m0}
    ids.update({f"thm35.m{m}.s{a}": thm35 for m in (1, 2, 3) for a in range(1, 7)})
    ids["lemma42"] = 1000
    ids.update({f"prop31.k{k}.m{m}": 300 for k in (0, 1) for m in range(7)})
    ids["prop41"] = 1000
    ids["hurwitz-kronecker"] = 5000
    ids.update({f"main.r{r}.m{m}": 10_000 for r in range(1, 7) for m in range(4)})
    ids["main.rowsum"] = 10_000
    return ids


def battery_check(text, inputs, picks):
    errors: list[str] = []
    header = ["id", "ok", "checked_upto", "mismatch_n", "lhs", "rhs"]
    rows = list(csv.reader(io.StringIO(text)))
    headers = sum(1 for row in rows if row == header)
    if headers != len(inputs["calls"]) or rows[:1] != [header]:
        errors.append(f"{headers} report headers for {len(inputs['calls'])} suites")
    rows = [row for row in rows if row != header]
    expected = battery_expected()
    got = [row[0] for row in rows]
    if got != list(expected):
        errors.append(f"report ids {got} != {list(expected)}")
    failed = 0
    for row in rows:
        if len(row) != 6:
            errors.append(f"malformed report {row}")
            continue
        id_, ok, upto = row[:3]
        if ok != "1":
            failed += 1
            continue
        if any(row[3:]):
            errors.append(f"{id_} is ok but names a mismatch: {row}")
        if id_ in expected and upto != str(expected[id_]):
            errors.append(f"{id_} checked up to {upto}, expected {expected[id_]}")
    return len(expected), failed, errors


# -- closing-table: hcn7 table --pmax P --format csv -------------------------

def table_make(rng, pmax=TABLE_PMAX):
    primes = _table_primes(pmax)
    picks = [(rng.choice(primes), rng.randrange(4)) for _ in range(SPOT_TABLE_CELLS)]
    return {"calls": [["table", "--pmax", str(pmax), "--format", "csv"]], "pmax": pmax}, {"cells": picks}


def table_check(text, inputs, picks):
    errors: list[str] = []
    header = ["p", "class", "x", "y"] + [
        f"m{m}_{col}" for m in range(4) for col in ("direct", "formula", "match")
    ]
    rows = _rows(text, header, errors)
    primes = _table_primes(inputs["pmax"])
    got = [int(row[0]) for row in rows]
    if got != primes:
        errors.append(f"{len(got)} rows, expected one per odd prime != 7 up to {inputs['pmax']} ({len(primes)})")
    direct_cells = {}
    failed = 0
    for row in rows:
        p, residue = int(row[0]), int(row[1])
        if residue != p % 7:
            errors.append(f"p = {p}: class {residue}")
        if p % 7 in (1, 2, 4):
            x, y = int(row[2]), int(row[3])
            if x < 1 or y < 1 or x * x + 7 * y * y != p:
                errors.append(f"p = {p}: x = {x}, y = {y} do not give x^2 + 7y^2 = p")
        elif row[2] or row[3]:
            errors.append(f"p = {p} is inert but has x, y = {row[2:4]}")
        cells = [row[4 + 3 * m: 7 + 3 * m] for m in range(4)]
        if any(match != "1" for _, _, match in cells):
            failed += 1
            continue
        direct = [Fraction(d) for d, _, _ in cells]
        direct_cells[p] = direct
        for m, (d, formula, _) in enumerate(cells):
            if direct[m] != Fraction(formula):
                errors.append(f"p = {p}, m = {m}: direct {d} != formula {formula}, yet marked a match")
        if direct[0] + 2 * (direct[1] + direct[2] + direct[3]) != 2 * p:
            errors.append(f"p = {p}: H_0 + 2H_1 + 2H_2 + 2H_3 != 2p")
    for p, m in picks["cells"]:
        if p in direct_cells and direct_cells[p][m] != reference.class_sum(m, 7, p):
            errors.append(f"p = {p}, m = {m}: direct {direct_cells[p][m]} != reference {reference.class_sum(m, 7, p)}")
    return len(primes), failed, errors


# -- newform-cross: hcn7 newform --nmax N --method cross --format csv ---------

def newform_make(rng, nmax=NEWFORM_NMAX):
    primes = _table_primes(nmax)
    picks = sorted(rng.sample(primes, min(SPOT_NEWFORM_PRIMES, len(primes))))
    argv = ["newform", "--nmax", str(nmax), "--method", "cross", "--format", "csv"]
    return {"calls": [argv], "nmax": nmax}, {"primes": picks}


def newform_check(text, inputs, picks):
    errors: list[str] = []
    rows = _rows(text, ["p", "a_p_ec", "a_p_cm", "match"], errors)
    primes = _table_primes(inputs["nmax"])
    got = [int(row[0]) for row in rows]
    if got != primes:
        errors.append(f"{len(got)} rows, expected one per odd prime != 7 up to {inputs['nmax']} ({len(primes)})")
    ap = {}
    failed = 0
    for p_text, ec_text, cm_text, match in rows:
        p, ec, cm = int(p_text), int(ec_text), int(cm_text)
        if match != "1":
            failed += 1
            continue
        ap[p] = ec
        if ec != cm:
            errors.append(f"p = {p}: ec {ec} != cm {cm}, yet marked a match")
        if ec * ec > 4 * p:
            errors.append(f"p = {p}: a_p = {ec} breaks the Hasse bound")
        if (ec == 0) != (p % 7 in (3, 5, 6)):
            errors.append(f"p = {p} = {p % 7} (mod 7) but a_p = {ec}")
    for p in picks["primes"]:
        if p in ap and ap[p] != p + 1 - reference.curve_points(p):
            errors.append(f"p = {p}: a_p = {ap[p]} != p + 1 - #E(F_p) = {p + 1 - reference.curve_points(p)}")
    return len(primes), failed, errors


# -- product-route: hmm_series against hmm_sum for every residue -------------

def series_make(rng, pairs=MODULUS_PAIRS, order=SERIES_ORDER):
    """Moduli come in pairs (M, 25 - M): the cost of a modulus grows with M,
    so every seed gets the same total sum of M = 25 * pairs."""
    low = rng.sample(range(3, 13), pairs)
    moduli = sorted(low + [25 - M for M in low])
    picks = []
    for _ in range(SPOT_SERIES_TERMS):
        M = rng.choice(moduli)
        picks.append((rng.randrange(M), M, rng.randrange(order + 1)))
    return {"moduli": moduli, "order": order}, {"terms": picks}


def series_check(text, inputs, picks):
    errors: list[str] = []
    order, moduli = inputs["order"], inputs["moduli"]
    series: dict[tuple[int, int], list[Fraction]] = {}
    direct: dict[tuple[int, int], list[Fraction]] = {}
    for line in text.splitlines():
        M, m, n, s, d = line.split(",")
        key = (int(m), int(M))
        if int(n) != len(series.setdefault(key, [])):
            errors.append(f"(m, M) = {key}: coefficient {n} out of order")
        series[key].append(Fraction(s))
        direct.setdefault(key, []).append(Fraction(d))
    keys = [(m, M) for M in moduli for m in range(M)]
    if sorted(series) != sorted(keys):
        errors.append(f"got {len(series)} (m, M) series, expected {len(keys)}")
        return len(keys), 0, errors
    for key in keys:
        if len(series[key]) != order + 1:
            errors.append(f"(m, M) = {key}: {len(series[key])} coefficients, expected {order + 1}")
            return len(keys), 0, errors
        bad = [n for n in range(order + 1) if series[key][n] != direct[key][n]]
        if bad:
            errors.append(f"(m, M) = {key}: product route != direct sum at n = {bad[0]}")
    want = [reference.hurwitz_h(0)] + [reference.hurwitz_kronecker_rhs(n) for n in range(1, order + 1)]
    for M in moduli:
        bad = [n for n in range(order + 1) if sum(series[(m, M)][n] for m in range(M)) != want[n]]
        if bad:
            errors.append(f"M = {M}: sum over m of H_m,M(n) != Hurwitz-Kronecker at n = {bad[0]}")
    for m, M, n in picks["terms"]:
        if direct[(m, M)][n] != reference.class_sum(m, M, n):
            errors.append(f"H_{m},{M}({n}) = {direct[(m, M)][n]} != reference {reference.class_sum(m, M, n)}")
    return len(keys), 0, errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("battery", battery_make, battery_check),
        Workload("closing-table", table_make, table_check),
        Workload("newform-cross", newform_make, newform_check),
        Workload("product-route", series_make, series_check),
    )
}
