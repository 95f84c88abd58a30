"""The level-49 newform: point counts, Hecke recursion, CM closed form,
and a prime range's point counts split across two processes."""

import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import hcn7.arith
import hcn7.newform49
import hcn7.primes
import hcn7.verify
from hcn7.newform49 import (
    _split_map,
    ap_pairs,
    cm_aps,
    ec_aps,
    ec_point_count,
    g_series,
    newform_an,
    represent_7,
)
from hcn7.primes import primes_up_to
from hcn7.verify import main_table_rows
from oracles import newform_an_oracle, represent_7_scan

SRC = str(Path(__file__).resolve().parents[1] / "src")


def brute_points(p):
    """Oracle: exhaustive (x, y) enumeration of the curve over F_p."""
    count = 1
    for x in range(p):
        rhs = (x**3 - x**2 - 2 * x - 1) % p
        for y in range(p):
            if (y * y + x * y) % p == rhs:
                count += 1
    return count


def test_point_count_examples():
    assert ec_point_count(2) == 2
    assert ec_point_count(3) == 4
    assert ec_point_count(11) == 8


def test_point_count_against_brute_force():
    for p in primes_up_to(200):
        if p == 7:
            continue
        assert ec_point_count(p) == brute_points(p), p


def test_point_count_validation():
    with pytest.raises(ValueError):
        ec_point_count(7)


def test_ap_values():
    assert ec_aps([2, 3, 7, 11]) == [1, 0, 0, 4]
    assert ec_aps([11, 2]) == [4, 1]
    assert ec_aps([]) == []


def test_an_expansion():
    an = newform_an(49)
    assert [an[n] for n in range(1, 10)] == [1, 1, 0, -1, 0, 0, 0, -3, -3]
    assert an[6] == 0  # a2 * a3
    assert an[49] == 0
    with pytest.raises(IndexError):
        an[50]


@pytest.mark.parametrize("n_max", [1, 2, 343, 2401, 4096, 5000])
def test_an_matches_factoring_oracle(n_max):
    # 343 = 7^3, 2401 = 7^4 and 4096 = 2^12 end the range on a prime power,
    # whose slice holds one element
    an = newform_an(n_max)
    assert an.order == n_max
    assert an[0] == 0
    assert [n for n in range(1, n_max + 1) if an[n] != newform_an_oracle(n)] == []


def test_an_peak_memory_is_the_coefficient_list():
    # the coefficient list and the QSeries tuple built from it take 8 bytes a
    # slot each, the a_n outside the small-int cache about 4.5 bytes per n,
    # and the slices a few more: about 26 bytes per n on CPython 3.10-3.12.
    # One more per-n list, such as a smallest-prime-factor table, passes 32.
    n_max = 200_000
    tracemalloc.start()
    try:
        newform_an(n_max, cm_aps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n_max < 32, peak / n_max


def test_an_multiplicative():
    an = newform_an(2000)
    rng = random.Random(41)
    from math import gcd

    for _ in range(200):
        m = rng.randint(1, 60)
        n = rng.randint(1, 33)
        if gcd(m, n) == 1:
            assert an[m * n] == an[m] * an[n], (m, n)


def test_hasse_bound():
    primes = [p for p in primes_up_to(3000) if p != 7]
    for p, ap in zip(primes, ec_aps(primes)):
        assert ap * ap <= 4 * p, p


def test_inert_primes_vanish():
    primes = [p for p in primes_up_to(3000) if p not in (2, 7)]
    for p, ap in zip(primes, ec_aps(primes)):
        assert (ap == 0) == (p % 7 in (3, 5, 6)), p


def test_representations():
    assert represent_7([11, 23, 29]) == {11: (2, 1), 23: (4, 1), 29: (1, 2)}


def test_representation_uniqueness_full_scan():
    # one sweep over the range finds the scan's one pair for every split
    # prime, and nothing for any other prime
    split = [p for p in primes_up_to(10**5) if p % 7 in (1, 2, 4) and p != 2]
    assert represent_7(primes_up_to(10**5)) == {p: represent_7_scan(p) for p in split}


def test_representation_errors():
    # 2, 7 and the inert primes have no pair, so no key
    primes = primes_up_to(10**4)
    found = represent_7(primes)
    assert [p for p in found if p in (2, 7) or p % 7 in (3, 5, 6)] == []
    # any other n gets a true pair or none: 91 = 7 * 13 has none,
    # 841 = 29^2 = 27^2 + 7 * 4^2
    found = represent_7([91, 841, *range(-3, 400)])
    assert 91 not in found and 841 in found
    assert all(x > 0 and y > 0 and x * x + 7 * y * y == n for n, (x, y) in found.items())


def test_representation_of_any_list():
    primes = primes_up_to(5000)
    whole = represent_7(primes)
    assert represent_7([]) == {}
    assert represent_7(primes[::-1]) == whole
    # a list with gaps: every other prime, so the largest wanted value is not
    # the last of the range either
    gaps = primes[1:-1:2]
    assert represent_7(gaps) == {p: whole[p] for p in gaps if p in whole}


def test_cm_ap():
    assert cm_aps([2, 3, 7, 11, 29]) == [1, 0, 0, 4, 2]


def test_cm_matches_point_counts():
    assert [p for p, ec, cm in ap_pairs(2000) if ec != cm] == []


def test_g_series():
    g = g_series(11)
    assert g[0] == 0
    assert [int(g[n]) for n in range(1, 10)] == [1, 1, 0, -1, 0, 0, 0, -3, -3]
    assert g[11] == 4


def test_primes_come_only_from_the_sieve(monkeypatch):
    """With every trial-division routine failing and a cold a_p cache,
    each route over primes still runs: its primes come from the sieve."""

    def forbidden(*args):
        raise AssertionError("a prime was re-checked by trial division")

    for module in (hcn7.primes, hcn7.arith, hcn7.verify, hcn7.newform49):
        for name in ("prime_factors", "is_prime"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(hcn7.newform49, "_ap_cache", {7: 0})
    assert [p for p, ec, cm in ap_pairs(3000) if ec != cm] == []
    assert newform_an(3000) == newform_an(3000, cm_aps)
    assert all(r.ok for r in main_table_rows(3000))


# -- one prime range split across two processes ------------------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Let a range of 8 primes split, start from a cold a_p cache, and
    record the pid of every child forked."""
    monkeypatch.setattr(hcn7.newform49, "_SPLIT_MIN_PRIMES", 8)
    monkeypatch.setattr(hcn7.newform49, "_ap_cache", {7: 0})
    pids = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


def _cores(monkeypatch, n):
    """The split sees n cores, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_one_process_and_two_give_equal_lists(forks, monkeypatch):
    primes = [p for p in primes_up_to(3000) if p != 7]

    def count_where(p):
        return ec_point_count(p), os.getpid()

    _cores(monkeypatch, 1)
    one = _split_map(count_where, primes)
    assert forks == []
    _cores(monkeypatch, 2)
    two = _split_map(count_where, primes)
    _assert_no_child_left()
    assert len(forks) == 1
    assert [c for c, _ in two] == [c for c, _ in one] == list(map(ec_point_count, primes))
    # the parent counted the even positions, its one child the odd ones
    assert {pid for _, pid in one + two[::2]} == {os.getpid()}
    assert {pid for _, pid in two[1::2]} == set(forks)
    # ap_pairs fills its cache through the split: one more child
    cm = cm_aps(primes)
    assert list(ap_pairs(3000)) == [(p, p + 1 - c, a) for p, (c, _), a in zip(primes, one, cm)][1:]
    assert len(forks) == 2
    _assert_no_child_left()


def test_no_fork_while_another_thread_runs(forks, monkeypatch):
    # a fork in a threaded process may deadlock the child, and Python 3.12
    # warns of it, which the test settings turn into an error
    _cores(monkeypatch, 2)
    primes = [p for p in primes_up_to(200) if p != 7]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _split_map(ec_point_count, primes) == list(map(ec_point_count, primes))
    finally:
        release.set()
        thread.join(timeout=60)
    assert forks == []
    _split_map(ec_point_count, primes)
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_count_failing_in_the_child_fails_in_the_parent(forks, monkeypatch):
    _cores(monkeypatch, 2)
    primes = [p for p in primes_up_to(500) if p not in (2, 7)]
    bad = primes[5]  # an odd position: the child's share
    raised_in = []

    def failing_count(p):
        if p == bad:
            raised_in.append(os.getpid())
            raise ValueError(f"no count at {p}")
        return ec_point_count(p)

    monkeypatch.setattr(hcn7.newform49, "ec_point_count", failing_count)
    with pytest.raises(ValueError, match=f"^no count at {bad}$"):
        ap_pairs(500)
    _assert_no_child_left()
    assert len(forks) == 1
    # the child's raise stayed in the child; the parent recounted its share
    assert raised_in == [os.getpid()]
    assert bad not in hcn7.newform49._ap_cache


def test_a_parent_failing_before_it_reads_does_not_wait_on_a_full_pipe(tmp_path):
    # the child's share marshals to about 1 MiB, far past a 64 KiB pipe
    # buffer; the parent fails at its first prime, before it reads, and
    # must still close the pipe and reap the child
    script = tmp_path / "split.py"
    script.write_text(
        "import os, sys\n"
        "import hcn7.newform49 as nf\n"
        "nf._SPLIT_MIN_PRIMES = 2\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def f(i):\n"
        "    if i == 0:\n"
        "        raise ValueError('the parent failed')\n"
        "    return (1 << 8192) + i  # 1 KiB each, and no two alike\n"
        "try:\n"
        "    nf._split_map(f, list(range(2048)))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"the parent failed\nno child left\n", b"")
