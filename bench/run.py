"""Benchmark of hcn7 on four fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload for S seconds, one child interpreter at a
time (bench/child.py), so that every round starts with cold module caches
as every call of the hcn7 command does.  Then it checks the first round's
output against the reference code and every later round's output against
the first, prints a results record, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:
run_s sums each timed part's fastest round (see README.md for why),
setup_s and peak_rss_mib are medians.  With --trace 1 rounds alternate untraced and
traced, and the metrics are the per-layer ones, medians over the traced
rounds.  Workloads and checks are in workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
SETUP_SAMPLES = 12  # import-only children per run, besides one per round
CHILD_TIMEOUT_S = 150


def run_child(spec: dict) -> dict:
    """One fresh interpreter running child.py; HCN_MAX_ORDER stays at its
    default, and -E keeps PYTHON* variables from changing the interpreter."""
    spec = dict(spec, result=str(WORK / "result.json"))
    env = {k: v for k, v in os.environ.items() if k != "HCN_MAX_ORDER"}
    subprocess.run(
        [sys.executable, "-E", "-s", str(BENCH / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(Path(spec["result"]).read_text())


def run_round(workload: str, inputs: dict, traced: bool, output: Path) -> dict:
    result = run_child(
        {"workload": workload, "inputs": inputs, "trace": traced, "output": str(output)}
    )
    result["digest"] = hashlib.sha256(output.read_bytes()).hexdigest()
    return result


def run_setup() -> dict:
    return run_child({"workload": "setup"})


def fastest(rounds: list[dict]) -> float:
    """Sum over the workload's parts of each part's fastest round."""
    return sum(min(part) for part in zip(*(r["parts"] for r in rounds)))


def commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind, so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hcn7" / "__init__.py").is_file():
        print(f"error: no hcn7 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    inputs, picks = workload.make(random.Random(args.seed))
    WORK.mkdir(exist_ok=True)
    run_setup()  # the first import in a checkout writes the bytecode cache
    first = WORK / f"{args.workload}.first.out"
    later = WORK / f"{args.workload}.out"
    rounds: list[dict] = []
    start = last = time.perf_counter()
    round_s = 0.0
    # A round starts only if one as long as the last still ends in time.
    while len(rounds) < 1 + args.trace or last + round_s - start <= args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args.workload, inputs, traced, later if rounds else first))
        now = time.perf_counter()
        round_s, last = now - last, now
    setups = rounds + [run_setup() for _ in range(SETUP_SAMPLES)]

    ops, failed, errors = workload.check(first.read_text(), inputs, picks)
    for i, r in enumerate(rounds):
        if r["exit_code"] != (1 if failed else 0):
            errors.append(f"round {i}: exit code {r['exit_code']}")
        if r["digest"] != rounds[0]["digest"]:
            errors.append(f"round {i}: output differs from round 0")

    untraced = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    median = statistics.median
    if args.trace:
        values = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_s"] = fastest(traced) - fastest(untraced)
    else:
        values = {
            "setup_s": median(r["setup_s"] for r in setups),
            "run_s": fastest(untraced),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in untraced),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": rounds[0]["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "hcn_max_order": rounds[0]["max_order"],
        "inputs": inputs,
        "picks": picks,
        "rounds": [
            {k: r[k] for k in ("setup_s", "run_s", "parts", "peak_rss_mib")} | {"traced": "layers" in r}
            for r in rounds
        ],
        "setup_samples": [r["setup_s"] for r in setups],
        "errors": errors[:20],
    }
    print(json.dumps({"record": record}))
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": ops * len(rounds),
        "failed": failed * len(rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
