"""One round of a workload in a fresh interpreter.

    python3 bench/child.py SPEC_JSON

SPEC_JSON names the workload ("setup" only imports), its generated inputs,
whether to trace, and the files for the program's output and for this
round's measurements.  The workload runs as timed parts: each hcn7 command
in inputs["calls"], in order, or each modulus of product-route.

Nothing is imported before the timed import of hcn7.cli but what the
interpreter has already loaded, so setup_s is what every call of the hcn7
command pays.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import hcn7.cli

    setup_s = time.perf_counter() - start

    import json
    import resource

    spec = json.loads(sys.argv[1])
    if not os.path.abspath(hcn7.__file__).startswith(SRC + os.sep):
        print(f"hcn7 imported from {hcn7.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    result = {
        "setup_s": setup_s,
        "max_order": hcn7.qseries.max_order(),
        "python": sys.version.split()[0],
    }
    workload = spec["workload"]
    if workload != "setup":
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer(hcn7.qseries.QSeries)
            tracing.install(tracer)
        with open(spec["output"], "w") as out:
            if workload == "product-route":
                parts = product_route(hcn7, spec["inputs"], out)
                exit_code = 0
            else:
                calls = [cli_call(hcn7.cli, argv, out) for argv in spec["inputs"]["calls"]]
                parts = [run_s for run_s, _ in calls]
                exit_code = max(code for _, code in calls)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run_s = sum(parts)
        result.update(parts=parts, run_s=run_s, exit_code=exit_code, peak_rss_mib=peak_rss_mib)
        if tracer is not None:
            stdout_bytes = os.path.getsize(spec["output"]) if workload != "product-route" else 0
            result["layers"] = tracing.layer_metrics(tracer.spans, run_s, stdout_bytes)
            tracing.write_spans(tracer.spans, spec["output"] + ".spans")
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


def cli_call(cli, argv, out):
    """hcn7 ARGV with stdout sent to out, as `hcn7 ARGV > file` would."""
    stdout = sys.stdout
    sys.stdout = out
    try:
        start = time.perf_counter()
        exit_code = cli.main(argv)
        out.flush()
        run_s = time.perf_counter() - start
    finally:
        sys.stdout = stdout
    return run_s, exit_code


def product_route(hcn7, inputs, out):
    """Both routes to H_{m,M}(n), n <= order, for every residue m of each M;
    one part per modulus.

    Only the calls into hcn7 are timed; each result is written out between
    the timed blocks, so the round never holds more than one (m, M).
    """
    order = inputs["order"]
    parts = []
    for M in inputs["moduli"]:
        part_s = 0.0
        for m in range(M):
            start = time.perf_counter()
            series = hcn7.hmm_series(m, M, order)
            direct = [hcn7.hmm_sum(m, M, n) for n in range(order + 1)]
            part_s += time.perf_counter() - start
            for n in range(order + 1):
                out.write(f"{M},{m},{n},{series[n]},{direct[n]}\n")
        parts.append(part_s)
    return parts


if __name__ == "__main__":
    sys.exit(main())
