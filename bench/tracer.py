"""Span tracing of the calls into each hcn7 module, from outside src/.

install() wraps every public function of every hcn7 module and rebinds the
wrapper under each name that held the original, in every hcn7 module and
in the package, so that calls made through `from .x import f` are counted
too.  Private helpers (a leading underscore), methods and Fraction
arithmetic are not wrapped: their time is the self time of the public
function that called them.

A span is [name, start, end, parent index, info].  Spans stay in memory
until the round ends; layer_metrics() then turns them into the per-layer
metrics, and write_spans() writes them out.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("qseries", "hurwitz", "arith", "newform49", "primes", "verify", "cli")

# Functions whose integer or string arguments the metrics need.
_KEEP_ARGS = {
    "hurwitz.hurwitz_batch",
    "hurwitz.hurwitz_series",
    "hurwitz.hmm_sum",
    "newform49.ec_point_count",
    "verify.run_suite",
}

# The coefficient operators counted as qseries.ops.
_QSERIES_OPS = {
    f"qseries.{name}"
    for name in (
        "series_add", "series_sub", "series_scale", "series_truncate",
        "op_sieve", "op_twist", "op_u", "op_dilate",
    )
}

SUITES = ("thm35", "lemma42", "prop31", "prop41", "hk", "main")


class Tracer:
    def __init__(self, series_type):
        self.spans: list[list] = []
        self._stack = [-1]
        self._series_type = series_type

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep_args = name in _KEEP_ARGS
        is_mul = name == "qseries.series_mul"
        series_type = self._series_type

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if keep_args:
                record[4] = args
            elif type(result) is series_type:
                record[4] = (result.order + 1, self._products(*args) if is_mul else 0)
            return result

        return traced

    def _products(self, f, g) -> int:
        """Nonzero coefficient products of f * g, counted in a span of its
        own ("trace.count") so that the counting is not billed to a layer."""
        record = ["trace.count", perf_counter(), 0.0, self._stack[-1], None]
        self.spans.append(record)
        order = min(f.order, g.order)
        prefix = [0]
        for c in g.coeffs[: order + 1]:
            prefix.append(prefix[-1] + (1 if c else 0))
        count = sum(prefix[order - i + 1] for i, c in enumerate(f.coeffs[: order + 1]) if c)
        record[2] = perf_counter()
        return count


def install(tracer: Tracer) -> None:
    """Replace each public hcn7 function by its traced wrapper, everywhere."""
    package = importlib.import_module("hcn7")
    modules = {layer: importlib.import_module(f"hcn7.{layer}") for layer in LAYERS}
    holders = [package, *modules.values()]
    for layer, module in modules.items():
        functions = [
            (attr, fn)
            for attr, fn in vars(module).items()
            if not attr.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
        ]
        for attr, fn in functions:
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)


def layer_metrics(spans: list[list], run_s: float, stdout_bytes: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced round.

    A span's self time is its duration minus the durations of its direct
    children; spans nest and never overlap, since the round is one thread.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    layer_self: defaultdict[str, float] = defaultdict(float)
    for (name, start, end, _, _), children in zip(spans, child_s):
        own = end - start - children
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".")[0]] += own

    def infos(name):
        return [s[4] for s in spans if s[0] == name]

    def sum_self(names):
        return sum((self_s[n] for n in names), 0.0)

    series_infos = [s[4] for s in spans if s[0].startswith("qseries.") and isinstance(s[4], tuple)]
    ops = sorted(_QSERIES_OPS)
    arith = [n for n in calls if n.startswith("arith.")]

    needed = max(
        [args[0] for args in infos("hurwitz.hurwitz_series")]
        + [4 * args[2] for args in infos("hurwitz.hmm_sum")],
        default=-1,
    )
    entries = sum(args[0] + 1 for args in infos("hurwitz.hurwitz_batch"))
    suite_wall: defaultdict[str, float] = defaultdict(float)
    for name, start, end, _, args in spans:
        if name == "verify.run_suite" and args[0] in SUITES:
            suite_wall[args[0]] += end - start

    out = {
        "qseries.series_mul.calls": calls["qseries.series_mul"],
        "qseries.series_mul.self_s": self_s["qseries.series_mul"],
        "qseries.series_mul.products": sum(i[1] for i in infos("qseries.series_mul")),
        "qseries.ops.calls": sum(calls[n] for n in ops),
        "qseries.ops.self_s": sum_self(ops),
        "qseries.coeffs_out": sum(i[0] for i in series_infos),
        "qseries.self_s": layer_self["qseries"],
        "hurwitz.hurwitz_batch.calls": calls["hurwitz.hurwitz_batch"],
        "hurwitz.hurwitz_batch.self_s": self_s["hurwitz.hurwitz_batch"],
        "hurwitz.hurwitz_batch.entries": entries,
        "hurwitz.table_useful_ratio": (needed + 1) / entries if entries else 0.0,
        "hurwitz.hmm_sum.calls": calls["hurwitz.hmm_sum"],
        "hurwitz.hmm_sum.self_s": self_s["hurwitz.hmm_sum"],
        "hurwitz.hmm_series.self_s": self_s["hurwitz.hmm_series"],
        "hurwitz.hurwitz_kronecker.self_s": self_s["hurwitz.hurwitz_kronecker_lhs_rhs"],
        "hurwitz.self_s": layer_self["hurwitz"],
        "arith.builders.calls": sum(calls[n] for n in arith),
        "arith.builders.self_s": sum_self(arith),
        "newform49.ec_point_count.calls": calls["newform49.ec_point_count"],
        "newform49.ec_point_count.self_s": self_s["newform49.ec_point_count"],
        "newform49.ec_point_count.residues": sum(args[0] for args in infos("newform49.ec_point_count")),
        "newform49.cm_ap.calls": calls["newform49.cm_ap"],
        "newform49.cm_ap.self_s": sum_self(["newform49.cm_ap", "newform49.represent_7"]),
        "newform49.newform_an.self_s": self_s["newform49.newform_an"],
        "newform49.self_s": layer_self["newform49"],
        "primes.is_prime.calls": calls["primes.is_prime"],
        "primes.self_s": layer_self["primes"],
        **{f"verify.{suite}.wall_s": suite_wall[suite] for suite in SUITES},
        "verify.self_s": layer_self["verify"],
        "cli.self_s": layer_self["cli"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.spans": len(spans),
        "trace.count_s": layer_self["trace"],
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - sum(layer_self.values()),
    }
    return out


def write_spans(spans: list[list], path) -> None:
    """One line per span: index, parent index, name, start, end."""
    with open(path, "w") as f:
        for index, (name, start, end, parent, _) in enumerate(spans):
            f.write(f"{index},{parent},{name},{start!r},{end!r}\n")
