"""Run one benchmark job with spans around the public functions of every ecss module.

usage: traced_job.py --job ID --spans PATH (cli ARGS... | lib ARGS...)

`cli` runs `ecss.cli.main(ARGS)`; `lib` runs the library call of libcall.py.
Each public function below is replaced, in every ecss module namespace that
binds it, by a wrapper that records a span (name, start, end, parent, job id)
in memory.  Per-point scalar calls get count-only wrappers.  Spans, counts and
the instrumentation's own marks are written to PATH as JSON after the job
returns; nothing under src/ is changed.
"""

from __future__ import annotations

import time

BOOT_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from ecss import cli, combinat, curve, discrepancy, experiments, expsum, generator, gf2  # noqa: E402

import libcall  # noqa: E402

clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self, job: int):
        self.job = job
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        # [name index, start ns, end ns, parent index, job id, hook ns]
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.orders: dict = {}  # curve -> #E, learned from enumerate_points

    def _name(self, name: str) -> int:
        index = self.name_index.get(name)
        if index is None:
            index = self.name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def span(self, name, fn, after=None):
        """Wrap fn in a span; name is a string or a function of the call's arguments.

        after(tracer, args, kwargs, result) updates counts once the span has
        ended; its time is charged to the enclosing span's hook time, not to
        that span's self time.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            record = [self._name(label), 0, 0, parent, self.job, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
                if parent >= 0:
                    spans[parent][5] += clock() - record[2]
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _rows(points) -> np.ndarray:
    rows = points.rows if isinstance(points, generator.PointSet) else np.asarray(points, dtype=float)
    return rows[:, None] if rows.ndim == 1 else rows


def _count_exact(tracer, args, kwargs, result):
    """Exact calls and candidate boxes: C(c_k + 1, 2) per scanned axis times the last c."""
    rows = _rows(_arg(args, kwargs, 0, "points"))
    *outer, last = (np.unique(np.concatenate([rows[:, k], [0.0, 1.0]])).size
                    for k in range(rows.shape[1]))
    tracer.counts["discrepancy.exact_calls"] += 1
    tracer.counts["discrepancy.candidate_boxes"] += (
        int(np.prod([c * (c + 1) // 2 for c in outer], dtype=object)) * last)


def _count_mc(tracer, args, kwargs, result):
    tracer.counts["discrepancy.mc_calls"] += 1


def _count_bits(tracer, args, kwargs, result):
    tracer.counts["gf2.bits"] += len(result)


def _count_enumerate(tracer, args, kwargs, result):
    tracer.counts["curve.enumerate_calls"] += 1
    tracer.orders[_arg(args, kwargs, 0, "curve")] = len(result)


def _count_stream(tracer, args, kwargs, result):
    tracer.counts["generator.outputs"] += len(result)


def _count_single_output(tracer, args, kwargs, result):
    tracer.counts["generator.outputs"] += 1


def _count_config(tracer, args, kwargs, result):
    tracer.counts["generator.configs"] += 1


def _count_transfer(tracer, args, kwargs, result):
    tracer.counts["combinat.transfer_builds"] += 1


def _count_spectral(tracer, args, kwargs, result):
    tracer.counts["combinat.spectral_calls"] += 1
    tracer.counts["combinat.power_iterations"] += result.iterations
    tracer.counts["combinat.fallbacks"] += result.method == "walk-ratio"


def _count_pairs(tracer, args, kwargs, result):
    tracer.counts["combinat.pairs"] += 4 ** _arg(args, kwargs, 0, "r")


def _char_sums_counter(points_index: int):
    def count(tracer, args, kwargs, result):
        params = _arg(args, kwargs, 0, "curve")
        points = kwargs.get("points", args[points_index] if len(args) > points_index else None)
        order = len(points) if points is not None else tracer.orders[params]
        tracer.counts["expsum.points_summed"] += order - 1  # every point but -c

    return count


def _count_avg_square(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "curve")
    tracer.counts["expsum.weight_vectors"] += tracer.orders[params] ** _arg(args, kwargs, 1, "r")


def _count_sweep(tracer, args, kwargs, result):
    tracer.counts["experiments.samples"] += _arg(args, kwargs, 0, "config").samples


def _multi_name(points, s, *rest, **kwargs):
    return f"discrepancy.exact_{s}d"


# (owner, attribute, span name, count hook); owner is a module or a class.
SPANNED = [
    (gf2, "poly_is_irreducible", "gf2.validate", None),
    (gf2, "sequence_period", "gf2.validate", None),
    (gf2, "windows_distinct", "gf2.validate", None),
    (gf2.LfsrSource, "bits", "gf2.bits", _count_bits),
    (curve, "enumerate_points", "curve.enumerate", _count_enumerate),
    (generator, "ec_subset_sum_stream", "generator.stream", _count_stream),
    (generator, "ec_subset_sum", "generator.stream", _count_single_output),
    (generator, "output_normalized", "generator.normalize", None),
    (generator, "s_tuples", "generator.tuples", None),
    (generator.GeneratorConfig, "__post_init__", "generator.config", _count_config),
    (discrepancy, "exact_extreme_1d", "discrepancy.exact_1d", _count_exact),
    (discrepancy, "exact_extreme_multi", _multi_name, _count_exact),
    (discrepancy, "mc_box_lower_bound", "discrepancy.mc", _count_mc),
    (combinat, "transfer_matrix", "combinat.transfer_build", _count_transfer),
    (combinat, "spectral_radius", "combinat.spectral", _count_spectral),
    (combinat, "brute_force_bad_count", "combinat.bruteforce", _count_pairs),
    (combinat, "brute_force_bad_wrt_first", "combinat.bruteforce", _count_pairs),
    (expsum, "curve_char_sums_all", "expsum.char_sums", _char_sums_counter(2)),
    (expsum, "curve_x_char_sum", "expsum.char_sums", _char_sums_counter(3)),
    (expsum, "avg_square_sum_over_weights", "expsum.avg_square", _count_avg_square),
    (experiments.ExperimentConfig, "__post_init__", "experiments.config", None),
    (experiments, "sample_weight_vectors", "experiments.weights", None),
    (experiments, "discrepancy_sweep", "experiments.sweep", _count_sweep),
    (cli, "main", "cli.main", None),
    (libcall, "avg_square", "lib.call", None),
]
COUNTED = [
    (curve, "add", "curve.adds"),
    (curve, "x_coord", "curve.x_coords"),
]


def _rebind(original, replacement) -> None:
    """Point every ecss (and harness) namespace that binds original at replacement."""
    for name, module in list(sys.modules.items()):
        if name == "ecss" or name.startswith("ecss.") or module is libcall:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    for owner, attr, name, after in SPANNED:
        original = vars(owner)[attr]
        wrapper = tracer.span(name, original, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)
    for owner, attr, name in COUNTED:
        original = vars(owner)[attr]
        _rebind(original, tracer.counted(name, original))


def main() -> int:
    parser = argparse.ArgumentParser(prog="traced_job.py")
    parser.add_argument("--job", type=int, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("mode", choices=["cli", "lib"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    tracer = Tracer(opts.job)
    marks = {"boot": BOOT_NS, "install_start": clock()}
    install(tracer)
    marks["install_end"] = marks["main_start"] = clock()
    if opts.mode == "cli":
        code = cli.main(opts.args)
    else:
        code = libcall.main(opts.args)
    marks["main_end"] = clock()
    sys.stdout.flush()
    marks["dump_start"] = clock()
    body = json.dumps({"job": opts.job, "names": tracer.names, "spans": tracer.spans,
                       "counts": dict(tracer.counts), "marks": marks}, separators=(",", ":"))
    with open(opts.spans, "w", encoding="utf-8") as handle:
        handle.write('{"dump_end":%d,"trace":%s}\n' % (clock(), body))
    return code


if __name__ == "__main__":
    sys.exit(main())
