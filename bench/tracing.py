"""Span tracing of lindleyfit's public functions, installed from outside.

``Tracer.install`` replaces every public function of the package modules with
a wrapper that records a span, and rebinds every alias of it, such as the
names ``cli`` imports with ``from .catalog import ...`` and the package-level
re-exports.  Nothing under ``src/`` changes.  Spans nest by call stack, stay
in memory, and are written out when the traced process ends.

Run as a script, this file replays one CLI call under tracing:

    PYTHONPATH=src python3 bench/tracing.py SPANS.json fit --input cat.csv --out out/
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import statistics
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("catalog", "distributions", "specfun", "estimation", "gof", "cli")
FAMILIES = ("lindley1", "tpld", "pld", "gld", "ngld", "nwl", "dtl", "lognormal")

# span fields
NAME, PARENT, START, END, OK, OP, FAMILY, COUNT, ITERATIONS = range(9)


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        import lindleyfit
        from lindleyfit.distributions import Family

        modules = [importlib.import_module(f"lindleyfit.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn, Family)
        self._bindings = [
            (mod, name, obj, wrappers[id(obj)])
            for mod in (lindleyfit, *modules)
            for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and id(obj) in wrappers
        ]
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._bindings:
            setattr(mod, name, original)
        self._bindings = []

    def _wrap(self, span_name, fn, family_type):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = getattr(args[0], "family", args[0]) if args else None
            second = args[1] if len(args) > 1 else None
            span = [
                span_name,
                stack[-1] if stack else -1,
                0.0,
                0.0,
                False,
                self.op,
                first.value if isinstance(first, family_type) else None,
                int(second.size) if hasattr(second, "size") and not isinstance(second, (int, float)) else None,
                None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[OK] = True
            if span[COUNT] is None and isinstance(getattr(result, "n", None), int):
                span[COUNT] = result.n
            if isinstance(getattr(result, "iterations", None), int):
                span[ITERATIONS] = result.iterations
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and direction."""
    m = {
        "import.total_s": ("s", "lower"),
        "import.numpy_s": ("s", "lower"),
        "import.scipy_special_s": ("s", "lower"),
        "import.scipy_optimize_s": ("s", "lower"),
        "import.lindleyfit_self_s": ("s", "lower"),
        "catalog.load_csv_s": ("s", "lower"),
        "catalog.load_csv_rows_per_s": ("1/s", "higher"),
        "catalog.summarize_s": ("s", "lower"),
    }
    m.update({f"estimation.estimate_s.{f}": ("s", "lower") for f in FAMILIES})
    m.update({f"estimation.iterations.{f}": ("count", "lower") for f in FAMILIES})
    m.update({
        "estimation.failed_s": ("s", "lower"),
        "estimation.ok_ratio": ("ratio", "higher"),
        "distributions.pdf_s": ("s", "lower"),
        "distributions.cdf_s": ("s", "lower"),
        "distributions.sf_s": ("s", "lower"),
        "distributions.cdf_points_per_s": ("1/s", "higher"),
    })
    m.update({f"distributions.sample_s.{f}": ("s", "lower") for f in FAMILIES})
    m.update({
        "distributions.cdf_calls_per_sample": ("calls/sample", "lower"),
        "specfun.reg_gamma_p_arr_s": ("s", "lower"),
        "specfun.reg_gamma_p_arr_points": ("count", "lower"),
        "specfun.erf_arr_s": ("s", "lower"),
        "specfun.regularized_gamma_q_s": ("s", "lower"),
        "gof.full_report_s": ("s", "lower"),
        "gof.ks_test_s": ("s", "lower"),
        "gof.bin_sample_s": ("s", "lower"),
        "gof.theoretical_frequencies_s": ("s", "lower"),
        "cli.fit_self_s": ("s", "lower"),
        "cli.outside_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(groups: list[tuple[float | None, list[list]]], n_ops: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``n_ops`` traced operations.

    ``groups`` holds (wall seconds of the traced process or None, spans) per
    traced process; span parents index into their own group.  A ``*_s``
    figure is inclusive busy seconds per operation, counting only the
    outermost span of a name so recursion through a wrapped name is not
    counted twice; the per-family ``estimate_s`` and ``sample_s`` figures are
    seconds per call of that family.  A rate or ratio whose denominator is
    zero, and a figure of a layer the workload never calls, reads 0.
    """
    total: dict[str, float] = defaultdict(float)     # outermost spans by name
    points: dict[str, int] = defaultdict(int)
    per_call: dict[tuple[str, str], list[float]] = defaultdict(list)  # (name, family)
    iterations: dict[str, list[int]] = defaultdict(list)
    failed_s = fit_self = outside = 0.0
    estimates = estimates_ok = cdf_in_sample = samples = 0
    for wall, spans in groups:
        children_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                children_time[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            name, dur = span[NAME], span[END] - span[START]
            ancestors = []
            p = span[PARENT]
            while p >= 0:
                ancestors.append(spans[p][NAME])
                p = spans[p][PARENT]
            if name not in ancestors:
                total[name] += dur
                points[name] += span[COUNT] or 0
            if name == "distributions.cdf":
                cdf_in_sample += "distributions.sample" in ancestors
            elif name == "distributions.sample":
                samples += 1
                per_call[name, span[FAMILY]].append(dur)
            elif name == "estimation.estimate":
                estimates += 1
                per_call[name, span[FAMILY]].append(dur)
                if span[OK]:
                    estimates_ok += 1
                    iterations[span[FAMILY]].append(span[ITERATIONS])
                else:
                    failed_s += dur
            elif name == "cli.cmd_fit":
                fit_self += dur - children_time[i]
            elif name == "cli.main" and wall is not None:
                outside += wall - dur
    n = max(n_ops, 1)
    out = {f"{name}_s": total[name] / n for name in (
        "catalog.load_csv", "catalog.summarize",
        "distributions.pdf", "distributions.cdf", "distributions.sf",
        "specfun.reg_gamma_p_arr", "specfun.erf_arr", "specfun.regularized_gamma_q",
        "gof.full_report", "gof.ks_test", "gof.bin_sample", "gof.theoretical_frequencies",
    )}
    out.update({
        "catalog.load_csv_rows_per_s": _ratio(points["catalog.load_csv"], total["catalog.load_csv"]),
        "estimation.failed_s": failed_s / n,
        "estimation.ok_ratio": _ratio(estimates_ok, estimates),
        "distributions.cdf_points_per_s": _ratio(points["distributions.cdf"], total["distributions.cdf"]),
        "distributions.cdf_calls_per_sample": _ratio(cdf_in_sample, samples),
        "specfun.reg_gamma_p_arr_points": points["specfun.reg_gamma_p_arr"] / n,
        "cli.fit_self_s": fit_self / n,
        "cli.outside_s": outside / n,
    })
    for f in FAMILIES:
        est, smp = per_call["estimation.estimate", f], per_call["distributions.sample", f]
        out[f"estimation.estimate_s.{f}"] = statistics.fmean(est) if est else 0.0
        out[f"estimation.iterations.{f}"] = statistics.fmean(iterations[f]) if iterations[f] else 0.0
        out[f"distributions.sample_s.{f}"] = statistics.fmean(smp) if smp else 0.0
    return out


def overhead_metrics(untraced: list[float], traced: list[float]) -> dict[str, float]:
    """Tracing overhead: traced minus untraced latency of the same operations."""
    base = statistics.median(untraced)
    return {
        "trace.overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
        "trace.overhead_frac": statistics.median(traced) / base - 1.0,
    }


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def importtime_metrics(stderr: str) -> dict[str, float]:
    """Import figures from ``python -X importtime -c 'import lindleyfit'``.

    ``total`` sums the top-level imports, which covers interpreter start-up
    and the package.  ``scipy_optimize`` sums every ``scipy.optimize*`` entry
    that has no ``scipy.optimize*`` ancestor, because a submodule import made
    with ``from scipy import optimize`` gets no line of its own.
    """
    pending: list = []  # (depth, name, self s, cumulative s, children)
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth = (len(m.group(3)) - 1) // 2
        node = (depth, m.group(4), int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6, [])
        while pending and pending[-1][0] > depth:
            node[4].append(pending.pop())
        pending.append(node)
    root = pending

    def walk(nodes, inside_optimize=False):
        for node in nodes:
            yield node, inside_optimize
            yield from walk(node[4], inside_optimize or node[1].startswith("scipy.optimize"))

    everything = list(walk(root))

    def first_cumulative(name):
        return next((n[3] for n, _ in everything if n[1] == name), 0.0)

    return {
        "import.total_s": sum(n[3] for n in root),
        "import.numpy_s": first_cumulative("numpy"),
        "import.scipy_special_s": first_cumulative("scipy.special"),
        "import.scipy_optimize_s": sum(
            n[3] for n, inside in everything if n[1].startswith("scipy.optimize") and not inside
        ),
        "import.lindleyfit_self_s": sum(
            n[2] for n, _ in everything if n[1] == "lindleyfit" or n[1].startswith("lindleyfit.")
        ),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from lindleyfit import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
