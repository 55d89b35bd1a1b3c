#!/usr/bin/env python3
"""lindleyfit benchmark: two closed-loop workloads, one client each.

    python3 bench/run.py --workload cluster-fit --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``cluster-fit``  one operation is a cold ``python -m lindleyfit.cli fit``
                   subprocess fitting all eight families to one catalog of
                   100-5000 masses.
* ``synth``        one operation is an in-process ``lindleyfit.sample`` of
                   about 1e4 draws, cycling through the eight families.

The package is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` each operation runs once untraced and once under
``tracing.Tracer``, and the last line holds the per-layer metrics and the
tracing overhead.  Every operation's output is checked (``checks.py``); a
wrong output counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cluster-fit", "synth")
MIN_OPS = 11           # op_s_tail needs ten operations beyond it
SETUP_REPEATS = 3      # cold imports per run; setup_s is their median
IMPORTTIME_REPEATS = 3
TRACE_MIN_PAIRS = 4    # a traced fit run covers every law once
OP_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], cwd: Path, env: dict[str, str]) -> tuple[float, int, str, float]:
    """Run one subprocess to completion: wall s, exit code, stderr, peak RSS MiB."""
    err_path = cwd / "child.stderr"
    with open(err_path, "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return wall, proc.returncode, stderr, usage.ru_maxrss / 1024.0


def fit_argv(catalog: Path, out_dir: Path) -> list[str]:
    return ["fit", "--input", str(catalog), "--out", str(out_dir)]


def read_report(out_dir: Path, catalog: Path) -> dict | None:
    """Read and remove the JSON report the CLI wrote for one catalog."""
    path = out_dir / f"{catalog.stem}_fits.json"
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    path.unlink()
    return report


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten operations beyond it."""
    xs = sorted(latencies)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


class Run:
    """One benchmark run: its inputs, work directory and tallies."""

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed, self.seconds, self.work = seed, seconds, work
        self.env = child_env()
        self.attempted = self.failed = 0
        self.fits_ok = self.fits_total = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.rss: list[float] = []
        self.catalogs: list[str] = []
        # trace-mode tallies
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.groups: list[tuple[float | None, list]] = []
        self.tracer = tracing.Tracer()

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 3 - len(self.problems))])

    def loop(self, op, min_ops: int, align: int) -> None:
        """Call op(0), op(1), ... until the run has measured its seconds.

        It stops only after at least min_ops calls and at a multiple of
        align, so every run measures whole cycles of the same mix of work.
        """
        t0 = perf_counter()
        i = 0
        while True:
            op(i)
            i += 1
            if i >= min_ops and i % align == 0 and perf_counter() - t0 >= self.seconds:
                return

    # ---- cluster-fit workload ---------------------------------------------

    def cluster_workload(self, trace: bool) -> None:
        ref = checks.load_reference("cluster-fit")
        bank, plan = inputs.cluster_bank(), inputs.cluster_plan(self.seed, ref["catalogs"])
        out_dir = self.work / "out"
        spans_path = self.work / "spans.json"

        def fit(name: str, path: Path, problems: list[str], traced: bool) -> tuple[float, float]:
            argv = fit_argv(path, out_dir)
            if traced:
                cmd = [sys.executable, str(Path(tracing.__file__)), str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "lindleyfit.cli", *argv]
            wall, code, stderr, rss = run_child(cmd, self.work, self.env)
            problems = problems + checks.cli_problems(code, stderr)
            report = read_report(out_dir, path)
            if report is None:
                problems.append("no JSON report")
            else:
                problems += checks.report_problems(report, ref["catalogs"][name])
                self.fits_total += len(report["fits"])
                self.fits_ok += sum("error" not in f for f in report["fits"])
            self.tally([f"{name}: {p}" for p in problems])
            if traced:
                self.groups.append((wall, json.loads(spans_path.read_text())))
            return wall, rss

        def op(i):
            # the catalog is written before and removed after its operation,
            # outside the timed part
            name = plan[i % len(plan)]
            path, digest = bank[name].write(self.work)
            problems = [] if digest == ref["catalogs"][name]["sha256"] else ["inputs differ from the reference"]
            if not trace:
                wall, rss = fit(name, path, problems, False)
                self.catalogs.append(name)
                self.latencies.append(wall)
                self.rss.append(rss)
            else:
                first = i % 2 == 1
                for traced in (first, not first):
                    wall, _ = fit(name, path, problems, traced)
                    (self.traced if traced else self.untraced).append(wall)
            path.unlink()

        if trace:
            self.loop(op, TRACE_MIN_PAIRS, 1)
        else:
            self.loop(op, MIN_OPS, inputs.CLUSTER_CYCLE)

    # ---- synth workload ---------------------------------------------------

    def synth_workload(self, trace: bool) -> None:
        import lindleyfit as lf
        import numpy as np

        rng = np.random.default_rng([self.seed, 3])
        pending: list = []
        for family, params in inputs.SYNTH_SPECS:   # first calls, untimed
            lf.sample(lf.DistributionSpec(lf.Family(family), params), 100, 0)

        def sample(i, traced: bool, draw) -> float:
            family, params, n, s = draw
            spec = lf.DistributionSpec(lf.Family(family), params)
            if traced:
                self.tracer.op = i
                self.tracer.install()
            try:
                t0 = perf_counter()
                draws = lf.sample(spec, n, s)
                wall = perf_counter() - t0
            finally:
                if traced:
                    self.tracer.uninstall()
            problems = checks.draws_problems(draws, spec, n, lf)
            self.tally(problems)
            self.fits_total += 1
            self.fits_ok += not problems
            return wall

        def next_draw():
            if not pending:
                pending.extend(inputs.synth_cycle(rng))
            return pending.pop(0)

        cycle = len(inputs.SYNTH_SPECS)
        if not trace:
            self.loop(lambda i: self.latencies.append(sample(i, False, next_draw())), MIN_OPS, cycle)
            self.rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        else:
            def pair(i):
                draw = next_draw()
                first = i % 2 == 1
                for traced in (first, not first):
                    (self.traced if traced else self.untraced).append(sample(i, traced, draw))

            self.loop(pair, cycle, 1)
            self.groups.append((None, self.tracer.spans))

    # ---- set-up and import ------------------------------------------------

    def setup_seconds(self) -> float:
        """Median wall time of a fresh interpreter that imports lindleyfit."""
        run_child([sys.executable, "-m", "compileall", "-q", str(SRC / "lindleyfit")], self.work, self.env)
        cmd = [sys.executable, "-c", "import lindleyfit"]
        walls = []
        for _ in range(SETUP_REPEATS):
            wall, code, stderr, _ = run_child(cmd, self.work, self.env)
            if code != 0:
                raise RuntimeError(f"import lindleyfit failed: {stderr.strip()[-500:]}")
            walls.append(wall)
        return statistics.median(walls)

    def import_metrics(self) -> dict[str, float]:
        cmd = [sys.executable, "-X", "importtime", "-c", "import lindleyfit"]
        runs = [tracing.importtime_metrics(run_child(cmd, self.work, self.env)[2])
                for _ in range(IMPORTTIME_REPEATS)]
        return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    lat = run.latencies
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_s_p50": (statistics.median(lat), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (max(run.rss), "MiB"),
        "fits_ok_frac": (run.fits_ok / run.fits_total, "ratio"),
    }
    return metrics, {"ops": len(lat), "tail_percentile": round(tail_pct, 2),
                     "op_s": [round(x, 4) for x in lat], "catalogs": run.catalogs}


def per_layer(run: Run) -> tuple[dict, dict]:
    units = tracing.per_layer_metrics()
    values = {**run.import_metrics(),
              **tracing.span_metrics(run.groups, len(run.traced)),
              **tracing.overhead_metrics(run.untraced, run.traced)}
    metrics = {name: (values[name], unit) for name, (unit, _) in units.items()}
    return metrics, {"traced_ops": len(run.traced), "untraced_ops": len(run.untraced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lindleyfit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "lindleyfit" / "__init__.py").is_file():
        print(f"error: no lindleyfit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lindleyfit

    if Path(lindleyfit.__file__).resolve().parent != SRC / "lindleyfit":
        print(f"error: imported lindleyfit from {lindleyfit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.seed, args.seconds, work)
        broken = checks.self_check(lindleyfit)
        setup_s = None if args.trace else run.setup_seconds()
        if args.workload == "synth":
            run.synth_workload(bool(args.trace))
        else:
            run.cluster_workload(bool(args.trace))
        metrics, details = per_layer(run) if args.trace else end_to_end(run, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    details.update(env=environment(args), self_check=broken or "ok", problems=run.problems)
    print(json.dumps(details))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and not broken,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
