"""Every catalog of the benchmark bank, fitted in-process, matches its reference.

The ``cluster-fit`` benchmark counts a fit that differs from
``bench/reference/cluster-fit.json`` as a failed operation.  This runs the
same check on all 96 bank catalogs, without the cold CLI subprocess, so a
wrong fit fails here first.  A second check runs one fit under the
benchmark's span tracer, so a package change that the tracer can no longer
read fails here rather than in a ``--trace 1`` run.  It only reads from
``bench/``.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from lindleyfit import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks, inputs, tracing = _load("checks"), _load("inputs"), _load("tracing")
REFERENCE = checks.load_reference("cluster-fit")["catalogs"]
BANK = inputs.cluster_bank()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(BANK))
def test_fit_matches_reference(name, tmp_path):
    path, digest = BANK[name].write(tmp_path)
    ref = REFERENCE[name]
    assert digest == ref["sha256"]
    report = cli._fit_catalog(cli.RunConfig([str(path)]), str(path))
    assert checks.report_problems(report, ref) == []


def test_tracer_reads_a_traced_fit(tmp_path, capsys):
    # the tracer imports each package module it wraps by name and reads each
    # estimate's iteration count; the import.* and trace.* figures come from
    # -X importtime and from untraced reruns, not from spans
    path, _ = next(iter(BANK.values())).write(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["fit", "--input", str(path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code in (0, 1)
    metrics = tracing.span_metrics([(None, tracer.spans)], 1)
    names = [n for n in tracing.per_layer_metrics() if not n.startswith(("import.", "trace."))]
    assert {n: metrics[n] for n in names if not math.isfinite(metrics[n])} == {}
