"""Every catalog of the benchmark bank, fitted in-process, matches its reference.

The ``cluster-fit`` benchmark counts a fit that differs from
``bench/reference/cluster-fit.json`` as a failed operation.  This runs the
same check on all 96 bank catalogs, without the cold CLI subprocess, so a
wrong fit fails here first.  It only reads from ``bench/``.
"""

import importlib.util
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


checks, inputs = _load("checks"), _load("inputs")
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
