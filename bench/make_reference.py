#!/usr/bin/env python3
"""Record the reference outcome of every bank catalog at the current commit.

    python3 bench/make_reference.py

Writes ``bench/reference/cluster-fit.json``: for each catalog of the
cluster-fit bank, the sha256 of its CSV, the CLI exit code, the best family,
and per family either the fitted parameters and P_KS or the typed error.  The committed files were made at the commit that introduced the
benchmark; regenerate them only when a change is meant to alter fit outcomes.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import checks
import inputs
import run

WORKERS = 2


def reference_entry(cat: inputs.Catalog, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    path, digest = cat.write(work)
    argv = run.fit_argv(path, work)
    _, code, stderr, _ = run.run_child([sys.executable, "-m", "lindleyfit.cli", *argv], work, run.child_env())
    report = run.read_report(work, path)
    path.unlink()
    if report is None or checks.cli_problems(code, stderr):
        raise RuntimeError(f"{cat.name}: exit {code}, stderr {stderr[-500:]!r}")
    fits = {}
    for f in report["fits"]:
        fits[f["family"]] = {"error": f["error"]} if "error" in f else {"params": f["params"], "p_ks": f["p_ks"]}
    return {"law": cat.law, "n": report["n"], "sha256": digest, "exit_code": code,
            "best": report["best"], "fits": fits}


def main() -> int:
    work = run.ROOT / ".bench_work" / "reference"
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        with ThreadPoolExecutor(WORKERS) as pool:
            futures = {name: pool.submit(reference_entry, cat, work / name)
                       for name, cat in inputs.cluster_bank().items()}
            catalogs = {name: fut.result() for name, fut in futures.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fits = [f for c in catalogs.values() for f in c["fits"].values()]
    share = sum("error" in f for f in fits) / len(fits)
    ref = {"workload": "cluster-fit", "typed_error_share": share, "catalogs": catalogs}
    (checks.REFERENCE_DIR / "cluster-fit.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(f"cluster-fit: {len(catalogs)} catalogs, typed-error share {share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
