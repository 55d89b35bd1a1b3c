"""Output checks: a fast but wrong operation counts as a failed operation.

The cluster-fit workload compares each CLI report with the seed-commit
reference of its catalog; the synth workload tests each draw set against the
``cdf`` of its generating spec.  Run this file to self-check the checkers:

    PYTHONPATH=src python3 bench/checks.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A reported parameter or P_KS matches the reference when
# |value - ref| <= RTOL * |ref| + ATOL.  A different root of a multi-root
# moment system differs by far more than RTOL, so the smallest-c rule holds.
PARAM_RTOL, PARAM_ATOL = 1e-5, 1e-12
P_KS_RTOL, P_KS_ATOL = 1e-5, 1e-9
# A draw set fails when the K-S test rejects its generating spec at this level.
KS_LEVEL = 1e-6

# The CLI's one documented stderr output is the CatalogWarning for rejected rows.
_DOCUMENTED_WARNING = "CatalogWarning:"


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def _close(value, ref, rtol, atol) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= rtol * abs(ref) + atol


def cli_problems(exit_code: int, stderr: str) -> list[str]:
    """Exit code must be 0 or 1; stderr may carry only documented warnings."""
    problems = []
    if exit_code not in (0, 1):
        problems.append(f"exit code {exit_code}")
    lines = stderr.splitlines()
    extra = [
        line for i, line in enumerate(lines)
        if line.strip()
        and _DOCUMENTED_WARNING not in line
        # warnings.warn echoes the source line of the call after the message
        and not (i > 0 and _DOCUMENTED_WARNING in lines[i - 1] and line.startswith(" "))
    ]
    if extra:
        problems.append(f"unexpected stderr: {extra[0][:200]!r}")
    return problems


def report_problems(report: dict, ref: dict) -> list[str]:
    """Compare a CLI fit report with the reference entry of its catalog.

    Each family must keep its outcome class (report or typed error, whatever
    the error subclass); reported parameters and P_KS must match within the
    stated tolerances; the best family must be identical.
    """
    problems = []
    fits = {f.get("family"): f for f in report.get("fits", [])}
    if set(fits) != set(ref["fits"]):
        return [f"families {sorted(fits)} != reference {sorted(ref['fits'])}"]
    for family, want in ref["fits"].items():
        got = fits[family]
        if ("error" in got) != ("error" in want):
            problems.append(f"{family}: outcome {'error' if 'error' in got else 'report'} "
                            f"!= reference {'error' if 'error' in want else 'report'}")
            continue
        if "error" in want:
            continue
        params = got.get("params", {})
        if set(params) != set(want["params"]):
            problems.append(f"{family}: parameter names {sorted(params)}")
            continue
        for name, ref_value in want["params"].items():
            if not _close(params[name], ref_value, PARAM_RTOL, PARAM_ATOL):
                problems.append(f"{family}: {name}={params[name]!r} != reference {ref_value!r}")
        if not _close(got.get("p_ks"), want["p_ks"], P_KS_RTOL, P_KS_ATOL):
            problems.append(f"{family}: P_KS={got.get('p_ks')!r} != reference {want['p_ks']!r}")
    if report.get("best") != ref["best"]:
        problems.append(f"best {report.get('best')!r} != reference {ref['best']!r}")
    return problems


def ks_pvalue(draws: np.ndarray, cdf) -> float:
    """One-sample K-S significance with the Stephens small-sample correction."""
    from scipy.special import kolmogorov

    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1) / n
    d = max(float(np.max(i - f)), float(np.max(f - (i - 1.0 / n))))
    sqrt_n = math.sqrt(n)
    return float(kolmogorov((sqrt_n + 0.12 + 0.11 / sqrt_n) * d))


def draws_problems(draws, spec, n: int, lf) -> list[str]:
    """A draw set must have the requested size, be finite, and pass K-S."""
    draws = np.asarray(draws)
    if not (draws.shape == (n,) and np.all(np.isfinite(draws))):
        return [f"draws are not {n} finite values"]
    p = ks_pvalue(draws, lambda x: lf.cdf(spec, x))
    if not p >= KS_LEVEL:
        return [f"K-S rejects {spec} at level {KS_LEVEL}: p={p:.3g}"]
    return []


def self_check(lf) -> list[str]:
    """Feed the checkers a perturbed fit and a mis-distributed draw set.

    Returns the list of checks that did not behave; empty means the checkers
    accept a faithful output and flag both deliberately wrong ones.
    """
    broken = []
    ref = next(iter(load_reference("cluster-fit")["catalogs"].values()))
    faithful = {
        "fits": [dict(v, family=k) for k, v in ref["fits"].items()],
        "best": ref["best"],
    }
    if report_problems(faithful, ref):
        broken.append("a faithful report is flagged")
    k = next(i for i, f in enumerate(faithful["fits"]) if "error" not in f)
    perturbed = json.loads(json.dumps(faithful))
    params = perturbed["fits"][k]["params"]
    params[next(iter(params))] *= 1.0 + 1e-3
    if not report_problems(perturbed, ref):
        broken.append("a fit with a parameter off by 1e-3 is not flagged")
    flipped = json.loads(json.dumps(faithful))
    flipped["fits"][k] = {"family": flipped["fits"][k]["family"], "error": "EstimationError: x"}
    if not report_problems(flipped, ref):
        broken.append("a report turned into a typed error is not flagged")
    if not cli_problems(0, "Traceback (most recent call last):\n"):
        broken.append("a traceback on stderr is not flagged")
    if cli_problems(1, "x.csv:3: CatalogWarning: rejected 1 row(s)\n  warnings.warn(\n"):
        broken.append("a documented CatalogWarning is flagged")

    spec = lf.lindley1(2.0)
    rng = np.random.default_rng(0)

    def lindley1_draws(c, n=10_000):
        pick = rng.uniform(size=n) < c / (1.0 + c)
        return np.where(pick, rng.exponential(1.0 / c, n), rng.gamma(2.0, 1.0 / c, n))

    if draws_problems(lindley1_draws(2.0), spec, 10_000, lf):
        broken.append("draws from the generating spec are flagged")
    if not draws_problems(lindley1_draws(2.2), spec, 10_000, lf):
        broken.append("draws with c off by 10% are not flagged")
    return broken


if __name__ == "__main__":
    import lindleyfit

    failures = self_check(lindleyfit)
    for line in failures:
        print(f"FAIL: {line}")
    print("self-check:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
