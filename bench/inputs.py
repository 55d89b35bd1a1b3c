"""Deterministic benchmark inputs, made with numpy's generator only.

Catalogs never come from ``lindleyfit.sample``, so a change to the package's
samplers cannot change what the fit workload reads.

The fit workload draws its catalogs from a fixed bank.  Every bank entry has
its own generator key, and ``reference/cluster-fit.json`` holds the outcome
the seed commit produced for it.  The workload seed picks which entries a run
uses and in which order, so any seed gives reproducible inputs that have a
stored reference.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BANK_KEY = 20030498

# Generating laws of the fit workload: the lindley1 exp + gamma(2) mixture,
# a gld-shaped two-gamma mixture with a shared rate, a lognormal, and a
# Salpeter power law (slope 2.35) truncated to [x_l, x_u].
LAWS = ("lindley1", "gld-mix", "lognormal", "salpeter")

CLUSTER_N = (100, 5000)        # log-uniform catalog size
CLUSTER_PER_LAW = 24
CLUSTER_CYCLE = 24             # operations per balanced cycle, six per law
CLUSTER_PLAN_CYCLES = 4

# Generating specs of the synth workload, one per family; tpld has b >= 0 so
# its distribution function is monotone.
SYNTH_SPECS = (
    ("lindley1", (2.0,)),
    ("tpld", (0.5, 2.0)),
    ("pld", (2.66, 2.28)),
    ("gld", (2.0, 3.0, 0.5)),
    ("ngld", (2.0, 3.0, 1.5)),
    ("nwl", (1.57, 3.77)),
    ("dtl", (2.71, 0.019, 1.46)),
    ("lognormal", (0.6, 0.9)),
)
SYNTH_N = (9_000, 11_000)


def draw(law: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n masses from one generating law, with law parameters drawn from rng."""
    if law == "lindley1":
        c = rng.uniform(1.0, 4.0)
        pick = rng.uniform(size=n) < c / (1.0 + c)
        return np.where(pick, rng.exponential(1.0 / c, n), rng.gamma(2.0, 1.0 / c, n))
    if law == "gld-mix":
        a, b, c = rng.uniform(1.5, 3.0), rng.uniform(2.0, 4.0), rng.uniform(0.3, 1.0)
        pick = rng.uniform(size=n) < b / (b + c)
        return np.where(pick, rng.gamma(a, 1.0 / b, n), rng.gamma(a + 1.0, 1.0 / b, n))
    if law == "lognormal":
        m, sigma = rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.0)
        return m * np.exp(sigma * rng.standard_normal(n))
    if law == "salpeter":
        alpha, x_l, x_u = 2.35, rng.uniform(0.08, 0.5), rng.uniform(10.0, 60.0)
        lo, hi = x_l ** (1.0 - alpha), x_u ** (1.0 - alpha)
        return (lo + rng.uniform(size=n) * (hi - lo)) ** (1.0 / (1.0 - alpha))
    raise ValueError(f"unknown law {law!r}")


@dataclass(frozen=True)
class Catalog:
    """One bank entry: a named catalog with its own generator key."""

    name: str
    law: str
    n: int
    key: tuple[int, ...]

    def masses(self) -> np.ndarray:
        return draw(self.law, self.n, np.random.default_rng(self.key))

    def write(self, directory: Path) -> tuple[Path, str]:
        """Write the catalog CSV; return its path and the sha256 of its bytes."""
        data = ("mass\n" + "\n".join(map(repr, self.masses().tolist())) + "\n").encode()
        path = directory / f"{self.name}.csv"
        path.write_bytes(data)
        return path, hashlib.sha256(data).hexdigest()


def _cluster_size(key: tuple[int, ...]) -> int:
    lo, hi = CLUSTER_N
    u = np.random.default_rng((*key, 0)).uniform(math.log(lo), math.log(hi))
    return int(round(math.exp(u)))


def cluster_bank() -> dict[str, Catalog]:
    """CLUSTER_PER_LAW entries per law, grouped by law in LAWS order."""
    bank = {}
    for j, law in enumerate(LAWS):
        for k in range(CLUSTER_PER_LAW):
            key = (BANK_KEY, 1, j, k)
            bank[f"cl-{law}-{k:02d}"] = Catalog(f"cl-{law}-{k:02d}", law, _cluster_size(key), key)
    return bank


def cluster_plan(seed: int, reference: dict) -> list[str]:
    """Catalog names in run order, CLUSTER_CYCLE operations per cycle.

    Whether the gld fit succeeds sets an operation's cost more than anything
    else: a failing gld fit takes about a second longer.  The seed-commit
    reference fixes that outcome for every later commit, so every cycle has
    the same mix: laws go round-robin, lindley1 slots draw catalogs whose gld
    fit succeeds (11 of 24), and the other laws draw catalogs where it fails
    (70 of 72).  The seed picks the catalogs inside each stratum and their
    order.
    """
    rng = np.random.default_rng([seed, 1])
    strata: dict[tuple[str, bool], list[str]] = {}
    for name, cat in cluster_bank().items():
        gld_ok = "error" not in reference[name]["fits"]["gld"]
        strata.setdefault((cat.law, gld_ok), []).append(name)
    streams = {key: [names[i] for i in rng.permutation(len(names))] for key, names in sorted(strata.items())}
    slots = [(law, law == "lindley1") for law in LAWS] * (CLUSTER_CYCLE // len(LAWS))
    used = dict.fromkeys(streams, 0)
    plan = []
    for _ in range(CLUSTER_PLAN_CYCLES):
        for key in slots:
            stream = streams[key]
            plan.append(stream[used[key] % len(stream)])
            used[key] += 1
    return plan


def synth_cycle(rng: np.random.Generator) -> list[tuple[str, tuple[float, ...], int, int]]:
    """One (family, params, n, sample seed) per family, in a fixed family order."""
    lo, hi = SYNTH_N
    return [
        (family, params, int(rng.integers(lo, hi + 1)), int(rng.integers(2**32)))
        for family, params in SYNTH_SPECS
    ]
