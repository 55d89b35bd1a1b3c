"""Goodness-of-fit battery: binning, chi-square, Q, AIC, Kolmogorov-Smirnov.

Conventions follow the comparison tables this package reproduces: linear
binning over the sample range (20 bins by default), theoretical frequencies
from the density at the bin midpoint, degrees of freedom fixed at
n_bins - k_params, AIC = 2k + chi2, and the one-sample K-S statistic with the
Stephens small-sample correction in its significance level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import specfun
from .distributions import DistributionSpec
from .errors import DegenerateSampleError, DomainError

# Bins with theoretical mass below this are dropped from the chi-square sum
# (degrees of freedom stay at n_bins - k_params to match the tables).
THEORY_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class BinnedHistogram:
    """Equal-width histogram over the sample range; the top edge is closed."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise DomainError("edges must have exactly one more entry than counts")
        if np.any(np.diff(edges) <= 0):
            raise DomainError("edges must be strictly increasing")
        if np.any(counts < 0):
            raise DomainError("counts must be nonnegative")

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass(frozen=True)
class FitReport:
    """Every fit statistic for one (distribution, sample) pair."""

    spec: DistributionSpec
    chi2: float
    chi2_red: float
    q: float
    aic: float
    d: float
    p_ks: float
    n_bins: int
    k_params: int


def bin_sample(masses, n_bins: int = 20) -> BinnedHistogram:
    """Equal-width bins over [min, max]; the maximum lands in the last bin."""
    masses = np.asarray(masses, dtype=float)
    if masses.size < 2 or np.min(masses) == np.max(masses):
        raise DegenerateSampleError("binning needs at least two distinct values")
    if not isinstance(n_bins, (int, np.integer)) or n_bins < 2:
        raise DomainError(f"n_bins must be an integer >= 2, got {n_bins!r}")
    lo, hi = float(masses.min()), float(masses.max())
    edges = np.linspace(lo, hi, int(n_bins) + 1)
    if np.any(np.diff(edges) <= 0):
        # the range is a few ulps wide, too narrow for n_bins distinct edges:
        # widen it about the sample so every bin is at least one ulp wide
        pad = int(n_bins) * np.spacing(max(abs(lo), abs(hi)))
        edges = np.linspace(lo - pad, hi + pad, int(n_bins) + 1)
    counts, edges = np.histogram(masses, bins=edges)
    return BinnedHistogram(edges=edges, counts=counts)


def theoretical_frequencies(spec: DistributionSpec, hist: BinnedHistogram) -> np.ndarray:
    """T_i = N * bin_width_i * pdf(bin midpoint_i)."""
    return hist.total * hist.widths * dist.pdf(spec, hist.midpoints)


def chi_square(observed: BinnedHistogram, theoretical) -> float:
    """Sum of (T_i - O_i)^2 / T_i over bins whose theoretical mass clears the floor."""
    theo = np.asarray(theoretical, dtype=float)
    if theo.shape != observed.counts.shape:
        raise DomainError(
            f"theoretical frequencies have shape {theo.shape}, expected {observed.counts.shape}"
        )
    keep = theo >= THEORY_FLOOR
    if not np.any(keep):
        raise DomainError("every theoretical bin is below the floor; chi-square undefined")
    obs = observed.counts[keep].astype(float)
    the = theo[keep]
    return float(np.sum((the - obs) ** 2 / the))


def q_probability(chi2: float, dof: int) -> float:
    """Upper-tail chi-square probability Q = Q(dof/2, chi2/2); the fit is
    conventionally 'acceptable' when Q > 0.001."""
    if not (chi2 >= 0 and math.isfinite(chi2)):
        raise DomainError(f"chi2 must be finite and >= 0, got {chi2!r}")
    if not isinstance(dof, (int, np.integer)) or dof < 1:
        raise DomainError(f"dof must be a positive integer, got {dof!r}")
    if chi2 == 0.0:
        return 1.0
    return specfun.regularized_gamma_q(dof / 2.0, chi2 / 2.0)


def aic(chi2: float, k: int) -> float:
    """Akaike information criterion under Gaussian errors: 2k + chi2."""
    if not (chi2 >= 0 and math.isfinite(chi2)):
        raise DomainError(f"chi2 must be finite and >= 0, got {chi2!r}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    return 2.0 * k + chi2


def _ks_significance(d: float, n: int) -> float:
    """Asymptotic K-S tail probability with the Stephens lambda correction.

    Q_KS(lam) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2); the series is cut
    at a relative term of 1e-12 and the probability is clamped to [0, 1].
    A lam too small for the series to converge means certainty of fit (1.0).
    """
    if d <= 0.0:
        return 1.0
    sqrt_n = math.sqrt(n)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d
    total = 0.0
    sign = 1.0
    for j in range(1, 201):
        term = sign * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) <= 1e-12 * max(abs(total), 1e-300):
            return min(max(2.0 * total, 0.0), 1.0)
        sign = -sign
    return 1.0


def ks_test(masses, spec: DistributionSpec) -> tuple[float, float]:
    """Maximum empirical/model CDF distance D and its significance level P_KS.

    The fit is conventionally 'believable' when P_KS >= 0.1.
    """
    masses = np.asarray(masses, dtype=float)
    if masses.size == 0:
        raise DegenerateSampleError("K-S test needs a nonempty sample")
    x = np.sort(masses)
    n = x.size
    f = np.atleast_1d(dist.cdf(spec, x))
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    d = max(d_plus, d_minus, 0.0)
    return d, _ks_significance(d, n)


def full_report(masses, spec: DistributionSpec, n_bins: int = 20) -> FitReport:
    """All fit statistics for one distribution against one sample."""
    k = spec.k_params
    if n_bins <= k:
        raise DomainError(f"n_bins={n_bins} must exceed the parameter count {k}")
    hist = bin_sample(masses, n_bins)
    theo = theoretical_frequencies(spec, hist)
    chi2 = chi_square(hist, theo)
    dof = n_bins - k
    d, p_ks = ks_test(masses, spec)
    return FitReport(
        spec=spec,
        chi2=chi2,
        chi2_red=chi2 / dof,
        q=q_probability(chi2, dof),
        aic=aic(chi2, k),
        d=d,
        p_ks=p_ks,
        n_bins=int(n_bins),
        k_params=k,
    )
