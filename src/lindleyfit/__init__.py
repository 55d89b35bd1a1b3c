"""Lindley-family distributions, moment estimators and goodness-of-fit tools."""

from .catalog import MassCatalog, load_csv, summarize
from .distributions import (
    DistributionSpec,
    Family,
    ModeResult,
    Support,
    cdf,
    central_moments_34,
    dtl,
    gld,
    hazard,
    lindley1,
    lognormal,
    mean,
    mode,
    ngld,
    nwl,
    pdf,
    pld,
    raw_moment,
    sample,
    sf,
    support,
    tpld,
    variance,
)
from .estimation import (
    MomentTargets,
    SolveReport,
    estimate,
    targets_from_spec,
)
from .gof import (
    BinnedHistogram,
    FitReport,
    aic,
    bin_sample,
    chi_square,
    full_report,
    ks_test,
    q_probability,
    theoretical_frequencies,
)

__version__ = "0.1.0"
