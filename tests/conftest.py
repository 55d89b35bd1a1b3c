import os

import numpy as np

import lindleyfit as lf
from lindleyfit.distributions import Family

ALL_FAMILIES = tuple(Family)

# one representative vector per family, shared by the self-sampling checks
SELF_SAMPLE_SPECS = {
    Family.LINDLEY1: lf.lindley1(2.0),
    Family.TPLD: lf.tpld(0.5, 2.0),
    Family.PLD: lf.pld(2.66, 2.28),
    Family.GLD: lf.gld(2.0, 3.0, 0.5),
    Family.NGLD: lf.ngld(2.0, 3.0, 1.5),
    Family.NWL: lf.nwl(1.57, 3.77),
    Family.DTL: lf.dtl(2.71, 0.019, 1.46),
    Family.LOGNORMAL: lf.lognormal(0.6, 0.9),
}


def random_spec(family, rng, nonneg=False):
    """Draw a valid parameter vector of representative magnitude.

    With nonneg=True the two-parameter family keeps b >= 0 so its density is
    nonnegative everywhere (b < 0 with b*c > -1 is a legal vector but gives a
    signed density near zero).
    """
    f = Family(family)
    if f is Family.LINDLEY1:
        return lf.lindley1(rng.uniform(0.3, 8.0))
    if f is Family.TPLD:
        # b*c > -2 + sqrt(2) keeps the closed-form variance positive, so the
        # draw stays usable as a moment-matching target
        c = rng.uniform(0.5, 6.0)
        b = rng.uniform(0.0 if nonneg else -0.55 / c, 3.0)
        return lf.tpld(b, c)
    if f is Family.PLD:
        return lf.pld(rng.uniform(0.4, 5.0), rng.uniform(0.5, 4.0))
    if f is Family.GLD:
        return lf.gld(rng.uniform(0.5, 8.0), rng.uniform(0.4, 8.0), rng.uniform(0.05, 10.0))
    if f is Family.NGLD:
        return lf.ngld(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0), rng.uniform(0.3, 8.0))
    if f is Family.NWL:
        return lf.nwl(rng.uniform(0.02, 5.0), rng.uniform(0.3, 8.0))
    if f is Family.DTL:
        x_l = rng.uniform(0.0, 1.0)
        return lf.dtl(rng.uniform(0.3, 8.0), x_l, x_l + rng.uniform(0.5, 4.0))
    return lf.lognormal(rng.uniform(0.2, 3.0), rng.uniform(0.2, 1.5))


def interior_grid(spec, n=25):
    """Points strictly inside the support, dense where mass is."""
    sup = lf.support(spec)
    if np.isfinite(sup.upper):
        lo = sup.lower + 1e-3 * (sup.upper - sup.lower)
        hi = sup.upper - 1e-3 * (sup.upper - sup.lower)
        return np.linspace(lo, hi, n)
    m = lf.mean(spec)
    return np.linspace(0.05 * m, 5.0 * m, n)


def checkout_env():
    """The environment for a child interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(lf.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
