"""The distribution families behind one generic handle.

Eight families are supported: the one-parameter exponential-plus-gamma
mixture (``lindley1``), its two-parameter (``tpld``), power (``pld``),
generalized (``gld``), new generalized (``ngld``) and new weighted (``nwl``)
variants, the double truncated one-parameter form (``dtl``), and a lognormal
baseline.

``lindley1``, ``tpld``, ``gld`` and ``ngld`` are two-gamma mixtures with a
shared rate.  Each maps its parameters to the mixture's weights, shapes and
rate, and its density, distribution functions, moments and draws all come
from that one map.  ``pld`` is ``lindley1`` at a power of x, and ``dtl``'s
moments are those of a truncated exponential/gamma(2) mixture past ``x_l``.

Shipped CDFs are written as compositions of regularized incomplete gamma
functions (or plain exponential survival terms) rather than as the textbook
single-expression forms, which cancel badly at large rate*x.  The textbook
forms are retained in the test suite as independent cross-checks.

``sample`` never inverts a CDF numerically: every law is a gamma variate,
possibly mixed, powered, shifted or truncated, and each family draws from
its exact generator (see :func:`sample`).

``pdf``, ``cdf``, ``sf`` and ``hazard`` accept a scalar or an array and
return the matching shape.  Moment helpers are scalar.  All operations are
pure; :class:`DistributionSpec` is immutable, and ``sample`` takes an
explicit seed, so everything is safe for concurrent use.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from . import specfun
from .errors import (
    DomainError,
    FamilyError,
    ParameterError,
    SurvivalUnderflowError,
)

_SQRT2 = math.sqrt(2.0)

# Survival probabilities below this raise instead of producing a huge hazard.
SURVIVAL_FLOOR = 1e-300


class Family(str, enum.Enum):
    LINDLEY1 = "lindley1"
    TPLD = "tpld"
    PLD = "pld"
    GLD = "gld"
    NGLD = "ngld"
    NWL = "nwl"
    DTL = "dtl"
    LOGNORMAL = "lognormal"


PARAM_NAMES: dict[Family, tuple[str, ...]] = {
    Family.LINDLEY1: ("c",),
    Family.TPLD: ("b", "c"),
    Family.PLD: ("b", "c"),
    Family.GLD: ("a", "b", "c"),
    Family.NGLD: ("a", "b", "c"),
    Family.NWL: ("b", "c"),
    Family.DTL: ("c", "x_l", "x_u"),
    Family.LOGNORMAL: ("m", "sigma"),
}


def _validate_lindley1(c):
    if c <= 0:
        raise ParameterError(f"lindley1 requires c > 0, got c={c}")


def _validate_tpld(b, c):
    if c <= 0 or b * c <= -1:
        raise ParameterError(f"tpld requires c > 0 and b*c > -1, got b={b}, c={c}")


def _validate_positive(*params):
    if any(p <= 0 for p in params):
        raise ParameterError(f"all parameters must be > 0, got {params}")


def _validate_dtl(c, x_l, x_u):
    if c <= 0:
        raise ParameterError(f"dtl requires c > 0, got c={c}")
    if not (0 <= x_l < x_u):
        raise ParameterError(f"dtl requires 0 <= x_l < x_u, got x_l={x_l}, x_u={x_u}")


_VALIDATORS: dict[Family, Callable[..., None]] = {
    Family.LINDLEY1: _validate_lindley1,
    Family.TPLD: _validate_tpld,
    Family.PLD: _validate_positive,
    Family.GLD: _validate_positive,
    Family.NGLD: _validate_positive,
    Family.NWL: _validate_positive,
    Family.DTL: _validate_dtl,
    Family.LOGNORMAL: _validate_positive,
}


@dataclass(frozen=True)
class DistributionSpec:
    """Family tag plus parameter vector; the handle all generic operations accept."""

    family: Family
    params: tuple[float, ...]

    def __post_init__(self):
        fam = Family(self.family)
        try:
            params = tuple(float(p) for p in self.params)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"parameters must be real numbers: {self.params!r}") from exc
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "params", params)
        names = PARAM_NAMES[fam]
        if len(params) != len(names):
            raise ParameterError(
                f"{fam.value} takes {len(names)} parameters {names}, got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ParameterError(f"parameters must be finite, got {params}")
        _VALIDATORS[fam](*params)

    @property
    def k_params(self) -> int:
        """Number of free parameters (truncation bounds count)."""
        return len(self.params)

    def param_dict(self) -> dict[str, float]:
        return dict(zip(PARAM_NAMES[self.family], self.params))

    def __str__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self.param_dict().items())
        return f"{self.family.value}({inner})"


@dataclass(frozen=True)
class Support:
    lower: float
    upper: float  # may be math.inf


class ModeResult(NamedTuple):
    value: float
    at_boundary: bool


def lindley1(c: float) -> DistributionSpec:
    return DistributionSpec(Family.LINDLEY1, (c,))


def tpld(b: float, c: float) -> DistributionSpec:
    return DistributionSpec(Family.TPLD, (b, c))


def pld(b: float, c: float) -> DistributionSpec:
    return DistributionSpec(Family.PLD, (b, c))


def gld(a: float, b: float, c: float) -> DistributionSpec:
    return DistributionSpec(Family.GLD, (a, b, c))


def ngld(a: float, b: float, c: float) -> DistributionSpec:
    return DistributionSpec(Family.NGLD, (a, b, c))


def nwl(b: float, c: float) -> DistributionSpec:
    return DistributionSpec(Family.NWL, (b, c))


def dtl(c: float, x_l: float, x_u: float) -> DistributionSpec:
    return DistributionSpec(Family.DTL, (c, x_l, x_u))


def lognormal(m: float, sigma: float) -> DistributionSpec:
    return DistributionSpec(Family.LOGNORMAL, (m, sigma))


def support(spec: DistributionSpec) -> Support:
    if spec.family is Family.DTL:
        _, x_l, x_u = spec.params
        return Support(x_l, x_u)
    return Support(0.0, math.inf)


# --------------------------------------------------------------------------
# two-gamma mixtures
# --------------------------------------------------------------------------

# lindley1, tpld, gld and ngld are each w1 Gamma(s1, rate) + w2 Gamma(s2, rate)
# with w1 + w2 = 1.  Each family only maps its parameters to
# (w1, w2, s1, s2, rate); the density, distribution functions, moments and
# draws below are written once for all four.  The weights are written so that
# neither cancels nor overflows; tpld's w1 is 1 - u rather than bc u, which is
# NaN once bc overflows, and is negative when b < 0.  gld's c/(c + b) and
# b/(c + b) halve c and b where c + b overflows; halving such large numbers is
# exact, so the weights are those ratios to the last bit.  The maps take
# parameter arrays as well, for the batched estimators.

def _mixture_lindley1(c):
    return c / (1.0 + c), 1.0 / (1.0 + c), 1.0, 2.0, c


def _mixture_tpld(b, c):
    u = 1.0 / (b * c + 1.0)
    return 1.0 - u, u, 1.0, 2.0, c


def _mixture_gld(a, b, c):
    scale = np.where(c + b < math.inf, 1.0, 0.5)
    c_s, b_s = scale * c, scale * b
    return c_s / (c_s + b_s), b_s / (c_s + b_s), a + 1.0, a, b


def _mixture_ngld(a, b, c):
    return c / (1.0 + c), 1.0 / (1.0 + c), a, b, c


_MIXTURES = {
    Family.LINDLEY1: _mixture_lindley1,
    Family.TPLD: _mixture_tpld,
    Family.GLD: _mixture_gld,
    Family.NGLD: _mixture_ngld,
}


def _per_mixture(form) -> dict:
    """``form(mix, ...)`` bound to each mixture family's map, keyed by family."""
    return {fam: functools.partial(form, mix) for fam, mix in _MIXTURES.items()}


def _gamma_pdf_arr(x: np.ndarray, shape: float, rate: float) -> np.ndarray:
    """Gamma(shape, rate) density with the correct x = 0 limits."""
    out = np.zeros_like(x)
    pos = (x > 0.0) & (x < math.inf)   # x = inf is a power that overflowed
    if np.any(pos):
        xp = x[pos]
        out[pos] = np.exp(
            shape * math.log(rate) + (shape - 1.0) * np.log(xp) - rate * xp - math.lgamma(shape)
        )
    zero = x == 0.0
    if np.any(zero):
        if shape < 1.0:
            out[zero] = np.inf
        elif shape == 1.0:
            out[zero] = rate
        # shape > 1 leaves 0
    return out


def _pdf_mixture(mix, x, *params):
    w1, w2, s1, s2, rate = mix(*params)
    # only a gld/ngld component (shape < 1) is inf at x = 0, and its weight is
    # positive in exact arithmetic: one that underflowed to 0 still gives inf
    with np.errstate(invalid="ignore"):
        out = w1 * _gamma_pdf_arr(x, s1, rate) + w2 * _gamma_pdf_arr(x, s2, rate)
    return np.where(np.isnan(out), np.inf, out)


def _mixture_sum(reg_gamma, at_zero: float, weights, x):
    """w1 R(s1, rate x) + w2 R(s2, rate x) for R = P or Q; ``at_zero`` for x <= 0."""
    w1, w2, s1, s2, rate = weights
    out = np.full_like(x, at_zero)
    m = x > 0.0
    z = rate * x[m]
    out[m] = w1 * reg_gamma(s1, z) + w2 * reg_gamma(s2, z)
    # a signed density (tpld with b < 0) keeps its signed distribution functions
    return np.clip(out, 0.0, 1.0) if w1 >= 0.0 and w2 >= 0.0 else out


def _cdf_mixture(mix, x, *params):
    return _mixture_sum(specfun.reg_gamma_p_arr, 0.0, mix(*params), x)


def _sf_mixture(mix, x, *params):
    return _mixture_sum(specfun.reg_gamma_q_arr, 1.0, mix(*params), x)


def _rising(x, n: int):
    """x (x+1) ... (x+n-1), which is Gamma(x+n) / Gamma(x) for an integer n >= 0."""
    out = x if n else 1.0
    for k in range(1, n):
        out = out * (x + k)
    return out


def _raw_moment_mixture(mix, r, *params):
    # times rate**-r, so a tiny rate raises OverflowError instead of dividing by 0
    w1, w2, s1, s2, rate = mix(*params)
    return (w1 * _rising(s1, r) + w2 * _rising(s2, r)) * rate ** -r


def _mean_variance_mixture(mix, *params):
    # law of total variance: the within-component part w1 s1 + w2 s2 plus the
    # between-component part w1 w2 (s1 - s2)^2, all over rate^2
    w1, w2, s1, s2, rate = mix(*params)
    m = w1 * s1 + w2 * s2
    return m / rate, (m + w1 * w2 * (s1 - s2) * (s1 - s2)) / rate / rate


def _sample_mixture(mix, rng, n, *params):
    w1, w2, s1, s2, rate = mix(*params)
    if w1 < 0.0 or w2 < 0.0:
        # only tpld with b < 0 has a negative weight
        raise DomainError(f"tpld with b < 0 has a signed density and cannot be sampled, got b={params[0]}")
    pick = rng.uniform(size=n)
    first = rng.gamma(s1, 1.0 / rate, size=n)
    second = rng.gamma(s2, 1.0 / rate, size=n)
    return np.where(pick < w1, first, second)


# --------------------------------------------------------------------------
# lindley1 at a power (pld) and truncated to a window (dtl)
# --------------------------------------------------------------------------

def _at_power(form, x, b, c):
    """``form`` of lindley1(b) at x**c: the pld cdf and sf."""
    with np.errstate(over="ignore"):
        t = np.maximum(x, 0.0) ** c
    return form(_mixture_lindley1, t, b)


def _pdf_at_power(x, b, c):
    """The pld density by the change of variables t = x**c: c x^(c-1) times lindley1(b)'s at t."""
    dens = _at_power(_pdf_mixture, x, b, c)
    # x^(c-1) is inf at x = 0 when c < 1, and may overflow where the density
    # at t has already underflowed to 0; below 0 the density is 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = c * np.maximum(x, 0.0) ** (c - 1.0) * dens
    return np.where((x < 0.0) | (dens == 0.0), 0.0, out)


def _dtl_mass(c, lo, hi):
    """c^2 M(lo, hi) as its two positive parts, M the mass of (1 + x) e^{-c (x - lo)} on [lo, hi].

    In z = c (x - lo) the integrand is (c (1 + lo) + z) e^{-z} / c^2, the
    Exp(1) / Gamma(2) mixture of tpld(1 + lo, c) past lo, so with
    zw = c (hi - lo) the mass is (c (1 + lo) P(1, zw) + P(2, zw)) / c^2.  No
    term cancels, at any rate.  The dtl density is (1 + x) e^{-c (x - x_l)} /
    M(x_l, x_u), its cdf M(x_l, x) / M(x_l, x_u) and its sf
    e^{-c (x - x_l)} M(x, x_u) / M(x_l, x_u).
    """
    zw = c * (hi - lo)
    return (1.0 + lo) * c * -np.expm1(-zw), special.gammainc(2.0, zw)


# --------------------------------------------------------------------------
# densities
# --------------------------------------------------------------------------

def _pdf_nwl(x, b, c):
    out = np.zeros_like(x)
    m = x >= 0.0
    xm = x[m]
    norm = b * (c * b + b + c + 2.0)
    out[m] = c * c * (1.0 + b) ** 2 * (1.0 + xm) * (-np.expm1(-c * b * xm)) * np.exp(-c * xm) / norm
    return out


def _pdf_dtl(x, c, x_l, x_u):
    out = np.zeros_like(x)
    m = (x >= x_l) & (x <= x_u)
    xm = x[m]
    out[m] = (1.0 + xm) * np.exp(-c * (xm - x_l)) / (sum(_dtl_mass(c, x_l, x_u)) / c / c)
    return out


def _pdf_lognormal(x, m, sigma):
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    z = np.log(xp / m) / sigma
    out[pos] = np.exp(-0.5 * z * z) / (xp * sigma * math.sqrt(2.0 * math.pi))
    return out


_PDF = {
    **_per_mixture(_pdf_mixture),
    Family.PLD: _pdf_at_power,
    Family.NWL: _pdf_nwl,
    Family.DTL: _pdf_dtl,
    Family.LOGNORMAL: _pdf_lognormal,
}


# --------------------------------------------------------------------------
# CDFs (incomplete-gamma compositions) and survival functions
# --------------------------------------------------------------------------

def _cdf_nwl(x, b, c):
    out = np.zeros_like(x)
    m = x > 0.0
    xm = x[m]
    c2 = c * (1.0 + b)
    amp = c * c * (1.0 + b) ** 2 / (b * (c * b + b + c + 2.0))
    z1 = c * xm
    z2 = c2 * xm
    g1 = specfun.reg_gamma_p_arr(1.0, z1) / c + specfun.reg_gamma_p_arr(2.0, z1) / (c * c)
    g2 = specfun.reg_gamma_p_arr(1.0, z2) / c2 + specfun.reg_gamma_p_arr(2.0, z2) / (c2 * c2)
    out[m] = amp * (g1 - g2)
    return np.clip(out, 0.0, 1.0)


def _cdf_dtl(x, c, x_l, x_u):
    out = np.zeros_like(x)
    m = (x > x_l) & (x < x_u)
    out[m] = sum(_dtl_mass(c, x_l, x[m])) / sum(_dtl_mass(c, x_l, x_u))
    out[x >= x_u] = 1.0
    return np.clip(out, 0.0, 1.0)


def _cdf_lognormal(x, m, sigma):
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = 0.5 + 0.5 * specfun.erf_arr((np.log(xp) - math.log(m)) / (sigma * _SQRT2))
    return np.clip(out, 0.0, 1.0)


_CDF = {
    **_per_mixture(_cdf_mixture),
    Family.PLD: functools.partial(_at_power, _cdf_mixture),
    Family.NWL: _cdf_nwl,
    Family.DTL: _cdf_dtl,
    Family.LOGNORMAL: _cdf_lognormal,
}


def _sf_nwl(x, b, c):
    out = np.ones_like(x)
    m = x > 0.0
    xm = x[m]
    c2 = c * (1.0 + b)
    amp = c * c * (1.0 + b) ** 2 / (b * (c * b + b + c + 2.0))
    h1 = np.exp(-c * xm) * (c + 1.0 + c * xm) / (c * c)
    h2 = np.exp(-c2 * xm) * (c2 + 1.0 + c2 * xm) / (c2 * c2)
    out[m] = amp * (h1 - h2)
    return out


def _sf_dtl(x, c, x_l, x_u):
    out = np.ones_like(x)
    m = (x > x_l) & (x < x_u)
    xm = x[m]
    out[m] = np.exp(-c * (xm - x_l)) * sum(_dtl_mass(c, xm, x_u)) / sum(_dtl_mass(c, x_l, x_u))
    out[x >= x_u] = 0.0
    return out


def _sf_lognormal(x, m, sigma):
    out = np.ones_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = 0.5 * specfun.erfc_arr((np.log(xp) - math.log(m)) / (sigma * _SQRT2))
    return out


_SF = {
    **_per_mixture(_sf_mixture),
    Family.PLD: functools.partial(_at_power, _sf_mixture),
    Family.NWL: _sf_nwl,
    Family.DTL: _sf_dtl,
    Family.LOGNORMAL: _sf_lognormal,
}


def _eval(table, spec: DistributionSpec, x):
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("evaluation points must be finite")
    scalar = arr.ndim == 0
    vals = table[spec.family](np.atleast_1d(arr).astype(float), *spec.params)
    return float(vals[0]) if scalar else vals


def pdf(spec: DistributionSpec, x):
    """Density at x (0 outside the support); scalar in, scalar out."""
    return _eval(_PDF, spec, x)


def cdf(spec: DistributionSpec, x):
    """Distribution function at x."""
    return _eval(_CDF, spec, x)


def sf(spec: DistributionSpec, x):
    """Survival function 1 - F(x), computed directly for tail accuracy."""
    return _eval(_SF, spec, x)


def hazard(spec: DistributionSpec, x):
    """Failure rate pdf(x) / (1 - cdf(x))."""
    surv = sf(spec, x)
    dens = pdf(spec, x)
    if np.any(np.asarray(surv) < SURVIVAL_FLOOR):
        raise SurvivalUnderflowError(
            f"survival below {SURVIVAL_FLOOR:g}; hazard not representable at x={x!r}"
        )
    return dens / surv


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------

def _dtl_shifted_moments(c: float, x_l: float, x_u: float, k: int) -> list[float]:
    """E[Z^j] for j = 0..k, where Z = c (X - x_l).

    Past x_l the density (1 + x) e^{-cx} is (c (1 + x_l) + z) e^{-z} in z, an
    Exp(1) / Gamma(2) mixture in the ratio c (1 + x_l) : 1, here truncated to
    [0, zw] with zw = c (x_u - x_l).  So E[Z^j] is proportional to
    A j! P(j+1, zw) + (j+1)! P(j+2, zw) with A = c (1 + x_l), a sum of
    positive terms: no difference of two incomplete gammas is taken.
    """
    zw = c * (x_u - x_l)
    a = c * (1.0 + x_l)
    p = special.gammainc(np.arange(1.0, k + 3.0), zw).tolist()
    terms = [math.factorial(j) * (a * p[j] + (j + 1) * p[j + 1]) for j in range(k + 1)]
    return [t / terms[0] for t in terms]


# The power and new-weighted raw moments raise their parameters with
# np.power, which overflows to inf where Python's ** raises OverflowError, so
# an overflowing variance does not take the finite mean down with it.

def _raw_moment_pld(r, b, c):
    # b^(1-s) Gamma(s+1) + b^(-s) Gamma(s+2) with Gamma(s+2) = (s+1) Gamma(s+1)
    s = r / c
    return np.power(b, -s) * special.gamma(s + 1.0) * (b + s + 1.0) / (b + 1.0)


def _raw_moment_nwl(r, b, c):
    return (
        math.gamma(r + 1.0)
        * np.power(c, -float(r))
        * ((1.0 + b) * (1.0 + b) * (c + r + 1.0) - (1.0 + b) ** (-float(r)) * (c * (1.0 + b) + r + 1.0))
        / (b * (b * c + b + c + 2.0))
    )


def _raw_moment_dtl(r, c, x_l, x_u):
    # E[(x_l + Z/c)^r] by the binomial expansion, every term >= 0
    ez = _dtl_shifted_moments(c, x_l, x_u, r)
    return sum(math.comb(r, j) * x_l ** (r - j) * ez[j] * c ** -j for j in range(r + 1))


def _raw_moment_lognormal(r, m, sigma):
    return m**r * math.exp(0.5 * r * r * sigma * sigma)


_RAW_MOMENT = {
    **_per_mixture(_raw_moment_mixture),
    Family.PLD: _raw_moment_pld,
    Family.NWL: _raw_moment_nwl,
    Family.DTL: _raw_moment_dtl,
    Family.LOGNORMAL: _raw_moment_lognormal,
}


def _finite_moment(what: str, spec: DistributionSpec, form) -> float:
    """``form()`` as a float; a moment that is not a finite double raises DomainError."""
    try:
        # an overflow shows up as a non-finite value, which raises below
        with np.errstate(all="ignore"):
            value = float(form())
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the {what} of {spec} is not a finite double")
    return value


def raw_moment(spec: DistributionSpec, r: int) -> float:
    """r-th moment about the origin, r >= 1."""
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise DomainError(f"raw_moment requires a positive integer order, got r={r!r}")
    return _finite_moment(
        f"raw moment of order {r}", spec, lambda: _RAW_MOMENT[spec.family](int(r), *spec.params)
    )


# Mean with variance, per family.  The mixture, power and new-weighted forms
# also take parameter arrays, for the batched estimators.

def _mean_variance_pld(b, c):
    mu = _raw_moment_pld(1, b, c)
    return mu, _raw_moment_pld(2, b, c) - mu * mu


def _mean_variance_nwl(b, c):
    mu = (b * b * c + 2.0 * b * b + 3.0 * c * b + 6.0 * b + 2.0 * c + 6.0) / (
        (c * b + b + c + 2.0) * c * (1.0 + b)
    )
    return mu, _raw_moment_nwl(2, b, c) - mu * mu


def _mean_variance_dtl(c, x_l, x_u):
    _, m1, m2 = _dtl_shifted_moments(c, x_l, x_u, 2)
    return x_l + m1 / c, (m2 - m1 * m1) / c / c


def _mean_variance_lognormal(m, sigma):
    e = np.exp(sigma * sigma)   # overflows to inf where math.exp raises, so the mean survives
    return m * math.exp(0.5 * sigma * sigma), e * (e - 1.0) * m * m


_MEAN_VARIANCE = {
    **_per_mixture(_mean_variance_mixture),
    Family.PLD: _mean_variance_pld,
    Family.NWL: _mean_variance_nwl,
    Family.DTL: _mean_variance_dtl,
    Family.LOGNORMAL: _mean_variance_lognormal,
}


def mean(spec: DistributionSpec) -> float:
    """Closed-form mean; DomainError when it is not a finite double."""
    return _finite_moment("mean", spec, lambda: _MEAN_VARIANCE[spec.family](*spec.params)[0])


def variance(spec: DistributionSpec) -> float:
    """Closed-form variance; DomainError when it is not a finite double.

    The mixture families use the law of total variance over their two gamma
    components and the truncated family the moments of its shifted variable;
    the power and new-weighted families use mu2' - mu^2 from the raw moments.
    Their sprawling one-expression variants live in the test suite only.
    """
    return _finite_moment("variance", spec, lambda: _MEAN_VARIANCE[spec.family](*spec.params)[1])


def central_moments_34(spec: DistributionSpec) -> tuple[float, float]:
    """Third and fourth central moments; one-parameter family only."""
    if spec.family is not Family.LINDLEY1:
        raise FamilyError(
            f"central_moments_34 is defined for the one-parameter family, got {spec.family.value}"
        )
    (c,) = spec.params
    # numerators divided by c^3 and c^4, so large c neither overflows nor flushes to 0
    u = 1.0 + c
    mu3 = (2.0 + (12.0 + (12.0 + 4.0 / c) / c) / c) / u / u / u
    mu4 = (9.0 + (72.0 + (132.0 + (96.0 + 24.0 / c) / c) / c) / c) / u / u / u / u
    return mu3, mu4


def mode(spec: DistributionSpec) -> ModeResult:
    """Interior density maximum, or the support's lower edge flagged as boundary.

    Only the two-parameter, power, and generalized families have closed-form
    modes.  For the power family the closed form is the stationary point of
    the power-transformed variable; the density argmax is its (1/c)-th power,
    which is what this function returns.
    """
    fam, p = spec.family, spec.params
    if fam is Family.TPLD:
        b, c = p
        v = (1.0 - b * c) / c
        if v <= 0.0:
            return ModeResult(0.0, True)
        return ModeResult(v, False)
    if fam is Family.PLD:
        b, c = p
        disc = 1.0 + (b * b + 4.0) * c * c + (-2.0 * b - 4.0) * c
        if disc < 0.0:
            return ModeResult(0.0, True)
        y = (-c * b + math.sqrt(disc) + 2.0 * c - 1.0) / (2.0 * c * b)
        if y <= 0.0:
            return ModeResult(0.0, True)
        return ModeResult(y ** (1.0 / c), False)
    if fam is Family.GLD:
        a, b, c = p
        disc = a * a * b * b + 2.0 * a * a * b * c + a * a * c * c - 4.0 * a * b * c
        if disc < 0.0:
            return ModeResult(0.0, True)
        v = (-a * b + a * c + math.sqrt(disc)) / (2.0 * b * c)
        if v <= 0.0:
            return ModeResult(0.0, True)
        return ModeResult(v, False)
    raise FamilyError(f"mode has no closed form for family {fam.value}")


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def _sample_pld(rng, n, b, c):
    return _sample_mixture(_mixture_lindley1, rng, n, b) ** (1.0 / c)


def _sample_nwl(rng, n, b, c):
    # (1+x) e^{-cx} (1 - e^{-cbx}) = int_c^{c(1+b)} (x + x^2) e^{-rx} dr, so a draw
    # is Gamma(2 or 3, rate r) with r mixed over [c, c(1+b)]: shape 2 carries
    # r-density r^-2 and mass m2, shape 3 carries 2 r^-3 and mass m3.  Both
    # masses are written without the 1/c - 1/c2 cancellation, for small b.
    m2 = b / (c * (1.0 + b))
    m3 = m2 * (2.0 + b) / (c * (1.0 + b))
    pick = rng.uniform(size=n) < m2 / (m2 + m3)
    u = rng.uniform(size=n)
    scale = np.where(pick, 1.0 / c - u * m2, np.sqrt(1.0 / (c * c) - u * m3))
    return rng.gamma(np.where(pick, 2.0, 3.0), scale)


def _sample_dtl(rng, n, c, x_l, x_u):
    # Past x_l the Lindley density is tpld(1 + x_l, c) in x - x_l; in z = c (x - x_l)
    # that is an Exp(1) / Gamma(2) mixture, here truncated to [0, zw] and
    # inverted exactly per component.
    zw = c * (x_u - x_l)
    w_exp, p2 = _dtl_mass(c, x_l, x_u)
    pick = rng.uniform(size=n) < w_exp / (w_exp + p2)
    u = rng.uniform(size=n)
    z = np.empty(n)
    z[pick] = -np.log1p(u[pick] * math.expm1(-zw))
    z[~pick] = special.gammaincinv(2.0, u[~pick] * p2)
    # z / c can round a last bit past the window
    return np.clip(x_l + z / c, x_l, x_u)


def _sample_lognormal(rng, n, m, sigma):
    return m * np.exp(sigma * rng.standard_normal(n))


_SAMPLERS = {
    **_per_mixture(_sample_mixture),
    Family.PLD: _sample_pld,
    Family.NWL: _sample_nwl,
    Family.DTL: _sample_dtl,
    Family.LOGNORMAL: _sample_lognormal,
}


def _check_count(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DomainError(f"sample requires an integer {name} >= {minimum}, got {value!r}")


def sample(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws, deterministic for a given seed.

    Every family draws directly from numpy's generator seeded with ``seed``:
    ``lindley1``, ``tpld`` (b >= 0), ``gld`` and ``ngld`` are two-component
    gamma mixtures; ``pld`` is a power of a ``lindley1`` draw; ``nwl`` is a
    gamma mixture over its rate; ``dtl`` mixes an exponential and a Gamma(2)
    each truncated to the window by exact inversion; ``lognormal`` is
    ``m * exp(sigma * Z)``.  ``n`` must be an integer >= 1 and ``seed`` an
    integer >= 0 (``bool`` is rejected for both).  ``tpld`` with b < 0 has a
    signed density and raises :class:`DomainError`.
    """
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    return _SAMPLERS[spec.family](np.random.default_rng(seed), int(n), *spec.params)
