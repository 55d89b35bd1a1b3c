"""The distribution families behind one generic handle.

Eight families are supported: the one-parameter exponential-plus-gamma
mixture (``lindley1``), its two-parameter (``tpld``), power (``pld``),
generalized (``gld``), new generalized (``ngld``) and new weighted (``nwl``)
variants, the double truncated one-parameter form (``dtl``), and a lognormal
baseline.

``lindley1``, ``tpld``, ``gld`` and ``ngld`` are two-gamma mixtures with a
shared rate.  Each maps its parameters to the mixture's weights, shapes and
rate, and its density, distribution functions, moments and draws all come
from that one map.  ``pld`` is ``lindley1`` at a power of x, ``nwl`` is a
gamma(2)/gamma(3) mixture over its rate, and ``dtl``'s moments are those of
a truncated exponential/gamma(2) mixture past ``x_l``.

Each integral is written once.  The mixture raw moment is the moment
helpers' form and the ``ngld`` solver's defect alike.  One truncated Lindley
mass, the integral of (1 + t) e^{-rt} over a window, gives the ``dtl``
density, distribution functions and draws, and the ``nwl`` cdf, which is
that mass from 0 to x at the rates c and c(1 + b).

Shipped CDFs are written as compositions of regularized incomplete gamma
functions, scaled incomplete gammas or plain exponential survival terms
rather than as the textbook single-expression forms, which cancel badly at
large rate*x.  The textbook forms are retained in the test suite as
independent cross-checks.

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

from .errors import (
    DomainError,
    FamilyError,
    ParameterError,
    SurvivalUnderflowError,
)

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
    """Gamma(shape, rate) density, 0 at x = inf (a pld power that overflowed).

    ``special.xlogy`` is 0 at (0, 0), so the log-space form takes the x = 0
    limit itself: inf for shape < 1, the rate for shape = 1, 0 for shape > 1.
    At x = inf the exponent is inf - inf for shape > 1, which the caller's
    ``invalid`` errstate lets through as NaN before it is set to 0.
    """
    out = np.exp(shape * math.log(rate) + special.xlogy(shape - 1.0, x) - rate * x - math.lgamma(shape))
    return np.where(x < math.inf, out, 0.0)


def _pdf_mixture(mix, x, *params):
    w1, w2, s1, s2, rate = mix(*params)
    # only a gld/ngld component (shape < 1) is inf at x = 0, and its weight is
    # positive in exact arithmetic: one that underflowed to 0 still gives inf;
    # only the invalid flag is ignored, so an overflow in exp still warns
    with np.errstate(invalid="ignore"):
        out = w1 * _gamma_pdf_arr(x, s1, rate) + w2 * _gamma_pdf_arr(x, s2, rate)
    return np.where(np.isnan(out), np.inf, out)


def _mixture_sum(reg_gamma, mix, x, *params):
    """w1 R(s1, rate x) + w2 R(s2, rate x) for R = P (the cdf) or Q (the sf).

    The weights sum to 1 only to rounding (1 - 2^-53 for lindley1(0.04)), so
    the sum is divided by w1 + w2, which lets it reach 1 exactly.
    """
    w1, w2, s1, s2, rate = mix(*params)
    z = rate * x
    out = w1 * reg_gamma(s1, z) + w2 * reg_gamma(s2, z)
    # a signed density (tpld with b < 0) keeps its signed distribution functions
    return np.clip(out / (w1 + w2), 0.0, 1.0) if w1 >= 0.0 and w2 >= 0.0 else out


_cdf_mixture = functools.partial(_mixture_sum, special.gammainc)
_sf_mixture = functools.partial(_mixture_sum, special.gammaincc)


def _raw_moment_mixture(mix, r, *params):
    # w1 prod_k (s1 + k)/rate + w2 prod_k (s2 + k)/rate, k < r: each factor is a
    # ratio, so no power of a shape or of the rate overflows where the moment is a double
    w1, w2, s1, s2, rate = mix(*params)
    for k in range(r):
        w1, w2 = w1 * ((s1 + k) / rate), w2 * ((s2 + k) / rate)
    return w1 + w2


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
    pick = rng.random(n) < w1
    first, second = np.flatnonzero(pick), np.flatnonzero(~pick)
    out = np.empty(n)
    out[first] = rng.standard_gamma(s1, first.size)
    out[second] = rng.standard_gamma(s2, second.size)
    out *= 1.0 / rate
    return out


# --------------------------------------------------------------------------
# lindley1 at a power (pld) and truncated to a window (dtl)
# --------------------------------------------------------------------------

def _at_power(form, x, b, c):
    """``form`` of lindley1(b) at x**c: the pld cdf and sf."""
    with np.errstate(over="ignore"):
        return form(_mixture_lindley1, x ** c, b)


def _pdf_at_power(x, b, c):
    """The pld density by the change of variables t = x**c: c x^(c-1) times lindley1(b)'s at t."""
    with np.errstate(over="ignore"):
        dens = _pdf_mixture(_mixture_lindley1, x ** c, b)
    # x^(c-1) is inf at x = 0 when c < 1, and may overflow where the density
    # at t has already underflowed to 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = c * x ** (c - 1.0) * dens
    return np.where(dens == 0.0, 0.0, out)


# R_2(z) = (e^z - 1 - z) / z^2 = sum_k z^k / (k + 2)!, highest power first
_S_OVER_Z2 = tuple(1.0 / math.factorial(k + 2) for k in range(22, -1, -1))


def _series_r(z, m):
    """[R_2(z), ..., R_{m+1}(z)], R_j(z) = sum_k z^k / (j + k)!: the last m partial sums of Horner for R_2.

    Every term is positive, so for 0 <= z <= 2 and m <= 5 they are to the last bit.
    """
    r = [_S_OVER_Z2[0]]
    for a in _S_OVER_Z2[1:]:
        r = [r[0] * z + a, *r[:m - 1]]   # newest first
    return r


def _scaled_p(z, n):
    """[P(j, z) / z^j for j = 1..n] for z >= 0 and 2 <= n <= 6, P the regularized lower incomplete gamma.

    P(j, z) / z^j = e^{-z} R_j(z): for z <= 2 the R_j come from their series
    (R_1 = 1 + z R_2), so none underflows nor is 0/0 as z -> 0; above it
    P(j+1, z) / z^(j+1) = (P(j, z) / z^j - e^{-z} / j!) / z from -expm1(-z) / z,
    which loses about log2(P(1, z) / P(n, z)) bits just above z = 2.
    """
    small = z <= 2.0
    zs, zl = np.minimum(z, 2.0), np.maximum(z, 2.0)   # keep each form inside its own range
    r = _series_r(zs, n - 1)
    ez = np.exp(-z)
    p = [-np.expm1(-z) / zl]
    for j in range(1, n):
        p.append((p[-1] - ez / math.factorial(j)) / zl)
    return [np.where(small, ez * s, q) for s, q in zip([1.0 + zs * r[0], *r], p)]


# The dtl mass past c (x - lo) = 1e50 is below the last bit of the mass before
# it, so windows are cut there: c w stays finite and P(6, c w) / (c w)^6 normal.
_DTL_ZW_MAX = 1e50


def _dtl_mass(c, lo, hi):
    """M(lo, hi), the mass of (1 + x) e^{-c (x - lo)} on [lo, hi], per unit width: (w, K1, K2), M = w (K1 + K2).

    In z = c (x - lo) the integrand is (c (1 + lo) + z) e^{-z} / c^2, the
    Exp(1) / Gamma(2) mixture of tpld(1 + lo, c) past lo, so with w = hi - lo
    and zw = c w the parts are K1 = (1 + lo) P(1, zw) / zw and
    K2 = w P(2, zw) / zw^2.  No term cancels, none underflows however small zw
    is, and neither part overflows where M alone would (w past 1e154).  The
    dtl density is (1 + x) e^{-c (x - x_l)} / M(x_l, x_u), its cdf
    M(x_l, x) / M(x_l, x_u) and its sf e^{-c (x - x_l)} M(x, x_u) / M(x_l, x_u),
    each a ratio of these values; nwl's cdf reads the same mass at lo = 0.
    """
    w = np.minimum(hi - lo, _DTL_ZW_MAX / c)
    p1, p2 = _scaled_p(c * w, 2)
    return w, (1.0 + lo) * p1, w * p2


def _dtl_mass_ratio(c, lo, hi, x_l, x_u):
    """M(lo, hi) / M(x_l, x_u), formed from the masses per unit width."""
    w, k1, k2 = _dtl_mass(c, lo, hi)
    w0, k10, k20 = _dtl_mass(c, x_l, x_u)
    return w / w0 * ((k1 + k2) / (k10 + k20))


def _dtl_moments(z, a, w, k):
    """[E[T^j] for j = 0..k] for T = (X - x_l) / w, with a = 1 + x_l and z = c w >= 0 (an array allowed).

    In t the density is (a + w t) e^{-z t} on [0, 1], and
    int_0^1 t^m e^{-z t} dt = m! P(m+1, z) / z^(m+1): positive terms only, no
    power of 1/c, and z = 0 is the flat c -> 0+ limit.  Callers cut the window
    as _dtl_mass does.
    """
    p = _scaled_p(z, k + 2)
    norm = a * p[0] + w * p[1]
    return [math.factorial(j) * (a * p[j] + w * p[j + 1] * (j + 1)) / norm for j in range(k + 1)]


def _nwl_masses(b, c):
    """The masses (m2, m3) of nwl's Gamma(2) and Gamma(3) parts; m2 + m3 normalises its density.

    (1+x) e^{-cx} (1 - e^{-cbx}) = int_c^{c2} (x + x^2) e^{-rx} dr with c2 = c(1+b), so nwl
    is Gamma(2 or 3, rate r) with r mixed over [c, c2]: shape 2 carries r-density r^-2
    and mass 1/c - 1/c2, shape 3 carries 2 r^-3 and mass 1/c^2 - 1/c2^2, here written
    without that cancellation.  b / (1 + b) and 1 / (1 + b) lie in [0, 1], so no
    step leaves the doubles where the masses are doubles, as c (1 + b) would.
    """
    m2 = b / (1.0 + b) / c
    return m2, m2 * (1.0 + 1.0 / (1.0 + b)) / c


# --------------------------------------------------------------------------
# densities
# --------------------------------------------------------------------------

def _pdf_nwl(x, b, c):
    return (1.0 + x) * (-np.expm1(-c * b * x)) * np.exp(-c * x) / sum(_nwl_masses(b, c))


def _pdf_dtl(x, c, x_l, x_u):
    w, k1, k2 = _dtl_mass(c, x_l, x_u)
    return (1.0 + x) * np.exp(-c * (x - x_l)) / w / (k1 + k2)


def _pdf_lognormal(x, m, sigma):
    # the density tends to 0 as x -> 0, where the formula is 0/0 once x / m or
    # the denominator underflows
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.log(x / m) / sigma
        out = np.exp(-0.5 * z * z) / (x * sigma * math.sqrt(2.0 * math.pi))
    return np.where(np.isnan(out), 0.0, out)


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
    # the rate map's (G(c) - G(c2)) / (m2 + m3), G(r) = int_0^x (1 + t) e^{-rt} dt being
    # the dtl mass at rate r on [0, x]; G(c2) is 0 where c2 = c (1 + b) overflows
    c2 = c * (1.0 + b)
    w, k1, k2 = _dtl_mass(c, 0.0, x)
    w2, h1, h2 = _dtl_mass(c2, 0.0, x) if c2 < math.inf else (0.0, 0.0, 0.0)
    return np.clip((w * (k1 + k2) - w2 * (h1 + h2)) / sum(_nwl_masses(b, c)), 0.0, 1.0)


def _cdf_dtl(x, c, x_l, x_u):
    return np.clip(_dtl_mass_ratio(c, x_l, x, x_l, x_u), 0.0, 1.0)


def _cdf_lognormal(x, m, sigma):
    return special.ndtr((np.log(x) - math.log(m)) / sigma)


_CDF = {
    **_per_mixture(_cdf_mixture),
    Family.PLD: functools.partial(_at_power, _cdf_mixture),
    Family.NWL: _cdf_nwl,
    Family.DTL: _cdf_dtl,
    Family.LOGNORMAL: _cdf_lognormal,
}


def _sf_nwl(x, b, c):
    # the rate map's tail h(c) - h(c2), h(r) = e^{-rx} (1 + r + rx) / r^2, as
    # h(c) (1 - e^L) with L = log(h(c2) / h(c)); every term of L is <= 0
    u = 1.0 + c + c * x
    log_ratio = -c * b * x - math.log1p(b) + np.log1p(-(b / (1.0 + b)) / u)
    return np.exp(-c * x) * u / (c * c) * -np.expm1(log_ratio) / sum(_nwl_masses(b, c))


def _sf_dtl(x, c, x_l, x_u):
    return np.exp(-c * (x - x_l)) * _dtl_mass_ratio(c, x, x_u, x_l, x_u)


def _sf_lognormal(x, m, sigma):
    return special.ndtr((math.log(m) - np.log(x)) / sigma)


_SF = {
    **_per_mixture(_sf_mixture),
    Family.PLD: functools.partial(_at_power, _sf_mixture),
    Family.NWL: _sf_nwl,
    Family.DTL: _sf_dtl,
    Family.LOGNORMAL: _sf_lognormal,
}


def _eval(table, spec: DistributionSpec, x, below: float, above: float, closed: bool = False):
    """``table``'s form for ``spec`` at x inside the support, ``below``/``above`` beyond it.

    A ``closed`` form (the density) is evaluated on the support's edges; the
    others take ``below`` at the lower edge and ``above`` at the upper one.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("evaluation points must be finite")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    sup = support(spec)
    if closed:
        inside = (arr >= sup.lower) & (arr <= sup.upper)
    else:
        inside = (arr > sup.lower) & (arr < sup.upper)
    vals = np.where(arr < sup.upper, below, above)
    vals[inside] = table[spec.family](arr[inside], *spec.params)
    return float(vals[0]) if scalar else vals


def pdf(spec: DistributionSpec, x):
    """Density at x, 0 outside the support; scalar in, scalar out."""
    return _eval(_PDF, spec, x, 0.0, 0.0, closed=True)


def cdf(spec: DistributionSpec, x):
    """Distribution function at x: 0 up to the support's lower edge, 1 from its upper edge."""
    return _eval(_CDF, spec, x, 0.0, 1.0)


def sf(spec: DistributionSpec, x):
    """Survival function 1 - F(x), computed directly: 1 up to the lower edge, 0 from the upper."""
    return _eval(_SF, spec, x, 1.0, 0.0)


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

# The power and new-weighted raw moments raise their parameters with
# np.power, which overflows to inf where Python's ** raises OverflowError, so
# an overflowing variance does not take the finite mean down with it.

def _raw_moment_pld(r, b, c):
    # b^(1-s) Gamma(s+1) + b^(-s) Gamma(s+2) with Gamma(s+2) = (s+1) Gamma(s+1)
    s = r / c
    return np.power(b, -s) * special.gamma(s + 1.0) * (b + s + 1.0) / (b + 1.0)


def _raw_moment_nwl(r, b, c):
    # the rate map's r! (c G_r + (r+1) G_{r+1}) / (c^r (c + G_1)), with
    # G_j = 1 + v + ... + v^j and v = 1/(1+b): every term is positive
    v = 1.0 / (1.0 + b)
    g = [1.0]
    for _ in range(r + 1):
        g.append(1.0 + v * g[-1])
    return math.factorial(r) * np.power(c, -float(r)) * (c * g[r] + (r + 1) * g[r + 1]) / (c + g[1])


def _raw_moment_dtl(r, c, x_l, x_u):
    # E[(x_l + w T)^r] by the binomial expansion, every term >= 0
    if r > 4:
        raise DomainError(f"dtl raw moments are computed up to order 4, got r={r}")
    w = np.minimum(x_u - x_l, _DTL_ZW_MAX / c)
    e = _dtl_moments(c * w, 1.0 + x_l, w, r)
    return sum(math.comb(r, j) * x_l ** (r - j) * w ** j * e[j] for j in range(r + 1))


def _raw_moment_lognormal(r, m, sigma):
    return m**r * np.exp(0.5 * r * r * sigma * sigma)


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
    """r-th moment about the origin, r >= 1 (at most 4 for ``dtl``)."""
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise DomainError(f"raw_moment requires a positive integer order, got r={r!r}")
    return _finite_moment(
        f"raw moment of order {r}", spec, lambda: _RAW_MOMENT[spec.family](int(r), *spec.params)
    )


# Mean with variance, per family.  Every form here and in _RAW_MOMENT also
# takes parameter arrays, for the batched estimator.

# lnGamma(1 + 2s) - 2 lnGamma(1 + s) = sum_{k>=2} (-1)^k zeta(k) (2^k - 2) s^k / k, highest power first;
# for s <= 0.05 the terms fall by 2s <= 0.1 each, so 18 of them reach the last bit
_LOG_GAMMA_RATIO = tuple((-1) ** k * special.zeta(k) * (2.0**k - 2.0) / k for k in range(19, 1, -1))


def _log_m2_ratio_pld(b, s):
    """ln(m2/mu^2) of pld(b, 1/s), lnGamma(1+2s) - 2 lnGamma(1+s) + log1p(-(u/(1+u))^2) with u = s/(b+1)."""
    small = np.minimum(s, 0.05)   # keep the series inside its own range
    series = 0.0
    for coef in _LOG_GAMMA_RATIO:
        series = series * small + coef
    u = s / (b + 1.0)
    return np.log1p(-(u / (1.0 + u)) ** 2) + np.where(
        s <= 0.05, series * small * small, special.gammaln(1.0 + 2.0 * s) - 2.0 * special.gammaln(1.0 + s)
    )


def _mean_variance_pld(b, c):
    # Var/mu^2 is expm1 of a log ratio that vanishes with 1/c: no mu2' - mu^2 cancellation at large c
    mu = _raw_moment_pld(1, b, c)
    return mu, mu * (mu * np.expm1(_log_m2_ratio_pld(b, 1.0 / c)))


def _mean_variance_nwl(b, c):
    # nwl mixes Gamma(2) and Gamma(3) parts, so var >= E[X^2]/4 and the difference keeps its digits
    mu = _raw_moment_nwl(1, b, c)
    return mu, _raw_moment_nwl(2, b, c) - mu * mu


def _mean_variance_dtl(c, x_l, x_u):
    w = np.minimum(x_u - x_l, _DTL_ZW_MAX / c)
    _, e1, e2 = _dtl_moments(c * w, 1.0 + x_l, w, 2)
    return x_l + w * e1, w * (w * (e2 - e1 * e1))


def _mean_variance_lognormal(m, sigma):
    # the variance mu^2 expm1(s2), formed as mu (mu expm1(s2)) while expm1(s2) is a
    # double and as r (r (1 - e^-s2)) with r = m e^s2 past it: no intermediate
    # leaves the doubles where the variance is one
    s2 = sigma * sigma
    mu = m * np.exp(0.5 * s2)
    r = np.exp(np.log(m) + s2)
    return mu, np.where(s2 < 709.0, mu * (mu * np.expm1(s2)), r * (r * -np.expm1(-s2)))


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
    the power family takes Var/mu^2 by expm1, and the new-weighted family
    uses mu2' - mu^2 from its raw moments.
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
    out = _sample_mixture(_mixture_lindley1, rng, n, b)
    return np.power(out, 1.0 / c, out=out)


def _sample_nwl(rng, n, b, c):
    # scale = 1/r, with r drawn from its part's r-density by inverting the mass over [c, r];
    # 1 / np.square(c) is inf, not a ZeroDivisionError, once c^2 underflows
    m2, m3 = _nwl_masses(b, c)
    pick = rng.random(n) < m2 / (m2 + m3)
    u = rng.random(n)
    out = rng.standard_gamma(np.where(pick, 2.0, 3.0))
    out *= np.where(pick, 1.0 / c - u * m2, np.sqrt(1.0 / np.square(c) - u * m3))
    return out


def _sample_dtl(rng, n, c, x_l, x_u):
    # Past x_l the Lindley density is tpld(1 + x_l, c) in x - x_l; in z = c (x - x_l)
    # that is an Exp(1) / Gamma(2) mixture truncated to [0, zw].  Every position
    # draws an Exp(1) variate truncated to [0, zw] by inversion; a Gamma(2) position
    # adds a second one and keeps the sum where it is <= zw, else redraws the pair:
    # two i.i.d. Exp(1) conditioned on E1 + E2 <= zw sum to Gamma(2) truncated to
    # [0, zw], and a pair is kept with probability P(2, zw) / P(1, zw)^2 >= 1/2.
    zw = min(c * (x_u - x_l), _DTL_ZW_MAX)
    _, k1, k2 = _dtl_mass(c, x_l, x_u)
    pick = rng.random(n) < k1 / (k1 + k2)
    em1 = math.expm1(-zw)
    z = -np.log1p(rng.random(n) * em1)
    todo = np.flatnonzero(~pick)
    while todo.size:
        s = z[todo] - np.log1p(rng.random(todo.size) * em1)
        kept = s <= zw
        z[todo[kept]] = s[kept]
        todo = todo[~kept]
        z[todo] = -np.log1p(rng.random(todo.size) * em1)
    # z / c can round a last bit past the window
    return np.clip(x_l + z / c, x_l, x_u)


def _sample_lognormal(rng, n, m, sigma):
    out = rng.standard_normal(n)
    out *= sigma
    np.exp(out, out=out)
    out *= m
    return out


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
    gamma mixtures, each position drawing one uniform to pick its component
    and then a variate of the picked component only; ``pld`` is a power of
    a ``lindley1`` draw; ``nwl`` is a gamma mixture over its rate; ``dtl``
    mixes an exponential truncated to the window by exact inversion and a
    Gamma(2) truncated to it as the sum of two such exponentials, redrawn
    where the sum leaves the window; ``lognormal`` is ``m * exp(sigma * Z)``.
    ``n`` must be an integer >= 1 and ``seed`` an integer >= 0 (``bool`` is
    rejected for both).  ``tpld`` with b < 0 has a signed density and raises
    :class:`DomainError`, as does a spec whose draws are not all finite
    doubles (a law reaching past the doubles, such as ``pld(1, 1e-3)``).
    """
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    # an overflow shows up as a draw that is not finite, which raises below
    with np.errstate(all="ignore"):
        draws = _SAMPLERS[spec.family](np.random.default_rng(seed), int(n), *spec.params)
    if not draws.max() < math.inf:   # also False on a NaN
        raise DomainError(f"{spec} has draws that are not finite doubles")
    return draws
