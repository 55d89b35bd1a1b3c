"""The distribution families behind one generic handle.

Eight families are supported: the one-parameter exponential-plus-gamma
mixture (``lindley1``), its two-parameter (``tpld``), power (``pld``),
generalized (``gld``), new generalized (``ngld``) and new weighted (``nwl``)
variants, the double truncated one-parameter form (``dtl``), and a lognormal
baseline.

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
# densities
# --------------------------------------------------------------------------

def _gamma_pdf_arr(x: np.ndarray, shape: float, rate: float) -> np.ndarray:
    """Gamma(shape, rate) density with the correct x = 0 limits."""
    out = np.zeros_like(x)
    pos = x > 0.0
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


def _pdf_lindley1(x, c):
    out = np.zeros_like(x)
    m = x >= 0.0
    xm = x[m]
    out[m] = c * c * (xm + 1.0) * np.exp(-c * xm) / (1.0 + c)
    return out


def _pdf_tpld(x, b, c):
    # For b < 0 (allowed while b*c > -1) the density is signed near 0;
    # the published fits use such vectors, so no clamping is applied.
    out = np.zeros_like(x)
    m = x >= 0.0
    xm = x[m]
    out[m] = c * c * (b + xm) * np.exp(-c * xm) / (b * c + 1.0)
    return out


def _pdf_pld(x, b, c):
    out = np.zeros_like(x)
    pos = x > 0.0
    if np.any(pos):
        xp = x[pos]
        with np.errstate(over="ignore"):
            t = xp**c
        v = np.zeros_like(xp)
        live = t < 1e300
        tf = t[live]
        v[live] = np.exp(
            math.log(c)
            + 2.0 * math.log(b)
            + np.log1p(tf)
            + (c - 1.0) * np.log(xp[live])
            - b * tf
            - math.log1p(b)
        )
        out[pos] = v
    zero = x == 0.0
    if np.any(zero):
        if c < 1.0:
            out[zero] = np.inf
        elif c == 1.0:
            out[zero] = b * b / (b + 1.0)
    return out


def _pdf_gld(x, a, b, c):
    return (c * _gamma_pdf_arr(x, a + 1.0, b) + b * _gamma_pdf_arr(x, a, b)) / (c + b)


def _pdf_ngld(x, a, b, c):
    return (c * _gamma_pdf_arr(x, a, c) + _gamma_pdf_arr(x, b, c)) / (1.0 + c)


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
    den = (1.0 + c + c * x_l) - math.exp(-c * (x_u - x_l)) * (1.0 + c + c * x_u)
    out[m] = c * c * (xm + 1.0) * np.exp(-c * (xm - x_l)) / den
    return out


def _pdf_lognormal(x, m, sigma):
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    z = np.log(xp / m) / sigma
    out[pos] = np.exp(-0.5 * z * z) / (xp * sigma * math.sqrt(2.0 * math.pi))
    return out


_PDF = {
    Family.LINDLEY1: _pdf_lindley1,
    Family.TPLD: _pdf_tpld,
    Family.PLD: _pdf_pld,
    Family.GLD: _pdf_gld,
    Family.NGLD: _pdf_ngld,
    Family.NWL: _pdf_nwl,
    Family.DTL: _pdf_dtl,
    Family.LOGNORMAL: _pdf_lognormal,
}


# --------------------------------------------------------------------------
# CDFs (incomplete-gamma compositions) and survival functions
# --------------------------------------------------------------------------

def _cdf_lindley1(x, c):
    out = np.zeros_like(x)
    m = x > 0.0
    z = c * x[m]
    out[m] = (specfun.reg_gamma_p_arr(2.0, z) + c * specfun.reg_gamma_p_arr(1.0, z)) / (1.0 + c)
    return np.clip(out, 0.0, 1.0)


def _cdf_tpld(x, b, c):
    out = np.zeros_like(x)
    m = x > 0.0
    z = c * x[m]
    out[m] = (b * c * specfun.reg_gamma_p_arr(1.0, z) + specfun.reg_gamma_p_arr(2.0, z)) / (b * c + 1.0)
    if b >= 0.0:
        out = np.clip(out, 0.0, 1.0)
    return out


def _cdf_pld(x, b, c):
    out = np.zeros_like(x)
    m = x > 0.0
    with np.errstate(over="ignore"):
        z = b * x[m] ** c
    out[m] = (specfun.reg_gamma_p_arr(2.0, z) + b * specfun.reg_gamma_p_arr(1.0, z)) / (1.0 + b)
    return np.clip(out, 0.0, 1.0)


def _cdf_gld(x, a, b, c):
    out = np.zeros_like(x)
    m = x > 0.0
    z = b * x[m]
    out[m] = (c * specfun.reg_gamma_p_arr(a + 1.0, z) + b * specfun.reg_gamma_p_arr(a, z)) / (c + b)
    return np.clip(out, 0.0, 1.0)


def _cdf_ngld(x, a, b, c):
    out = np.zeros_like(x)
    m = x > 0.0
    z = c * x[m]
    out[m] = (c * specfun.reg_gamma_p_arr(a, z) + specfun.reg_gamma_p_arr(b, z)) / (1.0 + c)
    return np.clip(out, 0.0, 1.0)


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
    # (S1(x_l) - S1(x)) / (S1(x_l) - S1(x_u)) with everything rescaled by
    # exp(c*x_l) so large c*x never overflows.
    out = np.zeros_like(x)
    den = (1.0 + c + c * x_l) - math.exp(-c * (x_u - x_l)) * (1.0 + c + c * x_u)
    m = (x > x_l) & (x < x_u)
    xm = x[m]
    out[m] = ((1.0 + c + c * x_l) - np.exp(-c * (xm - x_l)) * (1.0 + c + c * xm)) / den
    out[x >= x_u] = 1.0
    return np.clip(out, 0.0, 1.0)


def _cdf_lognormal(x, m, sigma):
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = 0.5 + 0.5 * specfun.erf_arr((np.log(xp) - math.log(m)) / (sigma * _SQRT2))
    return np.clip(out, 0.0, 1.0)


_CDF = {
    Family.LINDLEY1: _cdf_lindley1,
    Family.TPLD: _cdf_tpld,
    Family.PLD: _cdf_pld,
    Family.GLD: _cdf_gld,
    Family.NGLD: _cdf_ngld,
    Family.NWL: _cdf_nwl,
    Family.DTL: _cdf_dtl,
    Family.LOGNORMAL: _cdf_lognormal,
}


def _sf_lindley1(x, c):
    out = np.ones_like(x)
    m = x > 0.0
    xm = x[m]
    out[m] = np.exp(-c * xm) * (1.0 + c + c * xm) / (1.0 + c)
    return out


def _sf_tpld(x, b, c):
    out = np.ones_like(x)
    m = x > 0.0
    xm = x[m]
    out[m] = (b * c + c * xm + 1.0) * np.exp(-c * xm) / (b * c + 1.0)
    return out


def _sf_pld(x, b, c):
    out = np.ones_like(x)
    m = x > 0.0
    with np.errstate(over="ignore"):
        t = x[m] ** c
    v = np.zeros_like(t)
    live = np.isfinite(t)
    tf = t[live]
    v[live] = (b * tf + b + 1.0) * np.exp(-b * tf) / (b + 1.0)
    out[m] = v
    return out


def _sf_gld(x, a, b, c):
    out = np.ones_like(x)
    m = x > 0.0
    z = b * x[m]
    out[m] = (c * specfun.reg_gamma_q_arr(a + 1.0, z) + b * specfun.reg_gamma_q_arr(a, z)) / (c + b)
    return out


def _sf_ngld(x, a, b, c):
    out = np.ones_like(x)
    m = x > 0.0
    z = c * x[m]
    out[m] = (c * specfun.reg_gamma_q_arr(a, z) + specfun.reg_gamma_q_arr(b, z)) / (1.0 + c)
    return out


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
    den = (1.0 + c + c * x_l) - math.exp(-c * (x_u - x_l)) * (1.0 + c + c * x_u)
    m = (x > x_l) & (x < x_u)
    xm = x[m]
    out[m] = (
        np.exp(-c * (xm - x_l)) * (1.0 + c + c * xm)
        - math.exp(-c * (x_u - x_l)) * (1.0 + c + c * x_u)
    ) / den
    out[x >= x_u] = 0.0
    return out


def _sf_lognormal(x, m, sigma):
    out = np.ones_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = 0.5 * specfun.erfc_arr((np.log(xp) - math.log(m)) / (sigma * _SQRT2))
    return out


_SF = {
    Family.LINDLEY1: _sf_lindley1,
    Family.TPLD: _sf_tpld,
    Family.PLD: _sf_pld,
    Family.GLD: _sf_gld,
    Family.NGLD: _sf_ngld,
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

def _gamma_ratio(top: float, bottom: float) -> float:
    """Gamma(top) / Gamma(bottom) through lgamma, safe for large arguments."""
    return math.exp(math.lgamma(top) - math.lgamma(bottom))


def _exp_partial_sum(n: int, z: float) -> float:
    """sum_{k<n} z^k / k!; exp(-z) times this is the integer-shape gamma tail."""
    term = 1.0
    total = 1.0
    for k in range(1, n):
        term *= z / k
        total += term
    return total


def _dtl_phi_diff(c: float, x_l: float, x_u: float, r: int) -> float:
    """Difference of partial moment primitives for the truncated family.

    Proportional to
      Gamma(r+2) c^(-r) [P(r+2, c x_u) - P(r+2, c x_l)]
        + Gamma(r+1) c^(1-r) [P(r+1, c x_u) - P(r+1, c x_l)].

    Moment ratios only ever divide two of these, so a common positive factor
    is irrelevant; each regime gets the subtraction that stays relatively
    sharp there.  For windows in the body or left tail (small c x) the
    regularized P keeps full relative precision; deep right-tail
    windows (large c x, where both P's round to 1) instead use the exact
    integer-shape tail polynomials with exp(-c x_l) cancelled analytically,
    which never underflows.
    """
    zl, zu = c * x_l, c * x_u
    if zl > 0 and specfun.regularized_gamma_p(2.0, zl) > 0.5:
        decay = math.exp(-(zu - zl))
        d1 = _exp_partial_sum(r + 1, zl) - decay * _exp_partial_sum(r + 1, zu)
        d2 = _exp_partial_sum(r + 2, zl) - decay * _exp_partial_sum(r + 2, zu)
    else:
        pl1 = specfun.regularized_gamma_p(r + 1.0, zl) if zl > 0 else 0.0
        pl2 = specfun.regularized_gamma_p(r + 2.0, zl) if zl > 0 else 0.0
        d1 = specfun.regularized_gamma_p(r + 1.0, zu) - pl1
        d2 = specfun.regularized_gamma_p(r + 2.0, zu) - pl2
    return math.gamma(r + 2.0) * c ** (-float(r)) * d2 + math.gamma(r + 1.0) * c ** (1.0 - r) * d1


def _raw_moment_lindley1(r, c):
    return (c ** (-float(r)) * math.gamma(r + 2.0) + c ** (1.0 - r) * math.gamma(r + 1.0)) / (1.0 + c)


def _raw_moment_tpld(r, b, c):
    return (c ** (1.0 - r) * b * math.gamma(r + 1.0) + c ** (-float(r)) * math.gamma(r + 2.0)) / (b * c + 1.0)


def _raw_moment_pld(r, b, c):
    s = r / c
    return (b ** (1.0 - s) * math.gamma(s + 1.0) + b ** (-s) * math.gamma(s + 2.0)) / (b + 1.0)


def _raw_moment_gld(r, a, b, c):
    return _gamma_ratio(r + a, a + 1.0) * (c * a + c * r + a * b) / (b**r * (c + b))


def _raw_moment_ngld(r, a, b, c):
    return (c ** (1.0 - r) * _gamma_ratio(r + a, a) + c ** (-float(r)) * _gamma_ratio(r + b, b)) / (1.0 + c)


def _raw_moment_nwl(r, b, c):
    return (
        math.gamma(r + 1.0)
        * c ** (-float(r))
        * ((1.0 + b) ** 2 * (c + r + 1.0) - (1.0 + b) ** (-float(r)) * (c * (1.0 + b) + r + 1.0))
        / (b * (b * c + b + c + 2.0))
    )


def _raw_moment_dtl(r, c, x_l, x_u):
    return _dtl_phi_diff(c, x_l, x_u, r) / _dtl_phi_diff(c, x_l, x_u, 0)


def _raw_moment_lognormal(r, m, sigma):
    return m**r * math.exp(0.5 * r * r * sigma * sigma)


_RAW_MOMENT = {
    Family.LINDLEY1: _raw_moment_lindley1,
    Family.TPLD: _raw_moment_tpld,
    Family.PLD: _raw_moment_pld,
    Family.GLD: _raw_moment_gld,
    Family.NGLD: _raw_moment_ngld,
    Family.NWL: _raw_moment_nwl,
    Family.DTL: _raw_moment_dtl,
    Family.LOGNORMAL: _raw_moment_lognormal,
}


def raw_moment(spec: DistributionSpec, r: int) -> float:
    """r-th moment about the origin, r >= 1."""
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise DomainError(f"raw_moment requires a positive integer order, got r={r!r}")
    return _RAW_MOMENT[spec.family](int(r), *spec.params)


def mean(spec: DistributionSpec) -> float:
    """Closed-form mean."""
    fam, p = spec.family, spec.params
    if fam is Family.LINDLEY1:
        (c,) = p
        return (2.0 + c) / (c * (1.0 + c))
    if fam is Family.TPLD:
        b, c = p
        return (b * c + 2.0) / (c * (b * c + 1.0))
    if fam is Family.GLD:
        a, b, c = p
        return (a * b + a * c + c) / (b * (c + b))
    if fam is Family.NGLD:
        a, b, c = p
        return (a * c + b) / (c * (1.0 + c))
    if fam is Family.NWL:
        b, c = p
        return (b * b * c + 2.0 * b * b + 3.0 * c * b + 6.0 * b + 2.0 * c + 6.0) / (
            (c * b + b + c + 2.0) * c * (1.0 + b)
        )
    if fam is Family.DTL:
        c, x_l, x_u = p
        return _raw_moment_dtl(1, c, x_l, x_u)
    if fam is Family.LOGNORMAL:
        m, sigma = p
        return m * math.exp(0.5 * sigma * sigma)
    # PLD: first raw moment
    b, c = p
    return _raw_moment_pld(1, b, c)


def variance(spec: DistributionSpec) -> float:
    """Closed-form variance.

    The power and new-weighted families use mu2' - mu^2 from the raw moments;
    their sprawling one-expression variants live in the test suite only.
    """
    fam, p = spec.family, spec.params
    if fam is Family.LINDLEY1:
        (c,) = p
        return (c * c + 4.0 * c + 2.0) / (c * c * (1.0 + c) ** 2)
    if fam is Family.TPLD:
        b, c = p
        return (b * b * c * c + 4.0 * b * c + 2.0) / (c * c * (b * c + 1.0) ** 2)
    if fam is Family.GLD:
        a, b, c = p
        return (a * b * b + 2.0 * c * b * a + c * c * a + 2.0 * c * b + c * c) / (
            b * b * (c + b) ** 2
        )
    if fam is Family.NGLD:
        a, b, c = p
        return (
            a * a * c - 2.0 * a * b * c + a * c * c + b * b * c + a * c + b * c + b
        ) / (c * c * (1.0 + c) ** 2)
    if fam is Family.LOGNORMAL:
        m, sigma = p
        e = math.exp(sigma * sigma)
        return e * (e - 1.0) * m * m
    mu = mean(spec)
    return raw_moment(spec, 2) - mu * mu


def central_moments_34(spec: DistributionSpec) -> tuple[float, float]:
    """Third and fourth central moments; one-parameter family only."""
    if spec.family is not Family.LINDLEY1:
        raise FamilyError(
            f"central_moments_34 is defined for the one-parameter family, got {spec.family.value}"
        )
    (c,) = spec.params
    mu3 = (2.0 * c**3 + 12.0 * c**2 + 12.0 * c + 4.0) / (c**3 * (1.0 + c) ** 3)
    mu4 = (9.0 * c**4 + 72.0 * c**3 + 132.0 * c**2 + 96.0 * c + 24.0) / (c**4 * (1.0 + c) ** 4)
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

def _gamma_mixture(rng, n, w, shape1, shape2, scale):
    """Gamma(shape1, scale) with probability w, else Gamma(shape2, scale)."""
    pick = rng.uniform(size=n)
    first = rng.gamma(shape1, scale, size=n)
    second = rng.gamma(shape2, scale, size=n)
    return np.where(pick < w, first, second)


def _sample_lindley1(rng, n, c):
    return _gamma_mixture(rng, n, c / (1.0 + c), 1.0, 2.0, 1.0 / c)


def _sample_tpld(rng, n, b, c):
    if b < 0.0:
        raise DomainError(f"tpld with b < 0 has a signed density and cannot be sampled, got b={b}")
    return _gamma_mixture(rng, n, b * c / (b * c + 1.0), 1.0, 2.0, 1.0 / c)


def _sample_pld(rng, n, b, c):
    return _sample_lindley1(rng, n, b) ** (1.0 / c)


def _sample_gld(rng, n, a, b, c):
    return _gamma_mixture(rng, n, c / (c + b), a + 1.0, a, 1.0 / b)


def _sample_ngld(rng, n, a, b, c):
    return _gamma_mixture(rng, n, c / (1.0 + c), a, b, 1.0 / c)


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
    p2 = float(special.gammainc(2.0, zw))
    w_exp = (1.0 + x_l) * c * -math.expm1(-zw)
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
    Family.LINDLEY1: _sample_lindley1,
    Family.TPLD: _sample_tpld,
    Family.PLD: _sample_pld,
    Family.GLD: _sample_gld,
    Family.NGLD: _sample_ngld,
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
