"""Method-of-moments parameter recovery for every family.

Each family's ``_<family>_candidates`` supplies parameter vectors, each
marked as a root or as a probe, and :func:`estimate` alone judges them and
builds the report.  ``lindley1``, ``tpld`` and the lognormal have closed
forms (``lindley1``'s is ``nwl``'s mean match at v = 0), and ``dtl``'s mean,
which falls strictly in z = c (x_u - x_l), is matched by bisecting ln z with
:func:`_bisect`: each gives one root.  The ``pld``, ``nwl``, ``gld`` and
``ngld`` systems each reduce exactly to one unknown, with the other
parameters in closed form, and three of the four reductions are polynomials
(degree 3, 6 and 7 for ``gld``, ``nwl`` and ``ngld``).  Their unknown's
domain is cut at the polynomial's extrema, so that each piece holds at most
one root, and every piece whose ends differ in sign is bisected
(:func:`_cut_roots`); ``pld`` needs no cut, and its defect is the pld
variance's log ratio from :mod:`.distributions`.

One rule judges every candidate: it must pass the family's validator, and
its defect on each moment it matches must be within MOMENT_TOL of the
target (xbar, s2 + xbar^2, xbar3).  ``lindley1`` and ``dtl`` match the mean;
every other family as many of (mean, variance, third raw moment) as it has
parameters.  A fit fails in one of two ways.  InfeasibleMomentsError is a
certificate from a closed form or a bracket that no parameter vector of the
family has these moments; EstimationError means that no candidate passes
the judge.

The three-parameter moment systems are genuinely multi-rooted: distinct
positive parameter vectors can share their first three moments (at most two
for ``gld``, and five for ``ngld``, whose system eliminates exactly to a
quintic in c).  Every root the judge accepts is collected, and the one
reported has the smallest last parameter ``c`` (then is lexicographically
smallest), which matches the published fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial, polynomial
from scipy import special

from . import distributions as dist
from .catalog import MomentTargets
from .distributions import DistributionSpec, Family
from .errors import (
    EstimationError,
    InfeasibleMomentsError,
    ParameterError,
)

MOMENT_TOL = 1e-10          # max defect on the moment equations, relative to each raw target


def targets_from_spec(spec: DistributionSpec) -> MomentTargets:
    """Population moments of a known distribution, for round-trip checks."""
    sup = dist.support(spec)
    return MomentTargets(
        xbar=dist.mean(spec),
        s2=dist.variance(spec),
        xbar3=dist.raw_moment(spec, 3),
        x_min=sup.lower,
        x_max=sup.upper,
    )


@dataclass(frozen=True, eq=False)
class SolveReport:
    spec: DistributionSpec
    residuals: np.ndarray
    iterations: int


def _one_root(*params):
    """The candidates of a system solved in closed form: one parameter vector, marked as a root."""
    return np.array([params]), np.ones(1, dtype=bool)


def _mean_match_c(m1, v):
    """c from the mean match m1 c^2 + (m1 - 1) G_1 c - 2 G_2 = 0: nwl's at v = 1/(1+b), lindley1's at v = 0.

    c is the positive root, with G_1 = 1 + v and G_2 = 1 + v + v^2.  Each side
    of m1 = 1 uses the form of the root without cancellation, and the
    discriminant is formed from sqrt(m1) so that it never overflows.
    """
    k = (m1 - 1.0) * (1.0 + v)
    root = np.hypot(k, np.sqrt(m1) * np.sqrt(8.0 * (1.0 + v + v * v)))
    return (root - k) / (2.0 * m1) if m1 < 1.0 else 4.0 * (1.0 + v + v * v) / (k + root)


def _lindley1_candidates(t: MomentTargets):
    """Closed-form c from the mean match, nwl's at v = 0: the positive root of x c^2 + (x - 1) c - 2 = 0."""
    return _one_root(_mean_match_c(t.xbar, 0.0))


def _tpld_candidates(t: MomentTargets):
    """Closed-form two-parameter estimates from the mean/variance match.

    tpld is a scale family: the match is solved in units of 2^e ~ xbar, where no
    product of moments under- or overflows, and (b, c) is rescaled exactly.
    """
    e = math.frexp(t.xbar)[1]
    # s2 >= xbar^2 is infeasible, and ldexp could overflow on it
    xbar, s2 = math.ldexp(t.xbar, -e), math.ldexp(t.s2, -2 * e) if t.s2 / t.xbar < t.xbar else math.inf
    radicand = 2.0 * xbar * xbar - 2.0 * s2
    if radicand <= 0:
        raise InfeasibleMomentsError(
            f"two-parameter estimator needs xbar^2 > s2, got xbar={t.xbar}, s2={t.s2}"
        )
    root = math.sqrt(radicand)
    c_hat = (2.0 * xbar + root) / (s2 + xbar * xbar)
    b_hat = (
        -(s2 + xbar * xbar)
        * (xbar * root - 2.0 * s2)
        / ((xbar * root + xbar * xbar - s2) * (2.0 * xbar + root))
    )
    return _one_root(math.ldexp(b_hat, e), math.ldexp(c_hat, -e))


def _lognormal_candidates(t: MomentTargets):
    """Closed-form median/shape estimates from the mean/variance match."""
    sigma2 = math.log1p(t.s2 / t.xbar / t.xbar)   # xbar^2 can underflow where the ratio does not
    sigma = math.sqrt(sigma2)
    m = t.xbar * math.exp(-0.5 * sigma2)
    return _one_root(m, sigma)


# --------------------------------------------------------------------------
# one bracketed 1-D solve per moment system
# --------------------------------------------------------------------------

def _moment_map(family: Family):
    """The family's (mean, variance[, third raw moment]) at parameter vectors stacked as (..., k)."""
    mean_variance, raw_moment = dist._MEAN_VARIANCE[family], dist._RAW_MOMENT[family]
    k = len(dist.PARAM_NAMES[family])

    def moments(params: np.ndarray) -> np.ndarray:
        cols = [params[..., j] for j in range(k)]
        out = np.empty(params.shape[:-1] + (max(k, 2),))
        out[..., 0], out[..., 1] = mean_variance(*cols)
        if k == 3:
            out[..., 2] = raw_moment(3, *cols)
        return out

    return moments


# [1e-11, 1 - 1e-11]: the ends of the unit domains in v and in y/min(1, k); 1 - x is exact near the upper one
_UNIT_ENDS = (1e-11, 1.0 - 1e-11)
_X = Polynomial([Fraction(0), Fraction(1)])   # the monomial, with exact coefficients


def _bisect(inside, lo, hi):
    """Halve every bracket [lo, hi] (in either order), keeping ``inside(lo)`` and not ``inside(hi)``.

    ``inside`` maps an array of points, one per bracket, to booleans.  A
    bracket stops once it is one ulp wide, which any bracket of doubles is
    after at most 2100 halvings.  Returns the final ``(lo, hi)``.
    """
    for _ in range(2100):
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            break
        step = live & inside(mid)
        lo, hi = np.where(step, mid, lo), np.where(live & ~step, mid, hi)
    return lo, hi


def _real_roots(coef):
    """Sorted real roots of the polynomial with exact ascending coefficients ``coef``.

    The coefficients are scaled by one power of two, which puts the largest
    near 1, before they are rounded to doubles, so no product of moments
    over- or underflows; leading ones that fall below the normal doubles are
    dropped.  The roots are the companion matrix's real eigenvalues.
    """
    e = max(c.numerator.bit_length() - c.denominator.bit_length() for c in coef if c)
    c = np.array([float(v * Fraction(2) ** -e) for v in coef])
    c = c[: np.nonzero(np.abs(c) >= np.finfo(float).tiny)[0][-1] + 1]
    z = polynomial.polyroots(c)
    return np.sort(z.real[z.imag == 0])


def _cut_roots(g, lo, hi, cuts=()):
    """Roots of a 1-D defect ``g`` on [lo, hi], whose ``cuts`` leave at most one root in each piece.

    The cuts include every extremum of the polynomial the defect reduces to;
    those outside (lo, hi) are dropped.  A piece whose ends differ in sign
    (NaN counts as negative) is bisected to one ulp; a cut with no sign
    change on either side is a tangent root.  Returns every bisected root,
    then every point, and a boolean array that marks the roots: the ends and
    the other cuts are probes, which only report their defect.
    """
    cuts = np.sort(np.asarray(cuts, dtype=float))
    x = np.concatenate([[lo], cuts[(cuts > lo) & (cuts < hi)], [hi]])
    pos = g(x) > 0
    change = pos[:-1] != pos[1:]
    lo_pos = pos[:-1][change]
    roots = 0.5 * sum(_bisect(lambda m: (g(m) > 0) == lo_pos, x[:-1][change], x[1:][change]))
    tangent = np.zeros(x.size, dtype=bool)
    tangent[1:-1] = ~change[:-1] & ~change[1:]
    return np.concatenate([roots, x]), np.concatenate([np.ones(roots.size, dtype=bool), tangent])


def _gld_candidates(t: MomentTargets):
    """Generalized-family roots from a scale-free 1-D reduction in y = w/(a + w).

    With w = c/(c+b), the raw moments satisfy  b*m1 = a + w,
    b^2*m2 = (a+1)(a+2w)  and  b^3*m3 = (a+1)(a+2)(a+3w).  With k = s2/m1^2
    the mean and variance give, on 0 < y < min(1, k),

        a = (1 - y^2)/(k + y^2),  b = (1 + y)/((k + y^2) m1),  c = b y(1 + y)/(k - y),

    and the third moment leaves one defect,
    m3/(m1 m2) = (1 + 2k + y^2)(1 + 2y)/(1 + y)^2.  Its right side falls to a
    minimum at y* = 4k/(3 + sqrt(9 + 8k)) and rises past it, so there are at
    most two roots, and at most one when k >= 2 (then y* >= 1); y* is the one
    cut.  The solve runs on y = min(1, k) x, where 1 - y and k - y are formed
    from 1 - x without cancellation.
    """
    # ratios of frexp mantissas and exponents: no moment product under- or overflows
    (f1, e1), (fs, es), (f3, e3) = (math.frexp(m) for m in (t.xbar, t.s2, t.xbar3))
    k = float(np.ldexp(fs / (f1 * f1), es - 2 * e1))
    r3 = float(np.ldexp(f3 / (f1 * f1 * f1 * (1.0 + k)), e3 - 3 * e1))
    if not (0.0 < k < math.inf and r3 < math.inf):
        return np.empty((0, 3)), np.empty(0, dtype=bool)
    top = min(1.0, k)

    def g(x):
        y = top * x
        return (1.0 + 2.0 * k + y * y) * (1.0 + 2.0 * y) / ((1.0 + y) * (1.0 + y)) - r3

    x, root = _cut_roots(g, *_UNIT_ENDS, [4.0 * k / (3.0 + math.sqrt(9.0 + 8.0 * k)) / top])
    y, u = top * x, 1.0 - x
    den = k + y * y
    b = (1.0 + y) / (den * t.xbar)
    a = ((1.0 - top) + top * u) * (1.0 + y) / den
    return np.column_stack([a, b, b * y * (1.0 + y) / ((k - top) + top * u)]), root


def _ngld_candidates(t: MomentTargets):
    """New-generalized-family roots from a 1-D reduction in x = d/m1, d = a - c m1.

    The mean gives b = c (m1 - d) and the variance c = (m1 + d^2)/s2, so every
    d < m1 fixes the whole vector.  In c these are two branches that meet at
    the fold c = m1/s2 (d = 0); in d they are one.  The third moment,
    c a(a+1)(a+2) + b(b+1)(b+2) = (1+c) c^3 m3, is the 1-D defect, written in
    u = 1/c, a/c and b/c so that no product of moments overflows.  With
    q = 1 + m1 x^2, sigma = s2/m1, A = m1 q + s2 x = a q/c and B = m1 (1 - x),
    the defect is P(x)/(m3 q^2 (q + sigma)), where

        P = A(A + sigma)(A + 2 sigma) + sigma B(Bq + sigma)(Bq + 2 sigma) - m3 q^2 (q + sigma)

    has degree 7, so there are at most seven roots.  The cuts are the real
    roots of P' and of A (where a = 0), the lower end is Fujiwara's bound on
    the roots of P, and the upper end is 1 - 1e-11 (b/c = 1e-11 m1).
    """
    m1, s2, m3 = t.xbar, t.s2, t.xbar3

    def ratios(x):
        u = s2 / (m1 * (1.0 + m1 * x * x))
        return u, m1 * (1.0 + x * u), m1 * (1.0 - x)   # 1/c, a/c, b/c

    def g(x):
        # not masked where a <= 0: its sign is P's everywhere
        u, alpha, beta = ratios(x)
        third = alpha * (alpha + u) * (alpha + 2.0 * u) + u * beta * (beta + u) * (beta + 2.0 * u)
        return third / ((1.0 + u) * m3) - 1.0

    f1, fs, f3 = Fraction(m1), Fraction(s2), Fraction(m3)
    sigma, q = fs / f1, 1 + f1 * _X**2
    a, b = f1 * q + fs * _X, f1 * (1 - _X)
    p = a * (a + sigma) * (a + 2 * sigma) + sigma * b * (b * q + sigma) * (b * q + 2 * sigma) - f3 * q**2 * (q + sigma)
    lg = [math.log2(abs(c.numerator)) - math.log2(c.denominator) if c else -math.inf for c in p.coef]
    bound = 2.0 ** min(1.0 + max((lg[i] - lg[-1]) / (len(lg) - 1 - i) for i in range(len(lg) - 1)), 1000.0)
    cuts = np.concatenate([_real_roots(polynomial.polyder(p.coef)), _real_roots(a.coef)])
    x, root = _cut_roots(g, -bound, _UNIT_ENDS[1], cuts)
    u, alpha, beta = ratios(x)
    return np.column_stack([alpha / u, beta / u, 1.0 / u]), root


def _nwl_candidates(t: MomentTargets):
    """New-weighted roots from a 1-D reduction in v = 1/(1+b).

    With G_j = 1 + v + ... + v^j the raw moments are
    m_r = r! (c G_r + (r+1) G_{r+1}) / (c^r (c + G_1)).  The mean's quadratic
    fixes c (:func:`_mean_match_c`), and m2(c, v)/m2 - 1 is the 1-D defect.
    Reducing the m2 cubic in c by that quadratic gives c = beta/alpha with
    alpha = 2 m1 (m2 - m1) G_2 - m2 (m1 - 1) G_1^2 and
    beta = 6 m1^2 G_3 - 2 m2 G_1 G_2, so every root is one of the sextic
    m1 beta^2 + (m1 - 1) G_1 alpha beta - 2 G_2 alpha^2, whose extrema are the cuts.
    """
    m1 = t.xbar
    m2 = t.s2 + m1 * m1

    def g(v):
        return dist._raw_moment_nwl(2, (1.0 - v) / v, _mean_match_c(m1, v)) / m2 - 1.0

    f1 = Fraction(m1)
    f2 = Fraction(t.s2) + f1 * f1
    g1, g2 = 1 + _X, 1 + _X + _X**2
    alpha = 2 * f1 * (f2 - f1) * g2 - f2 * (f1 - 1) * g1**2
    beta = 6 * f1 * f1 * (g2 + _X**3) - 2 * f2 * g1 * g2
    sextic = f1 * beta**2 + (f1 - 1) * g1 * alpha * beta - 2 * g2 * alpha**2
    v, root = _cut_roots(g, *_UNIT_ENDS, _real_roots(polynomial.polyder(sextic.coef)))
    return np.column_stack([(1.0 - v) / v, _mean_match_c(m1, v)]), root


def _pld_candidates(t: MomentTargets):
    """The power-family root from one bisection in ln s, s = 1/c.

    The raw moments are m_r = b^(-rs) Gamma(1 + rs) (b + 1 + rs)/(b + 1).  At
    each s the mean fixes L = ln b: -s L + log1p(s/(b+1)) = ln m1 - lnGamma(1+s)
    falls strictly in L, by between s and 1.25 s per unit, and its root lies
    within log1p(s)/s <= 1 above L0 = (lnGamma(1+s) - ln m1)/s, so four Newton
    steps from L0 reach it.  The 1-D defect is ln(m2/m1^2) - log1p(s2/xbar^2),
    with the distribution's own log ratio, which vanishes with s without
    cancellation.  On 1e-11 <= s <= 100 it is NaN (b past the doubles), then
    negative, then positive, so one bisection finds the one root.
    """
    log_m1 = math.log(t.xbar)
    log_ratio = math.log1p(t.s2 / t.xbar / t.xbar)

    def log_b(s):
        lg = special.gammaln(1.0 + s)
        L = (lg - log_m1) / s
        for _ in range(4):
            b = np.exp(L)
            slope = s + s * b / ((b + 1.0) * (b + 1.0 + s))
            L = L + (lg - log_m1 - s * L + np.log1p(s / (b + 1.0))) / slope
        return L

    def g(log_s):
        s = np.exp(log_s)
        b = np.exp(log_b(s))
        return np.where((b > 0) & (b < math.inf), dist._log_m2_ratio_pld(b, s) - log_ratio, np.nan)

    log_s, root = _cut_roots(g, math.log(1e-11), math.log(1e2))
    s = np.exp(log_s)
    return np.column_stack([np.exp(log_b(s)), 1.0 / s]), root


def _dtl_candidates(t: MomentTargets):
    """Truncation bounds from the order statistics, then c from the mean match by bisection.

    With w = x_u - x_l and z = c w, T = (X - x_l)/w has density proportional to
    (1 + x_l + w t) e^{-z t} on [0, 1], so the match is E[T](z) = tau with
    tau = (xbar - x_l)/w, free of the mass unit.  The density is an exponential
    family in z, so E[T] falls strictly, from its flat z = 0 value (mean mu0 =
    x_l + w E[T](0)) to E[T] at the window cut _DTL_ZW_MAX, past which the dtl
    forms treat the window as unbounded.  The attainable means are
    (x_l + w E[T](cut), mu0), whose lower end is about x_l + w 1e-50: no sample
    of n points reaches below it, since tau >= 1/n.  ln z is bisected to one ulp
    from z = 1e-300 (where E[T] is its z = 0 value to the last bit) up to the
    cut, and c = z/w.
    """
    if not (0 <= t.x_min < t.x_max < math.inf):
        raise InfeasibleMomentsError(f"need 0 <= x_min < x_max < inf, got x_min={t.x_min}, x_max={t.x_max}")
    x_l, x_u, xbar = t.x_min, t.x_max, t.xbar
    a, w = 1.0 + x_l, x_u - x_l
    tau = (xbar - x_l) / w

    def mean_t(z):
        return dist._dtl_moments(z, a, w, 1)[1]

    cut, flat = mean_t(np.array([dist._DTL_ZW_MAX, 0.0]))
    if not (cut < tau < flat):
        mu0 = float(x_l + w * flat)
        raise InfeasibleMomentsError(
            f"mean {xbar} is outside the attainable truncated-mean range ({x_l:.6g}, {mu0:.6g})",
            best_residual=max(xbar - mu0, float(x_l + w * cut) - xbar),
        )
    lo, hi = _bisect(lambda u: mean_t(np.exp(u)) > tau, np.log(1e-300), np.log(dist._DTL_ZW_MAX))
    return _one_root(float(np.exp(0.5 * (lo + hi))) / w, x_l, x_u)


_CANDIDATES = {
    Family.LINDLEY1: _lindley1_candidates,
    Family.TPLD: _tpld_candidates,
    Family.PLD: _pld_candidates,
    Family.NWL: _nwl_candidates,
    Family.GLD: _gld_candidates,
    Family.NGLD: _ngld_candidates,
    Family.DTL: _dtl_candidates,
    Family.LOGNORMAL: _lognormal_candidates,
}

# how many moments a family matches, where that is not its parameter count:
# dtl's truncation bounds are the sample's order statistics
_MATCHED = {Family.DTL: 1}


def _select_root(roots):
    """The smallest c, then the lexicographically smallest vector: the published fits' convention."""
    return min(roots, key=lambda r: (r[0][-1],) + tuple(r[0][:-1]))


def _refusal(family: Family, p) -> str:
    """The family validator's reason for refusing parameter vector p, or "" if it accepts p."""
    try:
        DistributionSpec(family, tuple(p))
    except ParameterError as exc:
        return str(exc)
    return ""


def _moment_roots(family: Family, t: MomentTargets):
    """Roots of the family's moment system within MOMENT_TOL, and the smallest relative defect of any candidate.

    Every root and probe the family supplies that is a valid parameter vector
    is evaluated with the family's own moment forms.  Its defects on the
    moments it matches, of (mean, variance, third raw moment), are taken
    relative to (xbar, s2 + xbar^2, xbar3): the systems match raw moments, so
    the variance is judged on the scale of the second raw moment.  Each root
    comes as (params, raw defects, relative defect).  Raises EstimationError,
    with the validator's reason for a refused candidate, when no candidate is
    valid with a finite defect.
    """
    # overflow and domain errors become NaN defects, which no pick reads
    with np.errstate(all="ignore"):
        params, root = _CANDIDATES[family](t)
        refusals = [_refusal(family, p) for p in params]
        ok = np.array([not r for r in refusals], dtype=bool)
        params, root = params[ok], root[ok]
        k = _MATCHED.get(family, params.shape[1])
        raw = _moment_map(family)(params)[:, :k] - np.array([t.xbar, t.s2, t.xbar3])[:k]
        rel = np.abs(raw / np.array([t.xbar, t.s2 + t.xbar * t.xbar, t.xbar3])[:k]).max(axis=1)
    finite = rel[np.isfinite(rel)]
    if not finite.size:
        why = next((f" ({r})" for r in refusals if r), "")
        raise EstimationError(f"{family.value} moment solve failed: no candidate is valid with a finite defect{why}")
    roots = [(p, r, res) for p, r, res in zip(params[root], raw[root], rel[root]) if res <= MOMENT_TOL]
    return roots, float(finite.min())


def estimate(family, t: MomentTargets) -> SolveReport:
    """Solve the family's moment system and report the root :func:`_select_root` picks.

    Raises InfeasibleMomentsError where the family's closed form or bracket
    rules the targets out, and EstimationError when no candidate passes the
    judge: none is valid with a finite defect, or no root is within MOMENT_TOL.
    """
    family = Family(family)
    roots, best_residual = _moment_roots(family, t)
    if not roots:
        raise EstimationError(
            f"{family.value} moment solve failed: no candidate root is within {MOMENT_TOL:g} "
            f"(best relative defect {best_residual:.3g})",
            best_residual=best_residual,
        )
    p, raw, _ = _select_root(roots)
    return SolveReport(spec=DistributionSpec(family, tuple(p)), residuals=raw, iterations=0)
