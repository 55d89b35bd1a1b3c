"""Method-of-moments parameter recovery for every family.

Closed forms are used where they exist (one-parameter, two-parameter and
lognormal families), and ``dtl`` solves its one mean equation by bracketed
Newton.  The power / new-weighted families match {mean = xbar,
variance = s2} and the generalized / new-generalized families add the third
raw moment.  Each of those four systems reduces exactly to one unknown, with
the other parameters in closed form, so each is solved by one vectorised
scan of a 1-D defect followed by bisection (:func:`_scan_roots`).  Every
candidate is judged by the family's own moment forms, relative to the
targets.

The three-parameter moment systems are genuinely multi-rooted: distinct
positive parameter vectors can share their first three moments.  All roots
found are therefore collected and the reported one is chosen by a fixed
convention (smallest residual-feasible root by third parameter ``c``, then
lexicographically), which matches the published fits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distributions as dist
from .distributions import DistributionSpec, Family
from .errors import (
    DomainError,
    EstimationError,
    FamilyError,
    InfeasibleMomentsError,
    NoSolutionError,
)

NEWTON_TOL = 1e-10          # max defect on the moment equations, relative to each raw target


@dataclass(frozen=True)
class MomentTargets:
    """Sample moments an estimator must match."""

    xbar: float
    s2: float
    xbar3: float
    x_min: float = 0.0
    x_max: float = math.inf

    def __post_init__(self):
        if not (self.xbar > 0 and math.isfinite(self.xbar)):
            raise InfeasibleMomentsError(f"sample mean must be positive, got {self.xbar}")
        if not (self.s2 > 0 and math.isfinite(self.s2)):
            raise InfeasibleMomentsError(f"sample variance must be positive, got {self.s2}")
        if not (self.xbar3 > 0 and math.isfinite(self.xbar3)):
            raise InfeasibleMomentsError(f"third raw moment must be positive, got {self.xbar3}")
        if not (self.x_min <= self.xbar <= self.x_max):
            raise InfeasibleMomentsError(
                f"need x_min <= xbar <= x_max, got {self.x_min}, {self.xbar}, {self.x_max}"
            )

    @classmethod
    def from_summary(cls, summary) -> "MomentTargets":
        """Build targets from a :class:`~lindleyfit.catalog.SampleSummary`."""
        return cls(
            xbar=summary.xbar,
            s2=summary.s2,
            xbar3=summary.raw_moments[2],
            x_min=summary.x_min,
            x_max=summary.x_max,
        )


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
    converged: bool


def estimate_lindley1(t: MomentTargets) -> SolveReport:
    """Closed-form c from the mean match: the positive root of x c^2 + (x - 1) c - 2 = 0.

    Here x is the sample mean.  Each side of x = 1 uses the form of the root without cancellation, and the
    discriminant is factored so that it never overflows.
    """
    x = t.xbar
    if x < 1.0:
        c_hat = (1.0 - x + math.sqrt(x * x + 6.0 * x + 1.0)) / (2.0 * x)
    else:
        c_hat = 4.0 / (x - 1.0 + x * math.sqrt(1.0 + (6.0 + 1.0 / x) / x))
    if not (0.0 < c_hat < math.inf):
        raise NoSolutionError(f"the root c = {c_hat} for mean {x} is not a finite positive float")
    spec = dist.lindley1(c_hat)
    residual = dist.mean(spec) - x
    return SolveReport(
        spec=spec,
        residuals=np.array([residual]),
        iterations=0,
        converged=bool(abs(residual) <= NEWTON_TOL * x),
    )


def _closed_form_report(spec: DistributionSpec, t: MomentTargets) -> SolveReport:
    """The mean and variance defects of a closed-form fit, each judged relative to its target."""
    residuals = np.array([dist.mean(spec) - t.xbar, dist.variance(spec) - t.s2])
    converged = bool(np.all(np.abs(residuals) <= NEWTON_TOL * np.array([t.xbar, t.s2])))
    return SolveReport(spec=spec, residuals=residuals, iterations=0, converged=converged)


def estimate_tpld(t: MomentTargets) -> SolveReport:
    """Closed-form two-parameter estimates from the mean/variance match.

    tpld is a scale family: the match is solved in units of 2^e ~ xbar, where no
    product of moments under- or overflows, and (b, c) is rescaled exactly.
    """
    e = math.frexp(t.xbar)[1]
    xbar, s2 = math.ldexp(t.xbar, -e), math.ldexp(t.s2, -2 * e)
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
    # tpld() itself raises ParameterError for a pair with b*c <= -1
    return _closed_form_report(dist.tpld(math.ldexp(b_hat, e), math.ldexp(c_hat, -e)), t)


def estimate_lognormal(t: MomentTargets) -> SolveReport:
    """Closed-form median/shape estimates from the mean/variance match."""
    sigma2 = math.log1p(t.s2 / (t.xbar * t.xbar))
    sigma = math.sqrt(sigma2)
    m = t.xbar * math.exp(-0.5 * sigma2)
    return _closed_form_report(dist.lognormal(m, sigma), t)


# --------------------------------------------------------------------------
# one bracketed 1-D solve per moment system
# --------------------------------------------------------------------------

def _moment_map(family: Family):
    """The family's (mean, variance[, third raw moment]) at parameter vectors stacked as (..., k)."""
    mean_variance, raw_moment = dist._MEAN_VARIANCE[family], dist._RAW_MOMENT[family]
    k = len(dist.PARAM_NAMES[family])

    def moments(params: np.ndarray) -> np.ndarray:
        cols = [params[..., j] for j in range(k)]
        out = np.empty(params.shape)
        out[..., 0], out[..., 1] = mean_variance(*cols)
        if k == 3:
            out[..., 2] = raw_moment(3, *cols)
        return out

    return moments


_ONE_BRANCH = np.array([[1.0]])
_BRANCHES = np.array([[1.0], [-1.0]])   # the two roots of a quadratic, as a column
# [1e-11, 1 - 1e-11], geometric towards both ends; 1 - x is exact on the upper half
_HALF = np.geomspace(1e-11, 0.5, 4000)
_UNIT_GRID = np.unique(np.concatenate([_HALF, 1.0 - _HALF]))
_PLD_S_GRID = np.geomspace(1e-11, 1e2, 4000)   # s = 1/c


def _bisect(inside, lo, hi):
    """Halve every bracket [lo, hi] (in either order), keeping ``inside(lo)`` and not ``inside(hi)``.

    ``inside`` maps an array of points, one per bracket, to booleans.  A
    bracket stops once it is one ulp wide.  Returns the final ``(lo, hi)``.
    """
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            break
        step = live & inside(mid)
        lo, hi = np.where(step, mid, lo), np.where(live & ~step, mid, hi)
    return lo, hi


def _scan_roots(g, grid, branches=_ONE_BRANCH):
    """Candidate roots of a 1-D defect ``g(x, branch)`` on every branch of a reduction.

    ``g`` takes points and branches that broadcast and is NaN where it is
    undefined.  Three kinds of bracket are bisected to one ulp, all at once:

    * a sign change between finite neighbours of ``grid``;
    * a domain edge, where g turns undefined between two grid points (the
      quadratic's branches meet there, or a parameter reaches 0): the last
      finite point is found first; a sign change between it and its grid
      neighbour is a bracket, else the point itself is kept as a candidate;
    * a dip, a grid point where |g| is a local minimum and both neighbours
      share its sign (at most 8 per branch, smallest first): the extremum of
      g over its two cells is found first; if g crosses 0 there, each side is
      a bracket, else the extremum itself is kept as a tangent root.

    Returns ``(x, branch)`` arrays of the candidates.
    """
    vals = np.broadcast_to(g(grid, branches), (len(branches), len(grid)))
    finite, pos = np.isfinite(vals), vals > 0
    rows = np.broadcast_to(branches, vals.shape)   # the branch of every grid value
    j, i = np.nonzero(finite[:, :-1] & finite[:, 1:] & (pos[:, :-1] != pos[:, 1:]))
    brackets = [(grid[i], grid[i + 1], rows[j, i])]

    j, i = np.nonzero(finite[:, :-1] != finite[:, 1:])
    inner, edge_br = np.where(finite[j, i], i, i + 1), rows[j, i]
    edge, _ = _bisect(lambda x: np.isfinite(g(x, edge_br)), grid[inner], grid[2 * i + 1 - inner])
    cross = (g(edge, edge_br) > 0) != pos[j, inner]
    brackets.append((grid[inner][cross], edge[cross], edge_br[cross]))

    mags = np.where(finite, np.abs(vals), math.inf)
    centre = mags[:, 1:-1]
    dip = finite[:, :-2] & finite[:, 2:] & (centre <= mags[:, :-2]) & (centre <= mags[:, 2:])
    dip &= (pos[:, :-2] == pos[:, 1:-1]) & (pos[:, 2:] == pos[:, 1:-1])
    j, i = np.nonzero(dip)
    order = np.lexsort((centre[j, i], j))   # by branch, then |g|
    j, i = j[order], i[order]
    first = np.arange(j.size) - np.searchsorted(j, j) < 8   # the 8 smallest of each branch
    j, i = j[first], i[first] + 1
    dip_br, sign, lo, hi = rows[j, i], np.where(pos[j, i], 1.0, -1.0), grid[i - 1], grid[i + 1]
    h = 1e-7 * (hi - lo)
    # sign * g still falls left of its minimum
    peak, _ = _bisect(lambda x: sign * (g(x + h, dip_br) - g(x, dip_br)) < 0, lo, hi)
    tangent = sign * g(peak, dip_br) > 0
    crossed = (peak[~tangent], dip_br[~tangent])
    brackets += [(lo[~tangent], *crossed), (hi[~tangent], *crossed)]

    lo, hi, br = (np.concatenate(part) for part in zip(*brackets))
    lo_pos = g(lo, br) > 0

    def same_sign(x):
        gx = g(x, br)
        return np.isfinite(gx) & ((gx > 0) == lo_pos)

    x = np.concatenate([0.5 * sum(_bisect(same_sign, lo, hi)), edge[~cross], peak[tangent]])
    return x, np.concatenate([br, edge_br[~cross], dip_br[tangent]])


def _gld_candidates(t: MomentTargets) -> np.ndarray:
    """Candidate generalized-family roots from a scale-free 1-D reduction.

    With w = c/(c+b), the raw moments satisfy  b*m1 = a + w,
    b^2*m2 = (a+1)(a+2w)  and  b^3*m3 = (a+1)(a+2)(a+3w); eliminating b
    leaves a quadratic for a at each w and a single ratio equation in w.
    """
    m1, m2 = t.xbar, t.s2 + t.xbar * t.xbar
    # in units of 2^e ~ m1 no product of moments under- or overflows; every ratio is bit-identical
    e = math.frexp(m1)[1]
    s1, s2, s3 = (math.ldexp(m, -k * e) for k, m in ((1, m1), (2, m2), (3, t.xbar3)))
    r2 = s2 / (s1 * s1)
    r3 = s3 / (s1 * s2)
    aa = 1.0 - r2
    if abs(aa) < 1e-300:
        return np.empty((0, 3))

    def a_of_w(w, branch):
        bb = 1.0 + 2.0 * w - 2.0 * r2 * w
        cc = 2.0 * w - r2 * w * w
        disc = bb * bb - 4.0 * aa * cc
        a = (-bb + branch * np.sqrt(np.where(disc < 0, np.nan, disc))) / (2.0 * aa)
        return np.where(a > 0, a, np.nan)

    def g(w, branch):
        a = a_of_w(w, branch)
        return (a + 2.0) * (a + 3.0 * w) / ((a + w) * (a + 2.0 * w)) - r3

    w, branch = _scan_roots(g, _UNIT_GRID, _BRANCHES)
    a = a_of_w(w, branch)
    b = (a + w) / m1
    return np.column_stack([a, b, b * w / (1.0 - w)])


def _ngld_candidates(t: MomentTargets) -> np.ndarray:
    """Candidate new-generalized-family roots from a 1-D scan in d = a - c m1.

    The mean gives b = c (m1 - d) and the variance c = (m1 + d^2)/s2, so every
    d < m1 fixes the whole vector.  In c these are two branches that meet at
    the fold c = m1/s2 (d = 0), and the d > 0 one lives only on
    c < (m1 + m1^2)/s2, which can be narrower than any c grid cell; in d they
    are one.  The third moment, c a(a+1)(a+2) + b(b+1)(b+2) = (1+c) c^3 m3, is
    the 1-D defect, written in u = 1/c, a/c and b/c so that no product of
    moments overflows.  The grid in x = d/m1 is geometric towards 0 and 1 and
    reaches c = 1e11 below 0.
    """
    m1, s2, m3 = t.xbar, t.s2, t.xbar3
    top = min(math.sqrt(max(1e11 * s2 / m1 - 1.0, 0.0) / m1), 1e300)
    grid = np.concatenate([-np.geomspace(top, 1e-11, 4000) if top > 1e-11 else [], _UNIT_GRID])

    def ratios(x):
        u = s2 / (m1 * (1.0 + m1 * x * x))
        return u, m1 * (1.0 + x * u), m1 * (1.0 - x)   # 1/c, a/c, b/c

    def g(x, _branch):
        u, alpha, beta = ratios(x)
        third = alpha * (alpha + u) * (alpha + 2.0 * u) + u * beta * (beta + u) * (beta + 2.0 * u)
        return np.where((alpha > 0) & (beta > 0), third / ((1.0 + u) * m3) - 1.0, np.nan)

    u, alpha, beta = ratios(_scan_roots(g, grid)[0])
    return np.column_stack([alpha / u, beta / u, 1.0 / u])


def _nwl_candidates(t: MomentTargets) -> np.ndarray:
    """Candidate new-weighted roots from a 1-D scan in v = 1/(1+b).

    With G_j = 1 + v + ... + v^j the raw moments are
    m_r = r! (c G_r + (r+1) G_{r+1}) / (c^r (c + G_1)).  The mean fixes c as
    the positive root of m1 c^2 + (m1 - 1) G_1 c - 2 G_2 = 0, written without
    cancellation on either side of m1 = 1, and m2(c, v)/m2 - 1 is the 1-D
    defect.
    """
    m1 = t.xbar
    r2 = 1.0 + t.s2 / m1 / m1   # m2 / m1^2

    def c_of(v):
        k = (m1 - 1.0) * (1.0 + v)
        root = np.hypot(k, np.sqrt(8.0 * m1 * (1.0 + v + v * v)))
        return (root - k) / (2.0 * m1) if m1 < 1.0 else 4.0 * (1.0 + v + v * v) / (k + root)

    def g(v, _branch):
        c = c_of(v)
        g2 = 1.0 + v * (1.0 + v)
        return 2.0 * (c * g2 + 3.0 * (1.0 + v * g2)) / ((c + 1.0 + v) * (c * m1) ** 2 * r2) - 1.0

    v, _ = _scan_roots(g, _UNIT_GRID)
    return np.column_stack([(1.0 - v) / v, c_of(v)])


def _pld_candidates(t: MomentTargets) -> np.ndarray:
    """Candidate power-family roots from a 1-D scan in s = 1/c.

    The raw moments are m_r = b^(-rs) Gamma(1 + rs) (b + 1 + rs)/(b + 1).  At
    each s the mean fixes L = ln b: -s L + log1p(s/(b+1)) = ln m1 - lnGamma(1+s)
    falls strictly in L, by between s and 1.25 s per unit, and its root lies
    within log1p(s)/s <= 1 above L0 = (lnGamma(1+s) - ln m1)/s, so four Newton
    steps from L0 reach it.  The second moment's log defect
    -2s L + lnGamma(1+2s) + log1p(2s/(b+1)) - ln m2 is the 1-D defect.
    """
    log_m1 = math.log(t.xbar)
    log_m2 = 2.0 * log_m1 + math.log1p(t.s2 / t.xbar / t.xbar)

    def log_b(s):
        lg = special.gammaln(1.0 + s)
        L = (lg - log_m1) / s
        for _ in range(4):
            b = np.exp(L)
            slope = s + s * b / ((b + 1.0) * (b + 1.0 + s))
            L = L + (lg - log_m1 - s * L + np.log1p(s / (b + 1.0))) / slope
        return L

    def g(s, _branch):
        L = log_b(s)
        b = np.exp(L)
        defect = special.gammaln(1.0 + 2.0 * s) - 2.0 * s * L + np.log1p(2.0 * s / (b + 1.0)) - log_m2
        return np.where((b > 0) & (b < math.inf), defect, np.nan)

    s, _ = _scan_roots(g, _PLD_S_GRID)
    return np.column_stack([np.exp(log_b(s)), 1.0 / s])


_CANDIDATES = {
    Family.PLD: _pld_candidates,
    Family.NWL: _nwl_candidates,
    Family.GLD: _gld_candidates,
    Family.NGLD: _ngld_candidates,
}


def _collect_roots(params, raw, rel):
    """Distinct candidates within NEWTON_TOL as (params, raw defects, relative defect), and the best defect."""
    roots = []
    for p, r, res in zip(params, raw, rel):
        if not res <= NEWTON_TOL:
            continue
        # one root can arrive twice (both sides of a dip that touches 0, an
        # edge shared by two branches); keep the sharpest representative
        for i, q in enumerate(roots):
            if np.allclose(p, q[0], rtol=1e-6, atol=0.0):
                if res < q[-1]:
                    roots[i] = (p, r, res)
                break
        else:
            roots.append((p, r, res))
    return roots, float(np.min(rel[np.isfinite(rel)], initial=math.inf))


def _select_root(roots):
    """Smallest-residual class first, then smallest c, then lexicographic.

    Exact roots of a multi-rooted system can differ in their last-bit defect;
    keeping only the best residual class (within a factor of 1e3, or below
    1e-14 of the targets) separates exact roots from candidates that merely
    pass the tolerance, such as noise roots of a near-constant sample,
    without ranking exact roots by rounding.
    """
    res_min = min(r[-1] for r in roots)
    keep = [r for r in roots if r[-1] <= max(res_min * 1e3, 1e-14)]
    return min(keep, key=lambda r: (r[0][-1],) + tuple(r[0][:-1]))


def _moment_roots(family: Family, t: MomentTargets):
    """Distinct roots of the family's moment system, and the smallest relative defect of any candidate.

    Every candidate of the family's 1-D reduction is evaluated with the
    family's own moment forms.  Its defects on the mean, the variance and the
    third raw moment are taken relative to (xbar, s2 + xbar^2, xbar3): the
    reductions match raw moments, so the variance is judged on the scale of
    the second raw moment.
    """
    # overflow, domain errors and negative discriminants become NaN defects, which the scan skips
    with np.errstate(all="ignore"):
        params = _CANDIDATES[family](t)
        params = params[np.isfinite(params).all(axis=1) & (params > 0).all(axis=1)]
        k = params.shape[1]
        raw = _moment_map(family)(params) - np.array([t.xbar, t.s2, t.xbar3])[:k]
        rel = np.abs(raw / np.array([t.xbar, t.s2 + t.xbar * t.xbar, t.xbar3])[:k]).max(axis=1)
    return _collect_roots(params, raw, rel)


def _report_root(family: Family, roots, best_residual: float) -> SolveReport:
    """The report of the root :func:`_select_root` picks; EstimationError when there is none."""
    if best_residual == math.inf:
        raise EstimationError(
            f"{family.value} moment solve failed: the seed scan found no candidate root with a finite defect",
            best_residual=None,
        )
    if not roots:
        raise EstimationError(
            f"{family.value} moment solve failed: no candidate root is within {NEWTON_TOL:g} "
            f"(best relative defect {best_residual:.3g})",
            best_residual=best_residual,
        )
    p, raw, _ = _select_root(roots)
    return SolveReport(spec=DistributionSpec(family, tuple(p)), residuals=raw, iterations=0, converged=True)


def estimate_two_param(family, t: MomentTargets) -> SolveReport:
    """Solve {mean = xbar, variance = s2} for the power or new-weighted family.

    Each system reduces exactly to one unknown (:func:`_pld_candidates`,
    :func:`_nwl_candidates`), solved by a 1-D scan with bisection.  Both
    families' moment maps were found injective, so there is one root.
    """
    family = Family(family)
    if family not in (Family.PLD, Family.NWL):
        raise FamilyError(f"estimate_two_param handles pld and nwl, got {family.value}")
    return _report_root(family, *_moment_roots(family, t))


def estimate_three_param(family, t: MomentTargets) -> SolveReport:
    """Solve {mean, variance, third raw moment} for the three-parameter families.

    Each system reduces exactly to one unknown (:func:`_gld_candidates`,
    :func:`_ngld_candidates`), solved by a 1-D scan with bisection.  These systems admit several exact roots for many
    targets; among the best-residual class of roots the one with the
    smallest ``c`` (then lexicographically smallest (a, b)) is returned,
    which reproduces the published fits.
    """
    family = Family(family)
    if family not in (Family.GLD, Family.NGLD):
        raise FamilyError(f"estimate_three_param handles gld and ngld, got {family.value}")
    return _report_root(family, *_moment_roots(family, t))


def _dtl_flat_mean(x_l: float, x_u: float) -> float:
    """Mean of the density proportional to 1 + x on [x_l, x_u], the c -> 0+ limit of dtl.

    With h = (x_l + x_u)/2 it is (h + (x_u^2 + x_u x_l + x_l^2)/3) / (1 + h),
    written as h/(1 + h) (1 + x_u g) with g = 2(1 + a + a^2) / (3(1 + a)) and
    a = x_l/x_u, so that no term overflows.
    """
    a = x_l / x_u
    h = 0.5 * x_u + 0.5 * x_l
    g = 2.0 * (1.0 + a + a * a) / (3.0 * (1.0 + a))
    return h / (1.0 + h) * (1.0 + x_u * g)


_DTL_MAX_STEPS = 100


def estimate_dtl(t: MomentTargets) -> SolveReport:
    """Truncation bounds from the order statistics, then c from the mean match by bracketed Newton.

    The density is proportional to (1 + x) e^{-cx} on [x_l, x_u], an exponential
    family in c, so d mean/dc = -variance exactly and one mean/variance
    evaluation gives both the defect and its slope.  The mean falls strictly
    from mu0 = mean of (1 + x) on the window (c -> 0+) to x_l (c -> inf), so
    the attainable means are exactly (x_l, mu0) and the root is unique.  The
    bracket comes in closed form and scales with the masses: the variance on
    the window is at most w^2/4 (w = x_u - x_l), so mean(c) >= mu0 - c w^2/4
    and lo = 4 (mu0 - xbar)/w^2 has mean >= xbar; truncation at x_u lowers the
    mean at every c, so hi, the root for the untruncated window [x_l, inf),
    has mean < xbar.  Newton starts at hi, which is the root itself when the
    window is wide.  A Newton step is taken when it lands strictly inside the
    bracket, else the geometric midpoint (the arithmetic one once hi < 4 lo);
    every evaluation shrinks the bracket, and the solve stops at a step below
    4 ulp of c.  ``iterations`` counts the steps.
    """
    if not (t.x_min < t.x_max):
        raise InfeasibleMomentsError(
            f"degenerate support: x_min={t.x_min} must be < x_max={t.x_max}"
        )
    if not (0 <= t.x_min and t.x_min <= t.xbar <= t.x_max):
        raise InfeasibleMomentsError(
            f"need 0 <= x_min <= xbar <= x_max, got {t.x_min}, {t.xbar}, {t.x_max}"
        )
    x_l, x_u, xbar = t.x_min, t.x_max, t.xbar
    mu0 = _dtl_flat_mean(x_l, x_u)
    if not (x_l < xbar < mu0):
        raise NoSolutionError(
            f"mean {xbar} is outside the attainable truncated-mean range ({x_l:.6g}, {mu0:.6g})",
            best_residual=max(xbar - mu0, x_l - xbar),
        )
    # hi: the root on the untruncated window [x_l, inf), where the mean is
    # x_l + (ac + 2)/(c(ac + 1)) with a = 1 + x_l, i.e. the positive root of
    # a d c^2 + (d - a) c - 2 = 0; truncation lowers the mean at every c
    a, d, w = 1.0 + x_l, xbar - x_l, x_u - x_l
    r = math.hypot(a - d, math.sqrt(8.0 * a) * math.sqrt(d))
    hi = (a - d + r) / a / d / 2.0 if a >= d else 4.0 / (d - a + r)
    lo = 4.0 * ((mu0 - xbar) / w) / w
    if not (0.0 < lo and hi < math.inf):
        raise NoSolutionError(f"the root c for mean {xbar} on [{x_l}, {x_u}] is not a finite positive float")
    mean_variance = dist._MEAN_VARIANCE[Family.DTL]
    c = hi
    for steps in range(1, _DTL_MAX_STEPS + 1):
        try:
            mu, var = mean_variance(c, x_l, x_u)
        except OverflowError:
            mu = var = math.inf
        if not (math.isfinite(mu) and math.isfinite(var)):
            raise DomainError(f"the mean and variance of {dist.dtl(c, x_l, x_u)} are not finite doubles")
        residual = mu - xbar
        if residual > 0:
            lo = c
        elif residual < 0:
            hi = c
        else:
            break
        c_next = c + residual / var if var > 0 else math.inf
        if not (lo < c_next < hi):
            c_next = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        if abs(c_next - c) <= 4.0 * math.ulp(c):
            break
        c = c_next
    return SolveReport(
        spec=dist.dtl(c, x_l, x_u),
        residuals=np.array([residual]),
        iterations=steps,
        converged=bool(abs(residual) <= NEWTON_TOL * xbar),
    )


_ESTIMATORS = {
    Family.LINDLEY1: estimate_lindley1,
    Family.TPLD: estimate_tpld,
    Family.PLD: functools.partial(estimate_two_param, Family.PLD),
    Family.GLD: functools.partial(estimate_three_param, Family.GLD),
    Family.NGLD: functools.partial(estimate_three_param, Family.NGLD),
    Family.NWL: functools.partial(estimate_two_param, Family.NWL),
    Family.DTL: estimate_dtl,
    Family.LOGNORMAL: estimate_lognormal,
}


def estimate(family, t: MomentTargets) -> SolveReport:
    """Dispatch to the family's estimator."""
    return _ESTIMATORS[Family(family)](t)
