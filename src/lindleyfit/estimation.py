"""Method-of-moments parameter recovery for every family.

Closed forms are used where they exist (one-parameter, two-parameter and
lognormal families); the power / new-weighted families solve the 2x2 system
{mean = xbar, variance = s2} and the generalized / new-generalized families
the 3x3 system that adds the third raw moment, both with damped Newton
iterations started from a fixed deterministic set of points.

The three-parameter moment systems are genuinely multi-rooted: distinct
positive parameter vectors can share their first three moments.  All roots
found are therefore collected and the reported one is chosen by a fixed
convention (smallest residual-feasible root by third parameter ``c``, then
lexicographically), which matches the published fits.  See the solver
docstrings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec, Family
from .errors import (
    EstimationError,
    FamilyError,
    InfeasibleMomentsError,
    NoSolutionError,
    ParameterError,
)

NEWTON_TOL = 1e-10          # max abs defect on the moment equations
_GRID_AXIS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


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


def estimate_tpld(t: MomentTargets) -> SolveReport:
    """Closed-form two-parameter estimates from the mean/variance match."""
    xbar, s2 = t.xbar, t.s2
    radicand = 2.0 * xbar * xbar - 2.0 * s2
    if radicand <= 0:
        raise InfeasibleMomentsError(
            f"two-parameter estimator needs xbar^2 > s2, got xbar={xbar}, s2={s2}"
        )
    root = math.sqrt(radicand)
    c_hat = (2.0 * xbar + root) / (s2 + xbar * xbar)
    b_hat = (
        -(s2 + xbar * xbar)
        * (xbar * root - 2.0 * s2)
        / ((xbar * root + xbar * xbar - s2) * (2.0 * xbar + root))
    )
    if b_hat * c_hat <= -1.0:
        raise ParameterError(
            f"estimated pair violates b*c > -1: b={b_hat}, c={c_hat}"
        )
    spec = dist.tpld(b_hat, c_hat)
    residuals = np.array([dist.mean(spec) - xbar, dist.variance(spec) - s2])
    return SolveReport(
        spec=spec,
        residuals=residuals,
        iterations=0,
        converged=bool(np.max(np.abs(residuals)) <= NEWTON_TOL),
    )


def estimate_lognormal(t: MomentTargets) -> SolveReport:
    """Closed-form median/shape estimates from the mean/variance match."""
    sigma2 = math.log1p(t.s2 / (t.xbar * t.xbar))
    sigma = math.sqrt(sigma2)
    m = t.xbar * math.exp(-0.5 * sigma2)
    spec = dist.lognormal(m, sigma)
    residuals = np.array([dist.mean(spec) - t.xbar, dist.variance(spec) - t.s2])
    return SolveReport(
        spec=spec,
        residuals=residuals,
        iterations=0,
        converged=bool(np.max(np.abs(residuals)) <= NEWTON_TOL),
    )


# --------------------------------------------------------------------------
# damped Newton core
# --------------------------------------------------------------------------

def _moments_pld(p):
    b, c = p
    m1 = dist._raw_moment_pld(1, b, c)
    return np.array([m1, dist._raw_moment_pld(2, b, c) - m1 * m1])


def _moments_nwl(p):
    b, c = p
    m1 = dist._raw_moment_nwl(1, b, c)
    return np.array([m1, dist._raw_moment_nwl(2, b, c) - m1 * m1])


def _moments_gld(p):
    a, b, c = p
    m1 = (a * b + a * c + c) / (b * (c + b))
    var = (a * b * b + 2.0 * c * b * a + c * c * a + 2.0 * c * b + c * c) / (b * b * (c + b) ** 2)
    return np.array([m1, var, dist._raw_moment_gld(3, a, b, c)])


def _moments_ngld(p):
    a, b, c = p
    m1 = (a * c + b) / (c * (1.0 + c))
    var = (a * a * c - 2.0 * a * b * c + a * c * c + b * b * c + a * c + b * c + b) / (
        c * c * (1.0 + c) ** 2
    )
    return np.array([m1, var, dist._raw_moment_ngld(3, a, b, c)])


_MOMENT_FUNS = {
    Family.PLD: _moments_pld,
    Family.NWL: _moments_nwl,
    Family.GLD: _moments_gld,
    Family.NGLD: _moments_ngld,
}


def _newton(fun, targets: np.ndarray, p0: np.ndarray, max_iter=60, max_halvings=30):
    """Damped Newton on positivity-constrained parameters.

    Returns (params, raw_residuals, iterations) or None when the start fails
    (domain errors, singular Jacobian, or a stalled line search).
    """
    scale = np.maximum(np.abs(targets), 1e-12)

    def resid(p):
        return (fun(p) - targets) / scale

    p = np.asarray(p0, dtype=float)
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        return None
    try:
        r = resid(p)
    except (OverflowError, ValueError, ZeroDivisionError, ParameterError):
        return None
    if not np.all(np.isfinite(r)):
        return None
    iters = 0
    for iters in range(1, max_iter + 1):
        if np.max(np.abs(r)) < 1e-13:
            break
        jac = np.empty((r.size, p.size))
        try:
            for j in range(p.size):
                h = 1e-7 * max(abs(p[j]), 1e-5)
                pp, pm = p.copy(), p.copy()
                pp[j] += h
                pm[j] = max(pm[j] - h, 1e-300)
                jac[:, j] = (resid(pp) - resid(pm)) / (pp[j] - pm[j])
        except (OverflowError, ValueError, ZeroDivisionError, ParameterError):
            return None
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        norm = np.linalg.norm(r)
        lam = 1.0
        accepted = False
        for _ in range(max_halvings):
            cand = p + lam * step
            if np.all(cand > 0):
                try:
                    rc = resid(cand)
                except (OverflowError, ValueError, ZeroDivisionError, ParameterError):
                    rc = None
                if rc is not None and np.all(np.isfinite(rc)) and np.linalg.norm(rc) < norm:
                    p, r = cand, rc
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            break
    return p, r * scale, iters


# --------------------------------------------------------------------------
# seed scans for the three-parameter systems
# --------------------------------------------------------------------------

def _bisect_scan(g, lo, hi, glo, iters=90):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm is None or not math.isfinite(gm):
            break
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign_change_roots(grid, values, g):
    roots = []
    for i in range(len(grid) - 1):
        v0, v1 = values[i], values[i + 1]
        if not (math.isfinite(v0) and math.isfinite(v1)):
            continue
        if (v0 > 0) != (v1 > 0):
            roots.append(_bisect_scan(g, grid[i], grid[i + 1], v0))
    return roots


def _local_min_args(grid, values, keep=8):
    """Grid points where |defect| dips locally.

    Tangent roots (double roots of the reduced system, e.g. where the two
    quadratic branches coincide) produce no sign change, only a dip; those
    points are handed to Newton as extra seeds.
    """
    mags = np.where(np.isfinite(values), np.abs(values), math.inf)
    hits = []
    for i in range(len(grid)):
        left = mags[i - 1] if i > 0 else math.inf
        right = mags[i + 1] if i < len(grid) - 1 else math.inf
        if math.isfinite(mags[i]) and mags[i] <= left and mags[i] <= right:
            hits.append((mags[i], grid[i]))
    hits.sort(key=lambda t: t[0])
    return [x for _, x in hits[:keep]]


def _gld_seed_scan(m1: float, m2: float, m3: float) -> list[tuple[float, float, float]]:
    """Candidate generalized-family roots from a scale-free 1-D reduction.

    With w = c/(c+b), the raw moments satisfy  b*m1 = a + w,
    b^2*m2 = (a+1)(a+2w)  and  b^3*m3 = (a+1)(a+2)(a+3w); eliminating b
    leaves a quadratic for a at each w and a single ratio equation in w,
    which a dense scan plus bisection solves for every branch.
    """
    r2 = m2 / (m1 * m1)
    r3 = m3 / (m1 * m2)
    half = np.geomspace(1e-11, 0.5, 4000)
    ws = np.unique(np.concatenate([half, 1.0 - half]))

    def a_of_w(w, branch):
        aa = 1.0 - r2
        bb = 1.0 + 2.0 * w - 2.0 * r2 * w
        cc = 2.0 * w - r2 * w * w
        disc = bb * bb - 4.0 * aa * cc
        if disc < 0 or abs(aa) < 1e-300:
            return None
        a = (-bb + branch * math.sqrt(disc)) / (2.0 * aa)
        return a if a > 0 else None

    seeds = []
    for branch in (1.0, -1.0):
        def g(w):
            a = a_of_w(w, branch)
            if a is None:
                return None
            return (a + 2.0) * (a + 3.0 * w) / ((a + w) * (a + 2.0 * w)) - r3

        vals = np.array([v if (v := g(w)) is not None else math.nan for w in ws])
        for w_root in _sign_change_roots(ws, vals, g) + _local_min_args(ws, vals):
            a = a_of_w(w_root, branch)
            if a is None:
                continue
            b = (a + w_root) / m1
            c = b * w_root / (1.0 - w_root)
            if b > 0 and c > 0 and math.isfinite(c):
                seeds.append((a, b, c))
    return seeds


def _ngld_seed_scan(m1: float, m2: float, m3: float) -> list[tuple[float, float, float]]:
    """Candidate new-generalized-family roots from a 1-D scan in c.

    The moment equations give  b = c[(1+c) m1 - a]  and a quadratic for a at
    each c; the remaining third-moment defect is scanned over a log grid.
    """
    cs = np.geomspace(1e-6, 1e6, 12000)

    def a_of_c(c, branch):
        tt = (1.0 + c) * m1
        aa = 1.0 + c
        bb = -2.0 * c * tt
        cc = c * tt * tt + tt - (1.0 + c) * c * m2
        disc = bb * bb - 4.0 * aa * cc
        if disc < 0:
            return None
        a = (-bb + branch * math.sqrt(disc)) / (2.0 * aa)
        if a <= 0:
            return None
        b = c * (tt - a)
        if b <= 0:
            return None
        return a, b

    seeds = []
    for branch in (1.0, -1.0):
        def g(c):
            ab = a_of_c(c, branch)
            if ab is None:
                return None
            a, b = ab
            return (
                c * a * (a + 1.0) * (a + 2.0)
                + b * (b + 1.0) * (b + 2.0)
                - (1.0 + c) * c**3 * m3
            )

        vals = np.array([v if (v := g(c)) is not None else math.nan for c in cs])
        for c_root in _sign_change_roots(cs, vals, g) + _local_min_args(cs, vals):
            ab = a_of_c(c_root, branch)
            if ab is not None:
                seeds.append((ab[0], ab[1], c_root))
    return seeds


def _collect_roots(fun, targets, starts):
    roots = []
    best_residual = math.inf
    for p0 in starts:
        out = _newton(fun, targets, np.asarray(p0, dtype=float))
        if out is None:
            continue
        p, raw, iters = out
        res = float(np.max(np.abs(raw)))
        best_residual = min(best_residual, res)
        if res <= NEWTON_TOL and np.all(p > 0):
            # near a fold the same root arrives from several seeds with
            # different polish quality; keep the sharpest representative
            for i, q in enumerate(roots):
                if np.allclose(p, q[0], rtol=1e-3, atol=1e-12):
                    if res < q[3]:
                        roots[i] = (p, raw, iters, res)
                    break
            else:
                roots.append((p, raw, iters, res))
    return roots, best_residual


def _select_root(roots):
    """Smallest-residual class first, then smallest c, then lexicographic.

    Near a fold of the moment map the line search can stall on near-solutions
    whose defect sits just under the tolerance while true roots polish to
    ~1e-15; keeping only the best residual class (within a factor of 1e3)
    separates the two without ranking exact roots by conditioning noise.
    """
    res_min = min(r[3] for r in roots)
    keep = [r for r in roots if r[3] <= max(res_min * 1e3, 1e-14)]
    return min(keep, key=lambda r: (r[0][-1],) + tuple(r[0][:-1]))


def estimate_two_param(family, t: MomentTargets) -> SolveReport:
    """Solve {mean = xbar, variance = s2} for the power or new-weighted family.

    Damped Newton with central finite-difference Jacobians, multistarted over
    the fixed grid {0.1, 0.5, 1, 2, 5, 10}^2; the first converged valid
    solution (in grid order) is returned.  Both families' moment maps were
    found injective, so all starts agree.
    """
    family = Family(family)
    if family not in (Family.PLD, Family.NWL):
        raise FamilyError(f"estimate_two_param handles pld and nwl, got {family.value}")
    fun = _MOMENT_FUNS[family]
    targets = np.array([t.xbar, t.s2])
    best_residual = math.inf
    for p0 in itertools.product(_GRID_AXIS, repeat=2):
        out = _newton(fun, targets, np.asarray(p0))
        if out is None:
            continue
        p, raw, iters = out
        res = float(np.max(np.abs(raw)))
        best_residual = min(best_residual, res)
        if res <= NEWTON_TOL and np.all(p > 0):
            return SolveReport(
                spec=DistributionSpec(family, tuple(p)),
                residuals=raw,
                iterations=iters,
                converged=True,
            )
    raise EstimationError(
        f"{family.value} moment solve failed from every start (best residual {best_residual:.3g})",
        best_residual=best_residual,
    )


def estimate_three_param(family, t: MomentTargets) -> SolveReport:
    """Solve {mean, variance, third raw moment} for the three-parameter families.

    Starts come from a dense scale-free root scan (which enumerates every
    solution branch), refined by damped Newton; the coarse grid
    {0.1, 0.5, 1, 2, 5, 10}^3 is the fallback when the scan finds nothing.
    These systems admit several exact roots for many targets; among the
    best-residual class of converged roots the one with the smallest ``c``
    (then lexicographically smallest (a, b)) is returned, which reproduces
    the published fits.
    """
    family = Family(family)
    if family not in (Family.GLD, Family.NGLD):
        raise FamilyError(f"estimate_three_param handles gld and ngld, got {family.value}")
    fun = _MOMENT_FUNS[family]
    targets = np.array([t.xbar, t.s2, t.xbar3])
    m1 = t.xbar
    m2 = t.s2 + t.xbar * t.xbar
    m3 = t.xbar3
    scan = _gld_seed_scan(m1, m2, m3) if family is Family.GLD else _ngld_seed_scan(m1, m2, m3)
    roots, best_residual = _collect_roots(fun, targets, scan)
    if not roots:
        # dense-scan blind spot: fall back to the coarse grid
        roots, grid_best = _collect_roots(
            fun, targets, itertools.product(_GRID_AXIS, repeat=3)
        )
        best_residual = min(best_residual, grid_best)
    if not roots:
        raise EstimationError(
            f"{family.value} moment solve failed from every start (best residual {best_residual:.3g})",
            best_residual=best_residual,
        )
    p, raw, iters, _ = _select_root(roots)
    return SolveReport(
        spec=DistributionSpec(family, tuple(p)),
        residuals=raw,
        iterations=iters,
        converged=True,
    )


def estimate_dtl(t: MomentTargets) -> SolveReport:
    """Truncation bounds from the order statistics, then a 1-D solve for c."""
    if not (t.x_min < t.x_max):
        raise InfeasibleMomentsError(
            f"degenerate support: x_min={t.x_min} must be < x_max={t.x_max}"
        )
    if not (0 <= t.x_min and t.x_min <= t.xbar <= t.x_max):
        raise InfeasibleMomentsError(
            f"need 0 <= x_min <= xbar <= x_max, got {t.x_min}, {t.xbar}, {t.x_max}"
        )
    x_l, x_u = t.x_min, t.x_max

    def defect(c):
        return dist.mean(dist.dtl(c, x_l, x_u)) - t.xbar

    lo, hi = 1e-6, 1e3
    d_lo, d_hi = defect(lo), defect(hi)
    if d_lo * d_hi > 0:
        raise NoSolutionError(
            f"mean {t.xbar} is outside the attainable truncated-mean range "
            f"[{dist.mean(dist.dtl(hi, x_l, x_u)):.6g}, {dist.mean(dist.dtl(lo, x_l, x_u)):.6g}]",
            best_residual=min(abs(d_lo), abs(d_hi)),
        )
    from scipy import optimize  # the only user; imported here to keep the package import light

    c_hat, res = optimize.brentq(defect, lo, hi, xtol=1e-14, rtol=8.9e-16, full_output=True)
    residual = defect(c_hat)
    return SolveReport(
        spec=dist.dtl(c_hat, x_l, x_u),
        residuals=np.array([residual]),
        iterations=res.iterations,
        converged=bool(res.converged and abs(residual) <= NEWTON_TOL),
    )


_ESTIMATORS = {
    Family.LINDLEY1: lambda t: estimate_lindley1(t),
    Family.TPLD: lambda t: estimate_tpld(t),
    Family.PLD: lambda t: estimate_two_param(Family.PLD, t),
    Family.GLD: lambda t: estimate_three_param(Family.GLD, t),
    Family.NGLD: lambda t: estimate_three_param(Family.NGLD, t),
    Family.NWL: lambda t: estimate_two_param(Family.NWL, t),
    Family.DTL: lambda t: estimate_dtl(t),
    Family.LOGNORMAL: lambda t: estimate_lognormal(t),
}


def estimate(family, t: MomentTargets) -> SolveReport:
    """Dispatch to the family's estimator."""
    return _ESTIMATORS[Family(family)](t)
