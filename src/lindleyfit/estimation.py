"""Method-of-moments parameter recovery for every family.

Closed forms are used where they exist (one-parameter, two-parameter and
lognormal families); the power / new-weighted families solve the 2x2 system
{mean = xbar, variance = s2} and the generalized / new-generalized families
the 3x3 system that adds the third raw moment, both with damped Newton
iterations started from a fixed deterministic set of points.  One batched
engine runs every start at once as a lane of numpy arrays.

The three-parameter moment systems are genuinely multi-rooted: distinct
positive parameter vectors can share their first three moments.  All roots
found are therefore collected and the reported one is chosen by a fixed
convention (smallest residual-feasible root by third parameter ``c``, then
lexicographically), which matches the published fits.  See the solver
docstrings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec, Family
from .errors import (
    DomainError,
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
# batched multistart damped Newton
# --------------------------------------------------------------------------

_MAX_ITER = 60
_STEP_LENGTHS = 0.5 ** np.arange(30)   # the damped step lengths, tried longest first


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


def _solve_lanes(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton steps for a stack of systems; a singular lane gets a NaN step."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # a stacked solve raises if any one matrix is singular
        out = np.full(rhs.shape, np.nan)
        for i in range(len(jac)):
            try:
                out[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis; one that overflows reads inf, which no step can lower."""
    with np.errstate(over="ignore"):
        return np.sqrt((x * x).sum(axis=-1))


def _multistart(moments, targets: np.ndarray, starts, first_hit: bool = False):
    """Damped Newton on positivity-constrained parameters from every start at once.

    Each start is one lane of ``(n_starts, k)`` arrays and follows the same
    rule on its own: a central finite-difference Jacobian with step
    ``1e-7 * max(|p_j|, 1e-5)``, at most 60 iterations, a stop once every
    target-scaled defect is below 1e-13, and a step of length 1, 1/2, ...,
    2^-29 -- the longest one that keeps every parameter positive and lowers
    the defect norm.  A lane whose start, defect, Jacobian or step is not
    finite, or whose Jacobian is singular, ends with no result; a lane that
    no step length improves ends where it is.

    Returns ``(index, params, raw_residuals, iterations)`` for every lane
    that ends with a result, in start order.  With ``first_hit``, the whole
    solve ends in the first iteration where any lane ends within NEWTON_TOL,
    and only that lane is returned (the lowest start index if several end
    then); any converged lane will do when the moment map is injective.
    """
    p_all = np.array(starts, dtype=float).reshape(-1, len(targets))
    n, k = p_all.shape
    scale = np.maximum(np.abs(targets), 1e-12)

    def resid(params):
        # an overflow or a domain error yields a non-finite defect, which ends the lane
        with np.errstate(all="ignore"):
            return (moments(params) - targets) / scale

    r_all = np.full((n, k), np.nan)
    ok = (p_all > 0).all(axis=1) & np.isfinite(p_all).all(axis=1)
    if ok.any():
        r_all[ok] = resid(p_all[ok])
    # the state of the running lanes: start index, parameters, defect, defect norm
    live = np.flatnonzero(np.isfinite(r_all).all(axis=1))
    p, r = p_all[live], r_all[live]
    norm = _norm(r)
    ended = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=int)
    hit = n   # with first_hit, the lowest start index that has ended within NEWTON_TOL
    diag = np.arange(k)

    def end(mask, it):
        nonlocal hit
        lanes = live[mask]
        p_all[lanes], r_all[lanes], ended[lanes], iters[lanes] = p[mask], r[mask], True, it
        if first_hit:
            hits = lanes[np.abs(r[mask] * scale).max(axis=1) <= NEWTON_TOL]
            if hits.size:
                hit = min(hit, hits[0])

    for it in range(1, _MAX_ITER + 1):
        keep = np.abs(r).max(axis=1) >= 1e-13
        if not keep.all():
            end(~keep, it)
            live, p, r, norm = live[keep], p[keep], r[keep], norm[keep]
        if live.size == 0 or hit < n:
            break

        # the 2k perturbed points of every lane in one evaluation
        h = 1e-7 * np.maximum(np.abs(p), 1e-5)
        up, down = p + h, np.maximum(p - h, 1e-300)
        points = np.repeat(p[:, None, :], 2 * k, axis=1)
        points[:, diag, diag] = up
        points[:, k + diag, diag] = down
        both = resid(points)
        with np.errstate(all="ignore"):
            jac = (both[:, :k] - both[:, k:]).transpose(0, 2, 1) / (up - down)[:, None, :]
        step = _solve_lanes(jac, -r)
        good = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(step).all(axis=1)
        if not good.all():
            live, p, r, norm, step = live[good], p[good], r[good], norm[good], step[good]

        # every step length of every lane in one (lanes x 30) block
        with np.errstate(over="ignore"):
            cand = p[:, None, :] + _STEP_LENGTHS[:, None] * step[:, None, :]
        positive = (cand > 0).all(axis=2)
        if positive.all():
            r_cand = resid(cand)
        else:
            r_cand = np.full(cand.shape, np.nan)
            r_cand[positive] = resid(cand[positive])
        norm_cand = _norm(r_cand)
        better = np.isfinite(r_cand).all(axis=2) & (norm_cand < norm[:, None])
        moved = better.any(axis=1)
        if not moved.all():
            end(~moved, it)
            live, cand, r_cand, norm_cand, better = (
                x[moved] for x in (live, cand, r_cand, norm_cand, better)
            )
        rows, pick = np.arange(live.size), better.argmax(axis=1)
        p, r, norm = cand[rows, pick], r_cand[rows, pick], norm_cand[rows, pick]
    else:
        end(np.ones(live.size, dtype=bool), _MAX_ITER)
    lanes = [hit] if hit < n else np.flatnonzero(ended)
    return [(i, p_all[i], r_all[i] * scale, int(iters[i])) for i in lanes]


# --------------------------------------------------------------------------
# seed scans for the three-parameter systems
# --------------------------------------------------------------------------

_BRANCHES = np.array([[1.0], [-1.0]])   # the two roots of each quadratic, as a column


def _scan_seeds(g, grid):
    """Roots and near-roots of a 1-D defect on both branches of the quadratic.

    ``g(x, branch)`` is the defect at points ``x`` on branch +1 or -1 (arrays
    that broadcast), NaN where it is undefined.  Every sign change between
    finite neighbours of ``grid`` is bisected 90 times, all brackets of both
    branches at once; a bracket stops where ``g`` is undefined, or once it is
    one ulp wide, where further halvings change nothing.  Then come the grid
    points where |g| dips locally, at most 8 per branch, smallest first:
    tangent roots (double roots of the reduced system, e.g. where the two
    quadratic branches coincide) produce no sign change, only a dip, and are
    handed to Newton as extra seeds.

    Returns ``(x, branch)`` arrays: branch +1 first, then -1, each with its
    bisected roots in grid order followed by its dips.
    """
    vals = g(grid, _BRANCHES)
    finite = np.isfinite(vals)
    row, at = np.nonzero(finite[:, :-1] & finite[:, 1:] & ((vals[:, :-1] > 0) != (vals[:, 1:] > 0)))
    branch = _BRANCHES[row, 0]
    lo, hi, g_lo = grid[at], grid[at + 1], vals[row, at]
    live = np.ones(at.size, dtype=bool)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        live &= (mid != lo) & (mid != hi)
        if not live.any():
            break
        g_mid = g(mid, branch)
        live &= np.isfinite(g_mid)
        same = live & ((g_mid > 0) == (g_lo > 0))
        lo = np.where(same, mid, lo)
        g_lo = np.where(same, g_mid, g_lo)
        hi = np.where(live & ~same, mid, hi)
    roots = 0.5 * (lo + hi)

    mags = np.where(finite, np.abs(vals), math.inf)
    edge = np.full((len(_BRANCHES), 1), math.inf)
    dip = finite & (mags <= np.hstack([edge, mags[:, :-1]])) & (mags <= np.hstack([mags[:, 1:], edge]))
    xs, branches = [], []
    for j, sign in enumerate(_BRANCHES[:, 0]):
        dips = np.flatnonzero(dip[j])
        dips = dips[np.argsort(mags[j, dips], kind="stable")[:8]]
        xs += [roots[row == j], grid[dips]]
        branches.append(np.full(np.count_nonzero(row == j) + dips.size, sign))
    return np.concatenate(xs), np.concatenate(branches)


def _gld_seed_scan(m1: float, m2: float, m3: float) -> np.ndarray:
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

    # overflow and negative discriminants become NaN defects, which the scan skips
    with np.errstate(all="ignore"):
        w, branch = _scan_seeds(g, ws)
        a = a_of_w(w, branch)
        b = (a + w) / m1
        c = b * w / (1.0 - w)
        keep = (b > 0) & (c > 0) & np.isfinite(c)
    return np.column_stack([a, b, c])[keep]


def _ngld_seed_scan(m1: float, m2: float, m3: float) -> np.ndarray:
    """Candidate new-generalized-family roots from a 1-D scan in c.

    The moment equations give  b = c[(1+c) m1 - a]  and a quadratic for a at
    each c; the remaining third-moment defect is scanned over a log grid.
    """
    cs = np.geomspace(1e-6, 1e6, 12000)

    def a_b_of_c(c, branch):
        tt = (1.0 + c) * m1
        aa = 1.0 + c
        bb = -2.0 * c * tt
        cc = c * tt * tt + tt - (1.0 + c) * c * m2
        disc = bb * bb - 4.0 * aa * cc
        a = (-bb + branch * np.sqrt(np.where(disc < 0, np.nan, disc))) / (2.0 * aa)
        a = np.where(a > 0, a, np.nan)
        b = c * (tt - a)
        b = np.where(b > 0, b, np.nan)
        return np.where(np.isnan(b), np.nan, a), b

    def g(c, branch):
        a, b = a_b_of_c(c, branch)
        return c * a * (a + 1.0) * (a + 2.0) + b * (b + 1.0) * (b + 2.0) - (1.0 + c) * c**3 * m3

    # overflow and negative discriminants become NaN defects, which the scan skips
    with np.errstate(all="ignore"):
        c, branch = _scan_seeds(g, cs)
        a, b = a_b_of_c(c, branch)
    return np.column_stack([a, b, c])[~np.isnan(b)]


def _collect_roots(results):
    roots = []
    best_residual = math.inf
    for _, p, raw, iters in results:
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


def _report_root(family: Family, roots, best_residual: float) -> SolveReport:
    """The report of the root :func:`_select_root` picks; EstimationError when there is none."""
    if not roots and best_residual == math.inf:
        raise EstimationError(
            f"{family.value} moment solve failed: no start ended with a finite defect", best_residual=None
        )
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


def _grid(k: int) -> np.ndarray:
    return np.array(list(itertools.product(_GRID_AXIS, repeat=k)))


def estimate_two_param(family, t: MomentTargets) -> SolveReport:
    """Solve {mean = xbar, variance = s2} for the power or new-weighted family.

    Damped Newton with central finite-difference Jacobians, multistarted over
    the fixed grid {0.1, 0.5, 1, 2, 5, 10}^2.  The solve ends in the first
    iteration where any start converges, and that start is returned (the
    first in grid order if several converge then).  Both families' moment
    maps were found injective, so every converged start gives the same root.
    """
    family = Family(family)
    if family not in (Family.PLD, Family.NWL):
        raise FamilyError(f"estimate_two_param handles pld and nwl, got {family.value}")
    results = _multistart(_moment_map(family), np.array([t.xbar, t.s2]), _grid(2), first_hit=True)
    return _report_root(family, *_collect_roots(results))


def _three_param_roots(family: Family, t: MomentTargets):
    """Distinct converged roots of the three-moment system, and the best residual seen.

    Starts come from the family's seed scan.  The ``gld`` scan is scale-free
    and covers every w = c/(c+b) in [1e-11, 1 - 1e-11] on both branches, so
    its starts are the only ones; a scan that yields none raises
    EstimationError.  The ``ngld`` scan covers c in [1e-6, 1e6] only, and
    narrow samples have their root beyond it, so the coarse grid is the
    fallback when no ``ngld`` scan seed converges.
    """
    moments = _moment_map(family)
    targets = np.array([t.xbar, t.s2, t.xbar3])
    m1 = t.xbar
    m2 = t.s2 + t.xbar * t.xbar
    m3 = t.xbar3
    if family is Family.GLD:
        scan = _gld_seed_scan(m1, m2, m3)
        if not len(scan):
            raise EstimationError(
                "gld moment solve failed: the seed scan found no candidate root", best_residual=None
            )
        return _collect_roots(_multistart(moments, targets, scan))
    roots, best_residual = _collect_roots(_multistart(moments, targets, _ngld_seed_scan(m1, m2, m3)))
    if not roots:
        # the scan's c range misses the root: fall back to the coarse grid
        roots, grid_best = _collect_roots(_multistart(moments, targets, _grid(3)))
        best_residual = min(best_residual, grid_best)
    return roots, best_residual


def estimate_three_param(family, t: MomentTargets) -> SolveReport:
    """Solve {mean, variance, third raw moment} for the three-parameter families.

    Starts come from a dense 1-D root scan on every solution branch, refined
    by damped Newton.  For ``ngld``, whose scan covers c in [1e-6, 1e6] only,
    the coarse grid {0.1, 0.5, 1, 2, 5, 10}^3 is the fallback when no scan
    seed converges; the scale-free ``gld`` scan has no fallback.
    These systems admit several exact roots for many targets; among the
    best-residual class of converged roots the one with the smallest ``c``
    (then lexicographically smallest (a, b)) is returned, which reproduces
    the published fits.
    """
    family = Family(family)
    if family not in (Family.GLD, Family.NGLD):
        raise FamilyError(f"estimate_three_param handles gld and ngld, got {family.value}")
    return _report_root(family, *_three_param_roots(family, t))


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
