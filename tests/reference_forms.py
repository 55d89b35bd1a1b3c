"""Independent cross-check forms for the test suite.

The distribution functions here are the unsimplified single-expression
variants of the shipped quantities, transcribed verbatim from the source
closed forms.  Their Whittaker M and upper incomplete gamma factors come from
mpmath, an implementation independent of the package.  They cancel badly at
large rate*x, which is exactly why the shipped code uses incomplete-gamma
compositions instead; at the moderate arguments used in tests both agree to
~1e-10.  Also provides textbook forms of the samplers of every family but
dtl, the exact dtl mean root, and an exact root oracle for the gld, ngld
and nwl moment systems, used to count their roots and to decide whether a
parameter vector is the canonical (smallest-c) root of its own moments.
Production code never imports this module.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from numpy.polynomial import Polynomial, polynomial

exp = math.exp


def _whit(kappa, mu, z):
    """Whittaker M_{kappa,mu}(z), evaluated by mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.whitm(kappa, mu, z))


def _upper_incomplete_gamma(a, z):
    """Non-regularized upper incomplete gamma: integral of t^(a-1) e^(-t) over [z, inf)."""
    with mpmath.workdps(30):
        return float(mpmath.gammainc(a, z))


# -- textbook densities and CDFs ---------------------------------------------

def pld_pdf(x, b, c):
    """c b^2/(1 + b) (1 + x^c) x^(c-1) e^{-b x^c}, at 40 digits; its x = 0 limit for x = 0."""
    if x == 0.0:
        return math.inf if c < 1.0 else (b * b / (1.0 + b) if c == 1.0 else 0.0)
    with mpmath.workdps(40):
        x, b, c = mpmath.mpf(x), mpmath.mpf(b), mpmath.mpf(c)
        t = x**c
        return float(c * b**2 / (1 + b) * (1 + t) * x ** (c - 1) * mpmath.exp(-b * t))


def lindley1_cdf(x, c):
    return 1.0 - (1.0 + c * x / (1.0 + c)) * exp(-c * x)


def tpld_cdf(x, b, c):
    return 1.0 - (b * c + c * x + 1.0) * exp(-c * x) / (b * c + 1.0)


def pld_cdf(x, b, c):
    t = x**c
    return ((-b * t - b - 1.0) * exp(-b * t) + b + 1.0) / (b + 1.0)


def gld_cdf(x, a, b, c, whittaker=_whit):
    m_val = whittaker(a / 2.0, a / 2.0 + 0.5, b * x)
    return (
        exp(-0.5 * b * x)
        * (
            x ** (a / 2.0) * (c * b ** (a / 2.0) + b ** (a / 2.0 + 1.0)) * m_val
            + b ** (a + 1.0) * x**a * exp(-0.5 * b * x) * (a + 1.0)
        )
    ) / ((c + b) * math.gamma(a + 2.0))


def ngld_cdf(x, a, b, c):
    G = math.gamma
    uig = _upper_incomplete_gamma
    z = c * x
    nb = (
        G(b + 2) * x**a * c ** (a + 1) * exp(-z) * a
        + G(a + 2) * x**b * c**b * exp(-z) * b
        - G(b + 2) * c * uig(a + 1, z) * a
        + G(b + 2) * x**a * c ** (a + 1) * exp(-z)
        + G(a + 2) * x**b * c**b * exp(-z)
        - G(b + 2) * c * uig(a + 1, z)
        + G(b + 2) * G(a + 2) * c
        - G(a + 2) * uig(b + 1, z) * b
        + G(b + 2) * G(a + 2)
        - G(a + 2) * uig(b + 1, z)
    )
    return nb / ((1.0 + c) * G(b + 2) * G(a + 2))


def nwl_cdf(x, b, c):
    nc = (
        -exp(-c * x) * b**2 * c * x
        + exp(-c * (1 + b) * x) * b * c * x
        - exp(-c * x) * b**2 * c
        - 2 * exp(-c * x) * b * c * x
        + exp(-c * (1 + b) * x) * b * c
        + exp(-c * (1 + b) * x) * c * x
        - exp(-c * x) * b**2
        - 2 * exp(-c * x) * b * c
        - exp(-c * x) * c * x
        + b**2 * c
        + exp(-c * (1 + b) * x) * c
        - 2 * exp(-c * x) * b
        - exp(-c * x) * c
        + b**2
        + c * b
        + exp(-c * (1 + b) * x)
        - exp(-c * x)
        + 2 * b
    )
    return nc / (b * (c * b + b + c + 2.0))


def dtl_cdf(x, c, x_l, x_u):
    # only usable while exp(c*(x_l + x_u)) stays in range
    nf = -exp(c * (x_l + x_u)) * (
        -((1 + (x_l + 1) * c) ** 2) * exp(-c * (x_l - x_u))
        - (1 + (x + 1) * c) * (1 + (x_u + 1) * c) * exp(c * (-x + x_l))
        + ((1 + (x + 1) * c) * exp(c * (-x + x_u)) + 1 + (x_u + 1) * c) * (1 + (x_l + 1) * c)
    )
    den = ((-1 + (-x_u - 1) * c) * exp(c * x_l) + (1 + (x_l + 1) * c) * exp(c * x_u)) ** 2
    return nf / den


def dtl_forms(x, c, x_l, x_u):
    """dtl (pdf, cdf, sf) at x from the antiderivative of (1 + t) e^{-ct}, to at least 40 digits.

    The mass of (1 + t) e^{-c (t - lo)} on [lo, hi] is
    (1 + lo)(1 - e^{-z})/c + (1 - e^{-z} - z e^{-z})/c^2 with z = c (hi - lo);
    1 - e^{-z} is taken by expm1, so only 1 - e^{-z} - z e^{-z} cancels; it
    loses log10(1/z) digits, about |log10(c (x_u - x_l))| plus 9 more at the
    tests' points 1e-9 of the window from either end, so the working
    precision grows by that many digits past 40.
    """
    lost = max(0, -math.floor(math.log10(c * (x_u - x_l))))
    with mpmath.workdps(50 + lost):
        x, c, x_l, x_u = (mpmath.mpf(v) for v in (x, c, x_l, x_u))

        def mass(lo, hi):
            z = c * (hi - lo)
            p1 = -mpmath.expm1(-z)
            return (1 + lo) * p1 / c + (p1 - z * mpmath.exp(-z)) / c**2

        total = mass(x_l, x_u)
        return (
            float((1 + x) * mpmath.exp(-c * (x - x_l)) / total),
            float(mass(x_l, x) / total),
            float(mpmath.exp(-c * (x - x_l)) * mass(x, x_u) / total),
        )


def dtl_moments(c, x_l, x_u):
    """dtl (mean, variance, m3) at 40 digits from the lower incomplete gamma integrals.

    With y = x - x_l on [0, w] and a = 1 + x_l, E[Y^j] is proportional to
    a I_j + I_{j+1}, where I_m = int_0^w y^m e^{-cy} dy = gamma(m+1, c w) / c^(m+1),
    which mpmath takes by its own series and continued fraction.  The
    variance is that of Y, E[Y^2] - E[Y]^2, which loses at most two of the
    40 digits; m3 is the binomial sum of E[Y^j] x_l^(3-j).
    """
    with mpmath.workdps(40):
        c, x_l, x_u = (mpmath.mpf(v) for v in (c, x_l, x_u))
        w, a = x_u - x_l, 1 + x_l

        def integral(m):
            return mpmath.gammainc(m + 1, 0, c * w) / c ** (m + 1)

        ey = [(a * integral(j) + integral(j + 1)) / (a * integral(0) + integral(1)) for j in range(4)]
        m3 = sum(mpmath.binomial(3, j) * x_l ** (3 - j) * ey[j] for j in range(4))
        return float(x_l + ey[1]), float(ey[2] - ey[1] ** 2), float(m3)


def dtl_mean_root(xbar, x_l, x_u, c0):
    """The c > 0 with dtl mean exactly ``xbar`` (a double, taken as exact), at 40 digits, by secant from c0.

    The mean is x_l + E[Y] with E[Y] as in :func:`dtl_moments`.
    """
    with mpmath.workdps(40):
        xbar, x_l, x_u = (mpmath.mpf(v) for v in (xbar, x_l, x_u))
        w, a = x_u - x_l, 1 + x_l

        def defect(c):
            def integral(m):
                return mpmath.gammainc(m + 1, 0, c * w) / c ** (m + 1)

            return x_l + (a * integral(1) + integral(2)) / (a * integral(0) + integral(1)) - xbar

        return float(mpmath.findroot(defect, mpmath.mpf(c0), tol=mpmath.mpf(10) ** -36))


def lognormal_variance_exact(m, sigma):
    """lognormal variance m^2 e^(sigma^2) (e^(sigma^2) - 1) at 40 digits, as an mpf (it may lie past the doubles)."""
    with mpmath.workdps(40):
        s2 = mpmath.mpf(sigma) ** 2
        return +(mpmath.mpf(m) ** 2 * mpmath.exp(s2) * mpmath.expm1(s2))


def pld_variance_exact(b, c):
    """pld variance m2 - mu^2 at 60 digits, from m_r = b^(-rs) Gamma(1 + rs) (b + 1 + rs)/(b + 1), s = 1/c.

    Var/mu^2 is about s^2, so the difference loses about 2 log10(c) of the 60 digits.
    """
    with mpmath.workdps(60):
        b, s = mpmath.mpf(b), 1 / mpmath.mpf(c)

        def raw(r):
            return b ** (-r * s) * mpmath.gamma(1 + r * s) * (b + 1 + r * s) / (b + 1)

        return float(raw(2) - raw(1) ** 2)


def mixture_sample(rng, n, w1, s1, s2, rate):
    """n draws of w1 Gamma(s1, rate) + (1 - w1) Gamma(s2, rate), drawn as written.

    A uniform per position picks its component; then the first component's
    variates fill the positions it picked, in order, and the second's the rest.
    """
    pick = rng.uniform(size=n) < w1
    out = np.empty(n)
    out[pick] = rng.gamma(s1, 1.0 / rate, np.count_nonzero(pick))
    out[~pick] = rng.gamma(s2, 1.0 / rate, np.count_nonzero(~pick))
    return out


def nwl_sample(rng, n, m2, m3, c):
    """n nwl draws from its part masses (m2, m3): Gamma(2 or 3) at a scale 1/r drawn by inversion."""
    pick = rng.uniform(size=n) < m2 / (m2 + m3)
    u = rng.uniform(size=n)
    scale = np.where(pick, 1.0 / c - u * m2, np.sqrt(1.0 / (c * c) - u * m3))
    return rng.gamma(np.where(pick, 2.0, 3.0), scale)


def lognormal_sample(rng, n, m, sigma):
    return m * np.exp(sigma * rng.standard_normal(n))


def nwl_forms(b, c, xs):
    """nwl (mean, variance, m3) and (pdf, sf, cdf) at each x in ``xs``, at 40 digits.

    The density is (1 + x) e^{-cx} (1 - e^{-cbx}) / N.  Its moments and tail
    come from the antiderivatives of x^k e^{-cx} at rates c and c2 = c(1 + b),
    taken as differences: E[X^r] N = r! (c^-(r+1) - c2^-(r+1))
    + (r+1)! (c^-(r+2) - c2^-(r+2)), the sf is (h(c) - h(c2)) / N with
    h(r) = e^{-rx} (1 + r + rx) / r^2, and the cdf is (G(c) - G(c2)) / N with
    G(r) = int_0^x (1 + t) e^{-rt} dt = (1 + 1/r)/r - h(r).  Each difference
    loses log10(1/b) digits, at most 12 of the 40 on the tests' points.
    """
    with mpmath.workdps(40):
        b, c = mpmath.mpf(b), mpmath.mpf(c)
        c2 = c * (1 + b)

        def moment(r):
            return mpmath.factorial(r) * (c ** -(r + 1) - c2 ** -(r + 1)) + mpmath.factorial(r + 1) * (
                c ** -(r + 2) - c2 ** -(r + 2)
            )

        def h(r, x):
            return mpmath.exp(-r * x) * (1 + r + r * x) / r**2

        n = moment(0)
        m1 = moment(1) / n
        moments = [float(m1), float(moment(2) / n - m1 * m1), float(moment(3) / n)]
        points = []
        for x in (mpmath.mpf(x) for x in xs):
            pdf = (1 + x) * mpmath.exp(-c * x) * -mpmath.expm1(-c * b * x) / n
            cdf = ((1 + 1 / c) / c - h(c, x) - (1 + 1 / c2) / c2 + h(c2, x)) / n
            points.append((float(pdf), float((h(c, x) - h(c2, x)) / n), float(cdf)))
        return moments, points


def lognormal_cdf(x, m, sigma):
    return 0.5 + 0.5 * math.erf(math.sqrt(2.0) * (-math.log(m) + math.log(x)) / (2.0 * sigma))


# -- textbook variances and moments -----------------------------------------

def pld_variance(b, c):
    G = math.gamma
    na = (
        -(b ** (-2.0 / c)) * G((c + 1) / c) ** 2 * c**2
        + b ** (-2.0 / c) * G((c + 2) / c) * b * c**2
        - b ** ((2 * c - 2.0) / c) * G((c + 1) / c) ** 2 * c**2
        - 2 * G((c + 1) / c) ** 2 * b ** ((-2.0 + c) / c) * c**2
        + b ** ((-2.0 + c) / c) * G((c + 2) / c) * b * c**2
        - 2 * b ** (-2.0 / c) * G((c + 1) / c) ** 2 * c
        + 2 * b ** (-2.0 / c) * G((c + 2) / c) * b * c
        + b ** (-2.0 / c) * G((c + 2) / c) * c**2
        - 2 * G((c + 1) / c) ** 2 * b ** ((-2.0 + c) / c) * c
        + b ** ((-2.0 + c) / c) * G((c + 2) / c) * c**2
        - b ** (-2.0 / c) * G((c + 1) / c) ** 2
        + 2 * b ** (-2.0 / c) * G((c + 2) / c) * c
    )
    da = (b + 1.0) ** 2 * c**2
    return na / da


def pld_mean(b, c):
    return (
        (b ** (-1.0 / c) * c + b ** ((c - 1.0) / c) * c + b ** (-1.0 / c))
        * math.gamma((c + 1.0) / c)
        / ((b + 1.0) * c)
    )


def nwl_variance(b, c):
    nd = (
        b**4 * c**2
        + 4 * b**4 * c
        + 4 * b**3 * c**2
        + 2 * b**4
        + 18 * b**3 * c
        + 7 * b**2 * c**2
        + 12 * b**3
        + 32 * b**2 * c
        + 6 * b * c**2
        + 24 * b**2
        + 30 * b * c
        + 2 * c**2
        + 24 * b
        + 12 * c
        + 12
    )
    return nd / (c**2 * (b * c + b + c + 2.0) ** 2 * (1.0 + b) ** 2)


def nwl_raw_moment(r, b, c):
    w = (1.0 + b) / b
    ne = -(
        c ** (1.0 - r) * b ** (1.0 - r) * w ** (-r)
        + b ** (-r) * w ** (-r) * c ** (-r) * r
        - c ** (-r) * b**2 * r
        + c ** (1.0 - r) * b ** (-r) * w ** (-r)
        - c ** (1.0 - r) * b**2
        + b ** (-r) * w ** (-r) * c ** (-r)
        - c ** (-r) * b**2
        - 2 * c ** (-r) * b * r
        - 2 * c ** (1.0 - r) * b
        - 2 * c ** (-r) * b
        - c ** (-r) * r
        - c ** (1.0 - r)
        - c ** (-r)
    ) * math.gamma(1.0 + r)
    return ne / (b * (b * c + b + c + 2.0))


def dtl_raw_moment(r, c, x_l, x_u, whittaker=_whit):
    mu_arg = r / 2.0 + 0.5
    pref = c ** (1.0 - r / 2.0) + c ** (-r / 2.0) * (r + 1.0)
    lower_term = 0.0
    if x_l > 0:
        lower_term = x_l ** (r / 2.0) * exp(-0.5 * c * x_l) * pref * whittaker(r / 2.0, mu_arg, c * x_l)
    ng = (
        -lower_term
        + pref * exp(-0.5 * c * x_u) * x_u ** (r / 2.0) * whittaker(r / 2.0, mu_arg, c * x_u)
        + c * (r + 1.0) * (exp(-c * x_l) * x_l ** (r + 1.0) - exp(-c * x_u) * x_u ** (r + 1.0))
    )
    den = (
        (1.0 + (x_l + 1.0) * c) * exp(-c * x_l) - (1.0 + (x_u + 1.0) * c) * exp(-c * x_u)
    ) * (r + 1.0)
    return ng / den


def dtl_mean(c, x_l, x_u):
    num = (2 + (x_u**2 + x_u) * c**2 + (2 * x_u + 1) * c) * exp(c * x_l) - exp(c * x_u) * (
        2 + (x_l**2 + x_l) * c**2 + (2 * x_l + 1) * c
    )
    den = -c * ((-1 + (-x_u - 1) * c) * exp(c * x_l) + exp(c * x_u) * (1 + (x_l + 1) * c))
    return num / den


def gld_hazard(x, a, b, c, whittaker=_whit):
    num = -(b ** (a + 1.0)) * x ** (a - 1.0) * (c * x + a) * exp(-b * x) * (a + 1.0)
    den = (
        exp(-0.5 * b * x)
        * x ** (a / 2.0)
        * (c * b ** (a / 2.0) + b ** (a / 2.0 + 1.0))
        * whittaker(a / 2.0, a / 2.0 + 0.5, b * x)
        + x**a * b ** (a + 1.0) * (a + 1.0) * exp(-b * x)
        - (c + b) * math.gamma(a + 2.0)
    )
    return num / den


# -- moment-system roots -----------------------------------------------------
#
# The first three raw moments of gld and ngld fix the parameters only up to a
# few discrete roots, and the first two of nwl to at most one.  Each system is
# eliminated over the rationals to one polynomial, whose real roots Sturm
# counts isolate; no estimator code is used.

def gld_raw_moments(a, b, c):
    w = c / (c + b)
    return (
        (a + w) / b,
        (a + 1.0) * (a + 2.0 * w) / b**2,
        (a + 1.0) * (a + 2.0) * (a + 3.0 * w) / b**3,
    )


def ngld_raw_moments(a, b, c):
    return (
        (c * a + b) / ((1.0 + c) * c),
        (c * a * (a + 1.0) + b * (b + 1.0)) / ((1.0 + c) * c**2),
        (c * a * (a + 1.0) * (a + 2.0) + b * (b + 1.0) * (b + 2.0)) / ((1.0 + c) * c**3),
    )


_T = Polynomial([Fraction(0), Fraction(1)])   # the unknown, with exact coefficients


def _divmod(num, den):
    """Quotient and remainder of num / den: lists of Fractions, lowest degree first, with den[-1] != 0."""
    num, quot = list(num), [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        quot[i] = num[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            num[i + j] -= quot[i] * d
    return quot, num[: len(den) - 1]


def _sturm_chain(p):
    """p, p' and Euclid's negated remainders, each scaled by a positive factor to integer coefficients."""
    chain = [p, [i * x for i, x in enumerate(p)][1:] or [Fraction(0)]]
    while len(chain[-1]) > 1 and any(rem := _divmod(chain[-2], chain[-1])[1]):
        rem = rem[: max(i for i, x in enumerate(rem) if x) + 1]
        chain.append([-x / abs(rem[-1]) for x in rem])
    dens = [math.lcm(*(x.denominator for x in q)) for q in chain]
    return [[int(x * d) for x in q] for q, d in zip(chain, dens)]


def _sign_changes(chain, x):
    """Sign changes along the integer chain at the rational x, zeros skipped."""
    signs = []
    for q in chain:
        value, scale = 0, 1   # q(x) times a positive power of x's denominator, by Horner
        for coef in reversed(q):
            value = value * x.numerator + coef * scale
            scale *= x.denominator
        if value:
            signs.append(value > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def real_roots(p, lo, hi):
    """Each distinct real root of the exact polynomial p in (lo, hi], 0 <= lo < hi, as a rational.

    Sturm's theorem: once gcd(p, p'), the chain's last member, is divided out,
    the chain's sign changes fall by one across each root of p and nowhere
    else.  Bisecting by those counts, each root comes as the upper end of an
    interval that holds it alone and is at most hi / 2^60 wide.
    """
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        chain = _sturm_chain(_divmod(p, [Fraction(x) for x in chain[-1]])[0])
    roots, todo = [], [(lo, hi, _sign_changes(chain, lo), _sign_changes(chain, hi))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo - v_hi == 1 and hi - lo <= hi / 2**60:
            roots.append(hi)
        elif v_lo > v_hi:
            mid = (lo + hi) / 2
            v_mid = _sign_changes(chain, mid)
            todo += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)


def _gld_system(m1, m2, m3):
    """gld's system in w = c/(c+b) on (0, 1].

    With r2 = m2/m1^2 and r3 = m3/(m1 m2) the moments read
    F1 = (a+1)(a+2w) - r2 (a+w)^2 = 0 and F2 = (a+2)(a+3w) - r3 (a+w)(a+2w) = 0,
    quadratics p2 a^2 + p1 a + p0 and q2 a^2 + q1 a + q0.  Their resultant
    (p2 q0 - p0 q2)^2 - (p2 q1 - p1 q2)(p1 q0 - p0 q1) is w times a cubic, at
    whose roots a = (q0 p2 - p0 q2)/(p1 q2 - q1 p2), b = (a + w)/m1 and c = b w/(1 - w).
    """
    r2, r3, w = m2 / m1**2, m3 / (m1 * m2), _T
    p0, p1, p2 = 2 * w - r2 * w**2, 1 + 2 * (1 - r2) * w, 1 - r2
    q0, q1, q2 = 6 * w - 2 * r3 * w**2, 2 + 3 * (1 - r3) * w, 1 - r3
    cubic, rem = _divmod(((p2 * q0 - p0 * q2) ** 2 - (p2 * q1 - p1 * q2) * (p1 * q0 - p0 * q1)).trim().coef, [0, 1])
    a_num, a_den = q0 * p2 - p0 * q2, p1 * q2 - q1 * p2
    assert not any(rem)

    def params_at(w):
        den = polynomial.polyval(w, a_den.coef)
        if w == 1 or not den:
            return None
        a = polynomial.polyval(w, a_num.coef) / den
        return a, (a + w) / m1, (a + w) / m1 * w / (1 - w)

    return cubic, Fraction(1), params_at


def _ngld_system(m1, m2, m3):
    """ngld's system in c, on (0, a power of two past Cauchy's bound on the roots].

    The mean gives b = c((1+c) m1 - a), and then the other moments read
    G1 = c a(a+1) + b(b+1) - (1+c) c^2 m2 = 0 and
    G2 = c a(a+1)(a+2) + b(b+1)(b+2) - (1+c) c^3 m3 = 0, with coefficients
    g and h in a once their factor c is divided out.  Pseudo-reducing G2 by
    G1 leaves r1 a + r0, so a = -r0/r1, and g2 r0^2 - g1 r0 r1 + g0 r1^2 is
    (1+c)^2 times the resultant of G1/c and G2/c, which is (1+c)^5 times a
    quintic with c^5 coefficient (m1^2 - m2)^3 != 0: at most five roots,
    apart from a degenerate c where r0 = r1 = 0.
    """
    c, t = _T, (1 + _T) * m1
    g0, g1, g2 = c * t**2 + t - (1 + c) * c * m2, -2 * c * t, 1 + c
    h0, h1 = c**2 * t**3 + 3 * c * t**2 + 2 * t - (1 + c) * c**2 * m3, -3 * c**2 * t**2 - 6 * c * t
    h2, h3 = 3 + 3 * c + 3 * c**2 * t, 1 - c**2
    k0, k1, k2 = g2 * h0, g2 * h1 - h3 * g0, g2 * h2 - h3 * g1   # g2 G2 - h3 a G1, quadratic in a
    r0, r1 = g2 * k0 - k2 * g0, g2 * k1 - k2 * g1
    quintic, rem = _divmod((g2 * r0**2 - g1 * r0 * r1 + g0 * r1**2).trim().coef, ((1 + c) ** 7).coef)
    assert not any(rem)
    cauchy = 1 + max(abs(x / quintic[-1]) for x in quintic[:-1])

    def params_at(c):
        den = polynomial.polyval(c, r1.coef)
        if not den:
            return None
        a = -polynomial.polyval(c, r0.coef) / den
        return a, c * ((1 + c) * m1 - a), c

    return quintic, Fraction(2 ** math.ceil(cauchy).bit_length()), params_at


def _nwl_system(m1, m2, m3):
    """nwl's system in v = 1/(1+b) on (0, 1]; m3 is not matched.

    With G_j = 1 + v + ... + v^j the raw moments are
    m_r = r! (c G_r + (r+1) G_{r+1}) / (c^r (c + G_1)), so the mean reads
    m1 c^2 + (m1 - 1) G_1 c - 2 G_2 = 0 and the second moment
    m2 c^3 + m2 G_1 c^2 - 2 G_2 c - 6 G_3 = 0.  Reducing the cubic by the
    quadratic leaves alpha c - beta, with
    alpha = 2 m1 (m2 - m1) G_2 - m2 (m1 - 1) G_1^2 and
    beta = 6 m1^2 G_3 - 2 m2 G_1 G_2, so c = beta/alpha at every root, and
    alpha^2 times the quadratic at that c is the sextic
    m1 beta^2 + (m1 - 1) G_1 alpha beta - 2 G_2 alpha^2.
    """
    v = _T
    g1, g2 = 1 + v, 1 + v + v**2
    alpha = 2 * m1 * (m2 - m1) * g2 - m2 * (m1 - 1) * g1**2
    beta = 6 * m1**2 * (g2 + v**3) - 2 * m2 * g1 * g2
    sextic = m1 * beta**2 + (m1 - 1) * g1 * alpha * beta - 2 * g2 * alpha**2

    def params_at(v):
        den = polynomial.polyval(v, alpha.coef)
        if v == 1 or not den:
            return None
        return (1 - v) / v, polynomial.polyval(v, beta.coef) / den

    return list(sextic.trim().coef), Fraction(1), params_at


def moment_system(family, m1, m2, m3):
    """(P, hi, params_at) of the "gld", "ngld" or "nwl" system at raw moments m1, m2, m3, taken as exact.

    Each root of the system is params_at(x), not None, at a root x of the polynomial P in (0, hi].
    """
    systems = {"gld": _gld_system, "ngld": _ngld_system, "nwl": _nwl_system}
    return systems[family](*(Fraction(m) for m in (m1, m2, m3)))


def moment_roots(family, m1, m2, m3):
    """Every parameter vector > 0 of the "gld", "ngld" or "nwl" family with raw moments m1, m2, m3, as floats."""
    poly, hi, params_at = moment_system(family, m1, m2, m3)
    roots = [params_at(x) for x in real_roots(poly, Fraction(0), hi)]
    return [tuple(map(float, r)) for r in roots if r and min(r) > 0]


def is_canonical_root(family, params, rtol=1e-5):
    """True when ``params`` matches exactly one root of its own moments at rtol, and that root has the smallest c."""
    roots = moment_roots(family, *{"gld": gld_raw_moments, "ngld": ngld_raw_moments}[family](*params))
    match = [r for r in roots if np.allclose(params, r, rtol=rtol, atol=0.0)]
    return len(match) == 1 and match[0][-1] == min(r[-1] for r in roots)
