import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

import lindleyfit as lf
import reference_forms as ref
from conftest import ALL_FAMILIES, SELF_SAMPLE_SPECS, interior_grid, random_spec
from lindleyfit.distributions import _MIXTURES, Family, _nwl_masses
from lindleyfit.errors import (
    DomainError,
    FamilyError,
    ParameterError,
    SurvivalUnderflowError,
)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "maker,args",
        [
            (lf.lindley1, (0.0,)),
            (lf.lindley1, (-1.0,)),
            (lf.tpld, (1.0, -2.0)),
            (lf.tpld, (-0.5, 2.0)),      # b*c = -1
            (lf.tpld, (-1.0, 2.0)),
            (lf.pld, (0.0, 1.0)),
            (lf.gld, (1.0, -1.0, 1.0)),
            (lf.ngld, (1.0, 1.0, 0.0)),
            (lf.nwl, (-0.1, 1.0)),
            (lf.dtl, (2.0, 1.0, 1.0)),   # x_l == x_u
            (lf.dtl, (2.0, -0.1, 1.0)),
            (lf.dtl, (0.0, 0.1, 1.0)),
            (lf.lognormal, (0.0, 1.0)),
            (lf.lognormal, (1.0, -0.2)),
        ],
    )
    def test_invalid_parameters(self, maker, args):
        with pytest.raises(ParameterError):
            maker(*args)

    def test_negative_b_with_bc_above_minus_one_is_legal(self):
        spec = lf.tpld(-0.099, 4.2)
        assert spec.params == (-0.099, 4.2)

    def test_non_numeric_parameter(self):
        with pytest.raises(ParameterError, match="must be real numbers"):
            lf.DistributionSpec(Family.NWL, (1.0, "two"))

    def test_arity_and_finiteness(self):
        with pytest.raises(ParameterError):
            lf.DistributionSpec(Family.GLD, (1.0, 2.0))
        with pytest.raises(ParameterError):
            lf.DistributionSpec(Family.LINDLEY1, (math.inf,))

    def test_support(self):
        assert lf.support(lf.dtl(2.0, 0.1, 3.0)) == lf.Support(0.1, 3.0)
        assert lf.support(lf.lindley1(1.0)) == lf.Support(0.0, math.inf)

    def test_k_params_counts_truncation_bounds(self):
        assert lf.dtl(2.0, 0.1, 3.0).k_params == 3
        assert lf.lindley1(2.0).k_params == 1
        assert lf.lognormal(1.0, 0.5).k_params == 2


class TestPdf:
    def test_lindley1_at_zero(self):
        # f(0) = c^2/(1+c), not zero
        assert lf.pdf(lf.lindley1(2.0), 0.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_dtl_zero_outside_truncation(self):
        spec = lf.dtl(2.0, 0.5, 3.0)
        assert lf.pdf(spec, 0.3) == 0.0
        assert lf.pdf(spec, 3.5) == 0.0
        assert lf.pdf(spec, 0.5) > 0.0

    def test_gld_point_value(self):
        # 50-digit evaluation of the closed form gave 0.48008958783297374
        assert lf.pdf(lf.gld(2.0, 3.0, 0.5), 1.0) == pytest.approx(
            0.48008958783297374, rel=1e-12
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowed_weight_keeps_the_infinite_density_at_zero(self):
        # w2 = b/(c+b) rounds to 0 on the Gamma(a = 0.5) component, which is inf at 0
        assert lf.pdf(lf.gld(0.5, 1e-300, 1e300), 0.0) == math.inf

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        for fam in ALL_FAMILIES:
            spec = random_spec(fam, rng, nonneg=True)
            xs = np.concatenate([[-1.0, 0.0], interior_grid(spec), [1e4]])
            assert np.all(lf.pdf(spec, xs) >= 0.0), spec

    def test_scalar_and_array_agree(self):
        spec = lf.nwl(1.57, 3.77)
        xs = np.array([0.2, 0.9, 2.5])
        arr = lf.pdf(spec, xs)
        assert arr.shape == (3,)
        for x, v in zip(xs, arr):
            assert lf.pdf(spec, float(x)) == v

    def test_nonfinite_x_rejected(self):
        with pytest.raises(DomainError):
            lf.pdf(lf.lindley1(1.0), math.nan)

    def test_spot_normalization(self):
        rng = np.random.default_rng(17)
        for fam in ALL_FAMILIES:
            spec = random_spec(fam, rng)
            sup = lf.support(spec)
            hi = sup.upper if math.isfinite(sup.upper) else np.inf
            total, err = integrate.quad(lambda x: lf.pdf(spec, x), sup.lower, hi, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8), spec


class TestCdf:
    def test_lower_boundary(self):
        assert lf.cdf(lf.lindley1(2.0), 0.0) == 0.0

    def test_dtl_upper_truncation(self):
        assert lf.cdf(lf.dtl(2.71, 0.019, 1.46), 1.46) == 1.0

    def test_gld_against_quadrature(self):
        # adaptive quadrature of the density over [0, 1] gave 0.768845754006346
        assert lf.cdf(lf.gld(2.0, 3.0, 0.5), 1.0) == pytest.approx(
            0.768845754006346, rel=1e-9
        )

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(11)
        for fam in ALL_FAMILIES:
            spec = random_spec(fam, rng, nonneg=True)
            xs = np.linspace(-0.5, 30.0, 400)
            f = lf.cdf(spec, xs)
            assert np.all((f >= 0.0) & (f <= 1.0))
            assert np.all(np.diff(f) >= -1e-15)

    def test_matches_pdf_by_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for fam in ALL_FAMILIES:
            spec = random_spec(fam, rng, nonneg=True)
            for x in interior_grid(spec, n=9):
                fd = (lf.cdf(spec, x + h) - lf.cdf(spec, x - h)) / (2.0 * h)
                assert fd == pytest.approx(lf.pdf(spec, x), abs=1e-6), (spec, x)

    def test_sf_complements_cdf(self):
        rng = np.random.default_rng(19)
        for fam in ALL_FAMILIES:
            spec = random_spec(fam, rng, nonneg=True)
            for x in interior_grid(spec, n=7):
                assert lf.sf(spec, x) + lf.cdf(spec, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_nwl_at_huge_b(self):
        # c (1 + b) leaves the doubles: the masses written over it were 0, so the
        # pdf and cdf divided by zero, and the sf's (1 + b) u overflowed
        spec = lf.nwl(1e300, 1e10)
        xs = np.array([5e-11, 1e-10, 3e-10])
        dens, f, s = lf.pdf(spec, xs), lf.cdf(spec, xs), lf.sf(spec, xs)
        assert np.all(np.isfinite(dens)) and np.all(np.isfinite(f)) and np.all(np.isfinite(s))
        np.testing.assert_allclose(f + s, 1.0, rtol=0.0, atol=1e-12)


# Every family, with the cases where an edge is easy to get wrong: a signed
# tpld density, a pld whose x**c underflows next to 0 and whose lindley1
# weights sum to 1 - 2^-53, a gld density that is inf at 0, a dtl window off
# 0, and a lognormal whose x / m underflows at the first subnormal.
EDGE_SPECS = [
    lf.lindley1(0.04),
    lf.tpld(-0.3, 2.0),
    lf.pld(0.04, 3.0),
    lf.pld(2.0, 0.5),
    lf.gld(0.5, 1.0, 2.0),
    lf.ngld(0.3, 2.5, 1.2),
    lf.nwl(0.5, 1.5),
    lf.dtl(0.5, 2.0, 5.0),
    lf.dtl(1.5, 0.0, 3.0),
    lf.lognormal(10.0, 0.5),
]


class TestSupportEdges:
    """pdf, cdf and sf below, at and above each support edge, and one ulp from it."""

    @staticmethod
    def points(spec):
        """(outside below, on the lower edge, inside, on the upper edge, outside above) point sets."""
        sup = lf.support(spec)
        lo, hi = sup.lower, sup.upper
        below = [-1e300, lo - 1.0, np.nextafter(lo, -np.inf)]
        at_lo = [lo, -0.0] if lo == 0.0 else [lo]
        finite = math.isfinite(hi)
        inside = [np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf) if finite else 1e300]
        at_hi = [hi] if finite else []
        above = [np.nextafter(hi, np.inf), hi + 1.0, 1e300] if finite else []
        return below, at_lo, inside, at_hi, above

    @staticmethod
    def evaluate(form, spec, xs):
        """``form`` at xs as an array, checked against the scalar calls point by point."""
        arr = form(spec, np.array(xs, dtype=float))
        scalars = np.array([form(spec, float(x)) for x in xs])
        assert np.array_equal(arr, scalars), (spec, xs, arr, scalars)
        return arr

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=str)
    def test_fill_values_and_edges(self, spec):
        below, at_lo, inside, at_hi, above = self.points(spec)
        outside = below + above
        assert np.all(self.evaluate(lf.pdf, spec, outside) == 0.0)
        dens = self.evaluate(lf.pdf, spec, at_lo + inside + at_hi)
        assert not np.any(np.isnan(dens)), dens   # tpld(-0.3, 2)'s density is signed near 0
        assert np.all(self.evaluate(lf.cdf, spec, below + at_lo) == 0.0)
        assert np.all(self.evaluate(lf.cdf, spec, at_hi + above) == 1.0)
        assert np.all(self.evaluate(lf.sf, spec, below + at_lo) == 1.0)
        assert np.all(self.evaluate(lf.sf, spec, at_hi + above) == 0.0)
        # one ulp inside an edge the functions are within rounding of their edge values
        near = self.evaluate(lf.cdf, spec, inside)
        assert abs(near[0]) <= 1e-6 and abs(1.0 - near[-1]) <= 1e-6, near
        near = self.evaluate(lf.sf, spec, inside)
        assert abs(1.0 - near[0]) <= 1e-6 and abs(near[-1]) <= 1e-6, near

    def test_pld_sf_keeps_its_edge_value_where_the_power_underflows(self):
        # x**3 is 0 below about 1e-108, where lindley1(0.04)'s weights would sum to 1 - 2^-53
        spec = lf.pld(0.04, 3.0)
        assert lf.sf(spec, 1e-200) == 1.0
        assert lf.cdf(spec, 1e-200) == 0.0


    @pytest.mark.parametrize(
        "spec", [lf.lindley1(0.04), lf.tpld(0.5, 0.04), lf.gld(0.5, 0.04, 0.04), lf.ngld(2.0, 3.0, 0.04)], ids=str
    )
    def test_mixture_limits_are_exact_inside_the_support(self, spec):
        # lindley1(0.04)'s weights sum to 1 - 2^-53, and the cdf and sf stopped one ulp short of 1
        assert lf.cdf(spec, 1e300) == 1.0
        assert lf.sf(spec, 1e-300) == 1.0


class TestTextbookFormCrossChecks:
    """The shipped gamma-composition CDFs against the one-expression forms."""

    CASES = [
        (lf.lindley1(2.0), lambda x: ref.lindley1_cdf(x, 2.0)),
        (lf.tpld(0.5, 2.0), lambda x: ref.tpld_cdf(x, 0.5, 2.0)),
        (lf.tpld(-0.099, 4.2), lambda x: ref.tpld_cdf(x, -0.099, 4.2)),
        (lf.pld(2.66, 2.28), lambda x: ref.pld_cdf(x, 2.66, 2.28)),
        (lf.gld(2.0, 3.0, 0.5), lambda x: ref.gld_cdf(x, 2.0, 3.0, 0.5)),
        (lf.gld(4.8, 8.38, 12.01), lambda x: ref.gld_cdf(x, 4.8, 8.38, 12.01)),
        (lf.ngld(7.34, 1.57, 10.61), lambda x: ref.ngld_cdf(x, 7.34, 1.57, 10.61)),
        (lf.ngld(1.2, 0.8, 2.0), lambda x: ref.ngld_cdf(x, 1.2, 0.8, 2.0)),
        (lf.nwl(1.57, 3.77), lambda x: ref.nwl_cdf(x, 1.57, 3.77)),
        (lf.nwl(0.008, 3.889), lambda x: ref.nwl_cdf(x, 0.008, 3.889)),
        (lf.dtl(2.71, 0.019, 1.46), lambda x: ref.dtl_cdf(x, 2.71, 0.019, 1.46)),
        (lf.lognormal(0.577, 0.5), lambda x: ref.lognormal_cdf(x, 0.577, 0.5)),
    ]

    @pytest.mark.parametrize("spec,form", CASES, ids=[str(s) for s, _ in CASES])
    def test_cdf_forms_agree(self, spec, form):
        for x in interior_grid(spec, n=15):
            assert lf.cdf(spec, x) == pytest.approx(form(x), abs=1e-9), x

    DTL_RATES = [1e-300, 1e-200, 1e-160, 1e-100, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 2.71, 25.0, 300.0]
    DTL_WINDOWS = [(0.0, 1.0), (0.019, 1.46), (0.08, 60.0), (5.0, 6.0), (1000.0, 1001.0), (0.0, 1e3)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("window", DTL_WINDOWS, ids=str)
    @pytest.mark.parametrize("c", DTL_RATES)
    def test_dtl_forms_against_mpmath(self, c, window):
        # pdf, cdf and sf within 1e-12 of the exact value wherever it is at
        # least 1e-300, ends of the window included; the normaliser written as
        # a difference of two exponential terms lost every digit at small c w,
        # and its incomplete gammas P(1, c w) and P(2, c w) underflow below 1e-154
        x_l, x_u = window
        spec = lf.dtl(c, x_l, x_u)
        fractions = np.concatenate([[1e-9, 1e-3, 1.0 - 1e-3, 1.0 - 1e-9], np.linspace(0.0, 1.0, 17)])
        xs = x_l + fractions * (x_u - x_l)
        got = np.array([lf.pdf(spec, xs), lf.cdf(spec, xs), lf.sf(spec, xs)])
        assert not np.isnan(got).any()
        for i, x in enumerate(xs):
            for form, g, want in zip(("pdf", "cdf", "sf"), got[:, i], ref.dtl_forms(x, c, x_l, x_u)):
                if want >= 1e-300:
                    assert g == pytest.approx(want, rel=1e-12), (form, x, g, want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [1e299, 5e299])
    def test_dtl_forms_where_the_mass_overflows(self, x):
        # the mass w (K1 + K2) of dtl(1e-310, 0, 1e300) is about 5e599; the forms
        # read it per unit width, where w^2 P(2, c w) / (c w)^2 overflowed: the
        # pdf was 0 and the cdf and sf NaN, with a RuntimeWarning
        spec = lf.dtl(1e-310, 0.0, 1e300)
        got = (lf.pdf(spec, x), lf.cdf(spec, x), lf.sf(spec, x))
        for form, g, want in zip(("pdf", "cdf", "sf"), got, ref.dtl_forms(x, 1e-310, 0.0, 1e300)):
            assert g == pytest.approx(want, rel=1e-12, abs=0.0), (form, g, want)

    DTL_MOMENT_CASES = [
        (c, x_l, x_u)
        for c in (1e-300, 1e-110, 1e-100, 1e-80, 1e-20, 1e-3, 1.0, 40.0, 1e3)
        for x_l, x_u in ((0.0, 1.0), (5.0, 6.0), (1000.0, 1001.0))
    ] + [(2.71, 0.019, 1.46), (1e-3, 0.0, 1e103)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c,x_l,x_u", DTL_MOMENT_CASES)
    def test_dtl_moments_against_mpmath(self, c, x_l, x_u):
        # mean, variance and m3 within 1e-12 of the exact value wherever it is
        # at least 1e-300; moments taken from P(j, c w) itself, which underflows,
        # turned the variance negative below c w = 1e-75 and the mean to 0
        spec = lf.dtl(c, x_l, x_u)
        got = [lf.mean(spec), lf.variance(spec), lf.raw_moment(spec, 3)]
        for what, g, want in zip(("mean", "variance", "m3"), got, ref.dtl_moments(c, x_l, x_u)):
            if want >= 1e-300:
                assert g == pytest.approx(want, rel=1e-12, abs=0.0), (what, g, want)

    def test_dtl_raw_moments_stop_at_order_4(self):
        # the window's P(j, c w) / (c w)^j are kept normal for j <= 6 only
        with pytest.raises(DomainError):
            lf.raw_moment(lf.dtl(2.71, 0.019, 1.46), 5)

    def test_pld_pdf_form(self):
        # the change-of-variables density against the one-expression form,
        # with its x = 0 limits: inf for c < 1, b^2/(1+b) at c = 1, 0 for c > 1
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 60)])
        for b in (0.01, 0.1, 1.0, 2.66, 10.0, 50.0):
            for c in (0.3, 0.9, 1.0, 2.28, 7.0):
                got = lf.pdf(lf.pld(b, c), xs)
                assert not np.isnan(got).any()
                assert got[0] == pytest.approx(ref.pld_pdf(0.0, b, c), rel=1e-15)
                for x, g in zip(xs[1:], got[1:]):
                    want = ref.pld_pdf(x, b, c)
                    if want >= 1e-300:
                        assert g == pytest.approx(want, rel=1e-12), (b, c, x, g, want)

    def test_gld_closed_form_hazard(self):
        spec = lf.gld(2.0, 3.0, 0.5)
        for x in (0.3, 1.0, 2.2):
            assert lf.hazard(spec, x) == pytest.approx(
                ref.gld_hazard(x, 2.0, 3.0, 0.5), rel=1e-9
            )

    def test_pld_variance_form(self):
        for b, c in [(2.66, 2.28), (1.0, 1.0), (3.33, 1.27), (0.6, 0.8)]:
            assert lf.variance(lf.pld(b, c)) == pytest.approx(
                ref.pld_variance(b, c), rel=1e-10
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("b", [1e-2, 0.3, 2.0, 1e2])
    def test_pld_variance_against_mpmath(self, b):
        # Var/mu^2 is about 1/c^2, so mu2' - mu^2 lost about 2 log10(c) digits:
        # 3.2e-8 relative at c = 1e4 and 1.3e-2 at 1e7 for b = 2
        cs = np.concatenate([np.geomspace(0.5, 1e10, 41), [19.99, 20.0, 20.01]])   # s = 1/c = 0.05 switches forms
        got = [lf.variance(lf.pld(b, c)) for c in cs]
        for c, g in zip(cs, got):
            assert g == pytest.approx(ref.pld_variance_exact(b, c), rel=1e-12, abs=0.0), c

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1e-300, 1e-250, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e250])
    def test_lognormal_variance_against_mpmath(self, m):
        # e^(s2) expm1(s2) m m overflowed before the m m: at m = 1e-250, sigma =
        # 26.28 that product is 1e600, where the variance is 1e100
        for sigma in [1e-8, 1e-3, 0.5, 1.0, 3.0, 10.0, 20.0, 26.28, 26.7, 30.0, 37.0]:
            exact = ref.lognormal_variance_exact(m, sigma)
            if 1e-300 <= exact <= 1e308:
                assert lf.variance(lf.lognormal(m, sigma)) == pytest.approx(float(exact), rel=1e-12, abs=0.0), sigma

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m,sigma", [(1.0, 1.0), (0.577, 0.5), (1e3, 0.1), (1e-3, 3.0)])
    def test_lognormal_tails_against_mpmath(self, m, sigma):
        # cdf and sf within 1e-12 of the normal integral at z = ln(x/m)/sigma in
        # [-8, 8]; the cdf written as 0.5 + 0.5 erf(z/sqrt 2) cancelled below the
        # median, 1.3e-10 off at z = -6 and 1.8e-2 at z = -8
        spec = lf.lognormal(m, sigma)
        xs = m * np.exp(sigma * np.linspace(-8.0, 8.0, 161))
        cdf, sf = lf.cdf(spec, xs), lf.sf(spec, xs)
        with mpmath.workdps(40):
            for x, c, s in zip(xs, cdf, sf):
                z = (mpmath.log(mpmath.mpf(x)) - mpmath.log(mpmath.mpf(m))) / sigma
                assert c == pytest.approx(float(mpmath.ncdf(z)), rel=1e-12, abs=0.0), ("cdf", x)
                assert s == pytest.approx(float(mpmath.ncdf(-z)), rel=1e-12, abs=0.0), ("sf", x)

    def test_pld_mean_form(self):
        for b, c in [(2.66, 2.28), (1.0, 1.0), (0.6, 0.8)]:
            assert lf.mean(lf.pld(b, c)) == pytest.approx(ref.pld_mean(b, c), rel=1e-12)

    def test_nwl_variance_form(self):
        for b, c in [(1.57, 3.77), (0.008, 3.889), (1.0, 2.0)]:
            assert lf.variance(lf.nwl(b, c)) == pytest.approx(
                ref.nwl_variance(b, c), rel=1e-10
            )

    def test_nwl_raw_moment_form(self):
        for b, c in [(1.57, 3.77), (0.008, 3.889), (2.0, 1.0)]:
            for r in (1, 2, 3, 4):
                assert lf.raw_moment(lf.nwl(b, c), r) == pytest.approx(
                    ref.nwl_raw_moment(r, b, c), rel=1e-10
                )

    @pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 10.0, 1e3])
    @pytest.mark.parametrize("b", [1e-12, 1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e6])
    def test_nwl_forms_against_mpmath(self, b, c):
        # mean, variance, m3, pdf and sf within 1e-12 of the exact value
        # wherever it is at least 1e-300; the forms written as differences of
        # the two rate ends lost up to 4e-4 of the variance at small b.  The
        # cdf, still such a difference, is held to 1e-11 for b >= 1 only: below
        # it cancels as c b x shrinks (ROADMAP item 6)
        spec = lf.nwl(b, c)
        xs = np.array([1e-4, 0.1, 1.0, 5.0, 30.0]) / c
        moments, points = ref.nwl_forms(b, c, xs)
        got = [lf.mean(spec), lf.variance(spec), lf.raw_moment(spec, 3)]
        for what, g, want in zip(("mean", "variance", "m3"), got, moments):
            assert g == pytest.approx(want, rel=1e-12, abs=0.0), (what, g, want)
        pdf, sf, cdf = lf.pdf(spec, xs), lf.sf(spec, xs), lf.cdf(spec, xs)
        for i, (want_pdf, want_sf, want_cdf) in enumerate(points):
            for what, g, want in (("pdf", pdf[i], want_pdf), ("sf", sf[i], want_sf)):
                if want >= 1e-300:
                    assert g == pytest.approx(want, rel=1e-12, abs=0.0), (what, xs[i], g, want)
            if b >= 1.0:
                assert cdf[i] == pytest.approx(want_cdf, rel=1e-11, abs=0.0), ("cdf", xs[i], cdf[i], want_cdf)

    def test_dtl_whittaker_moment_form(self):
        for c, x_l, x_u in [(2.0, 0.1, 3.0), (2.71, 0.019, 1.46), (4.81, 0.158, 1.317)]:
            for r in (1, 2, 3, 4):
                assert lf.raw_moment(lf.dtl(c, x_l, x_u), r) == pytest.approx(
                    ref.dtl_raw_moment(r, c, x_l, x_u), rel=1e-9
                )

    def test_dtl_mean_form(self):
        assert lf.mean(lf.dtl(2.71, 0.019, 1.46)) == pytest.approx(
            ref.dtl_mean(2.71, 0.019, 1.46), rel=1e-11
        )


class TestMoments:
    def test_lindley1_mean(self):
        assert lf.mean(lf.lindley1(1.0)) == pytest.approx(1.5, rel=1e-14)

    def test_tpld_mean_and_variance(self):
        spec = lf.tpld(1.0, 2.0)
        assert lf.mean(spec) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert lf.variance(spec) == pytest.approx(7.0 / 18.0, rel=1e-14)

    def test_lindley1_variance(self):
        assert lf.variance(lf.lindley1(1.0)) == pytest.approx(7.0 / 4.0, rel=1e-14)

    def test_lognormal_mean(self):
        assert lf.mean(lf.lognormal(1.0, 0.5)) == pytest.approx(
            1.1331484530668263, rel=1e-14
        )

    @pytest.mark.parametrize("sigma", [1e-8, 1e-6, 1e-4, 0.5, 3.0])
    def test_lognormal_variance_at_small_sigma(self, sigma):
        # m^2 e^{s^2} (e^{s^2} - 1) with e^{s^2} - 1 by expm1; the difference
        # was 0 at sigma = 1e-8 and off by 9e-5 at 1e-6
        with mpmath.workdps(40):
            s2 = mpmath.mpf(sigma) ** 2
            want = float(mpmath.mpf(1.7) ** 2 * mpmath.exp(s2) * mpmath.expm1(s2))
        assert lf.variance(lf.lognormal(1.7, sigma)) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_lognormal_second_moment(self):
        # m^2 e^{2 sigma^2}
        m, s = 0.7, 0.9
        assert lf.raw_moment(lf.lognormal(m, s), 2) == pytest.approx(
            m * m * math.exp(2.0 * s * s), rel=1e-13
        )

    def test_first_raw_moment_is_mean(self):
        rng = np.random.default_rng(23)
        for fam in ALL_FAMILIES:
            for _ in range(5):
                spec = random_spec(fam, rng)
                assert lf.raw_moment(spec, 1) == pytest.approx(lf.mean(spec), rel=1e-12)

    def test_variance_matches_raw_moment_identity(self):
        rng = np.random.default_rng(29)
        for fam in ALL_FAMILIES:
            for _ in range(20):
                spec = random_spec(fam, rng)
                mu = lf.mean(spec)
                assert lf.variance(spec) == pytest.approx(
                    lf.raw_moment(spec, 2) - mu * mu, rel=1e-9
                ), spec

    def test_lindley1_third_raw_moment(self):
        # (c^-3 Gamma(5) + c^-2 Gamma(4)) / (1+c) = 1.5 at c = 2
        assert lf.raw_moment(lf.lindley1(2.0), 3) == pytest.approx(1.5, rel=1e-14)

    def test_dtl_second_moment_against_quadrature(self):
        # quadrature of x^2 * density over [0.1, 3] gave 0.8507724101852935
        assert lf.raw_moment(lf.dtl(2.0, 0.1, 3.0), 2) == pytest.approx(
            0.8507724101852935, rel=1e-10
        )

    def test_raw_moment_order_validation(self):
        with pytest.raises(DomainError):
            lf.raw_moment(lf.lindley1(1.0), 0)
        with pytest.raises(DomainError):
            lf.raw_moment(lf.lindley1(1.0), 1.5)

    def test_central_moments(self):
        mu3, mu4 = lf.central_moments_34(lf.lindley1(1.0))
        assert mu3 == pytest.approx(3.75, rel=1e-14)
        assert mu4 == pytest.approx(20.8125, rel=1e-14)

    def test_central_moments_against_quadrature(self):
        # E[(X-mu)^3], E[(X-mu)^4] by quadrature at c = 2
        mu3, mu4 = lf.central_moments_34(lf.lindley1(2.0))
        assert mu3 == pytest.approx(0.42592592592592593, rel=1e-8)
        assert mu4 == pytest.approx(1.1296296296296296, rel=1e-8)

    def test_central_moments_family_error(self):
        with pytest.raises(FamilyError):
            lf.central_moments_34(lf.tpld(1.0, 2.0))

    @pytest.mark.parametrize(
        "b,c",
        [
            (b, c)
            for b in (None, -0.4, 0.0, 1.0, 1e-60, 1e40)
            for c in np.geomspace(1e-150, 1e300, 46).tolist()
            if b is None or b * c > -1.0
        ],
    )
    def test_one_and_two_parameter_forms_against_mpmath(self, b, c):
        # exact rational forms at 50 digits; compared wherever the true value
        # is a normal double, and never an exception or a NaN elsewhere
        spec = lf.lindley1(c) if b is None else lf.tpld(b, c)
        with mpmath.workdps(50):
            cc = mpmath.mpf(c)
            # lindley1 is tpld with b = 1
            bc = cc if b is None else mpmath.mpf(b) * cc
            want_mean = (bc + 2) / (cc * (bc + 1))
            want_var = (bc * bc + 4 * bc + 2) / (cc * cc * (bc + 1) ** 2)
            pairs = [(lf.mean(spec), want_mean), (lf.variance(spec), want_var)]
            if b is None and c < 1e100:
                mu3 = (2 * cc**3 + 12 * cc**2 + 12 * cc + 4) / (cc**3 * (1 + cc) ** 3)
                mu4 = (9 * cc**4 + 72 * cc**3 + 132 * cc**2 + 96 * cc + 24) / (cc**4 * (1 + cc) ** 4)
                pairs += zip(lf.central_moments_34(spec), (mu3, mu4))
            for got, want in pairs:
                assert not math.isnan(got)
                if 2.2250738585072014e-308 <= abs(want) <= 1.7e308:
                    assert got == pytest.approx(float(want), rel=1e-13), (got, want)

    # a ~ b on the diagonal and at 1 vs 1 + 2^-30; rates from 1e-6 to 1e6
    MIXTURE_AXIS = np.geomspace(1e-6, 1e6, 9).tolist() + [1.0 + 2.0**-30]

    @pytest.mark.parametrize("a", MIXTURE_AXIS)
    @pytest.mark.parametrize("family", [Family.GLD, Family.NGLD])
    def test_three_parameter_forms_against_mpmath(self, family, a):
        # the published rational forms at 50 digits, with the variance
        # numerators expanded; compared wherever the true value is a normal double
        for b in self.MIXTURE_AXIS:
            for c in self.MIXTURE_AXIS:
                spec = lf.DistributionSpec(family, (a, b, c))
                with mpmath.workdps(50):
                    aa, bb, cc = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
                    if family is Family.GLD:
                        want_mean = (aa * (bb + cc) + cc) / (bb * (bb + cc))
                        want_var = (aa * bb**2 + 2 * aa * bb * cc + aa * cc**2 + 2 * bb * cc + cc**2) / (
                            bb**2 * (bb + cc) ** 2
                        )
                        want_m3 = (aa + 1) * (aa + 2) * (cc * aa + 3 * cc + aa * bb) / (bb**3 * (cc + bb))
                    else:
                        want_mean = (aa * cc + bb) / (cc * (1 + cc))
                        want_var = (
                            aa**2 * cc - 2 * aa * bb * cc + aa * cc**2 + bb**2 * cc + aa * cc + bb * cc + bb
                        ) / (cc**2 * (1 + cc) ** 2)
                        want_m3 = (cc * aa * (aa + 1) * (aa + 2) + bb * (bb + 1) * (bb + 2)) / (cc**3 * (1 + cc))
                    pairs = [
                        (lf.mean(spec), want_mean),
                        (lf.variance(spec), want_var),
                        (lf.raw_moment(spec, 3), want_m3),
                    ]
                    for got, want in pairs:
                        assert not math.isnan(got)
                        if 2.2250738585072014e-308 <= abs(want) <= 1.7e308:
                            assert got == pytest.approx(float(want), rel=1e-13), (spec, got, want)

    @pytest.mark.parametrize(
        "spec,what",
        [
            (lf.pld(2.0, 0.001), "variance"),
            (lf.pld(0.5, 0.002), "mean"),
            (lf.lindley1(1e-200), "raw_moment"),
            (lf.tpld(0.5, 1e-200), "raw_moment"),
            (lf.lognormal(1.0, 30.0), "variance"),
        ],
    )
    def test_unrepresentable_moment_is_a_domain_error(self, spec, what):
        # the true value overflows a double: a typed error, not inf, NaN or a bare OverflowError
        with pytest.raises(DomainError):
            lf.raw_moment(spec, 2) if what == "raw_moment" else getattr(lf, what)(spec)

    @pytest.mark.parametrize(
        "spec,want",
        [
            (lf.nwl(1.0, 1e-160), 2.3333333333333335e160),
            (lf.lognormal(1.0, 30.0), 2.7071782767869983e195),
            (lf.pld(1e-10, 0.05), 5.1090942166843597e219),
        ],
    )
    def test_finite_mean_survives_an_overflowing_variance(self, spec, want):
        # the mean and variance share one form, whose variance half overflows here
        assert lf.mean(spec) == pytest.approx(want, rel=1e-12)
        with pytest.raises(DomainError):
            lf.variance(spec)

    def test_gld_weights_survive_an_overflowing_c_plus_b(self):
        # c + b overflows to inf, which once zeroed both mixture weights
        spec = lf.gld(2.0, 1e308, 1e308)
        assert lf.mean(spec) == pytest.approx(2.5e-308, rel=1e-14)
        # 0.5 Gamma(3, b) + 0.5 Gamma(2, b) at b x = 4, by mpmath
        assert lf.pdf(spec, 4e-308) == pytest.approx(1.0989383333240508e307, rel=1e-12)

    @pytest.mark.parametrize("spec", [lf.ngld(1e110, 1.0, 1e110), lf.gld(1e110, 1e110, 1.0)], ids=str)
    def test_mixture_moment_survives_huge_shapes_and_rate(self, spec):
        # m3 = 1, but the shape's rising factorial (1e330) and rate^-3 (1e-330) both
        # leave the doubles; the form takes each factor (s + k) / rate alone
        assert lf.raw_moment(spec, 3) == pytest.approx(1.0, rel=1e-13)

    def test_extreme_rates_named_in_the_overflow_report(self):
        assert lf.variance(lf.lindley1(1e100)) == pytest.approx(1e-200, rel=1e-14)
        assert lf.variance(lf.lindley1(1e160)) >= 0.0
        assert lf.mean(lf.lindley1(1e200)) == pytest.approx(1e-200, rel=1e-14)
        assert lf.variance(lf.tpld(1.0, 1e80)) == pytest.approx(1e-160, rel=1e-14)


class TestMode:
    def test_tpld_interior(self):
        res = lf.mode(lf.tpld(0.1, 2.0))
        assert not res.at_boundary
        assert res.value == pytest.approx(0.4, rel=1e-14)

    def test_tpld_boundary(self):
        res = lf.mode(lf.tpld(1.0, 2.0))
        assert res.at_boundary
        assert res.value == 0.0

    @pytest.mark.parametrize("spec", [lf.pld(1.0, 0.5), lf.gld(0.5, 1.0, 1.0)], ids=str)
    def test_negative_discriminant_is_the_boundary(self, spec):
        # the stationary-point quadratics have discriminants -0.75 and -1 here
        assert lf.mode(spec) == lf.ModeResult(0.0, True)

    def test_pld_known_point(self):
        res = lf.mode(lf.pld(2.66, 2.28))
        assert res.value == pytest.approx(0.5873118387324849, rel=1e-12)

    @pytest.mark.parametrize(
        "family,want", [(Family.GLD, 20), (Family.PLD, 8), (Family.TPLD, 5)]
    )
    def test_interior_modes_maximize_pdf(self, family, want):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(400):
            if checked >= want:
                break
            spec = random_spec(family, rng, nonneg=True)
            res = lf.mode(spec)
            if res.at_boundary:
                continue
            center = lf.pdf(spec, res.value)
            assert center >= lf.pdf(spec, res.value - 1e-4) - 1e-12, spec
            assert center >= lf.pdf(spec, res.value + 1e-4) - 1e-12, spec
            checked += 1
        assert checked >= want

    def test_family_error(self):
        with pytest.raises(FamilyError):
            lf.mode(lf.lindley1(1.0))


class TestHazard:
    def test_defining_identity(self):
        rng = np.random.default_rng(37)
        for fam in ALL_FAMILIES:
            spec = random_spec(fam, rng, nonneg=True)
            for x in interior_grid(spec, n=5):
                h = lf.hazard(spec, x)
                assert h * lf.sf(spec, x) == pytest.approx(lf.pdf(spec, x), rel=1e-12)

    def test_gld_value(self):
        # pdf/(1 - cdf) with the quadrature-validated cdf gave 27/13
        assert lf.hazard(lf.gld(2.0, 3.0, 0.5), 1.0) == pytest.approx(
            2.0769230769230769, rel=1e-10
        )

    def test_lindley1_ratio_form(self):
        c, x = 2.0, 0.5
        expected = (
            c * c * (x + 1.0) * math.exp(-c * x) / (1.0 + c)
        ) / (math.exp(-c * x) * (1.0 + c + c * x) / (1.0 + c))
        assert lf.hazard(lf.lindley1(c), x) == pytest.approx(expected, rel=1e-13)

    def test_survival_underflow(self):
        with pytest.raises(SurvivalUnderflowError):
            lf.hazard(lf.lindley1(2.0), 400.0)


class TestReductions:
    def test_tpld_b_one_is_lindley1(self):
        xs = np.linspace(0.0, 12.0, 200)
        for c in (0.5, 1.0, 2.0, 5.0):
            np.testing.assert_allclose(
                lf.pdf(lf.tpld(1.0, c), xs), lf.pdf(lf.lindley1(c), xs), atol=1e-12
            )

    def test_pld_c_one_is_lindley1_with_rate_b(self):
        xs = np.linspace(0.0, 12.0, 200)
        for b in (0.5, 1.0, 2.0, 5.0):
            np.testing.assert_allclose(
                lf.pdf(lf.pld(b, 1.0), xs), lf.pdf(lf.lindley1(b), xs), atol=1e-12
            )

    def test_dtl_wide_window_matches_lindley1(self):
        xs = np.linspace(0.1, 10.0, 120)
        for c in (0.5, 1.0, 2.0, 4.0):
            wide = lf.dtl(c, 1e-9, 50.0)
            np.testing.assert_allclose(
                lf.cdf(wide, xs), lf.cdf(lf.lindley1(c), xs), atol=1e-6
            )


SAMPLER_EDGE_SPECS = [
    lf.tpld(0.0, 1.0),
    lf.tpld(1000.0, 1.0),
    lf.pld(0.01, 0.3),
    lf.nwl(1e-9, 2.0),
    lf.nwl(1e6, 0.5),
    lf.dtl(2.0, 300.0, 300.5),
    lf.dtl(2.0, 0.0, 1e-6),
    lf.dtl(0.01, 0.0, 1e4),
    # zw = 1 and 0.1: about 98% of the draws come from the Gamma(2) part, whose
    # sum of two truncated exponentials is kept with probability 0.66 and 0.52
    lf.dtl(0.01, 0.0, 100.0),
    lf.dtl(1e-4, 0.0, 1e3),
]
SAMPLER_SPECS = list(SELF_SAMPLE_SPECS.values()) + SAMPLER_EDGE_SPECS


class TestSampling:
    def test_deterministic(self):
        for spec in SELF_SAMPLE_SPECS.values():
            a = lf.sample(spec, 5, 123)
            b = lf.sample(spec, 5, 123)
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = lf.sample(lf.lindley1(2.0), 50, 1)
        b = lf.sample(lf.lindley1(2.0), 50, 2)
        assert not np.array_equal(a, b)

    def test_dtl_draws_inside_truncation(self):
        for spec in SAMPLER_SPECS:
            sup = lf.support(spec)
            draws = lf.sample(spec, 500, 9)
            assert np.all(draws >= sup.lower) and np.all(draws <= sup.upper), spec

    def test_lindley1_selfsample_ks(self):
        # asymptotic 5% critical value 1.36/sqrt(n)
        draws = np.sort(lf.sample(lf.lindley1(2.0), 10_000, 42))
        f = lf.cdf(lf.lindley1(2.0), draws)
        i = np.arange(1, draws.size + 1)
        d = max(np.max(i / draws.size - f), np.max(f - (i - 1) / draws.size))
        assert d < 1.36 / math.sqrt(draws.size)

    def test_lindley1_stream_frozen(self):
        # first draws of the mixture sampler that draws only each position's picked component
        golden = [
            0.6898360255545396, 0.02377544866729104, 1.1100853324276434, 1.4189106458962428,
            0.24949846848328783, 3.5187739399864637, 0.7688063019435512, 1.8631976000489074,
        ]
        np.testing.assert_array_equal(lf.sample(lf.lindley1(2.0), 1000, 42)[:8], golden)

    @pytest.mark.parametrize(
        "spec,golden",
        [
            (lf.tpld(0.5, 2.0), [
                0.9095071152869626, 0.02377544866729104, 1.4428023184076528, 1.5383262604169043,
                0.24949846848328783, 1.0637727529580685, 0.49546300284065725, 0.49261724017501535,
            ]),
            (lf.pld(2.66, 2.28), [
                1.3782768710328535, 0.171180724359666, 0.8872640852270559, 0.47999332105620535,
                0.26806862494734957, 0.7695431668641205, 0.25398090230000797, 0.7834372627218648,
            ]),
            (lf.gld(2.0, 3.0, 0.5), [
                1.5850104497816464, 0.46691349936634335, 0.04717923547209446, 0.9732234318577719,
                0.5430052783767533, 0.6704499666924444, 0.5456172167455333, 0.9910670517012934,
            ]),
            (lf.ngld(2.0, 3.0, 1.5), [
                1.588620303357453, 0.5869254438024339, 1.5536889299698253, 1.2527199999545182,
                1.141167280627153, 1.8784717853257829, 3.2331686825773787, 1.3259823095639591,
            ]),
            (lf.nwl(1.57, 3.77), [
                0.3405589694537106, 0.10432944454490259, 0.45545490913133435, 0.23311169177654714,
                0.22466396800617996, 0.7665914854721148, 0.31245858949584326, 0.9491268905825927,
            ]),
            (lf.nwl(1e-9, 2.0), [
                0.6595568703738134, 0.27312130102584553, 0.9097843285312929, 0.8757670271194069,
                0.6900160592267305, 1.769924652816677, 1.2622811964686569, 2.095187150416152,
            ]),
            (lf.nwl(1e6, 0.5), [
                2.5550479183098362, 1.686056438803106, 3.3962529362075116, 3.2252458911504087,
                1.0149248028324873, 5.516137570444667, 1.4114769411864552, 6.915227351192805,
            ]),
            (lf.dtl(2.71, 0.019, 1.46), [
                0.6869206239214183, 0.23895600197984287, 0.28112353135133744, 0.07864855876710429,
                0.3756048080229951, 1.2001738224637555, 1.2556285410136643, 0.20186862797264152,
            ]),
        ],
        ids=str,
    )
    def test_mixture_streams_frozen(self, spec, golden):
        # first draws of the per-family samplers: the nwl and dtl streams date from their own
        # samplers, the four mixtures' from the sampler that draws only the picked component
        np.testing.assert_array_equal(lf.sample(spec, 1000, 42)[:8], golden)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixture_draw_comes_from_its_own_pick(self, seed):
        # ngld(1000, 0.01, 1) mixes Gamma(1000) and Gamma(0.01) with weight 1/2, and 100
        # separates them (each tail past it is below 1e-40), so every position must hold a
        # draw of the component its own uniform picked: no sort or concatenation of the
        # two components passes
        n = 10_000
        draws = lf.sample(lf.ngld(1000.0, 0.01, 1.0), n, seed)
        picked_first = np.random.default_rng(seed).uniform(size=n) < 0.5
        np.testing.assert_array_equal(draws > 100.0, picked_first)

    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("family", [f for f in Family if f is not Family.DTL], ids=lambda f: f.value)
    def test_streams_match_the_textbook_samplers(self, family, n):
        # draw for draw against reference_forms' samplers, which draw the same variates with
        # rng.uniform, boolean masks and rng.gamma(shape, scale); they share only the weights
        rng = np.random.default_rng([33, n])
        for _ in range(20):
            spec = random_spec(family, rng, nonneg=True)
            seed = int(rng.integers(2**32))
            gen, p = np.random.default_rng(seed), spec.params
            if family in _MIXTURES:
                w1, _, s1, s2, rate = _MIXTURES[family](*p)
                want = ref.mixture_sample(gen, n, w1, s1, s2, rate)
            elif family is Family.PLD:
                w1, _, s1, s2, rate = _MIXTURES[Family.LINDLEY1](p[0])
                want = ref.mixture_sample(gen, n, w1, s1, s2, rate) ** (1.0 / p[1])
            elif family is Family.NWL:
                want = ref.nwl_sample(gen, n, *_nwl_masses(*p), p[1])
            else:
                want = ref.lognormal_sample(gen, n, *p)
            np.testing.assert_array_equal(lf.sample(spec, n, seed), want, err_msg=str(spec))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec",
        # draws past the doubles: t^1000 for t ~ lindley1(1), and scales 1/c that overflow
        [lf.pld(1.0, 1e-3), lf.lindley1(1e-310), lf.gld(2.0, 1e-310, 1.0), lf.nwl(1.0, 1e-310)],
        ids=str,
    )
    def test_draws_past_the_doubles_raise_a_domain_error(self, spec):
        with pytest.raises(DomainError, match=r"not finite") as info:
            lf.sample(spec, 1000, 0)
        assert str(spec) in str(info.value)

    @pytest.mark.filterwarnings("error")
    def test_dtl_draws_where_its_mass_overflows(self):
        # the mass w (K1 + K2) is about 5e599 at w = 1e300; per unit width the Exp(1)
        # part keeps its pick weight K1 / (K1 + K2) = 2e-300, and with c x <= 1e-10
        # the law is the density 2 x / 1e300^2 to 1e-10
        draws = lf.sample(lf.dtl(1e-310, 0.0, 1e300), 1000, 0)
        assert np.all((draws >= 0.0) & (draws <= 1e300))
        assert stats.kstest(draws, lambda x: (x / 1e300) ** 2).pvalue >= 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-100, 1e-160, 1e-200, 1e-300])
    def test_dtl_draws_at_tiny_rate(self, c):
        # as c (x_u - x_l) -> 0 the law on [0, 1] tends to density (1 + x) / 1.5: the
        # pick splits 2:1 between the Exp(1) and Gamma(2) parts, whose scaled masses
        # do not underflow, and a Gamma(2) pair is kept with probability near 1/2
        draws = lf.sample(lf.dtl(c, 0.0, 1.0), 100_000, 3)
        p = stats.kstest(draws, lambda x: (x + 0.5 * x * x) / 1.5).pvalue
        assert p >= 1e-6, (c, p)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=str)
    def test_ks_against_shipped_cdf(self, spec, seed):
        draws = lf.sample(spec, 100_000, seed)
        p = stats.kstest(draws, lambda x: lf.cdf(spec, x)).pvalue
        assert p >= 1e-6, (spec, seed, p)

    def test_inverse_cdf_round_trip(self):
        spec = lf.nwl(1.57, 3.77)
        draws = lf.sample(spec, 200, 7)
        u = lf.cdf(spec, draws)
        assert np.all((u > 0.0) & (u < 1.0))
        # draws sorted by u must be sorted in x as well
        order = np.argsort(u)
        assert np.all(np.diff(draws[order]) >= 0.0)

    def test_invalid_n(self):
        for n in (0, True, 2.0):
            with pytest.raises(DomainError):
                lf.sample(lf.lindley1(1.0), n, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    def test_invalid_seed(self, seed):
        with pytest.raises(DomainError):
            lf.sample(lf.lindley1(1.0), 10, seed)

    def test_tpld_negative_b_not_sampled(self):
        # legal vector, but its signed density is no distribution to draw from
        with pytest.raises(DomainError):
            lf.sample(lf.tpld(-0.099, 4.2), 10, 1)
