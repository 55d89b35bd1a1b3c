import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import lindleyfit as lf
import reference_forms as ref
from conftest import SELF_SAMPLE_SPECS
from lindleyfit import specfun
from lindleyfit.errors import DomainError

# Expected values below marked "quadrature"/"high-precision" were computed
# beforehand with 50-digit arithmetic and adaptive integration, then frozen.


class TestGamma:
    def test_factorial(self):
        assert specfun.gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_sqrt_pi(self):
        assert specfun.gamma(0.5) == pytest.approx(1.7724538509055160273, rel=1e-14)

    def test_interior_point(self):
        # high-precision series oracle
        assert specfun.gamma(3.7) == pytest.approx(4.1706517837966031654, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            specfun.gamma(bad)

    def test_recurrence(self):
        # Gamma(z+1) = z Gamma(z) on 100 seeded points in (0.5, 20)
        rng = np.random.default_rng(1234)
        for z in rng.uniform(0.5, 20.0, size=100):
            assert specfun.gamma(z + 1.0) == pytest.approx(z * specfun.gamma(z), rel=1e-12)


class TestUpperIncompleteGamma:
    # the regularized upper incomplete gamma Q(a, z) = Gamma(a, z) / Gamma(a)

    def test_full_support_is_gamma(self):
        # Gamma(a, 0) = Gamma(a), so Q(a, 0) = 1
        assert specfun.regularized_gamma_q(2.5, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_exponential_tail(self):
        assert specfun.regularized_gamma_q(1.0, 1.0) == pytest.approx(
            0.36787944117144233, rel=1e-13
        )

    def test_against_quadrature(self):
        # adaptive quadrature of t^2 e^-t over [2, inf) gave 1.3533528323661269;
        # Gamma(3) = 2
        assert specfun.regularized_gamma_q(3.0, 2.0) == pytest.approx(
            1.3533528323661269 / 2.0, rel=1e-12
        )

    def test_monotone_in_z(self):
        rng = np.random.default_rng(7)
        for a in rng.uniform(0.3, 12.0, size=10):
            zs = np.sort(rng.uniform(0.0, 30.0, size=20))
            vals = [specfun.regularized_gamma_q(a, z) for z in zs]
            assert all(v1 >= v2 - 1e-15 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a,z", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.1)])
    def test_domain(self, a, z):
        with pytest.raises(DomainError):
            specfun.regularized_gamma_q(a, z)

    @given(
        a=st.floats(min_value=0.05, max_value=50.0),
        z=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_regularized_in_unit_interval(self, a, z):
        q = specfun.regularized_gamma_q(a, z)
        assert 0.0 <= q <= 1.0
        assert specfun.regularized_gamma_p(a, z) == pytest.approx(1.0 - q, abs=1e-12)

    def test_array_matches_scalar(self):
        z = np.array([0.0, 0.3, 1.0, 2.49, 2.5, 7.0, 40.0, 300.0])
        for a in (0.4, 1.0, 2.5, 9.0):
            arr = specfun.reg_gamma_p_arr(a, z)
            ref = np.array([specfun.regularized_gamma_p(a, v) for v in z])
            np.testing.assert_allclose(arr, ref, rtol=1e-13, atol=1e-15)
            arr_q = specfun.reg_gamma_q_arr(a, z)
            np.testing.assert_allclose(arr_q, 1.0 - ref, rtol=1e-12, atol=1e-14)

    def test_array_domain(self):
        with pytest.raises(DomainError):
            specfun.reg_gamma_p_arr(2.0, np.array([1.0, -0.5]))


class TestErf:
    def test_zero(self):
        assert specfun.erf(0.0) == 0.0

    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_odd_symmetry(self, x):
        assert specfun.erf(x) + specfun.erf(-x) == pytest.approx(0.0, abs=1e-14)

    def test_against_quadrature(self):
        # (2/sqrt(pi)) * integral of exp(-t^2) over [0, 1.2] gave 0.91031397822963538
        assert specfun.erf(1.2) == pytest.approx(0.91031397822963538, rel=1e-14)

    def test_monotone_and_bounded(self):
        xs = np.linspace(-10.0, 10.0, 201)
        vals = specfun.erf_arr(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(np.abs(vals) <= 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.erf(math.nan)


class TestWhittakerM:
    # the test oracle reference_forms._whit; these cases pin its argument order

    def test_reduces_to_sinh(self):
        # M_{0,1/2}(z) = 2 sinh(z/2)
        assert ref._whit(0.0, 0.5, 1.3) == pytest.approx(2.0 * math.sinh(0.65), rel=1e-13)

    def test_kummer_partial_sums(self):
        # with kappa = a/2, mu = a/2 + 1/2 at a = 0 the series is
        # 1F1(1; 2; z) = (e^z - 1)/z; compare against its partial sums
        z = 0.9
        partial = sum(z**n / math.factorial(n + 1) for n in range(60))
        assert ref._whit(0.0, 0.5, z) == pytest.approx(math.exp(-z / 2.0) * z * partial, rel=1e-13)

    def test_half_half_two(self):
        # 50-digit direct summation of the Kummer series gave 1.4018135475190466
        assert ref._whit(0.5, 0.5, 2.0) == pytest.approx(1.4018135475190466, rel=1e-13)


class TestAgainstMpmath:
    A = (0.3, 1.0, 2.0, 2.5, 9.0, 50.0)
    Z = np.concatenate([np.geomspace(1e-3, 700.0, 80), [1e300, math.inf]])

    @pytest.mark.parametrize("a", A)
    def test_incomplete_gamma(self, a):
        with mpmath.workdps(40):
            p_ref = np.array([float(mpmath.gammainc(a, 0, z, regularized=True)) for z in self.Z])
            q_ref = np.array([float(mpmath.gammainc(a, z, regularized=True)) for z in self.Z])
        p = specfun.reg_gamma_p_arr(a, self.Z)
        q = specfun.reg_gamma_q_arr(a, self.Z)
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=0.0)
        live = q_ref > 1e-300
        np.testing.assert_allclose(q[live], q_ref[live], rtol=1e-12, atol=0.0)
        assert np.all(q[~live] <= 1e-300)

    @pytest.mark.parametrize("family", list(SELF_SAMPLE_SPECS))
    def test_cdf_in_unit_interval_at_huge_x(self, family):
        value = lf.cdf(SELF_SAMPLE_SPECS[family], 1e300)
        assert 0.0 <= value <= 1.0
