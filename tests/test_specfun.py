import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

import lindleyfit as lf
import reference_forms as ref
from conftest import SELF_SAMPLE_SPECS
from lindleyfit import specfun
from lindleyfit.errors import DomainError

# Expected values below marked "quadrature"/"high-precision" were computed
# beforehand with 50-digit arithmetic and adaptive integration, then frozen.


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
        assert special.gammainc(a, z) == pytest.approx(1.0 - q, abs=1e-12)


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
    Z = np.concatenate([np.geomspace(1e-3, 700.0, 80), [1e300]])

    @pytest.mark.parametrize("a", A)
    def test_incomplete_gamma(self, a):
        # ngld(a, a, 1) mixes two equal Gamma(a, 1) halves, so its cdf and sf
        # are the mixture forms' P(a, x) and Q(a, x) themselves
        with mpmath.workdps(40):
            p_ref = np.array([float(mpmath.gammainc(a, 0, z, regularized=True)) for z in self.Z])
            q_ref = np.array([float(mpmath.gammainc(a, z, regularized=True)) for z in self.Z])
        spec = lf.ngld(a, a, 1.0)
        p = lf.cdf(spec, self.Z)
        q = lf.sf(spec, self.Z)
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=0.0)
        live = q_ref > 1e-300
        np.testing.assert_allclose(q[live], q_ref[live], rtol=1e-12, atol=0.0)
        assert np.all(q[~live] <= 1e-300)

    @pytest.mark.parametrize("family", list(SELF_SAMPLE_SPECS))
    def test_cdf_in_unit_interval_at_huge_x(self, family):
        value = lf.cdf(SELF_SAMPLE_SPECS[family], 1e300)
        assert 0.0 <= value <= 1.0
