import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

import lindleyfit as lf
from lindleyfit import gof
from lindleyfit.errors import DegenerateSampleError, DomainError


class TestBinning:
    def test_symmetric_split(self):
        hist = gof.bin_sample(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(hist.counts, [2, 2])
        np.testing.assert_allclose(hist.edges, [1.0, 2.5, 4.0])

    def test_maximum_lands_in_last_bin(self):
        # the top edge is closed: 3.0 is counted in [2, 3], not dropped
        hist = gof.bin_sample(np.array([1.0, 2.0, 3.0]), 2)
        np.testing.assert_array_equal(hist.counts, [1, 2])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=200),
        st.integers(min_value=2, max_value=40),
    )
    def test_conservation(self, values, n_bins):
        masses = np.asarray(values)
        if np.min(masses) == np.max(masses):
            return
        hist = gof.bin_sample(masses, n_bins)
        assert hist.total == masses.size

    @pytest.mark.parametrize("values", [[0.010000000000000002, 0.01], [1.0, np.nextafter(1.0, 2.0)]])
    def test_range_of_a_few_ulps(self, values):
        # too narrow for n_bins distinct edges over [min, max]: the range widens
        hist = gof.bin_sample(np.array(values), 40)
        assert hist.total == 2
        assert hist.edges[0] <= min(values) and hist.edges[-1] >= max(values)

    def test_synthetic_sample_binning(self):
        draws = lf.sample(lf.lindley1(2.05), 271, 3)
        hist = gof.bin_sample(draws, 20)
        assert hist.total == 271
        assert hist.n_bins == 20

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            gof.bin_sample(np.array([1.0, 1.0]), 4)
        with pytest.raises(DegenerateSampleError):
            gof.bin_sample(np.array([1.0]), 4)

    def test_bad_bin_count(self):
        with pytest.raises(DomainError):
            gof.bin_sample(np.array([1.0, 2.0]), 1)


class TestTheoreticalFrequencies:
    def test_matches_cdf_differences_on_narrow_bins(self):
        spec = lf.lindley1(2.0)
        draws = lf.sample(spec, 2000, 5)
        hist = gof.bin_sample(draws, 200)
        midpoint = gof.theoretical_frequencies(spec, hist)
        cdf_diff = hist.total * (lf.cdf(spec, hist.edges[1:]) - lf.cdf(spec, hist.edges[:-1]))
        keep = cdf_diff > 1e-9 * hist.total
        np.testing.assert_allclose(midpoint[keep], cdf_diff[keep], rtol=0.02)

    def test_total_mass(self):
        spec = lf.lindley1(2.0)
        draws = lf.sample(spec, 3000, 8)
        hist = gof.bin_sample(draws, 40)
        total = float(np.sum(gof.theoretical_frequencies(spec, hist)))
        expected = hist.total * (lf.cdf(spec, hist.edges[-1]) - lf.cdf(spec, hist.edges[0]))
        assert total == pytest.approx(expected, rel=0.01)

    def test_nonnegative(self):
        spec = lf.gld(2.0, 3.0, 0.5)
        hist = gof.bin_sample(lf.sample(spec, 500, 2), 20)
        assert np.all(gof.theoretical_frequencies(spec, hist) >= 0.0)


class TestChiSquare:
    def test_perfect_fit(self):
        hist = gof.BinnedHistogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([3, 5]))
        assert gof.chi_square(hist, np.array([3.0, 5.0])) == 0.0

    def test_hand_computed(self):
        hist = gof.BinnedHistogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([2, 0]))
        assert gof.chi_square(hist, np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_floor_exclusion(self):
        hist = gof.BinnedHistogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([2, 0]))
        # the empty-theory bin is dropped rather than dividing by ~0
        assert gof.chi_square(hist, np.array([2.0, 1e-15])) == pytest.approx(0.0)

    def test_all_below_floor(self):
        hist = gof.BinnedHistogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([2, 0]))
        with pytest.raises(DomainError):
            gof.chi_square(hist, np.array([1e-14, 1e-15]))

    def test_shape_mismatch(self):
        hist = gof.BinnedHistogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([2, 0]))
        with pytest.raises(DomainError):
            gof.chi_square(hist, np.array([1.0, 1.0, 1.0]))

    def test_reduced_chi_square_near_one_for_true_model(self):
        # synthetic samples scored against their own generator
        spec = lf.lindley1(2.0)
        reduced = []
        for seed in range(100):
            draws = lf.sample(spec, 1000, seed)
            hist = gof.bin_sample(draws, 20)
            chi2 = gof.chi_square(hist, gof.theoretical_frequencies(spec, hist))
            reduced.append(chi2 / (20 - 1))
        assert 0.6 <= float(np.median(reduced)) <= 1.6


class TestQProbability:
    def test_zero_defect(self):
        assert gof.q_probability(0.0, 5) == 1.0

    def test_large_chi2_limit(self):
        assert gof.q_probability(1e4, 5) < 1e-100

    def test_decreasing_in_chi2(self):
        qs = [gof.q_probability(x, 10) for x in np.linspace(0.0, 60.0, 30)]
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    def test_published_value(self):
        # chi2_red = 1.86 at 18 dof -> chi2 = 33.48, published Q = 0.014
        assert gof.q_probability(33.48, 18) == pytest.approx(0.014591375857534354, rel=1e-10)

    @pytest.mark.parametrize("dof", range(1, 31))
    def test_against_chi_square_tail_quadrature(self, dof):
        chi2 = 1.3 * dof

        def density(x):
            return x ** (dof / 2.0 - 1.0) * math.exp(-x / 2.0) / (
                2.0 ** (dof / 2.0) * math.gamma(dof / 2.0)
            )

        tail, _ = integrate.quad(density, chi2, np.inf, limit=200)
        assert gof.q_probability(chi2, dof) == pytest.approx(tail, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            gof.q_probability(-1.0, 5)
        with pytest.raises(DomainError):
            gof.q_probability(1.0, 0)


class TestAic:
    def test_zero_chi2(self):
        assert gof.aic(0.0, 2) == 4.0

    def test_published_row(self):
        # 2k + chi2 at k = 2, chi2 = 33.48; the table prints 37.6 after rounding
        assert gof.aic(33.48, 2) == pytest.approx(37.48)

    @given(
        chi2=st.floats(min_value=0.0, max_value=1e6),
        delta=st.floats(min_value=0.0, max_value=1e3),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_monotone_in_chi2(self, chi2, delta, k):
        assert gof.aic(chi2 + delta, k) >= gof.aic(chi2, k)


class TestKsTest:
    def test_single_observation_at_median(self):
        spec = lf.lindley1(2.0)
        median = optimize.brentq(lambda x: lf.cdf(spec, x) - 0.5, 1e-9, 50.0)
        d, p = gof.ks_test(np.array([median]), spec)
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_self_sample(self):
        spec = lf.lindley1(2.0)
        d, p = gof.ks_test(lf.sample(spec, 10_000, 42), spec)
        assert d < 1.36 / math.sqrt(10_000)
        assert p > 0.1

    def test_significance_decreasing_in_d(self):
        ps = [gof._ks_significance(d, 200) for d in np.linspace(0.01, 0.3, 25)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_probability_integral_transform_invariance(self):
        # applying the model CDF to the data and testing against the uniform
        # must reproduce D exactly
        spec = lf.nwl(1.57, 3.77)
        draws = lf.sample(spec, 400, 21)
        d, _ = gof.ks_test(draws, spec)
        u = np.sort(np.atleast_1d(lf.cdf(spec, draws)))
        i = np.arange(1, u.size + 1)
        d_uniform = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
        assert d == pytest.approx(d_uniform, abs=1e-12)

    def test_empty_sample(self):
        with pytest.raises(DegenerateSampleError):
            gof.ks_test(np.array([]), lf.lindley1(1.0))


class TestFullReport:
    def test_perfect_agreement_statistics(self):
        # chi2 = 0 -> Q = 1 and AIC = 2k on exact agreement
        hist = gof.BinnedHistogram(
            edges=np.linspace(0.0, 1.0, 6), counts=np.array([1, 2, 3, 2, 1])
        )
        theo = hist.counts.astype(float)
        chi2 = gof.chi_square(hist, theo)
        assert chi2 == 0.0
        assert gof.q_probability(chi2, 4) == 1.0
        assert gof.aic(chi2, 2) == 4.0

    def test_field_relations(self):
        spec = lf.lindley1(2.0)
        rng = np.random.default_rng(61)
        for _ in range(100):
            seed = int(rng.integers(0, 2**31))
            draws = lf.sample(spec, 300, seed)
            rep = gof.full_report(draws, spec, 20)
            assert rep.chi2_red == rep.chi2 / (rep.n_bins - rep.k_params)
            assert rep.aic == 2.0 * rep.k_params + rep.chi2
            assert 0.0 <= rep.q <= 1.0
            assert 0.0 <= rep.d <= 1.0
            assert 0.0 <= rep.p_ks <= 1.0
            assert rep.chi2 >= 0.0

    def test_dtl_counts_three_parameters(self):
        spec = lf.dtl(2.0, 0.05, 4.0)
        draws = lf.sample(spec, 400, 3)
        rep = gof.full_report(draws, spec, 20)
        assert rep.k_params == 3
        assert rep.chi2_red == rep.chi2 / 17.0

    def test_bins_must_exceed_parameters(self):
        spec = lf.dtl(2.0, 0.05, 4.0)
        with pytest.raises(DomainError):
            gof.full_report(lf.sample(spec, 50, 1), spec, 3)
