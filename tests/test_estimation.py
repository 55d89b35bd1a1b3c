import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import lindleyfit as lf
import reference_forms as ref
from conftest import checkout_env
from lindleyfit import estimation as est
from lindleyfit.distributions import PARAM_NAMES, Family
from lindleyfit.errors import (
    EstimationError,
    InfeasibleMomentsError,
)
from test_root_selection import determinacy, law_samples


def targets(xbar, s2, xbar3=1.0, x_min=0.0, x_max=math.inf):
    return est.MomentTargets(xbar=xbar, s2=s2, xbar3=xbar3, x_min=x_min, x_max=x_max)


def law_targets(law):
    """Sample moments of one benchmark law's fixed sample (``test_root_selection.law_samples``)."""
    masses = law_samples()[law]
    return lf.summarize(lf.MassCatalog(law, masses))


class TestMomentTargets:
    def test_validation(self):
        with pytest.raises(InfeasibleMomentsError):
            targets(-1.0, 1.0)
        with pytest.raises(InfeasibleMomentsError):
            targets(1.0, 0.0)
        with pytest.raises(InfeasibleMomentsError):
            targets(1.0, 1.0, x_min=2.0, x_max=3.0)


class TestLindley1:
    def test_xbar_15_gives_c_1(self):
        r = est.estimate(Family.LINDLEY1, targets(1.5, 0.5))
        assert r.spec.params[0] == pytest.approx(1.0, abs=1e-10)

    def test_table_anchor_round_trip(self):
        t = est.targets_from_spec(lf.lindley1(2.94))
        r = est.estimate(Family.LINDLEY1, t)
        assert r.spec.params[0] == pytest.approx(2.94, abs=1e-8)

    def test_xbar_two_thirds_gives_c_2(self):
        r = est.estimate(Family.LINDLEY1, targets(2.0 / 3.0, 0.5))
        assert r.spec.params[0] == pytest.approx(2.0, abs=1e-10)

    def test_report_residual_is_mean_defect(self):
        t = targets(0.8, 0.3)
        r = est.estimate(Family.LINDLEY1, t)
        assert abs(r.residuals[0]) <= 1e-10
        assert lf.mean(r.spec) == pytest.approx(t.xbar, abs=1e-9)

    @pytest.mark.parametrize("xbar", np.geomspace(1e-11, 1e11, 45))
    def test_closed_form_matches_mean_at_every_scale(self, xbar):
        r = est.estimate(Family.LINDLEY1, targets(xbar, 0.5))
        assert abs(lf.mean(r.spec) / xbar - 1.0) <= 1e-12

    # near the top of the doubles, 8 xbar overflows: the mean match forms its discriminant from sqrt(xbar)
    @pytest.mark.parametrize("xbar", [1e-300, 1e-200, 1e200, 1e300, 5e307, 8e307])
    def test_converges_at_extreme_means(self, xbar):
        r = est.estimate(Family.LINDLEY1, targets(xbar, 0.5))
        assert lf.mean(r.spec) == pytest.approx(xbar, rel=1e-15)

    @pytest.mark.parametrize(
        "family,moments,reason",
        [
            # c is inf or 0 in double precision
            (Family.LINDLEY1, (5e-324, 0.5), r"parameters must be finite, got \(inf,\)"),
            (Family.LINDLEY1, (1.7e308, 0.5), r"lindley1 requires c > 0, got c=0\.0"),
            # s2/xbar^2 overflows: sigma is inf and m underflows to 0
            (Family.LOGNORMAL, (1e-200, 1e100, 1e150), r"parameters must be finite, got \(0\.0, inf\)"),
        ],
        ids=["lindley1-tiny", "lindley1-huge", "lognormal"],
    )
    def test_unrepresentable_root_is_refused(self, family, moments, reason):
        # the judge's validator refuses the closed form's one root and names why
        with pytest.raises(EstimationError, match=f"{family.value} moment solve failed: .*{reason}") as err:
            est.estimate(family, targets(*moments))
        assert type(err.value) is EstimationError


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=checkout_env())


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, lindleyfit; print([m for m in sys.modules if m.startswith('scipy.optimize')])"
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_fit_leaves_scipy_optimize_unloaded(tmp_path):
    # a whole fit of every family, dtl included, in a fresh interpreter
    masses = np.random.default_rng(1).gamma(2.0, 0.5, 200)
    path = tmp_path / "cat.csv"
    path.write_text("mass\n" + "\n".join(map(repr, masses.tolist())) + "\n")
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "from lindleyfit import cli\n"
        f"cli.main(['fit', '--input', {str(path)!r}, '--families', 'all', '--out', {str(out)!r}])\n"
        "print([m for m in sys.modules if m.startswith('scipy.optimize')])\n"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    fits = json.loads((out / "cat_fits.json").read_text())["fits"]
    assert sorted(f["family"] for f in fits) == sorted(f.value for f in Family)
    assert "error" not in next(f for f in fits if f["family"] == "dtl")


class TestTpld:
    def test_closed_form_round_trip(self):
        r = est.estimate(Family.TPLD, targets(2.0 / 3.0, 7.0 / 18.0))
        b, c = r.spec.params
        assert b == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(2.0, abs=1e-12)

    def test_infeasible_when_variance_dominates(self):
        with pytest.raises(InfeasibleMomentsError):
            est.estimate(Family.TPLD, targets(1.0, 1.0))

    def test_negative_b_anchor_round_trip(self):
        t = est.targets_from_spec(lf.tpld(-0.099, 4.2))
        r = est.estimate(Family.TPLD, t)
        b, c = r.spec.params
        assert b == pytest.approx(-0.099, rel=1e-8)
        assert c == pytest.approx(4.2, rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        xbar=st.floats(min_value=0.1, max_value=5.0),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        k=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_scale_consistency(self, xbar, ratio, k):
        # scaling the data by k scales b by k and c by 1/k
        s2 = ratio * xbar * xbar
        try:
            r1 = est.estimate(Family.TPLD, targets(xbar, s2))
        except (InfeasibleMomentsError, Exception):
            return
        r2 = est.estimate(Family.TPLD, targets(k * xbar, k * k * s2))
        b1, c1 = r1.spec.params
        b2, c2 = r2.spec.params
        assert b2 == pytest.approx(k * b1, rel=1e-9)
        assert c2 == pytest.approx(c1 / k, rel=1e-9)


def test_cut_roots_bisects_each_piece_and_keeps_the_tangent_cut():
    # cut at its extrema, [0, 10] leaves at most one root of this defect in
    # each piece: sign changes at 1.5, 4.2, 4.6 and 9.3, and a double root at
    # 7.3, a cut with no sign change on either side
    def g(x):
        return (1.5 - x) * (x - 4.2) * (x - 4.6) * (x - 7.3) ** 2 * (9.3 - x)

    poly = np.polynomial.polynomial
    cuts = poly.polyroots(poly.polyder(poly.polyfromroots([1.5, 4.2, 4.6, 7.3, 7.3, 9.3]))).real
    x, root = est._cut_roots(g, 0.0, 10.0, cuts[::-1])   # in any order
    # the sign changes are bisected to one ulp; the tangent root is its cut
    np.testing.assert_allclose(x[:4], [1.5, 4.2, 4.6, 9.3], rtol=1e-15, atol=0.0)
    assert root.sum() == 5 and root[:4].all()
    assert x[root][4] == cuts[3] == pytest.approx(7.3, abs=1e-12)
    # the ends and the other cuts are probes
    np.testing.assert_array_equal(x[~root], np.r_[0.0, np.delete(cuts, 3), 10.0])


def test_cut_roots_counts_nan_as_negative():
    # as where the pld defect is NaN (b past the doubles), then negative, then positive
    x, root = est._cut_roots(lambda x: np.where(x < 1.0, np.nan, x - 2.0), 0.0, 3.0)
    assert x[root] == pytest.approx([2.0], abs=1e-15)
    np.testing.assert_array_equal(x[~root], [0.0, 3.0])


class TestTwoParam:
    def test_pld_table_anchor(self):
        t = est.targets_from_spec(lf.pld(2.66, 2.28))
        r = est.estimate(Family.PLD, t)
        np.testing.assert_allclose(r.spec.params, (2.66, 2.28), rtol=1e-6)

    def test_nwl_table_anchor(self):
        t = est.targets_from_spec(lf.nwl(1.57, 3.77))
        r = est.estimate(Family.NWL, t)
        np.testing.assert_allclose(r.spec.params, (1.57, 3.77), rtol=1e-6)

    def test_pld_unit_round_trip(self):
        t = est.targets_from_spec(lf.pld(1.0, 1.0))
        r = est.estimate(Family.PLD, t)
        np.testing.assert_allclose(r.spec.params, (1.0, 1.0), rtol=1e-8)

    def test_root_residuals_below_tolerance(self):
        t = est.targets_from_spec(lf.nwl(0.7, 2.5))
        r = est.estimate(Family.NWL, t)
        assert np.max(np.abs(r.residuals)) <= est.MOMENT_TOL

    def test_random_round_trips(self):
        rng = np.random.default_rng(41)
        for fam, maker in ((Family.PLD, lf.pld), (Family.NWL, lf.nwl)):
            for _ in range(10):
                p = rng.uniform(0.3, 6.0, size=2)
                r = est.estimate(fam, est.targets_from_spec(maker(*p)))
                np.testing.assert_allclose(r.spec.params, p, rtol=1e-5)

    def test_infeasible_targets_error(self):
        # variance far below anything the power family can reach at this mean
        with pytest.raises(EstimationError) as err:
            est.estimate(Family.PLD, targets(5.0, 1e-6))
        assert err.value.best_residual is not None

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_scan_without_candidates_says_so(self, monkeypatch, family):
        # one message and best_residual for every family
        k = len(PARAM_NAMES[family])
        monkeypatch.setitem(est._CANDIDATES, family, lambda t: (np.empty((0, k)), np.empty(0, dtype=bool)))
        with pytest.raises(EstimationError, match="no candidate is valid with a finite defect$") as err:
            est.estimate(family, targets(1.0, 0.5))
        assert err.value.best_residual is None

    def test_solve_evaluates_the_moment_forms_once(self, monkeypatch):
        # one batched evaluation judges every candidate of the 1-D reduction;
        # no Newton iteration follows it
        calls = []
        moment_map = est._moment_map

        def counted(family):
            moments = moment_map(family)
            return lambda params: calls.append(1) or moments(params)

        monkeypatch.setattr(est, "_moment_map", counted)
        r = est.estimate(Family.PLD, law_targets("lognormal"))
        assert (len(calls), r.iterations) == (1, 0)

    @pytest.mark.parametrize("family,low,high", [(Family.PLD, 0.2, 20.0), (Family.NWL, 1e-3, 1e3)])
    def test_round_trips_at_extreme_b(self, family, low, high):
        # b from 1e-6 to 1e6: the old 6^2 Newton start grid lost 17 pld and 31 nwl of these
        rng = np.random.default_rng(11)
        b = 10.0 ** rng.uniform(-6.0, 6.0, 60)
        c = np.exp(rng.uniform(math.log(low), math.log(high), 60))
        for p in zip(b, c):
            t = est.targets_from_spec(lf.DistributionSpec(family, p))
            r = est.estimate(family, t)
            assert r.spec.params[1] == pytest.approx(p[1], rel=1e-6)
            if r.spec.params[0] != pytest.approx(p[0], rel=1e-6):
                # below b ~ 1e-4 the nwl moments move with b only at second
                # order, so the rounded targets pin b more loosely than 1e-6;
                # the root must still reproduce them
                assert np.all(np.abs(r.residuals) <= 1e-14 * np.array([t.xbar, t.s2 + t.xbar**2])), p

    def test_nwl_second_moment_falls_along_the_mean_match(self):
        # the premise of nwl's one bisection: with c from the mean match, m2 falls in
        # v = 1/(1+b), so the defect has at most one root (the sextic it reduces to
        # has six); 2000 points of the unit domain, log-spaced towards both ends
        tail = np.geomspace(est._UNIT_ENDS[0], 0.5, 1001)
        v = np.concatenate([tail[:-1], 1.0 - tail[::-1]])
        for k in range(-150, 151, 10):
            m1 = 10.0**k
            ratio = lf.distributions._raw_moment_nwl(2, (1.0 - v) / v, est._mean_match_c(m1, v)) / (m1 * m1)
            assert np.all(ratio[1:] <= ratio[:-1] * (1.0 + 4e-15)), k

    @pytest.mark.parametrize("family", [Family.PLD, Family.TPLD], ids=lambda f: f.value)
    def test_near_constant_pld_sample_gets_an_exact_root(self, family):
        # the variance is 1e-10 of m2, so an absolute 1e-10 tolerance accepted
        # any pld c from 1e5 to 4e8; the variance is judged on the scale of
        # m2, so tpld's closed form converges here as pld does
        masses = 1.0 + 1e-5 * np.random.default_rng(5).standard_normal(500)
        t = lf.summarize(lf.MassCatalog("flat", masses))
        r = est.estimate(family, t)
        assert np.max(np.abs(r.residuals) / np.array([t.xbar, t.s2 + t.xbar**2])) <= 1e-14
        # pld matches its variance as a log ratio that vanishes with 1/c, so it holds on the
        # scale of s2; tpld's closed form subtracts moments of size xbar^2 and is 2.2e-6 off
        # here, a defect of its own that this test leaves open
        if family is Family.PLD:
            assert abs(lf.variance(r.spec) / t.s2 - 1.0) <= 1e-12


class TestThreeParam:
    def test_gld_table_anchor(self):
        t = est.targets_from_spec(lf.gld(4.80, 8.38, 12.01))
        r = est.estimate(Family.GLD, t)
        np.testing.assert_allclose(r.spec.params, (4.80, 8.38, 12.01), rtol=1e-5)

    def test_ngld_table_anchor(self):
        t = est.targets_from_spec(lf.ngld(7.34, 1.57, 10.61))
        r = est.estimate(Family.NGLD, t)
        np.testing.assert_allclose(r.spec.params, (7.34, 1.57, 10.61), rtol=1e-5)

    def test_gld_unit_round_trip(self):
        t = est.targets_from_spec(lf.gld(1.0, 1.0, 1.0))
        r = est.estimate(Family.GLD, t)
        np.testing.assert_allclose(r.spec.params, (1.0, 1.0, 1.0), rtol=1e-8)

    def test_returns_exact_root_of_the_system(self):
        rng = np.random.default_rng(43)
        for fam, maker in ((Family.GLD, lf.gld), (Family.NGLD, lf.ngld)):
            for _ in range(5):
                p = rng.uniform(0.5, 6.0, size=3)
                t = est.targets_from_spec(maker(*p))
                r = est.estimate(fam, t)
                spec = r.spec
                assert lf.mean(spec) == pytest.approx(t.xbar, abs=1e-9)
                assert lf.variance(spec) == pytest.approx(t.s2, abs=1e-9)
                assert lf.raw_moment(spec, 3) == pytest.approx(t.xbar3, abs=1e-8)

    def test_selects_smallest_c_root(self):
        # these moments admit two exact parameter vectors; the convention is
        # to report the smaller-c one, matching the published tables
        m = ref.gld_raw_moments(4.80, 8.38, 12.01)
        roots = ref.moment_roots("gld", *m)
        assert len(roots) == 2
        t = est.targets_from_spec(lf.gld(4.80, 8.38, 12.01))
        r = est.estimate(Family.GLD, t)
        assert r.spec.params[2] == pytest.approx(min(root[2] for root in roots), rel=1e-6)

    def test_canonical_random_round_trips(self):
        # recovery is asserted only where the generating vector is the
        # canonical (smallest-c) root of its own moments; other draws are
        # genuinely ambiguous (distinct vectors share all three moments)
        rng = np.random.default_rng(47)
        for fam, maker in ((Family.GLD, lf.gld), (Family.NGLD, lf.ngld)):
            done = 0
            for _ in range(200):
                if done >= 5:
                    break
                p = tuple(rng.uniform(0.5, 6.0, size=3))
                if not ref.is_canonical_root(fam.value, p):
                    continue
                r = est.estimate(fam, est.targets_from_spec(maker(*p)))
                np.testing.assert_allclose(r.spec.params, p, rtol=1e-5)
                done += 1
            assert done >= 5

    def test_failing_gld_fit_reports_its_relative_defect(self):
        with pytest.raises(EstimationError, match="best relative defect") as err:
            est.estimate(Family.GLD, law_targets("lognormal"))
        assert est.MOMENT_TOL < err.value.best_residual < math.inf

    def test_ngld_reaches_narrow_sample_roots(self):
        # a narrow sample puts the root at c ~ 1e9
        t = targets(1.0, 1e-9, 1.0 + 3e-9)
        r = est.estimate(Family.NGLD, t)
        assert r.spec.params[2] > 1e6
        assert np.all(np.abs(r.residuals) <= est.MOMENT_TOL * np.array([t.xbar, t.s2 + t.xbar**2, t.xbar3]))

    def test_ngld_root_with_huge_shape_and_rate_passes_the_judge(self):
        # m3 = 1 here; the mixture moment overflowed in a^3 and c^-3, so neither these
        # targets nor the judge's defect of the solver's root were finite
        t = est.targets_from_spec(lf.ngld(1e110, 1.0, 1e110))
        r = est.estimate(Family.NGLD, t)
        assert np.all(np.abs(r.residuals) <= est.MOMENT_TOL * np.array([t.xbar, t.s2 + t.xbar**2, t.xbar3]))
        assert lf.raw_moment(r.spec, 3) == pytest.approx(t.xbar3, rel=est.MOMENT_TOL)

    def test_ngld_canonical_root(self):
        # its targets have another exact root, at c = 6.10
        t = est.targets_from_spec(lf.ngld(84.375, 1.769, 0.17))
        r = est.estimate(Family.NGLD, t)
        np.testing.assert_allclose(r.spec.params, (84.375, 1.769, 0.17), rtol=1e-8)

    def test_ngld_reaches_its_quintic_bound(self):
        # the exact elimination leaves a quintic in c, and these targets have all five roots
        t = targets(33.23880385166379, 849.7563948926215, 164794.87589499436)
        assert len(ref.moment_roots("ngld", t.xbar, t.s2 + t.xbar**2, t.xbar3)) == 5
        assert len(est._moment_roots(Family.NGLD, t)[0]) == 5

    def test_gld_is_fitted_in_every_mass_unit(self):
        # gld is a scale family: (a, b, c) -> (a, b/k, c/k) for masses times k;
        # judged on absolute defects, a was 1.147 at x1e3 and x1e5 failed
        def fit(k):
            masses = np.random.default_rng(0).gamma(2.0, size=200) * k
            t = lf.summarize(lf.MassCatalog("gamma", masses))
            return np.array(est.estimate(Family.GLD, t).spec.params)

        unit = fit(1.0)
        assert unit[0] == pytest.approx(2.076, abs=5e-4)
        for j in range(-20, 21):
            k = 10.0**j
            np.testing.assert_allclose(fit(k), unit / np.array([1.0, k, k]), rtol=1e-12, err_msg=f"x1e{j}")

    def test_gld_fits_a_near_constant_sample_as_its_gamma_limit(self):
        # s2 / xbar^2 = 1e-17 is below one ulp of m2 / m1^2, so k = s2 / m1^2 must
        # be read from s2 itself; the fit is the gamma limit Gamma(1e17, rate 1e17)
        r = est.estimate(Family.GLD, targets(1.0, 1e-17, 1.0))
        a, b, _ = r.spec.params
        assert (a, b) == pytest.approx((1e17, 1e17), rel=1e-12)
        np.testing.assert_array_equal(r.residuals, 0.0)
        # c leaves all three moments unchanged in double precision; one root, not one per probe
        assert len(est._moment_roots(Family.GLD, targets(1.0, 1e-17, 1.0))[0]) == 1

    def test_gld_has_at_most_two_roots_and_one_past_k_2(self):
        # m3/(m1 m2) = (1 + 2k + y^2)(1 + 2y)/(1 + y)^2 on 0 < y < min(1, k) falls to
        # its minimum at y* = 4k/(3 + sqrt(9 + 8k)) and rises past it; y* >= 1 once k >= 2
        fixture = json.loads((Path(__file__).parent / "data" / "root_selection.json").read_text())
        ts = [est.MomentTargets(**e["targets"]) for e in fixture["entries"] if e["family"] == "gld"]
        # the range up to 500 reaches k = s2/xbar^2 of 2e-3, ten times below the range up
        # to 50; there the two roots' shapes a agree to 6e-5 relative (2e-3 up to 50), so
        # the cut at y* must split a nearly double root
        for high, seed in ((50.0, 2), (500.0, 11)):
            ranges = np.log([(0.05, high)] * 3).T
            for p in np.exp(np.random.default_rng(seed).uniform(*ranges, size=(300, 3))):
                ts.append(est.targets_from_spec(lf.gld(*p)))
        sizes = set()
        for t in ts:
            roots, _ = est._moment_roots(Family.GLD, t)
            assert len(roots) <= (1 if t.s2 / t.xbar**2 >= 2.0 else 2), t
            sizes.add(len(roots))
        assert {1, 2} <= sizes

    def test_gld_near_miss_reports_its_relative_defect(self):
        # an exact root's targets with m3 off by 1e-9: no candidate is within MOMENT_TOL
        t = est.targets_from_spec(lf.gld(500.0, 1e3, 1e3 * 0.001 / 0.999))
        t = targets(t.xbar, t.s2, t.xbar3 * (1.0 + 1e-9))
        with pytest.raises(EstimationError, match="best relative defect") as err:
            est.estimate(Family.GLD, t)
        assert err.value.best_residual == pytest.approx(1e-9, rel=1e-3)


# (x_l, x_u) windows for the dtl solver: three from x_l = 0, the table
# anchor's, and some far from 0, where c x_l is deep in the right tail at
# the larger rates; every (window, rate) pair has the mean move with c
# (xbar / (c Var) <= 1e3), so rounding moves the root by less than 1e-12
DTL_WINDOWS = [
    (0.0, 0.5), (0.0, 3.0), (0.0, 60.0), (0.019, 1.46), (0.2, 2.5),
    (0.08, 60.0), (2.0, 5.0), (3.0, 4.0), (10.0, 30.0), (0.5, 1e3),
]
DTL_RATES = [0.05, 0.3, 1.0, 2.71, 8.0, 25.0]


class TestDtl:
    def test_table_anchor(self):
        t = est.targets_from_spec(lf.dtl(2.71, 0.019, 1.46))
        r = est.estimate(Family.DTL, t)
        c, x_l, x_u = r.spec.params
        assert c == pytest.approx(2.71, abs=1e-6)
        assert (x_l, x_u) == (0.019, 1.46)

    def test_unbounded_window_is_infeasible(self):
        # the default x_max is inf, where the window width and the mean defect are NaN
        with pytest.raises(InfeasibleMomentsError, match="x_max < inf"):
            est.estimate(Family.DTL, targets(1.0, 1.0, 3.0))

    def test_midpoint_attainability(self):
        x_l, x_u = 0.2, 2.5
        xbar = lf.mean(lf.dtl(1.0, x_l, x_u))
        r = est.estimate(Family.DTL, targets(xbar, 0.1, x_min=x_l, x_max=x_u))
        assert r.spec.params[0] == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_support(self):
        with pytest.raises(InfeasibleMomentsError):
            est.estimate(Family.DTL, targets(1.0, 0.1, x_min=1.0, x_max=1.0))

    def test_negative_lower_bound_is_infeasible(self):
        # MomentTargets holds x_min <= xbar <= x_max; the dtl support starts at 0
        with pytest.raises(InfeasibleMomentsError, match="0 <= x_min < x_max"):
            est.estimate(Family.DTL, targets(1.0, 0.1, x_min=-0.5, x_max=2.0))

    def test_mean_outside_attainable_range(self):
        # mean almost at the upper bound needs c below the bracket
        with pytest.raises(InfeasibleMomentsError):
            est.estimate(Family.DTL, targets(2.999999, 0.1, x_min=0.1, x_max=3.0))

    @pytest.mark.parametrize("window", DTL_WINDOWS)
    def test_matches_brentq(self, window):
        from scipy import optimize

        x_l, x_u = window
        for c in DTL_RATES:
            xbar = lf.mean(lf.dtl(c, x_l, x_u))
            want = optimize.brentq(
                lambda cc: lf.mean(lf.dtl(cc, x_l, x_u)) - xbar,
                c / 4.0, c * 4.0, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500,
            )
            r = est.estimate(Family.DTL, targets(xbar, 0.1, x_min=x_l, x_max=x_u))
            assert r.spec.params == pytest.approx((want, x_l, x_u), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x_l,x_u,c", [(5.0, 6.0, 0.01), (1000.0, 1001.0, 0.1)])
    def test_narrow_window_far_from_zero(self, x_l, x_u, c):
        # the mean barely moves with c here: on [1000, 1001] one ulp of xbar
        # moves the root by 1.4e-11 relative, so c is checked against the
        # exact root for the rounded xbar, and the generating c only as far
        # as one ulp of xbar pins it
        xbar = lf.mean(lf.dtl(c, x_l, x_u))
        r = est.estimate(Family.DTL, targets(xbar, 0.1, x_min=x_l, x_max=x_u))
        c_hat = r.spec.params[0]
        assert c_hat == pytest.approx(ref.dtl_mean_root(xbar, x_l, x_u, c), rel=1e-12, abs=0.0)
        assert abs(c_hat - c) <= math.ulp(xbar) / lf.variance(r.spec)

    @pytest.mark.parametrize("unit", [1e-300, 1e-155, 1e-3, 1e5, 1e6, 1e8, 1e155, 1e300])
    def test_mass_unit_does_not_matter(self, unit):
        # a truncated Salpeter sample (slope 2.35 on [0.2, 40]) in other units
        u = np.random.default_rng(7).uniform(size=800)
        lo, hi = 0.2 ** -1.35, 40.0 ** -1.35
        m = (lo + u * (hi - lo)) ** (-1.0 / 1.35) * unit
        r = est.estimate(Family.DTL, targets(float(np.mean(m)), 0.1, x_min=float(m.min()), x_max=float(m.max())))
        assert abs(lf.mean(r.spec) / np.mean(m) - 1.0) <= 1e-12

    def test_unattainable_mean_names_the_interval(self):
        # on [1, 3] the c -> 0+ mean is (2 + 13/3)/3 = 19/9
        with pytest.raises(InfeasibleMomentsError, match=r"\(1, 2\.11111\)"):
            est.estimate(Family.DTL, targets(2.2, 0.1, x_min=1.0, x_max=3.0))
        r = est.estimate(Family.DTL, targets(2.1, 0.1, x_min=1.0, x_max=3.0))

    def test_unrepresentable_root_or_moments(self):
        # c, about 1/(xbar - x_l), is past the largest double
        with pytest.raises(EstimationError, match="parameters must be finite") as err:
            est.estimate(Family.DTL, targets(5e-324, 1.0, x_min=0.0, x_max=2e-323))
        assert type(err.value) is EstimationError
        # the second moment of masses near 1e200 is past it, but the mean match needs only the mean
        r = est.estimate(Family.DTL, targets(5e200, 1.0, x_min=1e200, x_max=1e201))
        assert abs(lf.mean(r.spec) / 5e200 - 1.0) <= 1e-12

    def test_mean_below_the_window_cut(self):
        # (xbar - x_l)/w = 1e-60 is below E[T] at c w = 1e50, where the window
        # is cut; a sample of n points has (xbar - x_l)/w >= 1/n
        with pytest.raises(InfeasibleMomentsError, match=r"\(0, 0\.555556\)") as err:
            est.estimate(Family.DTL, targets(1e-60, 1.0, x_min=0.0, x_max=1.0))
        assert 0.0 < err.value.best_residual < 1e-49

    @settings(max_examples=150, deadline=None)
    @given(
        sample=st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=2, max_size=40),
        k=st.integers(min_value=-100, max_value=100),
    )
    def test_any_unit_ends_in_a_fit_or_typed_error(self, sample, k):
        x = np.array(sample) * 10.0**k
        x_l, x_u = float(x.min()), float(x.max())
        assume(x_l < x_u)
        xbar = min(max(math.fsum(x) / len(x), x_l), x_u)
        # the c -> 0+ mean of (1 + x) on the window, exactly
        fl, fu = Fraction(x_l), Fraction(x_u)
        h = (fl + fu) / 2
        mu0 = (h + (fu * fu + fu * fl + fl * fl) / 3) / (1 + h)
        edge = abs(Fraction(xbar) / mu0 - 1) <= Fraction(1, 10**14)
        try:
            r = est.estimate(Family.DTL, targets(xbar, 1.0, x_min=x_l, x_max=x_u))
        except EstimationError as exc:
            # only an unattainable mean is refused; the interval's ends are known to rounding only
            assert type(exc) is InfeasibleMomentsError
            assert xbar <= x_l or xbar >= mu0 or edge
            return
        assert x_l < xbar < mu0 or edge
        assert abs(lf.mean(r.spec) / xbar - 1.0) <= 1e-12


class TestLognormal:
    def test_round_trip(self):
        t = est.targets_from_spec(lf.lognormal(0.6, 0.9))
        r = est.estimate(Family.LOGNORMAL, t)
        m, sigma = r.spec.params
        assert m == pytest.approx(0.6, rel=1e-12)
        assert sigma == pytest.approx(0.9, rel=1e-12)

    def test_forward_match(self):
        t = targets(1.3, 0.6)
        r = est.estimate(Family.LOGNORMAL, t)
        assert lf.mean(r.spec) == pytest.approx(1.3, rel=1e-12)
        assert lf.variance(r.spec) == pytest.approx(0.6, rel=1e-12)


    def test_variance_past_the_doubles_in_its_intermediates(self):
        # m = 1e-250, sigma = 26.28: e^(s2) expm1(s2) is 1e600, the variance 1e100
        t = targets(1e-100, 1e100, 1e120)
        r = est.estimate(Family.LOGNORMAL, t)
        assert np.all(np.abs(r.residuals) <= 1e-12 * np.array([t.xbar, t.s2]))


@pytest.mark.parametrize("family", [Family.TPLD, Family.LOGNORMAL])
@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e3, 1e100])
def test_closed_forms_converge_relative_to_the_targets(family, scale):
    # 200 gamma(2) draws times scale: an absolute tolerance failed both exact
    # closed forms from x1e3 up, and tpld's b underflowed to -0 at x1e-100
    def fit(k):
        masses = np.random.default_rng(0).gamma(2.0, size=200) * k
        t = lf.summarize(lf.MassCatalog("gamma", masses))
        return t, est.estimate(family, t)

    t, r = fit(scale)
    assert np.all(np.abs(r.residuals) <= 1e-13 * np.array([t.xbar, t.s2])), r.residuals
    # both are scale families: tpld's (b, c) scale as (k, 1/k), lognormal's (m, sigma) as (k, 1)
    per_unit = [scale, 1.0 / scale] if family is Family.TPLD else [scale, 1.0]
    np.testing.assert_allclose(r.spec.params, np.array(fit(1.0)[1].spec.params) * per_unit, rtol=1e-12)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("moments", [(1e-100, 1e100, 1e120), (1e-200, 1e100, 1e150), (1.0, 1.0, 3.0)], ids=str)
def test_extreme_targets_end_in_report_or_typed_error(family, moments):
    # relative variances past the doubles, and dtl's default x_max = inf; the
    # suite's warning filter makes a leaked RuntimeWarning an error
    try:
        r = est.estimate(family, targets(*moments))
    except EstimationError:
        return
    assert isinstance(r, est.SolveReport)


class TestDispatch:
    def test_every_family_is_estimable(self):
        # estimate is the one entry point
        assert callable(lf.estimate)
        assert [name for name in dir(lf) if name.startswith("estimate_")] == []
        rng = np.random.default_rng(53)
        from conftest import random_spec

        for fam in Family:
            spec = random_spec(fam, rng, nonneg=True)
            r = est.estimate(fam, est.targets_from_spec(spec))
            assert r.spec.family is fam

    def test_round_trip_residuals_are_small(self):
        t = est.targets_from_spec(lf.gld(2.0, 3.0, 0.5))
        r = est.estimate(Family.GLD, t)
        assert np.max(np.abs(r.residuals)) <= est.MOMENT_TOL

    # a table anchor of each family, and how many moments its fit matches
    MATCHED = {
        Family.LINDLEY1: ((2.94,), 1),
        Family.DTL: ((2.71, 0.019, 1.46), 1),
        Family.TPLD: ((-0.099, 4.2), 2),
        Family.LOGNORMAL: ((0.6, 0.9), 2),
        Family.PLD: ((2.66, 2.28), 2),
        Family.NWL: ((1.57, 3.77), 2),
        Family.GLD: ((4.80, 8.38, 12.01), 3),
        Family.NGLD: ((7.34, 1.57, 10.61), 3),
    }

    @pytest.mark.parametrize("family", list(MATCHED), ids=lambda f: f.value)
    def test_report_has_one_defect_per_matched_moment(self, family):
        params, k = self.MATCHED[family]
        r = est.estimate(family, est.targets_from_spec(lf.DistributionSpec(family, params)))
        assert (r.spec.family, len(r.residuals), r.iterations) == (family, k, 0)


# the family, log-uniform parameter ranges and numpy seed of each population sweep
POPULATIONS = {
    "gld": (Family.GLD, [(0.05, 50.0)] * 3, 1),
    "pld": (Family.PLD, [(1e-2, 1e2), (0.2, 20.0)], 3),
    # large c, where a log defect of the second moment that cancels as c grows
    # missed 178 generating vectors and s2 by up to 650 times
    "pld-wide": (Family.PLD, [(1e-2, 1e2), (1e2, 1e10)], 3),
    "ngld": (Family.NGLD, [(0.05, 200.0)] * 3, 0),
    "nwl": (Family.NWL, [(1e-3, 1e3), (1e-2, 1e2)], 3),
}


@pytest.mark.parametrize("population", list(POPULATIONS))
def test_population_targets_are_fitted(population):
    # 300 generating vectors each; absolute acceptance and the Newton start
    # grids lost 12 gld, 15 pld, 24 ngld and 8 nwl of them
    family, ranges, seed = POPULATIONS[population]
    low, high = np.log(ranges).T
    for p in np.exp(np.random.default_rng(seed).uniform(low, high, size=(300, len(ranges)))):
        t = est.targets_from_spec(lf.DistributionSpec(family, tuple(p)))
        r = est.estimate(family, t)
        if len(p) == 3 and r.spec.params[2] < p[2]:
            continue   # another exact root, with smaller c
        # the parameters as far as the targets' own rounding (1e-15 relative) pins them
        targets_dict = {"xbar": t.xbar, "s2": t.s2, "xbar3": t.xbar3}
        rtol = max(1e-6, determinacy(family, tuple(p), targets_dict) / 100.0)
        np.testing.assert_allclose(r.spec.params, p, rtol=rtol, err_msg=str(tuple(p)))
        if family is Family.PLD:
            # the judge reads the variance on the scale of s2 + xbar^2; the fit must also hold it on s2's
            assert abs(lf.variance(r.spec) / t.s2 - 1.0) <= 1e-12, tuple(p)


def test_batched_moment_maps_match_scalar_moments():
    # every parameter vector the frozen root-selection fixture reports, and each family's table anchor
    fixture = json.loads((Path(__file__).parent / "data" / "root_selection.json").read_text())
    for fam in Family:
        entries = [e for e in fixture["entries"] if e["family"] == fam.value and e["params"]]
        params = np.array([e["params"] for e in entries] + [TestDispatch.MATCHED[fam][0]])
        got = est._moment_map(fam)(params)
        k = got.shape[1]
        want = []
        for p in params:
            spec = lf.DistributionSpec(fam, p)
            want.append([lf.mean(spec), lf.variance(spec), lf.raw_moment(spec, 3)][:k])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@settings(max_examples=160, deadline=None)
@given(
    family=st.sampled_from(list(Family)),
    log_xbar=st.floats(min_value=-200.0, max_value=math.log10(1e150)),
    log_ratio=st.floats(min_value=-6.0, max_value=6.0),
    log_skew=st.floats(min_value=-1.0, max_value=3.0),
)
# MomentTargets(1e-108, 1e-216, 2e-323), where m1 * m2 underflows to 0
@example(family=Family.GLD, log_xbar=-108.0, log_ratio=0.0, log_skew=1.0)
# ngld's polynomial coefficients span far more than the doubles here
@example(family=Family.NGLD, log_xbar=-82.0, log_ratio=0.0, log_skew=0.0)
@example(family=Family.NGLD, log_xbar=-100.0, log_ratio=-6.0, log_skew=0.0)
def test_estimators_end_in_report_or_typed_error(family, log_xbar, log_ratio, log_skew):
    # s2/xbar^2 = 10^log_ratio and m3/(m1 m2) = 10^log_skew; RuntimeWarnings
    # are errors under the suite's warning filter, so none may leak
    def pow10(e):  # inf past the largest double, where MomentTargets refuses it
        return 10.0**e if e < 308.0 else math.inf

    log_m2 = 2.0 * log_xbar + math.log10(1.0 + 10.0**log_ratio)
    xbar = pow10(log_xbar)
    s2 = pow10(log_ratio + 2.0 * log_xbar)
    xbar3 = pow10(log_skew + log_xbar + log_m2)
    try:
        t = est.MomentTargets(xbar=xbar, s2=s2, xbar3=xbar3)
        r = est.estimate(family, t)
    except EstimationError:
        return
    assert isinstance(r, est.SolveReport)
    scale = np.array([t.xbar, t.s2 + t.xbar * t.xbar, t.xbar3])[: len(r.residuals)]
    assert np.max(np.abs(r.residuals) / scale) <= est.MOMENT_TOL


@pytest.mark.parametrize("log_ratio,log_skew", [(0.0, 0.5), (0.0, 1.0), (-2.0, 0.5)])
def test_ngld_fits_at_mean_1e100(log_ratio, log_skew):
    # the targets of the property above at xbar = 1e100; ngld's polynomial has
    # coefficients near xbar^6, so formed in doubles it loses these fits
    xbar, s2 = 1e100, 10.0 ** (log_ratio + 200.0)
    t = targets(xbar, s2, 10.0 ** (log_skew + 100.0 + math.log10(s2 + xbar * xbar)))
    r = est.estimate(Family.NGLD, t)
    assert np.max(np.abs(r.residuals) / np.array([t.xbar, t.s2 + t.xbar**2, t.xbar3])) <= est.MOMENT_TOL
