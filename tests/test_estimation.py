import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lindleyfit as lf
import reference_forms as ref
from lindleyfit import estimation as est
from lindleyfit.distributions import Family
from lindleyfit.errors import (
    EstimationError,
    FamilyError,
    InfeasibleMomentsError,
    NoSolutionError,
)


def targets(xbar, s2, xbar3=1.0, x_min=0.0, x_max=math.inf):
    return est.MomentTargets(xbar=xbar, s2=s2, xbar3=xbar3, x_min=x_min, x_max=x_max)


class TestMomentTargets:
    def test_validation(self):
        with pytest.raises(InfeasibleMomentsError):
            targets(-1.0, 1.0)
        with pytest.raises(InfeasibleMomentsError):
            targets(1.0, 0.0)
        with pytest.raises(InfeasibleMomentsError):
            targets(1.0, 1.0, x_min=2.0, x_max=3.0)

    def test_from_summary(self):
        cat = lf.MassCatalog("toy", np.array([0.5, 1.0, 1.5, 2.0]))
        summ = lf.summarize(cat)
        t = est.MomentTargets.from_summary(summ)
        assert t.xbar == summ.xbar
        assert t.s2 == summ.s2
        assert t.xbar3 == summ.raw_moments[2]
        assert (t.x_min, t.x_max) == (0.5, 2.0)


class TestLindley1:
    def test_xbar_15_gives_c_1(self):
        r = est.estimate_lindley1(targets(1.5, 0.5))
        assert r.converged
        assert r.spec.params[0] == pytest.approx(1.0, abs=1e-10)

    def test_table_anchor_round_trip(self):
        t = est.targets_from_spec(lf.lindley1(2.94))
        r = est.estimate_lindley1(t)
        assert r.spec.params[0] == pytest.approx(2.94, abs=1e-8)

    def test_xbar_two_thirds_gives_c_2(self):
        r = est.estimate_lindley1(targets(2.0 / 3.0, 0.5))
        assert r.spec.params[0] == pytest.approx(2.0, abs=1e-10)

    def test_report_residual_is_mean_defect(self):
        t = targets(0.8, 0.3)
        r = est.estimate_lindley1(t)
        assert abs(r.residuals[0]) <= 1e-10
        assert lf.mean(r.spec) == pytest.approx(t.xbar, abs=1e-9)

    @pytest.mark.parametrize("xbar", np.geomspace(1e-11, 1e11, 45))
    def test_closed_form_matches_mean_at_every_scale(self, xbar):
        r = est.estimate_lindley1(targets(xbar, 0.5))
        assert r.converged
        assert abs(lf.mean(r.spec) / xbar - 1.0) <= 1e-12

    @pytest.mark.parametrize("xbar", [5e-324, 1.7e308])
    def test_unrepresentable_root_is_no_solution(self, xbar):
        # c would be inf or 0 in double precision
        with pytest.raises(NoSolutionError):
            est.estimate_lindley1(targets(xbar, 0.5))


def test_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(lf.__file__))
    code = "import sys, lindleyfit; print([m for m in sys.modules if m.startswith('scipy.optimize')])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestTpld:
    def test_closed_form_round_trip(self):
        r = est.estimate_tpld(targets(2.0 / 3.0, 7.0 / 18.0))
        b, c = r.spec.params
        assert b == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(2.0, abs=1e-12)

    def test_infeasible_when_variance_dominates(self):
        with pytest.raises(InfeasibleMomentsError):
            est.estimate_tpld(targets(1.0, 1.0))

    def test_negative_b_anchor_round_trip(self):
        t = est.targets_from_spec(lf.tpld(-0.099, 4.2))
        r = est.estimate_tpld(t)
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
            r1 = est.estimate_tpld(targets(xbar, s2))
        except (InfeasibleMomentsError, Exception):
            return
        r2 = est.estimate_tpld(targets(k * xbar, k * k * s2))
        b1, c1 = r1.spec.params
        b2, c2 = r2.spec.params
        assert b2 == pytest.approx(k * b1, rel=1e-9)
        assert c2 == pytest.approx(c1 / k, rel=1e-9)


class TestTwoParam:
    def test_pld_table_anchor(self):
        t = est.targets_from_spec(lf.pld(2.66, 2.28))
        r = est.estimate_two_param(Family.PLD, t)
        np.testing.assert_allclose(r.spec.params, (2.66, 2.28), rtol=1e-6)

    def test_nwl_table_anchor(self):
        t = est.targets_from_spec(lf.nwl(1.57, 3.77))
        r = est.estimate_two_param(Family.NWL, t)
        np.testing.assert_allclose(r.spec.params, (1.57, 3.77), rtol=1e-6)

    def test_pld_unit_round_trip(self):
        t = est.targets_from_spec(lf.pld(1.0, 1.0))
        r = est.estimate_two_param(Family.PLD, t)
        np.testing.assert_allclose(r.spec.params, (1.0, 1.0), rtol=1e-8)

    def test_converged_residuals_below_tolerance(self):
        t = est.targets_from_spec(lf.nwl(0.7, 2.5))
        r = est.estimate_two_param(Family.NWL, t)
        assert r.converged
        assert np.max(np.abs(r.residuals)) <= est.NEWTON_TOL

    def test_random_round_trips(self):
        rng = np.random.default_rng(41)
        for fam, maker in ((Family.PLD, lf.pld), (Family.NWL, lf.nwl)):
            for _ in range(10):
                p = rng.uniform(0.3, 6.0, size=2)
                r = est.estimate_two_param(fam, est.targets_from_spec(maker(*p)))
                np.testing.assert_allclose(r.spec.params, p, rtol=1e-5)

    def test_infeasible_targets_error(self):
        # variance far below anything the power family can reach at this mean
        with pytest.raises(EstimationError) as err:
            est.estimate_two_param(Family.PLD, targets(5.0, 1e-6))
        assert err.value.best_residual is not None

    def test_family_guard(self):
        with pytest.raises(FamilyError):
            est.estimate_two_param(Family.GLD, targets(1.0, 0.5))


class TestThreeParam:
    def test_gld_table_anchor(self):
        t = est.targets_from_spec(lf.gld(4.80, 8.38, 12.01))
        r = est.estimate_three_param(Family.GLD, t)
        np.testing.assert_allclose(r.spec.params, (4.80, 8.38, 12.01), rtol=1e-5)

    def test_ngld_table_anchor(self):
        t = est.targets_from_spec(lf.ngld(7.34, 1.57, 10.61))
        r = est.estimate_three_param(Family.NGLD, t)
        np.testing.assert_allclose(r.spec.params, (7.34, 1.57, 10.61), rtol=1e-5)

    def test_gld_unit_round_trip(self):
        t = est.targets_from_spec(lf.gld(1.0, 1.0, 1.0))
        r = est.estimate_three_param(Family.GLD, t)
        np.testing.assert_allclose(r.spec.params, (1.0, 1.0, 1.0), rtol=1e-8)

    def test_returns_exact_root_of_the_system(self):
        rng = np.random.default_rng(43)
        for fam, maker in ((Family.GLD, lf.gld), (Family.NGLD, lf.ngld)):
            for _ in range(5):
                p = rng.uniform(0.5, 6.0, size=3)
                t = est.targets_from_spec(maker(*p))
                r = est.estimate_three_param(fam, t)
                assert r.converged
                spec = r.spec
                assert lf.mean(spec) == pytest.approx(t.xbar, abs=1e-9)
                assert lf.variance(spec) == pytest.approx(t.s2, abs=1e-9)
                assert lf.raw_moment(spec, 3) == pytest.approx(t.xbar3, abs=1e-8)

    def test_selects_smallest_c_root(self):
        # these moments admit two exact parameter vectors; the convention is
        # to report the smaller-c one, matching the published tables
        m = ref.gld_raw_moments(4.80, 8.38, 12.01)
        roots = ref.gld_moment_roots(*m)
        assert len(roots) >= 2
        t = est.targets_from_spec(lf.gld(4.80, 8.38, 12.01))
        r = est.estimate_three_param(Family.GLD, t)
        assert r.spec.params[2] == pytest.approx(min(root[2] for root in roots), rel=1e-6)

    def test_canonical_random_round_trips(self):
        # recovery is asserted only where the generating vector is the
        # canonical (smallest-c) root of its own moments; other draws are
        # genuinely ambiguous (distinct vectors share all three moments)
        rng = np.random.default_rng(47)
        for fam, maker, enum, mom in (
            (Family.GLD, lf.gld, ref.gld_moment_roots, ref.gld_raw_moments),
            (Family.NGLD, lf.ngld, ref.ngld_moment_roots, ref.ngld_raw_moments),
        ):
            done = 0
            for _ in range(200):
                if done >= 5:
                    break
                p = tuple(rng.uniform(0.5, 6.0, size=3))
                roots = enum(*mom(*p))
                if not ref.is_canonical_root(p, roots):
                    continue
                r = est.estimate_three_param(fam, est.targets_from_spec(maker(*p)))
                np.testing.assert_allclose(r.spec.params, p, rtol=1e-5)
                done += 1
            assert done >= 5

    def test_family_guard(self):
        with pytest.raises(FamilyError):
            est.estimate_three_param(Family.PLD, targets(1.0, 0.5))


class TestDtl:
    def test_table_anchor(self):
        t = est.targets_from_spec(lf.dtl(2.71, 0.019, 1.46))
        r = est.estimate_dtl(t)
        c, x_l, x_u = r.spec.params
        assert c == pytest.approx(2.71, abs=1e-6)
        assert (x_l, x_u) == (0.019, 1.46)

    def test_midpoint_attainability(self):
        x_l, x_u = 0.2, 2.5
        xbar = lf.mean(lf.dtl(1.0, x_l, x_u))
        r = est.estimate_dtl(targets(xbar, 0.1, x_min=x_l, x_max=x_u))
        assert r.spec.params[0] == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_support(self):
        with pytest.raises(InfeasibleMomentsError):
            est.estimate_dtl(targets(1.0, 0.1, x_min=1.0, x_max=1.0))

    def test_mean_outside_attainable_range(self):
        # mean almost at the upper bound needs c below the bracket
        with pytest.raises(NoSolutionError):
            est.estimate_dtl(targets(2.999999, 0.1, x_min=0.1, x_max=3.0))


class TestLognormal:
    def test_round_trip(self):
        t = est.targets_from_spec(lf.lognormal(0.6, 0.9))
        r = est.estimate_lognormal(t)
        m, sigma = r.spec.params
        assert m == pytest.approx(0.6, rel=1e-12)
        assert sigma == pytest.approx(0.9, rel=1e-12)

    def test_forward_match(self):
        t = targets(1.3, 0.6)
        r = est.estimate_lognormal(t)
        assert lf.mean(r.spec) == pytest.approx(1.3, rel=1e-12)
        assert lf.variance(r.spec) == pytest.approx(0.6, rel=1e-12)


class TestDispatch:
    def test_every_family_is_estimable(self):
        rng = np.random.default_rng(53)
        from conftest import random_spec

        for fam in Family:
            spec = random_spec(fam, rng, nonneg=True)
            r = est.estimate(fam, est.targets_from_spec(spec))
            assert r.spec.family is fam
            assert r.converged

    def test_round_trip_residuals_are_small(self):
        t = est.targets_from_spec(lf.gld(2.0, 3.0, 0.5))
        r = est.estimate(Family.GLD, t)
        assert np.max(np.abs(r.residuals)) <= est.NEWTON_TOL
