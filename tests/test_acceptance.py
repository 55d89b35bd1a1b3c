"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4's catalog checks need real cluster CSVs dropped under
``data/catalogs/`` (see README); they skip cleanly when absent.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import lindleyfit as lf
import reference_forms as ref
from conftest import ALL_FAMILIES, SELF_SAMPLE_SPECS, checkout_env, random_spec
from lindleyfit import estimation as est
from lindleyfit import gof
from lindleyfit.distributions import Family

CATALOG_DIR = Path(__file__).resolve().parent.parent / "data" / "catalogs"


def _quad_pdf(spec, weight=lambda x: 1.0):
    sup = lf.support(spec)
    hi = sup.upper if math.isfinite(sup.upper) else np.inf
    val, _ = integrate.quad(
        lambda x: weight(x) * lf.pdf(spec, x), sup.lower, hi, limit=200
    )
    return val


def test_criterion_1_normalization():
    """Every density integrates to 1 within 1e-8 at 20 random points per family."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for fam in ALL_FAMILIES:
        for _ in range(20):
            spec = random_spec(fam, rng)
            total = _quad_pdf(spec)
            worst = max(worst, abs(total - 1.0))
            assert total == pytest.approx(1.0, abs=1e-8), spec
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: normalization within 1e-8 "
          f"(worst defect {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_closed_forms_vs_quadrature():
    """Closed-form moments (r <= 4), the Whittaker-M-bearing truncated moment
    and the Whittaker-M generalized CDF all match adaptive quadrature to 1e-7."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for fam in ALL_FAMILIES:
        for _ in range(5):
            spec = random_spec(fam, rng, nonneg=True)
            mu = lf.mean(spec)
            var = lf.variance(spec)
            assert mu == pytest.approx(_quad_pdf(spec, lambda x: x), rel=1e-7), spec
            assert var == pytest.approx(
                _quad_pdf(spec, lambda x, m=mu: (x - m) ** 2), rel=1e-7
            ), spec
            for r in (1, 2, 3, 4):
                q = _quad_pdf(spec, lambda x, rr=r: x**rr)
                worst = max(worst, abs(lf.raw_moment(spec, r) / q - 1.0))
                assert lf.raw_moment(spec, r) == pytest.approx(q, rel=1e-7), (spec, r)

    # truncated-family moments through the Whittaker-M expression
    for _ in range(5):
        spec = random_spec(Family.DTL, rng)
        c, x_l, x_u = spec.params
        for r in (1, 2, 3, 4):
            form = ref.dtl_raw_moment(r, c, x_l, x_u)
            q = _quad_pdf(spec, lambda x, rr=r: x**rr)
            assert form == pytest.approx(q, rel=1e-7), (spec, r)

    # generalized-family CDF through the Whittaker-M expression
    for _ in range(5):
        spec = random_spec(Family.GLD, rng)
        a, b, c = spec.params
        for frac in (0.4, 1.0, 2.1):
            x = frac * lf.mean(spec)
            q, _ = integrate.quad(lambda t: lf.pdf(spec, t), 0.0, x, limit=200)
            assert ref.gld_cdf(x, a, b, c) == pytest.approx(q, rel=1e-7, abs=1e-10), (spec, x)
    print(f"\nACCEPTANCE 2 PASS: closed forms track quadrature to 1e-7 "
          f"(worst raw-moment defect {worst:.2e})")


def _roundtrip(fam, spec, rtol):
    t = est.targets_from_spec(spec)
    r = est.estimate(fam, t)
    np.testing.assert_allclose(r.spec.params, spec.params, rtol=rtol)


def test_criterion_3_estimator_round_trips():
    """Forward moments -> estimator -> parameters at 50 random points per family."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)

    for fam in (Family.LINDLEY1, Family.TPLD, Family.DTL):
        for _ in range(50):
            spec = random_spec(fam, rng)
            t = est.targets_from_spec(spec)
            r = est.estimate(fam, t)
            np.testing.assert_allclose(r.spec.params, spec.params, rtol=1e-8, atol=1e-10)

    for fam in (Family.PLD, Family.NWL):
        for _ in range(50):
            spec = random_spec(fam, rng)
            _roundtrip(fam, spec, 1e-5)

    # The three-parameter moment maps are generically many-to-one: distinct
    # positive vectors share their first three moments (verified by the
    # independent root enumeration).  Recovery is therefore asserted on draws
    # whose generating vector is the canonical smallest-c root - the one the
    # estimator is specified to report.  The remaining draws are either
    # genuinely ambiguous (an exact alternate root is returned) or sit at a
    # fold of the map where two roots coalesce and no finite-difference
    # solver can certify the 1e-10 defect tolerance; those may fail with a
    # small best-residual.
    ambiguous = 0
    near_fold = 0
    for fam, maker, enum, mom in (
        (Family.GLD, lf.gld, ref.gld_moment_roots, ref.gld_raw_moments),
        (Family.NGLD, lf.ngld, ref.ngld_moment_roots, ref.ngld_raw_moments),
    ):
        done = 0
        tried = 0
        while done < 50 and tried < 600:
            tried += 1
            p = tuple(rng.uniform(0.5, 6.0, size=3))
            t = est.targets_from_spec(maker(*p))
            if ref.is_canonical_root(p, enum(*mom(*p))):
                r = est.estimate(fam, t)
                np.testing.assert_allclose(r.spec.params, p, rtol=1e-5)
                done += 1
            else:
                ambiguous += 1
                try:
                    r = est.estimate(fam, t)
                except est.EstimationError as exc:
                    assert exc.best_residual is not None and exc.best_residual < 1e-5
                    near_fold += 1
                    continue
                assert r.converged
                assert lf.mean(r.spec) == pytest.approx(t.xbar, abs=1e-9)
                assert lf.variance(r.spec) == pytest.approx(t.s2, abs=1e-9)
                assert lf.raw_moment(r.spec, 3) == pytest.approx(t.xbar3, abs=1e-8)
        assert done == 50, f"{fam.value}: only {done} canonical draws found"

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 3 PASS: 50-point round trips per family "
          f"({ambiguous} non-canonical draws, {near_fold} at folds, {elapsed:.1f}s)")


TABLE_ANCHORS = {
    Family.LINDLEY1: [(2.05,), (2.94,), (3.18,), (2.76,)],
    Family.TPLD: [(-0.099, 4.2), (0.043, 4.32), (-0.035, 5.81), (-0.032, 4.75)],
    Family.PLD: [(2.66, 2.28), (3.33, 1.27), (4.64, 1.64), (3.48, 1.54)],
    Family.GLD: [(4.80, 8.38, 12.01), (1.4, 4.8, 8.0), (2.53, 6.5, 0.00046), (2.2, 5.09, 1.0)],
    # the published (3.14, -0.36, 6.24) row violates the positivity this
    # family requires and is not a representable parameter vector here
    Family.NGLD: [(7.34, 1.57, 10.61), (4.19, 11.51, 12.2), (5.73, 19.57, 14.46)],
    Family.NWL: [(0.008, 3.889), (1.57, 3.77), (0.0027, 5.86), (0.007, 5.015)],
    Family.DTL: [
        (1.61, 0.12, 1.61),
        (2.71, 0.019, 1.46),
        (4.81, 0.158, 1.317),
        (3.93, 0.16, 2.24),
    ],
}

_ANCHOR_RTOL = {
    Family.LINDLEY1: 1e-8,
    Family.TPLD: 1e-8,
    Family.DTL: 1e-8,
    Family.PLD: 1e-5,
    Family.NWL: 1e-5,
    Family.GLD: 1e-5,
    Family.NGLD: 1e-5,
}


def test_criterion_4_published_anchor_round_trips():
    """Every published parameter vector is recovered from its own forward moments."""
    checked = 0
    for fam, rows in TABLE_ANCHORS.items():
        for params in rows:
            spec = lf.DistributionSpec(fam, params)
            t = est.targets_from_spec(spec)
            r = est.estimate(fam, t)
            np.testing.assert_allclose(
                r.spec.params, params, rtol=_ANCHOR_RTOL[fam], atol=1e-10
            )
            checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} published parameter vectors recovered")


@pytest.mark.skipif(
    not (CATALOG_DIR / "ngc6611.csv").exists(),
    reason="real cluster catalog not supplied (drop CSVs in data/catalogs/)",
)
def test_criterion_4_catalog_reproduction():
    """With the real NGC 6611 export present, reproduce its published fits."""
    cat = lf.load_csv(CATALOG_DIR / "ngc6611.csv")
    t = est.MomentTargets.from_summary(lf.summarize(cat))

    one = est.estimate(Family.LINDLEY1, t)
    rep1 = gof.full_report(cat.masses, one.spec, 20)
    assert one.spec.params[0] == pytest.approx(2.94, abs=0.02)
    assert rep1.d == pytest.approx(0.077, abs=0.01)
    assert rep1.p_ks == pytest.approx(0.161, abs=0.05)

    trunc = est.estimate(Family.DTL, t)
    rep2 = gof.full_report(cat.masses, trunc.spec, 20)
    assert trunc.spec.params[0] == pytest.approx(2.71, abs=0.02)
    assert rep2.d == pytest.approx(0.061, abs=0.01)
    assert rep2.p_ks == pytest.approx(0.395, abs=0.05)
    print("\nACCEPTANCE 4b PASS: NGC 6611 rows reproduced from the supplied catalog")


def test_criterion_5_statistics_battery():
    # exact agreement degenerates correctly
    hist = gof.BinnedHistogram(edges=np.linspace(0, 1, 6), counts=np.array([4, 6, 5, 3, 2]))
    chi2 = gof.chi_square(hist, hist.counts.astype(float))
    assert chi2 == 0.0
    assert gof.q_probability(chi2, 3) == 1.0
    assert gof.aic(chi2, 2) == 4.0

    # published tail probability: chi2 = 33.48 at 18 dof -> 0.014
    assert gof.q_probability(33.48, 18) == pytest.approx(0.014, abs=0.002)

    # 10k self-samples at seed 42 stay under the 5% K-S critical value
    crit = 1.36 / math.sqrt(10_000)
    for fam, spec in SELF_SAMPLE_SPECS.items():
        draws = lf.sample(spec, 10_000, 42)
        d, _ = gof.ks_test(draws, spec)
        assert d < crit, (fam, d)

    # significance-level coverage over 200 seeded self fits
    spec = lf.lindley1(2.0)
    hits = 0
    for seed in range(200):
        _, p_ks = gof.ks_test(lf.sample(spec, 500, seed), spec)
        hits += p_ks >= 0.1
    assert hits >= 170
    print(f"\nACCEPTANCE 5 PASS: statistics battery (coverage {hits}/200)")


def test_criterion_6_limit_reductions():
    rng = np.random.default_rng(113)
    xs = np.linspace(0.1, 10.0, 150)
    for _ in range(5):
        c = rng.uniform(0.5, 5.0)
        np.testing.assert_allclose(
            lf.cdf(lf.dtl(c, 1e-9, 50.0), xs), lf.cdf(lf.lindley1(c), xs), atol=1e-6
        )
        np.testing.assert_allclose(
            lf.pdf(lf.tpld(1.0, c), xs), lf.pdf(lf.lindley1(c), xs), atol=1e-12
        )
    print("\nACCEPTANCE 6 PASS: truncation and two-parameter reductions hold")


def test_criterion_7_end_to_end(tmp_path):
    t0 = time.perf_counter()

    def synth_once(tag):
        workdir = tmp_path / tag
        workdir.mkdir()
        sample = workdir / "sample.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "lindleyfit.cli", "synth", "--family", "lindley1",
             "--params", "2.0", "--n", "5000", "--seed", "42", "--out", str(sample)],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return sample

    def fit_once(sample, tag):
        out = tmp_path / f"reports_{tag}"
        proc = subprocess.run(
            [sys.executable, "-m", "lindleyfit.cli", "fit", "--input", str(sample),
             "--families", "lindley1", "--out", str(out)],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, (out / "sample_fits.json").read_text()

    sample_a = synth_once("a")
    sample_b = synth_once("b")
    assert sample_a.read_bytes() == sample_b.read_bytes()

    stdout1, blob1 = fit_once(sample_a, "1")
    stdout2, blob2 = fit_once(sample_a, "2")
    assert stdout1 == stdout2
    assert blob1 == blob2

    report = json.loads(blob1)
    row = report["fits"][0]
    assert row["family"] == "lindley1"
    assert row["params"]["c"] == pytest.approx(2.0, abs=0.05)
    assert row["q"] > 0.001
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 7 PASS: synth->fit recovers c={row['params']['c']:.4f}, "
          f"Q={row['q']:.3g}, bit-identical reruns ({elapsed:.1f}s)")
