from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lindleyfit as lf
from lindleyfit.catalog import CatalogWarning, MassCatalog, load_csv, summarize
from lindleyfit.errors import CatalogError, DegenerateSampleError, DomainError


class TestLoadCsv:
    def test_plain_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0.5\n1.0\n1.5\n")
        cat = load_csv(p)
        assert cat.n == 3
        np.testing.assert_allclose(cat.masses, [0.5, 1.0, 1.5])
        assert cat.name == "m"

    def test_header_by_name(self, tmp_path):
        p = tmp_path / "stars.csv"
        p.write_text("id,mass\n1,0.5\n2,1.0\n")
        cat = load_csv(p, column="mass")
        np.testing.assert_allclose(cat.masses, [0.5, 1.0])

    def test_header_skipped_for_index_column(self, tmp_path):
        p = tmp_path / "stars.csv"
        p.write_text("mass\n0.5\n1.0\n")
        cat = load_csv(p, column=0)
        assert cat.n == 2

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# telescope export\n0.5\n# another note\n1.0\n")
        assert load_csv(p).n == 2

    def test_nonpositive_rejected_with_row_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.5\n-1\n1.5\n")
        with pytest.warns(CatalogWarning, match=r"line 2.*nonpositive"):
            cat = load_csv(p)
        assert cat.n == 2

    def test_unparsable_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.5\n1.0\nn/a\n")
        with pytest.warns(CatalogWarning, match="line 3"):
            cat = load_csv(p)
        assert cat.n == 2

    def test_missing_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,0.5\n2\n")
        with pytest.warns(CatalogWarning, match="missing"):
            cat = load_csv(p, column="b")
        assert cat.n == 1

    def test_all_rows_bad(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("-1\n-2\n")
        with pytest.warns(CatalogWarning):
            with pytest.raises(CatalogError) as err:
                load_csv(p)
        assert len(err.value.bad_rows) == 2

    def test_unknown_header_name(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("id,mass\n1,0.5\n")
        with pytest.raises(CatalogError, match="no column named"):
            load_csv(p, column="radius")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(CatalogError):
            load_csv(p)


class TestSummarize:
    def test_hand_computed(self):
        s = summarize(MassCatalog("toy", np.array([1.0, 2.0, 3.0])))
        assert s.n == 3
        assert s.xbar == pytest.approx(2.0)
        assert s.s2 == pytest.approx(1.0)
        assert s.raw_moments[1] == pytest.approx(14.0 / 3.0)
        assert (s.x_min, s.x_max) == (1.0, 3.0)

    def test_constant_sample_has_zero_variance(self):
        s = summarize(MassCatalog("const", np.array([0.7, 0.7])))
        assert s.s2 == 0.0

    def test_first_raw_moment_is_xbar_exactly(self):
        s = summarize(MassCatalog("toy", np.array([0.31, 0.77, 1.23, 2.9])))
        assert s.raw_moments[0] == s.xbar

    def test_single_value_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            summarize(MassCatalog("one", np.array([1.0])))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_masses_summarize_clean(self):
        # a fourth power of 1e80 overflows; only orders 1-3 are computed
        masses = 1e80 * np.array([0.31, 0.77, 1.23, 2.9])
        s = summarize(MassCatalog("huge", masses))
        assert len(s.raw_moments) == 3
        assert s.raw_moments[2] == pytest.approx(float(np.mean((masses / 1e80) ** 3)) * 1e240, rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scale,order,how",
        [(1e150, "third", "overflows to inf"), (1e-110, "third", "underflows to 0"),
         (1e160, "second", "overflows to inf"), (1e-170, "second", "underflows to 0")],
    )
    def test_unrepresentable_raw_moment_named(self, scale, order, how):
        masses = scale * np.array([0.31, 0.77, 1.23, 2.9])
        with pytest.raises(DomainError, match=f"the {order} raw moment of the masses {how}"):
            summarize(MassCatalog("scaled", masses))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0),
            min_size=2,
            max_size=60,
        ),
        st.randoms(),
    )
    def test_permutation_invariance(self, values, rnd):
        masses = list(values)
        shuffled = masses[:]
        rnd.shuffle(shuffled)
        a = summarize(MassCatalog("a", np.array(masses)))
        b = summarize(MassCatalog("b", np.array(shuffled)))
        assert a.xbar == pytest.approx(b.xbar, rel=1e-12)
        assert a.s2 == pytest.approx(b.s2, rel=1e-9, abs=1e-12)
        assert (a.x_min, a.x_max) == (b.x_min, b.x_max)

    def test_two_pass_variance_matches_alternatives(self):
        rng = np.random.default_rng(67)
        masses = rng.uniform(0.1, 3.0, size=500)
        s = summarize(MassCatalog("r", masses))
        assert s.s2 == pytest.approx(float(np.var(masses, ddof=1)), rel=1e-12)
        n = masses.size
        single_pass = (np.sum(masses**2) - n * np.mean(masses) ** 2) / (n - 1)
        assert s.s2 == pytest.approx(single_pass, rel=1e-9)

    def test_sampled_mean_close_to_population(self):
        draws = lf.sample(lf.lindley1(2.0), 10_000, 11)
        s = summarize(MassCatalog("synth", draws))
        se = np.sqrt(lf.variance(lf.lindley1(2.0)) / 10_000)
        assert abs(s.xbar - 2.0 / 3.0) < 3.0 * se


class TestMassCatalog:
    def test_rejects_nonpositive(self):
        with pytest.raises(CatalogError):
            MassCatalog("bad", np.array([1.0, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(CatalogError):
            MassCatalog("bad", np.array([]))


NGC2362 = Path(__file__).resolve().parent.parent / "data" / "catalogs" / "ngc2362.csv"


@pytest.mark.skipif(not NGC2362.exists(), reason="real cluster catalog not supplied")
def test_ngc2362_export_matches_published_census():
    cat = load_csv(NGC2362)
    assert cat.n == 271
    assert cat.masses.min() == pytest.approx(0.11, abs=0.01)
    assert cat.masses.max() == pytest.approx(1.47, abs=0.01)
