import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lindleyfit as lf
from conftest import checkout_env
from lindleyfit import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def synth_csv(tmp_path, capsys):
    # a sample whose moments are feasible for every family (seed chosen so)
    path = tmp_path / "synth.csv"
    code = cli.main(
        ["synth", "--family", "gld", "--params", "2.0,3.0,0.5",
         "--n", "900", "--seed", "3", "--out", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    return path


class TestSynth:
    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert run(capsys, "synth", "--family", "lindley1", "--params", "2.0",
                       "--n", "100", "--seed", "7", "--out", str(p))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reusable_by_loader(self, synth_csv):
        cat = lf.load_csv(synth_csv)
        assert cat.n == 900
        assert np.all(cat.masses > 0)

    def test_dtl_draws_respect_bounds(self, tmp_path, capsys):
        p = tmp_path / "dtl.csv"
        code, _, _ = run(capsys, "synth", "--family", "dtl", "--params", "2.71,0.019,1.46",
                         "--n", "300", "--seed", "1", "--out", str(p))
        assert code == 0
        cat = lf.load_csv(p)
        assert cat.masses.min() >= 0.019
        assert cat.masses.max() <= 1.46

    def test_bad_params_give_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--family", "lindley1", "--params", "-2.0",
                           "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "error" in err

    def test_negative_seed_gives_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--family", "lindley1", "--params", "2.0",
                           "--n", "10", "--seed", "-3", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_family(self, tmp_path, capsys):
        # the message fit gives, with the valid names, not the enum's "'weibull' is not a valid Family"
        code, _, err = run(capsys, "synth", "--family", "weibull", "--params", "1.0",
                           "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "unknown family 'weibull'; valid: lognormal, lindley1," in err


class TestFit:
    def test_full_run_writes_json(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "reports"
        code, stdout, _ = run(
            capsys, "fit", "--input", str(synth_csv), "--out", str(out)
        )
        assert code == 0
        report = json.loads((out / "synth_fits.json").read_text())
        assert report["n"] == 900
        assert {f["family"] for f in report["fits"]} == {f.value for f in cli.ALL_FAMILIES}
        assert report["best"] in {f.value for f in cli.ALL_FAMILIES}
        assert "best fit:" in stdout

    def test_table_and_json_show_identical_numbers(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "reports"
        code, stdout, _ = run(
            capsys, "fit", "--input", str(synth_csv), "--families", "lindley1,lognormal",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "synth_fits.json").read_text())
        for f in report["fits"]:
            row = next(line for line in stdout.splitlines() if line.startswith(f["family"]))
            for value in (f["aic"], f["chi2_red"], f["q"], f["d"], f["p_ks"]):
                assert f"{value:.4g}" in row

    def test_deterministic_rerun(self, synth_csv, tmp_path, capsys):
        outs = []
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            code, stdout, _ = run(capsys, "fit", "--input", str(synth_csv), "--out", str(out))
            assert code == 0
            outs.append(stdout)
            blobs.append((out / "synth_fits.json").read_bytes())
        assert outs[0] == outs[1]
        assert blobs[0] == blobs[1]

    def test_partial_failure_exit_code(self, tmp_path, capsys):
        # variance above mean^2 makes the closed-form two-parameter estimator
        # infeasible while the one-parameter family still fits
        rng = np.random.default_rng(3)
        masses = np.concatenate([rng.uniform(0.05, 0.2, 300), rng.uniform(2.0, 9.0, 120)])
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(repr(float(v)) for v in masses) + "\n")
        code, stdout, _ = run(
            capsys, "fit", "--input", str(path), "--families", "lindley1,tpld"
        )
        assert code == 1
        assert "InfeasibleMomentsError" in stdout
        assert "lindley1" in stdout

    def test_seed_option_is_gone(self, synth_csv, capsys):
        # fit is deterministic without a seed, so argparse rejects the option
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--input", str(synth_csv), "--seed", "0"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_empty_family_list_is_config_error(self, synth_csv, capsys):
        code, _, err = run(capsys, "fit", "--input", str(synth_csv), "--families", ",")
        assert code == 2

    def test_repeated_family_is_config_error(self, synth_csv, capsys):
        # a repeated family was fitted twice and both identical rows starred as best
        code, stdout, err = run(capsys, "fit", "--input", str(synth_csv), "--families", "lindley1, LINDLEY1")
        assert code == 2
        assert err.startswith("error:") and "'lindley1'" in err, err
        assert stdout == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale,how", [(1e150, "overflows to inf"), (1e-110, "underflows to 0")])
    def test_unrepresentable_moment_is_config_error(self, tmp_path, capsys, scale, how):
        # m**3 overflowed with a RuntimeWarning above about 5.6e102, and the
        # error then read "third raw moment must be positive, got inf"
        masses = np.random.default_rng(0).gamma(2.0, size=200) * scale
        path = tmp_path / "scaled.csv"
        path.write_text("\n".join(repr(float(v)) for v in masses) + "\n")
        code, _, err = run(capsys, "fit", "--input", str(path))
        assert code == 2
        assert err == f"error: scaled: the third raw moment of the masses {how} in double precision\n"

    def test_unreadable_catalog_does_not_stop_the_others(self, synth_csv, tmp_path, capsys):
        # the first catalog's error ended the run before the second was read
        big = tmp_path / "zbig.csv"
        big.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(0).gamma(2.0, size=200) * 1e150))
        code, stdout, err = run(capsys, "fit", "--input", str(big), "--input", str(tmp_path / "nope.csv"),
                                "--input", str(synth_csv), "--families", "lindley1")
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("error: zbig: the third raw moment"), err
        assert lines[1].startswith("error:") and "nope.csv" in lines[1], err
        assert stdout.startswith("catalog synth:") and "best fit: lindley1" in stdout

    def test_constant_catalog_does_not_stop_the_others(self, synth_csv, tmp_path, capsys):
        const, gamma = tmp_path / "const.csv", tmp_path / "gamma.csv"
        const.write_text("mass\n0.1\n0.1\n0.1\n")
        gamma.write_text("".join(f"{m!r}\n" for m in np.random.default_rng(2).gamma(2.0, size=200).tolist()))
        code, stdout, err = run(capsys, "fit", "--input", str(synth_csv), "--input", str(const),
                                "--input", str(gamma), "--families", "lindley1")
        assert code == 2
        assert err == "error: const: every mass equals 0.1, so the sample has no variance\n"
        tables = stdout.split("\n\n")
        assert [t.split(":")[0] for t in tables if t] == ["catalog synth", "catalog gamma"], stdout
        assert all("best fit: lindley1" in t for t in tables if t)

    @pytest.fixture()
    def two_column_csv(self, tmp_path):
        masses = np.random.default_rng(2).gamma(2.0, size=200).tolist()
        path = tmp_path / "two.csv"
        path.write_text("id,mass\n" + "".join(f"{i},{m!r}\n" for i, m in enumerate(masses, 1)))
        return path

    @pytest.mark.parametrize("column", ["mass", "1"])
    def test_column_by_header_name_or_index(self, two_column_csv, capsys, column):
        code, stdout, _ = run(capsys, "fit", "--input", str(two_column_csv), "--column", column,
                              "--families", "lindley1")
        assert code == 0
        assert stdout.startswith("catalog two: n=200,") and "best fit: lindley1" in stdout

    def test_negative_column_is_config_error(self, two_column_csv, capsys):
        code, stdout, err = run(capsys, "fit", "--input", str(two_column_csv), "--column", "-1")
        assert code == 2
        assert err == "error: column index must be >= 0, got -1\n" and stdout == ""

    def test_bins_must_exceed_parameter_count(self, synth_csv, capsys):
        code, _, err = run(capsys, "fit", "--input", str(synth_csv), "--bins", "3")
        assert code == 2

    def test_csv_format(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "reports"
        code, _, _ = run(capsys, "fit", "--input", str(synth_csv),
                         "--families", "lindley1", "--format", "csv", "--out", str(out))
        assert code == 0
        text = (out / "synth_fits.csv").read_text()
        assert text.startswith("family,")
        assert "lindley1" in text


class TestPlotdata:
    def test_outputs(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "plot"
        code, _, _ = run(capsys, "plotdata", "--input", str(synth_csv),
                         "--family", "lindley1", "--out", str(out))
        assert code == 0
        hist = np.genfromtxt(out / "synth_lindley1_hist.csv", delimiter=",", names=True)
        widths = hist["bin_right"] - hist["bin_left"]
        assert float(np.sum(widths * hist["density"])) == pytest.approx(1.0, abs=1e-12)

        pdf = np.genfromtxt(out / "synth_lindley1_pdf.csv", delimiter=",", names=True)
        assert pdf["x"].size == 512
        cdf = np.genfromtxt(out / "synth_lindley1_cdf.csv", delimiter=",", names=True)
        assert np.all(np.diff(cdf["cdf"]) >= -1e-15)

        ecdf = np.genfromtxt(out / "synth_lindley1_ecdf.csv", delimiter=",", names=True)
        assert np.all(np.diff(ecdf["ecdf"]) >= 0.0)

        # trapezoid integral of the sampled pdf equals the cdf span
        area = float(np.trapezoid(pdf["pdf"], pdf["x"]))
        span = float(cdf["cdf"][-1] - cdf["cdf"][0])
        assert area == pytest.approx(span, abs=1e-3)

    @pytest.mark.parametrize("family", ["all", "gld,pld"])
    def test_takes_exactly_one_family(self, synth_csv, tmp_path, capsys, family):
        # 'all' once plotted lognormal, and a list only its first family
        code, _, err = run(capsys, "plotdata", "--input", str(synth_csv),
                           "--family", family, "--out", str(tmp_path / "plot"))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert not (tmp_path / "plot").exists()

    def test_unknown_family(self, synth_csv, tmp_path, capsys):
        code, _, err = run(capsys, "plotdata", "--input", str(synth_csv),
                           "--family", "weibull", "--out", str(tmp_path / "plot"))
        assert code == 2
        assert "unknown family 'weibull'; valid: lognormal, lindley1," in err

    def test_plots_every_input(self, synth_csv, tmp_path, capsys):
        # only the first --input was plotted, with exit code 0
        second = tmp_path / "second.csv"
        second.write_text(synth_csv.read_text())
        wide = tmp_path / "wide.csv"
        rng = np.random.default_rng(3)
        masses = np.concatenate([rng.uniform(0.05, 0.2, 300), rng.uniform(2.0, 9.0, 120)])
        wide.write_text("\n".join(repr(float(v)) for v in masses) + "\n")
        out = tmp_path / "plot"
        code, _, _ = run(capsys, "plotdata", "--input", str(synth_csv), "--input", str(second),
                         "--family", "lindley1", "--out", str(out))
        assert code == 0
        kinds = ("hist", "pdf", "cdf", "ecdf")
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{stem}_lindley1_{kind}.csv" for stem in ("synth", "second") for kind in kinds
        )
        # tpld cannot fit the wide sample (variance above mean^2): exit 1, the other catalog still plotted
        code, _, err = run(capsys, "plotdata", "--input", str(wide), "--input", str(synth_csv),
                           "--family", "tpld", "--out", str(out))
        assert code == 1
        assert err.startswith("wide: fit failed for tpld"), err
        assert all((out / f"synth_tpld_{kind}.csv").exists() for kind in kinds)
        assert not any(out.glob("wide_*"))

    def test_unreadable_catalog_does_not_stop_the_others(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "plot"
        code, _, err = run(capsys, "plotdata", "--input", str(tmp_path / "nope.csv"), "--input", str(synth_csv),
                           "--family", "lindley1", "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "nope.csv" in err, err
        assert (out / "synth_lindley1_pdf.csv").exists()

    def test_requires_out(self, synth_csv, capsys):
        code, _, err = run(capsys, "plotdata", "--input", str(synth_csv),
                           "--family", "lindley1", "--out", "")
        assert code == 2


class TestScripts:
    """The two scripts the README documents, in a fresh interpreter where every warning is an error."""

    @staticmethod
    def run_script(name, *args):
        proc = subprocess.run(
            [sys.executable, "-W", "error", str(SCRIPTS / name), *args],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        # one table row per family, named in its first column
        rows = Counter(line.split()[0] for line in proc.stdout.splitlines() if line.strip())
        assert all(rows[f.value] == 1 for f in lf.Family), proc.stdout

    def test_fit_catalogs(self, synth_csv, tmp_path):
        out = tmp_path / "reports"
        self.run_script("fit_catalogs.py", str(synth_csv.parent), "--out", str(out))
        fits = json.loads((out / "synth_fits.json").read_text())["fits"]
        assert sorted(f["family"] for f in fits) == sorted(f.value for f in lf.Family)

    def test_synth_roundtrip(self):
        self.run_script("synth_roundtrip.py", "--n", "500", "--seed", "3")


def test_readme_quick_tour():
    """The README's library quick tour runs in a fresh interpreter where every warning is an error."""
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "lf.summarize(cat)" in tour
    proc = subprocess.run([sys.executable, "-W", "error", "-c", tour],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
