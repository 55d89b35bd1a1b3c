"""Command-line front-end.

Subcommands:

* ``fit``       fit selected families to one or more catalogs, print a
                comparison table, optionally write JSON/CSV reports.
* ``plotdata``  write histogram / fitted-PDF / CDF curves as CSV columns.
* ``synth``     write synthetic draws from a known distribution as CSV.

An ``--input`` directory stands for every ``*.csv`` in it, in sorted order.

Exit codes: 0 success, 1 partial failure (some families failed to fit),
2 configuration or I/O error.  A catalog that cannot be read or summarised,
or a directory with no ``*.csv``, gives exit code 2, but the other catalogs
are still fitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distributions as dist
from . import estimation, gof
from .catalog import load_csv, summarize
from .distributions import DistributionSpec, Family
from .errors import LindleyFitError

# Default fitting order mirrors the comparison tables.
ALL_FAMILIES = (
    Family.LOGNORMAL,
    Family.LINDLEY1,
    Family.TPLD,
    Family.PLD,
    Family.GLD,
    Family.NGLD,
    Family.NWL,
    Family.DTL,
)

_TABLE_COLUMNS = ("family", "parameters", "AIC", "chi2_red", "Q", "D", "P_KS", "best")


@dataclass
class RunConfig:
    inputs: list[str]
    column: str = "0"
    families: tuple[Family, ...] = ALL_FAMILIES
    n_bins: int = 20
    out_dir: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if not self.inputs:
            raise ValueError("at least one --input is required")
        if not self.families:
            raise ValueError("at least one family must be selected")
        max_k = max(len(dist.PARAM_NAMES[f]) for f in self.families)
        if self.n_bins <= max_k:
            raise ValueError(
                f"--bins {self.n_bins} must exceed the largest parameter count {max_k}"
            )
        if self.fmt not in ("json", "csv", "table"):
            raise ValueError(f"--format must be json, csv or table, got {self.fmt!r}")


def _parse_families(text: str) -> tuple[Family, ...]:
    if text.strip().lower() in ("all", ""):
        return ALL_FAMILIES
    out = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            family = Family(token)
        except ValueError:
            valid = ", ".join(f.value for f in ALL_FAMILIES)
            raise ValueError(f"unknown family {token!r}; valid: {valid}") from None
        if family in out:
            raise ValueError(f"family {token!r} is listed more than once")
        out.append(family)
    return tuple(out)


def _load_targets(config: RunConfig, path: str):
    """The catalog at ``path`` (column by index or header name) and its moment targets."""
    cat = load_csv(path, column=config.column)
    return cat, summarize(cat)


def _fit_catalog(config: RunConfig, path: str) -> dict:
    cat, targets = _load_targets(config, path)
    fits = []
    for family in config.families:
        entry: dict = {"family": family.value}
        try:
            solve = estimation.estimate(family, targets)
            fit = gof.full_report(cat.masses, solve.spec, config.n_bins)
            entry.update(
                params=solve.spec.param_dict(),
                iterations=solve.iterations,
                chi2=fit.chi2,
                chi2_red=fit.chi2_red,
                q=fit.q,
                aic=fit.aic,
                d=fit.d,
                p_ks=fit.p_ks,
            )
        except LindleyFitError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        fits.append(entry)
    ok = [f for f in fits if "error" not in f]
    best = None
    if ok:
        best = max(ok, key=lambda f: (f["p_ks"], -f["aic"]))["family"]
    return {
        "catalog": cat.name,
        "path": str(path),
        "n": cat.n,
        "x_min": targets.x_min,
        "x_max": targets.x_max,
        "xbar": targets.xbar,
        "s2": targets.s2,
        "n_bins": config.n_bins,
        "fits": fits,
        "best": best,
    }


def _fmt_params(params: dict) -> str:
    return ", ".join(f"{k}={v:.4g}" for k, v in params.items())


def _report_table(report: dict) -> str:
    lines = [
        f"catalog {report['catalog']}: n={report['n']}, "
        f"range=[{report['x_min']:.4g}, {report['x_max']:.4g}], bins={report['n_bins']}"
    ]
    rows = []
    for f in report["fits"]:
        if "error" in f:
            rows.append([f["family"], f["error"], "-", "-", "-", "-", "-", ""])
        else:
            rows.append(
                [
                    f["family"],
                    _fmt_params(f["params"]),
                    f"{f['aic']:.4g}",
                    f"{f['chi2_red']:.4g}",
                    f"{f['q']:.4g}",
                    f"{f['d']:.4g}",
                    f"{f['p_ks']:.4g}",
                    "*" if f["family"] == report["best"] else "",
                ]
            )
    widths = [len(h) for h in _TABLE_COLUMNS]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    sep = "  "
    lines.append(sep.join(h.ljust(widths[j]) for j, h in enumerate(_TABLE_COLUMNS)))
    lines.append(sep.join("-" * w for w in widths))
    for row in rows:
        lines.append(sep.join(row[j].ljust(widths[j]) for j in range(len(row))))
    if report["best"] is not None:
        lines.append(f"best fit: {report['best']} (highest P_KS, ties by lowest AIC)")
    return "\n".join(lines)


def _write_report(report: dict, config: RunConfig) -> None:
    if config.out_dir is None:
        return
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = report["catalog"]
    if config.fmt == "json":
        (out / f"{stem}_fits.json").write_text(json.dumps(report, indent=2) + "\n")
    elif config.fmt == "csv":
        with open(out / f"{stem}_fits.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["family", "parameters", "aic", "chi2", "chi2_red", "q", "d", "p_ks", "best", "error"]
            )
            for f in report["fits"]:
                if "error" in f:
                    writer.writerow([f["family"], "", "", "", "", "", "", "", "", f["error"]])
                else:
                    writer.writerow(
                        [
                            f["family"],
                            ";".join(f"{k}={v!r}" for k, v in f["params"].items()),
                            repr(f["aic"]),
                            repr(f["chi2"]),
                            repr(f["chi2_red"]),
                            repr(f["q"]),
                            repr(f["d"]),
                            repr(f["p_ks"]),
                            f["family"] == report["best"],
                            "",
                        ]
                    )
    else:
        (out / f"{stem}_fits.txt").write_text(_report_table(report) + "\n")


def _each_catalog(paths, work) -> int:
    """``work(path)`` for every catalog in order; the worst exit code of them all.

    A directory stands for its ``*.csv`` files in sorted order, and one with
    none is a configuration error.  A catalog that cannot be read or
    summarised is reported on stderr with exit code 2, and the catalogs after
    it still run.
    """
    status = 0
    for arg in paths:
        files = sorted(Path(arg).glob("*.csv")) if Path(arg).is_dir() else [arg]
        if not files:
            print(f"error: no *.csv catalogs in directory {arg}", file=sys.stderr)
            status = 2
        for path in files:
            try:
                status = max(status, work(str(path)))
            except (LindleyFitError, ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 2
    return status


def cmd_fit(config: RunConfig) -> int:
    def fit(path):
        report = _fit_catalog(config, path)
        print(_report_table(report))
        print()
        _write_report(report, config)
        return 1 if any("error" in f for f in report["fits"]) else 0

    return _each_catalog(config.inputs, fit)


def cmd_plotdata(config: RunConfig, family: Family) -> int:
    if not config.out_dir:
        raise ValueError("plotdata requires a nonempty --out directory")
    return _each_catalog(config.inputs, lambda path: 0 if _plot_catalog(config, family, path) else 1)


def _plot_catalog(config: RunConfig, family: Family, path: str) -> bool:
    """Write one catalog's four plot CSVs; False when the family does not fit it."""
    cat, targets = _load_targets(config, path)
    try:
        solve = estimation.estimate(family, targets)
    except LindleyFitError as exc:
        print(f"{cat.name}: fit failed for {family.value}: {exc}", file=sys.stderr)
        return False
    spec = solve.spec
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cat.name}_{family.value}"

    hist = gof.bin_sample(cat.masses, config.n_bins)
    density = hist.counts / (hist.total * hist.widths)
    _write_columns(
        out / f"{stem}_hist.csv",
        ("bin_left", "bin_right", "density"),
        zip(hist.edges[:-1], hist.edges[1:], density),
    )

    grid = np.linspace(targets.x_min, targets.x_max, 512)
    _write_columns(out / f"{stem}_pdf.csv", ("x", "pdf"), zip(grid, np.atleast_1d(dist.pdf(spec, grid))))
    _write_columns(out / f"{stem}_cdf.csv", ("x", "cdf"), zip(grid, np.atleast_1d(dist.cdf(spec, grid))))

    xs = np.sort(cat.masses)
    ecdf = np.arange(1, xs.size + 1) / xs.size
    _write_columns(out / f"{stem}_ecdf.csv", ("x", "ecdf"), zip(xs, ecdf))
    print(f"wrote {stem}_{{hist,pdf,cdf,ecdf}}.csv to {out}")
    return True


def _write_columns(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def cmd_synth(family: Family, params: list[float], n: int, seed: int, out_path: str) -> int:
    spec = DistributionSpec(family, tuple(params))
    draws = dist.sample(spec, n, seed)
    path = Path(out_path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# synthetic sample: {spec}, n={n}, seed={seed}\n")
        fh.write("mass\n")
        for v in draws:
            fh.write(f"{float(v)!r}\n")
    print(f"wrote {n} draws from {spec} to {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindleyfit",
        description="Fit Lindley-family and lognormal distributions to positive samples "
        "by the method of moments and rank them with chi-square, Q, AIC and K-S statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit families to catalogs and print a comparison table")
    fit.add_argument("--input", action="append", required=True,
                     help="catalog CSV, or a directory of them (repeatable)")
    fit.add_argument("--column", default="0", help="mass column: zero-based index or header name")
    fit.add_argument("--families", default="all", help="comma list of families, or 'all'")
    fit.add_argument("--bins", type=int, default=20, help="number of linear bins (default 20)")
    fit.add_argument("--format", default="json", choices=("json", "csv", "table"),
                     help="machine-readable report format written to --out")
    fit.add_argument("--out", default=None, help="directory for machine-readable reports")

    plot = sub.add_parser("plotdata", help="write plot-ready CSV columns for one family")
    plot.add_argument("--input", action="append", required=True,
                      help="catalog CSV, or a directory of them (repeatable)")
    plot.add_argument("--column", default="0")
    plot.add_argument("--family", required=True, help="family to plot")
    plot.add_argument("--bins", type=int, default=20)
    plot.add_argument("--out", required=True, help="output directory")

    synth = sub.add_parser("synth", help="write a synthetic one-column mass CSV")
    synth.add_argument("--family", required=True)
    synth.add_argument("--params", required=True,
                       help="comma-separated parameter vector, e.g. '2.0' or '0.5,2,1'")
    synth.add_argument("--n", type=int, default=1000)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            config = RunConfig(
                inputs=args.input,
                column=args.column,
                families=_parse_families(args.families),
                n_bins=args.bins,
                out_dir=args.out,
                fmt=args.format,
            )
            return cmd_fit(config)
        families = _parse_families(args.family)   # plotdata's and synth's, parsed as fit's
        if len(families) != 1:
            raise ValueError(f"--family takes exactly one family, got {args.family!r}")
        if args.command == "plotdata":
            config = RunConfig(
                inputs=args.input,
                column=args.column,
                families=families,
                n_bins=args.bins,
                out_dir=args.out,
            )
            return cmd_plotdata(config, families[0])
        # the subparsers admit only fit, plotdata and synth: what is left is synth
        params = [float(tok) for tok in args.params.split(",") if tok.strip()]
        if args.n < 1:
            raise ValueError(f"--n must be >= 1, got {args.n}")
        return cmd_synth(families[0], params, args.n, args.seed, args.out)
    except (LindleyFitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
