"""Catalog ingestion and sample statistics.

Reads star-mass CSV exports (comma separated, optional header row, '#'
comment lines skipped, column picked by name or zero-based index) and
computes the sample mean, unbiased variance, raw moments and order-statistic
extremes used by the estimators.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CatalogError, DegenerateSampleError, DomainError


class CatalogWarning(UserWarning):
    """Raised as a warning when rows of a catalog file are rejected."""


@dataclass(frozen=True, eq=False)
class MassCatalog:
    """A named vector of strictly positive masses (solar units)."""

    name: str
    masses: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        if masses.size == 0:
            raise CatalogError("catalog must contain at least one mass")
        if not np.all(np.isfinite(masses)) or np.any(masses <= 0):
            raise CatalogError("masses must be finite and strictly positive")

    @property
    def n(self) -> int:
        return self.masses.size


@dataclass(frozen=True)
class SampleSummary:
    n: int
    xbar: float
    s2: float
    raw_moments: tuple[float, float, float]
    x_min: float
    x_max: float


def load_csv(path, column=0, name: str | None = None) -> MassCatalog:
    """Load one mass column from a CSV file.

    ``column`` selects by zero-based index (int) or by header name (str).
    Rows whose selected cell is missing, unparsable, nonpositive or non-finite
    are rejected; the rejections are reported as a :class:`CatalogWarning`
    listing file line numbers.  An empty result raises :class:`CatalogError`.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    try:
        text_rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or not "".join(row).strip():
                    continue
                if row[0].lstrip().startswith("#"):
                    continue
                text_rows.append((reader.line_num, [cell.strip() for cell in row]))
    except OSError as exc:
        raise CatalogError(f"cannot read {path}: {exc}") from exc

    if not text_rows:
        raise CatalogError(f"{path} contains no data rows")

    if isinstance(column, str) and not column.lstrip("-").isdigit():
        header_line, header = text_rows[0]
        if column not in header:
            raise CatalogError(
                f"{path}: no column named {column!r} in header {header} (line {header_line})"
            )
        col_idx = header.index(column)
        data_rows = text_rows[1:]
    else:
        col_idx = int(column)
        if col_idx < 0:
            raise CatalogError(f"column index must be >= 0, got {col_idx}")
        # skip a header row if the first row's cell does not parse as a number
        first_line, first = text_rows[0]
        data_rows = text_rows
        if col_idx < len(first):
            try:
                float(first[col_idx])
            except ValueError:
                data_rows = text_rows[1:]
        else:
            data_rows = text_rows[1:]

    masses = []
    bad: list[tuple[int, str]] = []
    for line_num, row in data_rows:
        if col_idx >= len(row) or not row[col_idx]:
            bad.append((line_num, "missing value"))
            continue
        try:
            value = float(row[col_idx])
        except ValueError:
            bad.append((line_num, f"unparsable value {row[col_idx]!r}"))
            continue
        if not math.isfinite(value) or value <= 0:
            bad.append((line_num, f"nonpositive mass {value!r}"))
            continue
        masses.append(value)

    if bad:
        listing = "; ".join(f"line {ln}: {why}" for ln, why in bad)
        warnings.warn(
            f"{path}: rejected {len(bad)} row(s): {listing}",
            CatalogWarning,
            stacklevel=2,
        )
    if not masses:
        raise CatalogError(f"{path}: no usable masses after filtering", bad_rows=bad)
    return MassCatalog(name=name, masses=np.asarray(masses, dtype=float))


def summarize(cat: MassCatalog) -> SampleSummary:
    """Sample mean, unbiased variance, raw moments of orders 1-3, and extremes.

    A raw moment that overflows to inf or underflows to 0 in double precision
    (masses above about 5.6e102 or below about 1e-108 for the third) raises
    :class:`DomainError` naming that moment.
    """
    m = cat.masses
    n = m.size
    if n < 2:
        raise DegenerateSampleError("summary of a single observation has no variance")
    with np.errstate(over="ignore", under="ignore"):
        xbar = float(np.mean(m))
        s2 = float(np.sum((m - xbar) ** 2) / (n - 1))
        raw = (xbar, float(np.mean(m**2)), float(np.mean(m**3)))
    for order, value in zip(("first", "second", "third"), raw):
        if not 0.0 < value < math.inf:
            how = "overflows to inf" if value else "underflows to 0"
            raise DomainError(f"{cat.name}: the {order} raw moment of the masses {how} in double precision")
    return SampleSummary(
        n=int(n),
        xbar=xbar,
        s2=s2,
        raw_moments=raw,
        x_min=float(np.min(m)),
        x_max=float(np.max(m)),
    )
