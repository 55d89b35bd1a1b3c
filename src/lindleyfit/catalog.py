"""Catalog ingestion and sample moments.

Reads star-mass CSV exports (comma separated, optional header row, '#'
comment lines skipped, column picked by name or zero-based index) into a
:class:`MassCatalog`, and :func:`summarize` reduces a catalog to the
:class:`MomentTargets` the estimators match: the sample mean, unbiased
variance, third raw moment and extremes.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CatalogError, DegenerateSampleError, DomainError, InfeasibleMomentsError


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
class MomentTargets:
    """Sample moments an estimator must match."""

    xbar: float
    s2: float
    xbar3: float
    x_min: float = 0.0
    x_max: float = math.inf

    def __post_init__(self):
        if not (self.xbar > 0 and math.isfinite(self.xbar)):
            raise InfeasibleMomentsError(f"sample mean must be positive, got {self.xbar}")
        if not (self.s2 > 0 and math.isfinite(self.s2)):
            raise InfeasibleMomentsError(f"sample variance must be positive, got {self.s2}")
        if not (self.xbar3 > 0 and math.isfinite(self.xbar3)):
            raise InfeasibleMomentsError(f"third raw moment must be positive, got {self.xbar3}")
        if not (self.x_min <= self.xbar <= self.x_max):
            raise InfeasibleMomentsError(
                f"need x_min <= xbar <= x_max, got {self.x_min}, {self.xbar}, {self.x_max}"
            )


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


def summarize(cat: MassCatalog) -> MomentTargets:
    """The catalog's sample mean, unbiased variance, third raw moment and extremes.

    The variance takes two passes over the masses and each raw moment is the
    mean of the masses' powers.  A catalog of one mass, or of one mass
    repeated, raises :class:`DegenerateSampleError`, and so does one whose
    masses are too close to tell apart, so that their mean rounds past an
    extreme.  A raw moment of order 1-3 that overflows to inf or underflows to
    0 in double precision (masses above about 5.6e102 or below about 1e-108
    for the third) raises :class:`DomainError` naming that moment.
    """
    m = cat.masses
    n = m.size
    x_min, x_max = float(np.min(m)), float(np.max(m))
    if x_min == x_max:
        raise DegenerateSampleError(f"{cat.name}: every mass equals {x_min!r}, so the sample has no variance")
    with np.errstate(over="ignore", under="ignore"):
        xbar = float(np.mean(m))
        s2 = float(np.sum((m - xbar) ** 2) / (n - 1))
        raw = (xbar, float(np.mean(m**2)), float(np.mean(m**3)))
    for order, value in zip(("first", "second", "third"), raw):
        if not 0.0 < value < math.inf:
            how = "overflows to inf" if value else "underflows to 0"
            raise DomainError(f"{cat.name}: the {order} raw moment of the masses {how} in double precision")
    if not x_min <= xbar <= x_max:
        raise DegenerateSampleError(
            f"{cat.name}: the masses are too close to tell apart: their mean {xbar!r} rounds outside "
            f"[{x_min!r}, {x_max!r}]"
        )
    return MomentTargets(xbar=xbar, s2=s2, xbar3=raw[2], x_min=x_min, x_max=x_max)
