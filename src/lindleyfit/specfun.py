"""Special functions backing the distribution layer: scipy.special with domain checks.

Everything here is real-valued and double precision.  The regularized
incomplete gamma functions delegate to ``scipy.special``
(``gammainc``/``gammaincc``, DiDonato & Morris, ACM TOMS 12 (1986) 377).
This module only adds the argument checks, raising
:class:`~lindleyfit.errors.DomainError` outside the domain instead of
returning NaN.  ``gammainc``/``gammaincc`` return exactly 1 and 0 at
``z = inf``, so the array kernels accept an infinite argument.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError


def _check_scalar(name: str, a: float, z: float) -> tuple[float, float]:
    a = float(a)
    z = float(z)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"{name} requires a > 0, got a={a!r}")
    if not math.isfinite(z) or z < 0.0:
        raise DomainError(f"{name} requires z >= 0, got z={z!r}")
    return a, z


def regularized_gamma_q(a: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(a, z) = 1 - P(a, z)."""
    a, z = _check_scalar("regularized_gamma_q", a, z)
    return float(special.gammaincc(a, z))


def _check_array(name: str, a: float, z: np.ndarray) -> tuple[float, np.ndarray]:
    a = float(a)
    if a <= 0.0:
        raise DomainError(f"{name} requires a > 0, got a={a!r}")
    z = np.asarray(z, dtype=float)
    if z.size and float(np.min(z)) < 0.0:
        raise DomainError(f"{name} requires z >= 0 everywhere")
    return a, z


def reg_gamma_p_arr(a: float, z: np.ndarray) -> np.ndarray:
    """Element-wise P(a, z) over a float array with z >= 0 (z = inf gives 1)."""
    a, z = _check_array("reg_gamma_p_arr", a, z)
    return special.gammainc(a, z)


def reg_gamma_q_arr(a: float, z: np.ndarray) -> np.ndarray:
    """Element-wise Q(a, z) = 1 - P(a, z), computed directly (z = inf gives 0)."""
    a, z = _check_array("reg_gamma_q_arr", a, z)
    return special.gammaincc(a, z)
