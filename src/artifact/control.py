"""Median-FDP control: threshold search and p-value transforms.

``control_mfdp`` picks the data-dependent threshold

    s  = max{t in M : FDP~(t) > gamma}     (absent when never exceeded)
    s+ = min{t in M : t > s}

where M = {0} + {jump points of R or R- in (0, inf)} is the finite scan
grid, and rejects everything at threshold s+.  Because FDP~ only changes at
points of M, s+ equals the supremum of all thresholds whose estimate exceeds
gamma, and by construction FDP~(s+) <= gamma while P(FDP(s+) <= gamma) >= 1/2
under joint null symmetry with the null block independent of the rest.  The
scan over M is ``core._control_scan``, which ``simulate.control_coverage``
runs on blocks of replicates; the rejection set and the estimate at s+ are
``core._count_at``, the count the estimators read.

The p-value transforms turn each statistic/margin pair into a marginal
p-value that is uniform at the boundary of its null and stochastically
larger inside it, given a model for the null density of ``T_j - mu_j``
(symmetric around zero), for mean-FDP procedures that consume p-values.
For the built-in densities each p-value is one pass, ``F(delta_j - T_j)`` or
``F(|T_j| - delta_j)``; a ``user`` CDF keeps ``1 - F`` and the sign branch.
Their ``index,pvalue`` file format lives in :mod:`artifact.stats`, whose
readers and writers are imported here as aliases, not exported again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sps

from .core import ControlResult, HypothesisShape, StatisticVector
from .core import _control_scan, _count_at, _gamma, _read_only, _signed_cuts
from .stats import read_pvalues_csv, write_pvalues_csv  # noqa: F401  (aliases, see above)

__all__ = [
    "control_mfdp",
    "NullDensitySpec",
    "PValueVector",
    "directional_pvalues",
    "equivalence_pvalues",
]


def control_mfdp(sv: StatisticVector, gamma: float) -> ControlResult:
    """Largest rejection set whose FDP estimate stays at or below gamma.

    Parameters
    ----------
    sv : StatisticVector
        Directional or equivalence family.
    gamma : float
        Target FDP level, ``0 <= gamma < 1``.

    Returns
    -------
    ControlResult
        With ``s`` (None when the estimate never exceeds gamma, in which
        case ``s_plus`` is 0 and the full threshold-0 rejection set is
        returned), ``s_plus``, the rejected indices, and the estimate at
        ``s_plus``.

    Notes
    -----
    The scan is ``core._control_scan``, which ``control_coverage`` shares.
    Its grid ends at a threshold where R is zero, so ``s_plus`` exists.
    """
    gamma = _gamma(gamma)
    k = _signed_cuts(sv)
    exceeds, s, s_plus = _control_scan(k[None], gamma)
    s_plus = float(s_plus[0])
    rejected, _, v, fdp_hat = _count_at(k, s_plus)
    s = float(s[0]) if exceeds[0] else None
    return ControlResult(gamma, s, s_plus, rejected, rejected.size, v_tilde=v, fdp_hat=fdp_hat)


@dataclass(frozen=True)
class NullDensitySpec:
    """Model for the null distribution of ``T_j - mu_j``.

    One of: a standard normal, a normal scaled by ``sigma``, a Student-t
    with ``nu`` degrees of freedom, or a user-supplied CDF callable for any
    density symmetric around zero.  Use the classmethod constructors.
    """

    family: str
    sigma: float = 1.0
    nu: float | None = None
    cdf: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.family not in ("standard-normal", "scaled-normal", "student-t", "user"):
            raise ValueError(
                f"unknown null density family {self.family!r}; use the classmethod constructors"
            )
        if self.family == "user" and not callable(self.cdf):
            raise TypeError("family 'user' needs a callable cdf; use from_cdf")

    @classmethod
    def standard_normal(cls) -> "NullDensitySpec":
        return cls(family="standard-normal")

    @classmethod
    def scaled_normal(cls, sigma: float) -> "NullDensitySpec":
        sigma = float(sigma)
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {sigma}")
        return cls(family="scaled-normal", sigma=sigma)

    @classmethod
    def student_t(cls, nu: float) -> "NullDensitySpec":
        nu = float(nu)
        if not (np.isfinite(nu) and nu > 0):
            raise ValueError(f"nu must be finite and > 0, got {nu}")
        return cls(family="student-t", nu=nu)

    @classmethod
    def from_cdf(cls, cdf: Callable[[np.ndarray], np.ndarray]) -> "NullDensitySpec":
        """CDF of a distribution symmetric around zero (user's responsibility)."""
        if not callable(cdf):
            raise TypeError("cdf must be callable")
        return cls(family="user", cdf=cdf)

    def cdf_at(self, x: np.ndarray) -> np.ndarray:
        """F(x), vectorized."""
        x = np.asarray(x, dtype=np.float64)
        if self.family == "standard-normal":
            return _sps.ndtr(x)
        if self.family == "scaled-normal":
            return _sps.ndtr(x / self.sigma)
        if self.family == "student-t":
            return _sps.stdtr(self.nu, x)
        return np.asarray(self.cdf(x), dtype=np.float64)

    def sf_at(self, x: np.ndarray) -> np.ndarray:
        """1 - F(x); the built-in families use symmetry, F(-x), to avoid cancellation."""
        x = np.asarray(x, dtype=np.float64)
        if self.family == "user":
            return 1.0 - self.cdf_at(x)
        return self.cdf_at(-x)


@dataclass(frozen=True, eq=False)
class PValueVector:
    """Marginal p-values for one family, all in [0, 1].

    ``values`` is stored read-only, sharing a float64 input: pass a copy to decouple.
    """

    values: np.ndarray
    shape: HypothesisShape

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise ValueError("p-values must all lie in [0, 1]")
        object.__setattr__(self, "values", _read_only(vals))


def directional_pvalues(sv: StatisticVector, null: NullDensitySpec) -> PValueVector:
    """Right-sided p-values ``P_j = 1 - F_j(T_j - delta_j)``.

    Uniform when ``mu_j = delta_j``, stochastically larger for
    ``mu_j < delta_j`` -- so valid for the one-sided nulls.  For the built-in
    families this is ``F_j(delta_j - T_j)``, bit for bit: their ``1 - F(x)``
    is ``F(-x)`` and negation is exact.  A ``user`` CDF keeps ``1 - F``.
    """
    if sv.shape is not HypothesisShape.DIRECTIONAL:
        raise ValueError("directional_pvalues requires a directional statistic vector")
    if null.family != "user":
        p = null.cdf_at(sv.margins - sv.statistics)
    else:
        p = null.sf_at(sv.statistics - sv.margins)
    return PValueVector(values=np.clip(p, 0.0, 1.0, out=p), shape=sv.shape)


def equivalence_pvalues(sv: StatisticVector, null: NullDensitySpec) -> PValueVector:
    """Equivalence p-values, uniform at ``|mu_j| = delta_j``.

    ``P_j = 1 - F_j(T_j + delta_j)`` if ``T_j < 0``, else ``F_j(T_j - delta_j)``.
    For the built-in families this is one pass, ``F_j(|T_j| - delta_j)``, bit
    for bit: their ``1 - F(x)`` is ``F(-x)``, and negation commutes with IEEE
    rounding, so ``-(T_j + delta_j)`` is ``|T_j| - delta_j`` for ``T_j < 0``.
    A ``user`` CDF keeps the two branches: its symmetry is the caller's claim.
    """
    if sv.shape is not HypothesisShape.EQUIVALENCE:
        raise ValueError("equivalence_pvalues requires an equivalence statistic vector")
    x = np.abs(sv.statistics) - sv.margins
    if null.family != "user":
        p = null.cdf_at(x)
    else:
        neg = sv.statistics < 0.0
        p = np.empty_like(x)
        p[neg] = null.sf_at(sv.statistics[neg] + sv.margins[neg])
        p[~neg] = null.cdf_at(x[~neg])
    return PValueVector(values=np.clip(p, 0.0, 1.0, out=p), shape=sv.shape)
