"""Median-FDP control: threshold search and p-value transforms.

``control_mfdp`` picks the data-dependent threshold

    s  = max{t in M : FDP~(t) > gamma}     (absent when never exceeded)
    s+ = min{t in M : t > s}

where M = {0} + {jump points of R or R- in (0, inf)} is the finite scan
grid, and rejects everything at threshold s+.  Because FDP~ only changes at
points of M, s+ equals the supremum of all thresholds whose estimate exceeds
gamma, and by construction FDP~(s+) <= gamma while P(FDP(s+) <= gamma) >= 1/2
under joint null symmetry with the null block independent of the rest.

The p-value transforms turn each statistic/margin pair into a marginal
p-value that is uniform at the boundary of its null and stochastically
larger inside it, given a model for the null density of ``T_j - mu_j``
(symmetric around zero).  They exist so the rejection counts can feed
mean-FDP style procedures that consume p-values; building any particular
bound from them is out of scope here.  Their ``index,pvalue`` file format
lives in :mod:`artifact.stats`; ``read_pvalues_csv`` and
``write_pvalues_csv`` are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sps

from .core import ControlResult, HypothesisShape, StatisticVector, build_profile
from .stats import read_pvalues_csv, write_pvalues_csv

__all__ = [
    "control_mfdp",
    "NullDensitySpec",
    "PValueVector",
    "directional_pvalues",
    "equivalence_pvalues",
    "write_pvalues_csv",
    "read_pvalues_csv",
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
    The scan grid always contains a final threshold where R is zero, so the
    estimate there is 0 <= gamma and ``s_plus`` is well defined.
    """
    gamma = float(gamma)
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    profile = build_profile(sv)
    grid, r = profile.thresholds, profile.r_grid
    v = np.minimum(r, profile.r_minus_grid)
    fdp = v / np.maximum(r, 1)
    exceeding = np.flatnonzero(fdp > gamma)
    if exceeding.size == 0:
        s = None
        s_plus_idx = 0
    else:
        last = int(exceeding[-1])
        s = float(grid[last])
        s_plus_idx = last + 1  # grid is sorted; the estimate at the final
        # grid point is 0 <= gamma, so last + 1 is always in range
    s_plus = float(grid[s_plus_idx])
    rejected = profile.rejected_at(s_plus)
    return ControlResult(
        gamma=gamma,
        s=s,
        s_plus=s_plus,
        rejected=rejected,
        r=int(r[s_plus_idx]),
        v_tilde=int(v[s_plus_idx]),
        fdp_hat=float(fdp[s_plus_idx]),
    )


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
                f"unknown null density family {self.family!r}; "
                "use the classmethod constructors"
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
    """Marginal p-values for one family, all in [0, 1]."""

    values: np.ndarray
    shape: HypothesisShape

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if np.any(~np.isfinite(vals)) or np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValueError("p-values must all lie in [0, 1]")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def directional_pvalues(sv: StatisticVector, null: NullDensitySpec) -> PValueVector:
    """Right-sided p-values ``P_j = 1 - F_j(T_j - delta_j)``.

    Uniform when ``mu_j = delta_j``, stochastically larger for
    ``mu_j < delta_j`` -- so valid for the one-sided nulls.
    """
    if sv.shape is not HypothesisShape.DIRECTIONAL:
        raise ValueError("directional_pvalues requires a directional statistic vector")
    p = null.sf_at(sv.statistics - sv.margins)
    return PValueVector(values=np.clip(p, 0.0, 1.0), shape=sv.shape)


def equivalence_pvalues(sv: StatisticVector, null: NullDensitySpec) -> PValueVector:
    """Equivalence p-values, uniform at ``|mu_j| = delta_j``.

    Piecewise by the sign of the statistic::

        P_j = 1 - F_j(T_j + delta_j)   if T_j < 0,
        P_j = F_j(T_j - delta_j)       otherwise.

    Both branches agree at T_j = 0 for a symmetric null density.
    """
    if sv.shape is not HypothesisShape.EQUIVALENCE:
        raise ValueError("equivalence_pvalues requires an equivalence statistic vector")
    neg = sv.statistics < 0.0
    p = np.empty(sv.m, dtype=np.float64)
    p[neg] = null.sf_at(sv.statistics[neg] + sv.margins[neg])
    p[~neg] = null.cdf_at(sv.statistics[~neg] - sv.margins[~neg])
    return PValueVector(values=np.clip(p, 0.0, 1.0), shape=sv.shape)
