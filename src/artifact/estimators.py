"""Median-level false discovery proportion estimators.

All estimators here follow the same mirror-counting idea: under the null
hypotheses the statistics are (jointly) symmetrically distributed around
their margins, so the number of *true* hypotheses landing in the rejection
region at threshold t is matched, at median level, by the count landing in
the mirrored region.  The estimate

    V~(t)    = min(R-(t), R(t))
    FDP~(t)  = V~(t) / max(R(t), 1)

therefore satisfies P(V(t) <= V~(t)) >= 1/2, where V(t) is the unknown
number of false rejections.  The randomized variant sharpens this to exact
1/2 at the least favourable configuration by breaking ties R(t) == R-(t)
with a fair coin: on the floor branch the bound collapses to minus infinity,
encoded as a tagged sentinel (``v_tilde is None`` + ``floored=True``), and
the reported FDP estimate is 0.0.

The windowed equivalence variant replaces the unbounded mirror region
``|T_j| > delta_j + t`` by the window ``delta_j + t < |T_j| <= 3*delta_j - t``.
It is never larger than the plain equivalence estimate, but its median-level
guarantee additionally requires the null statistics to be mutually
independent with unimodal symmetric densities.

Each estimator checks its shape and threshold and reads the count at t from
``core._counts_at`` on a 1-d row, the count that ``control_mfdp`` reads
at s+ and the Monte Carlo study reads on blocks of replicates; the tie rule
of the randomized estimate is ``core._floored``, which the study reads too.
"""

from __future__ import annotations

import numpy as np

from .core import FdpEstimate, HypothesisShape, StatisticVector
from .core import _counts_at, _floored, _signed_cuts, _threshold

__all__ = [
    "CoinSource",
    "estimate_directional",
    "estimate_directional_randomized",
    "estimate_equivalence",
    "estimate_equivalence_windowed",
]


class CoinSource:
    """Seeded source of fair coin flips for the randomized estimator.

    A fixed seed yields a fixed, reproducible coin sequence.  With
    ``seed=None`` the flips are drawn from fresh OS entropy.
    """

    def __init__(self, seed: int | None = None):
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def flip(self) -> bool:
        """One fair coin flip."""
        return bool(self._rng.integers(0, 2))

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"CoinSource(seed={self.seed!r})"


def _estimate(estimator: str, shape, sv, t, upper=None, coin=None) -> FdpEstimate:
    """``estimator`` at a checked t; ``upper`` caps the mirror region, a coin randomizes it."""
    if sv.shape is not shape:
        what = "estimate_" + estimator.replace("-", "_")
        raise ValueError(f"{what} requires a {shape.value} statistic vector, got {sv.shape.value}")
    t = _threshold(t, nonnegative=True)
    rejected, r, r_minus, v, fdp_hat = _counts_at(_signed_cuts(sv), t, upper)
    floor = None if coin is None else coin.flip()
    floored = floor is not None and bool(_floored(floor, r, r_minus))
    return FdpEstimate(
        estimator=estimator,
        t=t,
        rejected=np.flatnonzero(rejected),
        r=int(r),
        v_tilde=None if floored else int(v),
        fdp_hat=0.0 if floored else float(fdp_hat),
        randomized=coin is not None,
        coin=floor,
        floored=floored,
    )


def estimate_directional(sv: StatisticVector, t: float) -> FdpEstimate:
    """Median-level FDP estimate for a one-sided family at threshold t.

    Rejects ``{j : T_j - delta_j > t}`` and bounds the false rejections by
    the mirror count ``R-(t) = #{j : T_j - delta_j < -t}``, capped at R(t).

    Parameters
    ----------
    sv : StatisticVector
        Directional statistics with margins.
    t : float
        Threshold, finite and >= 0.

    Returns
    -------
    FdpEstimate
    """
    return _estimate("directional", HypothesisShape.DIRECTIONAL, sv, t)


def estimate_directional_randomized(sv: StatisticVector, t: float, coin: CoinSource) -> FdpEstimate:
    """Randomized (admissible) variant of :func:`estimate_directional`.

    Identical to the plain estimate whenever ``R(t) != R-(t)``.  On a tie the
    bound is kept with probability 1/2 and randomized down to the
    minus-infinity floor with probability 1/2.  The coin is drawn on every
    call (its outcome only matters on ties) and recorded on the result:
    ``coin=True`` means the floor branch was selected.
    """
    return _estimate("directional-randomized", HypothesisShape.DIRECTIONAL, sv, t, coin=coin)


def estimate_equivalence(sv: StatisticVector, t: float) -> FdpEstimate:
    """Median-level FDP estimate for an equivalence family at threshold t.

    Rejects ``{j : |T_j| < delta_j - t}`` (empty for ``t >= min_j delta_j``)
    and bounds false rejections by ``R-(t) = #{j : |T_j| > delta_j + t}``,
    capped at R(t).
    """
    return _estimate("equivalence", HypothesisShape.EQUIVALENCE, sv, t)


def estimate_equivalence_windowed(sv: StatisticVector, t: float) -> FdpEstimate:
    """Windowed equivalence estimate: mirror count restricted to a band.

    The mirror region is ``delta_j + t < |T_j| <= 3*delta_j - t`` -- the
    same lower edge as the plain estimator (strict), but truncated above at
    ``3*delta_j - t`` (inclusive).  Statistics far outside the equivalence
    band no longer inflate the estimate, at the price of a stronger
    assumption: validity additionally needs the null statistics to be
    mutually independent with unimodal symmetric densities.  The window's
    upper edge is evaluated as ``t <= 3*delta_j - |T_j|`` with the
    right-hand side computed once per hypothesis.
    """
    upper = 3.0 * sv.margins - np.abs(sv.statistics)
    return _estimate("equivalence-windowed", HypothesisShape.EQUIVALENCE, sv, t, upper=upper)
