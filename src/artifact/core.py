"""Core types: hypothesis shapes, statistic vectors, and rejection profiles.

The central object is the pair of integer-valued counting functions

    R(t)  = number of hypotheses rejected at threshold t,
    R-(t) = number of hypotheses in the mirrored (reflected) region at t,

both non-increasing, right-continuous step functions of t >= 0.  For a
one-sided (noninferiority) family the regions are ``T_j - delta_j > t`` and
``T_j - delta_j < -t``; for an equivalence family they are
``|T_j| < delta_j - t`` and ``|T_j| > delta_j + t``.

Every hypothesis is reduced once to a single *signed cut* ``k_j`` (see
``_signed_cuts``) such that ``R(t) = #{k > t}`` and ``R-(t) = #{-k > t}``:
``T_j - delta_j`` for a directional family, and ``min(delta_j - |T_j|, c)``
with ``c = min_j delta_j`` for an equivalence family, so that thresholds at
or beyond the smallest margin reject nothing.  All threshold comparisons are
performed as ``k > t`` or ``k < -t`` (the mirror ``-k > t`` without a negated
copy of k; negation is exact) in exact IEEE double arithmetic -- no epsilons
anywhere.

The scan grid has one kernel, ``_grid``: it sorts each row's ``|k_j|``
once, labelled by the sign of ``k_j``, and the cumulative label counts give
R and R- at every sorted position; the ends of the runs of equal ``|k|``
are the grid points.  ``build_profile`` is that grid compressed to its run
ends.  The control step lives here too, in ``_control_scan``: it finds s
and s+ on the grid row by row, for one family (``control_mfdp``) or a block
of Monte Carlo replicates (``control_coverage`` and ``run_study``).  The
count at one threshold t is written once, in ``_counts_at``, row by row: the
rejection mask, R(t), R-(t), V~ = min(R-, R) and V~ / max(R, 1).  The four
estimators, the tail of ``control_mfdp`` (the estimate at s+) and
``RejectionProfile.rejected_at`` read row 0 of a one-row block; ``run_study``
reads a block of replicates.  The randomized estimator's tie rule is
``_floored``, beside it, which the estimator and ``run_study`` both read.
Every count of a mask row is ``_row_counts``: R and R- here, the study's
counts and the SAM bound's count per transformation.
The closed-testing oracle (``ct_oracle``) re-derives its indicators from the
defining inequalities on purpose, as an independent check.

Every argument rule of the public API is written here, once: ``_real``,
``_integer``, ``_gamma``, ``_alpha``, ``_threshold`` and ``_positive`` for
scalars, and ``_floats``, ``_finite`` and ``_vector`` (non-empty, 1-d) for
arrays.  Numpy numbers pass; bools and strings do not.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HypothesisShape",
    "StatisticVector",
    "RejectionProfile",
    "FdpEstimate",
    "ControlResult",
    "InfeasibleError",
    "build_profile",
]


def _read_only(values) -> np.ndarray:
    """A view of ``values`` that refuses writes; the caller's array stays writable."""
    out = np.asarray(values).view()
    out.flags.writeable = False
    return out


def _real(name: str, value, finite: bool = True) -> float:
    """``value`` as a float: a ``numbers.Real`` (numpy's too), not a bool, finite unless told not."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not number or (finite and not math.isfinite(value)):
        raise ValueError(f"{name} must be a {'finite ' * finite}number, got {value!r}")
    return float(value)


def _integer(name: str, value, minimum: int | None = None, rule: str = "an integer") -> int:
    """``value`` as an int: a ``numbers.Integral`` (numpy's too), not a bool, ``>= minimum`` when given.

    A non-integer raises "<name> must be <rule>"; one below ``minimum`` "<name> must be >= <minimum>".
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def _gamma(gamma) -> float:
    """``gamma`` as a float in [0, 1); anything else raises ``ValueError``."""
    gamma = _real("gamma", gamma, finite=False)
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    return gamma


def _alpha(alpha) -> float:
    """``alpha`` as a float in (0, 1); anything else raises ``ValueError``."""
    alpha = _real("alpha", alpha, finite=False)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def _threshold(t, nonnegative: bool = False) -> float:
    """The threshold ``t`` as a float: finite, and ``>= 0`` when ``nonnegative``."""
    t = _real("threshold t", t, finite=False)
    if not math.isfinite(t) or (nonnegative and t < 0.0):
        raise ValueError(f"threshold t must be finite{' and >= 0' * nonnegative}, got {t}")
    return t


def _positive(name: str, value) -> float:
    """``value`` as a finite float ``> 0``; anything else raises ``ValueError`` naming ``name``."""
    value = _real(name, value, finite=False)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def _floats(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, not copied when already one; a non-number dtype raises."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)


def _finite(name: str, values: np.ndarray) -> None:
    """Raise ``ValueError`` naming ``name`` when ``values`` holds a NaN or an infinity."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must all be finite")


def _vector(name: str, values, finite: bool = True) -> np.ndarray:
    """``values`` as a non-empty 1-d :func:`_floats` array, finite unless told not; a scalar is one entry."""
    array = np.atleast_1d(_floats(name, values))
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"{name} must be a one-dimensional, non-empty array")
    if finite:
        _finite(name, array)
    return array


class InfeasibleError(Exception):
    """Raised when an exact/enumerative routine is asked to run at an
    infeasible scale (e.g. full sign-flip enumeration with n > 20)."""


class HypothesisShape(enum.Enum):
    """Shape of the tested null hypotheses.

    DIRECTIONAL : one-sided nulls ``mu_j <= delta_j`` (right-sided
        alternatives; left-sided problems are handled by negating the
        statistic and margin, see :func:`artifact.stats.apply_margin_shift`).
    EQUIVALENCE : nulls ``|mu_j| >= delta_j`` with all ``delta_j > 0``.
    """

    DIRECTIONAL = "directional"
    EQUIVALENCE = "equivalence"


@dataclass(frozen=True, eq=False)
class StatisticVector:
    """Test statistics with per-hypothesis margins and a hypothesis shape.

    Parameters
    ----------
    statistics : array_like of float, shape (m,)
        Observed test statistics, one per hypothesis, all finite.
    margins : float or array_like of float, shape (m,)
        Margin(s) ``delta_j``.  A scalar is broadcast to every hypothesis.
        Must be strictly positive for equivalence families.
    shape : HypothesisShape
        Whether the family is directional (one-sided) or equivalence.

    Both arrays are stored read-only, sharing a float64 input: pass a copy to decouple.
    """

    statistics: np.ndarray
    margins: np.ndarray
    shape: HypothesisShape

    def __post_init__(self):
        stats = _vector("statistics", self.statistics)
        margins = _floats("margins", self.margins)
        if margins.ndim == 0:
            margins = np.full(stats.shape, float(margins))
        if margins.shape != stats.shape:
            raise ValueError(
                f"margins length {margins.shape} does not match statistics length {stats.shape}"
            )
        _finite("margins", margins)
        if not isinstance(self.shape, HypothesisShape):
            raise TypeError("shape must be a HypothesisShape")
        if self.shape is HypothesisShape.EQUIVALENCE and not np.all(margins > 0):
            raise ValueError("equivalence margins must all be strictly positive")
        object.__setattr__(self, "statistics", _read_only(stats))
        object.__setattr__(self, "margins", _read_only(margins))

    @property
    def m(self) -> int:
        """Number of hypotheses."""
        return int(self.statistics.size)


def _signed_cuts(sv: StatisticVector) -> np.ndarray:
    """Signed cut ``k_j`` per hypothesis: ``R(t) = #{k > t}``, ``R-(t) = #{-k > t}``.

    ``T_j - delta_j`` for a directional family.  For an equivalence family
    ``min(delta_j - |T_j|, c)`` with ``c = min_j delta_j``: the clip makes
    every ``t >= c`` reject nothing, and since ``c > 0`` it never reaches a
    negative cut, so ``-k_j > t`` is the mirror region ``|T_j| - delta_j > t``.
    """
    return _cuts(sv.statistics, sv.margins, sv.shape)


def _cuts(statistics: np.ndarray, margins: np.ndarray, shape: HypothesisShape) -> np.ndarray:
    """The signed cuts of ``statistics``, one family per row when it is 2-d."""
    if shape is HypothesisShape.DIRECTIONAL:
        return statistics - margins
    return np.minimum(margins - np.abs(statistics), np.min(margins))


@dataclass(frozen=True, eq=False)
class RejectionProfile:
    """Step-function view of the rejection and mirror counts for one family.

    Construct with :func:`build_profile`.  ``thresholds`` is the scan grid
    {0} + {|k_j|}, ascending and deduplicated: 0 and every point in
    (0, inf) where R or R- jumps.  ``r_grid`` and ``r_minus_grid`` hold R and
    R- at each grid point.  Both counts are constant from one grid point up
    to the next, so ``r`` and ``r_minus`` evaluate scalar or array
    thresholds with one binary search into the grid.  Every array is
    read-only.
    """

    thresholds: np.ndarray
    r_grid: np.ndarray
    r_minus_grid: np.ndarray
    # Per-hypothesis signed cuts, to recover who is rejected at a threshold.
    _k: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("thresholds", "r_grid", "r_minus_grid", "_k"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def _at(self, counts: np.ndarray, t):
        # R and R- are defined for t >= 0; a negative t reads the value at 0.
        _not_nan(t)
        i = np.maximum(np.searchsorted(self.thresholds, t, side="right") - 1, 0)
        return int(counts[i]) if np.ndim(t) == 0 else counts[i]

    def r(self, t):
        """R(t): number of hypotheses rejected at threshold t (t >= 0)."""
        return self._at(self.r_grid, t)

    def r_minus(self, t):
        """R-(t): size of the mirrored count at threshold t (t >= 0)."""
        return self._at(self.r_minus_grid, t)

    def rejected_at(self, t: float) -> np.ndarray:
        """Indices (0-based) of the hypotheses rejected at threshold t."""
        _not_nan(t)
        return np.flatnonzero(_counts_at(self._k[None], t)[0][0])


def _not_nan(t) -> None:
    """Raise for a NaN threshold, which would otherwise read as a count."""
    if np.isnan(t).any():
        raise ValueError(f"threshold t must not be NaN, got {t}")


def _grid(k: np.ndarray):
    """The scan grid of the cuts along the last axis, at every sorted position.

    Returns the sorted |k| as float64 behind a leading 0, R and R- at each
    position, and a mask of the run ends of equal |k|: the grid points,
    where R and R- are the counts at that threshold.  A non-negative double
    orders like its uint64 bit pattern, so |k| shifted up one bit, with the
    label ``k > 0`` in the low bit, sorts as one key.  Zero cuts fall in the
    first grid point, 0, and so count towards neither R nor R-.
    """
    m = k.shape[-1]
    key = np.zeros(k.shape[:-1] + (m + 1,), dtype=np.uint64)
    np.abs(k, out=key[..., 1:].view(np.float64))
    key <<= 1
    key[..., 1:] |= k > 0.0
    key.sort(axis=-1)
    r = (key & 1).view(np.intp)
    np.cumsum(r, axis=-1, out=r)  # positive cuts up to each position
    key >>= 1
    run_end = np.empty(key.shape, dtype=bool)
    np.not_equal(key[..., 1:], key[..., :-1], out=run_end[..., :-1])
    run_end[..., -1] = True
    # Of the j + 1 keys up to position j, the leading zero key among them,
    # j - r[j] are nonpositive cuts, so R- = (m - n_pos) - (j - r[j]).  The
    # counts are updated in place to keep the peak memory low.
    n_pos = r[..., -1:].copy()
    r_minus = np.arange(m, -1, -1) - n_pos
    r_minus += r
    np.subtract(n_pos, r, out=r)
    return key.view(np.float64), r, r_minus, run_end


def _counts_at(k: np.ndarray, t: float, upper: np.ndarray | None = None):
    """The estimate of each row of an (R, m) block of cuts at one threshold t.

    Returns the (R, m) rejection mask ``k > t`` and, per row, R, the
    uncapped mirror count R- = #{k < -t} (and ``t <= upper``, when given:
    the windowed estimator's upper edge), V~ = min(R-, R) and
    FDP~ = V~ / max(R, 1).  One family is the block ``k[None]``.
    """
    rejected = k > t
    below = k < -t
    if upper is not None:
        below &= t <= upper
    r, r_minus = _row_counts(rejected), _row_counts(below)
    v = np.minimum(r_minus, r)
    return rejected, r, r_minus, v, v / np.maximum(r, 1)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The True entries of each row of an (R, m) boolean mask: int32, or intp from m = 2^31 on."""
    dtype = np.int32 if mask.shape[-1] < 2**31 else np.intp
    return mask.view(np.uint8).sum(axis=1, dtype=dtype)


def _distinct_indices(name: str, values, m: int) -> np.ndarray:
    """``values`` as distinct integer indices in 0..m-1; anything else raises ``ValueError``."""
    index = np.asarray(values)
    if index.size and index.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer indices, got dtype {index.dtype}")
    index = index.astype(np.intp, copy=False)
    if index.size and (index.min() < 0 or index.max() >= m or np.bincount(index).max() > 1):
        raise ValueError(f"{name} must hold distinct indices in 0..{m - 1}")
    return index


def _floored(coin, r, r_minus):
    """The randomized estimate's floor: the coin came up on a tie R == R-."""
    return coin & (r == r_minus)


def build_profile(sv: StatisticVector) -> RejectionProfile:
    """The profile (R, R-) of a statistic vector: its :func:`_grid` at the run ends."""
    k = _signed_cuts(sv)
    t, r, r_minus, run_end = _grid(k)
    return RejectionProfile(t[run_end], r[run_end], r_minus[run_end], _k=k)


def _control_scan(k: np.ndarray, gamma: float):
    """``control_mfdp``'s scan of each row of an (R, m) block of cuts.

    Returns, per row, whether the estimate min(R, R-) / max(R, 1) exceeds
    ``gamma`` at any grid point; s, the last grid point where it does; and
    s+, the grid point after s (0 when nothing exceeds).
    """
    t, r, r_minus, run_end = _grid(k)
    np.minimum(r, r_minus, out=r_minus)
    np.maximum(r, 1, out=r)
    exceeding = np.divide(r_minus, r) > gamma
    exceeding &= run_end
    # The last position (R = 0) never exceeds, so ``back``, the distance of
    # the last exceeding one from the row's end, is 0 only when none does.
    # s+ starts the next run, at index -back; for back = 0 that wraps to 0.
    back = np.argmax(exceeding[:, ::-1], axis=1)
    rows = np.arange(k.shape[0])
    return back > 0, t[rows, -1 - back], t[rows, -back]


@dataclass(frozen=True, eq=False)
class FdpEstimate:
    """Result of a false-discovery-proportion estimate at one threshold.

    Attributes
    ----------
    estimator : str
        Which estimator produced this ("directional",
        "directional-randomized", "equivalence", "equivalence-windowed").
    t : float
        Threshold the estimate was computed at.
    rejected : ndarray of int
        0-based indices of the rejected hypotheses.
    r : int
        Number of rejections, ``len(rejected)``.
    v_tilde : int or None
        Median-level upper bound for the number of false rejections.
        ``None`` encodes the randomized estimator's minus-infinity floor
        (a tagged sentinel -- never a float).
    fdp_hat : float
        ``v_tilde / max(r, 1)``; reported as 0.0 when the sentinel fired.
    randomized : bool
        True when produced by the randomized estimator.
    coin : bool or None
        For the randomized estimator, the drawn coin (True = the floor
        branch was selected for ties); None otherwise.
    floored : bool
        True when the estimate was randomized to the floor sentinel
        (tie at this threshold and the floor coin came up).
    """

    estimator: str
    t: float
    rejected: np.ndarray
    r: int
    v_tilde: int | None
    fdp_hat: float
    randomized: bool = False
    coin: bool | None = None
    floored: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rejected", _read_only(self.rejected))
        if self.r != len(self.rejected):
            raise ValueError("r must equal the number of rejected indices")
        if self.floored:
            if not self.randomized or self.v_tilde is not None:
                raise ValueError("floored estimates must be randomized with sentinel v_tilde")
        elif self.v_tilde is None:
            raise ValueError("sentinel v_tilde requires floored=True")
        elif not 0 <= self.v_tilde <= max(self.r, 0):
            raise ValueError(f"v_tilde={self.v_tilde} outside [0, r={self.r}]")

    @property
    def requires_independence(self) -> bool:
        """True when the guarantee needs independent hypotheses.

        The windowed equivalence estimator is valid only for independent
        statistics with unimodal symmetric null densities; every other
        estimator here needs only joint symmetry around the margins.
        """
        return self.estimator == "equivalence-windowed"


@dataclass(frozen=True, eq=False)
class ControlResult:
    """Result of the median-FDP threshold search at level gamma.

    ``s`` is the largest scanned threshold where the FDP estimate still
    exceeded gamma (``None`` when the estimate never exceeded gamma -- the
    minus-infinity case, in which ``s_plus`` is 0 and every hypothesis with a
    positive rejection cut is rejected).  ``s_plus`` is the next scanned
    threshold after ``s`` and is the threshold actually applied.
    """

    gamma: float
    s: float | None
    s_plus: float
    rejected: np.ndarray
    r: int
    v_tilde: int
    fdp_hat: float

    def __post_init__(self):
        object.__setattr__(self, "rejected", _read_only(self.rejected))
        if self.s is not None and not self.s < self.s_plus:
            raise ValueError("s must be strictly below s_plus")
        if self.fdp_hat > self.gamma:
            raise ValueError("the FDP estimate at s_plus must not exceed gamma")
