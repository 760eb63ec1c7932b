"""Reference procedures: resampling FDP bounds, BH, step-down FDX, exact tests.

Three families live here:

* SAM-style significance-analysis bounds: for a group of data
  transformations (sign flips or permutations) under which the joint null
  distribution is invariant, the number of false rejections at threshold t
  is bounded by an order statistic of the rejection counts over the
  transformed data sets.  At ``alpha = 0.5`` (the default) the bound holds
  at median level, making it directly comparable to the mirror-count
  estimators in :mod:`artifact.estimators`; the two-transformation special
  case (identity + global negation/swap) *equals* the directional mirror
  estimator at margin zero.  The bound is computed from a (B, m) matrix of
  statistics, one row per transformation with the identity in row 0.
* P-value procedures: Benjamini-Hochberg step-up (mean FDP) and the
  Lehmann-Romano step-down (tail FDP) with critical values
  ``alpha * (floor(gamma*i) + 1) / (m + floor(gamma*i) + 1 - i)``.  Each
  sorts the p-values once, finds its cut k against the critical values,
  and rejects {i : p_i <= p_(k)}.
* Exact single-hypothesis tests by full enumeration of a transformation
  group: one-sample sign flips (all 2^n patterns) and two-group label
  permutations (all C(2n, n) distinct splits).  The split table is built
  once per n and cached read-only as ``uint8``: C(2n, n) * n bytes, 1.85 MB
  at n = 10 and about 10 MB over every n <= 11 that the cap allows.

Feasibility caps raise :class:`artifact.core.InfeasibleError`: 2^n
enumeration needs n <= 20, and full split enumeration needs
C(2n, n) <= 2^20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterator

import numpy as np

from .core import InfeasibleError, _gamma, _read_only

__all__ = [
    "TransformationGroup",
    "SamEstimate",
    "sam_bound",
    "sam_two_transform",
    "benjamini_hochberg",
    "lehmann_romano_critical_values",
    "lehmann_romano_stepdown",
    "ExactTestResult",
    "sign_flip_test",
    "two_group_permutation_test",
]

_NEAR_INT_TOL = 1e-9


def _guarded_floor(x: np.ndarray | float):
    """floor(x) robust to float representation of rational inputs.

    ``gamma * i`` for, say, gamma=0.3, i=10 evaluates to 2.999...96 although
    the intended real value is 3; values within a small relative tolerance
    of an integer are snapped before flooring.  (This guards index
    arithmetic only -- threshold comparisons elsewhere stay exact.)
    """
    x = np.asarray(x, dtype=np.float64)
    nearest = np.round(x)
    snapped = np.where(np.abs(x - nearest) <= _NEAR_INT_TOL * np.maximum(1.0, np.abs(x)), nearest, x)
    out = np.floor(snapped)
    return out if out.ndim else float(out)


def _order_index(alpha: float, n_transforms: int) -> int:
    """1-based index of the ceil((1-alpha)*B)-th smallest of B values."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return _cached_order_index(alpha, n_transforms)


@lru_cache(maxsize=256)
def _cached_order_index(alpha: float, n_transforms: int) -> int:
    # ceil((1 - a) * B) == B - floor(a * B) for integer B, evaluated with the
    # guarded floor so rationals like 7/70 land on the intended index.
    k = n_transforms - int(_guarded_floor(alpha * n_transforms))
    return min(max(k, 1), n_transforms)


@dataclass(frozen=True, eq=False)
class TransformationGroup:
    """A finite set of data transformations with the identity first.

    ``signs`` (entries +-1, one row per transformation) encodes row-wise
    sign flips; ``perms`` encodes row permutations.  Exactly one of the two
    is set, and its row 0 is the identity, which ``sam_bound`` and
    ``sam_subset`` read as the observed data.  ``n`` is the number of data
    rows for sign flips and the per-group size (half the rows) for
    permutations.  Construction checks all of this and raises ValueError
    otherwise; the table is then stored read-only.  Subsampled variants draw
    transformations with replacement, always keep the identity as row 0, and
    record their seed.
    """

    kind: str
    n: int
    signs: np.ndarray | None = None
    perms: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        if (self.signs is None) == (self.perms is None):
            raise ValueError("a transformation group needs exactly one of signs and perms")
        table = np.asarray(self.signs if self.signs is not None else self.perms)
        if table.ndim != 2 or table.size == 0:
            raise ValueError(f"transformation table must be 2-d and non-empty, got shape {table.shape}")
        if self.signs is not None:
            if not ((np.abs(table) == 1).all() and (table[0] == 1).all()):
                raise ValueError("signs must all be +-1, with the identity (all +1) in row 0")
        else:
            identity = np.arange(table.shape[1])
            if not ((np.sort(table, axis=1) == identity).all() and (table[0] == identity).all()):
                raise ValueError(
                    "each perms row must be a permutation of range(n_rows), with the identity in row 0"
                )
        rows = self.n if self.signs is not None else 2 * self.n
        if table.shape[1] != rows:
            raise ValueError(f"n={self.n} needs a table on {rows} data rows, got {table.shape[1]}")
        object.__setattr__(self, "signs" if self.signs is not None else "perms", _read_only(table))

    @property
    def size(self) -> int:
        arr = self.signs if self.signs is not None else self.perms
        return int(arr.shape[0])

    @property
    def n_rows(self) -> int:
        """Number of data rows the transformations act on."""
        arr = self.signs if self.signs is not None else self.perms
        return int(arr.shape[1])

    @classmethod
    def sign_flip_full(cls, n: int) -> "TransformationGroup":
        """All 2^n sign-flip patterns (requires n <= 20)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > 20:
            raise InfeasibleError(
                f"full sign-flip enumeration needs n <= 20 (2^n transformations); got n={n}"
            )
        codes = np.arange(2**n, dtype=np.int64)
        bits = (codes[:, None] >> np.arange(n)[None, :]) & 1
        signs = (1 - 2 * bits).astype(np.int8)
        return cls(kind="sign-flip-full", n=n, signs=signs)

    @classmethod
    def sign_flip_subsample(cls, n: int, n_transforms: int, seed: int) -> "TransformationGroup":
        """Identity + (n_transforms - 1) random sign-flip patterns."""
        if n_transforms < 2:
            raise ValueError("n_transforms must be >= 2 (identity plus at least one draw)")
        rng = np.random.default_rng(seed)
        signs = rng.choice(np.asarray([-1, 1], dtype=np.int8), size=(n_transforms, n))
        signs[0] = 1
        return cls(kind="sign-flip-subsample", n=n, signs=signs, seed=seed)

    @classmethod
    def negation_pair(cls, n: int) -> "TransformationGroup":
        """The two-element subgroup {identity, global negation}."""
        signs = np.ones((2, n), dtype=np.int8)
        signs[1] = -1
        return cls(kind="negation-pair", n=n, signs=signs)

    @classmethod
    def case_control_swap(cls, n: int) -> "TransformationGroup":
        """{identity, swap-all-cases-with-controls} acting on 2n rows.

        ``n`` is the per-group size; rows 0..n-1 are the cases and rows
        n..2n-1 the controls.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        identity = np.arange(2 * n)
        swap = np.concatenate([identity[n:], identity[:n]])
        return cls(kind="case-control-swap", n=n, perms=np.stack([identity, swap]))

    @classmethod
    def permutation_subsample(cls, n: int, n_transforms: int, seed: int) -> "TransformationGroup":
        """Identity + random row permutations of 2n rows (n per group)."""
        if n_transforms < 2:
            raise ValueError("n_transforms must be >= 2 (identity plus at least one draw)")
        rng = np.random.default_rng(seed)
        perms = np.empty((n_transforms, 2 * n), dtype=np.int64)
        perms[0] = np.arange(2 * n)
        for b in range(1, n_transforms):
            perms[b] = rng.permutation(2 * n)
        return cls(kind="permutation-subsample", n=n, perms=perms, seed=seed)

    def apply_to(self, data: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the transformed copies of ``data`` (identity first)."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] != self.n_rows:
            raise ValueError(
                f"data must be 2-d with {self.n_rows} rows for this group, got {data.shape}"
            )
        if self.signs is not None:
            for row in self.signs.astype(np.float64):
                yield data * row[:, None]
        else:
            for perm in self.perms:
                yield data[perm]

    def statistics(self, data: np.ndarray, statistic_fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``statistic_fn`` over all transformed data sets, one row each: (B, m).

        The rows are filled into one preallocated float64 array.  As with
        ``np.stack``, a scalar statistic gives shape (B,), and a row whose
        shape differs from row 0's raises ValueError.
        """
        copies = self.apply_to(data)
        first = np.asarray(statistic_fn(next(copies)), dtype=np.float64)
        out = np.empty((self.size,) + first.shape)
        out[0] = first
        for b, x in enumerate(copies, start=1):
            row = np.asarray(statistic_fn(x), dtype=np.float64)
            if row.shape != first.shape:
                raise ValueError(
                    f"statistic rows must all have one shape: row {b} has {row.shape}, row 0 {first.shape}"
                )
            out[b] = row
        return out


@dataclass(frozen=True, eq=False)
class SamEstimate:
    """Order-statistic FDP bound over a transformation group at threshold t."""

    t: float
    rejected: np.ndarray
    r: int
    v_bar: int
    fdp_bar: float
    alpha: float
    order_index: int
    n_transforms: int
    kind: str
    seed: int | None = None


def sam_bound(
    data: np.ndarray,
    statistic_fn: Callable[[np.ndarray], np.ndarray],
    group: TransformationGroup,
    t: float,
    alpha: float = 0.5,
) -> SamEstimate:
    """Significance-analysis bound on false rejections at threshold t.

    Computes the rejection count ``R(g(X), t) = #{j : T_j(g(X)) > t}`` for
    every transformation g in the group, takes the
    ``ceil((1-alpha)*B)``-th smallest of those B counts as the bound, and
    caps it at the observed count.  With the default ``alpha = 0.5`` this is
    a median-level bound.

    Parameters
    ----------
    data : ndarray, shape (n_rows, m)
    statistic_fn : callable
        Maps a (transformed) data matrix to the m test statistics.
    group : TransformationGroup
    t : float
        Rejection threshold (statistics strictly above t are rejected).
    alpha : float
        One minus the quantile used for the bound, in (0, 1).
    """
    return _sam_estimate(group.statistics(data, statistic_fn), group, t, alpha)


def _sam_estimate(stats: np.ndarray, group: TransformationGroup, t: float, alpha: float) -> SamEstimate:
    """The SAM bound from a (B, m) statistics matrix, identity in row 0."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"threshold t must be finite, got {t}")
    counts = (stats > t).sum(axis=1)
    k = _order_index(alpha, group.size)
    bound = int(np.partition(counts, k - 1)[k - 1])
    observed = int(counts[0])  # identity is always row 0
    rejected = np.flatnonzero(stats[0] > t)
    rejected.flags.writeable = False
    v_bar = min(bound, observed)
    return SamEstimate(
        t=t,
        rejected=rejected,
        r=observed,
        v_bar=v_bar,
        fdp_bar=v_bar / max(observed, 1),
        alpha=float(alpha),
        order_index=k,
        n_transforms=group.size,
        kind=group.kind,
        seed=group.seed,
    )


def sam_two_transform(
    data: np.ndarray,
    statistic_fn: Callable[[np.ndarray], np.ndarray],
    t: float,
    kind: str = "sign-flip",
) -> SamEstimate:
    """Median-level bound from the smallest possible group: identity + mirror.

    ``kind="sign-flip"`` uses global negation; ``kind="swap"`` exchanges the
    two halves of the rows (cases vs. controls, equal sizes).  For any odd
    statistic (T(-X) = -T(X), as all the built-in linear statistics are)
    this reproduces the directional mirror estimator with zero margins
    exactly: the mirrored rejection count is the mirror count.
    """
    data = np.asarray(data, dtype=np.float64)
    if kind == "sign-flip":
        group = TransformationGroup.negation_pair(data.shape[0])
    elif kind == "swap":
        if data.shape[0] % 2:
            raise ValueError("swap needs an even number of rows (two equal groups)")
        group = TransformationGroup.case_control_swap(data.shape[0] // 2)
    else:
        raise ValueError(f"kind must be 'sign-flip' or 'swap', got {kind!r}")
    return sam_bound(data, statistic_fn, group, t, alpha=0.5)


def _validated_pvalues(pvalues) -> np.ndarray:
    p = np.atleast_1d(np.asarray(pvalues, dtype=np.float64))
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a non-empty 1-d array")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("pvalues must all lie in [0, 1]")
    return p


def _at_or_below(p: np.ndarray, s: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices i with p[i] <= s[k - 1], the k-th smallest p-value.

    ``s`` is ``np.sort(p)``; k = 0 rejects nothing.
    """
    if k == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(p <= s[k - 1])


def benjamini_hochberg(pvalues, gamma: float) -> np.ndarray:
    """Benjamini-Hochberg step-up: indices rejected at mean-FDP level gamma.

    With k the largest i such that p_(i) <= gamma*i/m (0 if none), the
    rejection set is {i : p_i <= p_(k)}, returned in ascending order.  The
    critical values gamma*i/m are nondecreasing in i, also in floating
    point (a rounded product and quotient are monotone), so a p-value tied
    with p_(k) passes its own critical value as well and a tie cannot
    straddle the cut: the set equals the first k of a stable sort.
    """
    p = _validated_pvalues(pvalues)
    gamma = _gamma(gamma)
    m = p.size
    s = np.sort(p)
    passing = s <= gamma * np.arange(1, m + 1) / m
    k = m - int(np.argmax(passing[::-1])) if passing.any() else 0
    return _at_or_below(p, s, k)


def lehmann_romano_critical_values(m: int, gamma: float, alpha: float = 0.5) -> np.ndarray:
    """Step-down critical values alpha*(floor(gamma*i)+1)/(m+floor(gamma*i)+1-i)."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    gamma = _gamma(gamma)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    i = np.arange(1, m + 1, dtype=np.float64)
    fl = _guarded_floor(gamma * i)
    return alpha * (fl + 1.0) / (m + fl + 1.0 - i)


def lehmann_romano_stepdown(pvalues, gamma: float, alpha: float = 0.5) -> np.ndarray:
    """Step-down control of P(FDP > gamma) <= alpha; returns rejected indices.

    Walks the sorted p-values against
    :func:`lehmann_romano_critical_values` and stops at the first failure:
    with k the number passing before it, the rejection set is
    {i : p_i <= p_(k)}, returned in ascending order.  The critical values
    are nondecreasing in i, also in floating point (each step raises the
    numerator or lowers the denominator, and the guarded floor, product and
    quotient are monotone), so a p-value tied with p_(k) passes as well and
    a tie cannot straddle the first failure.  For m = 1 and gamma = 0 this
    reduces to rejecting iff p <= alpha.
    """
    p = _validated_pvalues(pvalues)
    crit = lehmann_romano_critical_values(p.size, gamma, alpha)
    s = np.sort(p)
    failing = s > crit
    k = int(np.argmax(failing)) if failing.any() else p.size
    return _at_or_below(p, s, k)


@dataclass(frozen=True)
class ExactTestResult:
    """Outcome of a full-enumeration group-invariance test."""

    reject: bool
    t_observed: float
    critical_value: float
    alpha: float
    n_transforms: int
    order_index: int


def _exact_result(stats: np.ndarray, alpha: float) -> ExactTestResult:
    """Compare the identity's statistic (entry 0) with the group order statistic."""
    k = _order_index(alpha, stats.size)
    critical = float(np.partition(stats, k - 1)[k - 1])
    observed = float(stats[0])
    return ExactTestResult(
        reject=observed > critical,
        t_observed=observed,
        critical_value=critical,
        alpha=float(alpha),
        n_transforms=stats.size,
        order_index=k,
    )


def sign_flip_test(x, alpha: float) -> ExactTestResult:
    """One-sample test of symmetry around 0 by full sign-flip enumeration.

    The statistic is ``n^(-1/2) * sum(s_i * x_i)`` over all 2^n sign
    patterns; the observed (all +1) statistic is compared against the
    ``ceil((1-alpha)*2^n)``-th smallest.  Rejection requires a *strictly*
    larger observed value, which makes the size exactly alpha for continuous
    data when alpha is a multiple of 2^-n.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a non-empty 1-d array")
    n = x.size
    if n > 20:
        raise InfeasibleError(
            f"full sign-flip enumeration needs n <= 20 (2^n transformations); got n={n}"
        )
    # All 2^n signed sums by repeated doubling in one buffer: with s the k
    # sums so far, entries k..2k-1 become s - x_i and entries 0..k-1 s + x_i.
    # Index 0 keeps every +x_i, so it is the identity transformation's sum.
    sums = np.zeros(2**n, dtype=np.float64)
    k = 1
    for xi in x:
        sums[k : 2 * k] = sums[:k] - xi
        sums[:k] += xi
        k *= 2
    return _exact_result(sums / math.sqrt(n), alpha)


@lru_cache(maxsize=None)
def _split_table(n: int) -> np.ndarray:
    """All C(2n, n) choices of the n z-role positions among 2n, one per row.

    Rows come in ``combinations(range(2n), n)`` order, so row 0 is the
    identity split (0, ..., n-1).  Every caller with the same n shares the
    one read-only ``uint8`` table; the caller's cap C(2n, n) <= 2^20 bounds
    n by 11, so 2n fits in a byte and all tables together take about 10 MB.
    """
    n_splits = math.comb(2 * n, n)
    table = np.fromiter(
        chain.from_iterable(combinations(range(2 * n), n)), dtype=np.uint8, count=n_splits * n
    ).reshape(n_splits, n)
    table.flags.writeable = False
    return table


def two_group_permutation_test(z, y, alpha: float) -> ExactTestResult:
    """Two-sample test by full enumeration of all C(2n, n) group splits.

    The statistic is ``sqrt(n) * (mean(z) - mean(y))`` recomputed for every
    way of choosing which n of the 2n pooled values play the z role.  Groups
    must have equal size.  The size is exactly alpha for continuous data
    when alpha is a multiple of 1/C(2n, n).  The table of splits is built
    on the first call for each n and then cached read-only: C(2n, n) * n
    bytes, 1.85 MB at n = 10 and 7.8 MB at n = 11, the largest n the cap
    allows.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if z.ndim != 1 or y.ndim != 1 or z.size < 1:
        raise ValueError("z and y must be non-empty 1-d arrays")
    if z.size != y.size:
        raise ValueError(f"groups must have equal sizes, got {z.size} and {y.size}")
    n = z.size
    n_splits = math.comb(2 * n, n)
    if n_splits > 2**20:
        raise InfeasibleError(
            f"full split enumeration needs C(2n, n) <= 2^20; got C({2 * n}, {n}) = {n_splits}"
        )
    pooled = np.concatenate([z, y])
    total = float(pooled.sum())
    sums = pooled[_split_table(n)].sum(axis=1)
    # Row 0 of the split table is (0, ..., n-1): the identity split.
    return _exact_result(math.sqrt(n) * (2.0 * sums - total) / n, alpha)
