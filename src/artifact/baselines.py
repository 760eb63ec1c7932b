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
  statistics, one row per transformation with the identity in row 0.  Each
  transformed copy of the data is one row gather: from the data itself for
  a permutation, and from ``[data * 1.0; data * -1.0]`` for a sign flip,
  which holds the same IEEE products the per-row multiply would give.  An
  index of one byte per sign replaces a float64 copy of the sign table.
* P-value procedures: Benjamini-Hochberg step-up (mean FDP) and the
  Lehmann-Romano step-down (tail FDP) with critical values
  ``alpha * (floor(gamma*i) + 1) / (m + floor(gamma*i) + 1 - i)``.  Both
  are one row-wise step, ``_bh_lr``: it sorts each row of p-values once,
  finds its cut k against the critical values, and rejects
  {i : p_i <= p_(k)}.  The public functions run it on one row, the Monte
  Carlo study on blocks of replicates.
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

from .core import InfeasibleError, _alpha, _floats, _gamma, _integer, _read_only
from .core import _row_counts, _threshold, _vector

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
# The table each built-in kind sits on; any other kind may sit on either.
_KIND_TABLES = {
    "sign-flip-full": "signs",
    "sign-flip-subsample": "signs",
    "negation-pair": "signs",
    "case-control-swap": "perms",
    "permutation-subsample": "perms",
}


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


def _check_sign_flip_n(n: int) -> None:
    """Raise ``InfeasibleError`` when 2^n sign flips are too many to enumerate (n > 20)."""
    if n > 20:
        raise InfeasibleError(
            f"full sign-flip enumeration needs n <= 20 (2^n transformations); got n={n}"
        )


def _order_index(alpha: float, n_transforms: int) -> int:
    """1-based index of the ceil((1-alpha)*B)-th smallest of B values."""
    return _cached_order_index(_alpha(alpha), n_transforms)


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
    permutations.  A built-in ``kind`` (the constructors' names) must sit on
    its own table, and ``sign-flip-full`` must hold 2^n rows.  Construction
    checks all of this and raises ValueError otherwise; the table is then
    stored read-only.  Subsampled variants draw transformations with
    replacement, always keep the identity as row 0, and record their seed.
    Both kinds act on data as a row gather (``apply_to``): a sign flip reads
    each row from the data or from its negated copy, so no copy costs a
    broadcast multiply.
    """

    kind: str
    n: int
    signs: np.ndarray | None = None
    perms: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        if (self.signs is None) == (self.perms is None):
            raise ValueError("a transformation group needs exactly one of signs and perms")
        table_name = "signs" if self.signs is not None else "perms"
        if _KIND_TABLES.get(self.kind, table_name) != table_name:
            raise ValueError(
                f"kind {self.kind!r} needs a {_KIND_TABLES[self.kind]} table, not {table_name}"
            )
        table = np.asarray(getattr(self, table_name))
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
        if table.shape[1] != self.n_rows:
            raise ValueError(f"n={self.n} needs a table on {self.n_rows} data rows, got {table.shape[1]}")
        if self.kind == "sign-flip-full" and table.shape[0] != 2**self.n:
            raise ValueError(f"kind 'sign-flip-full' needs 2^n = {2**self.n} rows, got {table.shape[0]}")
        object.__setattr__(self, table_name, _read_only(table))

    @property
    def size(self) -> int:
        arr = self.signs if self.signs is not None else self.perms
        return int(arr.shape[0])

    @property
    def n_rows(self) -> int:
        """Number of data rows the transformations act on: n for sign flips, 2n for permutations."""
        return self.n if self.signs is not None else 2 * self.n

    @classmethod
    def sign_flip_full(cls, n: int) -> "TransformationGroup":
        """All 2^n sign-flip patterns (requires n <= 20)."""
        n = _integer("n", n, minimum=1)
        _check_sign_flip_n(n)
        codes = np.arange(2**n, dtype=np.int64)
        bits = (codes[:, None] >> np.arange(n)[None, :]) & 1
        signs = (1 - 2 * bits).astype(np.int8)
        return cls(kind="sign-flip-full", n=n, signs=signs)

    @classmethod
    def sign_flip_subsample(cls, n: int, n_transforms: int, seed: int) -> "TransformationGroup":
        """Identity + (n_transforms - 1) random sign-flip patterns."""
        n, n_transforms = _integer("n", n), _integer("n_transforms", n_transforms)
        if n_transforms < 2:
            raise ValueError("n_transforms must be >= 2 (identity plus at least one draw)")
        rng = np.random.default_rng(seed)
        signs = rng.choice(np.asarray([-1, 1], dtype=np.int8), size=(n_transforms, n))
        signs[0] = 1
        return cls(kind="sign-flip-subsample", n=n, signs=signs, seed=seed)

    @classmethod
    def negation_pair(cls, n: int) -> "TransformationGroup":
        """The two-element subgroup {identity, global negation}."""
        n = _integer("n", n)
        signs = np.ones((2, n), dtype=np.int8)
        signs[1] = -1
        return cls(kind="negation-pair", n=n, signs=signs)

    @classmethod
    def case_control_swap(cls, n: int) -> "TransformationGroup":
        """{identity, swap-all-cases-with-controls} acting on 2n rows.

        ``n`` is the per-group size; rows 0..n-1 are the cases and rows
        n..2n-1 the controls.
        """
        n = _integer("n", n, minimum=1)
        identity = np.arange(2 * n)
        swap = np.concatenate([identity[n:], identity[:n]])
        return cls(kind="case-control-swap", n=n, perms=np.stack([identity, swap]))

    @classmethod
    def permutation_subsample(cls, n: int, n_transforms: int, seed: int) -> "TransformationGroup":
        """Identity + random row permutations of 2n rows (n per group)."""
        n, n_transforms = _integer("n", n), _integer("n_transforms", n_transforms)
        if n_transforms < 2:
            raise ValueError("n_transforms must be >= 2 (identity plus at least one draw)")
        rng = np.random.default_rng(seed)
        perms = np.empty((n_transforms, 2 * n), dtype=np.int64)
        perms[0] = np.arange(2 * n)
        for b in range(1, n_transforms):
            perms[b] = rng.permutation(2 * n)
        return cls(kind="permutation-subsample", n=n, perms=perms, seed=seed)

    def apply_to(self, data: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the transformed copies of ``data`` (identity first).

        Each copy is a fresh float64 array gathered from the rows of one
        source: ``data`` itself for permutations, and ``[data * 1.0;
        data * -1.0]`` for sign flips, whose row ``i + n`` is read wherever
        ``signs[b, i] < 0``.  So every entry is the product the per-row
        multiply ``data * signs[b][:, None]`` gives, bit for bit (signed
        zeros, infinities and NaN sign bits included).  The sign-flip index
        takes the smallest unsigned dtype that holds its largest entry,
        2n - 1: one byte per sign, as in the int8 table, for n <= 128.
        """
        data = _floats("data", data)
        if data.ndim != 2 or data.shape[0] != self.n_rows:
            raise ValueError(
                f"data must be 2-d with {self.n_rows} rows for this group, got {data.shape}"
            )
        if self.signs is not None:
            n = self.n_rows
            source = np.concatenate([data * 1.0, data * -1.0])
            index = np.empty(self.signs.shape, np.min_scalar_type(2 * n - 1))
            np.less(self.signs, 0, out=index)
            index *= n
            index += np.arange(n, dtype=index.dtype)
        else:
            source, index = data, self.perms
        for rows in index:
            yield source[rows]

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
    t, alpha = _threshold(t), _alpha(alpha)  # before the B statistic calls
    above = group.statistics(data, statistic_fn) > t
    counts = _row_counts(above)
    k = _order_index(alpha, group.size)
    observed = int(counts[0])  # identity is always row 0
    v_bar = int(_sam_v_bars(counts[None], k)[0])
    return SamEstimate(
        t=t,
        rejected=_read_only(np.flatnonzero(above[0])),
        r=observed,
        v_bar=v_bar,
        fdp_bar=v_bar / max(observed, 1),
        alpha=alpha,
        order_index=k,
        n_transforms=group.size,
        kind=group.kind,
        seed=group.seed,
    )


def _sam_v_bars(counts: np.ndarray, k: int) -> np.ndarray:
    """The bound of each row of an (R, B) count block, identity first: min(k-th smallest, observed)."""
    return np.minimum(np.partition(counts, k - 1, axis=1)[:, k - 1], counts[:, 0])


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
    data = _floats("data", data)
    if kind == "sign-flip":
        group = TransformationGroup.negation_pair(data.shape[0])
    elif kind == "swap":
        if data.shape[0] % 2:
            raise ValueError("swap needs an even number of rows (two equal groups)")
        group = TransformationGroup.case_control_swap(data.shape[0] // 2)
    else:
        raise ValueError(f"kind must be 'sign-flip' or 'swap', got {kind!r}")
    return sam_bound(data, statistic_fn, group, t, alpha=0.5)


def _bh_lr(p: np.ndarray, gamma: float, alpha: float | None = None) -> np.ndarray:
    """BH (``alpha`` None) or the LR step-down at ``alpha``, on each row of an (R, m) block.

    Checks that every p-value lies in [0, 1], in one pass, then sorts each
    row once and finds its cut k against the procedure's critical values:
    BH's k is the largest i with p_(i) <= gamma*i/m, LR's the number passing
    before the first failure.  Returns the (R, m) rejection mask
    ``p <= p_(k)``, all False where k = 0.
    """
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("pvalues must all lie in [0, 1]")
    m = p.shape[-1]
    s = np.sort(p, axis=-1)
    if alpha is None:
        passing = s <= _gamma(gamma) * np.arange(1, m + 1) / m
        k = np.where(passing.any(axis=-1), m - np.argmax(passing[:, ::-1], axis=-1), 0)
    else:
        failing = s > lehmann_romano_critical_values(m, gamma, alpha)
        k = np.where(failing.any(axis=-1), np.argmax(failing, axis=-1), m)
    cut = np.where(k > 0, s[np.arange(s.shape[0]), k - 1], -np.inf)
    return p <= cut[:, None]


def benjamini_hochberg(pvalues, gamma: float) -> np.ndarray:
    """Benjamini-Hochberg step-up: indices rejected at mean-FDP level gamma.

    With k the largest i such that p_(i) <= gamma*i/m (0 if none), the
    rejection set is {i : p_i <= p_(k)}, returned in ascending order.  The
    critical values gamma*i/m are nondecreasing in i, also in floating
    point (a rounded product and quotient are monotone), so a p-value tied
    with p_(k) passes its own critical value as well and a tie cannot
    straddle the cut: the set equals the first k of a stable sort.
    """
    return np.flatnonzero(_bh_lr(_vector("pvalues", pvalues, finite=False)[None], gamma)[0])


def lehmann_romano_critical_values(m: int, gamma: float, alpha: float = 0.5) -> np.ndarray:
    """Step-down critical values alpha*(floor(gamma*i)+1)/(m+floor(gamma*i)+1-i)."""
    if _integer("m", m, rule="an integer >= 1") < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    gamma = _gamma(gamma)
    alpha = _alpha(alpha)
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
    p = _vector("pvalues", pvalues, finite=False)
    return np.flatnonzero(_bh_lr(p[None], gamma, _alpha(alpha))[0])


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
    x = _vector("x", x)
    n = x.size
    _check_sign_flip_n(n)
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
    z, y = _vector("z", z), _vector("y", y)
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
