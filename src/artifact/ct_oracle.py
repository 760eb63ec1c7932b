"""Brute-force closed testing over all nonempty subsets of {0, ..., m-1}.

What stays literal here is the enumeration: every local test is tabulated
over all 2^m subsets, the closure evaluates the defining condition (a subset
is in the rejected collection iff its own and every superset's local test
reject) for every subset, and the confidence bound
``t_alpha(I) = max{|J| : J subseteq I, J not rejected}`` walks every submask.
Nothing here shares code with the fast estimators in
:mod:`artifact.estimators`; agreement between the two routes (checked by
:func:`verify_shortcut`) is the point.

Subsets are represented as integer bitmasks: bit j set means hypothesis j
(0-based) belongs to the subset.  Feasibility is capped at m <= 12.

Local test families
-------------------
* ``directional-basic``: reject H_I iff the subset rejection count exceeds
  the subset mirror count, ``R_I > Rminus_I``.
* ``directional-randomized``: one shared coin b for *all* subsets; reject
  iff ``R_I > Rminus_I`` or (b = 1 and ``R_I = Rminus_I``).  b = 1
  corresponds to the coin branch that floors the randomized estimator.
* ``equivalence-basic`` / ``equivalence-windowed``: same comparison with
  the equivalence (or windowed) counts.
* ``sam-subset``: reject H_I iff the observed subset rejection count
  strictly exceeds the ``ceil((1-alpha)*B)``-th smallest subset rejection
  count over a transformation group, read off a (B, m) statistics matrix
  (identity in row 0).  The whole 2^m table is built at once from one
  histogram of the rows' rejection patterns (m-bit codes): per mask, how
  many rows reach each subset count.  No closed form; closure only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .baselines import TransformationGroup, _order_index
from .core import HypothesisShape, InfeasibleError, StatisticVector

__all__ = [
    "LocalTestFamily",
    "ClosureResult",
    "run_closure",
    "verify_shortcut",
    "verify_random_instances",
    "indices_to_mask",
    "mask_to_indices",
]

MAX_ORACLE_M = 12

COUNT_FAMILIES = (
    "directional-basic",
    "directional-randomized",
    "equivalence-basic",
    "equivalence-windowed",
)


def indices_to_mask(indices: Iterable[int]) -> int:
    """Bitmask with bit j set for every 0-based index j in ``indices``."""
    mask = 0
    for j in indices:
        j = int(j)
        if j < 0:
            raise ValueError(f"indices must be >= 0, got {j}")
        mask |= 1 << j
    return mask


def mask_to_indices(mask: int) -> list[int]:
    """Sorted 0-based indices of the set bits of ``mask``."""
    if mask < 0:
        raise ValueError("mask must be >= 0")
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def _indicator_bits(sv: StatisticVector, t: float, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-hypothesis (reject, mirror) indicators at threshold t.

    These repeat the estimator definitions symbol for symbol; they are kept
    separate so the oracle stays an independent route.
    """
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValueError(f"threshold t must be finite and >= 0, got {t}")
    stats = sv.statistics
    margins = sv.margins
    if kind in ("directional-basic", "directional-randomized"):
        if sv.shape is not HypothesisShape.DIRECTIONAL:
            raise ValueError(f"{kind} needs a directional statistic vector")
        diffs = stats - margins
        return diffs > t, (-diffs) > t
    if kind in ("equivalence-basic", "equivalence-windowed"):
        if sv.shape is not HypothesisShape.EQUIVALENCE:
            raise ValueError(f"{kind} needs an equivalence statistic vector")
        gap = margins - np.abs(stats)
        if t >= float(np.min(margins)):
            r_bits = np.zeros(stats.size, dtype=bool)
        else:
            r_bits = gap > t
        m_bits = (-gap) > t
        if kind == "equivalence-windowed":
            m_bits = m_bits & (t <= 3.0 * margins - np.abs(stats))
        return r_bits, m_bits
    raise ValueError(f"unknown count family {kind!r}")


def _subset_bits(m: int) -> np.ndarray:
    """The (2^m, m) 0/1 matrix whose row ``mask`` holds the bits of ``mask``."""
    if m > MAX_ORACLE_M:
        raise InfeasibleError(
            f"the oracle enumerates all 2^m subsets; m <= {MAX_ORACLE_M} required, got m={m}"
        )
    return (np.arange(1 << m, dtype=np.int64)[:, None] >> np.arange(m)) & 1


@dataclass(frozen=True, eq=False)
class LocalTestFamily:
    """A family of subset-level tests phi_I, held as one table over all masks.

    ``phi_values[mask]`` is the local test of the subset encoded by ``mask``:
    a read-only boolean array of 2^m entries (1 <= m <= 12) whose entry 0,
    the empty set, is False.  Use the classmethod constructors;
    ``phi(mask)`` reads the table for a nonempty subset.
    """

    kind: str
    phi_values: np.ndarray
    b: int | None = None

    def __post_init__(self):
        table = np.array(self.phi_values)
        if table.dtype != bool or table.ndim != 1 or table.size < 2 or table.size & (table.size - 1):
            raise ValueError("phi_values must be a 1-d boolean array of 2^m entries, m >= 1")
        if table.size > 1 << MAX_ORACLE_M:
            raise InfeasibleError(f"phi_values has 2^m entries; m <= {MAX_ORACLE_M} required")
        if table[0]:
            raise ValueError("phi_values[0] is the empty set's entry and must be False")
        table.flags.writeable = False
        object.__setattr__(self, "phi_values", table)

    @property
    def m(self) -> int:
        return self.phi_values.size.bit_length() - 1

    def phi(self, mask: int) -> bool:
        if not 1 <= mask < self.phi_values.size:
            raise ValueError(f"mask must encode a nonempty subset of {self.m} hypotheses")
        return bool(self.phi_values[mask])

    @classmethod
    def _from_counts(cls, kind: str, sv: StatisticVector, t: float, b: int | None = None) -> "LocalTestFamily":
        r_bits, m_bits = _indicator_bits(sv, t, kind)
        bits = _subset_bits(sv.m)
        r_count, m_count = bits @ r_bits, bits @ m_bits
        table = r_count > m_count
        if b == 1:
            table |= r_count == m_count
            table[0] = False  # the empty set's 0 == 0 is no tie to credit
        return cls(kind=kind, phi_values=table, b=b)

    @classmethod
    def directional_basic(cls, sv: StatisticVector, t: float) -> "LocalTestFamily":
        return cls._from_counts("directional-basic", sv, t)

    @classmethod
    def directional_randomized(cls, sv: StatisticVector, t: float, b: int) -> "LocalTestFamily":
        """Randomized family with the shared coin b in {0, 1}.

        The same b is used for every subset; b = 1 is the branch on which
        the randomized estimator floors ties.
        """
        if b not in (0, 1):
            raise ValueError(f"coin b must be 0 or 1, got {b}")
        return cls._from_counts("directional-randomized", sv, t, b=b)

    @classmethod
    def equivalence_basic(cls, sv: StatisticVector, t: float) -> "LocalTestFamily":
        return cls._from_counts("equivalence-basic", sv, t)

    @classmethod
    def equivalence_windowed(cls, sv: StatisticVector, t: float) -> "LocalTestFamily":
        return cls._from_counts("equivalence-windowed", sv, t)

    @classmethod
    def sam_subset(
        cls,
        data: np.ndarray,
        statistic_fn: Callable[[np.ndarray], np.ndarray],
        group: TransformationGroup,
        t: float,
        alpha: float = 0.5,
    ) -> "LocalTestFamily":
        """Subset-level SAM test: observed count vs. group order statistic.

        For subset I, reject H_I iff ``R_I(X, t)`` strictly exceeds the
        ``ceil((1-alpha)*B)``-th smallest of ``{R_I(g(X), t)}`` over the
        group.  This is how a resampling bound plugs into closed testing.
        Like every family, the whole 2^m table is built here, so
        m <= 12 (``MAX_ORACLE_M``) is required; larger m raises
        :class:`InfeasibleError`.
        """
        return cls._sam_from_statistics(group.statistics(data, statistic_fn), t, alpha)

    @classmethod
    def _sam_from_statistics(cls, stats: np.ndarray, t: float, alpha: float) -> "LocalTestFamily":
        """The ``sam-subset`` family from a (B, m) statistics matrix, identity in row 0.

        Row b's rejection pattern ``stats[b] > t`` is read as an m-bit code,
        so its count on subset I is ``popcount(code_b & I)``.  ``levels[l, I]``
        counts the rows whose count on I is l, in (m + 1) * 2^m integers
        whatever B is.  It starts as the histogram of the codes in level 0,
        the column read as a code; pass j turns bit j of the column from a
        code bit into a mask bit (a mask without j takes both codes of the
        pair at their level, a mask with j takes the code that has j one
        level up).  The ``ceil((1-alpha)*B)``-th smallest count on I is the
        number of levels whose cumulative frequency is still below that
        order index, and ``phi(I)`` compares row 0's count on I (its mask bits
        summed over row 0's rejections) with it.
        """
        t = float(t)
        if not np.isfinite(t):
            raise ValueError(f"threshold t must be finite, got {t}")
        reject_bits = stats > t
        n_transforms, m = reject_bits.shape
        bits = _subset_bits(m)
        k = _order_index(alpha, n_transforms)
        n_masks = 1 << m
        codes = reject_bits @ (1 << np.arange(m, dtype=np.int64))
        levels = np.zeros((m + 1, n_masks), dtype=np.int64)
        levels[0] = np.bincount(codes, minlength=n_masks)
        for j in range(m):
            pairs = levels.reshape(m + 1, n_masks >> (j + 1), 2, 1 << j)
            clear, set_ = pairs[:, :, 0], pairs[:, :, 1]
            merged = clear + set_
            set_[1:] = clear[1:] + set_[:-1]
            set_[0] = clear[0]
            clear[...] = merged
        bounds = (np.cumsum(levels, axis=0) < k).sum(axis=0)
        return cls(kind="sam-subset", phi_values=bits @ reject_bits[0] > bounds)


@dataclass(frozen=True, eq=False)
class ClosureResult:
    """Membership table of the closed-testing rejected collection.

    ``membership[mask]`` is True iff the subset encoded by ``mask`` is in
    the rejected collection (its own local test and every superset's local
    test reject).  ``membership[0]`` is always False: the empty set is
    never rejected.
    """

    m: int
    membership: np.ndarray
    phi_values: np.ndarray

    def contains(self, mask: int) -> bool:
        if not 0 <= mask < (1 << self.m):
            raise ValueError(f"mask out of range for m={self.m}")
        return bool(self.membership[mask])

    @property
    def n_rejected(self) -> int:
        return int(self.membership.sum())

    def t_alpha(self, mask: int) -> int:
        """Confidence bound: largest |J|, J a subset of ``mask``, J not rejected.

        Exhaustive over all submasks.  Returns 0 when every nonempty subset
        of ``mask`` is in the rejected collection (the empty set, never
        rejected, is the implicit maximizer).
        """
        if not 0 <= mask < (1 << self.m):
            raise ValueError(f"mask out of range for m={self.m}")
        best = 0
        sub = mask
        while sub:
            if not self.membership[sub]:
                size = sub.bit_count()
                if size > best:
                    best = size
            sub = (sub - 1) & mask
        return best


def run_closure(family: LocalTestFamily) -> ClosureResult:
    """Form the closure of the family's local tests over all 2^m masks.

    The membership table starts as a copy of ``family.phi_values``; pass j
    ANDs into every mask without bit j the entry of its superset
    ``mask | 1 << j``.  After the m passes each mask holds the AND of its
    own local test and every superset's, which is the defining condition
    evaluated for every subset.
    """
    membership = family.phi_values.copy()
    for j in range(family.m):
        pairs = membership.reshape(-1, 2, 1 << j)
        pairs[:, 0] &= pairs[:, 1]
    membership.flags.writeable = False
    return ClosureResult(m=family.m, membership=membership, phi_values=family.phi_values)


def _closed_form_membership(family: LocalTestFamily, sv: StatisticVector, t: float) -> np.ndarray:
    """The propositions' shortcut criterion, evaluated for every mask.

    For the non-randomized families a subset is rejected iff its own
    rejection count beats the *global* mirror count; the randomized family
    additionally credits ties when its coin b is 1.
    """
    kind = family.kind
    if kind not in COUNT_FAMILIES:
        raise ValueError(f"no closed-form criterion for family {kind!r}")
    r_bits, m_bits = _indicator_bits(sv, t, kind)
    m = sv.m
    if m != family.m:
        raise ValueError(f"statistic vector has m={m} but family has m={family.m}")
    r_subset = _subset_bits(m) @ r_bits
    r_minus_global = int(m_bits.sum())
    member = r_subset > r_minus_global
    if kind == "directional-randomized" and family.b == 1:
        member = member | (r_subset == r_minus_global)
    member[0] = False
    return member


def _random_instance(kind: str, max_m: int, rng: np.random.Generator) -> tuple[StatisticVector, float]:
    """A random statistic vector and threshold, with deliberate tie pressure.

    A fifth of the instances snap statistics to a half-integer grid and draw
    t from the same grid, so exact boundary configurations (cut == t, count
    ties R = Rminus) occur often instead of almost never.
    """
    m = int(rng.integers(1, max_m + 1))
    stats = rng.normal(0.0, 2.0, m)
    gridded = rng.random() < 0.2
    if gridded:
        stats = np.round(stats * 2.0) / 2.0
        t = float(rng.choice([0.0, 0.5, 1.0, 1.5]))
    else:
        t = float(rng.uniform(0.0, 2.5))
    if kind in ("directional-basic", "directional-randomized"):
        margins = np.round(rng.uniform(-1.0, 1.0, m) * 2.0) / 2.0 if gridded else rng.uniform(-1.0, 1.0, m)
        return StatisticVector(stats, margins, HypothesisShape.DIRECTIONAL), t
    margins = rng.uniform(0.5, 2.5, m)
    if gridded:
        margins = np.maximum(np.round(margins * 2.0) / 2.0, 0.5)
    return StatisticVector(stats, margins, HypothesisShape.EQUIVALENCE), t


def verify_random_instances(kind: str, n_instances: int, max_m: int, seed: int) -> dict:
    """Run verify_shortcut on random instances; returns an aggregate report.

    The randomized family is checked under both coin outcomes on every
    instance.  Report fields: family, instances, max_m, seed, mismatches,
    subsets_checked.
    """
    if kind not in COUNT_FAMILIES:
        raise ValueError(f"family must be one of {COUNT_FAMILIES}, got {kind!r}")
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if not 1 <= max_m <= MAX_ORACLE_M:
        raise ValueError(f"max_m must be in [1, {MAX_ORACLE_M}], got {max_m}")
    rng = np.random.default_rng(seed)
    mismatches = 0
    subsets_checked = 0
    for _ in range(n_instances):
        sv, t = _random_instance(kind, max_m, rng)
        if kind == "directional-randomized":
            for b in (0, 1):
                family = LocalTestFamily.directional_randomized(sv, t, b)
                report = verify_shortcut(family, sv, t)
                mismatches += report["mismatches"]
                subsets_checked += report["subsets_checked"]
        else:
            if kind == "directional-basic":
                family = LocalTestFamily.directional_basic(sv, t)
            elif kind == "equivalence-basic":
                family = LocalTestFamily.equivalence_basic(sv, t)
            else:
                family = LocalTestFamily.equivalence_windowed(sv, t)
            report = verify_shortcut(family, sv, t)
            mismatches += report["mismatches"]
            subsets_checked += report["subsets_checked"]
    return {
        "family": kind,
        "instances": int(n_instances),
        "max_m": int(max_m),
        "seed": int(seed),
        "mismatches": int(mismatches),
        "subsets_checked": int(subsets_checked),
    }


def verify_shortcut(family: LocalTestFamily, sv: StatisticVector, t: float) -> dict:
    """Compare brute-force closure membership against the closed form.

    Every nonempty subset is checked.  Mismatches are reported, not raised:
    the report is ``{"family", "m", "t", "subsets_checked", "mismatches",
    "mismatch_masks"}`` with at most 32 offending masks listed.
    """
    closure = run_closure(family)
    shortcut = _closed_form_membership(family, sv, t)
    diff = np.flatnonzero(closure.membership != shortcut)
    diff = diff[diff > 0]
    return {
        "family": family.kind,
        "m": family.m,
        "t": float(t),
        "subsets_checked": (1 << family.m) - 1,
        "mismatches": int(diff.size),
        "mismatch_masks": [int(x) for x in diff[:32]],
    }
