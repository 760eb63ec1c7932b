"""Tests for the core counting machinery: StatisticVector, build_profile,
and the step-function evaluators R(t) / R-(t).

The recount oracle re-derives every count from the defining inequalities
with a plain Python loop, so any indexing or side-convention slip in the
binary-search implementation shows up as a disagreement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (
    CoinSource,
    ControlResult,
    FdpEstimate,
    HypothesisShape,
    PValueVector,
    RejectionProfile,
    ScenarioTruth,
    StatisticVector,
    build_profile,
    control_mfdp,
    estimate_directional,
    estimate_directional_randomized,
    estimate_equivalence,
    estimate_equivalence_windowed,
)
from artifact.core import _row_counts

DIR = HypothesisShape.DIRECTIONAL
EQU = HypothesisShape.EQUIVALENCE


def _sv(stats, margins, shape=DIR):
    return StatisticVector(statistics=np.asarray(stats, dtype=float), margins=margins, shape=shape)


# ---------------------------------------------------------------------------
# StatisticVector construction and validation
# ---------------------------------------------------------------------------


class TestStatisticVector:
    def test_scalar_margin_broadcasts(self):
        sv = _sv([1.0, 2.0, 3.0], 0.5)
        np.testing.assert_array_equal(sv.margins, [0.5, 0.5, 0.5])
        assert sv.m == 3

    def test_array_margins_kept(self):
        sv = _sv([1.0, 2.0], [0.1, 0.2])
        np.testing.assert_array_equal(sv.margins, [0.1, 0.2])

    def test_arrays_are_read_only(self):
        stats, margins = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        sv = StatisticVector(statistics=stats, margins=margins, shape=DIR)
        with pytest.raises(ValueError, match="read-only"):
            sv.statistics[0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            sv.margins[0] = 99.0
        # The object freezes a view: the caller's own arrays stay writable.
        stats[0] = 5.0
        margins[0] = 5.0

    def test_empty_statistics_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            _sv([], 0.0)

    def test_two_dimensional_statistics_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            StatisticVector(statistics=np.zeros((2, 2)), margins=0.0, shape=DIR)

    def test_nonfinite_statistics_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _sv([1.0, np.nan], 0.0)
        with pytest.raises(ValueError, match="finite"):
            _sv([1.0, np.inf], 0.0)

    def test_nonfinite_margins_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _sv([1.0, 2.0], [0.0, np.inf])

    def test_margin_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            _sv([1.0, 2.0, 3.0], [0.0, 0.0])

    def test_equivalence_margins_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            _sv([1.0], 0.0, shape=EQU)
        with pytest.raises(ValueError, match="strictly positive"):
            _sv([1.0, 2.0], [1.0, -0.5], shape=EQU)
        # directional families accept any finite margin, including negative
        _sv([1.0, 2.0], [1.0, -0.5], shape=DIR)

    def test_shape_must_be_enum(self):
        with pytest.raises(TypeError):
            StatisticVector(statistics=np.ones(2), margins=0.0, shape="directional")


# ---------------------------------------------------------------------------
# Worked examples, directional
# ---------------------------------------------------------------------------


class TestDirectionalProfile:
    """T = (3.0, -2.5, 0.5, 4.0) with delta = 0 everywhere."""

    @pytest.fixture
    def profile(self):
        return build_profile(_sv([3.0, -2.5, 0.5, 4.0], 0.0))

    def test_counts_at_one(self, profile):
        assert profile.r(1.0) == 2
        assert profile.r_minus(1.0) == 1
        np.testing.assert_array_equal(profile.rejected_at(1.0), [0, 3])

    def test_counts_at_zero(self, profile):
        # strict comparison: only positive statistics count at t = 0
        assert profile.r(0.0) == 3
        assert profile.r_minus(0.0) == 1

    def test_strictness_at_own_jump(self, profile):
        assert profile.r(4.0) == 0
        assert profile.r_minus(2.5) == 0
        assert profile.r_minus(2.49) == 1

    def test_jump_points(self, profile):
        np.testing.assert_array_equal(profile.thresholds, [0.0, 0.5, 2.5, 3.0, 4.0])

    def test_vectorized_evaluation_matches_scalar(self, profile):
        ts = np.array([0.0, 0.5, 1.0, 2.5, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(profile.r(ts), [int(profile.r(t)) for t in ts])
        np.testing.assert_array_equal(profile.r_minus(ts), [int(profile.r_minus(t)) for t in ts])

    @pytest.mark.parametrize("t", [np.nan, np.float64(np.nan), np.array([0.5, np.nan])])
    def test_nan_threshold_raises(self, profile, t):
        # NaN compares false with every grid point, so unchecked it would
        # read as the count past the grid's end (0) and reject nothing.
        for method in (profile.r, profile.r_minus, profile.rejected_at):
            with pytest.raises(ValueError, match="NaN"):
                method(t)

    def test_nonzero_margins_shift_cuts(self):
        profile = build_profile(_sv([3.0, -2.5, 0.5, 4.0], [1.0, 0.0, 0.25, 2.0]))
        # cuts become T - delta = (2.0, -2.5, 0.25, 2.0)
        assert profile.r(1.0) == 2
        assert profile.r(2.0) == 0
        np.testing.assert_array_equal(profile.thresholds, [0.0, 0.25, 2.0, 2.5])


# ---------------------------------------------------------------------------
# Worked examples, equivalence
# ---------------------------------------------------------------------------


class TestEquivalenceProfile:
    """T = (0.2, -0.3, 2.5, 1.0) with delta = 2 everywhere, so c = 2."""

    @pytest.fixture
    def profile(self):
        return build_profile(_sv([0.2, -0.3, 2.5, 1.0], 2.0, shape=EQU))

    def test_counts_at_half(self, profile):
        assert profile.r(0.5) == 3
        np.testing.assert_array_equal(profile.rejected_at(0.5), [0, 1, 3])
        # |T_2| = 2.5 is not strictly above delta + t = 2.5
        assert profile.r_minus(0.5) == 0
        assert profile.r_minus(0.49) == 1

    def test_rejections_vanish_at_smallest_margin(self, profile):
        assert profile.r(1.75) == 1  # only the 1.8 gap survives
        assert profile.r(1.8) == 0
        assert profile.r(2.0) == 0
        assert profile.r(3.0) == 0

    def test_thresholds_grid(self, profile):
        # rejection cuts: delta - |T| = (1.8, 1.7, -0.5, 1.0); mirror cut 0.5
        np.testing.assert_array_equal(profile.thresholds, [0.0, 0.5, 1.0, 1.7, 1.8])

    def test_cut_clipping_at_c(self):
        # one loose margin: that hypothesis' rejection cut is clipped to c = 1
        profile = build_profile(_sv([0.1, 0.2], [5.0, 1.0], shape=EQU))
        assert profile.r(0.79) == 2
        assert profile.r(0.99) == 1  # second hypothesis' own gap is only 0.8
        assert profile.r(1.0) == 0  # t >= c rejects nothing, despite 5 - 0.1 = 4.9


# ---------------------------------------------------------------------------
# Recount oracle: binary-search counts vs. the defining inequalities
# ---------------------------------------------------------------------------


def _naive_directional(stats, margins, t):
    r = sum(1 for T, d in zip(stats, margins) if T - d > t)
    rm = sum(1 for T, d in zip(stats, margins) if T - d < -t)
    return r, rm


def _naive_equivalence(stats, margins, t):
    c = min(margins)
    r = 0 if t >= c else sum(1 for T, d in zip(stats, margins) if abs(T) < d - t)
    rm = sum(1 for T, d in zip(stats, margins) if abs(T) > d + t)
    return r, rm


def test_directional_counts_match_naive_recount():
    rng = np.random.default_rng(20260512)
    for _ in range(500):
        m = int(rng.integers(1, 41))
        stats = rng.normal(scale=rng.uniform(0.5, 4.0), size=m)
        margins = rng.uniform(-1.0, 1.0, size=m) if rng.random() < 0.5 else float(rng.uniform(-1, 1))
        sv = _sv(stats, margins, shape=DIR)
        profile = build_profile(sv)
        cuts = sv.statistics - sv.margins
        # probe at 0, random thresholds, and exact jump points
        ts = [0.0, float(rng.uniform(0, 5)), float(rng.uniform(0, 0.5))]
        ts += [float(c) for c in cuts if c > 0][:3]
        for t in ts:
            r, rm = _naive_directional(sv.statistics, sv.margins, t)
            assert profile.r(t) == r
            assert profile.r_minus(t) == rm
            np.testing.assert_array_equal(
                profile.rejected_at(t), np.flatnonzero(sv.statistics - sv.margins > t)
            )


def test_equivalence_counts_match_naive_recount():
    rng = np.random.default_rng(8481001)
    for _ in range(500):
        m = int(rng.integers(1, 41))
        stats = rng.normal(scale=2.0, size=m)
        margins = rng.uniform(0.2, 3.0, size=m) if rng.random() < 0.5 else float(rng.uniform(0.2, 3))
        sv = _sv(stats, margins, shape=EQU)
        profile = build_profile(sv)
        # continuous probes only: exact grid ties get their own worked examples
        for t in (0.0, float(rng.uniform(0, 4)), float(rng.uniform(0, 0.3))):
            r, rm = _naive_equivalence(sv.statistics, sv.margins, t)
            assert profile.r(t) == r, (stats, margins, t)
            assert profile.r_minus(t) == rm


# ---------------------------------------------------------------------------
# Structural invariants (property-based)
# ---------------------------------------------------------------------------

_finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
_stat_lists = st.lists(_finite, min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(stats=_stat_lists, t_lo=st.floats(0, 60), t_hi=st.floats(0, 60))
def test_counts_are_nonincreasing(stats, t_lo, t_hi):
    profile = build_profile(_sv(stats, 0.0))
    lo, hi = sorted((t_lo, t_hi))
    assert profile.r(lo) >= profile.r(hi)
    assert profile.r_minus(lo) >= profile.r_minus(hi)


@settings(max_examples=200, deadline=None)
@given(stats=_stat_lists, margin=st.floats(min_value=0.05, max_value=10.0))
def test_threshold_grid_structure(stats, margin):
    for shape in (DIR, EQU):
        profile = build_profile(_sv(stats, margin, shape=shape))
        grid = profile.thresholds
        assert grid[0] == 0.0
        assert np.all(np.diff(grid) > 0)
        # both counts are exhausted at the top of the grid
        assert profile.r(grid[-1]) == 0
        assert profile.r_minus(grid[-1]) == 0
        if shape is EQU:
            assert profile.r(margin) == 0  # t >= c = min delta rejects nothing


@settings(max_examples=200, deadline=None)
@given(stats=_stat_lists)
def test_right_continuity_at_jumps(stats):
    profile = build_profile(_sv(stats, 0.0))
    cuts = set(profile.thresholds.tolist())
    for tau in profile.thresholds[1:][np.diff(profile.r_grid) != 0]:
        below = np.nextafter(tau, -np.inf)
        assert profile.r(below) > profile.r(tau)  # a genuine jump
        above = np.nextafter(tau, np.inf)
        if above not in cuts:  # no adjacent-float cut: value holds to the right
            assert profile.r(above) == profile.r(tau)


# ---------------------------------------------------------------------------
# Result-type validation
# ---------------------------------------------------------------------------


class TestResultValidation:
    def _est(self, **kw):
        base = dict(
            estimator="directional",
            t=0.0,
            rejected=np.array([0, 1]),
            r=2,
            v_tilde=1,
            fdp_hat=0.5,
        )
        base.update(kw)
        return FdpEstimate(**base)

    def test_valid_estimate_passes(self):
        est = self._est()
        assert est.v_tilde == 1
        assert not est.requires_independence

    def test_windowed_estimates_flag_independence(self):
        est = self._est(estimator="equivalence-windowed")
        assert est.requires_independence

    def test_r_must_match_rejected(self):
        with pytest.raises(ValueError, match="number of rejected"):
            self._est(r=3)

    def test_v_tilde_cannot_exceed_r(self):
        with pytest.raises(ValueError, match="outside"):
            self._est(v_tilde=3)

    def test_sentinel_requires_floored(self):
        with pytest.raises(ValueError, match="floored"):
            self._est(v_tilde=None)

    def test_floored_requires_randomized_sentinel(self):
        with pytest.raises(ValueError, match="randomized"):
            self._est(v_tilde=None, floored=True)
        est = self._est(v_tilde=None, fdp_hat=0.0, randomized=True, coin=True, floored=True)
        assert est.floored and est.v_tilde is None

    def test_control_result_ordering(self):
        kw = dict(gamma=0.1, s_plus=1.0, rejected=np.array([0]), r=1, v_tilde=0, fdp_hat=0.0)
        ControlResult(s=0.5, **kw)
        with pytest.raises(ValueError, match="strictly below"):
            ControlResult(s=1.0, **kw)

    def test_control_result_estimate_within_gamma(self):
        with pytest.raises(ValueError, match="exceed gamma"):
            ControlResult(
                gamma=0.1,
                s=None,
                s_plus=0.0,
                rejected=np.array([0]),
                r=1,
                v_tilde=1,
                fdp_hat=1.0,
            )


@pytest.mark.parametrize("shape", [(5, 1), (5, 7), (5, 8), (5, 9), (5, 200), (0, 9), (4, 0)])
@pytest.mark.parametrize("fill", ["random", "all-false", "all-true"])
def test_row_counts_match_count_nonzero(shape, fill):
    mask = {
        "random": np.random.default_rng(shape[1]).random(shape) < 0.4,
        "all-false": np.zeros(shape, dtype=bool),
        "all-true": np.ones(shape, dtype=bool),
    }[fill]
    counts = _row_counts(mask)
    assert counts.dtype == np.int32 and counts.shape == (shape[0],)
    np.testing.assert_array_equal(counts, np.count_nonzero(mask, axis=1))
    # A column slice is a strided view; it counts the same.
    np.testing.assert_array_equal(_row_counts(mask[:, ::2]), np.count_nonzero(mask[:, ::2], axis=1))


def test_result_arrays_are_read_only():
    # the inputs are frozen, so the results built from them are too
    sv = _sv([3.0, -2.5, 0.5, 4.0], 0.0)
    sve = _sv([0.2, -0.3, 2.5, 1.0], 2.0, shape=EQU)
    results = [
        control_mfdp(sv, 0.1),
        control_mfdp(sve, 0.1),
        estimate_directional(sv, 1.0),
        estimate_directional_randomized(sv, 1.0, CoinSource(0)),
        estimate_equivalence(sve, 0.5),
        estimate_equivalence_windowed(sve, 0.5),
    ]
    for res in results:
        with pytest.raises(ValueError, match="read-only"):
            res.rejected[0] = 7
    profile = build_profile(sv)
    for name in ("thresholds", "r_grid", "r_minus_grid", "_k"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(profile, name)[0] = 7
    # Built from the caller's own arrays, each object freezes a view of
    # them: its arrays refuse writes, the caller's stay writable.
    floats = [np.array([0.0, 0.5, 1.0]) for _ in range(5)]
    indices, mask = np.array([0, 2]), np.array([True, False, True])
    truth = ScenarioTruth(mu=floats[0], null_mask=mask)
    grid = RejectionProfile(floats[1], floats[2], floats[3], _k=floats[4])
    frozen = [
        PValueVector(values=floats[0], shape=DIR).values,
        truth.mu,
        truth.null_mask,
        FdpEstimate("directional", 0.0, indices, 2, v_tilde=0, fdp_hat=0.0).rejected,
        ControlResult(0.1, None, 0.0, indices, 2, v_tilde=0, fdp_hat=0.0).rejected,
        grid.thresholds,
        grid.r_grid,
        grid.r_minus_grid,
        grid._k,
    ]
    for a in frozen:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]
    for a in (*floats, indices, mask):
        a[0] = a[1]
