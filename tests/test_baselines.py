"""Tests for the reference procedures: SAM bounds, BH, LR, exact tests."""

from __future__ import annotations

import math
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (
    DataMatrix,
    ExactTestResult,
    HypothesisShape,
    InfeasibleError,
    StatisticVector,
    TransformationGroup,
    benjamini_hochberg,
    estimate_directional,
    lehmann_romano_critical_values,
    lehmann_romano_stepdown,
    sam_bound,
    sam_two_transform,
    sign_flip_test,
    two_group_permutation_test,
    two_group_statistics,
)
from artifact import baselines


def _column_sums(data):
    return data.sum(axis=0)


# ---------------------------------------------------------------------------
# Transformation groups
# ---------------------------------------------------------------------------

SIGN_FLIP_GROUPS = {
    "full": lambda: TransformationGroup.sign_flip_full(5),
    "subsample": lambda: TransformationGroup.sign_flip_subsample(5, n_transforms=40, seed=2),
    "negation-pair": lambda: TransformationGroup.negation_pair(5),
    "float64-table": lambda: TransformationGroup(
        kind="sign-flip-subsample",
        n=5,
        signs=np.vstack([np.ones(5), np.random.default_rng(3).choice([-1.0, 1.0], size=(11, 5))]),
    ),
}
ALL_GROUPS = {
    **SIGN_FLIP_GROUPS,
    "swap": lambda: TransformationGroup.case_control_swap(3),
    "perm-subsample": lambda: TransformationGroup.permutation_subsample(3, n_transforms=8, seed=1),
}


class TestTransformationGroup:
    def test_full_sign_flip_enumeration(self):
        group = TransformationGroup.sign_flip_full(3)
        assert group.size == 8
        assert group.n_rows == 3
        np.testing.assert_array_equal(group.signs[0], [1, 1, 1])  # identity first
        # all 8 distinct patterns present
        assert len({tuple(row) for row in group.signs.tolist()}) == 8

    @pytest.mark.parametrize("n", range(1, 13))
    def test_full_sign_flip_rows_pair_with_their_negation(self, n):
        # Row 2^n - 1 - c is -row c, which lets the study's SAM-full count from half the product.
        signs = TransformationGroup.sign_flip_full(n).signs
        np.testing.assert_array_equal(signs[::-1], -signs)

    def test_full_sign_flip_cap(self):
        with pytest.raises(InfeasibleError, match="n <= 20"):
            TransformationGroup.sign_flip_full(21)

    def test_subsample_keeps_identity_and_seed(self):
        group = TransformationGroup.sign_flip_subsample(50, n_transforms=16, seed=5)
        assert group.size == 16
        np.testing.assert_array_equal(group.signs[0], np.ones(50))
        assert group.seed == 5
        again = TransformationGroup.sign_flip_subsample(50, n_transforms=16, seed=5)
        np.testing.assert_array_equal(group.signs, again.signs)

    def test_negation_pair(self):
        group = TransformationGroup.negation_pair(4)
        np.testing.assert_array_equal(group.signs, [[1] * 4, [-1] * 4])

    def test_case_control_swap_permutation(self):
        group = TransformationGroup.case_control_swap(2)
        np.testing.assert_array_equal(group.perms[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(group.perms[1], [2, 3, 0, 1])
        assert group.n_rows == 4

    def test_apply_to_shapes_and_identity(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(4, 5))
        group = TransformationGroup.permutation_subsample(2, n_transforms=6, seed=8)
        copies = list(group.apply_to(data))
        assert len(copies) == 6
        np.testing.assert_array_equal(copies[0], data)
        stats = group.statistics(data, _column_sums)
        assert stats.shape == (6, 5)
        np.testing.assert_array_equal(stats[0], data.sum(axis=0))

    @pytest.mark.parametrize("make", SIGN_FLIP_GROUPS.values(), ids=SIGN_FLIP_GROUPS.keys())
    def test_sign_flip_copies_match_the_int8_product(self, make):
        # The gather reads data * 1.0 and data * -1.0, so every entry must be
        # the per-row product's bits: signed zeros, infinities and NaN signs.
        group = make()
        rng = np.random.default_rng(4)
        values = rng.normal(size=(5, 9))
        values[:, :6] = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)]
        integers = rng.integers(-9, 10, size=(5, 4))
        for data in (values, values[::-1].T[:5], integers):
            floats = np.asarray(data, dtype=np.float64)
            copies = list(group.apply_to(data))
            assert len(copies) == group.size
            for row, copy in zip(group.signs, copies):
                assert copy.dtype == np.float64 and copy.shape == floats.shape
                assert copy.tobytes() == (floats * row[:, None]).tobytes()

    @pytest.mark.parametrize("make", ALL_GROUPS.values(), ids=ALL_GROUPS.keys())
    def test_copies_are_distinct_arrays(self, make):
        # A reused buffer would let statistic_fn see, or change, another copy.
        group = make()
        data = np.random.default_rng(5).normal(size=(group.n_rows, 3))
        before = data.copy()
        copies = list(group.apply_to(data))
        for j, copy in enumerate(copies):
            others = [c.copy() for c in copies]
            copy[...] = 99.0
            np.testing.assert_array_equal(data, before)
            for i, other in enumerate(others):
                if i != j:
                    np.testing.assert_array_equal(copies[i], other)

    def test_sign_flip_copy_needs_no_float_copy_of_the_table(self):
        # A one-byte index per sign, where a float64 copy of the table takes 8 bytes per sign.
        group = TransformationGroup.sign_flip_full(16)
        copies = group.apply_to(np.ones((16, 4)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            next(copies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * group.signs.nbytes

    @pytest.mark.parametrize(
        "make, table",
        [(lambda: TransformationGroup.sign_flip_full(6), "signs"),
         (lambda: TransformationGroup.sign_flip_subsample(6, n_transforms=8, seed=1), "signs"),
         (lambda: TransformationGroup.negation_pair(6), "signs"),
         (lambda: TransformationGroup.case_control_swap(3), "perms"),
         (lambda: TransformationGroup.permutation_subsample(3, n_transforms=8, seed=1), "perms")],
        ids=["full", "sign-subsample", "negation-pair", "swap", "perm-subsample"],
    )
    def test_table_is_read_only(self, make, table):
        # Row 0 is read as the observed data: a write to it would change
        # every bound built on the group after its checks.
        rows = getattr(make(), table)
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = rows[1]

    def test_callers_table_stays_writable(self):
        signs = np.ones((2, 3), dtype=np.int8)
        signs[1] = -1
        group = TransformationGroup(kind="negation-pair", n=3, signs=signs)
        signs[1, 0] = 1
        assert signs.flags.writeable and not group.signs.flags.writeable

    def test_apply_to_validates_row_count(self):
        group = TransformationGroup.negation_pair(4)
        with pytest.raises(ValueError, match="rows"):
            list(group.apply_to(np.ones((3, 2))))

    def test_identity_must_be_row_0(self):
        # sam_bound reads row 0 as the observed data: reversing the rows of
        # the full group would make it reject column 1 instead of column 0.
        data = np.array([[2.0, -2.0]] * 3)
        group = TransformationGroup.sign_flip_full(3)
        np.testing.assert_array_equal(sam_bound(data, _column_sums, group, t=1.0).rejected, [0])
        with pytest.raises(ValueError, match="row 0"):
            TransformationGroup(kind=group.kind, n=3, signs=group.signs[::-1])

    @pytest.mark.parametrize(
        "kind, tables, match",
        [
            ("sign-flip-full", {"signs": np.array([[1, 1, 1], [-1, -1, -1]])}, r"2\^n = 8 rows, got 2"),
            ("case-control-swap", {"signs": np.array([[1, 1, 1], [-1, -1, -1]])}, "needs a perms table"),
            ("permutation-subsample", {"signs": np.ones((2, 3))}, "needs a perms table"),
            ("negation-pair", {"perms": np.array([[0, 1, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2]])}, "needs a signs table"),
            ("sign-flip-subsample", {"perms": np.array([[0, 1, 2, 3, 4, 5]] * 2)}, "needs a signs table"),
            ("sign-flip-full", {"perms": np.array([[0, 1, 2, 3, 4, 5]] * 8)}, "needs a signs table"),
            ("custom", {}, "exactly one"),
            ("custom", {"signs": np.ones((2, 3)), "perms": np.array([[0, 1, 2], [2, 1, 0]])}, "exactly one"),
            ("custom", {"signs": np.ones(3)}, "2-d"),
            ("custom", {"signs": np.ones((0, 3))}, "non-empty"),
            ("custom", {"perms": np.empty((2, 0), dtype=np.int64)}, "non-empty"),
            ("custom", {"signs": np.zeros((4, 2))}, r"\+-1"),
            ("custom", {"signs": np.array([[1, 1], [2, -1]])}, r"\+-1"),
            ("custom", {"signs": np.array([[1, -1], [1, 1]])}, "row 0"),
            ("custom", {"perms": np.array([[0, 1, 2], [0, 0, 2]])}, "permutation"),
            ("custom", {"perms": np.array([[0, 1, 3], [2, 1, 0]])}, "permutation"),
            ("custom", {"perms": np.array([[1, 0, 2], [0, 1, 2]])}, "row 0"),
        ],
    )
    def test_invalid_tables_are_refused(self, kind, tables, match):
        with pytest.raises(ValueError, match=match):
            TransformationGroup(kind=kind, n=3, **tables)

    def test_valid_custom_tables_are_accepted(self):
        signs = TransformationGroup(kind="custom", n=2, signs=np.array([[1.0, 1.0], [-1.0, 1.0]]))
        assert signs.size == 2
        perms = TransformationGroup(kind="custom", n=1, perms=np.array([[0, 1], [1, 0]]))
        assert perms.n_rows == 2

    @pytest.mark.parametrize(
        "n, tables",
        [
            (5, {"signs": np.ones((2, 3))}),
            (2, {"signs": np.ones((2, 3))}),
            (3, {"perms": np.array([[0, 1, 2], [2, 1, 0]])}),
            (2, {"perms": np.array([[0, 1], [1, 0]])}),
            (1, {"perms": np.array([[0, 1, 2, 3], [2, 3, 0, 1]])}),
        ],
    )
    def test_n_must_match_the_table(self, n, tables):
        # n counts the rows of a sign-flip table and half the rows (the
        # per-group size) of a permutation table.
        with pytest.raises(ValueError, match=f"n={n} needs"):
            TransformationGroup(kind="custom", n=n, **tables)


def _stacked_statistics(group, data, statistic_fn):
    """The list-and-``np.stack`` route that ``statistics`` replaced."""
    return np.stack([np.asarray(statistic_fn(x), dtype=np.float64) for x in group.apply_to(data)])


_STATISTIC_GROUPS = {
    "sign-flip-full": lambda: TransformationGroup.sign_flip_full(5),
    "sign-flip-subsample": lambda: TransformationGroup.sign_flip_subsample(5, n_transforms=40, seed=3),
    "negation-pair": lambda: TransformationGroup.negation_pair(5),
    "case-control-swap": lambda: TransformationGroup.case_control_swap(3),
    "permutation-subsample": lambda: TransformationGroup.permutation_subsample(3, n_transforms=40, seed=4),
}


class TestStatistics:
    @pytest.mark.parametrize("kind", sorted(_STATISTIC_GROUPS))
    @pytest.mark.parametrize(
        "statistic_fn",
        [
            _column_sums,
            lambda x: x[0],  # a view into the transformed copy
            lambda x: x[:2].mean(axis=0) - x[2:].mean(axis=0),
            lambda x: (x > 0).sum(axis=0),  # integer rows are converted
            lambda x: x.sum(),  # scalar
        ],
        ids=["column-sums", "view", "difference", "integer", "scalar"],
    )
    def test_bit_identical_to_the_stacked_route(self, kind, statistic_fn):
        group = _STATISTIC_GROUPS[kind]()
        data = np.random.default_rng(11).normal(size=(group.n_rows, 7))
        data[:, 3] = data[0, 3]  # a tied column
        got = group.statistics(data, statistic_fn)
        want = _stacked_statistics(group, data, statistic_fn)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_view_statistic_keeps_every_row(self):
        group = TransformationGroup.sign_flip_full(2)
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        stats = group.statistics(data, lambda x: x[0])
        np.testing.assert_array_equal(stats, [[1.0, 2.0], [-1.0, -2.0], [1.0, 2.0], [-1.0, -2.0]])

    @pytest.mark.parametrize(
        "first, later",
        [
            (np.zeros(4), np.zeros(3)),
            (np.zeros(4), np.zeros(1)),
            (np.zeros(4), np.zeros((1, 4))),
            (np.zeros(4), np.float64(0.0)),
            (np.float64(0.0), np.zeros(4)),
        ],
        ids=["shorter", "broadcastable", "2-d", "scalar-later", "scalar-first"],
    )
    def test_mismatched_row_shapes_raise(self, first, later):
        group = TransformationGroup.sign_flip_full(2)
        for route, match in ((_stacked_statistics, None), (TransformationGroup.statistics, "row 1")):
            rows = iter([first, later, later, later])
            with pytest.raises(ValueError, match=match):
                route(group, np.ones((2, 4)), lambda x: next(rows))


# ---------------------------------------------------------------------------
# SAM bounds
# ---------------------------------------------------------------------------


class TestSamBound:
    def test_full_group_worked_example(self):
        # n=3, m=2, first column all 0.34, second all -0.34, sum statistics:
        # only the untouched and the fully-negated pattern reject anything,
        # so the median rejection count over the 8 flips is 0
        data = np.array([[0.34, -0.34]] * 3)
        group = TransformationGroup.sign_flip_full(3)
        est = sam_bound(data, _column_sums, group, t=1.0)
        assert est.r == 1
        np.testing.assert_array_equal(est.rejected, [0])
        assert est.v_bar == 0
        assert est.fdp_bar == 0.0
        assert est.order_index == 4
        assert est.n_transforms == 8

    def test_two_transform_worked_example(self):
        data = np.array([[0.34, -0.34]] * 3)
        est = sam_two_transform(data, _column_sums, t=1.0)
        assert est.r == 1
        assert est.v_bar == 1  # the coarse two-element group cannot rule it out
        assert est.fdp_bar == 1.0
        assert est.n_transforms == 2

    def test_invariant_to_transformation_order(self):
        rng = np.random.default_rng(77)
        data = rng.normal(size=(6, 12))
        group = TransformationGroup.sign_flip_full(6)
        est = sam_bound(data, _column_sums, group, t=0.8)
        shuffled = TransformationGroup(
            kind=group.kind,
            n=group.n,
            signs=np.concatenate([group.signs[:1], group.signs[1:][::-1]]),
        )
        est2 = sam_bound(data, _column_sums, shuffled, t=0.8)
        assert est.v_bar == est2.v_bar
        assert est.r == est2.r

    def test_alpha_moves_the_order_index(self):
        data = np.random.default_rng(1).normal(size=(5, 8))
        group = TransformationGroup.sign_flip_full(5)
        loose = sam_bound(data, _column_sums, group, t=0.5, alpha=0.5)
        tight = sam_bound(data, _column_sums, group, t=0.5, alpha=1 / 32)
        assert loose.order_index == 16
        assert tight.order_index == 31
        assert tight.v_bar >= loose.v_bar

    @pytest.mark.parametrize("size", [2, 5, 1024])
    def test_row_bounds_equal_the_sorted_order_statistic(self, size):
        # Few distinct counts give ties at the order statistic; column 0 is the observed count.
        rng = np.random.default_rng(size)
        counts = rng.integers(0, 4, size=(60, size)).astype(np.int32)
        counts[:10, 0] = 0
        counts[10:15] = 2
        for k in {1, (size + 1) // 2, baselines._order_index(0.5, size), size}:
            v_bar = baselines._sam_v_bars(counts, k)
            assert v_bar.tolist() == [min(sorted(row)[k - 1], row[0]) for row in counts.tolist()]
            assert (v_bar[:10] == 0).all()

    @pytest.mark.parametrize("n", [1, 6, 10])
    def test_one_row_bound_equals_sam_bound(self, n):
        data = np.random.default_rng(n).normal(0.3, 1.0, size=(n, 30))
        group = TransformationGroup.sign_flip_full(n)
        est = sam_bound(data, _column_sums, group, t=0.5)
        counts = np.count_nonzero(group.statistics(data, _column_sums) > 0.5, axis=1)
        assert baselines._sam_v_bars(counts[None], est.order_index).tolist() == [est.v_bar]

    def test_non_finite_threshold_raises(self):
        data = np.array([[0.34, -0.34]] * 3)
        group = TransformationGroup.sign_flip_full(3)
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="threshold t"):
                sam_bound(data, _column_sums, group, t)
            with pytest.raises(ValueError, match="threshold t"):
                sam_two_transform(data, _column_sums, t)

    @pytest.mark.parametrize(
        "t, alpha, message",
        [(np.nan, 0.5, "threshold t"), (np.inf, 0.5, "threshold t"), (-np.inf, 0.5, "threshold t"),
         (1.0, 0.0, "alpha"), (1.0, 1.0, "alpha"), (1.0, 1.5, "alpha")],
    )
    def test_bad_arguments_raise_before_any_statistic_call(self, t, alpha, message):
        calls = []

        def spy(x):
            calls.append(x)
            return x.sum(axis=0)

        with pytest.raises(ValueError, match=message):
            sam_bound(np.ones((6, 3)), spy, TransformationGroup.sign_flip_full(6), t, alpha)
        assert calls == []

    def test_rejected_is_read_only(self):
        data = np.array([[0.34, -0.34]] * 3)
        est = sam_bound(data, _column_sums, TransformationGroup.sign_flip_full(3), t=1.0)
        with pytest.raises(ValueError, match="read-only"):
            est.rejected[0] = 1

    def test_swap_kind_requires_even_rows(self):
        with pytest.raises(ValueError, match="even"):
            sam_two_transform(np.ones((5, 2)), _column_sums, t=0.0, kind="swap")
        with pytest.raises(ValueError, match="kind"):
            sam_two_transform(np.ones((4, 2)), _column_sums, t=0.0, kind="bogus")


def test_sam_two_transform_equals_directional_estimator():
    """The two-element subgroup reproduces the mirror estimator exactly."""
    rng = np.random.default_rng(60201)
    sqrt_n = np.sqrt(10.0)
    for _ in range(1000):
        data = rng.normal(size=(10, int(rng.integers(1, 15)))) + rng.normal() * 0.3
        t = float(rng.uniform(0, 2))
        est_sam = sam_two_transform(data, lambda x: sqrt_n * x.mean(axis=0), t)
        sv = StatisticVector(
            statistics=sqrt_n * data.mean(axis=0),
            margins=0.0,
            shape=HypothesisShape.DIRECTIONAL,
        )
        est_dir = estimate_directional(sv, t)
        assert est_sam.v_bar == est_dir.v_tilde
        assert est_sam.r == est_dir.r
        assert est_sam.fdp_bar == est_dir.fdp_hat
        np.testing.assert_array_equal(est_sam.rejected, est_dir.rejected)


def test_sam_two_transform_swap_equals_directional_estimator_on_tied_data():
    """Swapping cases and controls negates a two-group statistic exactly: the mirror estimator again."""
    rng = np.random.default_rng(60202)
    n = 4
    group = np.array(["case"] * n + ["control"] * n)
    for _ in range(300):
        m = int(rng.integers(1, 15))
        names = tuple(f"f{j}" for j in range(m))

        def statistic_fn(x):
            return two_group_statistics(DataMatrix(x, names, group), 0.0).statistics

        # Small integers tie statistics with each other, with zero and with t.
        data = rng.integers(-2, 3, size=(2 * n, m)).astype(np.float64)
        sv = two_group_statistics(DataMatrix(data, names, group), 0.0)
        t = float(rng.choice(np.abs(sv.statistics)))
        est_swap = sam_two_transform(data, statistic_fn, t, kind="swap")
        est_dir = estimate_directional(sv, t)
        assert est_swap.v_bar == est_dir.v_tilde
        assert est_swap.r == est_dir.r
        np.testing.assert_array_equal(est_swap.rejected, est_dir.rejected)


# ---------------------------------------------------------------------------
# Benjamini-Hochberg
# ---------------------------------------------------------------------------


def _bh_literal(p, gamma):
    """BH as a stable sort: the first k of the sorted order, k the last pass."""
    p = np.asarray(p, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    passing = np.flatnonzero(p[order] <= gamma * np.arange(1, m + 1) / m)
    k = int(passing[-1]) + 1 if passing.size else 0
    return np.sort(order[:k])


def _lr_literal(p, gamma, alpha):
    """Lehmann-Romano as a stable sort walked to the first failure."""
    p = np.asarray(p, dtype=np.float64)
    crit = lehmann_romano_critical_values(p.size, gamma, alpha)
    order = np.argsort(p, kind="stable")
    failing = np.flatnonzero(p[order] > crit)
    k = int(failing[0]) if failing.size else p.size
    return np.sort(order[:k])


_GAMMAS = [0.0, 0.05, 0.1, 0.2, 0.3, 1 / 3, 0.5, 0.9]


@st.composite
def _pvalue_instances(draw):
    m = draw(st.integers(1, 60))
    if draw(st.booleans()):
        p = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    else:  # tie-heavy: a k/8 grid with exact 0 and 1
        p = [k / 8 for k in draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))]
    gamma = draw(st.sampled_from(_GAMMAS) | st.floats(0.0, 0.99))
    alpha = draw(st.sampled_from([0.05, 0.5]))
    return np.array(p), gamma, alpha


def _assert_same_indices(got, want):
    assert got.dtype == want.dtype == np.intp
    assert got.tolist() == want.tolist()


@settings(max_examples=400, deadline=None)
@given(instance=_pvalue_instances())
def test_bh_and_lr_match_the_stable_sort_literals(instance):
    p, gamma, alpha = instance
    _assert_same_indices(benjamini_hochberg(p, gamma), _bh_literal(p, gamma))
    _assert_same_indices(lehmann_romano_stepdown(p, gamma, alpha), _lr_literal(p, gamma, alpha))


@pytest.mark.parametrize(
    "p",
    [
        [0.25, 0.25, 0.25, 0.25, 0.9],  # all tied at the cut
        [0.1, 0.25, 0.25, 0.25, 0.6, 0.6],  # a tie at the cut, more above
        [0.0] * 6,
        [1.0] * 6,
        [0.3],
        [0.0],
        [1.0],
        [-0.0, 0.0, 0.5, -0.0],
        [0.0, -0.0, 1.0],
    ],
    ids=["tied-at-cut", "tie-then-above", "all-zero", "all-one", "m1", "m1-zero", "m1-one",
         "signed-zeros", "zero-before-negative-zero"],
)
@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 1 / 3, 0.5, 0.9])
@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_bh_and_lr_edge_cases_match_the_literals(p, gamma, alpha):
    bh = benjamini_hochberg(p, gamma)
    lr = lehmann_romano_stepdown(p, gamma, alpha)
    _assert_same_indices(bh, _bh_literal(p, gamma))
    _assert_same_indices(lr, _lr_literal(p, gamma, alpha))
    for rejected in (bh, lr):
        assert np.all(np.diff(rejected) > 0)


def test_bh_and_lr_empty_results_are_intp():
    for rejected in (benjamini_hochberg([1.0] * 4, 0.1), lehmann_romano_stepdown([1.0] * 4, 0.1),
                     benjamini_hochberg([0.5], 0.0), lehmann_romano_stepdown([0.9], 0.0)):
        assert rejected.dtype == np.intp and rejected.shape == (0,)


def test_ties_at_the_cut_are_all_rejected():
    # sorted (0.1, 0.2, 0.2, 0.2, 0.9) against BH's 0.5*i/5 = (0.1, 0.2, 0.3,
    # 0.4, 0.5): the last pass is i = 4, so every copy of 0.2 goes in
    p = [0.2, 0.9, 0.2, 0.1, 0.2]
    np.testing.assert_array_equal(benjamini_hochberg(p, 0.5), [0, 2, 3, 4])
    # LR at gamma = 0.5, alpha = 0.5: (0.1, 0.2, 0.25, 0.375, 0.5); 0.9 fails
    np.testing.assert_array_equal(lehmann_romano_stepdown(p, 0.5), [0, 2, 3, 4])


class TestBenjaminiHochberg:
    def test_worked_example(self):
        rejected = benjamini_hochberg([0.01, 0.02, 0.5, 0.8], gamma=0.05)
        np.testing.assert_array_equal(rejected, [0, 1])

    def test_step_up_rescues_earlier_failures(self):
        # every sorted p-value sits just under its own critical value
        rejected = benjamini_hochberg([0.012, 0.024, 0.036, 0.048], gamma=0.05)
        np.testing.assert_array_equal(rejected, [0, 1, 2, 3])

    def test_nothing_rejected(self):
        assert benjamini_hochberg([0.9, 0.8], gamma=0.05).size == 0

    def test_matches_statsmodels(self):
        smm = pytest.importorskip("statsmodels.stats.multitest")
        rng = np.random.default_rng(404)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            p = rng.uniform(size=m) ** rng.uniform(0.3, 3.0)
            gamma = float(rng.uniform(0.01, 0.6))
            mask = smm.multipletests(p, alpha=gamma, method="fdr_bh")[0]
            np.testing.assert_array_equal(benjamini_hochberg(p, gamma), np.flatnonzero(mask))

    def test_nested_in_gamma(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(size=30) ** 2
        lo = set(benjamini_hochberg(p, 0.05).tolist())
        hi = set(benjamini_hochberg(p, 0.2).tolist())
        assert lo <= hi

    def test_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            benjamini_hochberg([0.5, 1.2], gamma=0.1)
        with pytest.raises(ValueError, match="gamma"):
            benjamini_hochberg([0.5], gamma=1.0)
        with pytest.raises(ValueError, match="non-empty"):
            benjamini_hochberg([], gamma=0.1)


@pytest.mark.parametrize("procedure", [benjamini_hochberg, lehmann_romano_stepdown])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), -5e-324])
def test_pvalue_range_check_rejects_non_finite_and_barely_outside(procedure, bad):
    with pytest.raises(ValueError, match=r"^pvalues must all lie in \[0, 1\]$"):
        procedure([0.5, bad, 0.25], gamma=0.1)


@pytest.mark.parametrize("procedure", [benjamini_hochberg, lehmann_romano_stepdown])
def test_pvalue_range_check_accepts_both_ends(procedure):
    assert procedure([-0.0, 1.0], gamma=0.1).size == 1


# ---------------------------------------------------------------------------
# Lehmann-Romano step-down
# ---------------------------------------------------------------------------


class TestLehmannRomano:
    def test_critical_values_m4(self):
        crit = lehmann_romano_critical_values(4, gamma=0.5, alpha=0.5)
        np.testing.assert_allclose(crit, [0.125, 0.25, 1 / 3, 0.5], rtol=1e-15)

    def test_critical_values_monotone(self):
        crit = lehmann_romano_critical_values(25, gamma=0.2)
        assert np.all(np.diff(crit) > 0)
        # the threshold form {i : p_i <= p_(k)} of both procedures needs the
        # critical values nondecreasing in floating point, ties included
        for m in (1, 2, 7, 12, 100, 2000):
            for gamma in _GAMMAS:
                assert np.all(np.diff(gamma * np.arange(1, m + 1) / m) >= 0)
                for alpha in (0.05, 0.5, 0.95):
                    crit = lehmann_romano_critical_values(m, gamma, alpha)
                    assert np.all(np.diff(crit) >= 0), (m, gamma, alpha)

    def test_near_integer_products_snap(self):
        # gamma*i = 0.3*10 evaluates to 2.999...96; the floor must read 3,
        # giving 0.5 * 4 / (12 + 3 + 1 - 10) = 1/3 rather than 0.3
        crit = lehmann_romano_critical_values(12, gamma=0.3)
        assert crit[9] == pytest.approx(1 / 3, rel=1e-15)

    def test_stepdown_stops_at_first_failure(self):
        # critical values for m=3, gamma=0.2 are (1/6, 1/4, 1/2); the middle
        # p-value fails, so the third is not rejected though it would pass
        rejected = lehmann_romano_stepdown([0.1, 0.3, 0.4], gamma=0.2)
        np.testing.assert_array_equal(rejected, [0])

    def test_worked_example_rejects_first_two(self):
        rejected = lehmann_romano_stepdown([0.1, 0.2, 0.4, 0.45], gamma=0.5)
        np.testing.assert_array_equal(rejected, [0, 1])

    def test_single_hypothesis_gamma_zero(self):
        # reduces to the plain alpha-level test
        np.testing.assert_array_equal(lehmann_romano_stepdown([0.49], gamma=0.0), [0])
        assert lehmann_romano_stepdown([0.51], gamma=0.0).size == 0

    def test_returns_original_indices(self):
        # 0.6 exceeds the last critical value 1/2, so only the two small
        # p-values (at positions 1 and 2 of the input) are rejected
        rejected = lehmann_romano_stepdown([0.6, 0.01, 0.02], gamma=0.2)
        np.testing.assert_array_equal(rejected, [1, 2])

    def test_nested_in_gamma(self):
        rng = np.random.default_rng(21)
        p = rng.uniform(size=40) ** 3
        lo = set(lehmann_romano_stepdown(p, 0.05).tolist())
        hi = set(lehmann_romano_stepdown(p, 0.3).tolist())
        assert lo <= hi

    def test_validation(self):
        with pytest.raises(ValueError, match="m must"):
            lehmann_romano_critical_values(0, gamma=0.1)
        with pytest.raises(ValueError, match="alpha"):
            lehmann_romano_critical_values(5, gamma=0.1, alpha=0.0)

    @pytest.mark.parametrize("m", [2.5, 3.0, True, False, np.True_, "3", None, -1, np.int64(0)])
    def test_m_must_be_a_positive_integer(self, m):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            lehmann_romano_critical_values(m, gamma=0.2)

    def test_numpy_integer_m_is_accepted(self):
        np.testing.assert_array_equal(
            lehmann_romano_critical_values(np.int64(4), 0.5), lehmann_romano_critical_values(4, 0.5)
        )


# ---------------------------------------------------------------------------
# Exact single-hypothesis tests
# ---------------------------------------------------------------------------


def _capture_exact_statistics(monkeypatch):
    """Record the statistics vector each exact test hands to its shared tail."""
    seen = []
    tail = baselines._exact_result

    def recording(stats, alpha):
        seen.append(stats.copy())
        return tail(stats, alpha)

    monkeypatch.setattr(baselines, "_exact_result", recording)
    return seen


class TestSignFlipTest:
    def test_worked_example_rejects(self):
        res = sign_flip_test([1.0, 1.0, 1.0], alpha=0.25)
        assert isinstance(res, ExactTestResult)
        assert res.reject
        assert res.n_transforms == 8
        assert res.order_index == 6
        assert res.t_observed == pytest.approx(3 / np.sqrt(3))
        assert res.critical_value == pytest.approx(1 / np.sqrt(3))

    def test_cannot_reject_below_resolution(self):
        # alpha < 2^-n: the critical value is the identity statistic itself
        res = sign_flip_test([1.0, 1.0, 1.0], alpha=0.1)
        assert not res.reject
        assert res.critical_value == res.t_observed

    def test_degenerate_data_never_rejects(self):
        res = sign_flip_test([0.0, 0.0, 0.0], alpha=0.25)
        assert not res.reject
        assert res.t_observed == 0.0 == res.critical_value

    def test_feasibility_cap(self):
        with pytest.raises(InfeasibleError, match="n <= 20"):
            sign_flip_test(np.ones(21), alpha=0.1)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kind", ["continuous", "tied", "zeros"])
    def test_doubling_buffer_matches_concatenate(self, monkeypatch, n, kind):
        # The literal route: a fresh array per doubling step.
        rng = np.random.default_rng(n)
        x = {
            "continuous": rng.normal(size=n),
            "tied": rng.integers(-2, 3, size=n).astype(np.float64),
            "zeros": np.where(rng.random(n) < 0.5, 0.0, -0.0),
        }[kind]
        literal = np.zeros(1, dtype=np.float64)
        for xi in x:
            literal = np.concatenate([literal + xi, literal - xi])
        literal = literal / math.sqrt(n)
        seen = _capture_exact_statistics(monkeypatch)
        for alpha in (0.05, 0.25, 0.5):
            res = sign_flip_test(x, alpha)
            assert seen.pop().tobytes() == literal.tobytes()
            assert res == baselines._exact_result(literal, alpha)

    def test_exact_size_at_the_boundary(self):
        # theta = 0, continuous data, alpha a multiple of 2^-n: size == alpha
        rng = np.random.default_rng(1234)
        alpha = 3 / 32
        n, reps = 5, 4000
        rejections = sum(
            sign_flip_test(rng.normal(size=n), alpha).reject for _ in range(reps)
        )
        se = np.sqrt(alpha * (1 - alpha) / reps)
        assert abs(rejections / reps - alpha) < 3 * se


@pytest.mark.parametrize(
    "test, args, name",
    [
        (sign_flip_test, ([np.nan, 1.0, 2.0],), "x"),
        (sign_flip_test, ([1.0, -np.inf],), "x"),
        (two_group_permutation_test, ([np.inf, 1.0], [0.0, 2.0]), "z"),
        (two_group_permutation_test, ([1.0, 2.0], [0.0, np.nan]), "y"),
    ],
    ids=["flip-nan", "flip-minus-inf", "perm-z-inf", "perm-y-nan"],
)
def test_exact_tests_refuse_non_finite_input(test, args, name):
    # NaN or an infinity would otherwise give NaN statistics and reject=False.
    with pytest.raises(ValueError, match=f"{name} must all be finite"):
        test(*args, alpha=0.25)


class TestPermutationTest:
    def test_worked_example_rejects(self):
        res = two_group_permutation_test([10.0, 10.0], [0.0, 0.0], alpha=1 / 6)
        assert res.reject
        assert res.n_transforms == 6
        assert res.t_observed == pytest.approx(10 * np.sqrt(2))
        assert res.critical_value == 0.0

    def test_alpha_below_resolution_blocks_rejection(self):
        res = two_group_permutation_test([10.0, 10.0], [0.0, 0.0], alpha=0.15)
        assert not res.reject
        assert res.critical_value == res.t_observed

    def test_group_size_validation(self):
        with pytest.raises(ValueError, match="equal sizes"):
            two_group_permutation_test([1.0, 2.0], [3.0], alpha=0.1)

    def test_feasibility_cap(self):
        with pytest.raises(InfeasibleError, match="2\\^20"):
            two_group_permutation_test(np.ones(12), np.zeros(12), alpha=0.1)
        # C(22, 11) = 705432 is still within the cap
        two_group_permutation_test(np.ones(11), np.zeros(11), alpha=0.1)

    def test_exact_size_at_the_boundary(self):
        rng = np.random.default_rng(4321)
        alpha = 7 / 70  # C(8, 4) = 70 splits
        reps = 4000
        rejections = sum(
            two_group_permutation_test(rng.normal(size=4), rng.normal(size=4), alpha).reject
            for _ in range(reps)
        )
        se = np.sqrt(alpha * (1 - alpha) / reps)
        assert abs(rejections / reps - alpha) < 3 * se

    def test_label_exchange_symmetry(self):
        rng = np.random.default_rng(5)
        z, y = rng.normal(size=6), rng.normal(size=6)
        a = two_group_permutation_test(z, y, alpha=0.2)
        b = two_group_permutation_test(y, z, alpha=0.2)
        # pooled summation order changes, so only up-to-rounding antisymmetry
        assert a.t_observed == pytest.approx(-b.t_observed, rel=1e-12)
        assert a.n_transforms == b.n_transforms


def _literal_picks(n):
    """The per-call ``combinations`` -> ``intp`` pick matrix the cache replaced."""
    return np.fromiter(
        chain.from_iterable(combinations(range(2 * n), n)), dtype=np.intp, count=math.comb(2 * n, n) * n
    ).reshape(-1, n)


class TestSplitTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 10])
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_matches_the_per_call_pick_matrix(self, monkeypatch, n, kind):
        rng = np.random.default_rng(100 + n)
        if kind == "continuous":
            z, y = rng.normal(size=n), rng.normal(size=n)
        else:
            z, y = (rng.integers(0, 3, size=n).astype(np.float64) for _ in range(2))
        pooled = np.concatenate([z, y])
        sums = pooled[_literal_picks(n)].sum(axis=1)
        literal = math.sqrt(n) * (2.0 * sums - float(pooled.sum())) / n
        seen = _capture_exact_statistics(monkeypatch)
        for alpha in (0.01, 0.05, 0.2, 0.5):
            res = two_group_permutation_test(z, y, alpha)
            assert seen.pop().tobytes() == literal.tobytes()
            assert res == baselines._exact_result(literal, alpha)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
    def test_table_is_the_pick_matrix_in_combinations_order(self, n):
        table = baselines._split_table(n)
        assert table.dtype == np.uint8
        assert table.shape == (math.comb(2 * n, n), n)
        np.testing.assert_array_equal(table, _literal_picks(n))
        np.testing.assert_array_equal(table[0], np.arange(n))  # the identity split

    def test_table_is_cached_and_read_only(self):
        table = baselines._split_table(4)
        assert baselines._split_table(4) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        two_group_permutation_test(np.ones(4), np.zeros(4), alpha=0.1)
        assert baselines._split_table(4) is table
