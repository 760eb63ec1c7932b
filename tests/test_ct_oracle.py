"""Tests for the brute-force closed-testing oracle.

The oracle is the ground truth here: run_closure evaluates the defining
"every superset's local test rejects" condition with no shortcuts, and
t_alpha walks all submasks.  The tests then confirm that the closed-form
criteria (subset rejection count vs. the global mirror count) reproduce it.
"""

from __future__ import annotations

import numpy as np
import pytest

from artifact import (
    ClosureResult,
    HypothesisShape,
    InfeasibleError,
    LocalTestFamily,
    StatisticVector,
    TransformationGroup,
    build_profile,
    indices_to_mask,
    mask_to_indices,
    run_closure,
    verify_random_instances,
    verify_shortcut,
)
from artifact.baselines import _order_index

DIR = HypothesisShape.DIRECTIONAL
EQU = HypothesisShape.EQUIVALENCE


def _sv(stats, margins, shape=DIR):
    return StatisticVector(statistics=np.asarray(stats, dtype=float), margins=margins, shape=shape)


class TestMaskHelpers:
    def test_round_trip(self):
        assert indices_to_mask([0, 3]) == 0b1001
        assert mask_to_indices(0b1001) == [0, 3]
        assert mask_to_indices(0) == []
        for mask in range(64):
            assert indices_to_mask(mask_to_indices(mask)) == mask

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            indices_to_mask([-1])
        with pytest.raises(ValueError):
            mask_to_indices(-1)


class TestRunClosure:
    def test_membership_is_the_all_supersets_condition(self):
        # arbitrary (non-monotone) local tests: closure must still equal the
        # literal definition evaluated superset by superset
        rng = np.random.default_rng(15)
        m = 7
        raw = rng.random(1 << m) < 0.55
        raw[0] = False  # the empty set's entry

        family = LocalTestFamily(kind="custom", phi_values=raw)
        closure = run_closure(family)
        full = (1 << m) - 1
        for mask in range(1, 1 << m):
            free = full & ~mask
            expected = bool(raw[mask])
            sup = free
            while expected and sup:
                if not raw[mask | sup]:
                    expected = False
                sup = (sup - 1) & free
            assert closure.contains(mask) == expected
        assert not closure.contains(0)

    def test_result_arrays_are_read_only(self):
        # t_alpha reads membership, so a write into it would change the bound
        sv = _sv([3.0, -2.5, 0.5, 4.0], 0.0)
        closure = run_closure(LocalTestFamily.directional_basic(sv, t=1.0))
        full = (1 << 4) - 1
        before = closure.t_alpha(full)
        for name in ("membership", "phi_values"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(closure, name)[full] = True
        assert closure.t_alpha(full) == before

    def test_phi_values_recorded(self):
        sv = _sv([3.0, -2.5], 0.0)
        closure = run_closure(LocalTestFamily.directional_basic(sv, t=1.0))
        assert bool(closure.phi_values[0b01]) is True  # R={0}: 1 > 0
        assert bool(closure.phi_values[0b10]) is False
        assert bool(closure.phi_values[0b11]) is False  # tie 1 == 1

    def test_single_hypothesis(self):
        closure = run_closure(LocalTestFamily.directional_basic(_sv([2.0], 0.0), t=1.0))
        assert closure.contains(1)
        assert closure.t_alpha(1) == 0

    def test_feasibility_cap(self):
        sv = _sv(np.zeros(13), 0.0)
        with pytest.raises(InfeasibleError, match="m <= 12"):
            run_closure(LocalTestFamily.directional_basic(sv, t=0.0))

    def test_table_validation(self):
        for bad in (np.zeros(8, dtype=int), np.zeros(6, dtype=bool), np.zeros(1, dtype=bool),
                    np.zeros((2, 4), dtype=bool), np.arange(8) >= 0):
            with pytest.raises(ValueError, match="phi_values"):
                LocalTestFamily(kind="custom", phi_values=bad)
        with pytest.raises(InfeasibleError, match="m <= 12"):
            LocalTestFamily(kind="custom", phi_values=np.zeros(1 << 13, dtype=bool))
        raw = np.arange(8) % 3 == 1
        family = LocalTestFamily(kind="custom", phi_values=raw)
        raw[1] = False  # the family holds its own read-only copy
        assert family.m == 3 and family.phi(1)
        with pytest.raises(ValueError, match="read-only"):
            family.phi_values[1] = False

    def test_mask_validation(self):
        family = LocalTestFamily.directional_basic(_sv([1.0, 2.0], 0.0), t=0.0)
        with pytest.raises(ValueError, match="nonempty"):
            family.phi(0)
        with pytest.raises(ValueError, match="nonempty"):
            family.phi(1 << 2)
        closure = run_closure(family)
        with pytest.raises(ValueError, match="out of range"):
            closure.t_alpha(1 << 5)


def _formula_t_alpha(mask, rejected_mask, r_minus, b=0):
    """Closed-form confidence bound for the counting families."""
    allowance = r_minus - b
    if allowance < 0:
        return 0  # the tie credit locally rejects every nonempty subset
    size = mask.bit_count()
    outside = (mask & ~rejected_mask).bit_count()
    return min(size, outside + allowance)


class TestConfidenceBounds:
    def test_directional_worked_example(self):
        # T = (3, -2.5, 0.5, 4), delta = 0, t = 1: rejected {0, 3}, Rminus = 1
        sv = _sv([3.0, -2.5, 0.5, 4.0], 0.0)
        closure = run_closure(LocalTestFamily.directional_basic(sv, t=1.0))
        rejected_mask = indices_to_mask([0, 3])
        assert closure.t_alpha(rejected_mask) == 1  # == V~ at t = 1
        assert closure.t_alpha((1 << 4) - 1) == 3
        assert closure.t_alpha(indices_to_mask([1, 2])) == 2
        for mask in range(1, 1 << 4):
            assert closure.t_alpha(mask) == _formula_t_alpha(mask, rejected_mask, r_minus=1)

    def test_bound_at_rejection_set_equals_v_tilde(self):
        rng = np.random.default_rng(88)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            sv = _sv(rng.normal(0, 2, m), float(rng.uniform(-0.5, 0.5)))
            t = float(rng.uniform(0, 2))
            profile = build_profile(sv)
            closure = run_closure(LocalTestFamily.directional_basic(sv, t))
            rejected_mask = indices_to_mask(profile.rejected_at(t).tolist())
            v_tilde = min(profile.r(t), profile.r_minus(t))
            if rejected_mask:
                assert closure.t_alpha(rejected_mask) == v_tilde

    def test_formula_matches_oracle_for_all_families(self):
        rng = np.random.default_rng(5005)
        for _ in range(30):
            m = int(rng.integers(1, 8))
            t = float(rng.uniform(0, 1.5))
            # directional, both coins
            sv = _sv(np.round(rng.normal(0, 2, m) * 2) / 2, 0.0)
            profile = build_profile(sv)
            rejected_mask = indices_to_mask(profile.rejected_at(t).tolist())
            r_minus = profile.r_minus(t)
            for b in (0, 1):
                closure = run_closure(LocalTestFamily.directional_randomized(sv, t, b))
                for mask in range(1, 1 << m):
                    assert closure.t_alpha(mask) == _formula_t_alpha(
                        mask, rejected_mask, r_minus, b
                    ), (sv.statistics, t, b, mask)
            # equivalence, plain and windowed
            sve = _sv(rng.normal(0, 2, m), rng.uniform(0.5, 2.5, m), shape=EQU)
            prof = build_profile(sve)
            rejected_mask = indices_to_mask(prof.rejected_at(t).tolist())
            for ctor, rm in (
                (LocalTestFamily.equivalence_basic, prof.r_minus(t)),
                (
                    LocalTestFamily.equivalence_windowed,
                    int(
                        np.count_nonzero(
                            (np.abs(sve.statistics) - sve.margins > t)
                            & (t <= 3 * sve.margins - np.abs(sve.statistics))
                        )
                    ),
                ),
            ):
                closure = run_closure(ctor(sve, t))
                for mask in range(1, 1 << m):
                    assert closure.t_alpha(mask) == _formula_t_alpha(mask, rejected_mask, rm)

    def test_randomized_floor_coin_tightens_the_bound(self):
        # non-tie instance with R > Rminus >= 1: b = 1 shaves one off the bound
        sv = _sv([5.0, 4.0, -3.0], 0.0)
        t = 1.0
        keep = run_closure(LocalTestFamily.directional_randomized(sv, t, b=0))
        floor = run_closure(LocalTestFamily.directional_randomized(sv, t, b=1))
        rejected_mask = indices_to_mask([0, 1])
        assert keep.t_alpha(rejected_mask) == 1  # == V~ = min(Rminus, R)
        assert floor.t_alpha(rejected_mask) == 0
        # the singleton {0} only enters the closure once the tie credit is on:
        # its subset count 1 must beat Rminus - b
        assert not keep.contains(1)
        assert floor.contains(1)

    def test_t_alpha_monotone_in_subsets(self):
        rng = np.random.default_rng(303)
        sv = _sv(rng.normal(0, 2, 7), 0.0)
        closure = run_closure(LocalTestFamily.directional_basic(sv, t=0.7))
        for _ in range(300):
            mask = int(rng.integers(1, 1 << 7))
            sub = mask & int(rng.integers(0, 1 << 7))
            if sub:
                assert closure.t_alpha(sub) <= closure.t_alpha(mask)


class TestShortcutVerification:
    def test_zero_mismatches_across_families(self):
        for kind, seed in [
            ("directional-basic", 101),
            ("directional-randomized", 202),
            ("equivalence-basic", 303),
            ("equivalence-windowed", 404),
        ]:
            report = verify_random_instances(kind, n_instances=40, max_m=8, seed=seed)
            assert report["mismatches"] == 0, report
            assert report["subsets_checked"] > 0
            assert report["family"] == kind

    def test_verifier_can_fail(self):
        # a sabotaged always-reject family must produce mismatches, otherwise
        # the zero-mismatch reports above would be vacuous
        sv = _sv([-5.0, -5.0, -5.0], 0.0)
        family = LocalTestFamily(kind="directional-basic", phi_values=np.arange(8) > 0)
        report = verify_shortcut(family, sv, t=1.0)
        assert report["mismatches"] == 7
        assert len(report["mismatch_masks"]) == 7

    def test_report_fields(self):
        sv = _sv([2.0, -1.0], 0.0)
        report = verify_shortcut(LocalTestFamily.directional_basic(sv, t=0.5), sv, t=0.5)
        assert report == {
            "family": "directional-basic",
            "m": 2,
            "t": 0.5,
            "subsets_checked": 3,
            "mismatches": 0,
            "mismatch_masks": [],
        }

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="family"):
            verify_random_instances("sam-subset", 5, 6, seed=0)
        with pytest.raises(ValueError, match="n_instances"):
            verify_random_instances("directional-basic", 0, 6, seed=0)
        with pytest.raises(ValueError, match="max_m"):
            verify_random_instances("directional-basic", 5, 13, seed=0)


class TestSamSubsetFamily:
    def test_no_rejections_means_no_local_rejection(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(5, 6))
        group = TransformationGroup.sign_flip_full(5)
        t = float(np.abs(data.sum(axis=0)).max() + 1.0)  # nothing clears t
        family = LocalTestFamily.sam_subset(data, lambda x: x.sum(axis=0), group, t)
        closure = run_closure(family)
        assert closure.n_rejected == 0
        assert closure.t_alpha((1 << 6) - 1) == 6

    def test_closure_runs_on_signal(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(6, 5))
        data[:, 0] += 2.0  # one strong feature
        group = TransformationGroup.sign_flip_full(6)
        family = LocalTestFamily.sam_subset(data, lambda x: x.mean(axis=0), group, t=1.0)
        closure = run_closure(family)
        assert isinstance(closure, ClosureResult)
        assert closure.contains(0b00001) or closure.n_rejected == 0
        full = (1 << 5) - 1
        assert 0 <= closure.t_alpha(full) <= 5


def _literal_sam_phi(stats, t, alphas):
    """The sam-subset local test by its definition, one mask at a time.

    For each mask: sum the rejection indicators over the subset's columns,
    partition the B counts at the order index, and compare row 0 with it.
    Returns one phi table per alpha (entry 0 unused).
    """
    reject_bits = stats > t
    n_transforms, m = reject_bits.shape
    orders = [_order_index(alpha, n_transforms) for alpha in alphas]
    tables = [np.zeros(1 << m, dtype=bool) for _ in alphas]
    for mask in range(1, 1 << m):
        counts = reject_bits[:, mask_to_indices(mask)].sum(axis=1)
        for table, k in zip(tables, orders):
            bound = int(np.partition(counts, k - 1)[k - 1])
            table[mask] = int(counts[0]) > bound
    return tables


class TestSamSubsetTable:
    ALPHAS = (0.05, 0.1, 0.5, 0.9)

    def _instances(self, rng):
        """Half-integer data on full and subsampled groups, t an attained statistic."""
        for m in range(1, 11):
            for _ in range(4):
                n = int(rng.integers(1, 8))
                yield m, TransformationGroup.sign_flip_full(n)
                # few rows, many draws: the subsample repeats patterns
                yield m, TransformationGroup.sign_flip_subsample(
                    n, int(rng.integers(2, 80)), int(rng.integers(1 << 31))
                )

    def test_matches_the_literal_per_mask_test(self):
        rng = np.random.default_rng(20260418)
        checked = 0
        for m, group in self._instances(rng):
            data = np.round(rng.normal(0.3, 1.0, (group.n_rows, m)) * 2.0) / 2.0
            stats = group.statistics(data, lambda x: x.sum(axis=0))
            t = float(stats[rng.integers(stats.shape[0]), rng.integers(m)])
            literal = _literal_sam_phi(stats, t, self.ALPHAS)
            for alpha, expected in zip(self.ALPHAS, literal):
                family = LocalTestFamily.sam_subset(data, lambda x: x.sum(axis=0), group, t, alpha)
                got = np.array([False] + [family.phi(mask) for mask in range(1, 1 << m)])
                mismatches = np.flatnonzero(got != expected)
                assert mismatches.size == 0, (m, group.kind, group.size, alpha, t, mismatches[:8])
                checked += (1 << m) - 1
        assert checked > 10_000

    def test_non_finite_threshold_raises(self):
        data = np.ones((3, 2))
        group = TransformationGroup.sign_flip_full(3)
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="threshold t"):
                LocalTestFamily.sam_subset(data, lambda x: x.sum(axis=0), group, t)

    def test_m_above_the_oracle_cap_raises(self):
        group = TransformationGroup.sign_flip_full(2)
        with pytest.raises(InfeasibleError, match="m <= 12"):
            LocalTestFamily.sam_subset(np.ones((2, 13)), lambda x: x.sum(axis=0), group, 0.5)

    def test_builds_on_the_declared_numpy_floor(self, monkeypatch):
        # pyproject.toml allows numpy 1.x, which has no np.bitwise_count
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        data = np.array([[1.0, -2.0, 3.0], [2.0, 1.0, -1.0], [0.5, 2.0, 1.0]])
        group = TransformationGroup.sign_flip_full(3)
        stats = group.statistics(data, lambda x: x.sum(axis=0))
        family = LocalTestFamily.sam_subset(data, lambda x: x.sum(axis=0), group, 1.0, 0.5)
        got = np.array([False] + [family.phi(mask) for mask in range(1, 8)])
        assert np.array_equal(got, _literal_sam_phi(stats, 1.0, (0.5,))[0])
