"""Tests for the threshold search (control_mfdp) and the p-value transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (
    HypothesisShape,
    NullDensitySpec,
    PValueVector,
    StatisticVector,
    build_profile,
    control_mfdp,
    directional_pvalues,
    equivalence_pvalues,
    read_pvalues_csv,
    write_pvalues_csv,
)

DIR = HypothesisShape.DIRECTIONAL
EQU = HypothesisShape.EQUIVALENCE


def _sv(stats, margins, shape=DIR):
    return StatisticVector(statistics=np.asarray(stats, dtype=float), margins=margins, shape=shape)


# ---------------------------------------------------------------------------
# control_mfdp
# ---------------------------------------------------------------------------


class TestControlMfdp:
    def test_directional_worked_example(self):
        # grid is {0, 3, 3.5, 4, 5}; the estimate exceeds 0.4 only at t = 3
        res = control_mfdp(_sv([5.0, 4.0, 3.0, -3.5], 0.0), gamma=0.4)
        assert res.s == 3.0
        assert res.s_plus == 3.5
        np.testing.assert_array_equal(res.rejected, [0, 1])
        assert res.r == 2
        assert res.v_tilde == 0
        assert res.fdp_hat == 0.0

    def test_never_exceeding_rejects_at_zero(self):
        # T = 0 sits exactly on the margin: strictness keeps it out of both
        # the rejection set and the mirror count, so the estimate is 0 everywhere
        res = control_mfdp(_sv([5.0, 6.0, 0.0], 0.0), gamma=0.4)
        assert res.s is None
        assert res.s_plus == 0.0
        np.testing.assert_array_equal(res.rejected, [0, 1])

    def test_equivalence_worked_example(self):
        res = control_mfdp(_sv([0.2, -0.3, 2.5, 1.0], 2.0, shape=EQU), gamma=0.3)
        # FDP~(0) = 1/3 > 0.3; the next grid point 0.5 clears the mirror count
        assert res.s == 0.0
        assert res.s_plus == 0.5
        np.testing.assert_array_equal(res.rejected, [0, 1, 3])
        assert res.fdp_hat == 0.0

    def test_gamma_zero_demands_empty_mirror(self):
        res = control_mfdp(_sv([5.0, 4.0, 3.0, -3.5], 0.0), gamma=0.0)
        assert res.v_tilde == 0
        assert res.fdp_hat == 0.0
        assert res.s == 3.0 and res.s_plus == 3.5

    def test_gamma_validation(self):
        sv = _sv([1.0], 0.0)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="gamma"):
                control_mfdp(sv, gamma=bad)

    def test_everything_mirrored_rejects_nothing(self):
        # all statistics negative: R(t) = 0 on the whole grid
        res = control_mfdp(_sv([-1.0, -2.0], 0.0), gamma=0.1)
        assert res.s is None
        assert res.s_plus == 0.0
        assert res.rejected.size == 0
        assert res.r == 0

    def test_single_hypothesis(self):
        res = control_mfdp(_sv([4.0], 0.0), gamma=0.2)
        assert res.s is None and res.s_plus == 0.0
        np.testing.assert_array_equal(res.rejected, [0])


def _random_instance(rng):
    m = int(rng.integers(2, 40))
    if rng.random() < 0.5:
        stats = rng.normal(scale=2.0, size=m)
        return _sv(stats, float(rng.uniform(-0.5, 0.5)), shape=DIR)
    return _sv(rng.normal(scale=2.0, size=m), float(rng.uniform(0.5, 3.0)), shape=EQU)


def _fdp_at(sv, t):
    profile = build_profile(sv)
    r = profile.r(t)
    return min(r, profile.r_minus(t)) / max(r, 1)


class TestControlInvariants:
    def test_threshold_pair_lies_on_grid(self):
        rng = np.random.default_rng(424242)
        for _ in range(200):
            sv = _random_instance(rng)
            gamma = float(rng.uniform(0.0, 0.9))
            res = control_mfdp(sv, gamma)
            grid = build_profile(sv).thresholds
            assert res.s_plus in grid
            assert res.fdp_hat <= gamma
            if res.s is None:
                assert res.s_plus == 0.0
            else:
                assert res.s in grid
                assert res.s < res.s_plus
                # the search point never runs off the top of the grid
                assert res.s_plus < grid[-1] or grid.size == 1
                assert _fdp_at(sv, res.s) > gamma

    def test_matches_dense_threshold_scan(self):
        # s+ is the sup of the exceeding region: every probe at or beyond it
        # satisfies the target, and some probe just below s+ violates it
        rng = np.random.default_rng(3117)
        for _ in range(100):
            sv = _random_instance(rng)
            gamma = float(rng.uniform(0.0, 0.9))
            res = control_mfdp(sv, gamma)
            grid = build_profile(sv).thresholds
            probes = np.concatenate([grid, (grid[:-1] + grid[1:]) / 2, [grid[-1] + 1.0]])
            for t in probes:
                if t >= res.s_plus:
                    assert _fdp_at(sv, float(t)) <= gamma
            if res.s is not None:
                assert _fdp_at(sv, res.s) > gamma

    def test_rejections_nested_in_gamma(self):
        rng = np.random.default_rng(9090)
        for _ in range(150):
            sv = _random_instance(rng)
            g1, g2 = sorted(rng.uniform(0.0, 0.9, size=2))
            lo = control_mfdp(sv, float(g1))
            hi = control_mfdp(sv, float(g2))
            assert lo.s_plus >= hi.s_plus
            assert set(lo.rejected.tolist()) <= set(hi.rejected.tolist())


def _literal_counts(stats, margins, shape, t, left=False):
    """R and R- at t (or just below t) straight from the defining inequalities.

    Returns the rejected indices and the mirror count.  ``left=True`` gives
    the left limits R(t-) and R-(t-), where each strict ``> t`` becomes
    ``>= t`` and the equivalence cap ``t < min delta`` becomes ``t <= min delta``.
    """

    def above(x):
        return x >= t if left else x > t

    pairs = list(zip(stats, margins))
    if shape is DIR:
        rejected = [j for j, (T, d) in enumerate(pairs) if above(T - d)]
        r_minus = sum(1 for T, d in pairs if above(d - T))
    else:
        c = min(margins)
        open_cap = t <= c if left else t < c
        rejected = [j for j, (T, d) in enumerate(pairs) if open_cap and above(d - abs(T))]
        r_minus = sum(1 for T, d in pairs if above(abs(T) - d))
    return rejected, r_minus


def _literal_scan(stats, margins, shape, gamma):
    """O(m^2) threshold scan: grid, (R, R-) on it, and the control result."""
    if shape is DIR:
        candidates = [T - d for T, d in zip(stats, margins)] + [d - T for T, d in zip(stats, margins)]
    else:
        candidates = [d - abs(T) for T, d in zip(stats, margins)]
        candidates += [abs(T) - d for T, d in zip(stats, margins)] + [min(margins)]
    grid = [0.0]
    for tau in sorted({x for x in candidates if x > 0.0}):
        at = _literal_counts(stats, margins, shape, tau)
        before = _literal_counts(stats, margins, shape, tau, left=True)
        if (len(at[0]), at[1]) != (len(before[0]), before[1]):
            grid.append(tau)
    counts = [_literal_counts(stats, margins, shape, t) for t in grid]
    fdp = [min(len(rej), rm) / max(len(rej), 1) for rej, rm in counts]
    exceeding = [i for i, f in enumerate(fdp) if f > gamma]
    s = grid[exceeding[-1]] if exceeding else None
    idx = exceeding[-1] + 1 if exceeding else 0
    rejected, r_minus = counts[idx]
    return {
        "grid": grid,
        "r": [len(rej) for rej, _ in counts],
        "r_minus": [rm for _, rm in counts],
        "s": s,
        "s_plus": grid[idx],
        "rejected": rejected,
        "v_tilde": min(len(rejected), r_minus),
        "fdp_hat": fdp[idx],
    }


_half = st.integers(-8, 8).map(lambda i: i / 2)


@st.composite
def _families(draw):
    shape = draw(st.sampled_from([DIR, EQU]))
    mode = draw(st.sampled_from(["half-grid", "float", "all-zero", "mirror-pair"]))
    m = draw(st.integers(2 if mode == "mirror-pair" else 1, 20))
    if mode == "float":
        lo = -1.0 if shape is DIR else 0.05
        margin = st.floats(lo, 4.0, allow_nan=False, allow_infinity=False)
    else:
        margin = st.integers(-2, 2) if shape is DIR else st.integers(1, 6)
        margin = margin.map(lambda i: i / 2)
    if draw(st.booleans()):
        margins = draw(st.lists(margin, min_size=m, max_size=m))
    else:
        margins = [draw(margin)] * m
    if mode == "float":
        stats = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=m, max_size=m))
    else:
        stats = draw(st.lists(_half, min_size=m, max_size=m))
    sign = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    if mode == "all-zero":  # T == delta, or |T| == delta: every cut is zero
        stats = list(margins) if shape is DIR else [s * d for s, d in zip(sign, margins)]
    if mode == "mirror-pair":  # a rejection cut and a mirror cut of equal size a
        i, j = draw(st.permutations(range(m)))[:2]
        if shape is DIR:
            a = draw(st.integers(1, 8)) / 2
            stats[i], stats[j] = margins[i] + a, margins[j] - a
        else:
            a = draw(st.integers(1, int(2 * min(margins)))) / 2
            stats[i] = sign[i] * (margins[i] - a)
            stats[j] = sign[j] * (margins[j] + a)
    gamma = draw(st.sampled_from([0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5]) | st.floats(0.0, 0.99))
    return stats, margins, shape, gamma


@settings(max_examples=400, deadline=None)
@given(family=_families())
def test_control_and_profile_match_literal_scan(family):
    stats, margins, shape, gamma = family
    sv = _sv(stats, margins, shape=shape)
    want = _literal_scan(sv.statistics.tolist(), sv.margins.tolist(), shape, gamma)
    profile = build_profile(sv)
    assert profile.thresholds.tolist() == want["grid"]
    assert profile.r_grid.tolist() == want["r"]
    assert profile.r_minus_grid.tolist() == want["r_minus"]
    assert profile.r(profile.thresholds).tolist() == want["r"]
    assert profile.r_minus(profile.thresholds).tolist() == want["r_minus"]
    res = control_mfdp(sv, gamma)
    assert res.s == want["s"]
    assert res.s_plus == want["s_plus"]
    assert res.rejected.tolist() == want["rejected"]
    assert res.r == len(want["rejected"])
    assert res.v_tilde == want["v_tilde"]
    assert res.fdp_hat == want["fdp_hat"]


# ---------------------------------------------------------------------------
# Null density models
# ---------------------------------------------------------------------------


def _mpmath_normal_sf(x):
    import mpmath

    mpmath.mp.dps = 40
    return float(1 - mpmath.ncdf(x))


class TestNullDensitySpec:
    def test_standard_normal_tail_values(self):
        null = NullDensitySpec.standard_normal()
        for x in (0.0, 1.0, 1.96, 2.0, 5.0):
            assert null.sf_at(x) == pytest.approx(_mpmath_normal_sf(x), rel=1e-13)
            assert null.cdf_at(x) == pytest.approx(1 - _mpmath_normal_sf(x), rel=1e-13)

    def test_scaled_normal_matches_rescaled_standard(self):
        scaled = NullDensitySpec.scaled_normal(2.0)
        std = NullDensitySpec.standard_normal()
        assert scaled.sf_at(3.92) == std.sf_at(1.96)
        assert scaled.cdf_at(-1.0) == std.cdf_at(-0.5)

    def test_student_t_matches_scipy_distribution(self):
        from scipy import stats as sps

        null = NullDensitySpec.student_t(5.0)
        xs = np.array([-3.0, -0.5, 0.0, 1.7, 4.0])
        np.testing.assert_allclose(null.cdf_at(xs), sps.t.cdf(xs, df=5), rtol=1e-12)
        np.testing.assert_allclose(null.sf_at(xs), sps.t.sf(xs, df=5), rtol=1e-12)

    def test_builtin_survival_is_the_mirrored_cdf_exactly(self):
        from scipy import special as spc

        xs = np.concatenate([np.linspace(-40.0, 40.0, 2001), [0.0, -0.0, np.inf, -np.inf]])
        np.testing.assert_array_equal(NullDensitySpec.standard_normal().sf_at(xs), spc.ndtr(-xs))
        np.testing.assert_array_equal(
            NullDensitySpec.scaled_normal(2.5).sf_at(xs), spc.ndtr(-xs / 2.5)
        )
        for nu in (1.0, 3.5, 30.0):
            np.testing.assert_array_equal(
                NullDensitySpec.student_t(nu).sf_at(xs), spc.stdtr(nu, -xs)
            )

    def test_user_cdf_route(self):
        null = NullDensitySpec.from_cdf(lambda x: np.clip((x + 1) / 2, 0, 1))  # uniform(-1, 1)
        assert null.cdf_at(0.0) == 0.5
        assert null.sf_at(0.5) == pytest.approx(0.25)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            NullDensitySpec.scaled_normal(0.0)
        with pytest.raises(ValueError, match="nu"):
            NullDensitySpec.student_t(-1.0)
        with pytest.raises(TypeError, match="callable"):
            NullDensitySpec.from_cdf(0.5)

    def test_direct_construction_rejects_unknown_family(self):
        # fails at construction, not later inside cdf_at/sf_at
        with pytest.raises(ValueError, match="unknown null density family"):
            NullDensitySpec("normal")
        with pytest.raises(TypeError, match="callable cdf"):
            NullDensitySpec("user")


# ---------------------------------------------------------------------------
# P-value transforms
# ---------------------------------------------------------------------------


class TestDirectionalPvalues:
    def test_boundary_statistic_is_uniform_half(self):
        pv = directional_pvalues(_sv([2.0], 2.0), NullDensitySpec.standard_normal())
        assert pv.values[0] == 0.5

    def test_reference_values(self):
        pv = directional_pvalues(_sv([1.96, 2.0, 0.0], 0.0), NullDensitySpec.standard_normal())
        assert pv.values[0] == pytest.approx(_mpmath_normal_sf(1.96), rel=1e-13)
        assert pv.values[1] == pytest.approx(0.02275013194817921, rel=1e-13)
        assert pv.values[2] == 0.5

    def test_margin_shifts_the_reference_point(self):
        null = NullDensitySpec.standard_normal()
        shifted = directional_pvalues(_sv([3.0], 1.0), null)
        centred = directional_pvalues(_sv([2.0], 0.0), null)
        assert shifted.values[0] == centred.values[0]

    def test_rejects_equivalence_input(self):
        with pytest.raises(ValueError, match="directional"):
            directional_pvalues(_sv([1.0], 2.0, shape=EQU), NullDensitySpec.standard_normal())


class TestEquivalencePvalues:
    def test_boundary_statistic_is_uniform_half(self):
        pv = equivalence_pvalues(_sv([2.0, -2.0], 2.0, shape=EQU), NullDensitySpec.standard_normal())
        np.testing.assert_allclose(pv.values, [0.5, 0.5])

    def test_symmetric_in_the_statistic(self):
        null = NullDensitySpec.standard_normal()
        plus = equivalence_pvalues(_sv([1.0], 2.0, shape=EQU), null)
        minus = equivalence_pvalues(_sv([-1.0], 2.0, shape=EQU), null)
        assert plus.values[0] == minus.values[0]
        assert plus.values[0] == pytest.approx(1 - _mpmath_normal_sf(-1.0), rel=1e-13)

    def test_centre_gets_the_smallest_value(self):
        null = NullDensitySpec.standard_normal()
        pv = equivalence_pvalues(_sv([0.0], 2.0, shape=EQU), null)
        assert pv.values[0] == pytest.approx(0.02275013194817921, rel=1e-13)

    def test_branches_agree_near_zero(self):
        null = NullDensitySpec.standard_normal()
        lo = equivalence_pvalues(_sv([-1e-9], 2.0, shape=EQU), null).values[0]
        hi = equivalence_pvalues(_sv([1e-9], 2.0, shape=EQU), null).values[0]
        assert lo == pytest.approx(hi, abs=1e-12)

    def test_rejects_directional_input(self):
        with pytest.raises(ValueError, match="equivalence"):
            equivalence_pvalues(_sv([1.0], 0.0), NullDensitySpec.standard_normal())


class TestPvalueVectorAndCsv:
    def test_range_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PValueVector(values=np.array([0.5, 1.5]), shape=DIR)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PValueVector(values=np.array([np.nan]), shape=DIR)

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.uniform(size=64)
        values[0] = 0.0
        values[1] = 1.0
        values[2] = 0.02275013194817921
        pv = PValueVector(values=values, shape=DIR)
        path = tmp_path / "pvals.csv"
        write_pvalues_csv(pv, path)
        back = read_pvalues_csv(path)
        np.testing.assert_array_equal(back, values)

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("idx,p\n0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_pvalues_csv(path)

    def test_read_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,pvalue\n0,not-a-number\n")
        with pytest.raises(ValueError, match="malformed"):
            read_pvalues_csv(path)

    def test_read_orders_by_index(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("index,pvalue\n2,0.3\n0,0.1\n1,0.2\n")
        np.testing.assert_array_equal(read_pvalues_csv(path), [0.1, 0.2, 0.3])

    def test_read_drops_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffindex,pvalue\n1,0.2\n0,0.1\n", encoding="utf-8")
        np.testing.assert_array_equal(read_pvalues_csv(path), [0.1, 0.2])

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("0,0.1\n0,0.2\n1,0.3\n", "row 3: index 0 repeats row 2"),
            ("0,0.1\n1,0.2\n5,0.3\n", "row 4: index 5 is outside 0..2"),
        ],
        ids=["duplicate", "gap"],
    )
    def test_read_rejects_duplicate_or_gapped_indices(self, tmp_path, rows, problem):
        path = tmp_path / "bad.csv"
        path.write_text("index,pvalue\n" + rows)
        with pytest.raises(ValueError, match=problem):
            read_pvalues_csv(path)

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("0,0.5\n1,nan\n2,0.25\n", r"row 3, column 'pvalue': non-finite value nan"),
            ("2,0.5\n0,1.5\n1,-0.25\n", r"row 3: p-value 1.5 is outside \[0, 1\]"),
            ("1,0.5\n0,-0.25\n", r"row 3: p-value -0.25 is outside \[0, 1\]"),
        ],
        ids=["nan", "above-one", "negative"],
    )
    def test_read_rejects_non_finite_or_out_of_range_values(self, tmp_path, rows, problem):
        path = tmp_path / "bad.csv"
        path.write_text("index,pvalue\n" + rows)
        with pytest.raises(ValueError, match=f"bad.csv: {problem}"):
            read_pvalues_csv(path)
