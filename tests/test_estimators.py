"""Estimator-level tests: plain, randomized, equivalence, and windowed."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (
    CoinSource,
    HypothesisShape,
    StatisticVector,
    build_profile,
    control_mfdp,
    estimate_directional,
    estimate_directional_randomized,
    estimate_equivalence,
    estimate_equivalence_windowed,
)

DIR = HypothesisShape.DIRECTIONAL
EQU = HypothesisShape.EQUIVALENCE


def _sv(stats, margins, shape=DIR):
    return StatisticVector(statistics=np.asarray(stats, dtype=float), margins=margins, shape=shape)


class TestDirectional:
    def test_worked_example(self):
        est = estimate_directional(_sv([3.0, -2.5, 0.5, 4.0], 0.0), t=1.0)
        assert est.estimator == "directional"
        assert est.r == 2
        np.testing.assert_array_equal(est.rejected, [0, 3])
        assert est.v_tilde == 1
        assert est.fdp_hat == 0.5
        assert not est.randomized and est.coin is None and not est.floored
        assert not est.requires_independence

    def test_cap_at_r(self):
        # more mirror mass than rejections: the bound is capped at R
        est = estimate_directional(_sv([2.0, -3.0, -4.0, -5.0], 0.0), t=1.0)
        assert est.r == 1
        assert est.v_tilde == 1
        assert est.fdp_hat == 1.0

    def test_empty_rejection_set(self):
        est = estimate_directional(_sv([0.5, -0.5], 0.0), t=1.0)
        assert est.r == 0
        assert est.rejected.size == 0
        assert est.v_tilde == 0
        assert est.fdp_hat == 0.0  # 0 / max(0, 1)

    def test_margins_are_subtracted(self):
        est = estimate_directional(_sv([3.0, 1.0], [2.5, -1.5]), t=1.0)
        # diffs are (0.5, 2.5): only the second hypothesis clears t = 1
        np.testing.assert_array_equal(est.rejected, [1])

    def test_requires_directional_shape(self):
        with pytest.raises(ValueError, match="directional"):
            estimate_directional(_sv([1.0], 2.0, shape=EQU), t=0.0)

    def test_threshold_validation(self):
        sv = _sv([1.0], 0.0)
        with pytest.raises(ValueError, match=">= 0"):
            estimate_directional(sv, t=-0.1)
        with pytest.raises(ValueError, match="finite"):
            estimate_directional(sv, t=np.inf)


class TestDirectionalRandomized:
    def test_tie_with_floor_coin(self):
        # R(1) = R-(1) = 1: the tie is randomized
        sv = _sv([2.0, -2.0], 0.0)
        floor_seed = next(s for s in range(100) if CoinSource(s).flip())
        est = estimate_directional_randomized(sv, t=1.0, coin=CoinSource(floor_seed))
        assert est.randomized and est.coin is True and est.floored
        assert est.v_tilde is None
        assert est.fdp_hat == 0.0
        assert est.r == 1  # the rejection set itself is untouched

    def test_tie_with_keep_coin(self):
        sv = _sv([2.0, -2.0], 0.0)
        keep_seed = next(s for s in range(100) if not CoinSource(s).flip())
        est = estimate_directional_randomized(sv, t=1.0, coin=CoinSource(keep_seed))
        assert est.coin is False and not est.floored
        assert est.v_tilde == 1
        assert est.fdp_hat == 1.0

    def test_no_tie_matches_plain_estimate_for_both_coins(self):
        sv = _sv([3.0, -2.5, 0.5, 4.0], 0.0)
        plain = estimate_directional(sv, t=1.0)
        for seed in range(8):
            est = estimate_directional_randomized(sv, t=1.0, coin=CoinSource(seed))
            assert est.v_tilde == plain.v_tilde
            assert est.fdp_hat == plain.fdp_hat
            assert not est.floored
            np.testing.assert_array_equal(est.rejected, plain.rejected)

    def test_coin_is_drawn_every_call(self):
        # one coin per call, tie or not, so downstream replay is stable
        expected = [CoinSource(7).flip() for _ in range(6)]
        coin = CoinSource(7)
        sv_no_tie = _sv([3.0, -1.0], 0.0)
        observed = [
            estimate_directional_randomized(sv_no_tie, t=0.5, coin=coin).coin for _ in range(6)
        ]
        assert observed == expected

    def test_floor_frequency_is_one_half(self):
        sv = _sv([2.0, -2.0], 0.0)
        coin = CoinSource(99)
        n = 4000
        floored = sum(
            estimate_directional_randomized(sv, t=1.0, coin=coin).floored for _ in range(n)
        )
        # binomial(4000, 1/2): +-3 standard errors is ~0.024
        assert abs(floored / n - 0.5) < 0.024

    def test_seeded_coin_source_is_reproducible(self):
        first, second = CoinSource(123), CoinSource(123)
        a = [first.flip() for _ in range(32)]
        b = [second.flip() for _ in range(32)]
        assert a == b
        assert any(a) and not all(a)


class TestEquivalence:
    def test_worked_example(self):
        est = estimate_equivalence(_sv([0.2, -0.3, 2.5, 1.0], 2.0, shape=EQU), t=0.5)
        assert est.estimator == "equivalence"
        assert est.r == 3
        np.testing.assert_array_equal(est.rejected, [0, 1, 3])
        assert est.v_tilde == 0  # |T| = 2.5 is not strictly above delta + t = 2.5
        assert est.fdp_hat == 0.0

    def test_mirror_strictness(self):
        sv = _sv([0.2, -0.3, 2.5, 1.0], 2.0, shape=EQU)
        assert estimate_equivalence(sv, t=0.49).v_tilde == 1
        assert estimate_equivalence(sv, t=0.5).v_tilde == 0

    def test_no_rejections_at_or_beyond_smallest_margin(self):
        sv = _sv([0.0, 0.1], [2.0, 3.0], shape=EQU)
        for t in (2.0, 2.5, 10.0):
            est = estimate_equivalence(sv, t=t)
            assert est.r == 0 and est.rejected.size == 0
            assert est.fdp_hat == 0.0

    def test_requires_equivalence_shape(self):
        with pytest.raises(ValueError, match="equivalence"):
            estimate_equivalence(_sv([1.0], 0.0), t=0.0)


class TestEquivalenceWindowed:
    def test_window_edges(self):
        # delta = 2, t = 0.5: mirror window is (2.5, 5.5] in |T|
        for T, counted in [(2.5, False), (2.6, True), (5.5, True), (5.6, False), (-5.5, True)]:
            sv = _sv([0.0, T], 2.0, shape=EQU)
            est = estimate_equivalence_windowed(sv, t=0.5)
            assert est.v_tilde == (1 if counted else 0), T

    def test_extreme_statistics_leave_the_window(self):
        sv = _sv([0.2, -0.3, 2.6, 7.0], 2.0, shape=EQU)
        plain = estimate_equivalence(sv, t=0.5)
        windowed = estimate_equivalence_windowed(sv, t=0.5)
        assert plain.v_tilde == 2
        assert windowed.v_tilde == 1  # |T| = 7 lies beyond 3*delta - t = 5.5
        np.testing.assert_array_equal(windowed.rejected, plain.rejected)

    def test_flags_independence_assumption(self):
        est = estimate_equivalence_windowed(_sv([0.0], 2.0, shape=EQU), t=0.0)
        assert est.estimator == "equivalence-windowed"
        assert est.requires_independence

    def test_per_hypothesis_window(self):
        # margins differ: |T| = 4 is inside the window for delta = 2 at t = 1
        # (3, 5], outside it for delta = 1.4 (2.4, 3.2]
        wide = _sv([0.0, 4.0], [2.0, 2.0], shape=EQU)
        narrow = _sv([0.0, 4.0], [1.4, 1.4], shape=EQU)
        assert estimate_equivalence_windowed(wide, t=1.0).v_tilde == 1
        assert estimate_equivalence_windowed(narrow, t=1.0).v_tilde == 0

    def test_requires_equivalence_shape(self):
        with pytest.raises(ValueError, match="equivalence"):
            estimate_equivalence_windowed(_sv([1.0], 0.0), t=0.0)


# ---------------------------------------------------------------------------
# Cross-cutting properties
# ---------------------------------------------------------------------------

_finite = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False, allow_infinity=False)
_stat_lists = st.lists(_finite, min_size=1, max_size=20)


@settings(max_examples=250, deadline=None)
@given(stats=_stat_lists, t=st.floats(0.0, 12.0), margin=st.floats(-2.0, 2.0))
def test_directional_estimate_consistent_with_profile(stats, t, margin):
    sv = _sv(stats, margin)
    est = estimate_directional(sv, t)
    profile = build_profile(sv)
    assert est.r == profile.r(t)
    assert est.v_tilde == min(profile.r(t), profile.r_minus(t))
    assert 0 <= est.v_tilde <= est.r
    assert 0.0 <= est.fdp_hat <= 1.0
    np.testing.assert_array_equal(est.rejected, profile.rejected_at(t))


@settings(max_examples=250, deadline=None)
@given(stats=_stat_lists, t=st.floats(0.0, 12.0), margin=st.floats(0.05, 5.0))
def test_windowed_never_exceeds_plain_equivalence(stats, t, margin):
    sv = _sv(stats, margin, shape=EQU)
    plain = estimate_equivalence(sv, t)
    windowed = estimate_equivalence_windowed(sv, t)
    assert windowed.r == plain.r
    assert windowed.v_tilde <= plain.v_tilde
    assert windowed.fdp_hat <= plain.fdp_hat
    np.testing.assert_array_equal(windowed.rejected, plain.rejected)


def test_estimators_are_deterministic():
    rng = np.random.default_rng(5150)
    stats = rng.normal(size=50)
    sv = _sv(stats, 0.1)
    first = estimate_directional(sv, 0.3)
    second = estimate_directional(sv, 0.3)
    assert first.v_tilde == second.v_tilde
    np.testing.assert_array_equal(first.rejected, second.rejected)


# ---------------------------------------------------------------------------
# Pinned estimates
# ---------------------------------------------------------------------------


def _hex(x):
    return None if x is None else float(x).hex()


def _estimate_digest(estimates) -> str:
    """sha256 of a sequence of FdpEstimates: every field, its type, floats as hex."""
    keys = [
        (
            e.estimator, type(e.t).__name__, _hex(e.t), e.rejected.dtype.str,
            e.rejected.tobytes().hex(), type(e.r).__name__, e.r, type(e.v_tilde).__name__,
            e.v_tilde, type(e.fdp_hat).__name__, _hex(e.fdp_hat), e.randomized, e.coin, e.floored,
        )
        for e in estimates
    ]
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def _thresholds(sv, extra=()):
    """0, -0.0, every distinct |cut| up to 40 of them, midpoints, a far threshold and ``extra``."""
    if sv.shape is DIR:
        k = sv.statistics - sv.margins
    else:
        k = np.minimum(sv.margins - np.abs(sv.statistics), np.min(sv.margins))
    cuts = np.unique(np.abs(k))[:40]
    mids = (cuts[1:] + cuts[:-1]) / 2
    return [0.0, -0.0, *cuts, *mids[:10], 1e3, *extra]


def _pinned_estimate_families():
    rng = np.random.default_rng(1701)
    # Symmetric half-integer ties: R(t) == R-(t) at every threshold.
    half = rng.integers(1, 7, 30) * 0.5
    yield "dir-symmetric-ties", _sv(np.concatenate([half, -half]), 0.0), ()
    yield "dir-half-ties", _sv(rng.integers(-6, 7, 80) * 0.5, 0.5), ()
    yield "dir-continuous", _sv(rng.normal(0.5, 1.5, 60), 0.25), (0.3, 1.7)
    signed_zero = _sv([1.5, 1.5, -0.0, 0.0, 2.0, -1.0], [1.5, 1.5, 0.0, 0.0, 1.0, 0.0])
    yield "dir-signed-zero-cuts", signed_zero, ()
    quarter = rng.integers(-16, 17, 80) * 0.25
    # Window edges t == 3*delta - |T| land on the quarter grid for delta = 1.
    edges = [3.0 - abs(v) for v in quarter if abs(v) <= 3.0]
    yield "equ-quarter-ties", _sv(quarter, 1.0, shape=EQU), edges
    margins = rng.uniform(0.5, 2.0, 60)
    stats = rng.normal(0.0, 2.0, 60)
    stats[:10] = margins[:10] * rng.choice([-1.0, 1.0], 10)  # |T| == delta: zero cuts
    slack = 3.0 * margins - np.abs(stats)
    edges = list(slack[slack >= 0][:20])
    yield "equ-per-hypothesis", _sv(stats, margins, shape=EQU), edges
    yield "equ-signed-zero", _sv([-0.0, 0.0, 1.0, -1.0, 3.0, -3.0], 1.0, shape=EQU), (2.0,)
    for v in (-1.0, -0.0, 0.0, 0.5):
        yield f"dir-m1-{v}", _sv([v], 0.0), ()
    yield "equ-m1", _sv([0.25], 1.0, shape=EQU), (2.75,)
    rng = np.random.default_rng(1702)
    shifted = rng.normal(0.0, 1.0, 100_000) + (rng.random(100_000) < 0.2) * 3.0
    yield "dir-1e5", _sv(np.round(shifted, 2), 0.0), (1.0, 2.5)
    yield "equ-1e5", _sv(np.round(rng.normal(0.0, 1.5, 100_000), 2), 1.0, shape=EQU), (1.5, 2.5)


def _pinned_estimates(sv, extra):
    """One digest per estimator of the shape, over every threshold in turn."""
    ts = _thresholds(sv, extra)
    if sv.shape is DIR:
        out = [_estimate_digest(estimate_directional(sv, t) for t in ts)]
        for seed in (0, 1, 2):
            coin = CoinSource(seed)
            out.append(_estimate_digest(estimate_directional_randomized(sv, t, coin) for t in ts))
        return out
    return [
        _estimate_digest(estimate_equivalence(sv, t) for t in ts),
        _estimate_digest(estimate_equivalence_windowed(sv, t) for t in ts),
    ]


class TestPinnedEstimates:
    """Every FdpEstimate field of the four estimators pinned bit for bit.

    The digests were computed before the estimators and ``control_mfdp``
    shared one count at a threshold.  Directional families give the plain
    estimate and the randomized one under coins seeded 0, 1 and 2 (one
    coin source per seed, drawn across the thresholds in turn, including
    R == R- ties); equivalence families give the plain and windowed
    estimates, with window edges ``t == 3*delta - |T|`` exactly.  The
    thresholds include 0, -0.0, every cut and points between them; the
    families include signed-zero cuts, m = 1 and m = 10^5.
    """

    DIGESTS = {  # family -> one digest per estimator, see _pinned_estimates
        "dir-symmetric-ties": (
            "dfab6a1cb318a610daa084f5ba6cebc8ffad4e66a29b76651e8fa7420c57e15f",
            "db7385154dc4e95778beec215898150d6936ef9c265f2aaac4a0f843d92a4364",
            "87d1f6d962e84036567140e94a3d839f5521d53052fecdaed70d9d4a88377fdb",
            "8805a0c50ef2901e1732ea8e45aa5f7c6a268865e31c6ad8505c006a9c12b1ee",
        ),
        "dir-half-ties": (
            "576b298562de85a09a8c0641687e17f24f61189c4a3ff530f9e98c1e6e500a1a",
            "d8ab43935490eeb7cf641c09446293192467a6916e37da680193aca97355f402",
            "a3eea4ebf1e7c01aef6ddfd4ce3acdc6a137edc2311b82e53488acd1cdc2c787",
            "aa8d02a91ee607936263eda508f133009ce26a372b40b5d75dcb0626705a33af",
        ),
        "dir-continuous": (
            "20873850395dbb16ffe5b3ed6d10f7702ed6388d012b7b4123ff4d75938a272b",
            "7610029f5284fb3fa4fb139c673ed66e05c0eae9efd4e4286176f23b093abb13",
            "f441e3fc70c9a83a6076957157bb29e8c7c5ce3140a979a69cdd4717eeed1fee",
            "bc0ec92c05dd803884d654b1b55fa02033564ce2fceeb491249dd5856158450b",
        ),
        "dir-signed-zero-cuts": (
            "f159a62e8c052821d1f88ff905bb2633ae896c894dfca627d73c4cf7c3486f3f",
            "9a91a907b37856f319b9f5a70d5e10ef11ffde4a50ad7c21a16e8855e5a0b47c",
            "db1d4207f94f58e4f7d6a80e03f968c47ea47e5f3810b82ab6d5878e503d6b25",
            "71baccc6c8754bfd857f02d42ebf658ad2df1348d79a6fc4c161f8101f787850",
        ),
        "equ-quarter-ties": (
            "0c1ae8195bd0e559d2239dbe382a20218b4c521169cd738beb98459b7c48d4bf",
            "f2fb016042d06b6841505eba9cc33e4914e2d6d19636df11e39b8840d1c1a825",
        ),
        "equ-per-hypothesis": (
            "bc96149e8ca779e5324bfb0af2ab972307b3237c4fe6252b45e0d5804e7539cc",
            "dd92de4cf88b10ad47a4b3413b10a7cf78ee94ba54751927f01e14e59b25440a",
        ),
        "equ-signed-zero": (
            "ccdf8f852ca4cb5d6bbc6c2c8ab9a7c177d4c494743a906d062a86ae1b321444",
            "8d2c447e6a21dc71a41088588347dd0829d5620185a1487f0512fa6283970bf5",
        ),
        "dir-m1--1.0": (
            "3422f469a6cb8ce76fb04ca29b640deed9122d370958de5648f060e018ce1db4",
            "73dab84deb6dbba293089ca2547f1a57ed6f4542043454cb8ae8fae3be39e440",
            "9a3c3ff4072652f7d8feeb04413e9b7ffefaa9eebb4570155d0f7a2d595c33f7",
            "7079a8941ce11506112556c3c671318b6da8a7b58ec319828973f0337930a98e",
        ),
        "dir-m1--0.0": (
            "9f6c699551b913434c2bdac918d87f8da62b0f8dfe9bc159961a7838aa1e37fb",
            "78c0bd56856a3740335b01cac45b9dc92c2882ae1a14f903414d05024cb9d493",
            "1031e1d0c70b82ed570bff3d5871930c81e25bfa4d002bf3bb0a95fc52995e8a",
            "7d4333903132f20e3c73704842134ff2e8adcabe105167eb03ad1cbb2b72f237",
        ),
        "dir-m1-0.0": (
            "9f6c699551b913434c2bdac918d87f8da62b0f8dfe9bc159961a7838aa1e37fb",
            "78c0bd56856a3740335b01cac45b9dc92c2882ae1a14f903414d05024cb9d493",
            "1031e1d0c70b82ed570bff3d5871930c81e25bfa4d002bf3bb0a95fc52995e8a",
            "7d4333903132f20e3c73704842134ff2e8adcabe105167eb03ad1cbb2b72f237",
        ),
        "dir-m1-0.5": (
            "7439bc3d5ad5f56f41c6210addfe11b0b7bf9cb2885016428b955c72039fee2d",
            "eeeaadc140e71a67c0ffc87189220679849c1b99f93aea4ea57fdd9d39b6f115",
            "4ff03444e8bc0cc3dd8f6a342e3fe80115b10cef916f14b04d1f9bc60a5f49bf",
            "36f8d1a35319cf97ff807856a81ed4973dda07e581fca50f1ce248a37db4f9d1",
        ),
        "equ-m1": (
            "bd9861105552400f6e02c76addfa9c4dda30b2061727040b379e2777ffab2928",
            "5779d1c24c5c4defd89a425c105d469fed5e93f362b58d760cbdbfa6b3ebf641",
        ),
        "dir-1e5": (
            "4ac2d636a458f89ed81949838fa99877fb3e617ef151d4774c66e512af836843",
            "27e511e1ee602f2aeec7ef568b769f3c7639c3faaab6409edb3c973f8f1f28e5",
            "0c4336c1273e5fb83ddb27db699b13bc29e725197056c56e24c646663a61d8bc",
            "47543ddd2182322694558793d75eeba2af1fbc6f669e9e52d206bf527ac2fe38",
        ),
        "equ-1e5": (
            "e56e07c8f781e7c31537abfc0f5bababd29fd87de742e93460cc02476e65bf00",
            "c22a6099a964ddb63606c65812604c3c623c4039b4df693782d94031d56f6bcc",
        ),
    }

    def test_names_cover_the_families(self):
        assert [name for name, _, _ in _pinned_estimate_families()] == list(self.DIGESTS)

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_estimates(self, name):
        families = {name: (sv, extra) for name, sv, extra in _pinned_estimate_families()}
        assert _pinned_estimates(*families[name]) == list(self.DIGESTS[name])


def test_control_matches_the_estimate_at_s_plus():
    # control_mfdp's tail is the estimate at s+: same rejections and counts.
    rng = np.random.default_rng(1703)
    for _ in range(200):
        m = int(rng.integers(1, 60))
        shape = DIR if rng.random() < 0.5 else EQU
        stats = rng.integers(-8, 9, m) * 0.25
        margins = 0.5 if shape is DIR else float(rng.choice([0.25, 0.5, 1.0]))
        sv = _sv(stats, margins, shape=shape)
        estimate = estimate_directional if shape is DIR else estimate_equivalence
        for gamma in (0.0, 0.1, 0.3):
            ctl = control_mfdp(sv, gamma)
            est = estimate(sv, ctl.s_plus)
            assert ctl.rejected.tobytes() == est.rejected.tobytes()
            assert (ctl.r, ctl.v_tilde) == (est.r, est.v_tilde)
            assert type(ctl.fdp_hat) is type(est.fdp_hat) and ctl.fdp_hat == est.fdp_hat
