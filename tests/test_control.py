"""Tests for the threshold search (control_mfdp) and the p-value transforms."""

from __future__ import annotations

import hashlib
import tracemalloc

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
# Pinned results
# ---------------------------------------------------------------------------


def _hex(x):
    return None if x is None else float(x).hex()


def _control_digest(res) -> str:
    """sha256 of a ControlResult: every field, its type, and floats as hex."""
    keys = (
        type(res.gamma).__name__, _hex(res.gamma), _hex(res.s), _hex(res.s_plus),
        res.rejected.dtype.str, res.rejected.tobytes().hex(), type(res.r).__name__, res.r,
        type(res.v_tilde).__name__, res.v_tilde, type(res.fdp_hat).__name__, _hex(res.fdp_hat),
    )
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def _profile_digest(profile) -> str:
    """sha256 of a profile's arrays: dtype, shape and bytes of each."""
    h = hashlib.sha256()
    for a in (profile.thresholds, profile.r_grid, profile.r_minus_grid, profile._k):
        h.update(a.dtype.str.encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pinned_families():
    rng = np.random.default_rng(1501)
    yield "dir-continuous", _sv(rng.normal(0.5, 1.5, 60), 0.25)
    yield "equ-clipped", _sv(rng.normal(0.0, 1.2, 60), rng.uniform(0.5, 2.0, 60), shape=EQU)
    yield "dir-half-ties", _sv(rng.integers(-6, 7, 80) * 0.5, 0.5)
    yield "equ-half-ties", _sv(rng.integers(-8, 9, 80) * 0.25, 1.0, shape=EQU)
    yield "dir-zero-cuts", _sv(np.full(7, 1.5), 1.5)
    yield "equ-zero-cuts", _sv([1.0, -1.0, 1.0, -2.0, 0.5], 1.0, shape=EQU)
    for v in (-1.0, 0.0, 0.5, -0.0):
        yield f"m1-{v}", _sv([v], 0.0)
    yield "m1-equ", _sv([0.25], 1.0, shape=EQU)
    rng = np.random.default_rng(1502)
    shifted = rng.normal(0.0, 1.0, 100_000) + (rng.random(100_000) < 0.2) * 3.0
    yield "dir-1e5", _sv(shifted, 0.0)
    yield "equ-1e5", _sv(rng.normal(0.0, 1.0, 100_000) * 1.5, 1.0, shape=EQU)


class TestPinnedDigests:
    """control_mfdp results and build_profile arrays pinned bit for bit.

    The digests were computed before control_mfdp and build_profile were
    moved onto one row-wise scan kernel, so they check that the kernel
    reproduces the per-family profile route exactly: ``s`` (None
    included), the sign of ``s_plus``, the rejected indices, the integer
    counts and ``fdp_hat`` as a Python float.  The families cover
    directional and clipped equivalence cuts, half-integer ties, exact-zero
    cuts, m = 1 and m = 10^5, at gamma 0, 0.1 and 0.25.
    """

    PROFILE = {
        "dir-continuous": "2b8d372776a63104549f555524ff969b1dd7f147504edbcdbd1a5bd0a9fd414d",
        "equ-clipped": "9c144d5b7ac827fc5c9c19978cf832d02aa0469533a50810291c2b2eba25d6d8",
        "dir-half-ties": "d0f79248b7231cd7c49980c367cbf8c6a38a988c41554f8469bbc18e30a409cc",
        "equ-half-ties": "5cd7313def13f6f76b5473100625c82776ba6c3e2a30f09116c20654901df430",
        "dir-zero-cuts": "8d90785f943fa6560fc6e7f468b8bd5dce06c70f75f5bc72d31d6e86bebffa3b",
        "equ-zero-cuts": "3546af7b8c224609978c901d900ab2811047005a920b10ede876f4abf14ecfbf",
        "m1--1.0": "381edd9b091146391057ad428032292f335db482466a6dc4cb0aa0171f0b3d08",
        "m1-0.0": "f3562699320c935b4050e7e6514e1cd27b69d72385b002e5f8075300b16c3318",
        "m1-0.5": "59e9d4c3b68159cb527ae25250800adf6dcf0579d1f0fc8855136d8b8b5463e2",
        "m1--0.0": "5e95fe61e60d52a479ffca5f8905e92026e6c0fa38ef1a9c85055f08f97c2ef1",
        "m1-equ": "2cb394cefc126f8faed8fd72375d743e2a35d6afe4e77a01b01df147dcc69fcb",
        "dir-1e5": "31e61a085d0ebb6744d2fc8ddb6ac055ba7b7433269928561c75932e7df673a6",
        "equ-1e5": "099dd54d874970a364527f0f31d3bb844074af66663a3fb3149bf1d2fcefbcb7",
    }
    CONTROL = {  # at gamma 0, 0.1 and 0.25
        "dir-continuous": (
            "90083f818b01919e3924ae9de5a10d62b5e282c0f141b2a4ce98cb277955a0b7",
            "f0d15ae1550744fef26294707a245844afffb67a4ebe2d6614f76809c2db12e1",
            "dbd8f8a8b430144228b638c4e142ea328fcf87aa3af9f2a752e98c417e6b3173",
        ),
        "equ-clipped": (
            "3e8d63a30bf08a35875918d48dd0987533d86c7ad88d0330d9656db562c82b2f",
            "8dcb3d37e974774c42b074f20369e2733435ec8671900b2cf4b1cbd402b285c9",
            "ead31050eff2381db7444866eb0c3bc23c98e1991206fdb944cf9b425a88b8f2",
        ),
        "dir-half-ties": (
            "3a5578d2d8f353ed0283f88ae177072feff941c045cd2d0ee61ea32ec8026a01",
            "e73fef6876df9cf1c7052e06af3b4e0b9a5613fd73a3f6e99ab96c9a479e3f89",
            "e5d4de4e18b5d1a195cd4e0d567e6b2dad97e956569fdbbdb30f007ca9167648",
        ),
        "equ-half-ties": (
            "5a5beebac81c625f84a0ba924d8ff3501939d37af07855830367f67be49831f6",
            "285c1f77925fc9da06672f379f7779810e4a6d5200aa7845f647c314a5020d69",
            "bff3b60aaf5a61589b7ac2df2382bfc1135dd8bd3509a0e668cc550d68535e27",
        ),
        "dir-zero-cuts": (
            "838ea29ebc5a34cf56d71bec57071388da5bb5778348642fc148622dc3b45189",
            "916e439b630c27becaf57015ae7ccdf85fe153053d3297edce154e1c138296e5",
            "3f5f54d9d52145a26458b7334000316bbddb4d7d64c9e7768a93f9f7ce55cc24",
        ),
        "equ-zero-cuts": (
            "e72c3b1c8e231cbd70f6f8fddb23c0a3c09a241f867767a71023cab4ebeede17",
            "8a7e084b0ca4ab9445b2c2a5163105dc5195c8a3e6cf11bfca450d641308ca7a",
            "6fdd955088e8ff21639b47acd34cfd90a9756dfd96c8b86bbfa8607c1c46d705",
        ),
        "m1--1.0": (
            "838ea29ebc5a34cf56d71bec57071388da5bb5778348642fc148622dc3b45189",
            "916e439b630c27becaf57015ae7ccdf85fe153053d3297edce154e1c138296e5",
            "3f5f54d9d52145a26458b7334000316bbddb4d7d64c9e7768a93f9f7ce55cc24",
        ),
        "m1-0.0": (
            "838ea29ebc5a34cf56d71bec57071388da5bb5778348642fc148622dc3b45189",
            "916e439b630c27becaf57015ae7ccdf85fe153053d3297edce154e1c138296e5",
            "3f5f54d9d52145a26458b7334000316bbddb4d7d64c9e7768a93f9f7ce55cc24",
        ),
        "m1-0.5": (
            "05440089ac2dfb666ff3eca5fee3b50c8ee3e9ddcd0f80ffb311b77ba56f4eaa",
            "ef9c74ce202574f405d26821d2eb98b39677f65a757d8370af5ad804e5fb324b",
            "ccd19c3d8c67724daab70465595ad8580a08abd8bcad3fa267a5a810eef1443d",
        ),
        "m1--0.0": (
            "838ea29ebc5a34cf56d71bec57071388da5bb5778348642fc148622dc3b45189",
            "916e439b630c27becaf57015ae7ccdf85fe153053d3297edce154e1c138296e5",
            "3f5f54d9d52145a26458b7334000316bbddb4d7d64c9e7768a93f9f7ce55cc24",
        ),
        "m1-equ": (
            "05440089ac2dfb666ff3eca5fee3b50c8ee3e9ddcd0f80ffb311b77ba56f4eaa",
            "ef9c74ce202574f405d26821d2eb98b39677f65a757d8370af5ad804e5fb324b",
            "ccd19c3d8c67724daab70465595ad8580a08abd8bcad3fa267a5a810eef1443d",
        ),
        "dir-1e5": (
            "f73ac52157733c2f54cd85d35eb4cccaad4bda9aed35fee4211c472bb7cc9ba8",
            "abdaed4df7ef81cdba74b9f2562e43c8164aa93282329de653e95ac5d9607ca9",
            "1ea542c602395852c613be8e403a91a2eff0d377da4bb6b8fe30e4d5008c0199",
        ),
        "equ-1e5": (
            "cf542c65f9fc651b9a93d51bd8c355b20a5afc0f90878326d568c479236f8d50",
            "9e9799c0c69133d19bf8a34a35a26d91673053aa88411db6807b2ddc4db55834",
            "4a5344095ba90e214f8bb52336b37dab11c49185775a7e42b58dfe7a8301b869",
        ),
    }

    def test_names_cover_the_families(self):
        names = [name for name, _ in _pinned_families()]
        assert names == list(self.PROFILE) == list(self.CONTROL)

    @pytest.mark.parametrize("name", list(PROFILE))
    def test_profile_and_control(self, name):
        sv = dict(_pinned_families())[name]
        assert _profile_digest(build_profile(sv)) == self.PROFILE[name]
        got = [_control_digest(control_mfdp(sv, gamma)) for gamma in (0.0, 0.1, 0.25)]
        assert got == list(self.CONTROL[name])


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

    def test_peak_memory_stays_below_two_and_a_half_arrays(self):
        m = 100_000
        sv = _sv(np.random.default_rng(1701).normal(0.5, 1.5, m), 0.25)
        null = NullDensitySpec.standard_normal()
        directional_pvalues(sv, null)
        tracemalloc.start()
        try:
            directional_pvalues(sv, null)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * m


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

    def test_peak_memory_stays_below_two_and_a_half_arrays(self):
        m = 100_000
        sv = _sv(np.random.default_rng(1603).normal(0.0, 1.5, m), 1.0, shape=EQU)
        null = NullDensitySpec.standard_normal()
        equivalence_pvalues(sv, null)
        tracemalloc.start()
        try:
            equivalence_pvalues(sv, null)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * m


# ---------------------------------------------------------------------------
# Pinned p-values
# ---------------------------------------------------------------------------


def _logistic_cdf(x):
    return 1.0 / (1.0 + np.exp(-x))


_PVALUE_NULLS = {
    "standard-normal": NullDensitySpec.standard_normal(),
    "scaled-normal-0.7": NullDensitySpec.scaled_normal(0.7),
    "student-t-3": NullDensitySpec.student_t(3.0),
    "student-t-18": NullDensitySpec.student_t(18.0),
    "user-logistic": NullDensitySpec.from_cdf(_logistic_cdf),
}


def _pvalue_statistics(rng, m):
    """Quarter-integer ties, both zeros and a few far tails, then continuous values."""
    stats = rng.normal(0.0, 2.0, m)
    stats[: m // 2] = rng.integers(-12, 13, m // 2) * 0.25
    stats[: min(m, 8)] = [0.0, -0.0, 1.0, -1.0, 40.0, -40.0, 0.25, -0.25][: min(m, 8)]
    return stats


def _pinned_pvalue_families():
    rng = np.random.default_rng(1601)
    for shape, tag in ((DIR, "dir"), (EQU, "equ")):
        stats = _pvalue_statistics(rng, 400)
        yield f"{tag}-scalar", _sv(stats.copy(), 1.0, shape=shape)
        margins = rng.uniform(0.25, 2.0, 400)
        stats[8:40] = margins[8:40] * rng.choice([-1.0, 1.0], 32)  # |T| == delta exactly
        yield f"{tag}-per-hypothesis", _sv(stats, margins, shape=shape)
        for v in (-1.0, -0.0, 0.0):
            yield f"{tag}-m1-{v}", _sv([v], 1.0, shape=shape)
        yield f"{tag}-1e5", _sv(_pvalue_statistics(rng, 100_000), 0.75, shape=shape)


def _pvalue_digest(pv) -> str:
    """sha256 of a PValueVector's values: dtype, shape and bytes."""
    h = hashlib.sha256()
    h.update(pv.values.dtype.str.encode())
    h.update(repr(pv.values.shape).encode())
    h.update(pv.values.tobytes())
    return h.hexdigest()


def _pvalues(sv, null):
    transform = directional_pvalues if sv.shape is DIR else equivalence_pvalues
    return transform(sv, null)


def _two_branch_equivalence(sv, null):
    """The literal piecewise definition: 1 - F(T + delta) if T < 0, else F(T - delta)."""
    neg = sv.statistics < 0.0
    p = np.empty(sv.m, dtype=np.float64)
    p[neg] = null.sf_at(sv.statistics[neg] + sv.margins[neg])
    p[~neg] = null.cdf_at(sv.statistics[~neg] - sv.margins[~neg])
    return np.clip(p, 0.0, 1.0)


class TestPinnedPvalues:
    """Directional and equivalence p-values pinned bit for bit.

    The digests were computed with the two-branch equivalence route (one
    call per sign of T), before it became one pass over ``|T| - delta``.
    They cover the four built-in nulls and a user CDF (logistic),
    quarter-integer ties, both signed zeros, ``|T| == delta`` exactly,
    far tails that clip, scalar and per-hypothesis margins, m = 1 and
    m = 10^5.
    """

    DIGESTS = {  # family -> one digest per null, in _PVALUE_NULLS order
        "dir-scalar": (
            "da31eeddcd5f947b18f5dd8062e710886e759a9054631cd5c75dff7ad1a3675b",
            "711e4fa7cedb5ad8d5c0155e2044766cb41c5248c61ad5a399a24045b4148f9f",
            "e18e3e10da87eb4ba2c37184f361909a450f4ede674fc9e0e19f19f66f86e3bf",
            "9da8accc094a74d633b34a72d590cc861a9b8480f794fe0a387a6844b096bf19",
            "a6869e40e58c1f44d7971f511f71924e489b9f6de1eef1248fd52607793a2467",
        ),
        "dir-per-hypothesis": (
            "c48f5f0bc0c3ba2f3a63ebf17b736640244a01c6c50fa1aca351f935854cd222",
            "075aebf9084075cb471b7184cadc35b28f737183e2d336ace9002e9ee6ce376b",
            "648f2a944f35e064868291eb64ed0db3bc61a02f08d3c9b28959b1bb8afae873",
            "4c67499efde604f914d5179472c680342853b65eeb336162426604b4b36f6fa1",
            "1918a0392da35d84d32a72924eaccbc80dc0b1a9c4208b65e89e37e34b02517a",
        ),
        "dir-m1--1.0": (
            "ed60d7ce3942ea2108b29323da9213cb839d7eeafdecb199e946003113943a1a",
            "523cc10d50799bd715a4bae485eb78f545e09022d83123b1fe686e972d4381ab",
            "b165b06cbefa8bd3f8cb5e4cd0759679cd5a94de11550cc9b33a606989eda227",
            "0339daead7e57133f369b7d008644875ce247837cd918743e5cbb4d079dbfb60",
            "e8bf22827c2563fa36949e16f428f3b2fd6817709b7b4e2a6d5b95fa45180e9d",
        ),
        "dir-m1--0.0": (
            "674b57511ea3a562d6008a59cc54f9b558fae0dc6adebf3405083971947b9d54",
            "13da48c8c2e735198640961d11143a51747c7b2504d9059434cf7f9a48c706a4",
            "acc271d4617599750604ef98b0f4be099353c712b2e22c64d4cbb7c27b08d884",
            "d41d99b03cd6d732837bf70f5b35e0971611e3ad00bf321aa8846164ce9a13a0",
            "40249c572d2c39f0c1121b0eaa9b12f919a34d06efceff832240a49a46fc0ca9",
        ),
        "dir-m1-0.0": (
            "674b57511ea3a562d6008a59cc54f9b558fae0dc6adebf3405083971947b9d54",
            "13da48c8c2e735198640961d11143a51747c7b2504d9059434cf7f9a48c706a4",
            "acc271d4617599750604ef98b0f4be099353c712b2e22c64d4cbb7c27b08d884",
            "d41d99b03cd6d732837bf70f5b35e0971611e3ad00bf321aa8846164ce9a13a0",
            "40249c572d2c39f0c1121b0eaa9b12f919a34d06efceff832240a49a46fc0ca9",
        ),
        "dir-1e5": (
            "64cda1cb72111558d148d59de1931d44e2fada4a5ba9c9bf66c409c4e03d6c40",
            "8d64ba67b36e053bfd604c3c17e514b95ae31daf72c65d7dafe62f85f7aed315",
            "2821df633302623be93496aa0c0b276b91b50363c1372f606496df23fa3a2dd3",
            "c1ceac2abdbcf2a5c983abd2f416052f0517cb726f223cb8b282574ae03b9f95",
            "be6ee01ede2905a59d09b4e0fa5d4b922a6bc2b33dba35c4eff22ad7a2440099",
        ),
        "equ-scalar": (
            "7fac59273a1ba7c060b85a127a72fc392f22dffee3bfbcfc098d1457d3726323",
            "1dcaa0201a62e3b83d12ef290ad61803a98424e1fffc872b5807f18e812477a5",
            "3d2ab13cfcbcccd2facffa22386e68c3af2fd49e625283a43f1eb683c58e114f",
            "dc7128ad785328da27a55c3e152a1fccac137a9b1024305147d25dd39340fe96",
            "e2a7ddbb19226f98fff04b8c70ef92efc21ff742e3b183ed2a077963cd3e29d4",
        ),
        "equ-per-hypothesis": (
            "ce731bc70b75db906121bc0e645740bb9de7a9571e2ac799f2884d506f2c3e35",
            "0bc355348b7e462b55b8f7bcac8ce9e89adcc11f6b3342117d270375fc12c665",
            "64d986851e872a9d9424c0a73853aac039f321df83b9ca4ac53c1f1f0cad779e",
            "accc85f1a81856e1795907d6277b3390dc11ceb3fde7c7236dcfd5c5bce599d6",
            "fcbe7a4e8abdd053135fe1298fa8c9d56f72129e21e56237022575b946516109",
        ),
        "equ-m1--1.0": (
            "a2e3fc1de130b3856c276a89c25c1ced7f2f039559d8eff9a093fcae533481ed",
            "a2e3fc1de130b3856c276a89c25c1ced7f2f039559d8eff9a093fcae533481ed",
            "a2e3fc1de130b3856c276a89c25c1ced7f2f039559d8eff9a093fcae533481ed",
            "a2e3fc1de130b3856c276a89c25c1ced7f2f039559d8eff9a093fcae533481ed",
            "a2e3fc1de130b3856c276a89c25c1ced7f2f039559d8eff9a093fcae533481ed",
        ),
        "equ-m1--0.0": (
            "bc8b22971a7c02ef28f3cfc3ee6661e7c5e1e2b2b72303db8e1e5eb706562577",
            "df7c9b66e1be3a9c8dcd9d672a454c7546c184f54bfacebe44d9e796b764950a",
            "cd03f12e52805ebced6ad06b7c281dbb7926e7e191a05946fe8b8d1eae44ae5c",
            "9d8bb2453ce7b01e588c78b4be84689f426c61ccf35735d760ac599f520cbc51",
            "2b7b42a1de0cd0cca2c11fedc5f11b37a026ba79c8973fdd307177168ace1bcc",
        ),
        "equ-m1-0.0": (
            "bc8b22971a7c02ef28f3cfc3ee6661e7c5e1e2b2b72303db8e1e5eb706562577",
            "df7c9b66e1be3a9c8dcd9d672a454c7546c184f54bfacebe44d9e796b764950a",
            "cd03f12e52805ebced6ad06b7c281dbb7926e7e191a05946fe8b8d1eae44ae5c",
            "9d8bb2453ce7b01e588c78b4be84689f426c61ccf35735d760ac599f520cbc51",
            "2b7b42a1de0cd0cca2c11fedc5f11b37a026ba79c8973fdd307177168ace1bcc",
        ),
        "equ-1e5": (
            "efb3fd2b6067883302b1728b371dffdaa627f0c69f7d6007ded0d6c8e611e733",
            "e3124c951ef11a7603ce9548ad4184d572d22b0f53466caa7129b8021761eb85",
            "73e242f46a32b3f8260dc59c8e4b0849fad7ca5c3567d2836a1fde71962c5cab",
            "c2abf374bca466561fb9f719512dfdba4530362f3a5b3f0842fc1926976ed556",
            "a3d5bbd0b1bfd8b0fc539c1e293efc9207077b264ebe96b07e9529dcb6fd957c",
        ),
    }

    def test_names_cover_the_families(self):
        assert [name for name, _ in _pinned_pvalue_families()] == list(self.DIGESTS)

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_pvalues(self, name):
        sv = dict(_pinned_pvalue_families())[name]
        got = [_pvalue_digest(_pvalues(sv, null)) for null in _PVALUE_NULLS.values()]
        assert got == list(self.DIGESTS[name])

    @pytest.mark.parametrize("null", list(_PVALUE_NULLS))
    def test_equivalence_matches_the_two_branch_form(self, null):
        null = _PVALUE_NULLS[null]
        rng = np.random.default_rng(1602)
        for _ in range(60):
            m = int(rng.integers(1, 300))
            stats = _pvalue_statistics(rng, m) * rng.choice([0.5, 1.0, 3.0])
            margins = rng.uniform(0.1, 3.0, m) if rng.random() < 0.5 else float(rng.uniform(0.1, 3.0))
            if rng.random() < 0.5:
                stats = np.where(rng.random(m) < 0.3, np.broadcast_to(margins, (m,)), stats)
                stats *= rng.choice([-1.0, 1.0], m)
            sv = _sv(stats, margins, shape=EQU)
            got = equivalence_pvalues(sv, null).values
            want = _two_branch_equivalence(sv, null)
            assert got.tobytes() == want.tobytes()


class TestPvalueVectorAndCsv:
    def test_range_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PValueVector(values=np.array([0.5, 1.5]), shape=DIR)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PValueVector(values=np.array([np.nan]), shape=DIR)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), -5e-324])
    def test_range_check_rejects_non_finite_and_barely_outside(self, bad):
        with pytest.raises(ValueError, match=r"^p-values must all lie in \[0, 1\]$"):
            PValueVector(values=np.array([0.5, bad, 0.25]), shape=DIR)

    def test_range_check_accepts_both_ends(self):
        pv = PValueVector(values=np.array([-0.0, 1.0, 0.0]), shape=DIR)
        assert pv.values.tobytes() == np.array([-0.0, 1.0, 0.0]).tobytes()

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
