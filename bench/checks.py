"""Independent routes that the workload checkers compare the library against.

Nothing here calls the code under test.  Each function recomputes a
result from its definition: a literal O(m^2) threshold scan, a direct
``signs @ data`` order statistic, full enumeration of sign flips and group
splits by integer bit-codes, and the closed-form closure membership.
Floating-point sums taken in another order than the library's are compared
with a tolerance fixed here from the float64 epsilon.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance for sums accumulated in a different order (float64).
REL_TOL = 1e-12


def order_index(alpha: float, n: int) -> int:
    """1-based rank of the ceil((1 - alpha) * n)-th smallest of n values."""
    return min(max(n - math.floor(alpha * n), 1), n)


def _cuts(stats: np.ndarray, margins: np.ndarray, directional: bool):
    if directional:
        diff = stats - margins
        return diff, -diff, None
    gap = margins - np.abs(stats)
    return gap, -gap, float(np.min(margins))


def literal_control(stats, margins, directional: bool, gamma: float) -> dict:
    """Median-FDP control by an O(m * grid) scan with direct comparisons.

    Every threshold of the grid {0} + {jump points of R and R-} is tried and
    R, R- are counted by comparing each cut point with it; no sorting,
    searching or cumulative counts are involved.
    """
    stats = np.asarray(stats, dtype=np.float64)
    margins = np.broadcast_to(np.asarray(margins, dtype=np.float64), stats.shape)
    reject, mirror, c = _cuts(stats, margins, directional)
    points = {0.0}
    points.update(float(x) for x in mirror if x > 0.0)
    if c is None:
        points.update(float(x) for x in reject if x > 0.0)
    else:
        # Equivalence: nothing is rejected at t >= c = min margin.
        points.update(float(x) for x in reject if 0.0 < x < c)
        if np.any(reject >= c):
            points.add(c)
    grid = np.array(sorted(points))
    r = (reject[None, :] > grid[:, None]).sum(axis=1)
    if c is not None:
        r = np.where(grid >= c, 0, r)
    r_minus = (mirror[None, :] > grid[:, None]).sum(axis=1)
    v = np.minimum(r, r_minus)
    fdp = v / np.maximum(r, 1)
    exceeding = np.flatnonzero(fdp > gamma)
    if exceeding.size == 0:
        s, idx = None, 0
    else:
        s, idx = float(grid[exceeding[-1]]), int(exceeding[-1]) + 1
    s_plus = float(grid[idx])
    if c is not None and s_plus >= c:
        rejected = np.empty(0, dtype=np.intp)
    else:
        rejected = np.flatnonzero(reject > s_plus)
    return {"s": s, "s_plus": s_plus, "r": int(r[idx]), "v_tilde": int(v[idx]), "rejected": rejected}


def compare_control(ctl, literal: dict) -> list[str]:
    """Differences between a ControlResult and :func:`literal_control`."""
    out = []
    for key in ("s", "s_plus", "r", "v_tilde"):
        if getattr(ctl, key) != literal[key]:
            out.append(f"{key}={getattr(ctl, key)!r}, literal scan gives {literal[key]!r}")
    if not np.array_equal(ctl.rejected, literal["rejected"]):
        out.append("rejected set differs from the literal scan")
    return out


def control_definition(sv, ctl, gamma: float, estimate) -> list[str]:
    """Check s and s_plus against their definitions using an estimator.

    ``estimate(sv, t)`` is the public estimator for the vector's shape.
    FDP~(s) > gamma >= FDP~(s_plus); the counts are constant on
    [s, s_plus) (no scan-grid point in between); and the rejection set is
    the estimator's rejection set at s_plus.
    """
    out = []
    at_plus = estimate(sv, ctl.s_plus)
    if not at_plus.fdp_hat <= gamma:
        out.append(f"FDP~(s_plus={ctl.s_plus!r}) = {at_plus.fdp_hat} > gamma")
    if not np.array_equal(at_plus.rejected, ctl.rejected):
        out.append("rejected set is not the estimator's set at s_plus")
    if (at_plus.r, at_plus.v_tilde) != (ctl.r, ctl.v_tilde):
        out.append(f"(r, v_tilde)=({ctl.r}, {ctl.v_tilde}) but the estimator gives "
                   f"({at_plus.r}, {at_plus.v_tilde}) at s_plus")
    if ctl.s is None:
        if ctl.s_plus != 0.0:
            out.append(f"s is None but s_plus={ctl.s_plus!r} != 0")
        return out
    if not ctl.s < ctl.s_plus:
        out.append(f"s={ctl.s!r} is not below s_plus={ctl.s_plus!r}")
        return out
    at_s = estimate(sv, ctl.s)
    if not at_s.fdp_hat > gamma:
        out.append(f"FDP~(s={ctl.s!r}) = {at_s.fdp_hat} does not exceed gamma")
    below = estimate(sv, float(np.nextafter(ctl.s_plus, -np.inf)))
    if (below.r, below.v_tilde) != (at_s.r, at_s.v_tilde):
        out.append("a scan-grid point lies strictly between s and s_plus")
    return out


def bh_definition(pvalues: np.ndarray, gamma: float, rejected: np.ndarray) -> list[str]:
    """Benjamini-Hochberg step-up: k = max{i : p_(i) <= gamma * i / m}."""
    p = np.asarray(pvalues, dtype=np.float64)
    m = p.size
    ordered = np.sort(p)
    passing = np.flatnonzero(ordered <= gamma * np.arange(1, m + 1) / m)
    k = int(passing[-1]) + 1 if passing.size else 0
    out = []
    if rejected.size != k:
        out.append(f"BH rejected {rejected.size}, the step-up rule gives {k}")
    elif k:
        others = np.setdiff1d(np.arange(m), rejected)
        if p[rejected].max() > ordered[k - 1] or (others.size and p[others].min() < ordered[k - 1]):
            out.append("BH rejected set is not the k smallest p-values")
    return out


def normal_pvalues(stats, margins, directional: bool, idx: np.ndarray) -> np.ndarray:
    """Standard-normal p-values at ``idx`` via math.erfc."""
    stats = np.asarray(stats, dtype=np.float64)
    margins = np.broadcast_to(np.asarray(margins, dtype=np.float64), stats.shape)
    out = np.empty(idx.size)
    for n, j in enumerate(idx):
        t, d = float(stats[j]), float(margins[j])
        if directional or t >= 0.0:
            x = t - d if directional else -(t - d)
        else:
            x = t + d
        out[n] = 0.5 * math.erfc(x / math.sqrt(2.0))
    return out


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def sam_direct(data: np.ndarray, signs: np.ndarray, scale: float, t: float, alpha: float) -> dict:
    """SAM bound from one ``signs @ data`` product and a partition.

    Statistics within the tolerance of t could fall on either side in the
    library's summation order, so the result is a range: lower and upper
    values of the observed count and of the order-statistic bound.
    """
    stats = (signs.astype(np.float64) @ data) * scale
    eps = REL_TOL * max(1.0, abs(t)) * max(1.0, float(np.abs(stats).max()))
    lo = (stats > t + eps).sum(axis=1)
    hi = (stats > t - eps).sum(axis=1)
    k = order_index(alpha, signs.shape[0])
    bound_lo = int(np.partition(lo, k - 1)[k - 1])
    bound_hi = int(np.partition(hi, k - 1)[k - 1])
    return {
        "r": (int(lo[0]), int(hi[0])),
        "v_bar": (min(bound_lo, int(lo[0])), min(bound_hi, int(hi[0]))),
        "rejected_sure": np.flatnonzero(stats[0] > t + eps),
        "rejected_maybe": np.flatnonzero(stats[0] > t - eps),
        "order_index": k,
    }


def compare_sam(est, direct: dict) -> list[str]:
    out = []
    for key in ("r", "v_bar"):
        lo, hi = direct[key]
        if not lo <= getattr(est, key) <= hi:
            out.append(f"sam_bound {key}={getattr(est, key)}, direct signs @ data gives {lo}..{hi}")
    if est.order_index != direct["order_index"]:
        out.append(f"order index {est.order_index} != {direct['order_index']}")
    sure, maybe = set(direct["rejected_sure"].tolist()), set(direct["rejected_maybe"].tolist())
    got = set(np.asarray(est.rejected).tolist())
    if not sure <= got <= maybe:
        out.append("sam_bound rejected set differs from the direct identity row")
    return out


def sign_flip_enumeration(x: np.ndarray, alpha: float) -> dict:
    """All 2^n sign patterns of n^(-1/2) * sum(s_i x_i); code 0 is the identity."""
    x = np.asarray(x, dtype=np.float64)
    codes = np.arange(1 << x.size, dtype=np.uint32)
    sums = np.zeros(codes.size)
    for i, xi in enumerate(x):
        sums += np.where((codes >> np.uint32(i)) & 1, -xi, xi)
    stats = sums / math.sqrt(x.size)
    return _exact_summary(stats, float(stats[0]), alpha)


def permutation_enumeration(z: np.ndarray, y: np.ndarray, alpha: float) -> dict:
    """All C(2n, n) splits as 2n-bit codes with n bits set; z is the identity."""
    pooled = np.concatenate([z, y]).astype(np.float64)
    n = z.size
    codes = np.arange(1 << (2 * n), dtype=np.uint32)
    codes = codes[np.bitwise_count(codes) == n]
    sums = np.zeros(codes.size)
    for i, value in enumerate(pooled):
        sums += np.where((codes >> np.uint32(i)) & 1, value, 0.0)
    stats = math.sqrt(n) * (2.0 * sums - pooled.sum()) / n
    identity = int(np.flatnonzero(codes == (1 << n) - 1)[0])
    return _exact_summary(stats, float(stats[identity]), alpha)


def _exact_summary(stats: np.ndarray, observed: float, alpha: float) -> dict:
    k = order_index(alpha, stats.size)
    critical = float(np.partition(stats, k - 1)[k - 1])
    return {"t_observed": observed, "critical_value": critical,
            "n_transforms": int(stats.size), "order_index": k}


def compare_exact(res, ref: dict) -> list[str]:
    out = []
    for key in ("n_transforms", "order_index"):
        if getattr(res, key) != ref[key]:
            out.append(f"{key}={getattr(res, key)}, enumeration gives {ref[key]}")
    for key in ("t_observed", "critical_value"):
        if not close(getattr(res, key), ref[key]):
            out.append(f"{key}={getattr(res, key)!r}, enumeration gives {ref[key]!r}")
    if not close(ref["t_observed"], ref["critical_value"]):
        expected = ref["t_observed"] > ref["critical_value"]
        if res.reject != expected:
            out.append(f"reject={res.reject}, enumeration gives {expected}")
    return out


def directional_closure(stats, margins, t: float) -> tuple[np.ndarray, int]:
    """Closed-form closure of the directional-basic family.

    Subset I is rejected iff its rejection count exceeds the global mirror
    count.  Returns the membership table over all bitmasks and
    t_alpha of the full rejection set, min(R, R-).
    """
    diff = np.asarray(stats, dtype=np.float64) - np.asarray(margins, dtype=np.float64)
    m = diff.size
    r_code = sum(1 << j for j in np.flatnonzero(diff > t).tolist())
    r_minus = int(np.count_nonzero(-diff > t))
    masks = np.arange(1 << m, dtype=np.uint32)
    member = np.bitwise_count(masks & np.uint32(r_code)) > r_minus
    member[0] = False
    return member, min(int(np.count_nonzero(diff > t)), r_minus)
