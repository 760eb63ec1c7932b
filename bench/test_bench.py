"""Self-tests of the benchmark: every checker rejects a wrong result, and a
tiny run emits every metric that BENCHMARK.json names, with its unit.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import dataclasses
import json
import shutil
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from artifact import control, core, simulate  # noqa: E402

TINY = {
    "analysis": {"m": 400, "m_stats": 500},
    "large-m": {"m": 20_000, "slice": 200},
    "mc-study": {"replicates": 3, "coverage_replicates": 20},
    "resampling-ct": {"ct_replicates": 1, "sam_m": 200, "sam_B": 256, "perm_n": 6, "flip_n": 10},
}


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def make(name, workdir, seed=11):
    return workloads.WORKLOADS[name](seed, workdir, TINY[name])


def first_output(workload, label):
    op = dict(workload.cycle)[label]
    output = op()
    assert workload.check(label, output) == []
    return output


def test_analysis_checker_flags_one_flipped_rejection(workdir):
    wl = make("analysis", workdir)
    for label in ("control", "control-statistics"):
        full = wl.collect(label, first_output(wl, label))
        rejected = full["result"]["rejected"]
        assert rejected, "the generated input should give rejections"
        outside = next(j for j in range(10**6) if j not in rejected)
        full["result"]["rejected"] = [outside] + rejected[1:]
        assert wl.verify(label, full)


def test_analysis_checker_flags_table_and_pvalue_changes(workdir):
    wl = make("analysis", workdir)
    full = wl.collect("control-equivalence", first_output(wl, "control-equivalence"))
    full["result"]["r"] = str(int(full["result"]["r"]) + 1)
    assert wl.verify("control-equivalence", full)
    full = wl.collect("pvalues", first_output(wl, "pvalues"))
    full["result"][3] = float(np.nextafter(full["result"][3], 2.0))
    assert wl.verify("pvalues", full)
    assert wl.verify("estimate", {"rc": 2, "stdout": ""})


def _grid(sv):
    reject = sv.statistics - sv.margins
    cuts = np.concatenate([reject[reject > 0], -reject[-reject > 0]])
    return np.concatenate([[0.0], np.unique(cuts)])


def _moved(sv, ctl, steps):
    """A self-consistent control result whose s_plus is ``steps`` grid points off."""
    grid = _grid(sv)
    idx = int(np.searchsorted(grid, ctl.s_plus)) + steps
    s_plus = float(grid[idx])
    est = workloads.estimators.estimate_directional(sv, s_plus)
    return types.SimpleNamespace(s=ctl.s, s_plus=s_plus, rejected=est.rejected, r=est.r,
                                 v_tilde=est.v_tilde, fdp_hat=est.fdp_hat, gamma=ctl.gamma)


@pytest.mark.parametrize("steps", [1, -1])
def test_large_m_checker_flags_s_plus_moved_one_grid_point(workdir, steps):
    wl = make("large-m", workdir)
    sv, ctl, est, pv, bh = first_output(wl, "directional")
    assert ctl.s is not None
    wrong = _moved(sv, ctl, steps)
    assert wl.check("directional", (sv, wrong, est, pv, bh))
    assert checks.control_definition(sv, wrong, workloads.GAMMA, workloads.estimators.estimate_directional)


def test_large_m_checker_flags_one_flipped_rejection(workdir):
    wl = make("large-m", workdir)
    sv, ctl, est, pv, bh = first_output(wl, "equivalence")
    rejected = ctl.rejected.copy()
    rejected[0] = np.setdiff1d(np.arange(sv.m), rejected)[0]
    wrong = dataclasses.replace(ctl, rejected=np.sort(rejected))
    assert wl.check("equivalence", (sv, wrong, est, pv, bh))
    flipped_bh = bh.copy()
    flipped_bh[-1] = np.setdiff1d(np.arange(sv.m), bh)[0]
    assert wl.check("equivalence", (sv, ctl, est, pv, flipped_bh))


def test_literal_scan_agrees_with_control_on_tie_heavy_grids():
    rng = np.random.default_rng(5)
    for trial in range(300):
        m = int(rng.integers(1, 40))
        stats = np.round(rng.normal(0.0, 2.0, m) * 2.0) / 2.0
        directional = trial % 2 == 0
        margins = 0.0 if directional else np.maximum(np.round(rng.uniform(0.5, 2.5, m) * 2) / 2, 0.5)
        shape = core.HypothesisShape.DIRECTIONAL if directional else core.HypothesisShape.EQUIVALENCE
        gamma = float(rng.choice([0.0, 0.1, 0.25, 0.5]))
        ctl = control.control_mfdp(core.StatisticVector(stats, margins, shape), gamma)
        assert checks.compare_control(ctl, checks.literal_control(stats, margins, directional, gamma)) == []


def test_literal_scan_flags_s_plus_moved_one_grid_point():
    stats = np.array([3.0, 2.5, 2.5, 1.0, -0.5, -1.0, -2.5, 0.5, 4.0])
    sv = core.StatisticVector(stats, 0.0, core.HypothesisShape.DIRECTIONAL)
    ctl = control.control_mfdp(sv, 0.25)
    literal = checks.literal_control(stats, 0.0, True, 0.25)
    assert checks.compare_control(ctl, literal) == []
    assert checks.compare_control(_moved(sv, ctl, 1), literal)


def test_mc_study_checker_flags_a_reordered_metric_row(workdir):
    wl = make("mc-study", workdir)
    table, coverage = first_output(wl, "study")
    rows = list(table.rows)
    rows[0], rows[1] = rows[1], rows[0]
    assert wl.check("study", (simulate.MetricTable(rows=tuple(rows), study=table.study), coverage))
    assert wl.check("study", (table, {**coverage, "coverage": coverage["coverage"] + 0.05}))


def test_resampling_checker_flags_off_by_one_results(workdir):
    wl = make("resampling-ct", workdir)
    output = first_output(wl, "resampling")
    sam = output["sam"]
    assert wl.check("resampling", {**output, "sam": dataclasses.replace(sam, v_bar=sam.v_bar + 1)})
    assert wl.check("resampling", {**output, "sam": dataclasses.replace(sam, v_bar=sam.v_bar - 1)})
    assert wl.check("resampling", {**output, "t_alpha": output["t_alpha"] + 1})
    perm = output["perm"]
    assert wl.check("resampling", {**output, "perm": dataclasses.replace(
        perm, critical_value=float(np.nextafter(perm.critical_value + 1e-9, 9.0)))})
    flip = output["flip"]
    assert wl.check("resampling", {**output, "flip": dataclasses.replace(
        flip, order_index=flip.order_index - 1)})


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10


def test_self_time_subtracts_the_union_of_children():
    parent = (1, "p", 0.0, 10.0, None, 0, None)
    kids = [(2, "a", 1.0, 4.0, 1, 0, None), (3, "b", 3.0, 6.0, 1, 9, None), (4, "c", 9.0, 12.0, 1, 0, None)]
    assert np.isclose(spans.self_time(parent, kids), 10.0 - 5.0 - 1.0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = run.run_workload(name, 3, 0.0, trace, sizes=TINY[name], setup_repeats=1,
                              lines=lambda line: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
