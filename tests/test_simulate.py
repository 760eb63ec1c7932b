"""Tests for the Monte Carlo harness: generation, studies, and metrics."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, fields

import numpy as np
import pytest

from artifact import (
    HypothesisShape,
    InfeasibleError,
    LocalTestFamily,
    MetricTable,
    ScenarioSpec,
    ScenarioTruth,
    StatisticVector,
    StudySpec,
    TransformationGroup,
    control_coverage,
    control_mfdp,
    generate,
    generate_statistics,
    indices_to_mask,
    read_pvalues_csv,
    run_closure,
    run_study,
    sam_bound,
)
from artifact import simulate
from artifact.core import _control_scan, _cuts
from artifact.simulate import STUDY_METHODS, study_statistics
from test_control import _literal_scan

DIR = HypothesisShape.DIRECTIONAL
EQU = HypothesisShape.EQUIVALENCE


class TestScenarioSpec:
    def test_validation(self):
        ok = dict(n=5, m=10, pi0=0.5)
        ScenarioSpec(**ok)
        with pytest.raises(ValueError, match="pi0"):
            ScenarioSpec(**{**ok, "pi0": 1.5})
        with pytest.raises(ValueError, match="rho"):
            ScenarioSpec(**{**ok, "rho": 1.0})
        with pytest.raises(ValueError, match="d must"):
            ScenarioSpec(**{**ok, "d": -0.5})
        with pytest.raises(ValueError, match="delta > 0"):
            ScenarioSpec(**{**ok, "shape": EQU})
        with pytest.raises(ValueError, match="noise"):
            ScenarioSpec(**{**ok, "noise": "cauchy"})
        with pytest.raises(ValueError, match="noise_df"):
            ScenarioSpec(**{**ok, "noise": "student-t", "noise_df": 2.0})
        with pytest.raises(ValueError, match="replicates"):
            ScenarioSpec(**{**ok, "replicates": 0})
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec(**{**ok, "seed": -1})

    def test_null_count_uses_guarded_floor(self):
        assert ScenarioSpec(n=5, m=10, pi0=0.3).n_true_requested == 3
        assert ScenarioSpec(n=5, m=7, pi0=1.0).n_true_requested == 7
        assert ScenarioSpec(n=5, m=10, pi0=0.25).n_true_requested == 2


class TestScenarioTruth:
    def test_counting_helpers(self):
        truth = ScenarioTruth(
            mu=np.array([0.0, 0.0, 2.0, 2.0]),
            null_mask=np.array([True, True, False, False]),
        )
        assert truth.n_false == 2
        assert truth.false_count(np.array([0, 2])) == 1
        assert truth.fdp(np.array([0, 2])) == 0.5
        assert truth.fdp(np.array([], dtype=int)) == 0.0
        assert truth.power_fraction(np.array([0, 2, 3])) == 1.0

    def test_power_is_nan_without_false_hypotheses(self):
        truth = ScenarioTruth(mu=np.zeros(3), null_mask=np.ones(3, dtype=bool))
        assert np.isnan(truth.power_fraction(np.array([0])))


class TestGeneration:
    def test_directional_truth_layout(self):
        spec = ScenarioSpec(n=4, m=6, pi0=0.5, d=1.5, delta=0.7, seed=3)
        _, truth = generate(spec, 0)
        # statistic-scale means: nulls at delta, false at delta + sqrt(n)*d
        np.testing.assert_allclose(truth.mu[:3], 0.7)
        np.testing.assert_allclose(truth.mu[3:], 0.7 + 2 * 1.5)
        np.testing.assert_array_equal(truth.null_mask, [True] * 3 + [False] * 3)

    def test_equivalence_truth_layout(self):
        spec = ScenarioSpec(n=4, m=5, pi0=0.6, d=0.5, shape=EQU, delta=1.0, seed=3)
        _, truth = generate(spec, 0)
        # nulls sit on alternating sides of the band, false ones at zero
        np.testing.assert_allclose(truth.mu, [2.0, -2.0, 2.0, 0.0, 0.0])
        np.testing.assert_array_equal(truth.null_mask, [True] * 3 + [False] * 2)

    def test_deterministic_given_seed_and_replicate(self):
        spec = ScenarioSpec(n=5, m=8, pi0=0.5, rho=0.3, d=1.0, seed=11, noise="laplace")
        a, _ = generate(spec, 2)
        b, _ = generate(spec, 2)
        np.testing.assert_array_equal(a.values, b.values)
        c, _ = generate(spec, 3)
        assert not np.array_equal(a.values, c.values)
        assert a.feature_names[0] == "h0001"

    def test_study_statistics_scale(self):
        spec = ScenarioSpec(n=9, m=2, pi0=1.0, delta=0.4)
        values = np.arange(18, dtype=float).reshape(9, 2)
        sv = study_statistics(values, spec)
        np.testing.assert_allclose(sv.statistics, 3.0 * values.mean(axis=0))
        np.testing.assert_array_equal(sv.margins, [0.4, 0.4])
        assert sv.shape is DIR

    def test_nonnormal_statistics_reuse_the_data_route(self):
        spec = ScenarioSpec(n=6, m=5, pi0=0.6, rho=0.2, d=0.8, noise="laplace", seed=9)
        sv, truth = generate_statistics(spec, 4)
        dm, truth2 = generate(spec, 4)
        np.testing.assert_array_equal(sv.statistics, study_statistics(dm.values, spec).statistics)
        np.testing.assert_array_equal(truth.mu, truth2.mu)

    def test_fast_path_matches_data_route_in_law(self):
        # same scenario through both routes: first/second moments agree
        spec = dict(n=4, m=3, pi0=1.0, rho=0.4, delta=0.6, seed=77)
        reps = 3000
        fast = np.array(
            [generate_statistics(ScenarioSpec(**spec), r)[0].statistics for r in range(reps)]
        )
        slow_spec = ScenarioSpec(**{**spec, "seed": 78})
        slow = np.array(
            [study_statistics(generate(slow_spec, r)[0].values, slow_spec) .statistics for r in range(reps)]
        )
        se_mean = 1.0 / np.sqrt(reps)
        assert np.all(np.abs(fast.mean(0) - 0.6) < 4 * se_mean)
        assert np.all(np.abs(slow.mean(0) - 0.6) < 4 * se_mean)
        assert np.all(np.abs(fast.std(0, ddof=1) - 1.0) < 0.08)
        assert np.all(np.abs(slow.std(0, ddof=1) - 1.0) < 0.08)

    @pytest.mark.parametrize("noise", ["normal", "laplace", "student-t"])
    def test_statistic_correlation_matches_rho(self, noise):
        rho = 0.6
        spec = ScenarioSpec(n=6, m=2, pi0=1.0, rho=rho, noise=noise, seed=5)
        reps = 4000
        stats = np.array([generate_statistics(spec, r)[0].statistics for r in range(reps)])
        corr = np.corrcoef(stats[:, 0], stats[:, 1])[0, 1]
        se = (1 - rho**2) / np.sqrt(reps)
        assert abs(corr - rho) < 4 * se

    def test_independent_blocks_decouple_null_and_false(self):
        spec = ScenarioSpec(
            n=4, m=4, pi0=0.5, rho=0.8, d=1.0, seed=21, independent_blocks=True
        )
        reps = 4000
        stats = np.array([generate_statistics(spec, r)[0].statistics for r in range(reps)])
        within_null = np.corrcoef(stats[:, 0], stats[:, 1])[0, 1]
        within_false = np.corrcoef(stats[:, 2], stats[:, 3])[0, 1]
        across = np.corrcoef(stats[:, 0], stats[:, 2])[0, 1]
        assert abs(within_null - 0.8) < 0.05
        assert abs(within_false - 0.8) < 0.05
        assert abs(across) < 0.06

    def test_unit_variance_for_heavy_tails(self):
        spec = ScenarioSpec(n=1, m=20000, pi0=1.0, noise="student-t", noise_df=5.0, seed=2)
        dm, _ = generate(spec, 0)
        assert abs(dm.values.std(ddof=1) - 1.0) < 0.03


class TestTruthCache:
    BASE = dict(n=6, m=9, pi0=0.5, d=0.5, delta=0.5, seed=1)

    def _truth(self, **kw):
        return generate_statistics(ScenarioSpec(**{**self.BASE, **kw}), 0)[1]

    @pytest.mark.parametrize("shape", [DIR, EQU])
    def test_cached_truth_equals_a_fresh_build(self, shape):
        spec = ScenarioSpec(**{**self.BASE, "shape": shape})
        cached = generate(spec, 3)[1]
        fresh = simulate._truth.__wrapped__(spec.n, spec.m, spec.pi0, spec.d, spec.shape, spec.delta)
        assert fresh is not cached
        for a, b in ((cached.mu, fresh.mu), (cached.null_mask, fresh.null_mask)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
            assert not a.flags.writeable
        assert cached.n_false == fresh.n_false == 5

    @pytest.mark.parametrize(
        "change",
        [dict(seed=2), dict(replicates=7), dict(rho=0.4), dict(noise="laplace"),
         dict(rho=0.4, independent_blocks=True)],
    )
    def test_fields_outside_the_truth_share_one_object(self, change):
        assert self._truth(**change) is self._truth()
        assert generate(ScenarioSpec(**{**self.BASE, **change}), 2)[1] is self._truth()

    @pytest.mark.parametrize(
        "change",
        [dict(n=7), dict(m=10), dict(pi0=0.7), dict(d=0.6), dict(shape=EQU), dict(delta=0.8)],
    )
    def test_each_truth_field_gives_its_own_truth(self, change):
        assert self._truth(**change) is not self._truth()

    def test_feature_names_are_shared_and_numbered(self):
        spec = ScenarioSpec(**self.BASE)
        a, b = generate(spec, 0)[0], generate(spec, 1)[0]
        assert a.feature_names is b.feature_names
        assert a.feature_names == tuple(f"h{j + 1:04d}" for j in range(spec.m))


class TestStudySpec:
    def _base(self, **kw):
        base = dict(
            n=5, m=10, pi0=0.5, rho=0.0, d=1.0, methods=("novel",), t=0.5, gamma=0.2
        )
        base.update(kw)
        return StudySpec(**base)

    def test_scalars_become_grids(self):
        study = self._base(pi0=[0.2, 0.8], rho=0.0, d=[0.5, 1.0, 2.0])
        assert study.pi0 == (0.2, 0.8)
        assert study.rho == (0.0,)
        assert study.d == (0.5, 1.0, 2.0)
        cells = list(study.cells())
        assert [cid for cid, _ in cells] == list(range(6))
        # product order: pi0 outermost, d innermost
        assert [(s.pi0, s.d) for _, s in cells] == [
            (0.2, 0.5), (0.2, 1.0), (0.2, 2.0), (0.8, 0.5), (0.8, 1.0), (0.8, 2.0),
        ]
        seeds = {s.seed for _, s in cells}
        assert len(seeds) == 6  # distinct per-cell seeds

    def test_method_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            self._base(methods=("novel", "bogus"))
        with pytest.raises(ValueError, match="repeat"):
            self._base(methods=("novel", "novel"))
        with pytest.raises(ValueError, match="non-empty"):
            self._base(methods=())

    def test_sam_constraints(self):
        with pytest.raises(ValueError, match="directional"):
            self._base(methods=("SAM-2",), shape=EQU, delta=1.0)
        with pytest.raises(ValueError, match="delta = 0"):
            self._base(methods=("SAM-2",), delta=0.5)
        with pytest.raises(InfeasibleError, match="use SAM-2 or reduce n"):
            self._base(methods=("SAM-full",), n=13)
        with pytest.raises(InfeasibleError, match="reduce m or drop"):
            self._base(methods=("SAM+CT",), m=13)
        with pytest.raises(ValueError, match="directional"):
            self._base(methods=("novel-randomized",), shape=EQU, delta=1.0)

    def test_json_round_trip(self, tmp_path):
        study = self._base(
            n=7, m=9, pi0=[0.2, 1.0], rho=[0.0, 0.3], d=[1.0, 2.0], methods=("novel", "BH"),
            t=0.75, gamma=0.3, shape=EQU, delta=1.5, noise="laplace", noise_df=7.0,
            replicates=11, seed=42, independent_blocks=True,
        )
        defaults = {f.name: f.default for f in fields(StudySpec) if f.default is not MISSING}
        assert all(getattr(study, name) != value for name, value in defaults.items())
        shared = {f.name for f in fields(ScenarioSpec)} - {"pi0", "rho", "d", "seed"}
        for _, cell in study.cells():
            assert all(getattr(cell, name) == getattr(study, name) for name in shared)
        raw = study.to_dict()
        assert list(raw) == [f.name for f in fields(StudySpec)]
        again = StudySpec.from_dict(raw)
        assert again == study
        path = tmp_path / "study.json"
        path.write_text(json.dumps(raw))
        assert StudySpec.from_json(path) == study

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="unknown study spec keys.*typo"):
            StudySpec.from_dict({"typo": 1})
        with pytest.raises(ValueError, match="missing required keys.*gamma"):
            StudySpec.from_dict({"n": 5, "m": 10, "pi0": 0.5, "rho": 0, "d": 1,
                                 "methods": ["novel"], "t": 0.5})
        with pytest.raises(ValueError, match="shape must be"):
            StudySpec.from_dict({"n": 5, "m": 10, "pi0": 0.5, "rho": 0, "d": 1,
                                 "methods": ["novel"], "t": 0.5, "gamma": 0.2,
                                 "shape": "two-sided"})

    @pytest.mark.parametrize(
        "key, value",
        [("n", 5.5), ("n", True), ("m", 10.0), ("replicates", 2.5), ("seed", 1.5),
         ("independent_blocks", "no"), ("independent_blocks", 1), ("delta", "0.5"),
         ("noise_df", "five"), ("noise_df", False), ("pi0", True), ("rho", [0.0, "0.5"]),
         ("t", True), ("gamma", "0.1"), ("methods", "novel"), ("methods", {"novel": 1})],
    )
    def test_from_json_rejects_mistyped_values(self, tmp_path, key, value):
        raw = {**self._base(rho=0.3).to_dict(), key: value}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"study spec .*study.json: {key} must be"):
            StudySpec.from_json(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [("pi0", [0.5, 1.5], "pi0 must be in"), ("rho", [0.0, 0.2, 1.0], "rho must be in"),
         ("d", [1.0, -1.0], "d must be >= 0"), ("d", [1.0, math.inf], "d must be a finite number"),
         ("delta", math.nan, "delta must be a finite number"),
         ("noise_df", math.nan, "noise_df must be a finite number"),
         ("t", math.inf, "t must be a finite number")],
    )
    def test_every_grid_cell_is_validated_at_construction(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            self._base(**{key: value})

    def test_seed_is_validated_at_construction(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            self._base(seed=-1)
        assert self._base(seed=np.int64(3)).seed == 3

    def test_from_json_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            StudySpec.from_json(path)


class TestRunStudy:
    def _study(self, **kw):
        base = dict(
            n=5,
            m=30,
            pi0=[0.5, 1.0],
            rho=0.0,
            d=1.5,
            methods=("novel", "novel-randomized", "SAM-2", "BH", "LR"),
            t=1.0,
            gamma=0.25,
            replicates=60,
            seed=2026,
        )
        base.update(kw)
        return StudySpec(**base)

    def test_thread_count_does_not_change_results(self):
        study = self._study()
        one = run_study(study, threads=1)
        two = run_study(study, threads=2)
        assert one.rows == two.rows
        assert one.study == study.to_dict()

    def test_metrics_present_per_method(self):
        table = run_study(self._study(), threads=2)
        # cell 0 has false hypotheses: novel reports its full metric set
        for metric in (
            "mean_fdp_estimate", "mean_fdp_at_t", "p_fdp_le_estimate",
            "p_control", "mean_rejections", "power",
        ):
            value, se = table.get(0, "novel", metric)
            assert np.isfinite(value) and se >= 0
        for metric in ("mean_fdp_estimate", "p_fdp_le_estimate", "floor_rate"):
            table.get(0, "novel-randomized", metric)
        for method in ("BH", "LR"):
            table.get(0, method, "p_control")
        # cell 1 is all-null: power rows are absent everywhere
        with pytest.raises(KeyError):
            table.get(1, "novel", "power")
        with pytest.raises(KeyError):
            table.get(1, "BH", "power")

    def test_sam2_rows_equal_novel_estimate_rows(self):
        table = run_study(self._study(), threads=1)
        for cell in (0, 1):
            assert table.get(cell, "SAM-2", "mean_fdp_estimate") == table.get(
                cell, "novel", "mean_fdp_estimate"
            )
            assert table.get(cell, "SAM-2", "p_fdp_le_estimate") == table.get(
                cell, "novel", "p_fdp_le_estimate"
            )

    def test_probability_metrics_lie_in_unit_interval(self):
        table = run_study(self._study(), threads=2)
        for row in table.rows:
            if row.metric.startswith("p_") or row.metric == "floor_rate":
                assert 0.0 <= row.value <= 1.0
                assert 0.0 <= row.se <= 0.5

    def test_csv_output(self, tmp_path):
        table = run_study(self._study(replicates=10), threads=1)
        path = tmp_path / "metrics.csv"
        table.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cell_id,pi0,rho,d,method,metric,value,se"
        assert len(lines) == len(table.rows) + 1
        first = lines[1].split(",")
        assert first[4] == "novel" and first[5] == "mean_fdp_estimate"
        # values survive a float round trip
        row = table.rows[0]
        assert float(first[6]) == row.value

    def test_summary_dict_shape(self):
        table = run_study(self._study(replicates=5), threads=1)
        summary = table.summary_dict()
        assert summary["study"]["seed"] == 2026
        assert len(summary["rows"]) == len(table.rows)
        assert {"cell_id", "method", "metric", "value", "se"} <= set(summary["rows"][0])

    def test_get_raises_for_missing_row(self):
        table = run_study(self._study(replicates=5), threads=1)
        with pytest.raises(KeyError):
            table.get(0, "novel", "no_such_metric")


class TestSamFullPath:
    def test_matches_generic_sam_bound(self):
        study = StudySpec(
            n=6, m=12, pi0=0.5, rho=0.3, d=0.8,
            methods=("SAM-full",), t=0.5, gamma=0.2, replicates=4, seed=42,
        )
        table = run_study(study, threads=1)
        (cell_id, spec), = study.cells()
        sqrt_n = np.sqrt(spec.n)
        group = TransformationGroup.sign_flip_full(spec.n)
        fdp_bars = []
        for rep in range(spec.replicates):
            dm, _ = generate(spec, rep)
            est = sam_bound(dm.values, lambda x: sqrt_n * x.mean(axis=0), group, study.t)
            fdp_bars.append(est.fdp_bar)
        value, _ = table.get(cell_id, "SAM-full", "mean_fdp_estimate")
        assert value == np.mean(fdp_bars)


class TestSamCtPath:
    def test_bound_metrics_present_and_sane(self):
        study = StudySpec(
            n=6, m=8, pi0=0.5, rho=0.0, d=1.0,
            methods=("SAM+CT",), t=0.8, gamma=0.2, replicates=6, seed=7,
        )
        table = run_study(study, threads=1)
        bound, _ = table.get(0, "SAM+CT", "mean_ct_bound")
        prob, _ = table.get(0, "SAM+CT", "p_v_le_ct_bound")
        assert 0.0 <= bound <= 8.0
        assert 0.0 <= prob <= 1.0

    @pytest.mark.parametrize("n", [6, 11])
    def test_matches_generic_sam_subset(self, n):
        # n <= 10 uses the full sign-flip group, larger n a 256-draw subsample.
        study = StudySpec(
            n=n, m=8, pi0=0.5, rho=0.2, d=1.0,
            methods=("SAM+CT",), t=0.6, gamma=0.2, replicates=5, seed=11,
        )
        table = run_study(study)
        (cell_id, spec), = study.cells()
        if n <= 10:
            group = TransformationGroup.sign_flip_full(n)
        else:
            group_seed = int(np.random.SeedSequence([spec.seed, 7301]).generate_state(1)[0])
            group = TransformationGroup.sign_flip_subsample(n, 256, group_seed)
        sqrt_n = np.sqrt(n)
        bounds, covered = [], []
        for rep in range(spec.replicates):
            dm, truth = generate(spec, rep)
            family = LocalTestFamily.sam_subset(
                dm.values, lambda x: sqrt_n * x.mean(axis=0), group, study.t
            )
            closure = run_closure(family)
            rejected = np.flatnonzero(study_statistics(dm.values, spec).statistics > study.t)
            bound = closure.t_alpha(indices_to_mask(rejected))
            bounds.append(bound)
            covered.append(truth.false_count(rejected) <= bound)
        assert table.get(cell_id, "SAM+CT", "mean_ct_bound")[0] == np.mean(bounds)
        assert table.get(cell_id, "SAM+CT", "p_v_le_ct_bound")[0] == np.mean(covered)


class TestPvalueExport:
    def test_export_writes_one_file_per_cell(self, tmp_path):
        study = StudySpec(
            n=5, m=12, pi0=[0.5, 1.0], rho=0.0, d=1.0,
            methods=("flexible-pvals-export",), t=0.5, gamma=0.2,
            replicates=3, seed=1,
        )
        table = run_study(study, out_dir=tmp_path, threads=2)
        for cell in (0, 1):
            path = tmp_path / f"cell{cell:03d}_pvalues.csv"
            assert path.exists()
            assert read_pvalues_csv(path).size == 12
            assert table.get(cell, "flexible-pvals-export", "n_exported")[0] == 1.0

    def test_no_out_dir_means_no_files(self):
        study = StudySpec(
            n=5, m=6, pi0=0.5, rho=0.0, d=1.0,
            methods=("flexible-pvals-export",), t=0.5, gamma=0.2,
            replicates=2, seed=1,
        )
        table = run_study(study, threads=1)
        assert table.get(0, "flexible-pvals-export", "n_exported")[0] == 0.0


class TestRowOrder:
    """The exact (cell, method, metric) row sequence the MetricTable docstring states."""

    METHODS = (
        "flexible-pvals-export", "LR", "BH", "SAM+CT", "SAM-2", "SAM-full",
        "novel-randomized", "novel",
    )
    METRICS = {
        "novel": ("mean_fdp_estimate", "mean_fdp_at_t", "p_fdp_le_estimate",
                  "p_control", "mean_rejections", "power"),
        "novel-randomized": ("mean_fdp_estimate", "p_fdp_le_estimate", "floor_rate"),
        "SAM-full": ("mean_fdp_estimate", "p_fdp_le_estimate"),
        "SAM-2": ("mean_fdp_estimate", "p_fdp_le_estimate"),
        "SAM+CT": ("mean_ct_bound", "p_v_le_ct_bound"),
        "BH": ("p_control", "mean_rejections", "power"),
        "LR": ("p_control", "mean_rejections", "power"),
        "flexible-pvals-export": ("n_exported",),
    }

    @pytest.mark.parametrize("with_out_dir", [False, True])
    def test_every_method_in_documented_order(self, tmp_path, with_out_dir):
        assert set(self.METHODS) == set(STUDY_METHODS)
        study = StudySpec(
            n=6, m=8, pi0=[0.5, 1.0], rho=0.0, d=1.0, methods=self.METHODS,
            t=0.5, gamma=0.2, replicates=3, seed=8,
        )
        table = run_study(study, out_dir=tmp_path if with_out_dir else None)
        expected = [
            (cell, method, metric)
            for cell in (0, 1)
            for method in self.METHODS
            for metric in self.METRICS[method]
            # cell 1 is all-null: no hypothesis is false, so no power row
            if not (cell == 1 and metric == "power")
        ]
        assert [(r.cell_id, r.method, r.metric) for r in table.rows] == expected
        for cell in (0, 1):
            exported = table.get(cell, "flexible-pvals-export", "n_exported")
            assert exported == ((1.0, 0.0) if with_out_dir else (0.0, 0.0))


class TestControlCoverage:
    def test_all_null_coverage_at_least_half(self):
        spec = ScenarioSpec(n=5, m=40, pi0=1.0, rho=0.0, replicates=400, seed=31)
        report = control_coverage(spec, gamma=0.1)
        assert report["replicates"] == 400
        assert report["coverage"] >= 0.5 - 3 * report["se"]

    def test_gamma_validation(self):
        spec = ScenarioSpec(n=5, m=10, pi0=1.0)
        with pytest.raises(ValueError, match="gamma"):
            control_coverage(spec, gamma=1.0)


def _mfdp_coverage(spec: ScenarioSpec, gamma: float) -> dict:
    """control_coverage as one control_mfdp call per replicate."""
    hits = []
    for rep in range(spec.replicates):
        sv, truth = generate_statistics(spec, rep)
        hits.append(truth.fdp(control_mfdp(sv, gamma).rejected) <= gamma)
    p = float(np.mean(hits))
    return {"gamma": float(gamma), "coverage": p, "se": float(np.sqrt(p * (1 - p) / len(hits))),
            "replicates": spec.replicates}


class TestCoverageBlockScan:
    """The block scan of control_coverage against control_mfdp, row by row.

    Both run the one kernel, ``core._control_scan``, so every row is also
    checked against the literal O(m^2) scan of ``tests/test_control.py``.
    """

    def _check_rows(self, stats: np.ndarray, delta: float, shape, gamma: float):
        sv0 = StatisticVector(stats[0], delta, shape)
        k = _cuts(stats, sv0.margins, shape)
        exceeds, s_at, s_plus = _control_scan(k, gamma)
        null_mask = np.random.default_rng(stats.shape[1]).random(stats.shape[1]) < 0.5
        for row, k_row, e, s_row, s in zip(stats, k, exceeds, s_at, s_plus):
            ctl = control_mfdp(StatisticVector(row, delta, shape), gamma)
            assert s == ctl.s_plus
            assert np.signbit(s) == np.signbit(ctl.s_plus)
            rejected = np.flatnonzero(k_row > s)
            np.testing.assert_array_equal(rejected, ctl.rejected)
            fdp = np.count_nonzero(null_mask[rejected]) / max(rejected.size, 1)
            ctl_fdp = np.count_nonzero(null_mask[ctl.rejected]) / max(ctl.r, 1)
            assert (fdp <= gamma) == (ctl_fdp <= gamma)
            want = _literal_scan(row.tolist(), sv0.margins.tolist(), shape, gamma)
            assert (s_row if e else None) == want["s"]
            assert s == want["s_plus"]
            assert rejected.tolist() == want["rejected"]
        return s_plus

    @pytest.mark.parametrize("gamma", [0.0, 0.05, 0.1, 0.25, 0.5])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_gridded_statistics_with_ties_and_zero_cuts(self, gamma, delta):
        # Half-integer statistics give R == R- ties, repeated |k| and, at
        # delta in the grid, exact-zero cuts.
        stats = np.random.default_rng(5).integers(-6, 7, size=(300, 12)) * 0.5
        self._check_rows(stats, delta, DIR, gamma)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25])
    def test_continuous_statistics(self, gamma):
        stats = np.random.default_rng(6).normal(0.3, 1.5, size=(200, 40))
        self._check_rows(stats, 0.0, DIR, gamma)

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_single_hypothesis(self, gamma):
        stats = np.array([[-1.0], [0.0], [0.5], [2.0], [-0.0]])
        self._check_rows(stats, 0.0, DIR, gamma)

    def test_nothing_exceeds_and_everything_is_rejected(self):
        stats = np.array([[1.0, 2.0, 3.0, 2.0], [-1.0, -2.0, -3.0, -0.5], [0.0, 0.0, 0.0, 0.0]])
        s_plus = self._check_rows(stats, 0.0, DIR, 0.0)
        np.testing.assert_array_equal(s_plus, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25])
    def test_equivalence_cuts(self, gamma):
        rng = np.random.default_rng(7)
        self._check_rows(rng.integers(-8, 9, size=(200, 10)) * 0.25, 1.0, EQU, gamma)
        self._check_rows(rng.normal(0.0, 1.5, size=(200, 15)), 1.2, EQU, gamma)

    @pytest.mark.parametrize(
        "spec",
        [
            dict(n=10, m=30, pi0=0.6, d=0.3),
            dict(n=10, m=1, pi0=1.0),
            dict(n=10, m=20, pi0=0.5, d=0.05, shape=EQU, delta=1.2),
            dict(n=10, m=25, pi0=0.5, rho=0.5, d=0.4, independent_blocks=True),
            dict(n=6, m=20, pi0=0.7, rho=0.3, d=0.3, noise="laplace"),
        ],
        ids=["directional", "m1", "equivalence", "blocks", "laplace"],
    )
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25])
    def test_coverage_equals_one_control_mfdp_per_replicate(self, spec, gamma):
        scenario = ScenarioSpec(**spec, replicates=120, seed=8)
        assert control_coverage(scenario, gamma) == _mfdp_coverage(scenario, gamma)

    def test_blocks_straddling_the_replicates_change_nothing(self, monkeypatch):
        spec = ScenarioSpec(n=10, m=16, pi0=0.75, rho=0.3, d=0.4, replicates=50, seed=9)
        one_block = control_coverage(spec, 0.1)
        # 3 rows per block: 16 full blocks and a last block of 2 rows.
        monkeypatch.setattr(simulate, "_COVERAGE_BLOCK_CELLS", 3 * spec.m + 1)
        assert control_coverage(spec, 0.1) == one_block == _mfdp_coverage(spec, 0.1)


def _row_digest(table: MetricTable) -> str:
    """sha256 of the rows with floats as hex, so equal digests mean equal bits."""
    keys = [
        (r.cell_id, float(r.pi0).hex(), float(r.rho).hex(), float(r.d).hex(),
         r.method, r.metric, float(r.value).hex(), float(r.se).hex())
        for r in table.rows
    ]
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def _coverage_digest(reports: list[dict]) -> str:
    keys = [
        (float(r["gamma"]).hex(), float(r["coverage"]).hex(), float(r["se"]).hex(), r["replicates"])
        for r in reports
    ]
    return hashlib.sha256(repr(keys).encode()).hexdigest()


class TestGoldenDigests:
    """Study rows and coverage reports pinned bit for bit.

    The digests were computed before the replicate loop was restructured
    (truth cache, SAM-full buffer, block-scanned coverage), so they check
    that the faster routes reproduce the straightforward ones exactly.
    """

    MC_STUDY = dict(
        n=10, m=40, pi0=(0.2, 0.5), rho=0.0, d=(2.0, 3.0),
        methods=("novel", "novel-randomized", "SAM-2", "SAM-full", "BH", "LR"),
        t=1.0, gamma=0.1, replicates=20,
    )
    SAM_CT_STUDY = dict(
        n=10, m=8, pi0=0.5, rho=(0.0, 0.3), d=1.0, methods=("novel", "SAM+CT"),
        t=1.0, gamma=0.1, replicates=4,
    )

    @pytest.mark.parametrize(
        "name, seed, digest",
        [
            ("MC_STUDY", 5121, "56f59b9b4e77df63e509d77a47959b276b43ffcbfe12ec35b2287829d26d449e"),
            ("MC_STUDY", 13101, "7bb83de5b53427d59e14bd3dcbcfb503633026eb2db88622dc890ccfb5fe3f50"),
            ("SAM_CT_STUDY", 5121, "4dec82a06b51397d36ba27cf6ccd9b40f39f711d46aa31a3e51d9777c9c2aeaa"),
            ("SAM_CT_STUDY", 777, "e1288dbc1f4a9637a905243c9c5981340578e56b88170a65023400a3bd29a293"),
        ],
    )
    def test_study_rows(self, name, seed, digest):
        table = run_study(StudySpec(**getattr(self, name), seed=seed))
        assert _row_digest(table) == digest

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (dict(n=10, m=30, pi0=0.6, d=0.5),
             "557eb6e91621abcbc0b85e3c8cdb94d7eb069716087030f5c74a9a6bc6d7b3dd"),
            (dict(n=10, m=30, pi0=0.5, d=0.05, shape=EQU, delta=1.5),
             "69080d2190828545ec84079373c815a81d39f7e1e8262006de80755b16c2dda0"),
            (dict(n=10, m=100, pi0=1.0, rho=0.5),
             "7b2daa5577e7e1429ab0e66be7df52c8987325486eb2d640dde8380102ad2772"),
            (dict(n=10, m=30, pi0=0.5, rho=0.4, d=0.5, independent_blocks=True),
             "cd35fdc410b6b92a706c7fd51fc22b2b91c3ea27cdb9024af63a40f76ae2cf99"),
            (dict(n=8, m=30, pi0=0.7, rho=0.2, d=0.4, noise="laplace"),
             "555290d29835ad79b88357933f92876dd79872a151e327580aa0d659c370745e"),
        ],
        ids=["directional", "equivalence", "rho", "independent-blocks", "laplace"],
    )
    def test_coverage_reports(self, spec, digest):
        scenario = ScenarioSpec(**spec, replicates=300, seed=4242)
        reports = [control_coverage(scenario, gamma) for gamma in (0.0, 0.1, 0.25)]
        assert _coverage_digest(reports) == digest
