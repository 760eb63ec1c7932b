"""The four closed-loop workloads: seeded inputs, the op cycle, and checks.

Each workload builds every input from ``seed`` before timing starts, so the
program only ever sees generated inputs.  ``cycle`` is the fixed list of
``(label, op)`` pairs one client runs in order and repeats; an op returns
its raw output, and ``check(label, output)`` returns a list of problems
(empty when the output is right).  Checks run outside the timed region and
compare against routes independent of the code under test (see
``checks.py``) or against references verified that way at set-up.

Library functions are always looked up as module attributes at call time
(``control.control_mfdp``), so a traced run that patches those attributes
sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import checks
from artifact import baselines, cli, control, core, ct_oracle, estimators, simulate, stats

DIRECTIONAL = core.HypothesisShape.DIRECTIONAL
EQUIVALENCE = core.HypothesisShape.EQUIVALENCE
GAMMA = 0.1


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _row_keys(table) -> list[tuple]:
    """MetricTable rows with floats as hex, so equality is bit equality."""
    return [
        (r.cell_id, float(r.pi0).hex(), float(r.rho).hex(), float(r.d).hex(),
         r.method, r.metric, float(r.value).hex(), float(r.se).hex())
        for r in table.rows
    ]


class Workload:
    name = ""
    sizes: dict = {}
    cycle: list  # (label, op) pairs, set by each workload

    def __init__(self, seed: int, workdir: Path, sizes: dict | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = {**self.sizes, **(sizes or {})}
        # Problems found while verifying references at set-up; each one is
        # reported as a failed op.
        self.setup_problems: list[str] = []

    def check(self, label: str, output) -> list[str]:
        raise NotImplementedError

    def crosscheck(self) -> list[dict]:
        """ROADMAP baseline figures for this workload's layers, re-measured."""
        return []


class Analysis(Workload):
    """The analyst's path: CLI calls on a raw two-group CSV and a statistics file."""

    name = "analysis"
    sizes = {"n": 10, "m": 20_000, "m_stats": 50_000}

    def __init__(self, seed, workdir, sizes=None):
        super().__init__(seed, workdir, sizes)
        n, m = self.size["n"], self.size["m"]
        rng = _rng(seed, 1)
        values = rng.standard_normal((2 * n, m))
        values[:n, rng.permutation(m)[: m // 10]] += 1.5
        group = np.asarray(["treat"] * n + ["ctrl"] * n)
        names = tuple(f"f{j:05d}" for j in range(m))
        self.data_csv = self.workdir / "data.csv"
        with open(self.data_csv, "w", encoding="utf-8") as fh:
            fh.write("group," + ",".join(names) + "\n")
            for label, row in zip(group, values):
                fh.write(label + "," + ",".join(format(v, ".17g") for v in row) + "\n")

        m_stats = self.size["m_stats"]
        st = rng.standard_normal(m_stats)
        st[rng.permutation(m_stats)[: m_stats // 10]] += 3.0
        margins = rng.choice(np.asarray([0.0, 0.5]), size=m_stats)
        self.stats_csv = self.workdir / "stats.csv"
        with open(self.stats_csv, "w", encoding="utf-8") as fh:
            fh.write("index,statistic,margin\n")
            for j in range(m_stats):
                fh.write(f"{j},{st[j]:.17g},{margins[j]:.17g}\n")

        self.json_out = self.workdir / "out.json"
        self.p_out = self.workdir / "p.csv"
        data, sfile = str(self.data_csv), str(self.stats_csv)
        self.argv = {
            "control": ["control", data, "--delta", "0", "--gamma", str(GAMMA), "--out", str(self.json_out)],
            "estimate": ["estimate", data, "--delta", "0", "--t", "1", "--out", str(self.json_out)],
            "pvalues": ["pvalues", data, "--delta", "0", "--null", "student-t:18", "--out", str(self.p_out)],
            "control-equivalence": ["control", data, "--delta", "2", "--shape", "equivalence", "--gamma", str(GAMMA)],
            "control-statistics": ["control", sfile, "--gamma", str(GAMMA), "--out", str(self.json_out)],
        }
        self.cycle = [(label, self._op(argv)) for label, argv in self.argv.items()]
        self.expected = self._library_route(values, names, group, st, margins)

    @staticmethod
    def _op(argv):
        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
            return {"rc": rc, "stdout": buf.getvalue()}
        return op

    @staticmethod
    def _library_route(values, names, group, st, margins) -> dict:
        """Expected outputs from the generator's in-memory arrays, no CSV involved."""
        dm = stats.DataMatrix(values=values, feature_names=names, group=group)
        sv, kept, _ = stats.welch_t_statistics(dm, 0.0, DIRECTIONAL)
        sv_eq, _, _ = stats.welch_t_statistics(dm, 2.0, EQUIVALENCE)
        kept_names = [names[int(j)] for j in kept]

        def control_result(ctl, with_names):
            res = {"gamma": ctl.gamma, "s": ctl.s, "s_plus": ctl.s_plus, "r": ctl.r,
                   "v_tilde": ctl.v_tilde, "fdp_hat": ctl.fdp_hat,
                   "rejected": [int(i) for i in ctl.rejected]}
            if with_names:
                res["rejected_features"] = [kept_names[i] for i in res["rejected"]]
            return res

        est = estimators.estimate_directional(sv, 1.0)
        estimate = {
            "estimator": est.estimator, "t": est.t, "r": est.r, "v_tilde": est.v_tilde,
            "fdp_hat": est.fdp_hat, "rejected": [int(i) for i in est.rejected],
            "randomized": est.randomized, "coin": est.coin, "floored": est.floored,
            "requires_independence": est.requires_independence,
        }
        estimate["rejected_features"] = [kept_names[i] for i in estimate["rejected"]]
        eq = control.control_mfdp(sv_eq, GAMMA)
        return {
            "control": control_result(control.control_mfdp(sv, GAMMA), True),
            "estimate": estimate,
            "pvalues": control.directional_pvalues(sv, control.NullDensitySpec.student_t(18)).values.tolist(),
            "control-equivalence": {
                "gamma": f"{eq.gamma:g}",
                "s": "never-exceeded" if eq.s is None else f"{eq.s:.10g}",
                "s_plus": f"{eq.s_plus:.10g}", "r": str(eq.r), "v_tilde": str(eq.v_tilde),
                "fdp_hat": f"{eq.fdp_hat:.6g}",
                "rejected": " ".join(str(int(i)) for i in eq.rejected) or "(none)",
            },
            "control-statistics": control_result(
                control.control_mfdp(core.StatisticVector(st, margins, DIRECTIONAL), GAMMA), False),
        }

    def collect(self, label: str, output: dict) -> dict:
        """The op's visible result: its JSON, p-value file or printed table."""
        full = dict(output)
        if label == "pvalues":
            with open(self.p_out, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            full["header"] = rows[0]
            full["index"] = [int(r[0]) for r in rows[1:]]
            full["result"] = [float(r[1]) for r in rows[1:]]
        elif "--out" in self.argv[label]:
            with open(self.json_out, encoding="utf-8") as fh:
                full["result"] = json.load(fh)["result"]
        else:
            full["result"] = dict(line.split(None, 1) for line in output["stdout"].splitlines())
        return full

    def verify(self, label: str, full: dict) -> list[str]:
        if full["rc"] != 0:
            return [f"exit code {full['rc']}"]
        expected = self.expected[label]
        if label == "pvalues":
            out = []
            if full["header"] != ["index", "pvalue"] or full["index"] != list(range(len(expected))):
                out.append("p-value file is not index,pvalue rows 0..m-1")
            if full["result"] != expected:
                out.append("p-values differ from the library route")
            return out
        got = full["result"]
        return [f"{key}: CLI {got.get(key)!r} != library {value!r}"
                for key, value in expected.items() if got.get(key) != value]

    def check(self, label, output):
        return self.verify(label, self.collect(label, output))


class LargeM(Workload):
    """The sort-bound kernel at m = 10^6, directional and equivalence in turn."""

    name = "large-m"
    sizes = {"m": 1_000_000, "slice": 400}

    def __init__(self, seed, workdir, sizes=None):
        super().__init__(seed, workdir, sizes)
        m = self.size["m"]
        rng = _rng(seed, 2)
        directional = rng.standard_normal(m)
        directional[rng.permutation(m)[: m // 10]] += 3.0
        # Equivalence: 20 % true nulls on the boundary |mu| = 2, the rest at 0.
        # The noise is narrow enough that no |T| reaches 2 * margin, so the
        # mirror count empties before the rejection count does and the chosen
        # threshold rejects a large set (with wider noise s sits next to the
        # margin and almost nothing is rejected).
        mu = np.zeros(m)
        nulls = rng.permutation(m)[: m // 5]
        mu[nulls] = np.where(np.arange(nulls.size) % 2 == 0, 2.0, -2.0)
        equivalence = mu + 0.3 * rng.standard_normal(m)
        self.inputs = {
            "directional": (directional, 0.0, DIRECTIONAL),
            "equivalence": (equivalence, 2.0, EQUIVALENCE),
        }
        self.cycle = [(label, self._op(*inp)) for label, inp in self.inputs.items()]
        # p-values and BH are verified once against their definitions; each
        # op must then reproduce them bit for bit.
        self.reference = {}
        for label, (st, margin, shape) in self.inputs.items():
            _, _, _, pv, bh = self._op(st, margin, shape)()
            idx = np.linspace(0, m - 1, min(m, 2000)).astype(np.intp)
            erfc = checks.normal_pvalues(st, margin, shape is DIRECTIONAL, idx)
            if not all(checks.close(a, b) for a, b in zip(pv.values[idx], erfc)):
                self.setup_problems.append(f"{label}: p-values disagree with math.erfc")
            self.setup_problems += [f"{label}: {p}" for p in checks.bh_definition(pv.values, GAMMA, bh)]
            self.reference[label] = (pv.values.copy(), bh.copy())

    @staticmethod
    def _estimate(shape):
        if shape is DIRECTIONAL:
            return estimators.estimate_directional
        return estimators.estimate_equivalence

    @staticmethod
    def _op(st, margin, shape):
        def op():
            sv = core.StatisticVector(st, margin, shape)
            ctl = control.control_mfdp(sv, GAMMA)
            if shape is DIRECTIONAL:
                est = estimators.estimate_directional(sv, ctl.s_plus)
                pv = control.directional_pvalues(sv, control.NullDensitySpec.standard_normal())
            else:
                est = estimators.estimate_equivalence(sv, ctl.s_plus)
                pv = control.equivalence_pvalues(sv, control.NullDensitySpec.standard_normal())
            bh = baselines.benjamini_hochberg(pv.values, GAMMA)
            return sv, ctl, est, pv, bh
        return op

    def check(self, label, output):
        sv, ctl, est, pv, bh = output
        st, margin, shape = self.inputs[label]
        out = checks.control_definition(sv, ctl, GAMMA, self._estimate(shape))
        if (est.t, est.r, est.v_tilde) != (ctl.s_plus, ctl.r, ctl.v_tilde) or not np.array_equal(
                est.rejected, ctl.rejected):
            out.append("estimate at s_plus disagrees with the control result")
        ref_p, ref_bh = self.reference[label]
        if not np.array_equal(pv.values, ref_p):
            out.append("p-values differ from the verified reference")
        if not np.array_equal(bh, ref_bh):
            out.append("BH rejections differ from the verified reference")
        out += self.check_slice(st, margin, shape)
        return out

    def check_slice(self, st, margin, shape) -> list[str]:
        """Literal O(m^2) scan on a tie-heavy slice (half-integer statistics)."""
        tied = np.round(st[: self.size["slice"]] * 2.0) / 2.0
        ctl = control.control_mfdp(core.StatisticVector(tied, margin, shape), GAMMA)
        literal = checks.literal_control(tied, margin, shape is DIRECTIONAL, GAMMA)
        return [f"tie-heavy slice: {p}" for p in checks.compare_control(ctl, literal)]

    def crosscheck(self):
        st, margin, shape = self.inputs["directional"]
        sv = core.StatisticVector(st, margin, shape)
        return [
            {"what": f"control_mfdp, m = {sv.m}", "roadmap_s": 0.167,
             "measured_s": _median_time(lambda: control.control_mfdp(sv, GAMMA), 3)},
            {"what": f"build_profile, m = {sv.m}", "roadmap_s": 0.037,
             "measured_s": _median_time(lambda: core.build_profile(sv), 3)},
        ]


STUDY_METHODS = ("novel", "novel-randomized", "SAM-2", "SAM-full", "BH", "LR")


class McStudy(Workload):
    """Many tiny replicates: the criterion-7 study shape, scaled down."""

    name = "mc-study"
    sizes = {"m": 200, "replicates": 50, "coverage_m": 100, "coverage_replicates": 400}

    def __init__(self, seed, workdir, sizes=None):
        super().__init__(seed, workdir, sizes)
        self.study = simulate.StudySpec(
            n=10, m=self.size["m"], pi0=(0.2, 0.5), rho=0.0, d=(2.0, 3.0),
            methods=STUDY_METHODS, t=1.0, gamma=GAMMA,
            replicates=self.size["replicates"], seed=_derived_seed(seed, 3),
        )
        self.coverage = simulate.ScenarioSpec(
            n=10, m=self.size["coverage_m"], pi0=1.0, rho=0.5,
            replicates=self.size["coverage_replicates"], seed=_derived_seed(seed, 4),
        )
        self.cycle = [("study", self._op)]
        self.reference_rows = _row_keys(simulate.run_study(self.study, threads=1))
        self.reference_coverage = simulate.control_coverage(self.coverage, GAMMA)

    def _op(self):
        table = simulate.run_study(self.study)
        return table, simulate.control_coverage(self.coverage, GAMMA)

    def check(self, label, output):
        table, coverage = output
        out = []
        if _row_keys(table) != self.reference_rows:
            out.append("MetricTable rows differ from the threads=1 reference")
        if coverage != self.reference_coverage:
            out.append(f"control_coverage {coverage} != reference {self.reference_coverage}")
        return out

    def crosscheck(self):
        rng = _rng(self.seed, 5)
        rows = []
        for m, calls in ((100, 200), (10_000, 20)):
            sv = core.StatisticVector(rng.standard_normal(m), 0.0, DIRECTIONAL)

            def batch(sv=sv, calls=calls):
                for _ in range(calls):
                    control.control_mfdp(sv, GAMMA)

            rows.append({"what": f"control_mfdp, m = {m}", "roadmap_s": 35e-6 if m == 100 else 0.95e-3,
                         "measured_s": _median_time(batch, 5) / calls})
        spec = simulate.ScenarioSpec(n=10, m=100, pi0=1.0, rho=0.5, replicates=10_000,
                                     seed=_derived_seed(self.seed, 6))
        rows.append({"what": "control_coverage, 10k replicates, m = 100", "roadmap_s": 1.5,
                     "measured_s": _median_time(lambda: simulate.control_coverage(spec, GAMMA), 1)})
        return rows


class ResamplingCt(Workload):
    """Resampling bounds, exact tests and the closed-testing oracle."""

    name = "resampling-ct"
    sizes = {"ct_replicates": 2, "sam_n": 20, "sam_m": 1000, "sam_B": 4096,
             "perm_n": 10, "flip_n": 18, "closure_m": 12}
    T = 1.0

    def __init__(self, seed, workdir, sizes=None):
        super().__init__(seed, workdir, sizes)
        s = self.size
        rng = _rng(seed, 7)
        self.samct = simulate.StudySpec(
            n=10, m=12, pi0=0.5, rho=0.0, d=1.0, methods=("SAM+CT",), t=self.T, gamma=GAMMA,
            replicates=s["ct_replicates"], seed=_derived_seed(seed, 8),
        )
        self.sam_data = rng.standard_normal((s["sam_n"], s["sam_m"]))
        self.sam_data[:, : s["sam_m"] // 10] += 0.8
        self.sam_group = baselines.TransformationGroup.sign_flip_subsample(
            s["sam_n"], s["sam_B"], _derived_seed(seed, 9))
        self.sam_scale = 1.0 / math.sqrt(s["sam_n"])
        self.perm = (rng.standard_normal(s["perm_n"]) + 0.5, rng.standard_normal(s["perm_n"]))
        self.flip = rng.standard_normal(s["flip_n"]) + 0.3
        self.closure_sv = core.StatisticVector(rng.normal(0.5, 2.0, s["closure_m"]), 0.0, DIRECTIONAL)
        self.cycle = [("resampling", self._op)]

        self.reference_samct = _row_keys(simulate.run_study(self.samct))
        self.reference_perm = checks.permutation_enumeration(*self.perm, 0.05)
        self.reference_flip = checks.sign_flip_enumeration(self.flip, 0.05)
        self.reference_sam = checks.sam_direct(
            self.sam_data, self.sam_group.signs, self.sam_scale, 2.0, 0.5)
        self.reference_closure = checks.directional_closure(
            self.closure_sv.statistics, self.closure_sv.margins, self.T)

    def _statistic(self, x):
        return x.sum(axis=0) * self.sam_scale

    def _op(self):
        table = simulate.run_study(self.samct)
        sam = baselines.sam_bound(self.sam_data, self._statistic, self.sam_group, 2.0)
        perm = baselines.two_group_permutation_test(*self.perm, 0.05)
        flip = baselines.sign_flip_test(self.flip, 0.05)
        sv = self.closure_sv
        family = ct_oracle.LocalTestFamily.directional_basic(sv, self.T)
        closure = ct_oracle.run_closure(family)
        rejected = np.flatnonzero(sv.statistics - sv.margins > self.T)
        t_alpha = closure.t_alpha(ct_oracle.indices_to_mask(rejected))
        return {"samct": table, "sam": sam, "perm": perm, "flip": flip,
                "family": family, "closure": closure, "t_alpha": t_alpha}

    def check(self, label, output):
        out = []
        if _row_keys(output["samct"]) != self.reference_samct:
            out.append("SAM+CT rows differ from the set-up reference")
        out += checks.compare_sam(output["sam"], self.reference_sam)
        out += [f"permutation: {p}" for p in checks.compare_exact(output["perm"], self.reference_perm)]
        out += [f"sign-flip: {p}" for p in checks.compare_exact(output["flip"], self.reference_flip)]
        member, t_alpha = self.reference_closure
        if not np.array_equal(output["closure"].membership, member):
            out.append("closure membership differs from the closed form")
        if output["t_alpha"] != t_alpha:
            out.append(f"t_alpha={output['t_alpha']}, closed form min(R, R-) = {t_alpha}")
        report = ct_oracle.verify_shortcut(output["family"], self.closure_sv, self.T)
        if report["mismatches"]:
            out.append(f"verify_shortcut reports {report['mismatches']} mismatches")
        return out

    def crosscheck(self):
        rows = [{"what": f"sam_bound, B = {self.sam_group.size}, m = {self.sam_data.shape[1]}",
                 "roadmap_s": 0.138,
                 "measured_s": _median_time(lambda: baselines.sam_bound(
                     self.sam_data, self._statistic, self.sam_group, 2.0), 3)}]
        reps = self.samct.replicates
        rows.append({"what": "SAM+CT study cell, m = 12, n = 10, per replicate", "roadmap_s": 0.1,
                     "measured_s": _median_time(lambda: simulate.run_study(self.samct), 3) / reps})
        rows.append({"what": f"two_group_permutation_test, n = {self.perm[0].size}", "roadmap_s": 0.13,
                     "measured_s": _median_time(lambda: baselines.two_group_permutation_test(
                         *self.perm, 0.05), 3)})
        return rows


WORKLOADS = {cls.name: cls for cls in (Analysis, LargeM, McStudy, ResamplingCt)}
