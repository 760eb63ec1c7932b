"""End-to-end CLI tests: every subcommand through ``main(argv)`` in-process."""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from artifact import (
    HypothesisShape,
    StatisticVector,
    directional_pvalues,
    NullDensitySpec,
    read_pvalues_csv,
)
from artifact.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def stats_csv(tmp_path):
    """Statistics file with margin column: the control worked example."""
    path = tmp_path / "stats.csv"
    rows = ["index,statistic,margin"]
    for j, t in enumerate([5.0, 4.0, 3.0, -3.5]):
        rows.append(f"{j},{t},0.0")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def bare_stats_csv(tmp_path):
    """Statistics file without a margin column."""
    path = tmp_path / "bare.csv"
    path.write_text("index,statistic\n0,5.0\n1,4.0\n2,3.0\n3,-3.5\n")
    return path


@pytest.fixture
def grouped_csv(tmp_path):
    path = tmp_path / "grouped.csv"
    path.write_text(
        "group,f1,f2\n"
        "treat,0.0,1.0\n"
        "treat,0.0,1.0\n"
        "ctrl,-2.0,0.0\n"
        "ctrl,-2.0,0.0\n"
    )
    return path


@pytest.fixture
def single_column_csv(tmp_path):
    path = tmp_path / "ones.csv"
    path.write_text("x\n1.0\n1.0\n1.0\n")
    return path


# --- estimate ---------------------------------------------------------------


class TestEstimate:
    def test_table_output(self, capsys, stats_csv):
        code, out, err = run(capsys, "estimate", str(stats_csv), "--t", "1")
        assert code == 0 and err == ""
        assert "estimator" in out and "directional" in out
        assert "r          3" in out
        assert "v_tilde    1" in out
        assert "rejected   0 1 2" in out

    def test_csv_output(self, capsys, stats_csv):
        code, out, _ = run(capsys, "estimate", str(stats_csv), "--t", "1", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,value"
        assert "r,3" in lines
        assert "fdp_hat,0.333333" in lines

    def test_t_defaults_to_zero(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("index,statistic\n0,0.5\n1,-0.2\n")
        code, out, _ = run(capsys, "estimate", str(path), "--delta", "0")
        assert code == 0
        assert "r          1" in out
        assert "fdp_hat    1" in out

    def test_json_document(self, capsys, stats_csv, tmp_path):
        out_path = tmp_path / "est.json"
        code, _, _ = run(
            capsys, "estimate", str(stats_csv), "--t", "1", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {
            "version", "command", "seed", "config_hash", "config", "result",
        }
        assert payload["command"] == "estimate"
        assert payload["seed"] is None
        assert len(payload["config_hash"]) == 12
        result = payload["result"]
        assert result["r"] == 3 and result["v_tilde"] == 1
        assert result["rejected"] == [0, 1, 2]
        assert result["requires_independence"] is False
        assert result["randomized"] is False

    def test_delta_overrides_margin_column(self, capsys, stats_csv):
        # with delta=2.5 only 5 and 4 clear t=1
        code, out, _ = run(
            capsys, "estimate", str(stats_csv), "--t", "1", "--delta", "2.5"
        )
        assert code == 0
        assert "rejected   0 1" in out

    def test_missing_margin_is_an_error(self, capsys, bare_stats_csv):
        code, _, err = run(capsys, "estimate", str(bare_stats_csv), "--t", "1")
        assert code == 2
        assert "no margin available" in err and "--delta" in err

    def test_raw_data_needs_delta(self, capsys, grouped_csv):
        code, _, err = run(capsys, "estimate", str(grouped_csv))
        assert code == 2
        assert "raw data input needs an explicit margin" in err

    def test_two_group_statistics_from_raw_data(self, capsys, grouped_csv, tmp_path):
        out_path = tmp_path / "raw.json"
        code, out, _ = run(
            capsys,
            "estimate", str(grouped_csv),
            "--statistic", "two-group", "--delta", "0", "--t", "1",
            "--out", str(out_path),
        )
        assert code == 0
        # f1: sqrt(2)*(0-(-2)) = 2.83, f2: sqrt(2)*1 = 1.41 -- both above t=1
        assert "rejected   0 1" in out
        payload = json.loads(out_path.read_text())
        assert payload["result"]["rejected_features"] == ["f1", "f2"]

    def test_column_mean_statistics_take_ungrouped_data_only(self, capsys, grouped_csv, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b,c\n2.0,0.5,-3.0\n4.0,0.5,-1.0\n")
        out_path = tmp_path / "cm.json"
        code, out, err = run(
            capsys, "estimate", str(path), "--statistic", "column-mean", "--delta", "0", "--t", "1",
            "--out", str(out_path),
        )
        # column means 3.0, 0.5, -2.0: only a clears t=1, and -2.0 is its mirror
        assert code == 0 and err == ""
        result = json.loads(out_path.read_text())["result"]
        assert result["rejected_features"] == ["a"] and result["v_tilde"] == 1
        code, out, err = run(
            capsys, "estimate", str(grouped_csv), "--statistic", "column-mean", "--delta", "0", "--t", "1"
        )
        assert code == 2 and out == ""
        assert err == "error: column-mean statistics take ungrouped data (drop the group column)\n"

    def test_randomized_with_seed(self, capsys, stats_csv, tmp_path):
        out_path = tmp_path / "rand.json"
        code, out, _ = run(
            capsys,
            "estimate", str(stats_csv),
            "--t", "1", "--randomized", "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        assert "seed:" not in out  # an explicit seed is not re-announced
        assert "coin" in out
        payload = json.loads(out_path.read_text())
        assert payload["seed"] == 7
        assert payload["result"]["randomized"] is True

    def test_randomized_without_seed_prints_one(self, capsys, stats_csv):
        code, out, _ = run(capsys, "estimate", str(stats_csv), "--randomized")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("seed: ")
        int(first.removeprefix("seed: "))

    def test_csv_randomized_without_seed_keeps_stdout_csv(self, capsys, stats_csv):
        code, out, err = run(capsys, "estimate", str(stats_csv), "--randomized", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["field", "value"]
        assert all(len(row) == 2 for row in rows)
        assert err.startswith("seed: ")
        int(err.strip().removeprefix("seed: "))

    def test_randomized_rejects_equivalence(self, capsys, stats_csv):
        code, _, err = run(
            capsys,
            "estimate", str(stats_csv),
            "--shape", "equivalence", "--delta", "2", "--randomized",
        )
        assert code == 2
        assert "directional estimator only" in err

    def test_windowed_rejects_directional(self, capsys, stats_csv):
        code, out, err = run(capsys, "estimate", str(stats_csv), "--windowed")
        assert code == 2 and out == ""
        assert "--windowed applies to the equivalence estimator only" in err

    def test_seed_without_randomized_exits_2_before_reading(self, capsys, stats_csv, tmp_path):
        for path in (stats_csv, tmp_path / "nope.csv"):
            code, out, err = run(capsys, "estimate", str(path), "--seed", "3")
            assert code == 2 and out == ""
            assert "--seed applies to --randomized only" in err

    def test_negative_seed_exits_2_naming_the_flag(self, capsys, stats_csv):
        code, out, err = run(capsys, "estimate", str(stats_csv), "--randomized", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: --seed -1: seed must be >= 0\n"

    def test_windowed_equivalence(self, capsys, tmp_path):
        path = tmp_path / "eq.csv"
        path.write_text("index,statistic\n0,0.2\n1,-0.3\n2,2.6\n3,7.0\n")
        args = ["estimate", str(path), "--shape", "equivalence",
                "--delta", "2", "--t", "0.5"]
        code, plain, _ = run(capsys, *args)
        assert code == 0 and "v_tilde    2" in plain
        code, windowed, _ = run(capsys, *args, "--windowed")
        assert code == 0
        assert "equivalence-windowed" in windowed
        assert "v_tilde    1" in windowed

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", str(tmp_path / "nope.csv"))
        assert code == 2 and "error:" in err


# --- control ----------------------------------------------------------------


class TestControl:
    def test_worked_example(self, capsys, stats_csv):
        code, out, _ = run(capsys, "control", str(stats_csv), "--gamma", "0.4")
        assert code == 0
        assert "s         3" in out
        assert "s_plus    3.5" in out
        assert "rejected  0 1" in out

    def test_never_exceeded_reads_clearly(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("index,statistic\n0,5.0\n1,6.0\n")
        code, out, _ = run(capsys, "control", str(path), "--gamma", "0.4", "--delta", "0")
        assert code == 0
        assert "never-exceeded" in out
        assert "s_plus    0" in out

    @pytest.mark.parametrize("cell, value", [("nan", "nan"), ("1e400", "inf")])
    def test_non_finite_statistic_exits_2_naming_row_and_column(self, capsys, tmp_path, cell, value):
        path = tmp_path / "s.csv"
        path.write_text(f"index,statistic\n0,5.0\n1,{cell}\n")
        code, out, err = run(capsys, "control", str(path), "--gamma", "0.4", "--delta", "0")
        assert code == 2 and out == ""
        assert f"{path}: row 3, column 'statistic': non-finite value {value}" in err

    @pytest.mark.parametrize(
        "data, line",
        [(b"index,statistic\n0,5.0\n1,6\xff\n", 3), (b"group,f\xff\na,1\nb,2\n", 1)],
        ids=["statistics-row", "data-header"],
    )
    def test_undecodable_byte_exits_2_naming_file_and_line(self, capsys, tmp_path, data, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code, out, err = run(capsys, "control", str(path), "--gamma", "0.1", "--delta", "0")
        assert code == 2 and out == ""
        assert f"{path}: line {line}: cannot decode byte 0xff as UTF-8" in err

    def test_json_document(self, capsys, stats_csv, tmp_path):
        out_path = tmp_path / "ctl.json"
        code, _, _ = run(
            capsys, "control", str(stats_csv), "--gamma", "0.4", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "control"
        assert payload["seed"] is None
        assert payload["result"]["s"] == 3.0
        assert payload["result"]["s_plus"] == 3.5
        assert payload["result"]["rejected"] == [0, 1]

    def test_gamma_is_required(self, capsys, stats_csv):
        with pytest.raises(SystemExit) as exc:
            main(["control", str(stats_csv)])
        assert exc.value.code == 2

    def test_bad_gamma(self, capsys, stats_csv):
        code, _, err = run(capsys, "control", str(stats_csv), "--gamma", "1.0")
        assert code == 2 and "gamma" in err


class TestStatisticsFileInput:
    WORKED_EXAMPLE = "0,5.0\n1,4.0\n2,3.0\n3,-3.5\n"

    @pytest.mark.parametrize(
        "header",
        ["\ufeffindex,statistic", "Index,Statistic", "\ufeffINDEX, Statistic "],
        ids=["bom", "title-case", "bom-upper-padded"],
    )
    def test_header_is_read_with_or_without_bom_in_any_case(self, capsys, tmp_path, header):
        path = tmp_path / "s.csv"
        path.write_text(f"{header}\n{self.WORKED_EXAMPLE}", encoding="utf-8")
        code, out, err = run(capsys, "control", str(path), "--gamma", "0.4", "--delta", "0")
        assert code == 0 and err == ""
        assert "s_plus    3.5" in out
        assert "rejected  0 1" in out

    def test_underscore_digits_exit_2_naming_row_and_column(self, capsys, tmp_path):
        # Python's float reads 1_5 as 15; numpy's C parser, and now the cell loop, refuse it.
        path = tmp_path / "s.csv"
        path.write_text("index,statistic,margin\n0,1_5,0\n1,0.5,0\n")
        code, out, err = run(capsys, "estimate", str(path), "--t", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: row 2, column 'statistic': could not parse '1_5' as a number\n"

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_decimal_commas_exit_2_naming_the_row(self, capsys, tmp_path, quote):
        path = tmp_path / "s.csv"
        path.write_text(f"index,statistic\n{quote}0{quote},2,5\n1,-0,5\n2,3,1\n")
        code, out, err = run(capsys, "control", str(path), "--gamma", "0.3", "--delta", "0")
        assert code == 2 and out == ""
        assert err == f"error: {path}: row 2 has 3 cells, header has 2\n"

    def test_extra_columns_after_margin_are_ignored(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "index,statistic,margin,note\n0,5.0,0,1\n1,4.0,0,2\n2,3.0,0,3\n3,-3.5,0,4\n"
        )
        code, out, err = run(capsys, "estimate", str(path), "--t", "1")
        assert code == 0 and err == ""
        assert "rejected   0 1 2" in out

    def test_statistics_header_without_margin_third_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("index,statistic,note\n0,5.0,1\n1,4.0,2\n")
        code, out, err = run(capsys, "estimate", str(path), "--delta", "0", "--t", "1")
        assert code == 2 and out == ""
        assert "expected header" in err

    @pytest.mark.parametrize("statistic", ["welch", "two-group", "column-mean"])
    @pytest.mark.parametrize(
        "command",
        [["estimate", "--t", "1"], ["control", "--gamma", "0.3"]],
        ids=["estimate", "control"],
    )
    def test_statistic_flag_on_a_statistics_file_exits_2(
        self, capsys, tmp_path, stats_csv, command, statistic
    ):
        # the file's statistics were never computed by --statistic, so the
        # flag would be ignored and recorded in --out as if it had been used
        out_path = tmp_path / "run.json"
        code, out, err = run(
            capsys, command[0], str(stats_csv), *command[1:], "--delta", "0",
            "--statistic", statistic, "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert f"{stats_csv}: --statistic applies to raw data only" in err
        assert not out_path.exists()

    def test_default_statistic_on_a_statistics_file_still_runs(self, capsys, stats_csv):
        code, out, err = run(
            capsys, "control", str(stats_csv), "--gamma", "0.4", "--statistic", "auto"
        )
        assert code == 0 and err == ""
        assert "rejected  0 1" in out

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("0,5.0\n0,4.0\n1,3.0\n", "row 3: index 0 repeats row 2"),
            ("0,5.0\n1,4.0\n5,3.0\n", "row 4: index 5 is outside 0..2"),
        ],
        ids=["duplicate", "gap"],
    )
    def test_duplicate_or_gapped_indices_exit_2(self, capsys, tmp_path, rows, problem):
        path = tmp_path / "s.csv"
        path.write_text("index,statistic\n" + rows)
        code, out, err = run(capsys, "control", str(path), "--gamma", "0.4", "--delta", "0")
        assert code == 2 and out == ""
        assert str(path) in err and problem in err


class TestDataFileInput:
    ROWS = "0,5.0,0.1\n0,5.5,-0.2\n0,6.0,0.3\n1,0.0,0.2\n1,0.5,-0.1\n1,-0.5,0.0\n"

    def _control(self, capsys, tmp_path, header):
        path = tmp_path / "g.csv"
        path.write_text(f"{header}\n{self.ROWS}")
        out_path = tmp_path / "ctl.json"
        code, _, err = run(
            capsys, "control", str(path), "--gamma", "0.4", "--delta", "0", "--out", str(out_path)
        )
        return code, err, json.loads(out_path.read_text())["result"] if code == 0 else None

    @pytest.mark.parametrize("name", ["Group", "GROUP"])
    def test_group_header_is_matched_in_any_case(self, capsys, tmp_path, name):
        code, _, result = self._control(capsys, tmp_path, f"{name},f1,f2")
        assert code == 0
        assert result == self._control(capsys, tmp_path, "group,f1,f2")[2]
        assert result["rejected_features"] == ["f1", "f2"]

    def test_blank_group_label_exits_2_naming_the_row(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("x,y,group\n1,2,\n2,3,b\n3,1,\n4,5,b\n")
        code, out, err = run(capsys, "estimate", str(path), "--delta", "0", "--t", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: row 2, column 'group': blank group label\n"

    def test_blank_header_cell_exits_2_naming_the_column(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("x,\n1,2\n3,4\n")
        code, out, err = run(capsys, "estimate", str(path), "--delta", "0", "--t", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: header column 2 is blank (every column needs a name)\n"

    def test_repeated_column_exits_2(self, capsys, tmp_path):
        code, err, _ = self._control(capsys, tmp_path, "group,a,a")
        assert code == 2
        assert "g.csv" in err and "column 'a' appears more than once" in err


# --- pvalues ----------------------------------------------------------------


class TestPvalues:
    @pytest.fixture
    def pair_csv(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("index,statistic\n0,0.0\n1,2.0\n")
        return path

    def test_table_output(self, capsys, pair_csv):
        code, out, _ = run(capsys, "pvalues", str(pair_csv), "--delta", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["index", "pvalue"]
        assert lines[1].split() == ["0", "0.5"]
        assert lines[2].split() == ["1", "0.02275013195"]

    def test_csv_output_full_precision(self, capsys, pair_csv):
        code, out, _ = run(capsys, "pvalues", str(pair_csv), "--delta", "0", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,pvalue"
        assert float(lines[2].split(",")[1]) == 0.022750131948179195

    def test_out_file_round_trips(self, capsys, pair_csv, tmp_path):
        out_path = tmp_path / "p.csv"
        code, out, _ = run(
            capsys, "pvalues", str(pair_csv), "--delta", "0", "--out", str(out_path)
        )
        assert code == 0
        assert f"wrote 2 p-values to {out_path}" in out
        pv = read_pvalues_csv(out_path)
        sv = StatisticVector(np.array([0.0, 2.0]), 0.0, HypothesisShape.DIRECTIONAL)
        expected = directional_pvalues(sv, NullDensitySpec.standard_normal())
        np.testing.assert_array_equal(pv, expected.values)

    def test_csv_with_out_exits_2_before_reading(self, capsys, pair_csv, tmp_path):
        out_path = tmp_path / "p.csv"
        for path in (pair_csv, tmp_path / "nope.csv"):
            code, out, err = run(
                capsys, "pvalues", str(path), "--delta", "0", "--out", str(out_path), "--csv"
            )
            assert code == 2 and out == ""
            assert "--csv applies to printed p-values only" in err
        assert not out_path.exists()

    def test_alternative_nulls(self, capsys, pair_csv):
        code, out, _ = run(
            capsys, "pvalues", str(pair_csv), "--delta", "0", "--null", "scaled-normal:2"
        )
        assert code == 0
        # T=2 under sigma=2 is one standard unit out
        assert "0.1586552539" in out
        code, _, _ = run(
            capsys, "pvalues", str(pair_csv), "--delta", "0", "--null", "student-t:5"
        )
        assert code == 0

    def test_unknown_null(self, capsys, pair_csv):
        code, _, err = run(
            capsys, "pvalues", str(pair_csv), "--delta", "0", "--null", "cauchy"
        )
        assert code == 2
        assert "unknown null density" in err

    @pytest.mark.parametrize("null", ["student-t:abc", "scaled-normal:", "student-t:1,5"])
    def test_unparsable_null_parameter_names_the_flag(self, capsys, pair_csv, null):
        code, out, err = run(capsys, "pvalues", str(pair_csv), "--delta", "0", "--null", null)
        assert code == 2 and out == ""
        param = null.partition(":")[2]
        assert f"--null '{null}': could not parse '{param}' as a number" in err

    def test_equivalence_shape(self, capsys, pair_csv):
        code, out, _ = run(
            capsys, "pvalues", str(pair_csv), "--shape", "equivalence", "--delta", "2"
        )
        assert code == 0
        # |T| = delta sits exactly on the band edge
        assert lines_value(out, "1") == "0.5"


def lines_value(out: str, index: str) -> str:
    for line in out.strip().splitlines()[1:]:
        fields = line.split()
        if fields[0] == index:
            return fields[1]
    raise AssertionError(f"index {index} not in output")


# --- simulate ---------------------------------------------------------------


class TestSimulate:
    @pytest.fixture
    def spec_path(self, tmp_path):
        spec = {
            "n": 5, "m": 20, "pi0": 0.5, "rho": 0.0, "d": 1.5,
            "methods": ["novel", "BH"], "t": 1.0, "gamma": 0.25,
            "replicates": 20, "seed": 99,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        return path

    def test_table_and_artifacts(self, capsys, spec_path, tmp_path):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        code, out, _ = run(
            capsys, "simulate", "--spec", str(spec_path), "--out-dir", str(out_dir)
        )
        assert code == 0
        assert "mean_fdp_estimate" in out
        assert (out_dir / "metrics.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["command"] == "simulate"
        assert summary["seed"] == 99
        assert summary["study"]["m"] == 20
        assert len(summary["rows"]) > 0

    def test_csv_mode(self, capsys, spec_path):
        code, out, _ = run(capsys, "simulate", "--spec", str(spec_path), "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cell_id,pi0,rho,d,method,metric,value,se"
        assert all(line.startswith("0,") for line in lines[1:])

    def test_csv_stdout_is_the_metrics_file(self, capsys, tmp_path):
        spec = {
            "n": 5, "m": 20, "pi0": [0.1, 0.5], "rho": 0.3, "d": 1.5,
            "methods": ["novel", "BH"], "t": 1.0, "gamma": 0.25,
            "replicates": 7, "seed": 99,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec))
        out_dir = tmp_path / "results"
        code, out, _ = run(capsys, "simulate", "--spec", str(path), "--out-dir", str(out_dir), "--csv")
        assert code == 0
        assert out.encode("utf-8") == (out_dir / "metrics.csv").read_bytes()
        assert ",0.10000000000000001,0.29999999999999999," in out

    def test_runs_are_reproducible(self, capsys, spec_path, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        run(capsys, "simulate", "--spec", str(spec_path), "--out-dir", str(a))
        run(capsys, "simulate", "--spec", str(spec_path), "--out-dir", str(b))
        assert (a / "metrics.csv").read_text() == (b / "metrics.csv").read_text()

    def test_threads_flag_is_gone(self, capsys, spec_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(spec_path), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_csv_mode_with_out_dir_keeps_stdout_csv(self, capsys, spec_path, tmp_path):
        code, out, err = run(
            capsys, "simulate", "--spec", str(spec_path), "--out-dir", str(tmp_path), "--csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["cell_id", "pi0", "rho", "d", "method", "metric", "value", "se"]
        assert all(len(row) == 8 for row in rows)
        assert err.startswith("wrote ")

    def test_seed_override(self, capsys, spec_path, tmp_path):
        out_dir = tmp_path / "o"
        out_dir.mkdir()
        code, _, _ = run(
            capsys, "simulate", "--spec", str(spec_path),
            "--seed", "123", "--out-dir", str(out_dir),
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 123

    def test_negative_seed_exits_2_naming_the_flag(self, capsys, spec_path, tmp_path):
        out_dir = tmp_path / "o"
        code, out, err = run(
            capsys, "simulate", "--spec", str(spec_path), "--seed", "-1", "--out-dir", str(out_dir)
        )
        assert code == 2 and out == ""
        assert err == "error: --seed -1: seed must be >= 0\n"
        assert not out_dir.exists()

    def test_infeasible_spec_exits_3(self, capsys, tmp_path):
        spec = {
            "n": 13, "m": 10, "pi0": 0.5, "rho": 0.0, "d": 1.0,
            "methods": ["SAM-full"], "t": 1.0, "gamma": 0.25,
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "simulate", "--spec", str(path))
        assert code == 3
        assert "use SAM-2 or reduce n" in err

    @pytest.mark.parametrize(
        "key, value",
        [("n", 5.5), ("m", 10.0), ("replicates", 2.5), ("seed", 1.5), ("independent_blocks", "no"),
         ("methods", "novel"), ("methods", {"novel": 1})],
    )
    def test_mistyped_spec_value_exits_2_naming_file_and_key(self, capsys, tmp_path, key, value):
        spec = {
            "n": 5, "m": 10, "pi0": 0.5, "rho": 0.3, "d": 1.0,
            "methods": ["novel"], "t": 1.0, "gamma": 0.25, "replicates": 2, key: value,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "simulate", "--spec", str(path))
        assert code == 2 and out == ""
        assert f"study spec {path}: {key} must be" in err

    @pytest.mark.parametrize(
        "key, value", [("pi0", [0.5, 1.5]), ("d", [1.0, float("inf")]), ("noise_df", float("nan"))]
    )
    def test_bad_grid_or_non_finite_value_exits_2_before_any_output(self, capsys, tmp_path, key, value):
        spec = {
            "n": 5, "m": 10, "pi0": 0.5, "rho": 0.0, "d": 1.0,
            "methods": ["novel"], "t": 1.0, "gamma": 0.25, "replicates": 2, key: value,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        out_dir = tmp_path / "results"
        code, out, err = run(capsys, "simulate", "--spec", str(path), "--out-dir", str(out_dir))
        assert code == 2 and out == ""
        assert f"study spec {path}: {key} must be" in err
        assert not out_dir.exists()

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"typo": 1}')
        code, _, err = run(capsys, "simulate", "--spec", str(path))
        assert code == 2
        assert "unknown study spec keys" in err or "missing required keys" in err


# --- verify-ct --------------------------------------------------------------


class TestVerifyCt:
    def test_single_family(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify-ct", "--family", "directional-basic",
            "--m", "4", "--instances", "5", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "directional-basic: 5 instances" in out
        assert "0 mismatches" in out
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "verify-ct"
        assert payload["result"]["total_mismatches"] == 0
        assert len(payload["result"]["reports"]) == 1

    def test_all_families(self, capsys):
        code, out, _ = run(
            capsys, "verify-ct", "--m", "4", "--instances", "3", "--seed", "2"
        )
        assert code == 0
        for kind in (
            "directional-basic", "directional-randomized",
            "equivalence-basic", "equivalence-windowed",
        ):
            assert f"{kind}: 3 instances" in out

    def test_unseeded_run_announces_seed(self, capsys):
        code, out, _ = run(
            capsys, "verify-ct", "--family", "equivalence-basic",
            "--m", "3", "--instances", "2",
        )
        assert code == 0
        assert out.startswith("seed: ")

    def test_m_cap_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify-ct", "--m", "13", "--instances", "1", "--seed", "0"
        )
        assert code == 2
        assert "max_m" in err

    def test_negative_seed_exits_2_naming_the_flag(self, capsys):
        code, out, err = run(capsys, "verify-ct", "--m", "4", "--instances", "1", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: --seed -1: seed must be >= 0\n"


# --- exact-test -------------------------------------------------------------


class TestExactTest:
    def test_sign_flip(self, capsys, single_column_csv, tmp_path):
        out_path = tmp_path / "sf.json"
        code, out, _ = run(
            capsys,
            "exact-test", str(single_column_csv),
            "--test", "sign-flip", "--alpha", "0.25",
            "--out", str(out_path),
        )
        assert code == 0
        assert "reject          true" in out
        assert "n_transforms    8" in out
        assert "order_index     6" in out
        payload = json.loads(out_path.read_text())
        assert payload["result"]["reject"] is True
        assert payload["result"]["t_observed"] == pytest.approx(3 / np.sqrt(3))

    def test_sign_flip_csv_mode(self, capsys, single_column_csv):
        code, out, _ = run(
            capsys,
            "exact-test", str(single_column_csv),
            "--test", "sign-flip", "--alpha", "0.25", "--csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,value"
        assert "reject,true" in lines

    def test_csv_mode_quotes_a_feature_name_with_a_comma(self, capsys, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('"x,1",y\n1.0,2.0\n1.0,2.0\n1.0,2.0\n')
        code, out, _ = run(
            capsys, "exact-test", str(path), "--test", "sign-flip", "--alpha", "0.25", "--csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ["feature", "x,1"] in rows
        assert all(len(row) == 2 for row in rows)

    def test_permutation(self, capsys, tmp_path):
        path = tmp_path / "perm.csv"
        path.write_text("group,y\na,10.0\na,10.0\nb,0.0\nb,0.0\n")
        code, out, _ = run(
            capsys,
            "exact-test", str(path),
            "--test", "permutation", "--alpha", "0.16666666666666666",
        )
        assert code == 0
        assert "reject          true" in out
        assert "n_transforms    6" in out

    def test_feature_selection(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b\n1.0,-1.0\n1.0,-1.0\n1.0,-1.0\n")
        code, out, _ = run(
            capsys, "exact-test", str(path), "--test", "sign-flip",
            "--alpha", "0.25", "--feature", "b",
        )
        assert code == 0
        assert "feature         b" in out
        assert "reject          false" in out

    def test_unknown_feature(self, capsys, single_column_csv):
        code, _, err = run(
            capsys, "exact-test", str(single_column_csv),
            "--test", "sign-flip", "--alpha", "0.25", "--feature", "zzz",
        )
        assert code == 2
        assert "not found" in err

    def test_sign_flip_rejects_grouped_data(self, capsys, grouped_csv):
        code, _, err = run(
            capsys, "exact-test", str(grouped_csv),
            "--test", "sign-flip", "--alpha", "0.25",
        )
        assert code == 2
        assert "ungrouped" in err

    def test_permutation_needs_groups(self, capsys, single_column_csv):
        code, _, err = run(
            capsys, "exact-test", str(single_column_csv),
            "--test", "permutation", "--alpha", "0.25",
        )
        assert code == 2
        assert "group column" in err

    def test_enumeration_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("x\n" + "\n".join(["1.0"] * 21) + "\n")
        code, _, err = run(
            capsys, "exact-test", str(path), "--test", "sign-flip", "--alpha", "0.05"
        )
        assert code == 3

    @pytest.mark.parametrize("test", ["sign-flip", "permutation"])
    @pytest.mark.parametrize(
        "header", ["index,statistic", "index,statistic,margin", "\ufeff Index , STATISTIC "]
    )
    def test_statistics_file_exits_2_naming_the_file(self, capsys, tmp_path, test, header):
        # Read as raw data, the index column would be tested as a feature.
        path = tmp_path / "st.csv"
        margin = ",0.0" if header.endswith("margin") else ""
        path.write_text(header + "\n" + "".join(f"{j},{j + 1.5}{margin}\n" for j in range(4)))
        code, out, err = run(capsys, "exact-test", str(path), "--test", test, "--alpha", "0.25")
        assert code == 2
        assert out == ""
        assert str(path) in err
        assert "statistics file" in err


# --- global behaviour -------------------------------------------------------


@pytest.mark.parametrize(
    "argv, seed, config, config_hash",
    [
        (
            ["estimate", "stats.csv", "--t", "1", "--randomized", "--seed", "7"],
            7,
            {"input": "stats.csv", "shape": "directional", "delta": None, "t": 1.0,
             "statistic": "auto", "randomized": True, "windowed": False},
            "d5662bf93ca0",
        ),
        (
            ["control", "stats.csv", "--gamma", "0.3", "--delta", "0.5"],
            None,
            {"input": "stats.csv", "shape": "directional", "delta": 0.5, "gamma": 0.3,
             "statistic": "auto"},
            "bd7bc0607b3c",
        ),
        (
            ["exact-test", "ones.csv", "--test", "sign-flip", "--alpha", "0.25"],
            None,
            {"input": "ones.csv", "test": "sign-flip", "alpha": 0.25, "feature": None},
            "6ccb77fee430",
        ),
        (
            ["verify-ct", "--family", "directional-basic", "--m", "3", "--instances", "2",
             "--seed", "1"],
            1,
            {"family": "directional-basic", "m": 3, "instances": 2},
            "1fa9224d2e60",
        ),
    ],
    ids=["estimate", "control", "exact-test", "verify-ct"],
)
def test_out_document_config_order_and_hash(
    capsys, tmp_path, monkeypatch, argv, seed, config, config_hash
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stats.csv").write_text(
        "index,statistic,margin\n0,5.0,0.0\n1,4.0,0.0\n2,3.0,0.0\n3,-3.5,0.0\n"
    )
    (tmp_path / "ones.csv").write_text("x\n1.0\n1.0\n1.0\n")
    code, _, _ = run(capsys, *argv, "--out", "doc.json")
    assert code == 0
    payload = json.loads((tmp_path / "doc.json").read_text())
    assert list(payload) == ["version", "command", "seed", "config_hash", "config", "result"]
    assert payload["command"] == argv[0]
    assert payload["seed"] == seed
    assert list(payload["config"].items()) == list(config.items())
    assert payload["config_hash"] == config_hash


# --- pinned outputs ---------------------------------------------------------

_PINNED_INPUTS = {
    "stats.csv": "index,statistic,margin\n"
    + "".join(
        f"{j},{t},{m}\n"
        for j, (t, m) in enumerate(
            [(2.75, 0.0), (-1.5, 0.25), (0.3, 0.0), (4.1, 0.25), (-0.2, 0.0),
             (1.9, 0.0), (3.3, 0.25), (-2.6, 0.0), (0.05, 0.0), (2.2, 0.25)]
        )
    ),
    "data.csv": "group,g1,g2,g3,g4\n"
    "treat,1.5,0.2,3.1,-0.4\n"
    "treat,2.25,-0.1,2.9,0.3\n"
    "treat,1.75,0.4,3.6,0.1\n"
    "ctrl,0.5,0.3,1.2,-0.2\n"
    "ctrl,0.25,-0.35,1.1,0.6\n"
    "ctrl,0.9,0.1,0.7,0.05\n",
    "ones.csv": "x\n0.5\n1.2\n-0.3\n0.9\n1.1\n0.4\n",
    "study.json": json.dumps(
        {"n": 6, "m": 12, "pi0": [0.25, 0.5], "rho": 0.1, "d": 1.25,
         "methods": ["novel", "novel-randomized", "BH", "LR", "flexible-pvals-export"],
         "t": 0.5, "gamma": 0.2, "replicates": 8, "seed": 11}
    ),
}

_STUDY = "simulate --spec study.json --out-dir results"

# sha256 of each output, computed before the CLI's writers were merged into
# one per format; the merge keeps every byte.
PINNED_OUTPUTS = [
    pytest.param(
        "estimate stats.csv --t 1 --out doc.json",
        "doc.json", "8f691b7036d1209b012bfc532ea3975b5b5a62afe82be97d1e392b2fd3e2b19c",
        id="estimate-out",
    ),
    pytest.param(
        "estimate stats.csv --t 0.5 --randomized --seed 7 --out doc.json",
        "doc.json", "a49ce7a8b7d50826f1c646bd980d053e0d9635992dc281cc6046dc3e99f4bfe5",
        id="estimate-randomized-out",
    ),
    pytest.param(
        "estimate stats.csv --shape equivalence --delta 3 --t 0.5 --windowed --out doc.json",
        "doc.json", "56a828c7af69c30c7f240766c8dea348345cfb82563336f6bda34ce8195dbd62",
        id="estimate-windowed-out",
    ),
    pytest.param(
        "estimate data.csv --delta 0.5 --t 0.25 --out doc.json",
        "doc.json", "86e701bdb33fee9cb5439a26ef75f154c0da03143b95e89dafcde24a311da599",
        id="estimate-raw-data-out",
    ),
    pytest.param(
        "control stats.csv --gamma 0.3 --out doc.json",
        "doc.json", "1a260179fe7dc746763d58c5b1f950bfac628b537fadb86777827f8d5654db05",
        id="control-out",
    ),
    pytest.param(
        "control data.csv --delta 0.5 --gamma 0.4 --out doc.json",
        "doc.json", "66f2585f2d4956cabcb0baa45d6df94ce5337295a30e6d0896a0880efc8ff72f",
        id="control-raw-data-out",
    ),
    pytest.param(
        "exact-test ones.csv --test sign-flip --alpha 0.25 --out doc.json",
        "doc.json", "a6a988d295107ed82bb48fc9fe7310e62d3b8e7befdbec009147090555b7bfdd",
        id="exact-test-sign-flip-out",
    ),
    pytest.param(
        "exact-test data.csv --test permutation --alpha 0.25 --feature g3 --out doc.json",
        "doc.json", "7130c267e0fc9963acd3df935a7131a1625811657a1084018fc3a209dcc01d51",
        id="exact-test-permutation-out",
    ),
    pytest.param(
        "verify-ct --family all --m 4 --instances 3 --seed 5 --out doc.json",
        "doc.json", "fef9d7fa43f09dd1f260c4409592130d533febfed86cec98b56140cf9a8546cb",
        id="verify-ct-out",
    ),
    pytest.param(
        "pvalues stats.csv --null student-t:6 --out p.csv",
        "p.csv", "9f1523bbfd4a336ebb5fd95147770465783dc2be027de0132ba17f2576780a42",
        id="pvalues-out",
    ),
    pytest.param(
        _STUDY,
        "results/summary.json", "ac062e8b337a16d51f26c4fe622dbd32d0a31a3f6e3a524f4d82f6d42d47e070",
        id="simulate-summary",
    ),
    pytest.param(
        _STUDY,
        "results/metrics.csv", "1113b6b6be29986296dba5104067dac77af83252da9ab7d2f08fcbbb09dee762",
        id="simulate-metrics",
    ),
    pytest.param(
        _STUDY,
        "results/cell000_pvalues.csv", "1b4602bb9f960d22108248dd1b4116493f30d666cb0d8c3eee4c28e41bdbe716",
        id="simulate-exported-pvalues-0",
    ),
    pytest.param(
        _STUDY,
        "results/cell001_pvalues.csv", "10ee07fff4460adf6fb925691ab399beb69c96a4e98c1b11e4f2f93ff04a1ac6",
        id="simulate-exported-pvalues-1",
    ),
    pytest.param(
        _STUDY,
        "stdout", "ed90b48c350050adf62c33a6438f9bdb2cffcfa1b29bc8e1c0f98e19cb8237ca",
        id="simulate-stdout",
    ),
    pytest.param(
        "pvalues stats.csv --shape equivalence --delta 3",
        "stdout", "34fdf0083237a420ff50823ac3f87ac094aa00c28c46fe8852f2b56329bf3d51",
        id="pvalues-stdout",
    ),
    pytest.param(
        "pvalues stats.csv --csv",
        "stdout", "c36ce58b8bf0e6a9447c3668fb235d41c7f6e238f9356da70727d2f111edabb5",
        id="pvalues-csv-stdout",
    ),
    pytest.param(
        "control stats.csv --gamma 0.3",
        "stdout", "d6ade1845afa77cc93a45e1d74e7d0b71d0e65d43a7c63b5756aacb4b9c66e06",
        id="control-stdout",
    ),
    pytest.param(
        "control data.csv --delta 0.5 --gamma 0.4 --csv",
        "stdout", "a7bae99db5523d6c4133ce1fff7b35703d28f8f399fb580e48088dceae427fa6",
        id="control-csv-stdout",
    ),
    pytest.param(
        "estimate stats.csv --t 1",
        "stdout", "a313d3a9f62520e1d834a319daa036a30e2cbc6815ecb51a1a38e662ad3ea1d8",
        id="estimate-stdout",
    ),
    pytest.param(
        "exact-test ones.csv --test sign-flip --alpha 0.25",
        "stdout", "4f2e8e492cff81732ffef80c2952bf3c12c7584493a0dadf510bf5649a028a48",
        id="exact-test-stdout",
    ),
]


@pytest.mark.parametrize("argv, output, digest", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv, output, digest):
    monkeypatch.chdir(tmp_path)
    for name, text in _PINNED_INPUTS.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    data = out.encode("utf-8") if output == "stdout" else (tmp_path / output).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "artifact 0.1.0"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
