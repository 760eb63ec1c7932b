"""Tests for data ingestion, statistic computation, and margin handling."""

from __future__ import annotations

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact.control
from artifact import stats
from artifact import (
    DataMatrix,
    HypothesisShape,
    NullDensitySpec,
    PValueVector,
    StatisticVector,
    apply_margin_shift,
    column_mean_statistics,
    directional_pvalues,
    estimate_directional,
    read_data_csv,
    read_pvalues_csv,
    read_statistics_csv,
    two_group_statistics,
    welch_t_statistics,
    write_pvalues_csv,
    write_statistics_csv,
)
from artifact.cli import main

DIR = HypothesisShape.DIRECTIONAL
EQU = HypothesisShape.EQUIVALENCE


def _two_group_matrix():
    """One feature: treatment observations (0,0,2,2), control (1,1,3,3)."""
    values = np.array([[0.0], [0.0], [2.0], [2.0], [1.0], [1.0], [3.0], [3.0]])
    group = np.array(["treat"] * 4 + ["ctrl"] * 4)
    return DataMatrix(values=values, feature_names=("f",), group=group)


class TestDataMatrix:
    def test_dimensions(self):
        dm = DataMatrix(values=np.ones((3, 2)), feature_names=("a", "b"))
        assert dm.n == 3 and dm.m == 2

    def test_group_labels_in_first_appearance_order(self):
        dm = _two_group_matrix()
        assert dm.group_labels == ("treat", "ctrl")
        rows_a, rows_b = dm.group_rows()
        np.testing.assert_array_equal(rows_a, [0, 1, 2, 3])
        np.testing.assert_array_equal(rows_b, [4, 5, 6, 7])

    def test_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            DataMatrix(values=np.ones(3), feature_names=("a",))
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(values=np.array([[1.0, np.nan]]), feature_names=("a", "b"))
        with pytest.raises(ValueError, match="feature_names"):
            DataMatrix(values=np.ones((2, 2)), feature_names=("a",))
        with pytest.raises(ValueError, match="one label per row"):
            DataMatrix(values=np.ones((3, 1)), feature_names=("a",), group=np.array(["x", "y"]))
        with pytest.raises(ValueError, match="two distinct"):
            DataMatrix(
                values=np.ones((3, 1)),
                feature_names=("a",),
                group=np.array(["x", "x", "x"]),
            )

    def test_arrays_are_read_only(self):
        dm = _two_group_matrix()
        with pytest.raises(ValueError, match="read-only"):
            dm.values[0, 0] = np.inf
        with pytest.raises(ValueError, match="read-only"):
            dm.group[0] = "ctrl"
        values = np.ones((2, 1))
        DataMatrix(values=values, feature_names=("a",))
        values[0, 0] = 2.0

    def test_group_queries_require_group(self):
        dm = DataMatrix(values=np.ones((2, 1)), feature_names=("a",))
        with pytest.raises(ValueError, match="no group column"):
            dm.group_labels


class TestReadDataCsv:
    def test_reads_features_and_group(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("g1,group,g2\n1.5,a,2.5\n-0.5,b,0.25\n")
        dm = read_data_csv(path)
        assert dm.feature_names == ("g1", "g2")
        np.testing.assert_array_equal(dm.values, [[1.5, 2.5], [-0.5, 0.25]])
        np.testing.assert_array_equal(dm.group, ["a", "b"])

    @pytest.mark.parametrize("name", ["Group", " GROUP "])
    def test_group_column_is_matched_in_any_case(self, tmp_path, name):
        path = tmp_path / "data.csv"
        path.write_text(f"g1,{name},g2\n1.5,0,2.5\n-0.5,1,0.25\n")
        dm = read_data_csv(path)
        assert dm.feature_names == ("g1", "g2")
        np.testing.assert_array_equal(dm.group, ["0", "1"])

    @pytest.mark.parametrize(
        "header, column",
        [("group,a,a", "a"), ("a,b,a", "a"), ("a,Group,group", "group")],
    )
    def test_repeated_column_name_rejected(self, tmp_path, header, column):
        path = tmp_path / "data.csv"
        path.write_text(f"{header}\n0,1,2\n1,3,4\n")
        with pytest.raises(ValueError, match=f"data.csv: column '{column}' appears more than once"):
            read_data_csv(path)

    def test_no_group_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        dm = read_data_csv(path)
        assert dm.group is None
        assert dm.m == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x\n1\n\n2\n")
        assert read_data_csv(path).n == 2

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 3.*'y'.*oops"):
            read_data_csv(path)

    @pytest.mark.parametrize("cell", ["1_000", "１５", "-2.5e-1_0"], ids=["underscore", "full-width", "exponent"])
    def test_cell_the_c_parser_refuses_is_refused_on_both_routes(self, tmp_path, cell):
        # float reads 1_000 as 1000 and １５ as 15; numpy's C parser refuses both.
        path = tmp_path / "data.csv"
        path.write_text(f"x,y,group\n1,2,a\n3,{cell},b\n", encoding="utf-8")
        outcome, _, literal = _routes(read_data_csv, path)
        assert outcome == literal == ("error", f"{path}: row 3, column 'y': could not parse {cell!r} as a number")

    @pytest.mark.parametrize("labels", [("a", "a", "a"), ("a", "b", "c")], ids=["one", "three"])
    def test_group_column_needs_two_labels_names_file_and_column(self, tmp_path, labels):
        path = tmp_path / "data.csv"
        path.write_text("x,Group\n" + "".join(f"{i},{g}\n" for i, g in enumerate(labels)))
        with pytest.raises(
            ValueError, match=f"data.csv: group column 'Group' must hold exactly two .* found {len(set(labels))}"
        ):
            read_data_csv(path)

    @pytest.mark.parametrize(
        "body, row",
        [("1,2,\n2,3,b\n3,1,\n4,5,b\n", 2), ("1,2,a\n2,3,b\n3,1, \n4,5,b\n", 4), ('1,2,a\n2,3,""\n', 3)],
        ids=["trailing-comma", "spaces", "quoted-empty"],
    )
    def test_blank_group_label_is_refused_naming_its_row(self, tmp_path, body, row):
        # A blank label was read as the label '', so unlabelled rows formed a group.
        path = tmp_path / "data.csv"
        path.write_text("x,y,group\n" + body)
        outcome, _, literal = _routes(read_data_csv, path)
        assert outcome == literal == ("error", f"{path}: row {row}, column 'group': blank group label")

    @pytest.mark.parametrize("header, column", [("x,", 2), (",x,y", 1), ("x, ,group", 2)])
    def test_blank_header_cell_is_refused_naming_its_column(self, tmp_path, header, column):
        # A header "x," gave a feature named ''.
        path = tmp_path / "data.csv"
        row = ",".join(["1"] * (header.count(",") + 1))
        path.write_text(f"{header}\n{row}\n{row}\n")
        with pytest.raises(ValueError, match=f"data.csv: header column {column} is blank"):
            read_data_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2,3\n")
        with pytest.raises(ValueError, match="row 2 has 3 cells"):
            read_data_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\ufeffgroup,g1\na,1.5\nb,-0.5\n", encoding="utf-8")
        dm = read_data_csv(path)
        assert dm.feature_names == ("g1",)
        np.testing.assert_array_equal(dm.group, ["a", "b"])

    def test_empty_file_and_headerless_data(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_data_csv(path)
        path.write_text("x\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_data_csv(path)


class TestStatisticsCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31337)
        sv = StatisticVector(
            statistics=rng.normal(size=40) * 1e3,
            margins=rng.uniform(0.1, 2.0, size=40),
            shape=EQU,
        )
        path = tmp_path / "stats.csv"
        write_statistics_csv(sv, path)
        stats, margins = read_statistics_csv(path)
        np.testing.assert_array_equal(stats, sv.statistics)
        np.testing.assert_array_equal(margins, sv.margins)

    def test_margin_column_optional(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("index,statistic\n0,1.5\n1,-2.5\n")
        stats, margins = read_statistics_csv(path)
        np.testing.assert_array_equal(stats, [1.5, -2.5])
        assert margins is None

    def test_rows_ordered_by_index(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("index,statistic,margin\n2,3.0,0.3\n0,1.0,0.1\n1,2.0,0.2\n")
        stats, margins = read_statistics_csv(path)
        np.testing.assert_array_equal(stats, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(margins, [0.1, 0.2, 0.3])

    def test_header_validation(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("statistic,index\n1,0\n")
        with pytest.raises(ValueError, match="expected header"):
            read_statistics_csv(path)

    def test_header_ignores_bom_and_case(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("\ufeffIndex,Statistic,MARGIN\n1,2.0,0.2\n0,1.0,0.1\n", encoding="utf-8")
        stats, margins = read_statistics_csv(path)
        np.testing.assert_array_equal(stats, [1.0, 2.0])
        np.testing.assert_array_equal(margins, [0.1, 0.2])

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("2,1.0\n0,2.0\n2,3.0\n", "row 4: index 2 repeats row 2"),
            ("2,1.0\n0,2.0\n3,3.0\n", "row 4: index 3 is outside 0..2"),
            ("-1,1.0\n", "row 2: index -1 is outside 0..0"),
        ],
        ids=["duplicate", "gap", "negative"],
    )
    def test_indices_must_be_0_to_m_minus_1_once_each(self, tmp_path, rows, problem):
        path = tmp_path / "stats.csv"
        path.write_text("index,statistic\n" + rows)
        with pytest.raises(ValueError, match=problem):
            read_statistics_csv(path)

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("0,1.0,0.1\n1,nan,0.2\n", "row 3, column 'statistic': non-finite value nan"),
            ("0,1e400,0.1\n1,2.0,0.2\n", "row 2, column 'statistic': non-finite value inf"),
            ("0,1.0,0.1\n1,2.0,-inf\n", "row 3, column 'margin': non-finite value -inf"),
        ],
        ids=["nan", "overflow", "margin"],
    )
    def test_non_finite_cell_names_file_row_and_column(self, tmp_path, rows, problem):
        path = tmp_path / "stats.csv"
        path.write_text("index,statistic,margin\n" + rows)
        with pytest.raises(ValueError, match=f"stats.csv: {problem}"):
            read_statistics_csv(path)

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("zero,1.0\n", "row 2, column 'index': could not parse 'zero' as an integer"),
            ("0,1.5\n1,one\n", "row 3, column 'statistic': could not parse 'one' as a number"),
            # int and float read these (as 15, 1000 and 1), numpy's C parser does not.
            ("0,１５\n", "row 2, column 'statistic': could not parse '１５' as a number"),
            ("0,1_000\n", "row 2, column 'statistic': could not parse '1_000' as a number"),
            ("0,2.5\n१,1.0\n", "row 3, column 'index': could not parse '१' as an integer"),
        ],
        ids=["index", "statistic", "full-width-digits", "underscore", "devanagari-index"],
    )
    def test_malformed_row(self, tmp_path, rows, problem):
        path = tmp_path / "stats.csv"
        path.write_text("index,statistic\n" + rows)
        with pytest.raises(ValueError, match=f"stats.csv: {problem}"):
            read_statistics_csv(path)


READERS = {"data": read_data_csv, "statistics": read_statistics_csv, "pvalues": read_pvalues_csv}


def _outcome(read, path):
    """What ``read`` makes of ``path``: its arrays as raw bytes, or its error message."""
    try:
        result = read(path)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, DataMatrix):
        group = None if result.group is None else (result.group.dtype.str, result.group.tolist())
        return result.values.shape, result.values.tobytes(), result.feature_names, group
    arrays = result if isinstance(result, tuple) else (result,)
    return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _routes(read, path):
    """``read``'s outcome on ``path``, whether it kept the C parser's rows, and the cell loop's outcome.

    The reader rewinds the file for the per-cell loop only when the C parser's
    route declines, so no rewind means the C parser's rows stood.
    """
    rewinds = []
    restart = stats._restart
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_restart", lambda fh: rewinds.append(fh) or restart(fh))
        outcome = _outcome(read, path)
        mp.setattr(stats, "_loadtxt_plain", lambda fh, **kwargs: None)
        return outcome, not rewinds, _outcome(read, path)


def _indexed(column, index_text=None, rows=11):
    """An ``index,<column>`` file of ``rows`` rows; ``index_text`` rewrites some indices."""
    index_text = index_text or {}
    body = "".join(f"{index_text.get(j, j)},{(j + 1) / 16}\n" for j in range(rows))
    return f"index,{column}\n{body}"


ROUTE_CASES = [
    pytest.param("data", "x,group\n1_0,a\n2,b\n", "literal", id="data-underscore-digits"),
    pytest.param("data", "x,group\n１２,a\n2,b\n", "literal", id="data-full-width-digits"),
    pytest.param("data", "x,y,group\n 1.5 ,+1.5,a\n-0.0,2,b\n", "fast", id="data-padding-plus-negative-zero"),
    pytest.param("data", "x,group\ninf,a\n2,b\n", "fast", id="data-inf"),
    pytest.param("data", "x,group\n1,a\n-Infinity,b\n", "fast", id="data-minus-infinity"),
    pytest.param("data", "x,group\nnan,a\n2,b\n", "fast", id="data-nan"),
    pytest.param("data", "x,group\n1e400,a\n2,b\n", "fast", id="data-overflow"),
    pytest.param("data", 'x,group\n"1.5",a\n2,b\n', "literal", id="data-quoted-number"),
    pytest.param("data", 'x,group\n1.5,"a"\n2,b\n', "literal", id="data-quoted-group"),
    pytest.param("data", 'x,group\n1.5,"a,1"\n2,b\n', "literal", id="data-quoted-group-with-comma"),
    pytest.param("data", "x,group\n1.5, a \n2,b\t\n", "fast", id="data-padded-groups"),
    pytest.param("data", "x,group\n#,a\n2,b\n", "literal", id="data-hash-cell"),
    pytest.param("data", "x,group\n1,#a\n2,b\n", "fast", id="data-hash-group"),
    pytest.param("data", "x,group\n1,a\n\n2,b\n", "literal", id="data-blank-row"),
    pytest.param("data", "x,group\n1,a\n,\n2,b\n", "literal", id="data-all-comma-row"),
    pytest.param("data", "x,group\r\n1,a\r\n2,b\r\n", "fast", id="data-crlf"),
    pytest.param("data", "\ufeffx,group\n1,a\n2,b\n", "fast", id="data-bom"),
    pytest.param("data", "\ufeffx,group\n1,a\n2,b\n\n", "literal", id="data-bom-and-blank-row"),
    pytest.param("data", "Group,x,y\na,1,2\nb,3,4\n", "fast", id="data-group-first"),
    pytest.param("data", "x,GROUP,y\n1,a,2\n3,b,4\n", "fast", id="data-group-middle"),
    pytest.param("data", "x,y\n1,2\n3,4\n", "fast", id="data-no-group"),
    pytest.param("data", "x,y\n1,2,3\n4,5,6\n", "literal", id="data-three-cells-under-two"),
    pytest.param("data", "x,group\n1,a\n2,b\n3,c\n", "fast", id="data-three-labels"),
    pytest.param("data", "x,group\n1,a\n2, a\n", "fast", id="data-one-label"),
    pytest.param("data", "x,group\n\x1c1.5,a\n2,b\n", "literal", id="data-file-separator"),
    pytest.param("data", "x,group\n1.5,café\n2,b\n", "literal", id="data-non-ascii-group"),
    pytest.param("statistics", _indexed("statistic", {3: "03"}), "fast", id="statistics-index-leading-zero"),
    pytest.param("statistics", _indexed("statistic", {3: "+3"}), "fast", id="statistics-index-plus"),
    pytest.param("statistics", _indexed("statistic", {3: "3.0"}), "literal", id="statistics-index-float"),
    pytest.param("statistics", _indexed("statistic", {10: "1_0"}), "literal", id="statistics-index-underscore"),
    pytest.param("statistics", _indexed("statistic", {2: "२"}), "literal", id="statistics-index-devanagari"),
    pytest.param("statistics", _indexed("statistic", {3: "\x1c3"}), "literal", id="statistics-index-file-separator"),
    pytest.param("statistics", _indexed("statistic", {3: "2"}), "fast", id="statistics-index-repeated"),
    pytest.param("statistics", "index,statistic\n0,1.5\n1,one\n", "literal", id="statistics-non-numeric"),
    pytest.param("statistics", _indexed("statistic", {3: "11"}), "fast", id="statistics-index-out-of-range"),
    pytest.param(
        "statistics", "index,statistic,margin,note\n1,2.5,0.2,x\n0,1.5,0.1,y,z\n", "literal", id="statistics-extra-columns"
    ),
    pytest.param("statistics", "index,statistic,margin,note\n1,2.5,0.2,x\n0,1.5,0.1,y\n", "literal", id="statistics-note"),
    pytest.param("statistics", "index,statistic,margin,note\n1,2.5,0.2,7\n0,1.5,0.1,8\n", "fast", id="statistics-numeric-note"),
    pytest.param(
        "statistics", "index,statistic,margin,note\n1,2.5,0.2,7\n0,1.5,0.1\n", "literal", id="statistics-row-narrower-than-header"
    ),
    pytest.param("statistics", "Index,Statistic\r\n1,2.5\r\n0,1.5\r\n", "fast", id="statistics-crlf"),
    pytest.param("statistics", "index,statistic,margin\n1,2.5,0.2\n0,1.5,0.1\n", "fast", id="statistics-margin"),
    pytest.param(
        "statistics", 'index,statistic,margin,note\n0,1.5,0.1,"x\n1,2.5,0.2,"\n', "literal", id="statistics-quoted-note-over-lines"
    ),
    pytest.param("pvalues", _indexed("pvalue", {3: "03", 4: "+4"}), "fast", id="pvalues-index-forms"),
    pytest.param("pvalues", _indexed("pvalue", {3: "3.0"}), "literal", id="pvalues-index-float"),
    pytest.param("pvalues", _indexed("pvalue", {10: "1_0"}), "literal", id="pvalues-index-underscore"),
    pytest.param("pvalues", "index,pvalue,x\n1,0.5,y\n0,0.25\n", "literal", id="pvalues-ragged-extra-columns"),
    pytest.param("pvalues", "index,pvalue,x\n1,0.5,y\n0,0.25,z\n", "literal", id="pvalues-extra-column"),
    pytest.param("pvalues", "index,pvalue\n2,0.5\n0,-0.25\n1,1.5\n", "fast", id="pvalues-outside-unit"),
    pytest.param("pvalues", "index,pvalue\n0,0.5\n\n\n1,1.5\n", "literal", id="pvalues-blank-lines-then-outside"),
    pytest.param("pvalues", "index,pvalue\n0,0.5\n \n1,1.5\n", "literal", id="pvalues-space-line-then-outside"),
]


@pytest.mark.parametrize("kind, text, route", ROUTE_CASES)
def test_c_parser_route_matches_the_cell_loop(tmp_path, kind, text, route):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome, kept_c_rows, literal = _routes(READERS[kind], path)
    assert outcome == literal
    assert kept_c_rows == (route == "fast")


def test_a_shuffled_file_reads_as_its_ordered_twin(tmp_path):
    m = 50_000
    values = np.random.default_rng(5).standard_normal((m, 2))
    lines = [f"{j},{a!r},{b!r}\n" for j, (a, b) in enumerate(values.tolist())]
    ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
    ordered.write_text("index,statistic,margin\n" + "".join(lines))
    order = np.random.default_rng(6).permutation(m)
    shuffled.write_text("index,statistic,margin\n" + "".join(lines[j] for j in order))
    expected = _outcome(read_statistics_csv, ordered)
    assert expected[0][2] == values[:, 0].tobytes() and expected[1][2] == values[:, 1].tobytes()
    outcome, kept_c_rows, literal = _routes(read_statistics_csv, shuffled)
    assert outcome == literal == expected and kept_c_rows


@pytest.mark.parametrize(
    "kind, header",
    [
        ("statistics", "index,statistic"),
        ("statistics", "index,statistic,margin"),
        ("pvalues", "index,pvalue"),
        ("statistics", "index,statistic,margin,note"),
        ("pvalues", "index,pvalue,note"),
    ],
    ids=["statistics", "statistics-margin", "pvalues", "statistics-note", "pvalues-note"],
)
@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_a_row_wider_than_an_exact_header_is_refused_on_both_routes(tmp_path, kind, header, quote):
    # A decimal comma ("0,5" for 0.5) in the last cell adds a cell to each row,
    # under an exact header and under one with further columns alike.
    width = header.count(",") + 1
    body = "".join(f"{quote}{j}{quote}" + ",0" * (width - 1) + ",5\n" for j in range(3))
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n{body}")
    outcome, _, literal = _routes(READERS[kind], path)
    assert outcome == literal == ("error", f"{path}: row 2 has {width + 1} cells, header has {width}")


@settings(max_examples=150, deadline=None)
@given(
    values=st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
            min_size=2,
            max_size=6,
        )
    ),
    group_at=st.none() | st.integers(0, 6),
    newline=st.sampled_from(["\n", "\r\n"]),
    non_finite=st.none()
    | st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(["nan", "inf", "-inf", "1e400"])),
)
def test_written_matrices_read_alike_on_both_routes(values, group_at, newline, non_finite):
    matrix = np.asarray(values, dtype=np.float64)
    names = [f"f{j}" for j in range(matrix.shape[1])]
    cells = [[format(v, ".17g") for v in row] for row in matrix]
    if non_finite is not None:
        i, j, bad = non_finite
        i, j = i % matrix.shape[0], j % matrix.shape[1]
        cells[i][j] = bad
        problem = f"row {i + 2}, column 'f{j}': non-finite value {float(bad):g}"
    if group_at is not None:
        group_at = min(group_at, len(names))
        names.insert(group_at, "group")
        for i, row in enumerate(cells):
            row.insert(group_at, f" g{i % 2} ")
    text = newline.join(",".join(row) for row in [names, *cells]) + newline
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome, kept_c_rows, literal = _routes(read_data_csv, path)
    assert kept_c_rows
    assert outcome == literal
    if non_finite is None:
        assert outcome[1] == matrix.tobytes()
    else:
        assert outcome == ("error", f"{path}: {problem}")


@pytest.mark.parametrize(
    "kind, data, line",
    [
        ("data", b"x,group\n1,a\n2,b\xff\n", 3),
        ("data", b"x,gr\xffoup\n1,a\n2,b\n", 1),
        ("statistics", b"index,statistic\n" + b"".join(b"%d,0.5\n" % j for j in range(3000)) + b"\xff", 3002),
        ("pvalues", b"\xef\xbb\xbfindex,pvalue\r\n0,0.5\r\n\xe91,0.5\r\n", 3),
    ],
    ids=["data-row", "data-header", "statistics-past-first-chunk", "pvalues-bom-crlf"],
)
def test_undecodable_byte_names_file_and_line(tmp_path, kind, data, line):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"in\.csv: line {line}: cannot decode byte 0x(ff|e9) as UTF-8"):
        READERS[kind](path)


# The per-row csv.writer bodies that every index,<values> writer must match
# byte for byte, kept literally as the reference.


def _reference_statistics_csv(sv, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "statistic", "margin"])
        for i in range(sv.m):
            writer.writerow(
                [i, format(sv.statistics[i], ".17g"), format(sv.margins[i], ".17g")]
            )


def _reference_pvalues_csv(pv, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "pvalue"])
        for i, value in enumerate(pv.values):
            writer.writerow([i, format(value, ".17g")])


def _reference_pvalues_stdout(pv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print("index,pvalue")
        for j, p in enumerate(pv.values):
            print(f"{j},{p:.17g}")
    return out.getvalue()


def _assert_writers_match_reference(values, tmp):
    """Every writer gives the reference bytes, and every file reads back bit for bit."""
    values = np.asarray(values, dtype=np.float64)
    sv = StatisticVector(values, values[::-1], DIR)
    written, reference = tmp / "written.csv", tmp / "reference.csv"
    write_statistics_csv(sv, written)
    _reference_statistics_csv(sv, reference)
    assert written.read_bytes() == reference.read_bytes()
    statistics, margins = read_statistics_csv(written)
    assert statistics.tobytes() == sv.statistics.tobytes()
    assert margins.tobytes() == sv.margins.tobytes()

    with np.errstate(over="ignore"):
        printed = directional_pvalues(sv, NullDensitySpec.standard_normal())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["pvalues", str(written), "--csv"]) == 0
    assert out.getvalue() == _reference_pvalues_stdout(printed)

    probabilities = values[(values >= 0.0) & (values <= 1.0)]
    for pv in [printed] + ([PValueVector(probabilities, DIR)] if probabilities.size else []):
        write_pvalues_csv(pv, written)
        _reference_pvalues_csv(pv, reference)
        assert written.read_bytes() == reference.read_bytes()
        assert read_pvalues_csv(written).tobytes() == pv.values.tobytes()


class TestWriters:
    @pytest.mark.parametrize(
        "values",
        [[0.5], [-0.0], [0.0, -0.0, 1.0, 5e-324, 1e308, -1e308, 1e-300, 0.1]],
        ids=["m=1", "negative-zero", "edges"],
    )
    def test_edge_values_match_the_reference(self, tmp_path, values):
        _assert_writers_match_reference(values, tmp_path)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(0.0, 1.0)
            | st.sampled_from([-0.0, 5e-324]),
            min_size=1,
            max_size=30,
        )
    )
    def test_finite_doubles_match_the_reference(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            _assert_writers_match_reference(values, Path(tmp))

    def test_control_reexports_the_stats_functions(self):
        # The bench tracer patches every module attribute that is this object.
        assert artifact.control.write_pvalues_csv is stats.write_pvalues_csv
        assert artifact.control.read_pvalues_csv is stats.read_pvalues_csv


class TestStatisticFunctions:
    def test_column_means_are_unscaled(self):
        dm = DataMatrix(values=np.array([[1.0, 2.0], [3.0, 4.0]]), feature_names=("a", "b"))
        sv = column_mean_statistics(dm, margins=0.0)
        np.testing.assert_array_equal(sv.statistics, [2.0, 3.0])

    def test_two_group_hand_value(self):
        sv = two_group_statistics(_two_group_matrix(), margins=0.0)
        # sqrt(4) * (1 - 2) = -2
        assert sv.statistics[0] == -2.0

    def test_two_group_requires_equal_sizes(self):
        dm = DataMatrix(
            values=np.ones((3, 1)),
            feature_names=("a",),
            group=np.array(["x", "x", "y"]),
        )
        with pytest.raises(ValueError, match="equal group sizes"):
            two_group_statistics(dm, margins=0.0)

    def test_welch_hand_value(self):
        sv, kept, dof = welch_t_statistics(_two_group_matrix(), margins=0.0)
        # means 1 and 2, both sample variances 4/3: t = -1 / sqrt(2/3)
        assert sv.statistics[0] == pytest.approx(-1.0 / np.sqrt(2.0 / 3.0), rel=1e-15)
        np.testing.assert_array_equal(kept, [0])
        assert dof[0] == pytest.approx(6.0, rel=1e-12)

    def test_welch_handles_unequal_sizes(self):
        values = np.array([[0.0], [2.0], [1.0], [3.0], [5.0]])
        group = np.array(["a", "a", "b", "b", "b"])
        dm = DataMatrix(values=values, feature_names=("f",), group=group)
        sv, _, _ = welch_t_statistics(dm, margins=0.0)
        # means 1 and 3, variances 2 and 4: t = -2 / sqrt(2/2 + 4/3)
        assert sv.statistics[0] == pytest.approx(-2.0 / np.sqrt(1.0 + 4.0 / 3.0), rel=1e-15)

    def test_welch_drops_zero_variance_features(self):
        values = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 1.0], [1.0, 3.0]])
        dm = DataMatrix(
            values=values,
            feature_names=("flat", "ok"),
            group=np.array(["a", "a", "b", "b"]),
        )
        with pytest.warns(UserWarning, match="flat"):
            sv, kept, _ = welch_t_statistics(dm, margins=np.array([0.5, 0.7]))
        np.testing.assert_array_equal(kept, [1])
        assert sv.m == 1
        np.testing.assert_array_equal(sv.margins, [0.7])

    def test_welch_rejects_all_flat(self):
        dm = DataMatrix(
            values=np.ones((4, 1)),
            feature_names=("flat",),
            group=np.array(["a", "a", "b", "b"]),
        )
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="zero variance"):
                welch_t_statistics(dm, margins=0.0)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(2024)
        values = rng.normal(size=(10, 4))
        group = np.array(["t"] * 5 + ["c"] * 5)
        dm = DataMatrix(values=values, feature_names=tuple("abcd"), group=group)
        perm = rng.permutation(10)
        # keep the first-appearing label the same after shuffling
        while group[perm][0] != "t":
            perm = rng.permutation(10)
        shuffled = DataMatrix(
            values=values[perm], feature_names=tuple("abcd"), group=group[perm]
        )
        # summation order changes, so equality is only up to rounding
        np.testing.assert_allclose(
            two_group_statistics(dm, 0.0).statistics,
            two_group_statistics(shuffled, 0.0).statistics,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            welch_t_statistics(dm, 0.0)[0].statistics,
            welch_t_statistics(shuffled, 0.0)[0].statistics,
            rtol=1e-12,
        )

    def test_label_swap_negates_statistics(self):
        dm = _two_group_matrix()
        swapped = DataMatrix(
            values=dm.values[::-1], feature_names=dm.feature_names, group=dm.group[::-1]
        )
        assert swapped.group_labels == ("ctrl", "treat")
        np.testing.assert_array_equal(
            two_group_statistics(swapped, 0.0).statistics,
            -two_group_statistics(dm, 0.0).statistics,
        )
        np.testing.assert_array_equal(
            welch_t_statistics(swapped, 0.0)[0].statistics,
            -welch_t_statistics(dm, 0.0)[0].statistics,
        )


class TestApplyMarginShift:
    def test_shift_to_zero_preserves_differences_exactly(self):
        rng = np.random.default_rng(11)
        stats = rng.normal(size=30)
        margins = rng.uniform(-1, 1, size=30)
        sv = StatisticVector(statistics=stats, margins=margins, shape=DIR)
        shifted = apply_margin_shift(sv, new_margins=0.0)
        np.testing.assert_array_equal(shifted.statistics, stats - margins)
        np.testing.assert_array_equal(shifted.margins, np.zeros(30))
        # downstream estimates agree bit-for-bit
        for t in (0.0, 0.25, 1.0):
            a = estimate_directional(sv, t)
            b = estimate_directional(shifted, t)
            assert a.v_tilde == b.v_tilde
            np.testing.assert_array_equal(a.rejected, b.rejected)

    @pytest.mark.parametrize("target", [0.75, np.linspace(-1.0, 2.0, 30)], ids=["scalar", "array"])
    def test_shift_to_a_non_zero_target_is_the_difference_plus_the_target(self, target):
        rng = np.random.default_rng(13)
        sv = StatisticVector(statistics=rng.normal(size=30), margins=rng.uniform(-1, 1, size=30), shape=DIR)
        shifted = apply_margin_shift(sv, new_margins=target)
        expected = (sv.statistics - sv.margins) + target
        assert shifted.statistics.tobytes() == expected.tobytes()
        assert shifted.margins.tobytes() == np.broadcast_to(np.float64(target), (30,)).tobytes()

    def test_flip_is_an_involution(self):
        rng = np.random.default_rng(12)
        sv = StatisticVector(
            statistics=rng.normal(size=20), margins=rng.uniform(-1, 1, size=20), shape=DIR
        )
        mask = rng.random(20) < 0.5
        twice = apply_margin_shift(apply_margin_shift(sv, flip=mask), flip=mask)
        np.testing.assert_array_equal(twice.statistics, sv.statistics)
        np.testing.assert_array_equal(twice.margins, sv.margins)

    def test_directional_flip_negates_statistic_and_margin(self):
        sv = StatisticVector(statistics=np.array([3.0, 1.0]), margins=np.array([0.5, 0.25]), shape=DIR)
        flipped = apply_margin_shift(sv, flip=np.array([0]))
        np.testing.assert_array_equal(flipped.statistics, [-3.0, 1.0])
        np.testing.assert_array_equal(flipped.margins, [-0.5, 0.25])

    def test_equivalence_flip_keeps_margins(self):
        sv = StatisticVector(statistics=np.array([1.5, -0.5]), margins=2.0, shape=EQU)
        flipped = apply_margin_shift(sv, flip=np.array([True, True]))
        np.testing.assert_array_equal(flipped.statistics, [-1.5, 0.5])
        np.testing.assert_array_equal(flipped.margins, [2.0, 2.0])
        # inference is unchanged: the profile only sees |T|
        t = 0.3
        from artifact import estimate_equivalence

        assert estimate_equivalence(sv, t).v_tilde == estimate_equivalence(flipped, t).v_tilde

    @pytest.mark.parametrize(
        "flip, problem",
        [
            (np.array([1, 0, 1]), r"distinct indices in 0\.\.2"),
            ([-1], r"distinct indices in 0\.\.2"),
            (np.array([True, False]), "boolean mask of length 3"),
        ],
        ids=["zero-one-mask", "negative", "short-mask"],
    )
    def test_flip_must_be_a_full_mask_or_distinct_indices(self, flip, problem):
        # Numpy would read [1, 0, 1] as indices, flipping 0 and 1 (1 twice, once in effect), and
        # -1 as the last hypothesis; the short mask would raise IndexError.
        sv = StatisticVector(statistics=np.array([3.0, 1.0, 2.0]), margins=0.5, shape=DIR)
        with pytest.raises(ValueError, match=problem):
            apply_margin_shift(sv, flip=flip)
        flipped = apply_margin_shift(sv, flip=np.array([0, 2], dtype=np.uint8))
        np.testing.assert_array_equal(flipped.statistics, [-3.0, 1.0, -2.0])
        assert apply_margin_shift(sv, flip=[]).statistics.tobytes() == sv.statistics.tobytes()

    def test_margin_shift_rejected_for_equivalence(self):
        sv = StatisticVector(statistics=np.array([1.0]), margins=2.0, shape=EQU)
        with pytest.raises(ValueError, match="directional"):
            apply_margin_shift(sv, new_margins=0.0)
