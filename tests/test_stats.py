"""Tests for data ingestion, statistic computation, and margin handling."""

from __future__ import annotations

import numpy as np
import pytest

from artifact import (
    DataMatrix,
    HypothesisShape,
    StatisticVector,
    apply_margin_shift,
    column_mean_statistics,
    estimate_directional,
    read_data_csv,
    read_statistics_csv,
    two_group_statistics,
    welch_t_statistics,
    write_statistics_csv,
)

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

    @pytest.mark.parametrize("labels", [("a", "a", "a"), ("a", "b", "c")], ids=["one", "three"])
    def test_group_column_needs_two_labels_names_file_and_column(self, tmp_path, labels):
        path = tmp_path / "data.csv"
        path.write_text("x,Group\n" + "".join(f"{i},{g}\n" for i, g in enumerate(labels)))
        with pytest.raises(
            ValueError, match=f"data.csv: group column 'Group' must hold exactly two .* found {len(set(labels))}"
        ):
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

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("index,statistic\nzero,1.0\n")
        with pytest.raises(ValueError, match="malformed row 2"):
            read_statistics_csv(path)


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

    def test_margin_shift_rejected_for_equivalence(self):
        sv = StatisticVector(statistics=np.array([1.0]), margins=2.0, shape=EQU)
        with pytest.raises(ValueError, match="directional"):
            apply_margin_shift(sv, new_margins=0.0)
