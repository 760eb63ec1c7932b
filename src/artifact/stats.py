"""Data ingestion and test-statistic computation.

CSV conventions
---------------
* Raw data files: one header row naming the columns; an optional ``group``
  column (any case) holding exactly two labels; every other column is a
  numeric feature.  Rows are observations.  Values parse as IEEE doubles;
  blank or non-numeric cells are rejected at ingestion with the offending
  row/column named, and so is a column name that appears twice.
* Statistic files: header ``index,statistic[,margin]`` (any case; later
  columns are ignored), one row per hypothesis.  The indices
  must be 0..m-1, each once, in any order, and every value must be finite;
  a non-finite cell is rejected with its row and column named.
* P-value files: header ``index,pvalue``, rows as in a statistics file,
  and every p-value in [0, 1].  Both formats are written at 17 significant
  digits, so a written file re-reads to bit-identical values.
* Under a header of exactly the reader's columns, every row has as many
  cells, so a decimal comma is rejected, naming the row; under a header
  with further columns a row may end anywhere after its values.

Every reader drops a leading UTF-8 byte-order mark and rejects a byte that
is not UTF-8, naming the file and the line of the byte.

Reading routes
--------------
Every reader parses its header with :mod:`csv` and hands the rest of the
file to numpy's C parser (``np.loadtxt``).  That route keeps a result only
when the per-cell loop would return the same arrays bit for bit: a body of
plain ASCII lines with no quote, no U+001C..U+001F and no empty line, every
value finite, every row of raw data or under an exact header as wide as
the header, two group labels, and statistic or p-value indices 0..m-1 once
each.  Any other file is read again from the top by the per-cell loop, so
every error message comes from that literal route.

Indices are 0-based everywhere.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import HypothesisShape, StatisticVector, _read_only

__all__ = [
    "DataMatrix",
    "read_data_csv",
    "read_statistics_csv",
    "write_statistics_csv",
    "read_pvalues_csv",
    "write_pvalues_csv",
    "column_mean_statistics",
    "two_group_statistics",
    "welch_t_statistics",
    "apply_margin_shift",
]

GROUP_COLUMN = "group"

# A body goes to the C parser only when it is ASCII with none of these
# characters: numpy's int64 parser reads some non-ASCII characters as digits
# of a wrong number, csv joins a quoted cell across commas and lines where
# numpy does not, and numpy strips U+001C..U+001F as whitespace where
# ``int`` and ``float`` reject them.
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'
# numpy skips an empty line without counting it, which would shift the row
# numbers the p-value range check reports.
_EMPTY_LINES = ("\n", "\r\n", "\r")
_BLOCK_CHARS = 1 << 16


@contextlib.contextmanager
def _open_csv(path):
    """``path`` opened for csv reading, with a leading byte-order mark dropped.

    A byte that is not UTF-8 raises ValueError naming the file and its line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> ValueError:
    """The error for the first byte of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        # The appended byte makes the bad byte's line count when it starts one.
        line = len((data[: first.start] + b".").splitlines())
        return ValueError(
            f"{path}: line {line}: cannot decode byte 0x{data[first.start]:02x} "
            f"as UTF-8 ({first.reason})"
        )
    return ValueError(f"{path}: {exc}")


def _header(reader) -> list[str]:
    """The next row of a csv reader as a header: cells stripped and lowercased."""
    return [h.strip().lower() for h in next(reader, [])]


def _is_statistics_file(path) -> bool:
    """Whether the header starts ``index,statistic``; the reader checks the rest."""
    with _open_csv(path) as fh:
        first = next(csv.reader(fh), [])[:2]
    return [h.strip().lower() for h in first] == ["index", "statistic"]


def _plain_blocks(fh):
    """The lines left in ``fh``, a list per block of about 64k characters.

    Raises ValueError at the first block that is not plain (see
    ``_NOT_PLAIN``) or that holds an empty line.
    """
    for lines in iter(functools.partial(fh.readlines, _BLOCK_CHARS), []):
        block = "".join(lines)
        if (
            not block.isascii()
            or any(c in block for c in _NOT_PLAIN)
            or any(e in lines for e in _EMPTY_LINES)
        ):
            raise ValueError("not a plain block")
        yield lines


def _loadtxt_plain(fh, **kwargs) -> np.ndarray | None:
    """``np.loadtxt`` on the plain lines left in ``fh``, or None.

    None when the C parser or ``_plain_blocks`` rejects the text, and when
    nothing is left (loadtxt would warn about an empty input).
    """
    blocks = _plain_blocks(fh)
    try:
        first = next(blocks, None)
        if first is None:
            return None
        lines = itertools.chain(first, itertools.chain.from_iterable(blocks))
        return np.loadtxt(lines, delimiter=",", comments=None, **kwargs)
    except ValueError:
        return None


def _restart(fh):
    """A csv reader over ``fh`` rewound to just after its one-record header."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    return reader


def _indexed_rows_fast(fh, n_values: int, exact: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """``_read_indexed_rows`` by the C parser, or None where it would differ."""
    dtype = np.dtype([("index", np.int64), ("values", np.float64, (n_values,))])
    # Without usecols, loadtxt refuses a row wider than the dtype.
    usecols = None if exact else range(n_values + 1)
    rows = _loadtxt_plain(fh, dtype=dtype, usecols=usecols, ndmin=1)
    if rows is None:
        return None
    index, table = rows["index"], rows["values"]
    m = index.size
    if not np.isfinite(table).all() or np.any((index < 0) | (index >= m)):
        return None
    order = np.full(m, -1, dtype=np.intp)
    order[index] = np.arange(m)
    if np.any(order < 0):
        return None
    # Body row k is csv record (and file line) k + 2: no quote, no empty line.
    return table[order], order + 2


def _read_indexed_rows(path, fh, header: list[str], n_values: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``index,<values>`` float rows left in ``fh``, ordered by index.

    ``fh`` is an ``_open_csv`` file whose one-record ``header`` has been
    read; the ``n_values`` columns after the index are the values.  Returns
    the (m, n_values) values and the line number of each row, both in index
    order.  Blank lines are skipped.  Every value must be finite, the indices
    0..m-1, each once, and every row as wide as an exact header: a bad cell,
    index or row width raises, naming the row.
    """
    columns = header[1 : n_values + 1]
    exact = len(header) == n_values + 1
    fast = _indexed_rows_fast(fh, n_values, exact)
    if fast is not None:
        return fast
    lines: list[int] = []
    indices: list[int] = []
    values: list[float] = []
    for lineno, row in enumerate(_restart(fh), start=2):
        if not "".join(row).strip():
            continue
        if exact and len(row) != len(header):
            raise ValueError(f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}")
        try:
            if len(row) <= n_values:
                raise IndexError
            indices.append(int(row[0]))
            values.extend(map(float, row[1 : n_values + 1]))
        except (ValueError, IndexError):
            raise ValueError(f"{path}: malformed row {lineno}: {row!r}") from None
        lines.append(lineno)
    if not lines:
        raise ValueError(f"{path}: no data rows")
    m = len(lines)
    table = np.asarray(values, dtype=np.float64).reshape(m, n_values)
    non_finite = np.argwhere(~np.isfinite(table))
    if non_finite.size:
        k, c = non_finite[0]
        raise ValueError(
            f"{path}: row {lines[k]}, column '{columns[c]}': non-finite value {table[k, c]:g}"
        )
    index = np.asarray(indices)
    stray = np.flatnonzero((index < 0) | (index >= m))
    if stray.size:
        k = int(stray[0])
        raise ValueError(
            f"{path}: row {lines[k]}: index {indices[k]} is outside 0..{m - 1} "
            f"(the {m} rows must carry the indices 0..{m - 1}, each once)"
        )
    order = np.argsort(index, kind="stable")
    repeats = np.flatnonzero(np.diff(index[order]) == 0)
    if repeats.size:
        first, again = order[repeats[0]], order[repeats[0] + 1]
        raise ValueError(f"{path}: row {lines[again]}: index {indices[again]} repeats row {lines[first]}")
    return table[order], np.asarray(lines)[order]


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """An n-by-m matrix of observations with optional two-group labels.

    ``values[i, j]`` is observation i of feature j.  ``group`` (when
    present) assigns each row to one of exactly two labels; ``group_labels``
    lists them in first-appearance order, and the first label plays the role
    of the "treatment" group in two-sample statistics.  Both arrays are
    stored read-only once checked, sharing an input of their dtype.
    """

    values: np.ndarray
    feature_names: tuple[str, ...]
    group: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("values must be a non-empty 2-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("data matrix contains non-finite entries")
        names = tuple(self.feature_names)
        if len(names) != values.shape[1]:
            raise ValueError("feature_names length must match the number of columns")
        object.__setattr__(self, "values", _read_only(values))
        object.__setattr__(self, "feature_names", names)
        if self.group is not None:
            group = np.asarray(self.group)
            if group.shape != (values.shape[0],):
                raise ValueError("group must have one label per row")
            if len(dict.fromkeys(group.tolist())) != 2:
                raise ValueError("group column must contain exactly two distinct labels")
            object.__setattr__(self, "group", _read_only(group))

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def m(self) -> int:
        return int(self.values.shape[1])

    @property
    def group_labels(self) -> tuple:
        """The two labels in first-appearance order (treatment first)."""
        if self.group is None:
            raise ValueError("data matrix has no group column")
        return tuple(dict.fromkeys(self.group.tolist()))

    def group_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of the first-appearing and second-appearing label."""
        first, second = self.group_labels
        return np.flatnonzero(self.group == first), np.flatnonzero(self.group == second)


def _data_rows_fast(fh, n_cells: int, group_idx: int | None):
    """``_data_rows`` by the C parser, or None where it would differ."""
    codes: dict[str, int] = {}
    converters = None
    if group_idx is not None:
        # The group cell parses to the code of its stripped label.
        converters = {group_idx: lambda cell: codes.setdefault(cell.strip(), len(codes))}
    table = _loadtxt_plain(fh, ndmin=2, converters=converters)
    if table is None or table.shape[1] != n_cells:
        return None
    groups = None
    if group_idx is not None:
        if len(codes) != 2:
            return None
        groups = np.asarray(list(codes))[table[:, group_idx].astype(np.intp)]
        table = np.delete(table, group_idx, axis=1)
    if not np.isfinite(table).all():
        return None
    return table, groups


def _data_rows(
    path, reader, header: list[str], feature_cols: list[int], group_idx: int | None
):
    """The values and group labels of the raw-data rows left in ``reader``."""
    rows: list[list[float]] = []
    groups: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}"
            )
        parsed = []
        for k in feature_cols:
            cell = row[k].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {lineno}, column '{header[k]}': "
                    f"could not parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: row {lineno}, column '{header[k]}': non-finite value {cell!r}"
                )
            parsed.append(value)
        rows.append(parsed)
        if group_idx is not None:
            groups.append(row[group_idx].strip())
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if group_idx is None:
        return np.asarray(rows, dtype=np.float64), None
    labels = list(dict.fromkeys(groups))
    if len(labels) != 2:
        raise ValueError(
            f"{path}: group column '{header[group_idx]}' must hold exactly two distinct "
            f"labels, found {len(labels)}: {labels[:5]!r}"
        )
    return np.asarray(rows, dtype=np.float64), np.asarray(groups)


def read_data_csv(path) -> DataMatrix:
    """Read a raw data CSV (header row, optional ``group`` column)."""
    with _open_csv(path) as fh:
        header = next(csv.reader(fh), None)
        if not header:
            raise ValueError(f"{path}: empty file (a header row is required)")
        header = [h.strip() for h in header]
        keys = [GROUP_COLUMN if h.lower() == GROUP_COLUMN else h for h in header]
        seen: set[str] = set()
        for key in keys:
            if key in seen:
                raise ValueError(f"{path}: column {key!r} appears more than once in the header")
            seen.add(key)
        group_idx = keys.index(GROUP_COLUMN) if GROUP_COLUMN in keys else None
        feature_cols = [k for k in range(len(header)) if k != group_idx]
        if not feature_cols:
            raise ValueError(f"{path}: no numeric feature columns")
        parsed = _data_rows_fast(fh, len(header), group_idx)
        if parsed is None:
            parsed = _data_rows(path, _restart(fh), header, feature_cols, group_idx)
    values, group = parsed
    return DataMatrix(
        values=values,
        feature_names=tuple(header[k] for k in feature_cols),
        group=group,
    )


def read_statistics_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a ``index,statistic[,margin]`` file.

    Returns ``(statistics, margins)``, ordered by index; ``margins`` is
    None when the file has no margin column.
    """
    with _open_csv(path) as fh:
        header = _header(csv.reader(fh))
        if header[:2] != ["index", "statistic"] or header[2:3] not in ([], ["margin"]):
            raise ValueError(
                f"{path}: expected header 'index,statistic[,margin]', got {header!r}"
            )
        has_margin = len(header) > 2
        rows, _ = _read_indexed_rows(path, fh, header, 2 if has_margin else 1)
    return rows[:, 0].copy(), rows[:, 1].copy() if has_margin else None


def read_pvalues_csv(path) -> np.ndarray:
    """Read a p-value CSV written by :func:`write_pvalues_csv`.

    The indices must be 0..m-1, each once, in any order, and every p-value
    must lie in [0, 1].
    """
    with _open_csv(path) as fh:
        header = _header(csv.reader(fh))
        if header[:2] != ["index", "pvalue"]:
            raise ValueError(f"{path}: expected header 'index,pvalue'")
        rows, lines = _read_indexed_rows(path, fh, header, 1)
    pvalues = rows[:, 0].copy()
    outside = np.flatnonzero((pvalues < 0.0) | (pvalues > 1.0))
    if outside.size:
        k = outside[np.argmin(lines[outside])]
        raise ValueError(f"{path}: row {lines[k]}: p-value {pvalues[k]:.17g} is outside [0, 1]")
    return pvalues


def _write_indexed(fh, columns: dict[str, np.ndarray], newline: str) -> None:
    """Stream an ``index,<names>`` table to ``fh``, values at 17 significant digits.

    ``newline`` ends every line: CRLF in files, as :mod:`csv` writes them,
    and LF on stdout, as ``print`` does.
    """
    fh.write(",".join(["index", *columns]) + newline)
    row = "%d" + ",%.17g" * len(columns) + newline
    fh.writelines(row % cells for cells in zip(itertools.count(), *columns.values()))


def write_statistics_csv(sv: StatisticVector, path) -> None:
    """Write ``index,statistic,margin`` rows at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        _write_indexed(fh, {"statistic": sv.statistics, "margin": sv.margins}, "\r\n")


def write_pvalues_csv(pv, path) -> None:
    """Write a ``PValueVector`` as ``index,pvalue`` rows at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        _write_indexed(fh, {"pvalue": pv.values}, "\r\n")


def column_mean_statistics(
    dm: DataMatrix, margins, shape: HypothesisShape = HypothesisShape.DIRECTIONAL
) -> StatisticVector:
    """Per-feature column means as test statistics."""
    return StatisticVector(dm.values.mean(axis=0), margins, shape)


def two_group_statistics(
    dm: DataMatrix, margins, shape: HypothesisShape = HypothesisShape.DIRECTIONAL
) -> StatisticVector:
    """Scaled mean differences ``sqrt(n) * (mean_treat - mean_control)``.

    Both groups must have the same size n (the scaling gives the statistic
    variance 2*sigma^2 under i.i.d. noise, independent of n; margins are
    interpreted on this scale).  The first-appearing group label is
    treated as the treatment arm.
    """
    rows_a, rows_b = dm.group_rows()
    if rows_a.size != rows_b.size:
        raise ValueError(
            f"two_group_statistics needs equal group sizes, got {rows_a.size} and {rows_b.size}"
        )
    n = rows_a.size
    if n < 1:
        raise ValueError("each group needs at least one observation")
    diff = dm.values[rows_a].mean(axis=0) - dm.values[rows_b].mean(axis=0)
    return StatisticVector(math.sqrt(n) * diff, margins, shape)


def welch_t_statistics(
    dm: DataMatrix, margins, shape: HypothesisShape = HypothesisShape.DIRECTIONAL
) -> tuple[StatisticVector, np.ndarray, np.ndarray]:
    """Welch t statistics (unequal variances allowed, unequal sizes allowed).

    Features whose sample variance is zero in *both* groups have an
    undefined statistic; they are dropped with a warning.

    Returns
    -------
    (sv, kept, dof)
        ``sv`` holds the statistics for the retained features, ``kept`` maps
        each retained position back to its original column index, and
        ``dof`` carries the Welch-Satterthwaite degrees of freedom (computed
        for completeness; the symmetry-based procedures never consume it).
    """
    rows_a, rows_b = dm.group_rows()
    na, nb = rows_a.size, rows_b.size
    if na < 2 or nb < 2:
        raise ValueError("welch_t_statistics needs at least two observations per group")
    a = dm.values[rows_a]
    b = dm.values[rows_b]
    var_a = a.var(axis=0, ddof=1)
    var_b = b.var(axis=0, ddof=1)
    se2 = var_a / na + var_b / nb
    kept = np.flatnonzero(se2 > 0.0)
    if kept.size < dm.m:
        dropped = np.setdiff1d(np.arange(dm.m), kept)
        warnings.warn(
            f"dropping {dropped.size} zero-variance feature(s): "
            f"{[dm.feature_names[int(j)] for j in dropped[:10]]}",
            stacklevel=2,
        )
    if kept.size == 0:
        raise ValueError("all features have zero variance in both groups")
    mean_diff = a.mean(axis=0)[kept] - b.mean(axis=0)[kept]
    se2 = se2[kept]
    t = mean_diff / np.sqrt(se2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dof = se2**2 / (
            (var_a[kept] / na) ** 2 / (na - 1) + (var_b[kept] / nb) ** 2 / (nb - 1)
        )
    marg = np.asarray(margins, dtype=np.float64)
    if marg.ndim > 0 and marg.size == dm.m:
        marg = marg[kept]
    return StatisticVector(t, marg, shape), kept, dof


def apply_margin_shift(sv: StatisticVector, new_margins=None, flip=None) -> StatisticVector:
    """Fold margins into statistics and/or convert hypothesis sidedness.

    Parameters
    ----------
    sv : StatisticVector
    new_margins : float or array, optional
        Directional only.  Replaces the margins by ``new_margins`` while
        shifting each statistic by the margin change, preserving every
        ``T_j - delta_j`` difference.  Shifting to margin 0 is exact in
        floating point (the difference is formed once); other targets can
        move a cut point by one rounding step.
    flip : boolean mask or index array, optional
        Hypotheses to mirror.  For a directional family this negates both
        statistic and margin, turning a left-sided null ``mu_j >= delta_j``
        (tested on the negated scale) into the right-sided convention used
        everywhere here.  For an equivalence family it negates the statistic
        only (the family is sign-symmetric, so inference is unchanged).

    Applying the same flip twice returns the original vector.
    """
    stats = sv.statistics.copy()
    margins = sv.margins.copy()
    if flip is not None:
        flip_idx = np.asarray(flip)
        stats[flip_idx] = -stats[flip_idx]
        if sv.shape is HypothesisShape.DIRECTIONAL:
            margins[flip_idx] = -margins[flip_idx]
    if new_margins is not None:
        if sv.shape is not HypothesisShape.DIRECTIONAL:
            raise ValueError("margin shifts are only defined for directional families")
        target = np.broadcast_to(
            np.asarray(new_margins, dtype=np.float64), stats.shape
        ).copy()
        if np.all(target == 0.0):
            stats = stats - margins
        else:
            stats = (stats - margins) + target
        margins = target
    return StatisticVector(stats, margins, sv.shape)
