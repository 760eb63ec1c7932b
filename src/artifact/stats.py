"""Data ingestion and test-statistic computation.

CSV conventions
---------------
* Raw data files: one header row naming the columns; an optional ``group``
  column (any case) holding exactly two labels; every other column is a
  numeric feature.  Rows are observations.  Values parse as IEEE doubles;
  blank or non-numeric cells, blank group labels included, are rejected at
  ingestion with the offending row/column named, and so is a column name
  that is blank or appears twice.
* Statistic files: header ``index,statistic[,margin]`` (any case; later
  columns are ignored), one row per hypothesis.  The indices
  must be 0..m-1, each once, in any order, and every value must be finite;
  a non-finite cell is rejected with its row and column named.
* P-value files: header ``index,pvalue``, rows as in a statistics file,
  and every p-value in [0, 1].  Both formats are written at 17 significant
  digits, so a written file re-reads to bit-identical values.
* Every row has as many cells as its header, so a decimal comma is
  rejected, naming the row, also under a header with further columns.

Every reader drops a leading UTF-8 byte-order mark and rejects a byte that
is not UTF-8, naming the file and the line of the byte.

Reading routes
--------------
Every reader parses its header with :mod:`csv` and hands the rest of the
file to numpy's C parser (``np.loadtxt``).  That route keeps a parse only
when the per-cell loop would read the same cells: a body of plain ASCII
lines with no quote, no U+001C..U+001F and no empty line, every row as wide
as the header and every cell a number.  Any other file is read again from
the top by the per-cell loop that both formats share, which names the row
and column of the first cell it cannot parse.  The rules on the values are
then checked once, whichever route read the file: every value finite (the
first non-finite one named by row and column), a raw-data group column
with two labels, and the indices of an ``index,<values>`` file 0..m-1,
each once.

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

from .core import HypothesisShape, StatisticVector, _distinct_indices, _floats, _read_only

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
        return _header(csv.reader(fh))[:2] == ["index", "statistic"]


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


def _indexed_rows_fast(fh, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``_indexed_rows_literal`` by the C parser, or None where it would differ.

    A row that is not ``width`` cells wide, as the header is, fails the parse.
    """
    dtype = np.dtype([("index", np.int64), ("values", np.float64, (width - 1,))])
    rows = _loadtxt_plain(fh, dtype=dtype, ndmin=1)
    if rows is None:
        return None
    # Body row k is csv record (and file line) k + 2: no quote, no empty line.
    return rows["index"], rows["values"], np.arange(2, rows.size + 2)


_PARSED_AS = {int: "an integer", float: "a number"}


def _body_cells(path, reader, header: list[str], parsers: list) -> tuple[np.ndarray, list[list]]:
    """The line numbers and parsed cells of the non-blank rows left in ``reader``.

    Cell k parses by ``parsers[k]``, stripped.  A row not as wide as
    ``header``, a cell that ``int`` or ``float`` cannot parse or that numpy's
    C parser refuses (``int`` and ``float`` read ``1_5`` and non-ASCII digits),
    and a body of no rows raise ValueError naming the row and column.
    """
    lines: list[int] = []
    rows: list[list] = []
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}")
        cells = []
        for name, parse, cell in zip(header, parsers, row):
            cell = cell.strip()
            try:
                if parse in _PARSED_AS and (not cell.isascii() or "_" in cell):
                    raise ValueError
                cells.append(parse(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: row {lineno}, column '{name}': "
                    f"could not parse {cell!r} as {_PARSED_AS[parse]}"
                ) from None
        lines.append(lineno)
        rows.append(cells)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(lines), rows


def _indexed_rows_literal(path, reader, header: list[str], n_values: int):
    """The indices, values and line numbers of the ``index,<values>`` rows left in ``reader``."""
    lines, rows = _body_cells(path, reader, header, [int] + [float] * n_values)
    indices = [row[0] for row in rows]
    try:
        index = np.array(indices, dtype=np.int64)
    except OverflowError:  # out of range anyway: Python ints keep its digits for the message
        index = np.array(indices, dtype=object)
    return index, np.array([row[1:] for row in rows], dtype=np.float64), lines


def _check_finite(path, table: np.ndarray, lines: np.ndarray, names) -> None:
    """Raise ValueError naming the row and column of ``table``'s first non-finite value."""
    if not np.isfinite(table).all():
        k, c = np.argwhere(~np.isfinite(table))[0]
        raise ValueError(
            f"{path}: row {lines[k]}, column '{names[c]}': non-finite value {table[k, c]:g}"
        )


def _read_indexed_rows(path, fh, header: list[str], n_values: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``index,<values>`` float rows left in ``fh``, ordered by index.

    ``fh`` is an ``_open_csv`` file whose one-record ``header`` has been
    read; the ``n_values`` columns after the index are the values.  Returns
    the (m, n_values) values and the line number of each row, both in index
    order.  Blank lines are skipped.  Every row must be as wide as the
    header, every value finite and the indices 0..m-1, each once: a bad
    cell, index or row width raises, naming the row.
    """
    parsed = _indexed_rows_fast(fh, len(header))
    if parsed is None:
        parsed = _indexed_rows_literal(path, _restart(fh), header, n_values)
    index, table, lines = parsed
    table = table[:, :n_values]
    _check_finite(path, table, lines, header[1:])
    m = index.size
    stray = np.flatnonzero((index < 0) | (index >= m))
    if stray.size:
        k = int(stray[0])
        raise ValueError(
            f"{path}: row {lines[k]}: index {index[k]} is outside 0..{m - 1} "
            f"(the {m} rows must carry the indices 0..{m - 1}, each once)"
        )
    order = np.full(m, -1)
    order[index] = np.arange(m)
    if (order < 0).any():  # an index repeats: the stable sort finds its first two rows
        order = np.argsort(index, kind="stable")
        repeat = np.flatnonzero(np.diff(index[order]) == 0)[0]
        first, again = order[repeat], order[repeat + 1]
        raise ValueError(f"{path}: row {lines[again]}: index {index[again]} repeats row {lines[first]}")
    return table[order], lines[order]


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
        values = _floats("values", self.values)
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


def _group_codes():
    """The labels seen, in first-appearance order, and a parser of a group cell to its label's index."""
    codes: dict[str, int] = {}
    return codes, lambda cell: codes.setdefault(cell.strip(), len(codes))


def _data_rows_fast(fh, n_cells: int, group_idx: int | None):
    """``_data_rows`` by the C parser, or None where it would differ."""
    codes, code = _group_codes()
    table = _loadtxt_plain(fh, ndmin=2, converters=None if group_idx is None else {group_idx: code})
    if table is None or table.shape[1] != n_cells:
        return None
    return table, list(codes), np.arange(2, len(table) + 2)  # lines as in _indexed_rows_fast


def _data_rows(path, reader, header: list[str], group_idx: int | None):
    """The cells, group labels and line numbers of the raw-data rows left in ``reader``.

    A group cell reads as the index of its label in the labels.
    """
    codes, code = _group_codes()
    parsers = [code if k == group_idx else float for k in range(len(header))]
    lines, rows = _body_cells(path, reader, header, parsers)
    return np.asarray(rows, dtype=np.float64), list(codes), lines


def read_data_csv(path) -> DataMatrix:
    """Read a raw data CSV (header row, optional ``group`` column)."""
    with _open_csv(path) as fh:
        header = next(csv.reader(fh), None)
        if not header:
            raise ValueError(f"{path}: empty file (a header row is required)")
        header = [h.strip() for h in header]
        if "" in header:
            column = header.index("") + 1
            raise ValueError(f"{path}: header column {column} is blank (every column needs a name)")
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
            parsed = _data_rows(path, _restart(fh), header, group_idx)
    table, labels, lines = parsed
    group = None
    if group_idx is not None:
        group = np.asarray(labels)[table[:, group_idx].astype(np.intp)]
        table = np.delete(table, group_idx, axis=1)
    feature_names = tuple(header[k] for k in feature_cols)
    _check_finite(path, table, lines, feature_names)
    if group_idx is not None and "" in labels:
        k = np.argmax(group == "")
        raise ValueError(f"{path}: row {lines[k]}, column '{header[group_idx]}': blank group label")
    if group_idx is not None and len(labels) != 2:
        raise ValueError(
            f"{path}: group column '{header[group_idx]}' must hold exactly two distinct "
            f"labels, found {len(labels)}: {labels[:5]!r}"
        )
    return DataMatrix(values=table, feature_names=feature_names, group=group)


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
    marg = _floats("margins", margins)
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
    flip : boolean mask of length m or distinct indices in 0..m-1, optional
        Hypotheses to mirror; any other form raises ValueError.  For a
        directional family this negates both statistic and margin, turning a
        left-sided null ``mu_j >= delta_j`` (tested on the negated scale)
        into the right-sided convention used everywhere here.  For an
        equivalence family it negates the statistic only (the family is
        sign-symmetric, so inference is unchanged).

    Applying the same flip twice returns the original vector.
    """
    stats = sv.statistics.copy()
    margins = sv.margins.copy()
    if flip is not None:
        flip_idx = np.asarray(flip)
        if flip_idx.dtype != bool:
            flip_idx = _distinct_indices("flip", flip_idx, sv.m)
        elif flip_idx.shape != stats.shape:
            raise ValueError(f"flip must be a boolean mask of length {sv.m}, got shape {flip_idx.shape}")
        stats[flip_idx] = -stats[flip_idx]
        if sv.shape is HypothesisShape.DIRECTIONAL:
            margins[flip_idx] = -margins[flip_idx]
    if new_margins is not None:
        if sv.shape is not HypothesisShape.DIRECTIONAL:
            raise ValueError("margin shifts are only defined for directional families")
        target = np.broadcast_to(_floats("new_margins", new_margins), stats.shape).copy()
        if np.all(target == 0.0):
            stats = stats - margins
        else:
            stats = (stats - margins) + target
        margins = target
    return StatisticVector(stats, margins, sv.shape)
