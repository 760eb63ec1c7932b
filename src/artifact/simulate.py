"""Monte Carlo scenario generation and method comparison studies.

Data model
----------
Each scenario draws an n x m matrix ``X_ij = mu_j / sqrt(n) + sqrt(1-rho) *
eps_ij + sqrt(rho) * eta_i`` with unit-variance noise ``eps`` and row
effects ``eta``, so the study statistic ``T_j = sqrt(n) * mean(X_.j)`` has
mean ``mu_j``, unit variance, and pairwise correlation exactly ``rho``
(for any of the symmetric noise families, not just the normal).  ``mu`` is
always reported on the statistic scale; the effect size ``d`` is applied on
the data scale, so it shifts statistics by ``sqrt(n) * d``.

Scenario means:

* directional -- true hypotheses sit exactly on the margin (``mu_j =
  delta``) and false ones at ``delta + sqrt(n) * d``;
* equivalence -- true hypotheses sit at ``+-(delta + sqrt(n) * d)`` with
  alternating signs and false ones at 0.

The truth (which hypotheses are null) is derived from the realized ``mu``,
not from the requested ``pi0``: with ``d = 0`` every "false" column lands
on the boundary and is in fact null.

Reproducibility
---------------
Replicate r of a scenario with seed s uses the generator seeded by
``SeedSequence([s, r])``; within a replicate the draw order is fixed: the
noise first, then the row effects, which are skipped entirely when rho = 0.
``run_study`` and ``control_coverage`` draw the replicates one at a time,
each on its own stream, in one loop (``_blocks``), and score them in blocks
of rows: one row of statistics per replicate, about ``_BLOCK_CELLS`` numbers
per block, with the results of one call per replicate.  The loop runs
``_draw``, the private draw behind ``generate_statistics``, which picks the
data or the statistics route and returns bare arrays, and writes each
replicate's 1-d row straight into its block: the same bits as the public
functions, without building a ``StatisticVector`` or ``DataMatrix`` per
replicate; each block is checked finite once.  The estimate at t,
randomized too (only the coin is per replicate), is the block's
``_counts_at``; SAM-full's bound is taken once per block from each
replicate's sign-flip counts.
The data and the statistics routes draw the row effects through one
helper: one effect per row (n rows of data, or the single row of
statistics), the null block first under ``independent_blocks``.
Study cells derive their scenario seeds from ``SeedSequence([study_seed,
cell_id])``, so a study is bit-reproducible.
The truth depends only on (n, m, pi0, d, shape, delta).  ``_truth`` keeps it
in an ``lru_cache`` keyed on those fields, so every replicate, and every spec
that differs only in seed, replicates, rho, noise or independent_blocks,
shares one read-only ``ScenarioTruth``.
With normal noise and no data-demanding method in the study, statistics
are drawn directly on the statistic scale (same law, fewer draws); any
other configuration generates full data matrices.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property, lru_cache
from itertools import product
from pathlib import Path
from typing import Iterator

import numpy as np

from .baselines import TransformationGroup, _bh_lr, _guarded_floor, _order_index, _sam_v_bars
from .control import NullDensitySpec, PValueVector, _builtin_pvalues
from .core import HypothesisShape, InfeasibleError, StatisticVector, _control_scan, _counts_at, _cuts
from .core import _distinct_indices, _finite, _floored, _gamma, _integer, _read_only, _real, _row_counts
from .ct_oracle import MAX_ORACLE_M, LocalTestFamily, indices_to_mask, run_closure
from .estimators import CoinSource
from .stats import DataMatrix, write_pvalues_csv

__all__ = [
    "NOISE_FAMILIES",
    "STUDY_METHODS",
    "ScenarioSpec",
    "ScenarioTruth",
    "generate",
    "generate_statistics",
    "StudySpec",
    "MetricRow",
    "MetricTable",
    "run_study",
    "control_coverage",
]

NOISE_FAMILIES = ("normal", "laplace", "student-t")

STUDY_METHODS = (
    "novel",
    "novel-randomized",
    "SAM-full",
    "SAM-2",
    "SAM+CT",
    "BH",
    "LR",
    "flexible-pvals-export",
)

# Full sign-flip groups grow as 2^n; above this the per-replicate cost makes
# studies impractical and the subsampled group is the intended tool.
_SAM_FULL_MAX_N = 12


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: dimensions, signal placement, noise, and seed."""

    n: int
    m: int
    pi0: float
    rho: float = 0.0
    d: float = 0.0
    shape: HypothesisShape = HypothesisShape.DIRECTIONAL
    delta: float = 0.0
    noise: str = "normal"
    noise_df: float = 5.0
    replicates: int = 1
    seed: int = 0
    independent_blocks: bool = False

    def __post_init__(self):
        for name in ("n", "m", "replicates", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("pi0", "rho", "d", "delta", "noise_df"):
            _real(name, getattr(self, name))
        if not isinstance(self.independent_blocks, bool):
            raise ValueError(
                f"independent_blocks must be true or false, got {self.independent_blocks!r}"
            )
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError(f"pi0 must be in [0, 1], got {self.pi0}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.d < 0.0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if not isinstance(self.shape, HypothesisShape):
            raise ValueError("shape must be a HypothesisShape")
        if self.shape is HypothesisShape.EQUIVALENCE:
            if self.delta <= 0.0:
                raise ValueError("equivalence scenarios need delta > 0")
        elif self.delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.noise not in NOISE_FAMILIES:
            raise ValueError(f"noise must be one of {NOISE_FAMILIES}, got {self.noise!r}")
        if self.noise == "student-t" and self.noise_df < 3.0:
            raise ValueError("student-t noise needs noise_df >= 3")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_true_requested(self) -> int:
        """floor(pi0 * m): how many leading columns carry the null mean."""
        return int(_guarded_floor(self.pi0 * self.m))


@dataclass(frozen=True, eq=False)
class ScenarioTruth:
    """Statistic-scale means and the null set they imply.

    Both arrays are stored read-only, sharing an input of their dtype: pass a copy to decouple.
    """

    mu: np.ndarray
    null_mask: np.ndarray

    def __post_init__(self):
        mu = _read_only(np.asarray(self.mu, dtype=np.float64))
        mask = _read_only(np.asarray(self.null_mask, dtype=bool))
        if mu.shape != mask.shape or mu.ndim != 1:
            raise ValueError("mu and null_mask must be 1-d arrays of equal length")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "null_mask", mask)

    @cached_property
    def n_false(self) -> int:
        return int((~self.null_mask).sum())

    def false_count(self, rejected: np.ndarray) -> int:
        """Null hypotheses among ``rejected``: distinct integer indices in 0..m-1, else ValueError."""
        return int(self.null_mask[_distinct_indices("rejected", rejected, self.null_mask.size)].sum())

    def fdp(self, rejected: np.ndarray) -> float:
        return self.false_count(rejected) / max(len(rejected), 1)

    def power_fraction(self, rejected: np.ndarray) -> float:
        """Fraction of false hypotheses rejected; NaN when none are false."""
        hits = len(rejected) - self.false_count(rejected)
        return hits / self.n_false if self.n_false else math.nan


def _unit_noise(rng: np.random.Generator, size, family: str, df: float) -> np.ndarray:
    """Draws from the requested symmetric family, scaled to unit variance."""
    if family == "normal":
        return rng.standard_normal(size)
    if family == "laplace":
        return rng.laplace(0.0, 1.0 / math.sqrt(2.0), size)
    if family == "student-t":
        return rng.standard_t(df, size) * math.sqrt((df - 2.0) / df)
    raise ValueError(f"unknown noise family {family!r}")


def _scenario_means(spec: ScenarioSpec) -> ScenarioTruth:
    """The spec's truth, shared by every spec with the same truth fields."""
    return _truth(spec.n, spec.m, spec.pi0, spec.d, spec.shape, spec.delta)


@lru_cache(maxsize=64)
def _truth(n: int, m: int, pi0: float, d: float, shape: HypothesisShape, delta: float) -> ScenarioTruth:
    # Only these fields set the truth; its arrays are read-only, so every
    # replicate of every spec that shares them can share one object.
    m0 = int(_guarded_floor(pi0 * m))  # ScenarioSpec.n_true_requested
    mu = np.empty(m, dtype=np.float64)
    shift = math.sqrt(n) * d
    if shape is HypothesisShape.DIRECTIONAL:
        mu[:m0] = delta
        mu[m0:] = delta + shift
        null_mask = mu <= delta
    else:
        signs = np.where(np.arange(m0) % 2 == 0, 1.0, -1.0)
        mu[:m0] = signs * (delta + shift)
        mu[m0:] = 0.0
        null_mask = np.abs(mu) >= delta
    return ScenarioTruth(mu=mu, null_mask=null_mask)


@lru_cache(maxsize=8)
def _feature_names(m: int) -> tuple[str, ...]:
    return tuple(f"h{j + 1:04d}" for j in range(m))


def _replicate(spec: ScenarioSpec, replicate_index: int):
    """The truth and the generator of one replicate; the index must be a non-negative integer."""
    r = _integer("replicate_index", replicate_index, minimum=0)
    return _scenario_means(spec), _stream(spec, r)


def _stream(spec: ScenarioSpec, r: int) -> np.random.Generator:
    """Replicate r's own generator, seeded by ``SeedSequence([spec.seed, r])``."""
    return np.random.default_rng(np.random.SeedSequence([spec.seed, r]))


def _row_effects(spec: ScenarioSpec, truth: ScenarioTruth, draw) -> np.ndarray:
    """The row effects, already scaled by sqrt(rho), to add to the noise.

    ``draw()`` returns one unit-variance effect per row, as a column (or as
    shape ``(1,)`` for the single row of statistics).  Under
    ``independent_blocks`` the true and false columns get their own
    independent row effects (drawn null block first), which makes the two
    blocks of statistics independent of each other.
    """
    scale = math.sqrt(spec.rho)
    if spec.independent_blocks and 0 < truth.n_false < spec.m:
        eta_null, eta_false = draw(), draw()
        return scale * np.where(truth.null_mask, eta_null, eta_false)
    return scale * draw()


def generate(spec: ScenarioSpec, replicate_index: int):
    """Draw one data matrix; deterministic given (spec.seed, replicate_index).

    Returns ``(DataMatrix, ScenarioTruth)``.  Column offsets are
    ``mu / sqrt(n)`` so the statistic-scale means are exactly ``truth.mu``.
    """
    truth, rng = _replicate(spec, replicate_index)
    return DataMatrix(values=_draw_data(spec, truth, rng), feature_names=_feature_names(spec.m)), truth


def _draw_data(spec: ScenarioSpec, truth: ScenarioTruth, rng: np.random.Generator) -> np.ndarray:
    """One replicate's n x m data from its generator: the noise, then the row effects."""
    eps = _unit_noise(rng, (spec.n, spec.m), spec.noise, spec.noise_df)
    values = truth.mu / math.sqrt(spec.n) + math.sqrt(1.0 - spec.rho) * eps
    if spec.rho > 0.0:
        values = values + _row_effects(
            spec, truth, lambda: _unit_noise(rng, spec.n, spec.noise, spec.noise_df)[:, None]
        )
    return values


def study_statistics(values: np.ndarray, spec: ScenarioSpec) -> StatisticVector:
    """The study statistic: root-n-scaled column means (unit-variance nulls)."""
    return StatisticVector(_statistic_row(values, spec), spec.delta, spec.shape)


def _statistic_row(values: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    """``sqrt(n) * values.mean(axis=0)``, the study statistic of each column."""
    return math.sqrt(spec.n) * values.mean(axis=0)


def generate_statistics(spec: ScenarioSpec, replicate_index: int):
    """Statistics for one replicate; returns ``(StatisticVector, ScenarioTruth)``.

    With normal noise the statistics are drawn directly on their own scale
    (``T = mu + sqrt(1-rho) Z + sqrt(rho) W``, identical in law to the data
    route because means of normals are normal); other noise families take
    the study statistic of :func:`generate`'s data, since their column means
    are not in-family.  The two routes consume different random streams, so
    they agree in law, not bit for bit.  The route is chosen in
    :func:`_draw`, which the study engine (:func:`_blocks`) reads too.
    """
    truth, rng = _replicate(spec, replicate_index)
    return StatisticVector(_draw(spec, truth, rng)[0], spec.delta, spec.shape), truth


def _draw(spec: ScenarioSpec, truth: ScenarioTruth, rng: np.random.Generator, keep_data: bool = False):
    """One replicate's 1-d row of statistics, and its data matrix when the row was drawn from data.

    It is drawn from data for a non-normal noise family or with ``keep_data``, else on the statistic scale.
    """
    if keep_data or spec.noise != "normal":
        values = _draw_data(spec, truth, rng)
        return _statistic_row(values, spec), values
    return _draw_statistics(spec, truth, rng), None


def _draw_statistics(spec: ScenarioSpec, truth: ScenarioTruth, rng: np.random.Generator) -> np.ndarray:
    """One replicate's m statistics from its generator, on their own scale (normal noise)."""
    z = rng.standard_normal(spec.m)
    t = truth.mu + math.sqrt(1.0 - spec.rho) * z
    if spec.rho > 0.0:
        t = t + _row_effects(spec, truth, lambda: rng.standard_normal(1))
    return t


def _as_grid(name: str, value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple, np.ndarray)):
        grid = tuple(_real(name, v) for v in value)
        if not grid:
            raise ValueError("grid parameters must be non-empty")
        return grid
    return (_real(name, value),)


@dataclass(frozen=True)
class StudySpec:
    """A grid of scenarios (over pi0, rho, d) plus the methods to compare.

    ``t`` is the estimation threshold used by the estimate-style methods;
    ``gamma`` is the control level used by the novel control step, BH, and
    LR.  Cells are enumerated in ``product(pi0, rho, d)`` order with
    ``cell_id`` starting at 0.
    """

    n: int
    m: int
    pi0: tuple[float, ...]
    rho: tuple[float, ...]
    d: tuple[float, ...]
    methods: tuple[str, ...]
    t: float
    gamma: float
    shape: HypothesisShape = HypothesisShape.DIRECTIONAL
    delta: float = 0.0
    noise: str = "normal"
    noise_df: float = 5.0
    replicates: int = 100
    seed: int = 0
    independent_blocks: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pi0", _as_grid("pi0", self.pi0))
        object.__setattr__(self, "rho", _as_grid("rho", self.rho))
        object.__setattr__(self, "d", _as_grid("d", self.d))
        if not isinstance(self.methods, (list, tuple)) or not all(
            isinstance(name, str) for name in self.methods
        ):
            raise ValueError("methods must be a list of method names")
        methods = tuple(self.methods)
        if not methods:
            raise ValueError("methods must be non-empty")
        for name in methods:
            if name not in STUDY_METHODS:
                raise ValueError(f"unknown method {name!r}; choose from {STUDY_METHODS}")
        if len(set(methods)) != len(methods):
            raise ValueError("methods must not repeat")
        object.__setattr__(self, "methods", methods)
        t = _real("t", self.t)
        if t < 0.0:
            raise ValueError(f"t must be >= 0, got {t}")
        gamma = _gamma(_real("gamma", self.gamma))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gamma", gamma)
        # Validate the scenario parameters of every cell, under the study
        # seed, before any cell seed is derived from it.
        for pi0, rho, d in product(self.pi0, self.rho, self.d):
            self._cell_spec(pi0, rho, d, seed=self.seed)
        needs_symmetry_at_zero = {"SAM-full", "SAM-2", "SAM+CT"} & set(methods)
        if needs_symmetry_at_zero or "novel-randomized" in methods:
            if self.shape is not HypothesisShape.DIRECTIONAL:
                raise ValueError(
                    "SAM-style and randomized methods apply to directional scenarios only"
                )
        if needs_symmetry_at_zero and self.delta != 0.0:
            raise ValueError("SAM-style methods assume symmetry around zero; set delta = 0")
        if "SAM-full" in methods and self.n > _SAM_FULL_MAX_N:
            raise InfeasibleError(
                f"SAM-full enumerates 2^n sign flips per replicate; n <= {_SAM_FULL_MAX_N} "
                f"required in studies (got n={self.n}) -- use SAM-2 or reduce n"
            )
        if "SAM+CT" in methods and self.m > MAX_ORACLE_M:
            raise InfeasibleError(
                f"SAM+CT runs the brute-force closure; m <= {MAX_ORACLE_M} required "
                f"(got m={self.m}) -- reduce m or drop SAM+CT"
            )

    def _cell_spec(self, pi0: float, rho: float, d: float, seed: int) -> ScenarioSpec:
        shared = {f.name: getattr(self, f.name) for f in fields(ScenarioSpec)}
        return ScenarioSpec(**{**shared, "pi0": pi0, "rho": rho, "d": d, "seed": seed})

    def cells(self) -> Iterator[tuple[int, ScenarioSpec]]:
        for cell_id, (pi0, rho, d) in enumerate(product(self.pi0, self.rho, self.d)):
            cell_seed = int(np.random.SeedSequence([self.seed, cell_id]).generate_state(1)[0])
            yield cell_id, self._cell_spec(pi0, rho, d, seed=cell_seed)

    def to_dict(self) -> dict:
        """The spec as JSON values, keyed in field order."""
        return {
            key: list(value) if isinstance(value, tuple)
            else value.value if isinstance(value, HypothesisShape) else value
            for key, value in asdict(self).items()
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "StudySpec":
        if not isinstance(raw, dict):
            raise ValueError("study spec must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown study spec keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
        if missing:
            raise ValueError(f"study spec is missing required keys: {sorted(missing)}")
        kwargs = dict(raw)
        if "shape" in kwargs:
            try:
                kwargs["shape"] = HypothesisShape(kwargs["shape"])
            except ValueError:
                raise ValueError(
                    f"shape must be 'directional' or 'equivalence', got {kwargs['shape']!r}"
                ) from None
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "StudySpec":
        """Read a spec file; every ``ValueError`` names the file."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"study spec {path}: invalid JSON ({exc})") from None
        try:
            return cls.from_dict(raw)
        except ValueError as exc:
            raise ValueError(f"study spec {path}: {exc}") from None


@dataclass(frozen=True)
class MetricRow:
    cell_id: int
    pi0: float
    rho: float
    d: float
    method: str
    metric: str
    value: float
    se: float


@dataclass(frozen=True, eq=False)
class MetricTable:
    """Long-format study results: one row per (cell, method, metric).

    Rows run in cell order, within a cell in the study's method order, and
    within a method in the metric order listed here:

    * novel -- mean_fdp_estimate, mean_fdp_at_t, p_fdp_le_estimate (all at
      the study threshold t), then p_control, mean_rejections, power for
      the gamma-level control step;
    * novel-randomized -- mean_fdp_estimate, p_fdp_le_estimate, floor_rate;
    * SAM-full / SAM-2 -- mean_fdp_estimate, p_fdp_le_estimate;
    * SAM+CT -- mean_ct_bound, p_v_le_ct_bound;
    * BH / LR -- p_control, mean_rejections, power;
    * flexible-pvals-export -- n_exported (files written at the first
      replicate: 1 with an output directory, else 0; se 0).

    ``power`` rows are omitted in cells where no hypothesis is false.
    Probabilities carry binomial standard errors sqrt(p(1-p)/reps); means
    carry sample standard errors.
    """

    rows: tuple[MetricRow, ...]
    study: dict

    def get(self, cell_id: int, method: str, metric: str) -> tuple[float, float]:
        for row in self.rows:
            if row.cell_id == cell_id and row.method == method and row.metric == metric:
                return row.value, row.se
        raise KeyError(f"no row for cell={cell_id} method={method!r} metric={metric!r}")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self._write_rows(fh)

    def _write_rows(self, fh) -> None:
        """The CSV header and rows, floats at 17 significant digits, lines ending LF."""
        fh.write("cell_id,pi0,rho,d,method,metric,value,se\n")
        fh.writelines(
            f"{r.cell_id},{r.pi0:.17g},{r.rho:.17g},{r.d:.17g},"
            f"{r.method},{r.metric},{r.value:.17g},{r.se:.17g}\n"
            for r in self.rows
        )

    def summary_dict(self) -> dict:
        return {"study": dict(self.study), "rows": [asdict(r) for r in self.rows]}


def _value_se(samples: list) -> tuple[float, float]:
    """Events (bools) give a probability, other values a mean; each with its se."""
    arr = np.asarray(samples)
    if arr.dtype == bool:
        p = float(arr.mean())
        return p, math.sqrt(p * (1.0 - p) / arr.size)
    arr = arr.astype(np.float64)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se


def _add_control(metrics: dict[str, list], truth: ScenarioTruth, rejected, gamma: float) -> None:
    """The gamma-level control metrics of each row of an (R, m) rejection mask.

    p_control, mean_rejections and power, from R and the true false count V.
    """
    r = _row_counts(rejected)
    v = _row_counts(rejected & truth.null_mask)
    metrics["p_control"].extend((v / np.maximum(r, 1) <= gamma).tolist())
    metrics["mean_rejections"].extend(r.tolist())
    if truth.n_false:
        metrics["power"].extend(((r - v) / truth.n_false).tolist())


def _sam_ct_group(spec: ScenarioSpec) -> TransformationGroup:
    if spec.n <= 10:
        return TransformationGroup.sign_flip_full(spec.n)
    seed = int(np.random.SeedSequence([spec.seed, 7301]).generate_state(1)[0])
    return TransformationGroup.sign_flip_subsample(spec.n, 256, seed)


def _flip_counts(half: np.ndarray, t: float) -> np.ndarray:
    """#{T > t} on each row of a full sign-flip product, from the product's first half.

    Row 2^n - 1 - c of ``sign_flip_full`` is -row c: the second half counts #{half < -t}, reversed.
    """
    return np.concatenate([_row_counts(half > t), _row_counts(half < -t)[::-1]])


def _blocks(spec: ScenarioSpec, needs_data: bool = False):
    """The replicates, each drawn on its own stream, in blocks of about ``_BLOCK_CELLS`` numbers.

    Yields each block's replicate range, its (R, m) statistics, the cell's
    read-only margins and, with ``needs_data``, the data matrices (n * m
    numbers each).  Each row is :func:`_draw`'s: the bits that
    :func:`generate_statistics` returns, or with ``needs_data`` those of
    :func:`study_statistics` on :func:`generate`'s data.  Every block is
    checked finite once.
    """
    truth = _scenario_means(spec)
    margins = _read_only(np.full(spec.m, float(spec.delta)))
    rows = max(1, _BLOCK_CELLS // (spec.m * (spec.n if needs_data else 1)))
    for start in range(0, spec.replicates, rows):
        reps = range(start, min(start + rows, spec.replicates))
        block, data = np.empty((len(reps), spec.m)), []
        for row, rep in zip(block, reps):
            row[:], values = _draw(spec, truth, _stream(spec, rep), needs_data)
            if needs_data:
                data.append(values)
        _finite("statistics", block)
        yield reps, block, margins, data


def _run_cell(study: StudySpec, cell_id: int, spec: ScenarioSpec, out_dir) -> list[MetricRow]:
    """One cell's metric rows: replicates drawn one at a time, scored in blocks of rows.

    The blocks come from :func:`_blocks`, with each replicate's data matrix
    when SAM-full or SAM+CT needs it.  Per block, the cuts are taken once;
    the estimate at t, the novel control step, the p-values, BH and LR are
    then computed on all rows together, with the results of one call per
    replicate.  novel-randomized reads the block's estimate at t and draws
    only each replicate's coin.  The sign-flip products of SAM-full and
    SAM+CT stay per replicate.  SAM-full multiplies only the first half of
    its sign flips (:func:`_flip_counts`) and keeps, per replicate, its
    counts and the identity's mask; its bound (``baselines._sam_v_bars``,
    the routine of ``sam_bound``), FDP and true false count are then taken
    once per block.  SAM+CT reads its rejected row and true count from the
    block.  Every count of a mask row is ``core._row_counts``.
    """
    methods = study.methods
    t, gamma = study.t, study.gamma
    needs_data = bool({"SAM-full", "SAM+CT"} & set(methods))
    needs_pvalues = bool({"BH", "LR", "flexible-pvals-export"} & set(methods))
    null_spec = NullDensitySpec.standard_normal()
    truth = _scenario_means(spec)
    # Study statistics are sqrt(n) * column means: under a sign flip, (signs @ data) * scale.
    scale = math.sqrt(spec.n) / spec.n

    groups = {}
    if "SAM-full" in methods:
        groups["SAM-full"] = TransformationGroup.sign_flip_full(spec.n)
        sam_order = _order_index(0.5, groups["SAM-full"].size)
    if "SAM+CT" in methods:
        groups["SAM+CT"] = _sam_ct_group(spec)
    # One float64 cast of each group's signs (SAM-full's first half) and one
    # buffer per cell for every replicate's statistics, which nothing keeps.
    flips = {}
    for name, g in groups.items():
        signs = g.signs[: g.size // 2 if name == "SAM-full" else g.size].astype(np.float64)
        flips[name] = signs, np.empty((len(signs), spec.m))

    def flipped(name: str, data: np.ndarray) -> np.ndarray:
        signs, out = flips[name]
        np.matmul(signs, data, out=out)
        out *= scale
        return out

    # Per method, each metric's per-replicate values, keyed in output order.
    values: dict[str, dict[str, list]] = {name: defaultdict(list) for name in methods}

    for reps, block, margins, data in _blocks(spec, needs_data):
        k = _cuts(block, margins, spec.shape)
        # The estimate at t, and its true false count V.
        rejected, r, r_minus, v_tilde, fdp_hat = _counts_at(k, t)
        v_true = _row_counts(rejected & truth.null_mask)
        if needs_pvalues:
            p = _builtin_pvalues(block, margins, spec.shape, null_spec)

        for name in methods:
            metrics = values[name]
            if name == "novel":
                metrics["mean_fdp_estimate"].extend(fdp_hat.tolist())
                metrics["mean_fdp_at_t"].extend((v_true / np.maximum(r, 1)).tolist())
                metrics["p_fdp_le_estimate"].extend((v_true <= v_tilde).tolist())
                _add_control(metrics, truth, k > _control_scan(k, gamma)[2][:, None], gamma)
            elif name == "SAM-2":
                metrics["mean_fdp_estimate"].extend(fdp_hat.tolist())
                metrics["p_fdp_le_estimate"].extend((v_true <= v_tilde).tolist())
            elif name == "novel-randomized":
                seeds = (np.random.SeedSequence([spec.seed, rep, 9001]) for rep in reps)
                coins = [CoinSource(int(s.generate_state(1)[0])).flip() for s in seeds]
                floored = _floored(np.array(coins), r, r_minus)
                metrics["mean_fdp_estimate"].extend(np.where(floored, 0.0, fdp_hat).tolist())
                metrics["p_fdp_le_estimate"].extend((~floored & (v_true <= v_tilde)).tolist())
                metrics["floor_rate"].extend(floored.tolist())
            elif name == "SAM-full":
                counts = np.empty((len(reps), groups[name].size), dtype=np.int32)
                above = np.empty((len(reps), spec.m), dtype=bool)
                for x, count_row, mask_row in zip(data, counts, above):
                    half = flipped(name, x)
                    count_row[:] = _flip_counts(half, t)
                    np.greater(half[0], t, out=mask_row)
                v_bar = _sam_v_bars(counts, sam_order)
                # Both counts are exact in float64: the quotient is SamEstimate.fdp_bar's, bit for bit.
                metrics["mean_fdp_estimate"].extend((v_bar / np.maximum(counts[:, 0], 1)).tolist())
                metrics["p_fdp_le_estimate"].extend((_row_counts(above & truth.null_mask) <= v_bar).tolist())
            elif name == "SAM+CT":
                for x, row, v in zip(data, rejected, v_true.tolist()):
                    family = LocalTestFamily._sam_from_statistics(flipped(name, x), t, 0.5)
                    mask = indices_to_mask(np.flatnonzero(row))
                    bound = run_closure(family).t_alpha(mask) if mask else 0
                    metrics["mean_ct_bound"].append(bound)
                    metrics["p_v_le_ct_bound"].append(v <= bound)
            elif name == "BH":
                _add_control(metrics, truth, _bh_lr(p, gamma), gamma)
            elif name == "LR":
                _add_control(metrics, truth, _bh_lr(p, gamma, 0.5), gamma)
            elif name == "flexible-pvals-export" and reps.start == 0:
                if out_dir is not None:
                    pv = PValueVector(p[0], spec.shape)
                    write_pvalues_csv(pv, Path(out_dir) / f"cell{cell_id:03d}_pvalues.csv")
                metrics["n_exported"].append(float(out_dir is not None))

    return [
        MetricRow(cell_id, spec.pi0, spec.rho, spec.d, name, metric, *_value_se(samples))
        for name in methods
        for metric, samples in values[name].items()
    ]


def run_study(study: StudySpec, out_dir=None, threads: int | None = None) -> MetricTable:
    """Run every cell of the study, in cell order, and aggregate the
    per-method metrics.

    ``threads`` is accepted and ignored: the cells run one after another in
    the calling thread, which is faster than a thread pool for this
    GIL-bound work.  ``out_dir`` is only used by the flexible-pvals-export
    method.
    """
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    rows = [row for cid, spec in study.cells() for row in _run_cell(study, cid, spec, out_dir)]
    return MetricTable(rows=tuple(rows), study=study.to_dict())


# run_study and control_coverage score their replicates in blocks of about
# this many numbers, so their peak memory does not grow with the replicate count.
_BLOCK_CELLS = 1 << 18


def control_coverage(spec: ScenarioSpec, gamma: float) -> dict:
    """Empirical P(FDP(s_plus) <= gamma) over the spec's replicates.

    Returns ``{"gamma", "coverage", "se", "replicates"}``.  The guarantee
    (coverage >= 1/2) is proved for all-null configurations and for
    independent blocks; for other dependence structures the estimate is
    reported without any claim.

    The replicates come in blocks of rows from :func:`_blocks`, as in
    ``run_study``.  The ``control_mfdp`` threshold of every row is found in
    one block scan, with the same thresholds, rejections and result as one
    ``control_mfdp`` call per replicate; the hits are the ``p_control``
    events of the study's novel control step.
    """
    gamma = _gamma(gamma)
    truth, metrics = _scenario_means(spec), defaultdict(list)
    for _, block, margins, _ in _blocks(spec):
        k = _cuts(block, margins, spec.shape)
        _add_control(metrics, truth, k > _control_scan(k, gamma)[2][:, None], gamma)
    coverage, se = _value_se(metrics["p_control"])
    return {"gamma": gamma, "coverage": coverage, "se": se, "replicates": spec.replicates}
