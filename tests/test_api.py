"""The package's public API: each name declared once, in the module that owns it,
and each argument checked by the one rule of its kind, written in ``artifact.core``."""

from __future__ import annotations

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import (
    CoinSource,
    HypothesisShape,
    LocalTestFamily,
    NullDensitySpec,
    PValueVector,
    ScenarioSpec,
    StatisticVector,
    StudySpec,
    TransformationGroup,
    benjamini_hochberg,
    control_coverage,
    control_mfdp,
    estimate_directional,
    estimate_directional_randomized,
    estimate_equivalence,
    estimate_equivalence_windowed,
    generate,
    generate_statistics,
    indices_to_mask,
    lehmann_romano_critical_values,
    lehmann_romano_stepdown,
    mask_to_indices,
    run_closure,
    sam_bound,
    sam_two_transform,
    sign_flip_test,
    two_group_permutation_test,
    verify_random_instances,
    verify_shortcut,
)

MODULES = ("baselines", "control", "core", "ct_oracle", "estimators", "simulate", "stats")

# ``artifact.__all__`` as it stood when the package listed every name by hand.
REFERENCE_ALL = [
    "__version__",
    "HypothesisShape",
    "StatisticVector",
    "RejectionProfile",
    "build_profile",
    "FdpEstimate",
    "ControlResult",
    "InfeasibleError",
    "CoinSource",
    "estimate_directional",
    "estimate_directional_randomized",
    "estimate_equivalence",
    "estimate_equivalence_windowed",
    "control_mfdp",
    "NullDensitySpec",
    "PValueVector",
    "directional_pvalues",
    "equivalence_pvalues",
    "read_pvalues_csv",
    "write_pvalues_csv",
    "DataMatrix",
    "read_data_csv",
    "read_statistics_csv",
    "write_statistics_csv",
    "column_mean_statistics",
    "two_group_statistics",
    "welch_t_statistics",
    "apply_margin_shift",
    "TransformationGroup",
    "SamEstimate",
    "sam_bound",
    "sam_two_transform",
    "benjamini_hochberg",
    "lehmann_romano_critical_values",
    "lehmann_romano_stepdown",
    "ExactTestResult",
    "sign_flip_test",
    "two_group_permutation_test",
    "LocalTestFamily",
    "ClosureResult",
    "run_closure",
    "verify_shortcut",
    "verify_random_instances",
    "indices_to_mask",
    "mask_to_indices",
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


def _owners() -> dict[str, list[str]]:
    """Each name in a module's ``__all__`` -> the modules that list it."""
    owners: dict[str, list[str]] = {}
    for name in MODULES:
        for public in importlib.import_module(f"artifact.{name}").__all__:
            owners.setdefault(public, []).append(name)
    return owners


def test_reference_has_54_distinct_names():
    assert len(REFERENCE_ALL) == len(set(REFERENCE_ALL)) == 54


def test_all_is_the_reference_plus_the_two_study_tuples():
    assert len(artifact.__all__) == len(set(artifact.__all__))
    assert set(artifact.__all__) == set(REFERENCE_ALL) | {"NOISE_FAMILIES", "STUDY_METHODS"}


def test_all_is_the_union_of_the_module_lists():
    assert set(artifact.__all__) == {"__version__", *_owners()}


def test_no_name_is_exported_by_two_modules():
    shared = {name: mods for name, mods in _owners().items() if len(mods) > 1}
    assert shared == {}


@pytest.mark.parametrize("name", sorted(set(artifact.__all__) - {"__version__"}))
def test_package_name_is_its_owners_object(name):
    (owner,) = _owners()[name]
    assert getattr(artifact, name) is getattr(importlib.import_module(f"artifact.{owner}"), name)


def test_pvalue_csv_pair_is_owned_by_stats_and_aliased_in_control():
    from artifact import control, stats

    assert _owners()["read_pvalues_csv"] == ["stats"]
    assert _owners()["write_pvalues_csv"] == ["stats"]
    assert control.read_pvalues_csv is stats.read_pvalues_csv
    assert control.write_pvalues_csv is stats.write_pvalues_csv


# --- argument rules ----------------------------------------------------------
#
# Every public number, count and vector is checked by one helper set in
# ``artifact.core``.  The refusal table runs each public scalar argument
# through the values that rule refuses and the numpy scalars it accepts.

SV = StatisticVector([1.5, -0.5, 2.0, 0.25], 0.0, HypothesisShape.DIRECTIONAL)
SV_EQU = StatisticVector([0.1, 0.5, 2.0, -0.2], 1.0, HypothesisShape.EQUIVALENCE)
DATA = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.5], [1.0, 0.5, 0.75]])
GROUP = TransformationGroup.sign_flip_full(3)
SCENARIO = dict(n=3, m=4, pi0=0.5, replicates=2)
STUDY = dict(n=3, m=4, pi0=0.5, rho=0.0, d=0.5, methods=("novel",), t=0.5, gamma=0.1, replicates=2)
CLOSURE = run_closure(LocalTestFamily.directional_basic(SV, 0.0))


def _sums(x):
    return x.sum(axis=0)


# A number argument: its call and an accepted float and integer value (None
# where no integer is in range).
NUMBERS = {
    "estimate_directional.t": (lambda v: estimate_directional(SV, v), 0.25, 1),
    "estimate_directional_randomized.t": (
        lambda v: estimate_directional_randomized(SV, v, CoinSource(0)), 0.25, 1),
    "estimate_equivalence.t": (lambda v: estimate_equivalence(SV_EQU, v), 0.25, 0),
    "estimate_equivalence_windowed.t": (lambda v: estimate_equivalence_windowed(SV_EQU, v), 0.25, 0),
    "sam_bound.t": (lambda v: sam_bound(DATA, _sums, GROUP, v), 0.25, 1),
    "sam_two_transform.t": (lambda v: sam_two_transform(DATA, _sums, v), 0.25, 1),
    "LocalTestFamily.directional_basic.t": (lambda v: LocalTestFamily.directional_basic(SV, v), 0.25, 1),
    "LocalTestFamily.directional_randomized.t": (
        lambda v: LocalTestFamily.directional_randomized(SV, v, 1), 0.25, 1),
    "LocalTestFamily.equivalence_basic.t": (lambda v: LocalTestFamily.equivalence_basic(SV_EQU, v), 0.25, 0),
    "LocalTestFamily.equivalence_windowed.t": (
        lambda v: LocalTestFamily.equivalence_windowed(SV_EQU, v), 0.25, 0),
    "LocalTestFamily.sam_subset.t": (lambda v: LocalTestFamily.sam_subset(DATA, _sums, GROUP, v), 0.25, 1),
    "verify_shortcut.t": (
        lambda v: verify_shortcut(LocalTestFamily.directional_basic(SV, 0.5), SV, v), 0.5, 1),
    "StudySpec.t": (lambda v: StudySpec(**{**STUDY, "t": v}), 0.25, 1),
    "control_mfdp.gamma": (lambda v: control_mfdp(SV, v), 0.25, 0),
    "control_coverage.gamma": (lambda v: control_coverage(ScenarioSpec(**SCENARIO), v), 0.25, 0),
    "benjamini_hochberg.gamma": (lambda v: benjamini_hochberg([0.01, 0.5], v), 0.25, 0),
    "lehmann_romano_stepdown.gamma": (lambda v: lehmann_romano_stepdown([0.01, 0.5], v), 0.25, 0),
    "lehmann_romano_critical_values.gamma": (lambda v: lehmann_romano_critical_values(3, v), 0.25, 0),
    "StudySpec.gamma": (lambda v: StudySpec(**{**STUDY, "gamma": v}), 0.25, 0),
    "sam_bound.alpha": (lambda v: sam_bound(DATA, _sums, GROUP, 0.5, alpha=v), 0.25, None),
    "LocalTestFamily.sam_subset.alpha": (
        lambda v: LocalTestFamily.sam_subset(DATA, _sums, GROUP, 0.5, alpha=v), 0.25, None),
    "lehmann_romano_stepdown.alpha": (lambda v: lehmann_romano_stepdown([0.01, 0.5], 0.1, v), 0.25, None),
    "lehmann_romano_critical_values.alpha": (
        lambda v: lehmann_romano_critical_values(3, 0.1, v), 0.25, None),
    "sign_flip_test.alpha": (lambda v: sign_flip_test([0.5, 1.0, -0.25], v), 0.25, None),
    "two_group_permutation_test.alpha": (
        lambda v: two_group_permutation_test([1.0, 2.0], [0.5, -1.0], v), 0.25, None),
    "NullDensitySpec.scaled_normal.sigma": (NullDensitySpec.scaled_normal, 0.25, 2),
    "NullDensitySpec.student_t.nu": (NullDensitySpec.student_t, 0.25, 2),
    "NullDensitySpec.sigma": (lambda v: NullDensitySpec(family="scaled-normal", sigma=v), 0.25, 2),
    "NullDensitySpec.nu": (lambda v: NullDensitySpec(family="student-t", nu=v), 0.25, 2),
    **{
        f"ScenarioSpec.{name}": (lambda v, name=name: ScenarioSpec(**{**SCENARIO, name: v}), 0.25, 0)
        for name in ("pi0", "rho", "d", "delta")
    },
    "ScenarioSpec.noise_df": (lambda v: ScenarioSpec(**SCENARIO, noise_df=v), 4.5, 5),
}

# A count argument: its call and an accepted value.
COUNTS = {
    **{f"ScenarioSpec.{name}": (lambda v, name=name: ScenarioSpec(**{**SCENARIO, name: v}), 2)
       for name in ("n", "m", "replicates", "seed")},
    **{f"StudySpec.{name}": (lambda v, name=name: StudySpec(**{**STUDY, name: v}), 2)
       for name in ("n", "m", "replicates", "seed")},
    "generate.replicate_index": (lambda v: generate(ScenarioSpec(**SCENARIO), v), 2),
    "generate_statistics.replicate_index": (lambda v: generate_statistics(ScenarioSpec(**SCENARIO), v), 2),
    "lehmann_romano_critical_values.m": (lambda v: lehmann_romano_critical_values(v, 0.1), 2),
    "indices_to_mask.indices": (lambda v: indices_to_mask([v]), 2),
    "mask_to_indices.mask": (mask_to_indices, 2),
    "LocalTestFamily.phi.mask": (LocalTestFamily.directional_basic(SV, 0.0).phi, 2),
    "ClosureResult.contains.mask": (CLOSURE.contains, 2),
    "ClosureResult.t_alpha.mask": (CLOSURE.t_alpha, 2),
    "LocalTestFamily.directional_randomized.b": (
        lambda v: LocalTestFamily.directional_randomized(SV, 0.5, v), 1),
    "verify_random_instances.n_instances": (
        lambda v: verify_random_instances("directional-basic", v, 3, 0), 2),
    "verify_random_instances.max_m": (lambda v: verify_random_instances("directional-basic", 2, v, 0), 2),
    "verify_random_instances.seed": (lambda v: verify_random_instances("directional-basic", 2, 3, v), 2),
    "TransformationGroup.sign_flip_full.n": (TransformationGroup.sign_flip_full, 2),
    "TransformationGroup.negation_pair.n": (TransformationGroup.negation_pair, 2),
    "TransformationGroup.case_control_swap.n": (TransformationGroup.case_control_swap, 2),
    "TransformationGroup.sign_flip_subsample.n": (
        lambda v: TransformationGroup.sign_flip_subsample(v, 4, seed=0), 2),
    "TransformationGroup.sign_flip_subsample.n_transforms": (
        lambda v: TransformationGroup.sign_flip_subsample(3, v, seed=0), 2),
    "TransformationGroup.permutation_subsample.n": (
        lambda v: TransformationGroup.permutation_subsample(v, 4, seed=0), 2),
    "TransformationGroup.permutation_subsample.n_transforms": (
        lambda v: TransformationGroup.permutation_subsample(3, v, seed=0), 2),
    "TransformationGroup.n": (lambda v: TransformationGroup(kind="custom", n=v, signs=np.ones((1, 2))), 2),
}

NOT_NUMBERS = [True, False, np.True_, "0.1", None, math.nan, math.inf, -math.inf, np.float64(math.nan)]
NOT_COUNTS = [True, False, np.True_, "2", None, 2.0, np.float64(2.0), math.nan, math.inf]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("argument", sorted(NUMBERS))
def test_number_argument_refuses(argument, bad):
    call, _, _ = NUMBERS[argument]
    with pytest.raises(ValueError, match=rf"\b{argument.rsplit('.', 1)[1]} must be"):
        call(bad)


@pytest.mark.parametrize("argument", sorted(NUMBERS))
def test_number_argument_takes_numpy_scalars(argument):
    call, good, integer = NUMBERS[argument]
    call(np.float64(good))
    call(np.float32(good))
    if integer is not None:
        call(np.int64(integer))
        call(integer)


@pytest.mark.parametrize("bad", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("argument", sorted(COUNTS))
def test_count_argument_refuses(argument, bad):
    call, _ = COUNTS[argument]
    with pytest.raises(ValueError, match=rf"\b{argument.rsplit('.', 1)[1]} must be"):
        call(bad)


@pytest.mark.parametrize("argument", sorted(COUNTS))
def test_count_argument_takes_numpy_integers(argument):
    call, good = COUNTS[argument]
    call(np.int64(good))
    call(np.uint8(good))


# A count is read as a Python int: numpy's uint8 arithmetic wraps (2 * 200 == 144, 2**8 == 0).
@pytest.mark.parametrize(
    "build, n",
    [
        (TransformationGroup.sign_flip_full, 8),
        (TransformationGroup.negation_pair, 200),
        (TransformationGroup.case_control_swap, 200),
        (lambda n: TransformationGroup.sign_flip_subsample(n, 3, seed=0), 200),
        (lambda n: TransformationGroup.permutation_subsample(n, 3, seed=0), 200),
    ],
    ids=["sign_flip_full", "negation_pair", "case_control_swap", "sign_flip_subsample", "permutation_subsample"],
)
def test_uint8_count_builds_the_group_an_int_builds(build, n):
    expected, group = build(n), build(np.uint8(n))
    assert type(group.n) is int and group.n == n
    np.testing.assert_array_equal(group.signs, expected.signs)
    np.testing.assert_array_equal(group.perms, expected.perms)


def test_uint8_counts_are_stored_as_ints():
    spec = ScenarioSpec(**{**SCENARIO, "m": np.uint8(200), "seed": np.uint8(255)})
    assert (type(spec.m), type(spec.seed)) == (int, int)
    assert TransformationGroup.sign_flip_subsample(3, np.uint8(200), seed=0).size == 200


# A vector argument: its call.  The margins may also be a scalar, so for them an
# empty or 2-d array is refused as a length mismatch.
VECTORS = {
    "StatisticVector.statistics": lambda v: StatisticVector(v, 0.0, HypothesisShape.DIRECTIONAL),
    "StatisticVector.margins": lambda v: StatisticVector([1.0, 2.0], v, HypothesisShape.DIRECTIONAL),
    "PValueVector.p-values": lambda v: PValueVector(v, HypothesisShape.DIRECTIONAL),
    "benjamini_hochberg.pvalues": lambda v: benjamini_hochberg(v, 0.1),
    "lehmann_romano_stepdown.pvalues": lambda v: lehmann_romano_stepdown(v, 0.1),
    "sign_flip_test.x": lambda v: sign_flip_test(v, 0.25),
    "two_group_permutation_test.z": lambda v: two_group_permutation_test(v, [0.5, 0.25], 0.25),
    "two_group_permutation_test.y": lambda v: two_group_permutation_test([0.5, 0.25], v, 0.25),
}
NOT_VECTORS = [[True, False], ["0.5", "0.25"], [0.5, None], [[0.5, 0.25], [0.5, 0.25]], [], [0.5, math.nan]]


@pytest.mark.parametrize("bad", NOT_VECTORS, ids=repr)
@pytest.mark.parametrize("argument", sorted(VECTORS))
def test_vector_argument_refuses(argument, bad):
    with pytest.raises(ValueError, match=rf"^{argument.rsplit('.', 1)[1]}\b"):
        VECTORS[argument](bad)


@pytest.mark.parametrize("argument", sorted(VECTORS))
def test_vector_argument_takes_integer_and_float32_arrays(argument):
    VECTORS[argument](np.array([0, 1], dtype=np.int64))
    VECTORS[argument](np.array([0.5, 0.25], dtype=np.float32))


# Each pattern is one spelling of an argument rule; the rules are written in core only.
RULE_SPELLINGS = re.compile(r"math\.isfinite|numbers\.Real|numbers\.Integral|np\.integer\b|^import numbers", re.M)


def test_argument_rules_are_spelled_only_in_core():
    package = Path(artifact.__file__).parent
    spelled = {
        path.name: RULE_SPELLINGS.findall(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert spelled.pop("core.py")
    assert {name: found for name, found in spelled.items() if found} == {}


def test_no_row_kernel_call_wraps_a_family_as_a_block():
    # The row kernels take one family as a 1-d row, so nothing adds a leading axis with [None].
    package = Path(artifact.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert [name for name, text in sources.items() if "[None]" in text] == []
