"""The package's public API: each name declared once, in the module that owns it."""

from __future__ import annotations

import importlib

import pytest

import artifact

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
