import json

import pytest

from histlayer import verify


def test_run_all_properties_pass():
    reports = verify.run_all(seed=0, trials=20)
    assert [r.name for r in reports] == [
        *(f"gradcheck_{op}" for op in verify.PRIMITIVES),
        "histogram_finite_differences", "full_network_finite_differences",
        "direct_vs_composed_equivalence", "oracle_agreement",
        "partition_of_unity_at_init", "lock_mask_immutability",
        "free_all_diagonal_expected_fail", "feature_range_bounds",
        "dataset_determinism_roundtrip", "metric_fixtures"]
    failed = [r.name for r in reports if not r.passed]
    assert failed == []


def test_report_names_are_unique_and_stable():
    reports = verify.run_all(seed=1, trials=10)
    names = [r.name for r in reports]
    assert len(set(names)) == len(names)
    assert "direct_vs_composed_equivalence" in names
    assert "oracle_agreement" in names
    assert "lock_mask_immutability" in names


def test_reports_serialize_to_json_lines():
    for r in verify.run_all(seed=2, trials=10):
        d = json.loads(r.to_json())
        assert set(d) == {"property", "trials", "max_error", "skipped",
                          "passed", "seed", "detail"}
        assert isinstance(d["max_error"], float)
        assert isinstance(d["passed"], bool)


def test_run_all_deterministic_per_seed():
    a = verify.run_all(seed=3, trials=10)
    b = verify.run_all(seed=3, trials=10)
    assert [(r.name, r.max_error, r.skipped, r.passed) for r in a] == \
           [(r.name, r.max_error, r.skipped, r.passed) for r in b]


def test_equivalence_tighter_than_structural_tolerance():
    report = verify.check_equivalence(seed=4, trials=25)
    assert report.passed
    assert report.max_error < verify.TOL_STRUCTURAL


def test_free_all_drift_is_the_expected_failure():
    report = verify.check_free_all_unlock(seed=5)
    assert report.passed
    assert "drift" in report.detail or "unlock" in report.detail or report.detail == ""


@pytest.mark.parametrize("seed", range(10))
def test_network_gradients_check_most_sampled_entries(seed):
    report = verify.check_network_gradients(seed)
    assert report.passed
    assert report.skipped <= 0.25 * (report.trials + report.skipped)
