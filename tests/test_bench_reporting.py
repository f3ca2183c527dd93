"""The bench-trend gate on exact counts (``benchmarks/reporting.py``)."""

from __future__ import annotations

import json

import pytest

from benchmarks import reporting

TITLE = "Per-stage concretization profile (profile='rules')"


def trend(pr, rows, title=TITLE):
    return {"pr": pr, "tables": {"profile": {"title": title, "rows": rows}}}


@pytest.fixture
def write_prior(tmp_path, monkeypatch):
    monkeypatch.setattr(reporting, "REPO_ROOT", str(tmp_path))

    def write(pr, rows, title=TITLE):
        path = tmp_path / f"BENCH_{pr}.json"
        path.write_text(json.dumps(trend(pr, rows, title)))

    return write


def test_a_count_no_prior_file_has_is_skipped(write_prior):
    write_prior(9, [["end-to-end wall [s]", "1.0"]])
    assert reporting.check_exact_counts(trend(13, [["micro solver decisions [#]", 8384]])) == []


def test_an_equal_count_passes_and_a_changed_one_fails(write_prior):
    write_prior(12, [["micro solver decisions [#]", 8384]])
    assert reporting.check_exact_counts(trend(13, [["micro solver decisions [#]", 8384]])) == []
    (failure,) = reporting.check_exact_counts(trend(13, [["micro solver decisions [#]", 8385]]))
    assert "8384 -> 8385" in failure and "BENCH_12.json" in failure


def test_the_newest_prior_file_that_has_the_count_decides(write_prior):
    write_prior(9, [["micro solver conflicts [#]", 28]])
    write_prior(10, [["micro solver conflicts [#]", 30]])
    write_prior(11, [["end-to-end wall [s]", "1.0"]])  # without the count
    write_prior(12, [["micro solver conflicts [#]", 28]], title="another workload")
    write_prior(14, [["micro solver conflicts [#]", 28]])  # not prior to 13
    (failure,) = reporting.check_exact_counts(trend(13, [["micro solver conflicts [#]", 28]]))
    assert "30 -> 28" in failure and "BENCH_10.json" in failure
    assert reporting.check_exact_counts(trend(13, [["micro solver conflicts [#]", 30]])) == []
