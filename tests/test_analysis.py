"""Unit tests for analysis helpers (stats + table rendering)."""

import pytest

from repro.analysis import mean_ci, render_series, render_table


# ----------------------------------------------------------------- stats
def test_mean_ci_basic():
    mean, half = mean_ci([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5)
    assert half > 0


def test_mean_ci_degenerate_cases():
    assert mean_ci([]) == (0.0, 0.0)
    assert mean_ci([5.0]) == (5.0, 0.0)
    assert mean_ci([2.0, 2.0, 2.0]) == (2.0, 0.0)


def test_mean_ci_wider_at_higher_confidence():
    data = [1, 5, 2, 8, 3]
    _, h95 = mean_ci(data, confidence=0.95)
    _, h99 = mean_ci(data, confidence=0.99)
    assert h99 > h95


# ----------------------------------------------------------------- tables
def test_render_table_alignment_and_content():
    out = render_table("My Title", ["name", "value"],
                       [["alpha", 1.2345], ["b", 123456.0]])
    lines = out.splitlines()
    assert lines[0] == "My Title"
    assert lines[1] == "=" * len("My Title")
    assert "name" in lines[2] and "value" in lines[2]
    assert "alpha" in out and "1.23" in out
    assert "123,456" in out  # thousands formatting
    # Columns align: header and data rows share separator positions
    # (lines[3] is the ---+--- rule).
    data_lines = [lines[2]] + lines[4:]
    assert len({line.find(" | ") for line in data_lines}) == 1


def test_render_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        render_table("t", ["a", "b"], [["only-one"]])


def test_render_table_float_formats():
    out = render_table("t", ["v"], [[0.0], [0.00012345], [3.14159], [2000.5]])
    assert "0" in out
    assert "0.0001234" in out or "0.0001235" in out
    assert "3.14" in out
    assert "2,000" in out or "2,001" in out


def test_render_series():
    out = render_series("Load", "t", "gaps", [(1, 2.0), (2, 4.0), (3, 0.0)])
    lines = out.splitlines()
    assert lines[0] == "Load"
    # Largest value gets the longest bar.
    bar_lengths = [line.count("#") for line in lines[3:]]
    assert bar_lengths[1] == max(bar_lengths)
    assert bar_lengths[2] == 0
    assert render_series("E", "x", "y", []).endswith("(no data)")
