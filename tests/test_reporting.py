"""Tests for the table/CDF rendering helpers."""

import pytest

from repro.reporting import cdf_points, render_table, summarize_latencies


class TestRenderTable:
    def test_alignment_and_structure(self):
        text = render_table(["Name", "Count"], [["alpha", 10], ["b", 2000]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "Name" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert lines[3].endswith("2000")

    def test_float_formatting(self):
        text = render_table(["x"], [[3.14159]])
        assert "3.1" in text and "3.14159" not in text

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert len(text.splitlines()) == 2


class TestCdf:
    def test_points_monotone(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]

    def test_points_empty(self):
        assert cdf_points([]) == []

    def test_summary(self):
        summary = summarize_latencies([10.0, 20.0, 30.0, 40.0])
        assert summary["n"] == 4
        assert summary["p50"] == 25.0
        assert summary["min"] == 10.0
        assert summary["max"] == 40.0
        assert summary["mean"] == 25.0
        with pytest.raises(ValueError):
            summarize_latencies([])
