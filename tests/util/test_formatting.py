"""ASCII table / plot rendering."""

from __future__ import annotations

import pytest

from repro.util.formatting import ascii_scatter, ascii_series, render_csv, render_table


class TestRenderTable:
    def test_alignment_and_header_rule(self):
        out = render_table(["a", "long_header"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", "+"}
        # all rows equal width
        assert len({len(line) for line in lines if line}) <= 2

    def test_title(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_float_formatting(self):
        out = render_table(["x"], [[1.23456789]])
        assert "1.23" in out and "1.23456789" not in out


class TestRenderCsv:
    def test_header_and_rows(self):
        out = render_csv(["a", "b"], [[1, 2.5], ["x", 3]])
        lines = out.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert lines[2] == "x,3"


class TestAsciiScatter:
    def test_empty(self):
        assert "(no data)" in ascii_scatter([], [])

    def test_marker_present(self):
        out = ascii_scatter([1, 2, 3], [1, 4, 9], width=20, height=5)
        assert "o" in out

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ascii_scatter([1], [1, 2])

    def test_log_axes_filter_nonpositive(self):
        out = ascii_scatter([0, 1, 10], [1, 1, 2], logx=True, width=20, height=5)
        assert "o" in out  # zero point silently dropped

    def test_single_point(self):
        out = ascii_scatter([5.0], [7.0], width=10, height=4)
        assert out.count("o") == 1


class TestAsciiSeries:
    def test_legend_and_markers(self):
        out = ascii_series(
            {"alpha": ([1, 2], [1, 2]), "beta": ([1, 2], [2, 1])},
            width=20,
            height=6,
        )
        assert "o=alpha" in out and "x=beta" in out

    def test_empty_series(self):
        assert "(no data)" in ascii_series({"a": ([], [])})
