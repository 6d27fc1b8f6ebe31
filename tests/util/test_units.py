"""Unit formatting helpers."""

from __future__ import annotations

from repro.util.units import (
    format_ops_per_joule,
    format_ops_rate,
    format_seconds,
    tera,
)


class TestPaperStyle:
    def test_ops_rate_matches_paper_vocabulary(self):
        assert format_ops_rate(173 * tera) == "173.0 TOPs/s"

    def test_ops_per_joule(self):
        assert format_ops_per_joule(0.8 * tera) == "0.80 TOPs/J"


class TestSeconds:
    def test_seconds_scales(self):
        assert format_seconds(90) == "1.50 min"
        assert format_seconds(1.5) == "1.500 s"
        assert format_seconds(2e-3) == "2.000 ms"
        assert format_seconds(3e-6) == "3.000 us"
        assert format_seconds(5e-9) == "5.0 ns"
