"""The monitoring dashboard: byte-deterministic self-contained HTML.

The page is an artifact the CI ships, so it is pinned three ways: two
renders of the same seed are byte-equal, the golden configuration's
sha256 matches the checked-in digest (the golden-file test in
``test_golden_replay.py``; re-bless via ``scripts/check_golden.py
--bless``), and the structural validator the CI runs accepts every page
this module renders.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.bench.serve import golden_dashboard, golden_dashboard_digest
from repro.errors import ShapeError
from repro.serve import ServiceMonitor, render_dashboard
from tests.serve.test_monitor import INTERVAL_S, _run

SCRIPTS_DIR = Path(__file__).parent.parent.parent / "scripts"


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_dashboard", SCRIPTS_DIR / "validate_dashboard.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _monitored_report():
    monitor = ServiceMonitor(interval_s=INTERVAL_S)
    return _run(monitor=monitor)


class TestDeterminism:
    def test_same_seed_renders_byte_identical_html(self):
        first = render_dashboard(_monitored_report(), title="t")
        second = render_dashboard(_monitored_report(), title="t")
        assert first == second

    def test_digest_is_the_sha256_of_the_page(self):
        page = golden_dashboard()
        digest = hashlib.sha256(page.encode("utf-8")).hexdigest() + "\n"
        assert digest == golden_dashboard_digest()


class TestStructure:
    def test_page_is_self_contained_html(self):
        page = render_dashboard(_monitored_report(), title="overload run")
        assert page.lower().startswith("<!doctype html>")
        assert "overload run" in page
        for section in ("stats", "series", "alerts", "blame", "fleet"):
            assert f'id="{section}"' in page, section
        assert "<svg" in page
        assert "rate.arrival_hz" in page
        assert "http" not in page.split("</title>")[1]  # no external fetches

    def test_validator_script_accepts_the_page(self, tmp_path):
        path = tmp_path / "dash.html"
        path.write_text(render_dashboard(_monitored_report(), title="t"))
        validator = _load_validator()
        assert validator.check(str(path)) == []

    def test_validator_script_rejects_a_gutted_page(self, tmp_path):
        page = render_dashboard(_monitored_report(), title="t")
        gutted = page.replace('id="alerts"', 'id="nope"')
        path = tmp_path / "bad.html"
        path.write_text(gutted)
        validator = _load_validator()
        problems = validator.check(str(path))
        assert any("alerts" in p for p in problems)

    def test_unmonitored_report_raises(self):
        with pytest.raises(ShapeError):
            render_dashboard(_run(), title="t")
