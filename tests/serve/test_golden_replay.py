"""Golden-replay determinism of the serving experiments.

The discrete-event simulator's whole value rests on reproducibility, so it
is pinned two ways:

* **replay** — running the "serve" and "serve-priority" experiments twice
  with the same seed must produce byte-identical report rows (the CSVs the
  CLI would write), not merely statistically similar ones;
* **golden files** — every file under ``golden/`` is the rendered output
  of a generator registered in :data:`repro.bench.registry.GOLDENS`: one
  small fixed scenario per serve bench rendered to CSV (priority slices,
  heterogeneous-fleet arms, autoscaling regimes, recovery arms, pipeline
  placement arms), plus the small serve run's Perfetto trace and the
  sha256 of its dashboard. Each must match its renderer byte for byte.
  Any change to the event loop, scheduler, batcher, estimates, or float
  formatting that moves a single bit shows up as a diff here and must be
  re-blessed deliberately (``scripts/check_golden.py --bless``, which
  reads the same mapping). The per-bench classes below check that each
  pinned CSV still covers every arm and still tells the bench's story.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.registry import GOLDENS, run_experiment
from repro.util.formatting import render_csv

GOLDEN_DIR = Path(__file__).parent / "golden"


def _csv_tables(name: str) -> dict[str, str]:
    result = run_experiment(name, quick=True)
    return {table: render_csv(headers, rows) for table, (headers, rows) in result.tables.items()}


def _table(name: str) -> tuple[list[str], list[list[str]]]:
    """A golden CSV's header and rows. Labels may hold commas (``buckets
    (2048,)``), so each row is split from the right into as many cells as
    the header has."""
    header, *lines = (GOLDEN_DIR / name).read_text().splitlines()
    headers = header.split(",")
    return headers, [line.rsplit(",", len(headers) - 1) for line in lines]


def _rows(name: str) -> tuple[list[str], dict[str, list[str]]]:
    """A golden CSV's header and its rows keyed by their label."""
    headers, rows = _table(name)
    return headers, {row[0]: row for row in rows}


def _first_column(name: str) -> list[str]:
    return [row[0] for row in _table(name)[1]]


class TestExperimentReplay:
    def test_serve_experiment_rows_replay_byte_identical(self):
        assert _csv_tables("serve") == _csv_tables("serve")

    def test_serve_priority_experiment_rows_replay_byte_identical(self):
        assert _csv_tables("serve-priority") == _csv_tables("serve-priority")


class TestGoldenFiles:
    @pytest.mark.parametrize("name", list(GOLDENS))
    def test_matches_renderer(self, name):
        assert GOLDENS[name]() == (GOLDEN_DIR / name).read_text()

    def test_every_golden_file_is_registered(self):
        on_disk = {p.name for p in GOLDEN_DIR.iterdir() if p.suffix in (".csv", ".json", ".sha256")}
        assert on_disk == set(GOLDENS)


class TestGoldenFile:
    def test_golden_covers_every_slice(self):
        assert _first_column("serve_priority_small.csv") == [
            "priority=0",
            "priority=1",
            "pulsar-a",
            "pulsar-b",
            "clinic",
            "overall",
        ]


class TestHeteroGoldenFile:
    def test_golden_covers_every_arm(self):
        assert _first_column("serve_hetero_small.csv") == [
            "mixed",
            "amd-only",
            "exact-shape",
            "buckets (2048,)",
            "split",
        ]

    def test_golden_pins_the_placement_story(self):
        # The pinned bytes must keep telling the story the bench claims:
        # int1 traffic is shed at the door of an AMD-only fleet, shape
        # buckets raise goodput over exact-shape batching, and the
        # oversized survey request is served rather than shed.
        header, by_label = _rows("serve_hetero_small.csv")
        shed, goodput = header.index("shed (%)"), header.index("goodput (req/s)")
        launches = header.index("launches")
        assert float(by_label["amd-only"][shed]) == 100.0
        assert int(by_label["amd-only"][launches]) == 0
        assert int(by_label["buckets (2048,)"][goodput]) > int(by_label["exact-shape"][goodput])
        assert float(by_label["split"][shed]) == 0.0


class TestAutoscaleGoldenFile:
    def test_golden_covers_every_provisioning_regime(self):
        first_column = _first_column("serve_autoscale_small.csv")
        assert first_column[:2] == ["reactive", "predictive"]
        assert all(label.startswith("fixed-") for label in first_column[2:])
        assert len(first_column) == 4


class TestResilienceGoldenFile:
    def test_golden_covers_every_recovery_arm(self):
        assert _first_column("serve_resilience_small.csv") == [
            "fault-free",
            "no-recovery",
            "resilient",
            "split-crash",
        ]

    def test_golden_pins_the_recovery_story(self):
        # The pinned bytes must keep telling the story the bench claims:
        # the crash costs the no-recovery arm admitted requests, and the
        # resilient arm recovers every one of them.
        header, by_label = _rows("serve_resilience_small.csv")
        availability = header.index("availability (%)")
        assert float(by_label["fault-free"][availability]) == 100.0
        assert float(by_label["no-recovery"][availability]) < 100.0
        assert float(by_label["resilient"][availability]) >= 99.9


class TestPipelineGoldenFile:
    def test_golden_covers_both_placement_arms(self):
        assert _first_column("serve_pipeline_small.csv") == ["stage-locality", "stage-blind"]

    def test_golden_pins_the_locality_story(self):
        # The pinned bytes must keep telling the story the bench claims:
        # locality-aware stage placement keeps more dispatches on the
        # buffer-resident worker and holds a tighter end-to-end tail.
        header, by_label = _rows("serve_pipeline_small.csv")
        local_pct = header.index("stage-local (%)")
        p99 = header.index("p99 (ms)")
        locality, blind = by_label["stage-locality"], by_label["stage-blind"]
        assert float(locality[local_pct]) > float(blind[local_pct])
        assert float(locality[p99]) <= float(blind[p99])
