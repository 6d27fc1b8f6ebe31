#!/usr/bin/env python
"""CI gate: the checked-in golden files must match their generators.

Every golden file under ``tests/serve/golden/`` is the rendered output of
a documented generator, registered in :data:`repro.bench.registry.GOLDENS`
(the bench's ``golden_rows`` for the CSVs, ``repro.bench.serve.golden_trace``
for the Perfetto span-event trace of the small serve run, and
``golden_dashboard_digest`` for the sha256 of its monitored dashboard
HTML). This script regenerates each one and fails on any byte difference
— catching un-blessed replay drift at review time (the event loop,
scheduler, estimates, or float formatting changed and nobody re-blessed
the golden) instead of in a later change — and on any golden file the
registry does not know.

Usage::

    python scripts/check_golden.py            # verify (CI mode)
    python scripts/check_golden.py --bless    # regenerate in place

Blessing is deliberate: run with ``--bless``, eyeball the diff, and
commit the result alongside the change that moved the numbers.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "serve" / "golden"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.bench.registry import GOLDENS

    bless = "--bless" in argv
    problems: list[str] = []

    unregistered = sorted(
        p.name
        for pattern in ("*.csv", "*.json", "*.sha256")
        for p in GOLDEN_DIR.glob(pattern)
        if p.name not in GOLDENS
    )
    if unregistered:
        problems.append(
            "golden files with no registered generator (add them to "
            f"repro.bench.registry.GOLDENS): {', '.join(unregistered)}"
        )

    for name, render in GOLDENS.items():
        path = GOLDEN_DIR / name
        fresh = render()
        if bless:
            path.write_text(fresh)
            print(f"blessed {path.relative_to(REPO_ROOT)}")
            continue
        if not path.exists():
            problems.append(f"{name}: golden file missing (run with --bless)")
            continue
        checked_in = path.read_text()
        if checked_in != fresh:
            diff = "".join(
                difflib.unified_diff(
                    checked_in.splitlines(keepends=True),
                    fresh.splitlines(keepends=True),
                    fromfile=f"checked-in/{name}",
                    tofile=f"regenerated/{name}",
                )
            )
            problems.append(f"{name}: drift from the generator\n{diff}")

    if problems and not bless:
        for problem in problems:
            print(f"golden-drift: {problem}", file=sys.stderr)
        print(
            "golden-drift: if the change is intentional, re-bless via "
            "`python scripts/check_golden.py --bless` and commit the diff",
            file=sys.stderr,
        )
        return 1
    if not bless:
        print(f"golden-drift: all {len(GOLDENS)} golden files match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
