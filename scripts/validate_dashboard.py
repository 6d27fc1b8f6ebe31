#!/usr/bin/env python
"""CI gate: structural validation of a rendered monitoring dashboard.

Parses the self-contained HTML page that every serving experiment of
``python -m repro.bench`` writes to ``<outdir>/<name>-dashboard.html``
(:func:`repro.serve.obs.dashboard.render_dashboard`) with the standard
library's :class:`html.parser.HTMLParser` and fails on

* a missing doctype or ``<title>``,
* unbalanced non-void tags (a renderer that stopped closing what it
  opens),
* a missing dashboard section (``stats`` / ``series`` / ``alerts`` /
  ``blame`` / ``fleet`` ids),
* no inline ``<svg>`` charts at all,
* missing core sampler series names in the page text.

This is a structure gate, not a pixel test — byte-level drift of the
golden configuration is pinned separately by
``tests/serve/golden/serve_dashboard_small.sha256``.

Usage::

    python scripts/validate_dashboard.py DASHBOARD_HTML
"""

from __future__ import annotations

import sys
from html.parser import HTMLParser
from pathlib import Path

#: section ids every dashboard must render, in any order.
REQUIRED_SECTIONS = ("stats", "series", "alerts", "blame", "fleet")

#: sampler series that exist for every monitored service, whatever the
#: scenario (per-worker and cache series depend on the fleet/workload).
REQUIRED_SERIES = (
    "rate.arrival_hz",
    "rate.completed_hz",
    "rate.shed_hz",
    "queue.requests",
    "fleet.provisioned",
)

#: HTML void elements — never closed, excluded from balance checking.
VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta source track wbr".split()
)


class _DashboardParser(HTMLParser):
    """Collects ids, tag balance, svg count, and text content."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.problems: list[str] = []
        self.ids: set[str] = set()
        self.n_svg = 0
        self.title_parts: list[str] = []
        self.text_parts: list[str] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag not in VOID_TAGS:
            self.stack.append(tag)
        if tag == "svg":
            self.n_svg += 1
        for key, value in attrs:
            if key == "id" and value:
                self.ids.add(value)

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        if not self.stack:
            self.problems.append(f"closing </{tag}> with nothing open")
        elif self.stack[-1] != tag:
            self.problems.append(
                f"closing </{tag}> but <{self.stack[-1]}> is open (misnested)"
            )
            self.stack.pop()
        else:
            self.stack.pop()

    def handle_data(self, data: str) -> None:
        if self.stack and self.stack[-1] == "title":
            self.title_parts.append(data)
        self.text_parts.append(data)


def check(path: str) -> list[str]:
    """Return the list of problems found in one dashboard HTML file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"cannot read dashboard {path!r}: {exc}"]
    problems: list[str] = []
    if not text.lstrip().lower().startswith("<!doctype html>"):
        problems.append("missing <!doctype html> prologue")
    parser = _DashboardParser()
    parser.feed(text)
    parser.close()
    problems += parser.problems
    if parser.stack:
        problems.append(f"unclosed tags at end of document: {parser.stack}")
    if not "".join(parser.title_parts).strip():
        problems.append("missing or empty <title>")
    for section in REQUIRED_SECTIONS:
        if section not in parser.ids:
            problems.append(f"missing dashboard section id={section!r}")
    if parser.n_svg == 0:
        problems.append("no inline <svg> charts in the page")
    page_text = "".join(parser.text_parts)
    for series in REQUIRED_SERIES:
        if series not in page_text:
            problems.append(f"core series {series!r} not on the page")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: validate_dashboard.py DASHBOARD_HTML", file=sys.stderr)
        return 2
    problems = check(argv[0])
    if problems:
        for problem in problems:
            print(f"dashboard: {problem}", file=sys.stderr)
        return 1
    print(f"dashboard: {argv[0]} is structurally valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
