"""Unit constants and human-readable formatting for rates, energy and times.

The paper reports performance in TeraOps/s (TOPs/s) and energy efficiency in
TeraOps/J (equivalently Ops/s/W); these helpers keep that vocabulary in one
place so benchmark output matches the paper's tables.
"""

from __future__ import annotations

kilo = 1e3
mega = 1e6
giga = 1e9
tera = 1e12
peta = 1e15


def format_ops_rate(ops_per_second: float) -> str:
    """Render an operation rate the way the paper does (TOPs/s)."""
    return f"{ops_per_second / tera:.1f} TOPs/s"


def format_ops_per_joule(ops_per_joule: float) -> str:
    """Render energy efficiency the way the paper does (TOPs/J)."""
    return f"{ops_per_joule / tera:.2f} TOPs/J"


def format_seconds(t: float) -> str:
    """Adaptive time formatting from nanoseconds to minutes."""
    if t >= 60:
        return f"{t / 60:.2f} min"
    if t >= 1:
        return f"{t:.3f} s"
    if t >= 1e-3:
        return f"{t * 1e3:.3f} ms"
    if t >= 1e-6:
        return f"{t * 1e6:.3f} us"
    return f"{t * 1e9:.1f} ns"
