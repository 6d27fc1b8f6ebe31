"""Tuning result cache.

Kernel Tuner caches evaluated configurations so repeated tuning runs skip
known points. We reproduce that cache in memory, keyed by (device,
precision, problem shape, configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kerneltuner.space import Config


def _key(device: str, precision: str, problem_key: str, config: Config) -> str:
    cfg = ",".join(f"{k}={config[k]}" for k in sorted(config))
    return f"{device}|{precision}|{problem_key}|{cfg}"


@dataclass
class TuningCache:
    """In-memory cache of evaluated configurations."""

    _entries: dict[str, dict[str, float]] = field(default_factory=dict)

    def get(
        self, device: str, precision: str, problem_key: str, config: Config
    ) -> dict[str, float] | None:
        return self._entries.get(_key(device, precision, problem_key, config))

    def put(
        self,
        device: str,
        precision: str,
        problem_key: str,
        config: Config,
        metrics: dict[str, float],
    ) -> None:
        self._entries[_key(device, precision, problem_key, config)] = dict(metrics)

    def __len__(self) -> int:
        return len(self._entries)
