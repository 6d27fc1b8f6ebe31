"""Tuning search spaces with restrictions (Kernel Tuner reproduction).

Kernel Tuner [6] expresses a tuning problem as named parameters with value
lists plus restriction predicates that prune invalid combinations. We keep
that structure so tuning setups read like real Kernel Tuner scripts, and
provide the concrete space used for the ccglib GEMM kernels ("the amount of
work per thread block and warp ... set at compile time", paper §IV-A).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.ccglib.precision import Precision
from repro.ccglib.tuning import (
    BLOCK_M_VALUES,
    BLOCK_N_VALUES,
    NUM_BUFFER_VALUES,
    TuneParams,
    WARP_M_VALUES,
    WARP_N_VALUES,
)
from repro.gpusim.specs import GPUSpec

Config = dict[str, int]
Restriction = Callable[[Config], bool]


@dataclass
class SearchSpace:
    """Named tuning parameters with restriction predicates."""

    parameters: Mapping[str, Sequence[int]]
    restrictions: list[Restriction] = field(default_factory=list)

    def is_valid(self, config: Config) -> bool:
        return all(r(config) for r in self.restrictions)

    def __iter__(self) -> Iterator[Config]:
        names = list(self.parameters)
        for values in itertools.product(*(self.parameters[n] for n in names)):
            config = dict(zip(names, values))
            if self.is_valid(config):
                yield config

    def enumerate_valid(self) -> list[Config]:
        return list(self)

    def neighbours(self, config: Config) -> list[Config]:
        """Hamming-distance-1 valid neighbours (for local search)."""
        out: list[Config] = []
        for name, values in self.parameters.items():
            for v in values:
                if v == config[name]:
                    continue
                cand = dict(config)
                cand[name] = v
                if self.is_valid(cand):
                    out.append(cand)
        return out


def config_to_params(config: Config) -> TuneParams:
    """Convert a GEMM tuning config dict to :class:`TuneParams`."""
    return TuneParams(
        block_m=config["block_m"],
        block_n=config["block_n"],
        warp_m=config["warp_m"],
        warp_n=config["warp_n"],
        num_buffers=config["num_buffers"],
    )


def gemm_search_space(spec: GPUSpec, precision: Precision) -> SearchSpace:
    """The ccglib GEMM tuning space for one device/precision.

    Structural restrictions (divisibility, AMD single-buffer) are encoded
    here; hardware-capacity restrictions (shared memory, registers) are
    enforced by the kernel's own :func:`~repro.ccglib.perfmodel.validate_config`
    at evaluation time, mirroring how Kernel Tuner discovers compile failures.
    """
    buffers = NUM_BUFFER_VALUES if spec.caps.async_copies else (1,)
    return SearchSpace(
        parameters={
            "block_m": BLOCK_M_VALUES,
            "block_n": BLOCK_N_VALUES,
            "warp_m": WARP_M_VALUES,
            "warp_n": WARP_N_VALUES,
            "num_buffers": buffers,
        },
        restrictions=[
            lambda c: c["block_m"] % c["warp_m"] == 0,
            lambda c: c["block_n"] % c["warp_n"] == 0,
            # at least one warp, at most 16 warps per block
            lambda c: 1
            <= (c["block_m"] // c["warp_m"]) * (c["block_n"] // c["warp_n"])
            <= 16,
        ],
    )
