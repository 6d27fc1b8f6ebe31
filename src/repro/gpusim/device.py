"""Simulated GPU device: spec, execution mode and power model.

A :class:`Device` is the meeting point of the substrate models: its
:class:`~repro.gpusim.specs.GPUSpec`, whether kernels compute real arrays
(functional) or only predict their cost (dry-run), and the
:class:`~repro.gpusim.power.PowerModel` that kernel cost models use to
price average power. The device keeps no log: every kernel returns its
:class:`~repro.gpusim.timing.KernelCost` to the caller, which sums time and
energy where it needs them.

This mirrors how the real library interacts with hardware: ccglib never
needs to know whether time comes from cudaEventElapsedTime or from a model.
"""

from __future__ import annotations

import enum

from repro.gpusim.power import PowerModel
from repro.gpusim.specs import GPUSpec, get_spec


class ExecutionMode(enum.Enum):
    """Functional mode computes real results; dry-run only predicts cost."""

    FUNCTIONAL = "functional"
    DRY_RUN = "dry_run"


class Device:
    """One simulated GPU instance.

    Parameters
    ----------
    spec:
        A :class:`GPUSpec` or a catalog name like ``"A100"``.
    mode:
        ``ExecutionMode.FUNCTIONAL`` to compute real results (tests,
        examples) or ``ExecutionMode.DRY_RUN`` for paper-scale cost modelling
        (benchmark harness).
    """

    def __init__(self, spec: GPUSpec | str, mode: ExecutionMode = ExecutionMode.FUNCTIONAL):
        self.spec: GPUSpec = get_spec(spec) if isinstance(spec, str) else spec
        self.mode = mode
        self.power = PowerModel(self.spec)

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"Device({self.spec.name}, mode={self.mode.value})"

    @property
    def is_functional(self) -> bool:
        return self.mode is ExecutionMode.FUNCTIONAL
