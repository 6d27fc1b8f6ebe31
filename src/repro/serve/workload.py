"""Service request and workload descriptors — single kernels and pipelines.

A serving tier sees neither matrices nor plans — it sees *requests*: "beam
this block", "reconstruct this frame", each tied to a workload class. A
:class:`Workload` captures everything the scheduler needs to know to treat
two requests as batchable into one tensor-core launch: the GEMM shape, the
precision, the transpose and scale flags, and the weight-set generation (two
requests against different calibrations must never share a GEMM). A
:class:`Request` is one arrival of a workload, optionally carrying a real
data block for functional fleets.

Real deployments chain kernels, not single launches — channelizer →
beamformer → dedispersion search for a radio observatory, beamform →
Doppler ensemble for a clinic. A :class:`PipelineWorkload` describes such a
chain as a validated DAG of :class:`Stage` nodes, each wrapping one
batchable :class:`Workload`; a bare workload is exactly the one-stage
special case (see :meth:`Workload.single_stage`), and every
:class:`Request` is a request of some pipeline. Stages of
different pipeline arrivals batch together per stage (same compat key);
stages of *different* pipelines never coalesce (their workload names are
pipeline-qualified). Inter-stage buffers are first-class: each stage
declares the bytes it hands its successors, which placement prices as
resident (same worker) or transferred (different worker).

The domain adapters expose ready-made descriptors through their
``service_workload()`` (single-stage) and ``pipeline_workload()`` (DAG)
entry points
(:func:`repro.apps.radioastronomy.beamformer.service_workload`,
:func:`repro.apps.ultrasound.imaging.service_workload`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.ccglib.precision import Precision, complex_ops, traits
from repro.ccglib.tuning import TuneParams
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.specs import GPUSpec
from repro.tcbf import BeamformerPlan


@dataclass(frozen=True)
class Workload:
    """One batchable class of beamforming requests.

    Parameters mirror :class:`~repro.tcbf.plan.BeamformerPlan`, which
    charges the 1-bit packing stage iff the precision is int1;
    ``batch_per_request`` is the batch extent one request contributes (e.g.
    channels x polarizations for a LOFAR beam block, 1 for an ultrasound
    frame batch). ``weights_version`` is the calibration generation: bump it
    when the weight set changes and the batcher stops coalescing old and new
    requests while the plan cache naturally faults in fresh entries.

    ``priority`` is the scheduling class — **lower is more urgent** (0 is
    the most interactive class, like a live ultrasound view; higher values
    are throughput/batch classes, like offline pulsar reprocessing).
    ``tenant`` names the caller for weighted-fair queueing across parties
    sharing a fleet. Both are part of the batching identity: requests never
    coalesce across priority classes or tenants, so every merged launch is
    attributable to exactly one class and one tenant.

    ``weights`` optionally carries the shared per-request A operand for
    functional fleets; it is excluded from equality/compatibility (the
    version field is the identity of the weight set).
    """

    name: str
    n_beams: int
    n_receivers: int
    n_samples: int
    batch_per_request: int = 1
    precision: Precision = Precision.FLOAT16
    include_transpose: bool = True
    restore_output_scale: bool = False
    weights_version: int = 0
    priority: int = 0
    tenant: str = "default"
    params: TuneParams | None = None
    weights: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for label, value in (
            ("n_beams", self.n_beams),
            ("n_receivers", self.n_receivers),
            ("n_samples", self.n_samples),
            ("batch_per_request", self.batch_per_request),
        ):
            if value < 1:
                raise ShapeError(f"{label} must be >= 1, got {value}")
        if self.priority < 0:
            raise ShapeError(f"priority must be >= 0, got {self.priority}")
        if not self.tenant:
            raise ShapeError("tenant must be a non-empty string")
        # Static facts every arrival asks for, worked out once per instance;
        # they pay off because the arrivals of one stream share an instance.
        object.__setattr__(
            self,
            "_compat_key",
            (
                self.name,
                self.n_beams,
                self.n_receivers,
                self.n_samples,
                self.batch_per_request,
                self.precision.value,
                self.include_transpose,
                self.restore_output_scale,
                self.weights_version,
                self.priority,
                self.tenant,
                self.params,
            ),
        )
        object.__setattr__(self, "_footprints", {})

    def compat_key(self) -> tuple:
        """Hashable batching identity.

        Requests whose workloads share this key may be merged into one
        batched plan execution: same shape, precision, stage accounting,
        tuning override, and weight-set generation. The priority class and
        tenant are part of the key so a batch never straddles scheduling
        classes or callers — each launch has one priority and one
        accountable tenant.
        """
        return self._compat_key  # type: ignore[attr-defined]

    def make_plan(self, device: Device, n_requests: int = 1) -> BeamformerPlan:
        """Build the merged-batch plan for ``n_requests`` coalesced requests."""
        if n_requests < 1:
            raise ShapeError(f"n_requests must be >= 1, got {n_requests}")
        return BeamformerPlan(
            device,
            n_beams=self.n_beams,
            n_receivers=self.n_receivers,
            n_samples=self.n_samples,
            batch=n_requests * self.batch_per_request,
            precision=self.precision,
            params=self.params,
            include_transpose=self.include_transpose,
            restore_output_scale=self.restore_output_scale,
            name=f"serve_{self.name}",
        )

    def request_ops(self) -> float:
        """Application-level GEMM operations one request is worth."""
        return complex_ops(self.batch_per_request, self.n_beams, self.n_samples, self.n_receivers)

    # -- placement-facing views ----------------------------------------------

    @property
    def capability(self) -> str:
        """The capability class this workload needs from a device.

        Today capability is precision support (1-bit MMA is NVIDIA-only,
        paper §II), so the class is the precision's name. Autoscaling
        signals group queued pressure by this key: a queue of ``"int1"``
        work is only relieved by growing the pool that supports int1, no
        matter how many other devices join.
        """
        return self.precision.value

    def supported_by(self, spec: GPUSpec) -> bool:
        """Whether a device model can run this workload at all.

        The capability requirement of the placement layer: 1-bit matrix
        values exist on NVIDIA tensor cores only (paper §II), so an int1
        request must never land on a device whose
        :class:`~repro.gpusim.arch.ArchCapabilities` lack the precision.
        """
        return spec.caps.supports_precision(self.precision.value)

    def footprint_bytes(self, n_requests: int = 1) -> float:
        """Device-memory estimate of the merged-batch operands.

        A (weights) and B (data) at the precision's storage size plus the
        float32 accumulator output, complex throughout. This is what the
        placer compares against a device's memory to decide whether a
        request fits one device, must shard across several, or cannot be
        served at all. Memoized per merged extent.
        """
        footprints = self._footprints  # type: ignore[attr-defined]
        footprint = footprints.get(n_requests)
        if footprint is None:
            batch = n_requests * self.batch_per_request
            tr = traits(self.precision)
            operand_values = batch * (
                self.n_beams * self.n_receivers + self.n_receivers * self.n_samples
            )
            output_values = batch * self.n_beams * self.n_samples
            footprint = 2.0 * (operand_values * tr.input_bytes + output_values * tr.output_bytes)
            footprints[n_requests] = footprint
        return footprint

    @property
    def splittable(self) -> bool:
        """Whether the batch axis offers more than one unit to shard over."""
        return self.batch_per_request > 1

    def padded_to(self, n_samples: int) -> "Workload":
        """The shape-bucket view: this workload padded to ``n_samples``.

        Zero sample columns change no real output column (the GEMM is
        column-independent), so requests of nearby sample counts may share
        one launch at the bucket's shape; the padding's cost is priced by
        the plan built at the padded shape, never hidden.
        """
        if n_samples < self.n_samples:
            raise ShapeError(f"cannot pad {self.n_samples} samples down to {n_samples}")
        if n_samples == self.n_samples:
            return self
        return replace(self, n_samples=n_samples)

    def shard(self, batch_per_request: int) -> "Workload":
        """A per-shard view with a smaller batch extent (split placement).

        ``weights`` is dropped: a shard sees only its own batch rows, which
        the split executor slices from the parent workload's weight set.
        """
        if not 1 <= batch_per_request <= self.batch_per_request:
            raise ShapeError(
                f"shard extent must be in [1, {self.batch_per_request}], "
                f"got {batch_per_request}"
            )
        if batch_per_request == self.batch_per_request:
            return self
        return replace(self, batch_per_request=batch_per_request, weights=None)

    def single_stage(self) -> "PipelineWorkload":
        """This workload as a one-stage pipeline.

        The one stage keeps this workload's name (no pipeline
        qualification) and wraps this very object, so a request built
        from either form batches, plans and replays identically —
        :class:`Request` applies this conversion to every bare workload.
        """
        return PipelineWorkload(name=self.name, stages=(Stage(name=self.name, workload=self),))

    def output_bytes(self) -> int:
        """Bytes of one request's output block (the inter-stage buffer unit).

        The float32 complex accumulator output of the merged GEMM, per
        request — what a successor stage must read, resident or over the
        interconnect. :class:`Stage` uses this as its default buffer size.
        """
        tr = traits(self.precision)
        return int(2 * self.batch_per_request * self.n_beams * self.n_samples * tr.output_bytes)


@dataclass(frozen=True)
class Stage:
    """One node of a :class:`PipelineWorkload`: a batchable kernel class.

    ``workload`` is the stage's single-kernel descriptor — batching,
    placement, and the plan cache treat a stage exactly as they treat a
    standalone workload (same compat key machinery), so same-stage requests
    from different pipeline arrivals coalesce into one launch while stages
    of different pipelines never share a batch (their workload names are
    pipeline-qualified by :class:`PipelineWorkload`).

    ``depends_on`` names the stages whose outputs this stage consumes; a
    stage is released the instant its last dependency completes.
    ``output_bytes`` is the per-request inter-stage buffer this stage hands
    each successor (default: the workload's own output block) — the
    quantity placement prices as resident or transferred.
    """

    name: str
    workload: Workload
    depends_on: tuple[str, ...] = ()
    output_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ShapeError("Stage needs a non-empty name")
        if len(set(self.depends_on)) != len(self.depends_on):
            raise ShapeError(f"stage {self.name!r} lists a duplicate dependency")
        if self.name in self.depends_on:
            raise ShapeError(f"stage {self.name!r} depends on itself")
        if self.output_bytes is None:
            object.__setattr__(self, "output_bytes", self.workload.output_bytes())
        elif self.output_bytes < 0:
            raise ShapeError(f"output_bytes must be >= 0, got {self.output_bytes}")


@dataclass(frozen=True)
class PipelineWorkload:
    """A validated DAG of stages served as one end-to-end request class.

    Topology rules, checked at construction: stage names are unique, every
    dependency names an earlier-declared-or-later stage that exists, the
    graph is acyclic, and exactly one stage has no dependencies (the
    *source* — the stage arrivals enter at). Several stages may have no
    successor; a request completes when its last stage does.

    ``priority`` / ``tenant``, when given, are inherited by every stage
    workload (the whole pipeline schedules as one class and bills one
    caller); per-stage precision is whatever each stage's workload says —
    mixed-precision pipelines (int1 beamform feeding a float16 Doppler
    ensemble) are the normal case.

    Multi-stage pipelines qualify their stage workload names as
    ``"<pipeline>/<stage>"`` so stages of *different* pipelines never share
    a compat key; a single-stage pipeline keeps its workload's own name.

    The topology lookups (:meth:`stage`, :meth:`stage_index`,
    :meth:`successors`, :attr:`source`) are tables built once here: the
    service consults them on every stage completion.
    """

    name: str
    stages: tuple[Stage, ...]
    priority: int | None = None
    tenant: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ShapeError("PipelineWorkload needs a non-empty name")
        if not self.stages:
            raise ShapeError(f"pipeline {self.name!r} needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ShapeError(f"pipeline {self.name!r} has duplicate stage names")
        known = set(names)
        for stage in self.stages:
            for dep in stage.depends_on:
                if dep not in known:
                    raise ShapeError(
                        f"pipeline {self.name!r}: stage {stage.name!r} depends on "
                        f"unknown stage {dep!r}"
                    )
        sources = [stage for stage in self.stages if not stage.depends_on]
        if len(sources) != 1:
            raise ShapeError(
                f"pipeline {self.name!r} must have exactly one source stage "
                f"(no dependencies), found {len(sources)}"
            )
        successors: dict[str, list[str]] = {name: [] for name in names}
        for stage in self.stages:
            for dep in stage.depends_on:
                successors[dep].append(stage.name)
        order = self._topo_sort(successors)  # raises on cycles
        stages = self.stages
        if self.priority is not None or self.tenant is not None:
            stages = tuple(
                replace(
                    stage,
                    workload=replace(
                        stage.workload,
                        priority=self.priority if self.priority is not None else stage.workload.priority,
                        tenant=self.tenant if self.tenant is not None else stage.workload.tenant,
                    ),
                )
                for stage in stages
            )
        if len(stages) > 1:
            prefix = f"{self.name}/"
            stages = tuple(
                stage
                if stage.workload.name.startswith(prefix)
                else replace(stage, workload=replace(stage.workload, name=f"{prefix}{stage.name}"))
                for stage in stages
            )
        object.__setattr__(self, "stages", stages)
        by_name = {stage.name: stage for stage in stages}
        object.__setattr__(self, "_topo", tuple(order))
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(order)})
        object.__setattr__(
            self,
            "_successors",
            {name: tuple(by_name[s] for s in succ) for name, succ in successors.items()},
        )

    def _topo_sort(self, successors: dict[str, list[str]]) -> list[str]:
        indegree = {stage.name: len(stage.depends_on) for stage in self.stages}
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for succ in successors[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.stages):
            cyclic = sorted(name for name, deg in indegree.items() if deg > 0)
            raise ShapeError(f"pipeline {self.name!r} has a dependency cycle through {cyclic}")
        return order

    # -- topology views ------------------------------------------------------

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def topo_order(self) -> tuple[str, ...]:
        """Stage names in one deterministic dependency-respecting order."""
        return self._topo  # type: ignore[attr-defined]

    def _look_up(self, table: dict, name: str):
        try:
            return table[name]
        except KeyError:
            raise ShapeError(f"pipeline {self.name!r} has no stage {name!r}") from None

    def stage(self, name: str) -> Stage:
        return self._look_up(self._by_name, name)  # type: ignore[attr-defined]

    def stage_index(self, name: str) -> int:
        """Position of a stage in :attr:`topo_order` (trace flow-arrow ids)."""
        return self._look_up(self._index, name)  # type: ignore[attr-defined]

    @property
    def source(self) -> Stage:
        """The unique entry stage — what an arrival's request executes first."""
        return self._by_name[self._topo[0]]  # type: ignore[attr-defined]

    def successors(self, name: str) -> tuple[Stage, ...]:
        """Stages that consume ``name``'s output, in declaration order."""
        return self._look_up(self._successors, name)  # type: ignore[attr-defined]

    # -- serving-facing views ------------------------------------------------

    @property
    def kernel(self) -> Workload:
        """The sole stage's workload — single-stage pipelines only.

        For callers that need the :class:`Workload` surface itself
        (``make_plan``, ``footprint_bytes`` per launch) of the pipeline
        form the adapters' ``service_workload()`` returns. Raises for
        multi-stage pipelines, which have no single kernel to name.
        """
        if len(self.stages) != 1:
            raise ShapeError(
                f"pipeline {self.name!r} has {len(self.stages)} stages; "
                ".kernel is defined for single-stage pipelines only"
            )
        return self.stages[0].workload

    def stage_input_bytes(self, name: str) -> int:
        """Bytes one request's ``name`` stage reads from its dependencies."""
        return sum(self.stage(dep).output_bytes or 0 for dep in self.stage(name).depends_on)


@dataclass
class Request:
    """One arrival of a workload at the service boundary.

    ``data`` is the caller's B operand ``(batch_per_request, n_receivers,
    n_samples)`` for functional fleets; ``None`` on dry-run fleets, where
    only the cost model runs.

    Every request belongs to a pipeline: ``pipeline`` is the
    :class:`PipelineWorkload` it is a request of, ``stage`` the stage it
    executes and ``workload`` that stage's kernel. Callers pass either a
    bare :class:`Workload` (it becomes ``workload.single_stage()``) or a
    :class:`PipelineWorkload` (the request enters at its source stage);
    both fields are then filled in here, and :class:`ShapeError` rejects a
    ``stage`` the pipeline lacks or a ``workload`` that is not that
    stage's. Requests for successor stages are created by the service when
    their dependencies complete, with ``root`` pointing at the original
    arrival, ``resident_workers`` naming where dependency outputs live,
    and ``stage_input_bytes`` the buffer bytes a non-resident placement
    must transfer.
    """

    rid: int
    workload: Workload
    arrival_s: float
    data: np.ndarray | None = field(default=None, compare=False)
    pipeline: "PipelineWorkload | None" = field(default=None, compare=False, repr=False)
    stage: str | None = field(default=None, compare=False)
    root: "Request | None" = field(default=None, compare=False, repr=False)
    resident_workers: tuple[int, ...] = field(default=(), compare=False)
    stage_input_bytes: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.pipeline is None:
            pipeline = self.workload
            if not isinstance(pipeline, PipelineWorkload):
                pipeline = pipeline.single_stage()
            self.pipeline = pipeline
            if self.stage is None:
                self.stage = pipeline.source.name
            if self.workload is pipeline:
                self.workload = pipeline.stage(self.stage).workload
        if self.stage is None:
            raise ShapeError(
                f"request {self.rid} of pipeline {self.pipeline.name!r} names no stage"
            )
        expected = self.pipeline.stage(self.stage).workload
        if self.workload is not expected and self.workload != expected:
            raise ShapeError(
                f"request {self.rid}: workload {self.workload.name!r} is not the "
                f"workload of stage {self.stage!r} of pipeline {self.pipeline.name!r}"
            )

    @property
    def root_request(self) -> "Request":
        """The originating arrival (itself for a pipeline's source stage)."""
        return self.root if self.root is not None else self
