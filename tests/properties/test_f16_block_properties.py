"""The fused float16/tf32 block against the whole-array composition it replaced.

On NumPy each cache-sized chunk of batch items divides its slice of B by the
block scale, de-interleaves and rounds A and B, runs the 5-step MMA and
restores the scale on its output slice. The reference here is the order the
plan used to run over the whole block: ``rms`` -> ``data / scale`` ->
``to_planar`` -> planar ``complex_mma_*_batched`` -> interleave ->
``*= scale``. Outputs must agree byte for byte, at any chunk size, for
prepared and per-call weights. The serving tier's batch split must give
the bytes of the one-plan output, for float16 and int1 alike.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib import complex_mma
from repro.ccglib.complex_mma import complex_mma_f16_batched, complex_mma_tf32_batched
from repro.ccglib.gemm import Gemm
from repro.ccglib.layouts import to_planar
from repro.ccglib.precision import Precision
from repro.gpusim.device import Device
from repro.serve import Batch, FleetDispatcher, PlacementDecision, PlacementKind, Request, Workload
from repro.serve.placement import split_extent_weighted
from repro.tcbf import BeamformerPlan, rms
from tests.conftest import submit_and_drain

#: values the float16 path must carry exactly as the old order did: signed
#: zeros, float16 subnormals, values beyond the float16 range, inf and NaN.
SPECIALS = np.array(
    [0.0, -0.0, 3e-6, -6e-8, 7e4, -1e5, 1e30, np.inf, -np.inf, np.nan], dtype=np.float32
)

#: chunk budgets: one item per chunk, a few items per chunk, the default.
BUDGETS = [1, 3000, complex_mma._CHUNK_BYTES]


@st.composite
def blocks(draw):
    """One block: weights, data and how to run it."""
    batch = draw(st.integers(1, 6))
    m, k, n = (draw(st.sampled_from([1, 2, 3, 5, 8, 13, 16])) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    weights = _complex(rng, (batch, m, k), 1.0)
    data = _complex(rng, (batch, k, n), draw(st.sampled_from([1.0, 3.0, 400.0])))
    if draw(st.booleans()):
        for plane in (data.real, data.imag):
            hit = rng.random(plane.shape) < 0.2
            plane[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return dict(
        weights=weights,
        data=data,
        scale=draw(st.sampled_from([None, 1.0, 0.37, 3.0, 250.0])),
        restore=draw(st.booleans()),
        prepared=draw(st.booleans()),
        budget=draw(st.sampled_from(BUDGETS)),
    )


def _complex(rng, shape, scale):
    return (rng.normal(scale=scale, size=shape) + 1j * rng.normal(scale=scale, size=shape)).astype(
        np.complex64
    )


def _whole_array(weights, data, scale, restore, mma):
    """The old block order, one whole-array pass per stage (``scale`` None:
    neither divide nor restore)."""
    if scale is not None:
        data = data / scale
    planar = mma(to_planar(weights), to_planar(data.astype(np.complex64)))
    out = np.ascontiguousarray(np.moveaxis(planar, -3, -1)).view(np.complex64)[..., 0]
    if restore and scale is not None:
        out *= scale
    return out


def _plan(block, **extra):
    batch, m, k = block["weights"].shape
    return BeamformerPlan(
        Device("A100"), n_beams=m, n_receivers=k, n_samples=block["data"].shape[-1],
        batch=batch, include_transpose=False, restore_output_scale=block["restore"], **extra,
    )


@given(blocks())
def test_plan_execute_equals_the_whole_array_order(block):
    weights, data, scale = block["weights"], block["data"], block["scale"]
    plan = _plan(block)
    with np.errstate(all="ignore"), mock.patch.object(complex_mma, "_CHUNK_BYTES", block["budget"]):
        if block["prepared"]:
            plan.prepare_weights(weights)
            got = plan.execute(None, data, scale=scale).output
        else:
            got = plan.execute(weights, data, scale=scale).output
        applied = rms(data) if scale is None else scale
        # The plan neither divides nor restores a unit scale.
        applied = None if applied == 1.0 else applied
        want = _whole_array(weights, data, applied, block["restore"], complex_mma_f16_batched)
    assert got.dtype == np.complex64
    assert got.tobytes() == want.tobytes()


@given(blocks(), st.sampled_from([Precision.FLOAT16, Precision.TF32]))
def test_gemm_run_scale_equals_the_whole_array_order(block, precision):
    weights, data = block["weights"], block["data"]
    scale = 1.7 if block["scale"] is None else block["scale"]
    batch, m, k = weights.shape
    gemm = Gemm(Device("A100"), precision, batch=batch, m=m, n=data.shape[-1], k=k,
                experimental_ok=True)
    mma = complex_mma_tf32_batched if precision is Precision.TF32 else complex_mma_f16_batched
    a = gemm.prepare_a(weights) if block["prepared"] else weights
    with np.errstate(all="ignore"), mock.patch.object(complex_mma, "_CHUNK_BYTES", block["budget"]):
        got = gemm.run(a, data, scale=scale, restore_scale=block["restore"]).output
        want = _whole_array(weights, data, scale, block["restore"], mma)
    assert got.tobytes() == want.tobytes()


def _served_split(block, precision, parts):
    """The block as one request split over ``parts`` A100s by the serving tier."""
    batch, m, k = block["weights"].shape
    wl = Workload(
        name="split", n_beams=m, n_receivers=k, n_samples=block["data"].shape[-1],
        batch_per_request=batch, precision=precision, include_transpose=False,
        restore_output_scale=block["restore"], weights=block["weights"],
    )
    decision = PlacementDecision(
        kind=PlacementKind.SPLIT,
        workload=wl,
        shard_extents=tuple(split_extent_weighted(batch, [1.0] * parts)),
        shard_worker_indices=tuple(range(parts)),
    )
    request = Request(rid=0, workload=wl, arrival_s=0.0, data=block["data"])
    served = Batch(bid=0, workload=wl, requests=[request], formed_s=0.0, decision=decision)
    fleet = FleetDispatcher([Device("A100") for _ in range(parts)])
    [execution] = submit_and_drain(fleet, served)
    return execution.outputs[0]


@pytest.mark.parametrize("precision", [Precision.FLOAT16, Precision.INT1])
@given(blocks(), st.integers(1, 3))
def test_sharded_equals_the_single_device_plan(precision, block, parts):
    # One global RMS scale over the whole block and disjoint batch ranges:
    # the merged shards are the one-plan output byte for byte, N = 1
    # included.
    parts = min(parts, block["weights"].shape[0])
    single = _plan(block, precision=precision)
    with np.errstate(all="ignore"), mock.patch.object(complex_mma, "_CHUNK_BYTES", block["budget"]):
        want = single.execute(block["weights"], block["data"]).output
        got = _served_split(block, precision, parts)
    assert got.tobytes() == want.tobytes()
