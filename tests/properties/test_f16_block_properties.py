"""The fused float16/tf32 block against the whole-array composition it replaced.

On NumPy each cache-sized chunk of batch items divides its slice of B by the
block scale, de-interleaves and rounds A and B, runs the 5-step MMA and
restores the scale on its output slice. The reference here is the order the
plan used to run over the whole block: ``rms`` -> ``data / scale`` ->
``to_planar`` -> planar ``complex_mma_*_batched`` -> interleave ->
``*= scale``. Outputs must agree byte for byte, at any chunk size, for
prepared and per-call weights, and through both sharded modes; the int1
plan must give the same bytes sharded as on one device.
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
from repro.ccglib.precision import PARITY_TOLERANCES, Precision
from repro.gpusim.device import Device
from repro.tcbf import BeamformerPlan, ShardedBeamformer, rms

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


@pytest.mark.parametrize("precision", [Precision.FLOAT16, Precision.INT1])
@given(blocks(), st.sampled_from(["batch", "beams"]), st.integers(1, 3))
def test_sharded_equals_the_single_device_plan(precision, block, shard_dim, parts):
    batch, m, k = block["weights"].shape
    parts = min(parts, batch if shard_dim == "batch" else m)
    single = _plan(block, precision=precision)
    sharded = ShardedBeamformer(
        [Device("A100") for _ in range(parts)], n_beams=m, n_receivers=k,
        n_samples=block["data"].shape[-1], batch=batch, shard_dim=shard_dim,
        precision=precision, include_transpose=False, restore_output_scale=block["restore"],
    )
    with np.errstate(all="ignore"), mock.patch.object(complex_mma, "_CHUNK_BYTES", block["budget"]):
        want = single.execute(block["weights"], block["data"]).output
        got = sharded.execute(block["weights"], block["data"]).output
    n_one_beams = shard_dim == "beams" and block["data"].shape[-1] == 1
    if precision is Precision.FLOAT16 and n_one_beams:
        # One sample: NumPy's matmul of a beam range can differ from the
        # same rows of the full product in the last bit (an open defect,
        # CHANGES.md), so only closeness holds there. The int1 popcount
        # GEMM is exact integer work and must match byte for byte.
        tol = PARITY_TOLERANCES[Precision.FLOAT16]
        with np.errstate(all="ignore"):
            assert np.allclose(got, want, rtol=tol.rtol, atol=tol.atol, equal_nan=True)
    else:
        assert got.tobytes() == want.tobytes()

