#!/usr/bin/env python3
"""Quickstart: plan and run a complex GEMM on a simulated tensor-core GPU.

The TCBF core (ccglib) hides tensor-core details behind a plan/run API:
pick a device, state the shapes and precision, run. This script:

1. multiplies complex matrices in float16 mode and checks them against a
   NumPy reference;
2. repeats in 1-bit mode with ±1 data (exact integer arithmetic);
3. prints the predicted kernel time/energy on several catalog GPUs, both
   at paper scale (dry-run) and at the small functional scale;
4. states the same problem at the domain level through the TCBF
   BeamformerPlan, which adds the streaming stages (transpose, packing,
   RMS scaling) and end-to-end cost accounting on top of the raw GEMM,
   with the weights prepared once and reused on every block.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BeamformerPlan, Device, ExecutionMode, Gemm, Precision, gemm_once
from repro.util.units import format_ops_per_joule, format_ops_rate, format_seconds

rng = np.random.default_rng(2025)

# --- 1. float16 complex GEMM ------------------------------------------------
batch, m, n, k = 4, 64, 32, 96
a = (rng.normal(size=(batch, m, k)) + 1j * rng.normal(size=(batch, m, k))).astype(np.complex64)
b = (rng.normal(size=(batch, k, n)) + 1j * rng.normal(size=(batch, k, n))).astype(np.complex64)

device = Device("A100")
result = gemm_once(device, Precision.FLOAT16, a, b)
reference = a.astype(np.complex128) @ b.astype(np.complex128)
rel_err = np.abs(result.output - reference).max() / np.abs(reference).max()
print(f"float16 GEMM on {device.name}: batch={batch}, {m}x{n}x{k}")
print(f"  max relative error vs complex128 reference: {rel_err:.2e} (fp16 inputs)")
print(f"  modelled kernel time: {format_seconds(result.cost.time_s)}, "
      f"bound: {result.cost.bound.value}")

# --- 2. 1-bit complex GEMM ---------------------------------------------------
a1 = (
    rng.choice([-1.0, 1.0], (1, 24, 200)) + 1j * rng.choice([-1.0, 1.0], (1, 24, 200))
).astype(np.complex64)
b1 = (
    rng.choice([-1.0, 1.0], (1, 200, 16)) + 1j * rng.choice([-1.0, 1.0], (1, 200, 16))
).astype(np.complex64)
r1 = gemm_once(device, Precision.INT1, a1, b1)
exact = np.array_equal(
    r1.output,
    (a1.astype(np.complex128) @ b1.astype(np.complex128)).astype(np.complex64),
)
print(f"\nint1 GEMM on {device.name} (XOR + popcount, Eq. 5 of the paper)")
print(f"  exact integer result: {exact}")

gh200 = Device("GH200")
r1h = gemm_once(gh200, Precision.INT1, a1, b1)
print(f"int1 GEMM on {gh200.name} auto-switches to the AND path: {r1h.cost.name}")
print(f"  results identical across devices: {np.array_equal(r1.output, r1h.output)}")

# --- 3. paper-scale predictions (dry-run) -------------------------------------
print("\nPaper-scale predictions (M=N=K=8192 float16; Table III sizes):")
for gpu in ("AD4000", "A100", "GH200", "MI300X"):
    dev = Device(gpu, ExecutionMode.DRY_RUN)
    plan = Gemm(dev, Precision.FLOAT16, batch=1, m=8192, n=8192, k=8192)
    cost = plan.run().cost
    print(f"  {gpu:8s} {format_ops_rate(cost.ops_per_second):>14s}  "
          f"{format_ops_per_joule(cost.ops_per_joule):>12s}  "
          f"({format_seconds(cost.time_s)}, {cost.power_w:.0f} W)")

# --- 4. the domain-level BeamformerPlan ---------------------------------------
# The TCBF layer states the *beamforming* problem — beams x receivers x
# samples — and composes the streaming stages underneath. Functional run,
# with the weights prepared once (recorded as a one-time cost) and reused
# by every execute(None, data):
plan = BeamformerPlan(
    device, n_beams=m, n_receivers=k, n_samples=n, batch=batch,
    include_transpose=False, restore_output_scale=True,
)
plan.prepare_weights(a)
bf = plan.execute(None, b)  # weights @ data, RMS-normalized internally
same = bf.beams.tobytes() == plan.execute(a, b).beams.tobytes()
print(f"\nBeamformerPlan on {device.name}: {plan.shape} "
      f"-> beams {bf.beams.shape}, {bf.tflops:.2f} TFLOPs/s, {bf.fps:.0f} fps")
plan_vs_gemm = np.abs(bf.beams - result.output).max() / np.abs(result.output).max()
print(f"  max relative deviation from the raw GEMM result: {plan_vs_gemm:.2e} "
      f"(fp16 quantization at a different operand scale)")
print(f"  prepared weights give the same bytes as per-call weights: {same}")

# Paper-scale end-to-end accounting (dry-run): unlike the raw GEMM, the
# block budget includes the per-block measurement transpose and packing
# (the Fig 5 accounting), plus the one-time weight preparation.
stream_plan = BeamformerPlan(
    Device("A100", ExecutionMode.DRY_RUN),
    n_beams=49152, n_receivers=32768, n_samples=1024, precision=Precision.INT1,
)
prep = stream_plan.prepare_weights()
block = stream_plan.predict_block_cost()
gemm_only = stream_plan.predict_gemm_cost()
print(f"int1 block at paper scale: {format_seconds(block.time_s)} end-to-end "
      f"vs {format_seconds(gemm_only.time_s)} GEMM-only "
      f"(+{format_seconds(prep.time_s)} once for weight prep)")

print("\nDone. See examples/ultrasound_imaging.py and "
      "examples/lofar_pulsar_search.py for the domain pipelines, and "
      "examples/serve_simulation.py for the serving tier on top.")
