"""Fit per-GPU kernel efficiency and tensor power coefficients to paper Table III.

Run after any perf-model change; paste the printed constants into
src/repro/gpusim/specs.py. This script is the provenance of those
calibration numbers.
"""
from repro.ccglib import model_gemm, GemmProblem, TABLE_III, Precision
from repro.gpusim import get_spec
import dataclasses

fits = {}
for row in TABLE_III:
    spec = get_spec(row.gpu)
    prob = GemmProblem(1, 8192, 8192, 8192) if row.precision is Precision.FLOAT16 else GemmProblem(1, 32768, 8192, 524288)
    prec_key = row.precision.value
    eff = dict(spec.gemm_efficiency)
    # iterate eff fit
    for _ in range(6):
        spec2 = dataclasses.replace(spec, gemm_efficiency=eff)
        c = model_gemm(spec2, row.precision, prob, row.params)
        model_tops = c.ops_per_second / 1e12
        eff[prec_key] = eff[prec_key] * row.tops / model_tops
    # fit tensor_w for target power
    spec2 = dataclasses.replace(spec, gemm_efficiency=eff)
    c = model_gemm(spec2, row.precision, prob, row.params)
    p_target = row.tops / row.tops_per_joule
    ut, um, us = c.detail["util_tensor"], c.detail["util_dram"], c.detail["util_smem"]
    pw = spec.power
    tensor_w = (p_target - pw.idle_w - pw.memory_w*um - pw.shared_w*us) / ut
    fits.setdefault(row.gpu, {})[prec_key] = (round(eff[prec_key], 4), round(tensor_w, 1), p_target, ut)
    print(f"{row.gpu:8s} {prec_key:8s} eff={eff[prec_key]:.4f} tensor_w={tensor_w:7.1f} P_target={p_target:6.1f} util_t={ut:.3f} model={c.ops_per_second/1e12:.1f}")
print()
for gpu, d in fits.items():
    print(gpu, d)
