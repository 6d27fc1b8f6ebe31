"""Re-fit gemm_efficiency + tensor_w after a perf-model change and patch specs.py in place."""
import dataclasses
import re
from repro.ccglib import model_gemm, GemmProblem, TABLE_III, Precision
from repro.gpusim import get_spec

fits = {}
for row in TABLE_III:
    spec = get_spec(row.gpu)
    prob = GemmProblem(1, 8192, 8192, 8192) if row.precision is Precision.FLOAT16 else GemmProblem(1, 32768, 8192, 524288)
    key = row.precision.value
    eff = dict(spec.gemm_efficiency)
    for _ in range(8):
        c = model_gemm(dataclasses.replace(spec, gemm_efficiency=eff), row.precision, prob, row.params)
        eff[key] *= row.tops / (c.ops_per_second / 1e12)
        eff[key] = min(eff[key], 0.999)
    c = model_gemm(dataclasses.replace(spec, gemm_efficiency=eff), row.precision, prob, row.params)
    p_target = row.tops / row.tops_per_joule
    ut, um, us = c.detail["util_tensor"], c.detail["util_dram"], c.detail["util_smem"]
    pw = spec.power
    tw = (p_target - pw.idle_w - pw.memory_w * um - pw.shared_w * us) / ut
    fits.setdefault(row.gpu, {})[key] = (round(eff[key], 4), round(tw, 1))
    print(f"{row.gpu:8s} {key:8s} eff={eff[key]:.4f} tensor_w={tw:7.1f} model={c.ops_per_second/1e12:7.1f} paper={row.tops:.0f}")

path = "src/repro/gpusim/specs.py"
src = open(path).read()
for gpu, d in fits.items():
    # patch gemm_efficiency dict line
    if "int1" in d:
        new_eff = f'gemm_efficiency={{"float16": {d["float16"][0]}, "int1": {d["int1"][0]}}}'
        new_tw = f'tensor_w={{"float16": {d["float16"][1]}, "int1": {d["int1"][1]}}}'
    else:
        new_eff = f'gemm_efficiency={{"float16": {d["float16"][0]}}}'
        new_tw = f'tensor_w={{"float16": {d["float16"][1]}}}'
    # locate the block for this GPU by name= marker, replace following matches
    pattern_eff = re.compile(rf'(name="{gpu}".*?)gemm_efficiency=\{{[^}}]*\}}', re.S)
    src, n1 = pattern_eff.subn(rf"\1{new_eff}", src, count=1)
    pattern_tw = re.compile(rf'(name="{gpu}".*?)tensor_w=\{{[^}}]*\}}', re.S)
    src, n2 = pattern_tw.subn(rf"\1{new_tw}", src, count=1)
    assert n1 == 1 and n2 == 1, (gpu, n1, n2)
open(path, "w").write(src)
print("specs.py patched")
