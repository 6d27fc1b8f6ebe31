"""Linear power model with TDP capping."""

from __future__ import annotations

import pytest

from repro.errors import PowerError
from repro.gpusim.power import PowerModel
from repro.gpusim.specs import get_spec


class TestPowerModel:
    def test_idle_floor(self):
        model = PowerModel(get_spec("A100"))
        sample = model.kernel_power("float16", 0.0, 0.0, 0.0)
        assert sample.total_w == pytest.approx(get_spec("A100").power.idle_w)

    def test_monotone_in_tensor_utilization(self):
        model = PowerModel(get_spec("A100"))
        lo = model.kernel_power("float16", 0.2, 0.1, 0.1).total_w
        hi = model.kernel_power("float16", 0.8, 0.1, 0.1).total_w
        assert hi > lo

    def test_tdp_cap(self):
        spec = get_spec("AD4000")
        model = PowerModel(spec)
        sample = model.kernel_power("float16", 1.0, 1.0, 1.0)
        assert sample.total_w <= spec.tdp_w + 1e-9

    def test_cap_preserves_idle(self):
        spec = get_spec("AD4000")
        model = PowerModel(spec)
        sample = model.kernel_power("float16", 1.0, 1.0, 1.0)
        assert sample.idle_w == spec.power.idle_w

    def test_utilizations_clamped(self):
        model = PowerModel(get_spec("GH200"))
        a = model.kernel_power("float16", 2.0, 0.0, 0.0).total_w
        b = model.kernel_power("float16", 1.0, 0.0, 0.0).total_w
        assert a == b

    def test_unknown_precision_coefficient(self):
        model = PowerModel(get_spec("MI210"))
        with pytest.raises(PowerError):
            model.kernel_power("int1", 0.5, 0.0, 0.0)

    def test_no_precision_means_no_tensor_power(self):
        model = PowerModel(get_spec("A100"))
        sample = model.kernel_power(None, 1.0, 0.5, 0.0)
        assert sample.tensor_w == 0.0
        assert sample.memory_w > 0.0

    def test_breakdown_sums_to_total(self):
        model = PowerModel(get_spec("MI300X"))
        s = model.kernel_power("float16", 0.4, 0.3, 0.2)
        assert s.total_w == pytest.approx(s.idle_w + s.tensor_w + s.memory_w + s.shared_w)
