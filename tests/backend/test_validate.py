"""The cross-backend validation harness and its CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends, numpy_backend
from repro.backend.validate import (
    CaseResult,
    ValidationReport,
    _compare,
    main,
    validate_backend,
)


class TestValidateNumpy:
    def test_reference_backend_passes_everything(self):
        report = validate_backend("numpy")
        assert report.ok, report.summary()
        assert report.backend == "numpy"
        assert report.version == np.__version__
        assert not report.failures
        # every shape contributes its full case family
        cases = {c.case.split("/")[0] for c in report.cases}
        assert {
            "conformance", "pack", "unpack", "transpose",
            "int1-gemm", "int1-oracle", "f16-gemm", "tf32-gemm", "prepared-gemm", "plan-execute",
            "pack-bits", "unpack-bits", "rms",
        } <= cases
        # the 1-bit GEMM runs both bit ops of the paper, XOR (Eq. 5) and AND (Eq. 6)
        int1_ops = {c.case.split("/")[1].split("-")[0] for c in report.cases
                    if c.case.startswith(("int1-gemm/", "int1-oracle/"))}
        assert int1_ops == {"xor", "and"}
        # the plan cases cover both precisions the plan runs, restore on and off
        plan_cases = {c.case.split("/")[1].rsplit("-", 1)[0] for c in report.cases
                      if c.case.startswith("plan-execute/")}
        assert plan_cases == {
            "float16-plain", "float16-restore", "int1-plain", "int1-restore",
        }

    def test_quick_mode_runs_fewer_shapes(self):
        quick = validate_backend("numpy", quick=True)
        full = validate_backend("numpy", quick=False)
        assert quick.ok
        assert len(quick.cases) < len(full.cases)

    def test_validate_all_covers_available(self, capsys):
        # With no backend named, the CLI validates every available backend.
        assert main(["--quick"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert validate_backend(name, quick=True).summary() in out

    def test_backend_instances_accepted(self):
        assert validate_backend(numpy_backend(), quick=True).ok


class TestCompare:
    def test_exact_mismatch_reports_error_magnitude(self):
        got = np.array([1, 2, 4])
        want = np.array([1, 2, 3])
        result = _compare("c", got, want, 0.0, 0.0)
        assert not result.passed
        assert result.max_abs_err == 1.0
        assert "exact" in result.detail

    def test_shape_mismatch_is_a_failure(self):
        result = _compare("c", np.zeros(3), np.zeros(4), 1e-3, 1e-3)
        assert not result.passed and "shape" in result.detail

    def test_tolerance_pass_records_error(self):
        result = _compare("c", np.array([1.0001]), np.array([1.0]), 1e-3, 1e-3)
        assert result.passed and result.max_abs_err > 0


class TestReport:
    def test_summary_marks_failures(self):
        report = ValidationReport(backend="x", version="1")
        report.cases.append(CaseResult("good", True))
        report.cases.append(CaseResult("bad", False, max_abs_err=2.5, detail="boom"))
        text = report.summary()
        assert "[FAIL]" in text and "boom" in text and "1/2" in text
        assert not report.ok and len(report.failures) == 1


class TestCli:
    def test_default_run_passes(self, capsys):
        assert main(["--quick"]) == 0
        assert "[PASS] backend numpy" in capsys.readouterr().out

    def test_unknown_backend_exits_nonzero(self, capsys):
        assert main(["definitely-not-a-backend"]) == 1
        out = capsys.readouterr().out
        assert "[SKIP]" in out and "numpy" in out

    @pytest.mark.parametrize("name", list(available_backends()))
    def test_each_available_backend_passes(self, name):
        assert validate_backend(name, quick=True).ok
