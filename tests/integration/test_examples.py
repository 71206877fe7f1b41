"""Smoke tests: every example script runs and prints sane output."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=600):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout, check=True,
    ).stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "miss rate" in out
        assert "removed" in out

    def test_hardware_walkthrough(self):
        out = run_example("hardware_walkthrough.py")
        assert "true modulo" in out
        assert "2 iteration(s)" in out
        assert "pDisp" in out

    def test_skewed_cache_demo(self):
        out = run_example("skewed_cache_demo.py")
        assert "Over-capacity cyclic sweep" in out
        assert "Resident working set" in out

    def test_trace_workflow(self):
        out = run_example("trace_workflow.py")
        assert "Dinero records" in out
        assert "pMod  L2 misses" in out

    def test_conflict_diagnosis(self):
        out = run_example("conflict_diagnosis.py")
        assert "Hottest traditional L2 sets" in out
        assert "Inter-bank dispersion" in out

    def test_custom_workload_advisor(self):
        out = run_example("custom_workload_advisor.py")
        assert "Predicted quality score" in out
        assert "Simulated execution" in out

    def test_paper_evaluation(self):
        out = run_example("paper_evaluation.py", "--scale", "0.01")
        for heading in (*(f"Table {n}:" for n in range(1, 5)),
                        *(f"Figure {n}:" for n in range(5, 14))):
            assert heading in out, heading

    def test_hashing_analysis_single_stride_only(self):
        # Full sweep is slow; the single-stride analysis is the fast path
        # exercised here via a tiny custom driver.
        from repro.hashing import balance, strided_addresses
        from repro.experiments.stride_sweep import default_hashes
        for name, h in default_hashes().items():
            b = balance(h, strided_addresses(7, 8192))
            assert b < 1.2, name  # odd stride: everyone is fine
