"""Executor scale-out of :func:`repro.core.pipeline.run_batch`.

Covers the executor knobs and the determinism guarantee: seeded
``bond_scan`` runs (``run_batch`` underneath) are bit-identical across
``executor="serial" | "process"`` and any worker count, every surface
that takes ``executor=`` rejects an unknown name with a ``ValueError``,
and ``workers=`` accepts only ``None``, ``"auto"`` or a positive int.
"""

import os

import pytest

from repro.core.pipeline import check_executor, resolve_workers


# ----------------------------------------------------------------------
# Executor plumbing
# ----------------------------------------------------------------------
class TestExecutorPlumbing:
    def test_check_executor_names_valid_choices(self):
        for name in ("serial", "process"):
            check_executor(name)
        with pytest.raises(ValueError, match="serial"):
            check_executor("fork-bomb")

    @pytest.mark.parametrize("surface", ["run_batch", "bond_scan"])
    def test_thread_executor_rejected(self, surface):
        from repro.core.pipeline import PipelineConfig, run_batch
        from repro.vqe.scan import bond_scan

        calls = {
            "run_batch": lambda: run_batch(
                [PipelineConfig(molecule="H2")], executor="thread"
            ),
            "bond_scan": lambda: bond_scan(
                "H2", [0.735], ["full"], executor="thread"
            ),
        }
        with pytest.raises(ValueError, match="serial, process"):
            calls[surface]()

    def test_resolve_workers(self):
        assert resolve_workers(4, 10) == 4
        assert resolve_workers(8, 3) == 3  # capped at the task count
        assert resolve_workers(None, 5) >= 1
        assert resolve_workers("auto", 5) >= 1
        with pytest.raises(ValueError, match="at least 1"):
            resolve_workers(0, 5)
        # Only None, "auto" or an int: never truncated or coerced.
        for bad in (2.7, True, False, "two", "4"):
            with pytest.raises(ValueError, match=repr(bad)):
                resolve_workers(bad, 5)

    def test_auto_workers_count_only_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert resolve_workers(None, 10) == 2
        assert resolve_workers("auto", 10) == 2
        # Platforms without an affinity set fall back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers(None, 10) == 8


# ----------------------------------------------------------------------
# Determinism across executors
# ----------------------------------------------------------------------
class TestExecutorDeterminism:
    def test_bond_scan_bit_identical_across_executors(self):
        from repro.vqe.scan import bond_scan

        def run(executor, workers):
            return bond_scan(
                "H2",
                [0.7, 0.735],
                ["full"],
                max_iterations=20,
                seed=23,
                executor=executor,
                workers=workers,
            )

        reference = run("serial", None)
        assert run("process", 4) == reference
        assert run("process", 1) == reference
