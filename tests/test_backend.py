"""Shared-memory slabs and executor scale-out.

Covers :mod:`repro.core.shm` slab round-trips, the executor knobs, and
the determinism guarantee -- seeded ``bond_scan`` /
``trajectory_estimate`` runs are bit-identical across
``executor="serial" | "process"`` and any worker count; every surface
that takes ``executor=`` rejects an unknown name with a ``ValueError``;
a trajectory chunk worker that dies breaks the pool without leaking
its shared-memory segment.
"""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.circuit.gates import CNOT, H, RX, RZ
from repro.core.shm import SharedSlabs
from repro.pauli import PauliSum
from repro.sim.noise import DepolarizingNoiseModel
import repro.sim.trajectory as trajectory
from repro.sim.trajectory import (
    check_executor,
    resolve_workers,
    trajectory_estimate,
    trajectory_expectations,
)


def small_circuit(num_qubits: int = 3) -> Circuit:
    return Circuit(
        num_qubits,
        [
            H(0),
            CNOT(0, 1),
            RZ(0.37, 1),
            CNOT(1, 2),
            RX(0.21, 2),
            CNOT(0, 2),
        ],
    )


# ----------------------------------------------------------------------
# Shared-memory slabs
# ----------------------------------------------------------------------
class TestSharedSlabs:
    def test_create_attach_roundtrip(self):
        arrays = {
            "coeff": np.arange(6, dtype=np.complex128).reshape(2, 3),
            "masks": np.array([1, 2, 3], dtype=np.uint64),
        }
        slabs = SharedSlabs.create(arrays)
        try:
            attached = SharedSlabs.attach(slabs.handle)
            try:
                np.testing.assert_array_equal(attached["coeff"], arrays["coeff"])
                np.testing.assert_array_equal(attached["masks"], arrays["masks"])
                assert set(attached) == {"coeff", "masks"}
                assert len(attached) == 2
                assert "coeff" in attached and "nope" not in attached
            finally:
                attached.close()
        finally:
            slabs.unlink()

    def test_handle_is_small_and_picklable(self):
        import pickle

        slabs = SharedSlabs.create({"big": np.zeros(1 << 16)})
        try:
            payload = pickle.dumps(slabs.handle)
            assert len(payload) < 1024  # the point: bytes stay in shm
            restored = pickle.loads(payload)
            assert restored.segment == slabs.handle.segment
        finally:
            slabs.unlink()

    def test_views_invalid_after_close(self):
        slabs = SharedSlabs.create({"x": np.ones(4)})
        try:
            slabs.close()
            with pytest.raises(ValueError, match="closed"):
                slabs["x"]
        finally:
            slabs.unlink()

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError, match="at least one array"):
            SharedSlabs.create({})


# ----------------------------------------------------------------------
# Executor plumbing
# ----------------------------------------------------------------------
class TestExecutorPlumbing:
    def test_check_executor_names_valid_choices(self):
        for name in ("serial", "process"):
            check_executor(name)
        with pytest.raises(ValueError, match="serial"):
            check_executor("fork-bomb")

    @pytest.mark.parametrize(
        "surface",
        [
            "run_batch",
            "bond_scan",
            "trajectory_estimate",
            "trajectory_expectations",
        ],
    )
    def test_thread_executor_rejected(self, surface):
        from repro.core.pipeline import PipelineConfig, run_batch
        from repro.vqe.scan import bond_scan

        observable = PauliSum.from_label_dict({"ZZI": 1.0})
        calls = {
            "run_batch": lambda: run_batch(
                [PipelineConfig(molecule="H2")], executor="thread"
            ),
            "bond_scan": lambda: bond_scan(
                "H2", [0.735], ["full"], executor="thread"
            ),
            "trajectory_estimate": lambda: trajectory_estimate(
                small_circuit(), observable, executor="thread"
            ),
            "trajectory_expectations": lambda: trajectory_expectations(
                small_circuit(), observable, executor="thread"
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
    def trajectory_setup(self):
        observable = PauliSum.from_label_dict(
            {"ZZI": 0.5, "XIX": 0.25, "IYY": -0.75}
        )
        noise = DepolarizingNoiseModel(
            one_qubit_error=5e-3, two_qubit_error=2e-2
        )
        return small_circuit(), observable, noise

    def test_trajectory_estimate_bit_identical_across_executors(self):
        circuit, observable, noise = self.trajectory_setup()

        def run(executor, workers):
            return trajectory_estimate(
                circuit,
                observable,
                noise,
                trajectories=64,
                seed=11,
                block_size=16,
                executor=executor,
                workers=workers,
            )

        reference = run("serial", None)
        for executor, workers in (
            ("serial", 1),
            ("process", 1),
            ("process", 4),
        ):
            candidate = run(executor, workers)
            assert candidate.value == reference.value, (executor, workers)
            assert candidate.standard_error == reference.standard_error
            assert candidate.error_events == reference.error_events

    def test_trajectory_expectations_bit_identical_per_trajectory(self):
        circuit, observable, noise = self.trajectory_setup()

        def run(executor, workers):
            return trajectory_expectations(
                circuit,
                observable,
                noise,
                trajectories=48,
                seed=5,
                block_size=8,
                executor=executor,
                workers=workers,
            )

        reference = run("serial", None)
        np.testing.assert_array_equal(run("process", 4), reference)

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

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir()
        or multiprocessing.get_start_method() != "fork",
        reason="needs a /dev/shm listing and forked workers that see the patch",
    )
    def test_crashed_chunk_worker_breaks_pool_and_leaks_no_segment(
        self, monkeypatch
    ):
        circuit, observable, _ = self.trajectory_setup()
        noise = DepolarizingNoiseModel(one_qubit_error=0.3, two_qubit_error=0.5)
        options = {"trajectories": 64, "seed": 3, "block_size": 8}
        _, signature = trajectory._noisy_gates(circuit, noise)
        events = trajectory._draw_events(
            signature, circuit.num_qubits, options["trajectories"],
            options["seed"], options["block_size"],
        )
        assert len(events.chunks) >= 2  # one chunk would run serially
        monkeypatch.setattr(trajectory, "_evolve_chunk", _crash_chunk)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(BrokenProcessPool):
            trajectory_estimate(
                circuit, observable, noise, executor="process", workers=2, **options
            )
        assert set(os.listdir("/dev/shm")) - before == set()


def _crash_chunk(*args):
    """Kill the chunk worker outright (no exception)."""
    os._exit(3)
