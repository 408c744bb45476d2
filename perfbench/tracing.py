"""Spans recorded from the benchmark's side of the library boundary.

A traced repetition wraps the public functions and module attributes
the library looks up at call time (see :func:`install`), and the
workloads open spans around the library calls they make themselves.
Each span is one ``(id, parent, name, start, end)`` tuple kept in
memory; :func:`summarize` reduces them to per-layer *self* time: a
span's length minus the part of it that its child spans cover.

Nothing under ``src/`` is edited.  The untraced repetition installs
none of the wrappers and hands the workloads :data:`NO_TRACE`.

Spans opened on a pool thread have no parent on that thread's stack, so
they adopt the ``batch`` span that the traced ``run_batch`` holds open.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

from repro.core.passes import Pass, PipelineContext
from repro.core.pipeline import Pipeline, default_passes

#: Pass name -> the layer its self time is charged to.
PASS_LAYERS = {
    "build_problem": "problem",
    "build_ansatz": "ansatz",
    "compress": "compress",
    "initial_layout": "layout",
    "route": "route",
    "metrics": "schedule",
}

#: Key under which each traced pipeline run leaves its pass timings in
#: ``result.metrics``, so they also cross a process boundary.
PASS_TIMES_KEY = "perfbench.pass_times"


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.adopt: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.adopt
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, function: Callable, *, calls: bool = False) -> Callable:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if calls:
                self.count(f"{name}.calls")
            with self.span(name):
                return function(*args, **kwargs)

        return traced


class NoTrace:
    """What the untraced repetition hands the workloads: does nothing."""

    def span(self, name: str) -> Any:
        return nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


NO_TRACE = NoTrace()
TRACER = Tracer()


class TracedPass(Pass):
    """One library pass, run inside a span named after its layer."""

    def __init__(self, inner: Pass) -> None:
        self.inner = inner
        self.name = inner.name
        self.requires = inner.requires
        self.produces = inner.produces
        self.layer = PASS_LAYERS.get(inner.name, inner.name)

    def run(self, context: PipelineContext) -> None:
        start = time.perf_counter()
        with TRACER.span(self.layer):
            self.inner.run(context)
        context.metrics.setdefault(PASS_TIMES_KEY, []).append(
            [self.name, start, time.perf_counter()]
        )


class TracedPipeline:
    """Picklable ``pipeline_factory``: the default passes, each traced."""

    def __call__(self, config: Any) -> Pipeline:
        return Pipeline(config, [TracedPass(p) for p in default_passes()])


def install() -> None:
    """Wrap the library names the per-layer metrics need."""
    import repro.analysis
    import repro.compiler.metrics
    import repro.core.cache
    import repro.core.pipeline
    import repro.vqe.runner
    import repro.vqe.scan as scan
    from repro.vqe import energy

    wrap = TRACER.wrap
    repro.analysis.assert_clean = wrap(
        "sanitize", repro.analysis.assert_clean, calls=True
    )
    for key in ("circuit_key", "program_key", "pauli_sum_key", "coupling_key"):
        setattr(
            repro.core.cache, key,
            wrap("hash", getattr(repro.core.cache, key), calls=True),
        )
    repro.compiler.metrics.schedule_report = wrap(
        "schedule", repro.compiler.metrics.schedule_report
    )

    scan.build_molecule_hamiltonian = wrap(
        "chem", scan.build_molecule_hamiltonian, calls=True
    )
    scan.build_uccsd_program = wrap("ansatz", scan.build_uccsd_program)
    scan.compress_ansatz = wrap("compress", scan.compress_ansatz)
    scan.random_ansatz = wrap("compress", scan.random_ansatz)
    scan.ground_state_energy = wrap("exact", scan.ground_state_energy)
    scan.VQE = traced_vqe(scan.VQE)

    minimize = repro.vqe.runner.minimize_energy

    @functools.wraps(minimize)
    def traced_minimize(*args: Any, **kwargs: Any) -> Any:
        with TRACER.span("optimizer"):
            outcome = minimize(*args, **kwargs)
        TRACER.count("optimizer.iterations", outcome.iterations)
        return outcome

    repro.vqe.runner.minimize_energy = traced_minimize

    for cls, backend in (
        (energy.StatevectorEnergy, "statevector"),
        (energy.DensityMatrixEnergy, "density_matrix"),
        (energy.TrajectoryEnergy, "trajectory"),
    ):
        cls.__call__ = wrap(f"energy.{backend}", cls.__call__, calls=True)

    run_batch = repro.core.pipeline.run_batch

    @functools.wraps(run_batch)
    def traced_run_batch(configs: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        with TRACER.span("batch") as span_id:
            TRACER.adopt = span_id
            try:
                results = run_batch(configs, **kwargs)
            finally:
                TRACER.adopt = None
        TRACER.count("batch.wall_s", time.perf_counter() - started)
        for result in results:
            TRACER.count("batch.items")
            times = getattr(result, "metrics", {}).get(PASS_TIMES_KEY)
            if not times:
                TRACER.count("batch.failed")
                continue
            first = min(start for _, start, _ in times)
            TRACER.count("batch.item_s", max(end for _, _, end in times) - first)
            TRACER.count("batch.queue_wait_s", first - started)
        return results

    repro.core.pipeline.run_batch = traced_run_batch


def traced_vqe(vqe_class: type) -> Callable:
    """Charge building a VQE (its energy backend) to that backend's layer."""

    def build(*args: Any, backend: str = "statevector", **kwargs: Any) -> Any:
        with TRACER.span(f"energy.{backend}"):
            return vqe_class(*args, backend=backend, **kwargs)

    return build


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(tracer: Tracer, windows: list[tuple[float, float]]) -> dict[str, float]:
    """Self time per layer, and ``other``: window time no span covers."""
    children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in tracer.spans:
        children[parent].append((start, end))
    self_times: Counter[str] = Counter()
    for span_id, _, name, start, end in tracer.spans:
        inside = [(max(s, start), min(e, end)) for s, e in children[span_id]]
        self_times[name] += (end - start) - _union_length(inside)
    other = 0.0
    for lo, hi in windows:
        roots = [(max(s, lo), min(e, hi)) for s, e in children[None] if e > lo and s < hi]
        other += (hi - lo) - _union_length(roots)
    return {**self_times, "other": other}
