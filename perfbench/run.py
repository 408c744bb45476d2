"""Benchmark of the co-optimization flow: one workload per command.

    python3 perfbench/run.py --workload table2_compile --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --order-check

Each worker is a fresh process (``worker.py``): it imports the library,
builds the workload's inputs, and forks two children that each make a
cold pass and identical warm passes, so no memo survives from one
worker or workload into the next.  Workers follow one another (closed
loop, one client) until ``--seconds`` have passed and ``MIN_WORKERS``
have run.

Every time is scaled to a reference host speed: it is multiplied by
``REFERENCE_S`` over the time a fixed calibration loop took right next
to it (``worker.calibrate``).  On the shared 2-CPU host this benchmark
was tuned on, speed swings by 30-40 % in phases lasting seconds to
minutes; over ten seeds, raw medians spread by 20-30 % of the median
between quartiles, scaled ones by 3-14 %.  ``setup_s`` and ``peak_rss_mb`` are medians
over workers, ``cold_s`` and ``warm_s`` medians over samples.  The report
lines also print the raw medians.

With ``--trace 1`` every untraced worker is followed by a traced one,
and the per-layer metrics are medians over the traced samples.

The report lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units are those of ``BENCHMARK.json`` at the root of the checkout.
``--order-check`` runs every workload in two orders and fails when a
count differs or a ``cold_s`` moves by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
WORKLOADS = ("table2_compile", "fig9_vqe", "fig10_noisy", "corpus_batch")
DEFAULT_SEED = 1
#: The calibration loop's time on the tuning host when it runs fast, so
#: that a scaled time reads as seconds on that host.
REFERENCE_S = 0.04
MIN_WORKERS = 2
BLAS_THREADS = 1
#: No worker starts if the longest one so far would end past this, which
#: keeps a run inside its 180 s limit.
DEADLINE_S = 150.0
#: A worker still running this long after the run began is killed.
TIMEOUT_S = 170.0
QUALITY_UNITS = {
    "routed_cnots": "CNOTs",
    "duration_us": "us",
    "energy_error_mha": "mHa",
    "vqe_iterations": "iterations",
}


class WorkerError(RuntimeError):
    """A worker process failed or timed out."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    """The checkout's sources first on the path; one BLAS thread.

    ``corpus_batch`` runs a pool of ``nproc`` threads, so one BLAS thread
    each keeps the load at the core count.  The single-threaded workloads
    get the same setting: on a 2-CPU host, two BLAS threads made the VQE
    passes both slower and noisier.
    """
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = str(BLAS_THREADS)
    return env


def host_record() -> dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
    }


def worker(workload: str, seed: int, trace: int, check: bool, timeout: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--check", str(int(check)),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} timed out after {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise WorkerError(f"{workload} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[list, list]:
    """Untraced (and, with ``trace``, traced) workers, alternating."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    min_workers = 1 if trace else MIN_WORKERS
    while len(plain) < min_workers or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        if plain and began - start + longest > DEADLINE_S:
            break
        for bucket, flag in ((plain, 0), (traced, 1))[: 1 + trace]:
            timeout = max(10.0, TIMEOUT_S - (time.perf_counter() - start))
            check = not plain  # every sample has the same outputs; check one
            bucket.append(worker(workload, seed, flag, check, timeout))
        longest = max(longest, time.perf_counter() - began)
    return plain, traced


def samples_of(workers: list[dict]) -> list[dict]:
    return [s for w in workers for s in w["samples"]]


def scaled(record: dict, key: str) -> float:
    return record[key] * REFERENCE_S / record["calibration"][key]


def median_time(records: list[dict], key: str) -> float:
    return statistics.median(scaled(r, key) for r in records)


def report(workload: str, seed: int, trace: int, plain: list, traced: list,
           manifest: dict) -> dict:
    """Print the report lines; return the result object."""
    samples = samples_of(plain + traced)
    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    if any(s["quality"] != samples[0]["quality"] for s in samples):
        failures.append("samples of one seed disagree")
    print(f"# host {json.dumps(host_record())}")
    print(f"# workload {workload} seed {seed} trace {trace}: {len(plain)} "
          f"untraced workers, {len(samples_of(plain))} samples, "
          f"{len(traced)} traced workers")
    metrics = {}
    for entry in manifest["end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        records = samples_of(plain) if name in ("cold_s", "warm_s") else plain
        if name == "peak_rss_mb":
            value = statistics.median(r[name] for r in records)
            detail = ""
        else:
            value = median_time(records, name)
            raw = statistics.median(r[name] for r in records)
            listed = " ".join(f"{scaled(r, name):.4g}" for r in records)
            detail = f"raw median {raw:.4g}; scaled: {listed}"
        print(f"{name:<24} {value:>14.6g} {unit:<6} {detail}")
        metrics[name] = {"value": value, "unit": unit}
    for name, value in samples[0]["quality"].items():
        print(f"{name:<24} {value:>14.6g} {QUALITY_UNITS[name]}")
    print(f"{'failed_frac':<24} {len(failures) / attempted:>14.6g} fraction "
          f"({len(failures)} of {attempted})")
    for failure in failures:
        print(f"# FAILED {failure}")
    print(f"# compile cache, last sample: {json.dumps(samples[-1]['cache'])}")
    if trace:
        metrics = {}
        layers = [s["layers"] for s in samples_of(traced)]
        for entry in manifest["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            if name == "trace.cold_s":
                value = median_time(samples_of(traced), "cold_s")
            elif name == "trace.overhead_s":
                value = median_time(samples_of(traced), "cold_s") - median_time(
                    samples_of(plain), "cold_s"
                )
            else:
                value = statistics.median(layer.get(name, 0.0) for layer in layers)
            print(f"{name:<24} {value:>14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def counts(sample: dict) -> list:
    """The figures of a sample that must not depend on run order.

    Cache lookups are counted, not the hit/miss split: on the thread pool
    two workers can miss the same key at once, depending on scheduling.
    """
    return [sample["quality"], sample["cache"]["hits"] + sample["cache"]["misses"]]


def order_check(seed: int, manifest: dict) -> int:
    """Run every workload in two orders; counts must match exactly."""
    bound = next(m["bound"] for m in manifest["end_to_end"] if m["name"] == "cold_s")
    runs: dict[str, list] = {w: [] for w in WORKLOADS}
    for order in (WORKLOADS, WORKLOADS[::-1]):
        print(f"# order {' '.join(order)}")
        for workload in order:
            runs[workload].append(measure(workload, seed, 0.0, 0)[0])
    ok = True
    for workload, (first, second) in runs.items():
        cold = [median_time(samples_of(w), "cold_s") for w in (first, second)]
        drift = abs(cold[1] - cold[0]) / min(cold)
        reference = counts(samples_of(first)[0])
        same = all(counts(s) == reference for s in samples_of(first + second))
        ok &= same and drift <= bound
        print(f"{workload:<16} cold_s {cold[0]:.4g} vs {cold[1]:.4g} s "
              f"(drift {drift:.1%}, bound {bound:.0%}); counts "
              f"{'identical' if same else 'DIFFER'}")
    print(json.dumps({"order_independent": ok}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--order-check", action="store_true")
    args = parser.parse_args()
    if not args.order_check and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "benchmarks" / "corpus").is_dir():
        print(f"no QASM corpus under {ROOT / 'benchmarks'}", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    try:
        if args.order_check:
            return order_check(args.seed, manifest)
        plain, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, args.trace, plain, traced, manifest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
