"""One fresh process of one workload, started by ``run.py``.

It imports the library and builds the workload's inputs (``setup_s``),
then forks ``SAMPLES`` children.  Each child makes a cold pass and
identical warm passes and sends back its figures.  The
parent has run no pass when it forks and holds no threads, so every
child starts from the state a fresh process has right after set-up, at
the cost of one set-up.  Every time is sent with the host speed measured
next to it (:func:`calibrate`).  Prints one JSON object.

    PYTHONPATH=src python3 perfbench/worker.py --workload fig9_vqe --seed 1
"""

import time

START = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.cache import compile_cache  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

WARM_BUDGET_S = 0.5
#: Children forked per set-up, each making one cold pass.
SAMPLES = 2


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for.

    A forked child starts out sharing, and counting, the parent's pages.
    """
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def calibrate() -> float:
    """Seconds this host takes for a fixed mix of interpreter and numpy work.

    The fastest of three tries; ``run.py`` divides each time by the
    calibration taken next to it.
    """
    tries = []
    for _ in range(3):
        began = time.perf_counter()
        total, table = 0, {}
        for i in range(300_000):
            total += i * i
            table[i & 1023] = total
        values = np.arange(300_000, dtype=float)
        for _ in range(10):
            values = np.sqrt(values * values + 1.0)
        tries.append(time.perf_counter() - began)
    return min(tries)


def layer_metrics(windows: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer self time as a share of the traced windows, and counts."""
    wall = sum(hi - lo for lo, hi in windows)
    metrics = {
        f"{layer}.pct": 100.0 * seconds / wall
        for layer, seconds in tracing.summarize(tracing.TRACER, windows).items()
    }
    for name, value in tracing.TRACER.counts.items():
        if name.endswith("_s"):  # batch.wall_s -> batch.wall.pct
            metrics[f"{name[:-2]}.pct"] = 100.0 * value / wall
        else:
            metrics[name] = value
    stats = compile_cache().stats
    metrics.update({
        "cache.hits": stats.hits,
        "cache.misses": stats.misses,
        "cache.evictions": stats.evictions,
        "trace.wall_s": wall,
    })
    return metrics


def sample(workload, state, check: bool, traced: bool,
           setup_window: tuple[float, float], send) -> None:
    """One cold pass, then warm passes, in a forked child.

    Warm passes repeat until ``WARM_BUDGET_S`` has gone by, so a short
    warm pass is timed several times; ``warm_s`` is their median.  Each
    pass time is sent with the calibrations taken on either side of it.
    """
    before = calibrate()
    began = time.perf_counter()
    cold = workload.run(state)
    cold_done = time.perf_counter()
    between = calibrate()
    warm_began = time.perf_counter()
    warm_times: list[float] = []
    while sum(warm_times) < WARM_BUDGET_S:
        started = time.perf_counter()
        warm = workload.run(state)
        warm_times.append(time.perf_counter() - started)
    done = time.perf_counter()
    after = calibrate()
    record = {
        "cold_s": cold_done - began,
        "warm_s": statistics.median(warm_times),
        "calibration": {"cold_s": (before + between) / 2,
                        "warm_s": (between + after) / 2},
        "cache": compile_cache().stats.to_dict(),
    }
    if traced:
        record["layers"] = layer_metrics(
            [setup_window, (began, cold_done), (warm_began, done)]
        )
    outcome = Outcome()
    if check:
        workload.check(state, cold, warm, outcome)
    record.update(
        attempted=outcome.attempted,
        failures=outcome.failures,
        quality=workload.quality(cold),
    )
    send.send(record)
    send.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()

    if args.trace:
        tracing.install()
        workload = WORKLOADS[args.workload](tracing.TRACER, tracing.TracedPipeline())
    else:
        workload = WORKLOADS[args.workload](tracing.NO_TRACE, repro.Pipeline)
    began = time.perf_counter()
    state = workload.setup(args.seed)
    set_up = time.perf_counter()
    setup_calibration = calibrate()  # right after the set-up it scales

    # Fork, not spawn: a spawned child would import and set up again.
    context = multiprocessing.get_context("fork")
    samples = []
    for index in range(SAMPLES):
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=sample, args=(
            workload, state, bool(args.check) and index == 0, bool(args.trace),
            (began, set_up), send,
        ))
        child.start()
        send.close()
        try:
            samples.append(receive.recv())
        except EOFError:  # the child died before sending; its exit code says why
            pass
        child.join()
        if child.exitcode != 0 or len(samples) != index + 1:
            print(f"sample {index} exited {child.exitcode}", file=sys.stderr)
            return 1
    print(json.dumps({
        "setup_s": set_up - START,
        "calibration": {"setup_s": setup_calibration},
        "peak_rss_mb": peak_rss_mb(),
        "samples": samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
