#!/usr/bin/env python3
"""Run the static sanitizer over every Table II benchmark compilation.

Compiles each of the paper's nine benchmark molecules with both
registered flows (Merge-to-Root and SABRE) and runs the full check
registry over every produced artifact: the routed result (bounds,
gate set, parameters, coupling legality, layout permutation) plus the
compressed Pauli program.  The committed QASM corpus
(``benchmarks/corpus/``) is sanitized the same way -- every corpus
circuit routed by both flows on its exact-fit XTree device -- unless
``--no-corpus`` is given.  Exit status is 1 when any artifact
yields an ERROR diagnostic; ``--report`` writes the per-artifact
findings as JSON (the CI diagnostics artifact).

Usage:
    PYTHONPATH=src python tools/check_circuits.py
    PYTHONPATH=src python tools/check_circuits.py --report analysis_report.json
    PYTHONPATH=src python tools/check_circuits.py --molecules H2 LiH
    PYTHONPATH=src python tools/check_circuits.py --no-corpus
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.analysis as analysis  # noqa: E402
from repro.chem.molecules import BENCHMARK_MOLECULES  # noqa: E402
from repro.core import Pipeline, PipelineConfig  # noqa: E402

COMPILERS = ("mtr", "sabre")


def check_instance(molecule: str, compiler: str, ratio: float) -> list[dict]:
    """Compile one instance and sanitize every artifact it produces."""
    # validate=False: the point is to exercise the checks explicitly and
    # report every finding, not to die on the pipeline's first error.
    config = PipelineConfig(
        molecule=molecule, ratio=ratio, compiler=compiler, validate=False
    )
    result = Pipeline(config).run()
    rows = []
    for label, artifact, device in (
        ("compiled", result.compiled, result.device),
        ("pauli-program", result.compressed.program, None),
    ):
        report = analysis.check(
            artifact,
            device=device,
            subject=f"{molecule}/{compiler}/{label}",
        )
        rows.append(report.to_dict())
    return rows


def check_corpus() -> list[dict]:
    """Route every corpus circuit with both flows and sanitize the results."""
    from repro.bench.corpus import corpus_devices, load_corpus
    from repro.compiler import get_compiler
    from repro.hardware import get_device

    corpus_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"
    rows = []
    for name, circuit in load_corpus(corpus_dir):
        device_name = corpus_devices(circuit.num_qubits)[0]
        device = get_device(device_name)
        for compiler in COMPILERS:
            result = get_compiler(compiler).compile_circuit(circuit, device)
            report = analysis.check(
                result,
                device=device,
                subject=f"corpus/{name}/{compiler}",
            )
            rows.append(report.to_dict())
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--molecules",
        nargs="+",
        default=BENCHMARK_MOLECULES,
        help="benchmark subset (default: all nine Table II molecules)",
    )
    parser.add_argument(
        "--ratio", type=float, default=0.5, help="compression ratio (default 0.5)"
    )
    parser.add_argument(
        "--report", type=Path, default=None, help="write findings as JSON here"
    )
    parser.add_argument(
        "--lint",
        type=Path,
        default=None,
        metavar="PATH",
        help="merge a lint_repro JSON report (tools/lint_repro.py "
        "--format=json --output PATH) into --report",
    )
    parser.add_argument(
        "--no-corpus",
        action="store_true",
        help="skip the benchmarks/corpus/ sanitization sweep",
    )
    args = parser.parse_args(argv)

    produced: list[dict] = []
    for molecule in args.molecules:
        for compiler in COMPILERS:
            produced.extend(check_instance(molecule, compiler, args.ratio))
    if not args.no_corpus:
        produced.extend(check_corpus())

    rows: list[dict] = []
    failures = 0
    for row in produced:
        rows.append(row)
        status = "ok" if row["ok"] else "FAIL"
        print(
            f"{row['subject']:<36} {len(row['checks_run'])} check(s) "
            f"{row['num_errors']} error(s)  {status}"
        )
        if not row["ok"]:
            failures += 1
            for diagnostic in row["diagnostics"]:
                if diagnostic["severity"] == "error":
                    print(f"    {diagnostic['check']}: "
                          f"{diagnostic['message']}")

    if args.report is not None:
        report: dict = {"ratio": args.ratio, "artifacts": rows, "failures": failures}
        if args.lint is not None and args.lint.is_file():
            # One ANALYSIS_report.json covers both halves of the static
            # layer: artifact sanitization here, source lint from
            # tools/lint_repro.py.
            report["lint"] = json.loads(args.lint.read_text())
        args.report.write_text(json.dumps(report, indent=2))
        print(f"report written to {args.report}", file=sys.stderr)

    print(
        f"check_circuits: {len(rows)} artifact(s), {failures} with errors",
        file=sys.stderr,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
