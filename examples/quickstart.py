"""Quickstart: simulate the H2 molecule end to end with the Pipeline API.

Reproduces the introductory experiment of the paper's Figure 3: build the
STO-3G Hamiltonian of molecular hydrogen at several bond lengths, run VQE
with the full UCCSD ansatz, and locate the equilibrium geometry (the
energy minimum, experimentally at ~0.74 Angstrom).

Each bond length is one ``PipelineConfig``; ``run_batch`` runs the whole
scan, and an appended ``Energy`` stage turns the compile pipeline into a
VQE workload.

Run:  python examples/quickstart.py
"""

from repro import Pipeline, PipelineConfig, run_batch
from repro.core import Energy


def main() -> None:
    print("H2 dissociation curve (STO-3G, Jordan-Wigner, UCCSD + SLSQP)")
    print(f"{'bond (A)':>9} {'VQE (Ha)':>12} {'exact (Ha)':>12} {'HF (Ha)':>12} {'iters':>6}")

    bond_lengths = [0.4, 0.5, 0.6, 0.7, 0.735, 0.8, 0.9, 1.1, 1.4, 1.8]
    configs = [
        PipelineConfig(molecule="H2", bond_length=b, ratio=1.0, label=f"H2@{b}A")
        for b in bond_lengths
    ]
    results = run_batch(
        configs,
        pipeline_factory=lambda config: Pipeline(config).appending(Energy()),
    )

    best = None
    for bond_length, result in zip(bond_lengths, results):
        m = result.metrics
        print(
            f"{bond_length:9.3f} {m['energy']:12.6f} {m['exact_energy']:12.6f} "
            f"{m['hf_energy']:12.6f} {m['iterations']:6d}"
        )
        if best is None or m["energy"] < best[1]:
            best = (bond_length, m["energy"])

    bond, energy = best
    print(f"\nminimum: E = {energy:.6f} Hartree at {bond:.3f} Angstrom "
          "(experiment: ~0.74 A)")

    # The same pipeline also compiled each instance for XTree17Q; the
    # minimum-energy point's hardware cost comes along for free.
    equilibrium = results[bond_lengths.index(bond)]
    print(f"compiled at equilibrium: {equilibrium.summary()}")


if __name__ == "__main__":
    main()
