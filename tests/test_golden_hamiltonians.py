"""Golden qubit Hamiltonians of the nine Table I molecules, pinned bit for bit.

Each pin is the SHA-256 of the Hamiltonian's terms in sorted ``(x, z)``
order, written as ``x,z,<real hex>,<imag hex>;``, followed by the RHF
total energy's ``float.hex()``, at the equilibrium bond length.  A change
to the integrals, the SCF, the active-space reduction or Jordan-Wigner
that moves any coefficient by one ulp moves the pin: compression breaks
importance ties by a stable argsort, so such a move can change a Table II
count.  Re-record a pin only for a change that means to move it.
"""

import hashlib

import pytest

from repro.chem import build_molecule_hamiltonian

HAMILTONIAN_SHA256 = {
    "H2": "229edefeacf15c2ef4be7c4180bb3afdb4eecdf89d1bb2f9fd64e83f64ea9b5e",
    "LiH": "f08ff97de04bbf65a9d14ab82c08c4fe9494549b4bca989481f7925df648f790",
    "NaH": "e8300c1de6b1a0a68e50a24c870b028d31dfd560953a5dc02d4e211de3446950",
    "HF": "15dd98833688981d6183c618d8478aa5be14379e5b1b58fb4e9f3a923dd49a57",
    "BeH2": "8b2b06c411dddbf9a0a256ea1b1220cc433bfa4b57ed740a250c43e535f0e8f2",
    "H2O": "ba24be1212a34f5fb04e658c9a11c003f080ed91a1d96a37537bcb973a41e653",
    "BH3": "51e53a83bf2ae03ce6f15c5c4623893a32eb84431dc1eab6ab22a921d1811306",
    "NH3": "7460793a99887cc30ecaef6728eb2c0312bd7352fd34d2190c49554bade06745",
    "CH4": "2fc6d756cdd255e5b1a208c5c4b3e93dc042e5f92263f4ccac74f7be300172ef",
}


def hamiltonian_digest(problem) -> str:
    digest = hashlib.sha256()
    for (x, z), coefficient in sorted(problem.hamiltonian._terms.items()):
        coefficient = complex(coefficient)
        digest.update(
            f"{x},{z},{coefficient.real.hex()},{coefficient.imag.hex()};".encode()
        )
    digest.update(problem.hf_energy.hex().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("molecule", list(HAMILTONIAN_SHA256))
def test_hamiltonian_bits(molecule):
    problem = build_molecule_hamiltonian(molecule)
    assert hamiltonian_digest(problem) == HAMILTONIAN_SHA256[molecule]
