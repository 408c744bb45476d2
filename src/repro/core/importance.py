"""Parameter importance estimation (Algorithm 1 of the paper).

For an ansatz Pauli string ``Pa`` and a Hamiltonian string ``PH`` the
*importance decay factor* ``d`` counts the qubits on which tuning Pa's
parameter is unlikely to move PH's measured value:

1. Pa has ``I`` on the qubit (the simulation circuit touches nothing);
2. PH has ``I`` on the qubit (the measurement ignores the qubit);
3. the two operators are equal (rotation about an axis does not change
   the projection onto that same axis -- Figure 5).

Equivalently, ``d = n - #{qubits where both are non-identity and
different}``: the qubits where the two anticommute, ``(xa & zh) ^ (za & xh)``
in the symplectic representation.  The string's score is ``sum_PH 2^-d *
|w_H|`` and a parameter's importance is the sum over its strings.
"""

from __future__ import annotations

import numpy as np

from repro.core.bits import popcount
from repro.core.ir import PauliProgram
from repro.pauli import PauliSum


def _string_scores(
    keys: list[tuple[int, int]], hamiltonian: PauliSum, decay_base: float
) -> np.ndarray:
    """Scores of the ``(x, z)`` strings ``keys``, every (Pa, PH) pair in one pass.

    Sums run left to right over H's sorted terms like a per-pair loop, so scores
    are bit-identical to it (``np.sum`` sums pairwise: an ulp can flip a ranking tie).
    """
    n = hamiltonian.num_qubits
    words = max(1, -(-n // 64))
    # H's row 0 is a zero-weight identity term: the loop's 0.0 start.
    terms = [((0, 0), 0.0)] + [(key, abs(w)) for key, w in hamiltonian.items() if key != (0, 0)]
    masks = (mask for key in keys + [key for key, _ in terms] for mask in key)
    data = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    packed = np.frombuffer(data, dtype="<u8").reshape(-1, 2, words)  # (string, x/z, word)
    a, h = packed[: len(keys)], packed[len(keys) :]
    weights = np.array([w for _, w in terms])
    by_active = np.array([decay_base ** -(n - k) for k in range(n + 1)])  # k = n - d
    scores = np.empty(len(keys))
    rows = max(1, (1 << 16) // (len(terms) * words))  # ~512 KB temporaries
    for start in range(0, len(keys), rows):
        r = slice(start, start + rows)
        anticommute = (a[r, None, 0] & h[:, 1]) ^ (a[r, None, 1] & h[:, 0])
        active = popcount(anticommute).sum(axis=2)
        scores[r] = np.add.accumulate(by_active[active] * weights, axis=1)[:, -1]
    return scores


#: String-score memos keyed per (Hamiltonian content, decay base): each
#: entry is a ``pauli.key() -> score`` dict shared across calls and filled
#: one batch of missing strings per call, so sweep loops that score many
#: programs against one Hamiltonian (ratio scans, ablations, repeated
#: compression) pay for each distinct string once per process.
_SCORE_MEMOS = None


def _score_memo(hamiltonian: PauliSum, decay_base: float) -> dict:
    global _SCORE_MEMOS
    from repro.core.cache import ContentAddressedCache, pauli_sum_key

    if _SCORE_MEMOS is None:
        # lint: ignore[RR101] - benign lazy init: a racing loser's memo is
        # orphaned but every returned dict still yields correct scores
        _SCORE_MEMOS = ContentAddressedCache(max_entries=32, name="importance-scores")
    key = (pauli_sum_key(hamiltonian), float(decay_base))
    return _SCORE_MEMOS.get_or_compute(key, dict)


def parameter_importance(
    program: PauliProgram, hamiltonian: PauliSum, *, decay_base: float = 2.0
) -> np.ndarray:
    """Importance of every parameter: sum of its strings' scores.

    ``decay_base`` parameterizes the exponential decay ``base^-d`` (the
    paper uses 2; the ablation benchmark sweeps it).  Complexity
    O(n * #Pa * #PH), as stated in Section III-A, with the per-string
    scores memoized across calls (see :data:`_SCORE_MEMOS`).
    """
    if not decay_base > 1.0:
        raise ValueError("decay base must exceed 1")
    if not np.isfinite(hamiltonian.norm1()):
        raise ValueError("Hamiltonian weights must be finite")
    if program.num_qubits != hamiltonian.num_qubits:
        raise ValueError("program and Hamiltonian qubit counts differ")
    score_cache = _score_memo(hamiltonian, decay_base)
    missing = list({term.pauli.key() for term in program}.difference(score_cache))
    if missing:
        score_cache.update(zip(missing, _string_scores(missing, hamiltonian, decay_base).tolist()))
    importance = np.zeros(program.num_parameters)
    for term in program:
        importance[term.parameter_index] += score_cache[term.pauli.key()]
    return importance
