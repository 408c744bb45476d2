"""Fast Pauli-string action and exponential on statevectors.

Because every Pauli string is a signed permutation in the computational
basis, ``P |psi>`` can be evaluated in O(2^n) with bit arithmetic, and

    exp(i theta P) |psi> = cos(theta) |psi> + i sin(theta) P |psi>

(P is an involution).  The VQE energy loop evolves the ansatz directly at
the Pauli level, which is dramatically faster than gate-by-gate
simulation of the synthesized circuit while being exactly equivalent
(the synthesized circuits are verified against this in tests).

:class:`FusedPauliEvolution` is that loop's kernel: it applies each run
of adjacent commuting strings with one X mask as a single rotation.
:func:`evolve_pauli_sequence` applies the identity term by term, out of
place; it is the oracle the fused kernel is tested against, and the
path of compiler verification and :class:`repro.vqe.energy.SamplingEnergy`.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.bits import popcount
from repro.pauli import PauliString

_INDEX_CACHE: dict[int, np.ndarray] = {}


def _all_indices(num_qubits: int) -> np.ndarray:
    """Cached ``arange(2^n)`` (uint64) reused across calls."""
    cached = _INDEX_CACHE.get(num_qubits)
    if cached is None:
        cached = np.arange(1 << num_qubits, dtype=np.uint64)
        if num_qubits <= 24:
            # Idempotent memo: racing writers store equal values.
            _INDEX_CACHE[num_qubits] = cached
    return cached


def parity_signs(num_qubits: int, z_mask: int) -> np.ndarray:
    """Vector of ``(-1)^{popcount(b & z_mask)}`` over all basis states b."""
    indices = _all_indices(num_qubits)
    parity = popcount(indices & np.uint64(z_mask)) & 1
    return 1.0 - 2.0 * parity.astype(np.float64)


def apply_pauli(pauli: PauliString, state: np.ndarray) -> np.ndarray:
    """Return ``P |state>``.

    Derivation: ``P|c> = i^{#Y} (-1)^{popcount(c & z)} |c ^ x>``, so the
    new amplitude at ``b`` is ``phase(b ^ x) * psi[b ^ x]``.
    """
    n = pauli.num_qubits
    if state.shape[0] != (1 << n):
        raise ValueError("state dimension does not match Pauli size")
    signs = parity_signs(n, pauli.z)
    phase = (1j) ** (pauli.y_count() % 4)
    result = phase * (signs * state)
    if pauli.x:
        indices = _all_indices(n) ^ np.uint64(pauli.x)
        result = result[indices]
    return result


def apply_pauli_exponential(pauli: PauliString, theta: float, state: np.ndarray) -> np.ndarray:
    """Return ``exp(i theta P) |state>``."""
    if pauli.is_identity():
        return np.exp(1j * theta) * state
    return math.cos(theta) * state + 1j * math.sin(theta) * apply_pauli(pauli, state)


def evolve_pauli_sequence(
    terms: list[tuple[PauliString, float]], state: np.ndarray
) -> np.ndarray:
    """Apply ``prod_k exp(i theta_k P_k)`` (first term applied first)."""
    current = state
    for pauli, theta in terms:
        current = apply_pauli_exponential(pauli, theta, current)
    return current


# ----------------------------------------------------------------------
# Memoized sign, index and code vectors
# ----------------------------------------------------------------------
#: Byte budget of each memo below (all keyed by ``(n, mask)``): molecular
#: programs revisit the same masks at every optimizer iteration, so the
#: memos turn the per-run popcount and index passes into lookups.
_CACHE_BYTE_LIMIT = 64 << 20
_SIGNS_CACHE: dict[tuple[int, int], np.ndarray] = {}
_XOR_INDEX_CACHE: dict[tuple[int, int], np.ndarray] = {}
_CODE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _memoized(cache: dict, key: tuple[int, int], build: Callable[[], np.ndarray]) -> np.ndarray:
    """``cache[key]``, built on a miss and kept while the cache fits its budget."""
    value = cache.get(key)
    if value is None:
        value = build()
        if sum(v.nbytes for v in cache.values()) + value.nbytes <= _CACHE_BYTE_LIMIT:
            cache[key] = value
    return value


def cached_parity_signs(num_qubits: int, z_mask: int) -> np.ndarray:
    """Memoized :func:`parity_signs` (shared; do not mutate)."""
    return _memoized(
        _SIGNS_CACHE, (num_qubits, z_mask), lambda: parity_signs(num_qubits, z_mask)
    )


def cached_xor_indices(num_qubits: int, x_mask: int) -> np.ndarray:
    """Memoized gather indices ``b -> b ^ x`` (shared; do not mutate)."""
    return _memoized(
        _XOR_INDEX_CACHE,
        (num_qubits, x_mask),
        lambda: _all_indices(num_qubits) ^ np.uint64(x_mask),
    )


def _mask_bits(mask: int) -> list[int]:
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def _pack_bits(value: int, mask: int) -> int:
    """The bits of ``value`` under ``mask``, packed low in mask order."""
    return sum(((value >> q) & 1) << j for j, q in enumerate(_mask_bits(mask)))


def cached_bit_codes(num_qubits: int, mask: int) -> np.ndarray:
    """Memoized ``b -> _pack_bits(b, mask)`` over all basis states b.

    Stored in the narrowest unsigned dtype holding ``2**popcount(mask)``
    codes (shared; do not mutate).
    """

    return _memoized(
        _CODE_CACHE, (num_qubits, mask), lambda: _bit_codes(_all_indices(num_qubits), mask)
    )


def _bit_codes(states: np.ndarray, mask: int) -> np.ndarray:
    """``_pack_bits(b, mask)`` for every ``uint64`` state b, narrowest dtype."""
    bits = _mask_bits(mask)
    dtype = np.min_scalar_type((1 << len(bits)) - 1)
    codes = np.zeros(states.shape, dtype=dtype)
    for j, q in enumerate(bits):
        codes |= ((states >> np.uint64(q) & np.uint64(1)) << np.uint64(j)).astype(dtype)
    return codes


# ----------------------------------------------------------------------
# Fused evolution of same-X-mask runs
# ----------------------------------------------------------------------
#: Largest ``|Theta(b)|`` a run may keep, relative to the sum of the
#: coefficients behind it, on a state whose partner leaves the basis
#: (see :meth:`FusedPauliEvolution.closed_under`).  Exact cancellation
#: leaves 0 and rounding a few ulps; a real leak is of order one.
_CLOSURE_TOLERANCE = 1e-14


class _Run(NamedTuple):
    """One maximal run of commuting same-X-mask strings (see below)."""

    start: int  # first term of the run
    stop: int  # one past its last term
    x: int  # the shared X mask
    z: int  # the first string's Z mask
    mask: int  # OR of z_k ^ z over the run: the bits sigma_k reads
    table: slice  # the run's 2**popcount(mask) slots in the tables
    even_y: bool  # whether the first string (so every one) has even #Y
    phase: float  # (-i)**#Y_1 is phase, or phase * -i when odd


#: A run's arrays over the evolved states: gather positions of ``b ^ x``
#: (None when ``x = 0``), table codes and parity signs of ``z_1``.
_RunArrays = tuple[Optional[np.ndarray], np.ndarray, np.ndarray]


def _restrict(run: _Run, basis: np.ndarray) -> _RunArrays:
    """A run's arrays over a sorted basis, in narrow dtypes.

    A state whose partner ``b ^ x`` is not in the basis gets parity sign
    0 (so ``P_1`` maps it to 0, as in the full space) and an arbitrary
    in-range gather position.
    """
    parity = 1 - 2 * (popcount(basis & np.uint64(run.z)) & 1).astype(np.int8)
    positions = None
    if run.x:
        partners = basis ^ np.uint64(run.x)
        found = np.minimum(np.searchsorted(basis, partners), basis.size - 1)
        parity[basis[found] != partners] = 0
        positions = found.astype(np.int32)
    return positions, _bit_codes(basis, run.mask), parity


class FusedPauliEvolution:
    """``prod_k exp(i a_k P_k)`` (first term first), one rotation per run.

    A *run* is a maximal stretch of adjacent strings that share one X
    mask and the parity of their Y count; any other string starts a new
    run.  Strings of a run commute, and on each pair ``(b, b ^ x)`` the
    string ``P_k`` acts as ``sigma_k(b) P_1``, with ``P_1`` the run's
    first string and ``sigma_k = +-1`` a function of the bits of ``b``
    under ``mask = OR_k (z_k ^ z_1)`` alone.  The run is therefore

        cos Theta(b) |psi> + i sin Theta(b) P_1 |psi>,
        Theta(b) = sum_k a_k sigma_k(b),

    where Theta takes ``2**m`` values (``m = popcount(mask)``) read
    through the code array of ``mask``.  The table of a run is the
    Walsh-Hadamard transform of its angles scattered onto their sign
    patterns, so cos and sin are evaluated on the tables alone, and a
    UCCSD excitation (8 strings, ``m = 4``) costs one rotation instead
    of eight.

    By default the plan evolves all ``2**n`` amplitudes; its code
    arrays, parity signs and gather indices then live in the bounded
    memos above (:func:`cached_bit_codes`).  Given a sorted ``uint64``
    ``basis``, it evolves only the amplitudes of those states, in that
    order, and holds each run's arrays over them itself: gather
    positions as int32, codes and parity signs in one byte each.  That
    is exact for states in the span of the basis as long as every run
    keeps the span, which :meth:`closed_under` checks.  Either way the
    plan holds one slot index and one sign per term, ``2**m`` table
    slots per run and four scratch vectors of :attr:`dimension`.

    >>> from repro.pauli import PauliString
    >>> from repro.sim.statevector import basis_state
    >>> paulis = [PauliString.from_label(s) for s in ("XY", "YX", "ZI")]
    >>> evolution = FusedPauliEvolution(2, paulis)
    >>> evolution.run_bounds  # XY and YX share X mask 0b11 and an odd #Y
    [(0, 2), (2, 3)]
    >>> angles = [0.3, -0.2, 0.5]
    >>> state = evolution.evolve(angles, basis_state(2, 1))
    >>> expected = evolve_pauli_sequence(list(zip(paulis, angles)), basis_state(2, 1))
    >>> bool(np.allclose(state, expected, atol=1e-12))
    True

    H2's UCCSD program keeps its Hartree-Fock particle-number sector
    (one alpha and one beta electron in two spatial orbitals), so it
    evolves 4 of the 16 amplitudes:

    >>> from repro.ansatz import build_uccsd_program
    >>> from repro.chem import build_molecule_hamiltonian
    >>> from repro.sim.exact import sector_basis
    >>> program = build_uccsd_program(build_molecule_hamiltonian("H2")).program
    >>> basis = sector_basis(2, 1, 1)
    >>> plan = FusedPauliEvolution(4, program.paulis(), basis=basis)
    >>> plan.dimension, plan.closed_under(
    ...     [t.parameter_index for t in program], [t.coefficient for t in program])
    (4, True)
    >>> terms = program.bound_terms([0.2, -0.1, 0.3])
    >>> sector = plan.evolve([a for _, a in terms], np.eye(4, dtype=complex)[0])
    >>> full = evolve_pauli_sequence(terms, basis_state(4, 0b0101))
    >>> bool(np.allclose(full[basis], sector, atol=1e-12))
    True
    """

    def __init__(
        self,
        num_qubits: int,
        paulis: Sequence[PauliString],
        basis: np.ndarray | None = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.num_terms = len(paulis)
        if any(pauli.num_qubits != num_qubits for pauli in paulis):
            raise ValueError(f"every string must act on {num_qubits} qubits")
        bounds: list[list[int]] = []
        for k, pauli in enumerate(paulis):
            first = paulis[bounds[-1][0]] if bounds else None
            if (
                first is not None
                and pauli.x == first.x
                and (pauli.y_count() - first.y_count()) % 2 == 0
            ):
                bounds[-1][1] = k + 1
            else:
                bounds.append([k, k + 1])
        masks = []
        for start, stop in bounds:
            mask = 0
            for pauli in paulis[start:stop]:
                mask |= pauli.z ^ paulis[start].z
            masks.append(mask)

        # Tables of equal size sit side by side, so that one batched
        # transform per size serves every run (see _walsh_hadamard).
        order = sorted(range(len(bounds)), key=lambda r: masks[r].bit_count())
        offsets = [0] * len(bounds)
        self._blocks: list[tuple[int, int, int]] = []
        slot = 0
        for r in order:
            size = 1 << masks[r].bit_count()
            if self._blocks and self._blocks[-1][2] == size:
                self._blocks[-1] = (self._blocks[-1][0], slot + size, size)
            else:
                self._blocks.append((slot, slot + size, size))
            offsets[r] = slot
            slot += size
        self.num_slots = slot

        self._runs: list[_Run] = []
        slots = np.zeros(self.num_terms, dtype=np.intp)
        signs = np.zeros(self.num_terms)
        alphas = np.zeros(self.num_slots)
        for (start, stop), mask, offset in zip(bounds, masks, offsets):
            first = paulis[start]
            y_count = first.y_count()
            table = slice(offset, offset + (1 << mask.bit_count()))
            # Over #Y_1 mod 4, i (-i)**#Y_1 cycles through i, 1, -i, -1
            # and (-i)**#Y_1 through 1, -i, -1, i.
            alphas[table] = 1.0 if y_count % 4 < 2 else -1.0
            self._runs.append(
                _Run(
                    start, stop, first.x, first.z, mask, table,
                    even_y=y_count % 2 == 0,
                    phase=1.0 if y_count % 4 in (0, 3) else -1.0,
                )
            )
            for k in range(start, stop):
                pauli = paulis[k]
                # P_k = (-1)**((#Y_k - #Y_1) / 2) * signs(z_k ^ z_1) * P_1.
                slots[k] = offset + _pack_bits(pauli.z ^ first.z, mask)
                signs[k] = -1.0 if (pauli.y_count() - y_count) // 2 % 2 else 1.0
        self._slots = slots
        self._signs = signs
        self._alphas = alphas
        if basis is not None:
            basis = np.asarray(basis, dtype=np.uint64)
            if np.any(basis[1:] <= basis[:-1]):
                raise ValueError("basis states must be strictly ascending")
        self._basis = basis
        self._restricted = (
            None if basis is None else [_restrict(run, basis) for run in self._runs]
        )
        self._scratch: tuple[np.ndarray, ...] | None = None

    @property
    def basis(self) -> np.ndarray | None:
        """The sorted states the plan evolves, or None for all ``2**n``."""
        return self._basis

    @property
    def dimension(self) -> int:
        """Number of evolved amplitudes: ``len(basis)``, else ``2**n``."""
        return 1 << self.num_qubits if self._basis is None else self._basis.size

    @property
    def run_bounds(self) -> list[tuple[int, int]]:
        """``(start, stop)`` term ranges of the fused runs, in order."""
        return [(run.start, run.stop) for run in self._runs]

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the plan holds (not the shared memos)."""
        arrays = [self._slots, self._signs, self._alphas, *(self._scratch or ())]
        for run_arrays in self._restricted or ():
            arrays.extend(array for array in run_arrays if array is not None)
        return sum(array.nbytes for array in arrays)

    def closed_under(
        self, parameter_indices: Sequence[int], coefficients: Sequence[float]
    ) -> bool:
        """Whether every run keeps the span of :attr:`basis` for all parameters.

        The term angles are ``theta[parameter_indices[k]] * coefficients[k]``
        for any ``theta``.  A run can only leave the span from a state b
        whose partner ``b ^ x`` is not in the basis, and it leaves b
        alone when ``Theta(b) = 0``: that holds for every ``theta`` when,
        for each parameter of the run, ``sum_k coefficients[k] sigma_k(b)``
        over its terms vanishes on those states.  A plan without a basis
        is trivially closed.
        """
        if self._restricted is None:
            return True
        parameter_indices = np.asarray(parameter_indices, dtype=np.intp)
        weights = np.asarray(coefficients, dtype=float) * self._signs
        for run, (_, codes, parity) in zip(self._runs, self._restricted):
            leaving = np.unique(codes[parity == 0])
            if not leaving.size:
                continue
            terms = slice(run.start, run.stop)
            patterns = (self._slots[terms] - run.table.start).astype(np.uint64)
            sigma = 1.0 - 2.0 * (popcount(leaving[:, None] & patterns[None, :]) & 1)
            groups = parameter_indices[terms]
            for parameter in np.unique(groups):
                chosen = weights[terms] * (groups == parameter)
                bound = _CLOSURE_TOLERANCE * np.abs(chosen).sum()
                if np.abs(sigma @ chosen).max() > bound:
                    return False
        return True

    def _walsh_hadamard(self, values: np.ndarray) -> np.ndarray:
        """Unnormalized Walsh-Hadamard transform of every run's table, in place.

        ``out[c] = sum_u (-1)**popcount(c & u) * values[u]`` within each
        run's slots: the butterflies run once per block of equal-size
        tables, whatever the number of runs.
        """
        for start, stop, size in self._blocks:
            rows = values[start:stop].reshape(-1, size)
            half = 1
            while half < size:
                pairs = rows.reshape(rows.shape[0], -1, 2, half)
                low = pairs[:, :, 0, :].copy()
                high = pairs[:, :, 1, :]
                pairs[:, :, 0, :] += high
                np.subtract(low, high, out=high)
                half *= 2
        return values

    def rotation_tables(self, angles: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """``(cos Theta, alpha sin Theta)`` over every run's table slots.

        ``alpha`` is the real sign of ``i (-i)**#Y_1`` (of its imaginary
        part for even-Y runs).  Raises ValueError unless there is one
        angle per term.
        """
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (self.num_terms,):
            raise ValueError(
                f"expected {self.num_terms} angles, got shape {angles.shape}"
            )
        theta = np.bincount(
            self._slots, weights=angles * self._signs, minlength=self.num_slots
        )
        self._walsh_hadamard(theta)
        return np.cos(theta), self._alphas * np.sin(theta)

    def _buffers(self) -> tuple[np.ndarray, ...]:
        if self._scratch is None:
            dim = self.dimension
            self._scratch = (
                np.empty(dim), np.empty(dim),
                np.empty(dim, dtype=complex), np.empty(dim, dtype=complex),
            )
        return self._scratch

    def _arrays(self, r: int) -> _RunArrays:
        """Run r's gather indices, codes and parity signs over the evolved states."""
        if self._restricted is not None:
            return self._restricted[r]
        n, run = self.num_qubits, self._runs[r]
        gather = cached_xor_indices(n, run.x) if run.x else None
        return gather, cached_bit_codes(n, run.mask), cached_parity_signs(n, run.z)

    # Every index below is in range by construction: mode="wrap" only
    # skips the bounds check that take's default mode makes, and the
    # method skips np.take's dispatch (a third of a small sector's time).
    @staticmethod
    def _flip(gather: np.ndarray | None, vector: np.ndarray, out: np.ndarray) -> None:
        """``out[b] = vector[b ^ x]``."""
        if gather is None:
            np.copyto(out, vector)
        else:
            vector.take(gather, out=out, mode="wrap")

    @staticmethod
    def _expand(run: _Run, codes, parity, tables, cos_b: np.ndarray, sin_b: np.ndarray) -> None:
        """``cos Theta(b)`` and ``alpha sin Theta(b) (-1)**popcount(b & z_1)``."""
        tables[0][run.table].take(codes, out=cos_b, mode="wrap")
        tables[1][run.table].take(codes, out=sin_b, mode="wrap")
        sin_b *= parity

    @staticmethod
    def _rotate(run: _Run, vector, flipped, cos_b, sin_b, inverse: bool) -> None:
        """``vector <- cos vector (+/-) i sin P_1 vector``, given ``flipped``."""
        flipped *= sin_b
        if run.even_y:
            flipped *= 1j
        vector *= cos_b
        if inverse:
            vector -= flipped
        else:
            vector += flipped

    def apply(self, tables: tuple[np.ndarray, np.ndarray], state: np.ndarray) -> np.ndarray:
        """Evolve ``state`` in place under :meth:`rotation_tables`' angles; returns it."""
        cos_b, sin_b, flipped, _ = self._buffers()
        for r, run in enumerate(self._runs):
            gather, codes, parity = self._arrays(r)
            self._flip(gather, state, flipped)
            self._expand(run, codes, parity, tables, cos_b, sin_b)
            self._rotate(run, state, flipped, cos_b, sin_b, inverse=False)
        return state

    def evolve(self, angles: Sequence[float], state: np.ndarray) -> np.ndarray:
        """Apply ``prod_k exp(i angles[k] P_k)`` to ``state`` in place; returns it."""
        if state.shape != (self.dimension,):
            raise ValueError(
                f"state shape {state.shape} does not match {self.num_qubits} qubits "
                f"({self.dimension} evolved states)"
            )
        return self.apply(self.rotation_tables(angles), state)

    def adjoint(
        self,
        tables: tuple[np.ndarray, np.ndarray],
        phi: np.ndarray,
        lam: np.ndarray,
    ) -> np.ndarray:
        """``dE/da_k = 2 Re <lambda_k| i P_k |phi_k>`` for every term k.

        ``phi`` is the state :meth:`apply` made with ``tables`` and
        ``lam = H phi``; both are undone run by run, last run first, and
        end at the reference state and ``U^dag H U`` applied to it.  A
        run's strings commute, so one ``phi`` and one ``lambda`` serve
        all of its brackets: ``Im(conj(lambda) P_1 phi)`` binned by table
        code is, after one Walsh-Hadamard transform, the sum of
        ``sigma_k Im(conj(lambda) P_1 phi)`` at every term's slot.
        """
        cos_b, sin_b, flipped, product = self._buffers()
        signs = cos_b  # scratch until the run is expanded
        binned = np.zeros(self.num_slots)
        for r in reversed(range(len(self._runs))):
            run = self._runs[r]
            gather, codes, parity = self._arrays(r)
            self._flip(gather, phi, flipped)
            np.conjugate(lam, out=product)
            product *= flipped
            # Im((-i)**#Y_1 u) is the phase's sign times Re(u) or Im(u).
            part = product.imag if run.even_y else product.real
            np.multiply(part, parity, out=signs)
            binned[run.table] = run.phase * np.bincount(
                codes, weights=signs, minlength=run.table.stop - run.table.start
            )
            self._expand(run, codes, parity, tables, cos_b, sin_b)
            self._rotate(run, phi, flipped, cos_b, sin_b, inverse=True)
            self._flip(gather, lam, flipped)
            self._rotate(run, lam, flipped, cos_b, sin_b, inverse=True)
        return -2.0 * self._signs * self._walsh_hadamard(binned)[self._slots]
