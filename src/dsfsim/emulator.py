"""Statevector emulation of Hadamard-test circuits with Trotterized evolution.

The default execution path evolves one branch and takes an inner product,
which reproduces the ancilla circuit's measurement statistics exactly:
P(0) = (1 + value)/2.  An explicit ancilla-register path exists to certify
that equivalence on small registers.

Each Pauli rotation exp(-i theta P) is applied in O(2^n) using the word's
bitmask action; no gate matrices are ever built for the statevector path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, masks_to_word

REAL = "real"
IMAG = "imag"

NORM_TOL = 1e-8
DENSE_STEP_MAX_QUBITS = 10


@dataclass(frozen=True)
class TrotterProgram:
    """Second-order symmetric product formula for exp(-i H tau).

    ``terms`` hold (x_mask, z_mask, coeff) in the fixed sweep order: Z-diagonal
    words first, then off-diagonal words, each group sorted lexicographically.
    One outer application is U2(dt)^k times the identity-term phase, with
    dt = tau / k and U2 sweeping all terms at half angle forward then back.
    """

    n_qubits: int
    tau: float
    k: int
    terms: tuple[tuple[int, int, float], ...]
    identity_coefficient: float

    @property
    def dt(self) -> float:
        return self.tau / self.k

    @property
    def phase_per_rep(self) -> complex:
        return np.exp(-1j * self.identity_coefficient * self.tau)


def build_trotter(paulis: PauliSum, tau: float, k: int) -> TrotterProgram:
    """Compile a Pauli sum into a deterministic second-order Trotter program.

    Identity terms become a tracked global phase (the Hadamard test is
    phase sensitive).  Negative ``tau`` yields the inverse propagator, used
    by time-reversal checks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    diagonal, offdiag = [], []
    identity = 0.0
    for coeff, x, z in paulis.terms:
        if x == 0 and z == 0:
            identity += coeff
        elif x == 0:
            diagonal.append((x, z, coeff))
        else:
            offdiag.append((x, z, coeff))
    word = lambda t: masks_to_word(t[0], t[1], paulis.n_qubits)
    ordered = sorted(diagonal, key=word) + sorted(offdiag, key=word)
    return TrotterProgram(paulis.n_qubits, float(tau), int(k),
                          tuple(ordered), identity)


def _rotation(state: np.ndarray, x: int, z: int, theta: float) -> np.ndarray:
    """exp(-i theta P) applied to a statevector or to matrix columns (axis 0)."""
    dim = state.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    if x == 0:
        # Diagonal word: pure phases, eigenvalue (-1)^parity(b & z).
        sign = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
        phases = np.exp(-1j * theta * sign)
        return phases[:, None] * state if state.ndim > 1 else phases * state
    src = idx ^ x
    ny = (x & z).bit_count()
    lam = (1j**ny) * (1.0 - 2.0 * (np.bitwise_count(src & z) & 1))
    factor = -1j * np.sin(theta)
    if state.ndim > 1:
        return np.cos(theta) * state + factor * (lam[:, None] * state[src])
    return np.cos(theta) * state + factor * (lam * state[src])


def _sweep(state: np.ndarray, prog: TrotterProgram) -> np.ndarray:
    """One symmetric step U2(dt): half-angle forward sweep, then reversed."""
    half = 0.5 * prog.dt
    for x, z, coeff in prog.terms:
        state = _rotation(state, x, z, coeff * half)
    for x, z, coeff in reversed(prog.terms):
        state = _rotation(state, x, z, coeff * half)
    return state


def apply_trotter(state: np.ndarray, prog: TrotterProgram, reps: int) -> np.ndarray:
    """Apply ``reps`` outer steps of the program, norm-preserving."""
    if state.shape[0] != 1 << prog.n_qubits:
        raise ValueError("statevector dimension does not match the program")
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    state = np.array(state, dtype=complex)
    for _ in range(reps):
        for _ in range(prog.k):
            state = _sweep(state, prog)
        state *= prog.phase_per_rep
    return state


def program_unitary(prog: TrotterProgram) -> np.ndarray:
    """Dense matrix of one outer step; capped at small registers."""
    if prog.n_qubits > DENSE_STEP_MAX_QUBITS:
        raise ValueError("dense step restricted to small registers")
    dim = 1 << prog.n_qubits
    u = np.eye(dim, dtype=complex)
    u = _sweep(u, prog)
    u = np.linalg.matrix_power(u, prog.k)
    return prog.phase_per_rep * u


def _check_normalized(state: np.ndarray, name: str) -> None:
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"{name} is not normalized (norm {norm:.3e})")


def hadamard_test(a: np.ndarray, b: np.ndarray, prog: TrotterProgram,
                  reps: int, which: str) -> float:
    """Exact bias of the Hadamard test measuring Re or Im of <b|U^reps|a>."""
    if which not in (REAL, IMAG):
        raise ValueError(f"which must be {REAL!r} or {IMAG!r}")
    _check_normalized(a, "state a")
    _check_normalized(b, "state b")
    amplitude = np.vdot(b, apply_trotter(a, prog, reps))
    value = amplitude.real if which == REAL else amplitude.imag
    return float(np.clip(value, -1.0, 1.0))


def hadamard_test_via_ancilla(a: np.ndarray, b: np.ndarray, prog: TrotterProgram,
                              reps: int, which: str) -> float:
    """Bias computed from an explicit (n+1)-qubit register; test-only path.

    Builds (|0>|b> + |1>|a>)/sqrt(2) with the ancilla as the top qubit,
    applies every rotation and phase controlled on the ancilla, then W and H
    on the ancilla.  Returns P(0) - P(1).
    """
    _check_normalized(a, "state a")
    _check_normalized(b, "state b")
    dim = 1 << prog.n_qubits
    joint = np.concatenate([b, a]).astype(complex) / np.sqrt(2.0)
    joint[dim:] = apply_trotter(joint[dim:], prog, reps)
    if which == IMAG:
        joint[dim:] *= -1j  # S^dagger on the ancilla |1> branch
    zero = (joint[:dim] + joint[dim:]) / np.sqrt(2.0)
    one = (joint[:dim] - joint[dim:]) / np.sqrt(2.0)
    p0 = float(np.vdot(zero, zero).real)
    p1 = float(np.vdot(one, one).real)
    return p0 - p1

