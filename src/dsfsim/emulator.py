"""Statevector emulation of Hadamard-test circuits with Trotterized evolution.

The default execution path evolves one branch and takes an inner product,
which reproduces the ancilla circuit's measurement statistics exactly:
P(0) = (1 + value)/2.  An explicit ancilla-register path exists to certify
that equivalence on small registers.

Evolution runs on sorted basis words (the register, or a conserved sector):
the words of an X-mask group all flip the same bits x, so the group's
exponential is an exact 2x2 rotation of each pair (b, b ^ x).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, masks_to_word, word_phases

REAL = "real"
IMAG = "imag"

NORM_TOL = 1e-8
SECTOR_TOL = 1e-12  # largest coupling out of the basis taken as rounding
STEP_CAP = 4000     # states; the oracle's dense cap


class StepTooLarge(ValueError):
    """A step matrix over more than ``STEP_CAP`` states; refused before allocation."""


def check_step_size(dim: int) -> None:
    if dim > STEP_CAP:
        raise StepTooLarge(f"a step matrix over {dim} states exceeds the cap {STEP_CAP}")


@dataclass(frozen=True)
class TrotterProgram:
    """Second-order symmetric product formula for exp(-i H tau).

    ``terms`` hold (x_mask, z_mask, coeff) in the fixed sweep order: Z-diagonal
    words first, then off-diagonal words, each group sorted lexicographically.
    One outer application is U2(dt)^k times the identity-term phase, with dt =
    tau / k and U2 applying each X-mask group at half angle forward then back.
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


def _group_factors(prog: TrotterProgram, basis: np.ndarray, theta: float) -> list:
    """exp(-i theta A_x) for each X-mask group A_x, in program order, on ``basis``.

    A_x |b> = f(b) |b ^ x> and A_x^2 = |f|^2 is diagonal, so the exponential
    maps c(b) to cos(theta r) c(b) - i sin(theta r) g c(b ^ x) / r, where
    g = f(b ^ x) and r = |g|; the diagonal group has partner b.  Each factor
    keeps only the rows with g != 0, the others being left unchanged.  A
    coupling out of the sorted ``basis`` above ``SECTOR_TOL`` raises ValueError.
    """
    groups: dict[int, list[tuple[int, float]]] = {}
    for x, z, coeff in prog.terms:
        groups.setdefault(x, []).append((z, coeff))
    factors = []
    for x, words in groups.items():
        src = basis ^ x
        partner = np.minimum(np.searchsorted(basis, src), len(basis) - 1)
        inside = basis[partner] == src
        g = sum(coeff * word_phases(src, x, z) for z, coeff in words)
        if np.max(np.abs(g[~inside]), initial=0.0) > SECTOR_TOL:
            raise ValueError(f"X-mask {x:#x} couples the basis to words outside it")
        rows = np.flatnonzero(inside & (g != 0))
        g = g[rows, None]
        r = np.abs(g)
        factors.append((rows, partner[rows], np.cos(theta * r),
                        -1j * np.sin(theta * r) / r * g))
    return factors


def _sweep(block: np.ndarray, factors: list) -> np.ndarray:
    """One symmetric step U2(dt), in place: the half-angle factors forward, then reversed."""
    for rows, partner, cos, coupling in factors + factors[::-1]:
        block[rows] = cos * block[rows] + coupling * block[partner]
    return block


def apply_trotter(state: np.ndarray, prog: TrotterProgram, reps: int) -> np.ndarray:
    """Apply ``reps`` outer steps of the program to a full-register state."""
    if state.shape[0] != 1 << prog.n_qubits:
        raise ValueError("statevector dimension does not match the program")
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    factors = _group_factors(prog, np.arange(state.shape[0]), 0.5 * prog.dt)
    block = np.array(state, dtype=complex).reshape(state.shape[0], -1)
    for _ in range(reps):
        for _ in range(prog.k):
            block = _sweep(block, factors)
        block *= prog.phase_per_rep
    return block.reshape(state.shape)


def program_unitary(prog: TrotterProgram, basis: np.ndarray | None = None) -> np.ndarray:
    """Matrix of one outer step on sorted ``basis`` words (default: the register)."""
    check_step_size(1 << prog.n_qubits if basis is None else len(basis))
    basis = np.arange(1 << prog.n_qubits) if basis is None else basis
    u = _sweep(np.eye(len(basis), dtype=complex), _group_factors(prog, basis, 0.5 * prog.dt))
    return prog.phase_per_rep * np.linalg.matrix_power(u, prog.k)


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

