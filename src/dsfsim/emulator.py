"""Trotterized evolution, Pauli sums on a sector, and the ancilla-register
reference of the Hadamard test.

Everything runs on sorted basis words (the register, or a conserved
sector): the words of an X-mask group all flip the same bits x, so a group
couples each pair (b, b ^ x) and its exponential is an exact 2x2 rotation
of that pair.  The same couplings give H c (``sector_apply``, which builds
the dipole block in ``spectrum.prepare_dipole_states``) and <c|H|c>.

``spectrum.dipole_overlaps`` evolves the d x 3 dipole block on a sector and
takes its inner products, which reproduces the ancilla circuit's
measurement statistics exactly: P(0) = (1 + value)/2.
``hadamard_test_via_ancilla`` builds the explicit register to certify that
equivalence on small models.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ci import check_dense
from .pauli import PauliSum, z_signs

REAL = "real"
IMAG = "imag"

NORM_TOL = 1e-8
SECTOR_TOL = 1e-12  # largest coupling out of the basis taken as rounding
# Identity columns ``program_unitary`` sweeps per chunk (each column sweeps on its
# own, so the bits are those of one whole sweep): a 225-state sector takes two
# chunks, as fast as one whole sweep, where 64 and 32 columns were slower.
STEP_COLUMNS = 128
# Coupled rows ``_group_factors`` works out at once: few enough that the pass's
# temporaries stay well under the step's own memory.
FACTOR_ROWS = 1 << 12


@dataclass(frozen=True)
class TrotterProgram:
    """Second-order symmetric product formula for exp(-i H tau).

    ``terms`` hold ``PauliSum`` terms ``(coeff, x, z)`` in the fixed sweep
    order: Z-diagonal words first, then off-diagonal words, each block in the
    word order of the ``PauliSum`` it was compiled from.
    One outer application is U2(dt)^k times the identity-term phase, with dt =
    tau / k and U2 applying each X-mask group at half angle forward then back.
    """

    n_qubits: int
    tau: float
    k: int
    terms: tuple[tuple[float, int, int], ...]
    identity_coefficient: float

    @property
    def dt(self) -> float:
        return self.tau / self.k

    @property
    def phase_per_rep(self) -> complex:
        return np.exp(-1j * self.identity_coefficient * self.tau)


def build_trotter(paulis: PauliSum, tau: float, k: int) -> TrotterProgram:
    """Compile a Pauli sum into a deterministic second-order Trotter program.

    The identity term becomes a tracked global phase (the Hadamard test is
    phase sensitive).  Negative ``tau`` yields the inverse propagator, used
    by time-reversal checks.  ``paulis.terms`` are already in word order
    (the ``PauliSum`` invariant), so a stable split into diagonal and
    off-diagonal words keeps each block sorted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    identity, rest = paulis.split_identity()
    diagonal = tuple(term for term in rest if term[1] == 0)
    offdiag = tuple(term for term in rest if term[1] != 0)
    return TrotterProgram(paulis.n_qubits, float(tau), int(k), diagonal + offdiag, identity)


def _couplings(terms, basis: np.ndarray) -> list:
    """(rows, partners, g) for each X-mask group of (coeff, x, z) ``terms`` on ``basis``.

    A group A_x maps |b> to f(b) |b ^ x>, so (A_x c)(b) = g c(b ^ x) with
    g = f(b ^ x); the diagonal group has partner b.  Only the rows with
    g != 0 are kept, and their partners are positions in the sorted
    ``basis``.  A coupling out of the basis above ``SECTOR_TOL`` raises
    ValueError.  Each g is summed from +0 in word order, a pass of groups at
    once, and a pass's rows are checked and taken out together.
    """
    groups: dict[int, list[tuple[int, complex]]] = {}
    for coeff, x, z in terms:
        groups.setdefault(x, []).append((z, coeff * 1j ** (x & z).bit_count()))
    by_size = sorted(groups, key=lambda x: -len(groups[x]))
    out = {}
    step = max(1, (1 << 14) // len(basis))   # groups per pass: ~1 MB of arrays at any d
    for start in range(0, len(by_size), step):
        xs = by_size[start:start + step]
        src = basis ^ np.array(xs, dtype=basis.dtype)[:, None]
        partner = np.minimum(np.searchsorted(basis, src), len(basis) - 1)
        inside = basis[partner] == src
        g = np.zeros(src.shape, dtype=complex)
        for k in range(len(groups[xs[0]])):   # groups with a k-th word come first
            z, phase = (np.array(v)[:, None] for v in
                        zip(*(groups[x][k] for x in xs if len(groups[x]) > k)))
            g[:len(z)] += phase * z_signs(src[:len(z)], z)
        leak = np.max(np.where(inside, 0.0, np.abs(g)), axis=1, initial=0.0) > SECTOR_TOL
        if leak.any():
            raise ValueError(f"X-mask {xs[int(np.argmax(leak))]:#x} couples the basis "
                             "to words outside it")
        group, rows = np.nonzero(inside & (g != 0))   # group by group, rows ascending
        ends = itertools.accumulate(np.bincount(group, minlength=len(xs)).tolist())
        kept = rows, partner[group, rows], g[group, rows]
        begin = 0
        for x, end in zip(xs, ends):
            out[x] = tuple(a[begin:end] for a in kept)
            begin = end
    return [out[x] for x in groups]


def _factors(couplings: list, theta: float) -> list:
    """The factors of ``_group_factors`` for a pass of groups, whose rows are worked out at once."""
    g = np.concatenate([g for _, _, g in couplings])[:, None]
    r = np.abs(g)
    cos, coupling = np.cos(theta * r), -1j * np.sin(theta * r) / r * g
    factors, begin = [], 0
    for rows, partner, _ in couplings:
        end = begin + len(rows)
        factors.append((rows, partner, cos[begin:end], coupling[begin:end]))
        begin = end
    return factors


def _group_factors(prog: TrotterProgram, basis: np.ndarray) -> list:
    """exp(-i theta A_x) for each X-mask group A_x, in program order, on
    ``basis``, at the half angle theta = dt / 2 of the symmetric step.

    A_x^2 = |f|^2 is diagonal, so the exponential maps c(b) to
    cos(theta r) c(b) - i sin(theta r) g c(b ^ x) / r with r = |g|; rows
    without a coupling are left unchanged.  Groups are taken in passes of
    at most ``FACTOR_ROWS`` rows (or one group).
    """
    theta = 0.5 * prog.dt
    factors, chunk, rows = [], [], 0
    for coupling in _couplings(prog.terms, basis):
        if chunk and rows + len(coupling[0]) > FACTOR_ROWS:
            factors += _factors(chunk, theta)
            chunk, rows = [], 0
        chunk.append(coupling)
        rows += len(coupling[0])
    return factors + _factors(chunk, theta) if chunk else factors


def sector_apply(paulis: PauliSum, basis: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """H c for amplitudes ``c`` on sorted ``basis`` words, summed over the same
    X-mask couplings as the Trotter step; a sum that leaves the basis raises ValueError."""
    out = np.zeros(len(basis), dtype=complex)
    for rows, partner, g in _couplings(paulis.terms, basis):
        out[rows] += g * amplitudes[partner]
    return out


def sector_expectation(paulis: PauliSum, basis: np.ndarray, amplitudes: np.ndarray) -> float:
    """<c|H|c> of a Hermitian sum for amplitudes ``c`` on sorted ``basis`` words."""
    return float(np.vdot(amplitudes, sector_apply(paulis, basis, amplitudes)).real)


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
    factors = _group_factors(prog, np.arange(state.shape[0]))
    block = np.array(state, dtype=complex).reshape(state.shape[0], -1)
    for _ in range(reps):
        for _ in range(prog.k):
            block = _sweep(block, factors)
        block *= prog.phase_per_rep
    return block.reshape(state.shape)


def program_unitary(prog: TrotterProgram, basis: np.ndarray | None = None) -> np.ndarray:
    """Matrix of one outer step on sorted ``basis`` words (default: the register).

    A basis over ``ci.DENSE_CAP`` states raises ``ci.SectorTooLarge`` before
    the matrix is allocated.
    """
    check_dense(1 << prog.n_qubits if basis is None else len(basis))
    basis = np.arange(1 << prog.n_qubits) if basis is None else basis
    u, factors = np.eye(len(basis), dtype=complex), _group_factors(prog, basis)
    for start in range(0, len(basis), STEP_COLUMNS):
        _sweep(u[:, start:start + STEP_COLUMNS], factors)  # in place, on a view of u
    return prog.phase_per_rep * np.linalg.matrix_power(u, prog.k)


def hadamard_test_via_ancilla(a: np.ndarray, b: np.ndarray, prog: TrotterProgram,
                              reps: int, which: str) -> float:
    """Bias of the Re or Im Hadamard test, from an explicit (n+1)-qubit register.

    Builds (|0>|b> + |1>|a>)/sqrt(2) with the ancilla as the top qubit,
    applies every rotation and phase controlled on the ancilla, then W and H
    on the ancilla.  Returns P(0) - P(1).
    """
    if which not in (REAL, IMAG):
        raise ValueError(f"which must be {REAL!r} or {IMAG!r}")
    for name, state in (("a", a), ("b", b)):
        if abs(np.linalg.norm(state) - 1.0) > NORM_TOL:
            raise ValueError(f"state {name} is not normalized")
    dim = 1 << prog.n_qubits
    joint = np.concatenate([b, a]).astype(complex) / np.sqrt(2.0)
    joint[dim:] = apply_trotter(joint[dim:], prog, reps)
    if which == IMAG:
        joint[dim:] *= -1j  # S^dagger on the ancilla |1> branch
    zero = (joint[:dim] + joint[dim:]) / np.sqrt(2.0)
    one = (joint[:dim] - joint[dim:]) / np.sqrt(2.0)
    return float(np.vdot(zero, zero).real - np.vdot(one, one).real)  # P(0) - P(1)

