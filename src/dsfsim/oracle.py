"""Exact-diagonalization reference built from Slater-Condon rules.

Matrix elements are generated per row by enumerating single and double
excitations of each determinant, with fermionic signs accumulated by
applying ladder operators in sequence (the same ascending-qubit convention
as the CI module, which also enumerates the sector).  Everything here is an
independent route against which the qubit-side machinery is certified.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .ci import (AnnihilatedError, CIVector, Determinant, apply_one_body,
                 sector_basis, sector_dimension)
from .operators import DipoleOperator, Hamiltonian, QVector

DENSE_CAP = 4000
HARD_CAP = 1_000_000
GRAM_TOL = 1e-10


class SectorTooLarge(ValueError):
    """A sector exceeds a dimension cap; raised before it is enumerated."""


def _occupied_spin_orbitals(det: Determinant) -> list[int]:
    out = []
    word = det.interleaved()
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return out


def _sign_annihilate(word: int, so: int) -> tuple[float, int]:
    below = (word & ((1 << so) - 1)).bit_count()
    return (-1.0 if below & 1 else 1.0), word ^ (1 << so)


def _sign_create(word: int, so: int) -> tuple[float, int]:
    below = (word & ((1 << so) - 1)).bit_count()
    return (-1.0 if below & 1 else 1.0), word | (1 << so)


class _SlaterCondon:
    """Row generator for <D'|H|D> in a fixed sector basis."""

    def __init__(self, h: Hamiltonian, basis: list[Determinant]):
        first = basis[0]
        for det in basis:
            if det.n_alpha != first.n_alpha or det.n_beta != first.n_beta:
                raise ValueError("basis mixes (N_e, S_z) sectors")
        self.h_eff = h.core_one_body()
        self.g = h.two_body
        self.offset = h.offset
        self.n = h.n_orbitals
        self.basis = basis
        self.index = {det.interleaved(): i for i, det in enumerate(basis)}

    def diagonal(self, det: Determinant) -> float:
        occ = _occupied_spin_orbitals(det)
        val = self.offset
        for so_m in occ:
            val += self.h_eff[so_m >> 1, so_m >> 1]
        for so_m, so_n in itertools.combinations(occ, 2):
            pm, pn = so_m >> 1, so_n >> 1
            val += self.g[pm, pm, pn, pn]
            if (so_m ^ so_n) & 1 == 0:  # same spin also gets exchange
                val -= self.g[pm, pn, pn, pm]
        return float(val)

    def row(self, det: Determinant):
        """Yield (column index, element) for all connected determinants."""
        word = det.interleaved()
        occ = _occupied_spin_orbitals(det)
        virt = [so for so in range(2 * self.n) if not (word >> so) & 1]
        yield self.index[word], self.diagonal(det)
        # singles: m -> e, same spin
        for so_m in occ:
            s1, w1 = _sign_annihilate(word, so_m)
            pm = so_m >> 1
            for so_e in virt:
                if (so_e ^ so_m) & 1:
                    continue
                pe = so_e >> 1
                s2, w2 = _sign_create(w1, so_e)
                val = self.h_eff[pe, pm]
                for so_o in occ:
                    if so_o == so_m:
                        continue
                    po = so_o >> 1
                    val += self.g[pe, pm, po, po]
                    if (so_o ^ so_m) & 1 == 0:
                        val -= self.g[pe, po, po, pm]
                if val != 0.0:
                    yield self.index[w2], s1 * s2 * val
        # doubles: (m < n) -> (e < f), spin content preserved
        for so_m, so_n in itertools.combinations(occ, 2):
            s1, w1 = _sign_annihilate(word, so_m)
            s2, w2 = _sign_annihilate(w1, so_n)
            spins_removed = ((so_m & 1) + (so_n & 1))
            pm, pn = so_m >> 1, so_n >> 1
            for so_e, so_f in itertools.combinations(virt, 2):
                if (so_e & 1) + (so_f & 1) != spins_removed:
                    continue
                pe, pf = so_e >> 1, so_f >> 1
                val = 0.0
                if (so_e ^ so_m) & 1 == 0 and (so_f ^ so_n) & 1 == 0:
                    val += self.g[pe, pm, pf, pn]
                if (so_e ^ so_n) & 1 == 0 and (so_f ^ so_m) & 1 == 0:
                    val -= self.g[pe, pn, pf, pm]
                if val == 0.0:
                    continue
                s3, w3 = _sign_create(w2, so_f)
                s4, w4 = _sign_create(w3, so_e)
                yield self.index[w4], s1 * s2 * s3 * s4 * val


def _ci_elements(h: Hamiltonian, basis: list[Determinant]):
    """Yield (row, column, element) over the basis; no (row, column) repeats."""
    gen = _SlaterCondon(h, basis)
    for i, det in enumerate(basis):
        for j, val in gen.row(det):
            yield i, j, val


def build_ci_matrix(h: Hamiltonian, basis: list[Determinant]) -> np.ndarray:
    """Dense symmetric CI Hamiltonian over a one-sector determinant basis."""
    mat = np.zeros((len(basis), len(basis)))
    for i, j, val in _ci_elements(h, basis):
        mat[i, j] = val
    return mat


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of a CI sector; column k of ``coeffs`` is eigenvector k."""

    n_orbitals: int
    basis: tuple[Determinant, ...]
    energies: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if np.any(np.diff(self.energies) < -1e-12):
            raise ValueError("energies must be ascending")
        gram = self.coeffs.T @ self.coeffs
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > GRAM_TOL:
            raise ValueError("eigenvectors are not orthonormal")

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    @property
    def n_states(self) -> int:
        return self.coeffs.shape[1]

    def eigenvector(self, k: int, prune: float = 0.0) -> CIVector:
        entries = {det: complex(c) for det, c in zip(self.basis, self.coeffs[:, k])
                   if abs(c) > prune}
        return CIVector(self.n_orbitals, entries)

    def vector_on_basis(self, v: CIVector) -> np.ndarray:
        out = np.zeros(len(self.basis), dtype=complex)
        index = {det: i for i, det in enumerate(self.basis)}
        for det, amp in v.entries.items():
            if det not in index:
                raise ValueError("CI vector leaves the eigensystem sector")
            out[index[det]] = amp
        return out


def _phase_fix(coeffs: np.ndarray) -> np.ndarray:
    out = coeffs.copy()
    for k in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, k]))
        if out[lead, k] < 0:
            out[:, k] = -out[:, k]
    return out


def solve_sector(h: Hamiltonian, n_alpha: int, n_beta: int,
                 dense_cap: int = DENSE_CAP) -> EigenSystem:
    """Full diagonalization of one sector (dense; desk-scale dimensions)."""
    dim = sector_dimension(h.n_orbitals, n_alpha, n_beta)
    if dim > dense_cap:
        raise SectorTooLarge(
            f"sector dimension {dim} exceeds the dense cap {dense_cap}; "
            "use ground_state for the iterative path")
    basis = sector_basis(h.n_orbitals, n_alpha, n_beta)
    mat = build_ci_matrix(h, basis)
    offdiag = mat - np.diag(np.diag(mat))
    if np.max(np.abs(offdiag), initial=0.0) == 0.0:
        # Exactly diagonal: stable sort keeps the lowest-index determinant
        # first among degenerate energies.
        order = np.argsort(np.diag(mat), kind="stable")
        energies = np.diag(mat)[order]
        coeffs = np.eye(len(basis))[:, order]
    else:
        energies, coeffs = np.linalg.eigh(mat)
    return EigenSystem(h.n_orbitals, tuple(basis), energies, _phase_fix(coeffs))


def ground_state(h: Hamiltonian, sector: tuple[int, int],
                 dense_cap: int = DENSE_CAP, cap: int = HARD_CAP) -> CIVector:
    """Lowest eigenvector of a sector, phase-fixed; ARPACK starts from a fixed vector."""
    n_alpha, n_beta = sector
    dim = sector_dimension(h.n_orbitals, n_alpha, n_beta)
    if dim > cap:
        raise SectorTooLarge(f"sector dimension {dim} exceeds the cap {cap}")
    if dim <= dense_cap:
        return solve_sector(h, n_alpha, n_beta, dense_cap).eigenvector(0)
    # scipy is imported only where it runs (here and in
    # validate.check_trotter_slope), so importing dsfsim.cli does not load it.
    import scipy.sparse
    import scipy.sparse.linalg
    basis = sector_basis(h.n_orbitals, n_alpha, n_beta)
    rows, cols, vals = zip(*_ci_elements(h, basis))
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    _, vecs = scipy.sparse.linalg.eigsh(
        mat, k=1, which="SA", v0=np.random.default_rng(0).standard_normal(dim))
    coeffs = _phase_fix(vecs[:, :1])
    entries = {det: complex(c) for det, c in zip(basis, coeffs[:, 0]) if c != 0.0}
    return CIVector(h.n_orbitals, entries)


@dataclass(frozen=True)
class TransitionTable:
    """p[alpha, k] = <Psi_k| mu_alpha |Psi_0> for every sector eigenstate."""

    table: np.ndarray  # shape (3, n_states)
    reference_moments: np.ndarray  # <Psi_0| mu_a mu_b |Psi_0>, shape (3, 3)

    def __post_init__(self):
        sums = np.einsum("ak,bk->ab", self.table, self.table)
        if np.max(np.abs(sums - self.reference_moments)) > 1e-10:
            raise ValueError("transition table violates the completeness sum rule")

    def component(self, axis: str) -> np.ndarray:
        return self.table["xyz".index(axis)]


def transition_table(eig: EigenSystem, dipole: DipoleOperator) -> TransitionTable:
    psi0 = eig.eigenvector(0)
    rows, moments = [], np.zeros((3, 3))
    rotated = {}
    for axis in "xyz":
        try:
            rotated[axis] = apply_one_body(dipole.component(axis), psi0, prune=0.0)
        except AnnihilatedError:
            rotated[axis] = None  # symmetry-forbidden channel
    vecs = {axis: (eig.vector_on_basis(v).real if v is not None
                   else np.zeros(len(eig.basis)))
            for axis, v in rotated.items()}
    for axis in "xyz":
        rows.append(eig.coeffs.T @ vecs[axis])
    for i, a in enumerate("xyz"):
        for j, b in enumerate("xyz"):
            moments[i, j] = float(vecs[a] @ vecs[b])
    return TransitionTable(np.array(rows), moments)


def bright_excitations(eig: EigenSystem, trans: TransitionTable,
                       threshold: float = 1e-6) -> np.ndarray:
    """Excitation energies carrying at least ``threshold`` of the peak weight.

    The maximum of this array is the natural spectral-window choice: states
    outside it are dipole-dark and cannot alias into the measured signal.
    """
    weights = np.sum(trans.table**2, axis=0)
    if weights.max() == 0.0:
        raise ValueError("no dipole-bright states")
    mask = weights > threshold * weights.max()
    return (eig.energies - eig.ground_energy)[mask]


def _lorentzian(omega: np.ndarray, center: float, eta: float) -> np.ndarray:
    return (eta / np.pi) / ((omega - center) ** 2 + eta**2)


def exact_greens(eig: EigenSystem, trans: TransitionTable, pair: str,
                 tau: float, n: int) -> complex:
    """Spectral expansion of the time-domain Green's function at t = n*tau."""
    pa = trans.component(pair[0])
    pb = trans.component(pair[1])
    phases = np.exp(-1j * (eig.energies - eig.ground_energy) * n * tau)
    return complex(np.sum(np.conj(pa) * pb * phases))


def _lorentzian_sum(eig: EigenSystem, weights: np.ndarray, eta: float,
                    omega: np.ndarray) -> np.ndarray:
    """One Lorentzian per eigenstate with nonzero weight, summed in state order."""
    values = np.zeros_like(omega)
    for k in range(eig.n_states):
        if weights[k] != 0.0:
            values += weights[k] * _lorentzian(omega, eig.energies[k] - eig.ground_energy, eta)
    return values


def exact_intensity(eig: EigenSystem, trans: TransitionTable, pair: str,
                    eta: float, omega_grid: np.ndarray) -> "Spectrum":
    """Lorentzian-broadened intensity function for one Cartesian pair."""
    from .spectrum import Spectrum
    omega = np.asarray(omega_grid, dtype=float)
    weights = trans.component(pair[0]) * trans.component(pair[1])
    return Spectrum(omega, _lorentzian_sum(eig, weights, eta, omega), eta,
                    kind="intensity", label=pair)


def exact_spectrum(eig: EigenSystem, trans: TransitionTable, q: QVector,
                   eta: float, omega_grid: np.ndarray) -> "Spectrum":
    """Reference S(q, omega): one Lorentzian per eigenstate, weight |q.p_k|^2."""
    from .spectrum import Spectrum
    omega = np.asarray(omega_grid, dtype=float)
    projected = (q.qx * trans.component("x") + q.qy * trans.component("y")
                 + q.qz * trans.component("z"))
    return Spectrum(omega, _lorentzian_sum(eig, np.abs(projected) ** 2, eta, omega),
                    eta, kind="dsf", label=f"q=({q.qx},{q.qy},{q.qz})")


# ---------------------------------------------------------------------------
# JSON export for regression fixtures
# ---------------------------------------------------------------------------

def eigensystem_to_json(eig: EigenSystem) -> str:
    return json.dumps({
        "n_orbitals": eig.n_orbitals,
        "basis": [[det.occ_alpha, det.occ_beta] for det in eig.basis],
        "energies": eig.energies.tolist(),
        "coeffs": eig.coeffs.tolist(),
    }, sort_keys=True)


def eigensystem_from_json(text: str) -> EigenSystem:
    doc = json.loads(text)
    basis = tuple(Determinant(int(a), int(b)) for a, b in doc["basis"])
    return EigenSystem(int(doc["n_orbitals"]), basis,
                       np.array(doc["energies"]), np.array(doc["coeffs"]))
