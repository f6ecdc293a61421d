"""Exact-diagonalization reference built from Slater-Condon rules.

Matrix elements are generated per row by enumerating single and double
excitations of each determinant, with fermionic signs accumulated by
applying ``ci.ladder`` in sequence (the ascending-qubit convention of the
CI module, which also enumerates the sector as sorted occupation words).
Everything here is an independent route against which the qubit-side
machinery is certified.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .ci import (CIVector, NonFiniteValue, check_dense, cvs_mask, is_number, ladder, number_array,
                 place_on_sector, sector_dimension, sector_words, spin_counts, spin_masks, word)
from .operators import DipoleOperator, Hamiltonian, QVector
from .spectrum import Spectrum

GRAM_TOL = 1e-10


def _occupied_spin_orbitals(det: int) -> list[int]:
    out = []
    while det:
        low = det & -det
        out.append(low.bit_length() - 1)
        det ^= low
    return out


class _SlaterCondon:
    """Row generator for <D'|H|D> in a fixed sector basis of occupation words."""

    def __init__(self, h: Hamiltonian, basis: list[int]):
        self.n = h.n_orbitals
        if len({spin_counts(det, self.n) for det in basis}) > 1:
            raise ValueError("basis mixes (N_e, S_z) sectors")
        self.h_eff = h.core_one_body()
        self.g = h.two_body
        self.two_body = bool(np.any(self.g))   # else one-body: no g sums, no doubles
        self.offset = h.offset
        self.index = {det: i for i, det in enumerate(basis)}

    def diagonal(self, det: int) -> float:
        occ = _occupied_spin_orbitals(det)
        val = self.offset
        for so_m in occ:
            val += self.h_eff[so_m >> 1, so_m >> 1]
        for so_m, so_n in itertools.combinations(occ, 2) if self.two_body else ():
            pm, pn = so_m >> 1, so_n >> 1
            val += self.g[pm, pm, pn, pn]
            if (so_m ^ so_n) & 1 == 0:  # same spin also gets exchange
                val -= self.g[pm, pn, pn, pm]
        return float(val)

    def row(self, det: int):
        """Yield (column index, element) for all connected determinants."""
        occ = _occupied_spin_orbitals(det)
        virt = [so for so in range(2 * self.n) if not (det >> so) & 1]
        yield self.index[det], self.diagonal(det)
        # singles: m -> e, same spin
        for so_m in occ:
            s1, w1 = ladder(det, so_m)
            pm = so_m >> 1
            for so_e in virt:
                if (so_e ^ so_m) & 1:
                    continue
                pe = so_e >> 1
                s2, w2 = ladder(w1, so_e)
                val = self.h_eff[pe, pm]
                for so_o in occ if self.two_body else ():
                    if so_o == so_m:
                        continue
                    po = so_o >> 1
                    val += self.g[pe, pm, po, po]
                    if (so_o ^ so_m) & 1 == 0:
                        val -= self.g[pe, po, po, pm]
                if val != 0.0:
                    yield self.index[w2], s1 * s2 * val
        # doubles: (m < n) -> (e < f), spin content preserved
        for so_m, so_n in itertools.combinations(occ, 2) if self.two_body else ():
            s1, w1 = ladder(det, so_m)
            s2, w2 = ladder(w1, so_n)
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
                s3, w3 = ladder(w2, so_f)
                s4, w4 = ladder(w3, so_e)
                yield self.index[w4], s1 * s2 * s3 * s4 * val


def apply_one_body(m: np.ndarray, v: CIVector) -> CIVector:
    """Apply ``sum_{pq,s} m[p,q] a+_{ps} a_{qs}`` (``m`` symmetric) to a CI vector, on
    its basis: each word's amplitude is its Slater-Condon row summed against ``v``."""
    m = np.asarray(m, dtype=float)
    n = v.n_orbitals
    if m.shape != (n, n):
        raise ValueError("operator dimension does not match CI vector")
    words = v.basis.tolist()
    gen = _SlaterCondon(Hamiltonian(0.0, m, np.zeros((n,) * 4)), words)
    amps = v.amplitudes.tolist()
    out = [sum(val * amps[j] for j, val in gen.row(det)) for det in words]
    return CIVector(n, v.basis, np.array(out, dtype=complex))


def build_ci_matrix(h: Hamiltonian, basis) -> np.ndarray:
    """Dense symmetric CI Hamiltonian over one sector's occupation words ``basis``."""
    basis = [int(det) for det in basis]
    gen = _SlaterCondon(h, basis)
    mat = np.zeros((len(basis), len(basis)))
    for i, det in enumerate(basis):
        for j, val in gen.row(det):
            mat[i, j] = val
    return mat


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of a CI sector; column k of ``coeffs`` is eigenvector k."""

    n_orbitals: int
    basis: np.ndarray    # sorted occupation words of the sector, int64
    energies: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if not (np.all(np.isfinite(self.energies)) and np.all(np.isfinite(self.coeffs))):
            raise NonFiniteValue("non-finite energies or coefficients")
        if np.any(np.diff(self.energies) < -1e-12):
            raise ValueError("energies must be ascending")
        if self.coeffs.shape != (len(self.basis), len(self.energies)):
            raise ValueError(f"coeffs have shape {self.coeffs.shape}, not "
                             f"(len(basis), len(energies)) = "
                             f"({len(self.basis)}, {len(self.energies)})")
        gram = self.coeffs.T @ self.coeffs
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > GRAM_TOL:
            raise ValueError("eigenvectors are not orthonormal")

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    @property
    def n_states(self) -> int:
        return self.coeffs.shape[1]

    def eigenvector(self, k: int) -> CIVector:
        return CIVector(self.n_orbitals, self.basis, self.coeffs[:, k].astype(complex))


def _phase_fix(coeffs: np.ndarray) -> np.ndarray:
    out = coeffs.copy()
    for k in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, k]))
        if out[lead, k] < 0:
            out[:, k] = -out[:, k]
    return out


def solve_sector(h: Hamiltonian, n_alpha: int, n_beta: int) -> EigenSystem:
    """Full diagonalization of one sector (dense; desk-scale dimensions).

    A sector over ``ci.DENSE_CAP`` states raises ``ci.SectorTooLarge`` before
    it is enumerated.
    """
    check_dense(sector_dimension(h.n_orbitals, n_alpha, n_beta))
    basis = sector_words(h.n_orbitals, n_alpha, n_beta)
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
    return EigenSystem(h.n_orbitals, basis, energies, _phase_fix(coeffs))


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


def transition_table(eig: EigenSystem, dipole: DipoleOperator,
                     core_orbitals=()) -> TransitionTable:
    """Dipole transitions out of the ground state; ``eig.basis`` sorted by word.
    Each mu_a |Psi_0> keeps the words ``ci.cvs_mask`` keeps for ``core_orbitals``."""
    psi0 = eig.eigenvector(0)
    vecs = np.zeros((3, len(eig.basis)))   # mu_a |Psi_0> on the basis, one row per axis
    for i, axis in enumerate("xyz"):   # a symmetry-forbidden channel is a zero row
        vecs[i] = apply_one_body(dipole.component(axis), psi0).amplitudes.real
    vecs[:, ~cvs_mask(eig.basis, core_orbitals, eig.n_orbitals)] = 0.0
    return TransitionTable(vecs @ eig.coeffs, vecs @ vecs.T)


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
                    eta: float, omega_grid: np.ndarray) -> Spectrum:
    """Lorentzian-broadened intensity function for one Cartesian pair."""
    omega = np.asarray(omega_grid, dtype=float)
    weights = trans.component(pair[0]) * trans.component(pair[1])
    return Spectrum(omega, _lorentzian_sum(eig, weights, eta, omega), eta,
                    kind="intensity", label=pair)


def exact_spectrum(eig: EigenSystem, trans: TransitionTable, q: QVector,
                   eta: float, omega_grid: np.ndarray) -> Spectrum:
    """Reference S(q, omega): one Lorentzian per eigenstate, weight |q.p_k|^2."""
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
        "basis": [list(spin_masks(det)) for det in eig.basis.tolist()],
        "energies": eig.energies.tolist(),
        "coeffs": eig.coeffs.tolist(),
    }, sort_keys=True)


def eigensystem_from_json(text: str, n_orbitals: int | None = None) -> EigenSystem:
    """An eigensystem file, its ``coeffs`` rows placed on the sector of its basis
    (``ci.place_on_sector``); ValueError unless its orbital count is
    ``n_orbitals`` when that is given."""
    doc = json.loads(text)
    count, masks = doc["n_orbitals"], [(a, b) for a, b in doc["basis"]]
    if not is_number(count, integer=True):
        raise TypeError(f"n_orbitals must be a JSON integer, not {count!r}")
    if n_orbitals is not None and count != n_orbitals:
        raise ValueError(f"n_orbitals is {count}, not {n_orbitals}")
    words = [word(a, b) for a, b in number_array(masks, integer=True).tolist()]
    coeffs = number_array(doc["coeffs"])
    if coeffs.ndim != 2 or len(coeffs) != len(words):
        raise ValueError(f"coeffs have shape {coeffs.shape}, not one row per basis entry "
                         f"({len(words)})")
    basis, coeffs = place_on_sector(count, words, coeffs)
    return EigenSystem(count, basis, number_array(doc["energies"]), coeffs)
