"""Exact-diagonalization reference built from Slater-Condon rules.

Matrix elements are built for a block of determinants at once, as numpy
arrays over each determinant's single and double excitations.  A ladder
operator on spin orbital so carries (-1)^(occupied spin orbitals below so),
applied in sequence (the ascending-qubit convention of the CI module, which
also enumerates the sector as sorted occupation words).
Everything here is an independent route against which the qubit-side
machinery is certified.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .ci import (CIVector, NonFiniteValue, check_dense, cvs_mask, is_number, number_array,
                 place_on_sector, sector_dimension, sector_words, spin_counts, spin_masks, word)
from .operators import DipoleOperator, Hamiltonian, QVector
from .spectrum import Spectrum

GRAM_TOL = 1e-10


def _spin_orbitals(det: int, count: int) -> tuple[list, list, list, complex]:
    """A word's occupied and empty spin orbitals in ascending order, for each spin
    orbital so the sign (-1)^(occupied spin orbitals below so) of a ladder operator
    on it, and its key (alpha mask) + i (beta mask)."""
    occ, virt, signs, sign, masks = [], [], [], 1, [0, 0]
    for so in range(count):
        signs.append(sign)
        if det >> so & 1:
            occ.append(so)
            sign = -sign
            masks[so & 1] |= 1 << (so >> 1)
        else:
            virt.append(so)
    return occ, virt, signs, complex(*masks)


def _pairs(count: int) -> np.ndarray:
    """(first, second) index arrays of the pairs i < j below ``count``, in
    ``combinations`` order."""
    return np.array(list(itertools.combinations(range(count), 2)), dtype=np.int64).reshape(-1, 2).T


class _SlaterCondon:
    """<D'|H|D> over a basis of occupation words from one sector, a block of rows D at a time.

    Each row's slots are its diagonal, each single m -> e, then each double
    (m < n) -> (e < f), for m, n occupied and e, f virtual in ascending order; a
    slot holds an entry when its element is nonzero (the diagonal always does).
    Terms add in the Slater-Condon sums' order: the offset, each h_eff[p,p], then
    each pair in ``combinations`` order; h_eff[e,m], then each other occupied
    orbital's g terms; a double is g_emfn - g_enfm, with a_m, a_n, a+_f, a+_e in
    turn.  A determinant is looked up by its key (alpha mask) + i (beta mask),
    exact in floats.  Signs, keys and columns are worked out for the entries
    alone, and numpy does no integer arithmetic or comparison here: each such
    kernel a process first runs maps 64-128 kB more of numpy's code.  The
    constructor makes the per-word pass over the basis; ``use`` binds the
    Hamiltonian, so operators on one basis share the pass.
    """

    def __init__(self, n_orbitals: int, basis: list[int]):
        self.n = n_orbitals
        if len({spin_counts(det, self.n) for det in basis}) > 1:
            raise ValueError("basis mixes (N_e, S_z) sectors")
        count = 2 * self.n   # spin orbitals, and the index of a dummy one that stands for none
        self.orbital = np.array([so >> 1 for so in range(count)])
        self.spin = np.array([float(so & 1) for so in range(count)])
        # a -> b moves a key by bit(b) - bit(a); a+_b after a_a counts a below b if a < b
        bits = [(1j if so & 1 else 1) * (1 << (so >> 1)) for so in range(count)] + [0]
        self.move = np.array([[b - a for b in bits] for a in bits])
        self.before = np.array([[-1.0 if a < b < count else 1.0 for b in range(count + 1)]
                                for a in range(count + 1)])
        self.n_occ = basis[0].bit_count() if basis else 0
        self.n_virt = count - self.n_occ
        self.occ = np.full((len(basis), self.n_occ + 1), count, dtype=np.int64)
        self.virt = np.full((len(basis), self.n_virt + 1), count, dtype=np.int64)
        self.sign = np.ones((len(basis), count + 1))
        self.keys = np.empty(len(basis), dtype=complex)
        self.row = np.arange(len(basis))
        for i, det in enumerate(basis):   # one word's lists at a time
            (self.occ[i, :-1], self.virt[i, :-1], self.sign[i, :-1],
             self.keys[i]) = _spin_orbitals(det, count)
        self.index = {key: i for i, key in enumerate(self.keys.tolist())}   # the last repeat wins

    def use(self, h: Hamiltonian) -> "_SlaterCondon":
        """Bind the Hamiltonian whose rows ``blocks`` yields; the per-word pass of
        the basis is kept, so several operators on one basis share it."""
        self.h_eff = h.core_one_body()
        self.g = h.two_body
        self.two_body = bool(np.any(self.g))   # else one-body: no g sums, no doubles
        self.offset = h.offset
        self.diagonal = self._diagonal(self.occ[:, :-1])
        # each slot's two occupied and two virtual positions; n_occ and n_virt stand for none
        singles = [(a, b) for a in range(self.n_occ) for b in range(self.n_virt)]
        doubles = itertools.product(zip(*_pairs(self.n_occ)), zip(*_pairs(self.n_virt)))
        self.slot = np.array([(self.n_occ, self.n_occ, self.n_virt, self.n_virt)]
                             + [(a, self.n_occ, b, self.n_virt) for a, b in singles]
                             + [(a, b, e, f) for (a, b), (e, f) in doubles if self.two_body],
                             dtype=np.int64).T
        self.slots = self.slot.shape[1]
        return self

    def blocks(self):
        """(rows, i, s, cols, vals) per block of rows: the row in the block, slot,
        column and element of each entry, in row order and slot order within a row.
        A block of d^2 / 16 slots (at least 512) takes about as much memory as the
        d x d matrix it fills."""
        d = len(self.keys)
        step = max(1, max(d * d // 16, 1 << 9) // self.slots)
        for start in range(0, d, step):
            rows = slice(start, start + step)
            vals = self._values(rows)
            present = vals != 0.0
            present[:, 0] = True
            i, s = np.nonzero(present)
            r, (o1, o2, v1, v2) = self.row[rows][i], self.slot[:, s]
            m, n, e, f = self.occ[r, o1], self.occ[r, o2], self.virt[r, v1], self.virt[r, v2]
            # a_m, then a_n (m < n), a+_f after both, a+_e after all three (e < f)
            sign = (self.sign[r, m] * self.sign[r, n] * self.before[m, n] * self.sign[r, f]
                    * self.before[m, f] * self.before[n, f] * self.sign[r, e]
                    * self.before[m, e] * self.before[n, e])
            cols = self.columns(self.keys[r] + self.move[m, e] + self.move[n, f])
            yield rows, i, s, cols, sign * vals[i, s]

    def columns(self, keys: np.ndarray) -> np.ndarray:
        """The basis position of each key; ValueError if one is not in the basis."""
        cols = list(map(self.index.get, keys.tolist()))
        if None in cols:
            raise ValueError("the basis leaves out a determinant it is coupled to")
        return np.array(cols, dtype=np.int64)

    def _values(self, rows: slice) -> np.ndarray:
        """Each slot's element up to its ladder sign, shape (rows, slots)."""
        occ, virt = self.occ[rows, :-1], self.virt[rows, :-1]
        vals = np.empty((len(occ), self.slots))
        vals[:, 0] = self.diagonal[rows]
        m, e = occ[:, :, None], virt[:, None, :]   # singles m -> e, as (row, m, e)
        pm, pe = self.orbital[m], self.orbital[e]
        val = self.h_eff[pe, pm]
        for k in range(self.n_occ) if self.two_body else ():   # each other occupied o
            o = occ[:, k, None, None]
            po, other = self.orbital[o], np.array([[j != k] for j in range(self.n_occ)])
            val = val + np.where(other, self.g[pe, pm, po, po], 0.0)
            val = val - np.where(other & (self.spin[o] == self.spin[m]),
                                 self.g[pe, po, po, pm], 0.0)
        at = 1 + val[0].size
        vals[:, 1:at] = np.where(self.spin[m] == self.spin[e], val, 0.0).reshape(len(occ), -1)
        if self.two_body:   # doubles (m < n) -> (e < f), as (row, (m, n), (e, f))
            (mi, ni), (ei, fi) = _pairs(self.n_occ), _pairs(self.n_virt)
            m, n, e, f = occ[:, mi, None], occ[:, ni, None], virt[:, None, ei], virt[:, None, fi]
            pm, pn, pe, pf = self.orbital[m], self.orbital[n], self.orbital[e], self.orbital[f]
            sm, sn, se, sf = self.spin[m], self.spin[n], self.spin[e], self.spin[f]
            vals[:, at:] = (np.where((se == sm) & (sf == sn), self.g[pe, pm, pf, pn], 0.0)
                            - np.where((se == sn) & (sf == sm), self.g[pe, pn, pf, pm], 0.0)
                            ).reshape(len(occ), -1)
        return vals

    def _diagonal(self, occ: np.ndarray) -> np.ndarray:
        p = self.orbital[occ]
        val = np.full(len(occ), self.offset, dtype=float)
        for k in range(self.n_occ):
            val += self.h_eff[p[:, k], p[:, k]]
        for k, l in itertools.combinations(range(self.n_occ), 2) if self.two_body else ():
            val += self.g[p[:, k], p[:, k], p[:, l], p[:, l]]
            val -= np.where(self.spin[occ[:, k]] == self.spin[occ[:, l]],   # same spin: exchange
                            self.g[p[:, k], p[:, l], p[:, l], p[:, k]], 0.0)
        return val


def _one_body_rows(words: _SlaterCondon, m: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """``sum_{pq,s} m[p,q] a+_{ps} a_{qs}`` (``m`` symmetric) applied to amplitudes on
    the basis of ``words``: each word's amplitude is its Slater-Condon row summed
    against them, entry by entry in slot order from 0."""
    m = np.asarray(m, dtype=float)
    n = words.n
    if m.shape != (n, n):
        raise ValueError("operator dimension does not match CI vector")
    gen = words.use(Hamiltonian(0.0, m, np.zeros((n,) * 4)))
    out = np.zeros(len(gen.keys), dtype=complex)
    for rows, i, s, cols, vals in gen.blocks():
        terms = np.zeros((len(out[rows]), gen.slots), dtype=complex)
        terms[i, s] = vals * amplitudes[cols]
        for slot in range(gen.slots):   # +0 where a row has no entry
            out[rows] += terms[:, slot]
    return out


def apply_one_body(m: np.ndarray, v: CIVector) -> CIVector:
    """Apply ``sum_{pq,s} m[p,q] a+_{ps} a_{qs}`` (``m`` symmetric) to a CI vector, on its basis."""
    words = _SlaterCondon(v.n_orbitals, v.basis.tolist())
    return CIVector(v.n_orbitals, v.basis, _one_body_rows(words, m, v.amplitudes))


def build_ci_matrix(h: Hamiltonian, basis) -> np.ndarray:
    """Dense symmetric CI Hamiltonian over one sector's occupation words ``basis``."""
    gen = _SlaterCondon(h.n_orbitals, [int(det) for det in basis]).use(h)
    mat = np.zeros((len(gen.keys), len(gen.keys)))
    for rows, i, _, cols, vals in gen.blocks():
        mat[rows][i, cols] = vals
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
    if np.count_nonzero(mat) == np.count_nonzero(np.diag(mat)):   # no copy lives through eigh
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
    words = _SlaterCondon(eig.n_orbitals, eig.basis.tolist())   # one pass for the three axes
    vecs = np.zeros((3, len(eig.basis)))   # mu_a |Psi_0> on the basis, one row per axis
    for i, axis in enumerate("xyz"):   # a symmetry-forbidden channel is a zero row
        vecs[i] = _one_body_rows(words, dipole.component(axis), psi0.amplitudes).real
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
