"""The array-built sector Hamiltonian against the loops it replaced, bit for bit.

``oracle.build_ci_matrix`` and ``oracle.apply_one_body`` build a sector's
Slater-Condon entries for a block of determinants at once, and
``emulator._couplings`` sums the words of many X-mask groups in one pass of
arrays.  Both keep every accumulation order of the per-row generator and the
per-word ``sum`` kept here as references, so the bytes must match: a pairwise
or ``reduceat`` sum moves them.
"""
import itertools

import numpy as np
import pytest

from dsfsim import emulator, fixtures, oracle
from dsfsim.ci import CIVector, sector_words, spin_counts, word
from dsfsim.operators import Hamiltonian, jordan_wigner, one_body_to_pauli
from dsfsim.pauli import word_phases


def ladder(word: int, so: int) -> tuple[float, int]:
    """Sign and word of a_so on a word that occupies ``so``, or of a+_so on one
    that does not: (-1)^(occupied spin orbitals below so), and bit so flipped."""
    below = (word & ((1 << so) - 1)).bit_count()
    return (-1.0 if below & 1 else 1.0), word ^ (1 << so)


def _occupied_spin_orbitals(det: int) -> list[int]:
    out = []
    while det:
        low = det & -det
        out.append(low.bit_length() - 1)
        det ^= low
    return out


class ReferenceSlaterCondon:
    """The per-row generator the array build replaced: (column, element) of each
    connected determinant, one row at a time."""

    def __init__(self, h: Hamiltonian, basis: list[int]):
        self.n = h.n_orbitals
        if len({spin_counts(det, self.n) for det in basis}) > 1:
            raise ValueError("basis mixes (N_e, S_z) sectors")
        self.h_eff = h.core_one_body()
        self.g = h.two_body
        self.two_body = bool(np.any(self.g))
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
            if (so_m ^ so_n) & 1 == 0:
                val -= self.g[pm, pn, pn, pm]
        return float(val)

    def row(self, det: int):
        occ = _occupied_spin_orbitals(det)
        virt = [so for so in range(2 * self.n) if not (det >> so) & 1]
        yield self.index[det], self.diagonal(det)
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


def reference_ci_matrix(h: Hamiltonian, basis) -> np.ndarray:
    basis = [int(det) for det in basis]
    gen = ReferenceSlaterCondon(h, basis)
    mat = np.zeros((len(basis), len(basis)))
    for i, det in enumerate(basis):
        for j, val in gen.row(det):
            mat[i, j] = val
    return mat


def reference_one_body(m: np.ndarray, v: CIVector) -> np.ndarray:
    n = v.n_orbitals
    words = v.basis.tolist()
    gen = ReferenceSlaterCondon(Hamiltonian(0.0, m, np.zeros((n,) * 4)), words)
    amps = v.amplitudes.tolist()
    return np.array([sum(val * amps[j] for j, val in gen.row(det)) for det in words],
                    dtype=complex)


def reference_couplings(terms, basis: np.ndarray) -> list:
    groups: dict[int, list[tuple[int, float]]] = {}
    for coeff, x, z in terms:
        groups.setdefault(x, []).append((z, coeff))
    out = []
    for x, words in groups.items():
        src = basis ^ x
        partner = np.minimum(np.searchsorted(basis, src), len(basis) - 1)
        inside = basis[partner] == src
        g = sum(coeff * word_phases(src, x, z) for z, coeff in words)
        rows = np.flatnonzero(inside & (g != 0))
        out.append((rows, partner[rows], g[rows]))
    return out


def assert_same_couplings(terms, basis: np.ndarray) -> None:
    got, want = emulator._couplings(terms, basis), reference_couplings(terms, basis)
    assert len(got) == len(want)
    for group, ref in zip(got, want):
        for a, b in zip(group, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_matrix(h: Hamiltonian, basis) -> None:
    assert oracle.build_ci_matrix(h, basis).tobytes() == reference_ci_matrix(h, basis).tobytes()


def assert_same_builds(h: Hamiltonian, dipole, basis: np.ndarray, seed: int) -> None:
    """CI matrix, the three dipole rotations of a random complex vector, the
    Hamiltonian's and each dipole's couplings, all on ``basis``."""
    assert_same_matrix(h, basis)
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    v = CIVector(h.n_orbitals, basis, amplitudes)
    for axis in "xyz":
        m = dipole.component(axis)
        got = oracle.apply_one_body(m, v).amplitudes
        assert got.tobytes() == reference_one_body(m, v).tobytes()
        assert_same_matrix(Hamiltonian(0.0, m, np.zeros((h.n_orbitals,) * 4)), basis)
        assert_same_couplings(one_body_to_pauli(m).terms, basis)
    assert_same_couplings(jordan_wigner(h).terms, basis)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_sector_is_built_bit_for_bit(n):
    """Every (N_alpha, N_beta) on 1-4 orbitals, the empty and full sectors too, on a
    random model's Hamiltonian, its dipoles and its JW sum."""
    h, dipole = fixtures.generate(fixtures.ModelSpec(n, n, seed=n))
    for n_alpha, n_beta in itertools.product(range(n + 1), repeat=2):
        assert_same_builds(h, dipole, sector_words(n, n_alpha, n_beta), seed=n_alpha + 5 * n_beta)


@pytest.mark.parametrize("spec", [fixtures.CORE_VALENCE_SPEC, fixtures.DIAGONAL_SPEC],
                         ids=lambda spec: spec.kind)
def test_cvs_toy_and_one_body_model_are_built_bit_for_bit(spec):
    h, dipole = fixtures.generate(spec)
    assert_same_builds(h, dipole, sector_words(spec.n_orbitals, *spec.sector), seed=1)


def test_register_couplings_are_built_bit_for_bit():
    """``apply_trotter`` and ``program_unitary`` couple the whole register; on 5
    orbitals (1,024 words) the X-mask groups take several passes."""
    h, dipole = fixtures.generate(fixtures.ModelSpec(5, 4, seed=5))
    register = np.arange(1 << 2 * h.n_orbitals)
    assert len({x for _, x, _ in jordan_wigner(h).terms}) > (1 << 14) // len(register)
    assert_same_couplings(jordan_wigner(h).terms, register)
    assert_same_couplings(one_body_to_pauli(dipole.x).terms, register)


def test_unsorted_and_partial_bases_are_built_bit_for_bit():
    """A basis in any order, one determinant, a repeated word (its last position
    is its column), none, or a closed part of a sector."""
    h, _ = fixtures.generate(fixtures.THREE_ORBITAL_SPEC)
    words = sector_words(3, 2, 1)
    for basis in ([word(0b111, 0b000)], sector_words(3, 1, 1)[::-1],
                  np.random.default_rng(3).permutation(words).tolist(), [*words, words[2]], []):
        assert_same_matrix(h, basis)
    diagonal, _ = fixtures.generate(fixtures.DIAGONAL_SPEC)
    assert_same_matrix(diagonal, sector_words(3, *fixtures.DIAGONAL_SPEC.sector)[::3])


def test_partial_basis_whose_excitations_leave_it_is_refused(two_orb):
    basis = sector_words(2, 1, 1)[:3]
    with pytest.raises(KeyError):
        reference_ci_matrix(two_orb.h, basis)
    with pytest.raises(ValueError, match="leaves out a determinant"):
        oracle.build_ci_matrix(two_orb.h, basis)
    v = CIVector(2, basis, np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="leaves out a determinant"):
        oracle.apply_one_body(two_orb.dipole.x, v)
