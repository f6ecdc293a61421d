import itertools

import numpy as np
import pytest

from dsfsim import fixtures, oracle, pauli
from dsfsim.ci import CIVector, Determinant
from dsfsim.operators import Hamiltonian, QVector, jordan_wigner
from dsfsim.oracle import (EigenSystem, build_ci_matrix, eigensystem_from_json,
                           eigensystem_to_json, exact_greens, exact_intensity,
                           exact_spectrum, ground_state, sector_basis,
                           solve_sector, transition_table)


def test_sector_basis_counts():
    assert len(sector_basis(4, 2, 2)) == 36
    assert len(sector_basis(3, 1, 0)) == 3


def test_single_determinant_matrix(two_orb):
    basis = [Determinant(0b11, 0b00)]
    mat = build_ci_matrix(two_orb.h, basis)
    assert mat.shape == (1, 1)
    # independent zero-difference evaluation on spatial orbitals 0 and 1
    h_eff = two_orb.h.core_one_body()
    g = two_orb.h.two_body
    expected = (two_orb.h.offset + h_eff[0, 0] + h_eff[1, 1]
                + g[0, 0, 1, 1] - g[0, 1, 1, 0])
    assert mat[0, 0] == pytest.approx(expected, abs=1e-12)


def test_diagonal_elements_zero_difference_formula():
    """Diagonals match an independently coded occupancy-sum evaluation."""
    h, _ = fixtures.generate(fixtures.THREE_ORBITAL_SPEC)
    basis = sector_basis(3, 2, 1)
    mat = build_ci_matrix(h, basis)
    h_eff = h.core_one_body()
    g = h.two_body
    for i, det in enumerate(basis):
        spin_orbs = [(p, 0) for p in range(3) if (det.occ_alpha >> p) & 1] + \
                    [(p, 1) for p in range(3) if (det.occ_beta >> p) & 1]
        value = h.offset + sum(h_eff[p, p] for p, _ in spin_orbs)
        for (p, sp), (q, sq) in itertools.combinations(spin_orbs, 2):
            value += g[p, p, q, q]
            if sp == sq:
                value -= g[p, q, q, p]
        assert mat[i, i] == pytest.approx(value, abs=1e-12)


def test_sector_matrix_matches_jw_restriction(two_orb):
    dense = pauli.pauli_sum_dense(jordan_wigner(two_orb.h))
    basis = sector_basis(2, 1, 1)
    idx = [det.interleaved() for det in basis]
    restricted = dense[np.ix_(idx, idx)].real
    mat = build_ci_matrix(two_orb.h, basis)
    assert np.max(np.abs(mat - restricted)) < 1e-10


def test_mixed_sector_rejected(two_orb):
    basis = [Determinant(0b01, 0b01), Determinant(0b11, 0b00)]
    with pytest.raises(ValueError, match="sector"):
        build_ci_matrix(two_orb.h, basis)


def test_eigen_residuals(two_orb):
    mat = build_ci_matrix(two_orb.h, list(two_orb.eig.basis))
    scale = np.linalg.norm(mat, 2)
    for k in range(two_orb.eig.n_states):
        vec = two_orb.eig.coeffs[:, k]
        resid = np.linalg.norm(mat @ vec - two_orb.eig.energies[k] * vec)
        assert resid <= 1e-9 * max(scale, 1.0)


def test_ground_state_offset_only_tie_break():
    h = Hamiltonian(-0.5, np.zeros((2, 2)), np.zeros((2,) * 4))
    psi = ground_state(h, (1, 1))
    basis = sector_basis(2, 1, 1)
    # degenerate spectrum: documented tie-break keeps the lowest-index determinant
    assert psi.entries == {basis[0]: pytest.approx(1.0)}
    eig = solve_sector(h, 1, 1)
    assert np.all(eig.energies == -0.5)


def test_ground_state_rayleigh_quotient(two_orb):
    mat = build_ci_matrix(two_orb.h, list(two_orb.eig.basis))
    vec = two_orb.eig.coeffs[:, 0]
    rq = float(vec @ mat @ vec)
    assert rq == pytest.approx(two_orb.eig.ground_energy, abs=1e-10)


def test_ground_state_matches_jw_diagonalization(two_orb):
    dense = pauli.pauli_sum_dense(jordan_wigner(two_orb.h))
    basis = sector_basis(2, 1, 1)
    idx = [det.interleaved() for det in basis]
    evals = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
    assert two_orb.eig.ground_energy == pytest.approx(evals[0], abs=1e-10)


def test_ground_state_phase_fixed(two_orb):
    lead = max(two_orb.psi0.entries.values(), key=abs)
    assert lead.real > 0 and lead.imag == 0


def test_sparse_path_matches_dense():
    h, _ = fixtures.generate(fixtures.CORE_VALENCE_SPEC)
    dense_psi = ground_state(h, (2, 2))
    sparse_psi = ground_state(h, (2, 2), dense_cap=10)  # force iterative path
    ov = sum(np.conj(dense_psi.entries[d]) * a for d, a in sparse_psi.entries.items()
             if d in dense_psi.entries)
    assert abs(abs(ov) - 1.0) < 1e-8


def test_sparse_path_is_reproducible():
    """Two iterative solves in one process give bit-equal amplitudes."""
    spec = fixtures.ModelSpec(n_orbitals=5, n_electrons=4, seed=5)
    h, _ = fixtures.generate(spec)
    first = ground_state(h, (2, 2), dense_cap=10)
    assert ground_state(h, (2, 2), dense_cap=10).entries == first.entries


def test_ground_state_cap():
    h, _ = fixtures.generate(fixtures.CORE_VALENCE_SPEC)
    with pytest.raises(ValueError, match="cap"):
        ground_state(h, (2, 2), cap=10)


def test_transition_completeness(toy):
    sums = np.einsum("ak,bk->ab", toy.trans.table, toy.trans.table)
    assert np.max(np.abs(sums - toy.states.moments)) < 1e-10


def test_exact_spectrum_zero_dipole(toy):
    zeros = oracle.TransitionTable(np.zeros_like(toy.trans.table), np.zeros((3, 3)))
    grid = np.linspace(0, 5, 50)
    spec = exact_spectrum(toy.eig, zeros, QVector(1, 1, 1), 0.05, grid)
    assert np.all(spec.values == 0.0)


def test_exact_spectrum_single_lorentzian():
    """One transition: peak height |q.p|^2/(pi eta) at the line position."""
    basis = (Determinant(0b01, 0b01), Determinant(0b10, 0b10))
    eig = EigenSystem(2, basis, np.array([0.0, 1.5]), np.eye(2))
    table = np.zeros((3, 2))
    table[0, 1] = 0.8  # x-polarized transition to state 1
    moments = np.zeros((3, 3))
    moments[0, 0] = 0.64
    trans = oracle.TransitionTable(table, moments)
    eta = 0.04
    grid = np.array([1.5 - eta, 1.5, 1.5 + eta])
    spec = exact_spectrum(eig, trans, QVector(2.0, 0.0, 0.0), eta, grid)
    peak = (2.0 * 0.8) ** 2 / (np.pi * eta)
    assert spec.values[1] == pytest.approx(peak, rel=1e-12)
    assert spec.values[0] == pytest.approx(peak / 2, rel=1e-12)  # half width


def test_exact_spectrum_nonnegative(toy):
    grid = np.linspace(0, toy.delta, 400)
    spec = exact_spectrum(toy.eig, toy.trans, QVector(0.3, -1.2, 0.7), toy.eta, grid)
    assert np.all(spec.values >= 0.0)


def test_exact_greens_n_zero_is_moment(toy):
    for pair in ("xx", "xy", "yz"):
        got = exact_greens(toy.eig, toy.trans, pair, 0.3, 0)
        assert got.real == pytest.approx(toy.states.moment0(pair), abs=1e-10)
        assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_exact_greens_hermitian_symmetry(toy):
    for n in (1, 5):
        fwd = exact_greens(toy.eig, toy.trans, "xy", 0.3, n)
        bwd = exact_greens(toy.eig, toy.trans, "xy", 0.3, -n)
        assert np.conj(bwd) == pytest.approx(fwd, abs=1e-12)


def test_exact_intensity_matches_axis_spectrum(toy):
    grid = np.linspace(18, 22, 300)
    ixx = exact_intensity(toy.eig, toy.trans, "xx", toy.eta, grid)
    sq = exact_spectrum(toy.eig, toy.trans, QVector(1.0, 0.0, 0.0), toy.eta, grid)
    assert np.max(np.abs(ixx.values - sq.values)) < 1e-12


def test_eigensystem_json_round_trip(two_orb):
    back = eigensystem_from_json(eigensystem_to_json(two_orb.eig))
    assert np.array_equal(back.energies, two_orb.eig.energies)
    assert np.array_equal(back.coeffs, two_orb.eig.coeffs)
    assert back.basis == two_orb.eig.basis


def test_eigensystem_validates_orthonormality():
    basis = (Determinant(0b01, 0b01), Determinant(0b10, 0b10))
    with pytest.raises(ValueError, match="orthonormal"):
        EigenSystem(2, basis, np.array([0.0, 1.0]), np.array([[1.0, 0.5],
                                                              [0.0, 1.0]]))
