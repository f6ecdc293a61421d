from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from dsfsim import ci, emulator, fixtures
from dsfsim.emulator import (IMAG, REAL, STEP_COLUMNS, apply_trotter, build_trotter,
                             hadamard_test_via_ancilla, program_unitary,
                             sector_apply, sector_expectation)
from dsfsim.operators import QVector, jordan_wigner, one_body_to_pauli
from dsfsim.pauli import PauliSum, pauli_sum_dense
from dsfsim.spectrum import plan_run


def random_pauli_sum(n_qubits, n_terms, seed, with_identity=True):
    rng = np.random.default_rng(seed)
    terms = {}
    while len(terms) < n_terms:
        word = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        if set(word) == {"I"}:
            continue
        terms[word] = float(rng.normal(0, 0.4))
    out = [(c, w) for w, c in terms.items()]
    if with_identity:
        out.append((float(rng.normal()), "I" * n_qubits))
    return PauliSum.from_words(out, n_qubits)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def test_single_term_exact_for_any_k():
    psum = PauliSum.from_words([(0.8, "XZ")], 2)
    exact = scipy.linalg.expm(-1j * 0.8 * 1.3 * pauli_sum_dense(
        PauliSum.from_words([(1.0, "XZ")], 2)))
    for k in (1, 3, 8):
        u = program_unitary(build_trotter(psum, 1.3, k))
        assert np.max(np.abs(u - exact)) < 1e-12


def test_commuting_terms_independent_of_k():
    psum = PauliSum.from_words([(0.5, "ZI"), (-0.7, "IZ")], 2)
    u1 = program_unitary(build_trotter(psum, 0.9, 1))
    u8 = program_unitary(build_trotter(psum, 0.9, 8))
    exact = scipy.linalg.expm(-1j * 0.9 * pauli_sum_dense(psum))
    assert np.max(np.abs(u1 - u8)) < 1e-12
    assert np.max(np.abs(u1 - exact)) < 1e-12


def test_second_order_convergence_slope():
    psum = random_pauli_sum(4, 12, seed=5)
    exact = scipy.linalg.expm(-1j * pauli_sum_dense(psum) * 0.8)
    errs = [np.linalg.norm(program_unitary(build_trotter(psum, 0.8, k)) - exact, 2)
            for k in (1, 2, 4, 8)]
    slope = np.polyfit(np.log([1, 2, 4, 8]), np.log(errs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.1)


def test_apply_reps_zero_is_identity():
    psum = random_pauli_sum(3, 6, seed=6)
    prog = build_trotter(psum, 0.5, 2)
    state = random_state(3, 7)
    assert np.array_equal(apply_trotter(state, prog, 0), state)


def test_diagonal_eigenstate_phase():
    psum = PauliSum.from_words([(0.4, "ZI"), (0.3, "IZ"), (0.2, "II")], 2)
    prog = build_trotter(psum, 1.1, 3)
    state = np.zeros(4, dtype=complex)
    state[0b01] = 1.0  # Z eigenvalues: qubit0 -> -1, qubit1 -> +1
    energy = -0.4 + 0.3 + 0.2
    for n in (1, 4):
        evolved = apply_trotter(state, prog, n)
        expected = np.exp(-1j * energy * n * 1.1) * state
        assert np.max(np.abs(evolved - expected)) < 1e-12


def test_apply_matches_dense_exponential_within_budget():
    psum = random_pauli_sum(8, 30, seed=8)
    tau, k, reps = 0.6, 8, 5
    prog = build_trotter(psum, tau, k)
    exact_step = scipy.linalg.expm(-1j * pauli_sum_dense(psum) * tau)
    step_err = np.linalg.norm(program_unitary(prog) - exact_step, 2)
    state = random_state(8, 9)
    evolved = apply_trotter(state, prog, reps)
    reference = np.linalg.matrix_power(exact_step, reps) @ state
    assert np.linalg.norm(evolved - reference) <= reps * step_err + 1e-12


def test_norm_preserved():
    psum = random_pauli_sum(5, 20, seed=10)
    prog = build_trotter(psum, 0.9, 3)
    state = apply_trotter(random_state(5, 11), prog, 7)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_program_term_ordering_deterministic():
    psum = PauliSum.from_words([(0.1, "XY"), (0.2, "ZI"), (0.3, "IZ"),
                                (0.4, "YX"), (0.5, "ZZ")], 2)
    prog = build_trotter(psum, 1.0, 1)
    from dsfsim.pauli import masks_to_word
    words = [masks_to_word(x, z, 2) for _, x, z in prog.terms]
    assert words == ["IZ", "ZI", "ZZ", "XY", "YX"]  # diagonal block first


def test_dense_step_equals_statevector_path():
    psum = random_pauli_sum(6, 25, seed=12)
    prog = build_trotter(psum, 0.7, 2)
    state = random_state(6, 13)
    via_matrix = program_unitary(prog) @ state
    via_sweeps = apply_trotter(state, prog, 1)
    assert np.max(np.abs(via_matrix - via_sweeps)) < 1e-12


@pytest.mark.parametrize("model", ["toy", "two_orb"])
def test_sector_step_is_the_restricted_register_step(request, model):
    model = request.getfixturevalue(model)
    prog = model.program(plan_run(0.06, model.delta, 1e-2, 600, model.states.moments,
                                  [QVector(1.0, 1.0, 1.0)], k=4))
    basis = model.states.basis
    full = program_unitary(prog)[np.ix_(basis, basis)]
    assert np.max(np.abs(program_unitary(prog, basis) - full)) < 1e-13


def test_sector_step_refuses_non_conserving_sum():
    basis = ci.sector_words(2, 1, 1)
    amplitudes = np.full(len(basis), 0.5, dtype=complex)
    hop_alpha = PauliSum.from_words([(0.3, "XIII"), (-0.2, "ZZII")], 4)
    for psum in (random_pauli_sum(4, 12, seed=5), hop_alpha):
        with pytest.raises(ValueError, match="outside"):
            program_unitary(build_trotter(psum, 0.8, 2), basis)
        with pytest.raises(ValueError, match="outside"):
            sector_expectation(psum, basis, amplitudes)


def test_sector_expectation_matches_dense():
    """On the whole register H c is the dense sum's product, and the sector
    expectation is <c|H|c>."""
    psum = random_pauli_sum(4, 12, seed=6)
    state = random_state(4, 7)
    dense = pauli_sum_dense(psum)
    assert np.max(np.abs(sector_apply(psum, np.arange(16), state) - dense @ state)) < 1e-13
    assert sector_expectation(psum, np.arange(16), state) == pytest.approx(
        float(np.vdot(state, dense @ state).real), abs=1e-12)


@pytest.mark.parametrize("spec", [fixtures.TWO_ORBITAL_SPEC, fixtures.THREE_ORBITAL_SPEC,
                                  fixtures.CORE_VALENCE_SPEC, fixtures.DIAGONAL_SPEC],
                         ids=["two_orbital", "three_orbital", "core_valence", "diagonal"])
def test_sector_expectation_of_ground_state_is_ground_energy(spec):
    model = fixtures.solve(spec)
    basis = model.states.basis
    assert np.array_equal(model.psi0.basis, basis)
    amplitudes = model.psi0.amplitudes
    assert sector_expectation(jordan_wigner(model.h), basis, amplitudes) == pytest.approx(
        model.eig.ground_energy, abs=1e-12)


def test_step_matrix_chunks_keep_the_bits_of_one_sweep():
    """On the 225-state ``ModelSpec(6, 4, 1)`` sector, wider than ``STEP_COLUMNS``,
    the chunked half step equals one half sweep L of the whole identity, and the
    step is the phase times (L^T L)^k."""
    spec = fixtures.ModelSpec(6, 4, 1)
    h, _ = fixtures.generate(spec)
    basis = ci.sector_words(spec.n_orbitals, *spec.sector)
    assert len(basis) > STEP_COLUMNS
    prog = build_trotter(jordan_wigner(h), 0.5, 2)
    factors = emulator._group_factors(prog, basis)
    lower = emulator._half(np.eye(len(basis), dtype=complex), factors)
    assert np.array_equal(emulator._half_matrix(factors, len(basis)), lower)
    # A general product, as the step takes; numpy's own ``lower.T @ lower`` is a
    # symmetric rank-k update, which rounds differently.
    product = np.ascontiguousarray(lower.T) @ lower
    want = prog.phase_per_rep * np.linalg.matrix_power(product, prog.k)
    assert np.array_equal(program_unitary(prog, basis), want)


@pytest.mark.parametrize("spec", [fixtures.ModelSpec(6, 4, 1),
                                  fixtures.ModelSpec(4, 4, seed=57, kind=fixtures.CORE_VALENCE_TOY,
                                                     core_gap=20.0),
                                  fixtures.TWO_ORBITAL_SPEC, fixtures.THREE_ORBITAL_SPEC,
                                  fixtures.CORE_VALENCE_SPEC, fixtures.DIAGONAL_SPEC],
                         ids=["rand6", "toy4", "two_orbital", "three_orbital",
                              "core_valence", "diagonal"])
def test_jw_factor_couplings_equal_their_partners_bit_for_bit(spec):
    """A Jordan-Wigner sum has no odd-Y word, so each factor's row b and its
    partner b ^ x hold the same cos and coupling bits: the factor is symmetric."""
    h, _ = fixtures.generate(spec)
    prog = build_trotter(jordan_wigner(h), 0.37, 3)
    assert emulator._is_real(prog.terms)
    bases = [ci.sector_words(spec.n_orbitals, *spec.sector)]
    if spec.n_orbitals <= 3:
        bases.append(np.arange(1 << 2 * spec.n_orbitals))   # every sector at once
    for basis in bases:
        for rows, partner, cos, coupling in emulator._group_factors(prog, basis):
            position = np.full(len(basis), -1)
            position[rows] = np.arange(len(rows))
            mirror = position[partner]
            assert (mirror >= 0).all() and np.array_equal(partner[mirror], rows)
            assert cos[mirror].tobytes() == cos.tobytes()
            assert coupling[mirror].tobytes() == coupling.tobytes()


def test_odd_y_program_is_the_full_symmetric_sweep():
    """A sum with odd-Y words is not a real matrix; its step sweeps the reversed
    half as well and is the whole symmetric sweep to rounding."""
    psum = random_pauli_sum(5, 20, seed=26)
    prog = build_trotter(psum, 0.7, 3)
    assert not emulator._is_real(prog.terms)
    basis = np.arange(1 << 5)
    whole = emulator._sweep(np.eye(len(basis), dtype=complex),
                            emulator._group_factors(prog, basis))
    want = prog.phase_per_rep * np.linalg.matrix_power(whole, prog.k)
    assert np.max(np.abs(program_unitary(prog) - want)) < 1e-13


def test_is_real_counts_y_factors():
    assert emulator._is_real(PauliSum.from_words([(0.3, "XX"), (0.2, "YY"), (0.1, "ZI")], 2).terms)
    assert not emulator._is_real(PauliSum.from_words([(0.3, "XX"), (0.2, "XY")], 2).terms)
    assert not emulator._is_real(PauliSum.from_words([(0.2, "YYY")], 3).terms)


def test_real_program_sweeps_one_half(two_orb):
    """A Jordan-Wigner program builds its step from one half sweep, an odd-Y
    program from two."""
    real = build_trotter(jordan_wigner(two_orb.h), 0.5, 2)
    odd = build_trotter(random_pauli_sum(4, 12, seed=5), 0.5, 2)
    for prog, basis, halves in ((real, two_orb.states.basis, 1), (odd, None, 2)):
        with mock.patch.object(emulator, "_half_matrix",
                               wraps=emulator._half_matrix) as half:
            program_unitary(prog, basis)
        assert half.call_count == halves


def test_step_matrix_over_the_cap_is_refused():
    prog = build_trotter(random_pauli_sum(12, 3, seed=25), 0.5, 1)
    with pytest.raises(ci.SectorTooLarge):
        program_unitary(prog)


def test_hadamard_identity_overlap():
    psum = random_pauli_sum(3, 5, seed=14)
    prog = build_trotter(psum, 0.4, 1)
    a = random_state(3, 15)
    assert hadamard_test_via_ancilla(a, a, prog, 0, REAL) == pytest.approx(1.0, abs=1e-12)
    assert hadamard_test_via_ancilla(a, a, prog, 0, IMAG) == pytest.approx(0.0, abs=1e-12)


def test_hadamard_orthogonal_states():
    psum = random_pauli_sum(3, 5, seed=16)
    prog = build_trotter(psum, 0.4, 1)
    a = np.zeros(8, dtype=complex); a[0] = 1.0
    b = np.zeros(8, dtype=complex); b[3] = 1.0
    assert hadamard_test_via_ancilla(a, b, prog, 0, REAL) == pytest.approx(0.0, abs=1e-15)
    assert hadamard_test_via_ancilla(a, b, prog, 0, IMAG) == pytest.approx(0.0, abs=1e-15)


def test_hadamard_matches_eigendecomposition(two_orb):
    import math
    from dsfsim.oracle import exact_greens
    tau = math.pi / 2.2
    prog = build_trotter(two_orb.shifted, tau, 64)
    step_err = np.linalg.norm(
        program_unitary(prog)
        - scipy.linalg.expm(-1j * pauli_sum_dense(two_orb.shifted) * tau), 2)
    a = two_orb.states.vectors["x"]
    b = two_orb.states.vectors["y"]
    norms = two_orb.states.norm_product("xy")
    for n in (1, 3):
        got = (hadamard_test_via_ancilla(a, b, prog, n, REAL)
               + 1j * hadamard_test_via_ancilla(a, b, prog, n, IMAG)) * norms
        want = exact_greens(two_orb.eig, two_orb.trans, "xy", tau, n)
        assert abs(got - want) <= norms * (n * step_err + 1e-12)


def test_hadamard_rejects_unnormalized():
    psum = random_pauli_sum(2, 3, seed=17)
    prog = build_trotter(psum, 0.4, 1)
    bad = np.ones(4, dtype=complex)
    good = random_state(2, 18)
    with pytest.raises(ValueError, match="normalized"):
        hadamard_test_via_ancilla(bad, good, prog, 1, REAL)


def test_hadamard_rejects_unknown_component():
    psum = random_pauli_sum(2, 3, seed=17)
    prog = build_trotter(psum, 0.4, 1)
    a = random_state(2, 18)
    with pytest.raises(ValueError, match="which"):
        hadamard_test_via_ancilla(a, a, prog, 1, "phase")


def test_ancilla_circuit_equivalence():
    """The explicit (n+1)-qubit register measures Re and Im of <b|U^reps|a>."""
    psum = random_pauli_sum(4, 10, seed=19)
    prog = build_trotter(psum, 0.8, 2)
    a, b = random_state(4, 20), random_state(4, 21)
    for reps in (0, 1, 3):
        amplitude = np.vdot(b, apply_trotter(a, prog, reps))
        for which, value in ((REAL, amplitude.real), (IMAG, amplitude.imag)):
            assert hadamard_test_via_ancilla(a, b, prog, reps, which) == pytest.approx(
                value, abs=1e-12)


def test_global_phase_affects_hadamard():
    """Identity terms must reach the measurement record as phases."""
    base = PauliSum.from_words([(0.5, "ZI")], 2)
    shifted = base.shifted_identity(0.9)
    a = random_state(2, 22)
    v0 = hadamard_test_via_ancilla(a, a, build_trotter(base, 1.0, 1), 1, REAL)
    v1 = hadamard_test_via_ancilla(a, a, build_trotter(shifted, 1.0, 1), 1, REAL)
    assert abs(v0 - v1) > 0.1  # phase 0.9 rad must show up


def test_trotter_negative_tau_is_inverse():
    psum = random_pauli_sum(4, 12, seed=23)
    fwd = program_unitary(build_trotter(psum, 0.6, 3))
    bwd = program_unitary(build_trotter(psum, -0.6, 3))
    assert np.max(np.abs(bwd - fwd.conj().T)) < 1e-12


def test_build_rejects_bad_arguments():
    psum = random_pauli_sum(2, 3, seed=24)
    with pytest.raises(ValueError):
        build_trotter(psum, 0.5, 0)
    with pytest.raises(ValueError):
        build_trotter(psum, 0.0, 2)


def _per_group_factors(prog, basis):
    """The per-group loop that ``_group_factors`` replaced."""
    theta = 0.5 * prog.dt
    out = []
    for rows, partner, g in emulator._couplings(prog.terms, basis):
        g = g[:, None]
        r = np.abs(g)
        out.append((rows, partner, np.cos(theta * r), -1j * np.sin(theta * r) / r * g))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_group_factors_are_the_per_group_loop_bit_for_bit(n):
    """Factors of a JW program and of a dipole's program on every sector of 1-4
    orbitals, and on the 5-orbital register, whose rows take several passes."""
    h, dipole = fixtures.generate(fixtures.ModelSpec(n, n, seed=n))
    bases = ([np.arange(1 << 2 * n)] if n == 5 else
             [ci.sector_words(n, a, b) for a in range(n + 1) for b in range(n + 1)])
    for psum in (jordan_wigner(h), one_body_to_pauli(dipole.x)):
        prog = build_trotter(psum, 0.37, 3)
        for basis in bases:
            got, want = emulator._group_factors(prog, basis), _per_group_factors(prog, basis)
            assert len(got) == len(want)
            for factor, ref in zip(got, want):
                for a, b in zip(factor, ref):
                    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if n == 5:
        assert sum(len(rows) for rows, _, _, _ in got) > emulator.FACTOR_ROWS
