import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfsim import ci, emulator, oracle, pauli
from dsfsim.ci import (CIVector, cvs_mask, normalize, read_civector_jsonl, register_state,
                       word, write_civector_jsonl)
from dsfsim.operators import one_body_to_pauli
from dsfsim.oracle import apply_one_body


def random_civector(n_orbitals, n_alpha, n_beta, seed, complex_amps=True):
    rng = np.random.default_rng(seed)
    basis = ci.sector_words(n_orbitals, n_alpha, n_beta)
    amps = rng.normal(size=len(basis))
    if complex_amps:
        amps = amps + 1j * rng.normal(size=len(basis))
    return CIVector(n_orbitals, basis, amps.astype(complex))


def state(n_orbitals, amplitudes):
    """The CI vector with ``amplitudes`` {word: amplitude} on their sector."""
    return CIVector(n_orbitals, *ci.place_on_sector(n_orbitals, list(amplitudes),
                                                    np.array(list(amplitudes.values()),
                                                             dtype=complex)))


def overlap(a, b):
    """<a|b> of two CI vectors on one sector."""
    assert np.array_equal(a.basis, b.basis)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def statevector(v):
    return register_state(v.n_orbitals, v.basis, v.amplitudes)


def nonzero(v):
    """{word: amplitude} of the nonzero amplitudes of ``v``."""
    return {d: a for d, a in zip(v.basis.tolist(), v.amplitudes.tolist()) if a != 0}


def random_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(0, scale, size=(n, n))
    return (m + m.T) / 2


def test_identity_counts_electrons():
    v = random_civector(3, 1, 1, seed=0)
    out = apply_one_body(np.eye(3), v)
    assert np.array_equal(out.basis, v.basis)
    assert np.allclose(out.amplitudes, 2.0 * v.amplitudes, rtol=0, atol=1e-14)


def test_single_hop_is_plus_one():
    # orbital 0 (alpha) -> orbital 1 (alpha): no occupied orbitals in between
    v = state(2, {word(0b01, 0): 1.0})
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = apply_one_body(m, v)
    assert nonzero(out) == {word(0b10, 0): pytest.approx(1.0)}


def test_hop_crosses_occupied_spin_orbital():
    # alpha hop 0 -> 1 crosses the occupied beta spin orbital of orbital 0
    v = state(2, {word(0b01, 0b01): 1.0})
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = apply_one_body(m, v)
    assert nonzero(out)[word(0b10, 0b01)] == pytest.approx(-1.0)


def test_apply_matches_dense_oracle():
    m = random_symmetric(2, seed=3)
    v = random_civector(2, 1, 1, seed=4)
    got = statevector(apply_one_body(m, v))
    want = pauli.pauli_sum_dense(one_body_to_pauli(m)) @ statevector(v)
    assert np.max(np.abs(got - want)) < 1e-12


def test_apply_linearity():
    m1, m2 = random_symmetric(3, 21), random_symmetric(3, 22)
    v = random_civector(3, 2, 1, seed=23)
    a, b = 0.7, -1.3
    lhs = apply_one_body(a * m1 + b * m2, v)
    r1 = apply_one_body(m1, v)
    r2 = apply_one_body(m2, v)
    combo = a * r1.amplitudes + b * r2.amplitudes
    assert np.allclose(lhs.amplitudes, combo, rtol=0, atol=1e-12)


def test_apply_hermiticity():
    m = random_symmetric(3, 31)
    u = random_civector(3, 1, 1, seed=32)
    v = random_civector(3, 1, 1, seed=33)
    lhs = overlap(u, apply_one_body(m, v))
    rhs = overlap(apply_one_body(m, u), v)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dimension_mismatch_rejected():
    v = random_civector(2, 1, 1, seed=1)
    with pytest.raises(ValueError, match="dimension"):
        apply_one_body(np.eye(3), v)


def test_normalize_single_amplitude():
    v = state(2, {word(0b01, 0b01): 2.0})
    assert list(nonzero(normalize(v)).values()) == [pytest.approx(1.0)]


def test_normalize_two_amplitudes():
    dets = [word(0b01, 0b01), word(0b10, 0b10)]
    unit = normalize(state(2, dict.fromkeys(dets, 1.0)))
    for amp in nonzero(unit).values():
        assert amp == pytest.approx(1 / np.sqrt(2.0))


def test_normalize_unit_norm_tolerance():
    v = random_civector(3, 2, 2, seed=44)
    unit = normalize(v)
    assert abs(np.linalg.norm(unit.amplitudes) - 1.0) < 1e-14


@given(st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=25)
def test_normalize_scale_covariance(scale):
    """The unit vector does not depend on the scale of the state."""
    base = state(2, {word(0b01, 0b10): 1.0, word(0b10, 0b01): -0.5})
    scaled = CIVector(2, base.basis, scale * base.amplitudes)
    assert np.allclose(normalize(scaled).amplitudes, normalize(base).amplitudes,
                       rtol=1e-12, atol=0)


def test_dipole_norm_matches_moment_oracle(two_orb):
    """||mu_x psi0|| equals sqrt(<psi0|mu_x (mu_x psi0)>), mu_x applied twice."""
    w = apply_one_body(two_orb.dipole.x, two_orb.psi0)
    norm = overlap(w, normalize(w)).real   # <w|w/||w||> = ||w||
    m_xx = overlap(two_orb.psi0, apply_one_body(two_orb.dipole.x, w)).real
    assert norm == pytest.approx(np.sqrt(m_xx), rel=1e-12)


def test_statevector_one_hot():
    register = statevector(state(2, {word(0b01, 0b10): 1.0}))
    # alpha on orbital 0 -> qubit 0; beta on orbital 1 -> qubit 3
    expected_index = 0b1001
    assert register[expected_index] == 1.0
    assert np.count_nonzero(register) == 1


def test_statevector_inner_product_oracle():
    a = random_civector(3, 2, 1, seed=51)
    b = random_civector(3, 2, 1, seed=52)
    sparse = overlap(a, b)
    dense = np.vdot(statevector(a), statevector(b))
    assert sparse == pytest.approx(dense, abs=1e-13)


def test_statevector_norm_preserved():
    v = random_civector(3, 1, 2, seed=53)
    assert np.linalg.norm(statevector(v)) == pytest.approx(np.linalg.norm(v.amplitudes),
                                                           abs=1e-14)


def test_statevector_qubit_cap():
    v = state(12, {word(0b1, 0b1): 1.0})
    assert 2 * v.n_orbitals > ci.STATEVECTOR_QUBIT_CAP
    with pytest.raises(ci.SectorTooLarge, match="cap"):
        statevector(v)


@pytest.mark.parametrize("cap, refused", [(3, True), (4, False)])
def test_dense_cap_bounds_every_dense_build(two_orb, monkeypatch, cap, refused):
    """The CI solve, both ground-state readers and the sector step obey one cap
    (here d = 4)."""
    monkeypatch.setattr(ci, "DENSE_CAP", cap)
    prog = two_orb.program(two_orb.plan(0.06))
    builds = (lambda: oracle.solve_sector(two_orb.h, *two_orb.spec.sector),
              lambda: read_civector_jsonl(write_civector_jsonl(two_orb.psi0)),
              lambda: oracle.eigensystem_from_json(oracle.eigensystem_to_json(two_orb.eig)),
              lambda: emulator.program_unitary(prog, two_orb.states.basis))
    for build in builds:
        if refused:
            with pytest.raises(ci.SectorTooLarge):
                build()
        else:
            build()


@pytest.mark.parametrize("n_electrons, ms2, sector",
                         [(0, 0, (0, 0)), (3, 1, (2, 1)), (3, -1, (1, 2)), (4, 4, (4, 0))])
def test_electron_sector(n_electrons, ms2, sector):
    assert ci.electron_sector(n_electrons, ms2) == sector


@pytest.mark.parametrize("n_electrons, ms2", [(-2, 0), (2, 4), (2, -4), (3, 0), (2, 1)])
def test_electron_sector_refuses_a_header_with_no_sector(n_electrons, ms2):
    """A negative count, |MS2| above it, or an odd N + MS2 names no sector."""
    with pytest.raises(ValueError, match="no sector"):
        ci.electron_sector(n_electrons, ms2)


def test_moment_trivials():
    """<v|0 0|v> vanishes by annihilation and <v|N N|v> = N_e^2 for a unit v."""
    v = random_civector(3, 2, 1, seed=61)
    unit = normalize(v)
    annihilated = apply_one_body(np.zeros((3, 3)), unit)
    assert not np.any(annihilated.amplitudes)
    with pytest.raises(ValueError, match="zero norm"):
        normalize(annihilated)
    number = apply_one_body(np.eye(3), unit)
    n_e = 3   # the N_alpha + N_beta drawn above
    assert overlap(number, number).real == pytest.approx(n_e**2, rel=1e-12)


def test_moment_completeness_oracle(two_orb):
    """<psi0|mu_a mu_b|psi0> equals the eigenstate-resolved transition sum."""
    for a in "xyz":
        for b in "xyz":
            direct = overlap(apply_one_body(two_orb.dipole.component(a), two_orb.psi0),
                             apply_one_body(two_orb.dipole.component(b), two_orb.psi0)).real
            summed = float(np.sum(two_orb.trans.component(a) * two_orb.trans.component(b)))
            assert direct == pytest.approx(summed, abs=1e-10)


def test_cvs_requires_single_hole():
    dets = [word(0b011, 0b001),   # core filled, valence alpha
            word(0b010, 0b001),   # alpha core hole
            word(0b001, 0b010),   # beta core hole
            word(0b010, 0b010)]   # both core spin orbitals empty
    words = np.array(dets)
    assert cvs_mask(words, [0], 3).tolist() == [False, True, True, False]
    # two core orbitals: one hole over both of them, not one in each
    two_core = np.array([word(0b101, 0b001),   # beta hole in 2
                         word(0b001, 0b100),   # holes in 0 and 2
                         word(0b101, 0b101)])  # core filled
    assert cvs_mask(two_core, [0, 2], 3).tolist() == [True, False, False]


def test_cvs_rejects_bad_orbital():
    words = ci.sector_words(2, 1, 1)
    for core in ([5], [2], [-1]):
        with pytest.raises(ValueError, match="outside"):
            cvs_mask(words, core, 2)


def test_cvs_oracle_spectrum_agreement(toy):
    """The oracle's masked and raw transition tables give the same core-window spectrum.

    The toy couples core and valence at 0.01 Ha against a 20 Ha gap, so
    weights inside the core window agree to ~(0.01/20)^2.
    """
    excit = toy.eig.energies - toy.eig.ground_energy
    window = (excit > toy.spec.core_gap - 2.0)
    projected = oracle.transition_table(toy.eig, toy.dipole, [0])
    worst = 0.0
    for axis in "xyz":
        wr = toy.trans.component(axis)
        wp = projected.component(axis)
        diff = np.max(np.abs(wr[window] ** 2 - wp[window] ** 2))
        worst = max(worst, diff / np.max(wr[window] ** 2))
    assert worst < 1e-6


def test_jsonl_round_trip():
    v = random_civector(3, 2, 1, seed=81)
    back = read_civector_jsonl(write_civector_jsonl(v))
    assert back.n_orbitals == v.n_orbitals
    assert np.array_equal(back.basis, v.basis)
    assert np.allclose(back.amplitudes, v.amplitudes, rtol=0, atol=1e-15)


@pytest.mark.parametrize("value, integer", [
    pytest.param([[1.0, 2.0], [3.0]], False, id="ragged_rows"),
    pytest.param([[1.0, 2.0], [3.0, [4.0]]], False, id="ragged_entry"),
    pytest.param([1.0, None], False, id="null_entry"),
    pytest.param(None, False, id="null"),
    pytest.param([True, 1], True, id="bool"),
    pytest.param(["1"], False, id="string"),
    pytest.param([1.5], True, id="float_for_integer"),
    pytest.param([2**63], True, id="int_beyond_int64"),
    pytest.param([float("nan"), 1.0], False, id="nan"),
    pytest.param([[float("-inf")], [1.0]], False, id="infinity"),
    pytest.param([10**400], False, id="int_beyond_float")])
def test_number_array_refuses_an_entry_that_is_not_a_number(value, integer):
    """Ragged lists, null, bools, strings, NaN, infinities, ints beyond the float range,
    and floats or ints beyond int64 where integers are asked for."""
    with pytest.raises(TypeError, match="not a finite JSON"):
        ci.number_array(value, integer=integer)


def test_number_array_keeps_shape_and_bits():
    values = [[0.1, -0.0, 2], [1e308, 5e-324, -7]]
    out = ci.number_array(values)
    assert out.dtype == np.float64 and out.shape == (2, 3)
    assert out.tobytes() == np.array(values, dtype=float).tobytes()
    assert ci.number_array([[2**63 - 1, -3]], integer=True).tolist() == [[2**63 - 1, -3]]
    assert ci.number_array(4.5).shape == () and ci.number_array([]).shape == (0,)


def test_is_number():
    """A finite int or float, not a bool, within the float range; an int when asked."""
    cases = [(1, True, True), (1.0, True, False), (True, False, False), (2**1100, False, False),
             (float("nan"), False, False), (-1.5e308, False, True), ("1", False, False)]
    assert [ci.is_number(v, integer=i) for v, i, _ in cases] == [e for _, _, e in cases]


def test_jsonl_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        read_civector_jsonl('{"alpha": "01"}\n')


def test_mixed_sector_rejected():
    with pytest.raises(ValueError, match="sector"):
        ci.place_on_sector(2, [word(0b01, 0b01), word(0b11, 0b01)], [1.0, 1.0])


def test_place_on_sector_fills_the_sector():
    """Words in any order land on the sorted sector; unlisted words hold zero rows."""
    words = [word(0b10, 0b01), word(0b01, 0b01)]
    basis, rows = ci.place_on_sector(2, words, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert basis.tolist() == ci.sector_words(2, 1, 1).tolist() == [3, 6, 9, 12]
    assert rows.tolist() == [[3.0, 4.0], [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]
