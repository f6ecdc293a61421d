import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfsim import fixtures, oracle, operators, pauli
from dsfsim.operators import (DipoleOperator, FcidumpError, Hamiltonian,
                              dump_dipole_json, from_core_integrals,
                              jordan_wigner, load_dipole_json, one_body_to_pauli,
                              parse_fcidump, parse_fcidump_header, write_fcidump)

HEADER = " &FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM=1,1,\n  ISYM=1,\n &END\n"


def test_offset_only_parse():
    h = parse_fcidump(HEADER + "-1.0 0 0 0 0\n")
    assert h.offset == -1.0
    assert np.all(h.one_body == 0.0)
    assert np.all(h.two_body == 0.0)


def test_one_body_symmetrization():
    h = parse_fcidump(HEADER + "0.5 1 2 0 0\n0.0 0 0 0 0\n")
    assert h.one_body[0, 1] == 0.5
    assert h.one_body[1, 0] == 0.5


def test_two_body_eightfold_fill():
    h = parse_fcidump(HEADER + "0.25 1 2 1 1\n")
    g = h.two_body
    for idx in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]:
        assert g[idx] == 0.25


def test_round_trip_exact(two_orb):
    text = write_fcidump(two_orb.h, n_electrons=2, ms2=0)
    back = parse_fcidump(text)
    assert back.offset == two_orb.h.offset
    assert np.array_equal(back.one_body, two_orb.h.one_body)
    assert np.array_equal(back.two_body, two_orb.h.two_body)


def test_header_fields():
    fields = parse_fcidump_header(HEADER)
    assert fields["NORB"] == 2
    assert fields["NELEC"] == 2
    assert fields["MS2"] == 0


@pytest.mark.parametrize("body,fragment", [
    ("0.5 1 2 0\n", "line 5"),
    ("0.5 9 1 0 0\n", "out of range"),
    ("nan 1 1 0 0\n", "non-finite"),
    ("abc 1 1 0 0\n", "malformed"),
])
def test_parse_errors_name_the_line(body, fragment):
    with pytest.raises(FcidumpError, match=fragment):
        parse_fcidump(HEADER + body)


def test_missing_header_rejected():
    with pytest.raises(FcidumpError, match="NORB"):
        parse_fcidump("1.0 1 1 0 0\n")


def test_hamiltonian_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Hamiltonian(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2,) * 4))
    bad = np.zeros((2,) * 4)
    bad[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError, match="8-fold"):
        Hamiltonian(0.0, np.zeros((2, 2)), bad)


def test_dipole_json_round_trip(two_orb):
    text = dump_dipole_json(two_orb.dipole)
    back = load_dipole_json(text)
    for axis in "xyz":
        assert np.array_equal(back.component(axis), two_orb.dipole.component(axis))


def test_dipole_symmetry_enforced():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        DipoleOperator(m, np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Jordan-Wigner mapping
# ---------------------------------------------------------------------------

def test_number_operator_single_orbital():
    h = Hamiltonian(0.0, np.array([[1.0]]), np.zeros((1, 1, 1, 1)))
    terms = dict((w, c) for c, w in jordan_wigner(h).words())
    assert terms == pytest.approx({"II": 1.0, "ZI": -0.5, "IZ": -0.5})


def test_offset_only_jw():
    h = Hamiltonian(-0.75, np.zeros((1, 1)), np.zeros((1, 1, 1, 1)))
    assert jordan_wigner(h).words() == [(-0.75, "II")]


def test_jw_matches_slater_condon_oracle(two_orb):
    """Dense JW matrix equals the sector-blocked Slater-Condon construction."""
    dense = pauli.pauli_sum_dense(jordan_wigner(two_orb.h))
    rebuilt = np.zeros_like(dense)
    for n_alpha in range(3):
        for n_beta in range(3):
            basis = oracle.sector_basis(2, n_alpha, n_beta)
            mat = oracle.build_ci_matrix(two_orb.h, basis)
            idx = [det.interleaved() for det in basis]
            rebuilt[np.ix_(idx, idx)] = mat
    assert np.max(np.abs(dense - rebuilt)) < 1e-10


def test_jw_hermitian(two_orb):
    dense = pauli.pauli_sum_dense(jordan_wigner(two_orb.h))
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


def test_jw_linearity():
    rng = np.random.default_rng(17)
    def rand_ham(seed):
        r = np.random.default_rng(seed)
        m = r.normal(size=(2, 2))
        g = r.normal(size=(2, 2, 2, 2))
        g = sum(g.transpose(p) for p in
                [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                 (2, 3, 0, 1), (2, 3, 1, 0), (3, 2, 0, 1), (3, 2, 1, 0)]) / 8
        return Hamiltonian(r.normal(), (m + m.T) / 2, g)
    h1, h2 = rand_ham(1), rand_ham(2)
    a, b = 0.6, -1.7
    combo = Hamiltonian(a * h1.offset + b * h2.offset,
                        a * h1.one_body + b * h2.one_body,
                        a * h1.two_body + b * h2.two_body)
    lhs = jordan_wigner(combo).as_dict()
    rhs = {}
    for scale, h in ((a, h1), (b, h2)):
        for key, c in jordan_wigner(h).as_dict().items():
            rhs[key] = rhs.get(key, 0.0) + scale * c
    keys = set(lhs) | {k for k, v in rhs.items() if abs(v) > 1e-12}
    for key in keys:
        assert lhs.get(key, 0.0) == pytest.approx(rhs.get(key, 0.0), abs=1e-12)


def test_jw_commutes_with_number(two_orb):
    dense = pauli.pauli_sum_dense(jordan_wigner(two_orb.h))
    number = pauli.pauli_sum_dense(one_body_to_pauli(np.eye(2)))
    assert np.max(np.abs(dense @ number - number @ dense)) < 1e-10


def test_one_body_zero_matrix():
    assert one_body_to_pauli(np.zeros((2, 2))).terms == ()


def test_one_body_identity_counts_particles():
    psum = one_body_to_pauli(np.eye(2))
    dense = pauli.pauli_sum_dense(psum)
    # expectation on any 2-electron basis state is 2
    for word in (0b0011, 0b0101, 0b1100):
        vec = np.zeros(16, dtype=complex)
        vec[word] = 1.0
        assert np.vdot(vec, dense @ vec).real == pytest.approx(2.0, abs=1e-12)


def test_one_body_dense_oracle():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 2))
    m = (m + m.T) / 2
    got = pauli.pauli_sum_dense(one_body_to_pauli(m))
    want = np.zeros((16, 16), dtype=complex)
    # direct second-quantized construction from ladder products
    for p in range(2):
        for q in range(2):
            for spin in range(2):
                prod = pauli.ladder(2 * p + spin, True) * pauli.ladder(2 * q + spin, False)
                for (x, z), c in prod.terms.items():
                    idx = np.arange(16)
                    want[idx ^ x, idx] += m[p, q] * c * pauli.word_phases(idx, x, z)
    assert np.max(np.abs(got - want)) < 1e-12


def test_one_body_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        one_body_to_pauli(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_core_integral_conversion_round_trip():
    rng = np.random.default_rng(29)
    g = rng.normal(size=(2, 2, 2, 2))
    g = sum(g.transpose(p) for p in
            [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
             (2, 3, 0, 1), (2, 3, 1, 0), (3, 2, 0, 1), (3, 2, 1, 0)]) / 8
    h_core = rng.normal(size=(2, 2))
    h_core = (h_core + h_core.T) / 2
    h = from_core_integrals(0.3, h_core, g)
    assert np.max(np.abs(h.core_one_body() - h_core)) < 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_fixture_fcidump_round_trips(seed):
    spec = fixtures.ModelSpec(n_orbitals=2, n_electrons=2, seed=seed)
    h, _ = fixtures.generate(spec)
    back = parse_fcidump(write_fcidump(h))
    assert np.array_equal(back.one_body, h.one_body)
    assert np.array_equal(back.two_body, h.two_body)
    assert back.offset == h.offset
