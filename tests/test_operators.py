import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfsim import fixtures, operators, pauli
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


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_quadruples_partition_the_index_space(n):
    """The 8-fold orbits of the canonical quadruples cover range(n)^4, each
    index in exactly one orbit."""
    indices = [idx for quad in operators.canonical_quadruples(n)
               for idx in operators.eightfold_orbit(quad)]
    assert len(indices) == len(set(indices)) == n**4


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
    ("0.5 1 2 0 0\n0.6 2 1 0 0\n", "line 6: 0.6 conflicts"),
    ("0.25 1 2 1 1\n0.3 1 1 2 1\n", "line 6: 0.3 conflicts"),
    ("1.0 0 0 0 0\n2.0 0 0 0 0\n", "line 6: 2.0 conflicts"),
])
def test_parse_errors_name_the_line(body, fragment):
    with pytest.raises(FcidumpError, match=fragment):
        parse_fcidump(HEADER + body)


def test_listing_every_permutation_parses_as_the_canonical_file(two_orb):
    """Equal repeats are accepted: all 8 images of each two-body line and both
    index orders of each one-body line give the canonical file's Hamiltonian."""
    text = write_fcidump(two_orb.h, n_electrons=2, ms2=0)
    lines = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[3] != "0":   # two-body: every image
            quad = tuple(int(t) - 1 for t in parts[1:])
            lines += [parts[0] + "".join(f" {i + 1}" for i in image)
                      for image in sorted(operators.eightfold_orbit(quad))]
        elif len(parts) == 5 and parts[1] != "0":   # one-body: both orders
            lines += [line, f"{parts[0]} {parts[2]} {parts[1]} 0 0"]
        else:
            lines.append(line)
    full, canonical = parse_fcidump("\n".join(lines) + "\n"), parse_fcidump(text)
    assert len(lines) > len(text.splitlines())
    assert full.offset == canonical.offset
    assert np.array_equal(full.one_body, canonical.one_body)
    assert np.array_equal(full.two_body, canonical.two_body)


@pytest.mark.parametrize("norb", [0, 32, 1000])
def test_norb_beyond_an_occupation_word_is_refused(norb):
    """NORB is held to the orbitals an int64 word holds before any array is made:
    32 orbitals overflowed the sector words, and 1000 a 7 TiB two-body array."""
    with pytest.raises(FcidumpError, match="NORB must be 1 to 31"):
        parse_fcidump(HEADER.replace("NORB=2", f"NORB={norb}"))


def test_missing_header_rejected():
    with pytest.raises(FcidumpError, match="NORB"):
        parse_fcidump("1.0 1 1 0 0\n")


def test_header_without_end_rejected():
    """A header with no ``&END`` or ``/`` line is refused, not read as an empty body."""
    text = HEADER.replace(" &END\n", "") + "0.5 1 1 0 0\n-1.0 0 0 0 0\n"
    for parse in (parse_fcidump, parse_fcidump_header):
        with pytest.raises(FcidumpError, match="line 5: the header never ends"):
            parse(text)
    slash = HEADER.replace(" &END", " /") + "-1.0 0 0 0 0\n"
    assert parse_fcidump(slash).offset == -1.0


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
    lhs = {(x, z): c for c, x, z in jordan_wigner(combo).terms}
    rhs = {}
    for scale, h in ((a, h1), (b, h2)):
        for c, x, z in jordan_wigner(h).terms:
            rhs[x, z] = rhs.get((x, z), 0.0) + scale * c
    keys = set(lhs) | {k for k, v in rhs.items() if abs(v) > 1e-12}
    for key in keys:
        assert lhs.get(key, 0.0) == pytest.approx(rhs.get(key, 0.0), abs=1e-12)


# sha256 of repr(jordan_wigner(h).terms), recorded from the term-by-term
# ladder-product expansion before the two-body loop was rewritten.
JW_DIGESTS = [
    (fixtures.TWO_ORBITAL_SPEC,
     "17cda64cc53a48c0e7a6fde629502305f2794f29c249a0d20562dd75743117b5"),
    (fixtures.THREE_ORBITAL_SPEC,
     "5618e4895533fc681f9d635705e94a94081b839e8584ce106e4f24587197bd20"),
    (fixtures.CORE_VALENCE_SPEC,
     "a68a885cc9f25cb71ab9c10d36f36d23525aa49cb7ef12d36b08804ea5dc36b4"),
    (fixtures.DIAGONAL_SPEC,
     "9f66ac56c536e7d78ca1153ecb7e801d931bf07e91abfcb20426aa33b0aa2ad5"),
    (fixtures.ModelSpec(6, 4, 1),   # the rand6_exact benchmark model, seed 1
     "dcff35f3f31ad7be7c53b5b6eeca98a675e246532a8ffc72bbfb1ad4225aa0d4"),
    (fixtures.ModelSpec(7, 6, 3),
     "34164228668ac98dfe604b7ddff04b21001601f4e8709e7c4a691801d98400d0"),
]


@pytest.mark.parametrize("spec,digest", JW_DIGESTS,
                         ids=[f"{s.kind}-{s.n_orbitals}-{s.seed}" for s, _ in JW_DIGESTS])
def test_jw_terms_are_pinned(spec, digest):
    h, _ = fixtures.generate(spec)
    terms = jordan_wigner(h).terms
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == digest


# sha256 of repr(tuple(one_body_to_pauli(d.component(a)).terms for a in "xyz")),
# recorded while one_body_to_pauli still had its own accumulation loop.
DIPOLE_DIGESTS = [
    (fixtures.TWO_ORBITAL_SPEC,
     "d5c2ba7ce63e0c51a26d80dd1571818098d2628129ac12bbfb60904271339c12"),
    (fixtures.THREE_ORBITAL_SPEC,
     "cd0374d7e19b38721d8ae647488f746c07cc70438e339bff37d0f405882d0d24"),
    (fixtures.CORE_VALENCE_SPEC,
     "433915161913a5f8936087a3c60cdb3ba168c87caa0a4ff866663cf30b1bfffd"),
    (fixtures.DIAGONAL_SPEC,
     "1abfe1004b389308f0e5b38e763b200e56c655d2346bc08ce267e1c7d7c05167"),
]


@pytest.mark.parametrize("spec,digest", DIPOLE_DIGESTS,
                         ids=[f"{s.kind}-{s.n_orbitals}-{s.seed}" for s, _ in DIPOLE_DIGESTS])
def test_dipole_terms_are_pinned(spec, digest):
    _, dipole = fixtures.generate(spec)
    terms = tuple(one_body_to_pauli(dipole.component(a)).terms for a in "xyz")
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == digest


def _ladder_product_jw(h):
    """Reference: multiply the spin-summed ladder products term by term."""
    n = h.n_orbitals
    exc = {}
    for p in range(n):
        for q in range(n):
            exc[p, q] = pauli.LinearPauli()
            for spin in (0, 1):
                exc[p, q].add_sum(pauli.ladder(2 * p + spin, True)
                                  * pauli.ladder(2 * q + spin, False))
    acc = pauli.LinearPauli()
    acc.add(complex(h.offset), 0, 0)
    for (p, q), e in exc.items():
        if abs(h.one_body[p, q]) > 0.0:
            acc.add_sum(e, h.one_body[p, q])
    for (p, q), e_pq in exc.items():
        for (r, s), e_rs in exc.items():
            if abs(h.two_body[p, q, r, s]) > 0.0:
                acc.add_sum(e_pq * e_rs, 0.5 * h.two_body[p, q, r, s])
    return pauli.collapse(acc.terms, 2 * n)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_jw_equals_ladder_products_exactly(seed):
    h, _ = fixtures.generate(fixtures.ModelSpec(n_orbitals=3, n_electrons=2, seed=seed))
    assert jordan_wigner(h).terms == _ladder_product_jw(h).terms


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=4))
@settings(max_examples=10, deadline=None)
def test_one_body_equals_ladder_products_exactly(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
    m = m + m.T
    reference = _ladder_product_jw(Hamiltonian(0.0, m, np.zeros((n,) * 4)))
    assert one_body_to_pauli(m).terms == reference.terms


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
    back = parse_fcidump(write_fcidump(h, spec.n_electrons, spec.ms2))
    assert np.array_equal(back.one_body, h.one_body)
    assert np.array_equal(back.two_body, h.two_body)
    assert back.offset == h.offset
