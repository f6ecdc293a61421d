import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfsim import pauli

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
LETTER_MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_word(word: str) -> np.ndarray:
    """Independent dense oracle: qubit 0 is the least significant factor."""
    out = np.eye(1, dtype=complex)
    for letter in word:
        out = np.kron(LETTER_MATS[letter], out)
    return out


words = st.text(alphabet="IXYZ", min_size=1, max_size=4)


@given(words)
@settings(max_examples=60)
def test_mask_round_trip(word):
    x, z = pauli.word_to_masks(word)
    assert pauli.masks_to_word(x, z, len(word)) == word


@given(words, words)
@settings(max_examples=60)
def test_multiply_matches_dense(w1, w2):
    n = max(len(w1), len(w2))
    w1, w2 = w1.ljust(n, "I"), w2.ljust(n, "I")
    phase, x3, z3 = pauli.multiply_words(*pauli.word_to_masks(w1),
                                         *pauli.word_to_masks(w2))
    lhs = kron_word(w1) @ kron_word(w2)
    rhs = phase * kron_word(pauli.masks_to_word(x3, z3, n))
    assert np.max(np.abs(lhs - rhs)) < 1e-14


@given(words)
@settings(max_examples=40)
def test_one_word_sum_dense_matches_kron(word):
    rng = np.random.default_rng(3)
    vec = rng.normal(size=1 << len(word)) + 1j * rng.normal(size=1 << len(word))
    dense = pauli.pauli_sum_dense(pauli.PauliSum.from_words([(1.0, word)], len(word)))
    assert np.max(np.abs(dense @ vec - kron_word(word) @ vec)) < 1e-13


def test_pauli_sum_dense_matches_kron():
    psum = pauli.PauliSum.from_words([(0.5, "XZ"), (-1.25, "YI"), (2.0, "II")], 2)
    expected = 0.5 * kron_word("XZ") - 1.25 * kron_word("YI") + 2.0 * kron_word("II")
    assert np.max(np.abs(pauli.pauli_sum_dense(psum) - expected)) < 1e-14


def test_duplicate_words_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        pauli.PauliSum(2, ((1.0, 1, 0), (2.0, 1, 0)))


def test_from_words_merges_duplicates():
    psum = pauli.PauliSum.from_words([(1.0, "XI"), (0.5, "XI")], 2)
    assert psum.words() == [(1.5, "XI")]


@st.composite
def word_dicts(draw):
    """(n_qubits, {(x, z): coeff}) with masks anywhere in a register of up to 62 qubits."""
    n = draw(st.integers(min_value=1, max_value=62))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    coeffs = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    return n, draw(st.dictionaries(st.tuples(masks, masks), coeffs, max_size=12))


@given(word_dicts())
@settings(max_examples=80, deadline=None)
def test_terms_are_in_word_order(case):
    n, terms = case
    psum = pauli.PauliSum.from_dict(terms, n)
    words = [w for _, w in psum.words()]
    assert words == sorted(words)
    assert len(set(words)) == len(words) == len(terms)
    assert {(x, z): c for c, x, z in psum.terms} == terms
    if len(terms) > 1:
        with pytest.raises(ValueError, match="word order"):
            pauli.PauliSum(n, psum.terms[::-1])


def _shift_by_resorting(psum, delta):
    """The dict / ``from_dict`` route that ``shifted_identity`` replaces."""
    acc = {(x, z): c for c, x, z in psum.terms}
    acc[(0, 0)] = acc.get((0, 0), 0.0) + delta
    if abs(acc[(0, 0)]) < pauli.DROP_THRESHOLD:
        del acc[(0, 0)]
    return pauli.PauliSum.from_dict(acc, psum.n_qubits)


@given(word_dicts(), st.sampled_from(["absent", "present", "cancelled"]),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-0.9, max_value=0.9))
@settings(max_examples=80, deadline=None)
def test_shifted_identity_matches_resorting(case, identity, delta, residual):
    n, terms = case
    terms.pop((0, 0), None)
    if identity != "absent":
        terms[(0, 0)] = 0.75
    if identity == "cancelled":
        delta = -0.75 + residual * pauli.DROP_THRESHOLD
    psum = pauli.PauliSum.from_dict(terms, n)
    shifted = psum.shifted_identity(delta)
    assert repr(shifted.terms) == repr(_shift_by_resorting(psum, delta).terms)
    if identity == "cancelled":
        assert shifted.split_identity()[0] == 0.0
        assert all(x or z for _, x, z in shifted.terms)


def test_terms_out_of_word_order_rejected():
    with pytest.raises(ValueError, match="word order"):
        pauli.PauliSum(2, ((1.0, 0, 1), (2.0, 1, 0)))   # "ZI" before "XI"


def test_identity_shift():
    psum = pauli.PauliSum.from_words([(1.0, "ZI")], 2)
    shifted = psum.shifted_identity(-0.25)
    assert shifted.split_identity()[0] == -0.25
    assert {w: c for c, w in shifted.words()}["ZI"] == 1.0


def test_ladder_anticommutation():
    # {a_0, a_0^dag} = 1 and a_0^dag a_0^dag = 0 in dense form
    n = 2
    def dense(lp):
        out = np.zeros((4, 4), dtype=complex)
        for (x, z), c in lp.terms.items():
            out += c * kron_word(pauli.masks_to_word(x, z, n))
        return out
    a = dense(pauli.ladder(0, dagger=False))
    adag = dense(pauli.ladder(0, dagger=True))
    assert np.max(np.abs(a @ adag + adag @ a - np.eye(4))) < 1e-14
    assert np.max(np.abs(adag @ adag)) < 1e-14

