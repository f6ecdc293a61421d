"""Pauli-word algebra over a qubit register.

Words are handled in symplectic form: a pair of integer bitmasks ``(x, z)``
where bit q of ``x`` flags an X or Y on qubit q and bit q of ``z`` flags a
Z or Y.  The canonical word is ``i**popcount(x & z) * X^x * Z^z``, so that
``(x, z) = (1, 1)`` is exactly Y.  All public sums carry real coefficients;
the complex bookkeeping needed while multiplying ladder operators stays
internal to this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ci import NonFiniteValue

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_MASKS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

# Coefficients below this are treated as exact zeros when collapsing sums.
DROP_THRESHOLD = 1e-14
# Largest imaginary part, relative to the largest coefficient, taken as rounding.
IMAG_TOL = 1e-12


def word_to_masks(word: str) -> tuple[int, int]:
    """Convert a letter string (index = qubit) to ``(x, z)`` bitmasks."""
    x = z = 0
    for q, letter in enumerate(word):
        try:
            xb, zb = _MASKS[letter]
        except KeyError:
            raise ValueError(f"invalid Pauli letter {letter!r} in {word!r}") from None
        x |= xb << q
        z |= zb << q
    return x, z


def masks_to_word(x: int, z: int, n_qubits: int) -> str:
    return "".join(_LETTERS[((x >> q) & 1, (z >> q) & 1)] for q in range(n_qubits))


def multiply_words(x1: int, z1: int, x2: int, z2: int) -> tuple[complex, int, int]:
    """Product of two canonical words: ``W1 W2 = phase * W3``."""
    x3, z3 = x1 ^ x2, z1 ^ z2
    # i-powers from recanonicalising plus the ZX commutation sign.
    ipow = ((x1 & z1).bit_count() + (x2 & z2).bit_count() - (x3 & z3).bit_count()) % 4
    sign = -1.0 if (z1 & x2).bit_count() & 1 else 1.0
    return sign * (1j**ipow), x3, z3


def _word_key(n_qubits: int):
    """Key function on ``(x, z)`` that orders words as ``masks_to_word`` does.

    Qubit q is the base-4 digit 2 z_q + (x_q ^ z_q), that is 0, 1, 2, 3 for
    I, X, Y, Z, and qubit 0 is the most significant digit: a bit string
    reversed and read in base 4 puts each bit in its own digit.
    """
    spec = f"0{n_qubits}b"
    return lambda xz: (2 * int(format(xz[1], spec)[::-1], 4)
                       + int(format(xz[0] ^ xz[1], spec)[::-1], 4))


def _precedes(x1: int, z1: int, x2: int, z2: int) -> bool:
    """Whether word 1 sorts strictly before word 2: compare the digits of
    ``_word_key`` at the first qubit where the words differ."""
    diff = (x1 ^ x2) | (z1 ^ z2)
    low = diff & -diff
    return diff != 0 and ((z1 & low != 0, (x1 ^ z1) & low != 0)
                          < (z2 & low != 0, (x2 ^ z2) & low != 0))


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of Pauli words with real coefficients (Hartree).

    ``terms`` holds one ``(coeff, x, z)`` per word, keyed by the word's masks.
    Construction enforces finite real coefficients, masks confined to
    ``n_qubits`` bits, and the word-order invariant: the terms are strictly
    increasing in ``masks_to_word`` order (qubit 0 first, I < X < Y < Z), so
    no word repeats and the identity, when present, is the first term.
    ``split_identity`` and ``emulator.build_trotter`` rely on that order and
    never re-sort.
    """

    n_qubits: int
    terms: tuple[tuple[float, int, int], ...]  # (coeff, x, z) in word order

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_qubits > 62:
            raise ValueError(f"unsupported qubit count {self.n_qubits}")
        limit = 1 << self.n_qubits
        for coeff, x, z in self.terms:
            if not math.isfinite(coeff):
                raise NonFiniteValue("non-finite Pauli coefficient")
            if x >= limit or z >= limit:
                raise ValueError("Pauli word exceeds qubit register")
        for (_, x1, z1), (_, x2, z2) in zip(self.terms, self.terms[1:]):
            if x1 == x2 and z1 == z2:
                raise ValueError("duplicate Pauli word")
            if not _precedes(x1, z1, x2, z2):
                raise ValueError("Pauli terms are not in word order")

    @staticmethod
    def from_dict(terms: dict[tuple[int, int], float], n_qubits: int) -> "PauliSum":
        key = _word_key(n_qubits)
        ordered = sorted(terms.items(), key=lambda kv: key(kv[0]))
        return PauliSum(n_qubits, tuple((float(c), x, z) for (x, z), c in ordered))

    @staticmethod
    def from_words(terms: list[tuple[float, str]], n_qubits: int) -> "PauliSum":
        acc: dict[tuple[int, int], float] = {}
        for coeff, word in terms:
            if len(word) != n_qubits:
                raise ValueError("word length does not match qubit count")
            key = word_to_masks(word)
            acc[key] = acc.get(key, 0.0) + coeff
        return PauliSum.from_dict(acc, n_qubits)

    def words(self) -> list[tuple[float, str]]:
        return [(c, masks_to_word(x, z, self.n_qubits)) for c, x, z in self.terms]

    def split_identity(self) -> tuple[float, tuple[tuple[float, int, int], ...]]:
        """The identity coefficient (0.0 when absent) and the other terms.

        The identity sorts first, so only the head of ``terms`` is looked at.
        """
        if self.terms and self.terms[0][1] == 0 and self.terms[0][2] == 0:
            return self.terms[0][0], self.terms[1:]
        return 0.0, self.terms

    def shifted_identity(self, delta: float) -> "PauliSum":
        """Return a copy with ``delta`` added to the identity coefficient; the
        identity term is dropped when the sum falls below ``DROP_THRESHOLD``."""
        identity, rest = self.split_identity()
        identity = identity + delta
        head = () if abs(identity) < DROP_THRESHOLD else ((float(identity), 0, 0),)
        return PauliSum(self.n_qubits, head + rest)


class LinearPauli:
    """Mutable complex-weighted word accumulator used during JW expansion."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms: dict[tuple[int, int], complex] = {}

    def add(self, coeff: complex, x: int, z: int) -> None:
        key = (x, z)
        self.terms[key] = self.terms.get(key, 0j) + coeff

    def add_sum(self, other: "LinearPauli", scale: complex = 1.0) -> None:
        for (x, z), c in other.terms.items():
            self.add(scale * c, x, z)

    def __mul__(self, other: "LinearPauli") -> "LinearPauli":
        out = LinearPauli()
        for (x1, z1), c1 in self.terms.items():
            for (x2, z2), c2 in other.terms.items():
                phase, x3, z3 = multiply_words(x1, z1, x2, z2)
                out.add(c1 * c2 * phase, x3, z3)
        return out


def collapse(terms: dict, n_qubits: int, unpack=None) -> PauliSum:
    """Collapse complex word coefficients to a real-coefficient PauliSum.

    Coefficients below ``DROP_THRESHOLD`` times max(1, the largest) are
    dropped; a surviving imaginary part above ``IMAG_TOL`` on that scale
    raises ValueError.  ``terms`` is keyed by ``(x, z)``, or by packed words
    that ``unpack`` turns into ``(x, z)``.
    """
    scale = max(1.0, max(map(abs, terms.values()), default=1.0))
    out: dict[tuple[int, int], float] = {}
    for key, c in terms.items():
        if abs(c) < DROP_THRESHOLD * scale:
            continue
        if abs(c.imag) > IMAG_TOL * scale:
            raise ValueError("non-Hermitian accumulation: imaginary coefficient survives")
        out[unpack(key) if unpack else key] = c.real
    return PauliSum.from_dict(out, n_qubits)


def ladder(j: int, dagger: bool) -> LinearPauli:
    """Jordan-Wigner image of a_j (or a_j^dagger): Z-string below qubit j."""
    string = (1 << j) - 1
    xj = 1 << j
    out = LinearPauli()
    out.add(0.5, xj, string)                      # X_j with Z string
    sign = -0.5j if dagger else 0.5j
    out.add(sign, xj, string | xj)                # +-i/2 * Y_j with Z string
    return out


def pauli_sum_dense(psum: PauliSum) -> np.ndarray:
    dim = 1 << psum.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for coeff, x, z in psum.terms:
        out[idx ^ x, idx] += coeff * word_phases(idx, x, z)
    return out


def _parity(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values).astype(np.int64) & 1


def word_phases(indices: np.ndarray, x: int, z: int) -> np.ndarray:
    """Phase lambda(b) with ``W |b> = lambda(b) |b ^ x>`` for each index b."""
    ny = (x & z).bit_count()
    sign = 1.0 - 2.0 * _parity(indices & z)
    return (1j**ny) * sign
