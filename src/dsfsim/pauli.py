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

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_MASKS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

# Coefficients below this are treated as exact zeros when collapsing sums.
DROP_THRESHOLD = 1e-14


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


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of Pauli words with real coefficients (Hartree).

    ``terms`` maps each word, keyed by its ``(x, z)`` masks, to a coefficient.
    Construction enforces: no duplicate words, finite real coefficients, and
    masks confined to ``n_qubits`` bits.
    """

    n_qubits: int
    terms: tuple[tuple[float, int, int], ...]  # (coeff, x, z) sorted by word

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_qubits > 62:
            raise ValueError(f"unsupported qubit count {self.n_qubits}")
        limit = 1 << self.n_qubits
        seen = set()
        for coeff, x, z in self.terms:
            if not math.isfinite(coeff):
                raise ValueError("non-finite Pauli coefficient")
            if x >= limit or z >= limit:
                raise ValueError("Pauli word exceeds qubit register")
            if (x, z) in seen:
                raise ValueError("duplicate Pauli word")
            seen.add((x, z))

    @staticmethod
    def from_dict(terms: dict[tuple[int, int], float], n_qubits: int) -> "PauliSum":
        ordered = sorted(terms.items(), key=lambda kv: masks_to_word(*kv[0], n_qubits))
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

    def as_dict(self) -> dict[tuple[int, int], float]:
        return {(x, z): c for c, x, z in self.terms}

    @property
    def identity_coefficient(self) -> float:
        for c, x, z in self.terms:
            if x == 0 and z == 0:
                return c
        return 0.0

    def shifted_identity(self, delta: float) -> "PauliSum":
        """Return a copy with ``delta`` added to the identity coefficient."""
        acc = self.as_dict()
        acc[(0, 0)] = acc.get((0, 0), 0.0) + delta
        if abs(acc[(0, 0)]) < DROP_THRESHOLD:
            del acc[(0, 0)]
        return PauliSum.from_dict(acc, self.n_qubits)


class LinearPauli:
    """Mutable complex-weighted word accumulator used during JW expansion."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], complex] | None = None):
        self.terms = dict(terms) if terms else {}

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

    def collapse(self, n_qubits: int, drop: float = DROP_THRESHOLD,
                 imag_tol: float = 1e-12) -> PauliSum:
        """Collapse to a real-coefficient PauliSum, dropping tiny terms."""
        scale = max((abs(c) for c in self.terms.values()), default=1.0)
        out: dict[tuple[int, int], float] = {}
        for key, c in self.terms.items():
            if abs(c) < drop * max(1.0, scale):
                continue
            if abs(c.imag) > imag_tol * max(1.0, scale):
                raise ValueError("non-Hermitian accumulation: imaginary coefficient survives")
            out[key] = c.real
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


def apply_word(state: np.ndarray, x: int, z: int) -> np.ndarray:
    """Apply a single canonical Pauli word to a statevector (or matrix rows)."""
    idx = np.arange(state.shape[0])
    src = idx ^ x
    phases = word_phases(src, x, z)
    if state.ndim == 1:
        return phases * state[src]
    return phases[:, None] * state[src]


def apply_pauli_sum(psum: PauliSum, state: np.ndarray) -> np.ndarray:
    out = np.zeros_like(state, dtype=complex)
    for coeff, x, z in psum.terms:
        out += coeff * apply_word(state, x, z)
    return out


def expectation(psum: PauliSum, state: np.ndarray) -> float:
    """<state|P|state> for a Hermitian sum; returns the real part."""
    return float(np.vdot(state, apply_pauli_sum(psum, state)).real)
