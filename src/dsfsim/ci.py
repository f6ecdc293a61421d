"""CI vectors: amplitudes on the sorted words of one (N_alpha, N_beta) sector.

A determinant is its occupation word: bit 2p+s set = spatial orbital p
occupied with spin s (0 = alpha, 1 = beta).  Amplitudes follow the
convention that creation operators are applied in ascending qubit index
(qubit = 2p + s), which makes the register image of a single determinant
a +1 one-hot vector.  Per-spin orbital masks appear only in the two file
formats: the JSON-lines records here and the eigensystem JSON of ``oracle``.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

STATEVECTOR_QUBIT_CAP = 22  # 2^22 amplitudes, 64 MiB
# Most orbitals an occupation word holds: bit 2p+s of an int64 word, p < 31.
WORD_ORBITALS = 31
# Largest dimension of a dense matrix the package builds: the CI matrix of a
# sector and the Trotter step over it.
DENSE_CAP = 4000


class SectorTooLarge(ValueError):
    """A state space exceeds a size cap; raised before it is enumerated."""


def check_dense(dim: int) -> None:
    """Raise ``SectorTooLarge`` when a dense ``dim`` x ``dim`` matrix exceeds ``DENSE_CAP``."""
    if dim > DENSE_CAP:
        raise SectorTooLarge(f"a dense matrix over {dim} states exceeds the cap {DENSE_CAP}")


class NonFiniteValue(ValueError):
    """A quantity of the chain is not finite: an input value overflowed the float range."""


def is_number(value, integer: bool = False) -> bool:
    """A finite int or float, not a bool, within the float range; an int when ``integer``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # False for nan, inf and ints beyond any float


def number_array(value, integer: bool = False) -> np.ndarray:
    """A JSON number or rectangular nested list of them as a float (``integer``: int64)
    array; TypeError unless every entry ``is_number``, which is asked of one entry
    per type, then of the largest magnitude (NaN if an entry is NaN)."""
    kinds = {type(v): v for v in np.array(value, dtype=object).flat}  # ragged: list entries
    types_ok = all(is_number(v, integer) for v in kinds.values())
    try:
        numbers = np.array(value, dtype=np.int64 if integer else float) if types_ok else None
    except OverflowError:  # an int beyond int64 or the float range
        numbers = None
    if numbers is None or numbers.size and not is_number(np.max(np.abs(numbers)).item()):
        raise TypeError(f"an entry is not a finite JSON {'integer' if integer else 'number'}")
    return numbers


def _interleave(mask: int) -> int:
    """Spread the bits of ``mask`` onto even positions (p -> 2p)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= low * low  # 1<<p squared is 1<<2p
        mask ^= low
    return out


def word(occ_alpha: int, occ_beta: int) -> int:
    """The occupation word of per-spin orbital masks (bit p set = orbital p occupied)."""
    if occ_alpha < 0 or occ_beta < 0:
        raise ValueError("an orbital mask is negative")
    return _interleave(occ_alpha) | (_interleave(occ_beta) << 1)


def spin_masks(word: int) -> tuple[int, int]:
    """(alpha mask, beta mask) of an occupation word; the inverse of ``word``."""
    alpha, beta = (sum(1 << p for p in range(word.bit_length()) if word >> (2 * p + s) & 1)
                   for s in (0, 1))
    return alpha, beta


def spin_counts(word: int, n_orbitals: int) -> tuple[int, int]:
    """(N_alpha, N_beta) of a word on ``n_orbitals``: popcounts of its even and odd bits."""
    n_alpha = (word & ((1 << 2 * n_orbitals) - 1) // 3).bit_count()  # 0b0101...01
    return n_alpha, word.bit_count() - n_alpha


@dataclass(frozen=True)
class CIVector:
    """Complex ``amplitudes[i]`` on word ``basis[i]`` of the sorted int64 words of a
    whole sector (``sector_words``), as in ``oracle.EigenSystem`` and
    ``spectrum.DipoleStates``."""

    n_orbitals: int
    basis: np.ndarray
    amplitudes: np.ndarray


def place_on_sector(n_orbitals: int, words, rows) -> tuple[np.ndarray, np.ndarray]:
    """The sorted words of the sector of ``words``, and ``rows`` (one per word) on them.

    Sector words not in ``words`` get zero rows.  Refused before the sector is
    enumerated: a word beyond the register, a repeated word and words from two
    sectors (ValueError), and a sector over ``DENSE_CAP`` (``SectorTooLarge``).
    """
    words = [int(w) for w in words]
    if any(w >> 2 * n_orbitals for w in words):
        raise ValueError("determinant occupies orbitals beyond the register")
    if len(set(words)) < len(words):
        raise ValueError("determinant repeated")
    sectors = {spin_counts(w, n_orbitals) for w in words}
    if len(sectors) > 1:
        raise ValueError("determinants mix (N_e, S_z) sectors")
    (sector,) = sectors
    check_dense(sector_dimension(n_orbitals, *sector))
    basis = sector_words(n_orbitals, *sector)
    rows = np.asarray(rows)
    placed = np.zeros((len(basis),) + rows.shape[1:], dtype=rows.dtype)
    placed[np.searchsorted(basis, words)] = rows
    return basis, placed


def normalize(v: CIVector) -> CIVector:
    """The unit vector along ``v``."""
    try:
        norm = float(np.sqrt(sum(abs(a) ** 2 for a in v.amplitudes.tolist())))
    except OverflowError:  # a squared amplitude beyond the float range
        norm = math.inf
    if not math.isfinite(norm):
        raise NonFiniteValue("the norm overflows the float range")
    if norm == 0.0:
        raise ValueError("the state has zero norm")
    unit = np.empty_like(v.amplitudes)   # parts divided apart, as complex / float does
    unit.real, unit.imag = v.amplitudes.real / norm, v.amplitudes.imag / norm
    return CIVector(v.n_orbitals, v.basis, unit)


def register_state(n_orbitals: int, words, amplitudes) -> np.ndarray:
    """``amplitudes`` (a row per occupation word in ``words``) on the 2^(2n) register."""
    if 2 * n_orbitals > STATEVECTOR_QUBIT_CAP:
        raise SectorTooLarge(f"{2 * n_orbitals} qubits exceed the statevector cap "
                             f"{STATEVECTOR_QUBIT_CAP}")
    state = np.zeros((4 ** n_orbitals,) + np.shape(amplitudes)[1:], dtype=complex)
    state[words] = amplitudes
    return state


def electron_sector(n_electrons: int, ms2: int) -> tuple[int, int]:
    """(N_alpha, N_beta) of ``n_electrons`` electrons with 2 S_z = ``ms2``.

    Raises ValueError unless |ms2| <= N (so N >= 0) and N + ms2 is even.
    """
    if abs(ms2) > n_electrons or (n_electrons + ms2) % 2:
        raise ValueError(f"no sector has {n_electrons} electrons and MS2 = {ms2}")
    n_alpha = (n_electrons + ms2) // 2
    return n_alpha, n_electrons - n_alpha


def sector_dimension(n_orbitals: int, n_alpha: int, n_beta: int) -> int:
    """C(n, N_alpha) * C(n, N_beta), without enumerating the sector."""
    if not (0 <= n_alpha <= n_orbitals and 0 <= n_beta <= n_orbitals):
        raise ValueError("electron counts incompatible with orbital count")
    return math.comb(n_orbitals, n_alpha) * math.comb(n_orbitals, n_beta)


def sector_words(n_orbitals: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """The sorted occupation words of a (N_alpha, N_beta) sector, as int64."""
    sector_dimension(n_orbitals, n_alpha, n_beta)
    spins = lambda count, spin: [sum(1 << (2 * p + spin) for p in occ) for occ in
                                 itertools.combinations(range(n_orbitals), count)]
    return np.array(sorted(a | b for a in spins(n_alpha, 0) for b in spins(n_beta, 1)),
                    dtype=np.int64)


def cvs_mask(words: np.ndarray, core_orbitals: Iterable[int], n_orbitals: int) -> np.ndarray:
    """Which occupation ``words`` have exactly one hole (over both spins) in the core.

    Core-valence separation keeps these rows of a dipole-rotated state so the
    propagated state stays in the core-excited window; an empty core keeps every
    word.  A core orbital outside the ``n_orbitals`` register raises ValueError.
    """
    core = {int(c) for c in core_orbitals}
    if any(c < 0 or c >= n_orbitals for c in core):
        raise ValueError("core orbital outside the register")
    words = np.asarray(words)
    occupied = sum(((words >> s) & 1 for c in core for s in (2 * c, 2 * c + 1)),
                   np.zeros_like(words))
    return occupied == 2 * len(core) - 1 if core else np.ones(words.shape, dtype=bool)


# ---------------------------------------------------------------------------
# JSON-lines persistence
# ---------------------------------------------------------------------------

def _bits_to_string(word: int, spin: int, n: int) -> str:
    return "".join("1" if word >> (2 * p + spin) & 1 else "0" for p in range(n))


def _string_to_bits(s: str, spin: int) -> int:
    word = 0
    for p, ch in enumerate(s):
        if ch == "1":
            word |= 1 << (2 * p + spin)
        elif ch != "0":
            raise ValueError(f"invalid occupation string {s!r}")
    return word


def write_civector_jsonl(v: CIVector) -> str:
    """One JSON object per nonzero amplitude, in word order; orbital 0 is the
    leftmost character."""
    lines = []
    for det, amp in zip(v.basis.tolist(), v.amplitudes.tolist()):
        if amp == 0:
            continue
        lines.append(json.dumps({
            "alpha": _bits_to_string(det, 0, v.n_orbitals),
            "beta": _bits_to_string(det, 1, v.n_orbitals),
            "re": amp.real,
            "im": amp.imag,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def read_civector_jsonl(text: str, n_orbitals: int | None = None) -> CIVector:
    """The state of a JSON-lines file, placed on its sector (``place_on_sector``).

    Every record must have ``n_orbitals`` orbitals when it is given, else as
    many as the first one (ValueError naming the line).
    """
    words, amplitudes = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            alpha, beta = doc["alpha"], doc["beta"]
            if len(alpha) != len(beta):
                raise ValueError("alpha and beta strings differ in length")
            if n_orbitals is None:
                n_orbitals = len(alpha)
            elif len(alpha) != n_orbitals:
                raise ValueError(f"{len(alpha)} orbitals, not {n_orbitals}")
            det = _string_to_bits(alpha, 0) | _string_to_bits(beta, 1)
            amp = complex(*number_array([doc["re"], doc.get("im", 0.0)]))
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"line {lineno}: bad CI-vector record ({exc})") from None
        words.append(det)
        amplitudes.append(amp)
    if n_orbitals is None:
        raise ValueError("empty CI-vector stream")
    return CIVector(n_orbitals, *place_on_sector(n_orbitals, words, amplitudes))
