"""Sparse CI vectors over Slater determinants.

A determinant is its occupation word: bit 2p+s set = spatial orbital p
occupied with spin s (0 = alpha, 1 = beta).  Amplitudes follow the
convention that creation operators are applied in ascending qubit index
(qubit = 2p + s), which makes the statevector image of a single determinant
a +1 one-hot vector.  Per-spin orbital masks appear only in the two file
formats: the JSON-lines records here and the eigensystem JSON of ``oracle``.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

STATEVECTOR_QUBIT_CAP = 22  # 2^22 amplitudes, 64 MiB
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


class AnnihilatedError(ValueError):
    """An operator mapped the state to zero.

    Signals a symmetry-forbidden channel; callers record an identically
    zero contribution for it.
    """


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


def ladder(word: int, so: int) -> tuple[float, int]:
    """Sign and word of a_so on a word that occupies ``so``, or of a+_so on one
    that does not: (-1)^(occupied spin orbitals below so), and bit so flipped."""
    below = (word & ((1 << so) - 1)).bit_count()
    return (-1.0 if below & 1 else 1.0), word ^ (1 << so)


@dataclass(frozen=True)
class CIVector:
    """Sparse linear combination of determinants, keyed by occupation word."""

    n_orbitals: int
    entries: dict[int, complex]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("CI vector has no entries")
        sector = spin_counts(next(iter(self.entries)), self.n_orbitals)
        for det, amp in self.entries.items():
            if det >> 2 * self.n_orbitals:
                raise ValueError("determinant occupies orbitals beyond the register")
            if spin_counts(det, self.n_orbitals) != sector:
                raise ValueError("determinants mix (N_e, S_z) sectors")
            if amp == 0:
                raise ValueError("zero amplitude stored; prune before constructing")
            if not np.isfinite(amp):
                raise NonFiniteValue("non-finite amplitude")

    @property
    def sector(self) -> tuple[int, int]:
        """(N_alpha, N_beta) shared by every determinant."""
        return spin_counts(next(iter(self.entries)), self.n_orbitals)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.entries.values())))


def apply_one_body(m: np.ndarray, v: CIVector) -> CIVector:
    """Apply ``sum_{pq,s} m[p,q] a+_{ps} a_{qs}`` to a CI vector.

    Each hop's sign is the product of its two ``ladder`` signs: the parity of
    occupied spin orbitals strictly between source and destination.  Every
    nonzero amplitude is kept; exact zeros (hops that cancel) are dropped, as
    ``CIVector`` stores none.
    """
    m = np.asarray(m, dtype=float)
    n = v.n_orbitals
    if m.shape != (n, n):
        raise ValueError("operator dimension does not match CI vector")
    cols = [np.nonzero(m[:, q])[0] for q in range(n)]
    out: dict[int, complex] = {}
    for det, amp in v.entries.items():
        for spin in (0, 1):
            for q in range(n):
                if not det >> (2 * q + spin) & 1:
                    continue
                s1, hole = ladder(det, 2 * q + spin)
                for p in cols[q]:
                    dst = 2 * int(p) + spin
                    if hole >> dst & 1:
                        continue  # destination occupied (same spin)
                    s2, new = ladder(hole, dst)
                    out[new] = out.get(new, 0j) + s1 * s2 * m[p, q] * amp
    kept = {d: a for d, a in out.items() if a != 0}
    if not kept:
        raise AnnihilatedError("operator annihilates the CI vector")
    return CIVector(n, kept)


def normalize(v: CIVector) -> tuple[CIVector, float]:
    """Return (unit vector, norm); the norm rescales measured amplitudes."""
    try:
        norm = v.norm()
    except OverflowError:  # a squared amplitude beyond the float range
        norm = math.inf
    if not math.isfinite(norm):
        raise NonFiniteValue("the norm overflows the float range")
    if norm == 0.0:
        raise AnnihilatedError("dipole annihilates state")
    unit = CIVector(v.n_orbitals, {d: a / norm for d, a in v.entries.items()})
    return unit, norm


def register_state(n_orbitals: int, words, amplitudes) -> np.ndarray:
    """``amplitudes`` (a row per occupation word in ``words``) on the 2^(2n) register."""
    if 2 * n_orbitals > STATEVECTOR_QUBIT_CAP:
        raise SectorTooLarge(f"{2 * n_orbitals} qubits exceed the statevector cap "
                             f"{STATEVECTOR_QUBIT_CAP}")
    state = np.zeros((4 ** n_orbitals,) + np.shape(amplitudes)[1:], dtype=complex)
    state[words] = amplitudes
    return state


def ci_to_statevector(v: CIVector) -> np.ndarray:
    """Dense statevector over 2*n_orbitals qubits (index = occupation word)."""
    return register_state(v.n_orbitals, list(v.entries), list(v.entries.values()))


def amplitudes_on(v: CIVector, words: np.ndarray) -> np.ndarray:
    """``v``'s amplitudes on sorted occupation ``words``; ValueError if any lies outside."""
    keys = np.array(list(v.entries))
    pos = np.minimum(np.searchsorted(words, keys), len(words) - 1)
    if np.any(words[pos] != keys):
        raise ValueError("CI vector has a determinant outside the basis")
    out = np.zeros(len(words), dtype=complex)
    out[pos] = list(v.entries.values())
    return out


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
    propagated state stays in the core-excited window.  A core orbital
    outside the ``n_orbitals`` register raises ValueError.
    """
    core = {int(c) for c in core_orbitals}
    if any(c < 0 or c >= n_orbitals for c in core):
        raise ValueError("core orbital outside the register")
    words = np.asarray(words)
    occupied = sum(((words >> s) & 1 for c in core for s in (2 * c, 2 * c + 1)),
                   np.zeros_like(words))
    return occupied == 2 * len(core) - 1


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
    """One JSON object per determinant; orbital 0 is the leftmost character."""
    lines = []
    for det in sorted(v.entries):
        amp = v.entries[det]
        lines.append(json.dumps({
            "alpha": _bits_to_string(det, 0, v.n_orbitals),
            "beta": _bits_to_string(det, 1, v.n_orbitals),
            "re": amp.real,
            "im": amp.imag,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def read_civector_jsonl(text: str) -> CIVector:
    entries: dict[int, complex] = {}
    n_orbitals = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            det = _string_to_bits(doc["alpha"], 0) | _string_to_bits(doc["beta"], 1)
            amp = complex(doc["re"], doc.get("im", 0.0))
            width = len(doc["alpha"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"line {lineno}: bad CI-vector record ({exc})") from None
        if n_orbitals is None:
            n_orbitals = width
        elif width != n_orbitals:
            raise ValueError(f"line {lineno}: inconsistent orbital count")
        if det in entries:
            raise ValueError(f"line {lineno}: determinant repeated")
        entries[det] = amp
    if n_orbitals is None:
        raise ValueError("empty CI-vector stream")
    return CIVector(n_orbitals, entries)
