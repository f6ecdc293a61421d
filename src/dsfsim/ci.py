"""Sparse CI vectors over Slater determinants.

A determinant stores per-spin occupation bitmasks (bit p set = spatial
orbital p occupied).  Amplitudes follow the convention that creation
operators are applied in ascending qubit index (qubit = 2p + spin), which
makes the statevector image of a single determinant a +1 one-hot vector.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

PRUNE_THRESHOLD = 1e-12


class AnnihilatedError(ValueError):
    """An operator or projection mapped the state to zero.

    Signals a symmetry-forbidden channel; callers record an identically
    zero contribution for it.
    """


class Determinant(NamedTuple):
    occ_alpha: int
    occ_beta: int

    @property
    def n_alpha(self) -> int:
        return self.occ_alpha.bit_count()

    @property
    def n_beta(self) -> int:
        return self.occ_beta.bit_count()

    @property
    def n_electrons(self) -> int:
        return self.n_alpha + self.n_beta

    def interleaved(self) -> int:
        """Spin-orbital occupation word, bit 2p+s for orbital p, spin s."""
        return _interleave(self.occ_alpha) | (_interleave(self.occ_beta) << 1)


def _interleave(mask: int) -> int:
    """Spread the bits of ``mask`` onto even positions (p -> 2p)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= low * low  # 1<<p squared is 1<<2p
        mask ^= low
    return out


@dataclass(frozen=True)
class CIVector:
    """Sparse linear combination of determinants with complex amplitudes."""

    n_orbitals: int
    entries: dict[Determinant, complex]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("CI vector has no entries")
        orb_mask = (1 << self.n_orbitals) - 1
        first = next(iter(self.entries))
        na, nb = first.n_alpha, first.n_beta
        for det, amp in self.entries.items():
            if det.occ_alpha & ~orb_mask or det.occ_beta & ~orb_mask:
                raise ValueError("determinant occupies orbitals beyond the register")
            if det.n_alpha != na or det.n_beta != nb:
                raise ValueError("determinants mix (N_e, S_z) sectors")
            if amp == 0:
                raise ValueError("zero amplitude stored; prune before constructing")
            if not np.isfinite(amp):
                raise ValueError("non-finite amplitude")

    @property
    def n_alpha(self) -> int:
        return next(iter(self.entries)).n_alpha

    @property
    def n_beta(self) -> int:
        return next(iter(self.entries)).n_beta

    @property
    def n_electrons(self) -> int:
        return self.n_alpha + self.n_beta

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.entries.values())))


def overlap(a: CIVector, b: CIVector) -> complex:
    """<a|b> computed sparsely; a diagnostic for input-state quality."""
    if len(a.entries) > len(b.entries):
        return complex(np.conj(overlap(b, a)))
    return complex(sum(np.conj(a.entries[d]) * b.entries[d]
                       for d in a.entries if d in b.entries))


def _hop_sign(word: int, src: int, dst: int) -> float:
    """Fermionic sign of a+_dst a_src on occupation ``word`` (src occupied)."""
    if src == dst:
        return 1.0
    lo, hi = (src, dst) if src < dst else (dst, src)
    between = word & (((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1))
    return -1.0 if between.bit_count() & 1 else 1.0


def apply_one_body(m: np.ndarray, v: CIVector,
                   prune: float = PRUNE_THRESHOLD) -> CIVector:
    """Apply ``sum_{pq,s} m[p,q] a+_{ps} a_{qs}`` to a CI vector.

    Signs follow the ascending-qubit-order amplitude convention: each hop
    picks up the parity of occupied spin orbitals strictly between source
    and destination.  Amplitudes below ``prune`` (relative to the largest)
    are discarded to keep the support sparse.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (v.n_orbitals, v.n_orbitals):
        raise ValueError("operator dimension does not match CI vector")
    cols = [np.nonzero(m[:, q])[0] for q in range(v.n_orbitals)]
    out: dict[Determinant, complex] = {}
    for det, amp in v.entries.items():
        word = det.interleaved()
        for spin, occ in ((0, det.occ_alpha), (1, det.occ_beta)):
            rest = occ
            while rest:
                low = rest & -rest
                q = low.bit_length() - 1
                rest ^= low
                for p in cols[q]:
                    p = int(p)
                    if p != q and (occ >> p) & 1:
                        continue  # destination occupied (same spin)
                    sign = _hop_sign(word, 2 * q + spin, 2 * p + spin)
                    new_occ = occ if p == q else (occ ^ (1 << q)) | (1 << p)
                    new = (Determinant(new_occ, det.occ_beta) if spin == 0
                           else Determinant(det.occ_alpha, new_occ))
                    out[new] = out.get(new, 0j) + sign * m[p, q] * amp
    scale = max((abs(a) for a in out.values()), default=0.0)
    kept = {d: a for d, a in out.items() if abs(a) > prune * max(scale, 1e-300)}
    if not kept:
        raise AnnihilatedError("operator annihilates the CI vector")
    return CIVector(v.n_orbitals, kept)


def normalize(v: CIVector) -> tuple[CIVector, float]:
    """Return (unit vector, norm); the norm rescales measured amplitudes."""
    norm = v.norm()
    if norm == 0.0:
        raise AnnihilatedError("dipole annihilates state")
    unit = CIVector(v.n_orbitals, {d: a / norm for d, a in v.entries.items()})
    return unit, norm


def moment(v0: CIVector, m_a: np.ndarray, m_b: np.ndarray) -> float:
    """<v0| A B |v0> for symmetric one-body matrices A, B; real by symmetry."""
    try:
        left = apply_one_body(m_a, v0, prune=0.0)
        right = apply_one_body(m_b, v0, prune=0.0)
    except AnnihilatedError:
        return 0.0
    value = overlap(left, right)
    return float(np.real(value))


def ci_to_statevector(v: CIVector, max_qubits: int = 22) -> np.ndarray:
    """Dense statevector over 2*n_orbitals qubits (index = occupation word)."""
    n_qubits = 2 * v.n_orbitals
    if n_qubits > max_qubits:
        raise ValueError(f"{n_qubits} qubits exceed the configured cap {max_qubits}")
    state = np.zeros(1 << n_qubits, dtype=complex)
    for det, amp in v.entries.items():
        state[det.interleaved()] = amp
    return state


def sector_dimension(n_orbitals: int, n_alpha: int, n_beta: int) -> int:
    """C(n, N_alpha) * C(n, N_beta), without enumerating the sector."""
    if not (0 <= n_alpha <= n_orbitals and 0 <= n_beta <= n_orbitals):
        raise ValueError("electron counts incompatible with orbital count")
    return math.comb(n_orbitals, n_alpha) * math.comb(n_orbitals, n_beta)


def sector_basis(n_orbitals: int, n_alpha: int, n_beta: int) -> list[Determinant]:
    """All determinants of a (N_alpha, N_beta) sector, sorted by occupation word."""
    sector_dimension(n_orbitals, n_alpha, n_beta)
    masks = lambda count: [sum(1 << p for p in occ) for occ in
                           itertools.combinations(range(n_orbitals), count)]
    return sorted((Determinant(a, b) for a in masks(n_alpha) for b in masks(n_beta)),
                  key=Determinant.interleaved)


def sector_words(n_orbitals: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """Sorted occupation words of a (N_alpha, N_beta) sector."""
    return np.array([d.interleaved() for d in sector_basis(n_orbitals, n_alpha, n_beta)])


def cvs_project(v: CIVector, core_orbitals: Iterable[int]) -> CIVector:
    """Keep determinants with exactly one hole (over both spins) in the core.

    Used on dipole-rotated states so the propagated state stays in the
    core-excited window.
    """
    core = set(int(c) for c in core_orbitals)
    if any(c < 0 or c >= v.n_orbitals for c in core):
        raise ValueError("core orbital outside the register")
    kept = {}
    for det, amp in v.entries.items():
        holes = sum(2 - ((det.occ_alpha >> c) & 1) - ((det.occ_beta >> c) & 1)
                    for c in core)
        if holes == 1:
            kept[det] = amp
    if not kept:
        raise AnnihilatedError("CVS projection annihilated state")
    return CIVector(v.n_orbitals, kept)


# ---------------------------------------------------------------------------
# JSON-lines persistence
# ---------------------------------------------------------------------------

def _bits_to_string(mask: int, n: int) -> str:
    return "".join("1" if (mask >> p) & 1 else "0" for p in range(n))


def _string_to_bits(s: str) -> int:
    mask = 0
    for p, ch in enumerate(s):
        if ch == "1":
            mask |= 1 << p
        elif ch != "0":
            raise ValueError(f"invalid occupation string {s!r}")
    return mask


def write_civector_jsonl(v: CIVector) -> str:
    """One JSON object per determinant; orbital 0 is the leftmost character."""
    lines = []
    for det in sorted(v.entries, key=lambda d: d.interleaved()):
        amp = v.entries[det]
        lines.append(json.dumps({
            "alpha": _bits_to_string(det.occ_alpha, v.n_orbitals),
            "beta": _bits_to_string(det.occ_beta, v.n_orbitals),
            "re": amp.real,
            "im": amp.imag,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def read_civector_jsonl(text: str) -> CIVector:
    entries: dict[Determinant, complex] = {}
    n_orbitals = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            det = Determinant(_string_to_bits(doc["alpha"]),
                              _string_to_bits(doc["beta"]))
            amp = complex(doc["re"], doc.get("im", 0.0))
            width = len(doc["alpha"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"line {lineno}: bad CI-vector record ({exc})") from None
        if n_orbitals is None:
            n_orbitals = width
        elif width != n_orbitals:
            raise ValueError(f"line {lineno}: inconsistent orbital count")
        entries[det] = amp
    if n_orbitals is None:
        raise ValueError("empty CI-vector stream")
    return CIVector(n_orbitals, entries)
