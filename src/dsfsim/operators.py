"""Second-quantized operators and their qubit (Pauli) images.

The Hamiltonian convention is

    H = offset + sum_{pq,s} one_body[p,q] a+_{ps} a_{qs}
        + 1/2 sum_{pqrs,ss'} two_body[p,q,r,s] a+_{ps} a_{qs} a+_{rs'} a_{ss'}

i.e. the two-body part is a product of spin-summed one-body excitations, and
``one_body`` absorbs the compensating one-body correction.  Use
:func:`from_core_integrals` to build a Hamiltonian from conventional core
integrals instead.  Spatial orbital p with spin s maps to qubit ``2p + s``
(s = 0 for alpha).
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .ci import number_array
from .pauli import LinearPauli, PauliSum, collapse, ladder

SYMMETRY_TOL = 1e-12


class FcidumpError(ValueError):
    """Raised on malformed FCIDUMP input; message names the offending line."""


def _check_symmetric(m: np.ndarray, what: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} has non-finite entries")
    if np.max(np.abs(m - m.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError(f"{what} is not symmetric to {SYMMETRY_TOL}")
    if np.iscomplexobj(m):
        raise ValueError(f"{what} must be real")


_EIGHTFOLD = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
              (2, 3, 0, 1), (2, 3, 1, 0), (3, 2, 0, 1), (3, 2, 1, 0)]


def eightfold_orbit(idx: tuple[int, int, int, int]) -> set[tuple[int, int, int, int]]:
    """The index quadruples that 8-fold symmetry ties to ``idx``."""
    return {(idx[a], idx[b], idx[c], idx[d]) for a, b, c, d in _EIGHTFOLD}


def canonical_quadruples(n: int):
    """One (p, q, r, s) per 8-fold orbit of range(n)^4, in FCIDUMP order:
    p >= q, r >= s, and the pair index of (r, s) at most that of (p, q)."""
    for p in range(n):
        for q in range(p + 1):
            pq = p * (p + 1) // 2 + q
            for r in range(p + 1):
                for s in range(r + 1):
                    if r * (r + 1) // 2 + s <= pq:
                        yield p, q, r, s


def _check_eightfold(g: np.ndarray) -> None:
    if g.ndim != 4 or len(set(g.shape)) != 1:
        raise ValueError("two-body tensor must be rank-4 with equal axes")
    if not np.all(np.isfinite(g)):
        raise ValueError("two-body tensor has non-finite entries")
    for perm in _EIGHTFOLD[1:]:
        if np.max(np.abs(g - g.transpose(perm)), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("two-body tensor violates 8-fold index symmetry")


@dataclass(frozen=True)
class Hamiltonian:
    """Active-space electronic Hamiltonian in the convention above."""

    offset: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "one_body", np.asarray(self.one_body, dtype=float))
        object.__setattr__(self, "two_body", np.asarray(self.two_body, dtype=float))
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")
        _check_symmetric(self.one_body, "one-body matrix")
        _check_eightfold(self.two_body)
        if self.two_body.shape[0] != self.one_body.shape[0]:
            raise ValueError("one- and two-body dimensions disagree")

    @property
    def n_orbitals(self) -> int:
        return self.one_body.shape[0]

    def core_one_body(self) -> np.ndarray:
        """Equivalent core integrals h_pq of the normal-ordered convention."""
        return self.one_body + 0.5 * np.einsum("prrq->pq", self.two_body)


def from_core_integrals(offset: float, h_core: np.ndarray,
                        two_body: np.ndarray) -> Hamiltonian:
    """Build a Hamiltonian from conventional core one-electron integrals."""
    h_core = np.asarray(h_core, dtype=float)
    two_body = np.asarray(two_body, dtype=float)
    one_body = h_core - 0.5 * np.einsum("prrq->pq", two_body)
    return Hamiltonian(offset, one_body, two_body)


@dataclass(frozen=True)
class DipoleOperator:
    """Cartesian one-body dipole matrices (Bohr), one per component."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            m = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, m)
            _check_symmetric(m, f"dipole component {name}")
        if not (self.x.shape == self.y.shape == self.z.shape):
            raise ValueError("dipole components must share a shape")

    @property
    def n_orbitals(self) -> int:
        return self.x.shape[0]

    def component(self, axis: str) -> np.ndarray:
        return {"x": self.x, "y": self.y, "z": self.z}[axis]


@dataclass(frozen=True)
class QVector:
    """Momentum transfer in inverse Bohr."""

    qx: float
    qy: float
    qz: float

    def __post_init__(self):
        if not all(np.isfinite(c) for c in (self.qx, self.qy, self.qz)):
            raise ValueError("momentum components must be finite")

    def component(self, axis: str) -> float:
        return {"x": self.qx, "y": self.qy, "z": self.qz}[axis]


# ---------------------------------------------------------------------------
# FCIDUMP interchange format
# ---------------------------------------------------------------------------

_HEADER_FIELD = re.compile(r"([A-Za-z0-9]+)\s*=\s*([^,\s=&/]*)")
_WHOLE = re.compile(r"[-+]?[0-9]+")
_READ_FIELDS = ("NORB", "NELEC", "MS2")   # the header fields this package uses


def _split_header(lines: list[str]) -> tuple[dict[str, int], int]:
    """Integer namelist fields (NORB, NELEC, MS2, ...) of the header, and the
    index of the first body line.  The header ends at the first line that
    holds ``&END`` or is a lone ``/``; a text without one, and a NORB, NELEC
    or MS2 that is not a whole integer, raise FcidumpError.  Other fields
    whose value is not one (``UHF=.FALSE.``, ``ORBSYM=4*1``) are skipped."""
    body = next((i + 1 for i, line in enumerate(lines)
                 if "&END" in line.upper() or line.strip() == "/"), None)
    fields = {}
    for key, value in _HEADER_FIELD.findall(" ".join(lines[:body])):
        if _WHOLE.fullmatch(value):
            fields[key.upper()] = int(value)
        elif key.upper() in _READ_FIELDS:
            raise FcidumpError(f"header field {key} must be a whole integer, not '{value}'")
    if "NORB" not in fields:
        raise FcidumpError("line 1: header is missing NORB")
    if body is None:
        raise FcidumpError(f"line {len(lines)}: the header never ends (no &END or / line)")
    return fields, body


def parse_fcidump_header(text: str) -> dict[str, int]:
    """Extract integer namelist fields (NORB, NELEC, MS2, ...) from the header."""
    return _split_header(text.splitlines())[0]


def parse_fcidump(text: str) -> Hamiltonian:
    """Parse an FCIDUMP stream into a Hamiltonian.

    One-body values are stored verbatim into ``one_body`` (this package's
    product-of-excitations convention); unlisted integrals default to zero and
    every listed value is symmetrized over the standard index permutations.
    A line that sets an integral (any of its permutations) or the offset
    that an earlier line set to a value more than ``SYMMETRY_TOL`` away
    raises ``FcidumpError``; equal repeats are accepted.
    """
    lines = text.splitlines()
    fields, body = _split_header(lines)
    n = fields["NORB"]
    if n < 1:
        raise FcidumpError("line 1: NORB must be positive")
    values: dict[tuple, float] = {}   # 0-based index -> value; () is the offset
    for lineno, raw in enumerate(lines[body:], start=body + 1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise FcidumpError(f"line {lineno}: expected 'value p q r s'")
        if "_" in raw:  # float and int read "1_0" as 10
            raise FcidumpError(f"line {lineno}: malformed number")
        try:
            value = float(parts[0])
            p, q, r, s = (int(t) for t in parts[1:])
        except ValueError:
            raise FcidumpError(f"line {lineno}: malformed number") from None
        if not np.isfinite(value):
            raise FcidumpError(f"line {lineno}: non-finite value")
        if (p, q, r, s) == (0, 0, 0, 0):
            keys = [()]
        elif min(p, q, r, s) < 0 or max(p, q, r, s) > n:
            raise FcidumpError(f"line {lineno}: orbital index out of range 1..{n}")
        elif r == 0 and s == 0:
            if p == 0 or q == 0:
                raise FcidumpError(f"line {lineno}: incomplete one-body index pair")
            keys = [(p - 1, q - 1), (q - 1, p - 1)]
        else:
            if min(p, q, r, s) == 0:
                raise FcidumpError(f"line {lineno}: incomplete two-body index quad")
            keys = eightfold_orbit((p - 1, q - 1, r - 1, s - 1))
        for key in keys:
            earlier = values.setdefault(key, value)
            if abs(earlier - value) > SYMMETRY_TOL:
                raise FcidumpError(f"line {lineno}: {value!r} conflicts with the value "
                                   f"{earlier!r} an earlier line set")
            values[key] = value
    one = np.zeros((n, n))
    two = np.zeros((n, n, n, n))
    for key, value in values.items():
        if key:
            (one if len(key) == 2 else two)[key] = value
    return Hamiltonian(values.get((), 0.0), one, two)


# Integrals at most this large in magnitude are left out of a written FCIDUMP.
FCIDUMP_WRITE_TOL = 1e-15


def write_fcidump(h: Hamiltonian, n_electrons: int, ms2: int) -> str:
    """Render a Hamiltonian as FCIDUMP text (canonical 8-fold entries only)."""
    n = h.n_orbitals
    out = [f" &FCI NORB={n},NELEC={n_electrons},MS2={ms2},",
           "  ORBSYM=" + "1," * n,
           "  ISYM=1,",
           " &END"]
    for p, q, r, s in canonical_quadruples(n):
        v = float(h.two_body[p, q, r, s])
        if abs(v) > FCIDUMP_WRITE_TOL:
            out.append(f"{v!r} {p+1} {q+1} {r+1} {s+1}")
    for p in range(n):
        for q in range(p + 1):
            v = float(h.one_body[p, q])
            if abs(v) > FCIDUMP_WRITE_TOL:
                out.append(f"{v!r} {p+1} {q+1} 0 0")
    out.append(f"{float(h.offset)!r} 0 0 0 0")
    return "\n".join(out) + "\n"


def read_fcidump_file(path) -> tuple[Hamiltonian, dict[str, int]]:
    with open(path) as fh:
        text = fh.read()
    return parse_fcidump(text), parse_fcidump_header(text)


# ---------------------------------------------------------------------------
# Dipole matrices as a companion JSON document
# ---------------------------------------------------------------------------

def load_dipole_json(text: str) -> DipoleOperator:
    """The matrices ``x``, ``y`` and ``z`` of a dipole document (``ci.number_array``)."""
    doc = json.loads(text)
    try:
        return DipoleOperator(*(number_array(doc[axis]) for axis in "xyz"))
    except KeyError as exc:
        raise ValueError(f"dipole JSON is missing component {exc}") from None


def dump_dipole_json(d: DipoleOperator) -> str:
    return json.dumps({axis: d.component(axis).tolist() for axis in "xyz"},
                      sort_keys=True)


# ---------------------------------------------------------------------------
# Jordan-Wigner mapping
# ---------------------------------------------------------------------------

def _spin_excitation(p: int, q: int) -> LinearPauli:
    """Spin-summed excitation sum_s a+_{ps} a_{qs} as a word accumulator."""
    acc = LinearPauli()
    for spin in (0, 1):
        acc.add_sum(ladder(2 * p + spin, dagger=True) * ladder(2 * q + spin, dagger=False))
    return acc


def one_body_to_pauli(m: np.ndarray) -> PauliSum:
    """Qubit image of ``sum_{pq,s} m[p,q] a+_{ps} a_{qs}`` for symmetric m: the
    ``jordan_wigner`` image of the Hamiltonian with one-body part m alone."""
    m = np.asarray(m, dtype=float)
    return jordan_wigner(Hamiltonian(0.0, m, np.zeros(m.shape * 2)))


# i**-k for k = 0..3.  The canonical word i**|x & z| X^x Z^z with coefficient c
# is the bare product X^x Z^z with coefficient a = c i**|x & z|, so
# c = a * _I_INVERSE[|x & z| % 4]; either conversion is exact.
_I_INVERSE = (1 + 0j, -1j, -1 + 0j, 1j)


def jordan_wigner(h: Hamiltonian) -> PauliSum:
    """Map a Hamiltonian to its qubit representation.

    Each spin-summed excitation E_pq is a sum of at most 8 words, built from
    ladder products.  For the two-body part 1/2 sum g_pqrs E_pq E_rs, a word
    (x, z) is packed into the integer ``x << 2n | z`` and carried as a bare
    product a X^x Z^z.  The product of two words is then one XOR of the
    packed keys and the sign Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1; that sign
    is worked out once per word of E_pq and X-mask of E_rs.  The running
    totals are bare too, and become canonical coefficients at the end.

    Accumulation-order contract, which keeps every coefficient bit-identical
    to multiplying the ladder-product sums term by term:
    - every excitation coefficient, and every product of two of them, is
      +-2**-k times a unit phase, so the per-word sum within one product
      E_pq E_rs is exact in any order;
    - only two steps round: fl(g_pqrs / 2 * that sum), and the running
      total of each word; multiplying by a unit phase only swaps and
      negates real and imaginary parts, so it commutes with both;
    - each running total starts at zero and adds the offset, then the
      one-body terms in (p, q) order, then the two-body terms in
      (p, q, r, s) order.

    Negligible coefficients are dropped (see ``pauli.collapse``); the result
    is Hermitian with purely real coefficients.
    """
    n = h.n_orbitals
    shift = 2 * n
    g = h.two_body.reshape(n * n, n * n)
    # E_pq is built only where an integral uses it (a dipole has no two-body part)
    used = (h.one_body.ravel() != 0.0) | g.any(axis=0) | g.any(axis=1)
    excitations = [_spin_excitation(p, q) if used[p * n + q] else LinearPauli()
                   for p in range(n) for q in range(n)]
    acc = LinearPauli()
    acc.add(complex(h.offset), 0, 0)
    for e, m in zip(excitations, h.one_body.flat):
        if abs(m) > 0.0:
            acc.add_sum(e, m)
    bare = lambda x, z, c: c * _I_INVERSE[-(x & z).bit_count() % 4]
    totals = {x << shift | z: bare(x, z, c) for (x, z), c in acc.terms.items()}
    # (packed key, x, z, a) for each word of each E_pq, in pq = p * n + q order
    words = [[(x << shift | z, x, z, bare(x, z, c)) for (x, z), c in e.terms.items()]
             for e in excitations]
    for left, g_pq in zip(words, g.tolist()):
        signed: dict[int, list] = {}   # X-mask of a right word -> signed left words
        for right, g_pqrs in zip(words, g_pq):
            if g_pqrs == 0.0:
                continue
            product: dict[int, complex] = {}
            for k2, x2, _, a2 in right:
                lw = signed.get(x2)
                if lw is None:
                    lw = signed[x2] = [(k1, -a1 if (z1 & x2).bit_count() & 1 else a1)
                                       for k1, _, z1, a1 in left]
                for k1, a1 in lw:
                    k = k1 ^ k2
                    product[k] = product.get(k, 0j) + a1 * a2
            half_g = 0.5 * g_pqrs
            for k, a in product.items():
                totals[k] = totals.get(k, 0j) + half_g * a
    for k, a in totals.items():
        # + 0j turns the -0.0 a negated zero part may carry into the +0.0 of a total
        totals[k] = a * _I_INVERSE[(k & k >> shift).bit_count() % 4] + 0j
    mask = (1 << shift) - 1
    return collapse(totals, shift, unpack=lambda k: (k >> shift, k & mask))
