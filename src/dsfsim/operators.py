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

import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

from .ci import number_array
from .pauli import LinearPauli, PauliSum, collapse, kept_coefficients, ladder

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
# Products E_pq E_rs per pass: each has at most 64 words, so a pass has at most 2^11.
_PASS_PRODUCTS = 32


def _bare_words(e: LinearPauli, shift: int) -> list[tuple[int, int, complex]]:
    """(key x << shift | z, x, a) of each word of an accumulator, a its bare coefficient."""
    return [(x << shift | z, x, c * _I_INVERSE[-(x & z).bit_count() % 4])
            for (x, z), c in e.terms.items()]


def _product_words(left: list, right: list) -> dict[int, list]:
    """[S, i, j] for each word key of the product of two ``_bare_words`` lists: S its
    bare coefficient, an exact sum over the pairs of words that multiply to it
    (Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1, and k1 & x2 is z1 & x2, the x bits of
    a key lying above x2's), and i, j the positions of one pair."""
    out: dict[int, list] = {}
    for j, (k2, x2, a2) in enumerate(right):
        for i, (k1, _, a1) in enumerate(left):
            word = out.setdefault(k1 ^ k2, [0j, i, j])
            word[0] += (-a1 if (k1 & x2).bit_count() & 1 else a1) * a2
    return out


def _order_types(orbitals: list[np.ndarray]) -> np.ndarray:
    """Code of the order type of each (p, q, r, s): the sign of each pairwise
    difference, read in base 3."""
    code = np.zeros(len(orbitals[0]))
    for a, b in itertools.combinations(orbitals, 2):
        code = 3.0 * code + np.where(a < b, 0.0, np.where(a > b, 2.0, 1.0))
    return code.astype(np.intp)


class _ProductTable:
    """The words of E_pq E_rs for each order type of (p, q, r, s) given.

    The order type fixes everything but where the words sit: which pairs of
    words multiply to the same word, and the exact sums S.  So a type is
    worked out once, on orbitals 0..3 in its order, and its words are
    listed by their keys there: the eight products that 8-fold symmetry
    ties together hold the same words (E_qp holds the words of E_pq, and
    keys commute), so they list them in the same order.  Row
    ``first[code] + c`` holds word c of type ``code`` (which has ``count[code]``),
    and ``pairs[code]`` lists, for each word, the positions i and j of one pair
    of words of E_pq and E_rs whose product it is.
    """

    def __init__(self, codes: np.ndarray, orbitals: list[np.ndarray]):
        rep = np.zeros(3 ** 6, dtype=np.intp)
        rep[codes] = np.arange(len(codes))   # any product of each type stands for it
        self.count, self.first = np.zeros(3 ** 6), np.zeros(3 ** 6)
        self.pairs: dict[int, tuple[list, list]] = {}
        excitations: dict[tuple, list] = {}
        sums = []
        for code in np.flatnonzero(np.bincount(codes, minlength=3 ** 6)).tolist():
            pqrs = [int(o[rep[code]]) for o in orbitals]
            rank = tuple(sorted(set(pqrs)).index(o) for o in pqrs)
            for pair in (rank[:2], rank[2:]):
                if pair not in excitations:
                    excitations[pair] = _bare_words(_spin_excitation(*pair), 8)
            words = sorted(_product_words(excitations[rank[:2]], excitations[rank[2:]]).items())
            self.first[code], self.count[code] = len(sums), len(words)
            sums += [s for _, (s, _, _) in words]
            self.pairs[code] = [i for _, (_, i, _) in words], [j for _, (_, _, j) in words]
        sums = np.array(sums, dtype=complex)
        self.re, self.im = sums.real.copy(), sums.imag.copy()


def _canonical_products(orbitals: list[np.ndarray], n: int) -> np.ndarray:
    """Index ((p n + q) n + r) n + s of the representative of each (p, q, r, s) under
    8-fold symmetry: p >= q, r >= s, and the pair (p, q) not below (r, s)."""
    p, q, r, s = orbitals
    hi1, lo1, hi2, lo2 = np.maximum(p, q), np.minimum(p, q), np.maximum(r, s), np.minimum(r, s)
    first = hi1 * (hi1 + 1.0) / 2.0 + lo1 >= hi2 * (hi2 + 1.0) / 2.0 + lo2
    pqrs = (np.where(first, a, b) for a, b in ((hi1, hi2), (lo1, lo2), (hi2, hi1), (lo2, lo1)))
    index = np.zeros(len(p))
    for o in pqrs:
        index = index * n + o
    return index.astype(np.intp)


def jordan_wigner(h: Hamiltonian) -> PauliSum:
    """Map a Hamiltonian to its qubit representation.

    Each spin-summed excitation E_pq is a sum of at most 8 words, built from
    ladder products.  A word (x, z) is packed into the key ``x << 2n | z``
    and carried as a bare product a X^x Z^z; the product of two words is one
    XOR of the keys and the sign Z^z1 X^x2 = (-1)^|z1 & x2| X^x2 Z^z1.  The
    running totals are bare too, and become canonical coefficients at the end.

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

    The exact sums come from ``_ProductTable``, and each word's total has a
    slot: the keys of one product of each symmetry orbit find their slots
    in a dict, and the orbit's other products take the same slots.  The
    two-body terms then run in passes of ``_PASS_PRODUCTS`` products in
    (p, q, r, s) order: the first rounding step is one float multiply of a
    pass's arrays (real and imaginary parts apart), and the second is
    ``np.add.at`` into the totals, which adds in entry order, so in
    (p, q, r, s) order for each word.  Negligible coefficients are dropped
    (see ``pauli.collapse``); the result is Hermitian with purely real
    coefficients.

    Keys are XORed in Python, and numpy runs float, comparison and index
    kernels only, in passes of at most 2^11 entries: the benchmark harness
    maps its model in its own process, whose resident memory every later
    run's peak inherits, and each integer or sort kernel a process first
    runs maps 64 kB or more of numpy's code (``np.sign`` alone did).
    """
    n = h.n_orbitals
    shift = 2 * n
    g = h.two_body.reshape(n * n, n * n)
    # E_pq is built where an integral uses it or E_qp (a dipole has no two-body part)
    used = ((h.one_body.ravel() != 0.0) | g.any(axis=0) | g.any(axis=1)).reshape(n, n)
    excitations = [_spin_excitation(p, q) if used[p, q] or used[q, p] else LinearPauli()
                   for p in range(n) for q in range(n)]
    acc = LinearPauli()
    acc.add(complex(h.offset), 0, 0)
    for e, m in zip(excitations, h.one_body.flat):
        if abs(m) > 0.0:
            acc.add_sum(e, m)
    start = _bare_words(acc, shift)
    keys = [[k for k, _, _ in _bare_words(e, shift)] for e in excitations]
    del excitations, acc   # each del keeps the traced peak under the dict loop's (see tests)

    left, right = np.nonzero(g)   # the products E_pq E_rs with g_pqrs != 0, in order
    p_of, q_of = np.repeat(np.arange(n, dtype=float), n), np.tile(np.arange(n, dtype=float), n)
    orbitals = [p_of[left], q_of[left], p_of[right], q_of[right]]
    canonical = _canonical_products(orbitals, n)
    orbits = np.flatnonzero(np.bincount(canonical, minlength=n ** 4))
    orbit_pairs = np.array([divmod(o, n * n) for o in orbits.tolist()], dtype=np.intp)
    orbit_left, orbit_right = orbit_pairs.reshape(-1, 2).T
    orbit_orbitals = [p_of[orbit_left], q_of[orbit_left], p_of[orbit_right], q_of[orbit_right]]
    codes, orbit_codes = _order_types(orbitals), _order_types(orbit_orbitals)
    table = _ProductTable(np.concatenate([codes, orbit_codes]),
                          [np.concatenate(o) for o in zip(orbitals, orbit_orbitals)])
    del orbitals, orbit_orbitals

    # The slot of each word of each orbit's representative, found by its key; the
    # totals of the words of start come first.
    slot = {k: i for i, (k, _, _) in enumerate(start)}
    slots = np.empty(int(table.count[orbit_codes].sum()), dtype=np.intp)
    orbit_first = np.zeros(n ** 4)   # where an orbit's slots begin
    at = 0
    for orbit, a, b, code in zip(orbits.tolist(), orbit_left.tolist(), orbit_right.tolist(),
                                 orbit_codes.tolist()):
        orbit_first[orbit] = at
        ka, kb, (i, j) = keys[a], keys[b], table.pairs[code]
        slots[at:at + len(i)] = [slot.setdefault(ka[i] ^ kb[j], len(slot)) for i, j in zip(i, j)]
        at += len(i)
    words = list(slot)   # the key of each slot
    del slot, keys

    re, im = np.zeros(len(words)), np.zeros(len(words))
    re[:len(start)] = [a.real for _, _, a in start]
    im[:len(start)] = [a.imag for _, _, a in start]
    half_g = 0.5 * g[left, right]
    for begin in range(0, left.size, _PASS_PRODUCTS):
        span = slice(begin, begin + _PASS_PRODUCTS)
        count = table.count[codes[span]]
        product = np.repeat(np.arange(count.size), count.astype(np.intp))
        word = np.arange(product.size, dtype=float) - (np.cumsum(count) - count)[product]
        row = (table.first[codes[span]][product] + word).astype(np.intp)
        at = slots[(orbit_first[canonical[span]][product] + word).astype(np.intp)]
        np.add.at(re, at, half_g[span][product] * table.re[row])
        np.add.at(im, at, half_g[span][product] * table.im[row])

    kept, _ = kept_coefficients(np.hypot(re, im))
    survivors = [words[i] for i in kept.tolist()]
    del words
    terms = {}
    for k, a_re, a_im in zip(survivors, re[kept].tolist(), im[kept].tolist()):
        # + 0j turns the -0.0 a negated zero part may carry into the +0.0 of a total
        terms[k >> shift, k & (1 << shift) - 1] = (
            complex(a_re, a_im) * _I_INVERSE[(k & k >> shift).bit_count() % 4] + 0j)
    del survivors, re, im   # the sort in collapse is the peak
    return collapse(terms, shift)
