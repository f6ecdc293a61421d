"""The array-built Jordan-Wigner map against the dict loop it replaced, bit for bit.

``operators.jordan_wigner`` takes each product's exact word sums from a table
per order type of (p, q, r, s) and adds a pass of products to the totals with
``np.add.at``.  The accumulation contract of its docstring keeps every bit of
the loop kept here as a reference, so ``repr`` of the terms must match; a sum
rounded per pair, totals added out of (p, q, r, s) order, a lost ``+ 0j`` or a
sign taken from the wrong factor moves them.
"""
import tracemalloc

import numpy as np
import pytest

from dsfsim import fixtures
from dsfsim.operators import (_EIGHTFOLD, _I_INVERSE, SYMMETRY_TOL, Hamiltonian,
                              _spin_excitation, canonical_quadruples, eightfold_orbit,
                              jordan_wigner)
from dsfsim.pauli import DROP_THRESHOLD, IMAG_TOL, LinearPauli, PauliSum


def reference_collapse(terms: dict, n_qubits: int, unpack) -> PauliSum:
    """Drop, check and sort totals keyed by packed words, as the loop's collapse did."""
    scale = max(1.0, max(map(abs, terms.values()), default=1.0))
    out = {}
    for key, c in terms.items():
        if abs(c) < DROP_THRESHOLD * scale:
            continue
        if abs(c.imag) > IMAG_TOL * scale:
            raise ValueError("non-Hermitian accumulation: imaginary coefficient survives")
        out[unpack(key)] = c.real
    return PauliSum.from_dict(out, n_qubits)


def reference_jordan_wigner(h: Hamiltonian) -> PauliSum:
    """The per-word dict loop: for each product E_pq E_rs, the exact sum of each word
    over its pairs, then one fl(g_pqrs / 2 * sum) added to the word's running total."""
    n = h.n_orbitals
    shift = 2 * n
    g = h.two_body.reshape(n * n, n * n)
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
    words = [[(x << shift | z, x, z, bare(x, z, c)) for (x, z), c in e.terms.items()]
             for e in excitations]
    for left, g_pq in zip(words, g.tolist()):
        signed: dict[int, list] = {}
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
        totals[k] = a * _I_INVERSE[(k & k >> shift).bit_count() % 4] + 0j
    mask = (1 << shift) - 1
    return reference_collapse(totals, shift, unpack=lambda k: (k >> shift, k & mask))


def assert_same_terms(h: Hamiltonian) -> None:
    assert repr(jordan_wigner(h).terms) == repr(reference_jordan_wigner(h).terms)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in fixtures.KINDS for n in range(1, 5)
                                    if not (kind == fixtures.CORE_VALENCE_TOY and n < 2)])
def test_every_kind_is_mapped_bit_for_bit(kind, n):
    for seed in range(3):
        h, _ = fixtures.generate(fixtures.ModelSpec(n, n, seed, kind=kind))
        assert_same_terms(h)


def test_offset_one_body_and_zero_two_body_are_mapped_bit_for_bit():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 3))
    m = m + m.T
    zero = np.zeros((3,) * 4)
    for h in (Hamiltonian(0.37, np.zeros((3, 3)), zero), Hamiltonian(0.0, m, zero),
              Hamiltonian(-1.5, m, zero), Hamiltonian(0.0, np.zeros((3, 3)), zero)):
        assert_same_terms(h)


def _odd_y_words(terms) -> int:
    return sum(1 for _, x, z in terms if (x & z).bit_count() & 1)


def test_nearly_symmetric_hamiltonian_keeps_its_odd_y_words_bit_for_bit():
    """Integrals symmetric only to SYMMETRY_TOL leave odd-Y words above the drop;
    their totals are the ones a lost ``+ 0j`` or a misplaced sign shows in."""
    for seed in range(2):
        h, _ = fixtures.generate(fixtures.ModelSpec(4, 4, seed))
        rng = np.random.default_rng(seed)
        near = Hamiltonian(h.offset, h.one_body + 0.4 * SYMMETRY_TOL * rng.random((4, 4)),
                           h.two_body + 0.4 * SYMMETRY_TOL * rng.random((4,) * 4))
        terms = jordan_wigner(near).terms
        assert _odd_y_words(terms) > 0
        assert repr(terms) == repr(reference_jordan_wigner(near).terms)


def test_each_symmetry_orbit_alone_is_mapped_bit_for_bit():
    """One nonzero 8-fold orbit at a time, over every orbit of 4 orbitals (so every
    order type of (p, q, r, s) occurs), and a lone integral whose partners are
    exact zeros, its orbit's representative among them."""
    rng = np.random.default_rng(9)
    for quad in canonical_quadruples(4):
        g = np.zeros((4,) * 4)
        for idx in eightfold_orbit(quad):
            g[idx] = rng.normal()
        g = sum(g.transpose(perm) for perm in _EIGHTFOLD) / 8.0   # symmetric to rounding
        assert_same_terms(Hamiltonian(0.1, np.eye(4), g))
    lone = np.zeros((4,) * 4)
    lone[1, 3, 0, 2] = 0.5 * SYMMETRY_TOL
    assert_same_terms(Hamiltonian(0.0, np.eye(4), lone))


def _traced_peak(f, h) -> int:
    tracemalloc.start()
    try:
        f(h)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [fixtures.ModelSpec(6, 4, 1), fixtures.ModelSpec(7, 6, 3)],
                         ids=["rand6", "rand7"])
def test_peak_memory_stays_within_the_dict_loop(spec):
    """The harness maps its model's Hamiltonian in its own process, whose peak every
    run's peak RSS inherits, so the passes stay small: the traced peak is at most
    that of the dict loop (about 1.1 MB and 1.9 MB)."""
    h, _ = fixtures.generate(spec)
    jordan_wigner(h)   # imports and first-call caches outside the trace
    assert _traced_peak(jordan_wigner, h) <= _traced_peak(reference_jordan_wigner, h)
