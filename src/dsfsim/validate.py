"""Invariant suite behind ``dsfsim validate`` and the tests.

Each check builds its own small seeded instances, so a pass certifies the
cross-module conventions (fermionic signs, qubit ordering, phase tracking)
on this installation.  The series checks run every bundled fixture through
the sector step ``dsfsim spectrum`` ships; acceptance criterion 5 pins them.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import ci as ci_mod
from . import emulator, fixtures, oracle
from . import spectrum as sp
from .operators import QVector, jordan_wigner, one_body_to_pauli
from .pauli import pauli_sum_dense

SPECS = (fixtures.TWO_ORBITAL_SPEC, fixtures.THREE_ORBITAL_SPEC,
         fixtures.CORE_VALENCE_SPEC, fixtures.DIAGONAL_SPEC)
ETA = 0.02      # broadening of every plan, Hartree
K = 2           # Trotter substeps per tau
REPS = (1, 3)   # outer steps n at which amplitudes are compared
TOL = 1e-8
Q_NORMS = (1.0, 1.7)   # |q| of the isotropic identity; 1.7 also tests its |q|^2 law


def check_jw_hermitian() -> tuple[bool, str]:
    h, _ = fixtures.generate(fixtures.TWO_ORBITAL_SPEC)
    dense = pauli_sum_dense(jordan_wigner(h))
    err = np.max(np.abs(dense - dense.conj().T))
    return err <= 1e-12, f"max |H - H^dag| = {err:.2e}"


def check_jw_matches_slater_condon() -> tuple[bool, str]:
    h, _ = fixtures.generate(fixtures.TWO_ORBITAL_SPEC)
    dense = pauli_sum_dense(jordan_wigner(h))
    rebuilt = np.zeros_like(dense)
    for n_alpha in range(h.n_orbitals + 1):
        for n_beta in range(h.n_orbitals + 1):
            basis = ci_mod.sector_words(h.n_orbitals, n_alpha, n_beta)
            rebuilt[np.ix_(basis, basis)] = oracle.build_ci_matrix(h, basis)
    err = np.max(np.abs(dense - rebuilt))
    return err <= 1e-10, f"max |H_jw - H_sc| = {err:.2e}"


def check_number_symmetry() -> tuple[bool, str]:
    h, _ = fixtures.generate(fixtures.TWO_ORBITAL_SPEC)
    dense = pauli_sum_dense(jordan_wigner(h))
    number = pauli_sum_dense(one_body_to_pauli(np.eye(h.n_orbitals)))
    err = np.max(np.abs(dense @ number - number @ dense))
    return err <= 1e-10, f"max |[H, N]| = {err:.2e}"


def check_sign_convention() -> tuple[bool, str]:
    rng = np.random.default_rng(91)
    worst = 0.0
    for n in (2, 3):
        for n_alpha in (1, 2):
            m = fixtures._random_symmetric(rng, n, 0.5)
            basis = ci_mod.sector_words(n, n_alpha, 1)
            amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            rotated = oracle.apply_one_body(m, ci_mod.CIVector(n, basis, amps)).amplitudes
            lhs = ci_mod.register_state(n, basis, rotated)
            rhs = pauli_sum_dense(one_body_to_pauli(m)) @ ci_mod.register_state(n, basis, amps)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= 1e-12, f"max statevector mismatch = {worst:.2e}"


def check_trotter_slope() -> tuple[bool, str]:
    h, _ = fixtures.generate(fixtures.TWO_ORBITAL_SPEC)
    psum = jordan_wigner(h)
    energies, vecs = np.linalg.eigh(pauli_sum_dense(psum))
    exact = (vecs * np.exp(-1j * energies * 0.9)) @ vecs.conj().T
    errs = [np.linalg.norm(emulator.program_unitary(emulator.build_trotter(psum, 0.9, k))
                           - exact, 2) for k in (1, 2, 4, 8)]
    slope = float(np.polyfit(np.log([1, 2, 4, 8]), np.log(errs), 1)[0])
    return abs(slope + 2.0) <= 0.1, f"log-log slope = {slope:.3f}"


@functools.cache
def _runs() -> tuple:
    """Per bundled fixture: the solved model, its plan and forward program, and
    the exact series ``dsfsim spectrum`` records for each pair; solved once."""
    runs = []
    for spec in SPECS:
        model = fixtures.solve(spec)
        plan = model.plan(ETA, shots=600, k=K)
        prog = model.program(plan)
        series = sp.measure_all(plan, model.states, prog, mode="exact")
        runs.append((model, plan, prog, series))
    return tuple(runs)


def _biases(series: dict) -> dict:
    """Per pair with weight, Re + i Im bias = <b|U^n|a> of the unit states, n in ``REPS``."""
    return {pair: (s.x + 1j * s.y)[np.array(REPS) - 1] / s.norm_product
            for pair, s in series.items() if s.norm_product}


def check_ancilla_equivalence() -> tuple[bool, str]:
    """The explicit ancilla register reproduces every bias ``measure_all`` records."""
    worst = 0.0
    for model, _, prog, series in _runs():
        vectors = model.states.vectors
        for pair, biases in _biases(series).items():
            for n, bias in zip(REPS, biases):
                for which, value in ((emulator.REAL, bias.real), (emulator.IMAG, bias.imag)):
                    anc = emulator.hadamard_test_via_ancilla(
                        vectors[pair[0]], vectors[pair[1]], prog, n, which)
                    worst = max(worst, abs(value - anc))
    return worst <= 1e-12, f"max |measured bias - ancilla| = {worst:.2e}"


def check_time_reversal() -> tuple[bool, str]:
    """X_n is even and Y_n odd under tau -> -tau: the series at -tau is the conjugate."""
    worst = 0.0
    for model, plan, _, series in _runs():
        backward = emulator.build_trotter(model.shifted, -plan.tau, plan.k)
        back = _biases(sp.measure_all(plan, model.states, backward, mode="exact"))
        for pair, fwd in _biases(series).items():
            worst = max(worst, float(np.max(np.abs(fwd - back[pair].conj()))))
    return worst <= TOL, f"max X/Y parity violation = {worst:.2e}"


def check_pair_symmetry() -> tuple[bool, str]:
    """<b|U^n|a> = <a|U^n|b> for all dipole states, through the sector step."""
    worst = 0.0
    for model, _, prog, _ in _runs():
        overlaps = sp.dipole_overlaps(model.states, prog, max(REPS))[np.array(REPS) - 1]
        worst = max(worst, float(np.max(np.abs(overlaps - overlaps.transpose(0, 2, 1)))))
    return worst <= TOL, f"max pair asymmetry = {worst:.2e}"


def check_sum_rule() -> tuple[bool, str]:
    """Each diagonal intensity integrates over one period to its static moment."""
    worst = 0.0
    for _, plan, _, series in _runs():
        period = 2.0 * math.pi / plan.tau
        # an exactly uniform partition of one period, finer than the series:
        # every oscillatory term then cancels in the Riemann sum
        n_points = max(plan.n_max + 1, int(round(period / (ETA / 5.0))))
        grid = np.linspace(0.0, period, n_points, endpoint=False)
        for pair in sp.DIAGONAL_KEYS:
            m0 = series[pair].moment0
            integral = float(np.mean(sp.reconstruct_intensity(series[pair], grid).values))
            worst = max(worst, abs(integral * period - m0) / max(1.0, abs(m0)))
    return worst <= TOL, f"max sum-rule deviation = {worst:.2e} of max(1, |m0|)"


def check_q_zero_and_isotropic() -> tuple[bool, str]:
    """S(q = 0) is exactly 0; the isotropic average is the mean over the six axes."""
    err0 = err_iso = 0.0
    for _, plan, _, series in _runs():
        grid = sp.default_omega_grid(plan.tau, ETA)
        contribs = {pair: sp.reconstruct_intensity(s, grid) for pair, s in series.items()}
        zero = sp.assemble_dsf(QVector(0.0, 0.0, 0.0), contribs)
        err0 = max(err0, float(np.max(np.abs(zero.values))))
        for qn in Q_NORMS:
            axes = qn * np.vstack([np.eye(3), -np.eye(3)])
            mean = sum(sp.assemble_dsf(QVector(*q), contribs).values for q in axes) / 6.0
            iso = sp.isotropic_dsf(qn, contribs).values
            err_iso = max(err_iso, float(np.max(np.abs(iso - mean))))
    ok = err0 == 0.0 and err_iso <= TOL
    return ok, f"S(q=0) max = {err0:.2e}, isotropic deviation = {err_iso:.2e}"


ALL_CHECKS = [(fn.__name__.removeprefix("check_"), fn) for fn in (
    check_jw_hermitian, check_jw_matches_slater_condon, check_number_symmetry,
    check_sign_convention, check_trotter_slope, check_ancilla_equivalence,
    check_time_reversal, check_pair_symmetry, check_sum_rule, check_q_zero_and_isotropic)]


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
