"""Self-contained invariant suite runnable from the command line.

Each check builds its own small seeded instance, so a pass certifies the
cross-module conventions (fermionic signs, qubit ordering, phase tracking)
on this installation rather than any cached artifact.
"""
from __future__ import annotations

import math

import numpy as np

from . import ci as ci_mod
from . import emulator, fixtures, oracle
from . import spectrum as sp
from .operators import QVector, jordan_wigner, one_body_to_pauli
from .pauli import pauli_sum_dense


def check_jw_hermitian() -> tuple[bool, str]:
    h, _ = fixtures.generate(fixtures.TWO_ORBITAL_SPEC)
    dense = pauli_sum_dense(jordan_wigner(h))
    err = np.max(np.abs(dense - dense.conj().T))
    return err <= 1e-12, f"max |H - H^dag| = {err:.2e}"


def check_jw_matches_slater_condon() -> tuple[bool, str]:
    h, _ = fixtures.generate(fixtures.TWO_ORBITAL_SPEC)
    dense = pauli_sum_dense(jordan_wigner(h))
    dim = dense.shape[0]
    rebuilt = np.zeros((dim, dim), dtype=complex)
    for n_alpha in range(h.n_orbitals + 1):
        for n_beta in range(h.n_orbitals + 1):
            basis = oracle.sector_basis(h.n_orbitals, n_alpha, n_beta)
            mat = oracle.build_ci_matrix(h, basis)
            idx = [det.interleaved() for det in basis]
            rebuilt[np.ix_(idx, idx)] = mat
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
        m = fixtures._random_symmetric(rng, n, 0.5)
        basis = oracle.sector_basis(n, 1, 1)
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        v = ci_mod.CIVector(n, dict(zip(basis, amps)))
        lhs = ci_mod.ci_to_statevector(ci_mod.apply_one_body(m, v, prune=0.0))
        rhs = pauli_sum_dense(one_body_to_pauli(m)) @ ci_mod.ci_to_statevector(v)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= 1e-12, f"max statevector mismatch = {worst:.2e}"


def check_trotter_slope() -> tuple[bool, str]:
    import scipy.linalg
    h, _ = fixtures.generate(fixtures.TWO_ORBITAL_SPEC)
    psum = jordan_wigner(h)
    exact = scipy.linalg.expm(-1j * pauli_sum_dense(psum) * 0.9)
    errs = []
    for k in (1, 2, 4, 8):
        prog = emulator.build_trotter(psum, 0.9, k)
        errs.append(np.linalg.norm(emulator.program_unitary(prog) - exact, 2))
    slope = float(np.polyfit(np.log([1, 2, 4, 8]), np.log(errs), 1)[0])
    return abs(slope + 2.0) <= 0.1, f"log-log slope = {slope:.3f}"


def check_ancilla_equivalence() -> tuple[bool, str]:
    model = fixtures.solve(fixtures.TWO_ORBITAL_SPEC)
    a, b = model.states.vectors["x"], model.states.vectors["y"]
    prog = emulator.build_trotter(model.shifted, 0.7, 2)
    worst = 0.0
    for which in (emulator.REAL, emulator.IMAG):
        two = emulator.hadamard_test(a, b, prog, 2, which)
        anc = emulator.hadamard_test_via_ancilla(a, b, prog, 2, which)
        worst = max(worst, abs(two - anc))
    return worst <= 1e-12, f"max |two-branch - ancilla| = {worst:.2e}"


def _toy_setup():
    model = fixtures.solve(fixtures.CORE_VALENCE_SPEC)
    return model, model.plan(0.06, shots=6000), model.program()


def check_time_reversal() -> tuple[bool, str]:
    model, plan, prog = _toy_setup()
    back = emulator.build_trotter(model.shifted, -plan.tau, plan.k)
    a, b = model.states.vectors["x"], model.states.vectors["y"]
    worst = 0.0
    for n in (1, 3, 7):
        fwd = np.vdot(b, emulator.apply_trotter(a, prog, n))
        bwd = np.vdot(b, emulator.apply_trotter(a, back, n))
        worst = max(worst, abs(fwd.real - bwd.real), abs(fwd.imag + bwd.imag))
    return worst <= 1e-8, f"max X/Y parity violation = {worst:.2e}"


def check_pair_symmetry() -> tuple[bool, str]:
    model, _, prog = _toy_setup()
    vectors = model.states.vectors
    worst = 0.0
    for n in (1, 4):
        for a, b in (("x", "y"), ("x", "z"), ("y", "z")):
            fwd = np.vdot(vectors[b], emulator.apply_trotter(vectors[a], prog, n))
            rev = np.vdot(vectors[a], emulator.apply_trotter(vectors[b], prog, n))
            worst = max(worst, abs(fwd - rev))
    return worst <= 1e-8, f"max pair asymmetry = {worst:.2e}"


def check_sum_rule() -> tuple[bool, str]:
    model, plan, prog = _toy_setup()
    period = 2.0 * math.pi / plan.tau
    n_points = max(plan.n_max + 1, int(round(period / (plan.eta / 5.0))))
    grid = np.linspace(0.0, period, n_points, endpoint=False)
    worst = 0.0
    for pair in sp.DIAGONAL_KEYS:
        series = sp.measure_series(pair, plan, model.states, prog, mode="exact")
        rec = sp.reconstruct_intensity(series, grid)
        integral = float(np.mean(rec.values) * period)
        scale = max(1.0, abs(series.moment0))
        worst = max(worst, abs(integral - series.moment0) / scale)
    bound = max(1e-8, plan.epsilon_trunc * 1e-6)
    return worst <= bound, f"max sum-rule deviation = {worst:.2e} (bound {bound:.1e})"


def check_q_zero_and_isotropic() -> tuple[bool, str]:
    model, plan, prog = _toy_setup()
    grid = sp.default_omega_grid(plan.tau, plan.eta)
    contribs = {p: sp.reconstruct_intensity(
        sp.measure_series(p, plan, model.states, prog, mode="exact"), grid)
        for p in sp.PAIR_KEYS}
    zero = sp.assemble_dsf(QVector(0.0, 0.0, 0.0), contribs)
    err0 = float(np.max(np.abs(zero.values), initial=0.0))
    qn = 1.3
    iso = sp.isotropic_dsf(qn, contribs)
    axis_sum = np.zeros_like(grid)
    for axis in ((qn, 0, 0), (-qn, 0, 0), (0, qn, 0), (0, -qn, 0), (0, 0, qn), (0, 0, -qn)):
        axis_sum += sp.assemble_dsf(QVector(*axis), contribs).values
    err_iso = float(np.max(np.abs(iso.values - axis_sum / 6.0)))
    ok = err0 <= 1e-8 and err_iso <= 1e-8
    return ok, f"S(q=0) max = {err0:.2e}, isotropic deviation = {err_iso:.2e}"


ALL_CHECKS = [
    ("jw_hermitian", check_jw_hermitian),
    ("jw_matches_slater_condon", check_jw_matches_slater_condon),
    ("number_symmetry", check_number_symmetry),
    ("sign_convention", check_sign_convention),
    ("trotter_slope", check_trotter_slope),
    ("ancilla_equivalence", check_ancilla_equivalence),
    ("time_reversal", check_time_reversal),
    ("pair_symmetry", check_pair_symmetry),
    ("sum_rule", check_sum_rule),
    ("q_zero_and_isotropic", check_q_zero_and_isotropic),
]


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
