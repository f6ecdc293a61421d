"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(via the conftest hook).  Tolerances are pinned here, not calibrated later.
"""
import math
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks

from dsfsim import emulator, fixtures, oracle, resources, validate
from dsfsim import spectrum as sp
from dsfsim.operators import QVector
from dsfsim.pauli import pauli_sum_dense
from dsfsim.resources import DEFAULT_MODEL, REFERENCE_COSTS


def choose_k(shifted, tau, target, start=4, cap=1 << 15):
    """Double k until the measured one-step operator error meets ``target``."""
    exact = scipy.linalg.expm(-1j * pauli_sum_dense(shifted) * tau)
    k = start
    while True:
        prog = emulator.build_trotter(shifted, tau, k)
        err = float(np.linalg.norm(emulator.program_unitary(prog) - exact, 2))
        if err <= target or k >= cap:
            return k, err, prog
        k *= 2


def eval_assembled(series_by_pair, q, w):
    """Assembled structure factor at an arbitrary frequency, from the series."""
    return sp.assemble_dsf(q, {p: sp.reconstruct_intensity(s, [w])
                               for p, s in series_by_pair.items()}).values[0]


def refine_peak(series_by_pair, q, grid, coarse_index):
    lo = grid[max(0, coarse_index - 3)]
    hi = grid[min(len(grid) - 1, coarse_index + 3)]
    res = minimize_scalar(lambda w: -eval_assembled(series_by_pair, q, w),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x)


def test_criterion_1_oracle_equivalence_exact_mode():
    """20 seeded random interacting models at 2 and 3 orbitals: exact-mode
    reconstructed intensities match the oracle Lorentzian spectra to a
    relative sup-norm of 1e-4, with the per-step Trotter error driven
    below 1e-6 (1e-8 targeted) and truncation at 1e-8."""
    t_start = time.time()
    worst = 0.0
    for case in range(20):
        n_orbitals = 2 if case < 10 else 3
        model = fixtures.solve(fixtures.ModelSpec(
            n_orbitals=n_orbitals, n_electrons=2, seed=1000 + case))
        eta = model.delta / 400.0
        tau = math.pi / model.delta
        k, step_err, prog = choose_k(model.shifted, tau, target=1e-8)
        assert step_err <= 1e-6, f"case {case}: Trotter step error {step_err:.2e}"
        plan = model.plan(eta, 1e-8, 600, k=k)
        grid = sp.default_omega_grid(tau, eta)
        for pair, series in sp.measure_all(plan, model.states, prog, mode="exact").items():
            if series.norm_product == 0.0:
                continue
            recon = sp.reconstruct_intensity(series, grid)
            reference = oracle.exact_intensity(model.eig, model.trans, pair, eta, grid)
            scale = float(np.max(np.abs(reference.values)))
            if scale == 0.0:
                continue
            rel = float(np.max(np.abs(recon.values - reference.values))) / scale
            worst = max(worst, rel)
        assert worst <= 1e-4, f"case {case}: relative sup error {worst:.2e}"
    elapsed = time.time() - t_start
    assert elapsed <= 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"


def test_criterion_2_trotter_convergence(toy):
    """Peak-position error falls as the square of the step (log-log slope
    -2 +- 0.3 over k in {1,2,4,8}), and at step tau/4 no spurious peak
    above 1% of the maximum survives."""
    t_start = time.time()
    q = QVector(1.0, 1.0, 1.0)
    eps = 1e-6
    plan_by_k = {k: toy.plan(epsilon_trunc=eps, k=k) for k in (1, 2, 4, 8)}
    tau = plan_by_k[4].tau
    grid = sp.default_omega_grid(tau, toy.eta)

    # step-exact reference with the same truncation isolates the Trotter shift
    reference_series = {}
    n_max = plan_by_k[4].n_max
    for pair in sp.PAIR_KEYS:
        values = np.array([oracle.exact_greens(toy.eig, toy.trans, pair, tau, n)
                           for n in range(1, n_max + 1)])
        reference_series[pair] = sp.GreensSeries(
            pair=pair, tau=tau, eta=toy.eta, n_max=n_max,
            norm_product=max(toy.states.norm_product(pair), 1.0),
            moment0=toy.states.pair_moment(pair), x=values.real, y=values.imag,
            shots=np.zeros(n_max, dtype=int), exact=True)
    ref_values = sp.assemble_dsf(q, {p: sp.reconstruct_intensity(s, grid)
                                     for p, s in reference_series.items()}).values
    ref_peak = refine_peak(reference_series, q, grid, int(np.argmax(ref_values)))

    errors = {}
    spectra = {}
    for k in (1, 2, 4, 8):
        prog = toy.program(plan_by_k[k])
        series = sp.measure_all(plan_by_k[k], toy.states, prog, mode="exact")
        values = sp.assemble_dsf(q, {p: sp.reconstruct_intensity(s, grid)
                                     for p, s in series.items()}).values
        spectra[k] = values
        peak = refine_peak(series, q, grid, int(np.argmax(values)))
        errors[k] = abs(peak - ref_peak)
    slope = float(np.polyfit(np.log([1, 2, 4, 8]),
                             np.log([errors[k] for k in (1, 2, 4, 8)]), 1)[0])
    assert -2.3 <= slope <= -1.7, f"peak-error slope {slope:.3f}"

    bright, _ = toy.bright_lines(threshold=1e-6)
    values4 = spectra[4]
    peaks, _ = find_peaks(values4, height=0.01 * float(values4.max()))
    for index in peaks:
        distance = float(np.min(np.abs(bright - grid[index])))
        assert distance <= 4 * toy.eta, (
            f"spurious peak at {grid[index]:.3f} ({distance / toy.eta:.1f} eta "
            "from every bright line)")
    elapsed = time.time() - t_start
    assert elapsed <= 600.0, f"runtime {elapsed:.0f}s exceeds 10 minutes"


def test_criterion_3_shot_budget_resolves_both_bands(toy):
    """10^4 total shots under the exponential schedule resolve both dominant
    bands (peak SNR >= 5) in at least 90 of 100 seeded repetitions."""
    t_start = time.time()
    q = QVector(1.0, 1.0, 1.0)
    plan = toy.plan(shots=10**4, q_set=[q])
    prog = toy.program(plan)
    grid = sp.default_omega_grid(plan.tau, toy.eta)
    exact_series = sp.measure_all(plan, toy.states, prog, mode="exact")
    exact_values = sp.assemble_dsf(q, {p: sp.reconstruct_intensity(s, grid)
                                       for p, s in exact_series.items()}).values
    bands, weights = toy.bright_lines(threshold=0.2)
    assert len(bands) == 2
    windows = [(grid > c - 3 * toy.eta) & (grid < c + 3 * toy.eta) for c in bands]
    successes = 0
    for seed in range(100):
        sampled = {p: sp.resample_series(exact_series[p], seed)
                   for p in sp.PAIR_KEYS}
        values = sp.assemble_dsf(q, {p: sp.reconstruct_intensity(s, grid)
                                     for p, s in sampled.items()}).values
        noise = float(np.sqrt(np.mean((values - exact_values) ** 2)))
        snrs = [float(values[w].max()) / noise for w in windows]
        if all(snr >= 5.0 for snr in snrs):
            successes += 1
    assert successes >= 90, f"only {successes}/100 repetitions resolved both bands"
    elapsed = time.time() - t_start
    assert elapsed <= 1800.0, f"runtime {elapsed:.0f}s exceeds 30 minutes"


def test_criterion_4_parameter_reproduction():
    """The reference schedule: eta 0.06 Ha, window 3.28 Ha, truncation e^-5
    gives exactly tau = pi/3.28 and an 87-point series."""
    plan = sp.plan_run(0.06, 3.28, math.exp(-5.0), 10**4, np.eye(3),
                       [QVector(1.0, 1.0, 1.0)], k=4)
    assert plan.tau == math.pi / 3.28
    assert plan.n_max == 87


def test_criterion_5_symmetry_and_sum_rule_suite(validate_results):
    """Time-reversal parity, pair exchange, the moment sum rule, S(q=0) = 0,
    and the isotropic identity hold at 1e-8 on every bundled fixture."""
    assert validate.SPECS == (fixtures.TWO_ORBITAL_SPEC, fixtures.THREE_ORBITAL_SPEC,
                              fixtures.CORE_VALENCE_SPEC, fixtures.DIAGONAL_SPEC)
    assert (validate.ETA, validate.K, validate.REPS, validate.TOL) == (0.02, 2, (1, 3), 1e-8)
    # S(q=0) must be exactly 0: check_q_zero_and_isotropic allows no deviation
    for name in ("time_reversal", "pair_symmetry", "sum_rule", "q_zero_and_isotropic"):
        ok, detail = validate_results[name]
        assert ok, f"{name}: {detail}"


def test_criterion_6_resource_estimator():
    """Rotation-synthesis cost, ratio constancy, table reproduction within
    25%, cubic scaling, and the 10.5-day reference runtime."""
    assert resources.rot_t_cost(1e-3) == pytest.approx(10.14, abs=0.01)
    plan = resources.reference_plan(DEFAULT_MODEL)
    table = np.array(REFERENCE_COSTS, dtype=float)
    reports = {int(n): resources.algorithm_cost(plan, DEFAULT_MODEL, int(n))
               for n in table[:, 0]}
    ratios = np.array([reports[int(n)].total_t / reports[int(n)].largest_t
                       for n in table[:, 0]])
    assert np.max(np.abs(ratios / ratios.mean() - 1.0)) <= 0.02
    for n_a, _, alg_t, alg_v, big_t, big_v in REFERENCE_COSTS:
        report = reports[int(n_a)]
        assert report.largest_t == pytest.approx(big_t, rel=0.25)
        assert report.largest_volume == pytest.approx(big_v, rel=0.25)
        assert report.total_t == pytest.approx(alg_t, rel=0.25)
        assert report.total_volume == pytest.approx(alg_v, rel=0.25)
    slope = float(np.polyfit(np.log(table[:, 0]),
                             np.log([reports[int(n)].largest_t
                                     for n in table[:, 0]]), 1)[0])
    assert 2.7 <= slope <= 3.3
    day_case = reports[22]
    assert day_case.runtime_days == pytest.approx(10.5, abs=0.3)


def test_criterion_7_shape_level_coverage(toy):
    """Full-scale material spectra are out of desk-scale reach; coverage is
    the property suites plus this shape-level check: the assembled exact-mode
    structure factor at q = (1,1,1) shows the characteristic two dominant
    bands."""
    q = QVector(1.0, 1.0, 1.0)
    plan = toy.plan(epsilon_trunc=1e-6)
    prog = toy.program(plan)
    grid = sp.default_omega_grid(plan.tau, toy.eta)
    contributions = {p: sp.reconstruct_intensity(s, grid) for p, s in
                     sp.measure_all(plan, toy.states, prog, mode="exact").items()}
    values = sp.assemble_dsf(q, contributions).values
    peaks, props = find_peaks(values, height=0.2 * float(values.max()))
    assert len(peaks) == 2, "expected exactly two dominant maxima"
    assert grid[peaks[1]] - grid[peaks[0]] >= 6 * toy.eta
    # axis selection sanity on the same data
    axis_only = sp.assemble_dsf(QVector(1.0, 0.0, 0.0), contributions)
    assert np.array_equal(axis_only.values, contributions["xx"].values)
