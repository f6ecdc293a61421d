import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfsim import emulator, oracle
from dsfsim import spectrum as sp
from dsfsim.operators import QVector
from dsfsim.spectrum import (GreensSeries, RunPlan, Spectrum, allocate_shots,
                             assemble_dsf, cross_section, default_omega_grid,
                             isotropic_dsf, largest_remainder, measure_series,
                             plan_run, reconstruct_intensity, resample_series,
                             series_from_json, series_to_json, spectrum_from_csv,
                             spectrum_to_csv)


def uniform_moments():
    return np.eye(3)


# ---------------------------------------------------------------------------
# plan_run
# ---------------------------------------------------------------------------

def test_plan_reproduces_reference_parameters():
    plan = plan_run(0.06, 3.28, math.exp(-5.0), 10000, uniform_moments())
    assert plan.tau == math.pi / 3.28
    assert plan.n_max == 87


def test_plan_single_bright_pair_takes_everything():
    moments = np.zeros((3, 3))
    moments[0, 0] = 1.0
    plan = plan_run(0.05, 2.0, 1e-4, 100, moments)
    assert plan.budgets["xx"] == 100
    assert sum(plan.budgets.values()) == 100


def test_plan_three_to_one_weight_ratio():
    moments = np.zeros((3, 3))
    moments[0, 0] = 3.0
    moments[1, 1] = 1.0
    plan = plan_run(0.05, 2.0, 1e-4, 100, moments,
                    q_set=[QVector(1.0, 1.0, 0.0)])
    assert plan.budgets["xx"] == 75
    assert plan.budgets["yy"] == 25


def test_plan_zero_moments_rejected():
    with pytest.raises(ValueError, match="no dipole intensity"):
        plan_run(0.05, 2.0, 1e-4, 100, np.zeros((3, 3)))


def test_plan_small_budget_rejected():
    with pytest.raises(ValueError):
        plan_run(0.05, 2.0, 1e-4, 5, uniform_moments())


def test_plan_invariant_checked():
    with pytest.raises(ValueError, match="n_max"):
        RunPlan(tau=1.0, eta=0.05, n_max=3, k=4, total_shots=6,
                budgets=dict.fromkeys(sp.PAIR_KEYS, 1), epsilon_trunc=1e-4)


# ---------------------------------------------------------------------------
# allocate_shots
# ---------------------------------------------------------------------------

def test_allocation_uniform_limit():
    shots = allocate_shots(12, eta=0.0, tau=1.0, n_max=4)
    assert np.array_equal(shots, [3, 3, 3, 3])


def test_allocation_matches_exponential_distribution():
    eta_tau = 0.0575
    n_max = 87
    n_pair = 10**4
    shots = allocate_shots(n_pair, eta=eta_tau, tau=1.0, n_max=n_max)
    weights = np.exp(-eta_tau * np.arange(1, n_max + 1))
    expected = n_pair * weights / weights.sum()
    assert np.max(np.abs(shots - expected)) <= 1.0  # rounding only
    # head-to-tail ratio of the continuous law: e^{eta_tau * 86} ~ 140.5
    assert expected[0] / expected[-1] == pytest.approx(math.exp(eta_tau * 86),
                                                       rel=1e-12)
    assert expected[0] / expected[-1] == pytest.approx(140.6, rel=5e-3)


@given(st.integers(min_value=0, max_value=10**5),
       st.floats(min_value=0.0, max_value=0.3),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=60)
def test_allocation_conserves_and_decays(n_pair, eta_tau, n_max):
    shots = allocate_shots(n_pair, eta=eta_tau, tau=1.0, n_max=n_max)
    assert shots.sum() == n_pair
    assert np.all(np.diff(shots) <= 0)  # nonincreasing in n
    assert np.all(shots >= 0)


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                max_size=12),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60)
def test_largest_remainder_conserves(weights, total):
    shares = largest_remainder(total, np.array(weights))
    assert shares.sum() == total
    exact = total * np.array(weights) / np.sum(weights)
    assert np.max(np.abs(shares - exact)) < 1.0


# ---------------------------------------------------------------------------
# measure_series / resample
# ---------------------------------------------------------------------------

def test_series_time_zero_limit(toy):
    """<b|a> scaled by the norms equals the stored static moment."""
    for pair in sp.PAIR_KEYS:
        ket = toy.states.vectors[pair[0]]
        bra = toy.states.vectors[pair[1]]
        value = np.vdot(bra, ket) * toy.states.norm_product(pair)
        assert value.real == pytest.approx(toy.states.moment0(pair), abs=1e-10)
        assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_exact_series_matches_eigendecomposition(toy):
    import scipy.linalg
    from dsfsim.pauli import pauli_sum_dense
    plan = toy.plan(epsilon_trunc=1e-2, shots=600)
    prog = toy.program(k=4)
    step_err = np.linalg.norm(
        emulator.program_unitary(prog)
        - scipy.linalg.expm(-1j * pauli_sum_dense(toy.shifted) * plan.tau), 2)
    series = measure_series("xy", plan, toy.states, prog, mode="exact")
    norms = series.norm_product
    for n in (1, series.n_max):
        want = oracle.exact_greens(toy.eig, toy.trans, "xy", plan.tau, n)
        got = series.x[n - 1] + 1j * series.y[n - 1]
        assert abs(got - want) <= norms * (n * step_err + 1e-12)


def test_sampled_variance_matches_bernoulli(toy):
    plan = toy.plan(shots=60000)
    prog = toy.program()
    exact = measure_series("zz", plan, toy.states, prog, mode="exact")
    n_probe = 2
    shots_re, _ = sp.split_shots(int(exact.shots[n_probe - 1]))
    value = exact.x[n_probe - 1] / exact.norm_product
    samples = [resample_series(exact, seed).x[n_probe - 1] for seed in range(150)]
    observed = np.var(samples, ddof=1)
    predicted = exact.norm_product**2 * (1.0 - value**2) / shots_re
    # 150-seed variance estimate: ~3 sigma spread of a chi^2 ratio
    assert 0.6 < observed / predicted < 1.55


def test_sampled_series_deterministic_per_seed(toy):
    plan = toy.plan(shots=3000)
    prog = toy.program()
    s1 = measure_series("xx", plan, toy.states, prog, mode="sampled", master_seed=9)
    s2 = measure_series("xx", plan, toy.states, prog, mode="sampled", master_seed=9)
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
    s3 = measure_series("xx", plan, toy.states, prog, mode="sampled", master_seed=10)
    assert not np.array_equal(s1.x, s3.x)


def test_resample_matches_fresh_measurement(toy):
    """Resampling an exact series equals a fresh sampled measurement."""
    plan = toy.plan(shots=2000)
    prog = toy.program()
    exact = measure_series("yy", plan, toy.states, prog, mode="exact")
    direct = measure_series("yy", plan, toy.states, prog, mode="sampled",
                            master_seed=4)
    redrawn = resample_series(exact, master_seed=4)
    assert np.allclose(direct.x, redrawn.x, atol=1e-12)
    assert np.allclose(direct.y, redrawn.y, atol=1e-12)


@pytest.mark.parametrize("bias", [1.0, -1.0])
def test_resample_certain_bias_is_exact(bias):
    """A bias of +-1 resamples to exactly +-1; one beyond 1 + 1e-9 is refused."""
    series = GreensSeries(pair="xy", tau=0.1, eta=0.5, n_max=3, norm_product=0.5,
                          moment0=0.0, x=np.full(3, 0.5 * bias), y=np.full(3, -0.5 * bias),
                          shots=[2, 5, 40], exact=True)
    drawn = resample_series(series, master_seed=5)
    assert np.array_equal(drawn.x, series.x) and np.array_equal(drawn.y, series.y)
    beyond = dataclasses.replace(series, x=series.x * (1.0 + 1.8e-9))
    with pytest.raises(ValueError, match="bias outside"):
        resample_series(beyond, master_seed=5)


def test_resample_records_zero_without_shots():
    """A test allotted no shots records exactly 0, whatever its bias."""
    series = GreensSeries(pair="yz", tau=0.1, eta=0.5, n_max=4, norm_product=1.0,
                          moment0=0.0, x=np.full(4, 0.3), y=np.full(4, -0.4),
                          shots=[0, 1, 0, 1], exact=True)
    for seed in range(20):
        drawn = resample_series(series, master_seed=seed)
        # split_shots gives the Real test the single shot and the Imag test none
        assert drawn.x[0] == drawn.x[2] == 0.0
        assert np.all(np.abs(drawn.x[[1, 3]]) == 1.0)
        assert np.all(drawn.y == 0.0)


def test_series_bound_invariant(toy):
    plan = toy.plan(shots=1200)
    series = measure_series("xy", plan, toy.states, toy.program(), mode="exact")
    assert np.all(np.abs(series.x) <= series.norm_product + 1e-12)
    assert np.all(np.abs(series.y) <= series.norm_product + 1e-12)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_flat_series():
    n_max = 20
    series = GreensSeries(pair="xx", tau=0.5, eta=0.05, n_max=n_max,
                          norm_product=1.0, moment0=3.0,
                          x=np.zeros(n_max), y=np.zeros(n_max),
                          shots=np.zeros(n_max, dtype=int), exact=True)
    grid = np.linspace(0.0, 3.0, 40)
    spec = reconstruct_intensity(series, grid)
    assert np.allclose(spec.values, series.tau * series.moment0 / (2 * math.pi),
                       rtol=1e-14)


def test_reconstruct_single_eigenstate_geometric_form():
    """Exact single-pole series peaks at tau*m0*(1+2*sum e^{-n eta tau})/2pi."""
    tau, eta, m0, energy = 0.9, 0.02, 1.7, 1.2
    n_max = 800
    n = np.arange(1, n_max + 1)
    series = GreensSeries(pair="xx", tau=tau, eta=eta, n_max=n_max,
                          norm_product=m0, moment0=m0,
                          x=m0 * np.cos(energy * n * tau),
                          y=-m0 * np.sin(energy * n * tau),
                          shots=np.zeros(n_max, dtype=int), exact=True)
    spec = reconstruct_intensity(series, np.array([energy - eta, energy,
                                                   energy + eta]))
    a = eta * tau
    geometric = math.exp(-a) * (1 - math.exp(-a * n_max)) / (1 - math.exp(-a))
    peak = tau * m0 * (1 + 2 * geometric) / (2 * math.pi)
    assert spec.values[1] == pytest.approx(peak, rel=1e-10)
    # Lorentzian shape: half height at +- eta, up to periodization corrections
    assert spec.values[0] / spec.values[1] == pytest.approx(0.5, abs=0.01)
    assert spec.values[2] / spec.values[1] == pytest.approx(0.5, abs=0.01)


def direct_intensity(series, omega):
    """tau/2pi (m0 + 2 sum_n [X_n cos(n tau w) - Y_n sin(n tau w)] e^{-n eta tau})."""
    damping = np.exp(-series.n * series.eta * series.tau)
    phases = np.outer(omega, series.n * series.tau)
    return series.tau / (2 * math.pi) * (
        series.moment0 + 2 * (np.cos(phases) @ (series.x * damping)
                              - np.sin(phases) @ (series.y * damping)))


def toy_series(toy, epsilon_trunc):
    plan = toy.plan(epsilon_trunc=epsilon_trunc)
    series = measure_series("xy", plan, toy.states, toy.program(), mode="exact")
    return series, default_omega_grid(plan.tau, toy.eta)


@pytest.mark.parametrize("epsilon_trunc", [1e-2, 1e-8])
def test_reconstruct_matches_direct_sum(toy, epsilon_trunc):
    """Chirp-z values equal the direct cos/sin sum to 1e-12 of the spectrum's
    peak: on the full grid (M > n_max at 1e-2, n_max 2,227 > M at 1e-8), on a
    sub-grid starting above 0, and on one- and two-point grids."""
    series, grid = toy_series(toy, epsilon_trunc)
    assert (len(grid) > series.n_max) == (epsilon_trunc == 1e-2)
    scale = np.max(np.abs(direct_intensity(series, grid)))
    for omega in (grid, grid[100:400], grid[123:124], grid[5:7]):
        values = reconstruct_intensity(series, omega).values
        assert np.max(np.abs(values - direct_intensity(series, omega))) \
            <= 1e-12 * scale


def test_reconstruct_rejects_non_uniform_grid():
    n_max = 20
    series = GreensSeries(pair="xx", tau=0.5, eta=0.05, n_max=n_max,
                          norm_product=1.0, moment0=1.0,
                          x=np.full(n_max, 0.5), y=np.zeros(n_max),
                          shots=np.zeros(n_max, dtype=int), exact=True)
    grid = np.linspace(0.0, 3.0, 40)
    grid[17] += 1e-3
    with pytest.raises(ValueError, match="uniform"):
        reconstruct_intensity(series, grid)
    with pytest.raises(ValueError, match="empty"):
        reconstruct_intensity(series, [])


def test_reconstruct_workspace_is_linear(toy):
    """Peak traced memory at n_max 2,227 x 1,899 points stays under 2 MB:
    the workspace is O(n_max + M), not O(n_max * M)."""
    series, grid = toy_series(toy, 1e-8)
    assert (series.n_max, len(grid)) == (2227, 1899)
    reconstruct_intensity(series, grid)   # loads np.fft outside the trace
    tracemalloc.start()
    try:
        reconstruct_intensity(series, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_reconstruct_matches_oracle_lorentzians(toy):
    plan = toy.plan(epsilon_trunc=1e-6)
    prog = toy.program(k=32)
    grid = default_omega_grid(plan.tau, toy.eta)
    for pair in ("xx", "xy"):
        series = measure_series(pair, plan, toy.states, prog, mode="exact")
        rec = reconstruct_intensity(series, grid)
        ora = oracle.exact_intensity(toy.eig, toy.trans, pair, toy.eta, grid)
        rel = np.max(np.abs(rec.values - ora.values)) / np.max(np.abs(ora.values))
        assert rel < 2e-3


def test_sum_rule_integrates_to_moment(toy):
    plan = toy.plan(epsilon_trunc=1e-6)
    prog = toy.program()
    period = 2 * math.pi / plan.tau
    # exactly uniform partition of one period: the oscillatory terms then
    # cancel in the Riemann sum (the grid count exceeds n_max)
    n_points = int(round(period / (toy.eta / 5)))
    grid = np.linspace(0.0, period, n_points, endpoint=False)
    assert n_points > plan.n_max
    for pair in sp.DIAGONAL_KEYS:
        series = measure_series(pair, plan, toy.states, prog, mode="exact")
        spec = reconstruct_intensity(series, grid)
        integral = float(np.mean(spec.values)) * period
        assert integral == pytest.approx(series.moment0,
                                         rel=10 * plan.epsilon_trunc + 1e-9)


def test_diagonal_positivity(toy):
    plan = toy.plan(epsilon_trunc=1e-8)
    prog = toy.program(k=8)
    grid = default_omega_grid(plan.tau, toy.eta)
    floor = -10 * plan.epsilon_trunc
    for pair in sp.DIAGONAL_KEYS:
        series = measure_series(pair, plan, toy.states, prog, mode="exact")
        rec = reconstruct_intensity(series, grid)
        assert np.min(rec.values) >= floor * max(1.0, series.moment0)


def test_time_reversal_parity(toy):
    """Explicit negative-time evolution: X even in n, Y odd in n."""
    plan = toy.plan(epsilon_trunc=1e-2, shots=600)
    forward = toy.program()
    backward = emulator.build_trotter(toy.shifted, -math.pi / toy.delta, 4)
    a, b = toy.states.vectors["x"], toy.states.vectors["y"]
    for n in (1, 3):
        fwd = np.vdot(b, emulator.apply_trotter(a, forward, n))
        bwd = np.vdot(b, emulator.apply_trotter(a, backward, n))
        assert fwd.real == pytest.approx(bwd.real, abs=1e-8)
        assert fwd.imag == pytest.approx(-bwd.imag, abs=1e-8)


def test_pair_symmetry_exact_mode(toy):
    plan = toy.plan(epsilon_trunc=1e-2, shots=600)
    prog = toy.program()
    for a, b in (("x", "y"), ("y", "z")):
        fwd = np.vdot(toy.states.vectors[b],
                      emulator.apply_trotter(toy.states.vectors[a], prog, 2))
        rev = np.vdot(toy.states.vectors[a],
                      emulator.apply_trotter(toy.states.vectors[b], prog, 2))
        assert abs(fwd - rev) < 1e-8


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def contributions_on(grid, toy, plan, prog):
    return {p: reconstruct_intensity(
        measure_series(p, plan, toy.states, prog, mode="exact"), grid)
        for p in sp.PAIR_KEYS}


@pytest.fixture(scope="module")
def toy_contribs(toy):
    plan = toy.plan(epsilon_trunc=1e-4)
    prog = toy.program()
    grid = default_omega_grid(plan.tau, toy.eta)
    return grid, contributions_on(grid, toy, plan, prog)


def test_dsf_zero_momentum(toy_contribs):
    grid, contribs = toy_contribs
    spec = assemble_dsf(QVector(0.0, 0.0, 0.0), contribs)
    assert np.all(spec.values == 0.0)


def test_dsf_axis_selection(toy_contribs):
    grid, contribs = toy_contribs
    spec = assemble_dsf(QVector(1.0, 0.0, 0.0), contribs)
    assert np.array_equal(spec.values, contribs["xx"].values)


def test_dsf_missing_pair_rejected(toy_contribs):
    grid, contribs = toy_contribs
    partial = {k: v for k, v in contribs.items() if k != "yz"}
    with pytest.raises(ValueError, match="missing"):
        assemble_dsf(QVector(1.0, 1.0, 1.0), partial)


def test_isotropic_equal_diagonals():
    grid = np.linspace(0, 1, 11)
    flat = Spectrum(grid, np.ones_like(grid), 0.05)
    iso = isotropic_dsf(2.0, {"xx": flat, "yy": flat, "zz": flat})
    assert np.allclose(iso.values, 4.0)


def test_isotropic_equals_axis_average(toy_contribs):
    grid, contribs = toy_contribs
    qn = 1.7
    iso = isotropic_dsf(qn, contribs)
    acc = np.zeros_like(grid)
    for axis in ((qn, 0, 0), (-qn, 0, 0), (0, qn, 0), (0, -qn, 0),
                 (0, 0, qn), (0, 0, -qn)):
        acc += assemble_dsf(QVector(*axis), contribs).values
    assert np.max(np.abs(iso.values - acc / 6.0)) < 1e-8


def test_isotropic_quadratic_scaling(toy_contribs):
    grid, contribs = toy_contribs
    one = isotropic_dsf(1.0, contribs)
    two = isotropic_dsf(2.0, contribs)
    assert np.allclose(two.values, 4.0 * one.values, rtol=1e-12)


def test_cross_section_identity_case():
    grid = np.linspace(0, 1, 5)
    spec = Spectrum(grid, np.full(5, 2.0), 0.05, kind="dsf")
    out = cross_section(spec, ki_norm=1.0, kf_norm=1.0, q_norm=math.sqrt(2.0))
    assert np.allclose(out.values, spec.values)


def test_cross_section_q_scaling():
    grid = np.linspace(0, 1, 5)
    spec = Spectrum(grid, np.full(5, 2.0), 0.05, kind="dsf")
    base = cross_section(spec, 1.0, 1.0, 1.0)
    scaled = cross_section(spec, 1.0, 1.0, 2.0)
    assert np.allclose(scaled.values, base.values / 16.0)


def test_cross_section_rejects_elastic():
    spec = Spectrum(np.linspace(0, 1, 5), np.zeros(5), 0.05)
    with pytest.raises(ValueError, match="elastic"):
        cross_section(spec, 1.0, 1.0, 0.0)


def test_cross_section_positivity(toy_contribs):
    grid, contribs = toy_contribs
    dsf = assemble_dsf(QVector(1.0, 1.0, 1.0), contribs)
    cs = cross_section(dsf, 1.0, 0.9, 1.5)
    assert np.all(cs.values[dsf.values > 0] > 0)


# ---------------------------------------------------------------------------
# statistical contract of the sampling schedule
# ---------------------------------------------------------------------------

def test_sampling_budget_calibrates_error_scale(toy):
    """Budgeting one diagonal braces term for target error d delivers noise at
    that scale: the predicted pointwise std is O(d), >=90% of seeds keep the
    max grid error under 6x the mean predicted std, and the exponential
    schedule beats a uniform one.  (The budget formula fixes the 1-sigma
    scale only; a literal max-error <= d cannot hold for any allocation.)
    """
    target = 0.012
    plan0 = toy.plan()
    m0 = toy.states.moment0("zz")
    decay = np.exp(-toy.eta * plan0.tau * np.arange(1, plan0.n_max + 1))
    budget = int(round(plan0.tau**2 * m0**2 * decay.sum()**2
                       / (4 * math.pi**2 * target**2)))
    budgets = {p: (budget if p == "zz" else 1) for p in sp.PAIR_KEYS}
    plan = RunPlan(tau=plan0.tau, eta=toy.eta, n_max=plan0.n_max, k=4,
                   total_shots=sum(budgets.values()), budgets=budgets,
                   epsilon_trunc=plan0.epsilon_trunc)
    prog = toy.program()
    exact = measure_series("zz", plan, toy.states, prog, mode="exact")
    # every time point must stay measured, else an unmodeled truncation bias
    # enters; the budget formula presumes this regime
    assert exact.shots.min() >= 1
    grid = default_omega_grid(plan.tau, toy.eta)
    reference = reconstruct_intensity(exact, grid).values

    # propagate the binomial variances through the reconstruction
    shots = exact.shots
    split = np.array([sp.split_shots(int(s)) for s in shots])
    vx = exact.x / exact.norm_product
    vy = exact.y / exact.norm_product
    var_x = np.where(split[:, 0] > 0,
                     exact.norm_product**2 * (1 - vx**2) / np.maximum(split[:, 0], 1), 0.0)
    var_y = np.where(split[:, 1] > 0,
                     exact.norm_product**2 * (1 - vy**2) / np.maximum(split[:, 1], 1), 0.0)
    phases = np.outer(exact.n * plan.tau, grid)
    var_grid = (plan.tau / (2 * math.pi))**2 * 4 * (
        (decay**2 * var_x) @ np.cos(phases)**2
        + (decay**2 * var_y) @ np.sin(phases)**2)
    sigma_mean = float(np.mean(np.sqrt(var_grid)))
    assert 1.0 <= sigma_mean / target <= 3.0

    max_errors = []
    for seed in range(100):
        sampled = reconstruct_intensity(resample_series(exact, seed), grid).values
        max_errors.append(float(np.max(np.abs(sampled - reference))))
    fraction_ok = np.mean(np.array(max_errors) <= 6.0 * sigma_mean)
    assert fraction_ok >= 0.9

    uniform = GreensSeries(pair="zz", tau=plan.tau, eta=toy.eta, n_max=plan.n_max,
                           norm_product=exact.norm_product, moment0=exact.moment0,
                           x=exact.x, y=exact.y,
                           shots=largest_remainder(budget, np.ones(plan.n_max)),
                           exact=True)
    uniform_errors = [float(np.max(np.abs(
        reconstruct_intensity(resample_series(uniform, seed), grid).values
        - reference))) for seed in range(100)]
    assert np.median(max_errors) < np.median(uniform_errors)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_series_json_round_trip(toy):
    plan = toy.plan(shots=900)
    series = measure_series("xz", plan, toy.states, toy.program(), mode="sampled",
                            master_seed=3)
    back = series_from_json(series_to_json(series))
    assert back.pair == series.pair
    assert back.tau == series.tau
    assert back.norm_product == series.norm_product
    assert np.array_equal(back.x, series.x)
    assert np.array_equal(back.y, series.y)
    assert np.array_equal(back.shots, series.shots)


def test_spectrum_csv_round_trip():
    grid = np.linspace(0.0, 2.0, 9)
    spec = Spectrum(grid, np.sin(grid) + 2.0, 0.05)
    back = spectrum_from_csv(spectrum_to_csv(spec), eta=0.05)
    assert np.array_equal(back.omega, spec.omega)
    assert np.array_equal(back.values, spec.values)


def test_spectrum_grid_validation():
    with pytest.raises(ValueError, match="increasing"):
        Spectrum(np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.05)
    with pytest.raises(ValueError, match="finite"):
        Spectrum(np.array([0.0, 1.0]), np.array([np.nan, 0.0]), 0.05)
