import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfsim import ci, emulator, fixtures, oracle
from dsfsim import spectrum as sp
from dsfsim.operators import QVector
from dsfsim.spectrum import (GreensSeries, RunPlan, Spectrum, allocate_shots,
                             assemble_dsf, cross_section, default_omega_grid,
                             isotropic_dsf, largest_remainder, measure_all,
                             measure_series, plan_run, reconstruct_intensity,
                             resample_series, series_from_json, series_to_json,
                             spectrum_from_csv, spectrum_to_csv)

BASELINES = Path(__file__).parent / "baselines"


def uniform_moments():
    return np.eye(3)


# ---------------------------------------------------------------------------
# plan_run
# ---------------------------------------------------------------------------

def test_plan_reproduces_reference_parameters():
    plan = plan_run(0.06, 3.28, math.exp(-5.0), 10000, uniform_moments(),
                    [QVector(1.0, 1.0, 1.0)], k=4)
    assert plan.tau == math.pi / 3.28
    assert plan.n_max == 87


def test_plan_single_bright_pair_takes_everything():
    moments = np.zeros((3, 3))
    moments[0, 0] = 1.0
    plan = plan_run(0.05, 2.0, 1e-4, 100, moments, [QVector(1.0, 1.0, 1.0)], k=4)
    assert plan.budgets["xx"] == 100
    assert sum(plan.budgets.values()) == 100


def test_plan_three_to_one_weight_ratio():
    moments = np.zeros((3, 3))
    moments[0, 0] = 3.0
    moments[1, 1] = 1.0
    plan = plan_run(0.05, 2.0, 1e-4, 100, moments,
                    q_set=[QVector(1.0, 1.0, 0.0)], k=4)
    assert plan.budgets["xx"] == 75
    assert plan.budgets["yy"] == 25


def test_plan_zero_moments_rejected():
    with pytest.raises(ValueError, match="no dipole intensity"):
        plan_run(0.05, 2.0, 1e-4, 100, np.zeros((3, 3)), [QVector(1.0, 1.0, 1.0)], k=4)


def test_plan_small_budget_rejected():
    with pytest.raises(ValueError):
        plan_run(0.05, 2.0, 1e-4, 5, uniform_moments(), [QVector(1.0, 1.0, 1.0)], k=4)


def test_plan_epsilon_trunc_range_checked():
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError, match="epsilon_trunc"):
            plan_run(0.05, 2.0, eps, 100, uniform_moments(), [QVector(1.0, 1.0, 1.0)], k=4)


def test_empty_q_set_rejected():
    """An empty momentum list is refused, as the CLI refuses ``"q": []``."""
    with pytest.raises(ValueError, match="q set is empty"):
        sp.pair_weights(uniform_moments(), [])
    with pytest.raises(ValueError, match="q set is empty"):
        plan_run(0.05, 2.0, 1e-4, 100, uniform_moments(), [], 4)


@pytest.mark.parametrize("field, value", [
    ("tau", math.nan), ("tau", math.inf), ("tau", 0.0),
    ("eta", math.nan), ("eta", math.inf), ("eta", 0.0)])
def test_plan_refuses_a_time_step_or_broadening_not_finite_and_positive(field, value):
    with pytest.raises(ValueError, match="finite and positive"):
        RunPlan(**{"tau": 1.0, "eta": 0.05, field: value}, k=4,
                budgets=dict.fromkeys(sp.PAIR_KEYS, 2), epsilon_trunc=1e-4)


def test_plan_run_refuses_a_window_that_is_not_a_number():
    """A NaN window gives a NaN tau, refused by ``RunPlan`` before ``n_max`` is read."""
    with pytest.raises(ValueError, match="finite and positive"):
        plan_run(0.06, math.nan, 1e-4, 100, uniform_moments(), [QVector(1.0, 1.0, 1.0)], 4)


def test_plan_invariant_checked():
    """Budgets that do not cover exactly the six Cartesian pairs are refused."""
    for budgets in (dict.fromkeys(sp.PAIR_KEYS[:5], 1),
                    dict.fromkeys(sp.PAIR_KEYS + ("yx",), 1)):
        with pytest.raises(ValueError, match="six Cartesian pairs"):
            RunPlan(tau=1.0, eta=0.05, k=4, budgets=budgets, epsilon_trunc=1e-4)
    plan = RunPlan(tau=1.0, eta=0.05, k=4, budgets=dict.fromkeys(sp.PAIR_KEYS, 2),
                   epsilon_trunc=1e-4)
    assert sum(plan.budgets.values()) == 12
    assert plan.n_max == round(math.log(1e4) / 0.05)


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
# measure_all / resample
# ---------------------------------------------------------------------------

def _sparse_route(model, axis, core=None):
    """mu_a psi0 on the sector by the Slater-Condon route ``oracle.transition_table``
    uses, with core-valence separation counted on the determinants themselves."""
    rotated = oracle.apply_one_body(model.dipole.component(axis), model.psi0)
    assert np.array_equal(rotated.basis, model.states.basis)
    amps = rotated.amplitudes
    if core is not None:
        basis = ci.sector_words(model.spec.n_orbitals, *model.spec.sector)
        holes = 2 - (basis >> 2 * core & 1) - (basis >> 2 * core + 1 & 1)
        amps = np.where(holes == 1, amps, 0.0)
    return amps


@pytest.mark.parametrize("spec", [fixtures.TWO_ORBITAL_SPEC, fixtures.THREE_ORBITAL_SPEC,
                                  fixtures.CORE_VALENCE_SPEC, fixtures.DIAGONAL_SPEC],
                         ids=["two_orbital", "three_orbital", "core_valence", "diagonal"])
def test_dipole_block_matches_the_sparse_route(spec):
    """The qubit-operator block equals mu_a psi0 from ``oracle.apply_one_body``, and its
    moments equal the oracle's reference moments."""
    model = fixtures.solve(spec)
    states = model.states
    assert states.kets.shape == (len(states.basis), 3)
    for i, axis in enumerate(sp.AXES):
        want = _sparse_route(model, axis)
        assert np.max(np.abs(states.kets[:, i] * states.norms[axis] - want)) <= 1e-13
    assert np.max(np.abs(states.moments - model.trans.reference_moments)) <= 1e-12


def test_cvs_dipole_block_matches_the_sparse_route(toy):
    """With core orbital 0, each column keeps only the single-core-hole rows."""
    states = sp.prepare_dipole_states(toy.psi0, toy.dipole, core_orbitals=[0])
    raw = np.column_stack([_sparse_route(toy, axis, core=0) for axis in sp.AXES])
    assert np.max(np.abs(states.kets * [states.norms[a] for a in sp.AXES] - raw)) <= 1e-13
    assert np.max(np.abs(states.moments - (raw.conj().T @ raw).real)) <= 1e-12


def test_empty_core_set_is_no_projection(toy):
    """An empty core list keeps every row on both sides, as ``--cvs ""`` does."""
    unprojected = sp.prepare_dipole_states(toy.psi0, toy.dipole)
    empty = sp.prepare_dipole_states(toy.psi0, toy.dipole, core_orbitals=[])
    assert empty.norms == unprojected.norms
    assert np.array_equal(empty.kets, unprojected.kets)
    assert np.array_equal(empty.moments, unprojected.moments)
    table, raw = oracle.transition_table(toy.eig, toy.dipole, []), toy.trans
    assert np.array_equal(table.table, raw.table)
    assert np.array_equal(table.reference_moments, raw.reference_moments)


def test_dark_axis_records_positive_zeros(two_orb):
    """A dipole component that vanishes gives a zero column, no register vector,
    and +0.0 in every series it opens."""
    dipole = dataclasses.replace(two_orb.dipole, z=np.zeros_like(two_orb.dipole.z))
    states = sp.prepare_dipole_states(two_orb.psi0, dipole)
    assert states.norms["z"] == 0.0 and not np.any(states.kets[:, 2])
    assert not np.any(states.moments[2]) and states.vectors["z"] is None
    plan = plan_run(0.06, two_orb.delta, 1e-2, 600, states.moments,
                    [QVector(1.0, 1.0, 1.0)], k=4)
    series = measure_all(plan, states, two_orb.program(plan), mode="exact")
    for pair in ("xz", "yz", "zz"):
        values = np.concatenate([series[pair].x, series[pair].y])
        assert not np.any(values) and not np.any(np.signbit(values)), pair


def test_series_time_zero_limit(toy):
    """<b|a> scaled by the norms equals the stored static moment."""
    for pair in sp.PAIR_KEYS:
        ket = toy.states.vectors[pair[0]]
        bra = toy.states.vectors[pair[1]]
        value = np.vdot(bra, ket) * toy.states.norm_product(pair)
        assert value.real == pytest.approx(toy.states.pair_moment(pair), abs=1e-10)
        assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_exact_series_matches_eigendecomposition(toy, two_orb):
    """Measured G_n is within n one-step Trotter errors of the oracle's, on the
    core-valence toy and the 2-orbital fixture."""
    import scipy.linalg
    from dsfsim.pauli import pauli_sum_dense
    for model in (toy, two_orb):
        plan = plan_run(0.06, model.delta, 1e-2, 600, model.states.moments,
                        [QVector(1.0, 1.0, 1.0)], k=4)
        prog = model.program(plan)
        step_err = np.linalg.norm(
            emulator.program_unitary(prog)
            - scipy.linalg.expm(-1j * pauli_sum_dense(model.shifted) * plan.tau), 2)
        series = measure_all(plan, model.states, prog, mode="exact")["xy"]
        norms = series.norm_product
        for n in (1, 3, series.n_max):
            want = oracle.exact_greens(model.eig, model.trans, "xy", plan.tau, n)
            got = series.x[n - 1] + 1j * series.y[n - 1]
            assert abs(got - want) <= norms * (n * step_err + 1e-12)


def test_sampled_variance_matches_bernoulli(toy):
    plan = toy.plan(shots=60000)
    prog = toy.program(plan)
    exact = measure_all(plan, toy.states, prog, mode="exact")["zz"]
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
    prog = toy.program(plan)
    s1 = measure_all(plan, toy.states, prog, mode="sampled", master_seed=9)["xx"]
    s2 = measure_all(plan, toy.states, prog, mode="sampled", master_seed=9)["xx"]
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
    s3 = measure_all(plan, toy.states, prog, mode="sampled", master_seed=10)["xx"]
    assert not np.array_equal(s1.x, s3.x)


def test_resample_matches_fresh_measurement(toy):
    """Resampling an exact series equals a fresh sampled measurement, bit for bit."""
    plan = toy.plan(shots=2000)
    prog = toy.program(plan)
    exact = measure_all(plan, toy.states, prog, mode="exact")["yy"]
    direct = measure_all(plan, toy.states, prog, mode="sampled", master_seed=4)["yy"]
    redrawn = resample_series(exact, master_seed=4)
    assert np.array_equal(direct.x, redrawn.x)
    assert np.array_equal(direct.y, redrawn.y)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_measure_series_is_one_pair_of_measure_all(toy, mode):
    """The per-pair entry point returns ``measure_all``'s series bit for bit."""
    plan = toy.plan(shots=2000)
    prog = toy.program(plan)
    every = measure_all(plan, toy.states, prog, mode=mode, master_seed=7)
    for pair in sp.PAIR_KEYS:
        one = measure_series(pair, plan, toy.states, prog, mode=mode, master_seed=7)
        assert one.exact == (mode == "exact")
        for field in ("x", "y", "shots"):
            assert np.array_equal(getattr(one, field), getattr(every[pair], field))
    with pytest.raises(ValueError, match="unknown pair"):
        measure_series("xw", plan, toy.states, prog, mode=mode)
    with pytest.raises(ValueError, match="unknown mode"):
        measure_series("xx", plan, toy.states, prog, mode="oracle")
    with pytest.raises(ValueError, match="unknown mode"):
        measure_all(plan, toy.states, prog, mode="oracle")


@pytest.mark.parametrize("bias", [1.0, -1.0])
def test_resample_certain_bias_is_exact(bias):
    """A bias of +-1 resamples to exactly +-1; a series beyond 1 + 1e-9 is refused."""
    series = GreensSeries(pair="xy", tau=0.1, eta=0.5, n_max=3, norm_product=0.5,
                          moment0=0.0, x=np.full(3, 0.5 * bias), y=np.full(3, -0.5 * bias),
                          shots=[2, 5, 40], exact=True)
    drawn = resample_series(series, master_seed=5)
    assert np.array_equal(drawn.x, series.x) and np.array_equal(drawn.y, series.y)
    with pytest.raises(ValueError, match="norm product"):
        dataclasses.replace(series, x=series.x * (1.0 + 1.8e-9))


@pytest.mark.parametrize("norm_product", [0.1, 0.5, 1.0, 3.0])
def test_every_accepted_series_resamples(norm_product):
    """X_n and Y_n at the largest magnitude ``GreensSeries`` accepts resample."""
    bound = norm_product * (1.0 + 1e-9)
    with pytest.raises(ValueError, match="norm product"):
        GreensSeries(pair="xx", tau=0.1, eta=0.1, n_max=2, norm_product=norm_product,
                     moment0=0.01, x=[np.nextafter(bound, 2 * bound), 0.0], y=[0.0, 0.0],
                     shots=[10, 10], exact=True)
    series = GreensSeries(pair="xx", tau=0.1, eta=0.1, n_max=2, norm_product=norm_product,
                          moment0=0.01, x=[bound, -bound], y=[-bound, bound],
                          shots=[10, 10], exact=True)
    drawn = resample_series(series, master_seed=0)
    assert np.array_equal(drawn.x, series.norm_product * np.array([1.0, -1.0]))
    assert np.array_equal(drawn.y, series.norm_product * np.array([-1.0, 1.0]))


@pytest.mark.parametrize("field, value", [
    ("eta", math.nan), ("eta", math.inf), ("eta", -0.1),
    ("norm_product", math.nan), ("norm_product", math.inf), ("norm_product", -0.5)])
def test_series_refuses_a_broadening_or_norm_product_not_finite_and_nonnegative(
        field, value):
    kwargs = dict(pair="xx", tau=0.1, eta=0.1, n_max=1, norm_product=0.5, moment0=0.01,
                  x=[0.1], y=[0.0], shots=[10], exact=True)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        GreensSeries(**{**kwargs, field: value})


@pytest.mark.parametrize("field, value", [
    ("x", math.nan), ("x", math.inf), ("y", -math.nan), ("y", -math.inf),
    ("moment0", math.nan), ("moment0", math.inf)])
def test_series_refuses_a_bias_or_moment_that_is_not_finite(field, value):
    """A NaN passes no ``>`` bound, so the bound is written as ``<=``."""
    kwargs = dict(pair="xx", tau=0.1, eta=0.1, n_max=2, norm_product=0.5, moment0=0.01,
                  x=[0.1, 0.2], y=[0.0, 0.1], shots=[10, 10], exact=True)
    value = value if field == "moment0" else [0.1, value]
    with pytest.raises(ValueError, match="norm product|moment0 must be finite"):
        GreensSeries(**{**kwargs, field: value})


def _series_doc_with(key, value):
    """The exact baseline's xy series file with one field, or the first entry's value in
    one column, replaced (a bool n there is ``True == 1``)."""
    doc = json.loads((BASELINES / "exact_2orb" / "greens_xy.json").read_text())
    if key in doc:
        doc[key] = value
    else:
        column = ["n", "x", "y", "shots"].index(key)
        doc["entries"][0][column] = value
    return json.dumps(doc)


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in ("tau", "eta", "n_max", "norm_product", "moment0")
      for value in (True, "0.5", math.nan)),
    ("shots", 1.7), ("n", True), ("x", "0.1"), ("y", None)])
def test_series_file_refuses_a_value_that_is_not_a_json_number(key, value):
    """Each number goes through ``ci.number_array``: no bool, string, null or NaN, and
    n_max, n and the shot counts are integers."""
    with pytest.raises(TypeError, match="JSON (number|integer)"):
        series_from_json(_series_doc_with(key, value))


@pytest.mark.parametrize("exact", ["false", 0, 1, None])
def test_series_file_refuses_an_exact_flag_that_is_not_a_boolean(exact):
    doc = json.loads((BASELINES / "exact_2orb" / "greens_xy.json").read_text())
    doc["exact"] = exact
    with pytest.raises(ValueError, match="JSON boolean"):
        series_from_json(json.dumps(doc))


def test_exact_baseline_series_resample():
    """The exact-mode series files of the 2-orbital baseline load and resample."""
    paths = sorted((BASELINES / "exact_2orb").glob("greens_*.json"))
    assert paths
    for path in paths:
        series = series_from_json(path.read_text())
        assert series.exact
        drawn = resample_series(series, master_seed=1)
        assert np.max(np.abs(drawn.x), initial=0.0) <= abs(series.norm_product)


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
    series = measure_all(plan, toy.states, toy.program(plan), mode="exact")["xy"]
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
    series = measure_all(plan, toy.states, toy.program(plan), mode="exact")["xy"]
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


def test_reconstruct_plan_matches_a_cold_cache(toy):
    """Calls alternating over two grids and over series that differ in n_max,
    tau or eta each equal the same call made right after ``cache_clear()``.
    Each call differs from the one before it in one key field or none; the
    two repeats reuse the plan, whose arrays refuse writes."""
    (coarse, grid), (fine, _) = toy_series(toy, 1e-2), toy_series(toy, 1e-4)
    assert fine.n_max != coarse.n_max
    longer = dataclasses.replace(coarse, tau=0.75 * coarse.tau)
    damped = dataclasses.replace(coarse, eta=2.0 * coarse.eta)
    sub = grid[100:400]
    calls = [(coarse, grid), (coarse, grid), (longer, grid), (coarse, grid),
             (damped, grid), (coarse, grid), (fine, grid), (fine, sub),
             (coarse, sub), (coarse, sub), (coarse, grid)]
    sp._chirp_plan.cache_clear()
    warm = [reconstruct_intensity(series, omega).values for series, omega in calls]
    assert sp._chirp_plan.cache_info().hits == 2
    for (series, omega), values in zip(calls, warm):
        sp._chirp_plan.cache_clear()
        assert np.array_equal(values, reconstruct_intensity(series, omega).values)
    plan = sp._chirp_plan(coarse.tau, coarse.eta, coarse.n_max, grid.tobytes())
    for array in (plan.damping, plan.pre_chirp, plan.kernel_fft, plan.post_chirp):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("tau", [0.0, -0.0, -0.5, math.inf, math.nan])
def test_series_rejects_a_step_that_is_not_positive(tau):
    with pytest.raises(ValueError, match="tau must be a positive number"):
        GreensSeries(pair="xx", tau=tau, eta=0.05, n_max=1, norm_product=1.0,
                     moment0=1.0, x=[0.0], y=[0.0], shots=[0])


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
    plan = toy.plan(epsilon_trunc=1e-6, k=32)
    prog = toy.program(plan)
    grid = default_omega_grid(plan.tau, toy.eta)
    every = measure_all(plan, toy.states, prog, mode="exact")
    for pair in ("xx", "xy"):
        rec = reconstruct_intensity(every[pair], grid)
        ora = oracle.exact_intensity(toy.eig, toy.trans, pair, toy.eta, grid)
        rel = np.max(np.abs(rec.values - ora.values)) / np.max(np.abs(ora.values))
        assert rel < 2e-3


def test_diagonal_positivity(toy):
    plan = toy.plan(epsilon_trunc=1e-8, k=8)
    prog = toy.program(plan)
    grid = default_omega_grid(plan.tau, toy.eta)
    floor = -10 * plan.epsilon_trunc
    every = measure_all(plan, toy.states, prog, mode="exact")
    for pair in sp.DIAGONAL_KEYS:
        series = every[pair]
        rec = reconstruct_intensity(series, grid)
        assert np.min(rec.values) >= floor * max(1.0, series.moment0)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def contributions_on(grid, toy, plan, prog):
    return {p: reconstruct_intensity(s, grid)
            for p, s in measure_all(plan, toy.states, prog, mode="exact").items()}


@pytest.fixture(scope="module")
def toy_contribs(toy):
    plan = toy.plan(epsilon_trunc=1e-4)
    prog = toy.program(plan)
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
    m0 = toy.states.pair_moment("zz")
    decay = np.exp(-toy.eta * plan0.tau * np.arange(1, plan0.n_max + 1))
    budget = int(round(plan0.tau**2 * m0**2 * decay.sum()**2
                       / (4 * math.pi**2 * target**2)))
    budgets = {p: (budget if p == "zz" else 1) for p in sp.PAIR_KEYS}
    plan = RunPlan(tau=plan0.tau, eta=toy.eta, k=4, budgets=budgets,
                   epsilon_trunc=plan0.epsilon_trunc)
    prog = toy.program(plan)
    exact = measure_all(plan, toy.states, prog, mode="exact")["zz"]
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
    series = measure_all(plan, toy.states, toy.program(plan), mode="sampled",
                         master_seed=3)["xz"]
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
    back = spectrum_from_csv(spectrum_to_csv(spec))
    assert np.array_equal(back.omega, spec.omega)
    assert np.array_equal(back.values, spec.values)


@pytest.mark.parametrize("field", ["1_0", "0.5_5", "1e1_0"])
def test_spectrum_csv_refuses_an_underscore(field):
    """Python's ``float`` reads ``1_0`` as 10.0; the CSV reader refuses it, as
    ``parse_fcidump`` does."""
    for row in (f"0.5,13.6,{field}", f"{field},13.6,1.0", f"0.5,{field},1.0"):
        with pytest.raises(ValueError, match="row 2: malformed number"):
            spectrum_from_csv(f"omega_hartree,omega_ev,value\n0.1,2.7,1.0\n{row}\n")


def reference_csv(spectrum):
    """The CSV formatted row by row: each number is the repr of its Python float."""
    rows = [f"{w!r},{w * sp.HARTREE_TO_EV!r},{v!r}"
            for w, v in zip(spectrum.omega.tolist(), spectrum.values.tolist())]
    return "\n".join(["omega_hartree,omega_ev,value", *rows]) + "\n"


def test_spectrum_csv_matches_per_row_repr():
    """The cached grid columns write what formatting every row anew writes: on
    edge values, on grids written alternately, and on two grids that differ
    only in the sign of a zero first point (equal as floats, printed apart)."""
    values = np.array([-0.0, 5e-324, 1e300, -2.5, -1e-300])
    signed = np.array([-0.0, 5e-324, 0.25, 1.5, 1e300])
    unsigned = np.array([0.0, 5e-324, 0.25, 1.5, 1e300])
    plain = np.linspace(-1.0, 2.0, 5)
    assert np.array_equal(signed, unsigned)
    for grid in (plain, signed, plain, signed, unsigned, signed):
        spec = Spectrum(grid, values, 0.05)
        assert spectrum_to_csv(spec) == reference_csv(spec)
    assert spectrum_to_csv(Spectrum(signed, values, 0.05)).split("\n")[1] \
        == "-0.0,-0.0,-0.0"
    template = sp._csv_template(signed.tobytes())
    assert isinstance(template, bytes) and template.split(b"\n")[1] == b"-0.0,-0.0,%s"


def test_spectrum_grid_validation():
    with pytest.raises(ValueError, match="increasing"):
        Spectrum(np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.05)
    with pytest.raises(ValueError, match="finite"):
        Spectrum(np.array([0.0, 1.0]), np.array([np.nan, 0.0]), 0.05)
