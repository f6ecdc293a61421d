import numpy as np
import pytest

from dsfsim.resources import (DEFAULT_MODEL, DIAGONAL, N_LOGICAL_QUBITS,
                              OFF_DIAGONAL, REFERENCE_COSTS, STATE_PREP_T,
                              ResourceReport, algorithm_cost, calibrate,
                              circuit_cost, reference_plan, rot_t_cost,
                              table_to_csv)


def test_rot_t_cost_reference_accuracy():
    assert rot_t_cost(1e-3) == pytest.approx(10.14, abs=0.01)


def test_rot_t_cost_one_bit():
    assert rot_t_cost(0.5) == pytest.approx(5.39, abs=1e-12)


def test_rot_t_cost_log_law():
    assert rot_t_cost(1e-3 / 4) - rot_t_cost(1e-3) == pytest.approx(1.06, abs=1e-9)


def test_rot_t_cost_domain():
    with pytest.raises(ValueError):
        rot_t_cost(0.0)
    with pytest.raises(ValueError):
        rot_t_cost(1.5)


def test_evolution_cost_linear_in_n():
    base = circuit_cost(18, 4, 10, DEFAULT_MODEL, OFF_DIAGONAL)
    double = circuit_cost(18, 4, 20, DEFAULT_MODEL, OFF_DIAGONAL)
    prep = STATE_PREP_T[OFF_DIAGONAL]
    assert double.t_gates - prep == pytest.approx(2 * (base.t_gates - prep),
                                                  rel=1e-12)
    assert double.rotations == pytest.approx(2 * base.rotations, rel=1e-12)


def test_largest_circuit_reproduces_reference_within_quarter():
    plan = reference_plan(DEFAULT_MODEL)
    for n_a, _, _, _, big_t, big_v in REFERENCE_COSTS:
        cost = circuit_cost(int(n_a), plan.k, plan.n_max, DEFAULT_MODEL, OFF_DIAGONAL)
        assert cost.t_gates == pytest.approx(big_t, rel=0.25)
        assert cost.active_volume == pytest.approx(big_v, rel=0.25)


def test_algorithm_totals_reproduce_reference_within_quarter():
    plan = reference_plan(DEFAULT_MODEL)
    for n_a, _, alg_t, alg_v, _, _ in REFERENCE_COSTS:
        report = algorithm_cost(plan, DEFAULT_MODEL, int(n_a))
        assert report.total_t == pytest.approx(alg_t, rel=0.25)
        assert report.total_volume == pytest.approx(alg_v, rel=0.25)


def test_reference_ratio_constant_to_two_percent():
    table = np.array(REFERENCE_COSTS, dtype=float)
    ref_ratio = table[:, 2] / table[:, 4]
    assert np.max(np.abs(ref_ratio / ref_ratio.mean() - 1.0)) < 0.02
    plan = reference_plan(DEFAULT_MODEL)
    model_ratio = []
    for n_a in table[:, 0]:
        report = algorithm_cost(plan, DEFAULT_MODEL, int(n_a))
        model_ratio.append(report.total_t / report.largest_t)
    model_ratio = np.array(model_ratio)
    assert np.max(np.abs(model_ratio / model_ratio.mean() - 1.0)) < 0.02
    assert model_ratio.mean() == pytest.approx(ref_ratio.mean(), rel=0.05)


def test_scaling_exponent_in_cubic_range():
    plan = reference_plan(DEFAULT_MODEL)
    n_as = np.array([row[0] for row in REFERENCE_COSTS], dtype=float)
    t_values = [circuit_cost(int(n), plan.k, plan.n_max, DEFAULT_MODEL, OFF_DIAGONAL).t_gates
                for n in n_as]
    slope = np.polyfit(np.log(n_as), np.log(t_values), 1)[0]
    assert 2.7 <= slope <= 3.3


def test_qubit_line_matches_reference():
    for n_a, qubits, *_ in REFERENCE_COSTS:
        assert DEFAULT_MODEL.logical_qubits(int(n_a)) == qubits
    assert DEFAULT_MODEL.logical_qubits(18) == 100


def test_runtime_ten_and_a_half_days():
    plan = reference_plan(DEFAULT_MODEL)
    report = algorithm_cost(plan, DEFAULT_MODEL, 22)
    assert report.runtime_days == pytest.approx(10.5, abs=0.3)
    assert report.depth == pytest.approx(9.14e11, rel=0.03)


def test_depth_identity():
    # depth is exactly 2V/n_q by construction (same float expression)
    plan = reference_plan(DEFAULT_MODEL)
    report = algorithm_cost(plan, DEFAULT_MODEL, 20)
    assert report.depth == 2.0 * report.total_volume / N_LOGICAL_QUBITS


def test_zero_shots_zero_totals():
    plan = reference_plan(DEFAULT_MODEL, total_shots=0)
    report = algorithm_cost(plan, DEFAULT_MODEL, 18)
    assert report.total_t == 0.0
    assert report.total_volume == 0.0
    assert report.runtime_seconds == 0.0


def test_totals_monotone_in_arguments():
    plan = reference_plan(DEFAULT_MODEL)
    t_by_orbitals = [algorithm_cost(plan, DEFAULT_MODEL, n).total_t
                     for n in (14, 18, 22, 26, 30)]
    assert np.all(np.diff(t_by_orbitals) > 0)
    t_by_shots = [algorithm_cost(reference_plan(DEFAULT_MODEL, total_shots=s),
                                 DEFAULT_MODEL, 18).total_t
                  for s in (600, 6000, 60000)]
    assert np.all(np.diff(t_by_shots) > 0)
    base = circuit_cost(18, 4, 87, DEFAULT_MODEL, OFF_DIAGONAL)
    assert circuit_cost(18, 8, 87, DEFAULT_MODEL, OFF_DIAGONAL).t_gates > base.t_gates
    assert circuit_cost(18, 4, 90, DEFAULT_MODEL, OFF_DIAGONAL).t_gates > base.t_gates


def test_diagonal_prep_cheaper_than_off_diagonal():
    d = circuit_cost(18, 4, 87, DEFAULT_MODEL, prep=DIAGONAL)
    od = circuit_cost(18, 4, 87, DEFAULT_MODEL, prep=OFF_DIAGONAL)
    assert od.t_gates - d.t_gates == pytest.approx(9.7e6 - 1.1e6, rel=1e-12)


def test_rotation_model_validity_range():
    with pytest.raises(ValueError, match="calibrated"):
        DEFAULT_MODEL.rotations_per_step(2)


def test_calibration_residuals_recorded():
    model = calibrate()
    assert max(abs(r) for r in model.fit_residuals["largest_t_rel"]) < 0.01
    assert max(abs(r) for r in model.fit_residuals["algorithm_t_rel"]) < 0.05


def test_table_csv_layout():
    plan = reference_plan(DEFAULT_MODEL)
    reports = [algorithm_cost(plan, DEFAULT_MODEL, n) for n in (14, 16)]
    text = table_to_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0].startswith("n_orbitals,logical_qubits,algorithm_t_gates")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "14" and first[1] == "92"


def test_report_totals_cannot_undercut_largest():
    with pytest.raises(ValueError, match="undercut"):
        ResourceReport(n_orbitals=14, logical_qubits=92, largest_t=10.0,
                       largest_volume=10.0, total_t=5.0, total_volume=5.0,
                       depth=1.0, runtime_seconds=1.0)
