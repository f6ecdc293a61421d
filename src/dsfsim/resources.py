"""Fault-tolerant logical resource estimation for the Hadamard-test circuits.

Per-circuit T counts follow a parametric model: a second-order Trotter step
over a rank-L factorized two-body operator, L = N_a, costs ``rotations(N_a)``
arbitrary-angle rotations, each synthesized at ``rot_t_cost(EPSILON_R)/2`` T
gates (the factor 2 from trading controlled rotations for uncontrolled ones
plus Cliffords), plus a fixed state-preparation block.  The three rotation
coefficients, the per-T active-volume weight, the logical-qubit line, and
the per-pair sample budget are calibrated against a published reference
table of estimates for 14..30 spatial orbitals; fit residuals are kept on
the model.  Outside roughly that range the rotation polynomial is
extrapolation and is validated to stay positive.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import PAIR_KEYS, RunPlan, window_tau

DIAGONAL = "diagonal"
OFF_DIAGONAL = "off_diagonal"

# Reference logical-resource estimates used to calibrate the parametric
# model: (orbitals, logical qubits, algorithm T, algorithm volume,
# largest-circuit T, largest-circuit volume).
REFERENCE_COSTS = (
    (14, 92, 1.54e12, 4.13e13, 1.67e8, 4.46e9),
    (16, 96, 2.29e12, 6.16e13, 2.47e8, 6.65e9),
    (18, 100, 3.25e12, 8.77e13, 3.51e8, 9.48e9),
    (20, 104, 4.45e12, 1.20e14, 4.80e8, 1.30e10),
    (22, 108, 5.91e12, 1.60e14, 6.39e8, 1.73e10),
    (24, 112, 7.67e12, 2.08e14, 8.29e8, 2.25e10),
    (26, 116, 9.75e12, 2.65e14, 1.05e9, 2.86e10),
    (28, 120, 1.22e13, 3.31e14, 1.32e9, 3.58e10),
    (30, 124, 1.50e13, 4.08e14, 1.62e9, 4.40e10),
)

# Reference schedule the calibration table assumes: eta = 0.06 Ha, a 3.28 Ha
# spectral window (tau = pi/3.28), truncation exp(-5), Trotter step tau/4.
# ``reference_plan`` fills in the budgets.
REFERENCE_SCHEDULE = RunPlan(tau=window_tau(3.28), eta=0.06, k=4,
                             budgets=dict.fromkeys(PAIR_KEYS, 0),
                             epsilon_trunc=math.exp(-5.0))

# Fixed assumptions of the model: rotation-synthesis accuracy, the T count of
# each state-preparation block, and the machine (logical qubits, logical clock).
EPSILON_R = 1e-3
STATE_PREP_T = {DIAGONAL: 1.1e6, OFF_DIAGONAL: 9.7e6}
N_LOGICAL_QUBITS = 350
CLOCK_HZ = 1e6


def rot_t_cost(epsilon_r: float) -> float:
    """T gates per single arbitrary-angle Z rotation at synthesis accuracy eps_r."""
    if not 0.0 < epsilon_r < 1.0:
        raise ValueError("epsilon_r must lie in (0, 1)")
    return 0.53 * math.log2(1.0 / epsilon_r) + 4.86


@dataclass(frozen=True)
class CostModel:
    """Constants ``calibrate`` fits to the reference table."""

    rotation_coefficients: tuple[float, float, float]  # a, b, c
    volume_per_t: float
    qubit_slope: float
    qubit_intercept: float
    samples_per_pair: int
    fit_residuals: dict

    def rotations_per_step(self, n_orbitals: int) -> float:
        """Rotations in one inner Trotter step, at the calibrated rank L = N_a."""
        a, b, c = self.rotation_coefficients
        value = a * n_orbitals**2 * n_orbitals + b * n_orbitals**2 + c * n_orbitals
        if n_orbitals < 1 or value <= 0:
            raise ValueError(
                f"rotation model is not calibrated for {n_orbitals} orbitals")
        return value

    def logical_qubits(self, n_orbitals: int) -> int:
        return int(round(self.qubit_slope * n_orbitals + self.qubit_intercept))


@dataclass(frozen=True)
class CircuitCost:
    t_gates: float
    rotations: float
    active_volume: float


@dataclass(frozen=True)
class ResourceReport:
    n_orbitals: int
    logical_qubits: int
    largest_t: float
    largest_volume: float
    total_t: float
    total_volume: float
    depth: float
    runtime_seconds: float

    def __post_init__(self):
        values = (self.largest_t, self.largest_volume, self.total_t,
                  self.total_volume, self.depth, self.runtime_seconds)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("resource totals must be finite")
        if self.total_t < self.largest_t or self.total_volume < self.largest_volume:
            if self.total_t != 0.0 or self.total_volume != 0.0:
                raise ValueError("algorithm totals cannot undercut one circuit")

    @property
    def runtime_days(self) -> float:
        return self.runtime_seconds / 86400.0


def circuit_cost(n_orbitals: int, k: int, n: int,
                 model: CostModel, prep: str) -> CircuitCost:
    """Cost of one Hadamard-test circuit evolving to time step n.

    ``prep`` selects the state-preparation block: a single uncontrolled
    preparation for diagonal pairs, or the controlled two-state block for
    off-diagonal pairs.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if prep not in (DIAGONAL, OFF_DIAGONAL):
        raise ValueError(f"unknown preparation style {prep!r}")
    rotations = model.rotations_per_step(n_orbitals) * k * n
    rotation_t = rotations * rot_t_cost(EPSILON_R) / 2.0
    prep_t = STATE_PREP_T[prep]
    return CircuitCost(t_gates=rotation_t + prep_t, rotations=rotations,
                       active_volume=rotation_t * model.volume_per_t
                       + prep_t * model.volume_per_t)


def algorithm_cost(plan: RunPlan, model: CostModel, n_orbitals: int) -> ResourceReport:
    """Aggregate cost over every Hadamard-test shot of a run plan.

    Each shot is priced at its pair's deepest circuit (n = n_max), which is
    how the calibration reference tabulates totals.
    """
    costs = {prep: circuit_cost(n_orbitals, plan.k, plan.n_max, model, prep)
             for prep in (DIAGONAL, OFF_DIAGONAL)}
    largest = costs[OFF_DIAGONAL]
    total_t = 0.0
    total_v = 0.0
    for pair in PAIR_KEYS:
        cost = costs[DIAGONAL if pair[0] == pair[1] else OFF_DIAGONAL]
        total_t += plan.budgets[pair] * cost.t_gates
        total_v += plan.budgets[pair] * cost.active_volume
    depth = 2.0 * total_v / N_LOGICAL_QUBITS
    return ResourceReport(
        n_orbitals=n_orbitals,
        logical_qubits=model.logical_qubits(n_orbitals),
        largest_t=largest.t_gates,
        largest_volume=largest.active_volume,
        total_t=total_t,
        total_volume=total_v,
        depth=depth,
        runtime_seconds=depth / CLOCK_HZ,
    )


def reference_plan(model: CostModel, total_shots: int | None = None) -> RunPlan:
    """The reference schedule with ``model.samples_per_pair`` shots per pair,
    or ``total_shots // 6`` when given; a negative ``total_shots`` raises ValueError."""
    if total_shots is not None and total_shots < 0:
        raise ValueError(f"shots must be non-negative, got {total_shots}")
    per_pair = model.samples_per_pair if total_shots is None else total_shots // 6
    return dataclasses.replace(REFERENCE_SCHEDULE,
                               budgets=dict.fromkeys(PAIR_KEYS, per_pair))


def calibrate() -> CostModel:
    """Least-squares fit of the model constants to ``REFERENCE_COSTS``."""
    rows = np.array(REFERENCE_COSTS, dtype=float)
    n_a, qubits, alg_t, alg_v, big_t, big_v = rows.T
    crot = rot_t_cost(EPSILON_R)
    prep_d, prep_od = STATE_PREP_T[DIAGONAL], STATE_PREP_T[OFF_DIAGONAL]
    k, n_max = REFERENCE_SCHEDULE.k, REFERENCE_SCHEDULE.n_max
    # rotations per inner step implied by the largest-circuit column
    rot_data = (big_t - prep_od) * 2.0 / crot / (n_max * k)
    design = np.vstack([n_a**3, n_a**2, n_a]).T  # rank L = N_a
    coeffs, *_ = np.linalg.lstsq(design, rot_data, rcond=None)
    evol_t = (design @ coeffs) * k * n_max * crot / 2.0
    pred_big = evol_t + prep_od
    # per-pair sample budget from the algorithm column (deepest-circuit pricing)
    per_pair_cost = 3.0 * (prep_d + evol_t) + 3.0 * (prep_od + evol_t)
    samples = float(np.sum(alg_t * per_pair_cost) / np.sum(per_pair_cost**2))
    pred_alg = round(samples) * per_pair_cost
    # single active-volume weight per T gate
    t_all = np.concatenate([alg_t, big_t])
    v_all = np.concatenate([alg_v, big_v])
    volume_per_t = float(np.sum(v_all * t_all) / np.sum(t_all**2))
    slope, intercept = np.polyfit(n_a, qubits, 1)
    residuals = {
        "largest_t_rel": (pred_big / big_t - 1.0).tolist(),
        "algorithm_t_rel": (pred_alg / alg_t - 1.0).tolist(),
        "volume_per_t_rel": (volume_per_t * t_all / v_all - 1.0).tolist(),
    }
    return CostModel(
        rotation_coefficients=tuple(float(c) for c in coeffs),
        volume_per_t=volume_per_t,
        qubit_slope=float(slope),
        qubit_intercept=float(intercept),
        samples_per_pair=int(round(samples)),
        fit_residuals=residuals,
    )


DEFAULT_MODEL = calibrate()


def table_to_csv(reports: list[ResourceReport]) -> str:
    lines = ["n_orbitals,logical_qubits,algorithm_t_gates,algorithm_active_volume,"
             "largest_t_gates,largest_active_volume"]
    for r in reports:
        lines.append(f"{r.n_orbitals},{r.logical_qubits},{r.total_t!r},"
                     f"{r.total_volume!r},{r.largest_t!r},{r.largest_volume!r}")
    return "\n".join(lines) + "\n"


def report_to_json(report: ResourceReport) -> str:
    return json.dumps(dataclasses.asdict(report), sort_keys=True)
