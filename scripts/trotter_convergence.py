"""Step-size convergence study on the core-valence toy.

Sweeps the inner Trotter step count, reporting the one-step operator error
against the exact propagator and the shift of the dominant spectral peak.
Both should fall off as the square of the step.

    python scripts/trotter_convergence.py --ks 1 2 4 8 16
"""
import argparse

import numpy as np
import scipy.linalg
from scipy.optimize import minimize_scalar

from dsfsim import emulator, fixtures, oracle
from dsfsim import spectrum as sp
from dsfsim.operators import QVector
from dsfsim.pauli import pauli_sum_dense


def assembled_at(series_by_pair, q, w):
    return sp.assemble_dsf(q, {p: sp.reconstruct_intensity(s, [w])
                               for p, s in series_by_pair.items()}).values[0]


def refined_peak(series_by_pair, q, grid):
    coarse = {p: sp.reconstruct_intensity(s, grid)
              for p, s in series_by_pair.items()}
    values = sp.assemble_dsf(q, coarse).values
    i0 = int(np.argmax(values))
    lo, hi = grid[max(0, i0 - 3)], grid[min(len(grid) - 1, i0 + 3)]
    res = minimize_scalar(lambda w: -assembled_at(series_by_pair, q, w),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--ks", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--eta", type=float, default=0.06)
    args = parser.parse_args()

    model = fixtures.solve(fixtures.CORE_VALENCE_SPEC)
    states = model.states
    q = QVector(1.0, 1.0, 1.0)
    plan = model.plan(args.eta, 1e-6, 600, 4, [q])
    tau = plan.tau
    exact_step = scipy.linalg.expm(-1j * pauli_sum_dense(model.shifted) * tau)
    grid = sp.default_omega_grid(tau, args.eta)

    # step-exact reference series with the same truncation isolates the
    # Trotter-induced shift
    reference_series = {}
    for pair in sp.PAIR_KEYS:
        values = np.array([oracle.exact_greens(model.eig, model.trans, pair, tau, n)
                           for n in range(1, plan.n_max + 1)])
        reference_series[pair] = sp.GreensSeries(
            pair=pair, tau=tau, eta=args.eta, n_max=plan.n_max,
            norm_product=max(states.norm_product(pair), 1.0),
            moment0=states.pair_moment(pair), x=values.real, y=values.imag,
            shots=np.zeros(plan.n_max, dtype=int), exact=True)
    ref_peak = refined_peak(reference_series, q, grid)

    print(f"tau = {tau:.5f} Ha^-1, reference peak at {ref_peak:.6f} Ha")
    print(f"{'k':>4}  {'step error':>12}  {'peak shift':>12}")
    op_rows, peak_rows = [], []
    for k in args.ks:
        plan_k = model.plan(args.eta, 1e-6, 600, k, [q])
        program = model.program(plan_k)
        step_err = float(np.linalg.norm(emulator.program_unitary(program)
                                        - exact_step, 2))
        series = sp.measure_all(plan_k, states, program, mode="exact")
        shift = abs(refined_peak(series, q, grid) - ref_peak)
        op_rows.append(step_err)
        peak_rows.append(shift)
        print(f"{k:>4}  {step_err:>12.3e}  {shift:>12.3e}")
    if len(args.ks) >= 2:
        ks = np.array(args.ks, dtype=float)
        print(f"operator-error slope vs k: "
              f"{np.polyfit(np.log(ks), np.log(op_rows), 1)[0]:.3f}; "
              f"peak-shift slope vs k: "
              f"{np.polyfit(np.log(ks), np.log(peak_rows), 1)[0]:.3f} "
              f"(second order: -2)")


if __name__ == "__main__":
    main()
