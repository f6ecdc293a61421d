"""End-to-end demo on the bundled core-valence toy.

Solves the toy model exactly, emulates the Hadamard-test measurement chain
in both exact and sampled modes, and writes oracle/emulated spectra side by
side (gnuplot-ready CSV).  Prints the dominant peak positions and the
sampled-run signal-to-noise for a quick health check.

    python scripts/run_toy_eels.py --out toy_run --shots 10000 --seed 1
"""
import argparse
from pathlib import Path

import numpy as np

from dsfsim import fixtures, oracle
from dsfsim import spectrum as sp
from dsfsim.operators import QVector


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="toy_run")
    parser.add_argument("--shots", type=int, default=10**4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--eta", type=float, default=0.06)
    args = parser.parse_args()

    model = fixtures.solve(fixtures.CORE_VALENCE_SPEC)
    q = QVector(1.0, 1.0, 1.0)
    plan = model.plan(args.eta, shots=args.shots, k=args.k, q_set=[q])
    program = model.program(plan.k)
    grid = sp.default_omega_grid(plan.tau, args.eta)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    results = {}
    for mode, seed in (("exact", 0), ("sampled", args.seed)):
        contribs = {}
        for pair in sp.PAIR_KEYS:
            series = sp.measure_series(pair, plan, model.states, program,
                                       mode=mode, master_seed=seed)
            contribs[pair] = sp.reconstruct_intensity(series, grid)
        dsf = sp.assemble_dsf(q, contribs)
        results[mode] = dsf.values
        (outdir / f"dsf_{mode}.csv").write_text(sp.spectrum_to_csv(dsf))
    reference = oracle.exact_spectrum(model.eig, model.trans, q, args.eta, grid)
    (outdir / "dsf_oracle.csv").write_text(sp.spectrum_to_csv(reference))

    from scipy.signal import find_peaks
    peaks, _ = find_peaks(results["exact"], height=0.2 * results["exact"].max())
    noise = float(np.sqrt(np.mean((results["sampled"] - results["exact"]) ** 2)))
    print(f"window {model.delta:.2f} Ha, tau {plan.tau:.4f}, n_max {plan.n_max}")
    print(f"budgets: {plan.budgets}")
    for index in peaks:
        snr = results["sampled"][index] / noise
        print(f"band at {grid[index]:.3f} Ha "
              f"({grid[index] * sp.HARTREE_TO_EV:.1f} eV), "
              f"height {results['exact'][index]:.2f}, sampled SNR {snr:.1f}")
    print(f"wrote spectra under {outdir}/")


if __name__ == "__main__":
    main()
