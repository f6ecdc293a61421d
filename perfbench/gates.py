"""Correctness gates: program outputs against the Slater-Condon oracle.

The oracle reference (eigensystem and transition table) is computed once in
set-up, outside every timed region.  The resampling gate compares against a
damped-Fourier sum written here, not against ``spectrum.reconstruct_intensity``,
so a faster reconstruction cannot pass by agreeing with itself.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from dsfsim import oracle
from dsfsim import spectrum as sp
from dsfsim.operators import QVector

# Largest errors at the seed commit over 40 seeds (10..49), and the limits:
#   greens   rand6_exact max |dG| / norm product vs exact_greens    2.6e-4  -> 3e-3
#   dsf      toy4_sampled max |dS| / max S vs exact_spectrum         0.24    -> 0.5
#   chi2     toy4_sampled mean squared z-score of sampled biases     1.07    -> 1.3
#   resample toy4_resample means of 8 draws vs exact reconstruction  0.34    -> 0.6
#   stored   the exact series written in set-up; loose because Trotter
#            error grows along the 2-orbital self-test's long series   -> 0.1
# A flipped Y sign, swapped pairs or a time step off by 1 % exceed these by
# far (selftest.py); ROADMAP item 1's 2e-4 formula change stays inside them.
TOLERANCE = {"greens": 3e-3, "dsf": 0.5, "chi2": 1.3, "resample": 0.6, "stored": 0.1}


class Reference:
    """Oracle eigensystem and dipole transitions of one generated model."""

    def __init__(self, h, dipole, sector):
        self.eig = oracle.solve_sector(h, *sector)
        self.trans = oracle.transition_table(self.eig, dipole)
        self._spectra: dict = {}

    def greens(self, pair: str, tau: float, n: int) -> complex:
        return oracle.exact_greens(self.eig, self.trans, pair, tau, n)

    def spectrum(self, q, eta: float, omega: np.ndarray) -> np.ndarray:
        key = (tuple(q), eta, len(omega), float(omega[-1]))
        if key not in self._spectra:
            self._spectra[key] = oracle.exact_spectrum(
                self.eig, self.trans, QVector(*q), eta, omega).values
        return self._spectra[key]

    def default_window(self, eta: float) -> float:
        """The CLI's window when --delta is not given."""
        return 1.05 * float(np.max(self.eig.energies) - self.eig.ground_energy) \
            + 5.0 * eta


def load_series(outdir: Path) -> dict[str, sp.GreensSeries]:
    return {pair: sp.series_from_json((outdir / f"greens_{pair}.json").read_text())
            for pair in sp.PAIR_KEYS}


def _oracle_series(ser: sp.GreensSeries, ref: Reference, tau: float) -> np.ndarray:
    return np.array([ref.greens(ser.pair, tau, int(n)) for n in ser.n])


def greens_error(series: dict[str, sp.GreensSeries], ref: Reference,
                 tau: float) -> float:
    """max |G_emulated(n tau) - G_oracle(n tau)| over pairs and n, divided by
    the largest norm product so that the limit does not depend on the seed."""
    worst, scale = 0.0, 0.0
    for pair in sp.PAIR_KEYS:
        ser = series[pair]
        if ser.pair != pair or not math.isclose(ser.tau, tau, rel_tol=1e-12):
            return math.inf
        got = ser.x + 1j * ser.y
        worst = max(worst, float(np.max(np.abs(got - _oracle_series(ser, ref, tau)))))
        scale = max(scale, abs(ser.norm_product))
    return worst / scale


def shot_chi2(series: dict[str, sp.GreensSeries], ref: Reference, tau: float) -> float:
    """Mean squared z-score of sampled Hadamard biases against the oracle.

    Each (pair, n, Re/Im) estimate with s > 0 shots has binomial variance
    (1 - v^2)/s about the exact bias v, so the mean is near 1 for a correct
    run; a swapped pair, a flipped sign or a wrong time step raise it.
    """
    total, count = 0.0, 0
    for pair in sp.PAIR_KEYS:
        ser = series[pair]
        if ser.pair != pair or not math.isclose(ser.tau, tau, rel_tol=1e-12):
            return math.inf
        if ser.norm_product == 0.0:
            continue
        want = _oracle_series(ser, ref, tau) / ser.norm_product
        s_im = ser.shots // 2
        for est, v, s in ((ser.x, want.real, ser.shots - s_im), (ser.y, want.imag, s_im)):
            m = s > 0
            var = np.maximum(1.0 - v[m] ** 2, 0.1) / s[m]
            total += float(np.sum((est[m] / ser.norm_product - v[m]) ** 2 / var))
            count += int(np.count_nonzero(m))
    return total / max(count, 1)


def relative_error(values: np.ndarray, want: np.ndarray) -> float:
    """max |values - want| / max |want| (inf on a shape mismatch)."""
    if values.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(values - want)) / np.max(np.abs(want)))


def dsf_error(spec: sp.Spectrum, ref: Reference, q, eta: float,
              delta: float) -> float:
    """Assembled S(q, w) against the oracle, on the grid the CLI must use."""
    grid = np.arange(0.0, math.pi / (math.pi / delta), eta / 5.0)
    if spec.omega.shape != grid.shape or np.max(np.abs(spec.omega - grid)) > 1e-9:
        return math.inf
    return relative_error(spec.values, ref.spectrum(q, eta, grid))


def reference_intensity(series: sp.GreensSeries, omega: np.ndarray) -> np.ndarray:
    """Damped Fourier sum tau/2pi (m0 + 2 sum_n (X cos - Y sin) e^{-n eta tau})."""
    damp = np.exp(-series.n * series.eta * series.tau)
    values = np.full(omega.shape, series.moment0)
    for start in range(0, series.n_max, 128):
        n = series.n[start:start + 128]
        phase = np.outer(n * series.tau, omega)
        values += 2.0 * ((series.x[start:start + 128] * damp[start:start + 128])
                         @ np.cos(phase))
        values -= 2.0 * ((series.y[start:start + 128] * damp[start:start + 128])
                         @ np.sin(phase))
    return values * series.tau / (2.0 * math.pi)


def reference_resample_outputs(series: dict[str, sp.GreensSeries], qs, k_in: float,
                               k_out: float) -> dict[str, np.ndarray]:
    """Exact S(q), isotropic and cross-section values the resampled means estimate."""
    first = series["xx"]
    omega = np.arange(0.0, math.pi / first.tau, first.eta / 5.0)
    inten = {pair: reference_intensity(s, omega) for pair, s in series.items()}
    out = {}
    for i, q in enumerate(qs):
        comp = dict(zip("xyz", q))
        dsf = sum(comp[p[0]] * comp[p[1]] * (1.0 if p[0] == p[1] else 2.0) * inten[p]
                  for p in sp.PAIR_KEYS)
        q2 = float(np.dot(q, q))
        out[f"mean_dsf_q{i}"] = dsf
        out[f"mean_xsec_q{i}"] = 4.0 / q2**2 * (k_out / k_in) * dsf
    q2 = float(np.dot(qs[0], qs[0]))
    out["mean_iso"] = q2 / 3.0 * sum(inten[p] for p in sp.DIAGONAL_KEYS)
    return out


def resample_error(outdir: Path, want: dict[str, np.ndarray]) -> float:
    worst = 0.0
    for name, values in want.items():
        got = sp.spectrum_from_csv((outdir / f"{name}.csv").read_text()).values
        worst = max(worst, relative_error(got, values))
    return worst
