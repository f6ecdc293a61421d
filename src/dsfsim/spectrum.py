"""Green's-function measurement orchestration and spectrum reconstruction.

The measured object per Cartesian pair (a, b) is the series
G(n*tau) = X_n + i*Y_n = <mu_a psi0| exp(-i (H - E0) n tau) |mu_b psi0>,
estimated by Hadamard tests.  The intensity contribution is rebuilt as

    I(w) = (tau/2pi) * (m0 + 2 sum_n [X_n cos(n tau w) - Y_n sin(n tau w)]
                                  * exp(-n eta tau))

and structure factors combine pair contributions with q_a q_b (2 - delta)
weights, so new momentum transfers reuse stored series without remeasuring.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import ci as ci_mod
from .ci import (AnnihilatedError, CIVector, ci_to_statevector,
                 cvs_project, normalize)
from .emulator import (IMAG, REAL, TrotterProgram, check_step_size,
                       program_unitary)
from .operators import DipoleOperator, QVector

HARTREE_TO_EV = 27.211386245988

AXES = ("x", "y", "z")
PAIR_KEYS = ("xx", "xy", "xz", "yy", "yz", "zz")
DIAGONAL_KEYS = ("xx", "yy", "zz")


@dataclass(frozen=True)
class Spectrum:
    """Values on an energy grid (Hartree), tagged by what they represent."""

    omega: np.ndarray
    values: np.ndarray
    eta: float
    kind: str = "intensity"   # intensity | dsf | isotropic | cross_section
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.omega.shape != self.values.shape:
            raise ValueError("grid and values must share a shape")
        if len(self.omega) > 1 and np.any(np.diff(self.omega) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be a nonnegative number")


@dataclass(frozen=True)
class GreensSeries:
    """Per-pair time series (X_n, Y_n, shots_n) for n = 1..n_max."""

    pair: str
    tau: float
    eta: float
    n_max: int
    norm_product: float
    moment0: float
    x: np.ndarray
    y: np.ndarray
    shots: np.ndarray
    exact: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "shots", np.asarray(self.shots, dtype=int))
        if self.pair not in PAIR_KEYS:
            raise ValueError(f"unknown pair {self.pair!r}")
        if self.n_max < 1 or len(self.x) != self.n_max or len(self.y) != self.n_max \
                or len(self.shots) != self.n_max:
            raise ValueError("series length must equal n_max >= 1")
        bound = abs(self.norm_product) + 1e-9 * max(1.0, abs(self.norm_product))
        if np.max(np.abs(self.x), initial=0.0) > bound \
                or np.max(np.abs(self.y), initial=0.0) > bound:
            raise ValueError("|X_n|, |Y_n| must not exceed the norm product")
        if np.any(self.shots < 0):
            raise ValueError("negative shot counts")

    @property
    def n(self) -> np.ndarray:
        return np.arange(1, self.n_max + 1)


@dataclass(frozen=True)
class RunPlan:
    """Measurement schedule: time grid, truncation depth, per-pair budgets."""

    tau: float
    eta: float
    n_max: int
    k: int
    total_shots: int
    budgets: dict[str, int]
    epsilon_trunc: float

    def __post_init__(self):
        if self.tau <= 0 or self.eta <= 0 or self.k < 1:
            raise ValueError("tau, eta must be positive and k >= 1")
        expected = max(1, round(math.log(1.0 / self.epsilon_trunc) / (self.eta * self.tau)))
        if self.n_max != expected:
            raise ValueError(f"n_max {self.n_max} inconsistent with the truncation "
                             f"rule (expected {expected})")
        if set(self.budgets) != set(PAIR_KEYS):
            raise ValueError("budgets must cover exactly the six Cartesian pairs")
        if sum(self.budgets.values()) != self.total_shots:
            raise ValueError("pair budgets must sum to the total budget")


class NoDipoleIntensity(ValueError):
    """No Cartesian pair carries weight: the dipole states or every q vanish."""


def largest_remainder(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer apportionment of ``total`` by weight, conserving the sum exactly."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be nonnegative with a positive sum")
    shares = total * weights / weights.sum()
    base = np.floor(shares).astype(int)
    remainder = int(round(total - base.sum()))
    # Ties resolve toward the earlier entry, keeping decreasing shares monotone.
    order = np.argsort(-(shares - base), kind="stable")
    base[order[:remainder]] += 1
    return base


def pair_weights(moments: np.ndarray, q_set: list[QVector] | None = None,
                 scale: float = 1.0) -> np.ndarray:
    """max_q |q_a q_b| (2 - delta_ab) |<mu_a mu_b>| over ``PAIR_KEYS``; raises
    ValueError if ``scale`` times their sum overflows (q too large)."""
    moments = np.asarray(moments, dtype=float)
    if moments.shape != (3, 3):
        raise ValueError("moments must be a 3x3 matrix over xyz")
    qs = list(q_set) if q_set else [QVector(1.0, 1.0, 1.0)]
    weights = []
    for key in PAIR_KEYS:
        ia, ib = AXES.index(key[0]), AXES.index(key[1])
        qq = max(abs(q.component(key[0]) * q.component(key[1])) for q in qs)
        factor = 1.0 if key[0] == key[1] else 2.0
        weights.append(qq * factor * abs(moments[ia, ib]))
    weights = np.array(weights)
    if not math.isfinite(scale * float(weights.sum())):
        raise ValueError("pair weights overflow: the momentum transfers are too large")
    return weights


def plan_run(eta: float, delta_window: float, epsilon_trunc: float,
             total_shots: int, moments: np.ndarray,
             q_set: list[QVector] | None = None, k: int = 4) -> RunPlan:
    """Choose tau, the series depth, and variance-minimizing pair budgets.

    tau = pi / delta_window ties the sampling rate to the spectral window;
    the series is truncated at the nearest integer to
    ln(1/epsilon_trunc)/(eta*tau).  Budgets are proportional to
    max_q |q_a q_b| (2 - delta_ab) |<mu_a mu_b>|, which minimizes the total
    variance of the assembled structure factor over the target q set.
    """
    if delta_window <= 0 or eta <= 0:
        raise ValueError("eta and the spectral window must be positive")
    if not 0 < epsilon_trunc < 1:
        raise ValueError("epsilon_trunc must lie in (0, 1)")
    if total_shots < 6:
        raise ValueError("need at least one shot per Cartesian pair")
    tau = math.pi / delta_window
    n_max = max(1, round(math.log(1.0 / epsilon_trunc) / (eta * tau)))
    weights = pair_weights(moments, q_set, scale=total_shots)
    if weights.sum() == 0.0:
        raise NoDipoleIntensity("no dipole intensity")
    budgets = largest_remainder(total_shots, weights)
    return RunPlan(tau=tau, eta=eta, n_max=n_max, k=k, total_shots=total_shots,
                   budgets=dict(zip(PAIR_KEYS, (int(b) for b in budgets))),
                   epsilon_trunc=epsilon_trunc)


def allocate_shots(n_pair: int, eta: float, tau: float, n_max: int) -> np.ndarray:
    """Optimal exponential shot schedule over n = 1..n_max, summing exactly."""
    if n_pair < 0:
        raise ValueError("negative budget")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_pair == 0:
        return np.zeros(n_max, dtype=int)
    decay = eta * tau
    weights = np.exp(-decay * np.arange(1, n_max + 1))
    return largest_remainder(n_pair, weights)


# ---------------------------------------------------------------------------
# Dipole-rotated state preparation (classical side of the LCU inputs)
# ---------------------------------------------------------------------------

@dataclass
class DipoleStates:
    """Normalized dipole-rotated states plus their norms and static moments."""

    norms: dict[str, float]
    vectors: dict[str, np.ndarray | None]
    moments: np.ndarray  # (3, 3), <psi0| mu_a mu_b |psi0> on the prepared states
    basis: np.ndarray    # sorted words of the ground state's (N_alpha, N_beta) sector

    def norm_product(self, pair: str) -> float:
        return self.norms[pair[0]] * self.norms[pair[1]]

    def moment0(self, pair: str) -> float:
        return float(self.moments[AXES.index(pair[0]), AXES.index(pair[1])])


def prepare_dipole_states(ground: CIVector, dipole: DipoleOperator,
                          core_orbitals=None) -> DipoleStates:
    """Apply each dipole component to the ground state and normalize.

    With ``core_orbitals`` given, states are projected onto single-core-hole
    determinants first (core-valence separation); moments are taken on the
    projected vectors so the n = 0 limit of the measured series matches.
    Channels annihilated by the dipole (or the projection) get zero norm and
    contribute an identically zero intensity.  A sector over
    ``emulator.STEP_CAP`` states raises ``StepTooLarge`` before any is built.
    """
    check_step_size(ci_mod.sector_dimension(ground.n_orbitals, ground.n_alpha, ground.n_beta))
    raw: dict[str, CIVector | None] = {}
    for axis in AXES:
        try:
            w = ci_mod.apply_one_body(dipole.component(axis), ground)
            if core_orbitals is not None:
                w = cvs_project(w, core_orbitals)
        except AnnihilatedError:
            w = None
        raw[axis] = w
    moments = np.zeros((3, 3))
    for i, a in enumerate(AXES):
        for j, b in enumerate(AXES):
            if raw[a] is not None and raw[b] is not None:
                moments[i, j] = float(np.real(ci_mod.overlap(raw[a], raw[b])))
    norms, vectors = {}, {}
    for axis in AXES:
        if raw[axis] is None:
            norms[axis], vectors[axis] = 0.0, None
            continue
        unit, norm = normalize(raw[axis])
        norms[axis] = norm
        vectors[axis] = ci_to_statevector(unit)
    basis = ci_mod.sector_words(ground.n_orbitals, ground.n_alpha, ground.n_beta)
    return DipoleStates(norms=norms, vectors=vectors, moments=moments, basis=basis)


# ---------------------------------------------------------------------------
# Series measurement
# ---------------------------------------------------------------------------

def split_shots(shots_n: int | np.ndarray) -> tuple:
    """Even split between the Real and Imag tests; odd remainder goes to Real."""
    n_im = shots_n // 2
    return shots_n - n_im, n_im


def _sample_biases(pair: str, which: str, biases: np.ndarray, shots: np.ndarray,
                   master_seed: int) -> np.ndarray:
    """Shot estimates of the Re or Im biases for n = 1..len(shots).

    One generator per (seed, pair, Re/Im) draws every test's binomial at once;
    test n gets its half of ``shots[n - 1]`` (see ``split_shots``) and a test
    allotted no shots records 0.
    """
    if np.max(np.abs(biases), initial=0.0) > 1 + 1e-9:
        raise ValueError("bias outside [-1, 1]")
    half = 0 if which == REAL else 1
    counts = split_shots(np.asarray(shots))[half]
    rng = np.random.default_rng([int(master_seed), PAIR_KEYS.index(pair), half])
    successes = rng.binomial(counts, np.clip((1.0 + biases) / 2.0, 0.0, 1.0))
    return np.where(counts > 0, 2.0 * successes / np.maximum(counts, 1) - 1.0, 0.0)


def _zero_series(pair: str, plan: RunPlan, shots: np.ndarray,
                 exact: bool) -> GreensSeries:
    zeros = np.zeros(plan.n_max)
    return GreensSeries(pair=pair, tau=plan.tau, eta=plan.eta, n_max=plan.n_max,
                        norm_product=0.0, moment0=0.0, x=zeros, y=zeros.copy(),
                        shots=shots, exact=exact)


def measure_series(pair: str, plan: RunPlan, states: DipoleStates,
                   program: TrotterProgram, mode: str = "sampled",
                   master_seed: int = 0) -> GreensSeries:
    """Run the Hadamard-test schedule for one Cartesian pair.

    In exact mode sampling is bypassed and the recorded values are the exact
    circuit biases (shot counts are still recorded so the same series can be
    resampled later).  The evolution runs on the d amplitudes of the ground
    state's sector: one outer Trotter step is compiled into a d x d matrix
    (``emulator.program_unitary``) and advanced by matrix-vector products.
    """
    if mode not in ("sampled", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if pair not in PAIR_KEYS:
        raise ValueError(f"unknown pair {pair!r}")
    shots = allocate_shots(plan.budgets[pair], plan.eta, plan.tau, plan.n_max)
    norm_product = states.norm_product(pair)
    if norm_product == 0.0:
        return _zero_series(pair, plan, shots, exact=(mode == "exact"))
    bra = states.vectors[pair[1]][states.basis]
    step = program_unitary(program, states.basis)
    amplitudes = np.zeros(plan.n_max, dtype=complex)
    current = states.vectors[pair[0]][states.basis]
    for n in range(plan.n_max):
        current = step @ current
        amplitudes[n] = np.vdot(bra, current)
    re = np.clip(amplitudes.real, -1.0, 1.0)
    im = np.clip(amplitudes.imag, -1.0, 1.0)
    if mode == "sampled":
        re = _sample_biases(pair, REAL, re, shots, master_seed)
        im = _sample_biases(pair, IMAG, im, shots, master_seed)
    return GreensSeries(pair=pair, tau=plan.tau, eta=plan.eta, n_max=plan.n_max,
                        norm_product=norm_product, moment0=states.moment0(pair),
                        x=norm_product * re, y=norm_product * im, shots=shots,
                        exact=(mode == "exact"))


def resample_series(series: GreensSeries, master_seed: int) -> GreensSeries:
    """Draw a fresh sampled series from an exact one (reuses stored values)."""
    if not series.exact:
        raise ValueError("resampling requires an exact-mode series")
    if series.norm_product == 0.0:
        return dataclasses.replace(series, exact=False)
    re = _sample_biases(series.pair, REAL, series.x / series.norm_product,
                        series.shots, master_seed)
    im = _sample_biases(series.pair, IMAG, series.y / series.norm_product,
                        series.shots, master_seed)
    return dataclasses.replace(series, x=series.norm_product * re,
                               y=series.norm_product * im, exact=False)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def default_omega_grid(tau: float, eta: float) -> np.ndarray:
    """Grid step eta/5 over [0, pi/tau): >= 5 points per half-width."""
    return np.arange(0.0, math.pi / tau, eta / 5.0)


def reconstruct_intensity(series: GreensSeries, omega_grid: np.ndarray,
                          eta: float | None = None) -> Spectrum:
    """Damped Fourier reconstruction of one pair's intensity contribution.

    The grid must be uniform: its values are evaluated at w_j = w_0 + j*Delta,
    Delta = (w_last - w_0)/(M - 1), and a grid that strays from that line by
    more than 1e-12 of its largest magnitude raises ValueError.  One- and
    two-point grids are uniform (Delta = 0 for one point).  The returned
    Spectrum keeps the caller's omega.

    With c_n = (X_n + i Y_n) exp(-n eta tau) and theta = tau*Delta, the sum
    F_j = sum_n c_n exp(i n tau w_j) is a chirp-z transform (Rabiner, Schafer
    and Rader 1969): nj = (n^2 + j^2 - (j - n)^2)/2 turns it into one FFT
    convolution of length >= n_max + M, so the workspace is O(n_max + M).
    The values are tau/2pi * (m0 + 2 Re F_j).
    """
    eta = series.eta if eta is None else float(eta)
    omega = np.asarray(omega_grid, dtype=float)
    m = len(omega)
    if m == 0:
        raise ValueError("omega grid is empty")
    delta = (omega[-1] - omega[0]) / (m - 1) if m > 1 else 0.0
    j = np.arange(m, dtype=np.int64)
    if m > 2 and not np.all(np.abs(omega - (omega[0] + j * delta))
                            <= 1e-12 * np.max(np.abs(omega))):
        raise ValueError("reconstruction needs a uniform omega grid")
    tau, n_max = series.tau, series.n_max
    half_theta = 0.5 * tau * delta
    n = np.arange(n_max + 1, dtype=np.int64)
    coeffs = np.zeros(n_max + 1, dtype=complex)
    coeffs[1:] = (series.x + 1j * series.y) * np.exp(-series.n * eta * tau)
    coeffs *= np.exp(1j * (n * tau * omega[0] + half_theta * (n * n)))
    size = 1 << (n_max + m - 1).bit_length()
    t = np.arange(size, dtype=np.int64)
    t = np.where(t < m, t, t - size)   # j - n runs over -n_max..m-1
    kernel = np.exp(-1j * half_theta * (t * t))
    conv = np.fft.ifft(np.fft.fft(coeffs, size) * np.fft.fft(kernel))[:m]
    total = conv * np.exp(1j * half_theta * (j * j))
    values = tau / (2.0 * math.pi) * (series.moment0 + 2.0 * total.real)
    return Spectrum(omega, values, eta, kind="intensity", label=series.pair)


def assemble_dsf(q: QVector, contributions: dict[str, Spectrum],
                 omega_grid: np.ndarray | None = None) -> Spectrum:
    """S(q, w) = sum_{a >= b} q_a q_b (2 - delta_ab) * contribution_ab(w).

    Stored pair contributions are reused for every q, so evaluating new
    momentum transfers costs no further measurements.
    """
    missing = [key for key in PAIR_KEYS if key not in contributions]
    if missing:
        raise ValueError(f"missing pair contributions: {missing}")
    grids = [contributions[key].omega for key in PAIR_KEYS]
    for other in grids[1:]:
        if other.shape != grids[0].shape or not np.array_equal(other, grids[0]):
            raise ValueError("pair contributions use different grids")
    omega = grids[0] if omega_grid is None else np.asarray(omega_grid, dtype=float)
    if not np.array_equal(omega, grids[0]):
        raise ValueError("requested grid does not match the stored contributions")
    values = np.zeros_like(omega)
    for key in PAIR_KEYS:
        qq = q.component(key[0]) * q.component(key[1])
        factor = 1.0 if key[0] == key[1] else 2.0
        values = values + qq * factor * contributions[key].values
    eta = contributions["xx"].eta
    return Spectrum(omega, values, eta, kind="dsf",
                    label=f"q=({q.qx},{q.qy},{q.qz})")


def isotropic_dsf(q_norm: float, contributions: dict[str, Spectrum]) -> Spectrum:
    """Orientation-averaged structure factor: (|q|^2/3) * sum_a I_aa.

    The proportionality constant is taken as 1 by convention.
    """
    missing = [key for key in DIAGONAL_KEYS if key not in contributions]
    if missing:
        raise ValueError(f"missing diagonal contributions: {missing}")
    omega = contributions["xx"].omega
    values = np.zeros_like(omega)
    for key in DIAGONAL_KEYS:
        if not np.array_equal(contributions[key].omega, omega):
            raise ValueError("diagonal contributions use different grids")
        values = values + contributions[key].values
    values *= q_norm**2 / 3.0
    return Spectrum(omega, values, contributions["xx"].eta, kind="isotropic",
                    label=f"|q|={q_norm}")


def cross_section(spectrum: Spectrum, ki_norm: float, kf_norm: float,
                  q_norm: float) -> Spectrum:
    """Double-differential cross section (4/|q|^4)(|k_F|/|k_I|) S(q, w)."""
    if q_norm == 0.0:
        raise ValueError("elastic divergence: |q| must be nonzero")
    scale = 4.0 / q_norm**4 * (kf_norm / ki_norm)
    return Spectrum(spectrum.omega, scale * spectrum.values, spectrum.eta,
                    kind="cross_section", label=spectrum.label)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def series_to_json(series: GreensSeries) -> str:
    entries = [[int(n), float(x), float(y), int(s)]
               for n, x, y, s in zip(series.n, series.x, series.y, series.shots)]
    return json.dumps({
        "pair": series.pair,
        "tau": series.tau,
        "eta": series.eta,
        "n_max": series.n_max,
        "norm_product": series.norm_product,
        "moment0": series.moment0,
        "exact": series.exact,
        "entries": entries,
    }, sort_keys=True)


def series_from_json(text: str) -> GreensSeries:
    doc = json.loads(text)
    entries = doc["entries"]
    if [row[0] for row in entries] != list(range(1, doc["n_max"] + 1)):
        raise ValueError("series entries must cover n = 1..n_max in order")
    return GreensSeries(pair=doc["pair"], tau=doc["tau"], eta=doc["eta"],
                        n_max=doc["n_max"], norm_product=doc["norm_product"],
                        moment0=doc["moment0"],
                        x=np.array([row[1] for row in entries]),
                        y=np.array([row[2] for row in entries]),
                        shots=np.array([row[3] for row in entries]),
                        exact=bool(doc.get("exact", False)))


def spectrum_to_csv(spectrum: Spectrum) -> str:
    lines = ["omega_hartree,omega_ev,value"]
    for w, v in zip(spectrum.omega, spectrum.values):
        lines.append(f"{float(w)!r},{float(w) * HARTREE_TO_EV!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def spectrum_from_csv(text: str, eta: float = 0.0, kind: str = "intensity",
                      label: str = "") -> Spectrum:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "omega_hartree,omega_ev,value":
        raise ValueError("unrecognized spectrum CSV header")
    omega, values = [], []
    for ln in lines[1:]:
        w, _, v = ln.split(",")
        omega.append(float(w))
        values.append(float(v))
    return Spectrum(np.array(omega), np.array(values), eta, kind=kind, label=label)
