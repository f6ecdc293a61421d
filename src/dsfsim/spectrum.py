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
import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ci as ci_mod, floatrepr
from .ci import CIVector, is_number, number_array
from .emulator import IMAG, REAL, TrotterProgram, program_unitary, sector_apply
from .operators import DipoleOperator, QVector, one_body_to_pauli

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
        if not (np.all(np.isfinite(self.omega)) and np.all(np.isfinite(self.values))):
            raise ValueError("spectrum grid and values must be finite")
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
            raise ValueError(f"unknown pair '{self.pair}'")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be a positive number")
        if not all(math.isfinite(v) and v >= 0 for v in (self.eta, self.norm_product)):
            raise ValueError("eta and the norm product must be finite and nonnegative")
        if self.n_max < 1 or len(self.x) != self.n_max or len(self.y) != self.n_max \
                or len(self.shots) != self.n_max:
            raise ValueError("series length must equal n_max >= 1")
        bound = self.norm_product * (1.0 + 1e-9)  # each |bias| within 1 + 1e-9
        if not (np.all(np.abs(self.x) <= bound) and np.all(np.abs(self.y) <= bound)):
            raise ValueError("|X_n|, |Y_n| must not exceed the norm product")  # nor be NaN
        if not math.isfinite(self.moment0):
            raise ValueError("moment0 must be finite")
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
    k: int
    budgets: dict[str, int]
    epsilon_trunc: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.tau, self.eta)) or self.k < 1:
            raise ValueError("tau, eta must be finite and positive and k >= 1")
        if not 0 < self.epsilon_trunc < 1:
            raise ValueError("epsilon_trunc must lie in (0, 1)")
        if set(self.budgets) != set(PAIR_KEYS):
            raise ValueError("budgets must cover exactly the six Cartesian pairs")

    @property
    def n_max(self) -> int:
        """Series depth: the nearest integer to ln(1/epsilon_trunc)/(eta*tau), at least 1."""
        return max(1, round(math.log(1.0 / self.epsilon_trunc) / (self.eta * self.tau)))


class NoDipoleIntensity(ValueError):
    """No Cartesian pair carries weight: the dipole states or every q vanish."""


def largest_remainder(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer apportionment of ``total`` <= 2**53 by weight, conserving the sum exactly."""
    if total > 2**53:  # float shares would lose whole units
        raise ValueError(f"total {total} exceeds 2**53, beyond exact apportionment")
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


def pair_factor(q: QVector, pair: str) -> float:
    """q_a q_b (2 - delta_ab): the weight of pair ab in S(q, w)."""
    return q.component(pair[0]) * q.component(pair[1]) * (1.0 if pair[0] == pair[1] else 2.0)


def pair_weights(moments: np.ndarray, q_set: list[QVector],
                 scale: float = 1.0) -> np.ndarray:
    """max_q |``pair_factor``| |<mu_a mu_b>| over ``PAIR_KEYS``; raises
    ValueError for an empty ``q_set`` or if ``scale`` times their sum
    overflows (q too large), and ``NoDipoleIntensity`` if every weight is zero."""
    moments = np.asarray(moments, dtype=float)
    if moments.shape != (3, 3):
        raise ValueError("moments must be a 3x3 matrix over xyz")
    if not q_set:
        raise ValueError("the q set is empty")
    weights = []
    for key in PAIR_KEYS:
        ia, ib = AXES.index(key[0]), AXES.index(key[1])
        qq = max(abs(pair_factor(q, key)) for q in q_set)
        weights.append(qq * abs(moments[ia, ib]))
    weights = np.array(weights)
    if not math.isfinite(scale * float(weights.sum())):
        raise ValueError("pair weights overflow: the momentum transfers are too large")
    if weights.sum() == 0.0:
        raise NoDipoleIntensity("no dipole intensity")
    return weights


def window_tau(delta_window: float) -> float:
    """The time step tau = pi / delta_window, which ties the sampling rate to the
    spectral window."""
    return math.pi / delta_window


def plan_run(eta: float, delta_window: float, epsilon_trunc: float,
             total_shots: int, moments: np.ndarray, q_set: list[QVector],
             k: int) -> RunPlan:
    """Choose tau and variance-minimizing pair budgets; the depth is ``RunPlan.n_max``.

    tau is ``window_tau(delta_window)``.  Budgets are proportional to
    ``pair_weights``, which minimizes the total variance of the assembled
    structure factor over the target q set.
    """
    if delta_window <= 0 or eta <= 0:
        raise ValueError("eta and the spectral window must be positive")
    if total_shots < 6:
        raise ValueError("need at least one shot per Cartesian pair")
    budgets = largest_remainder(total_shots, pair_weights(moments, q_set, scale=total_shots))
    return RunPlan(tau=window_tau(delta_window), eta=eta, k=k,
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
    """Unit dipole-rotated states on the ground state's sector, plus norms and moments."""

    norms: dict[str, float]
    kets: np.ndarray     # (d, 3): column a is the unit mu_a |psi0> on ``basis``, 0 if dark
    moments: np.ndarray  # (3, 3), <psi0| mu_a mu_b |psi0> on the prepared states
    basis: np.ndarray    # sorted words of the ground state's (N_alpha, N_beta) sector
    n_orbitals: int

    def norm_product(self, pair: str) -> float:
        return self.norms[pair[0]] * self.norms[pair[1]]

    def pair_moment(self, pair: str) -> float:
        return float(self.moments[AXES.index(pair[0]), AXES.index(pair[1])])

    @property
    def vectors(self) -> dict[str, np.ndarray | None]:
        """Each unit state on all 2^(2n) register amplitudes (None if dark), for
        register-level references only; ``ci.STATEVECTOR_QUBIT_CAP`` bounds it."""
        block = ci_mod.register_state(self.n_orbitals, self.basis, self.kets)
        return {axis: block[:, i] if self.norms[axis] else None
                for i, axis in enumerate(AXES)}


def prepare_dipole_states(ground: CIVector, dipole: DipoleOperator,
                          core_orbitals=None) -> DipoleStates:
    """Apply each dipole component to the ground state on its sector and normalize.

    Column a of the (d, 3) block is the qubit operator of mu_a applied to
    psi0 by ``emulator.sector_apply``.  Core-valence separation zeroes the rows
    ``ci.cvs_mask`` drops for ``core_orbitals`` (None or empty drops none), as
    ``oracle.transition_table`` does; moments are taken on the projected columns
    so the n = 0 limit of the measured series matches.  A column the dipole
    (or the projection) annihilates gets zero norm and contributes an
    identically zero intensity.  The ground state's basis was held to
    ``ci.DENSE_CAP`` when it was solved or read.
    """
    n, basis = ground.n_orbitals, ground.basis
    raw = np.column_stack([sector_apply(one_body_to_pauli(dipole.component(axis)), basis,
                                        ground.amplitudes) for axis in AXES])
    raw[~ci_mod.cvs_mask(basis, core_orbitals or (), n)] = 0.0
    norms = np.linalg.norm(raw, axis=0)
    moments = (raw.conj().T @ raw).real
    if not np.all(np.isfinite(moments)):
        raise ci_mod.NonFiniteValue("the dipole moments overflow the float range")
    return DipoleStates(norms=dict(zip(AXES, map(float, norms))),
                        kets=raw / np.where(norms > 0.0, norms, 1.0),
                        moments=moments, basis=basis, n_orbitals=n)


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
    allotted no shots records 0.  ``GreensSeries`` holds each |bias| within
    1 + 1e-9; the success probability is clipped to [0, 1].
    """
    half = 0 if which == REAL else 1
    counts = split_shots(np.asarray(shots))[half]
    rng = np.random.default_rng([int(master_seed), PAIR_KEYS.index(pair), half])
    successes = rng.binomial(counts, np.clip((1.0 + biases) / 2.0, 0.0, 1.0))
    return np.where(counts > 0, 2.0 * successes / np.maximum(counts, 1) - 1.0, 0.0)


def dipole_overlaps(states: DipoleStates, program: TrotterProgram, n_max: int) -> np.ndarray:
    """(n_max, 3, 3) overlaps [n - 1, b, a] = <b|U^n|a> of the unit dipole states.

    One outer Trotter step is compiled into a d x d matrix once
    (``emulator.program_unitary``); each step advances the d x 3 block by
    one matrix product and takes the nine overlaps with one more.
    """
    step = program_unitary(program, states.basis)
    bras, current = states.kets.conj().T, states.kets
    out = np.empty((n_max, len(AXES), len(AXES)), dtype=complex)
    for n in range(n_max):
        current = step @ current
        out[n] = bras @ current
    return out


def measure_all(plan: RunPlan, states: DipoleStates, program: TrotterProgram,
                mode: str, master_seed: int = 0) -> dict[str, GreensSeries]:
    """Run the Hadamard-test schedule for all six Cartesian pairs.

    The evolution runs on the d amplitudes of the ground state's sector
    (``dipole_overlaps``); pair ab reads <b|U^n|a>, and a pair with a
    zero-norm state records +0.0 (a dark column's products may be -0.0).  In exact mode sampling is bypassed and
    the recorded values are the exact circuit biases (shot counts are still
    recorded so the same series can be resampled later); sampled mode draws
    them with ``resample_series``.
    """
    if mode not in ("sampled", "exact"):
        raise ValueError(f"unknown mode '{mode}'")
    overlaps = dipole_overlaps(states, program, plan.n_max)
    series = {}
    for pair in PAIR_KEYS:
        norm_product = states.norm_product(pair)
        biases = (overlaps[:, AXES.index(pair[1]), AXES.index(pair[0])] if norm_product
                  else np.zeros(plan.n_max, dtype=complex))
        exact = GreensSeries(
            pair=pair, tau=plan.tau, eta=plan.eta, n_max=plan.n_max,
            norm_product=norm_product, moment0=states.pair_moment(pair),
            x=norm_product * np.clip(biases.real, -1.0, 1.0),
            y=norm_product * np.clip(biases.imag, -1.0, 1.0),
            shots=allocate_shots(plan.budgets[pair], plan.eta, plan.tau, plan.n_max),
            exact=True)
        series[pair] = exact if mode == "exact" else resample_series(exact, master_seed)
    return series


def measure_series(pair: str, plan: RunPlan, states: DipoleStates,
                   program: TrotterProgram, mode: str,
                   master_seed: int = 0) -> GreensSeries:
    """One pair of ``measure_all``; kept for callers that measure pair by pair."""
    if pair not in PAIR_KEYS:
        raise ValueError(f"unknown pair '{pair}'")
    return measure_all(plan, states, program, mode, master_seed)[pair]


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

def omega_grid_size(tau: float, eta: float) -> int:
    """Points of ``default_omega_grid(tau, eta)``, counted without building it."""
    return math.ceil(math.pi / tau / (eta / 5.0))


def default_omega_grid(tau: float, eta: float) -> np.ndarray:
    """Grid step eta/5 over [0, pi/tau): >= 5 points per half-width."""
    return np.arange(omega_grid_size(tau, eta)) * (eta / 5.0)


class _ChirpPlan(NamedTuple):
    """The read-only arrays of a chirp-z reconstruction that do not depend on X, Y."""

    damping: np.ndarray     # exp(-n eta tau), n = 1..n_max
    pre_chirp: np.ndarray   # exp(i (n tau w_0 + theta n^2 / 2)), n = 0..n_max
    size: int               # FFT length, a power of two >= n_max + M
    kernel_fft: np.ndarray  # FFT of exp(-i theta t^2 / 2), t = j - n
    post_chirp: np.ndarray  # exp(i theta j^2 / 2), j = 0..M-1


def _grid_step(omega: np.ndarray) -> float:
    """Delta = (w_last - w_0)/(M - 1) of a nonempty grid; 0 for one point."""
    return (omega[-1] - omega[0]) / (len(omega) - 1) if len(omega) > 1 else 0.0


@functools.lru_cache(maxsize=1)
def _chirp_plan(tau: float, eta: float, n_max: int, omega_bytes: bytes) -> _ChirpPlan:
    """The plan for a series (tau, eta, n_max) on the grid with these float64 bits.

    tau and eta key by float equality.  That is exact: ``GreensSeries`` keeps
    tau positive and finite, and an eta of 0.0 or -0.0 damps by the same 1.0.
    """
    omega = np.frombuffer(omega_bytes)
    m = len(omega)
    half_theta = 0.5 * tau * _grid_step(omega)
    n = np.arange(n_max + 1, dtype=np.int64)
    j = np.arange(m, dtype=np.int64)
    size = 1 << (n_max + m - 1).bit_length()
    t = np.arange(size, dtype=np.int64)
    t = np.where(t < m, t, t - size)   # j - n runs over -n_max..m-1
    plan = _ChirpPlan(damping=np.exp(-n[1:] * eta * tau),
                      pre_chirp=np.exp(1j * (n * tau * omega[0] + half_theta * (n * n))),
                      size=size,
                      kernel_fft=np.fft.fft(np.exp(-1j * half_theta * (t * t))),
                      post_chirp=np.exp(1j * half_theta * (j * j)))
    for array in (plan.damping, plan.pre_chirp, plan.kernel_fft, plan.post_chirp):
        array.flags.writeable = False
    return plan


def reconstruct_intensity(series: GreensSeries, omega_grid: np.ndarray) -> Spectrum:
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

    Everything but X and Y (damping, chirps, FFT length and the kernel's
    FFT) is one read-only ``_chirp_plan``, an ``lru_cache`` of one entry
    keyed by (tau, eta, n_max, ``omega.tobytes()``): a run that reconstructs
    every pair on one grid builds it once.
    """
    omega = np.asarray(omega_grid, dtype=float)
    m = len(omega)
    if m == 0:
        raise ValueError("omega grid is empty")
    j = np.arange(m, dtype=np.int64)
    if m > 2 and not np.all(np.abs(omega - (omega[0] + j * _grid_step(omega)))
                            <= 1e-12 * np.max(np.abs(omega))):
        raise ValueError("reconstruction needs a uniform omega grid")
    plan = _chirp_plan(series.tau, series.eta, series.n_max, omega.tobytes())
    coeffs = np.zeros(series.n_max + 1, dtype=complex)
    coeffs[1:] = (series.x + 1j * series.y) * plan.damping
    coeffs *= plan.pre_chirp
    conv = np.fft.ifft(np.fft.fft(coeffs, plan.size) * plan.kernel_fft)[:m]
    total = conv * plan.post_chirp
    values = series.tau / (2.0 * math.pi) * (series.moment0 + 2.0 * total.real)
    return Spectrum(omega, values, series.eta, kind="intensity", label=series.pair)


def _pair_sum(weights: dict[str, float], contributions: dict[str, Spectrum]) -> np.ndarray:
    """sum_key weights[key] * contributions[key].values, in the order of ``weights``;
    every contribution must be on the grid of the first key."""
    missing = [key for key in weights if key not in contributions]
    if missing:
        raise ValueError(f"missing pair contributions: {missing}")
    omega = contributions[next(iter(weights))].omega
    values = np.zeros_like(omega)
    for key, weight in weights.items():
        other = contributions[key].omega
        if other.shape != omega.shape or not np.array_equal(other, omega):
            raise ValueError("pair contributions use different grids")
        values = values + weight * contributions[key].values
    return values


def assemble_dsf(q: QVector, contributions: dict[str, Spectrum]) -> Spectrum:
    """S(q, w) = sum_{a >= b} ``pair_factor(q, ab)`` * contribution_ab(w).

    Stored pair contributions are reused for every q, so evaluating new
    momentum transfers costs no further measurements.
    """
    values = _pair_sum({key: pair_factor(q, key) for key in PAIR_KEYS}, contributions)
    xx = contributions["xx"]
    return Spectrum(xx.omega, values, xx.eta, kind="dsf", label=f"q=({q.qx},{q.qy},{q.qz})")


def isotropic_dsf(q_norm: float, contributions: dict[str, Spectrum]) -> Spectrum:
    """Orientation-averaged structure factor: (|q|^2/3) * sum_a I_aa.

    The proportionality constant is taken as 1 by convention.
    """
    values = _pair_sum(dict.fromkeys(DIAGONAL_KEYS, 1.0), contributions)
    values *= q_norm**2 / 3.0
    xx = contributions["xx"]
    return Spectrum(xx.omega, values, xx.eta, kind="isotropic", label=f"|q|={q_norm}")


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
    """The series as JSON with sorted keys, ``entries`` (first) holding one
    ``[n, X_n, Y_n, shots_n]`` row per step; ``json.dumps`` writes the rest."""
    rows = zip(series.n.tolist(), floatrepr.reprs(series.x), floatrepr.reprs(series.y),
               series.shots.tolist())
    entries = b", ".join(b"[%d, %s, %s, %d]" % row for row in rows).decode("ascii")
    rest = json.dumps({
        "pair": series.pair,
        "tau": series.tau,
        "eta": series.eta,
        "n_max": series.n_max,
        "norm_product": series.norm_product,
        "moment0": series.moment0,
        "exact": series.exact,
    }, sort_keys=True)
    return '{"entries": [' + entries + "], " + rest[1:]


def series_from_json(text: str) -> GreensSeries:
    """A series file; TypeError unless its numbers are JSON numbers (n_max, n, shots: ints)."""
    doc = json.loads(text)
    entries, exact, n_max = doc["entries"], doc.get("exact", False), doc["n_max"]
    if type(exact) is not bool:
        raise ValueError(f"exact must be a JSON boolean, not {json.dumps(exact)}")
    if not is_number(n_max, integer=True):
        raise TypeError(f"n_max must be a JSON integer, not {json.dumps(n_max)}")
    tau, eta, norm_product, moment0 = number_array(
        [doc["tau"], doc["eta"], doc["norm_product"], doc["moment0"]]).tolist()
    column = lambda i, integer: number_array([row[i] for row in entries], integer)
    if len(entries) != n_max or not np.array_equal(column(0, True), np.arange(1, n_max + 1)):
        raise ValueError("series entries must cover n = 1..n_max in order")
    return GreensSeries(doc["pair"], tau, eta, n_max, norm_product, moment0, column(1, False),
                        column(2, False), column(3, True), exact)


@functools.lru_cache(maxsize=1)
def _csv_template(omega_bytes: bytes) -> bytes:
    """The CSV of the grid whose float64 bits are given, with ``%s`` for each value.

    A float's repr holds no ``%``, so the grid text needs no escaping.  The
    rows are formatted ``floatrepr.BLOCK_ROWS`` at a time: the row objects of
    a whole 3,731-point grid at once raised a run's peak resident memory by
    0.5 MB.
    """
    omega, pieces = np.frombuffer(omega_bytes), [b"omega_hartree,omega_ev,value\n"]
    for start in range(0, len(omega), floatrepr.BLOCK_ROWS):
        block = omega[start:start + floatrepr.BLOCK_ROWS]
        rows = zip(floatrepr.reprs(block), floatrepr.reprs(block * HARTREE_TO_EV))
        pieces.append(b"".join(b"%s,%s,%%s\n" % row for row in rows))
    return b"".join(pieces)


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """``omega_hartree,omega_ev,value`` rows, each number written as its ``repr``.

    The grid columns come from ``_csv_template``, an ``lru_cache`` of one
    entry keyed by ``omega.tobytes()``, so the runs that write every spectrum
    on one grid format it once; grids that compare equal but print
    differently (a -0.0 point) have different bytes and never share an
    entry.  One template, filled by ``%``, holds less memory than a bytes
    object per row.
    """
    template = _csv_template(spectrum.omega.tobytes())
    return (template % tuple(floatrepr.reprs(spectrum.values))).decode("ascii")


def spectrum_from_csv(text: str) -> Spectrum:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "omega_hartree,omega_ev,value":
        raise ValueError("unrecognized spectrum CSV header")
    omega, values = [], []
    for row, ln in enumerate(lines[1:], start=1):
        if "_" in ln:  # float reads "1_0" as 10
            raise ValueError(f"row {row}: malformed number")
        w, _, v = ln.split(",")
        omega.append(float(w))
        values.append(float(v))
    return Spectrum(np.array(omega), np.array(values), 0.0)
