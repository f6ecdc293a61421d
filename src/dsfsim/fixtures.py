"""Deterministic model systems for tests and demos.

Three kinds are provided: fully random interacting Hamiltonians, a
one-body-only diagonal model, and a core-valence toy with one deep orbital
whose dipole couples exclusively to the valence shell (a stand-in for a
1s -> 2p excitation channel).  Output is a pure function of the spec, so a
given seed always reproduces byte-identical interchange files.

``solve`` runs the classical front half of the measurement chain on a spec
(exact ground state, dipole-rotated states, spectral window, shifted
Hamiltonian) for the tests, ``dsfsim validate`` and the study scripts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import emulator, oracle
from . import spectrum as sp
from .ci import CIVector
from .operators import (DipoleOperator, Hamiltonian, QVector, dump_dipole_json,
                        jordan_wigner, write_fcidump)
from .pauli import PauliSum

RANDOM_TWO_BODY = "random_two_body"
CORE_VALENCE_TOY = "core_valence_toy"
DIAGONAL_ONLY = "diagonal_only"

KINDS = (RANDOM_TWO_BODY, CORE_VALENCE_TOY, DIAGONAL_ONLY)

MAX_BUNDLED_ORBITALS = 8


@dataclass(frozen=True)
class ModelSpec:
    n_orbitals: int
    n_electrons: int
    seed: int
    kind: str = RANDOM_TWO_BODY
    core_gap: float = 20.0  # Hartree; core_valence_toy only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 1 <= self.n_orbitals <= MAX_BUNDLED_ORBITALS:
            raise ValueError("bundled fixtures stay within 8 orbitals")
        if not 0 < self.n_electrons <= 2 * self.n_orbitals:
            raise ValueError("electron count out of range")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.kind == CORE_VALENCE_TOY:
            if not (math.isfinite(self.core_gap) and self.core_gap > 0):
                raise ValueError("core gap must be a finite positive number")
            if self.n_orbitals < 2:
                raise ValueError("core-valence toy needs a valence shell")

    @property
    def sector(self) -> tuple[int, int]:
        """(n_alpha, n_beta) with S_z = 0 or 1/2."""
        n_beta = self.n_electrons // 2
        return self.n_electrons - n_beta, n_beta


def _symmetrize_two_body(g: np.ndarray) -> np.ndarray:
    """Bitwise-exact 8-fold symmetrization: every orbit copies one value."""
    n = g.shape[0]
    out = np.zeros_like(g)
    for p in range(n):
        for q in range(p + 1):
            pq = p * (p + 1) // 2 + q
            for r in range(p + 1):
                for s in range(r + 1):
                    if r * (r + 1) // 2 + s > pq:
                        continue
                    orbit = {(p, q, r, s), (q, p, r, s), (p, q, s, r),
                             (q, p, s, r), (r, s, p, q), (r, s, q, p),
                             (s, r, p, q), (s, r, q, p)}
                    value = sum(g[idx] for idx in sorted(orbit)) / len(orbit)
                    for idx in orbit:
                        out[idx] = value
    return out


def _random_symmetric(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    m = rng.normal(0.0, scale, size=(n, n))
    return (m + m.T) / 2.0


def _random_two_body(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    return _symmetrize_two_body(rng.normal(0.0, scale, size=(n, n, n, n)))


def generate(spec: ModelSpec) -> tuple[Hamiltonian, DipoleOperator]:
    rng = np.random.default_rng(spec.seed)
    n = spec.n_orbitals
    if spec.kind == RANDOM_TWO_BODY:
        one = _random_symmetric(rng, n, 0.4)
        # keep ||H|| at O(1) Ha so tau = pi/window stays comfortable
        two = _random_two_body(rng, n, 0.15 / max(1, n - 1))
        offset = float(rng.normal(0.0, 0.2))
        h = Hamiltonian(offset, one, two)
        dip = DipoleOperator(*(_random_symmetric(rng, n, 0.7) for _ in range(3)))
        return h, dip
    if spec.kind == DIAGONAL_ONLY:
        levels = np.sort(rng.uniform(-1.0, 1.5, size=n))
        h = Hamiltonian(0.0, np.diag(levels), np.zeros((n, n, n, n)))
        dip = DipoleOperator(*(_random_symmetric(rng, n, 0.6) for _ in range(3)))
        return h, dip
    return _core_valence_toy(rng, spec)


def _core_valence_toy(rng: np.random.Generator, spec: ModelSpec):
    """One deep core orbital, a valence shell, and core->valence dipoles only.

    The two-body interaction lives in the valence block (plus core on-site
    repulsion); only a 0.005 Ha one-body hopping couples core and valence, so
    core-valence separation holds to ~(0.005/gap)^2 and all dipole brightness
    sits in the core-excitation window.
    """
    n = spec.n_orbitals
    one = np.zeros((n, n))
    one[0, 0] = -spec.core_gap
    base_levels = np.linspace(0.0, 1.0, n - 1) if n > 2 else np.array([0.0])
    jitter = rng.uniform(-0.05, 0.05, size=n - 1)
    one[np.arange(1, n), np.arange(1, n)] = base_levels + jitter
    for v in range(1, n):
        for w in range(v + 1, n):
            hop = 0.10 + rng.uniform(-0.03, 0.03)
            one[v, w] = one[w, v] = hop
        one[0, v] = one[v, 0] = 0.005
    two = np.zeros((n, n, n, n))
    two[1:, 1:, 1:, 1:] = _random_two_body(rng, n - 1, 0.02)
    # on-site repulsion keeps the valence spectrum structured
    for p in range(n):
        two[p, p, p, p] += 0.8 if p == 0 else 0.4
    h = Hamiltonian(0.0, one, two)
    comps = []
    couplings = rng.uniform(0.6, 0.95, size=3)
    cross = rng.uniform(0.2, 0.4, size=3)
    for axis in range(3):
        m = np.zeros((n, n))
        main = 1 + axis % (n - 1)
        other = 1 + (axis + 1) % (n - 1)
        m[0, main] = m[main, 0] = couplings[axis]
        m[0, other] = m[other, 0] = cross[axis]
        comps.append(m)
    return h, DipoleOperator(*comps)


# Bundled fixtures: fixed seeds, referenced across the test suite.
TWO_ORBITAL_SPEC = ModelSpec(n_orbitals=2, n_electrons=2, seed=7,
                             kind=RANDOM_TWO_BODY)
THREE_ORBITAL_SPEC = ModelSpec(n_orbitals=3, n_electrons=2, seed=11,
                               kind=RANDOM_TWO_BODY)
CORE_VALENCE_SPEC = ModelSpec(n_orbitals=4, n_electrons=4, seed=21,
                              kind=CORE_VALENCE_TOY, core_gap=20.0)
DIAGONAL_SPEC = ModelSpec(n_orbitals=3, n_electrons=2, seed=5,
                          kind=DIAGONAL_ONLY)


@dataclass(frozen=True)
class SolvedModel:
    """A model solved in its sector, with what the measurement chain needs."""

    spec: ModelSpec
    h: Hamiltonian
    dipole: DipoleOperator
    eig: oracle.EigenSystem
    trans: oracle.TransitionTable
    psi0: CIVector
    states: sp.DipoleStates
    delta: float        # spectral window, Hartree
    shifted: PauliSum   # JW(H) - E0

    def program(self, k: int = 4) -> emulator.TrotterProgram:
        return emulator.build_trotter(self.shifted, math.pi / self.delta, k)

    def plan(self, eta: float, epsilon_trunc: float = math.exp(-5.0),
             shots: int = 10000, k: int = 4,
             q_set: list[QVector] | None = None) -> sp.RunPlan:
        return sp.plan_run(eta, self.delta, epsilon_trunc, shots,
                           self.states.moments, q_set, k=k)


def solve(spec: ModelSpec) -> SolvedModel:
    h, dipole = generate(spec)
    eig = oracle.solve_sector(h, *spec.sector)
    trans = oracle.transition_table(eig, dipole)
    psi0 = eig.eigenvector(0)
    states = sp.prepare_dipole_states(psi0, dipole)
    # window over the dipole-bright states only; dark levels cannot alias
    delta = 1.05 * float(np.max(oracle.bright_excitations(eig, trans)))
    shifted = jordan_wigner(h).shifted_identity(-eig.ground_energy)
    return SolvedModel(spec, h, dipole, eig, trans, psi0, states, delta, shifted)


def write_fixture(spec: ModelSpec, outdir) -> dict[str, str]:
    """Write FCIDUMP + dipole JSON (+ the spec itself) into a directory."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    h, dip = generate(spec)
    n_alpha, n_beta = spec.sector
    paths = {
        "hamiltonian": outdir / "hamiltonian.fcidump",
        "dipoles": outdir / "dipoles.json",
        "modelspec": outdir / "modelspec.json",
    }
    paths["hamiltonian"].write_text(
        write_fcidump(h, n_electrons=spec.n_electrons, ms2=n_alpha - n_beta))
    paths["dipoles"].write_text(dump_dipole_json(dip) + "\n")
    import json
    paths["modelspec"].write_text(json.dumps({
        "n_orbitals": spec.n_orbitals, "n_electrons": spec.n_electrons,
        "seed": spec.seed, "kind": spec.kind, "core_gap": spec.core_gap,
    }, sort_keys=True) + "\n")
    return {k: str(v) for k, v in paths.items()}
