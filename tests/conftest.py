from dataclasses import dataclass

import pytest

from dsfsim import fixtures


def pytest_runtest_logreport(report):
    # One visible line per acceptance criterion, regardless of capture.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {name}: {outcome}", flush=True)


@dataclass(frozen=True)
class ToySetup(fixtures.SolvedModel):
    """Core-valence toy solved once and shared across the suite."""

    eta: float = 0.06

    def plan(self, **kwargs):
        return super().plan(self.eta, **kwargs)

    def bright_lines(self, threshold=1e-4):
        proj = sum(self.trans.component(a) for a in "xyz")
        weights = proj**2
        excit = self.eig.energies - self.eig.ground_energy
        mask = weights > threshold * weights.max()
        return excit[mask], weights[mask]


@pytest.fixture(scope="session")
def toy():
    return ToySetup(**vars(fixtures.solve(fixtures.CORE_VALENCE_SPEC)))


@pytest.fixture(scope="session")
def two_orb():
    return fixtures.solve(fixtures.TWO_ORBITAL_SPEC)
