import numpy as np
import pytest

from dsfsim import fixtures
from dsfsim.fixtures import (CORE_VALENCE_SPEC, DIAGONAL_SPEC, ModelSpec,
                             generate, write_fixture)
from dsfsim.operators import parse_fcidump_header


def test_same_seed_byte_identical(tmp_path):
    a = write_fixture(CORE_VALENCE_SPEC, tmp_path / "a")
    b = write_fixture(CORE_VALENCE_SPEC, tmp_path / "b")
    for key in a:
        assert open(a[key], "rb").read() == open(b[key], "rb").read()


def test_different_seed_differs(tmp_path):
    spec2 = ModelSpec(n_orbitals=4, n_electrons=4, seed=24,
                      kind=fixtures.CORE_VALENCE_TOY)
    a = write_fixture(CORE_VALENCE_SPEC, tmp_path / "a")
    c = write_fixture(spec2, tmp_path / "c")
    assert open(a["hamiltonian"], "rb").read() != open(c["hamiltonian"], "rb").read()


def test_generated_models_pass_operator_invariants():
    for spec in (fixtures.TWO_ORBITAL_SPEC, fixtures.THREE_ORBITAL_SPEC,
                 CORE_VALENCE_SPEC, DIAGONAL_SPEC):
        h, dip = generate(spec)  # constructors validate symmetry + finiteness
        assert h.n_orbitals == spec.n_orbitals
        assert dip.n_orbitals == spec.n_orbitals


def test_diagonal_only_has_no_interaction():
    h, _ = generate(DIAGONAL_SPEC)
    assert np.all(h.two_body == 0.0)
    assert np.array_equal(h.one_body, np.diag(np.diag(h.one_body)))


def test_header_records_sector(tmp_path):
    paths = write_fixture(fixtures.THREE_ORBITAL_SPEC, tmp_path)
    fields = parse_fcidump_header(open(paths["hamiltonian"]).read())
    assert fields["NELEC"] == 2
    assert fields["MS2"] == 0


def test_core_valence_bright_window(toy):
    """All dipole-bright excitations sit at least core_gap - 1 above ground."""
    lines, weights = toy.bright_lines(threshold=1e-4)
    assert lines.min() >= CORE_VALENCE_SPEC.core_gap - 1.0


def test_core_valence_dark_valence_window(toy):
    """Valence-only excitations carry negligible dipole weight."""
    excit = toy.eig.energies - toy.eig.ground_energy
    proj = sum(toy.trans.component(a) for a in "xyz")
    weights = proj**2
    valence = excit < CORE_VALENCE_SPEC.core_gap / 2
    assert np.max(weights[valence], initial=0.0) < 1e-4 * weights.max()


def test_core_valence_two_dominant_bands(toy):
    lines, weights = toy.bright_lines(threshold=0.2)
    assert len(lines) == 2
    assert abs(lines[1] - lines[0]) > 6 * toy.eta


def test_custom_core_gap_moves_the_edge():
    spec = ModelSpec(n_orbitals=4, n_electrons=4, seed=23,
                     kind=fixtures.CORE_VALENCE_TOY, core_gap=35.0)
    model = fixtures.solve(spec)
    proj = sum(model.trans.component(a) for a in "xyz")
    weights = proj**2
    excit = model.eig.energies - model.eig.ground_energy
    bright = excit[weights > 1e-4 * weights.max()]
    assert bright.min() >= 34.0


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ModelSpec(n_orbitals=2, n_electrons=2, seed=0, kind="nope")
    with pytest.raises(ValueError, match="8 orbitals"):
        ModelSpec(n_orbitals=9, n_electrons=2, seed=0)
    with pytest.raises(ValueError, match="valence"):
        ModelSpec(n_orbitals=1, n_electrons=2, seed=0,
                  kind=fixtures.CORE_VALENCE_TOY)
