import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsfsim import ci, oracle
from dsfsim import spectrum as sp

BASELINES = Path(__file__).parent / "baselines"

FIXTURE_ARGS = ["gen-fixtures", "--kind", "random_two_body", "--n-orbitals", "2",
                "--n-electrons", "2", "--seed", "7"]
EXACT_ARGS = ["spectrum", "--mode", "exact", "--eta", "0.02", "--delta", "2.0",
              "--epsilon-trunc", "1e-6", "--k", "8", "--shots", "600",
              "--q", "1,1,1", "--seed", "0"]
SAMPLED_ARGS = ["spectrum", "--mode", "sampled", "--eta", "0.02", "--delta", "2.0",
                "--epsilon-trunc", "1e-6", "--k", "8", "--shots", "6000",
                "--q", "1,1,1", "--seed", "42"]
BASELINE_FILES = ["dsf_q0.csv", "intensity_xx.csv", "intensity_xy.csv",
                  "greens_xy.json", "greens_zz.json"]


def run_cli(*args, check=True, env=None):
    proc = subprocess.run([sys.executable, "-m", "dsfsim", *args],
                          capture_output=True, text=True,
                          env={**os.environ, **(env or {})})
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    run_cli(*FIXTURE_ARGS, "--out", str(out))
    return out


@pytest.fixture(scope="module")
def mismatched_dir(fixture_dir, tmp_path_factory):
    """The 2-orbital FCIDUMP next to a 3-orbital dipole file."""
    out = tmp_path_factory.mktemp("mismatched")
    run_cli("gen-fixtures", "--n-orbitals", "3", "--seed", "11", "--out", str(out))
    shutil.copy(fixture_dir / "hamiltonian.fcidump", out / "hamiltonian.fcidump")
    return out


@pytest.fixture(scope="module")
def eight_orbital_dir(tmp_path_factory):
    """An 8-orbital, 8-electron model: its sector (4900) exceeds the dense cap.

    ``ground_state.jsonl`` holds one determinant of that sector.
    """
    out = tmp_path_factory.mktemp("eight")
    run_cli("gen-fixtures", "--n-orbitals", "8", "--n-electrons", "8",
            "--seed", "3", "--out", str(out))
    det = ci.Determinant(0b1111, 0b1111)
    (out / "ground_state.jsonl").write_text(
        ci.write_civector_jsonl(ci.CIVector(8, {det: 1.0})))
    return out


def spectrum_args(fixture_dir, base, out):
    return base + ["--hamiltonian", str(fixture_dir / "hamiltonian.fcidump"),
                   "--dipoles", str(fixture_dir / "dipoles.json"),
                   "--out", str(out)]


def test_gen_fixtures_deterministic(tmp_path):
    run_cli(*FIXTURE_ARGS, "--out", str(tmp_path / "a"))
    run_cli(*FIXTURE_ARGS, "--out", str(tmp_path / "b"))
    for name in ("hamiltonian.fcidump", "dipoles.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_exact_run_reproduces_committed_baseline(fixture_dir, tmp_path):
    out = tmp_path / "exact"
    run_cli(*spectrum_args(fixture_dir, EXACT_ARGS, out))
    for name in BASELINE_FILES:
        produced = (out / name).read_bytes()
        committed = (BASELINES / "exact_2orb" / name).read_bytes()
        assert produced == committed, f"{name} deviates from the baseline"


def test_sampled_run_reproduces_committed_baseline(fixture_dir, tmp_path):
    out = tmp_path / "sampled"
    run_cli(*spectrum_args(fixture_dir, SAMPLED_ARGS, out))
    for name in ("dsf_q0.csv", "greens_xy.json"):
        produced = (out / name).read_bytes()
        committed = (BASELINES / "sampled_2orb" / name).read_bytes()
        assert produced == committed, f"{name} deviates from the baseline"


def test_missing_dipole_file_error(fixture_dir, tmp_path):
    proc = run_cli("spectrum",
                   "--hamiltonian", str(fixture_dir / "hamiltonian.fcidump"),
                   "--dipoles", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x"), check=False)
    assert proc.returncode == 2
    error = json.loads(proc.stderr)
    assert error["error"]["kind"] == "input_not_found"


def user_input(name, args, expected, env=None, config=None, inputs="fixture_dir"):
    """One CLI case: flags, an optional config document, and the input fixture."""
    return pytest.param(args, expected, env, config, inputs, id=name)


@pytest.mark.parametrize("args, expected, env, config, inputs", [
    user_input("eta_not_a_number", SAMPLED_ARGS + ["--eta", "abc"], "invalid_config"),
    user_input("eta_negative", SAMPLED_ARGS + ["--eta", "-1"], "invalid_config"),
    user_input("oracle_cvs", ["oracle", "--eta", "0.02", "--delta", "2.0", "--cvs", "0"],
               "invalid_config"),
    user_input("mode_oracle_cvs", EXACT_ARGS + ["--mode", "oracle", "--cvs", "0"],
               "invalid_config"),
    user_input("threads_variable_ignored", SAMPLED_ARGS, "sampled_2orb",
               env={"DSF_SIM_THREADS": "abc"}),
    user_input("config_shots_string", ["spectrum"], "invalid_config",
               config={"shots": "100"}),
    user_input("config_q_two_components", ["spectrum"], "invalid_config",
               config={"q": [[1, 1]]}),
    user_input("config_not_an_object", ["spectrum"], "invalid_config", config=5),
    user_input("q_not_a_number", EXACT_ARGS + ["--q", "1,a"], "invalid_config"),
    user_input("cvs_not_an_integer", EXACT_ARGS + ["--cvs", "a"], "invalid_config"),
    user_input("cvs_outside_register", EXACT_ARGS + ["--cvs", "9"], "invalid_config"),
    user_input("seed_negative", SAMPLED_ARGS + ["--seed", "-1"], "invalid_config"),
    user_input("shots_negative", EXACT_ARGS + ["--shots", "-5"], "invalid_config"),
    user_input("k_zero", EXACT_ARGS + ["--k", "0"], "invalid_config"),
    user_input("epsilon_trunc_above_one", EXACT_ARGS + ["--epsilon-trunc", "2"],
               "invalid_config"),
    user_input("delta_nan", EXACT_ARGS + ["--delta", "nan"], "invalid_config"),
    user_input("shift_ev_nan", EXACT_ARGS + ["--shift-ev", "nan"], "invalid_config"),
    user_input("n_alpha_exceeds_orbitals", EXACT_ARGS + ["--n-alpha", "5", "--n-beta", "1"],
               "invalid_config"),
    user_input("oracle_dipoles_mismatched", ["oracle", "--eta", "0.02"], "invalid_config",
               inputs="mismatched_dir"),
    user_input("spectrum_sector_too_large", ["spectrum"], "budget_exceeded",
               inputs="eight_orbital_dir"),
    user_input("oracle_sector_too_large", ["oracle"], "budget_exceeded",
               inputs="eight_orbital_dir"),
    user_input("file_ground_state_step_too_large",
               ["spectrum", "--ground-state", "{inputs}/ground_state.jsonl",
                "--delta", "2.0"], "budget_exceeded", inputs="eight_orbital_dir"),
    user_input("delta_below_grid_step", EXACT_ARGS + ["--delta", "1e-300"],
               "invalid_config"),
    user_input("shift_ev_merges_grid", EXACT_ARGS + ["--shift-ev", "1e20"],
               "invalid_config"),
    user_input("oracle_shift_ev_merges_grid",
               ["oracle", "--eta", "0.02", "--delta", "2.0", "--shift-ev", "1e20"],
               "invalid_config"),
    user_input("q_overflows_pair_weights", EXACT_ARGS + ["--q", "1e200,1e200,1e200"],
               "invalid_config"),
    user_input("oracle_q_overflows_pair_weights",
               ["oracle", "--eta", "0.02", "--delta", "2.0", "--q", "1e200,1e200,1e200"],
               "invalid_config"),
    user_input("gen_fixtures_orbitals_over_cap", ["gen-fixtures", "--n-orbitals", "12"],
               "invalid_config"),
    user_input("gen_fixtures_electrons_over_register",
               ["gen-fixtures", "--n-electrons", "99"], "invalid_config"),
    user_input("gen_fixtures_core_gap_negative",
               ["gen-fixtures", "--kind", "core_valence_toy", "--n-orbitals", "4",
                "--n-electrons", "4", "--core-gap", "-1"], "invalid_config"),
    user_input("gen_fixtures_core_gap_nan",
               ["gen-fixtures", "--kind", "core_valence_toy", "--n-orbitals", "4",
                "--n-electrons", "4", "--core-gap", "nan"], "invalid_config"),
    user_input("gen_fixtures_seed_negative", ["gen-fixtures", "--seed", "-1"],
               "invalid_config"),
])
def test_cli_user_input(request, tmp_path, args, expected, env, config, inputs):
    """A bad value is refused with a typed error; an ignored one changes nothing."""
    out = tmp_path / "run"
    directory = request.getfixturevalue(inputs)
    args = [a.replace("{inputs}", str(directory)) for a in args]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        args = args + ["--config", str(tmp_path / "run.json")]
    if args[0] == "gen-fixtures":
        args = args + ["--out", str(out)]
    else:
        args = spectrum_args(directory, args, out)
    proc = run_cli(*args, check=False, env=env)
    if (BASELINES / expected).is_dir():
        assert proc.returncode == 0, proc.stderr
        for name in ("dsf_q0.csv", "greens_xy.json"):
            assert (out / name).read_bytes() == (BASELINES / expected / name).read_bytes()
    else:
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"]["kind"] == expected


def test_spectrum_run_does_not_load_scipy(fixture_dir, tmp_path):
    """Importing the CLI and running ``spectrum`` never import scipy."""
    argv = spectrum_args(fixture_dir, SAMPLED_ARGS, tmp_path / "run")
    code = ("import sys\n"
            "import dsfsim.cli, dsfsim.spectrum\n"
            f"assert dsfsim.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_csv_outputs_parse_back(fixture_dir, tmp_path):
    out = tmp_path / "roundtrip"
    run_cli(*spectrum_args(fixture_dir, EXACT_ARGS, out))
    text = (out / "dsf_q0.csv").read_text()
    spec = sp.spectrum_from_csv(text, eta=0.02)
    assert sp.spectrum_to_csv(spec) == text


def test_manifest_records_run(fixture_dir, tmp_path):
    out = tmp_path / "manifest"
    run_cli(*spectrum_args(fixture_dir, EXACT_ARGS, out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["seed"] == 0
    assert manifest["parameters"]["mode"] == "exact"
    assert manifest["derived"]["n_max"] >= 1
    for rec in manifest["inputs"].values():
        assert len(rec["sha256"]) == 64


def test_oracle_outputs_feed_spectrum(fixture_dir, tmp_path):
    """The solved eigensystem and ground state reload as spectrum inputs."""
    oracle_out = tmp_path / "oracle"
    run_cli("oracle",
            "--hamiltonian", str(fixture_dir / "hamiltonian.fcidump"),
            "--dipoles", str(fixture_dir / "dipoles.json"),
            "--eta", "0.02", "--delta", "2.0", "--q", "1,1,1",
            "--out", str(oracle_out))
    eig = oracle.eigensystem_from_json((oracle_out / "eigensystem.json").read_text())
    psi = ci.read_civector_jsonl((oracle_out / "ground_state.jsonl").read_text())
    assert abs(psi.norm() - 1.0) < 1e-12
    for gs in ("ground_state.jsonl", "eigensystem.json"):
        out = tmp_path / f"from_{gs.split('.')[0]}"
        run_cli(*spectrum_args(fixture_dir, EXACT_ARGS, out),
                "--ground-state", str(oracle_out / gs))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["ground_energy"] == pytest.approx(
            eig.ground_energy, abs=1e-9)


def test_oracle_matches_exact_mode_spectra(fixture_dir, tmp_path):
    """Emulated exact-mode intensities track the oracle reference."""
    oracle_out = tmp_path / "oracle_ref"
    run_cli("oracle",
            "--hamiltonian", str(fixture_dir / "hamiltonian.fcidump"),
            "--dipoles", str(fixture_dir / "dipoles.json"),
            "--eta", "0.02", "--delta", "2.0",
            "--out", str(oracle_out))
    emul_out = tmp_path / "emulated"
    run_cli(*spectrum_args(fixture_dir, EXACT_ARGS, emul_out), "--k", "64")
    for pair in ("xx", "xy"):
        ora = sp.spectrum_from_csv(
            (oracle_out / f"oracle_intensity_{pair}.csv").read_text(), eta=0.02)
        emu = sp.spectrum_from_csv(
            (emul_out / f"intensity_{pair}.csv").read_text(), eta=0.02)
        scale = np.max(np.abs(ora.values))
        assert np.max(np.abs(ora.values - emu.values)) < 2e-3 * scale


def test_oracle_diagonal_fixture_isolated_lorentzians(tmp_path):
    fx = tmp_path / "diag"
    run_cli("gen-fixtures", "--kind", "diagonal_only", "--n-orbitals", "3",
            "--n-electrons", "2", "--seed", "5", "--out", str(fx))
    out = tmp_path / "diag_oracle"
    run_cli("oracle", "--hamiltonian", str(fx / "hamiltonian.fcidump"),
            "--dipoles", str(fx / "dipoles.json"), "--eta", "0.01",
            "--out", str(out))
    eig = oracle.eigensystem_from_json((out / "eigensystem.json").read_text())
    # diagonal one-body model: every dipole-bright excitation is a single
    # orbital-energy difference (the one-body dipole cannot doubly excite)
    from dsfsim.operators import load_dipole_json, parse_fcidump
    h = parse_fcidump((fx / "hamiltonian.fcidump").read_text())
    dip = load_dipole_json((fx / "dipoles.json").read_text())
    trans = oracle.transition_table(eig, dip)
    bright = oracle.bright_excitations(eig, trans, threshold=1e-8)
    levels = np.diag(h.core_one_body())
    diffs = {b - a for a in levels for b in levels}
    for excitation in bright:
        assert any(abs(excitation - d) < 1e-9 for d in diffs)


def test_config_file_with_flag_override(fixture_dir, tmp_path):
    config = {
        "hamiltonian": str(fixture_dir / "hamiltonian.fcidump"),
        "dipoles": str(fixture_dir / "dipoles.json"),
        "mode": "exact",
        "eta": 0.02,
        "delta": 2.0,
        "shots": 600,
        "out": str(tmp_path / "cfg_out"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "override"
    run_cli("spectrum", "--config", str(cfg_path), "--out", str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["shots"] == 600
    assert manifest["parameters"]["out"] == str(out)


def test_eta_accepts_ev_suffix(fixture_dir, tmp_path):
    out = tmp_path / "ev"
    args = [a for a in EXACT_ARGS]
    args[args.index("--eta") + 1] = f"{0.02 * 27.211386245988}eV"
    run_cli(*spectrum_args(fixture_dir, args, out))
    manifest = json.loads((out / "manifest.json").read_text())
    produced = sp.spectrum_from_csv((out / "dsf_q0.csv").read_text())
    baseline = sp.spectrum_from_csv(
        (BASELINES / "exact_2orb" / "dsf_q0.csv").read_text())
    assert np.allclose(produced.values, baseline.values, rtol=1e-9)


def test_resources_table_cli():
    proc = run_cli("resources", "--table", "14..30")
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 10
    row18 = lines[3].split(",")
    assert row18[0] == "18" and row18[1] == "100"


def test_resources_zero_shots():
    proc = run_cli("resources", "--n-orbitals", "18", "--shots", "0")
    report = json.loads(proc.stdout)
    assert report["total_t"] == 0.0


def test_validate_subcommand_passes():
    proc = run_cli("validate")
    assert "10/10 checks passed" in proc.stdout
