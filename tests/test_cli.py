import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dsfsim import ci, cli, oracle, validate
from dsfsim import spectrum as sp
from dsfsim.operators import (DipoleOperator, Hamiltonian, dump_dipole_json,
                              load_dipole_json, read_fcidump_file, write_fcidump)
from dsfsim.resources import REFERENCE_COSTS

BASELINES = Path(__file__).parent / "baselines"
ROOT = Path(__file__).resolve().parent.parent

# The baseline commands and files, as scripts/make_baselines.py defines them.
_MAKE_BASELINES = runpy.run_path(str(ROOT / "scripts" / "make_baselines.py"))
FIXTURE, EXACT, SAMPLED, EXACT_FILES, SAMPLED_FILES, RESOURCES = (
    _MAKE_BASELINES[name]
    for name in ("FIXTURE", "EXACT", "SAMPLED", "EXACT_FILES", "SAMPLED_FILES",
                 "RESOURCES"))


def run_cli(*args, check=True, env=None):
    """``dsfsim ARGS`` in-process; ``env`` patches ``os.environ`` for the call only."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(list(args))
    proc = subprocess.CompletedProcess(["dsfsim", *args], code,
                                       stdout.getvalue(), stderr.getvalue())
    if check and proc.returncode != 0:
        raise AssertionError(f"CLI failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    run_cli(*FIXTURE, "--out", str(out))
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
    (out / "ground_state.jsonl").write_text(
        '{"alpha": "11110000", "beta": "11110000", "re": 1.0}\n')
    return out


@pytest.fixture(scope="module")
def twelve_orbital_dir(tmp_path_factory):
    """A 12-orbital, 2-electron model: 24 qubits, a sector of only 144 states."""
    out = tmp_path_factory.mktemp("twelve")
    n = 12
    h = Hamiltonian(0.0, np.diag(np.arange(float(n))), np.zeros((n, n, n, n)))
    hop = np.eye(n, k=1) + np.eye(n, k=-1)
    (out / "hamiltonian.fcidump").write_text(write_fcidump(h, n_electrons=2, ms2=0))
    (out / "dipoles.json").write_text(dump_dipole_json(DipoleOperator(hop, hop, hop)))
    return out


def eigensystem(n_orbitals=2, basis=((1, 1),), energies=(0.0,), coeffs=((1.0,),)):
    """An eigensystem document; a field set to None is left out."""
    doc = {"n_orbitals": n_orbitals, "basis": basis, "energies": energies, "coeffs": coeffs}
    return json.dumps({k: v for k, v in doc.items() if v is not None})


# Faulty ``--ground-state`` files, each named after the case that reads it.
FOUR = ((1, 1), (1, 2), (2, 1), (2, 2))
GROUND_STATE_FILES = {
    "orbitals_mismatched.jsonl": '{"alpha": "100", "beta": "100", "re": 1.0}\n',
    "record_without_re.jsonl": '{"alpha": "10", "beta": "10", "im": 0.0}\n',
    "record_beta_shorter_than_alpha.jsonl": '{"alpha": "10", "beta": "1", "re": 1.0}\n',
    "record_re_bool.jsonl": '{"alpha": "10", "beta": "10", "re": true}\n',
    "record_im_bool.jsonl": '{"alpha": "10", "beta": "10", "re": 1.0, "im": true}\n',
    "zero_norm.jsonl": '{"alpha": "10", "beta": "10", "re": 0.0}\n',
    "norm_overflows.jsonl": '{"alpha": "10", "beta": "10", "re": 1e308, "im": 1e308}\n',
    "determinant_repeated.jsonl": ('{"alpha": "10", "beta": "10", "re": 1.0}\n'
                                   '{"alpha": "10", "beta": "10", "re": -1.0}\n'),
    "eigensystem_without_basis.json": eigensystem(basis=None),
    "eigensystem_without_states.json": eigensystem(energies=(), coeffs=()),
    **{f"eigensystem_{name}.json": eigensystem(basis=((mask, 1),)) for name, mask in (
        ("negative_mask", -1), ("mask_beyond_int64", 2**70), ("float_mask", 1.5),
        ("bool_mask", True))},
    "eigensystem_string_orbital_count.json": eigensystem(n_orbitals="2"),
    "eigensystem_bool_orbital_count.json": eigensystem(n_orbitals=True),
    "eigensystem_one_coeff_for_four_words.json": eigensystem(basis=FOUR, energies=(-0.2,),
                                                             coeffs=((0.5,),)),
    "eigensystem_short_coeffs.json": eigensystem(basis=FOUR, energies=(-0.2,)),
    "eigensystem_nan_coeff.json": eigensystem(coeffs=((float("nan"),),)),
    "eigensystem_string_energy.json": eigensystem(energies=("0.0",)),
    "eigensystem_bool_coeff.json": eigensystem(coeffs=((True,),)),
}
# 64 orbitals whose last character is no occupation: only a count check made
# before the word is built names the orbital count.
WIDE = "1" + "0" * 62 + "2"
# Every faulty file by name.  A string is the file's text; a triple (file,
# pattern, replacement) is that file of the 2-orbital fixture with the one
# match of ``pattern`` (a multi-line regex) replaced.
INTEGRAL = r"^\S+(?= 2 2 2 2$)"   # the value of the (2,2,2,2) integral
DIPOLE_X = r'"x": \[\[.*?\]\]'   # the x matrix of a dipole file
FILES = {
    "no_sector.fcidump": ("hamiltonian.fcidump", "NELEC=2,", "NELEC=3,"),
    "logical.fcidump": ("hamiltonian.fcidump", r"MS2=0,(\s+)ORBSYM=1,1,",
                        r"MS2=0,UHF=.FALSE.,\1ORBSYM=2*1,"),
    "noend.fcidump": ("hamiltonian.fcidump", " &END\n", ""),
    "conflicting.fcidump": ("hamiltonian.fcidump", r"^(?=\S+ 2 2 2 2$)", "9.0 2 2 2 2\n"),
    "overflowing.fcidump": ("hamiltonian.fcidump", INTEGRAL, "1e308"),
    "nelec_fraction.fcidump": ("hamiltonian.fcidump", "NELEC=2,", "NELEC=2.5,"),
    "ms2_word.fcidump": ("hamiltonian.fcidump", "MS2=0,", "MS2=abc,"),
    "ms2_empty.fcidump": ("hamiltonian.fcidump", "MS2=0,", "MS2=,"),
    "underscore.fcidump": ("hamiltonian.fcidump", INTEGRAL, "1_0"),
    "overflowing_dipoles.json": ("dipoles.json", DIPOLE_X, '"x": [[1e308, 0], [0, 1e308]]'),
    **{f"dipoles_{name}_entry.json": ("dipoles.json", DIPOLE_X,
                                      f'"x": [[{json.dumps(entry)}, 0], [0, 1.0]]')
       for name, entry in (("string", "0.123"), ("bool", True), ("int_beyond_float", 10**400))},
    "huge_orbitals.json": eigensystem(n_orbitals=2**40),
    "wide.jsonl": json.dumps({"alpha": WIDE, "beta": WIDE, "re": 1.0}) + "\n",
    **GROUND_STATE_FILES,
}


def spectrum_args(fixture_dir, base, out):
    """``base`` on the inputs in ``fixture_dir``; a flag in ``base`` wins."""
    return base[:1] + ["--hamiltonian", str(fixture_dir / "hamiltonian.fcidump"),
                       "--dipoles", str(fixture_dir / "dipoles.json"),
                       "--out", str(out)] + base[1:]


def test_gen_fixtures_deterministic(tmp_path):
    run_cli(*FIXTURE, "--out", str(tmp_path / "a"))
    run_cli(*FIXTURE, "--out", str(tmp_path / "b"))
    for name in ("hamiltonian.fcidump", "dipoles.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_exact_run_reproduces_committed_baseline(fixture_dir, tmp_path):
    out = tmp_path / "exact"
    run_cli(*spectrum_args(fixture_dir, EXACT, out))
    for name in EXACT_FILES:
        produced = (out / name).read_bytes()
        committed = (BASELINES / "exact_2orb" / name).read_bytes()
        assert produced == committed, f"{name} deviates from the baseline"


def test_sampled_run_reproduces_committed_baseline(fixture_dir, tmp_path):
    out = tmp_path / "sampled"
    run_cli(*spectrum_args(fixture_dir, SAMPLED, out))
    for name in SAMPLED_FILES:
        produced = (out / name).read_bytes()
        committed = (BASELINES / "sampled_2orb" / name).read_bytes()
        assert produced == committed, f"{name} deviates from the baseline"


def test_spectrum_builds_the_step_once(fixture_dir, tmp_path):
    """One ``spectrum`` run compiles the sector step once for all six pairs."""
    with mock.patch.object(sp, "program_unitary", wraps=sp.program_unitary) as build:
        run_cli(*spectrum_args(fixture_dir, EXACT, tmp_path / "exact"))
    assert build.call_count == 1


def test_missing_dipole_file_error(fixture_dir, tmp_path):
    proc = run_cli("spectrum",
                   "--hamiltonian", str(fixture_dir / "hamiltonian.fcidump"),
                   "--dipoles", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x"), check=False)
    assert proc.returncode == 2
    error = json.loads(proc.stderr)
    assert error["error"]["kind"] == "input_not_found"


def user_input(name, args, expected, env=None, config=None, inputs="fixture_dir", says=()):
    """One CLI case: flags, an optional config document, the input fixture, and
    the pieces of text the error message must hold.  ``{files}/<name>`` in an
    argument is the faulty file ``FILES[name]``."""
    return pytest.param(args, expected, env, config, inputs, says, id=name)


ORACLE = ["oracle", "--eta", "0.02"]
GROUND_STATE = ["spectrum", "--delta", "2.0"]


@pytest.mark.parametrize("args, expected, env, config, inputs, says", [
    user_input("eta_not_a_number", SAMPLED + ["--eta", "abc"], "invalid_config"),
    user_input("eta_negative", SAMPLED + ["--eta", "-1"], "invalid_config"),
    user_input("oracle_cvs_outside_register",
               ["oracle", "--eta", "0.02", "--delta", "2.0", "--cvs", "9"], "invalid_config"),
    user_input("mode_oracle_cvs", EXACT + ["--mode", "oracle", "--cvs", "0"],
               "invalid_config"),
    user_input("threads_variable_ignored", SAMPLED, "sampled_2orb",
               env={"DSF_SIM_THREADS": "abc"}),
    user_input("config_shots_string", ["spectrum"], "invalid_config",
               config={"shots": "100"}),
    user_input("config_q_two_components", ["spectrum"], "invalid_config",
               config={"q": [[1, 1]]}),
    user_input("config_q_empty", ["spectrum", "--mode", "exact", "--delta", "2.0"],
               "invalid_config", config={"q": []}),
    user_input("oracle_config_q_empty", ["oracle", "--eta", "0.02", "--delta", "2.0"],
               "invalid_config", config={"q": []}),
    user_input("config_not_an_object", ["spectrum"], "invalid_config", config=5),
    user_input("config_eta_bool", ["spectrum"], "invalid_config", config={"eta": True}),
    user_input("config_delta_beyond_the_float_range", ["spectrum"], "invalid_config",
               config={"delta": 10**400}),
    user_input("q_not_a_number", EXACT + ["--q", "1,a"], "invalid_config"),
    user_input("k_not_an_integer", EXACT + ["--k", "abc"], "invalid_config"),
    user_input("mode_unknown", EXACT + ["--mode", "bogus"], "invalid_config"),
    user_input("cvs_not_an_integer", EXACT + ["--cvs", "a"], "invalid_config"),
    user_input("cvs_outside_register", EXACT + ["--cvs", "9"], "invalid_config"),
    user_input("seed_negative", SAMPLED + ["--seed", "-1"], "invalid_config"),
    user_input("shots_negative", EXACT + ["--shots", "-5"], "invalid_config"),
    user_input("shots_over_int64", EXACT + ["--shots", "100000000000000000000"],
               "invalid_config"),
    user_input("shots_over_float_precision", EXACT + ["--shots", "1152921504606846979"],
               "invalid_config"),
    user_input("k_zero", EXACT + ["--k", "0"], "invalid_config"),
    user_input("epsilon_trunc_above_one", EXACT + ["--epsilon-trunc", "2"],
               "invalid_config"),
    user_input("delta_nan", EXACT + ["--delta", "nan"], "invalid_config"),
    user_input("shift_ev_nan", EXACT + ["--shift-ev", "nan"], "invalid_config"),
    user_input("n_alpha_exceeds_orbitals", EXACT + ["--n-alpha", "5", "--n-beta", "1"],
               "invalid_config"),
    user_input("n_alpha_alone", EXACT + ["--n-alpha=99"], "invalid_config"),
    user_input("config_n_beta_alone", ["spectrum"], "invalid_config", config={"n_beta": 1}),
    user_input("oracle_n_alpha_alone", ["oracle", "--eta", "0.02", "--n-alpha", "1"],
               "invalid_config"),
    *(user_input(name, [*command, "--hamiltonian", f"{{files}}/{file}", *flags], expected)
      for name, command, file, flags, expected in (
          ("header_names_no_sector", EXACT, "no_sector.fcidump", [], "invalid_config"),
          ("oracle_header_names_no_sector", ORACLE, "no_sector.fcidump", [], "invalid_config"),
          ("header_fields_not_read_may_be_any_word", EXACT, "logical.fcidump", [], "exact_2orb"),
          ("sector_flags_override_the_header", EXACT, "no_sector.fcidump",
           ["--n-alpha", "1", "--n-beta", "1"], "exact_2orb"))),
    user_input("oracle_ground_state_not_a_flag",
               ["oracle", "--eta", "0.02", "--delta", "2.0",
                "--ground-state", "{inputs}/missing.jsonl"], "invalid_config"),
    user_input("oracle_shots_not_a_flag",
               ["oracle", "--eta", "0.02", "--delta", "2.0", "--shots", "3"],
               "invalid_config"),
    user_input("config_oracle_ground_state_file", ["oracle", "--eta", "0.02"],
               "invalid_config", config={"ground_state": "ground_state.jsonl"}),
    user_input("mode_oracle_ground_state_file",
               EXACT + ["--mode", "oracle", "--ground-state", "ground_state.jsonl"],
               "invalid_config"),
    user_input("mode_oracle_measurement_flags",
               EXACT + ["--mode", "oracle", "--k", "7", "--seed", "3",
                        "--epsilon-trunc", "0.5"], "invalid_config"),
    user_input("oracle_config_measurement_fields", ["oracle", "--eta", "0.02"],
               "invalid_config",
               config={"seed": 3, "trotter_k": 7, "shots": 600, "mode": "sampled"}),
    user_input("oracle_dipoles_mismatched", ["oracle", "--eta", "0.02"], "invalid_config",
               inputs="mismatched_dir"),
    user_input("spectrum_sector_too_large", ["spectrum"], "budget_exceeded",
               inputs="eight_orbital_dir"),
    user_input("oracle_sector_too_large", ["oracle"], "budget_exceeded",
               inputs="eight_orbital_dir"),
    user_input("file_ground_state_step_too_large",
               ["spectrum", "--ground-state", "{inputs}/ground_state.jsonl",
                "--delta", "2.0"], "budget_exceeded", inputs="eight_orbital_dir"),
    user_input("delta_below_grid_step", EXACT + ["--delta", "1e-300"],
               "invalid_config"),
    user_input("shift_ev_merges_grid", EXACT + ["--shift-ev", "1e20"],
               "invalid_config"),
    user_input("oracle_shift_ev_merges_grid",
               ["oracle", "--eta", "0.02", "--delta", "2.0", "--shift-ev", "1e20"],
               "invalid_config"),
    user_input("q_overflows_pair_weights", EXACT + ["--q", "1e200,1e200,1e200"],
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
    user_input("resources_table_not_a_range", ["resources", "--table", "14..x"],
               "invalid_config"),
    user_input("resources_table_empty", ["resources", "--table", "30..14"],
               "invalid_config"),
    user_input("resources_table_uncalibrated", ["resources", "--table", "2"],
               "invalid_config"),
    user_input("resources_orbitals_negative", ["resources", "--n-orbitals", "-5"],
               "invalid_config"),
    user_input("resources_table_over_cap", ["resources", "--table", "14..200000"],
               "budget_exceeded"),
    user_input("resources_shots_negative",
               ["resources", "--n-orbitals", "22", "--shots", "-60"], "invalid_config"),
    user_input("resources_table_shots_negative",
               ["resources", "--table", "18", "--shots", "-60"], "invalid_config"),
    *(user_input(f"ground_state_{file.split('.')[0]}",
                 [*GROUND_STATE, "--ground-state", f"{{files}}/{file}"], "invalid_config")
      for file in GROUND_STATE_FILES),
    *(user_input(f"ground_state_{file}", [*GROUND_STATE, "--ground-state", f"{{files}}/{file}"],
                 "invalid_config", says=[f"ground state file {{files}}/{file}: ValueError", detail])
      for file, detail in (("huge_orbitals.json", f"n_orbitals is {2**40}, not 2"),
                           ("wide.jsonl", "64 orbitals, not 2"))),
    *(user_input(f"{prefix}{name}", [*command, flag, f"{{files}}/{file}"], "invalid_config",
                 says=says)
      for prefix, command in (("", EXACT), ("oracle_", ORACLE))
      for name, flag, file, *says in (
          ("fcidump_header_never_ends", "--hamiltonian", "noend.fcidump"),
          ("fcidump_conflicting_integral", "--hamiltonian", "conflicting.fcidump"),
          *((f"fcidump_{name}", "--hamiltonian", f"{name}.fcidump",
             f"hamiltonian file {{files}}/{name}.fcidump: FcidumpError", detail)
            for name, detail in (("nelec_fraction", "header field NELEC"),
                                 ("ms2_word", "header field MS2"),
                                 ("ms2_empty", "header field MS2"),
                                 ("underscore", "malformed number"))),
          *((f"dipoles_{name}_entry", "--dipoles", f"dipoles_{name}_entry.json",
             f"dipole file {{files}}/dipoles_{name}_entry.json: TypeError")
            for name in ("string", "bool", "int_beyond_float")))),
    *(user_input(f"{prefix}{name}", [*command, flag, f"{{files}}/{file}"], "invalid_config",
                 says=[f"{what} file {{files}}/{file}: an input value overflows"])
      for prefix, command in (("", ["spectrum"]), ("oracle_", ORACLE))
      for name, flag, file, what in (
          ("fcidump_overflows", "--hamiltonian", "overflowing.fcidump", "hamiltonian"),
          ("dipoles_overflow", "--dipoles", "overflowing_dipoles.json", "dipole"))),
    *(user_input(f"{prefix}{name}", [*command, "--eta", "0.02", "--delta", "2.0", *flags],
                 "no_dipole_intensity")
      for prefix, command in (("", ["spectrum", "--mode", "exact"]), ("oracle_", ["oracle"]))
      for name, flags in (("cvs_keeps_no_determinant", ["--cvs", "0,1"]),
                          ("q_zero", ["--q", "0,0,0"]))),
    user_input("series_over_budget", EXACT + ["--eta", "1e-4", "--epsilon-trunc", "1e-300"],
               "budget_exceeded"),
    user_input("oracle_grid_over_budget", ["oracle", "--eta", "1e-6", "--delta", "2.0"],
               "budget_exceeded"),
    user_input("series_size_overflows", EXACT + ["--delta", "1e300", "--eta", "1e-10"],
               "budget_exceeded"),
])
def test_cli_user_input(request, tmp_path, args, expected, env, config, inputs, says):
    """A bad value is refused with a typed error, one JSON line on stderr (whose
    message holds each of ``says`` and names the faulty file) and no warning; an
    ignored one changes nothing."""
    out = tmp_path / "run"
    directory = request.getfixturevalue(inputs)
    faulty = [name for name in FILES if f"{{files}}/{name}" in args]
    for name in faulty:
        text = FILES[name]
        if not isinstance(text, str):
            source, pattern, new = text
            text, count = re.subn(pattern, new, (directory / source).read_text(), flags=re.M)
            assert count == 1, name
        (tmp_path / name).write_text(text)
    says = [*says, *(f"{{files}}/{name}" for name in faulty)]   # a refusal names the file

    def fill(text):
        return text.replace("{inputs}", str(directory)).replace("{files}", str(tmp_path))

    args = [fill(a) for a in args]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        args = args + ["--config", str(tmp_path / "run.json")]
    if args[0] in ("gen-fixtures", "resources"):
        args = args + ["--out", str(out)]
    else:
        args = spectrum_args(directory, args, out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        proc = run_cli(*args, check=False, env=env)
    assert [str(w.message) for w in caught] == []
    if (BASELINES / expected).is_dir():
        assert proc.returncode == 0, proc.stderr
        for name in ("dsf_q0.csv", "greens_xy.json"):
            assert (out / name).read_bytes() == (BASELINES / expected / name).read_bytes()
    else:
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
        assert json.loads(proc.stderr)["error"]["kind"] == expected
        message = json.loads(proc.stderr)["error"]["message"]
        assert all(fill(part) in message for part in says)


def test_unusable_paths_are_refused(fixture_dir, tmp_path):
    """An input path that is a directory or holds the wrong format, and an output
    path that is a file, end in ``invalid_config``."""
    ham, dip = str(fixture_dir / "hamiltonian.fcidump"), str(fixture_dir / "dipoles.json")
    a_file, binary, out = tmp_path / "a_file", tmp_path / "binary.jsonl", str(tmp_path / "out")
    a_file.write_text("")
    binary.write_bytes(b"\xff\xfe")
    for args in (EXACT + ["--hamiltonian", str(tmp_path), "--dipoles", dip, "--out", out],
                 EXACT + ["--hamiltonian", dip, "--dipoles", dip, "--out", out],
                 EXACT + ["--hamiltonian", ham, "--dipoles", ham, "--out", out],
                 EXACT + ["--hamiltonian", ham, "--dipoles", dip, "--out", str(a_file)],
                 ["spectrum", "--config", str(tmp_path), "--hamiltonian", ham,
                  "--dipoles", dip, "--out", out],
                 ["spectrum", "--ground-state", str(binary), "--delta", "2.0",
                  "--hamiltonian", ham, "--dipoles", dip, "--out", out],
                 ["gen-fixtures", "--out", str(a_file)]):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1, args
        assert json.loads(proc.stderr)["error"]["kind"] == "invalid_config", proc.stderr


# Wrong-type or out-of-range JSON values for one config field.  Strings use an
# alphabet without path separators or dots, so a drawn ``out`` stays in the cwd.
WRONG_CONFIG_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(alphabet="aeHV19-", max_size=6),
    st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3),
    st.dictionaries(st.text(alphabet="abq", max_size=3), st.integers(), max_size=3),
    st.integers(min_value=2**53), st.integers(max_value=-1),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from([f.name for f in dataclasses.fields(cli.RunConfig)]),
       value=WRONG_CONFIG_VALUES)
def test_config_values_never_end_in_internal_error(fixture_dir, tmp_path, monkeypatch,
                                                   field, value):
    """A config document of the exact baseline run with one field replaced by a
    wrong-type or out-of-range value is refused with a typed error, or runs."""
    monkeypatch.chdir(tmp_path)
    argv = spectrum_args(fixture_dir, EXACT, tmp_path / "run")
    doc = dataclasses.asdict(cli.load_config(cli.build_parser().parse_args(argv)))
    doc[field] = value
    (tmp_path / "run.json").write_text(json.dumps(doc))
    proc = run_cli("spectrum", "--config", str(tmp_path / "run.json"), check=False)
    if proc.returncode != 0:
        assert json.loads(proc.stderr)["error"]["kind"] != "internal_error", proc.stderr


# Flag text that is malformed, out of range or at the edge of the float range.
# No value holds a path separator, so a drawn ``--out`` stays in the cwd.
WRONG_FLAG_VALUES = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "-0", "0", "1", "-1", "1e308", "1e999",
                     "1e-300", "5e-324", "true", "1,1", "1,,1", "1,1,1,1", "a,b,c",
                     "1.63eV", "-2eV", "0eV", "1e400eV", "eV", "3Ha", "exact", "sampled"]),
    st.integers(min_value=-2**70, max_value=2**70).map(str),
    st.text(alphabet="aeHV19-,", max_size=6))
# Every flag of ``spectrum``: one per ``RunConfig`` field, and ``--config``.
SPECTRUM_FLAGS = ["--config"] + [
    {"trotter_k": "--k"}.get(f.name, "--" + f.name.replace("_", "-"))
    for f in dataclasses.fields(cli.RunConfig)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(SPECTRUM_FLAGS), value=WRONG_FLAG_VALUES)
def test_flag_values_never_end_in_internal_error(fixture_dir, tmp_path, monkeypatch,
                                                 flag, value):
    """The exact baseline command with one flag set to a drawn value is refused
    with a typed error, or runs.

    The series budget is lowered to 2**13 points, as in the ``oracle`` probe:
    the baseline command needs 940 (n_max 440 plus 500 grid points), while a
    drawn ``--delta=999`` would otherwise measure about 219,000 steps (16 s).
    """
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "SERIES_BUDGET", 2**13)
    argv = spectrum_args(fixture_dir, EXACT, tmp_path / "run") + [f"{flag}={value}"]
    proc = run_cli(*argv, check=False)
    if proc.returncode != 0:
        assert json.loads(proc.stderr)["error"]["kind"] != "internal_error", proc.stderr


def option(dest, help=None, type=None, choices=None, action="_StoreAction"):
    """One argparse option as the contract pins it: (dest, type, choices, action, help)."""
    return dest, type, choices, action, help


# Every option of ``oracle``, and of ``spectrum`` with its measurement flags on
# top.  A type is pinned by name when it is ``int`` or ``float``; the list flags
# ``--q`` and ``--cvs`` are pinned by the values they parse to.
ORACLE_OPTIONS = {
    "-h": option("help", "show this help message and exit", action="_HelpAction"),
    "--help": option("help", "show this help message and exit", action="_HelpAction"),
    "--config": option("config", "JSON config document"),
    "--hamiltonian": option("hamiltonian", "FCIDUMP path"),
    "--dipoles": option("dipoles", "dipole JSON path"),
    "--eta": option("eta", "broadening, Hartree (or e.g. '1.63eV')"),
    "--delta": option("delta", "spectral window, Hartree", "float"),
    "--q": option("q", "momentum 'qx,qy,qz' (repeatable)", action="_AppendAction"),
    "--cvs": option("cvs", "comma-separated core orbitals"),
    "--shift-ev": option("shift_ev", "additive display shift for omega, eV", "float"),
    "--n-alpha": option("n_alpha", type="int"),
    "--n-beta": option("n_beta", type="int"),
    "--out": option("out", "output directory"),
}
SPECTRUM_OPTIONS = {
    **ORACLE_OPTIONS,
    "--ground-state": option("ground_state",
                             "CI-vector .jsonl, eigensystem .json, or 'solve'"),
    "--mode": option("mode", choices=["sampled", "exact"]),
    "--epsilon-trunc": option("epsilon_trunc", type="float"),
    "--k": option("trotter_k", "Trotter substeps per tau", "int"),
    "--shots": option("shots", type="int"),
    "--seed": option("seed", type="int"),
}


def test_run_command_flags_are_pinned():
    """``spectrum`` and ``oracle`` keep their help lines and every option's dest,
    type, choices, action and help; ``--q`` and ``--cvs`` parse to the same values."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert helps["spectrum"] == "measure and reconstruct spectra"
    assert helps["oracle"] == "exact-diagonalization reference"
    for command, want in (("spectrum", SPECTRUM_OPTIONS), ("oracle", ORACLE_OPTIONS)):
        got = {flag: option(a.dest, a.help, {int: "int", float: "float"}.get(a.type),
                            a.choices, type(a).__name__)
               for a in sub.choices[command]._actions for flag in a.option_strings}
        assert got == want, command
        parsed = {("--q", "1,2,3", "--q", "0,0,-1e3"): ([[1, 2, 3], [0, 0, -1e3]], []),
                  ("--cvs", "1,0"): ([[1, 1, 1]], [1, 0])}
        for argv, lists in parsed.items():
            cfg = cli.load_config(parser.parse_args([command, *argv]))
            assert (cfg.q, cfg.cvs) == lists, (command, argv)
        for argv, refusal in ((["--q", "", "--cvs", ""], "q must be"),
                              (["--cvs", "1,a"], "not a comma-separated list of int")):
            with pytest.raises(cli.CliError, match=refusal):
                cli.load_config(parser.parse_args([command, *argv]))


ORACLE_FLAGS = [flag for flag in ORACLE_OPTIONS if flag not in ("-h", "--help")]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(ORACLE_FLAGS), value=WRONG_FLAG_VALUES)
def test_oracle_flag_values_never_end_in_internal_error(fixture_dir, tmp_path, monkeypatch,
                                                        flag, value):
    """An ``oracle`` run with one flag set to a drawn value is refused with a
    typed error, or runs.

    The series budget is lowered to 2**13 points: a drawn ``--delta=999`` would
    otherwise build and write a 250,000-point grid (8 s), and a grid over the
    budget is refused by the same check as one over 2**20.
    """
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "SERIES_BUDGET", 2**13)
    argv = spectrum_args(fixture_dir, ["oracle", "--eta", "0.02", "--delta", "2.0"],
                         tmp_path / "run") + [f"{flag}={value}"]
    proc = run_cli(*argv, check=False)
    if proc.returncode != 0:
        assert json.loads(proc.stderr)["error"]["kind"] != "internal_error", proc.stderr


def test_spectrum_runs_past_the_register_cap(twelve_orbital_dir, tmp_path):
    """24 qubits are over the register cap, but ``spectrum`` holds only the
    144-state sector; every exact series matches the oracle's spectral sum."""
    assert 2 * 12 > ci.STATEVECTOR_QUBIT_CAP
    out = tmp_path / "twelve"
    run_cli(*spectrum_args(twelve_orbital_dir, EXACT, out))
    h, _ = read_fcidump_file(twelve_orbital_dir / "hamiltonian.fcidump")
    eig = oracle.solve_sector(h, 1, 1)
    trans = oracle.transition_table(
        eig, load_dipole_json((twelve_orbital_dir / "dipoles.json").read_text()))
    for pair in sp.PAIR_KEYS:
        series = sp.series_from_json((out / f"greens_{pair}.json").read_text())
        want = [oracle.exact_greens(eig, trans, pair, series.tau, n) for n in series.n]
        err = np.max(np.abs(series.x + 1j * series.y - np.array(want)))
        assert err <= 1e-10 * series.norm_product, pair


def test_module_entry_point():
    """``python -m dsfsim`` runs the CLI and writes its report to stdout."""
    proc = subprocess.run([sys.executable, "-m", "dsfsim", "resources", "--n-orbitals", "22"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (BASELINES / "resources" / "resources.json").read_text()


def test_spectrum_run_does_not_load_scipy(fixture_dir, tmp_path):
    """Importing the CLI and running ``spectrum`` or ``oracle`` never import scipy."""
    for base in (SAMPLED, ["oracle", "--eta", "0.02", "--delta", "2.0"]):
        argv = spectrum_args(fixture_dir, base, tmp_path / base[0])
        code = ("import sys\n"
                "import dsfsim.cli, dsfsim.spectrum\n"
                f"assert dsfsim.cli.main({argv!r}) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", base[0]


def test_csv_outputs_parse_back(fixture_dir, tmp_path):
    out = tmp_path / "roundtrip"
    run_cli(*spectrum_args(fixture_dir, EXACT, out))
    text = (out / "dsf_q0.csv").read_text()
    spec = sp.spectrum_from_csv(text)
    assert sp.spectrum_to_csv(spec) == text


def test_manifest_records_run(fixture_dir, tmp_path):
    out = tmp_path / "manifest"
    run_cli(*spectrum_args(fixture_dir, EXACT, out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["seed"] == 0
    assert manifest["parameters"]["mode"] == "exact"
    assert manifest["derived"]["n_max"] >= 1
    for rec in manifest["inputs"].values():
        assert len(rec["sha256"]) == 64


def test_manifest_records_the_command_flags(fixture_dir, tmp_path):
    """A manifest's parameters are the config fields its command takes as flags."""
    every = {f.name for f in dataclasses.fields(cli.RunConfig)}
    measurement = {"ground_state", "mode", "seed", "shots", "trotter_k", "epsilon_trunc"}
    for base, fields in ((EXACT, every),
                         (["oracle", "--eta", "0.02", "--delta", "2.0"], every - measurement)):
        out = tmp_path / base[0]
        run_cli(*spectrum_args(fixture_dir, base, out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["parameters"]) == fields, base[0]


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
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    for gs in ("ground_state.jsonl", "eigensystem.json"):
        out = tmp_path / f"from_{gs.split('.')[0]}"
        run_cli(*spectrum_args(fixture_dir, EXACT, out),
                "--ground-state", str(oracle_out / gs))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["ground_energy"] == pytest.approx(
            eig.ground_energy, abs=1e-9)


def test_shift_ev_moves_only_the_grid_columns(fixture_dir, tmp_path):
    """``--shift-ev 10`` adds 10 eV to the omega columns of every CSV ``spectrum``
    and ``oracle`` write, each column written as the ``repr`` of its number, and
    leaves every value byte-equal."""
    shift = 10.0 / sp.HARTREE_TO_EV
    for base in (EXACT, ["oracle", "--eta", "0.02", "--delta", "2.0"]):
        plain, shifted = tmp_path / f"{base[0]}_plain", tmp_path / f"{base[0]}_shifted"
        run_cli(*spectrum_args(fixture_dir, base, plain))
        run_cli(*spectrum_args(fixture_dir, base, shifted), "--shift-ev", "10")
        names = sorted(p.name for p in plain.glob("*.csv"))
        assert len(names) == 7 and names == sorted(p.name for p in shifted.glob("*.csv"))
        for name in names:
            before, after = ([line.split(",") for line in (out / name).read_text().splitlines()]
                             for out in (plain, shifted))
            assert len(before) == len(after) > 2 and before[0] == after[0]
            for (omega, _, value), (omega_shown, ev_shown, value_shown) in zip(before[1:],
                                                                              after[1:]):
                assert value_shown == value, name
                assert omega_shown == repr(float(omega) + shift), name
                assert ev_shown == repr(float(omega_shown) * sp.HARTREE_TO_EV), name


def test_default_window_of_each_ground_state_route(fixture_dir, tmp_path):
    """Without ``--delta`` a solved or ``.json`` ground state records delta =
    1.05 x (max - first of the energies) + 5 eta, a ``.json`` file's energies
    taken as stored; a ``.jsonl`` ground state needs ``--delta``."""
    oracle_out = tmp_path / "oracle"
    run_cli(*spectrum_args(fixture_dir, ["oracle", "--eta", "0.02", "--delta", "2.0"],
                           oracle_out))
    doc = json.loads((oracle_out / "eigensystem.json").read_text())
    stored = tmp_path / "stored.json"
    stored.write_text(json.dumps(dict(doc, energies=[-1.0, 0.5, 2.0, 3.25])))
    base = ["spectrum", "--mode", "exact", "--eta", "0.06"]
    energies = np.array(doc["energies"])
    for ground_state, span in (("solve", float(np.max(energies) - energies[0])),
                               (str(oracle_out / "eigensystem.json"),
                                float(np.max(energies) - energies[0])),
                               (str(stored), 3.25 - -1.0)):
        out = tmp_path / Path(ground_state).stem
        run_cli(*spectrum_args(fixture_dir, base, out), "--ground-state", ground_state)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["delta"] == 1.05 * span + 5.0 * 0.06, ground_state
    proc = run_cli(*spectrum_args(fixture_dir, base, tmp_path / "jsonl"), "--ground-state",
                   str(oracle_out / "ground_state.jsonl"), check=False)
    assert proc.returncode == 1
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "invalid_config" and ".jsonl" in error["message"]


def test_ground_state_files_take_e0_from_the_fcidump(fixture_dir, tmp_path):
    """Both ground-state formats record E0 = <psi0|H|psi0> on the FCIDUMP given,
    not a value stored in the file: a new offset moves both alike."""
    oracle_out = tmp_path / "oracle"
    run_cli(*spectrum_args(fixture_dir, ["oracle", "--eta", "0.02", "--delta", "2.0"],
                           oracle_out))
    text = (fixture_dir / "hamiltonian.fcidump").read_text()
    offset = next(line for line in text.splitlines() if line.endswith(" 0 0 0 0"))
    shifted = tmp_path / "shifted"
    shifted.mkdir()
    (shifted / "hamiltonian.fcidump").write_text(text.replace(offset, "5.0 0 0 0 0"))
    shutil.copy(fixture_dir / "dipoles.json", shifted / "dipoles.json")
    energies = []
    for gs in ("eigensystem.json", "ground_state.jsonl"):
        out = tmp_path / gs
        run_cli(*spectrum_args(shifted, EXACT, out), "--ground-state", str(oracle_out / gs))
        manifest = json.loads((out / "manifest.json").read_text())
        energies.append(manifest["derived"]["ground_energy"])
    assert energies[0] == pytest.approx(energies[1], abs=1e-12)


def test_ground_state_files_pin_the_spin_encoding(fixture_dir, tmp_path):
    """Alpha is bit 2p and beta bit 2p+1 of a word in both ground-state files:
    the eigensystem basis lists (alpha mask, beta mask) pairs in word order, and
    the ``alpha``/``beta`` strings of a record name the same orbitals."""
    run_cli(*spectrum_args(fixture_dir, ["oracle", "--eta", "0.02", "--delta", "2.0"],
                           tmp_path))
    doc = json.loads((tmp_path / "eigensystem.json").read_text())
    assert doc["basis"] == [[1, 1], [2, 1], [1, 2], [2, 2]]   # words 3, 6, 9, 12
    strings = {1: "10", 2: "01"}   # orbital 0 is the leftmost character
    records = [json.loads(line) for line in
               (tmp_path / "ground_state.jsonl").read_text().splitlines()]
    ground = np.array(doc["coeffs"])[:, 0]
    assert [(r["alpha"], r["beta"]) for r in records] == [
        (strings[a], strings[b]) for (a, b), c in zip(doc["basis"], ground) if c != 0]
    psi = ci.read_civector_jsonl('{"alpha": "01", "beta": "10", "re": 1.0}\n')
    # alpha in orbital 1 is bit 2, beta in orbital 0 is bit 1: word 6
    register = ci.register_state(psi.n_orbitals, psi.basis, psi.amplitudes)
    assert np.flatnonzero(register).tolist() == [6]


def test_unnormalized_ground_state_file_is_normalized(fixture_dir, tmp_path):
    """Doubling a .jsonl ground state's amplitudes leaves every series unchanged."""
    oracle_out = tmp_path / "oracle"
    run_cli("oracle", "--hamiltonian", str(fixture_dir / "hamiltonian.fcidump"),
            "--dipoles", str(fixture_dir / "dipoles.json"),
            "--eta", "0.02", "--delta", "2.0", "--out", str(oracle_out))
    psi = ci.read_civector_jsonl((oracle_out / "ground_state.jsonl").read_text())
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text(ci.write_civector_jsonl(
        ci.CIVector(psi.n_orbitals, psi.basis, 2.0 * psi.amplitudes)))
    outs = []
    for gs in (oracle_out / "ground_state.jsonl", doubled):
        outs.append(tmp_path / gs.stem)
        run_cli(*spectrum_args(fixture_dir, EXACT, outs[-1]), "--ground-state", str(gs))
    for pair in sp.PAIR_KEYS:
        original, scaled = (sp.series_from_json((out / f"greens_{pair}.json").read_text())
                            for out in outs)
        for name in ("norm_product", "moment0", "x", "y"):
            assert np.max(np.abs(getattr(scaled, name) - getattr(original, name))) < 1e-12


def test_eigensystem_file_basis_order_and_missing_words(fixture_dir, tmp_path):
    """An eigensystem file may list its basis in any order and leave sector words
    out: a reversed basis writes the bytes of the sorted one, and a file holding 2
    of the 4 sector words writes the bytes of the same state with zero rows for
    the other two."""
    oracle_out = tmp_path / "oracle"
    run_cli(*spectrum_args(fixture_dir, ["oracle", "--eta", "0.02", "--delta", "2.0"],
                           oracle_out))
    doc = json.loads((oracle_out / "eigensystem.json").read_text())
    partial = {"n_orbitals": 2, "basis": doc["basis"][1:3], "energies": [-1.0, 0.5],
               "coeffs": [[0.6, 0.8], [0.8, -0.6]]}
    files = {"sorted": doc,
             "reversed": dict(doc, basis=doc["basis"][::-1], coeffs=doc["coeffs"][::-1]),
             "partial": partial,
             "padded": dict(partial, basis=doc["basis"],
                            coeffs=[[0.0, 0.0], *partial["coeffs"], [0.0, 0.0]])}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
        run_cli(*spectrum_args(fixture_dir, EXACT, tmp_path / name),
                "--ground-state", str(tmp_path / f"{name}.json"))
    outputs = sorted(p.name for p in (tmp_path / "sorted").iterdir()
                     if p.name != "manifest.json")
    assert len(outputs) == 13   # six greens, six intensities, one dsf
    for name, twin in (("reversed", "sorted"), ("partial", "padded")):
        for output in outputs:
            assert (tmp_path / name / output).read_bytes() \
                == (tmp_path / twin / output).read_bytes(), (name, output)


# sha256 over the six greens_*.json that the EXACT command writes from the oracle's
# ground_state.jsonl, recorded when the step matrix became L^T L of one half sweep
# (the earlier digest dated from the dict CI vector).
JSONL_ROUTE_DIGEST = "d7066dbbd4cf648be84e4c3ce76519d6567ddf45c44e3a47fbae3615520eb4e6"


def test_jsonl_ground_state_route_is_pinned(fixture_dir, tmp_path):
    """The .jsonl route's series keep their bits: the state is normalized by
    dividing its real and imaginary parts apart, as complex / float division does."""
    oracle_out = tmp_path / "oracle"
    run_cli(*spectrum_args(fixture_dir, ["oracle", "--eta", "0.02", "--delta", "2.0"],
                           oracle_out))
    out = tmp_path / "jsonl"
    run_cli(*spectrum_args(fixture_dir, EXACT, out),
            "--ground-state", str(oracle_out / "ground_state.jsonl"))
    digest = hashlib.sha256(b"".join((out / f"greens_{pair}.json").read_bytes()
                                     for pair in sp.PAIR_KEYS)).hexdigest()
    assert digest == JSONL_ROUTE_DIGEST


@pytest.mark.parametrize("cvs", [[], ["--cvs", "0"]], ids=["no_cvs", "cvs_0"])
def test_oracle_matches_exact_mode_spectra(fixture_dir, tmp_path, cvs):
    """Emulated exact-mode intensities track the oracle reference, with and without
    the core-valence projection on both sides."""
    oracle_out = tmp_path / "oracle_ref"
    run_cli("oracle",
            "--hamiltonian", str(fixture_dir / "hamiltonian.fcidump"),
            "--dipoles", str(fixture_dir / "dipoles.json"),
            "--eta", "0.02", "--delta", "2.0",
            "--out", str(oracle_out), *cvs)
    emul_out = tmp_path / "emulated"
    run_cli(*spectrum_args(fixture_dir, EXACT, emul_out), "--k", "64", *cvs)
    for pair in ("xx", "xy"):
        ora = sp.spectrum_from_csv(
            (oracle_out / f"oracle_intensity_{pair}.csv").read_text())
        emu = sp.spectrum_from_csv((emul_out / f"intensity_{pair}.csv").read_text())
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
    args = [a for a in EXACT]
    args[args.index("--eta") + 1] = f"{0.02 * 27.211386245988}eV"
    run_cli(*spectrum_args(fixture_dir, args, out))
    manifest = json.loads((out / "manifest.json").read_text())
    produced = sp.spectrum_from_csv((out / "dsf_q0.csv").read_text())
    baseline = sp.spectrum_from_csv(
        (BASELINES / "exact_2orb" / "dsf_q0.csv").read_text())
    assert np.allclose(produced.values, baseline.values, rtol=1e-9)


def test_resources_table_cli(tmp_path):
    """Each ``dsfsim resources`` baseline command reproduces its committed file."""
    for args, name in RESOURCES:
        run_cli(*args, "--out", str(tmp_path))
        assert (tmp_path / name).read_bytes() \
            == (BASELINES / "resources" / name).read_bytes(), f"{name} deviates"


def test_resources_zero_shots():
    proc = run_cli("resources", "--n-orbitals", "18", "--shots", "0")
    report = json.loads(proc.stdout)
    assert report["total_t"] == 0.0


@pytest.mark.parametrize("shots", ["0", "600", "60000"])
def test_resources_table_prices_the_shots_of_the_report(shots):
    """Each ``--table`` row carries the totals ``--n-orbitals`` reports at the same ``--shots``."""
    counts = [row[0] for row in REFERENCE_COSTS]
    table = run_cli("resources", "--table", ",".join(map(str, counts)), "--shots", shots)
    rows = [line.split(",") for line in table.stdout.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == counts
    for row in rows:
        report = json.loads(run_cli("resources", "--n-orbitals", row[0],
                                    "--shots", shots).stdout)
        assert (float(row[2]), float(row[3])) == (report["total_t"], report["total_volume"])


def test_resources_zero_orbitals_reach_the_model():
    """``--n-orbitals 0`` is refused by the rotation model, which names the count."""
    proc = run_cli("resources", "--n-orbitals", "0", check=False)
    error = json.loads(proc.stderr)["error"]
    assert proc.returncode == 1 and error["kind"] == "invalid_config"
    assert "0 orbitals" in error["message"]


def test_validate_subcommand_passes():
    proc = run_cli("validate")
    n = len(validate.ALL_CHECKS)
    assert f"{n}/{n} checks passed" in proc.stdout
    assert not any(line.startswith("FAIL") for line in proc.stdout.splitlines())
