"""Regenerate the committed CLI regression baselines.

Run from the repository root after an intentional behavior change:

    python scripts/make_baselines.py

tests/test_cli.py runs the commands and compares the files defined below.
Before a spectrum file is overwritten, its distance to the Slater-Condon
oracle is printed for the committed bytes and for the new ones: max |G -
oracle.exact_greens| for a greens_*.json, and max |S - `dsfsim oracle`| on
the same grid for a CSV.
"""
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from dsfsim import oracle
from dsfsim import spectrum as sp
from dsfsim.operators import load_dipole_json

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ROOT / "tests" / "baselines"

FIXTURE = ["gen-fixtures", "--kind", "random_two_body", "--n-orbitals", "2",
           "--n-electrons", "2", "--seed", "7"]
EXACT = ["spectrum", "--mode", "exact", "--eta", "0.02", "--delta", "2.0",
         "--epsilon-trunc", "1e-6", "--k", "8", "--shots", "600",
         "--q", "1,1,1", "--seed", "0"]
SAMPLED = ["spectrum", "--mode", "sampled", "--eta", "0.02", "--delta", "2.0",
           "--epsilon-trunc", "1e-6", "--k", "8", "--shots", "6000",
           "--q", "1,1,1", "--seed", "42"]
EXACT_FILES = ["dsf_q0.csv", "intensity_xx.csv", "intensity_xy.csv",
               "greens_xy.json", "greens_zz.json"]
SAMPLED_FILES = ["dsf_q0.csv", "greens_xy.json"]
# `dsfsim resources` commands and the file each writes under --out.
RESOURCES = [(["resources", "--table", "14..30"], "resources_table.csv"),
             (["resources", "--n-orbitals", "22"], "resources.json")]


def cli(*args):
    subprocess.run([sys.executable, "-m", "dsfsim", *args], check=True)


def oracle_flags(args):
    """The `dsfsim oracle` command on the grid and momenta of spectrum ``args``."""
    flags = dict(zip(args[1::2], args[2::2]))
    return ["oracle"] + [t for name in ("--eta", "--delta", "--q")
                         for t in (name, flags[name])]


def oracle_distance(path, reference, trans):
    """max |value - oracle| of one output file; ``reference`` holds a `dsfsim
    oracle` run on the same inputs, ``trans`` its transition table."""
    if path.suffix == ".json":
        series = sp.series_from_json(path.read_text())
        eig = oracle.eigensystem_from_json((reference / "eigensystem.json").read_text())
        want = [oracle.exact_greens(eig, trans, series.pair, series.tau, n) for n in series.n]
        return float(np.max(np.abs(series.x + 1j * series.y - np.array(want))))
    got = sp.spectrum_from_csv(path.read_text())
    want = sp.spectrum_from_csv((reference / f"oracle_{path.name}").read_text())
    if not np.array_equal(got.omega, want.omega):
        raise ValueError(f"{path} and the oracle use different grids")
    return float(np.max(np.abs(got.values - want.values)))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fixture = tmp / "fixture"
        cli(*FIXTURE, "--out", str(fixture))
        inputs = ["--hamiltonian", str(fixture / "hamiltonian.fcidump"),
                  "--dipoles", str(fixture / "dipoles.json")]
        dipole = load_dipole_json((fixture / "dipoles.json").read_text())
        for name, args, files in (("exact_2orb", EXACT, EXACT_FILES),
                                  ("sampled_2orb", SAMPLED, SAMPLED_FILES)):
            out, reference = tmp / name, tmp / f"{name}_oracle"
            cli(*args, *inputs, "--out", str(out))
            cli(*oracle_flags(args), *inputs, "--out", str(reference))
            trans = oracle.transition_table(oracle.eigensystem_from_json(
                (reference / "eigensystem.json").read_text()), dipole)
            dest = BASELINES / name
            dest.mkdir(parents=True, exist_ok=True)
            for fname in files:
                old = (oracle_distance(dest / fname, reference, trans)
                       if (dest / fname).exists() else None)
                new = oracle_distance(out / fname, reference, trans)
                print(f"{name}/{fname}: max |value - oracle| {old!r} committed, "
                      f"{new!r} new")
                shutil.copy(out / fname, dest / fname)
                print(f"wrote {dest / fname}")
        dest = BASELINES / "resources"
        dest.mkdir(parents=True, exist_ok=True)
        for args, fname in RESOURCES:
            out = tmp / "resources"
            cli(*args, "--out", str(out))
            shutil.copy(out / fname, dest / fname)
            print(f"wrote {dest / fname}")


if __name__ == "__main__":
    main()
