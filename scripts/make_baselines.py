"""Regenerate the committed CLI regression baselines.

Run from the repository root after an intentional behavior change:

    python scripts/make_baselines.py

tests/test_cli.py runs the commands and compares the files defined below.
"""
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fixture = tmp / "fixture"
        cli(*FIXTURE, "--out", str(fixture))
        inputs = ["--hamiltonian", str(fixture / "hamiltonian.fcidump"),
                  "--dipoles", str(fixture / "dipoles.json")]
        for name, args, files in (("exact_2orb", EXACT, EXACT_FILES),
                                  ("sampled_2orb", SAMPLED, SAMPLED_FILES)):
            out = tmp / name
            cli(*args, *inputs, "--out", str(out))
            dest = BASELINES / name
            dest.mkdir(parents=True, exist_ok=True)
            for fname in files:
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
