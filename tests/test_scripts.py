"""The scripts run end to end: the studies on the core-valence toy, and the
input-fault sweep on one input kind."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, line", [
    ("run_toy_eels.py", ["--out", "{tmp}/out"], "window 22.79 Ha, tau 0.1379, n_max 604"),
    ("trotter_convergence.py", ["--ks", "1", "2"], "   1     7.296e-04     3.980e-05"),
    ("resource_table.py", [], "samples/pair = 1549, volume/T = 27.15, qubits = 2 N + 64"),
    ("fault_sweep.py", ["--kind", "csv"], "csv: 110 mutations, 0 runs, 0 faults"),
])
def test_script_prints_expected_line(tmp_path, script, args, line):
    args = [a.format(tmp=tmp_path) for a in args]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
