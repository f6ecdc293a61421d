"""The benchmark's traced and pool children run on the CLI's own chain."""
import importlib.util
from pathlib import Path

from dsfsim import cli, fixtures

ROOT = Path(__file__).resolve().parent.parent
# perfbench/selftest.py's sampled schedule
SAMPLED = ["--mode", "sampled", "--shots", "6000", "--eta", "0.02", "--delta", "2.0",
           "--epsilon-trunc", "1e-6", "--k", "8", "--q", "1,1,1"]


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child",
                                                  ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_traced_child_writes_the_cli_bytes(tmp_path, monkeypatch):
    """``run_traced`` writes every output of ``cli.main`` byte for byte (the
    manifest aside), and ``run_pool`` completes, on the 2-orbital fixture."""
    monkeypatch.setenv("DSF_SIM_THREADS", "1")
    child = _load_child()
    paths = fixtures.write_fixture(fixtures.TWO_ORBITAL_SPEC, tmp_path / "inputs")
    argv = SAMPLED + ["--hamiltonian", paths["hamiltonian"], "--dipoles", paths["dipoles"]]
    assert cli.main(["spectrum", *argv, "--out", str(tmp_path / "cli")]) == 0
    tracer = child.Tracer("traced")
    child.run_traced(tracer, argv + ["--out", str(tmp_path / "traced")])
    pool = child.Tracer("pool")
    child.run_pool(pool, argv + ["--out", str(tmp_path / "pool")])
    names = sorted(p.name for p in (tmp_path / "cli").iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in (tmp_path / "traced").iterdir()
                           if p.name != "manifest.json")
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() \
            == (tmp_path / "cli" / name).read_bytes(), name
    assert tracer.counts["ci.state_dim"] == 16
    assert {s["name"] for s in pool.spans} == {"spectrum.measure_pool", "emulator.step"}
