"""dsfsim benchmark: three workloads of the spectrum chain, timed end to end.

    python3 perfbench/run.py --workload toy4_sampled --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; dsfsim is imported from ``src/``.
The loop is closed: one run at a time, each in a fresh interpreter, repeated
until ``--seconds`` have passed.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from a traced run next to an
untraced one.  The last line of standard output is the JSON result; earlier
lines record the environment, the work sizes and every run.
See perfbench/README.md for the workloads and what each metric predicts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
CHILD = Path(__file__).resolve().parent / "child.py"

CHILD_TIMEOUT_S = 170.0
SETUP_SAMPLES = 7
BLAS_THREADS = 1
# The timed runs use one measurement worker.  With one per CPU the six
# GIL-bound measure_series jobs run slower, not faster (spectrum.pool_speedup
# < 1), and on a shared 2-vCPU VM they draw twice the hypervisor steal, which
# made run_s spread over 30 % between invocations.  The pool at one worker per
# CPU is timed on its own in the traced run ("pool" child).
RUN_THREADS = 1
POOL_THREADS = len(os.sched_getaffinity(0))
RESAMPLE_Q = [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.3, 0.2, 1.0]]
K_IN, K_OUT = 10.0, 9.5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "chain": dsfsim spectrum; "resample": stored-series reuse
    model: dict           # fixtures.ModelSpec fields except the seed
    flags: tuple          # spectrum flags; for "resample", those of the set-up run
    gates: tuple          # keys of gates.TOLERANCE checked on every run
    resamples: int = 0


WORKLOADS = {w.name: w for w in (
    # The README command: dense-step path, long series, big grid, sampled.
    Workload("toy4_sampled", "chain",
             dict(n_orbitals=4, n_electrons=4, kind="core_valence_toy", core_gap=20.0),
             ("--mode", "sampled", "--shots", "10000", "--eta", "0.06",
              "--q", "1,1,1"), ("dsf", "chi2")),
    # 12 qubits on the sweep path, schedule pinned to n_max = 2: evolution-bound.
    Workload("rand6_exact", "chain",
             dict(n_orbitals=6, n_electrons=4, kind="random_two_body"),
             ("--mode", "exact", "--eta", "1.0", "--delta", "12",
              "--epsilon-trunc", repr(math.exp(-0.5)), "--q", "1,1,1"), ("greens",)),
    # No evolution or ED in the timed run: sampling, reconstruction, assembly.
    Workload("toy4_resample", "resample",
             dict(n_orbitals=4, n_electrons=4, kind="core_valence_toy", core_gap=20.0),
             ("--mode", "exact", "--eta", "0.06", "--q", "1,1,1"), ("resample",),
             resamples=8),
)}


def child_env(threads: int = RUN_THREADS) -> dict:
    env = dict(os.environ)
    # Installed packages run from cached bytecode; so do the children, once the
    # set-up import has written it, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["DSF_SIM_THREADS"] = str(threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(mode: str, request: dict, tag: str, workdir: Path,
              threads: int = RUN_THREADS) -> dict:
    """Run one fresh interpreter and return its result (``exit`` != 0 on failure)."""
    req_path = workdir / f"{tag}.request.json"
    out_path = workdir / f"{tag}.result.json"
    req_path.write_text(json.dumps(request))
    try:
        proc = subprocess.run([sys.executable, str(CHILD), mode, str(req_path),
                               str(out_path)], env=child_env(threads), cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout"}
    if not out_path.exists():
        return {"exit": proc.returncode or 1, "stderr": proc.stderr[-2000:]}
    result = json.loads(out_path.read_text())
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"dsfsim was imported from {result['module']}, not {SRC}")
    result["exit"] = result["exit"] or proc.returncode
    if result["exit"]:
        result["stderr"] = proc.stderr[-2000:]
    return result


def same_outputs(a: Path, b: Path) -> bool:
    """Byte-identical series, intensity and spectrum files (manifest excluded)."""
    names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
    other = sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
    return names == other and all((a / n).read_bytes() == (b / n).read_bytes()
                                  for n in names)


def sample_draws(series) -> int:
    """(pair, n, Re/Im) binomial draws with shots > 0, as ``measure_series`` makes."""
    total = 0
    for ser in series.values():
        if ser.norm_product != 0.0:
            total += sum((s - s // 2 > 0) + (s // 2 > 0) for s in map(int, ser.shots))
    return total


class Bench:
    """Set-up, the timed loop, the gates and the metrics of one workload run."""

    def __init__(self, workload: Workload, seed: int, spec_override=None):
        from dsfsim import fixtures, operators
        import gates

        self.w = workload
        self.g = gates
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        spec = spec_override or fixtures.ModelSpec(seed=seed, **workload.model)
        paths = fixtures.write_fixture(spec, self.dir / "model")
        h, dipole = fixtures.generate(spec)
        self.ref = gates.Reference(h, dipole, spec.sector)
        self.base_sizes = {"qubits": 2 * spec.n_orbitals,
                           "sector_dim": len(self.ref.eig.basis),
                           "terms": len(operators.jordan_wigner(h).terms)}
        self.argv = list(workload.flags) + [
            "--hamiltonian", paths["hamiltonian"], "--dipoles", paths["dipoles"],
            "--seed", str(seed)]
        self.runs: list[dict] = []
        self.failures: list[str] = []
        self.setup_samples: list[float] = []
        self.sizes: dict = {}
        # Compile bytecode and warm the file cache before anything is timed.
        warm = self._child("import", {}, "warm", count=False)
        if warm["exit"]:
            raise SystemExit(f"dsfsim does not import: {warm.get('stderr')}")
        if workload.kind == "resample":
            series_dir = self.dir / "series"
            made = self._child("cli", {"argv": self.argv + ["--out", str(series_dir)]},
                               "series", count=False)
            if made["exit"]:
                raise SystemExit(f"set-up run failed: {made.get('stderr')}")
            series = gates.load_series(series_dir)
            err = gates.greens_error(series, self.ref, math.pi / self.schedule()[1])
            if not err <= gates.TOLERANCE["stored"]:
                raise SystemExit(f"stored exact series off the oracle by {err:.3e}")
            self.series_dir = series_dir
            self.expected = gates.reference_resample_outputs(
                series, RESAMPLE_Q, K_IN, K_OUT)
            self.resample_seeds = [1000 * seed + r for r in range(workload.resamples)]

    # -- one run -----------------------------------------------------------
    def _child(self, mode: str, request: dict, tag: str, count: bool = True,
               threads: int = RUN_THREADS) -> dict:
        result = run_child(mode, request, tag, self.dir, threads)
        if "import_s" in result and count:
            self.setup_samples.append(result["import_s"])
        return result

    def _request(self, mode: str, out: Path, traced: bool) -> tuple[str, dict]:
        if self.w.kind == "chain":
            return mode, {"argv": self.argv + ["--out", str(out)]}
        return "resample", {"series_dir": str(self.series_dir), "out": str(out),
                            "q": RESAMPLE_Q, "k_in": K_IN, "k_out": K_OUT,
                            "resample_seeds": self.resample_seeds, "trace": traced}

    def run_once(self, tag: str, traced: bool = False) -> dict:
        out = self.dir / tag
        shutil.rmtree(out, ignore_errors=True)
        mode, request = self._request("traced" if traced else "cli", out, traced)
        request["run_id"] = tag
        result = self._child(mode, request, tag)
        result["out"] = out
        result["tag"] = tag
        self.runs.append(result)
        if result["exit"]:
            self.failures.append(f"{tag}: exit {result['exit']}: "
                                 f"{result.get('stderr', '')}")
            return result
        result["error"] = errors = self.check(out)
        for name, err in errors.items():
            if not err <= self.g.TOLERANCE[name]:
                result["exit"] = "gate"
                self.failures.append(f"{tag}: {name} error {err:.3e} over "
                                     f"{self.g.TOLERANCE[name]:.1e}")
        return result

    def schedule(self) -> tuple[float, float]:
        """(eta, spectral window) the runs must use, from the flags and oracle."""
        eta = float(self.argv[self.argv.index("--eta") + 1])
        if "--delta" in self.argv:
            return eta, float(self.argv[self.argv.index("--delta") + 1])
        return eta, self.ref.default_window(eta)

    def check(self, out: Path) -> dict[str, float]:
        """Oracle gates on one run's outputs; also records its work sizes."""
        g = self.g
        from dsfsim import spectrum as sp
        if self.w.kind == "resample":
            first = sp.spectrum_from_csv((out / "mean_dsf_q0.csv").read_text())
            self.sizes = dict(self.base_sizes, grid_points=len(first.omega),
                              resamples=len(self.resample_seeds))
            return {"resample": g.resample_error(out, self.expected)}
        series = g.load_series(out)
        n_max = series["xx"].n_max
        dsf = sp.spectrum_from_csv((out / "dsf_q0.csv").read_text())
        self.sizes = dict(self.base_sizes, n_max=n_max, grid_points=len(dsf.omega))
        eta, delta = self.schedule()
        tau = math.pi / delta  # the schedule's step, not the one the run reports
        errors = {"greens": lambda: g.greens_error(series, self.ref, tau),
                  "chi2": lambda: g.shot_chi2(series, self.ref, tau),
                  "dsf": lambda: g.dsf_error(dsf, self.ref, [1.0, 1.0, 1.0], eta, delta)}
        return {name: errors[name]() for name in self.w.gates}

    # -- traced iteration --------------------------------------------------
    def traced_iteration(self, i: int) -> dict | None:
        """Untraced run, traced run (and the pool at one worker per CPU)."""
        plain = self.run_once(f"plain{i}")
        traced = self.run_once(f"traced{i}", traced=True)
        if plain["exit"] or traced["exit"]:
            return None
        if not same_outputs(plain["out"], traced["out"]):
            self.failures.append(f"traced{i}: outputs differ from the untraced run")
            return None
        pool = None
        if self.w.kind == "chain":
            out = self.dir / f"pool{i}"
            pool = self._child("pool", {"argv": self.argv + ["--out", str(out)]},
                               f"pool{i}", threads=POOL_THREADS)
            if pool["exit"]:
                self.failures.append(f"pool{i}: exit {pool['exit']}: "
                                     f"{pool.get('stderr', '')}")
                return None
        return self.layer_metrics(plain, traced, pool)

    def layer_metrics(self, plain: dict, traced: dict, pool: dict | None) -> dict:
        from dsfsim import spectrum as sp
        spans = traced["spans"]

        def total(name, source=spans):
            return sum(s["end"] - s["start"] for s in source if s["name"] == name)

        jobs = [s for s in spans if s["name"] == "spectrum.measure_series"]
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        counts = traced["counts"]
        out = traced["out"]
        if self.w.kind == "chain":
            series = self.g.load_series(out)
            n_max = series["xx"].n_max
            grid = len(sp.spectrum_from_csv((out / "dsf_q0.csv").read_text()).omega)
            recon_calls = len(series)
            draws = sample_draws(series) if "sampled" in self.argv else 0
        else:
            series = self.g.load_series(self.series_dir)
            n_max = series["xx"].n_max
            grid = self.sizes["grid_points"]
            recon_calls = len(series) * len(self.resample_seeds)
            draws = sample_draws(series) * len(self.resample_seeds)
        wall = total("spectrum.measure")
        pool_s = total("spectrum.measure_pool", pool["spans"]) if pool else 0.0
        return {
            "operators.parse_s": total("operators.parse"),
            "operators.jw_s": total("operators.jw"),
            "operators.pauli_terms": counts.get("operators.pauli_terms", 0),
            "oracle.solve_s": total("oracle.solve"),
            "oracle.sector_dim": counts.get("oracle.sector_dim", 0),
            "spectrum.prepare_s": total("spectrum.prepare"),
            "ci.state_dim": counts.get("ci.state_dim", 0),
            "emulator.compile_s": total("emulator.compile"),
            "emulator.program_terms": counts.get("emulator.program_terms", 0),
            "emulator.step_s": total("emulator.step", pool["spans"]) if pool else 0.0,
            "spectrum.measure_wall_s": wall,
            "spectrum.measure_busy_s": sum(s["end"] - s["start"] for s in jobs),
            "spectrum.measure_wait_s": sum(s["start"] - s["submitted"] for s in jobs),
            "spectrum.measure_pool_s": pool_s,
            "spectrum.pool_speedup": wall / pool_s if pool_s > 0 else 0.0,
            "spectrum.points": sum(s.n_max for s in series.values())
            if self.w.kind == "chain" else 0,
            "spectrum.n_max": n_max,
            "spectrum.sample_s": total("spectrum.sample"),
            "spectrum.sample_draws": draws,
            "spectrum.reconstruct_s": total("spectrum.reconstruct"),
            "spectrum.grid_points": grid,
            "spectrum.reconstruct_terms": recon_calls * n_max * grid,
            "spectrum.assemble_s": total("spectrum.assemble"),
            "spectrum.load_s": total("spectrum.load"),
            "spectrum.serialize_s": total("spectrum.serialize"),
            "spectrum.bytes_written": counts.get("spectrum.bytes_written", 0),
            "cli.other_s": traced["run_s"] - top,
            "trace.overhead_s": traced["run_s"] - plain["run_s"],
        }

    # -- the timed loop ----------------------------------------------------
    def measure(self, seconds: float, trace: bool) -> dict:
        start = time.perf_counter()
        layer_rows = []
        i = 0
        while True:
            began = time.perf_counter()
            if trace:
                row = self.traced_iteration(i)
                if row is not None:
                    layer_rows.append(row)
            else:
                self.run_once(f"run{i}")
            i += 1
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        for i in range(SETUP_SAMPLES - len(self.setup_samples)):
            self._child("import", {}, f"import{i}")
        if trace:
            names = layer_rows[0].keys() if layer_rows else []
            return {n: statistics.median(row[n] for row in layer_rows) for n in names}
        good = [r for r in self.runs if r["exit"] == 0]

        def median(values):
            values = list(values)
            return statistics.median(values) if values else None
        return {"run_s": median(r["run_s"] for r in good),
                "setup_s": median(self.setup_samples),
                "peak_rss_mb": median(r["peak_rss_mb"] for r in good)}


def environment() -> dict:
    import numpy
    import scipy
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True).stdout.split()
    except FileNotFoundError:
        git = []
    # A checkout that is not itself a repository records no commit.
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    env = child_env()
    return {"nproc": len(os.sched_getaffinity(0)),
            "DSF_SIM_THREADS": int(env["DSF_SIM_THREADS"]),
            "pool_threads": POOL_THREADS,
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "commit": commit,
            "src_sha256": digest.hexdigest()}


UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "spectrum.pool_speedup":
        return "ratio"
    if name == "spectrum.bytes_written":
        return "bytes"
    return "count"


def report(b: Bench, metrics: dict) -> dict:
    """Print one line per run, the failures and the sizes; return the result."""
    for run in b.runs:
        print(json.dumps({"run": run["tag"], "exit": run["exit"],
                          "run_s": run.get("run_s"), "import_s": run.get("import_s"),
                          "peak_rss_mb": run.get("peak_rss_mb"),
                          "error": run.get("error")}))
    for failure in b.failures:
        print(json.dumps({"failure": failure}))
    print(json.dumps({"sizes": b.sizes, "setup_samples": b.setup_samples}))
    attempted = len(b.runs)
    failed = sum(1 for r in b.runs if r["exit"])
    correct = not b.failures and all(v is not None for v in metrics.values()) \
        and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dsfsim" / "cli.py").is_file():
        sys.stderr.write(f"dsfsim sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    b = Bench(WORKLOADS[args.workload], args.seed)
    result = report(b, b.measure(args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
