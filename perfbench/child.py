"""One benchmark run in a fresh interpreter.

Usage: python3 child.py <mode> <request.json> <result.json>

Modes:
  import    only import the entry point (a set-up sample)
  cli       ``dsfsim.cli.main(["spectrum", ...])``, untraced
  traced    the same chain, public functions called in ``cmd_spectrum``'s
            order, with a span around every call into a dsfsim module
  pool      the six ``measure_series`` calls on a pool of ``DSF_SIM_THREADS``
            workers, as ``cmd_spectrum`` runs them, then one outer
            ``apply_trotter`` step on one thread
  resample  stored-series reuse: load, then per seed resample, reconstruct
            and assemble; ``"trace": true`` in the request records spans

Every run is a fresh process because ``spectrum._cached_step_matrix`` is an
``lru_cache``: repeating runs in one process would hide the dense-step build
that every real CLI invocation pays.  The import of dsfsim is timed on its
own and is not part of ``run_s``.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

class Tracer:
    """In-memory spans (name, start, end, parent, run id) plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        parent = getattr(self._local, "current", None)
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        self._local.current = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._local.current = parent
            self.spans[sid] = {"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "run": self.run_id}

    def job(self, name: str, fn, *args):
        """Submit-side wrapper for a pool job: records the wait before start."""
        parent = getattr(self._local, "current", None)
        submitted = time.perf_counter()

        def run():
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                end = time.perf_counter()
                with self._lock:
                    self.spans.append({"id": len(self.spans), "name": name,
                                       "start": start, "end": end, "parent": parent,
                                       "run": self.run_id, "submitted": submitted})
        return run

    def count(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(value)


class NullTracer(Tracer):
    """Same interface, records nothing (the untraced resample run)."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value: int) -> None:
        pass


def _write(tr: Tracer, path: Path, text: str) -> None:
    data = text.encode()
    path.write_bytes(data)
    tr.count("spectrum.bytes_written", len(data))


def _sector(cfg, header) -> tuple[int, int]:
    if cfg.n_alpha is not None and cfg.n_beta is not None:
        return cfg.n_alpha, cfg.n_beta
    nelec, ms2 = header.get("NELEC", 0), header.get("MS2", 0)
    n_alpha = (nelec + ms2) // 2
    return n_alpha, nelec - n_alpha


def _setup_chain(tr: Tracer, argv: list[str]):
    """Config, inputs, ground state, states, plan and program, as the CLI does."""
    import numpy as np
    from dsfsim import cli, emulator, operators, oracle
    from dsfsim import spectrum as sp

    cfg = cli.load_config(cli.build_parser().parse_args(["spectrum", *argv]))
    with tr.span("operators.parse"):
        h, header = operators.read_fcidump_file(cfg.hamiltonian)
        dip = operators.load_dipole_json(Path(cfg.dipoles).read_text())
    with tr.span("oracle.solve"):
        eig = oracle.solve_sector(h, *_sector(cfg, header))
        psi0 = eig.eigenvector(0)
    tr.count("oracle.sector_dim", len(eig.basis))
    with tr.span("operators.jw"):
        psum = operators.jordan_wigner(h)
    tr.count("operators.pauli_terms", len(psum.terms))
    e0 = eig.ground_energy
    eta = cfg.eta_hartree
    if cfg.delta is not None:
        delta = float(cfg.delta)
    else:
        delta = 1.05 * float(np.max(eig.energies) - e0) + 5.0 * eta
    with tr.span("spectrum.prepare"):
        states = sp.prepare_dipole_states(psi0, dip,
                                          core_orbitals=cfg.cvs or None)
    tr.count("ci.state_dim", max(len(v) for v in states.vectors.values()
                                 if v is not None))
    with tr.span("spectrum.plan"):
        plan = sp.plan_run(eta, delta, cfg.epsilon_trunc, cfg.shots,
                           states.moments, cfg.q_vectors, k=cfg.trotter_k)
    with tr.span("emulator.compile"):
        prog = emulator.build_trotter(psum.shifted_identity(-e0), plan.tau, plan.k)
    tr.count("emulator.program_terms", len(prog.terms))
    return cfg, eta, states, plan, prog


def run_traced(tr: Tracer, argv: list[str]) -> None:
    """``cmd_spectrum`` with a span around each call into dsfsim."""
    import concurrent.futures
    import dataclasses
    import hashlib
    from dsfsim import spectrum as sp

    cfg, eta, states, plan, prog = _setup_chain(tr, argv)
    threads = int(os.environ.get("DSF_SIM_THREADS", "0")) or None
    with tr.span("spectrum.measure"):
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {pair: pool.submit(tr.job("spectrum.measure_series",
                                                sp.measure_series, pair, plan,
                                                states, prog, cfg.mode, cfg.seed))
                       for pair in sp.PAIR_KEYS}
            series = {pair: fut.result() for pair, fut in futures.items()}
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    shift_ha = cfg.shift_ev / sp.HARTREE_TO_EV

    def shifted(spec):
        if shift_ha == 0.0:
            return spec
        return sp.Spectrum(spec.omega + shift_ha, spec.values, spec.eta,
                           kind=spec.kind, label=spec.label)

    with tr.span("spectrum.reconstruct"):
        grid = sp.default_omega_grid(plan.tau, eta)
    contribs = {}
    for pair, ser in series.items():
        with tr.span("spectrum.serialize"):
            _write(tr, outdir / f"greens_{pair}.json", sp.series_to_json(ser) + "\n")
        with tr.span("spectrum.reconstruct"):
            contribs[pair] = sp.reconstruct_intensity(ser, grid)
        with tr.span("spectrum.serialize"):
            _write(tr, outdir / f"intensity_{pair}.csv",
                   sp.spectrum_to_csv(shifted(contribs[pair])))
    for i, q in enumerate(cfg.q_vectors):
        with tr.span("spectrum.assemble"):
            dsf = sp.assemble_dsf(q, contribs)
        with tr.span("spectrum.serialize"):
            _write(tr, outdir / f"dsf_q{i}.csv", sp.spectrum_to_csv(shifted(dsf)))
    # The manifest is not byte-compared; it repeats the CLI's hashing and dump.
    inputs = {name: {"path": p, "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
              for name, p in (("hamiltonian", cfg.hamiltonian),
                              ("dipoles", cfg.dipoles))}
    manifest = {"parameters": dataclasses.asdict(cfg), "inputs": inputs,
                "derived": {"tau": plan.tau, "n_max": plan.n_max,
                            "budgets": plan.budgets, "dipole_norms": states.norms}}
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def run_pool(tr: Tracer, argv: list[str]) -> None:
    """The measurement pool at ``DSF_SIM_THREADS`` workers; one Trotter step."""
    import concurrent.futures
    from dsfsim import emulator
    from dsfsim import spectrum as sp

    cfg, _, states, plan, prog = _setup_chain(Tracer("setup"), argv)
    threads = int(os.environ["DSF_SIM_THREADS"])
    with tr.span("spectrum.measure_pool"):
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(sp.measure_series, pair, plan, states, prog,
                                   cfg.mode, cfg.seed) for pair in sp.PAIR_KEYS]
            for fut in futures:
                fut.result()
    ket = next(v for v in states.vectors.values() if v is not None)
    with tr.span("emulator.step"):
        emulator.apply_trotter(ket, prog, 1)


def run_resample(tr: Tracer, req: dict) -> None:
    """Reassemble stored exact series for new q, with resampled error bars."""
    import numpy as np
    from dsfsim import spectrum as sp
    from dsfsim.operators import QVector

    series_dir, outdir = Path(req["series_dir"]), Path(req["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    with tr.span("spectrum.load"):
        series = {pair: sp.series_from_json(
            (series_dir / f"greens_{pair}.json").read_text()) for pair in sp.PAIR_KEYS}
    qs = [QVector(*q) for q in req["q"]]
    q_norms = [float(np.linalg.norm(q)) for q in req["q"]]
    ki, kf = req["k_in"], req["k_out"]
    first = series["xx"]
    with tr.span("spectrum.reconstruct"):
        grid = sp.default_omega_grid(first.tau, first.eta)
    sums = None
    for seed in req["resample_seeds"]:
        with tr.span("spectrum.sample"):
            drawn = {pair: sp.resample_series(s, seed) for pair, s in series.items()}
        with tr.span("spectrum.reconstruct"):
            contribs = {pair: sp.reconstruct_intensity(s, grid)
                        for pair, s in drawn.items()}
        with tr.span("spectrum.assemble"):
            dsfs = [sp.assemble_dsf(q, contribs) for q in qs]
            iso = sp.isotropic_dsf(q_norms[0], contribs)
            xsec = [sp.cross_section(d, ki, kf, qn) for d, qn in zip(dsfs, q_norms)]
        spectra = dsfs + [iso] + xsec
        values = [s.values for s in spectra]
        sums = values if sums is None else [a + b for a, b in zip(sums, values)]
        with tr.span("spectrum.serialize"):
            for i, dsf in enumerate(dsfs):
                _write(tr, outdir / f"dsf_s{seed}_q{i}.csv", sp.spectrum_to_csv(dsf))
    n_seeds = len(req["resample_seeds"])
    names = [f"mean_dsf_q{i}" for i in range(len(qs))] + ["mean_iso"] \
        + [f"mean_xsec_q{i}" for i in range(len(qs))]
    with tr.span("spectrum.serialize"):
        for name, spec, total in zip(names, spectra, sums):
            mean = sp.Spectrum(grid, total / n_seeds, spec.eta, kind=spec.kind,
                               label=spec.label)
            _write(tr, outdir / f"{name}.csv", sp.spectrum_to_csv(mean))


def main() -> int:
    mode, req_path, out_path = sys.argv[1:4]
    req = json.loads(Path(req_path).read_text())
    start = time.perf_counter()
    if mode == "resample":
        import dsfsim.spectrum as entry
    else:
        import dsfsim.cli as entry
    import_s = time.perf_counter() - start
    result = {"import_s": import_s, "module": entry.__file__, "exit": 0}
    tr = Tracer(req.get("run_id", mode))
    begin = time.perf_counter()
    if mode == "cli":
        result["exit"] = entry.main(["spectrum", *req["argv"]])
    elif mode == "traced":
        run_traced(tr, req["argv"])
    elif mode == "pool":
        run_pool(tr, req["argv"])
    elif mode == "resample":
        run_resample(tr if req.get("trace") else NullTracer(tr.run_id), req)
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    result["run_s"] = time.perf_counter() - begin
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["spans"] = [dict(s, start=s["start"] - begin, end=s["end"] - begin,
                            **({"submitted": s["submitted"] - begin}
                               if "submitted" in s else {}))
                       for s in tr.spans]
    result["counts"] = tr.counts
    Path(out_path).write_text(json.dumps(result))
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
