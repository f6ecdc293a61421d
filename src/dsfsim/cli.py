"""Command-line front end: spectrum | oracle | resources | validate | gen-fixtures.

Configuration comes from an optional JSON document plus flags of the same
name; flags win.  Every run writes a manifest with parameters, seeds, input
hashes, and package versions so it can be reproduced bit-exactly.  Failures
emit a machine-readable error JSON on stderr (exit code 2 for missing
inputs, 1 otherwise).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, ci as ci_mod, emulator, fixtures, oracle, validate
from . import spectrum as sp
from .operators import (QVector, jordan_wigner, load_dipole_json,
                        read_fcidump_file)
from .pauli import expectation
from .resources import (DEFAULT_MODEL, algorithm_cost, reference_plan,
                        report_to_json, resource_table, table_to_csv)
from .spectrum import HARTREE_TO_EV

EXIT_INPUT_NOT_FOUND = 2


class CliError(Exception):
    def __init__(self, kind: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.kind = kind
        self.exit_code = exit_code


@dataclass
class RunConfig:
    hamiltonian: str = ""
    dipoles: str = ""
    ground_state: str = "solve"
    mode: str = "exact"               # sampled | exact | oracle
    eta: str = "0.06"                 # Hartree by default; accepts "1.63eV"
    delta: float | None = None        # spectral window, Hartree
    epsilon_trunc: float = math.exp(-5.0)
    trotter_k: int = 4
    shots: int = 10000
    seed: int = 0
    q: list = field(default_factory=lambda: [[1.0, 1.0, 1.0]])
    cvs: list = field(default_factory=list)
    out: str = "out"
    shift_ev: float = 0.0
    n_alpha: int | None = None
    n_beta: int | None = None

    @property
    def eta_hartree(self) -> float:
        return parse_energy(self.eta)

    @property
    def q_vectors(self) -> list[QVector]:
        return [QVector(*map(float, triple)) for triple in self.q]


def parse_energy(text) -> float:
    """Energy literal: plain Hartree, or with a 'Ha'/'eV' suffix.

    Raises ``CliError("invalid_config")`` unless the value is a finite
    positive energy.
    """
    raw = str(text).strip()
    lowered = raw.lower()
    try:
        if isinstance(text, (int, float)):
            value = float(text)
        elif lowered.endswith("ev"):
            value = float(raw[:-2]) / HARTREE_TO_EV
        elif lowered.endswith("ha"):
            value = float(raw[:-2])
        else:
            value = float(raw)
    except (ValueError, OverflowError):
        raise CliError("invalid_config", f"not an energy: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise CliError("invalid_config", f"energy must be finite and positive: {text!r}")
    return value


def _parse_list(text: str, kind: type) -> list:
    try:
        return [kind(t) for t in text.split(",")] if text else []
    except ValueError:
        raise CliError("invalid_config",
                       f"not a comma-separated list of {kind.__name__}: {text!r}") from None


def _is_number(value, integer: bool = False) -> bool:
    """A finite int or float that is not a bool; an int when ``integer``."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    return (not integer and isinstance(value, float) and math.isfinite(value))


def _check_config(cfg: RunConfig) -> None:
    """Refuse a field of the wrong type or out of range with ``invalid_config``."""
    def refuse(name: str, what: str):
        raise CliError("invalid_config",
                       f"{name} must be {what}, got {getattr(cfg, name)!r}")

    for name in ("hamiltonian", "dipoles", "ground_state", "out"):
        if not isinstance(getattr(cfg, name), str):
            refuse(name, "a string")
    if cfg.mode not in ("sampled", "exact", "oracle"):
        refuse("mode", "sampled, exact or oracle")
    parse_energy(cfg.eta)
    if cfg.delta is not None and not (_is_number(cfg.delta) and cfg.delta > 0):
        refuse("delta", "a finite positive energy in Hartree")
    if not (_is_number(cfg.epsilon_trunc) and 0 < cfg.epsilon_trunc < 1):
        refuse("epsilon_trunc", "a number in (0, 1)")
    if not (_is_number(cfg.trotter_k, integer=True) and cfg.trotter_k >= 1):
        refuse("trotter_k", "an integer >= 1")
    if not (_is_number(cfg.shots, integer=True) and cfg.shots >= len(sp.PAIR_KEYS)):
        refuse("shots", "an integer of at least one shot per Cartesian pair")
    if not (_is_number(cfg.seed, integer=True) and cfg.seed >= 0):
        refuse("seed", "a non-negative integer")
    if not (isinstance(cfg.q, list) and all(
            isinstance(t, list) and len(t) == 3 and all(map(_is_number, t))
            for t in cfg.q)):
        refuse("q", "a list of finite three-component momenta")
    if not (isinstance(cfg.cvs, list) and all(
            _is_number(c, integer=True) and c >= 0 for c in cfg.cvs)):
        refuse("cvs", "a list of non-negative orbital indices")
    if not _is_number(cfg.shift_ev):
        refuse("shift_ev", "a finite number of eV")
    for name in ("n_alpha", "n_beta"):
        value = getattr(cfg, name)
        if value is not None and not (_is_number(value, integer=True) and value >= 0):
            refuse(name, "a non-negative integer")


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise CliError("input_not_found", f"config file {path} does not exist",
                           EXIT_INPUT_NOT_FOUND)
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            raise CliError("invalid_config", f"config file {path}: {exc}") from None
        if not isinstance(doc, dict):
            raise CliError("invalid_config", f"config file {path} is not a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(doc) - known
        if unknown:
            raise CliError("invalid_config", f"unknown config fields: {sorted(unknown)}")
        for key, value in doc.items():
            setattr(cfg, key, value)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name == "q":
            value = [_parse_list(t, float) for t in value]
        elif f.name == "cvs":
            value = _parse_list(value, int)
        setattr(cfg, f.name, value)
    _check_config(cfg)
    return cfg


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require_file(path_str: str, what: str) -> Path:
    if not path_str:
        raise CliError("invalid_config", f"no {what} path configured")
    path = Path(path_str)
    if not path.exists():
        raise CliError("input_not_found", f"{what} file {path} does not exist",
                       EXIT_INPUT_NOT_FOUND)
    return path


def _load_inputs(cfg: RunConfig):
    """Read the FCIDUMP and dipole files and check that they fit together.

    Returns (hamiltonian path, dipole path, Hamiltonian, header, dipoles).
    """
    ham_path = _require_file(cfg.hamiltonian, "hamiltonian")
    dip_path = _require_file(cfg.dipoles, "dipole")
    h, header = read_fcidump_file(ham_path)
    dip = load_dipole_json(dip_path.read_text())
    if dip.n_orbitals != h.n_orbitals:
        raise CliError("invalid_config", "dipole and Hamiltonian orbital counts differ")
    if any(c >= h.n_orbitals for c in cfg.cvs):
        raise CliError("invalid_config",
                       f"core orbitals {cfg.cvs} outside the {h.n_orbitals} orbitals")
    return ham_path, dip_path, h, header, dip


def _load_ground_state(cfg: RunConfig, h, header):
    """Returns (psi0, E0_or_None, eigensystem_or_None)."""
    if cfg.ground_state == "solve":
        n_alpha = cfg.n_alpha
        n_beta = cfg.n_beta
        if n_alpha is None or n_beta is None:
            nelec = header.get("NELEC", 0)
            ms2 = header.get("MS2", 0)
            if nelec <= 0:
                raise CliError("invalid_config",
                               "cannot solve: electron count unknown "
                               "(set NELEC in FCIDUMP or n_alpha/n_beta)")
            n_alpha = (nelec + ms2) // 2
            n_beta = nelec - n_alpha
        if not (0 <= n_alpha <= h.n_orbitals and 0 <= n_beta <= h.n_orbitals):
            raise CliError("invalid_config",
                           f"sector ({n_alpha}, {n_beta}) does not fit "
                           f"{h.n_orbitals} orbitals")
        try:
            eig = oracle.solve_sector(h, n_alpha, n_beta)
        except oracle.SectorTooLarge as exc:
            raise CliError("budget_exceeded", str(exc)) from None
        return eig.eigenvector(0), eig.ground_energy, eig
    path = _require_file(cfg.ground_state, "ground state")
    text = path.read_text()
    if path.suffix == ".jsonl":
        return ci_mod.read_civector_jsonl(text), None, None
    doc_eig = oracle.eigensystem_from_json(text)
    return doc_eig.eigenvector(0), doc_eig.ground_energy, doc_eig


def _resolve_window(cfg: RunConfig, eig, eta: float) -> float:
    if cfg.delta is not None:
        return float(cfg.delta)
    if eig is None:
        raise CliError("invalid_config",
                       "delta is required when the ground state is supplied "
                       "as a file")
    span = float(np.max(eig.energies) - eig.ground_energy)
    return 1.05 * span + 5.0 * eta


def _manifest(cfg: RunConfig, extra: dict, inputs: dict[str, Path]) -> dict:
    return {
        "parameters": dataclasses.asdict(cfg),
        "inputs": {k: {"path": str(p), "sha256": _sha256(p)}
                   for k, p in inputs.items()},
        "versions": {"dsfsim": __version__, "numpy": np.__version__},
        **extra,
    }


def _write(outdir: Path, name: str, text: str) -> None:
    (outdir / name).write_text(text)


def _omega_grids(delta: float, eta: float, shift_ev: float):
    """The omega grid of the window and its copy shifted by ``shift_ev`` for output.

    Refused with ``invalid_config`` unless the window holds two grid points
    and the shifted points stay distinct.
    """
    grid = sp.default_omega_grid(math.pi / delta, eta)
    if len(grid) < 2:
        raise CliError("invalid_config",
                       f"delta {delta!r} Ha is narrower than the grid step eta/5 "
                       f"({eta / 5.0!r} Ha)")
    shown = grid + shift_ev / HARTREE_TO_EV
    if np.any(np.diff(shown) <= 0):
        raise CliError("invalid_config",
                       f"shift_ev {shift_ev!r} merges points of the omega grid")
    return grid, shown


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    if cfg.mode == "oracle":
        return cmd_oracle(args)
    eta = cfg.eta_hartree
    ham_path, dip_path, h, header, dip = _load_inputs(cfg)
    psi0, e0, eig = _load_ground_state(cfg, h, header)
    delta = _resolve_window(cfg, eig, eta)
    grid, shown = _omega_grids(delta, eta, cfg.shift_ev)
    try:
        states = sp.prepare_dipole_states(psi0, dip, core_orbitals=cfg.cvs or None)
    except emulator.StepTooLarge as exc:
        raise CliError("budget_exceeded", str(exc)) from None
    psum = jordan_wigner(h)
    if e0 is None:
        e0 = expectation(psum, ci_mod.ci_to_statevector(psi0)) \
            / max(psi0.norm() ** 2, 1e-300)
    try:
        plan = sp.plan_run(eta, delta, cfg.epsilon_trunc, cfg.shots,
                           states.moments, cfg.q_vectors, k=cfg.trotter_k)
    except sp.NoDipoleIntensity as exc:
        raise CliError("no_dipole_intensity", str(exc)) from None
    except ValueError as exc:
        raise CliError("invalid_config", str(exc)) from None
    prog = emulator.build_trotter(psum.shifted_identity(-e0), plan.tau, plan.k)
    series = {pair: sp.measure_series(pair, plan, states, prog, cfg.mode, cfg.seed)
              for pair in sp.PAIR_KEYS}
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    contribs = {}
    for pair, ser in series.items():
        _write(outdir, f"greens_{pair}.json", sp.series_to_json(ser) + "\n")
        contribs[pair] = sp.reconstruct_intensity(ser, grid)
        _write(outdir, f"intensity_{pair}.csv",
               sp.spectrum_to_csv(dataclasses.replace(contribs[pair], omega=shown)))
    for i, q in enumerate(cfg.q_vectors):
        dsf = sp.assemble_dsf(q, contribs)
        _write(outdir, f"dsf_q{i}.csv",
               sp.spectrum_to_csv(dataclasses.replace(dsf, omega=shown)))
    manifest = _manifest(cfg, {
        "derived": {
            "tau": plan.tau, "n_max": plan.n_max, "delta": delta,
            "ground_energy": e0, "budgets": plan.budgets,
            "dipole_norms": states.norms,
            "q_list": [[q.qx, q.qy, q.qz] for q in cfg.q_vectors],
        },
    }, {"hamiltonian": ham_path, "dipoles": dip_path})
    _write(outdir, "manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    if cfg.cvs:
        raise CliError("invalid_config",
                       "the oracle does not apply core-valence separation; "
                       "drop --cvs")
    eta = cfg.eta_hartree
    ham_path, dip_path, h, header, dip = _load_inputs(cfg)
    cfg_solve = dataclasses.replace(cfg, ground_state="solve")
    psi0, e0, eig = _load_ground_state(cfg_solve, h, header)
    trans = oracle.transition_table(eig, dip)
    try:
        sp.pair_weights(trans.reference_moments, cfg.q_vectors)
    except ValueError as exc:
        raise CliError("invalid_config", str(exc)) from None
    delta = _resolve_window(cfg, eig, eta)
    grid, shown = _omega_grids(delta, eta, cfg.shift_ev)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write(outdir, "eigensystem.json", oracle.eigensystem_to_json(eig) + "\n")
    _write(outdir, "ground_state.jsonl", ci_mod.write_civector_jsonl(psi0))
    for pair in sp.PAIR_KEYS:
        spec = oracle.exact_intensity(eig, trans, pair, eta, grid)
        _write(outdir, f"oracle_intensity_{pair}.csv",
               sp.spectrum_to_csv(dataclasses.replace(spec, omega=shown)))
    for i, q in enumerate(cfg.q_vectors):
        spec = oracle.exact_spectrum(eig, trans, q, eta, grid)
        _write(outdir, f"oracle_dsf_q{i}.csv",
               sp.spectrum_to_csv(dataclasses.replace(spec, omega=shown)))
    manifest = _manifest(cfg, {
        "derived": {"ground_energy": e0, "delta": delta,
                    "n_states": eig.n_states},
    }, {"hamiltonian": ham_path, "dipoles": dip_path})
    _write(outdir, "manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return 0


def _parse_orbital_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1, 2))
    return [int(t) for t in text.split(",")]


def cmd_resources(args: argparse.Namespace) -> int:
    model = DEFAULT_MODEL
    if args.table:
        reports = resource_table(_parse_orbital_range(args.table), model)
        text = table_to_csv(reports)
    elif args.n_orbitals:
        plan = reference_plan(model, total_shots=args.shots) \
            if args.shots is not None else reference_plan(model)
        report = algorithm_cost(plan, model, args.n_orbitals)
        text = report_to_json(report) + "\n"
    else:
        raise CliError("invalid_config", "give --table RANGE or --n-orbitals N")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        name = "resources_table.csv" if args.table else "resources.json"
        _write(outdir, name, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    results = validate.run_all()
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_gen_fixtures(args: argparse.Namespace) -> int:
    try:
        spec = fixtures.ModelSpec(n_orbitals=args.n_orbitals,
                                  n_electrons=args.n_electrons,
                                  seed=args.seed, kind=args.kind,
                                  core_gap=args.core_gap)
    except ValueError as exc:
        raise CliError("invalid_config", str(exc)) from None
    paths = fixtures.write_fixture(spec, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsfsim",
        description="Momentum-resolved spectra from emulated time-domain "
                    "Green's-function measurements")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--hamiltonian", help="FCIDUMP path")
        p.add_argument("--dipoles", help="dipole JSON path")
        p.add_argument("--ground-state", dest="ground_state",
                       help="CI-vector .jsonl, eigensystem .json, or 'solve'")
        p.add_argument("--mode", choices=["sampled", "exact", "oracle"])
        p.add_argument("--eta", help="broadening, Hartree (or e.g. '1.63eV')")
        p.add_argument("--delta", type=float, help="spectral window, Hartree")
        p.add_argument("--epsilon-trunc", dest="epsilon_trunc", type=float)
        p.add_argument("--k", dest="trotter_k", type=int,
                       help="Trotter substeps per tau")
        p.add_argument("--shots", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--q", action="append", help="momentum 'qx,qy,qz' (repeatable)")
        p.add_argument("--cvs", help="comma-separated core orbitals")
        p.add_argument("--shift-ev", dest="shift_ev", type=float,
                       help="additive display shift for omega, eV")
        p.add_argument("--n-alpha", dest="n_alpha", type=int)
        p.add_argument("--n-beta", dest="n_beta", type=int)
        p.add_argument("--out", help="output directory")

    p_spec = sub.add_parser("spectrum", help="measure and reconstruct spectra")
    add_common(p_spec)
    p_spec.set_defaults(fn=cmd_spectrum)

    p_oracle = sub.add_parser("oracle", help="exact-diagonalization reference")
    add_common(p_oracle)
    p_oracle.set_defaults(fn=cmd_oracle)

    p_res = sub.add_parser("resources", help="logical resource estimates")
    p_res.add_argument("--table", help="orbital range, e.g. '14..30' or '14,18'")
    p_res.add_argument("--n-orbitals", dest="n_orbitals", type=int)
    p_res.add_argument("--shots", type=int, help="total shot budget")
    p_res.add_argument("--out", help="output directory")
    p_res.set_defaults(fn=cmd_resources)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.set_defaults(fn=cmd_validate)

    p_gen = sub.add_parser("gen-fixtures", help="write a deterministic model system")
    p_gen.add_argument("--kind", choices=list(fixtures.KINDS),
                       default=fixtures.RANDOM_TWO_BODY)
    p_gen.add_argument("--n-orbitals", dest="n_orbitals", type=int, default=2)
    p_gen.add_argument("--n-electrons", dest="n_electrons", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--core-gap", dest="core_gap", type=float, default=20.0)
    p_gen.add_argument("--out", default="fixtures_out")
    p_gen.set_defaults(fn=cmd_gen_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"kind": exc.kind, "message": str(exc)}}) + "\n")
        return exc.exit_code
    except FileNotFoundError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"kind": "input_not_found", "message": str(exc)}}) + "\n")
        return EXIT_INPUT_NOT_FOUND
    except Exception as exc:  # pragma: no cover - defensive envelope
        sys.stderr.write(json.dumps(
            {"error": {"kind": "internal_error",
                       "message": f"{type(exc).__name__}: {exc}"}}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
