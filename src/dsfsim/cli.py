"""Command-line front end: spectrum | oracle | resources | validate | gen-fixtures.

Configuration comes from an optional JSON document plus flags of the same
name; flags win.  Every run writes a manifest with parameters, seeds, input
hashes, and package versions so it can be reproduced bit-exactly.  Failures
emit a machine-readable error JSON on stderr (exit code 2 for missing
inputs, 1 otherwise).
"""
from __future__ import annotations

import argparse
import contextlib
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
from .operators import QVector, jordan_wigner, load_dipole_json, read_fcidump_file
from .resources import (DEFAULT_MODEL, algorithm_cost, reference_plan,
                        report_to_json, table_to_csv)
from .spectrum import HARTREE_TO_EV

EXIT_INPUT_NOT_FOUND = 2
# Largest n_max plus omega-grid points one run may allocate.
SERIES_BUDGET = 2**20
# Most rows one `resources --table` may price.
TABLE_ROW_CAP = 1000


class CliError(Exception):
    def __init__(self, kind: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.kind = kind
        self.exit_code = exit_code


def _list_of(kind: type):
    """The argparse type of a flag holding comma-separated ``kind`` values ('' for none)."""
    def parse(text: str) -> list:
        try:
            return [kind(t) for t in text.split(",")] if text else []
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of {kind.__name__}: {text!r}") from None
    return parse


def _string(value) -> bool:
    return isinstance(value, str)


def _at_least(least: int):
    return lambda value: ci_mod.is_number(value, integer=True) and value >= least


def _unset_or(check):
    return lambda value: value is None or check(value)


def _is_energy(value) -> bool:
    try:
        parse_energy(value)
    except CliError:
        return False
    return True


SPECTRUM, BOTH = ("spectrum",), ("spectrum", "oracle")
MODES = ["sampled", "exact"]


def _row(default, commands=BOTH, must=None, check=None, option=None, **flag):
    """A ``RunConfig`` field: its default (a callable makes a fresh one), the commands
    taking it, its check ("must be ``must``") and its flag, ``option`` (else
    ``--name``) with the argparse options ``flag``."""
    return field(**{"default_factory" if callable(default) else "default": default},
                 metadata={"commands": commands, "must": must, "check": check,
                           "option": option, "flag": flag})


@dataclass
class RunConfig:
    """The ``spectrum`` and ``oracle`` run fields, one ``_row`` each.

    argparse, the config check, a command's field set and the manifest's
    ``parameters`` all read the rows.  The ``n_alpha``/``n_beta`` pair rule
    is checked by ``_check_config``.
    """
    hamiltonian: str = _row("", BOTH, "a string", _string, help="FCIDUMP path")
    dipoles: str = _row("", BOTH, "a string", _string, help="dipole JSON path")
    ground_state: str = _row("solve", SPECTRUM, "a string", _string,
                             help="CI-vector .jsonl, eigensystem .json, or 'solve'")
    mode: str = _row("exact", SPECTRUM, "sampled or exact", lambda v: v in MODES,
                     choices=MODES)
    eta: str = _row("0.06", BOTH, "a finite positive energy, in Hartree or as e.g. '1.63eV'",
                    _is_energy,
                    help="broadening, Hartree (or e.g. '1.63eV')")
    delta: float | None = _row(None, BOTH, "a finite positive energy in Hartree",
                               _unset_or(lambda v: ci_mod.is_number(v) and v > 0),
                               type=float, help="spectral window, Hartree")
    epsilon_trunc: float = _row(math.exp(-5.0), SPECTRUM, "a number in (0, 1)",
                                lambda v: ci_mod.is_number(v) and 0 < v < 1, type=float)
    trotter_k: int = _row(4, SPECTRUM, "an integer >= 1", _at_least(1), option="--k",
                          type=int, help="Trotter substeps per tau")
    shots: int = _row(10000, SPECTRUM, "an integer of at least one shot per Cartesian pair",
                      _at_least(len(sp.PAIR_KEYS)), type=int)
    seed: int = _row(0, SPECTRUM, "a non-negative integer", _at_least(0), type=int)
    q: list = _row(lambda: [[1.0, 1.0, 1.0]], BOTH,
                   "a non-empty list of finite three-component momenta",
                   lambda v: isinstance(v, list) and len(v) > 0 and all(
                       isinstance(t, list) and len(t) == 3 and all(map(ci_mod.is_number, t))
                       for t in v),
                   type=_list_of(float), action="append",
                   help="momentum 'qx,qy,qz' (repeatable)")
    cvs: list = _row(list, BOTH, "a list of non-negative orbital indices",
                     lambda v: isinstance(v, list) and all(map(_at_least(0), v)),
                     type=_list_of(int), help="comma-separated core orbitals")
    out: str = _row("out", BOTH, "a string", _string, help="output directory")
    shift_ev: float = _row(0.0, BOTH, "a finite number of eV", ci_mod.is_number, type=float,
                           help="additive display shift for omega, eV")
    n_alpha: int | None = _row(None, BOTH, "a non-negative integer",
                               _unset_or(_at_least(0)), type=int)
    n_beta: int | None = _row(None, BOTH, "a non-negative integer",
                              _unset_or(_at_least(0)), type=int)

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
        if ci_mod.is_number(text):
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


def _check_config(cfg: RunConfig) -> None:
    """Refuse a field failing its row's check or the pair rule with ``invalid_config``."""
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.metadata["check"] and not f.metadata["check"](value):
            raise CliError("invalid_config",
                           f"{f.name} must be {f.metadata['must']}, got {value!r}")
    if (cfg.n_alpha is None) != (cfg.n_beta is None):
        raise CliError("invalid_config", "give n_alpha and n_beta together, or neither")


def _fields(command: str) -> list[dataclasses.Field]:
    """The ``RunConfig`` rows that ``command`` takes as flags, in table order."""
    return [f for f in dataclasses.fields(RunConfig) if command in f.metadata["commands"]]


def load_config(args: argparse.Namespace) -> RunConfig:
    """``args`` over its ``--config`` document, which may set only the command's flags."""
    cfg = RunConfig()
    names = [f.name for f in _fields(args.command)]
    if args.config:
        path = _require_file(args.config, "config")
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            raise CliError("invalid_config", f"config file {path}: {exc}") from None
        if not isinstance(doc, dict):
            raise CliError("invalid_config", f"config file {path} is not a JSON object")
        unknown = set(doc) - set(names)
        if unknown:
            raise CliError("invalid_config", f"config file {path}: fields that are not "
                                             f"{args.command} flags: {sorted(unknown)}")
        for key, value in doc.items():
            setattr(cfg, key, value)
    for name in names:
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    _check_config(cfg)
    return cfg


def _require_file(path_str: str, what: str) -> Path:
    if not path_str:
        raise CliError("invalid_config", f"no {what} path configured")
    path = Path(path_str)
    if not path.exists():
        raise CliError("input_not_found", f"{what} file {path} does not exist",
                       EXIT_INPUT_NOT_FOUND)
    if not path.is_file():
        raise CliError("invalid_config", f"{what} path {path} is not a file")
    return path


def _read(path: Path, what: str, reader):
    """``reader(path)``; a file it refuses is ``invalid_config`` naming the file,
    and one whose sector exceeds ``ci.DENSE_CAP`` raises ``ci.SectorTooLarge``."""
    try:
        return reader(path)
    except ci_mod.SectorTooLarge:
        raise  # budget_exceeded, as for a solved sector over the cap
    except (ValueError, LookupError, TypeError, ArithmeticError) as exc:
        raise CliError("invalid_config",
                       f"{what} file {path}: {type(exc).__name__}: {exc}") from None


@contextlib.contextmanager
def _overflow_in(what: str, path: str):
    """Refuse a ``ci.NonFiniteValue`` raised inside as an overflow of the ``what`` file."""
    try:
        yield
    except ci_mod.NonFiniteValue as exc:
        raise CliError("invalid_config",
                       f"{what} file {path}: an input value overflows: {exc}") from None


def _load_inputs(cfg: RunConfig):
    """Read the FCIDUMP and dipole files and check that they fit together.

    Returns (Hamiltonian, header, dipoles).
    """
    ham_path = _require_file(cfg.hamiltonian, "hamiltonian")
    dip_path = _require_file(cfg.dipoles, "dipole")
    h, header = _read(ham_path, "hamiltonian", read_fcidump_file)
    dip = _read(dip_path, "dipole", lambda path: load_dipole_json(path.read_text()))
    if dip.n_orbitals != h.n_orbitals:
        raise CliError("invalid_config", "dipole and Hamiltonian orbital counts differ")
    if any(c >= h.n_orbitals for c in cfg.cvs):
        raise CliError("invalid_config",
                       f"core orbitals {cfg.cvs} outside the {h.n_orbitals} orbitals")
    return h, header, dip


def _load_ground_state(cfg: RunConfig, h, header):
    """Returns (psi0, eigensystem_or_None).

    A solved sector comes from ``n_alpha``/``n_beta``, else from the
    header's NELEC and MS2 (``ci.electron_sector``).  A header that names no
    sector, and a ground-state file that does not parse or whose orbital
    count differs from the Hamiltonian's (checked before any word is built),
    are refused with ``invalid_config``; a file whose sector exceeds
    ``ci.DENSE_CAP`` raises ``ci.SectorTooLarge``.
    """
    if cfg.ground_state == "solve":
        n_alpha, n_beta = cfg.n_alpha, cfg.n_beta   # both or neither (_check_config)
        source = "n_alpha/n_beta"
        if n_alpha is None:
            source = f"the header of hamiltonian file {cfg.hamiltonian}"
            nelec = header.get("NELEC", 0)
            if nelec <= 0:
                raise CliError("invalid_config",
                               f"cannot solve: electron count unknown in {source} "
                               "(set NELEC there or n_alpha/n_beta)")
            try:
                n_alpha, n_beta = ci_mod.electron_sector(nelec, header.get("MS2", 0))
            except ValueError as exc:
                raise CliError("invalid_config", f"{source}: {exc}") from None
        if not (0 <= n_alpha <= h.n_orbitals and 0 <= n_beta <= h.n_orbitals):
            raise CliError("invalid_config",
                           f"sector ({n_alpha}, {n_beta}) from {source} does not fit "
                           f"{h.n_orbitals} orbitals")
        with _overflow_in("hamiltonian", cfg.hamiltonian):
            eig = oracle.solve_sector(h, n_alpha, n_beta)
        return eig.eigenvector(0), eig
    def read(path: Path):
        text, n = path.read_text(), h.n_orbitals
        if path.suffix == ".jsonl":
            return ci_mod.normalize(ci_mod.read_civector_jsonl(text, n)), None
        eig = oracle.eigensystem_from_json(text, n)
        return eig.eigenvector(0), eig
    return _read(_require_file(cfg.ground_state, "ground state"), "ground state", read)


def _resolve_window(cfg: RunConfig, eig, eta: float) -> float:
    """``cfg.delta``, else 1.05 x the sector's full excitation span + 5 eta: the
    span of the solved sector, or of a ``.json`` file's energies as stored.

    ``fixtures.solve`` takes 1.05 x the brightest excitation instead.  Telling
    bright states from dark ones needs the oracle's dipole transition table,
    which ``spectrum`` never builds, so the CLI covers every level.
    """
    if cfg.delta is not None:
        return float(cfg.delta)
    if eig is None:
        raise CliError("invalid_config",
                       "delta is required when the ground state is a .jsonl file")
    span = float(np.max(eig.energies) - eig.ground_energy)
    return 1.05 * span + 5.0 * eta


def _load_run(cfg: RunConfig):
    """(Hamiltonian, dipoles, psi0, eigensystem or None, delta) of a run command."""
    h, header, dip = _load_inputs(cfg)
    psi0, eig = _load_ground_state(cfg, h, header)
    return h, dip, psi0, eig, _resolve_window(cfg, eig, cfg.eta_hartree)


def _outdir(path: str) -> Path:
    """The output directory, created if missing; refused if it cannot be one."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("invalid_config", f"output directory {path}: {exc}") from None
    return Path(path)


def _write_run(cfg: RunConfig, command: str, outdir: Path, shown: np.ndarray,
               intensity, dsf, derived: dict) -> None:
    """Write ``intensity(pair)`` for the six pairs and ``dsf(q)`` for each q as CSVs on
    the ``shown`` grid (prefixed ``oracle_`` for ``oracle``), then the manifest."""
    prefix = "oracle_" if command == "oracle" else ""
    for pair in sp.PAIR_KEYS:
        (outdir / f"{prefix}intensity_{pair}.csv").write_text(
            sp.spectrum_to_csv(dataclasses.replace(intensity(pair), omega=shown)))
    for i, q in enumerate(cfg.q_vectors):
        (outdir / f"{prefix}dsf_q{i}.csv").write_text(
            sp.spectrum_to_csv(dataclasses.replace(dsf(q), omega=shown)))
    manifest = {
        "parameters": {f.name: getattr(cfg, f.name) for f in _fields(command)},
        "inputs": {name: {"path": str(Path(path)),
                          "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
                   for name, path in (("hamiltonian", cfg.hamiltonian),
                                      ("dipoles", cfg.dipoles))},
        "versions": {"dsfsim": __version__, "numpy": np.__version__},
        "derived": derived,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _omega_grids(tau: float, eta: float, shift_ev: float,
                 plan: sp.RunPlan | None = None):
    """The omega grid of the window pi/tau and its copy shifted by ``shift_ev`` for output.

    Refused with ``budget_exceeded`` before anything is built when the grid
    points, plus ``plan.n_max`` (read here, where its overflow is caught) when
    a plan is given, exceed ``SERIES_BUDGET``; with ``invalid_config`` unless
    the window holds two grid points and the shifted points stay distinct.
    """
    try:
        size = sp.omega_grid_size(tau, eta) + (plan.n_max if plan else 0)
    except ArithmeticError:  # eta * tau underflows or the count overflows
        size = math.inf
    if size > SERIES_BUDGET:
        raise CliError("budget_exceeded",
                       f"n_max plus omega-grid points ({size}) exceed the series "
                       f"budget {SERIES_BUDGET}: raise eta or narrow delta")
    grid = sp.default_omega_grid(tau, eta)
    if len(grid) < 2:
        raise CliError("invalid_config",
                       f"the window (delta) is narrower than the grid step eta/5 "
                       f"({eta / 5.0!r} Ha)")
    shown = grid + shift_ev / HARTREE_TO_EV
    if np.any(np.diff(shown) <= 0):
        raise CliError("invalid_config",
                       f"shift_ev {shift_ev!r} merges points of the omega grid")
    return grid, shown


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    eta = cfg.eta_hartree
    h, dip, psi0, eig, delta = _load_run(cfg)
    with _overflow_in("dipole", cfg.dipoles):
        states = sp.prepare_dipole_states(psi0, dip, core_orbitals=cfg.cvs)
    try:
        plan = sp.plan_run(eta, delta, cfg.epsilon_trunc, cfg.shots,
                           states.moments, cfg.q_vectors, k=cfg.trotter_k)
    except sp.NoDipoleIntensity as exc:
        raise CliError("no_dipole_intensity", str(exc)) from None
    except ValueError as exc:
        raise CliError("invalid_config", str(exc)) from None
    grid, shown = _omega_grids(plan.tau, eta, cfg.shift_ev, plan)
    with _overflow_in("hamiltonian", cfg.hamiltonian):
        psum = jordan_wigner(h)
        if cfg.ground_state == "solve":
            e0 = eig.ground_energy
        else:  # a ground-state file's E0 is <psi0|H|psi0> on this FCIDUMP
            e0 = emulator.sector_expectation(psum, psi0.basis, psi0.amplitudes)
        prog = emulator.build_trotter(psum.shifted_identity(-e0), plan.tau, plan.k)
    series = sp.measure_all(plan, states, prog, cfg.mode, cfg.seed)
    outdir = _outdir(cfg.out)
    contribs = {}
    for pair, ser in series.items():
        (outdir / f"greens_{pair}.json").write_text(sp.series_to_json(ser) + "\n")
        contribs[pair] = sp.reconstruct_intensity(ser, grid)
    _write_run(cfg, args.command, outdir, shown, contribs.__getitem__,
               lambda q: sp.assemble_dsf(q, contribs), {
                   "tau": plan.tau, "n_max": plan.n_max, "delta": delta,
                   "ground_energy": e0, "budgets": plan.budgets,
                   "dipole_norms": states.norms,
                   "q_list": [[q.qx, q.qy, q.qz] for q in cfg.q_vectors]})
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    eta = cfg.eta_hartree
    _, dip, psi0, eig, delta = _load_run(cfg)
    with _overflow_in("dipole", cfg.dipoles):
        trans = oracle.transition_table(eig, dip, cfg.cvs)
    try:
        sp.pair_weights(trans.reference_moments, cfg.q_vectors)
    except sp.NoDipoleIntensity as exc:
        raise CliError("no_dipole_intensity", str(exc)) from None
    except ValueError as exc:
        raise CliError("invalid_config", str(exc)) from None
    grid, shown = _omega_grids(sp.window_tau(delta), eta, cfg.shift_ev)
    outdir = _outdir(cfg.out)
    (outdir / "eigensystem.json").write_text(oracle.eigensystem_to_json(eig) + "\n")
    (outdir / "ground_state.jsonl").write_text(ci_mod.write_civector_jsonl(psi0))
    _write_run(cfg, args.command, outdir, shown,
               lambda pair: oracle.exact_intensity(eig, trans, pair, eta, grid),
               lambda q: oracle.exact_spectrum(eig, trans, q, eta, grid),
               {"ground_energy": eig.ground_energy, "delta": delta, "n_states": eig.n_states})
    return 0


def _parse_orbital_range(text: str) -> list[int]:
    """'lo..hi' (every second count) or 'a,b,...', at most ``TABLE_ROW_CAP`` counts."""
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split(".."))
            counts = range(lo, hi + 1, 2)
        else:
            counts = [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError("invalid_config", f"not an orbital range: {text!r}") from None
    if not counts:
        raise CliError("invalid_config", f"orbital range {text!r} is empty")
    if counts[TABLE_ROW_CAP:]:  # O(1) on a range, before the list is built
        raise CliError("budget_exceeded", f"table {text!r} has over {TABLE_ROW_CAP} rows")
    return list(counts)


def cmd_resources(args: argparse.Namespace) -> int:
    if args.table:
        counts = _parse_orbital_range(args.table)
    elif args.n_orbitals is not None:
        counts = [args.n_orbitals]
    else:
        raise CliError("invalid_config", "give --table RANGE or --n-orbitals N")
    try:
        plan = reference_plan(DEFAULT_MODEL, total_shots=args.shots)
        reports = [algorithm_cost(plan, DEFAULT_MODEL, n) for n in counts]
    except (ValueError, ArithmeticError) as exc:  # negative shots, or outside the model
        raise CliError("invalid_config", str(exc)) from None
    text = table_to_csv(reports) if args.table else report_to_json(reports[0]) + "\n"
    if args.out:
        name = "resources_table.csv" if args.table else "resources.json"
        (_outdir(args.out) / name).write_text(text)
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
    paths = fixtures.write_fixture(spec, _outdir(args.out))
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as ``invalid_config`` instead of exiting with usage."""

    def error(self, message):
        raise CliError("invalid_config", f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dsfsim",
        description="Momentum-resolved spectra from emulated time-domain "
                    "Green's-function measurements")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, fn, help_text in (
            ("spectrum", cmd_spectrum, "measure and reconstruct spectra"),
            ("oracle", cmd_oracle, "exact-diagonalization reference")):
        p_run = sub.add_parser(command, help=help_text)
        p_run.add_argument("--config", help="JSON config document")
        for f in _fields(command):
            p_run.add_argument(f.metadata["option"] or "--" + f.name.replace("_", "-"),
                               dest=f.name, **f.metadata["flag"])
        p_run.set_defaults(fn=fn)

    p_res = sub.add_parser("resources", help="logical resource estimates")
    p_res.add_argument("--table", help="orbital range, e.g. '14..30' or '14,18'")
    p_res.add_argument("--n-orbitals", dest="n_orbitals", type=int)
    p_res.add_argument("--shots", type=int, help="total shot budget")
    p_res.add_argument("--out", help="output directory")
    p_res.set_defaults(fn=cmd_resources)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.set_defaults(fn=cmd_validate)

    p_gen = sub.add_parser("gen-fixtures", help="write a deterministic model system")
    p_gen.add_argument("--kind", choices=list(fixtures.KINDS), default=fixtures.ModelSpec.kind)
    p_gen.add_argument("--n-orbitals", type=int, default=2)
    p_gen.add_argument("--n-electrons", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--core-gap", type=float, default=fixtures.ModelSpec.core_gap)
    p_gen.add_argument("--out", default="fixtures_out")
    p_gen.set_defaults(fn=cmd_gen_fixtures)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # An overflowing input is refused by the NonFiniteValue checks; numpy's
        # own warnings would print ahead of the one error line on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except CliError as exc:
        kind, message, code = exc.kind, str(exc), exc.exit_code
    except ci_mod.SectorTooLarge as exc:  # refused before any large allocation
        kind, message, code = "budget_exceeded", str(exc), 1
    except ci_mod.NonFiniteValue as exc:  # outside the stages that _overflow_in names
        kind, message, code = "invalid_config", f"an input value overflows: {exc}", 1
    except FileNotFoundError as exc:
        kind, message, code = "input_not_found", str(exc), EXIT_INPUT_NOT_FOUND
    except Exception as exc:  # pragma: no cover - defensive envelope
        kind, message, code = "internal_error", f"{type(exc).__name__}: {exc}", 1
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
