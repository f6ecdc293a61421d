"""Input-fault sweep over every file a ``spectrum`` or ``oracle`` run reads.

Each mutation changes one place of one input of the 2-orbital fixture
(``gen-fixtures --seed 7``): a leaf set to one of ``VALUES``, or a key, array
element, line or record dropped, repeated, renamed or added.  Every command
that reads the file then runs in process with ``--eta 0.02 --delta 2.0``:
``spectrum`` and ``oracle`` on the FCIDUMP, dipole and config files, and
``spectrum --ground-state`` on the eigensystem and CI-vector files that
``oracle`` writes.  ``check`` asks three things of each run:

- it does not end in ``internal_error`` and raises no warning;
- a refusal is one JSON line on stderr whose message names the file (or, for
  the config document, the field the mutation changed);
- its outcome is the class that the mutated place's role gives the value:
  ``run``, ``same`` (runs and writes the bytes of the unmutated run),
  ``refuse`` or ``either``.  ``refuse:Kind:detail`` also asks the message to
  hold "<file> <path>: Kind" and each detail.

The series JSON and CSV spectra a run writes are read back through
``spectrum.series_from_json`` and ``spectrum.spectrum_from_csv`` instead, which
may raise only what the CLI maps to ``invalid_config``.  Every run lowers
``cli.SERIES_BUDGET`` to 2**13 points, as the flag probes of the CLI tests do,
so a window a thousand times wider is refused at once instead of measured.

    python scripts/fault_sweep.py                  # every input kind
    python scripts/fault_sweep.py --kind dipoles   # one of them

It prints one line per input kind and one per fault, and exits 1 on a fault.
"""
import argparse
import contextlib
import copy
import io
import json
import re
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

from dsfsim import cli
from dsfsim import spectrum as sp

RUN, SAME, REFUSE, EITHER = "run", "same", "refuse", "either"

# The faulty values by group, each name mapped to the text a mutation writes.
GROUPS = {
    "junk": {"true": "true", '"0.5"': '"0.5"', '""': '""', '"100"': '"100"', "null": "null",
             "[]": "[]", "{}": "{}", "1_0": "1_0", "(empty)": ""},
    "nonfinite": {"1e400": "1e400", "-1e400": "-1e400", "NaN": "NaN", "Infinity": "Infinity",
                  "10**399": str(10**399)},
    "large": {"2**63": str(2**63), "2**40": str(2**40), "1e308": "1e308", "1e300": "1e300",
              "1e150": "1e150", "1e3": "1e3", "1000": "1000"},
    "moderate": {"1.5": "1.5", "-1": "-1", "0": "0", "-0.0": "-0.0", "0.25": "0.25"},
}
VALUES = {name: text for group in GROUPS.values() for name, text in group.items()}
WHOLE = ("10**399", "2**63", "2**40", "1000", "-1", "0")   # the values that are whole integers


def role(junk=REFUSE, nonfinite=REFUSE, large=EITHER, moderate=RUN, values=None):
    """The class of each value in one role: its group's, unless ``values`` names it."""
    classes = {name: cls for group, cls in (("junk", junk), ("nonfinite", nonfinite),
                                            ("large", large), ("moderate", moderate))
               for name in GROUPS[group]}
    return {**classes, **(values or {})}


REFUSED = role(large=REFUSE, moderate=REFUSE)
# A JSON number: a wrong type or a non-finite number fails ``ci.number_array``.
NOT_JSON = {"1_0": "refuse:JSONDecodeError", "(empty)": "refuse:JSONDecodeError"}
JSON_NUMBER = dict(junk="refuse:TypeError", nonfinite="refuse:TypeError")


def header_field(name, zero=REFUSE):
    """An FCIDUMP header field the runs read: a value that is not a whole integer is
    refused naming the field, and a whole one other than 0 (class ``zero``) too."""
    detail = f"refuse:FcidumpError:header field {name}"
    return {**role(detail, detail, detail, detail), **dict.fromkeys(WHOLE, REFUSE), "0": zero}


FCIDUMP = {
    "NORB": header_field("NORB"),
    "NELEC": header_field("NELEC"),
    "MS2": header_field("MS2", zero=SAME),
    "unread": role(SAME, SAME, SAME, SAME),   # ORBSYM, ISYM: no run reads them
    "integral": role("refuse:FcidumpError:malformed number",
                     "refuse:FcidumpError:non-finite value", values={
                         "1e3": RUN, "1000": RUN,
                         "(empty)": "refuse:FcidumpError:expected 'value p q r s'"}),
    "index": role(large=REFUSE, moderate=REFUSE, values={"0": EITHER}),
}
DIPOLES = {
    "diagonal": role(**JSON_NUMBER, large=RUN,
                     values={**NOT_JSON, "1e300": REFUSE, "1e308": REFUSE}),   # <mu mu> overflows
    "off-diagonal": role(**JSON_NUMBER, large=REFUSE, moderate=REFUSE, values=NOT_JSON),
}
EIGENSYSTEM = {
    "n_orbitals": role(large=REFUSE, moderate=REFUSE, values={
        "2**40": f"refuse:ValueError:n_orbitals is {2**40}, not 2"}),
    "basis": REFUSED,
    "energies": role(large=EITHER, moderate=EITHER),   # they must stay ascending
    "coeffs": role(large=REFUSE, moderate=REFUSE, values={"0": EITHER, "-0.0": EITHER}),
}
CIVECTOR = {
    "alpha": REFUSED,
    "beta": REFUSED,
    "re": role(large=RUN, values={"1e300": REFUSE, "1e308": REFUSE}),   # the norm overflows
    "im": role(large=RUN, values={"1e300": REFUSE, "1e308": REFUSE}),
}
CONFIG = {
    "eta": role(moderate=REFUSE, large=REFUSE,
                values={'"0.5"': RUN, "0.25": RUN, "1.5": EITHER}),
    "delta": role(moderate=REFUSE, large=REFUSE,
                  values={"null": RUN, "0.25": RUN, "1.5": RUN}),   # null: the default
}
# The files only the library reads back: ``run`` when the reader returns.
SERIES = {"pair": REFUSED, "exact": {**REFUSED, "true": RUN},
          "number": role(large=EITHER, moderate=EITHER)}
CSV = {"omega": role(moderate=EITHER), "value": role(large=RUN)}


@dataclass(frozen=True)
class Mutation:
    kind: str     # the input kind, a key of ``KINDS``
    site: str     # where the file changed
    change: str   # a value name or a structural change
    text: str     # the mutated file
    expect: str   # a class, optionally refuse:Kind:detail...


# --- walkers: each yields (site, change, text, class) for one file's text ---

def _ends(count):
    """The indices a walk visits: all of up to 16, else the first two and the last."""
    return range(count) if count <= 16 else (0, 1, count - 1)


def _lines(text, classes):
    """Drop or repeat a line; ``classes(i)`` is the (drop, repeat) class pair of line i."""
    lines = text.splitlines(keepends=True)
    for i in _ends(len(lines)):
        for change, cls, rest in zip(("drop", "repeat"), classes(i),
                                     (lines[i + 1:], lines[i:i + 1] + lines[i:])):
            yield f"line {i + 1}", change, "".join(lines[:i] + rest), cls


def _tokens(lines, i, spans, table):
    """Line ``i`` with each (name, span, role) of ``spans`` set to each value of the
    role, whose classes ``table[role]`` gives."""
    for name, (a, b), table_role in spans:
        for value, cls in table[table_role].items():
            new = lines[i][:a] + VALUES[value] + lines[i][b:]
            yield f"line {i + 1} {name}", value, "".join(lines[:i] + [new] + lines[i + 1:]), cls


def fcidump_walk(text):
    lines = text.splitlines(keepends=True)
    end = next(i for i, line in enumerate(lines) if "&END" in line.upper())
    for i, line in enumerate(lines):
        if i <= end:   # header fields
            spans = [(m[1], m.span(2), m[1] if m[1] in FCIDUMP else "unread")
                     for m in re.finditer(r"([A-Za-z0-9]+)\s*=\s*([^,\s=&/]*)", line)]
        else:          # body tokens: the value, then four indices
            spans = [(f"token {k + 1}", m.span(), "index" if k else "integral")
                     for k, m in enumerate(re.finditer(r"\S+", line))]
        yield from _tokens(lines, i, spans, FCIDUMP)
        if i > end:   # an earlier line setting the same integral to another value
            other = re.sub(r"\S+", "0.25", line, count=1)
            yield (f"line {i + 1}", "conflict", "".join(lines[:i] + [other] + lines[i:]),
                   "refuse:FcidumpError:conflicts")

    def line_classes(i):
        """(drop, repeat) of line i: the NORB line may only repeat and the &END line
        neither; other header lines change nothing, and a body line's integral
        may go (it is then 0) or repeat."""
        if i in (0, end):
            return REFUSE, (SAME if i == 0 else REFUSE)
        return (SAME, SAME) if i < end else (RUN, SAME)

    yield from _lines(text, line_classes)


def csv_walk(text):
    lines = text.splitlines(keepends=True)
    for i in _ends(len(lines))[1:]:
        cells = [m.span() for m in re.finditer(r"[^,\n]+", lines[i])]
        yield from _tokens(lines, i, [("omega", cells[0], "omega"), ("value", cells[2], "value")],
                           CSV)
    yield from _lines(text, lambda i: (REFUSE, REFUSE) if i == 0 else (EITHER, EITHER))


_HOLE = "\x00"   # a string no input holds: it marks where a value is written


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _put(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    _at(out, path[:-1])[path[-1]] = value
    return out


def _site(path):
    return "".join(f"[{p!r}]" for p in path) or "document"


@dataclass(frozen=True)
class JsonSpec:
    """What a JSON walk does: ``leaf(path)`` is a leaf's role (None: leave it);
    ``keys`` maps drop/rename/add to a class, or to a dict by key (default
    ``refuse``); ``elements`` is the class of dropping or repeating an array
    element, and ``document`` the role of a value that replaces the whole."""
    leaf: Callable
    keys: dict
    elements: str = REFUSE
    document: dict = None


def json_walk(spec, doc, path=()):
    """Leaves set to each value, keys dropped, renamed and added, and array elements
    dropped and repeated, at ``path`` and below."""
    node = _at(doc, path)
    if isinstance(node, dict):
        for key in node:
            yield from json_walk(spec, doc, path + (key,))
            for change, new in (("drop", {k: v for k, v in node.items() if k != key}),
                                ("rename", {(k + "_" if k == key else k): v
                                            for k, v in node.items()})):
                cls = spec.keys[change]
                yield (_site(path + (key,)), change, json.dumps(_put(doc, path, new)),
                       cls.get(key, REFUSE) if isinstance(cls, dict) else cls)
        yield (_site(path), "add key", json.dumps(_put(doc, path, {**node, "extra": 0})),
               spec.keys["add"])
    elif isinstance(node, list):
        for i in _ends(len(node)):
            yield from json_walk(spec, doc, path + (i,))
            for change, new in (("drop", node[:i] + node[i + 1:]),
                                ("repeat", node[:i + 1] + node[i:])):
                yield _site(path + (i,)), change, json.dumps(_put(doc, path, new)), spec.elements
    elif spec.leaf(path) is not None:
        hole = json.dumps(_put(doc, path, _HOLE))
        for value, cls in spec.leaf(path).items():
            yield _site(path), value, hole.replace(json.dumps(_HOLE), VALUES[value]), cls
    if not path:
        for value, cls in (spec.document or REFUSED).items():
            yield "document", value, VALUES[value], cls


def _json(spec):
    return lambda text: json_walk(spec, json.loads(text))


FIXED_KEYS = {"drop": REFUSE, "rename": REFUSE, "add": SAME}
dipoles_walk = _json(JsonSpec(
    lambda path: DIPOLES["diagonal" if path[1] == path[2] else "off-diagonal"], FIXED_KEYS))
eigensystem_walk = _json(JsonSpec(lambda path: EIGENSYSTEM[path[0]], FIXED_KEYS))
config_walk = _json(JsonSpec(lambda path: CONFIG[path[0]],
                             {"drop": RUN, "rename": REFUSE, "add": REFUSE},
                             document={**REFUSED, "{}": RUN}))   # {}: every default
series_walk = _json(JsonSpec(lambda path: SERIES.get(path[0], SERIES["number"]),
                             {"drop": EITHER, "rename": EITHER, "add": EITHER}, EITHER))
RECORD = JsonSpec(lambda path: CIVECTOR[path[0]],
                  {"drop": {"im": SAME}, "rename": {"im": SAME}, "add": SAME},
                  document={**REFUSED, "(empty)": RUN})   # a blank line is skipped


def civector_walk(text):
    records = text.splitlines()
    for i, record in enumerate(records):
        for site, change, new, cls in json_walk(RECORD, json.loads(record)):
            yield (f"record {i + 1} {site}", change,
                   "\n".join(records[:i] + [new] + records[i + 1:]) + "\n", cls)
    yield from _lines(text, lambda i: (RUN, REFUSE))


@dataclass(frozen=True)
class Kind:
    file: str               # its name in the sweep directory
    walk: Callable          # text -> (site, change, text, class) of each mutation
    commands: tuple = ()    # the commands that read it; none: the library reads it back
    flag: str = ""          # the flag that passes it
    named: str = ""         # how a refusal names it


BOTH = ("spectrum", "oracle")
KINDS = {
    "fcidump": Kind("hamiltonian.fcidump", fcidump_walk, BOTH, "--hamiltonian", "hamiltonian file"),
    "dipoles": Kind("dipoles.json", dipoles_walk, BOTH, "--dipoles", "dipole file"),
    "config": Kind("run.json", config_walk, BOTH, "--config", "config file"),
    "eigensystem": Kind("eigensystem.json", eigensystem_walk, ("spectrum",), "--ground-state",
                        "ground state file"),
    "civector": Kind("ground_state.jsonl", civector_walk, ("spectrum",), "--ground-state",
                     "ground state file"),
    "series": Kind("greens_xy.json", series_walk),
    "csv": Kind("dsf_q0.csv", csv_walk),
}


def mutations(base: Path, kind: str):
    """Every mutation of ``kind``'s file in the sweep directory ``base``."""
    text = (base / KINDS[kind].file).read_text()
    for site, change, new, expect in KINDS[kind].walk(text):
        if new != text:
            yield Mutation(kind, site, change, new, expect)


def run_cli(argv):
    """(exit code, stderr, warning messages) of ``dsfsim ARGV`` in process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), mock.patch.object(cli, "SERIES_BUDGET", 2**13):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, stderr.getvalue(), [str(w.message) for w in caught]


def command(base: Path, name: str, kind: str, path: Path, out: str) -> list[str]:
    """The ``name`` command on the sweep inputs in ``base``, with ``kind``'s file at
    ``path``, writing into ``base/out``."""
    files = {"fcidump": base / "hamiltonian.fcidump", "dipoles": base / "dipoles.json",
             kind: path}
    argv = [name, "--out", str(base / out)]
    argv += ["--config", str(path)] if kind == "config" else ["--eta", "0.02", "--delta", "2.0"]
    return argv + [arg for k, file in files.items() for arg in (KINDS[k].flag, str(file))]


def make_base(base: Path) -> Path:
    """Write the sweep's inputs into ``base``: the fixture, a config document of the
    run's flags, the eigensystem and ground state ``oracle`` solves, a series and a
    CSV ``spectrum`` writes, and each unmutated run's outputs (``ref_<kind>_<command>``)."""
    def run(argv):
        code, stderr, _ = run_cli(argv)
        if code:
            raise RuntimeError(f"dsfsim {' '.join(argv)} failed: {stderr}")

    run(["gen-fixtures", "--seed", "7", "--out", str(base)])
    (base / "run.json").write_text(json.dumps({"eta": 0.02, "delta": 2.0}) + "\n")
    for kind, spec in KINDS.items():
        for command_name in spec.commands:
            run(command(base, command_name, kind, base / spec.file, f"ref_{kind}_{command_name}"))
        if kind == "fcidump":   # the solved ground state, and a series and CSV
            for ref, names in (("oracle", ("eigensystem.json", "ground_state.jsonl")),
                               ("spectrum", ("greens_xy.json", "dsf_q0.csv"))):
                for written in names:
                    (base / written).write_bytes((base / f"ref_fcidump_{ref}" / written).read_bytes())
    return base


def _outputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "manifest.json"}


def _read_back(m: Mutation) -> list[str]:
    reader = sp.series_from_json if m.kind == "series" else sp.spectrum_from_csv
    try:
        reader(m.text)
        outcome = RUN
    except (ValueError, LookupError, TypeError, ArithmeticError):   # cli._read's kinds
        outcome = REFUSE
    except Exception as exc:   # the fault this sweep looks for
        return [f"{type(exc).__name__}: {exc}"]
    return [] if m.expect.split(":")[0] in (outcome, EITHER) else [f"{outcome}, not {m.expect}"]


def check(base: Path, m: Mutation) -> list[str]:
    """The faults one mutation shows, one line each: empty when every rule holds."""
    spec = KINDS[m.kind]
    if not spec.commands:
        return _read_back(m)
    path = base / f"mutated_{spec.file}"
    path.write_text(m.text)
    cls, *details = m.expect.split(":")
    faults = []

    def fault(text):
        faults.append(f"{command_name}: {text}")

    for command_name in spec.commands:
        out = f"out_{command_name}"
        code, stderr, caught = run_cli(command(base, command_name, m.kind, path, out))
        if caught:
            fault(f"warned {caught}")
        if code == 0:
            if cls == REFUSE:
                fault(f"ran, not {m.expect}")
            elif cls == SAME and _outputs(base / out) != _outputs(
                    base / f"ref_{m.kind}_{command_name}"):
                fault("ran, but wrote other bytes than the unmutated run")
            continue
        lines = stderr.splitlines()
        try:
            error = json.loads(lines[0])["error"]
            kind, message = error["kind"], error["message"]
        except (ValueError, LookupError, TypeError):
            kind = None
        if kind is None or len(lines) != 1:
            fault(f"stderr is not one JSON error line: {stderr!r}")
            continue
        if kind == "internal_error":
            fault(f"internal_error: {message}")
        named = f"{spec.named} {path}"
        fields = re.findall(r"\['(\w+)'\]", m.site) if m.kind == "config" else []
        if named not in message and not any(f in message for f in fields):
            fault(f"{kind} names no file: {message}")
        wanted = [f"{named}: {details[0]}", *details[1:]] if details else []
        if cls in (RUN, SAME) or any(part not in message for part in wanted):
            fault(f"{kind} ({message}), not {m.expect}")
    return faults


def sweep(base: Path, kinds) -> int:
    """Check every mutation of ``kinds``; print one line per kind and one per fault."""
    total = 0
    for kind in kinds:
        count = faults = 0
        for m in mutations(base, kind):
            count += 1
            for fault in check(base, m):
                faults += 1
                print(f"FAULT {kind} {m.site} {m.change}: {fault}")
        runs = count * len(KINDS[kind].commands)
        print(f"{kind}: {count} mutations, {runs} runs, {faults} faults")
        total += faults
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--kind", choices=list(KINDS), action="append",
                        help="an input kind to sweep (repeatable; default: every kind)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        faults = sweep(make_base(Path(tmp)), args.kind or list(KINDS))
    sys.exit(1 if faults else 0)


if __name__ == "__main__":
    main()
