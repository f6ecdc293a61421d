"""The input-fault sweep of ``scripts/fault_sweep.py`` on a fixed set of its
mutations and on drawn ones; the script itself runs every mutation."""
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# (kind, site, change) of a fixed set of mutations.
FIXED = [
    ("dipoles", "['x'][0][0]", "1e3"),      # the oracle's sum rule is held to the moments
    ("dipoles", "['x'][1][1]", "1e150"),
    ("dipoles", "['x'][0][0]", "1e300"),    # the moments overflow
    ("dipoles", "['y'][0][1]", "0.25"),     # no longer symmetric
    ("fcidump", "line 1 NORB", "1000"),     # refused before a 7 TiB array is made
    ("fcidump", "line 1 NELEC", "0"),
    ("fcidump", "line 6 token 2", "0"),
    ("eigensystem", "['energies'][0]", "0"),   # no longer ascending
    ("civector", "record 4 ['re']", "1e150"),
    ("config", "['eta']", "true"),
    ("config", "['delta']", "1e3"),         # over the series budget
    ("config", "document", "add key"),
    ("series", "['tau']", "NaN"),
    ("series", "['entries'][1]", "drop"),
    ("csv", "line 2 omega", "NaN"),
]


@pytest.fixture(scope="module")
def fault_sweep(tmp_path_factory):
    """The script's namespace, the directory of its inputs, and every mutation by
    (kind, site, change)."""
    sweep = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts"
                               / "fault_sweep.py"))
    base = sweep["make_base"](tmp_path_factory.mktemp("sweep"))
    return sweep, base, {(m.kind, m.site, m.change): m
                         for kind in sweep["KINDS"] for m in sweep["mutations"](base, kind)}


def test_fixed_mutations(fault_sweep):
    """Each fixed mutation runs, or is refused naming its file, as its role says."""
    sweep, base, mutations = fault_sweep
    faults = [(key, fault) for key in FIXED for fault in sweep["check"](base, mutations[key])]
    assert faults == []


@settings(max_examples=40, deadline=1000)
@given(data=st.data())
def test_drawn_mutations(fault_sweep, data):
    """A drawn mutation of any input kind shows no fault."""
    sweep, base, mutations = fault_sweep
    key = data.draw(st.sampled_from(sorted(mutations)))
    assert sweep["check"](base, mutations[key]) == []
