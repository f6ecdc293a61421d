"""Self-test of the benchmark on the bundled 2-orbital fixture (about a minute).

    python3 perfbench/selftest.py

Runs each workload kind untraced and traced on ``fixtures.TWO_ORBITAL_SPEC``
and asserts that every metric named in BENCHMARK.json prints with its unit,
that the traced run writes the same bytes as the CLI, and that the gates
reject corrupted output: a flipped Y sign, swapped pairs and a wrong time step.
Exits nonzero on the first failed assertion.
"""
from __future__ import annotations

import dataclasses
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import gates  # noqa: E402  (needs dsfsim on the path)
from dsfsim import fixtures  # noqa: E402
from dsfsim import spectrum as sp  # noqa: E402

SCHEDULE = ("--eta", "0.02", "--delta", "2.0", "--epsilon-trunc", "1e-6", "--k", "8",
            "--q", "1,1,1")
VARIANTS = (
    run.Workload("sampled_2orb", "chain", {}, ("--mode", "sampled", "--shots", "6000")
                 + SCHEDULE, ("dsf", "chi2")),
    # rand6_exact's pinned schedule; the greens limit is set for its two steps.
    dataclasses.replace(run.WORKLOADS["rand6_exact"], name="exact_2orb"),
    dataclasses.replace(run.WORKLOADS["toy4_resample"], name="resample_2orb",
                        resamples=2),
)


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def rewrite(outdir: Path, change) -> Path:
    """Copy a run's outputs with every series passed through ``change``."""
    bad = outdir.with_name(outdir.name + "_bad")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(outdir, bad)
    series = change(gates.load_series(outdir))
    for pair, ser in series.items():
        (bad / f"greens_{pair}.json").write_text(sp.series_to_json(ser) + "\n")
    return bad


def flip_y(series):
    return {p: dataclasses.replace(s, y=-s.y) for p, s in series.items()}


def swap(a, b):
    def change(series):
        out = dict(series)
        out[a] = dataclasses.replace(series[b], pair=a)
        out[b] = dataclasses.replace(series[a], pair=b)
        return out
    return change


def stretch_tau(series):
    return {p: dataclasses.replace(s, tau=s.tau * 1.01) for p, s in series.items()}


def rejected(b: run.Bench, outdir: Path) -> bool:
    return any(not err <= gates.TOLERANCE[name] for name, err in b.check(outdir).items())


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
              True: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    for w in VARIANTS:
        for trace in (False, True):
            with redirect_stdout(io.StringIO()):
                b = run.Bench(w, 3, spec_override=fixtures.TWO_ORBITAL_SPEC)
                result = run.report(b, b.measure(0.1, trace))
            label = f"{w.name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: correct, {result['attempted']} attempted "
                   f"({'; '.join(b.failures)})")
            got = {n: m["unit"] for n, m in result["metrics"].items()
                   if isinstance(m["value"], (int, float))}
            expect(got == wanted[trace], f"{label}: every named metric with its unit")
        # The gates pass the program's own output and reject corrupted copies.
        if w.kind == "chain":
            out = b.dir / "plain0"
            expect(not rejected(b, out), f"{w.name}: gate accepts the run's output")
            for name, change in (("flipped Y", flip_y), ("swapped xx/zz", swap("xx", "zz")),
                                 ("swapped xy/yz", swap("xy", "yz")),
                                 ("tau off by 1%", stretch_tau)):
                expect(rejected(b, rewrite(out, change)), f"{w.name}: rejects {name}")
        else:
            good = b.dir / "plain0"
            expect(not rejected(b, good), f"{w.name}: gate accepts the run's output")
            b.series_dir = rewrite(b.series_dir, flip_y)
            b.run_once("flipped")
            expect(rejected(b, b.dir / "flipped"),
                   f"{w.name}: rejects means resampled from flipped-Y series")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
