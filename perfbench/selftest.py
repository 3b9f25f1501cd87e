"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload cut down to a few steps, untraced and traced, with two
seeds, and checks that each run passes its output checks, that every
metric BENCHMARK.json lists is emitted with its unit and a value, and that
the work counts (``pauli.apply_string.calls``, ``states.draws``,
``oracle.rk4_substeps``) are identical across the two seeds.  It also
checks that the loader refuses a directory without ``src/oqite``.
Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import loader
import run
from workloads import WORKLOADS

REPEATED_COUNTS = ("pauli.apply_string.calls", "states.draws", "oracle.rk4_substeps")
# the layer each workload must exercise, as a count that has to be positive
EXERCISED = {
    "tfim2-algo2-exact": "pauli.multiply.calls",
    "tfim2-algo1-shots": "states.draws",
    "tfim5-oracle": "oracle.rk4_substeps",
}


def check_result(result: dict, listed: list[dict]) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"run not clean: {result['attempted']} attempted, {result['failed']} failed")
    if [m["name"] for m in listed] != list(result["metrics"]):
        errors.append("emitted metric names differ from BENCHMARK.json")
    for m in listed:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: no value")
        elif "bound" in m and got["value"] == 0:
            errors.append(f"{m['name']}: end-to-end metric reads 0")
    return errors


def main() -> int:
    spec = run.load_spec()
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    try:
        loader.load(run.OUT_DIR / "selftest" / "no-such-src")
        errors.append("loader accepted a directory without src/oqite")
    except loader.LoadError:
        pass
    loader.load(run.ROOT / "src")
    for name, workload in WORKLOADS.items():
        tiny = replace(workload, n_steps=1 if workload.algorithm == "oracle" else 4)
        outdir = run.OUT_DIR / "selftest" / name
        traced = []
        for seed in (1, 2):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                result, _ = run.bench(tiny, seed, 0.0, trace, outdir)
                errors += [f"{name} seed {seed} trace {trace}: {e}"
                           for e in check_result(result, spec[key])]
                if trace:
                    traced.append(result["metrics"])
        for key in REPEATED_COUNTS:
            values = [m[key]["value"] for m in traced]
            if len(set(values)) != 1:
                errors.append(f"{name}: {key} differs across seeds: {values}")
        if not traced[0][EXERCISED[name]]["value"] > 0:
            errors.append(f"{name}: {EXERCISED[name]} is not positive")
        print(f"selftest: {name} done", flush=True)
    for error in errors:
        print(f"selftest: FAIL {error}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
