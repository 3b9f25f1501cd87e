"""Benchmark of the oqite command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload tfim2-algo2-exact --seed 1 --seconds 40 --trace 0

Run from the repository root.  Every trajectory is one in-process call of
``oqite.cli.main(["run", <config.json>])``, from config to CSV on disk;
calls are made one at a time from this single process (a closed loop with
one client, no threads beyond numpy's BLAS pool).  The program is imported
from ``src/`` next to this directory (see ``loader.py``).

``--trace 0`` measures untraced and reports the ``end_to_end`` metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced trajectories
and reports the ``per_layer`` metrics (see ``tracing.py``).  Every run's
CSV is checked, and its avg_z series is compared with an independent
reference (``reference.py``).  The last stdout line is the JSON result;
the full record, with the environment, goes to
``perfbench/out/<workload>/result-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import loader
import hostspeed
import reference
import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# oracle_dev is the median over the first this many trajectories, which a
# run of a sampled workload always makes, so that it is the same for every
# run of one seed (exact trajectories all deviate alike)
ACCURACY_TRAJECTORIES = 48
# deviations below this are at the resolution of the comparison (the
# reference is itself exact only to rounding) and read as this value, so
# the metric is never 0 and reordered sums do not read as regressions
ORACLE_DEV_FLOOR = 1e-12
# traced self times must add up to the traced wall time within this share
ACCOUNTING_TOLERANCE = 0.01


def timing_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples above it, n and the samples."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None, "tail": None,
           "samples": samples}
    if n > 10:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": xs[n - 11]}
    return out


def csv_digest(path: Path) -> str:
    """sha256 of a trajectory CSV without its timestamp line."""
    lines = path.read_bytes().splitlines(keepends=True)
    body = b"".join(line for line in lines if not line.startswith(b"# timestamp="))
    return hashlib.sha256(body).hexdigest()


class Runner:
    """Runs configs through ``oqite.cli.main`` and checks what each wrote."""

    def __init__(self, workload, outdir: Path, ref: np.ndarray):
        self.workload = workload
        self.reference = ref
        self.config_path = outdir / "config.json"
        self.csv_path = outdir / f"run_{workload.algorithm}.csv"
        os.environ["OQITE_OUTDIR"] = str(outdir)
        self.attempted = 0
        self.failures: list[str] = []
        self.last_dev = 0.0  # max |avg_z - reference| of the last run that passed
        self.csv_bytes = 0  # size of the last CSV that passed
        self.csv_sha256: dict[str, set[str]] = {"setup": set(), "full": set()}

    def run(self, raw: dict, tracer: tracing.Tracer | None = None) -> float | None:
        """Wall time of one CLI run, or None when it failed a check."""
        self.config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.csv_path.unlink(missing_ok=True)
        self.attempted += 1
        sink = io.StringIO()
        gc.collect()
        try:
            with tracing.bound(tracer) if tracer else nullcontext():
                main = sys.modules["oqite.cli"].main
                with redirect_stdout(sink), redirect_stderr(sink):
                    t0 = time.perf_counter()
                    code = main(["run", str(self.config_path)])
                    elapsed = time.perf_counter() - t0
        except Exception:  # a crash is a failed run, not a benchmark error
            self.failures.append(traceback.format_exc(limit=4))
            return None
        problem = self.check(raw, code, sink.getvalue())
        if problem:
            self.failures.append(problem)
            return None
        return elapsed

    def check(self, raw: dict, code: int, output: str) -> str | None:
        from oqite.errors import ConfigError
        from oqite.experiments import ExperimentConfig
        from oqite.trajectory import read_csv

        if code != 0:
            return f"exit code {code}: {output.strip()[-300:]}"
        try:
            traj = read_csv(self.csv_path)
            replay = ExperimentConfig.from_meta(traj.meta)
            expected = ExperimentConfig.from_dict(raw)
        except (OSError, ValueError, ConfigError) as err:
            return f"output does not round-trip: {err!r}"
        n_steps = raw["n_steps"]
        if len(traj.points) != n_steps + 1:
            return f"{len(traj.points)} rows for {n_steps} steps"
        if replay != expected:
            return "config echo does not replay the config"
        if any(list(p.values) != ["avg_z"] for p in traj.points):
            return "observables other than avg_z in the CSV"
        series = traj.series("avg_z")
        columns = (traj.times(), series, traj.column("raw_norm"),
                   traj.column("purity"), traj.column("dropped_mass"))
        if not all(np.all(np.isfinite(c)) for c in columns):
            return "non-finite values in the CSV"
        if np.max(np.abs(traj.times() - raw["tau"] * np.arange(n_steps + 1))) > 1e-12:
            return "time grid differs from k * tau"
        dev = float(np.max(np.abs(series - self.reference[: n_steps + 1])))
        if dev > self.workload.max_dev:
            return f"avg_z deviation {dev:.3e} above {self.workload.max_dev:.0e}"
        self.last_dev = dev
        kind = "full" if n_steps == self.workload.n_steps else "setup"
        self.csv_sha256[kind].add(csv_digest(self.csv_path))
        self.csv_bytes = self.csv_path.stat().st_size
        return None


def loop_until(deadline: float, body, min_calls: int = 1) -> None:
    """Call ``body(i)`` for i = 0, 1, ... while another call fits before the
    deadline, and at least ``min_calls`` times."""
    index = 0
    while True:
        began = time.perf_counter()
        body(index)
        index += 1
        now = time.perf_counter()
        if index >= min_calls and now + (now - began) > deadline:
            return


def measure_untraced(workload, seed: int, seconds: float, runner: Runner):
    deadline = time.perf_counter() + seconds
    setup, traj, devs = [], [], []
    # the same samples at the probe's reference speed: each is scaled by the
    # host probes taken next to it (see hostspeed.py)
    setup_norm, traj_norm = [], []
    runner.run(workload.config(seed, 0, n_steps=0))  # warm-up, not timed
    probes = [hostspeed.probe()]

    def body(index):
        before = probes[-1]
        t = runner.run(workload.config(seed, index, n_steps=0))
        if t is not None:
            setup.append(t)
            setup_norm.append(t * hostspeed.REFERENCE_S / before)
        t = runner.run(workload.config(seed, index))
        probes.append(hostspeed.probe())
        if t is not None:
            traj.append(t)
            traj_norm.append(t * 2 * hostspeed.REFERENCE_S / (before + probes[-1]))
        if index < ACCURACY_TRAJECTORIES:
            devs.append(None if t is None else runner.last_dev)

    loop_until(deadline, body, ACCURACY_TRAJECTORIES if workload.sampled else 1)
    details = {"setup_s": timing_summary(setup), "traj_s": timing_summary(traj),
               "host_probe_s": timing_summary(probes),
               "setup_norm_s": timing_summary(setup_norm),
               "traj_norm_s": timing_summary(traj_norm)}
    metrics = {}
    if setup and traj and None not in devs:
        setup_s = statistics.median(setup)
        traj_s = statistics.median(traj)
        traj_norm_s = statistics.median(traj_norm)
        metrics = {
            "setup_s": setup_s,
            "traj_norm_s": traj_norm_s,
            "step_norm_ms": 1e3 * (traj_norm_s - statistics.median(setup_norm)) / workload.n_steps,
            "traj_s": traj_s,
            "step_ms": 1e3 * (traj_s - setup_s) / workload.n_steps,
            "oracle_dev": max(statistics.median(devs), ORACLE_DEV_FLOOR),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    details["oracle_dev_raw"] = devs
    return metrics, details, []


def layer_metrics(summary: tracing.RunSummary, n_steps: int, csv_bytes: int) -> dict:
    """Per-layer figures of one traced trajectory; times are self times."""
    out = {}
    for name in summary.self_s:
        if name in tracing.PER_RUN:
            out[f"{name}.ms"] = 1e3 * summary.self_s[name]
        else:
            out[f"{name}.self_ms"] = 1e3 * summary.self_s[name] / n_steps
        out[f"{name}.calls"] = summary.calls[name] / n_steps
    c = summary.counters
    out["pauli.apply_string.bytes"] = c.apply_bytes / n_steps
    out["states.draws"] = c.draws / n_steps
    out["oracle.rk4_substeps"] = c.rk4_substeps / n_steps
    out["qite.solve_regularized.rank_kept"] = (
        statistics.fmean(c.rank_kept) if c.rank_kept else 0.0
    )
    out["trajectory.write_csv.bytes"] = float(csv_bytes)
    return out


# per-layer figures that count work; they must repeat exactly
COUNT_SUFFIXES = (".calls", ".bytes", "states.draws", "oracle.rk4_substeps")

END_TO_END_UNITS = {"setup_s": "s", "traj_s": "s", "step_ms": "ms",
                    "traj_norm_s": "s", "step_norm_ms": "ms",
                    "oracle_dev": "dimensionless", "peak_rss_mb": "MiB"}
LAYER_UNITS = {  # by name, then by suffix
    "pauli.apply_string.bytes": "computed-B/step",
    "trajectory.write_csv.bytes": "B",
    "qite.solve_regularized.rank_kept": "fraction",
    "states.draws": "count/step",
    "oracle.rk4_substeps": "count/step",
    "trace.traj_s": "s",
    "trace.overhead": "ratio",
    ".self_ms": "ms/step",
    ".calls": "count/step",
    ".ms": "ms",
}


def unit_of(name: str) -> str | None:
    """Unit in which this benchmark measures metric ``name``."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return next((u for k, u in LAYER_UNITS.items() if k[0] == "." and name.endswith(k)), None)


def measure_traced(workload, seed: int, seconds: float, runner: Runner, spans: Path):
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer()
    untraced, traced, per_run = [], [], []
    runner.run(workload.config(seed, 0, n_steps=0))  # warm-up, not timed
    problems = []

    # one config for every trajectory, so the counts can be compared
    raw = workload.config(seed, 0)

    def body(index):
        t = runner.run(raw)
        if t is not None:
            untraced.append(t)
        run_id = tracer.begin_run()
        t = runner.run(raw, tracer)
        if t is None:
            return
        summary = tracer.summary(run_id)
        accounted = sum(summary.self_s.values()) / t
        if abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
            problems.append(f"self times cover {accounted:.4f} of traced traj_s")
        traced.append(t)
        per_run.append(layer_metrics(summary, workload.n_steps, runner.csv_bytes))

    loop_until(deadline, body)
    tracer.write(spans)
    metrics = {}
    if per_run and untraced:
        for key in per_run[0]:
            values = [m.get(key, 0.0) for m in per_run]
            if key.endswith(COUNT_SUFFIXES) and len(set(values)) > 1:
                problems.append(f"{key} differs between traced runs: {values}")
            metrics[key] = statistics.median(values)
        metrics["trace.traj_s"] = statistics.median(traced)
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    details = {
        "traced_traj_s": timing_summary(traced),
        "untraced_traj_s": timing_summary(untraced),
        "spans": str(spans.relative_to(ROOT)),
    }
    return metrics, details, problems


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; do not ask a parent repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(compat_shim: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oqite").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "compat_shim": compat_shim,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, seed: int, seconds: float, trace: int, outdir: Path,
          compat_shim: bool = False) -> tuple[dict, Path]:
    """Measure one run; return the result object and the path of the full record."""
    spec = load_spec()
    outdir.mkdir(parents=True, exist_ok=True)
    ref = reference.compute_in_child(workload.reference_spec())
    runner = Runner(workload, outdir, ref)
    if trace:
        listed = spec["per_layer"]
        spans = outdir / "spans.csv"  # latest traced run only
        metrics, details, problems = measure_traced(workload, seed, seconds, runner, spans)
    else:
        listed = spec["end_to_end"]
        metrics, details, problems = measure_untraced(workload, seed, seconds, runner)

    names = [m["name"] for m in listed]
    missing = [name for name in names if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    problems += [f"{m['name']} is measured in {unit_of(m['name'])}, not {m['unit']}"
                 for m in listed if unit_of(m["name"]) != m["unit"]]
    failed = len(runner.failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit_of(name)} for name in names
        },
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(compat_shim),
        "result": result,
        "failed_frac": failed / max(runner.attempted, 1),
        "details": details,
        "csv_sha256": {k: sorted(v) for k, v in runner.csv_sha256.items()},
        "unlisted_metrics": {k: v for k, v in metrics.items() if k not in names},
        "problems": problems,
        "failures": runner.failures[:20],
    }
    path = outdir / f"result-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return result, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        compat_shim = loader.load(ROOT / "src")
    except loader.LoadError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result, path = bench(workload, args.seed, args.seconds, args.trace,
                         OUT_DIR / workload.name, compat_shim)
    print(f"perfbench: compat_shim={compat_shim} record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
