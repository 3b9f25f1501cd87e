"""In-memory span tracer for the traced benchmark run.

:func:`bound` replaces every binding of each layer function in the loaded
``oqite`` modules with a timing wrapper (both ``oqite.qite.nonunitary_step``
and ``oqite.vectorized.nonunitary_step``, say), so a call through any
module's global name is recorded, and restores the originals on exit.
Nothing in the package itself changes.

A span is (name, start, end, parent, run id); spans stay in flat arrays
until :meth:`Tracer.write` dumps them.  A layer's self time is its span
durations minus the part covered by child spans, so the self times of one
run add up to the duration of its root span (``cli.main``).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name); "Class.method" attributes are bound on the class
LAYERS = (
    ("oqite.cli", "main", "cli.main"),
    ("oqite.experiments", "ExperimentConfig.from_dict", "experiments.from_dict"),
    ("oqite.experiments", "run_experiment", "experiments.run_experiment"),
    ("oqite.experiments", "ExperimentConfig.resolve_basis", "experiments.resolve_basis"),
    ("oqite.models", "vectorize", "models.vectorize"),
    ("oqite.vectorized", "step", "vectorized.step"),
    ("oqite.vectorized", "observe", "vectorized.observe"),
    ("oqite.ansatz", "unitary_step", "ansatz.unitary_step"),
    ("oqite.ansatz", "dissipator_step", "ansatz.dissipator_step"),
    ("oqite.ansatz", "observe", "ansatz.observe"),
    ("oqite.qite", "nonunitary_step", "qite.nonunitary_step"),
    ("oqite.qite", "build_system", "qite.build_system"),
    ("oqite.qite", "solve_regularized", "qite.solve_regularized"),
    ("oqite.states", "expectation", "states.expectation"),
    ("oqite.states", "pauli_rotation", "states.pauli_rotation"),
    ("oqite.pauli", "apply_string", "pauli.apply_string"),
    ("oqite.pauli", "multiply", "pauli.multiply"),
    ("oqite.oracle", "evolve_exact", "oracle.evolve_exact"),
    ("oqite.trajectory", "Trajectory.write_csv", "trajectory.write_csv"),
)
# layers that run once per trajectory (set-up and output): reported per run
PER_RUN = frozenset({"experiments.from_dict", "experiments.resolve_basis",
                     "models.vectorize", "trajectory.write_csv"})
PROBE_SPAN = "trace.rank_probe"

_COMPLEX_BYTES = 16


@dataclass
class Counters:
    """Counts taken at layer boundaries during one traced run."""

    draws: int = 0  # ShotModel.sample_mean calls with shots > 0
    rk4_substeps: int = 0  # sum of default_rk4_steps results
    apply_bytes: int = 0  # computed: read + write of a 2^width complex vector
    rank_kept: list[float] = field(default_factory=list)  # per solve


@dataclass
class RunSummary:
    calls: dict[str, int]
    self_s: dict[str, float]
    counters: Counters


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._current = -1
        self.run_id = -1
        self.counters = Counters()
        self._run_counters: list[Counters] = []

    def begin_run(self) -> int:
        self.run_id += 1
        self.counters = Counters()
        self._run_counters.append(self.counters)
        return self.run_id

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        names, parents, runs = self._name, self._parent, self._run
        starts, ends = self._start, self._end

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = self._current
            names.append(nid)
            parents.append(parent)
            runs.append(self.run_id)
            ends.append(0.0)
            self._current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self._current = parent

        return functools.update_wrapper(traced, fn)

    def _arrays(self):
        start = np.array(self._start, dtype=np.float64)
        end = np.array(self._end, dtype=np.float64)
        return (
            np.array(self._name, dtype=np.int64),
            np.array(self._parent, dtype=np.int64),
            np.array(self._run, dtype=np.int64),
            end - start,
        )

    def summary(self, run_id: int) -> RunSummary:
        name, parent, run, dur = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        mine = run == run_id
        k = len(self.names)
        calls = np.bincount(name[mine], minlength=k)
        self_s = np.bincount(name[mine], weights=own[mine], minlength=k)
        return RunSummary(
            calls={n: int(calls[i]) for i, n in enumerate(self.names)},
            self_s={n: float(self_s[i]) for i, n in enumerate(self.names)},
            counters=self._run_counters[run_id],
        )

    def write(self, path) -> None:
        """Spans as CSV: one row per span, ``parent`` is a row index or -1."""
        name, parent, run, _ = self._arrays()
        t0 = self._start[0] if len(self._start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run,name,parent,start_s,end_s\n")
            for i in range(len(name)):
                fh.write(
                    f"{run[i]},{self.names[name[i]]},{parent[i]},"
                    f"{self._start[i] - t0:.9f},{self._end[i] - t0:.9f}\n"
                )


def _rank_kept(s_mat, delta_reg, floor) -> float:
    """Share of singular values lstsq keeps for (S + delta I) at rcond=floor."""
    lhs = np.asarray(s_mat, dtype=np.float64) + delta_reg * np.eye(len(s_mat))
    sv = np.linalg.svd(lhs, compute_uv=False)
    return float(np.count_nonzero(sv > floor * sv[0])) / len(sv)


def _layer_wrapper(tracer: Tracer, name: str, fn):
    traced = tracer.wrap(name, fn)
    if name == "pauli.apply_string":

        def apply_string(string, amplitudes):
            tracer.counters.apply_bytes += 2 * _COMPLEX_BYTES << string.n_qubits
            return traced(string, amplitudes)

        return functools.update_wrapper(apply_string, fn)
    if name == "qite.solve_regularized":
        signature = inspect.signature(fn)
        floor = sys.modules["oqite.qite"].SINGULAR_FLOOR
        probe = tracer.wrap(PROBE_SPAN, _rank_kept)

        def solve_regularized(*args, **kwargs):
            out = traced(*args, **kwargs)
            bound_args = signature.bind(*args, **kwargs).arguments
            tracer.counters.rank_kept.append(
                probe(bound_args["s_mat"], bound_args["delta_reg"], floor)
            )
            return out

        return functools.update_wrapper(solve_regularized, fn)
    return traced


def _rebind(old, new, restore: list) -> None:
    """Point every oqite module attribute that is ``old`` at ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "oqite" or mod_name.startswith("oqite.")):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                restore.append((module, key, old))
                setattr(module, key, new)


def _bind_method(cls, attr: str, make, restore: list) -> None:
    desc = cls.__dict__[attr]
    if isinstance(desc, classmethod):
        new = classmethod(make(desc.__func__))
    else:
        new = make(desc)
    restore.append((cls, attr, desc))
    setattr(cls, attr, new)


@contextlib.contextmanager
def bound(tracer: Tracer):
    """Bind the layer wrappers and the counting hooks for the ``with`` body."""
    restore: list = []
    try:
        for mod_name, attr, name in LAYERS:
            module = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                _bind_method(
                    getattr(module, cls_name),
                    meth,
                    lambda fn, name=name: _layer_wrapper(tracer, name, fn),
                    restore,
                )
            else:
                old = getattr(module, attr)
                _rebind(old, _layer_wrapper(tracer, name, old), restore)

        def count_draws(sample_mean):
            def counted(self, value):
                if self.shots:
                    tracer.counters.draws += 1
                return sample_mean(self, value)

            return functools.update_wrapper(counted, sample_mean)

        _bind_method(sys.modules["oqite.states"].ShotModel, "sample_mean", count_draws, restore)

        rk4_steps = sys.modules["oqite.oracle"].default_rk4_steps

        def default_rk4_steps(*args, **kwargs):
            steps = rk4_steps(*args, **kwargs)
            tracer.counters.rk4_substeps += steps
            return steps

        _rebind(rk4_steps, functools.update_wrapper(default_rk4_steps, rk4_steps), restore)
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
