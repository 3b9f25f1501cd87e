"""The names the benchmark tracer binds by name still exist and still run.

``perfbench/tracing.py`` wraps oqite functions, methods and constants that
it looks up by name (``tracing.LAYERS``, ``ShotModel.sample_mean``,
``oracle.default_rk4_steps``, ``qite.SINGULAR_FLOOR`` and the ``s_mat`` and
``delta_reg`` parameters of ``solve_regularized``).  Renaming any of them
breaks every traced benchmark run while the untraced runs still pass, so
this test runs one short config per algorithm under the tracer.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import oqite.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _config(algorithm: str, **extra) -> dict:
    return {
        "algorithm": algorithm,
        "tau": 0.05,
        "n_steps": 2,
        "model": {"type": "tfim", "params": {"n": 2, "j": 1.0, "h": 1.0, "gamma": 0.1}},
        "initial": [["11", 1.0]],
        **extra,
    }


CONFIGS = {
    "oracle": _config("oracle"),
    "algo1": _config(
        "algo1", basis={"kind": "random", "count": 16, "seed": 163},
        delta_reg=0.01, shots=64,
    ),
    "algo2": _config("algo2", delta_reg=0.01),
}


def test_traced_runs_bind_every_layer(tracing, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OQITE_OUTDIR", str(tmp_path))
    tracer = tracing.Tracer()
    runs = {}
    with tracing.bound(tracer):
        for algorithm, raw in CONFIGS.items():
            path = tmp_path / f"{algorithm}.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            run_id = tracer.begin_run()
            # through the module: the tracer rebinds oqite.cli.main itself
            assert oqite.cli.main(["run", str(path)]) == 0, algorithm
            runs[algorithm] = tracer.summary(run_id)
    capsys.readouterr()
    for algorithm in CONFIGS:
        assert (tmp_path / f"run_{algorithm}.csv").is_file()

    oracle = runs["oracle"]
    assert oracle.counters.rk4_substeps > 0
    assert oracle.calls["oracle.evolve_exact"] == 2
    assert runs["algo1"].counters.draws > 0
    for algorithm in ("algo1", "algo2"):
        kept = runs[algorithm].counters.rank_kept
        assert kept and all(0.0 < share <= 1.0 for share in kept), algorithm
    # every bound layer is reached by at least one of the three drivers
    called = {name for run in runs.values() for name, n in run.calls.items() if n}
    assert called >= {name for _, _, name in tracing.LAYERS}

