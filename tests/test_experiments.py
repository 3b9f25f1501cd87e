"""Config plumbing, reference trajectories, presets and sweeps."""

import io
import json

import jsonschema
import numpy as np
import pytest

from conftest import assert_close, label_matrix, sum_matrix
from oqite.errors import ConfigError
from oqite.experiments import (
    EXPERIMENT_SCHEMA,
    TFIM_BASIS_SEED,
    TFIM_REGULARIZER,
    TLS_BASIS_LABELS,
    TLS_REGULARIZER,
    ExperimentConfig,
    aggregate,
    max_abs_deviation,
    oracle_trajectory,
    preset,
    run_experiment,
    run_single,
    sweep_gamma,
    sweep_paulis,
    write_rows_csv,
)
from oqite.models import tls_model
from oqite.oracle import evolve_exact
from oqite.states import DensityMatrix, StateVector
from oqite.trajectory import Trajectory, TrajectoryPoint

TLS_RAW = {
    "model": {"type": "tls", "params": {"delta": 1.0, "omega": 1.0, "gamma": 1.0}},
    "algorithm": "algo1",
    "tau": 0.05,
    "n_steps": 4,
}


def tls_config(**overrides):
    return ExperimentConfig.from_dict({**TLS_RAW, **overrides})


# --- validation -------------------------------------------------------------


def test_experiment_schema_is_valid():
    # from_dict uses a prebuilt validator, which does not check the schema
    jsonschema.Draft202012Validator.check_schema(EXPERIMENT_SCHEMA)


def test_from_dict_requires_core_keys():
    for missing in ("model", "algorithm", "tau", "n_steps"):
        raw = {k: v for k, v in TLS_RAW.items() if k != missing}
        with pytest.raises(ConfigError, match="bad experiment config"):
            ExperimentConfig.from_dict(raw)


def test_from_dict_rejects_bad_values():
    with pytest.raises(ConfigError):
        tls_config(algorithm="algo3")
    with pytest.raises(ConfigError):
        tls_config(tau=0.0)
    with pytest.raises(ConfigError):
        tls_config(n_steps=-1)
    with pytest.raises(ConfigError):
        tls_config(unexpected_key=1)
    with pytest.raises(ConfigError, match="either seed or seeds"):
        tls_config(seed=1, seeds=[2, 3])


def test_from_dict_fails_fast_on_semantic_problems():
    with pytest.raises(ConfigError, match="register mismatch"):
        tls_config(observables={"zz": "1.0*ZZ"})
    with pytest.raises(ConfigError, match="observable bad"):
        tls_config(observables={"bad": "1.0*Q"})
    with pytest.raises(ConfigError, match="sum to 1"):
        tls_config(initial=[["1", 0.5]])
    with pytest.raises(ConfigError, match="nonnegative"):
        tls_config(initial=[["1", -1.0], ["0", 2.0]])
    with pytest.raises(ConfigError):
        tls_config(initial=[["1"]])
    with pytest.raises(ConfigError, match="declare their observables"):
        ExperimentConfig.from_dict(
            {
                **TLS_RAW,
                "model": {
                    "type": "custom",
                    "custom": {
                        "n": 1,
                        "h_terms": [{"coeff": [1.0, 0.0], "string": "Z"}],
                    },
                },
            }
        )


# --- defaults and round trip -------------------------------------------------


def test_tls_defaults():
    cfg = tls_config()
    assert set(cfg.observables) == {"excited_pop", "re_rho10", "im_rho10"}
    assert cfg.initial == (("1", 1.0),)
    assert cfg.seeds == (0,)
    ops = cfg.resolve_observables()
    assert_close(
        sum_matrix(ops["excited_pop"]),
        0.5 * (np.eye(2) - label_matrix("Z")),
        1e-15,
    )
    rho0 = cfg.resolve_initial()
    assert_close(rho0.entries, np.diag([0.0, 1.0]), 0)


def test_tfim_defaults():
    cfg = ExperimentConfig.from_dict(
        {
            "model": {"type": "tfim", "params": {"n": 2, "j": 1, "h": 1, "gamma": 0.1}},
            "algorithm": "algo2",
            "tau": 0.05,
            "n_steps": 2,
        }
    )
    assert set(cfg.observables) == {"avg_z"}
    op = cfg.resolve_observables()["avg_z"]
    assert_close(
        sum_matrix(op), 0.5 * (label_matrix("ZI") + label_matrix("IZ")), 1e-15
    )
    assert cfg.initial == (("11", 1.0),)
    assert cfg.resolve_index_set() == ["00", "01", "10", "11"]


def test_round_trip_through_dict_and_meta():
    cfg = tls_config(seeds=[3, 4], shots=128, delta_reg=1e-6)
    again = ExperimentConfig.from_dict(cfg.as_dict())
    assert again == cfg
    meta = cfg.to_meta()
    assert "version" in meta
    assert ExperimentConfig.from_meta(meta) == cfg
    json.loads(meta["config"])  # echo is strict JSON
    with pytest.raises(ConfigError, match="no config echo"):
        ExperimentConfig.from_meta({"version": "x"})


# --- resolution ---------------------------------------------------------------


def test_resolve_basis_widths():
    # the vectorized driver works on the doubled register
    assert len(tls_config(algorithm="algo1").resolve_basis()) == 15
    assert len(tls_config(algorithm="algo2").resolve_basis()) == 3
    assert tls_config(algorithm="oracle").resolve_basis() is None


def test_resolve_basis_kinds():
    explicit = tls_config(basis={"kind": "explicit", "strings": ["XZ", "YX"]})
    assert [s.label for s in explicit.resolve_basis()] == ["XZ", "YX"]
    with pytest.raises(ConfigError, match="must act on 2 qubits"):
        tls_config(basis={"kind": "explicit", "strings": ["X"]}).resolve_basis()
    rand = tls_config(basis={"kind": "random", "count": 5, "seed": 3})
    assert len(rand.resolve_basis()) == 5
    # a count covering the whole register falls back to the full basis
    full = tls_config(basis={"kind": "random", "count": 16, "seed": 3})
    assert len(full.resolve_basis()) == 15
    with pytest.raises(ConfigError, match="bad basis description"):
        tls_config(basis={"kind": "random"}).resolve_basis()
    with pytest.raises(ConfigError):
        tls_config(basis={"kind": "explicit", "strings": ["QQ"]}).resolve_basis()


def test_resolve_index_set_validation():
    cfg = tls_config(algorithm="algo2", index_set=["1", "0"])
    assert cfg.resolve_index_set() == ["1", "0"]
    with pytest.raises(ConfigError, match="bad index-set"):
        tls_config(algorithm="algo2", index_set=["01"]).resolve_index_set()
    with pytest.raises(ConfigError, match="bad index-set"):
        tls_config(algorithm="algo2", index_set=["x"]).resolve_index_set()


# --- reference trajectory -------------------------------------------------------


def test_oracle_trajectory_matches_evolve_exact():
    model = tls_model(1.0, 1.0, 1.0)
    rho0 = DensityMatrix.pure(StateVector.from_bits("1"))
    obs = tls_config().resolve_observables()
    traj = oracle_trajectory(model, rho0, 0.1, 5, obs)
    assert traj.algorithm == "oracle"
    assert_close(traj.times(), np.arange(6) * 0.1, 1e-12)
    want = evolve_exact(model, rho0, 0.5)
    want_pop = np.trace(sum_matrix(obs["excited_pop"]) @ want.entries).real
    assert abs(traj.points[-1].values["excited_pop"] - want_pop) < 1e-9
    assert abs(traj.points[0].values["excited_pop"] - 1.0) < 1e-12
    assert abs(traj.points[-1].raw_norm - 1.0) < 1e-10


# --- dispatch --------------------------------------------------------------------


def test_run_single_dispatch():
    for algorithm, label in (("oracle", "oracle"), ("algo1", "algo1"), ("algo2", "algo2")):
        traj = run_single(tls_config(algorithm=algorithm), seed=0)
        assert traj.algorithm == label
        assert len(traj.points) == 5
        assert traj.seed == "0"


def test_run_single_algo2_respects_index_set():
    cfg = tls_config(algorithm="algo2", index_set=["1"], initial=[["1", 1.0]])
    traj = run_single(cfg, seed=0)
    # a one-branch ansatz leaks trace through the refill it cannot hold
    assert traj.points[-1].raw_norm < 1.0
    with pytest.raises(ConfigError, match="outside the index set"):
        run_single(tls_config(algorithm="algo2", index_set=["0"]), seed=0)


def test_drivers_agree_with_reference():
    kw = dict(tau=0.01, n_steps=20, delta_reg=1e-6)
    ref = run_experiment(tls_config(algorithm="oracle", **kw))
    for algorithm in ("algo1", "algo2"):
        traj = run_experiment(tls_config(algorithm=algorithm, **kw))
        assert max_abs_deviation(traj, ref, "excited_pop") < 5e-3


# --- aggregation ------------------------------------------------------------------


def _tiny_traj(seed_label, offset):
    traj = Trajectory(algorithm="algo1", seed=seed_label)
    for k in range(3):
        traj.record(TrajectoryPoint(t=0.5 * k, values={"z": float(k) + offset}))
    return traj


def test_aggregate_mean_and_std():
    agg = aggregate([_tiny_traj("1", 0.0), _tiny_traj("2", 1.0)])
    assert agg.seed == "1|2"
    assert_close(agg.series("z"), [0.5, 1.5, 2.5], 1e-15)
    want_std = np.std([0.0, 1.0], ddof=1)
    assert abs(agg.points[0].value_std["z"] - want_std) < 1e-15
    assert agg.has_std


def test_aggregate_grid_mismatch():
    short = Trajectory(algorithm="algo1", seed="s")
    short.record(TrajectoryPoint(t=0.0, values={"z": 0.0}))
    with pytest.raises(ValueError):
        aggregate([_tiny_traj("1", 0.0), short])


def test_run_experiment_multi_seed_sampled():
    cfg = tls_config(algorithm="algo2", shots=256, seeds=[1, 2], n_steps=2)
    traj = run_experiment(cfg)
    assert traj.seed == "1|2"
    assert traj.has_std
    assert any(p.value_std["excited_pop"] > 0 for p in traj.points[1:])
    assert "config" in traj.meta


# --- presets ----------------------------------------------------------------------


def test_tls_preset_frozen_parameters():
    cfg = preset("tls", "algo1")
    assert cfg.tau == 0.05
    assert cfg.n_steps == 120
    assert cfg.basis == {"kind": "explicit", "strings": list(TLS_BASIS_LABELS)}
    assert cfg.delta_reg == TLS_REGULARIZER
    assert cfg.initial == (("1", 1.0),)
    # the matching oracle and branch runs carry no driver basis
    assert preset("tls", "algo2").basis is None
    assert preset("tls", "oracle").delta_reg == 0.0


def test_tfim_preset_frozen_parameters():
    cfg = preset("tfim", "algo1")
    assert cfg.n_steps == 200
    assert cfg.basis == {"kind": "random", "count": 16, "seed": TFIM_BASIS_SEED}
    assert cfg.delta_reg == TFIM_REGULARIZER
    assert cfg.initial == (("11", 1.0),)
    assert cfg.model["params"]["gamma"] == 0.1
    assert preset("tfim", "algo1", tau=0.025).n_steps == 400
    assert preset("tfim", "algo1", n_steps=7).n_steps == 7


def test_preset_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("xy")
    with pytest.raises(ConfigError, match="unknown algorithm"):
        preset("tls", "algo9")


# --- deviation metric and sweeps ------------------------------------------------


def test_max_abs_deviation():
    a, b = _tiny_traj("1", 0.0), _tiny_traj("2", 0.25)
    assert abs(max_abs_deviation(a, b, "z") - 0.25) < 1e-15
    short = Trajectory(algorithm="algo1", seed="s")
    short.record(TrajectoryPoint(t=0.0, values={"z": 0.0}))
    with pytest.raises(ValueError, match="different time grids"):
        max_abs_deviation(a, short, "z")


def test_sweep_paulis_small():
    rows, meta = sweep_paulis(counts=(4,), seeds=(7, 7), tau=0.05, n_steps=5)
    assert [r["count"] for r in rows] == [4, 4]
    assert [r["seed"] for r in rows] == [7, 7]
    # identical seeds give identical deviations (no hidden state)
    assert rows[0]["deviation"] == rows[1]["deviation"]
    assert rows[0]["deviation"] >= 0.0
    assert meta["sweep"] == "paulis"
    assert json.loads(meta["counts"]) == [4]
    assert json.loads(meta["seeds"]) == [7, 7]


def test_sweep_gamma_small():
    rows, meta = sweep_gamma(gammas=(0.0, 0.5), tau=0.05, n_steps=4)
    assert [(r["gamma"], r["algorithm"]) for r in rows] == [
        (0.0, "algo1"),
        (0.0, "algo2"),
        (0.5, "algo1"),
        (0.5, "algo2"),
    ]
    assert all(r["deviation"] >= 0.0 for r in rows)
    assert meta["sweep"] == "gamma"


def test_write_rows_csv_format():
    buf = io.StringIO()
    write_rows_csv(
        [{"count": 4, "deviation": 0.25}, {"count": 8, "deviation": 0.125}],
        {"b": "2", "a": "1"},
        buf,
    )
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# a=1"
    assert lines[1] == "# b=2"
    assert lines[2] == "count,deviation"
    assert lines[3] == "4,0.25"
    assert lines[4] == "8,0.125"


def test_write_rows_csv_empty():
    buf = io.StringIO()
    write_rows_csv([], {"k": "v"}, buf)
    assert buf.getvalue() == "# k=v\n\n"
