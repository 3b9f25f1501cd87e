"""End-to-end CLI behavior: exit codes, file outputs, reproducibility."""

import io
import json

import pytest

from oqite.cli import main
from oqite.experiments import ExperimentConfig, run_experiment
from oqite.trajectory import read_csv

TLS_ORACLE = {
    "model": {"type": "tls", "params": {"delta": 1.0, "omega": 1.0, "gamma": 1.0}},
    "algorithm": "oracle",
    "tau": 0.1,
    "n_steps": 3,
}


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("OQITE_OUTDIR", str(tmp_path))
    return tmp_path


def _write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _strip_timestamp(text: str) -> list[str]:
    return [l for l in text.splitlines() if not l.startswith("# timestamp=")]


# --- run ---------------------------------------------------------------------


def test_run_happy_path(outdir, capsys):
    code = main(["run", _write_config(outdir, TLS_ORACLE)])
    assert code == 0
    out = outdir / "run_oracle.csv"
    assert f"wrote {out}" in capsys.readouterr().out
    traj = read_csv(str(out))
    assert traj.algorithm == "oracle"
    assert len(traj.points) == 4


def test_run_respects_output_key_and_plot(outdir, capsys):
    cfg = {**TLS_ORACLE, "output": "sub/custom.csv"}
    assert main(["run", _write_config(outdir, cfg), "--plot"]) == 0
    assert (outdir / "sub" / "custom.csv").exists()
    svg = (outdir / "sub" / "custom.svg").read_text()
    assert svg.startswith("<svg ")
    assert "wrote" in capsys.readouterr().out


def test_run_malformed_json(outdir, capsys):
    bad = outdir / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(outdir.glob("*.csv"))


def test_run_missing_file(outdir, capsys):
    assert main(["run", str(outdir / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_schema_violation(outdir, capsys):
    cfg = {**TLS_ORACLE, "algorithm": "algo9"}
    assert main(["run", _write_config(outdir, cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(outdir.glob("*.csv"))


TFIM_ORACLE = {
    "model": {"type": "tfim", "params": {"n": 2, "j": 1.0, "h": 1.0, "gamma": 0.1}},
    "algorithm": "oracle",
    "tau": 0.05,
    "n_steps": 3,
}


def _with_params(base, **params):
    model = base["model"]
    return {**base, "model": {**model, "params": {**model["params"], **params}}}


@pytest.mark.parametrize(
    "cfg",
    [
        {**TLS_ORACLE, "tau": float("nan")},
        {**TLS_ORACLE, "tau": float("inf")},
        _with_params(TLS_ORACLE, gamma=-1.0),
        _with_params(TLS_ORACLE, gamma=float("nan")),
        _with_params(TLS_ORACLE, delta=float("-inf")),
        _with_params(TLS_ORACLE, omega=-0.5),
        _with_params(TFIM_ORACLE, j=float("inf")),
        _with_params(TFIM_ORACLE, h=-1.0),
        _with_params(TFIM_ORACLE, n=0),
        _with_params(TFIM_ORACLE, n=7),
        {**TLS_ORACLE, "model": {"type": "custom", "custom": {
            "n": 1, "h_terms": [{"coeff": [0.0, 1.0], "string": "X"}]}}},
        {**TLS_ORACLE, "model": {"type": "custom", "custom": {
            "n": 1, "h_terms": [{"string": "X"}]}}},
        {**TLS_ORACLE, "model": {"type": "custom", "custom": {
            "n": 1, "h_terms": [{"coeff": [1.0, 0.0], "string": "X"}],
            "jumps": [[{"coeff": [1.0], "string": "Z"}]]}}},
        {**TLS_ORACLE, "algorithm": "algo1", "shots": 10**19},
    ],
    ids=[
        "tau-nan", "tau-inf", "gamma-negative", "gamma-nan", "delta-inf",
        "omega-negative", "j-inf", "h-negative", "tfim-n0", "oracle-n7",
        "custom-non-hermitian", "custom-term-no-coeff", "custom-jump-bad-coeff",
        "shots-above-int64",
    ],
)
def test_run_refuses_out_of_range_config(outdir, capsys, cfg):
    # json.dumps writes NaN/Infinity, which json.loads reads back
    assert main(["run", _write_config(outdir, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not list(outdir.glob("*.csv"))


def test_run_numerical_failure(outdir, capsys):
    # a huge step drives the norm-constant guard negative
    cfg = {**TLS_ORACLE, "algorithm": "algo1", "tau": 5.0, "n_steps": 2}
    assert main(["run", _write_config(outdir, cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(outdir.glob("*.csv"))


def test_run_reproducible_from_csv_header(outdir):
    cfg = {**TLS_ORACLE, "algorithm": "algo2", "tau": 0.05, "n_steps": 4}
    assert main(["run", _write_config(outdir, cfg)]) == 0
    path = outdir / "run_algo2.csv"
    original = path.read_text(encoding="utf-8")
    echoed = read_csv(str(path)).meta
    replay = run_experiment(ExperimentConfig.from_meta(echoed))
    buf = io.StringIO()
    replay.write_csv(buf)
    assert _strip_timestamp(buf.getvalue()) == _strip_timestamp(original)


@pytest.mark.parametrize(
    "argv",
    [
        ["preset", "tls", "--seeds", "a"],
        ["sweep-paulis", "--counts", "1,y"],
        ["sweep-gamma", "--gammas", "x"],
        ["sweep-gamma", "--gammas", ","],
        ["sweep-paulis", "--seeds", ","],
    ],
    ids=[
        "preset-seeds",
        "sweep-paulis-counts",
        "sweep-gamma-gammas",
        "sweep-gamma-empty",
        "sweep-paulis-empty",
    ],
)
def test_bad_list_flag_is_a_usage_error(outdir, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid comma-separated" in err
    assert "Traceback" not in err
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "CFG"],
        ["preset", "tls", "--steps", "2", "--out", "afile/x.csv"],
        ["sweep-paulis", "--out", "afile/x.csv"],
        ["sweep-gamma", "--out", "afile/x.csv"],
    ],
    ids=["run", "preset", "sweep-paulis", "sweep-gamma"],
)
def test_unwritable_output_fails_before_simulating(outdir, capsys, monkeypatch, argv):
    # a parent that is a regular file cannot become a directory
    (outdir / "afile").write_text("not a directory", encoding="utf-8")
    cfg = _write_config(outdir, {**TLS_ORACLE, "output": "afile/x.csv"})
    argv = [cfg if a == "CFG" else a for a in argv]

    def never(*args, **kwargs):
        raise AssertionError("simulated before checking the output path")

    for name in ("run_experiment", "sweep_paulis", "sweep_gamma"):
        monkeypatch.setattr(f"oqite.cli.{name}", never)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert "Traceback" not in err


# --- preset --------------------------------------------------------------------


def test_preset_refuses_non_finite_tau(outdir, capsys):
    assert main(["preset", "tls", "--tau", "nan", "--steps", "3"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(outdir.glob("*.csv"))


def test_preset_default_filename(outdir, capsys):
    assert main(["preset", "tls", "--steps", "3"]) == 0
    assert (outdir / "tls_algo1.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_preset_algo_and_out_flags(outdir):
    assert main(
        ["preset", "tls", "--algo", "algo2", "--steps", "2", "--out", "x.csv"]
    ) == 0
    traj = read_csv(str(outdir / "x.csv"))
    assert traj.algorithm == "algo2"
    assert len(traj.points) == 3


def test_preset_absolute_out_ignores_outdir(outdir, tmp_path_factory):
    other = tmp_path_factory.mktemp("elsewhere")
    target = other / "run.csv"
    assert main(["preset", "tls", "--steps", "2", "--out", str(target)]) == 0
    assert target.exists()
    assert not (outdir / "run.csv").exists()


def test_preset_multi_seed_sampled(outdir):
    assert main(
        [
            "preset", "tls", "--algo", "algo2", "--steps", "2",
            "--shots", "256", "--seeds", "1,2",
        ]
    ) == 0
    traj = read_csv(str(outdir / "tls_algo2.csv"))
    assert traj.seed == "1|2"
    assert traj.has_std


# --- sweeps ----------------------------------------------------------------------


def test_sweep_paulis_cli(outdir, capsys):
    assert main(
        [
            "sweep-paulis", "--counts", "4", "--seeds", "7",
            "--tau", "0.05", "--steps", "4", "--out", "sp.csv",
        ]
    ) == 0
    lines = (outdir / "sp.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "count,seed,deviation"
    assert "wrote" in capsys.readouterr().out


def test_sweep_gamma_cli(outdir):
    assert main(
        [
            "sweep-gamma", "--gammas", "0,0.5",
            "--tau", "0.05", "--steps", "3", "--out", "sg.csv",
        ]
    ) == 0
    lines = (outdir / "sg.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "gamma,algorithm,deviation"
    assert len(data) == 1 + 4  # two gammas, two drivers


# --- plot ------------------------------------------------------------------------


def test_plot_roundtrip(outdir, capsys):
    assert main(["run", _write_config(outdir, TLS_ORACLE)]) == 0
    csv_path = outdir / "run_oracle.csv"
    assert main(["plot", str(csv_path)]) == 0
    svg = outdir / "run_oracle.svg"
    assert svg.exists()
    assert "excited_pop" in svg.read_text()
    assert "wrote" in capsys.readouterr().out


def test_plot_missing_csv(outdir, capsys):
    assert main(["plot", str(outdir / "missing.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_plot_csv_missing_columns(outdir, capsys):
    path = outdir / "partial.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    assert main(["plot", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'t'" in err
    assert not (outdir / "partial.svg").exists()


def test_plot_custom_out(outdir):
    assert main(["run", _write_config(outdir, TLS_ORACLE)]) == 0
    assert main(["plot", str(outdir / "run_oracle.csv"), "--out", "p/q.svg"]) == 0
    assert (outdir / "p" / "q.svg").exists()
