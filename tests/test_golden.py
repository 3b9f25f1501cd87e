"""Preset runs against committed golden CSVs, byte for byte.

The fixtures in ``tests/golden/`` hold every preset x driver in exact
mode at the default step count, and both drivers with 8192 shots over
two seeds.  Two ``oqite run`` configs cover algo2 beyond four branches:
tfim n = 3 with all 8 branches and the full basis, and a sampled n = 3
run on a 4-branch index set.  Its transverse field is 0, so the branches
are still basis states in the first dissipator step and the sampled
basis-state shortcut of ``matrix_element`` runs.  Only the
``# timestamp=`` line may differ; a refactor that changes any other byte
of a run's output fails here.

The bytes depend on the OpenBLAS kernel that numpy loads, which OpenBLAS
picks by CPU (``OPENBLAS_CORETYPE`` overrides it).  ``ENVIRONMENT.json``
records the numpy and OpenBLAS that made the fixtures, and a failure
prints it next to the current one, so that a kernel mismatch can be told
apart from a regression.  Run this module as a script to print the
current environment; after regenerating the fixtures, record it with
``PYTHONPATH=src python tests/test_golden.py > tests/golden/ENVIRONMENT.json``.
"""

import ctypes
import json
from pathlib import Path

import numpy as np
import pytest

from oqite.cli import main

GOLDEN = Path(__file__).parent / "golden"
ENVIRONMENT = GOLDEN / "ENVIRONMENT.json"


def _openblas_call(symbol: str, restype):
    """Call a no-argument function of numpy's ILP64 OpenBLAS, or give None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_environment() -> dict:
    """numpy version, OpenBLAS version, core name and thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "openblas": blas.get("version"),
        "openblas_corename": core.decode() if core is not None else None,
        "openblas_threads": _openblas_call(
            "scipy_openblas_get_num_threads64_", ctypes.c_int
        ),
    }


CASES = [
    (f"{name}-{algo}-exact.csv", [name, "--algo", algo])
    for name in ("tls", "tfim")
    for algo in ("oracle", "algo1", "algo2")
] + [
    (
        f"{name}-{algo}-shots8192.csv",
        [name, "--algo", algo, "--shots", "8192", "--steps", "30", "--seeds", "0,1"],
    )
    for name in ("tls", "tfim")
    for algo in ("algo1", "algo2")
]

TFIM3 = {"type": "tfim", "params": {"n": 3, "j": 1.0, "h": 1.0, "gamma": 0.1}}
RUN_CASES = [
    (
        "tfim3-algo2-full.csv",
        {"model": TFIM3, "algorithm": "algo2", "tau": 0.05, "n_steps": 10,
         "basis": {"kind": "full"}, "delta_reg": 0.01},
    ),
    (
        "tfim3-algo2-shots1024.csv",
        {"model": {**TFIM3, "params": {**TFIM3["params"], "h": 0.0}},
         "algorithm": "algo2", "tau": 0.05, "n_steps": 4,
         "basis": {"kind": "random", "count": 12, "seed": 5}, "delta_reg": 0.01,
         "shots": 1024, "seeds": [0, 1], "index_set": ["111", "110", "101", "011"],
         "initial": [["111", 0.7], ["011", 0.3]]},
    ),
]


def _without_timestamp(data: bytes) -> bytes:
    return b"".join(
        line
        for line in data.splitlines(keepends=True)
        if not line.startswith(b"# timestamp=")
    )


def _assert_golden(out: bytes, fixture: str):
    recorded = json.loads(ENVIRONMENT.read_text(encoding="utf-8"))
    assert _without_timestamp(out) == (GOLDEN / fixture).read_bytes(), (
        f"{fixture} differs; fixtures made under {recorded}, "
        f"this run under {blas_environment()}"
    )


@pytest.mark.parametrize("fixture, args", CASES, ids=[c[0][:-4] for c in CASES])
def test_preset_matches_golden(tmp_path, capsys, fixture, args):
    out = tmp_path / fixture
    assert main(["preset", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    _assert_golden(out.read_bytes(), fixture)


@pytest.mark.parametrize("fixture, raw", RUN_CASES, ids=[c[0][:-4] for c in RUN_CASES])
def test_run_matches_golden(tmp_path, capsys, monkeypatch, fixture, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setenv("OQITE_OUTDIR", str(tmp_path))
    assert main(["run", str(config)]) == 0
    capsys.readouterr()
    _assert_golden((tmp_path / "run_algo2.csv").read_bytes(), fixture)


if __name__ == "__main__":
    print(json.dumps(blas_environment(), indent=2))
