"""Preset runs against committed golden CSVs, byte for byte.

The fixtures in ``tests/golden/`` hold every preset x driver in exact
mode at the default step count, and both drivers with 8192 shots over
two seeds.  Only the ``# timestamp=`` line may differ; a refactor that
changes any other byte of a run's output fails here.
"""

from pathlib import Path

import pytest

from oqite.cli import main

GOLDEN = Path(__file__).parent / "golden"

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


def _without_timestamp(data: bytes) -> bytes:
    return b"".join(
        line
        for line in data.splitlines(keepends=True)
        if not line.startswith(b"# timestamp=")
    )


@pytest.mark.parametrize("fixture, args", CASES, ids=[c[0][:-4] for c in CASES])
def test_preset_matches_golden(tmp_path, capsys, fixture, args):
    out = tmp_path / fixture
    assert main(["preset", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _without_timestamp(out.read_bytes()) == (GOLDEN / fixture).read_bytes()
