"""Trajectory container and its CSV round-trip."""

import io

import numpy as np
import pytest

from conftest import assert_close
from oqite.trajectory import Trajectory, TrajectoryPoint, read_csv


def _sample_trajectory(with_std=False):
    traj = Trajectory(algorithm="algo1", seed="5|6", meta={"b": "2", "a": "1"})
    for k in range(3):
        std = {"z": 0.01 * k, "x": 0.02} if with_std else None
        traj.record(
            TrajectoryPoint(
                t=0.1 * k,
                values={"z": 1.0 - 0.3 * k, "x": 0.123456789012345 * (k + 1)},
                raw_norm=1.0 - 1e-7 * k,
                purity=1.0 - 0.05 * k,
                dropped_mass=0.001 * k,
                value_std=std,
            )
        )
    return traj


def _csv_text(traj, timestamp):
    buf = io.StringIO()
    traj.write_csv(buf, timestamp=timestamp)
    return buf.getvalue()


def test_accessors():
    traj = _sample_trajectory()
    assert_close(traj.times(), [0.0, 0.1, 0.2], 0)
    assert_close(traj.series("z"), [1.0, 0.7, 0.4], 0)
    assert_close(traj.column("purity"), [1.0, 0.95, 0.9], 0)
    assert not traj.has_std
    assert _sample_trajectory(with_std=True).has_std


def test_series_unknown_name():
    with pytest.raises(KeyError):
        _sample_trajectory().series("nope")


def test_csv_layout():
    text = _csv_text(_sample_trajectory(), timestamp=False)
    lines = text.splitlines()
    # meta lines first, sorted by key
    assert lines[0] == "# a=1"
    assert lines[1] == "# b=2"
    assert lines[2].startswith("t,observable,value,raw_norm,")
    # one row per (time, observable)
    assert len(lines) == 3 + 3 * 2
    assert "algo1" in lines[3] and lines[3].endswith("5|6")
    assert "value_std" not in text


def test_csv_timestamp_is_the_only_unstable_line():
    traj = _sample_trajectory()
    a = _csv_text(traj, timestamp=True)
    b = _csv_text(traj, timestamp=True)
    drop = lambda s: [l for l in s.splitlines() if not l.startswith("# timestamp=")]
    assert drop(a) == drop(b)
    assert sum(l.startswith("# timestamp=") for l in a.splitlines()) == 1
    assert _csv_text(traj, timestamp=False) == "\n".join(drop(a)) + "\n"


def test_round_trip(tmp_path):
    traj = _sample_trajectory()
    path = tmp_path / "run.csv"
    traj.write_csv(str(path))
    back = read_csv(str(path))
    assert back.algorithm == "algo1"
    assert back.seed == "5|6"
    assert back.meta["a"] == "1" and back.meta["b"] == "2"
    assert "timestamp" in back.meta
    assert len(back.points) == 3
    # repr() round-trips doubles exactly
    assert_close(back.series("x"), traj.series("x"), 0, "exact floats")
    assert_close(back.column("raw_norm"), traj.column("raw_norm"), 0)
    assert_close(back.column("dropped_mass"), traj.column("dropped_mass"), 0)
    assert not back.has_std


def test_round_trip_with_std(tmp_path):
    traj = _sample_trajectory(with_std=True)
    path = tmp_path / "run.csv"
    traj.write_csv(str(path), timestamp=False)
    header = path.read_text().splitlines()[2]
    assert header.split(",")[3] == "value_std"
    back = read_csv(str(path))
    assert back.has_std
    assert back.points[1].value_std["z"] == 0.01
    assert back.points[2].value_std["x"] == 0.02


def test_round_trip_then_rewrite_is_stable(tmp_path):
    traj = _sample_trajectory(with_std=True)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    traj.write_csv(str(p1), timestamp=False)
    read_csv(str(p1)).write_csv(str(p2), timestamp=False)
    assert p1.read_text() == p2.read_text()


def test_read_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only=meta\n")
    with pytest.raises(ValueError):
        read_csv(str(path))


@pytest.mark.parametrize("column", ["t", "observable", "value"])
def test_read_csv_names_missing_column(tmp_path, column):
    path = tmp_path / "partial.csv"
    _sample_trajectory().write_csv(str(path), timestamp=False)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(column + ",", "other,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"'{column}' column"):
        read_csv(str(path))


def test_times_is_float_array():
    times = _sample_trajectory().times()
    assert isinstance(times, np.ndarray)
    assert times.dtype == np.float64
