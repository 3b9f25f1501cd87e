"""Time series produced by the evolution drivers, with CSV round-trip.

CSV layout: leading ``# key=value`` comment lines echo the resolved
configuration, then a header row and one data row per (time, observable)
pair.  Bytes are deterministic for a given run except the single
``# timestamp=...`` line.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

COLUMNS = (
    "t",
    "observable",
    "value",
    "raw_norm",
    "purity",
    "dropped_mass",
    "algorithm",
    "seed",
)


@contextlib.contextmanager
def open_csv(stream, meta: dict):
    """Yield ``stream`` (a path is opened here) after the ``# key=value`` lines."""
    if isinstance(stream, (str, bytes)):
        cm = open(stream, "w", encoding="utf-8", newline="\n")
    else:
        cm = contextlib.nullcontext(stream)
    with cm as out:
        for key in sorted(meta):
            out.write(f"# {key}={meta[key]}\n")
        yield out


@dataclass
class TrajectoryPoint:
    t: float
    values: dict[str, float]
    raw_norm: float = 1.0
    purity: float = 1.0
    dropped_mass: float = 0.0
    value_std: dict[str, float] | None = None


@dataclass
class Trajectory:
    algorithm: str
    seed: str
    points: list[TrajectoryPoint] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def record(self, point: TrajectoryPoint):
        self.points.append(point)

    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    def series(self, name: str) -> np.ndarray:
        return np.array([p.values[name] for p in self.points])

    def column(self, attr: str) -> np.ndarray:
        return np.array([getattr(p, attr) for p in self.points])

    @property
    def has_std(self) -> bool:
        return any(p.value_std for p in self.points)

    def write_csv(self, stream, timestamp: bool = True):
        with open_csv(stream, self.meta) as out:
            if timestamp:
                now = datetime.now(timezone.utc).isoformat()
                out.write(f"# timestamp={now}\n")
            cols = list(COLUMNS)
            if self.has_std:
                cols.insert(3, "value_std")
            out.write(",".join(cols) + "\n")
            for p in self.points:
                for name in p.values:
                    row = [repr(float(p.t)), name, repr(float(p.values[name]))]
                    if self.has_std:
                        std = (p.value_std or {}).get(name, 0.0)
                        row.append(repr(float(std)))
                    row += [
                        repr(float(p.raw_norm)),
                        repr(float(p.purity)),
                        repr(float(p.dropped_mass)),
                        self.algorithm,
                        str(self.seed),
                    ]
                    out.write(",".join(row) + "\n")


def read_csv(path) -> Trajectory:
    """Inverse of write_csv, tolerant of the optional value_std column."""
    meta = {}
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = val.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    if header is None or not rows:
        raise ValueError("CSV holds no data rows")
    for name in ("t", "observable", "value"):
        if name not in header:
            raise ValueError(f"CSV header lacks the {name!r} column")
    algorithm = rows[0].get("algorithm", "?")
    seed = rows[0].get("seed", "?")
    traj = Trajectory(algorithm=algorithm, seed=seed, meta=meta)
    by_t: dict[float, TrajectoryPoint] = {}
    for row in rows:
        t = float(row["t"])
        point = by_t.get(t)
        if point is None:
            point = TrajectoryPoint(
                t=t,
                values={},
                raw_norm=float(row.get("raw_norm", 1.0)),
                purity=float(row.get("purity", 1.0)),
                dropped_mass=float(row.get("dropped_mass", 0.0)),
                value_std={} if "value_std" in row else None,
            )
            by_t[t] = point
            traj.record(point)
        point.values[row["observable"]] = float(row["value"])
        if "value_std" in row and point.value_std is not None:
            point.value_std[row["observable"]] = float(row["value_std"])
    return traj
