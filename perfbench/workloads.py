"""The three benchmark workloads and the run configs made from a seed.

Each workload is one fixed JSON config for ``oqite run`` with the ``tfim``
preset's parameters (j = h = 1, gamma = 0.1, tau = 0.05, basis seed 163,
regularizer 0.01) at n = 2 or n = 5.  The configs are
written out here rather than taken from ``oqite.experiments.preset`` so
that a later change to the presets cannot change what the benchmark runs.

Only the sampled workload draws, so only it takes inputs from the seed:
trajectory ``i`` of a run with seed ``s`` uses the shot seed derived from
``(s, i)``.  The exact workloads run their config with shot seed 0
whatever the seed, because exact trajectories are fully
determined by the config and their accuracy figure would otherwise move
with the input instead of with the code.

Trajectories are kept short (a quarter of a second each, except the
one-step oracle) so that the host probe taken between them follows the
speed changes of a shared machine closely (see ``hostspeed.py``); the
per-step cost does not depend on the length.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

TAU = 0.05
TFIM_REGULARIZER = 0.01
TFIM_BASIS_SEED = 163
SHOTS = 8192


def tfim_model(n: int) -> dict:
    return {"type": "tfim", "params": {"n": n, "j": 1.0, "h": 1.0, "gamma": 0.1}}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``max_dev`` is the accuracy gate on the avg_z deviation from the
    independent reference: criterion 4 of the acceptance suite for the
    drivers (0.03 for algo2, 0.15 for algo1), and the oracle-vs-scipy
    tolerance of the oracle tests for the oracle.
    """

    name: str
    n_qubits: int
    algorithm: str
    n_steps: int
    max_dev: float
    basis: dict | None = None
    delta_reg: float | None = None
    shots: int = 0

    @property
    def sampled(self) -> bool:
        return self.shots > 0

    def config(self, seed: int, index: int, n_steps: int | None = None) -> dict:
        """Raw ``oqite run`` config for trajectory ``index`` of seed ``seed``."""
        raw = {
            "algorithm": self.algorithm,
            "tau": TAU,
            "shots": self.shots,
            "seeds": [shot_seed(seed, index) if self.sampled else 0],
            "model": tfim_model(self.n_qubits),
            "n_steps": self.n_steps if n_steps is None else n_steps,
            "initial": [["1" * self.n_qubits, 1.0]],
        }
        if self.basis is not None:
            raw["basis"] = copy.deepcopy(self.basis)
        if self.delta_reg is not None:
            raw["delta_reg"] = self.delta_reg
        return raw

    def reference_spec(self) -> dict:
        """Input of :func:`reference.avg_z_series` for this workload's full run."""
        raw = self.config(0, 0)
        return {
            **raw["model"]["params"],
            "tau": raw["tau"],
            "n_steps": raw["n_steps"],
            "initial": raw["initial"],
        }


def shot_seed(seed: int, index: int) -> int:
    """Philox seed of trajectory ``index`` in a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tfim2-algo2-exact",
            n_qubits=2,
            algorithm="algo2",
            n_steps=10,
            max_dev=0.03,
        ),
        Workload(
            name="tfim2-algo1-shots",
            n_qubits=2,
            algorithm="algo1",
            n_steps=20,
            max_dev=0.15,
            basis={"kind": "random", "count": 16, "seed": TFIM_BASIS_SEED},
            delta_reg=TFIM_REGULARIZER,
            shots=SHOTS,
        ),
        Workload(
            name="tfim5-oracle",
            n_qubits=5,
            algorithm="oracle",
            n_steps=1,
            max_dev=1e-9,
        ),
    )
}
