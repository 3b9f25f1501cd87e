"""Classical simulators for Markovian open-system dynamics.

Two drivers integrate the same master equation with imaginary-time-style
variational steps: one works on the vectorized density matrix over a
doubled register, the other on a weighted branch decomposition of the
physical register.  A dense integrator provides reference dynamics for
both.
"""

from .ansatz import Algo2Config, AnsatzState, init_ansatz
from .ansatz import observe as observe_branches
from .ansatz import run as run_branches
from .errors import ConfigError, DegenerateTraceError, StepSizeError
from .models import (
    LindbladModel,
    model_from_config,
    tfim_model,
    tls_model,
    vec,
    unvec,
    vectorize,
)
from .oracle import evolve_exact
from .pauli import PauliString, PauliSum
from .qite import PauliBasis
from .states import EXACT, DensityMatrix, ShotModel, StateVector
from .trajectory import Trajectory, TrajectoryPoint, read_csv
from .vectorized import Algo1Config, init_vectorized
from .vectorized import observe as observe_vectorized
from .vectorized import run as run_vectorized

__version__ = "0.1.0"

__all__ = [
    "Algo1Config",
    "Algo2Config",
    "AnsatzState",
    "ConfigError",
    "DegenerateTraceError",
    "DensityMatrix",
    "EXACT",
    "LindbladModel",
    "PauliBasis",
    "PauliString",
    "PauliSum",
    "ShotModel",
    "StateVector",
    "StepSizeError",
    "Trajectory",
    "TrajectoryPoint",
    "evolve_exact",
    "init_ansatz",
    "init_vectorized",
    "model_from_config",
    "observe_branches",
    "observe_vectorized",
    "read_csv",
    "run_branches",
    "run_vectorized",
    "tfim_model",
    "tls_model",
    "unvec",
    "vec",
    "vectorize",
    "__version__",
]
