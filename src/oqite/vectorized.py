"""Evolution of vec(rho) on 2n qubits (vectorized driver).

Each step applies the real-time factor exp(-i*coherent*tau) through exact
per-term Pauli rotations and the decay factor exp(-decay*tau) through one
QITE step.  The working state is kept at unit norm; the norm measured
before each defensive renormalization is logged so conservation claims
stay auditable.  Physical readout never needs the lost scale:

    Tr(O rho) / Tr(rho) = <vec(O+)|v> / <vec(I)|v>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DegenerateTraceError
from .models import LindbladModel, VectorizedGenerator, vec, vectorize
from .pauli import PauliString, PauliSum
from .qite import PauliBasis, QiteStep, nonunitary_step
from .states import EXACT, DensityMatrix, ShotModel, StateVector, pauli_rotation
from .trajectory import Trajectory, TrajectoryPoint

TRACE_FLOOR = 1e-8


@dataclass(frozen=True)
class Algo1Config:
    tau: float
    n_steps: int
    basis: PauliBasis
    delta_reg: float = 0.0
    shot: ShotModel = EXACT
    trotter_substeps: int = 1

    def __post_init__(self):
        if self.tau <= 0 or self.n_steps < 0 or self.trotter_substeps < 1:
            raise ValueError("bad driver configuration")


@dataclass(frozen=True)
class VectorizedState:
    """Unit vector v with vec(rho) = sqrt(purity0) * v (up to drift)."""

    n_phys: int
    v: StateVector
    purity0: float


class StepResult(NamedTuple):
    state: VectorizedState
    raw_norm: float
    qite: QiteStep | None


def init_vectorized(rho0: DensityMatrix) -> VectorizedState:
    purity0 = rho0.purity()
    if purity0 <= 0:
        raise ValueError("initial state has no weight")
    v = vec(rho0)
    return VectorizedState(rho0.n_qubits, v.normalized(), purity0)


def _vec_identity(n_phys: int) -> StateVector:
    dim = 1 << n_phys
    amps = np.zeros(dim * dim, dtype=np.complex128)
    amps[:: dim + 1] = 1.0
    return StateVector(2 * n_phys, amps)


def trace_surrogate(state: VectorizedState) -> complex:
    """<vec(I)|v>; proportional to Tr(rho) with a fixed positive scale."""
    return complex(
        np.vdot(_vec_identity(state.n_phys).amplitudes, state.v.amplitudes)
    )


def step(
    state: VectorizedState, gen: VectorizedGenerator, cfg: Algo1Config
) -> StepResult:
    """One Trotter slice: rotations for the coherent part, QITE for decay."""
    sub_tau = cfg.tau / cfg.trotter_substeps
    strings = [string for _, string in gen.coherent]
    angles = [coeff.real * sub_tau for coeff, _ in gen.coherent]
    amps = state.v.amplitudes
    for _ in range(cfg.trotter_substeps):
        amps = pauli_rotation(amps, strings, angles)
    v = StateVector(state.v.n_qubits, amps)
    if len(gen.decay):
        outcome = nonunitary_step(
            v, gen.decay, cfg.tau, cfg.basis, cfg.delta_reg, cfg.shot
        )
        new_state = VectorizedState(state.n_phys, outcome.state, state.purity0)
        return StepResult(new_state, outcome.raw_norm, outcome.qite)
    new_state = VectorizedState(state.n_phys, v.normalized(), state.purity0)
    return StepResult(new_state, v.norm(), None)


def observe(
    state: VectorizedState, obs: PauliSum, shot: ShotModel = EXACT
) -> float:
    """Tr(O rho)/Tr(rho) via two vector overlaps.

    Sampled mode estimates, per Pauli term, the real and imaginary parts
    of the unit-normalized overlaps (the scale 2^{n/2} is exact structure).
    """
    if obs.n_qubits != state.n_phys:
        raise ValueError("observable register mismatch")
    scale = 2.0 ** (state.n_phys / 2.0)
    v = state.v

    # numerator sum_j c_j <vec(s_j)|v>, denominator <vec(I)|v>
    def term_overlap(string: PauliString) -> complex:
        vec_s = _vec_string(state.n_phys, string)
        exact_val = complex(np.vdot(vec_s.amplitudes, v.amplitudes)) / scale
        if shot.exact:
            out = exact_val
        else:
            out = complex(
                shot.sample_mean(exact_val.real), shot.sample_mean(exact_val.imag)
            )
        return out * scale

    numerator = sum(coeff * term_overlap(string) for coeff, string in obs)
    ident = PauliString(state.n_phys, 0, 0)
    denominator = term_overlap(ident)
    if abs(denominator) < TRACE_FLOOR:
        raise DegenerateTraceError(
            f"trace surrogate {abs(denominator):.2e} below {TRACE_FLOOR:.0e}"
        )
    return float((numerator / denominator).real)


def _vec_string(n_phys: int, string: PauliString) -> StateVector:
    """vec of the canonical string matrix as a 2n-qubit vector."""
    mat = string.to_matrix()
    return StateVector(2 * n_phys, mat.reshape(-1, order="F"))


def purity(state: VectorizedState) -> float:
    """Normalized purity Tr(rho^2)/Tr(rho)^2 = <v|v>/|<vec(I)|v>|^2."""
    vv = float(np.vdot(state.v.amplitudes, state.v.amplitudes).real)
    tr = abs(trace_surrogate(state))
    if tr < TRACE_FLOOR:
        raise DegenerateTraceError("trace surrogate vanished")
    return vv / tr**2


def conserved_norm(state: VectorizedState) -> float:
    """<v|v> * purity0, the inner product the scheme is meant to conserve."""
    return float(np.vdot(state.v.amplitudes, state.v.amplitudes).real) * state.purity0


def hermiticity_drift(state: VectorizedState) -> float:
    """Relative Frobenius distance of unvec(v) from its Hermitian part."""
    from .models import unvec

    rho = unvec(state.v).entries
    return float(
        np.linalg.norm(rho - rho.conj().T) / max(np.linalg.norm(rho), 1e-300)
    )


def run(
    model: LindbladModel,
    rho0: DensityMatrix,
    cfg: Algo1Config,
    observables: Mapping[str, PauliSum],
    seed_label: str = "0",
) -> Trajectory:
    gen = vectorize(model)
    state = init_vectorized(rho0)
    traj = Trajectory(algorithm="algo1", seed=seed_label)

    def record(t: float, raw_norm: float):
        values = {
            name: observe(state, obs, cfg.shot) for name, obs in observables.items()
        }
        traj.record(
            TrajectoryPoint(
                t=t, values=values, raw_norm=raw_norm, purity=purity(state)
            )
        )

    record(0.0, 1.0)
    for k in range(cfg.n_steps):
        state, raw_norm, _ = step(state, gen, cfg)
        record((k + 1) * cfg.tau, raw_norm)
    return traj
