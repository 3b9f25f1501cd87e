"""Weighted-branch (purification) driver on the physical register.

The state is rho = sum_x p_x |phi_x><phi_x| with phi_x = U|x> sharing one
unitary U, so branches stay mutually orthonormal.  Each Trotter slice
applies, in order: the Hamiltonian factor (every phi through
exp(-i H tau)), then per jump L the no-jump drift factor

    rho <- e^{-tau L+L/2} rho e^{-tau L+L/2}

and the jump refill factor rho <- rho + tau L rho L+, both projected back
onto the ansatz as a weight update p <- p + q plus a common branch
rotation phi <- exp(+iA) phi.  A solves the same regularized real system
as the pure-state imaginary-time step, with S and b assembled from branch
matrix elements <phi_x|sigma|phi_y>; every element is computed (or
sampled) once per substep and shared across S, b and q.

The drift weight update uses the expectation of L+L in the tracked
branches; summed against the refill update on a complete index set this
conserves sum(q) = 0 identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import StepSizeError
from .models import LindbladModel
from .pauli import PauliString, PauliSum, apply_string, multiply
from .qite import PauliBasis, solve_regularized
from .states import (
    EXACT,
    ShotModel,
    StateVector,
    expectation,
    matrix_element,
    pauli_rotation,
)
from .trajectory import Trajectory, TrajectoryPoint

WEIGHT_FLOOR = -1e-9  # weights below this abort the step


@dataclass(frozen=True)
class Algo2Config:
    tau: float
    n_steps: int
    basis: PauliBasis
    delta_reg: float = 0.0
    shot: ShotModel = EXACT
    prune_threshold: float = 0.0

    def __post_init__(self):
        if self.tau <= 0 or self.n_steps < 0 or self.prune_threshold < 0:
            raise ValueError("bad driver configuration")


@dataclass(frozen=True)
class AnsatzState:
    """Branch weights and tracked branch vectors (conjugates implicit)."""

    n_qubits: int
    indices: tuple[int, ...]
    p: np.ndarray
    phi: tuple[StateVector, ...]
    dropped_mass: float = 0.0

    def __post_init__(self):
        p = np.array(self.p, dtype=np.float64)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "phi", tuple(self.phi))
        if len({i for i in self.indices}) != len(self.indices):
            raise ValueError("duplicate branch indices")
        if not (len(self.indices) == len(self.p) == len(self.phi)):
            raise ValueError("branch bookkeeping out of sync")
        if np.any(self.p < WEIGHT_FLOOR):
            bad = int(np.argmin(self.p))
            raise StepSizeError(
                f"negative weight {self.p[bad]:.3e} on branch "
                f"{self.bit_label(bad)}"
            )

    def bit_label(self, position: int) -> str:
        return format(self.indices[position], f"0{self.n_qubits}b")

    def total_weight(self) -> float:
        return float(np.sum(self.p))

    def branch_purity(self) -> float:
        """Tr(rho^2)/Tr(rho)^2 for the represented state."""
        total = self.total_weight()
        return float(np.sum(self.p**2)) / total**2 if total > 0 else 0.0


def init_ansatz(weights, n_qubits: int) -> AnsatzState:
    """Diagonal start sum_x p_x |x><x| from (bitstring, weight) pairs.

    Zero weights are allowed and keep a branch available for refill.
    """
    indices, p = [], []
    for bits, w in weights:
        if len(bits) != n_qubits:
            raise ValueError(f"bit string {bits!r} does not match n={n_qubits}")
        indices.append(int(bits, 2))
        p.append(float(w))
    total = sum(p)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    phi = tuple(StateVector.basis_state(n_qubits, i) for i in indices)
    return AnsatzState(n_qubits, tuple(indices), np.array(p), phi)


class _Elements:
    """Per-substep cache of branch matrix elements <phi_x|sigma|phi_y>.

    The sampled path draws each string's elements once (upper triangle,
    diagonal first) and mirrors the rest by conjugation; cache hits spend
    no further shots.
    """

    def __init__(self, state: AnsatzState, shot: ShotModel):
        self.state = state
        self.shot = shot
        self.r = len(state.p)
        self._stack = np.vstack([f.amplitudes for f in state.phi])
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def of_string(self, string: PauliString) -> np.ndarray:
        key = (string.x_mask, string.z_mask)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        r = self.r
        if self.shot.exact:
            applied = np.vstack(
                [apply_string(string, self._stack[y]) for y in range(r)]
            )
            mat = self._stack.conj() @ applied.T
        else:
            single = PauliSum(self.state.n_qubits, [(1.0, string)])
            mat = np.empty((r, r), dtype=np.complex128)
            for x in range(r):
                mat[x, x] = expectation(self.state.phi[x], single, self.shot).real
                for y in range(x + 1, r):
                    mat[x, y] = matrix_element(
                        self.state.phi[x], self.state.phi[y], single, self.shot
                    )
                    mat[y, x] = mat[x, y].conjugate()
        self._cache[key] = mat
        return mat

    def of_sum(self, op: PauliSum) -> np.ndarray:
        out = np.zeros((self.r, self.r), dtype=np.complex128)
        for coeff, string in op:
            out += coeff * self.of_string(string)
        return out

    def of_product(self, left: PauliString, op: PauliSum) -> np.ndarray:
        """Elements of (left * op) expanded through the string cache."""
        out = np.zeros((self.r, self.r), dtype=np.complex128)
        for coeff, string in op:
            phase, prod = multiply(left, string)
            out += coeff * phase * self.of_string(prod)
        return out


def _assemble_overlap(elems: _Elements, basis: PauliBasis, p: np.ndarray):
    """S_jk plus the per-string element matrices (reused by b)."""
    m = len(basis)
    w2 = p**2
    pp = np.outer(p, p)
    e_mats = [elems.of_string(s) for s in basis.strings]
    s_mat = np.empty((m, m), dtype=np.float64)
    for j in range(m):
        for k in range(j, m):
            phase, prod = multiply(basis.strings[j], basis.strings[k])
            diag = np.real(np.diag(elems.of_string(prod)))
            anti = 2.0 * phase.real * float(w2 @ diag)
            cross = -2.0 * float(np.sum(pp * np.real(e_mats[j] * e_mats[k].T)))
            s_mat[j, k] = s_mat[k, j] = anti + cross
    return s_mat, e_mats


def _drift_parts(elems, basis, p, jump, tau, e_mats):
    gen = jump.adjoint() * jump  # L+L, Hermitian
    gen_mat = elems.of_sum(gen)
    q = -tau * p * np.real(np.diag(gen_mat))
    pp = np.outer(p, p)
    b = np.empty(len(basis), dtype=np.float64)
    for j, sj in enumerate(basis.strings):
        own = float((p**2) @ np.imag(np.diag(elems.of_product(sj, gen))))
        cross = float(np.sum(pp * np.imag(e_mats[j] * gen_mat.T)))
        b[j] = -tau * (own + cross)
    return b, q


def _jump_parts(elems, basis, p, jump, tau):
    el = elems.of_sum(jump)
    el_dag = elems.of_sum(jump.adjoint())  # cache-backed, no extra draws
    q = tau * (np.abs(el) ** 2 @ p)
    pp = np.outer(p, p)
    b = np.empty(len(basis), dtype=np.float64)
    for j, sj in enumerate(basis.strings):
        ejl = elems.of_product(sj, jump)
        b[j] = 2.0 * tau * float(np.sum(pp * np.imag(ejl * el_dag.T)))
    return b, q


def drift_system(
    state: AnsatzState,
    jump: PauliSum,
    tau: float,
    basis: PauliBasis,
    shot: ShotModel = EXACT,
):
    """(S, b, q) for the no-jump factor of one jump operator."""
    elems = _Elements(state, shot)
    s_mat, e_mats = _assemble_overlap(elems, basis, state.p)
    b, q = _drift_parts(elems, basis, state.p, jump, tau, e_mats)
    return s_mat, b, q


def jump_system(
    state: AnsatzState,
    jump: PauliSum,
    tau: float,
    basis: PauliBasis,
    shot: ShotModel = EXACT,
):
    """(S, b, q) for the refill factor rho + tau L rho L+."""
    elems = _Elements(state, shot)
    s_mat, e_mats = _assemble_overlap(elems, basis, state.p)
    b, q = _jump_parts(elems, basis, state.p, jump, tau)
    return s_mat, b, q


def _rotate_branches(
    state: AnsatzState, basis: PauliBasis, angles: np.ndarray
) -> tuple[StateVector, ...]:
    # common rotation prod_j exp(+i a_j sigma_j), basis order, all branches
    out = []
    for f in state.phi:
        amps = f.amplitudes
        for theta, string in zip(angles, basis.strings):
            if theta == 0.0:
                continue
            amps = np.cos(theta) * amps + 1j * np.sin(theta) * apply_string(
                string, amps
            )
        amps = amps / np.linalg.norm(amps)
        out.append(StateVector(state.n_qubits, amps))
    return tuple(out)


def _apply_update(
    state: AnsatzState, basis: PauliBasis, q: np.ndarray, a: np.ndarray
) -> AnsatzState:
    new_p = state.p + q
    low = int(np.argmin(new_p))
    if new_p[low] < WEIGHT_FLOOR:
        raise StepSizeError(
            f"weight update drives branch {state.bit_label(low)} to "
            f"{new_p[low]:.3e}; reduce the time step"
        )
    return replace(state, p=new_p, phi=_rotate_branches(state, basis, a))


def drift_step(
    state: AnsatzState,
    jump: PauliSum,
    tau: float,
    basis: PauliBasis,
    delta_reg: float = 0.0,
    shot: ShotModel = EXACT,
) -> AnsatzState:
    s_mat, b, q = drift_system(state, jump, tau, basis, shot)
    step = solve_regularized(s_mat, b, delta_reg)
    return _apply_update(state, basis, q, step.a)


def jump_step(
    state: AnsatzState,
    jump: PauliSum,
    tau: float,
    basis: PauliBasis,
    delta_reg: float = 0.0,
    shot: ShotModel = EXACT,
) -> AnsatzState:
    s_mat, b, q = jump_system(state, jump, tau, basis, shot)
    step = solve_regularized(s_mat, b, delta_reg)
    return _apply_update(state, basis, q, step.a)


def unitary_step(state: AnsatzState, h: PauliSum, tau: float) -> AnsatzState:
    """First-order Trotter of exp(-i H tau) on every branch, term order."""
    out = []
    for f in state.phi:
        for coeff, string in h:
            f = pauli_rotation(f, string, coeff.real * tau)
        out.append(f)
    return replace(state, phi=tuple(out))


def dissipator_step(
    state: AnsatzState,
    jump: PauliSum,
    tau: float,
    basis: PauliBasis,
    delta_reg: float = 0.0,
    shot: ShotModel = EXACT,
) -> AnsatzState:
    """Combined no-jump and refill update for one jump operator.

    Both factors are assembled from the same input state: one S matrix,
    two right-hand sides, one weight update q = q_drift + q_refill.  On
    a complete index set the two weight flows cancel in total, so the
    weight sum is conserved to rounding; applying the factors as
    separate sequential steps instead would leak O(tau^2) of trace per
    step.  Rotations keep the factor order (drift, then refill).
    """
    elems = _Elements(state, shot)
    s_mat, e_mats = _assemble_overlap(elems, basis, state.p)
    b_drift, q_drift = _drift_parts(elems, basis, state.p, jump, tau, e_mats)
    b_refill, q_refill = _jump_parts(elems, basis, state.p, jump, tau)
    a_drift = solve_regularized(s_mat, b_drift, delta_reg).a
    a_refill = solve_regularized(s_mat, b_refill, delta_reg).a
    state = _apply_update(state, basis, q_drift + q_refill, a_drift)
    return replace(state, phi=_rotate_branches(state, basis, a_refill))


def step(state: AnsatzState, model: LindbladModel, cfg: Algo2Config) -> AnsatzState:
    """One Trotter slice: Hamiltonian, then both dissipator factors per jump."""
    state = unitary_step(state, model.hamiltonian, cfg.tau)
    for jump in model.jumps:
        state = dissipator_step(
            state, jump, cfg.tau, cfg.basis, cfg.delta_reg, cfg.shot
        )
    if cfg.prune_threshold > 0.0:
        state = prune(state, cfg.prune_threshold)
    return state


def prune(state: AnsatzState, threshold: float) -> AnsatzState:
    """Drop branches below ``threshold``, rescale the rest to the old total."""
    keep = state.p >= threshold
    if np.all(keep):
        return state
    if not np.any(keep):
        raise StepSizeError("pruning would drop every branch")
    dropped = float(np.sum(state.p[~keep]))
    total = state.total_weight()
    scale = total / (total - dropped) if total > dropped else 1.0
    return AnsatzState(
        state.n_qubits,
        tuple(i for i, k in zip(state.indices, keep) if k),
        state.p[keep] * scale,
        tuple(f for f, k in zip(state.phi, keep) if k),
        state.dropped_mass + dropped,
    )


def observe(state: AnsatzState, obs: PauliSum, shot: ShotModel = EXACT) -> float:
    """sum_x p_x <phi_x|O|phi_x>; the weight total is not renormalized."""
    total = 0.0
    for w, f in zip(state.p, state.phi):
        if w == 0.0:
            continue
        total += w * expectation(f, obs, shot).real
    return float(total)


def run(
    model: LindbladModel,
    init: AnsatzState,
    cfg: Algo2Config,
    observables: Mapping[str, PauliSum],
    seed_label: str = "0",
) -> Trajectory:
    state = init
    traj = Trajectory(algorithm="algo2", seed=seed_label)

    def record(t: float):
        values = {
            name: observe(state, obs, cfg.shot) for name, obs in observables.items()
        }
        traj.record(
            TrajectoryPoint(
                t=t,
                values=values,
                raw_norm=state.total_weight(),
                purity=state.branch_purity(),
                dropped_mass=state.dropped_mass,
            )
        )

    record(0.0)
    for k in range(cfg.n_steps):
        state = step(state, model, cfg)
        record((k + 1) * cfg.tau)
    return traj
