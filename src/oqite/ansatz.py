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

The branches are the rows of one read-only (r, 2^n) array: element
tables and rotations act on all rows at once, and per-branch
:class:`StateVector` s are built only for sampled elements and ``observe``.

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

    def __post_init__(self):
        if self.tau <= 0 or self.n_steps < 0:
            raise ValueError("bad driver configuration")


@dataclass(frozen=True)
class AnsatzState:
    """Branch weights ``p`` and branch vectors ``phi`` (conjugates implicit).

    Row x of the read-only complex (r, 2^n) array ``phi`` is the branch of
    weight ``p[x]`` grown from ``|indices[x]>``; both arrays are copies.
    """

    n_qubits: int
    indices: tuple[int, ...]
    p: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=np.float64)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        phi = np.array(self.phi, dtype=np.complex128, order="C")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "indices", tuple(self.indices))
        if len({i for i in self.indices}) != len(self.indices):
            raise ValueError("duplicate branch indices")
        if len(self.indices) != len(p) or phi.shape != (len(p), 1 << self.n_qubits):
            raise ValueError(f"branch bookkeeping out of sync (phi {phi.shape})")
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
    phi = np.zeros((len(indices), 1 << n_qubits), dtype=np.complex128)
    phi[np.arange(len(indices)), indices] = 1.0
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
        rows = () if shot.exact else state.phi  # sampled calls take StateVectors
        self.vecs = [StateVector(state.n_qubits, row) for row in rows]
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def of_string(self, string: PauliString) -> np.ndarray:
        key = (string.x_mask, string.z_mask)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.shot.exact:
            mat = self.state.phi.conj() @ apply_string(string, self.state.phi).T
        else:
            single = PauliSum(self.state.n_qubits, [(1.0, string)])
            mat = np.empty((self.r, self.r), dtype=np.complex128)
            for x, vx in enumerate(self.vecs):
                mat[x, x] = expectation(vx, single, self.shot).real
                for y in range(x + 1, self.r):
                    mat[x, y] = matrix_element(vx, self.vecs[y], single, self.shot)
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
    """S_jk plus the (m, r, r) stack of basis-string elements (reused by b)."""
    m = len(basis)
    w2 = p**2
    pp = np.outer(p, p)
    e_mats = np.array([elems.of_string(s) for s in basis.strings])
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
    w2 = p**2  # one 1-D dot per string: a matrix-vector product rounds differently
    own = np.array([w2 @ np.imag(np.diag(elems.of_product(s, gen))) for s in basis])
    cross = np.sum(pp * np.imag(e_mats * gen_mat.T), axis=(1, 2))
    return -tau * (own + cross), q


def _jump_parts(elems, basis, p, jump, tau):
    el = elems.of_sum(jump)
    el_dag = elems.of_sum(jump.adjoint())  # cache-backed, no extra draws
    q = tau * (np.abs(el) ** 2 @ p)
    pp = np.outer(p, p)
    ejl = np.array([elems.of_product(sj, jump) for sj in basis.strings])
    return 2.0 * tau * np.sum(pp * np.imag(ejl * el_dag.T), axis=(1, 2)), q


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
) -> np.ndarray:
    # common rotation prod_j exp(+i a_j sigma_j), basis order, all branches;
    # each row's norm is its own 1-D norm: a norm along axis 1 rounds differently
    phi = pauli_rotation(state.phi, basis.strings, -angles)
    return phi / np.array([np.linalg.norm(row) for row in phi])[:, None]


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


def unitary_step(state: AnsatzState, h: PauliSum, tau: float) -> AnsatzState:
    """First-order Trotter of exp(-i H tau) on every branch, term order."""
    angles = [coeff.real * tau for coeff, _ in h]
    return replace(state, phi=pauli_rotation(state.phi, [s for _, s in h], angles))


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
    return state


def observe(state: AnsatzState, obs: PauliSum, shot: ShotModel = EXACT) -> float:
    """sum_x p_x <phi_x|O|phi_x>; the weight total is not renormalized."""
    total = 0.0
    for w, row in zip(state.p, state.phi):
        if w == 0.0:
            continue
        total += w * expectation(StateVector(state.n_qubits, row), obs, shot).real
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
            )
        )

    record(0.0)
    for k in range(cfg.n_steps):
        state = step(state, model, cfg)
        record((k + 1) * cfg.tau)
    return traj
