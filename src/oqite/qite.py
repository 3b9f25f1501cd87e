"""Imaginary-time step via a regularized real linear system.

One step approximates exp(-tau*h)|psi>/norm by exp(-i tau A)|psi> with
A = sum_j a_j sigma_j over a chosen Pauli basis.  The coefficients solve

    (S + delta*I) a = b,   S_ij = Re<psi|s_i s_j|psi>,
                           b_i  = Im<psi|s_i h|psi> / sqrt(c),

where c = 1 - 2 tau <h> is the first-order estimate of the squared norm
of exp(-tau*h)|psi>.  ``a`` stores the per-unit-tau solution; tau is
folded into the rotation angles at apply time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StepSizeError
from .pauli import PauliString, PauliSum, apply_string, multiply
from .states import EXACT, ShotModel, StateVector, expectation, pauli_rotation

C_GUARD = 0.1  # below this the first-order norm estimate is meaningless


@dataclass(frozen=True)
class PauliBasis:
    """Ordered expansion basis; the order is part of the contract."""

    strings: tuple[PauliString, ...]
    origin: str = "explicit"

    def __post_init__(self):
        if not self.strings:
            raise ValueError("empty basis")
        n = self.strings[0].n_qubits
        if any(s.n_qubits != n for s in self.strings):
            raise ValueError("mixed register sizes in basis")
        if len({(s.x_mask, s.z_mask) for s in self.strings}) != len(self.strings):
            raise ValueError("duplicate strings in basis")

    @property
    def n_qubits(self) -> int:
        return self.strings[0].n_qubits

    def __len__(self):
        return len(self.strings)

    def __iter__(self):
        return iter(self.strings)

    @classmethod
    def explicit(cls, labels) -> "PauliBasis":
        return cls(tuple(PauliString.from_label(l) for l in labels), "explicit")

    @classmethod
    def full(cls, n_qubits: int) -> "PauliBasis":
        """All 4^n - 1 non-identity strings, ordered by (z_mask, x_mask) code."""
        mask = (1 << n_qubits) - 1
        strings = tuple(
            PauliString(n_qubits, code & mask, code >> n_qubits)
            for code in range(1, 4**n_qubits)
        )
        return cls(strings, f"full({n_qubits})")

    @classmethod
    def random(cls, n_qubits: int, count: int, seed: int) -> "PauliBasis":
        """Uniform draw without replacement from the non-identity strings.

        Implemented as a prefix of a seeded permutation, so bases drawn
        with the same seed are nested across counts; size sweeps then
        isolate the effect of the count.
        """
        total = 4**n_qubits - 1
        if not (1 <= count <= total):
            raise ValueError(f"count must be in [1, {total}]")
        rng = np.random.Generator(np.random.Philox(seed))
        codes = rng.permutation(total)[:count] + 1
        mask = (1 << n_qubits) - 1
        strings = tuple(
            PauliString(n_qubits, int(c) & mask, int(c) >> n_qubits) for c in codes
        )
        return cls(strings, f"random(seed={seed},count={count})")


@dataclass(frozen=True)
class QiteStep:
    """Solved step: per-unit-tau coefficients plus solve diagnostics."""

    a: np.ndarray
    residual: float
    c_norm: float

    def __post_init__(self):
        arr = np.array(self.a, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)


class StepOutcome(NamedTuple):
    state: StateVector
    qite: QiteStep
    raw_norm: float  # norm before the defensive renormalization


def _norm_constant(psi: StateVector, h: PauliSum, tau: float, shot: ShotModel) -> float:
    c = 1.0 - 2.0 * tau * expectation(psi, h, shot).real
    if c <= C_GUARD:
        raise StepSizeError(
            f"norm constant c = {c:.4f} <= {C_GUARD}; reduce the time step"
        )
    return c


def build_system(
    psi: StateVector,
    h: PauliSum,
    tau: float,
    basis: PauliBasis,
    shot: ShotModel = EXACT,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Assemble (S, b, c) for one imaginary-time step under ``h``.

    S is symmetrized after assembly (sampling noise breaks the exact
    symmetry).  Sampled entries are drawn in row-major (i, then j >= i)
    order for S, then in basis order for b.
    """
    if psi.n_qubits != h.n_qubits or psi.n_qubits != basis.n_qubits:
        raise ValueError("register size mismatch")
    c = _norm_constant(psi, h, tau, shot)
    m = len(basis)
    amps = psi.amplitudes
    if shot.exact:
        sigma_psi = np.vstack([apply_string(s, amps) for s in basis])
        gram = sigma_psi.conj() @ sigma_psi.T
        s_mat = np.real(gram)
        h_psi = h.apply(amps)
        b = np.imag(sigma_psi.conj() @ h_psi) / np.sqrt(c)
    else:
        s_mat = np.empty((m, m), dtype=np.float64)
        for i, si in enumerate(basis.strings):
            for j in range(i, m):
                phase, prod = multiply(si, basis.strings[j])
                est = expectation(psi, PauliSum(psi.n_qubits, [(phase, prod)]), shot)
                s_mat[i, j] = est.real
                s_mat[j, i] = s_mat[i, j]
        b = np.empty(m, dtype=np.float64)
        for i, si in enumerate(basis.strings):
            terms = []
            for ch, sh in h:
                phase, prod = multiply(si, sh)
                terms.append((ch * phase, prod))
            est = expectation(psi, PauliSum(psi.n_qubits, terms), shot)
            b[i] = est.imag / np.sqrt(c)
    s_mat = 0.5 * (s_mat + s_mat.T)
    return s_mat, b, c


# Relative singular-value floor for the least-squares solve.  S directions
# this far below the leading one are degenerate-weight tangent modes whose
# signal sits at rounding level; inverting them turns noise into O(1)
# rotation angles and wrecks the step, so the pseudoinverse truncates them.
SINGULAR_FLOOR = 1e-4


def solve_regularized(
    s_mat: np.ndarray, b: np.ndarray, delta_reg: float, c_norm: float = 1.0
) -> QiteStep:
    """Least-squares solution of (S + delta*I) a = b.

    Singular directions below SINGULAR_FLOOR of the leading one are
    dropped (minimum-norm solution).  The reported residual is
    ||S a - b|| against the unregularized S, a diagnostic of how well
    the tangent space captures the target.
    """
    s_mat = np.asarray(s_mat, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if delta_reg < 0:
        raise ValueError("delta_reg must be >= 0")
    lhs = s_mat + delta_reg * np.eye(s_mat.shape[0])
    a, *_ = np.linalg.lstsq(lhs, b, rcond=SINGULAR_FLOOR)
    residual = float(np.linalg.norm(s_mat @ a - b))
    return QiteStep(a=a, residual=residual, c_norm=c_norm)


def nonunitary_step(
    psi: StateVector,
    h: PauliSum,
    tau: float,
    basis: PauliBasis,
    delta_reg: float = 0.0,
    shot: ShotModel = EXACT,
) -> StepOutcome:
    """One full imaginary-time step: build, solve, rotate."""
    s_mat, b, c = build_system(psi, h, tau, basis, shot)
    step = solve_regularized(s_mat, b, delta_reg, c_norm=c)
    amps = pauli_rotation(psi.amplitudes, basis.strings, tau * step.a)
    rotated = StateVector(psi.n_qubits, amps)
    return StepOutcome(rotated.normalized(), step, rotated.norm())
