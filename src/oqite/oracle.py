"""Exact reference solver for the Lindblad equation.

This is the in-repo oracle the iterative algorithms are judged against,
with no dependencies beyond numpy.  Every exact propagation goes through
:func:`taylor_apply`, a substepped truncated Taylor series of a linear
map's action on an array, which :func:`evolve_exact` applies to rho with
the Lindblad generator.
"""

from __future__ import annotations

import math

import numpy as np

from .models import LindbladModel
from .states import DensityMatrix

MAX_QUBITS = 6  # hard refusal above this

_MAX_DEGREE = 55  # a Taylor series still short of 2^-53 here has diverged


def _generator(m: LindbladModel):
    """K = -iH - sum L+L / 2 and the stacked jumps L, so that the generator is
    K rho + rho K+ + sum L rho L+, and a cheap upper bound on its 1-norm."""
    h = m.hamiltonian.to_matrix()
    jumps = np.array([j.to_matrix() for j in m.jumps], dtype=np.complex128)
    jumps = jumps.reshape(-1, *h.shape)  # shape (0, dim, dim) without jumps
    ldl = jumps.conj().transpose(0, 2, 1) @ jumps
    k = -1j * h - 0.5 * ldl.sum(axis=0)
    bound = 2.0 * np.linalg.norm(h, 1)
    for l, x in zip(jumps, ldl):
        bound += np.linalg.norm(l, 1) ** 2 + 2.0 * np.linalg.norm(x, 1)
    return k, jumps, float(bound)


def default_rk4_steps(bound: float, t: float) -> int:
    """Substep count s of :func:`taylor_apply`, so that (t / s) * bound <= 1."""
    return math.ceil(t * bound)


def taylor_apply(action, x: np.ndarray, t: float, bound: float) -> np.ndarray:
    """exp(t A) x for the linear map ``action`` = A, given ||A||_1 <= ``bound``.

    ``t`` is real and may be negative.  On each of ``default_rk4_steps``
    substeps the Taylor series of exp(dt A) x is summed until its last
    two terms fall below 2^-53 of the partial sum (Al-Mohy & Higham, SIAM
    J. Sci. Comput. 33, 488 (2011)).  That function keeps the name it had
    under the RK4 solver this replaced, because the benchmark tracer
    counts substeps through it; it must be called through the module
    global.
    """
    substeps = default_rk4_steps(bound, abs(t))
    for _ in range(substeps):
        dt = t / substeps
        term = x
        prev = np.abs(term).max()
        for degree in range(1, _MAX_DEGREE + 1):
            term = (dt / degree) * action(term)
            x = x + term
            size = np.abs(term).max()
            if prev + size <= 2.0**-53 * np.abs(x).max():
                break
            prev = size
        else:
            raise RuntimeError(f"Taylor series not converged at degree {_MAX_DEGREE}")
    return x


def evolve_exact(m: LindbladModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """rho(t) = exp(t L) rho0 by :func:`taylor_apply`, re-Hermitized."""
    if m.n_qubits != rho0.n_qubits:
        raise ValueError("model and state register mismatch")
    if m.n_qubits > MAX_QUBITS:
        raise ValueError(f"refusing n > {MAX_QUBITS} (dimension overflow)")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    k, jumps, bound = _generator(m)
    k_dag = k.conj().T
    jumps_dag = jumps.conj().transpose(0, 2, 1)

    def lindbladian(rho):
        return k @ rho + rho @ k_dag + (jumps @ rho @ jumps_dag).sum(axis=0)

    rho = taylor_apply(lindbladian, rho0.entries, t, bound)
    return DensityMatrix(m.n_qubits, rho).hermitized()
