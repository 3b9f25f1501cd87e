"""State containers and measurement primitives.

Sampled quantities go through :class:`ShotModel`, a counter-based
(Philox) generator with an explicit seed.  Draw order is documented on
each consumer and is term-major: for every Pauli term one aggregated
binomial draw stands in for the per-shot +/-1 outcomes (identical
statistics, one generator call per term).  A ShotModel instance must not
be shared across concurrent samplers; everything else here is immutable
and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString, PauliSum, apply_string

_NORM_TOL = 1e-10


class StateVector:
    """Immutable complex amplitude vector on ``n_qubits`` qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        amplitudes = np.array(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (1 << n_qubits,):
            raise ValueError("amplitude count does not match the register")
        amplitudes.flags.writeable = False
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        """Computational basis state from a bit string, qubit 0 rightmost."""
        return cls.basis_state(len(bits), int(bits, 2))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_qubits, self.amplitudes / n)

    def __repr__(self):
        return f"StateVector(n={self.n_qubits})"


class DensityMatrix:
    """Immutable density operator, stored dense (desk-scale registers)."""

    __slots__ = ("n_qubits", "entries")

    def __init__(self, n_qubits: int, entries: np.ndarray):
        entries = np.array(entries, dtype=np.complex128)
        dim = 1 << n_qubits
        if entries.shape != (dim, dim):
            raise ValueError("entry block does not match the register")
        entries.flags.writeable = False
        self.n_qubits = n_qubits
        self.entries = entries

    @classmethod
    def from_weights(cls, weights, n_qubits: int) -> "DensityMatrix":
        """Diagonal mixture sum_x p_x |x><x| from (bitstring, weight) pairs."""
        dim = 1 << n_qubits
        diag = np.zeros(dim, dtype=np.complex128)
        for bits, w in weights:
            if len(bits) != n_qubits:
                raise ValueError(f"bit string {bits!r} does not match n={n_qubits}")
            diag[int(bits, 2)] += w
        return cls(n_qubits, np.diag(diag))

    @classmethod
    def pure(cls, psi: StateVector) -> "DensityMatrix":
        a = psi.amplitudes
        return cls(psi.n_qubits, np.outer(a, a.conjugate()))

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    def hermitized(self) -> "DensityMatrix":
        return DensityMatrix(
            self.n_qubits, 0.5 * (self.entries + self.entries.conj().T)
        )


@dataclass(eq=False)
class ShotModel:
    """Finite-sampling emulator; ``shots == 0`` means exact values.

    Each Pauli expectation m in [-1, 1] is replaced by the mean of
    ``shots`` +/-1 Bernoulli outcomes with success probability (1+m)/2,
    drawn as a single binomial.  Draws consume the Philox stream in call
    order, so runs are reproducible given (seed, call sequence).
    Equality and hashing are by identity, because each instance owns a
    Philox stream that is consumed in order; this also keeps ``EXACT``
    usable as a frozen-dataclass field default.
    """

    shots: int = 0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        self._rng = np.random.Generator(np.random.Philox(self.seed))

    @property
    def exact(self) -> bool:
        return self.shots == 0

    def sample_mean(self, value: float) -> float:
        """Sampled estimate of a +/-1 observable mean ``value``."""
        if self.shots == 0:
            return float(value)
        p = min(1.0, max(0.0, 0.5 * (1.0 + float(value))))
        k = self._rng.binomial(self.shots, p)
        return 2.0 * k / self.shots - 1.0


EXACT = ShotModel(0, 0)


def _check_sampling_norm(psi: StateVector):
    if abs(psi.norm() - 1.0) > _NORM_TOL:
        raise ValueError("sampling requires a normalized state")


def _string_expectation(amps: np.ndarray, string: PauliString) -> float:
    # <psi|sigma|psi> is real for the canonical (Hermitian) strings
    return float(np.vdot(amps, apply_string(string, amps)).real)


def expectation(psi: StateVector, op: PauliSum, shot: ShotModel = EXACT) -> complex:
    """<psi|op|psi>; term coefficients may be complex.

    Sampled path: one draw per term, in the sum's term order.
    """
    if psi.n_qubits != op.n_qubits:
        raise ValueError("register size mismatch")
    if not shot.exact:
        _check_sampling_norm(psi)
    total = 0.0 + 0.0j
    for coeff, string in op:
        m = _string_expectation(psi.amplitudes, string)
        total += coeff * shot.sample_mean(m)
    return total


def pauli_rotation(amplitudes: np.ndarray, strings, angles) -> np.ndarray:
    """prod_k exp(-i theta_k sigma_k) along the last axis, first string first.

    Each factor is cos(theta)|a> - i sin(theta) sigma|a>; zero angles are
    skipped.  ``amplitudes`` is one vector or a stack of branch vectors.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    for string, theta in zip(strings, angles, strict=True):
        if theta == 0.0:
            continue
        amps = np.cos(theta) * amps - 1j * np.sin(theta) * apply_string(string, amps)
    return amps


def _is_basis_state(amps: np.ndarray) -> int | None:
    """Basis index if the state is a computational basis state, else None."""
    nz = np.flatnonzero(np.abs(amps) > 1e-12)
    if len(nz) != 1:
        return None
    if abs(abs(amps[nz[0]]) - 1.0) > 1e-12:
        return None
    return int(nz[0])


def _sampled_quadratic_form(
    amps: np.ndarray, string: PauliString, shot: ShotModel
) -> float:
    """Sampled <u|sigma|u> for a possibly non-normalized superposition u."""
    nsq = float(np.vdot(amps, amps).real)
    if nsq < 1e-14:
        return 0.0
    unit = amps / np.sqrt(nsq)
    return nsq * shot.sample_mean(_string_expectation(unit, string))


def _sampled_string_element(
    ax: np.ndarray, ay: np.ndarray, string: PauliString, shot: ShotModel
) -> complex:
    """Off-diagonal <x|sigma|y> from four superposition expectations.

    2 Re = <u+|s|u+> - <u-|s|u->  with  u+- = (x +- y)/sqrt(2)
    2 Im = <w-|s|w-> - <w+|s|w+>  with  w+- = (x +- i y)/sqrt(2)
    Draw order per term: u+, u-, w-, w+.
    """
    up = (ax + ay) / np.sqrt(2.0)
    um = (ax - ay) / np.sqrt(2.0)
    wm = (ax - 1j * ay) / np.sqrt(2.0)
    wp = (ax + 1j * ay) / np.sqrt(2.0)
    re = 0.5 * (
        _sampled_quadratic_form(up, string, shot)
        - _sampled_quadratic_form(um, string, shot)
    )
    im = 0.5 * (
        _sampled_quadratic_form(wm, string, shot)
        - _sampled_quadratic_form(wp, string, shot)
    )
    return complex(re, im)


def _reduce_to_support(index: int, support: tuple[int, ...]) -> int:
    out = 0
    for pos, q in enumerate(support):
        out |= ((index >> q) & 1) << pos
    return out


def _restrict_string(string: PauliString, support: tuple[int, ...]) -> PauliString:
    x = z = 0
    for pos, q in enumerate(support):
        x |= ((string.x_mask >> q) & 1) << pos
        z |= ((string.z_mask >> q) & 1) << pos
    return PauliString(len(support), x, z)


def matrix_element(
    phi_x: StateVector,
    phi_y: StateVector,
    op: PauliSum,
    shot: ShotModel = EXACT,
) -> complex:
    """<phi_x|op|phi_y>.

    The sampled path estimates each term through superposition-state
    expectations; when both states are computational basis states, a
    k-local term is evaluated on its support only, and contributes exactly
    zero without any draws when the two states differ outside the support.
    """
    if phi_x.n_qubits != phi_y.n_qubits or phi_x.n_qubits != op.n_qubits:
        raise ValueError("register size mismatch")
    ax, ay = phi_x.amplitudes, phi_y.amplitudes
    if shot.exact:
        total = 0.0 + 0.0j
        for coeff, string in op:
            total += coeff * np.vdot(ax, apply_string(string, ay))
        return complex(total)

    _check_sampling_norm(phi_x)
    _check_sampling_norm(phi_y)
    bx = _is_basis_state(ax)
    by = _is_basis_state(ay)
    total = 0.0 + 0.0j
    for coeff, string in op:
        if bx is not None and by is not None and not string.is_identity:
            support = string.support()
            off = ~sum(1 << q for q in support)
            if (bx & off) != (by & off):
                continue  # orthogonal tails: exactly zero, no draws spent
            k = len(support)
            # the phases of ax and ay are carried by the amplitudes below
            rx = _reduce_to_support(bx, support)
            ry = _reduce_to_support(by, support)
            sub = _restrict_string(string, support)
            sax = np.zeros(1 << k, dtype=np.complex128)
            say = np.zeros(1 << k, dtype=np.complex128)
            sax[rx] = ax[bx]
            say[ry] = ay[by]
            total += coeff * _sampled_string_element(sax, say, sub, shot)
        else:
            total += coeff * _sampled_string_element(ax, ay, string, shot)
    return complex(total)
