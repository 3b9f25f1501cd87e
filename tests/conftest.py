"""Shared fixtures and independent dense oracles.

Everything in here builds matrices from first principles (kron over
single-qubit matrices, scipy expm, column stacking by hand) so the test
suite never trusts the package's own algebra to check itself.
"""

import hypothesis
import numpy as np
import pytest
import scipy.linalg

hypothesis.settings.register_profile("fast", max_examples=5)
hypothesis.settings.register_profile("ci", max_examples=100)
hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None
)
hypothesis.settings.load_profile("default")

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label; leftmost character is the top factor."""
    out = PAULI[label[0]]
    for ch in label[1:]:
        out = np.kron(out, PAULI[ch])
    return out


def sum_matrix(op) -> np.ndarray:
    """Dense matrix of a package PauliSum, trusting only labels and coeffs."""
    dim = 1 << op.n_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, string in op:
        out += coeff * label_matrix(string.label)
    return out


def dense_expm(a: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(a)


def vec_col(rho: np.ndarray) -> np.ndarray:
    """Column stacking by hand."""
    return rho.reshape(-1, order="F")


def unvec_col(v: np.ndarray) -> np.ndarray:
    dim = int(round(np.sqrt(v.size)))
    return v.reshape(dim, dim, order="F")


def lindblad_superop(h_mat: np.ndarray, jump_mats) -> np.ndarray:
    """Column-stacked generator built from the textbook definition."""
    dim = h_mat.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    gen = -1j * (np.kron(eye, h_mat) - np.kron(h_mat.T, eye))
    for lm in jump_mats:
        md = lm.conj().T @ lm
        gen += np.kron(lm.conj(), lm)
        gen -= 0.5 * (np.kron(eye, md) + np.kron(md.T, eye))
    return gen


def steady_state(gen: np.ndarray) -> np.ndarray:
    """Null vector of a column-stacked generator, Hermitized, trace one."""
    _, _, vh = np.linalg.svd(gen)
    rho = unvec_col(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho)


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def random_label(rng: np.random.Generator, n: int, identity_ok=False) -> str:
    chars = "IXYZ"
    while True:
        lab = "".join(chars[rng.integers(0, 4)] for _ in range(n))
        if identity_ok or set(lab) != {"I"}:
            return lab


def random_pauli_sum(rng, n, terms, herm=True, unit_norm=False):
    """Random package PauliSum; optionally scaled to unit spectral norm."""
    from oqite.pauli import PauliString, PauliSum

    picked = []
    for _ in range(terms):
        c = complex(rng.normal(), 0.0 if herm else rng.normal())
        picked.append((c, PauliString.from_label(random_label(rng, n))))
    op = PauliSum(n, tuple(picked))
    if unit_norm:
        op = op * (1.0 / np.linalg.norm(sum_matrix(op), 2))
    return op


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.Philox(key=20260816))


def assert_close(actual, expected, tol=1e-10, label=""):
    gap = np.max(np.abs(np.asarray(actual) - np.asarray(expected)))
    assert gap <= tol, f"{label} max gap {gap:.3e} > {tol:.1e}"
