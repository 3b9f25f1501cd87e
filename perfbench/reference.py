"""Exact avg_z trajectory of the dissipative Ising chain, independent of oqite.

The Hamiltonian, jump operators and observable are assembled from Pauli
labels with numpy Kronecker products, the column-stacking superoperator is
built from them, and one step's propagator is ``scipy.linalg.expm`` of it.
Nothing from ``oqite`` is imported, so the reference cannot share a defect
with the program's own oracle.

Run as a script it reads ``{"n", "j", "h", "gamma", "tau", "n_steps",
"initial"}`` as JSON on stdin and prints the avg_z series as a JSON list.
The benchmark runs it in a child process so that the dense n=5
propagator does not count towards the program's peak resident memory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label; the rightmost character is qubit 0."""
    out = np.ones((1, 1), dtype=np.complex128)
    for ch in label:
        out = np.kron(out, _PAULI[ch])
    return out


def site_label(n: int, sites: dict[int, str]) -> str:
    chars = ["I"] * n
    for site, ch in sites.items():
        chars[n - 1 - site] = ch
    return "".join(chars)


def tfim_operators(n: int, j: float, h: float, gamma: float):
    """H = -j sum Z_k Z_k+1 - h sum X_k, L_k = sqrt(gamma) (X_k + i Y_k)/2."""
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(n - 1):
        ham -= j * label_matrix(site_label(n, {k: "Z", k + 1: "Z"}))
    for k in range(n):
        ham -= h * label_matrix(site_label(n, {k: "X"}))
    jumps = [
        np.sqrt(gamma)
        * 0.5
        * (
            label_matrix(site_label(n, {k: "X"}))
            + 1j * label_matrix(site_label(n, {k: "Y"}))
        )
        for k in range(n)
    ]
    return ham, jumps


def superoperator(ham: np.ndarray, jumps) -> np.ndarray:
    """Generator of vec(rho) under column stacking: vec(A X B) = (B^T kron A) vec(X)."""
    eye = np.eye(ham.shape[0], dtype=np.complex128)
    gen = -1j * np.kron(eye, ham) + 1j * np.kron(ham.T, eye)
    for l in jumps:
        ldl = l.conj().T @ l
        gen += np.kron(l.conj(), l) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)
    return gen


def avg_z_series(spec: dict) -> list[float]:
    """avg_z = (1/n) sum_k <Z_k> at t = k * tau for k = 0..n_steps."""
    from scipy.linalg import expm

    n = int(spec["n"])
    dim = 1 << n
    ham, jumps = tfim_operators(n, spec["j"], spec["h"], spec["gamma"])
    prop = expm(superoperator(ham, jumps) * spec["tau"])
    obs = sum(label_matrix(site_label(n, {k: "Z"})) for k in range(n)) / n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for bits, weight in spec["initial"]:
        rho[int(bits, 2), int(bits, 2)] += weight
    v = rho.reshape(-1, order="F")
    out = []
    for _ in range(int(spec["n_steps"]) + 1):
        r = v.reshape((dim, dim), order="F")
        out.append(float((np.trace(obs @ r) / np.trace(r)).real))
        v = prop @ v
    return out


def compute_in_child(spec: dict, timeout: float = 120.0) -> np.ndarray:
    """Run :func:`avg_z_series` in a child interpreter and wait for it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference failed: {proc.stderr.strip()}")
    return np.array(json.loads(proc.stdout))


if __name__ == "__main__":
    print(json.dumps(avg_z_series(json.load(sys.stdin))))
