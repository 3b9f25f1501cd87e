"""Markovian open-system models and their vectorized generators.

Vectorization is column stacking: vec(rho) = sum_ij rho_ij |j>|i>, so the
physical (ket) index lives on the low-order register and vec(A rho B) =
(B^T kron A) vec(rho).  The generator of

    d rho/dt = -i[H, rho] + sum_k ( L rho L+  -  {L+ L, rho}/2 )

then splits as G = -i*coherent - decay with both parts Hermitian:
``coherent`` drives real-time rotations, ``decay`` the imaginary-time
(QITE) factor.  Excited state is |1>; the lowering operator (X + iY)/2
maps |1> to |0>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, PauliSum, tensor
from .states import DensityMatrix, StateVector


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus jump operators on an n-qubit register."""

    n_qubits: int
    hamiltonian: PauliSum
    jumps: tuple[PauliSum, ...] = ()

    def __post_init__(self):
        if self.hamiltonian.n_qubits != self.n_qubits:
            raise ValueError("Hamiltonian register mismatch")
        if not self.hamiltonian.is_hermitian():
            raise ValueError("Hamiltonian must be Hermitian")
        for j in self.jumps:
            if j.n_qubits != self.n_qubits:
                raise ValueError("jump register mismatch")
        object.__setattr__(self, "jumps", tuple(self.jumps))


@dataclass(frozen=True)
class VectorizedGenerator:
    """Hermitian split of the vectorized Lindblad generator on 2n qubits."""

    n_phys: int
    coherent: PauliSum  # generates exp(-i * coherent * t)
    decay: PauliSum  # generates exp(-decay * t)


def lowering(n_qubits: int, site: int) -> PauliSum:
    """(X + iY)/2 on ``site``: maps |1> to |0> there."""
    x = PauliString(n_qubits, 1 << site, 0)
    y = PauliString(n_qubits, 1 << site, 1 << site)
    return PauliSum(n_qubits, [(0.5, x), (0.5j, y)])


def pauli_site(n_qubits: int, site: int, kind: str) -> PauliSum:
    label = ["I"] * n_qubits
    label[n_qubits - 1 - site] = kind
    return PauliSum.from_label("".join(label))


def tls_model(delta: float, omega: float, gamma: float) -> LindbladModel:
    """Driven two-level system: H = -(delta/2) Z - (omega/2) X, decay sqrt(gamma)."""
    h = PauliSum.from_label("Z", -0.5 * delta) + PauliSum.from_label("X", -0.5 * omega)
    jumps = ()
    if gamma > 0.0:
        jumps = (np.sqrt(gamma) * lowering(1, 0),)
    return LindbladModel(1, h, jumps)


def tfim_model(n: int, j: float, h: float, gamma: float) -> LindbladModel:
    """Open-boundary transverse-field Ising chain with per-site decay.

    H = -j sum_k Z_k Z_{k+1} - h sum_k X_k, jumps sqrt(gamma) (X+iY)/2 per site.
    """
    if n < 1:
        raise ValueError("need at least one site")
    ham = PauliSum.zero(n)
    for k in range(n - 1):
        zz = PauliString(n, 0, (1 << k) | (1 << (k + 1)))
        ham = ham + PauliSum(n, [(-j, zz)])
    for k in range(n):
        ham = ham + (-h) * pauli_site(n, k, "X")
    jumps = ()
    if gamma > 0.0:
        jumps = tuple(np.sqrt(gamma) * lowering(n, k) for k in range(n))
    return LindbladModel(n, ham, jumps)


def liouvillian(m: LindbladModel) -> PauliSum:
    """Vectorized generator as one (non-Hermitian) Pauli sum on 2n qubits."""
    ident = PauliSum.identity(m.n_qubits)
    h = m.hamiltonian
    gen = (-1j) * tensor(ident, h) + 1j * tensor(h.transpose(), ident)
    for jump in m.jumps:
        j_dag_j = jump.adjoint() * jump
        gen = gen + tensor(jump.conjugate(), jump)
        gen = gen + (-0.5) * tensor(ident, j_dag_j)
        gen = gen + (-0.5) * tensor(j_dag_j.transpose(), ident)
    return gen


def vectorize(m: LindbladModel) -> VectorizedGenerator:
    """Split the vectorized generator into Hermitian coherent/decay parts."""
    gen = liouvillian(m)
    gen_dag = gen.adjoint()
    coherent = 0.5j * (gen - gen_dag)
    decay = (-0.5) * (gen + gen_dag)
    # both must come out Hermitian; keep coefficients exactly real
    return VectorizedGenerator(
        m.n_qubits,
        coherent.real_coefficients(),
        decay.real_coefficients(),
    )


def vec(rho: DensityMatrix) -> StateVector:
    """Column-stacked |rho> on 2n qubits (ket index on the low register)."""
    return StateVector(2 * rho.n_qubits, rho.entries.reshape(-1, order="F"))


def unvec(psi: StateVector) -> DensityMatrix:
    if psi.n_qubits % 2:
        raise ValueError("vectorized register must have even size")
    n = psi.n_qubits // 2
    dim = 1 << n
    return DensityMatrix(n, psi.amplitudes.reshape((dim, dim), order="F"))


# --- JSON model description -------------------------------------------------

# a custom term is {"string": label, "coeff": [real, imag]}
_TERMS_SCHEMA = {"type": "array", "items": {
    "type": "object",
    "required": ["string", "coeff"],
    "properties": {"string": {"type": "string"}, "coeff": {
        "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
    }},
}}

MODEL_SCHEMA = {
    "type": "object",
    "required": ["type"],
    "properties": {
        "type": {"enum": ["tls", "tfim", "custom"]},
        "params": {"type": "object", "properties": {
            "n": {"type": "integer", "minimum": 1},
            **{k: {"type": "number", "minimum": 0}
               for k in ("delta", "omega", "gamma", "j", "h")},
        }},
        "custom": {
            "type": "object",
            "required": ["n", "h_terms"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "h_terms": _TERMS_SCHEMA,
                "jumps": {"type": "array", "items": _TERMS_SCHEMA},
            },
        },
    },
    "if": {"properties": {"type": {"const": "custom"}}},
    "then": {"required": ["custom"]},
}


def _sum_from_term_list(n: int, items) -> PauliSum:
    terms = []
    for item in items:
        coeff = complex(item["coeff"][0], item["coeff"][1])
        string = PauliString.from_label(item["string"])
        if string.n_qubits != n:
            raise ValueError("term register mismatch in model description")
        terms.append((coeff, string))
    return PauliSum(n, terms)


def model_from_config(desc: dict) -> LindbladModel:
    """Build a model from its JSON description (already schema-checked)."""
    kind = desc["type"]
    params = desc.get("params", {})
    if kind == "tls":
        return tls_model(
            float(params.get("delta", 1.0)),
            float(params.get("omega", 1.0)),
            float(params.get("gamma", 1.0)),
        )
    if kind == "tfim":
        return tfim_model(
            int(params.get("n", 2)),
            float(params.get("j", 1.0)),
            float(params.get("h", 1.0)),
            float(params.get("gamma", 0.1)),
        )
    custom = desc["custom"]
    n = int(custom["n"])
    ham = _sum_from_term_list(n, custom["h_terms"])
    jumps = tuple(_sum_from_term_list(n, items) for items in custom.get("jumps", []))
    jumps = tuple(j for j in jumps if len(j))
    return LindbladModel(n, ham, jumps)
