"""Bit-mask Pauli strings and complex-weighted Pauli sums.

Conventions, fixed package-wide:

* qubit 0 is the least significant bit of a computational basis index;
* a string is stored as an (x_mask, z_mask) pair; its canonical matrix is
  ``prod_q  i^{x_q z_q} X^{x_q} Z^{z_q}`` per qubit, so every stored string
  is Hermitian (the qubit with x = z = 1 is Y = i X Z);
* text labels read right to left: "XZ" puts X on qubit 1 and Z on qubit 0;
* ``tensor(left, right)`` places ``left`` on the high-order bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_COEFF_TOL = 1e-14  # terms below this magnitude are dropped on normalization
_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_CHAR = {v: k for k, v in _CHAR_TO_XZ.items()}


def _parity(v):
    """Parity of the set bits of ``v`` (int or uint64 ndarray)."""
    v = np.asarray(v, dtype=np.uint64)
    return (np.bitwise_count(v) & np.uint64(1)).astype(np.int64)


@dataclass(frozen=True, slots=True)
class PauliString:
    """One Pauli string on ``n_qubits`` qubits, phase-canonical and Hermitian.

    Bit q of ``x_mask`` / ``z_mask`` gives the X / Z content on qubit q.
    """

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        full = (1 << self.n_qubits) - 1
        if not (0 <= self.x_mask <= full and 0 <= self.z_mask <= full):
            raise ValueError("mask outside the register")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a text label; index 0 is the rightmost character."""
        if not label or any(ch not in _CHAR_TO_XZ for ch in label):
            raise ValueError(f"bad Pauli label {label!r}")
        x = z = 0
        for q, ch in enumerate(reversed(label)):
            xb, zb = _CHAR_TO_XZ[ch]
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z)

    @property
    def label(self) -> str:
        chars = []
        for q in reversed(range(self.n_qubits)):
            chars.append(_XZ_TO_CHAR[((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)])
        return "".join(chars)

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def support(self) -> tuple[int, ...]:
        """Qubits on which the string acts non-trivially."""
        both = self.x_mask | self.z_mask
        return tuple(q for q in range(self.n_qubits) if (both >> q) & 1)

    def y_parity(self) -> int:
        """+1 for an even number of Y factors, -1 for odd.

        Equals the sign picked up under entrywise conjugation and under
        transposition of the canonical matrix.
        """
        return -1 if bin(self.x_mask & self.z_mask).count("1") & 1 else 1

    def to_matrix(self) -> np.ndarray:
        """Dense canonical matrix, dimension 2^n (kept small by callers)."""
        dim = 1 << self.n_qubits
        idx = np.arange(dim, dtype=np.uint64)
        pref = 1j ** (bin(self.x_mask & self.z_mask).count("1") % 4)
        signs = 1.0 - 2.0 * _parity(idx & np.uint64(self.z_mask))
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[idx ^ np.uint64(self.x_mask), idx] = pref * signs
        return mat

    def __str__(self):
        return self.label


def multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a*b as (phase, string); the phase is one of {1, i, -1, -i}."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("strings act on different registers")
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    # i-exponents of the canonical prefactors, plus the sign from commuting
    # Z^{z_a} past X^{x_b}
    k = (
        bin(a.x_mask & a.z_mask).count("1")
        + bin(b.x_mask & b.z_mask).count("1")
        - bin(x & z).count("1")
        + 2 * bin(a.z_mask & b.x_mask).count("1")
    ) % 4
    return (1j**k, PauliString(a.n_qubits, x, z))


def apply_string(string: PauliString, amplitudes: np.ndarray) -> np.ndarray:
    """Apply the canonical matrix along the last axis in O(2^n) per vector.

    ``amplitudes`` is one vector or a stack of them, e.g. (r, 2^n) branches.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    dim = 1 << string.n_qubits
    if amplitudes.shape[-1:] != (dim,):
        raise ValueError("state dimension does not match the string register")
    idx = np.arange(dim, dtype=np.uint64)
    pref = 1j ** (bin(string.x_mask & string.z_mask).count("1") % 4)
    signs = 1.0 - 2.0 * _parity(idx & np.uint64(string.z_mask))
    out = np.empty(amplitudes.shape, dtype=np.complex128)
    out[..., idx ^ np.uint64(string.x_mask)] = pref * signs * amplitudes
    return out


class PauliSum:
    """Complex linear combination of Pauli strings on one register.

    Normalized on construction: duplicate strings are merged into their
    first occurrence (insertion order is preserved and deterministic) and
    coefficients below 1e-14 in magnitude are dropped.  Instances are
    immutable; all arithmetic returns new sums.
    """

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms=()):
        self.n_qubits = n_qubits
        merged: dict[tuple[int, int], complex] = {}
        for coeff, string in terms:
            if string.n_qubits != n_qubits:
                raise ValueError("term register size mismatch")
            key = (string.x_mask, string.z_mask)
            merged[key] = merged.get(key, 0.0) + complex(coeff)
        self._terms = tuple(
            (c, PauliString(n_qubits, k[0], k[1]))
            for k, c in merged.items()
            if abs(c) >= _COEFF_TOL
        )

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits, ())

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, [(coeff, PauliString(n_qubits, 0, 0))])

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliSum":
        return cls(len(label), [(coeff, PauliString.from_label(label))])

    @classmethod
    def from_text(cls, text: str) -> "PauliSum":
        """Parse e.g. ``"0.5*XI - 0.5*ZZ + 1j*IY"``.

        Terms are separated by +/- (binary, surrounded by whitespace or at
        the start); each term is ``[coeff*]LABEL`` with a Python float or
        complex literal coefficient.
        """
        pieces = []
        stripped = text.replace("\t", " ").strip()
        if not stripped:
            raise ValueError("empty operator text")
        # split on top-level +/- that are not inside a complex literal
        i = 0
        cur_sign = 1.0
        cur = []
        while i < len(stripped):
            ch = stripped[i]
            if ch in "+-" and (i == 0 or stripped[i - 1] in " \t"):
                if "".join(cur).strip():
                    pieces.append((cur_sign, "".join(cur).strip()))
                    cur = []
                cur_sign = 1.0 if ch == "+" else -1.0
            else:
                cur.append(ch)
            i += 1
        if "".join(cur).strip():
            pieces.append((cur_sign, "".join(cur).strip()))
        if not pieces:
            raise ValueError(f"could not parse operator text {text!r}")
        terms = []
        n = None
        for sgn, piece in pieces:
            if "*" in piece:
                coeff_text, label = piece.rsplit("*", 1)
                coeff = complex(coeff_text.strip().replace(" ", ""))
            else:
                coeff, label = 1.0, piece
            label = label.strip()
            string = PauliString.from_label(label)
            if n is None:
                n = string.n_qubits
            elif n != string.n_qubits:
                raise ValueError("mixed register sizes in operator text")
            terms.append((sgn * coeff, string))
        return cls(n, terms)

    @property
    def terms(self) -> tuple[tuple[complex, PauliString], ...]:
        return self._terms

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        return PauliSum(self.n_qubits, self._terms + other._terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "PauliSum":
        scalar = complex(scalar)
        return PauliSum(self.n_qubits, [(scalar * c, s) for c, s in self._terms])

    def __mul__(self, other):
        """Operator product; with a PauliSum expands term-by-term."""
        if isinstance(other, PauliSum):
            if self.n_qubits != other.n_qubits:
                raise ValueError("register size mismatch")
            out = []
            for ca, sa in self._terms:
                for cb, sb in other._terms:
                    phase, prod = multiply(sa, sb)
                    out.append((ca * cb * phase, prod))
            return PauliSum(self.n_qubits, out)
        return self.__rmul__(other)

    def conjugate(self) -> "PauliSum":
        """Entrywise complex conjugate of the represented matrix."""
        return PauliSum(
            self.n_qubits,
            [(c.conjugate() * s.y_parity(), s) for c, s in self._terms],
        )

    def transpose(self) -> "PauliSum":
        return PauliSum(
            self.n_qubits, [(c * s.y_parity(), s) for c, s in self._terms]
        )

    def adjoint(self) -> "PauliSum":
        return PauliSum(
            self.n_qubits, [(c.conjugate(), s) for c, s in self._terms]
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """True iff every normalized coefficient is real within ``tol``."""
        return all(abs(c.imag) <= tol for c, _ in self._terms)

    def real_coefficients(self) -> "PauliSum":
        """Drop sub-tolerance imaginary parts of a Hermitian sum's coefficients."""
        if not self.is_hermitian():
            raise ValueError("sum is not Hermitian")
        return PauliSum(self.n_qubits, [(c.real, s) for c, s in self._terms])

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Amplitude-vector action, one mask pass per term."""
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        out = np.zeros_like(amplitudes)
        for c, s in self._terms:
            out += c * apply_string(s, amplitudes)
        return out

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=np.complex128)
        for c, s in self._terms:
            mat += c * s.to_matrix()
        return mat

    def as_dict(self) -> dict[tuple[int, int], complex]:
        return {(s.x_mask, s.z_mask): c for c, s in self._terms}

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash((self.n_qubits, frozenset(self.as_dict().items())))

    def __repr__(self):
        if not self._terms:
            return f"PauliSum.zero({self.n_qubits})"
        body = " + ".join(f"({c:g})*{s.label}" for c, s in self._terms)
        return f"PauliSum[{body}]"


def tensor_strings(left: PauliString, right: PauliString) -> PauliString:
    """Kronecker product; ``left`` lands on the high-order qubits."""
    n = left.n_qubits + right.n_qubits
    shift = right.n_qubits
    return PauliString(
        n,
        (left.x_mask << shift) | right.x_mask,
        (left.z_mask << shift) | right.z_mask,
    )


def tensor(left: PauliSum, right: PauliSum) -> PauliSum:
    """Kronecker product of sums; ``left`` on the high-order qubits."""
    out = []
    for cl, sl in left:
        for cr, sr in right:
            out.append((cl * cr, tensor_strings(sl, sr)))
    return PauliSum(left.n_qubits + right.n_qubits, out)
