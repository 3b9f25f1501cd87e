"""Bit-mask Pauli algebra against dense kron-built matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_close, label_matrix, random_unit, sum_matrix
from oqite.pauli import (
    PauliString,
    PauliSum,
    apply_string,
    multiply,
    tensor,
    tensor_strings,
)

ALL_1Q = ["I", "X", "Y", "Z"]
ALL_2Q = ["".join(p) for p in itertools.product(ALL_1Q, repeat=2)]

labels_st = st.integers(1, 3).flatmap(
    lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)
)


def test_single_qubit_matrices():
    for lab in ALL_1Q:
        assert_close(
            PauliString.from_label(lab).to_matrix(), label_matrix(lab), 0, lab
        )


def test_two_qubit_matrices():
    for lab in ALL_2Q:
        assert_close(
            PauliString.from_label(lab).to_matrix(), label_matrix(lab), 0, lab
        )


def test_qubit_zero_is_rightmost_label_char():
    # X on qubit 0 of a 2-qubit register flips the low-order bit
    s = PauliString(2, x_mask=1, z_mask=0)
    assert s.label == "IX"
    assert_close(s.to_matrix(), np.kron(label_matrix("I"), label_matrix("X")), 0)


@given(labels_st)
def test_label_round_trip(lab):
    assert PauliString.from_label(lab).label == lab


@given(labels_st)
def test_matrix_is_hermitian_and_involutory(lab):
    mat = PauliString.from_label(lab).to_matrix()
    assert_close(mat, mat.conj().T, 1e-15, "hermitian")
    assert_close(mat @ mat, np.eye(mat.shape[0]), 1e-12, "square")


@given(labels_st, labels_st)
def test_multiply_matches_dense(lab_a, lab_b):
    if len(lab_a) != len(lab_b):
        lab_b = (lab_b * len(lab_a))[: len(lab_a)]
    a, b = PauliString.from_label(lab_a), PauliString.from_label(lab_b)
    phase, prod = multiply(a, b)
    assert phase in (1, 1j, -1, -1j)
    assert_close(
        phase * prod.to_matrix(),
        label_matrix(lab_a) @ label_matrix(lab_b),
        1e-12,
        f"{lab_a}*{lab_b}",
    )


@given(labels_st)
def test_y_parity_is_conjugation_sign(lab):
    s = PauliString.from_label(lab)
    assert s.y_parity() == (-1) ** lab.count("Y")
    assert_close(s.to_matrix().conj(), s.y_parity() * s.to_matrix(), 0)
    assert_close(s.to_matrix().T, s.y_parity() * s.to_matrix(), 0)


@given(labels_st, st.integers(0, 2**32 - 1))
def test_apply_string_matches_matvec(lab, seed):
    rng = np.random.default_rng(seed)
    psi = random_unit(rng, 1 << len(lab))
    s = PauliString.from_label(lab)
    assert_close(apply_string(s, psi), label_matrix(lab) @ psi, 1e-12)
    # an (r, 2^n) stack is acted on row by row, bit for bit as single vectors
    stack = np.vstack([psi] + [random_unit(rng, 1 << len(lab)) for _ in range(3)])
    got = apply_string(s, stack)
    assert_close(got, stack @ label_matrix(lab).T, 1e-12)
    for row, vec in zip(got, stack):
        assert np.array_equal(row, apply_string(s, vec))
    with pytest.raises(ValueError):
        apply_string(s, np.ones((2, 1 << (len(lab) + 1))))


def test_support():
    assert PauliString.from_label("IXZI").support() == (1, 2)
    assert PauliString.from_label("II").support() == ()


def test_mask_validation():
    with pytest.raises(ValueError):
        PauliString(1, 2, 0)
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")
    with pytest.raises(ValueError):
        PauliString.from_label("")


# --- sums -------------------------------------------------------------------


def test_from_text_parsing():
    op = PauliSum.from_text("0.5*XI - 1.5*IZ + 2*XI")
    assert op.n_qubits == 2
    assert_close(
        sum_matrix(op),
        2.5 * label_matrix("XI") - 1.5 * label_matrix("IZ"),
        1e-12,
    )


def test_from_text_complex_and_identity():
    op = PauliSum.from_text("1j*X + I")
    assert_close(sum_matrix(op), 1j * label_matrix("X") + np.eye(2), 1e-12)


def test_duplicate_merge_keeps_insertion_order():
    op = PauliSum.from_text("1*Z + 2*X + 3*Z")
    labs = [s.label for _, s in op]
    assert labs == ["Z", "X"]
    coeffs = [c for c, _ in op]
    assert coeffs[0] == 4.0


def test_zero_coefficients_drop():
    op = PauliSum.from_text("1*X - 1*X + 1*Y")
    assert len(op) == 1


@given(st.integers(0, 2**32 - 1))
def test_arithmetic_matches_dense(seed):
    rng = np.random.default_rng(seed)
    from conftest import random_pauli_sum

    a = random_pauli_sum(rng, 2, 3, herm=False)
    b = random_pauli_sum(rng, 2, 3, herm=False)
    assert_close(sum_matrix(a + b), sum_matrix(a) + sum_matrix(b), 1e-12)
    assert_close(sum_matrix(a - b), sum_matrix(a) - sum_matrix(b), 1e-12)
    assert_close(sum_matrix(a * b), sum_matrix(a) @ sum_matrix(b), 1e-10)
    assert_close(sum_matrix(2.5 * a), 2.5 * sum_matrix(a), 1e-12)
    assert_close(sum_matrix(a.adjoint()), sum_matrix(a).conj().T, 1e-12)
    assert_close(sum_matrix(a.conjugate()), sum_matrix(a).conj(), 1e-12)
    assert_close(sum_matrix(a.transpose()), sum_matrix(a).T, 1e-12)


def test_is_hermitian():
    assert PauliSum.from_text("1*X + 2*ZZ".replace("ZZ", "Z")).is_hermitian()
    assert not PauliSum.from_text("1j*X").is_hermitian()
    herm = PauliSum.from_text("1j*X") + PauliSum.from_text("1j*X").adjoint()
    assert herm.is_hermitian()


def test_real_coefficients_strips_rounding_dust():
    op = PauliSum(1, ((1.0 + 1e-16j, PauliString.from_label("X")),))
    cleaned = op.real_coefficients()
    assert all(isinstance(c, complex) and c.imag == 0 for c, _ in cleaned)


def test_apply_matches_dense(rng):
    from conftest import random_pauli_sum

    op = random_pauli_sum(rng, 2, 4, herm=False)
    psi = random_unit(rng, 4)
    assert_close(op.apply(psi), sum_matrix(op) @ psi, 1e-12)


def test_tensor_places_left_on_high_qubits():
    left = PauliString.from_label("X")
    right = PauliString.from_label("Z")
    assert tensor_strings(left, right).label == "XZ"
    ts = tensor(PauliSum.from_label("X"), PauliSum.from_label("Z"))
    assert_close(sum_matrix(ts), np.kron(label_matrix("X"), label_matrix("Z")), 0)


def test_sum_register_mismatch():
    with pytest.raises(ValueError):
        PauliSum.from_text("1*X + 1*XX")
