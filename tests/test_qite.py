"""Imaginary-time step machinery against dense linear algebra."""

import numpy as np
import pytest

from conftest import (
    assert_close,
    dense_expm,
    label_matrix,
    random_pauli_sum,
    random_unit,
    sum_matrix,
)
from oqite.errors import StepSizeError
from oqite.pauli import PauliString, PauliSum
from oqite.qite import (
    SINGULAR_FLOOR,
    PauliBasis,
    build_system,
    nonunitary_step,
    solve_regularized,
)
from oqite.states import ShotModel, StateVector


# --- basis construction ---------------------------------------------------


def test_full_basis_enumerates_everything():
    basis = PauliBasis.full(2)
    assert len(basis) == 15
    labels = [s.label for s in basis]
    assert len(set(labels)) == 15
    assert "II" not in labels


def test_full_basis_order_single_qubit():
    assert [s.label for s in PauliBasis.full(1)] == ["X", "Z", "Y"]


def test_explicit_basis_keeps_order_and_rejects_junk():
    basis = PauliBasis.explicit(["XZ", "YX", "YZ", "ZX"])
    assert [s.label for s in basis] == ["XZ", "YX", "YZ", "ZX"]
    with pytest.raises(ValueError):
        PauliBasis.explicit([])
    with pytest.raises(ValueError):
        PauliBasis.explicit(["X", "X"])
    with pytest.raises(ValueError):
        PauliBasis(
            (PauliString.from_label("X"), PauliString.from_label("XX"))
        )


def test_random_basis_deterministic_and_clean():
    a = PauliBasis.random(2, 6, seed=7)
    b = PauliBasis.random(2, 6, seed=7)
    assert [s.label for s in a] == [s.label for s in b]
    labels = [s.label for s in a]
    assert len(set(labels)) == 6
    assert "II" not in labels
    assert PauliBasis.random(2, 6, seed=8).strings != a.strings


def test_random_basis_nested_across_counts():
    # same seed, bigger count: the smaller basis is a prefix
    small = PauliBasis.random(2, 6, seed=3)
    big = PauliBasis.random(2, 12, seed=3)
    assert big.strings[:6] == small.strings


def test_random_basis_count_bounds():
    with pytest.raises(ValueError):
        PauliBasis.random(1, 0, seed=0)
    with pytest.raises(ValueError):
        PauliBasis.random(1, 4, seed=0)
    assert len(PauliBasis.random(1, 3, seed=0)) == 3


def test_random_basis_roughly_uniform():
    counts = {"X": 0, "Y": 0, "Z": 0}
    for seed in range(300):
        counts[PauliBasis.random(1, 1, seed).strings[0].label] += 1
    for v in counts.values():
        assert 60 <= v <= 140, counts


# --- system assembly -------------------------------------------------------


def _dense_system(psi_amps, basis, h, tau):
    mats = [label_matrix(s.label) for s in basis]
    h_mat = sum_matrix(h)
    m = len(mats)
    s_ref = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            s_ref[i, j] = np.vdot(psi_amps, mats[i] @ mats[j] @ psi_amps).real
    c_ref = 1.0 - 2.0 * tau * np.vdot(psi_amps, h_mat @ psi_amps).real
    b_ref = np.array(
        [np.vdot(psi_amps, mm @ h_mat @ psi_amps).imag for mm in mats]
    ) / np.sqrt(c_ref)
    return s_ref, b_ref, c_ref


def test_build_system_matches_dense(rng):
    psi = StateVector(2, random_unit(rng, 4))
    h = random_pauli_sum(rng, 2, 4)
    basis = PauliBasis.random(2, 7, seed=5)
    tau = 0.03
    s_mat, b, c = build_system(psi, h, tau, basis)
    s_ref, b_ref, c_ref = _dense_system(psi.amplitudes, basis, h, tau)
    assert_close(s_mat, s_ref, 1e-12, "S")
    assert_close(b, b_ref, 1e-12, "b")
    assert abs(c - c_ref) < 1e-12
    assert_close(s_mat, s_mat.T, 0, "symmetry")


def test_build_system_c_guard():
    psi = StateVector.from_bits("0")  # <Z> = 1
    h = PauliSum.from_label("Z")
    with pytest.raises(StepSizeError, match="reduce the time step"):
        build_system(psi, h, 0.46, PauliBasis.full(1))


def test_build_system_register_mismatch():
    psi = StateVector.from_bits("00")
    with pytest.raises(ValueError):
        build_system(psi, PauliSum.from_label("Z"), 0.01, PauliBasis.full(2))
    with pytest.raises(ValueError):
        build_system(psi, PauliSum.from_label("ZZ"), 0.01, PauliBasis.full(1))


def test_build_system_sampled_close_and_deterministic(rng):
    psi = StateVector(1, random_unit(rng, 2))
    h = PauliSum.from_text("0.7*Z + 0.4*X")
    basis = PauliBasis.full(1)
    s_exact, b_exact, _ = build_system(psi, h, 0.01, basis)
    s1, b1, _ = build_system(psi, h, 0.01, basis, shot=ShotModel(8192, seed=2))
    s2, b2, _ = build_system(psi, h, 0.01, basis, shot=ShotModel(8192, seed=2))
    assert_close(s1, s2, 0, "same-seed S")
    assert_close(b1, b2, 0, "same-seed b")
    # single-string estimates: std <= 1/sqrt(shots) ~ 0.011; allow 5 sigma
    assert np.max(np.abs(s1 - s_exact)) < 0.06
    assert np.max(np.abs(b1 - b_exact)) < 0.12


# --- linear solve -----------------------------------------------------------


def test_solve_identity_system():
    b = np.array([0.3, -0.2, 1.1])
    step = solve_regularized(np.eye(3), b, 0.0)
    assert_close(step.a, b, 1e-14)
    assert step.residual < 1e-14


def test_solve_ridge_shift():
    b = np.array([1.0, -2.0])
    step = solve_regularized(np.eye(2), b, 1.0)
    assert_close(step.a, b / 2.0, 1e-14)


def test_solve_matches_dense_solve(rng):
    r = rng.normal(size=(6, 6))
    s_mat = r @ r.T + 0.5 * np.eye(6)
    b = rng.normal(size=6)
    step = solve_regularized(s_mat, b, 0.0)
    assert_close(step.a, np.linalg.solve(s_mat, b), 1e-10)
    assert abs(step.residual - np.linalg.norm(s_mat @ step.a - b)) < 1e-12


def test_solve_truncates_tiny_singular_directions():
    s_mat = np.diag([1.0, SINGULAR_FLOOR * 1e-2])
    b = np.array([0.5, 0.5])
    step = solve_regularized(s_mat, b, 0.0)
    assert_close(step.a, [0.5, 0.0], 1e-12)
    assert abs(step.residual - 0.5) < 1e-12


def test_solve_rejects_negative_regularizer():
    with pytest.raises(ValueError):
        solve_regularized(np.eye(2), np.zeros(2), -0.1)


def test_step_coefficients_are_frozen():
    step = solve_regularized(np.eye(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        step.a[0] = 5.0


def test_solve_permutation_equivariance(rng):
    # a rank-deficient S exercises the pseudoinverse branch
    r = rng.normal(size=(5, 3))
    s_mat = r @ r.T
    b = rng.normal(size=5)
    perm = np.array([3, 0, 4, 1, 2])
    p = np.eye(5)[perm]
    base = solve_regularized(s_mat, b, 0.0)
    shuffled = solve_regularized(p @ s_mat @ p.T, p @ b, 0.0)
    assert_close(shuffled.a, p @ base.a, 1e-9)


# --- full step --------------------------------------------------------------


def _ite_target(h_mat, amps, tau):
    out = dense_expm(-tau * h_mat) @ amps
    return out / np.linalg.norm(out)


def test_step_tracks_imaginary_time_full_basis(rng):
    psi = StateVector(2, random_unit(rng, 4))
    h = random_pauli_sum(rng, 2, 5)
    out = nonunitary_step(psi, h, 0.01, PauliBasis.full(2))
    target = _ite_target(sum_matrix(h), psi.amplitudes, 0.01)
    infidelity = 1.0 - abs(np.vdot(target, out.state.amplitudes)) ** 2
    assert infidelity <= 1e-4


def test_step_error_shrinks_quadratically(rng):
    psi = StateVector(2, random_unit(rng, 4))
    h = random_pauli_sum(rng, 2, 5)
    h_mat = sum_matrix(h)

    def err(tau):
        out = nonunitary_step(psi, h, tau, PauliBasis.full(2))
        target = _ite_target(h_mat, psi.amplitudes, tau)
        # compare up to global phase via fidelity
        return np.sqrt(max(0.0, 1.0 - abs(np.vdot(target, out.state.amplitudes)) ** 2))

    e1, e2 = err(0.02), err(0.01)
    assert 2.5 < e1 / e2 < 6.0


def test_step_fixes_eigenstates():
    psi = StateVector.from_bits("0")
    out = nonunitary_step(psi, PauliSum.from_label("Z"), 0.05, PauliBasis.full(1))
    assert np.max(np.abs(out.qite.a)) < 1e-12
    assert_close(out.state.amplitudes, psi.amplitudes, 1e-12)


def test_step_plus_state_rotates_toward_ground():
    # |+> under h = Z: the Y rotation alone carries the whole step
    psi = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    basis = PauliBasis.explicit(["Y"])
    tau = 0.01
    out = nonunitary_step(psi, PauliSum.from_label("Z"), tau, basis)
    assert abs(abs(out.qite.a[0]) - 1.0) < 1e-10
    target = _ite_target(label_matrix("Z"), psi.amplitudes, tau)
    infidelity = 1.0 - abs(np.vdot(target, out.state.amplitudes)) ** 2
    assert infidelity < 1e-8
    # ground component (|1> for Z) grew
    assert abs(out.state.amplitudes[1]) > abs(psi.amplitudes[1])


def test_step_rotations_preserve_norm_exactly(rng):
    psi = StateVector(2, random_unit(rng, 4))
    h = random_pauli_sum(rng, 2, 4)
    out = nonunitary_step(psi, h, 0.02, PauliBasis.random(2, 9, seed=4))
    assert abs(out.raw_norm - 1.0) < 1e-12
    assert abs(out.state.norm() - 1.0) < 1e-12


def test_step_basis_reorder_only_shifts_higher_order(rng):
    psi = StateVector(2, random_unit(rng, 4))
    h = random_pauli_sum(rng, 2, 4)
    labels = ["XI", "IZ", "YY", "ZX", "XZ"]
    fwd = nonunitary_step(psi, h, 1e-3, PauliBasis.explicit(labels))
    rev = nonunitary_step(psi, h, 1e-3, PauliBasis.explicit(labels[::-1]))
    assert_close(fwd.qite.a, rev.qite.a[::-1], 1e-9, "coefficients")
    gap = np.linalg.norm(fwd.state.amplitudes - rev.state.amplitudes)
    assert gap < 1e-5  # product ordering enters at O(tau^2)


def test_step_sampled_matches_exact_loosely(rng):
    psi = StateVector(1, random_unit(rng, 2))
    h = PauliSum.from_text("0.6*Z + 0.3*X")
    exact = nonunitary_step(psi, h, 0.01, PauliBasis.full(1))
    noisy = nonunitary_step(
        psi, h, 0.01, PauliBasis.full(1), shot=ShotModel(8192, seed=11)
    )
    assert np.max(np.abs(noisy.qite.a - exact.qite.a)) < 0.2
