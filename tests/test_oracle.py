"""Dense reference solver checked against scipy and hand-built generators."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from conftest import (
    assert_close,
    dense_expm,
    lindblad_superop,
    random_pauli_sum,
    random_unit,
    sum_matrix,
    unvec_col,
    vec_col,
)
from oqite.models import LindbladModel, lowering, tfim_model, tls_model
from oqite.oracle import (
    MAX_QUBITS,
    _generator,
    default_rk4_steps,
    dense_apply,
    dense_expm_apply,
    evolve_exact,
    expm,
    steady_state,
    superoperator,
)
from oqite.pauli import PauliString, PauliSum
from oqite.states import DensityMatrix, StateVector


# --- matrix exponential --------------------------------------------------


def test_expm_matches_scipy_small_norm(rng):
    for dim in (2, 4, 7):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a *= 0.3
        assert_close(expm(a), dense_expm(a), 1e-12, "expm small")


def test_expm_matches_scipy_large_norm(rng):
    # norm ~ 50 forces several squarings
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a *= 50.0 / np.linalg.norm(a, 1)
    ours, ref = expm(a), dense_expm(a)
    scale = max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(ours - ref)) / scale < 1e-9


def test_expm_identity_and_shape_guard():
    assert_close(expm(np.zeros((3, 3))), np.eye(3), 0)
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_expm_antihermitian_is_unitary(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g = a - a.conj().T
    u = expm(g)
    assert_close(u @ u.conj().T, np.eye(4), 1e-10, "unitarity")


# --- dense superoperator -------------------------------------------------


def _superop_oracle(model):
    h = sum_matrix(model.hamiltonian)
    jumps = [sum_matrix(j) for j in model.jumps]
    return lindblad_superop(h, jumps)


@pytest.mark.parametrize(
    "model",
    [tls_model(1.0, 1.0, 1.0), tls_model(0.3, 0.7, 0.0), tfim_model(3, 1.0, 1.0, 0.1)],
    ids=["tls", "tls-unitary", "tfim3"],
)
def test_superoperator_matches_hand_built(model):
    assert_close(superoperator(model), _superop_oracle(model), 1e-12)


def test_superoperator_random_model(rng):
    h = random_pauli_sum(rng, 2, 4)
    jumps = (random_pauli_sum(rng, 2, 2, herm=False),)
    model = LindbladModel(2, h, jumps)
    assert_close(superoperator(model), _superop_oracle(model), 1e-12)


def test_superoperator_size_guard():
    with pytest.raises(ValueError):
        superoperator(tfim_model(5, 1.0, 1.0, 0.1))


# --- exact evolution -----------------------------------------------------


def test_evolve_exact_matches_scipy(rng):
    model = tfim_model(2, 1.0, 1.0, 0.1)
    psi = StateVector(2, random_unit(rng, 4))
    rho0 = DensityMatrix.pure(psi)
    got = evolve_exact(model, rho0, 0.7)
    want = unvec_col(dense_expm(0.7 * _superop_oracle(model)) @ vec_col(rho0.entries))
    assert_close(got.entries, want, 1e-9, "evolve vs scipy")


def test_evolve_exact_preserves_trace_and_positivity():
    model = tls_model(1.0, 1.0, 1.0)
    rho = DensityMatrix.pure(StateVector.from_bits("1"))
    for t in (0.5, 2.0, 6.0):
        out = evolve_exact(model, rho, t)
        assert abs(out.trace() - 1.0) < 1e-10
        assert_close(out.entries, out.entries.conj().T, 1e-12, "hermitian")
        assert np.linalg.eigvalsh(out.entries).min() > -1e-9


def test_evolve_exact_zero_time_is_identity(rng):
    model = tls_model(0.5, 0.5, 0.3)
    rho = DensityMatrix.pure(StateVector(1, random_unit(rng, 2)))
    assert_close(evolve_exact(model, rho, 0.0).entries, rho.entries, 1e-12)


def test_evolve_exact_semigroup_composition(rng):
    model = tfim_model(2, 1.0, 0.5, 0.2)
    rho = DensityMatrix.pure(StateVector(2, random_unit(rng, 4)))
    once = evolve_exact(model, rho, 0.9)
    split = evolve_exact(model, evolve_exact(model, rho, 0.4), 0.5)
    assert_close(once.entries, split.entries, 1e-9, "semigroup")


def test_evolve_exact_rk4_path_matches_dense():
    # 5-qubit model whose generator acts only on qubit 0, so the
    # matrix-free propagator must reproduce the single-qubit answer on
    # that factor and leave the rest of the register untouched
    small = tls_model(1.0, 1.0, 1.0)
    ham = PauliSum(
        5,
        tuple(
            (c, PauliString(5, s.x_mask, s.z_mask)) for c, s in small.hamiltonian
        ),
    )
    jump = PauliSum(
        5,
        tuple((c, PauliString(5, s.x_mask, s.z_mask)) for c, s in small.jumps[0]),
    )
    big = LindbladModel(5, ham, (jump,))
    rho0_small = DensityMatrix.pure(StateVector.from_bits("1"))
    rho0_big = DensityMatrix.pure(StateVector.from_bits("00001"))
    t = 0.8
    got = evolve_exact(big, rho0_big, t)
    want_small = evolve_exact(small, rho0_small, t)
    # dynamics never leaves the qubit-0 factor: compare the top 2x2 block
    assert_close(got.entries[:2, :2], want_small.entries, 1e-12, "n=5 vs n=1")
    mask = np.ones((32, 32), dtype=bool)
    mask[:2, :2] = False
    assert np.max(np.abs(got.entries[mask])) < 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_evolve_exact_matches_expm_multiply(rng, n):
    model = tfim_model(n, 1.0, 0.7, 0.3)
    rho0 = DensityMatrix.pure(StateVector(n, random_unit(rng, 1 << n)))
    gen = scipy.sparse.csr_matrix(_superop_oracle(model))
    for t in (0.05, 0.7):
        want = unvec_col(scipy.sparse.linalg.expm_multiply(t * gen, vec_col(rho0.entries)))
        got = evolve_exact(model, rho0, t)
        assert_close(got.entries, want, 1e-12, f"n={n} t={t}")


def test_evolve_exact_guards():
    model = tls_model(1.0, 1.0, 1.0)
    rho2 = DensityMatrix.pure(StateVector.from_bits("00"))
    with pytest.raises(ValueError):
        evolve_exact(model, rho2, 1.0)
    rho1 = DensityMatrix.pure(StateVector.from_bits("1"))
    for t in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            evolve_exact(model, rho1, t)
    wide = LindbladModel(
        7,
        PauliSum(7, ((1.0, PauliString.from_label("IIIIIIX")),)),
        (),
    )
    with pytest.raises(ValueError):
        evolve_exact(wide, DensityMatrix.pure(StateVector.from_bits("0" * 7)), 0.1)
    # a non-finite state never meets the series tolerance
    with pytest.raises(RuntimeError, match="not converged"):
        evolve_exact(model, DensityMatrix(1, np.full((2, 2), np.nan)), 0.1)


def test_default_rk4_steps_bounds_substep_norm():
    model = tfim_model(3, 1.0, 1.0, 0.1)
    _, _, bound = _generator(model)
    assert bound >= np.linalg.norm(_superop_oracle(model), 1)
    counts = [default_rk4_steps(bound, t) for t in (0.05, 1.0, 10.0)]
    assert counts == sorted(set(counts))
    for t, s in zip((0.05, 1.0, 10.0), counts):
        assert t * bound / s <= 1.0
    # one substep per 0.05 grid step of the n = 5 Ising preset
    assert default_rk4_steps(_generator(tfim_model(5, 1.0, 1.0, 0.1))[2], 0.05) == 1


# --- steady state --------------------------------------------------------


def test_steady_state_is_fixed_point():
    model = tls_model(1.0, 1.0, 1.0)
    ss = steady_state(model)
    gen = _superop_oracle(model)
    assert np.linalg.norm(gen @ vec_col(ss.entries)) < 1e-9
    assert abs(ss.trace() - 1.0) < 1e-12
    assert_close(ss.entries, ss.entries.conj().T, 1e-12, "hermitian")


def test_steady_state_known_values():
    # delta = omega = gamma = 1: excited population 1/7, coherence Re 2/7
    ss = steady_state(tls_model(1.0, 1.0, 1.0))
    assert abs(ss.entries[1, 1].real - 1.0 / 7.0) < 1e-10
    assert abs(ss.entries[1, 0].real - 2.0 / 7.0) < 1e-10


def test_steady_state_agrees_with_long_evolution():
    model = tls_model(1.0, 1.0, 1.0)
    ss = steady_state(model)
    late = evolve_exact(model, DensityMatrix.pure(StateVector.from_bits("1")), 50.0)
    assert_close(ss.entries, late.entries, 1e-8, "ness vs t=50")


def test_steady_state_tfim():
    model = tfim_model(2, 1.0, 1.0, 0.5)
    ss = steady_state(model)
    gen = _superop_oracle(model)
    assert np.linalg.norm(gen @ vec_col(ss.entries)) < 1e-8
    assert np.linalg.eigvalsh(ss.entries).min() > -1e-9


def test_steady_state_degenerate_warns():
    with pytest.warns(UserWarning, match="not unique"):
        steady_state(tls_model(1.0, 1.0, 0.0))


# --- dense helper paths ---------------------------------------------------


def test_dense_apply_matches_matvec(rng):
    op = random_pauli_sum(rng, 3, 5, herm=False)
    v = random_unit(rng, 8)
    assert_close(dense_apply(op, v), sum_matrix(op) @ v, 1e-12)


def test_dense_expm_apply_matches_scipy(rng):
    op = random_pauli_sum(rng, 2, 4, herm=False)
    v = random_unit(rng, 4)
    for tau in (0.05, -0.2, 0.1j, 0.03 - 0.07j):
        want = dense_expm(tau * sum_matrix(op)) @ v
        assert_close(dense_expm_apply(op, tau, v), want, 1e-10, f"tau={tau}")


def test_dense_paths_dimension_guard():
    op = PauliSum(9, ((1.0, PauliString.from_label("X" * 9)),))
    v = np.zeros(512, dtype=np.complex128)
    with pytest.raises(ValueError):
        dense_apply(op, v)
    with pytest.raises(ValueError):
        dense_expm_apply(op, 0.1, v)


def test_max_qubits_constant():
    assert MAX_QUBITS == 6
