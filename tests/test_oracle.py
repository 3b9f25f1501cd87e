"""Exact reference solver checked against scipy and hand-built generators."""

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
from oqite.experiments import oracle_trajectory
from oqite.oracle import (
    MAX_QUBITS,
    _generator,
    default_rk4_steps,
    evolve_exact,
    steady_state,
    superoperator,
    taylor_apply,
)
from oqite.pauli import PauliString, PauliSum
from oqite.states import DensityMatrix, StateVector


# --- Taylor kernel ---------------------------------------------------------


def test_taylor_apply_matches_scipy(rng):
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a *= 2.0 / np.linalg.norm(a, 1)
    v = random_unit(rng, 6)
    bound = np.linalg.norm(a, 1)
    for t in (0.0, 0.05, -0.4, 1.0, -2.5, 3.7):
        want = dense_expm(t * a) @ v
        got = taylor_apply(lambda x: a @ x, v, t, bound)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) / scale < 1e-12, f"t={t}"


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


# --- reference trajectories ---------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_trajectory_matches_dense_expm(rng, n):
    model = tfim_model(n, 1.0, 0.7, 0.3)
    rho0 = DensityMatrix.pure(StateVector(n, random_unit(rng, 1 << n)))
    obs = {
        "z0": PauliSum.from_label("I" * (n - 1) + "Z"),
        "x_last": PauliSum.from_label("X" + "I" * (n - 1)),
    }
    tau, n_steps = 0.05, 20
    traj = oracle_trajectory(model, rho0, tau, n_steps, obs)
    assert len(traj.points) == n_steps + 1
    prop = dense_expm(tau * _superop_oracle(model))
    v = vec_col(rho0.entries)
    for point in traj.points:
        rho = unvec_col(v)
        tr = np.trace(rho).real
        for name, op in obs.items():
            want = np.trace(sum_matrix(op) @ rho).real / tr
            assert abs(point.values[name] - want) < 1e-12, f"{name} t={point.t}"
        assert abs(point.raw_norm - tr) < 1e-12
        assert abs(point.purity - np.trace(rho @ rho).real / tr**2) < 1e-12
        v = prop @ v


def test_max_qubits_constant():
    assert MAX_QUBITS == 6
