"""Weighted-branch driver: every assembled quantity against dense algebra.

For orthonormal branches the assembly admits closed dense forms,

    S_jk = Re Tr(G_j G_k),            G_j = i[sigma_j, rho],
    b_drift_j  = tau Re Tr(G_j D),    D = -(M rho + rho M)/2, M = L+L,
    b_refill_j = tau Re Tr(G_j R),    R = L rho L+,
    q_drift_x  = -tau p_x <phi_x|M|phi_x>,
    q_refill_y =  tau <phi_y|R|phi_y>,

which the tests here evaluate with raw numpy.
"""

import numpy as np
import pytest

from conftest import assert_close, dense_expm, label_matrix, sum_matrix
from oqite.ansatz import (
    Algo2Config,
    AnsatzState,
    _apply_update,
    dissipator_step,
    drift_system,
    init_ansatz,
    jump_system,
    observe,
    run,
    unitary_step,
)
from oqite.errors import StepSizeError
from oqite.models import lowering, tfim_model, tls_model
from oqite.oracle import evolve_exact
from oqite.pauli import PauliSum
from oqite.qite import PauliBasis, solve_regularized
from oqite.states import EXACT, DensityMatrix, ShotModel, StateVector


def dense_rho(state: AnsatzState) -> np.ndarray:
    return sum(p * np.outer(f, f.conj()) for p, f in zip(state.p, state.phi))


def _rotated_fixture():
    """A four-branch state a few genuine steps into a TFIM run."""
    model = tfim_model(2, 1.0, 1.0, 0.2)
    state = init_ansatz([("00", 0.5), ("01", 0.3), ("10", 0.2), ("11", 0.0)], 2)
    basis = PauliBasis.full(2)
    for _ in range(5):
        state = unitary_step(state, model.hamiltonian, 0.05)
        for j in model.jumps:
            state = dissipator_step(state, j, 0.05, basis, 0.01)
    return state, model


# --- construction -----------------------------------------------------------


def test_init_ansatz_layout():
    state = init_ansatz([("10", 0.7), ("00", 0.3)], 2)
    assert state.indices == (2, 0)
    assert_close(state.p, [0.7, 0.3], 0)
    assert state.bit_label(0) == "10"
    assert_close(state.phi[0], StateVector.from_bits("10").amplitudes, 0)
    assert abs(state.total_weight() - 1.0) < 1e-15
    assert abs(state.branch_purity() - (0.49 + 0.09)) < 1e-15


def test_init_ansatz_zero_weights_allowed():
    state = init_ansatz([("0", 1.0), ("1", 0.0)], 1)
    assert state.p[1] == 0.0
    assert abs(state.branch_purity() - 1.0) < 1e-15


def test_init_ansatz_validation():
    with pytest.raises(ValueError, match="does not match"):
        init_ansatz([("00", 1.0)], 1)
    with pytest.raises(ValueError, match="sum to"):
        init_ansatz([("0", 0.5), ("1", 0.4)], 1)
    with pytest.raises(ValueError, match="duplicate"):
        init_ansatz([("0", 0.5), ("0", 0.5)], 1)
    with pytest.raises(StepSizeError):
        init_ansatz([("0", -0.5), ("1", 1.5)], 1)


def test_ansatz_state_bookkeeping_guard():
    good = init_ansatz([("0", 1.0)], 1)
    with pytest.raises(ValueError):
        AnsatzState(1, (0, 1), good.p, good.phi)


def test_branch_array_invariant():
    state = init_ansatz([("10", 0.7), ("00", 0.3), ("11", 0.0)], 2)
    assert state.phi.dtype == np.complex128
    assert_close(state.phi, np.eye(4)[[2, 0, 3]], 0)  # rows are |10>, |00>, |11>
    with pytest.raises(ValueError):
        state.phi[0, 0] = 0.5
    rows = np.array(state.phi)
    copy = AnsatzState(2, state.indices, state.p, rows)
    rows[0, 0] = 0.5
    assert copy.phi[0, 0] == 0.0  # built from a copy
    for bad in (rows[:2], rows[:, :2], rows.reshape(-1), rows[None]):
        with pytest.raises(ValueError, match="out of sync"):
            AnsatzState(2, state.indices, state.p, bad)


def test_weights_are_frozen():
    state = init_ansatz([("0", 1.0)], 1)
    with pytest.raises(ValueError):
        state.p[0] = 0.5


# --- system assembly against dense algebra ----------------------------------


def test_systems_match_dense_forms():
    state, model = _rotated_fixture()
    rho = dense_rho(state)
    basis = PauliBasis.random(2, 6, seed=9)
    mats = [label_matrix(s.label) for s in basis]
    g = [1j * (m @ rho - rho @ m) for m in mats]
    jump = model.jumps[0]
    l_mat = sum_matrix(jump)
    m_mat = l_mat.conj().T @ l_mat
    tau = 0.013

    s_d, b_d, q_d = drift_system(state, jump, tau, basis)
    s_j, b_j, q_j = jump_system(state, jump, tau, basis)

    s_ref = np.array([[np.trace(gj @ gk).real for gk in g] for gj in g])
    assert_close(s_d, s_ref, 1e-12, "S drift")
    assert_close(s_j, s_ref, 1e-12, "S refill")

    d_mat = -0.5 * (m_mat @ rho + rho @ m_mat)
    r_mat = l_mat @ rho @ l_mat.conj().T
    assert_close(b_d, [tau * np.trace(gj @ d_mat).real for gj in g], 1e-14, "b drift")
    assert_close(b_j, [tau * np.trace(gj @ r_mat).real for gj in g], 1e-14, "b refill")

    q_dref = [
        -tau * p * np.vdot(f, m_mat @ f).real for p, f in zip(state.p, state.phi)
    ]
    q_jref = [tau * np.vdot(f, r_mat @ f).real for f in state.phi]
    assert_close(q_d, q_dref, 1e-15, "q drift")
    assert_close(q_j, q_jref, 1e-15, "q refill")


def test_weight_flows_cancel_on_complete_set():
    state, model = _rotated_fixture()
    basis = PauliBasis.full(2)
    for jump in model.jumps:
        _, _, q_d = drift_system(state, jump, 0.02, basis)
        _, _, q_j = jump_system(state, jump, 0.02, basis)
        assert abs(np.sum(q_d) + np.sum(q_j)) < 1e-15


def test_combined_step_conserves_weight_sequential_leaks():
    model = tls_model(1.0, 1.0, 1.0)
    basis = PauliBasis.full(1)
    tau = 0.05

    def total_after(stepper, n):
        state = init_ansatz([("1", 1.0), ("0", 0.0)], 1)
        for _ in range(n):
            state = unitary_step(state, model.hamiltonian, tau)
            state = stepper(state)
        return state.total_weight()

    def factor(system, state):
        # one factor as its own projected step: solve, then update
        s_mat, b, q = system(state, model.jumps[0], tau, basis)
        return _apply_update(state, basis, q, solve_regularized(s_mat, b, 0.0).a)

    combined = total_after(
        lambda s: dissipator_step(s, model.jumps[0], tau, basis), 60
    )
    sequential = total_after(
        lambda s: factor(jump_system, factor(drift_system, s)), 60
    )
    assert abs(combined - 1.0) < 1e-12
    assert abs(sequential - 1.0) > 1e-4  # per-step O(tau^2) trace leak


# --- weight updates ----------------------------------------------------------


def test_refill_populates_empty_branch():
    # amplitude damping moves exactly tau*p1*|<0|L|1>|^2 in one factor pair
    model = tls_model(1.0, 1.0, 1.0)
    state = init_ansatz([("0", 0.0), ("1", 1.0)], 1)
    tau = 0.01
    out = dissipator_step(state, model.jumps[0], tau, PauliBasis.full(1))
    assert abs(out.p[0] - tau) < 1e-15
    assert abs(out.p[1] - (1.0 - tau)) < 1e-15


def test_drift_overdrive_raises_step_size_error():
    jump = lowering(1, 0) * 2.0
    state = init_ansatz([("1", 1.0)], 1)
    basis = PauliBasis.full(1)
    with pytest.raises(StepSizeError, match="reduce the time step"):
        s_mat, b, q = drift_system(state, jump, 0.3, basis)
        _apply_update(state, basis, q, solve_regularized(s_mat, b, 0.0).a)


def test_branches_stay_orthonormal():
    state, _ = _rotated_fixture()
    assert_close(state.phi.conj() @ state.phi.T, np.eye(4), 1e-12, "gram")


# --- unitary factor -----------------------------------------------------------


def test_unitary_step_single_term_exact():
    h = PauliSum.from_text("0.7*ZZ")
    state = init_ansatz([("01", 0.4), ("10", 0.6)], 2)
    out = unitary_step(state, h, 0.3)
    u = dense_expm(-1j * 0.3 * sum_matrix(h))
    for before, after in zip(state.phi, out.phi):
        assert_close(after, u @ before, 1e-12)
    assert_close(out.p, state.p, 0)


def test_unitary_step_trotter_error_second_order():
    h = PauliSum.from_text("0.5*X + 0.8*Z")
    start = init_ansatz([("0", 1.0)], 1)

    def gap(tau):
        out = unitary_step(start, h, tau)
        want = dense_expm(-1j * tau * sum_matrix(h)) @ start.phi[0]
        return np.linalg.norm(out.phi[0] - want)

    assert 2.5 < gap(0.02) / gap(0.01) < 6.0


# --- readout and full runs ------------------------------------------------------


def test_observe_matches_dense():
    state, _ = _rotated_fixture()
    obs = PauliSum.from_text("0.3*ZI + 1.1*XY - 0.2*II")
    want = np.trace(sum_matrix(obs) @ dense_rho(state)).real
    assert abs(observe(state, obs) - want) < 1e-12


def test_trajectory_tracks_exact_evolution():
    model = tls_model(1.0, 1.0, 1.0)
    state = init_ansatz([("1", 1.0), ("0", 0.0)], 1)
    cfg = Algo2Config(tau=0.01, n_steps=50, basis=PauliBasis.full(1))
    traj = run(model, state, cfg, {"pop": PauliSum.from_label("Z")}, seed_label="3")
    want = evolve_exact(
        model, DensityMatrix.pure(StateVector.from_bits("1")), 0.5
    )
    want_z = np.trace(label_matrix("Z") @ want.entries).real
    assert traj.algorithm == "algo2"
    assert traj.seed == "3"
    assert len(traj.points) == 51
    assert abs(traj.points[-1].values["pop"] - want_z) < 5e-3
    assert abs(traj.points[-1].raw_norm - 1.0) < 1e-12
    assert traj.points[0].purity == 1.0
    assert traj.points[0].dropped_mass == 0.0


def test_config_validation():
    basis = PauliBasis.full(1)
    with pytest.raises(ValueError):
        Algo2Config(tau=0.0, n_steps=1, basis=basis)
    with pytest.raises(ValueError):
        Algo2Config(tau=0.1, n_steps=-1, basis=basis)


# --- sampled path ----------------------------------------------------------------


def test_sampled_step_deterministic_and_close():
    model = tls_model(1.0, 1.0, 1.0)
    basis = PauliBasis.full(1)
    state0 = init_ansatz([("1", 0.9), ("0", 0.1)], 1)

    def stepped(shot):
        return dissipator_step(state0, model.jumps[0], 0.01, basis, 0.0, shot)

    exact = stepped(EXACT)
    noisy1 = stepped(ShotModel(1 << 14, seed=8))
    noisy2 = stepped(ShotModel(1 << 14, seed=8))
    assert_close(noisy1.p, noisy2.p, 0, "same-seed weights")
    assert_close(noisy1.phi, noisy2.phi, 0, "same-seed branches")
    assert np.max(np.abs(noisy1.p - exact.p)) < 0.01
