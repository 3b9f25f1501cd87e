"""State containers, expectations, rotations, and the sampling model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    assert_close,
    dense_expm,
    label_matrix,
    random_label,
    random_pauli_sum,
    random_unit,
    sum_matrix,
)
from oqite.ansatz import Algo2Config
from oqite.pauli import PauliString, PauliSum
from oqite.qite import PauliBasis
from oqite.states import (
    EXACT,
    DensityMatrix,
    ShotModel,
    StateVector,
    expectation,
    matrix_element,
    pauli_rotation,
)
from oqite.vectorized import Algo1Config


def test_basis_state_and_from_bits():
    psi = StateVector.basis_state(2, 3)
    assert_close(psi.amplitudes, [0, 0, 0, 1], 0)
    assert_close(StateVector.from_bits("11").amplitudes, psi.amplitudes, 0)
    # leftmost bit is the high-order qubit
    assert_close(StateVector.from_bits("10").amplitudes, [0, 0, 1, 0], 0)


def test_norm_and_normalized(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = StateVector(2, amps)
    assert psi.norm() == pytest.approx(np.linalg.norm(amps))
    assert psi.normalized().norm() == pytest.approx(1.0)


def test_density_from_weights_and_pure():
    rho = DensityMatrix.from_weights([("0", 0.25), ("1", 0.75)], 1)
    assert_close(rho.entries, np.diag([0.25, 0.75]), 0)
    assert rho.trace() == pytest.approx(1.0)
    assert rho.purity() == pytest.approx(0.25**2 + 0.75**2)
    pure = DensityMatrix.pure(StateVector.from_bits("1"))
    assert pure.purity() == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1))
def test_expectation_matches_dense(seed):
    rng = np.random.default_rng(seed)
    op = random_pauli_sum(rng, 2, 3, herm=False)
    psi = random_unit(rng, 4)
    got = expectation(StateVector(2, psi), op)
    assert_close([got], [np.vdot(psi, sum_matrix(op) @ psi)], 1e-12)


def test_matrix_element_matches_dense(rng):
    op = random_pauli_sum(rng, 2, 3, herm=False)
    x, y = random_unit(rng, 4), random_unit(rng, 4)
    got = matrix_element(StateVector(2, x), StateVector(2, y), op)
    assert_close([got], [np.vdot(x, sum_matrix(op) @ y)], 1e-12)


@given(
    st.sampled_from(["X", "Y", "Z", "XZ", "YY"]),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_pauli_rotation_matches_dense_expm(lab, theta, seed):
    rng = np.random.default_rng(seed)
    n = len(lab)
    psi = random_unit(rng, 1 << n)
    got = pauli_rotation(psi, [PauliString.from_label(lab)], [theta])
    want = dense_expm(-1j * theta * label_matrix(lab)) @ psi
    assert_close(got, want, 1e-12)
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)
    # a stack of branches under an ordered product, first string first
    labels = [lab, random_label(rng, n), random_label(rng, n)]
    angles = [theta, rng.uniform(-2, 2), rng.uniform(-2, 2)]
    stack = np.vstack([psi] + [random_unit(rng, 1 << n) for _ in range(2)])
    strings = [PauliString.from_label(l) for l in labels]
    got = pauli_rotation(stack, strings, angles)
    unitary = np.eye(1 << n)
    for l, a in zip(labels, angles):
        unitary = dense_expm(-1j * a * label_matrix(l)) @ unitary
    assert got.shape == stack.shape
    assert_close(got, stack @ unitary.T, 1e-12)
    # each row rounds exactly as the same vector rotated alone
    for row, vec in zip(got, stack):
        assert np.array_equal(row, pauli_rotation(vec, strings, angles))


def test_pauli_rotation_product_error_is_second_order(rng):
    psi = random_unit(rng, 4)
    labels = ["XI", "ZZ", "IY"]
    strings = [PauliString.from_label(l) for l in labels]
    a = np.array([0.7, -0.4, 0.9])
    gen = sum(ai * label_matrix(l) for ai, l in zip(a, labels))

    def gap(tau):
        got = pauli_rotation(psi, strings, tau * a)
        want = dense_expm(-1j * tau * gen) @ psi
        return np.linalg.norm(got - want)

    g1, g2 = gap(0.02), gap(0.01)
    assert g1 < 1e-3
    assert 2.5 < g1 / g2 < 6.0


def test_pauli_rotation_skips_zero_angles_and_checks_lengths():
    psi = StateVector.from_bits("01").amplitudes
    strings = [PauliString.from_label("XY"), PauliString.from_label("ZZ")]
    assert np.array_equal(pauli_rotation(psi, strings, [0.0, 0.0]), psi)
    with pytest.raises(ValueError):
        pauli_rotation(psi, strings, [0.1])
    with pytest.raises(ValueError):
        pauli_rotation(np.ones(8), strings, [0.1, 0.2])


# --- sampling ---------------------------------------------------------------


def test_shot_model_validation():
    with pytest.raises(ValueError):
        ShotModel(-1, 0)
    assert EXACT.exact
    assert not ShotModel(100, 0).exact


def test_shot_model_identity_equality_and_config_defaults():
    # each instance owns its own Philox stream, so equal fields do not make
    # two samplers interchangeable
    a = ShotModel(8, 1)
    assert a == a
    assert ShotModel(8, 1) != ShotModel(8, 1)
    assert len({a, a, ShotModel(8, 1)}) == 2
    # an unhashable EXACT is refused as a dataclass default on Python >= 3.11
    basis = PauliBasis.full(1)
    for cfg in (
        Algo1Config(tau=0.1, n_steps=1, basis=basis),
        Algo2Config(tau=0.1, n_steps=1, basis=basis),
    ):
        assert cfg.shot is EXACT
        hash(cfg)


def test_exact_passthrough():
    assert EXACT.sample_mean(0.37) == 0.37


def test_same_seed_same_draws():
    a = ShotModel(512, 7)
    b = ShotModel(512, 7)
    seq_a = [a.sample_mean(0.3) for _ in range(5)]
    seq_b = [b.sample_mean(0.3) for _ in range(5)]
    assert seq_a == seq_b
    c = ShotModel(512, 8)
    assert [c.sample_mean(0.3) for _ in range(5)] != seq_a


def test_sample_mean_is_clipped_binomial():
    shot = ShotModel(64, 3)
    vals = [shot.sample_mean(0.5) for _ in range(200)]
    assert all(-1.0 <= v <= 1.0 for v in vals)
    # granularity 2/shots
    assert all(abs(v * 32 - round(v * 32)) < 1e-12 for v in vals)
    # extreme means are deterministic
    assert ShotModel(64, 0).sample_mean(1.0) == 1.0
    assert ShotModel(64, 0).sample_mean(-1.0) == -1.0


def test_sampled_expectation_std_tracks_binomial(rng):
    psi = StateVector(1, random_unit(rng, 2))
    op = PauliSum.from_label("Z")
    m = expectation(psi, op).real
    vals = [expectation(psi, op, ShotModel(4096, s)).real for s in range(200)]
    pred = np.sqrt(1.0 - m * m) / np.sqrt(4096)
    ratio = np.std(vals, ddof=1) / pred
    assert 0.5 <= ratio <= 2.0


def test_sampling_requires_normalized_state():
    psi = StateVector(1, np.array([2.0, 0.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        expectation(psi, PauliSum.from_label("Z"), ShotModel(16, 0))


def test_sampled_matrix_element_consistent(rng):
    # sampled estimate converges on the exact element for basis states
    x = StateVector.from_bits("01")
    y = StateVector.from_bits("11")
    op = PauliSum.from_label("IX", 0.5) + PauliSum.from_label("ZY", 1.5)
    exact = matrix_element(x, y, op)
    est = matrix_element(x, y, op, ShotModel(1 << 15, 5))
    assert abs(est - exact) < 0.1


def test_basis_state_element_outside_support_spends_no_draws():
    # states differ outside the support: the element vanishes identically
    x = StateVector.from_bits("00")
    y = StateVector.from_bits("10")
    op = PauliSum.from_label("IX")
    shot = ShotModel(8, 9)
    before = str(shot._rng.bit_generator.state)
    assert matrix_element(x, y, op, shot) == 0
    assert str(shot._rng.bit_generator.state) == before
