"""Acceptance gate: ten end-to-end criteria for the two drivers.

Each test prints one summary line with the measured numbers; run with
``pytest tests/test_acceptance.py -v`` for a one-line verdict per
criterion.  Session fixtures share the expensive trajectory runs.
"""

import time

import numpy as np
import pytest

from conftest import (
    dense_expm,
    label_matrix,
    lindblad_superop,
    random_label,
    random_pauli_sum,
    random_unit,
    steady_state,
    sum_matrix,
    unvec_col,
    vec_col,
)
from oqite.ansatz import AnsatzState, drift_system, init_ansatz, jump_system, unitary_step
from oqite.experiments import (
    TLS_REGULARIZER,
    ExperimentConfig,
    max_abs_deviation,
    preset,
    run_experiment,
    sweep_gamma,
    sweep_paulis,
)
from oqite.models import LindbladModel, tls_model, vectorize
from oqite.oracle import evolve_exact
from oqite.pauli import PauliString, PauliSum
from oqite.qite import PauliBasis, build_system
from oqite.states import (
    EXACT,
    DensityMatrix,
    ShotModel,
    StateVector,
    expectation,
)
from oqite.vectorized import Algo1Config, init_vectorized
from oqite.vectorized import step as vectorized_step

GAMMA_T_END = 6.0
TAU = 0.05


def _tls_raw(algorithm: str, tau: float) -> dict:
    raw = {
        "model": {"type": "tls", "params": {"delta": 1.0, "omega": 1.0, "gamma": 1.0}},
        "algorithm": algorithm,
        "tau": tau,
        "n_steps": round(GAMMA_T_END / tau),
        "initial": [["1", 1.0]],
    }
    if algorithm == "algo1":
        raw["basis"] = {"kind": "full"}
        raw["delta_reg"] = TLS_REGULARIZER
    elif algorithm == "algo2":
        raw["basis"] = {"kind": "full"}
    return raw


@pytest.fixture(scope="session")
def tls_runs():
    """(algorithm, tau) -> (trajectory, wall seconds) on the damped TLS."""
    out = {}
    for tau in (TAU, TAU / 2):
        for algorithm in ("oracle", "algo1", "algo2"):
            cfg = ExperimentConfig.from_dict(_tls_raw(algorithm, tau))
            start = time.monotonic()
            out[(algorithm, tau)] = (run_experiment(cfg), time.monotonic() - start)
    return out


@pytest.fixture(scope="session")
def tfim_runs():
    """Preset Ising runs: oracle, 16-string algo1, full-basis algo2."""
    out = {}
    for algorithm in ("oracle", "algo1", "algo2"):
        cfg = preset("tfim", algorithm)
        start = time.monotonic()
        out[algorithm] = (run_experiment(cfg), time.monotonic() - start)
    return out


def _dev(runs, algorithm, name, tau=TAU):
    traj, _ = runs[(algorithm, tau)]
    oracle, _ = runs[("oracle", tau)]
    return max_abs_deviation(traj, oracle, name)


# --- 1: TLS population tracking ----------------------------------------------


def test_criterion_01_tls_population(tls_runs):
    dev1 = _dev(tls_runs, "algo1", "excited_pop")
    dev2 = _dev(tls_runs, "algo2", "excited_pop")
    assert dev1 <= 0.02, f"algo1 deviation {dev1:.5f}"
    assert dev2 <= 0.02, f"algo2 deviation {dev2:.5f}"
    t1 = tls_runs[("algo1", TAU)][1]
    t2 = tls_runs[("algo2", TAU)][1]
    assert t1 <= 10.0 and t2 <= 10.0, f"runtimes {t1:.1f}s / {t2:.1f}s"
    print(
        f"criterion 1 PASS: pop deviation algo1 {dev1:.5f}, algo2 {dev2:.5f} "
        f"(<=0.02); runtimes {t1:.2f}s / {t2:.2f}s (<=10s)"
    )


# --- 2: non-equilibrium steady state -------------------------------------------


def test_criterion_02_steady_state(tls_runs):
    model = tls_model(1.0, 1.0, 1.0)
    ness = steady_state(
        lindblad_superop(
            sum_matrix(model.hamiltonian), [sum_matrix(j) for j in model.jumps]
        )
    )
    late = evolve_exact(
        model, DensityMatrix.pure(StateVector.from_bits("1")), 50.0
    )
    element_gap = np.max(np.abs(ness - late.entries))
    assert element_gap <= 1e-6, f"steady state vs t=50: {element_gap:.2e}"

    ness_pop = float(ness[1, 1].real)
    gaps, slopes = {}, {}
    for algorithm in ("oracle", "algo1", "algo2"):
        traj, _ = tls_runs[(algorithm, TAU)]
        series = traj.series("excited_pop")
        gaps[algorithm] = abs(series[-1] - ness_pop)
        # local slope over the final step, per unit gamma*t
        slopes[algorithm] = (series[-1] - series[-2]) / TAU
    assert gaps["algo1"] <= 0.03 and gaps["algo2"] <= 0.03, gaps
    for algorithm, slope in slopes.items():
        assert abs(slope) < 0.01, f"{algorithm} settling slope {slope:.5f}"
    print(
        f"criterion 2 PASS: |NESS - t50| {element_gap:.1e} (<=1e-6); "
        f"pop gap at end algo1 {gaps['algo1']:.5f}, algo2 {gaps['algo2']:.5f} "
        f"(<=0.03); final slopes "
        + ", ".join(f"{a} {s:+.5f}" for a, s in slopes.items())
        + " (|.|<0.01)"
    )


# --- 3: coherence stays finite ---------------------------------------------------


def test_criterion_03_coherence(tls_runs):
    devs, floors = {}, {}
    oracle, _ = tls_runs[("oracle", TAU)]
    times = oracle.times()
    tail = times >= 5.0
    for algorithm in ("algo1", "algo2"):
        traj, _ = tls_runs[(algorithm, TAU)]
        devs[algorithm] = max_abs_deviation(traj, oracle, "re_rho10")
        floors[algorithm] = float(np.min(np.abs(traj.series("re_rho10")[tail])))
        assert devs[algorithm] <= 0.03, devs
        assert floors[algorithm] >= 0.1, floors
    # the settled coherence itself is finite (2/7 for this instance)
    oracle_floor = float(np.min(np.abs(oracle.series("re_rho10")[tail])))
    assert oracle_floor >= 0.1
    print(
        f"criterion 3 PASS: re_rho10 deviation algo1 {devs['algo1']:.5f}, "
        f"algo2 {devs['algo2']:.5f} (<=0.03); settled magnitude >= "
        f"{min(floors.values()):.3f} (>=0.1)"
    )


# --- 4: Ising chain tracking ------------------------------------------------------


def _sign_changes(series: np.ndarray) -> np.ndarray:
    sign = np.sign(series)
    # carry the previous sign across exact zeros
    for i in range(1, len(sign)):
        if sign[i] == 0:
            sign[i] = sign[i - 1]
    return np.nonzero(sign[:-1] * sign[1:] < 0)[0]


def test_criterion_04_tfim(tfim_runs):
    oracle, _ = tfim_runs["oracle"]
    algo1, t1 = tfim_runs["algo1"]
    algo2, t2 = tfim_runs["algo2"]
    dev2 = max_abs_deviation(algo2, oracle, "avg_z")
    dev1 = max_abs_deviation(algo1, oracle, "avg_z")
    assert dev2 <= 0.03, f"algo2 deviation {dev2:.5f}"
    assert dev1 <= 0.15, f"algo1 deviation {dev1:.5f}"

    times = oracle.times()
    ref_cross = _sign_changes(oracle.series("avg_z"))
    got_cross = _sign_changes(algo1.series("avg_z"))
    assert len(ref_cross) == len(got_cross), (
        f"oscillation count {len(got_cross)} vs oracle {len(ref_cross)}"
    )
    assert np.all(np.abs(times[ref_cross] - times[got_cross]) <= 0.5)
    assert np.sign(algo1.series("avg_z")[0]) == np.sign(oracle.series("avg_z")[0])
    assert t1 + t2 <= 60.0, f"runtime {t1 + t2:.1f}s"
    print(
        f"criterion 4 PASS: avg_z deviation algo2 {dev2:.5f} (<=0.03), "
        f"algo1 {dev1:.5f} (<=0.15); {len(got_cross)} sign changes at "
        f"matching times; runtime {t1:.1f}s + {t2:.1f}s (<=60s)"
    )


# --- 5: basis-size sweep -----------------------------------------------------------


def test_criterion_05_pauli_count_sweep():
    counts = (16, 24, 32, 48)
    rows, _ = sweep_paulis(counts=counts)
    by_seed: dict[int, dict[int, float]] = {}
    for row in rows:
        by_seed.setdefault(row["seed"], {})[row["count"]] = row["deviation"]
    for seed, devs in by_seed.items():
        series = [devs[c] for c in counts]
        for small, large in zip(series, series[1:]):
            assert large <= small + 0.01, f"seed {seed}: {series}"
    means = [float(np.mean([by_seed[s][c] for s in by_seed])) for c in counts]
    for small, large in zip(means, means[1:]):
        assert large <= small + 0.005, f"means {means}"
    gap = means[0] - means[-1]
    assert gap <= 0.05, f"mean dev16 - dev48 = {gap:.4f}"
    print(
        "criterion 5 PASS: mean deviations "
        + ", ".join(f"{c}:{m:.4f}" for c, m in zip(counts, means))
        + f"; spread {gap:.4f} (<=0.05), monotone per seed"
    )


# --- 6: dissipation-rate sweep --------------------------------------------------------


def test_criterion_06_gamma_sweep():
    rows, _ = sweep_gamma()  # raises on any step failure
    by_gamma: dict[float, dict[str, float]] = {}
    for row in rows:
        by_gamma.setdefault(row["gamma"], {})[row["algorithm"]] = row["deviation"]
    assert sorted(by_gamma) == [0.0, 0.25, 0.5, 0.75, 1.0]
    for gamma, devs in sorted(by_gamma.items()):
        # 1e-9 absorbs readout rounding in the gamma=0 tie
        assert devs["algo2"] <= devs["algo1"] + 1e-9, (gamma, devs)
    print(
        "criterion 6 PASS: completed gamma in [0,1]; algo2 <= algo1 at all "
        "gammas: "
        + "; ".join(
            f"g={g:g}: {d['algo2']:.4f} vs {d['algo1']:.4f}"
            for g, d in sorted(by_gamma.items())
        )
    )


# --- 7: conservation suite --------------------------------------------------------------


def test_criterion_07_conservation():
    rng = np.random.default_rng(np.random.Philox(key=20260816))
    worst_q, worst_norm, worst_trace = 0.0, 0.0, 0.0
    tau = 0.01
    basis_phys = PauliBasis.full(2)
    for k in range(100):
        h = random_pauli_sum(rng, 2, 4)
        jump = random_pauli_sum(rng, 2, 3, herm=False, unit_norm=True)
        model = LindbladModel(2, h, (jump,))

        # branch weight flow cancels on the complete index set
        w = rng.random(4)
        w /= w.sum()
        state = init_ansatz(
            [(format(i, "02b"), float(wi)) for i, wi in enumerate(w)], 2
        )
        state = unitary_step(state, h, 0.07)
        _, _, q_drift = drift_system(state, jump, tau, basis_phys)
        _, _, q_refill = jump_system(state, jump, tau, basis_phys)
        worst_q = max(worst_q, abs(float(np.sum(q_drift) + np.sum(q_refill))))

        # doubled-register step: rotations leave the norm alone
        rho0 = DensityMatrix.pure(StateVector(2, random_unit(rng, 4)))
        cfg = Algo1Config(
            tau=tau,
            n_steps=1,
            basis=PauliBasis.random(4, 16, seed=k),
            delta_reg=1e-6,
        )
        result = vectorized_step(init_vectorized(rho0), vectorize(model), cfg)
        worst_norm = max(worst_norm, abs(result.raw_norm - 1.0))

        # dense reference conserves the trace
        out = evolve_exact(model, rho0, 0.8)
        worst_trace = max(worst_trace, abs(out.trace().real - 1.0))

    assert worst_q < 1e-9, f"sum(q) up to {worst_q:.2e}"
    assert worst_norm < 1e-10, f"raw norm drift up to {worst_norm:.2e}"
    assert worst_trace < 1e-8, f"oracle trace drift up to {worst_trace:.2e}"
    print(
        f"criterion 7 PASS over 100 instances: |sum q| <= {worst_q:.1e} "
        f"(<1e-9), |<v|v>-1| <= {worst_norm:.1e} (<1e-10), oracle "
        f"|Tr-1| <= {worst_trace:.1e} (<1e-8)"
    )


# --- 8: first-order convergence ------------------------------------------------------------


def test_criterion_08_convergence_order(tls_runs):
    ratios = {}
    for algorithm in ("algo1", "algo2"):
        coarse = _dev(tls_runs, algorithm, "excited_pop", tau=TAU)
        fine = _dev(tls_runs, algorithm, "excited_pop", tau=TAU / 2)
        ratios[algorithm] = coarse / fine
        assert 1.5 <= ratios[algorithm] <= 3.0, (
            f"{algorithm}: {coarse:.5f}/{fine:.5f} = {ratios[algorithm]:.2f}"
        )
    print(
        "criterion 8 PASS: halving tau shrinks the error by "
        f"algo1 {ratios['algo1']:.2f}x, algo2 {ratios['algo2']:.2f}x "
        "(within [1.5, 3.0])"
    )


# --- 9: assembled systems vs dense finite differences ----------------------------------------


def _qite_fd_gaps(rng, n, tau):
    dim = 1 << n
    amps = random_unit(rng, dim)
    psi = StateVector(n, amps)
    h = random_pauli_sum(rng, n, 4, herm=True, unit_norm=True)
    basis = PauliBasis.random(n, min(6, 4**n - 1), seed=int(rng.integers(1 << 30)))
    s_mat, b, c = build_system(psi, h, tau, basis)  # c = 1 - 2 tau <h>

    mats = [label_matrix(s.label) for s in basis]
    h_mat = sum_matrix(h)
    tangents = [
        (dense_expm(-1j * tau * m) @ amps - dense_expm(1j * tau * m) @ amps)
        / (2.0 * tau)
        for m in mats
    ]
    s_fd = np.array([[np.vdot(vi, vj).real for vj in tangents] for vi in tangents])
    dpsi = (dense_expm(-tau * h_mat) @ amps - dense_expm(tau * h_mat) @ amps) / (
        2.0 * tau
    )
    c_fd = float(np.linalg.norm(dense_expm(-tau * h_mat) @ amps) ** 2)
    b_fd = np.array(
        [-np.vdot(m @ amps, dpsi).imag for m in mats]
    ) / np.sqrt(c_fd)
    # b carries 1 / sqrt(c); rescale it to the exact norm before comparing
    return (
        float(np.max(np.abs(s_mat - s_fd))),
        float(np.max(np.abs(b * np.sqrt(c / c_fd) - b_fd))),
        abs(c - c_fd),
    )


def _ansatz_fd_gaps(rng, n, tau):
    dim = 1 << n
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(z)
    w = rng.random(dim)
    w /= w.sum()
    state = AnsatzState(
        n,
        tuple(range(dim)),
        w,
        unitary.T,  # row x is branch x
    )
    jump = random_pauli_sum(rng, n, 3, herm=False, unit_norm=True)
    basis = PauliBasis.random(n, min(6, 4**n - 1), seed=int(rng.integers(1 << 30)))

    s_dr, b_dr, q_dr = drift_system(state, jump, tau, basis)
    _, b_ju, q_ju = jump_system(state, jump, tau, basis)

    rho = sum(p * np.outer(f, f.conj()) for p, f in zip(state.p, state.phi))
    mats = [label_matrix(s.label) for s in basis]
    g_fd = [
        (
            dense_expm(1j * tau * m) @ rho @ dense_expm(-1j * tau * m)
            - dense_expm(-1j * tau * m) @ rho @ dense_expm(1j * tau * m)
        )
        / (2.0 * tau)
        for m in mats
    ]
    s_fd = np.array([[np.trace(gj @ gk).real for gk in g_fd] for gj in g_fd])

    l_mat = sum_matrix(jump)
    m_mat = l_mat.conj().T @ l_mat
    decay = dense_expm(-0.5 * tau * m_mat)
    grow = dense_expm(0.5 * tau * m_mat)
    t_drift = (decay @ rho @ decay - grow @ rho @ grow) / (2.0 * tau)
    b_dr_fd = np.array([tau * np.trace(gj @ t_drift).real for gj in g_fd])
    q_dr_fd = np.array(
        [
            p * (np.vdot(f, dense_expm(-tau * m_mat) @ f).real - 1.0)
            for p, f in zip(state.p, state.phi)
        ]
    )

    refill = np.kron(l_mat.conj(), l_mat)
    v_rho = vec_col(rho)
    rho_plus = unvec_col(dense_expm(tau * refill) @ v_rho)
    rho_minus = unvec_col(dense_expm(-tau * refill) @ v_rho)
    t_refill = (rho_plus - rho_minus) / (2.0 * tau)
    b_ju_fd = np.array([tau * np.trace(gj @ t_refill).real for gj in g_fd])
    q_ju_fd = np.array(
        [
            np.vdot(f, rho_plus @ f).real - p
            for p, f in zip(state.p, state.phi)
        ]
    )
    return (
        float(np.max(np.abs(s_dr - s_fd))),
        float(np.max(np.abs(b_dr - b_dr_fd))),
        float(np.max(np.abs(q_dr - q_dr_fd))),
        float(np.max(np.abs(b_ju - b_ju_fd))),
        float(np.max(np.abs(q_ju - q_ju_fd))),
    )


def test_criterion_09_finite_difference_equivalence():
    tau = 1e-3
    bound = 10.0 * tau**2
    rng = np.random.default_rng(np.random.Philox(key=11))
    worst = dict.fromkeys(
        ("qite_S", "qite_b", "qite_c", "drift_S", "drift_b", "drift_q",
         "refill_b", "refill_q"),
        0.0,
    )
    for k in range(20):
        n = 1 + k % 2
        gs, gb, gc = _qite_fd_gaps(rng, n, tau)
        worst["qite_S"] = max(worst["qite_S"], gs)
        worst["qite_b"] = max(worst["qite_b"], gb)
        worst["qite_c"] = max(worst["qite_c"], gc)
        ds, db, dq, jb, jq = _ansatz_fd_gaps(rng, n, tau)
        worst["drift_S"] = max(worst["drift_S"], ds)
        worst["drift_b"] = max(worst["drift_b"], db)
        worst["drift_q"] = max(worst["drift_q"], dq)
        worst["refill_b"] = max(worst["refill_b"], jb)
        worst["refill_q"] = max(worst["refill_q"], jq)
    for name, gap in worst.items():
        assert gap <= bound, f"{name} residual {gap:.2e} > {bound:.0e}"
    print(
        "criterion 9 PASS at tau=1e-3: worst residuals "
        + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        + f" (all <= {bound:.0e})"
    )


# --- 10: shot-noise statistics -------------------------------------------------------------------


def test_criterion_10_shot_noise():
    shots = 8192
    rng = np.random.default_rng(np.random.Philox(key=7))
    ratios = []
    for case in range(4):
        n = 1 + case % 2
        while True:
            psi = StateVector(n, random_unit(rng, 1 << n))
            op = PauliSum(n, ((1.0, PauliString.from_label(random_label(rng, n))),))
            mean = expectation(psi, op, EXACT).real
            if abs(mean) < 0.9:
                break
        predicted = np.sqrt(1.0 - mean**2) / np.sqrt(shots)
        estimates = [
            expectation(psi, op, ShotModel(shots, seed)).real
            for seed in range(200)
        ]
        ratio = float(np.std(estimates, ddof=1) / predicted)
        ratios.append(ratio)
        assert 0.5 <= ratio <= 2.0, f"case {case}: ratio {ratio:.3f}"
    print(
        "criterion 10 PASS: sampled-std over binomial prediction "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " (within [0.5, 2.0])"
    )
