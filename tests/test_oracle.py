"""Brute-force Lindblad integration on a truncated Fock space."""

import ast
import gc
import logging
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec
from scipy.special import pdtrc

from dispersive_jcm import acceptance, analytic, lie, oracle
from dispersive_jcm.model import AtomicAmplitudes, ModelParams, make_params

P111 = ModelParams(1.0, 1.0, 1.0)
BALANCED = AtomicAmplitudes.symmetric()


# ---------------------------------------------------------------- construction

def test_fock_truncation_frozen_values():
    assert oracle.fock_truncation(P111) == 20
    assert oracle.fock_truncation(ModelParams(1.0, 0.2, 0.2)) == 20
    assert oracle.fock_truncation(ModelParams(1.0, 5.0, 5.0)) == 20
    assert oracle.fock_truncation(ModelParams(1.0, 0.2, 0.1)) == 14
    assert oracle.fock_truncation(ModelParams(1.0, 0.2, 0.4)) == 33


@pytest.mark.parametrize("abar", [0.0, 1e-7, 0.3, 1.0, 2.0, 2.7, 4.0, 7.5, 12.0, 20.0])
def test_fock_truncation_is_the_smallest_meeting_the_poisson_bound(abar):
    n = oracle.fock_truncation(ModelParams(1.0, 1.0, abar))
    mean = abar * abar

    def tail(k):  # P(Poisson(mean) > k)
        return 1.0 if k < 0 else float(pdtrc(k, mean))

    assert tail(n - 1) <= 1e-18 < tail(n - 2)
    if abar == 0.0:
        assert n == 1


def _pdtrc_truncation(abar):
    """The truncation rule with scipy's Poisson tail, bisected from k = -1."""
    mean = abar * abar
    fails, holds = -1, math.ceil(mean + 42.0 + math.sqrt(84.0 * mean))
    while holds - fails > 1:
        mid = (fails + holds) // 2
        if pdtrc(float(mid), mean) <= 1e-18:
            holds = mid
        else:
            fails = mid
    return holds + 1


@settings(max_examples=300, deadline=None)
@given(abar=st.one_of(st.floats(0.0, 40.0), st.floats(0.0, 1.0)))
def test_fock_truncation_follows_the_pdtrc_rule(abar):
    # the refusal above N = 814 names the N the rule gives
    expected = _pdtrc_truncation(abar)
    params = ModelParams(1.0, 1.0, abar)
    try:
        n = oracle.fock_truncation(params)
    except oracle.OracleError as exc:
        assert f"N = {expected} " in str(exc)
    else:
        assert n == expected


def test_coherent_state_vector_is_normalized_eigenvector():
    alpha = 0.7 - 1.1j
    n = 50
    v = oracle.coherent_state_vector(alpha, n)
    assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-12)
    a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
    # lowering-operator eigenrelation holds away from the truncation edge
    assert np.allclose((a @ v)[:40], (alpha * v)[:40], atol=1e-12)


def test_coherent_state_vector_at_zero_is_vacuum():
    v = oracle.coherent_state_vector(0.0, 8)
    assert v[0] == 1.0 and np.all(v[1:] == 0.0)


def _lowering(n):
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def _dense_displacement(alpha, n):
    """Brute force: the dense exponential of the truncated generator."""
    a = _lowering(n)
    return scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)


@pytest.mark.parametrize("n", [2, 8, 24, 40])
@pytest.mark.parametrize("modulus", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_displacement_operator_is_the_truncated_exponential(modulus, n):
    for angle in (0.0, 0.9, 2.3, -1.6):
        alpha = modulus * np.exp(1j * angle)
        disp = oracle.displacement_operator(alpha, n)
        assert np.max(np.abs(disp - _dense_displacement(alpha, n))) <= 1e-13, alpha
        assert np.max(np.abs(disp @ disp.conj().T - np.eye(n))) <= 1e-13, alpha


def test_displacement_operator_on_one_level_is_one():
    assert np.array_equal(oracle.displacement_operator(1.3 - 0.4j, 1), [[1.0]])


@pytest.mark.parametrize("c", [0.0, 0.3, 1.0 + 1.0j, -2.5j, 2.5, 1.7 * np.exp(2.0j), -0.8 + 0.1j])
def test_ladder_exponential_is_the_finite_series(c):
    for n in (1, 2, 8, 40):
        a = _lowering(n)
        want = scipy.linalg.expm(c * a)
        got = oracle.ladder_exponential(c, n)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n
        want_dag = scipy.linalg.expm(c * a.conj().T)
        assert np.max(np.abs(got.T - want_dag)) <= 1e-14 * np.max(np.abs(want_dag)), n


def test_initial_state_is_a_valid_pure_product():
    rho0 = oracle.initial_state(P111, BALANCED)
    assert rho0.n_fock == 21  # truncation index 20 -> 21 levels
    assert rho0.time == 0.0
    rho0.validate()
    obs = oracle.observables(rho0)
    assert np.isclose(obs["purity"], 1.0, atol=1e-12)
    assert np.isclose(obs["nbar"], 1.0, atol=1e-12)  # |  -iF/k |^2 = 1
    assert np.isclose(obs["coherence_magnitude"], 0.5, atol=1e-12)


@pytest.mark.parametrize("n_fock", [0, 1, -3, 4.0, 2.5])
def test_initial_state_requires_an_integer_level_count_of_two_or_more(n_fock):
    with pytest.raises(ValueError, match="n_fock"):
        oracle.initial_state(P111, BALANCED, n_fock=n_fock)
    assert oracle.initial_state(P111, BALANCED, n_fock=np.int64(2)).n_fock == 2


def test_density_matrix_validate_rejects_defects():
    n = 2
    good = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    oracle.FockDensityMatrix(n, good).validate()
    with pytest.raises(ValueError):
        oracle.FockDensityMatrix(n, np.eye(6, dtype=complex) / 6).validate()  # shape
    bad_h = good.copy()
    bad_h[0, 1] = 1j
    with pytest.raises(ValueError):
        oracle.FockDensityMatrix(n, bad_h).validate()  # not Hermitian
    with pytest.raises(ValueError):
        oracle.FockDensityMatrix(n, np.diag([0.6, 0.6, 0.0, 0.0]).astype(complex)).validate()
    with pytest.raises(ValueError):
        oracle.FockDensityMatrix(n, np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)).validate()
    with pytest.raises(ValueError):
        # positive weight on the last Fock level: truncation inadequate
        oracle.FockDensityMatrix(n, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)).validate()


def test_integrator_config_rejects_nonpositive_tolerances():
    with pytest.raises(ValueError):
        oracle.IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        oracle.IntegratorConfig(abs_tol=-1e-9)


@pytest.mark.parametrize(
    "tolerances, message",
    [
        ({"rel_tol": math.inf}, "must be finite"),
        ({"rel_tol": math.nan}, "must be finite"),
        ({"abs_tol": math.inf}, "must be finite"),
        ({"abs_tol": math.nan}, "must be finite"),
        # below 100 eps the step-size rule asks for less than rounding error
        ({"rel_tol": 1e-30}, r"rel_tol must lie in \[2.22e-14, 1\)"),
        ({"rel_tol": 1.0}, r"rel_tol must lie in \[2.22e-14, 1\)"),
    ],
)
def test_integrator_config_rejects_absurd_tolerances(tolerances, message):
    with pytest.raises(ValueError, match=message):
        oracle.IntegratorConfig(**tolerances)


def test_integrator_config_admits_its_range_ends():
    oracle.IntegratorConfig(rel_tol=100.0 * np.finfo(float).eps)
    oracle.IntegratorConfig(rel_tol=0.999, abs_tol=1e300)


# ---------------------------------------------------------------- evolution

def test_evolve_matches_dense_closed_form():
    rho0 = oracle.initial_state(P111, BALANCED)
    final = oracle.evolve(P111, rho0, 0.6)
    assert final.time == 0.6
    ref = acceptance.dense_state(analytic.matrix_elements(P111, BALANCED, 0.6), final.n_fock)
    assert oracle.trace_distance(final.data, ref) < 1e-8


@pytest.mark.parametrize("k_over_omega, f_over_k", acceptance.PARAMETER_SETS)
def test_each_c1_set_matches_the_dense_closed_form_on_the_c1_grid(k_over_omega, f_over_k):
    # the truncation error in trace distance goes as the square root of the
    # Poisson tail weight: 0.7e-10 to 1.3e-10 at 1e-18, 1.2e-8 to 8.4e-8 at 1e-12
    params = make_params(k_over_omega, f_over_k)
    times = np.linspace(0.0, acceptance._TRACE_T_MAX, acceptance._TRACE_POINTS)
    rho0 = oracle.initial_state(params, BALANCED)
    worst = 0.0
    for t, mat in oracle.evolve_trajectory(params, rho0, times):
        ref = acceptance.dense_state(analytic.matrix_elements(params, BALANCED, t), rho0.n_fock)
        worst = max(worst, oracle.trace_distance(mat, ref))
    assert worst < 1e-8


@pytest.mark.parametrize(
    "params",
    [make_params(k, f) for k, f in acceptance.PARAMETER_SETS]
    + [ModelParams(1.0, 0.2, 0.3 * np.exp(2.1j))],
)
def test_coherent_amplitudes_stay_in_the_invariant_disc(params):
    # the disc |beta| <= |F|/kappa that fock_truncation sizes N for; the
    # start -iF/kappa lies on its rim
    radius = abs(params.drive) / params.kappa
    times = np.linspace(0.0, 30.0 / params.kappa, 20001)
    pair = analytic.coherent_pair(params, times)
    for beta in (pair.beta_e_prime, pair.beta_g_prime):
        assert np.max(np.abs(beta)) <= radius * (1.0 + 1e-12)
        assert abs(beta[0]) == pytest.approx(radius, rel=1e-15)


def test_closed_form_matches_the_oracle_at_seeded_draws_across_the_box():
    # ten fixed draws, not shrunk, since where a draw lands is the physics:
    # kappa/omega log-uniform in [0.03, 10], f/kappa in [0, 2.5], any drive
    # phase and any atomic superposition (cos th, sin th e^(i ph)), with 25
    # times up to min(4 pi, 10/kappa + 4 pi u)
    rng = np.random.default_rng(2026)
    failures = []
    for _ in range(10):
        kappa = math.exp(rng.uniform(math.log(0.03), math.log(10.0)))
        f_over_k, drive_phase, th, ph, u = rng.uniform(size=5) * (
            2.5, 2 * np.pi, np.pi / 2, 2 * np.pi, 1.0
        )
        params = ModelParams(1.0, kappa, f_over_k * kappa * np.exp(1j * drive_phase))
        amps = AtomicAmplitudes(math.cos(th), math.sin(th) * np.exp(1j * ph))
        times = np.linspace(0.0, min(4 * np.pi, 10.0 / kappa + 4 * np.pi * u), 25)
        rho0 = oracle.initial_state(params, amps)
        worst = max(
            oracle.trace_distance(
                mat, acceptance.dense_state(analytic.matrix_elements(params, amps, t), rho0.n_fock)
            )
            for t, mat in oracle.evolve_trajectory(params, rho0, times)
        )
        if not worst < 1e-8:
            failures.append(f"{params}, {amps}, t <= {times[-1]:.6g}: {worst:.3e}")
    assert not failures, "; ".join(failures)


def test_evolve_excited_atom_keeps_field_coherent():
    amps = AtomicAmplitudes(1.0, 0.0)
    rho0 = oracle.initial_state(P111, amps)
    final = oracle.evolve(P111, rho0, 1.5)
    ref = acceptance.dense_state(analytic.matrix_elements(P111, amps, 1.5), final.n_fock)
    assert oracle.trace_distance(final.data, ref) < 1e-8
    # reduced field is the conditioned coherent state
    fld = oracle.partial_trace_atom(final.data)
    u = analytic.coherent_pair(P111, 1.5).beta_e_prime
    vec = oracle.coherent_state_vector(u, final.n_fock)
    assert 1.0 - float(np.real(vec.conj() @ fld @ vec)) < 1e-6


def test_evolve_at_start_time_returns_copy():
    rho0 = oracle.initial_state(P111, BALANCED)
    same = oracle.evolve(P111, rho0, 0.0)
    assert same.data is not rho0.data
    assert np.array_equal(same.data, rho0.data)
    with pytest.raises(ValueError):
        oracle.evolve(P111, rho0, -1.0)


def test_trajectory_emits_requested_times_in_one_pass():
    rho0 = oracle.initial_state(P111, BALANCED)
    times = [0.0, 0.2, 0.4]
    out = list(oracle.evolve_trajectory(P111, rho0, times))
    assert [t for t, _ in out] == times
    assert np.array_equal(out[0][1], rho0.data)
    ref = acceptance.dense_state(analytic.matrix_elements(P111, BALANCED, 0.4), rho0.n_fock)
    assert oracle.trace_distance(out[-1][1], ref) < 1e-8


def test_each_finished_integration_logs_one_stats_record(caplog, monkeypatch):
    pattern = re.compile(
        r"integrated N=(\d+) over \[(\S+), (\S+)\]: (\d+) steps, (\d+) RHS "
        r"evaluations, (\d+) outputs, max edge population (\S+)$"
    )
    calls = []

    def counting(rows, cols, indptr, indices, data, y, out):
        calls.append(y.shape)
        csr_matvec(rows, cols, indptr, indices, data, y, out)

    # each generator built from here on calls the counting kernel
    monkeypatch.setattr(oracle, "_CSR_MATVEC", counting)
    params = make_params(0.2, 1.0)
    rho0 = oracle.initial_state(params, BALANCED)
    times = np.linspace(0.0, 2.0, 9)
    with caplog.at_level(logging.DEBUG, logger=oracle.__name__):
        oracle.series(params, times, np.zeros(9, complex), np.zeros(9, complex))
        oracle.evolve(params, rho0, 1.0)
        list(oracle.evolve_trajectory(params, rho0, [0.0]))  # nothing to integrate
    stats = [pattern.match(r.getMessage()) for r in caplog.records]
    stats = [m for m in stats if m is not None]
    assert len(stats) == 2  # one per integration
    assert set(calls) == {(3 * rho0.n_fock**2,)}
    assert len(calls) == sum(int(m.group(5)) for m in stats)
    # the point at t = 0 is the initial state, not an output of the propagator
    for m, t_end, emitted in zip(stats, (2.0, 1.0), (times.size - 1, 1)):
        assert int(m.group(1)) == rho0.n_fock - 1
        assert (float(m.group(2)), float(m.group(3))) == (0.0, t_end)
        steps, evaluations, outputs = (int(m.group(i)) for i in range(4, 7))
        # sixteen kernel calls per step, and no step is ever rejected
        assert steps >= 1 and evaluations == 16 * steps
        assert outputs == emitted
        assert 0.0 <= float(m.group(7)) <= 1e-8


def _frozen_propagate(liouvillian, y0, t0, times, config):
    """The engine's steps with each term computed as L @ y, then the real product with 1/k.

    A frozen copy of the step loop from before the compiled kernel wrote
    the terms in place, with its chunked evaluation and without the edge
    guard; the engine must give the same bits.
    """
    m = oracle._TAYLOR_DEGREE
    times = np.asarray(times, dtype=float)
    out = [y0.copy() for t in times if t <= t0]
    ptr = len(out)
    terms = np.empty((m + 1, y0.size), complex)
    terms[0] = y0
    rows = max(1, min(16, (1 << 22) // terms[0].nbytes, times.size - ptr + 1))
    values = np.empty((rows, 2 * y0.size))
    t, t_last = t0, float(times[-1])
    while ptr < times.size:
        for k in range(1, m + 1):
            np.multiply((liouvillian @ terms[k - 1]).view(float), 1.0 / k, out=terms[k].view(float))
        scale = config.rel_tol * np.abs(terms[0])
        scale += config.abs_tol
        ratio = np.abs(terms[m - 1:])
        ratio /= scale
        ratio *= ratio
        last, final = np.sqrt(np.mean(ratio, axis=-1))
        rate = float(max(last ** (1.0 / (m - 1)), final ** (1.0 / m)))
        t_next = t_last if rate * (t_last - t) <= 1.0 else t + 1.0 / rate
        stop = int(np.searchsorted(times, t_next, side="right"))
        offsets = np.concatenate(([t_next - t], times[ptr:stop] - t))
        states = []
        for first in range(0, offsets.size, rows):
            chunk = offsets[first : first + rows]
            powers = np.power.outer(chunk, np.arange(m + 1, dtype=float))
            np.einsum("pk,kd->pd", powers, terms.view(float), out=values[: chunk.size])
            states.extend(row.view(complex).copy() for row in values[: chunk.size])
        out.extend(states[1:])
        terms[0] = states[0]
        ptr, t = stop, t_next
    return out


def _bits(states):
    return np.array([state.view(np.uint64) for state in states])


@pytest.mark.parametrize("k_over_omega, f_over_k", acceptance.PARAMETER_SETS)
def test_the_engine_gives_the_bits_of_the_frozen_step_loop(k_over_omega, f_over_k):
    params = make_params(k_over_omega, f_over_k)
    rho0 = oracle.initial_state(params, BALANCED)
    n = rho0.n_fock
    y0 = oracle._pack(rho0.data, n)
    # t = 0, times inside steps, a repeated time and a last step cut short
    times = [0.0, 0.004, 0.05, 0.05, 0.31, 0.6]
    config = oracle.IntegratorConfig()
    got = [
        y.copy()
        for _, y in oracle.propagate(
            oracle.build_generator(params, n), y0, 0.0, times, config, (n * n - 1,), "bits"
        )
    ]
    liouvillian = oracle._liouvillian(params, n, ("ee", "gg", "eg"))
    want = _frozen_propagate(liouvillian, y0, 0.0, times, config)
    assert np.array_equal(_bits(got), _bits(want))


def test_a_complex_drive_gives_the_bits_of_the_frozen_step_loop():
    params = ModelParams(1.0, 0.7, 0.2 - 0.15j)
    rho0 = oracle.initial_state(params, AtomicAmplitudes(0.6, 0.8j), n_fock=12)
    times = [0.0, 1e-4, 0.7, 0.7, 1.9]
    got = [mat for _, mat in oracle.evolve_trajectory(params, rho0, times)]
    liouvillian = oracle._liouvillian(params, 12, ("ee", "gg", "eg"))
    want = _frozen_propagate(
        liouvillian, oracle._pack(rho0.data, 12), 0.0, times, oracle.IntegratorConfig()
    )
    assert np.array_equal(_bits(oracle._pack(mat, 12) for mat in got), _bits(want))


def test_a_lie_block_flow_gives_the_bits_of_the_frozen_step_loop():
    dim = 40
    rho0 = 0.5 * lie._test_state(P111, dim)
    driven, free = lie._block_flows(P111, 1.0, rho0, "e", "g")
    for flow, drive in ((driven, P111.drive), (free, 0.0)):
        liouvillian = oracle.field_liouvillian(ModelParams(1.0, 1.0, drive), dim, "e", "g")
        (want,) = _frozen_propagate(liouvillian, lie._vec(rho0), 0.0, [1.0], lie._FLOW_CONFIG)
        assert np.array_equal(lie._vec(flow).view(np.uint64), want.view(np.uint64))


def test_the_compiled_product_refuses_what_its_kernel_cannot_read():
    good = oracle.field_liouvillian(P111, 5, "e", "g")
    mixed = good.copy()
    mixed.indptr = mixed.indptr.astype(np.int64)
    for bad in (good.tocsc(), good.astype(np.complex64), good.real.tocsr(), good.toarray(), mixed):
        with pytest.raises(ValueError, match="CSR matrix with complex128 data"):
            oracle.matvec_into(bad)
    matvec = oracle.matvec_into(good)
    y = np.ones(25, complex)
    with pytest.raises(ValueError, match=r"got \(24,\) into \(25,\)"):
        matvec(y[:24], np.zeros(25, complex))
    with pytest.raises(ValueError, match=r"got \(25,\) into \(26,\)"):
        matvec(y, np.zeros(26, complex))
    config = oracle.IntegratorConfig()
    for state in (np.ones(25), np.ones(25, np.complex64), np.ones((5, 5), complex)):
        with pytest.raises(ValueError, match="1-D complex128 state"):
            next(oracle.propagate(matvec, state, 0.0, [0.1], config, (24,), "bad"))
    # a state of the wrong length is refused at the first term, not read past its end
    with pytest.raises(ValueError, match=r"got \(16,\) into \(16,\)"):
        next(oracle.propagate(matvec, np.ones(16, complex), 0.0, [0.1], config, (15,), "bad"))


def test_a_span_over_the_work_budget_is_refused_after_one_step():
    params = make_params(1.0, 1.0)
    n = oracle.fock_truncation(params) + 1
    calls = []

    def counting(y, out):
        calls.append(1)
        generator(y, out)

    generator = oracle.build_generator(params, n)
    y0 = oracle._pack(oracle.initial_state(params, BALANCED).data, n)
    with pytest.raises(oracle.OracleError) as err:
        next(oracle.propagate(
            counting, y0, 0.0, [1e-3, 1e6 * np.pi], oracle.IntegratorConfig(), (n * n - 1,),
            f"N={n - 1}",
        ))
    # refused before the first time inside the first step is yielded
    assert len(calls) == oracle._TAYLOR_DEGREE
    assert re.fullmatch(
        r"N=20: about \S+e\+07 Taylor steps of 1323 entries predicted to reach "
        r"t=3\.14159e\+06 \(1 taken\), over the oracle work budget of 2e\+08 step-entries",
        str(err.value),
    )


def test_a_propagation_stops_once_its_steps_pass_the_work_budget(monkeypatch, caplog):
    # here the first step predicts 62 steps and the span takes 82
    params = ModelParams(1.0, 0.7, 0.2 - 0.15j)
    rho0 = oracle.initial_state(params, BALANCED, n_fock=12)
    with caplog.at_level(logging.DEBUG, logger=oracle.__name__):
        oracle.evolve(params, rho0, 20.0)
    assert " 82 steps, " in caplog.records[-2].getMessage()
    monkeypatch.setattr(oracle, "_WORK_BUDGET", 70 * 432)
    with pytest.raises(oracle.OracleError, match=r"^N=11: about 62\.3 Taylor steps .* \(71 taken\)"):
        oracle.evolve(params, rho0, 20.0)


def test_trajectory_validates_time_ordering():
    rho0 = oracle.initial_state(P111, BALANCED)
    with pytest.raises(ValueError):
        list(oracle.evolve_trajectory(P111, rho0, [-0.5, 1.0]))
    with pytest.raises(ValueError):
        list(oracle.evolve_trajectory(P111, rho0, [1.0, 0.5]))


def _apply(generator, y):
    """L y from a generator (y, out) -> out += L y, into a fresh zeroed array."""
    out = np.zeros_like(y)
    generator(y, out)
    return out


def test_stationary_dense_state_is_a_generator_fixed_point():
    n = 40
    stat = acceptance.dense_state(analytic.stationary_state(P111, BALANCED), n)
    gen = oracle.build_generator(P111, n)
    assert float(np.max(np.abs(_apply(gen, oracle._pack(stat, n))))) < 1e-10


def _dense_master_rhs(params, rho):
    """The joint master equation written out with dense 2(N+1)-square operators."""
    n = rho.shape[0] // 2
    a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
    num = a.conj().T @ a
    F = complex(params.drive)
    ham = params.omega * (
        np.kron(np.diag([1.0, 0.0]), num + np.eye(n)) - np.kron(np.diag([0.0, 1.0]), num)
    ) + np.kron(np.eye(2), F * a.conj().T + np.conj(F) * a)
    jump = np.kron(np.eye(2), a)
    jump_num = jump.conj().T @ jump
    return -1j * (ham @ rho - rho @ ham) + params.kappa * (
        2.0 * jump @ rho @ jump.conj().T - jump_num @ rho - rho @ jump_num
    )


def test_block_generator_matches_the_dense_master_equation():
    params = ModelParams(1.3, 0.7, 0.4 - 0.9j)
    n = 9
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    rho = m + m.conj().T
    gen = oracle.build_generator(params, n)
    packed = oracle._pack(rho, n)
    assert packed.shape == (3 * n * n,)
    assert np.array_equal(oracle._unpack(packed, n), rho)
    expected = _dense_master_rhs(params, rho)
    got = oracle._unpack(_apply(gen, packed), n)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_joint_matrix_places_each_block_and_the_adjoint_ge_block():
    rng = np.random.default_rng(11)
    ee, gg, eg = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    rho = oracle.joint_matrix(ee, gg, eg)
    blocks = oracle._blocks(rho)
    assert np.shares_memory(blocks, rho)
    for (x, y), block in {(0, 0): ee, (1, 1): gg, (0, 1): eg, (1, 0): eg.conj().T}.items():
        assert np.array_equal(blocks[x, :, y, :], block)


def test_initial_state_is_the_product_outer_product():
    amps = AtomicAmplitudes(0.6, 0.8j)
    field = oracle.coherent_state_vector(0.3 - 0.4j, 7)
    psi = np.concatenate([amps.c_e * field, amps.c_g * field])
    rho0 = oracle.initial_state(ModelParams(1.0, 1.0, 0.4 + 0.3j), amps, n_fock=7)
    assert np.max(np.abs(rho0.data - np.outer(psi, psi.conj()))) < 1e-16
    assert np.array_equal(rho0.data[7:, :7], rho0.data[:7, 7:].conj().T)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_time_is_refused_before_integrating(monkeypatch, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("integration started")

    rho0 = oracle.initial_state(P111, BALANCED, n_fock=6)
    monkeypatch.setattr(oracle, "build_generator", refuse)
    with pytest.raises(ValueError, match=f"time {bad} is not finite"):
        list(oracle.evolve_trajectory(P111, rho0, [0.5, bad]))
    with pytest.raises(ValueError, match=f"time {bad} is not finite"):
        oracle.evolve(P111, rho0, bad)


def test_emitted_matrices_have_ge_equal_to_eg_adjoint():
    params = ModelParams(1.0, 0.4, 0.3 + 0.2j)
    rho0 = oracle.initial_state(params, AtomicAmplitudes(0.6, 0.8j))
    n = rho0.n_fock
    out = list(oracle.evolve_trajectory(params, rho0, [0.0, 0.3, 0.3, 1.1]))
    assert len(out) == 4
    for _, mat in out:
        assert np.array_equal(mat[n:, :n], mat[:n, n:].conj().T)


def test_term_buffer_is_freed_without_a_collection():
    # the generator's frame holds the Taylor terms; with the collector off,
    # any reference cycle through it would keep them allocated
    rho0 = oracle.initial_state(P111, BALANCED)
    small = oracle.initial_state(P111, BALANCED, n_fock=6)
    terms = 16 * (oracle._TAYLOR_DEGREE + 1) * 3 * rho0.n_fock**2  # bytes of the buffer
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for _ in oracle.evolve_trajectory(P111, rho0, [0.1, 0.2]):
            pass
        assert tracemalloc.get_traced_memory()[0] - base < terms // 4
        trajectory = oracle.evolve_trajectory(P111, rho0, [0.1, 0.2])
        next(trajectory)
        assert tracemalloc.get_traced_memory()[0] - base >= terms
        trajectory.close()
        assert tracemalloc.get_traced_memory()[0] - base < terms // 4
        # too few Fock levels: the edge guard raises at the first step
        with pytest.raises(oracle.OracleError, match="edge Fock population"):
            list(oracle.evolve_trajectory(P111, small, [0.1]))
        assert tracemalloc.get_traced_memory()[0] - base < terms // 4
    finally:
        tracemalloc.stop()
        gc.enable()


def _block_liouvillian(params, n_fock):
    """The dense block Liouvillian on [vec ee, vec gg, vec eg], built here."""
    return scipy.sparse.block_diag(
        [oracle.field_liouvillian(params, n_fock, x, y) for x, y in ("ee", "gg", "eg")]
    ).toarray()


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(1.0, 0.2, 0.08),
        ModelParams(1.0, 0.7, 0.2 - 0.15j),  # a complex drive
        ModelParams(1.0, 5.0, 2.0),  # kappa = 5: damping-bound steps
    ],
)
def test_trajectory_matches_the_exponential_of_the_block_liouvillian(params):
    # |F|/kappa <= 0.4 keeps 12 levels within the edge guard and expm small
    rho0 = oracle.initial_state(params, AtomicAmplitudes(0.6, 0.8j), n_fock=12)
    n = rho0.n_fock
    liouvillian = _block_liouvillian(params, n)
    y0 = oracle._pack(rho0.data, n)
    # t = 0, two times well inside the first step, a repeated time, and the end
    times = [0.0, 1e-4, 2e-4, 0.7, 0.7, 1.9]
    out = list(oracle.evolve_trajectory(params, rho0, times))
    assert [t for t, _ in out] == times
    for t, mat in out:
        exact = scipy.linalg.expm(t * liouvillian) @ y0
        assert np.max(np.abs(oracle._pack(mat, n) - exact)) < 1e-10, t
    assert np.array_equal(out[3][1], out[4][1])


def _product_form_liouvillian(params, n_fock, left, right):
    """One block's Liouvillian as sums and products of the four ladder maps."""
    w, k, F = params.omega, params.kappa, complex(params.drive)
    a_left, a_left_dag, a_right, a_right_dag = oracle.ladder_maps(n_fock)
    eye = scipy.sparse.identity(n_fock * n_fock, dtype=complex, format="csr")
    number_left, number_right = a_left_dag @ a_left, a_right @ a_right_dag

    def hamiltonian(level, number, lower, lower_dag):
        drive = F * lower_dag + np.conj(F) * lower
        return (w * (number + eye) if level == "e" else -w * number) + drive

    h_left = hamiltonian(left, number_left, a_left, a_left_dag)
    h_right = hamiltonian(right, number_right, a_right, a_right_dag)
    damping = k * (2.0 * (a_left @ a_right_dag) - number_left - number_right)
    return -1j * (h_left - h_right) + damping


@pytest.mark.parametrize("n_fock", [15, 21, 34])
@pytest.mark.parametrize("params", [ModelParams(1.0, 0.2, 0.2), ModelParams(1.3, 0.7, 0.4 - 0.9j)])
def test_block_generator_is_the_block_diagonal_of_the_field_liouvillians(params, n_fock):
    blocks = [oracle.field_liouvillian(params, n_fock, x, y) for x, y in ("ee", "gg", "eg")]
    # each block is entry for entry the product form of the ladder maps
    for block, (x, y) in zip(blocks, ("ee", "gg", "eg")):
        reference = _product_form_liouvillian(params, n_fock, x, y)
        assert abs(block - reference).max() == 0.0
    rng = np.random.default_rng(n_fock)
    y = rng.normal(size=3 * n_fock**2) + 1j * rng.normal(size=3 * n_fock**2)
    joined = scipy.sparse.block_diag(blocks, format="csr")
    assert np.array_equal(_apply(oracle.build_generator(params, n_fock), y), joined @ y)


def _frozen_liouvillian(params, n_fock, blocks):
    """The block Liouvillian as the sparse algebra of the ladder maps built it.

    A frozen copy of ``oracle._liouvillian`` from before its CSR arrays
    were filled directly; the direct build must give the same arrays.
    """
    w, k, F = params.omega, params.kappa, complex(params.drive)
    a_left, a_left_dag, a_right, a_right_dag = oracle.ladder_maps(n_fock)
    drive = F * (a_left_dag - a_right_dag) + np.conj(F) * (a_left - a_right)
    shared = -1j * drive + k * (2.0 * (a_left @ a_right_dag))
    ladder = np.sqrt(np.arange(n_fock))
    number = ladder * ladder
    energy = {"e": w * (number + 1.0), "g": -w * number}
    damping = k * (-number[:, None] - number)
    diagonal = np.concatenate(
        [(damping - 1j * (energy[x][:, None] - energy[y])).ravel("F") for x, y in blocks]
    )
    return scipy.sparse.block_diag([shared] * len(blocks), format="csr") + scipy.sparse.diags(
        diagonal, format="csr"
    )


def _assert_same_csr(got, want):
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    assert got.indptr.dtype == want.indptr.dtype == got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


BLOCK_SETS = [("ee",), ("gg",), ("eg",), ("ge",), ("ee", "gg", "eg")]


@pytest.mark.parametrize("drive", [1.0, -1.0, 1j, -1j, 0.0, 0.4 - 0.9j])
def test_liouvillian_has_the_arrays_of_the_frozen_sparse_algebra(drive):
    params = ModelParams(1.3, 0.7, drive)
    for n_fock in (2, 3, 5, 15, 21, 34, 41):
        for blocks in BLOCK_SETS:
            _assert_same_csr(
                oracle._liouvillian(params, n_fock, blocks),
                _frozen_liouvillian(params, n_fock, blocks),
            )


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.05, 5.0),
    st.floats(0.1, 10.0),
    st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False),
    st.integers(2, 12),
    st.sampled_from(BLOCK_SETS),
)
def test_liouvillian_matches_the_frozen_sparse_algebra_across_the_box(
    kappa, omega, drive, n_fock, blocks
):
    params = ModelParams(omega, kappa, drive)
    _assert_same_csr(
        oracle._liouvillian(params, n_fock, blocks),
        _frozen_liouvillian(params, n_fock, blocks),
    )


def test_liouvillian_calls_no_sparse_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sparse algebra in the Liouvillian build")

    for name in ("kron", "block_diag", "diags", "identity"):
        monkeypatch.setattr(scipy.sparse, name, refuse)
    for name in ("_add_sparse", "_sub_sparse", "_matmul_sparse", "_mul_scalar", "_binopt"):
        monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, name, refuse)
    monkeypatch.setattr(oracle, "ladder_maps", refuse)
    params = ModelParams(1.0, 0.7, 0.4 - 0.9j)
    assert oracle._liouvillian(params, 6, ("ee", "gg", "eg")).nnz > 0
    assert oracle.field_liouvillian(params, 6, "e", "g").nnz > 0


def test_liouvillian_build_peaks_under_68_entries_per_level_pair():
    # the sparse algebra's build peaked at 68.0 complex entries per (N+1)^2
    # at N = 100; the direct build fills one padded array and compresses it
    n = 101
    params = ModelParams(1.0, 0.7, 0.4 - 0.9j)
    oracle._liouvillian(params, 5, ("ee", "gg", "eg"))  # scipy's lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        liouvillian = oracle._liouvillian(params, n, ("ee", "gg", "eg"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert liouvillian.nnz > 17 * n * n
    assert peak <= 68 * 16 * n * n, peak / (16 * n * n)


def test_a_step_holding_more_times_than_a_chunk_yields_each_in_order(monkeypatch, caplog):
    params = ModelParams(1.0, 0.7, 0.2 - 0.15j)
    # 41 times inside the first step; 0.01 thrice, across a chunk boundary
    times = np.sort(np.concatenate([np.linspace(1e-3, 0.04, 37), [0.01, 0.01, 0.01, 0.04]]))
    rho0 = oracle.initial_state(params, AtomicAmplitudes(0.6, 0.8j), n_fock=8)
    n = rho0.n_fock
    monkeypatch.setattr(oracle, "_STACK_BYTES", 3 * 16 * 3 * n * n)  # three states a chunk
    with caplog.at_level(logging.DEBUG, logger=oracle.__name__):
        out = list(oracle.evolve_trajectory(params, rho0, times))
    assert " 1 steps, " in caplog.records[-1].getMessage()
    assert [t for t, _ in out] == list(times)
    liouvillian = _block_liouvillian(params, n)
    y0 = oracle._pack(rho0.data, n)
    for t, mat in out:
        exact = scipy.linalg.expm(t * liouvillian) @ y0
        assert np.max(np.abs(oracle._pack(mat, n) - exact)) < 1e-10, t
    for first, second in zip(out, out[1:]):
        if first[0] == second[0]:
            assert np.array_equal(first[1], second[1])


def test_the_evaluation_buffer_does_not_grow_with_the_times_in_a_step(monkeypatch):
    params = ModelParams(1.0, 0.7, 0.2 - 0.15j)
    times = np.linspace(1e-3, 0.04, 41)
    rho0 = oracle.initial_state(params, AtomicAmplitudes(0.6, 0.8j), n_fock=30)
    packed = 16 * 3 * rho0.n_fock**2  # bytes of one packed state
    monkeypatch.setattr(oracle, "_STACK_BYTES", 3 * packed)
    build = oracle.build_generator
    memory = {}

    def marking(params, n_fock):
        gen = build(params, n_fock)
        memory["built"] = tracemalloc.get_traced_memory()[0]

        def marked(y, out):
            if "first call" not in memory:
                memory["first call"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            gen(y, out)

        return marked

    monkeypatch.setattr(oracle, "build_generator", marking)
    gc.collect()
    tracemalloc.start()
    try:
        for _ in oracle.evolve_trajectory(params, rho0, times):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    terms = (oracle._TAYLOR_DEGREE + 1) * packed
    # before the first step: the terms, one evaluation chunk and the step end
    buffer = memory["first call"] - memory["built"] - terms
    assert 3 * packed <= buffer <= oracle._STACK_BYTES + packed + packed // 8
    # after it, only the step's temporaries (step-size norms) and the
    # emitted matrices in flight, not one state per time: each term is
    # written into its row of the buffer
    assert peak - memory["first call"] < 5 * packed


UNAFFORDABLE = make_params(0.2, 40.0)  # fock_truncation would be N = 1964


def test_unaffordable_truncation_is_refused_before_allocating():
    with pytest.raises(oracle.OracleError, match="budget"):
        oracle.fock_truncation(UNAFFORDABLE)
    with pytest.raises(oracle.OracleError, match="budget"):
        oracle.initial_state(P111, BALANCED, n_fock=1965)
    with pytest.raises(oracle.OracleError, match="budget"):
        oracle.fock_truncation(ModelParams(1.0, 1e-5, 1e100))  # N is about 4e210
    amplitudes = np.zeros(200, complex)
    tracemalloc.start()
    try:
        with pytest.raises(oracle.OracleError, match="N = 1964"):
            oracle.series(UNAFFORDABLE, np.linspace(0.0, 4.0 * np.pi, 200), amplitudes, amplitudes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the limit stays far above the largest standard truncation, N = 33
    assert oracle.initial_state(ModelParams(1.0, 0.2, 0.4), BALANCED).n_fock == 34
    oracle._check_affordable(501)


# ---------------------------------------------------------------- measurement

def test_partial_traces_of_the_initial_product_state():
    rho0 = oracle.initial_state(P111, BALANCED)
    atom = oracle.partial_trace_field(rho0)
    assert np.allclose(atom, 0.5 * np.ones((2, 2)), atol=1e-12)
    fld = oracle.partial_trace_atom(rho0)
    v = oracle.coherent_state_vector(-1j, rho0.n_fock)
    assert np.allclose(fld, np.outer(v, v.conj()), atol=1e-12)
    assert np.isclose(np.trace(fld).real, 1.0, atol=1e-12)


def test_trace_distance_of_orthogonal_pure_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert np.isclose(oracle.trace_distance(a, b), 1.0, atol=1e-14)
    assert oracle.trace_distance(a, a) == 0.0


def test_embedding_flags_the_degenerate_start():
    rho0 = oracle.initial_state(P111, BALANCED)
    pair = analytic.coherent_pair(P111, 0.0)
    emb = oracle.embed_two_qubit(rho0, pair.beta_e_prime, pair.beta_g_prime)
    assert emb.degenerate
    assert abs(emb.leakage) < 1e-10
    assert np.isclose(np.trace(emb.matrix).real, 1.0, atol=1e-12)


@pytest.mark.parametrize("f_over_k", [0.5, 1.0, 2.0])
def test_degenerate_direction_is_the_displaced_first_excited_state(f_over_k):
    # every amplitude of the dynamics stays in the disc |u| <= |F|/kappa, for
    # which the truncation is sized
    radii = np.array([0.0, 0.1, 0.25, 0.5, 1.0, 2.0])
    radii = radii[radii <= f_over_k]
    u = (radii[:, None] * np.exp(1j * np.array([0.0, 0.9, 2.3, -1.6]))).ravel()

    def displaced(n):
        f1 = oracle.coherent_state_vector(u, n)
        return f1, oracle._displaced_first_excited(f1, u)

    n = oracle.fock_truncation(make_params(0.2, f_over_k)) + 1
    f1, f2 = displaced(n)
    for i, alpha in enumerate(u):
        # the dense exponential on eight more levels, restricted: on n levels
        # its own top entries are off by 9e-11 to 7e-10 at these truncations
        reference = _dense_displacement(alpha, n + 8)[:n, 1]
        assert np.max(np.abs(f2[i] - reference)) <= 1e-12, alpha
        assert abs(np.vdot(f1[i], f2[i])) <= 1e-14, alpha
        assert abs(np.linalg.norm(f2[i]) - 1.0) <= 1e-14, alpha
    # at a truncation sized for twice the disc radius the dense exponential
    # on its own levels is exact to 1e-12
    dense_levels = {1.0: 27, 2.0: 53}.get(f_over_k)
    if dense_levels is not None:
        _, g2 = displaced(dense_levels)
        for i, alpha in enumerate(u):
            reference = _dense_displacement(alpha, dense_levels)[:, 1]
            assert np.max(np.abs(g2[i] - reference)) <= 1e-12, alpha


def test_oracle_measurements_call_no_dense_matrix_exponential(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called on the oracle path")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    params = make_params(0.2, 1.0)
    times = np.linspace(0.0, 4.0 * np.pi, 41)
    pair = analytic.coherent_pair(params, times)
    got = oracle.series(params, times, pair.beta_e_prime, pair.beta_g_prime)
    assert got["concurrence"][0] == 0.0  # the degenerate start
    # the disentanglement roots of c4, where the embedding degenerates too
    roots = [c.t_c for c in analytic.critical_instants(params, 4.0 * np.pi)
             if c.kind == "disentangle"]
    rho0 = oracle.initial_state(params, BALANCED)
    flags = []
    for t, mat in oracle.evolve_trajectory(params, rho0, roots):
        pair = analytic.coherent_pair(params, t)
        emb = oracle.embed_two_qubit(mat, pair.beta_e_prime, pair.beta_g_prime)
        flags.append(emb.degenerate)
        assert oracle.wootters_concurrence(emb.matrix) <= 1e-4
    assert len(flags) == 2 and all(flags)


def test_embedded_concurrence_matches_closed_form():
    t = 0.6
    rho0 = oracle.initial_state(P111, BALANCED)
    final = oracle.evolve(P111, rho0, t)
    pair = analytic.coherent_pair(P111, t)
    emb = oracle.embed_two_qubit(final, pair.beta_e_prime, pair.beta_g_prime)
    assert not emb.degenerate
    assert abs(emb.leakage) < 1e-6
    c_num = oracle.wootters_concurrence(emb.matrix)
    assert np.isclose(c_num, analytic.concurrence(P111, t), atol=1e-6)


def test_wootters_concurrence_frozen_cases():
    bell = 0.5 * np.array(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], complex
    )
    assert np.isclose(oracle.wootters_concurrence(bell), 1.0, atol=1e-12)
    assert oracle.wootters_concurrence(np.diag([1.0, 0, 0, 0]).astype(complex)) == 0.0
    p = 0.8
    werner = p * bell + (1 - p) * np.eye(4) / 4
    # max(0, (3p - 1)/2) for this family
    assert np.isclose(oracle.wootters_concurrence(werner), 0.7, atol=1e-12)


def test_wootters_concurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle.wootters_concurrence(np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError):
        oracle.wootters_concurrence(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_observables_track_the_evolved_state():
    t = 0.6
    rho0 = oracle.initial_state(P111, BALANCED)
    final = oracle.evolve(P111, rho0, t)
    obs = oracle.observables(final)
    cols = analytic.observables(P111, t)
    assert np.isclose(obs["linear_entropy"], cols["zeta_global"], atol=1e-8)
    assert np.isclose(obs["nbar"], cols["nbar_analytic"], atol=1e-8)
    assert np.isclose(2.0 * obs["coherence_magnitude"], np.exp(cols["re_phi"]), atol=1e-8)


def test_stacked_embedding_and_concurrence_equal_single_calls():
    params = make_params(0.2, 1.0)
    times = np.array([0.0, 0.4, 1.3, 2.9])
    rho0 = oracle.initial_state(params, BALANCED)
    mats = np.stack([mat for _, mat in oracle.evolve_trajectory(params, rho0, times)])
    pair = analytic.coherent_pair(params, times)
    u, v = pair.beta_e_prime, pair.beta_g_prime
    stacked = oracle.embed_two_qubit(mats, u, v)
    conc = oracle.wootters_concurrence(stacked.matrix)
    assert stacked.matrix.shape == (4, 4, 4) and conc.shape == (4,)
    assert stacked.degenerate.tolist() == [True, False, False, False]  # t = 0 only
    for i in range(times.size):
        single = oracle.embed_two_qubit(mats[i], complex(u[i]), complex(v[i]))
        assert type(single.leakage) is float and type(single.degenerate) is bool
        assert single.degenerate == stacked.degenerate[i]
        assert np.max(np.abs(stacked.matrix[i] - single.matrix)) <= 1e-15
        assert abs(stacked.leakage[i] - single.leakage) <= 1e-15
        c = oracle.wootters_concurrence(single.matrix)
        assert type(c) is float
        assert abs(conc[i] - c) <= 1e-12


def test_stacked_concurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle.wootters_concurrence(np.stack([np.eye(3, dtype=complex) / 3] * 2))
    good = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        oracle.wootters_concurrence(np.stack([good, bad]))


def _dense_columns(mat, beta_e_prime, beta_g_prime):
    """One point's series columns from the full joint matrix, extracted one by one."""
    n = mat.shape[0] // 2
    blocks = mat.reshape(2, n, 2, n)
    atom = np.einsum("ikjk->ij", blocks)
    fld = np.einsum("kikj->ij", blocks)

    def purity(m):
        return float(np.real(np.einsum("ij,ji->", m, m)))

    f1 = oracle.coherent_state_vector(beta_e_prime, n)
    f2 = oracle.coherent_state_vector(beta_g_prime, n)
    overlap = np.vdot(f1, f2)
    if abs(overlap) > 1.0 - 1e-14:
        f2 = _dense_displacement(beta_e_prime, n)[:, 1]
    else:
        f2 = (f2 - overlap * f1) / np.linalg.norm(f2 - overlap * f1)
    proj = np.kron(np.eye(2), np.stack([f1, f2], axis=1))
    rho4 = proj.conj().T @ mat @ proj
    rho4 = rho4 / np.trace(rho4).real
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    evals = np.linalg.eigvals(rho4 @ flip @ rho4.conj() @ flip)
    x = np.sqrt(np.sort(np.abs(evals.real))[::-1])
    coher = 2.0 * float(np.sum(np.linalg.svd(mat[:n, n:], compute_uv=False)))
    return {
        "zeta_global": 1.0 - purity(mat),
        "zeta_atom": 1.0 - purity(atom),
        "zeta_field": 1.0 - purity(fld),
        "corr_c": purity(mat - np.kron(atom, fld)),
        "concurrence": max(0.0, x[0] - x[1] - x[2] - x[3]),
        "re_phi": math.log(coher),
    }


@pytest.mark.parametrize("k_over_omega", [1.0, 5.0])
def test_series_matches_per_point_dense_extraction(k_over_omega):
    params = make_params(k_over_omega, 1.0)
    times = np.linspace(0.0, 4.0 * np.pi, 37)
    pair = analytic.coherent_pair(params, times)
    u, v = pair.beta_e_prime, pair.beta_g_prime
    got = oracle.series(params, times, u, v)
    rho0 = oracle.initial_state(params, BALANCED)
    for i, (_, mat) in enumerate(oracle.evolve_trajectory(params, rho0, times)):
        want = _dense_columns(mat, u[i], v[i])
        for key in ("zeta_global", "zeta_atom", "zeta_field", "corr_c", "re_phi"):
            assert abs(got[key][i] - want[key]) <= 1e-13, (key, i)
        # Wootters takes square roots of eigenvalues at the 1e-16 level
        assert abs(got["concurrence"][i] - want["concurrence"]) <= 1e-7, i


def test_observables_give_the_dense_subsystem_entropies_and_correlation():
    # 1 - tr rho_A^2, 1 - tr rho_F^2 and ||rho - rho_A x rho_F||^2 with the
    # product formed, for one matrix and for a stack
    params = make_params(0.2, 1.0)
    rho0 = oracle.initial_state(params, AtomicAmplitudes(0.6, 0.8j))
    times = np.array([0.0, 0.7, 1.9, 3.2])
    mats = np.stack([mat for _, mat in oracle.evolve_trajectory(params, rho0, times)])
    pair = analytic.coherent_pair(params, times)
    stacked = oracle.observables(mats)
    for i, mat in enumerate(mats):
        one = oracle.observables(mat)
        want = _dense_columns(mat, pair.beta_e_prime[i], pair.beta_g_prime[i])
        for key in ("zeta_atom", "zeta_field", "corr_c"):
            assert isinstance(one[key], float), key
            assert abs(one[key] - want[key]) <= 1e-13, (key, i)
            assert abs(stacked[key][i] - want[key]) <= 1e-13, (key, i)
    # the last state is entangled, so the check is not of zeros
    assert stacked["corr_c"][-1] > 1e-3 and stacked["zeta_atom"][-1] > 1e-3


def test_series_takes_one_amplitude_of_each_kind_per_time():
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="per time"):
        oracle.series(P111, times, 0.0, 0.0)
    with pytest.raises(ValueError, match="per time"):
        oracle.series(P111, times, np.zeros(5, complex), np.zeros(4, complex))


def test_oracle_imports_nothing_from_analytic():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not any("analytic" in name.split(".") for name in imported)


def test_only_ladder_maps_builds_a_kronecker_product():
    callers = []
    for path in Path(oracle.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                callers += [
                    f"{path.stem}.{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Attribute) and node.attr == "kron"
                ]
    assert callers == ["oracle.ladder_maps"]


@pytest.mark.parametrize("module", ["cli", "acceptance", "lie"])
def test_modules_read_no_private_analytic_name(module):
    path = Path(oracle.__file__).with_name(f"{module}.py")
    private = sorted(
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "analytic"
        and node.attr.startswith("_")
    )
    assert not private, f"{module}.py reads analytic.{', analytic.'.join(private)}"
