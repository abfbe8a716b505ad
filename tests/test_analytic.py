"""Closed-form solution: amplitudes, dephasing exponent, observables."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from dispersive_jcm import analytic, cli
from dispersive_jcm.model import AtomicAmplitudes, ModelParams, make_params

P111 = ModelParams(1.0, 1.0, 1.0)
P_SUB = ModelParams(1.0, 0.2, 0.2)
P_SUP = ModelParams(1.0, 5.0, 5.0)

params_st = st.builds(
    ModelParams,
    st.floats(0.05, 5.0),
    st.floats(0.05, 5.0),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
times_st = st.floats(0.0, 20.0)


def assemble_phi_from_parts(params, t, parts):
    """Reassemble phi directly from the five parts of ``analytic.phase_parts``.

    This is the term-by-term grouping: -iwt, z, the quadratic drive block
    in p and q, i*theta + gamma, and the residual drive block.  It is
    algebraically identical to PhaseParts.phi but numerically useful only
    for kappa*t up to roughly 15 (the p/q hyperbolics grow like
    exp(kappa*t) and cancel).
    """
    w, k, F = params.omega, params.kappa, complex(params.drive)
    F2 = abs(F) ** 2
    c = k + 1j * w
    z, p, q = parts.z, parts.p, parts.q
    pq = p + q
    resid = (F2 / k) * (
        2j * np.real(pq * np.exp(-k * t) * np.cos(w * t))
        - 2j * np.imag(pq * np.exp(-k * t) * np.sin(w * t))
        - 4 * np.exp(-c * t) * (np.imag(q) + 1j * np.real(p))
    )
    return complex(
        -1j * w * t
        + z
        + F2 * (p ** 2 - q ** 2 + 2 * p * q + abs(pq) ** 2)
        + 1j * parts.theta
        + parts.gamma
        + resid
    )


def driven_mode_state(params, t, alpha0):
    """Coherent amplitude of the bare driven mode (atom absent).

    alpha(t) = alpha0 exp(-kt) - i (F/k)(1 - exp(-kt)); the fixed point is
    the stationary amplitude -iF/k.
    """
    k, F = params.kappa, complex(params.drive)
    decay = np.exp(-k * t)
    return alpha0 * decay - 1j * (F / k) * (-np.expm1(-k * np.asarray(t, dtype=float)))


# ---------------------------------------------------------------- amplitudes

def test_conditioned_amplitudes_start_at_stationary_offset():
    pair = analytic.coherent_pair(P_SUB, 0.0)
    assert pair.beta_e == 0.0 and pair.beta_g == 0.0
    assert np.isclose(pair.beta_e_prime, -1j)  # -i F / k = -i 0.2/0.2
    assert pair.beta_e_prime == pair.beta_g_prime
    assert pair.dist_sq == 0.0


def test_conditioned_amplitudes_at_infinity():
    pair = analytic.coherent_pair(P111, 1e3)
    assert np.isclose(pair.beta_e_prime, -0.5 - 0.5j, atol=1e-12)
    assert np.isclose(pair.beta_g_prime, 0.5 - 0.5j, atol=1e-12)
    assert np.isclose(pair.dist_sq, 1.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(params_st, times_st)
def test_conditioned_amplitudes_have_equal_moduli(params, t):
    pair = analytic.coherent_pair(params, t)
    assert np.isclose(abs(pair.beta_e_prime), abs(pair.beta_g_prime), rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(params_st, times_st)
def test_distance_closed_form_matches_amplitude_separation(params, t):
    pair = analytic.coherent_pair(params, t)
    d2 = analytic.distance_sq_closed_form(params, t)
    assert np.isclose(d2, pair.dist_sq, rtol=1e-10, atol=1e-12)


def _direct_amplitudes(params, t):
    """The four conditioned amplitudes with each exponential written out where used."""
    w, k, F = params.omega, params.kappa, complex(params.drive)
    c = k + 1j * w
    cb = k - 1j * w
    be = F / (w - 1j * k) * (np.exp(-c * t) - 1.0)
    bg = -F / (w + 1j * k) * (np.exp(-cb * t) - 1.0)
    bep = be - 1j * (F / k) * np.exp(-c * t)
    bgp = bg - 1j * (F / k) * np.exp(-cb * t)
    return be, bg, bep, bgp


def _bits(x):
    return np.asarray(x, dtype=complex).reshape(-1).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(params_st, times_st, st.integers(1, 3000))
def test_amplitudes_equal_the_direct_expression_bit_for_bit(params, t_max, points):
    # each exponential is evaluated once and shared; the bits of the four
    # amplitudes must not move, nor those of the separation in the record
    for t in (t_max, np.linspace(0.0, t_max, points)):
        direct = _direct_amplitudes(params, t)
        pair = analytic.coherent_pair(params, t)
        got = (pair.beta_e, pair.beta_g, pair.beta_e_prime, pair.beta_g_prime)
        for amplitude, want in zip(got, direct):
            np.testing.assert_array_equal(_bits(amplitude), _bits(want))
        separation = np.abs(direct[2] - direct[3]) ** 2
        np.testing.assert_array_equal(_bits(pair.dist_sq), _bits(separation))


def test_distance_vanishes_without_coupling():
    # omega = 0: both conditioned amplitudes coincide for all t
    p = ModelParams(0.0, 0.7, 0.4 + 0.3j)
    for t in (0.3, 1.0, 4.0):
        assert analytic.distance_sq_closed_form(p, t) == 0.0
        assert analytic.coherent_pair(p, t).dist_sq == 0.0


@pytest.mark.parametrize("record", [analytic.coherent_pair, analytic.phase_parts])
@pytest.mark.parametrize("params", [P111, P_SUB, P_SUP])
def test_records_over_a_time_array_equal_the_scalar_calls(record, params):
    # numpy's vector and scalar loops may round the last bits differently
    ts = np.linspace(0.0, 12.0, 49)
    whole = record(params, ts)
    types = {"float": float, "complex": complex}  # the annotations are strings
    for i, t in enumerate(ts.tolist()):
        one = record(params, t)
        for field in dataclasses.fields(one):
            value = getattr(one, field.name)
            assert isinstance(value, np.generic), field.name
            assert isinstance(value, types[field.type]), field.name
            assert getattr(whole, field.name).shape == ts.shape, field.name
            assert np.isclose(
                getattr(whole, field.name)[i], value, rtol=1e-12, atol=1e-14
            ), (field.name, t)


# ---------------------------------------------------------------- dephasing exponent

def test_phi_frozen_probe_points():
    assert np.isclose(
        complex(analytic._phi(P111, 1.5)), -1.269398315443989 - 2.2201377029631164j, atol=1e-12
    )
    assert np.isclose(
        complex(analytic._phi(P_SUB, 2.0)), -0.785620567434142 - 1.9162872269022773j, atol=1e-12
    )
    assert np.isclose(
        complex(analytic._phi(P_SUP, 0.7)), -0.3184789116286838 - 1.6517018631726832j, atol=1e-12
    )


def test_phi_long_time_asymptote():
    # slope -1 and intercept -1/4 for (omega, kappa, |F|) = (1, 1, 1)
    assert np.isclose(float(np.real(analytic._phi(P111, 60.0))), -60.25, atol=1e-9)
    assert np.isclose(analytic.re_phi_longtime_rate(P111), -1.0)
    assert np.isclose(analytic.re_phi_longtime_rate(P_SUB), -4 * 0.2 ** 3 / 1.04 ** 2)


def test_phi_without_drive_is_pure_rotation():
    p = ModelParams(1.0, 1.0, 0.0)
    for t in (0.1, 1.0, 7.0, 42.0):
        assert complex(analytic._phi(p, t)) == -1j * t
        assert analytic.distance_sq_closed_form(p, t) == 0.0


def test_phi_vanishes_at_t_zero():
    for p in (P111, P_SUB, P_SUP):
        assert complex(analytic._phi(p, 0.0)) == 0.0


def test_phi_holds_a_few_arrays_of_t():
    # summing the five terms of phi in one expression holds about twenty
    # complex arrays of t's size at once; the sum into one array, eight
    t = np.linspace(0.0, 40.0, 100001)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        phi = analytic._phi(P_SUB, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert phi.shape == t.shape
    assert peak < 10 * 16 * t.size, f"_phi peak {peak / 2**20:.1f} MiB"


def _frozen_cexpm1(zv):
    zv = np.asarray(zv, dtype=complex)
    x, y = zv.real, zv.imag
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2) ** 2 + 1j * np.exp(x) * np.sin(y)


def _frozen_theta(params, t):
    w, k = params.omega, params.kappa
    F2 = abs(params.drive) ** 2
    w2 = k * k + w * w
    return F2 / (k * w2) * (
        np.exp(-2 * k * t) * (k * np.sin(2 * w * t) + w * np.cos(2 * w * t)) - w
    )


def _frozen_phi(params, t):
    """The dephasing exponent as written before its kernels were shared.

    Each exponential and trigonometric kernel is evaluated where it is
    used, so some are evaluated two or three times.  analytic._phi must
    return the same bits.
    """
    w, k, F = params.omega, params.kappa, complex(params.drive)
    t = np.asarray(t, dtype=float)
    c = k + 1j * w
    cb = k - 1j * w
    F2 = abs(F) ** 2
    w2 = k * k + w * w
    eta = _frozen_cexpm1(-c * t)
    s = eta / c
    secular = -(2j * w * F2 / c ** 2) * (t + eta * (2.0 - eta) / (2 * c))
    secular += F2 * ((s * np.conj(s)).real - s * s)
    del s
    phi = -1j * w * t
    phi += secular
    del secular
    phi += 1j * _frozen_theta(params, t)
    xi = _frozen_cexpm1(2 * (1j * w - k) * t)
    gamma = (2 * F2 / k ** 2) * np.exp(-2 * k * t) * np.sin(w * t) ** 2
    gamma += (F2 * w / (k ** 2 * w2)) * (w * xi.real + k * xi.imag)
    del xi
    phi += gamma
    del gamma
    e_cosh = 0.5 * eta ** 2
    e_cosh_b = 0.5 * np.exp(-2j * w * t) * np.conj(eta) ** 2
    pq = 1j * eta / c
    del eta
    resid = 2j * np.real(pq * np.exp(-k * t) * np.cos(w * t))
    resid -= 2j * np.imag(pq * np.exp(-k * t) * np.sin(w * t))
    del pq
    e_q = -(w / c ** 2) * e_cosh
    e_q -= -(w / cb ** 2) * e_cosh_b
    e_q /= 2j
    e_sinh = 0.5 * (1.0 - np.exp(-2 * c * t))
    e_p = (1j * k / c ** 2) * e_cosh
    e_p -= (1j / c) * e_sinh
    del e_cosh, e_sinh
    e_sinh_b = 0.5 * (np.exp(-2j * w * t) - np.exp(-2 * k * t))
    e_p_b = (-1j * k / cb ** 2) * e_cosh_b
    e_p_b += (1j / cb) * e_sinh_b
    del e_cosh_b, e_sinh_b
    e_p += e_p_b
    del e_p_b
    e_p /= 2
    resid -= 4 * (e_q + 1j * e_p)
    del e_q, e_p
    resid *= F2 / k
    phi += resid
    return phi


@settings(max_examples=150, deadline=None)
@given(
    st.builds(
        ModelParams,
        st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
        st.floats(0.01, 10.0),
        st.one_of(
            st.floats(0.0, 5.0),
            st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        ),
    ),
    st.floats(0.0, 80.0),
    st.sampled_from([None, 1, 2, 33, 4097, 40001]),
)
def test_phi_equals_the_frozen_expression_bit_for_bit(params, t_max, points):
    # every kernel is evaluated once and shared; the bits must not move.
    # At 40001 points the real and complex temporaries lie above numpy's
    # 256 KiB threshold for computing in place, at 4097 below it
    t = t_max if points is None else np.linspace(0.0, t_max, points)
    np.testing.assert_array_equal(_bits(analytic._phi(params, t)), _bits(_frozen_phi(params, t)))


def test_phase_parts_all_vanish_at_t_zero():
    parts = analytic.phase_parts(P111, 0.0)
    assert parts.z == 0.0 and parts.p == 0.0 and parts.q == 0.0
    assert parts.theta == 0.0 and parts.gamma == 0.0 and parts.phi == 0.0


def test_direct_assembly_matches_stable_phi_at_moderate_times():
    # the term-by-term grouping loses digits as kappa*t grows; it must
    # still agree tightly over the plotting window
    for p in (P111, P_SUB):
        for t in (0.5, 2.0, 5.0, 10.0):
            parts = analytic.phase_parts(p, t)
            direct = assemble_phi_from_parts(p, t, parts)
            assert abs(direct - parts.phi) < 1e-9


# ---------------------------------------------------------------- eigenvalues and entropies

def test_observables_are_the_trace_columns_and_views_read_them(monkeypatch):
    ts = np.linspace(0.0, 12.0, 97)
    cols = analytic.observables(P_SUB, ts)
    assert tuple(cols) == cli.TRACE_COLUMNS[1:]
    views = {
        "zeta_global": analytic.zeta_global,
        "zeta_atom": analytic.zeta_atom,
        "zeta_field": analytic.zeta_field,
        "corr_c": analytic.total_correlation,
        "concurrence": analytic.concurrence,
    }
    for name, view in views.items():
        assert np.array_equal(view(P_SUB, ts), cols[name]), name
    # one pass: the dephasing exponent and the amplitudes are each
    # evaluated once per call
    calls = []
    for name in ("_phi", "coherent_pair"):
        original = getattr(analytic, name)

        def counting(params, t, name=name, original=original):
            calls.append(name)
            return original(params, t)

        monkeypatch.setattr(analytic, name, counting)
    analytic.observables(P_SUB, ts)
    assert sorted(calls) == ["_phi", "coherent_pair"]


def test_nbar_reads_the_one_amplitude_kernel(monkeypatch):
    # nbar_analytic is |beta_e'|^2 of the coherent_pair call that gives D^2
    ts = np.linspace(0.0, 12.0, 97)
    before = analytic.observables(P_SUB, ts)
    original = analytic.coherent_pair
    shift = 0.25 + 0.5j

    def shifted(params, t):
        pair = original(params, t)
        return dataclasses.replace(pair, beta_e_prime=pair.beta_e_prime + shift)

    monkeypatch.setattr(analytic, "coherent_pair", shifted)
    after = analytic.observables(P_SUB, ts)
    want = np.abs(original(P_SUB, ts).beta_e_prime + shift) ** 2
    assert np.array_equal(after["nbar_analytic"], want)
    assert not np.array_equal(after["nbar_analytic"], before["nbar_analytic"])
    for key in before.keys() - {"nbar_analytic"}:
        assert np.array_equal(after[key], before[key]), key


def test_re_phi_column_is_an_owned_contiguous_float_array():
    ts = np.linspace(0.0, 12.0, 97)
    col = analytic.observables(P_SUB, ts)["re_phi"]
    assert col.dtype == np.float64 and col.flags.c_contiguous and col.flags.owndata
    assert col.base is None  # not a view that keeps the complex phi alive
    assert np.array_equal(col, analytic._phi(P_SUB, ts).real)


@settings(max_examples=200, deadline=None)
@given(params_st, times_st)
def test_global_eigenvalues_sum_to_one_and_give_entropy(params, t):
    obs = analytic.observables(params, t)
    lp, lm = obs["lambda_plus"], obs["lambda_minus"]
    assert np.isclose(lp + lm, 1.0, atol=1e-12)
    assert np.isclose(obs["zeta_global"], 2 * lp * lm, rtol=1e-10, atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(params_st, times_st)
def test_field_eigenvalue_product_matches_entropy(params, t):
    obs = analytic.observables(params, t)
    Lp, Lm = obs["Lambda_plus"], obs["Lambda_minus"]
    zf = obs["zeta_field"]
    d2 = analytic.coherent_pair(params, t).dist_sq
    assert np.isclose(Lp * Lm, 0.25 * (1 - math.exp(-d2)), atol=1e-13)
    assert np.isclose(zf, 2 * Lp * Lm, rtol=1e-10, atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(params_st, times_st)
def test_atom_eigenvalues_give_atom_entropy(params, t):
    # the reduced atom's eigenvalues are (1 +- exp(Re phi - D^2/2))/2
    obs = analytic.observables(params, t)
    x = math.exp(obs["re_phi"] - 0.5 * analytic.coherent_pair(params, t).dist_sq)
    ap, am = 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    assert np.isclose(obs["zeta_atom"], 2 * ap * am, rtol=1e-10, atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(params_st, times_st)
def test_concurrence_from_eigenvalue_identity(params, t):
    obs = analytic.observables(params, t)
    lp, lm = obs["lambda_plus"], obs["lambda_minus"]
    Lp, Lm = obs["Lambda_plus"], obs["Lambda_minus"]
    c = obs["concurrence"]
    # compare squares: the eigenvalue route computes 1 - exp(-D^2/2) by
    # direct subtraction, whose absolute rounding floor would be amplified
    # to sqrt(ulp) ~ 1e-8 by the square root for tiny D^2
    assert np.isclose(c ** 2, (lp - lm) ** 2 * 4 * Lp * Lm, rtol=1e-9, atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(params_st, times_st)
def test_observable_bounds(params, t):
    for f in (analytic.zeta_global, analytic.zeta_atom, analytic.zeta_field):
        val = float(f(params, t))
        assert -1e-15 <= val <= 0.5 + 1e-15
    assert -1e-15 <= float(analytic.concurrence(params, t)) <= 1.0 + 1e-15
    assert float(analytic.total_correlation(params, t)) >= -1e-15


def test_entropies_frozen_values_subcritical():
    obs = analytic.observables(P_SUB, 2.0)
    assert np.isclose(obs["zeta_global"], 0.39610643480060703, atol=1e-12)
    assert np.isclose(obs["zeta_atom"], 0.49348390624191907, atol=1e-12)
    assert np.isclose(obs["zeta_field"], 0.46864053252203247, atol=1e-12)
    assert np.isclose(obs["corr_c"], 0.32864403205357773, atol=1e-12)
    assert np.isclose(obs["concurrence"], 0.44131048354035735, atol=1e-12)
    assert np.isclose(obs["lambda_plus"], 0.7279183682806115, atol=1e-12)
    assert np.isclose(obs["Lambda_plus"], 0.6252187435609532, atol=1e-12)


def test_scalar_and_array_evaluation_agree():
    # numpy's vector and scalar ufunc loops may round differently in the
    # last bit, so the two routes agree to rounding, not bit for bit
    t = 3.3
    row = {name: col[1] for name, col in analytic.observables(P111, np.array([0.0, t, 7.0])).items()}
    for name, value in analytic.observables(P111, t).items():
        assert np.isclose(value, row[name], rtol=1e-14, atol=1e-15), name


def test_global_entropy_saturates_at_one_half():
    assert np.isclose(analytic.zeta_global(P111, 1e3), 0.5, atol=1e-15)


def test_field_entropy_saturation_frozen_value():
    # D^2(inf) = 1 at (1, 1, 1), so zeta_f -> (1 - 1/e)/2
    assert np.isclose(analytic.zeta_field(P111, 1e3), 0.31606027941427883, atol=1e-12)


def test_decoupled_atom_generates_no_entropy():
    p = ModelParams(0.0, 0.7, 0.4 + 0.3j)
    for t in (0.5, 2.0, 9.0):
        assert analytic.zeta_global(p, t) == 0.0
        assert analytic.zeta_atom(p, t) == 0.0
        assert analytic.zeta_field(p, t) == 0.0
        assert analytic.concurrence(p, t) == 0.0
        assert analytic.total_correlation(p, t) == 0.0


# ---------------------------------------------------------------- matrix elements and states

def test_matrix_elements_weights_for_balanced_superposition():
    amps = AtomicAmplitudes.symmetric()
    blocks = analytic.matrix_elements(P_SUB, amps, 2.0)
    assert np.isclose(blocks["rho_ee"].weight, 0.5, atol=1e-15)
    assert np.isclose(blocks["rho_gg"].weight, 0.5, atol=1e-15)
    phi = complex(analytic._phi(P_SUB, 2.0))
    assert np.isclose(blocks["rho_eg"].weight, 0.5 * np.exp(phi), atol=1e-15)
    pair = analytic.coherent_pair(P_SUB, 2.0)
    assert blocks["rho_ee"].ket_amplitude == pair.beta_e_prime
    assert blocks["rho_eg"].bra_amplitude == pair.beta_g_prime


def test_stationary_state_frozen_amplitudes():
    ss = analytic.stationary_state(P111, AtomicAmplitudes.symmetric())
    assert set(ss) == {"rho_ee", "rho_gg", "rho_eg"}
    ee, gg, eg = ss["rho_ee"], ss["rho_gg"], ss["rho_eg"]
    assert np.isclose(ee.ket_amplitude, -0.5 - 0.5j, atol=1e-15)
    assert ee.bra_amplitude == ee.ket_amplitude
    assert np.isclose(gg.ket_amplitude, 0.5 - 0.5j, atol=1e-15)
    assert gg.bra_amplitude == gg.ket_amplitude
    assert np.isclose(ee.weight, 0.5, atol=1e-15)
    assert np.isclose(gg.weight, 0.5, atol=1e-15)
    # classically correlated: no coherence between the atomic levels
    assert eg.weight == 0.0
    assert (eg.ket_amplitude, eg.bra_amplitude) == (ee.ket_amplitude, gg.ket_amplitude)


def test_mean_photon_number_reaches_stationary_value():
    assert np.isclose(analytic.nbar_infinity(P111), 0.5)
    nbar = analytic.observables(P111, np.array([1e3, 0.0]))["nbar_analytic"]
    assert np.isclose(nbar[0], 0.5, atol=1e-12)
    assert np.isclose(nbar[1], 1.0)  # |  -iF/k |^2


@pytest.mark.parametrize("params", [make_params(0.37, 1.7), ModelParams(1.3, 0.7, 0.4 - 0.9j)])
def test_mean_photon_number_is_the_excited_amplitude_of_the_pair_bit_for_bit(params):
    # observables reads beta_e' from its one coherent_pair call
    for t in (np.linspace(0.0, 40.0, 100001), 0.7):
        u = analytic.coherent_pair(params, t).beta_e_prime
        assert np.array_equal(analytic.observables(params, t)["nbar_analytic"], np.abs(u) ** 2)


def test_driven_mode_fixed_point():
    alpha0 = -1j  # -i F / k for (kappa, F) = (1, 1)
    for t in (0.0, 0.3, 2.0, 15.0):
        assert np.isclose(driven_mode_state(P111, t, alpha0), alpha0, atol=1e-15)
    # generic start decays toward the fixed point
    far = driven_mode_state(P111, 40.0, 3.0 + 2.0j)
    assert np.isclose(far, alpha0, atol=1e-12)


# ---------------------------------------------------------------- time scales and critical instants

def test_characteristic_times_frozen_values():
    tau_lt, tau_st, tau_atom = analytic.characteristic_times(P111)
    assert tau_lt == 1.0
    assert np.isclose(tau_st, 0.9085602964160698, atol=1e-15)
    assert tau_atom == 0.5
    assert np.isclose(tau_st ** 3, 0.75, atol=1e-15)


def test_characteristic_times_reject_degenerate_params():
    with pytest.raises(ValueError):
        analytic.characteristic_times(ModelParams(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        analytic.characteristic_times(ModelParams(1.0, 1.0, 0.0))


def test_critical_instants_subcritical_frozen_schedule():
    crit = analytic.critical_instants(P_SUB, 4 * math.pi)
    kinds = [(c.kind, c.classification, c.n_index) for c in crit]
    assert kinds == [
        ("extremum", "local_max", 0),
        ("disentangle", "local_min", -1),
        ("extremum", "local_max", 1),
        ("disentangle", "local_min", -1),
        ("extremum", "local_max", 2),
        ("extremum", "local_min", 3),
    ]
    roots = [c.t_c for c in crit if c.kind == "disentangle"]
    assert np.isclose(roots[0], 3.7688510523141416, atol=1e-9)
    assert np.isclose(roots[1], 5.80403609662885, atol=1e-9)
    # bracket really vanishes there
    for r in roots:
        assert abs(analytic._disentangle_bracket(P_SUB, r)) < 1e-11
    # extrema sit at odd quarter periods
    for c in crit:
        if c.kind == "extremum":
            assert np.isclose(c.t_c, (2 * c.n_index + 1) * math.pi / 2, atol=1e-15)
    # the n=3 instant lies past the transition time 5 ln 5
    assert crit[-1].t_c > math.log(5.0) / 0.2


def test_critical_instants_critical_damping_alternates():
    crit = analytic.critical_instants(P111, 4 * math.pi)
    assert [c.kind for c in crit] == ["extremum"] * 4
    assert [c.classification for c in crit] == [
        "local_max",
        "local_min",
        "local_max",
        "local_min",
    ]


def test_critical_instants_supercritical_has_no_roots():
    crit = analytic.critical_instants(ModelParams(1.0, 5.0, 1.0), 4 * math.pi)
    assert all(c.kind == "extremum" for c in crit)
    assert [c.classification for c in crit] == [
        "local_max",
        "local_min",
        "local_max",
        "local_min",
    ]


def test_critical_instants_without_drive_are_empty():
    no_drive = ModelParams(1.0, 0.2, 0.0)
    assert analytic.critical_instants(no_drive, 4 * math.pi) == []
    ts = np.linspace(0.0, 4 * math.pi, 101)
    assert np.all(analytic.zeta_field(no_drive, ts) == 0.0)


def test_critical_instants_rejects_bad_arguments():
    with pytest.raises(ValueError):
        analytic.critical_instants(ModelParams(0.0, 1.0, 1.0), 10.0)
    with pytest.raises(ValueError):
        analytic.critical_instants(P111, 0.0)


def _disentangle_roots_by_loop(params, t_max, step):
    """Node-by-node bracketing: the reference for the scan in critical_instants."""
    f = lambda t: analytic._disentangle_bracket(params, t)
    n_nodes = int(math.ceil(t_max / step)) + 1
    nodes = np.minimum(np.arange(n_nodes + 1) * step, t_max)
    vals = f(nodes)
    roots = []
    for i in range(n_nodes):
        a, b = nodes[i], nodes[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if a == b:
            continue
        if fb == 0.0:
            root = b
        elif fa == 0.0 and a > 0.0:
            # the left sign of an interval after an exact zero is its midpoint's
            a = 0.5 * (a + b)
            fa = f(a)
            if fa == 0.0:
                root = a
            elif fa * fb < 0.0:
                root = bisect(f, a, b, xtol=1e-15, rtol=1e-12)
            else:
                continue
        elif fa * fb < 0.0:
            root = bisect(f, a, b, xtol=1e-15, rtol=1e-12)
        else:
            continue
        if root > 0.0:
            roots.append(float(root))
    return roots


def _disentangle_roots(params, t_max, step=None):
    return [
        c.t_c for c in analytic.critical_instants(params, t_max, grid_step=step)
        if c.kind == "disentangle"
    ]


@pytest.mark.parametrize(
    "params, t_max, step",
    [
        (P_SUB, 40 * math.pi, math.pi / 64),
        (ModelParams(1.0, 0.01, 0.03j), 300 * math.pi, math.pi / 64),
        (ModelParams(2.0, 0.05, -0.1), 7.3, 0.3),  # a step coarser than a quarter period
        (ModelParams(1.0, 0.2, 0.2), 2.5, 0.25),  # exact zeros at nodes, see the stub below
    ],
)
def test_critical_instants_bracket_as_the_node_loop(monkeypatch, params, t_max, step):
    if step == 0.25:
        # zeros exactly at the node 1.0 (a sign change) and at t_max = 2.5 (a
        # touch, and the clamped last node repeats it), one inside (1.5, 1.75)
        stub = lambda p, t: (t - 1.0) * (t - 1.6) * (t - 2.5) ** 2
        monkeypatch.setattr(analytic, "_disentangle_bracket", stub)
    expected = _disentangle_roots_by_loop(params, t_max, step)
    assert _disentangle_roots(params, t_max, step) == expected and len(expected) >= 2


def test_critical_instants_find_the_root_right_after_an_exact_zero(monkeypatch):
    # the root 1.2 lies in (1.0, 1.25), whose left node is the exact zero 1.0
    stub = lambda p, t: (t - 1.0) * (t - 1.2) * (t - 2.5) ** 2
    monkeypatch.setattr(analytic, "_disentangle_bracket", stub)
    params = ModelParams(1.0, 0.2, 0.2)
    roots = _disentangle_roots(params, 2.5, 0.25)
    assert roots == _disentangle_roots_by_loop(params, 2.5, 0.25)
    assert len(roots) == 3 and roots[0] == 1.0 and roots[2] == 2.5
    assert roots[1] == pytest.approx(1.2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "k_over_omega, f_over_k, t_max_pi",
    [(0.2, 1.0, 40), (0.01, 0.6, 1e4), (0.7, 0.6, 1e4), (0.2, 1.0, 1e4), (0.05, 1.0, 3000)],
)
def test_disentangle_roots_are_scipy_bisect_bit_for_bit(k_over_omega, f_over_k, t_max_pi):
    # the standard schedules: the array bisection returns the float that
    # scipy.optimize.bisect returns for each bracket, not merely a close one
    params = make_params(k_over_omega, f_over_k)
    t_max = t_max_pi * math.pi / params.omega
    expected = _disentangle_roots_by_loop(params, t_max, math.pi / (64 * params.omega))
    assert _disentangle_roots(params, t_max) == expected


@settings(max_examples=200, deadline=None)
@given(
    k_over_omega=st.floats(1e-3, 10.0),
    f_over_k=st.floats(1e-2, 10.0),
    t_max_pi=st.floats(0.1, 200.0),
    steps_per_period=st.integers(3, 256),
)
def test_disentangle_roots_match_scipy_bisect_on_any_grid(
    k_over_omega, f_over_k, t_max_pi, steps_per_period
):
    params = make_params(k_over_omega, f_over_k)
    t_max = t_max_pi * math.pi / params.omega
    step = 2 * math.pi / (steps_per_period * params.omega)
    expected = _disentangle_roots_by_loop(params, t_max, step)
    assert _disentangle_roots(params, t_max, step) == expected


def test_critical_instants_refuse_a_bracketing_grid_above_the_limit():
    limit = analytic.MAX_BRACKET_STEPS
    assert limit == 2 ** 22
    # omega*t_max/pi = 65536 is the largest horizon at the default resolution
    t_edge = 65536 * math.pi
    crit = analytic.critical_instants(P111, t_edge)
    assert sum(c.kind == "extremum" for c in crit) == 65536
    for params, t_max in (
        (P111, math.nextafter(t_edge, math.inf)),
        (P111, 1e9 * math.pi),  # would have been 6.4e10 nodes
        (P111, math.inf),
        (ModelParams(1e20, 1e12, 1.0), 1.0),  # was numpy's bare "Maximum allowed size exceeded"
        (ModelParams(1.0, 0.2, 0.0), 1e9),  # refused without drive too
    ):
        with pytest.raises(ValueError, match=f"above the limit of {limit} "):
            analytic.critical_instants(params, t_max)
    with pytest.raises(ValueError, match="above the limit"):
        analytic.critical_instants(P111, 1.0, grid_step=1e-7)


def test_field_entropy_vanishes_at_disentangle_roots():
    crit = analytic.critical_instants(P_SUB, 4 * math.pi)
    for c in crit:
        if c.kind == "disentangle":
            assert analytic.zeta_field(P_SUB, c.t_c) < 1e-14
            assert analytic.concurrence(P_SUB, c.t_c) < 1e-7


@settings(max_examples=300, deadline=None)
@given(
    k_over_omega=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    f_over_k=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
def test_any_finite_ratios_are_rejected_or_give_finite_closed_forms(k_over_omega, f_over_k):
    try:
        params = make_params(k_over_omega, f_over_k)
    except ValueError:
        return
    t_max = 4.0 * math.pi
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        columns = analytic.observables(params, np.linspace(0.0, t_max, 2001))
        instants = analytic.critical_instants(params, t_max)
    for name, column in columns.items():
        assert np.all(np.isfinite(column)), name
    assert all(math.isfinite(c.t_c) for c in instants)
