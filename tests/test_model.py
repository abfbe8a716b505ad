"""Parameter types, validation, and shared conventions."""

import math
import warnings

import numpy as np
import pytest

from dispersive_jcm import analytic
from dispersive_jcm.model import (
    AtomicAmplitudes,
    DispersiveValidityWarning,
    ModelParams,
    TimeGrid,
    make_params,
    stationary_amplitude,
)


def test_validate_accepts_good_params():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ModelParams(1.0, 0.5, 0.3 + 0.1j)
        ModelParams(0.0, 0.7, 0.4 + 0.3j)  # omega = 0: the decoupled case is legal
    assert (p.omega, p.kappa, p.drive) == (1.0, 0.5, 0.3 + 0.1j)
    assert make_params(0.2, 2.0) == ModelParams(1.0, 0.2, 0.4)


def test_validate_rejects_nonpositive_kappa():
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        make_params(-1.0, 1.0)


def test_validate_rejects_negative_or_nonfinite_omega():
    with pytest.raises(ValueError):
        ModelParams(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(math.inf, 1.0, 1.0)


def test_validate_rejects_nonfinite_drive():
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, complex(math.nan, 0.0))


def test_validity_pair_warns_only_when_scale_separation_is_weak():
    # |detuning|/coupling = 5 is not >= 10 * |drive|/kappa = 10
    with pytest.warns(DispersiveValidityWarning) as record:
        ModelParams(1.0, 1.0, 1.0, validity=(1.0, 5.0))
    assert record[0].filename == __file__  # attributed to the constructing line
    # |detuning|/coupling = 100 clears the threshold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams(1.0, 1.0, 1.0, validity=(1.0, 100.0))


def test_validity_pair_rejects_degenerate_entries():
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.0, validity=(0.0, 10.0))
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.0, validity=(1.0, 0.0))


def test_atomic_amplitudes_must_be_normalized():
    AtomicAmplitudes(1.0, 0.0)
    AtomicAmplitudes(0.6, 0.8j)
    # a nan norm compares False against any tolerance, so it must not pass
    for c_e, c_g in ((0.8, 0.7), (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="normalized"):
            AtomicAmplitudes(c_e, c_g)


def test_symmetric_amplitudes_are_balanced():
    amps = AtomicAmplitudes.symmetric()
    assert np.isclose(abs(amps.c_e) ** 2, 0.5)
    assert amps.c_e == amps.c_g


def test_time_grid_spacing_and_points():
    grid = TimeGrid(5.0, 1001)
    assert np.isclose(grid.spacing, 5e-3)
    pts = grid.points
    assert pts.shape == (1001,)
    assert pts[0] == 0.0 and pts[-1] == 5.0


def test_time_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    for n_points in (1, 2.5, math.nan, 3.0, "5"):
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(5.0, n_points)
    assert TimeGrid(5.0, np.int64(3)).points.shape == (3,)


def test_stationary_amplitude_frozen_value():
    assert stationary_amplitude(ModelParams(1.0, 0.5, 1.0 + 1.0j)) == 2.0 - 2.0j
    # purely imaginary for a real drive
    assert stationary_amplitude(ModelParams(1.0, 2.0, 1.0)) == -0.5j


@pytest.mark.parametrize(
    "omega, kappa, drive, named",
    [
        (1.0, 1e-200, 1e-199, "kappa/omega"),  # checked before the kappa^2 underflow
        (1.0, 1e-200, 1e-200, "kappa^2"),
        (0.0, 1e-200, 0.0, "kappa^2"),
        (1.0, 1e11, 2e11, "kappa/omega"),
        (1e3, 1e-9, 2e-9, "kappa/omega"),
        (0.0, 1e200, 1.0, "kappa^2"),  # kappa^2 overflows
        (0.0, 1e-120, 0.0, "kappa (kappa^2 + omega^2)"),
        (0.0, 1e60, 1.0, "kappa^2 (kappa^2 + omega^2)^2"),
        (1e90, 1e-100, 0.0, "kappa^2 (kappa^2 + omega^2)^2"),  # (kappa^2 + omega^2)^2 overflows
        (1.0, 1.0, 1e200, "|F|^2"),
        (1.0, 1e-8, 1e145, "|F|^2/kappa^2"),
        (0.0, 1e-5, 1e144, "|F|^2/(kappa (kappa^2 + omega^2))"),
        (1.0, 1e9, 1e145, "|F|^2 omega^2 (kappa + omega)^2"),
    ],
)
def test_validate_rejects_scales_outside_the_closed_forms_range(omega, kappa, drive, named):
    with pytest.raises(ValueError, match=r"range") as exc:
        ModelParams(omega, kappa, drive)
    assert str(exc.value).startswith(named + " = ")


@pytest.mark.parametrize(
    "k_over_omega, f_over_k", [(1e-11, 0.0), (1e-11, 1.0), (1e11, 1.0), (1e40, 0.5), (1e20, 0.0)]
)
def test_drive_at_most_kappa_is_accepted_outside_the_damping_range(k_over_omega, f_over_k):
    # the rounding residue of Re phi is about 1e-15 |F|^2/kappa^2 at any
    # kappa/omega, so a drive no stronger than the damping stays resolved
    params = make_params(k_over_omega, f_over_k)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        columns = analytic.observables(params, np.linspace(0.0, 4.0 * math.pi, 2001))
    for name, column in columns.items():
        assert np.all(np.isfinite(column)), name
    assert np.all(columns["re_phi"] <= 1e-14)


def test_make_params_rejects_the_ratios_that_broke_the_closed_forms():
    for k_over_omega, f_over_k in ((1e-200, 1.0), (1.0, 1e200), (1e100, 1.0)):
        with pytest.raises(ValueError, match="range"):
            make_params(k_over_omega, f_over_k)
