"""Parameter types, validation, and shared conventions."""

import math
import warnings

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        AtomicAmplitudes(0.8, 0.7)


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
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)


def test_stationary_amplitude_frozen_value():
    assert stationary_amplitude(ModelParams(1.0, 0.5, 1.0 + 1.0j)) == 2.0 - 2.0j
    # purely imaginary for a real drive
    assert stationary_amplitude(ModelParams(1.0, 2.0, 1.0)) == -0.5j
