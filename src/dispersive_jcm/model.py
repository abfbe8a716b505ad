"""Physical parameters and shared conventions.

The system is a two-level atom dispersively coupled to a single damped
cavity mode driven by a classical source.  Three constants fix the
dynamics: the effective dispersive coupling ``omega`` (rad/time), the
cavity amplitude-damping rate ``kappa`` (1/time), and the complex source
coupling ``drive`` (rad/time).  Everything else in the package consumes a
:class:`ModelParams`, which checks its invariants when it is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "AtomicAmplitudes",
    "TimeGrid",
    "DispersiveValidityWarning",
    "make_params",
    "stationary_amplitude",
]


class DispersiveValidityWarning(UserWarning):
    """Raised (as a warning) when the dispersive-regime inequality looks weak."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the driven, damped, dispersively coupled system.

    Construction raises ``ValueError`` when ``kappa <= 0``, ``omega < 0``,
    or any field is non-finite.  When the optional ``validity`` pair is
    present, it emits a :class:`DispersiveValidityWarning` if the scale
    separation ``detuning/coupling >= 10 * |drive|/kappa`` fails.  The
    factor 10 is a documented convention (the regime condition is a strict
    ``>>`` with no canonical threshold); the math downstream is well
    defined regardless.

    Parameters
    ----------
    omega : float
        Effective dispersive coupling (>= 0).  ``omega = 0`` is the
        decoupled degenerate case: the atom drops out of the dynamics.
    kappa : float
        Cavity damping rate (> 0).  The initial-state family uses the
        stationary amplitude ``-1j * drive / kappa``, so ``kappa = 0``
        is rejected.
    drive : complex
        Source coupling.  May be any complex number; all real observables
        depend on it only through its modulus.
    validity : tuple[float, float] or None
        Optional pair ``(coupling, detuning)`` of the underlying
        two-photon coupling and detuning that produced ``omega``.  Used
        only for the dispersive-regime sanity check at construction.
    """

    omega: float
    kappa: float
    drive: complex
    validity: tuple[float, float] | None = None

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa <= 0.0:
            raise ValueError("kappa must be positive and finite")
        if not math.isfinite(self.omega) or self.omega < 0.0:
            raise ValueError("omega must be non-negative and finite")
        drive = complex(self.drive)
        if not (math.isfinite(drive.real) and math.isfinite(drive.imag)):
            raise ValueError("drive must be finite")
        if self.validity is not None:
            coupling, detuning = self.validity
            if not (math.isfinite(coupling) and coupling > 0):
                raise ValueError("validity coupling must be positive and finite")
            if not (math.isfinite(detuning) and detuning != 0):
                raise ValueError("validity detuning must be nonzero and finite")
            if abs(detuning) / coupling < 10.0 * abs(drive) / self.kappa:
                warnings.warn(
                    "dispersive approximation questionable: "
                    f"|detuning|/coupling = {abs(detuning) / coupling:.3g} is not large "
                    f"against |drive|/kappa = {abs(drive) / self.kappa:.3g}",
                    DispersiveValidityWarning,
                    stacklevel=3,
                )


@dataclass(frozen=True)
class AtomicAmplitudes:
    """Normalized atomic superposition amplitudes (c_e, c_g)."""

    c_e: complex
    c_g: complex

    def __post_init__(self):
        norm = abs(self.c_e) ** 2 + abs(self.c_g) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"atomic amplitudes must be normalized, got |c|^2 = {norm!r}")

    @classmethod
    def symmetric(cls) -> "AtomicAmplitudes":
        """The balanced superposition (1/sqrt(2), 1/sqrt(2))."""
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid starting at t = 0."""

    t_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError("t_max must be positive and finite")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")

    @property
    def spacing(self) -> float:
        return self.t_max / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)


def make_params(k_over_omega: float, f_over_k: float) -> ModelParams:
    """Parameters in the omega = 1 convention shared with the CSV tooling."""
    kappa = float(k_over_omega)
    return ModelParams(omega=1.0, kappa=kappa, drive=float(f_over_k) * kappa)


def stationary_amplitude(params: ModelParams) -> complex:
    """Coherent amplitude -i*drive/kappa of the driven mode's fixed point."""
    return -1j * complex(params.drive) / params.kappa
