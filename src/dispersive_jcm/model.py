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

# Range of the closed forms' scales.  ModelParams rejects a denominator
# outside [1/_SCALE_LIMIT, _SCALE_LIMIT] or a drive scale above _SCALE_LIMIT.
# The factor of about 1e8 to the float limits is headroom for the bounded
# and O(t) factors these scales are multiplied by on the paper's horizons.
_SCALE_LIMIT = 1e300

# Range of kappa/omega the closed forms resolve when the drive exceeds the
# damping.  Re phi is what is left after terms as large as |F|^2/kappa^2
# cancel, so its rounding error is about 1e-15 |F|^2/kappa^2 at any
# kappa/omega.  Inside this range the largest |Re phi| on the paper's
# horizon is at least about 5e6 times that error; far outside it (below
# about 1e-11 or above about 1e15) the error dominates and, for a strong
# drive, can turn Re phi positive and overflow exp(2 Re phi).  With |F| <= kappa the error
# stays at the 1e-15 level of the observables' own rounding, and omega = 0,
# the decoupled case, is exact: both are exempt.
_DAMPING_RANGE = (1e-10, 1e10)


class DispersiveValidityWarning(UserWarning):
    """Raised (as a warning) when the dispersive-regime inequality looks weak."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the driven, damped, dispersively coupled system.

    Construction raises ``ValueError`` when ``kappa <= 0``, ``omega < 0``,
    any field is non-finite, or a scale of the closed forms leaves the
    range they resolve: kappa/omega outside [1e-10, 1e10] while
    |F| > kappa and omega > 0; kappa^2, kappa (kappa^2 + omega^2) or
    kappa^2 (kappa^2 + omega^2)^2 outside [1e-300, 1e300]; or |F|^2,
    |F|^2/kappa^2, |F|^2/(kappa (kappa^2 + omega^2)) or
    |F|^2 omega^2 (kappa + omega)^2 above 1e300.
    When the optional ``validity`` pair is present, it emits a :class:`DispersiveValidityWarning` if the scale
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
        _check_scales(self.omega, self.kappa, abs(drive))
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
    """Normalized atomic superposition amplitudes (c_e, c_g); a non-finite one is rejected."""

    c_e: complex
    c_g: complex

    def __post_init__(self):
        norm = abs(self.c_e) ** 2 + abs(self.c_g) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"atomic amplitudes must be normalized, got |c|^2 = {norm!r}")

    @classmethod
    def symmetric(cls) -> "AtomicAmplitudes":
        """The balanced superposition (1/sqrt(2), 1/sqrt(2))."""
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid starting at t = 0, of an integer n_points >= 2."""

    t_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError("t_max must be positive and finite")
        if not (isinstance(self.n_points, (int, np.integer)) and self.n_points >= 2):
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points!r}")

    @property
    def spacing(self) -> float:
        return self.t_max / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)


def _check_scales(omega: float, kappa: float, drive_abs: float) -> None:
    """Raise ValueError when kappa/omega or a closed-form scale leaves its range.

    Products only: float multiplication and division saturate to 0 or inf
    where ``**`` would raise.
    """
    low, high = _DAMPING_RANGE
    if omega > 0.0 and drive_abs > kappa and not low <= kappa / omega <= high:
        raise ValueError(
            f"kappa/omega = {kappa / omega:.3g} is outside the closed forms' range "
            f"[{low:g}, {high:g}] for a drive above kappa"
        )
    k2 = kappa * kappa
    w2 = k2 + omega * omega
    f2 = drive_abs * drive_abs
    for name, value in (
        ("kappa^2", k2),
        ("kappa (kappa^2 + omega^2)", kappa * w2),
        ("kappa^2 (kappa^2 + omega^2)^2", k2 * (w2 * w2)),  # as the closed forms group it
    ):
        if not 1.0 / _SCALE_LIMIT <= value <= _SCALE_LIMIT:
            raise ValueError(
                f"{name} = {value:.3g} is outside the closed forms' range "
                f"[{1.0 / _SCALE_LIMIT:g}, {_SCALE_LIMIT:g}]"
            )
    reach = kappa + omega
    for name, value in (
        ("|F|^2", f2),
        ("|F|^2/kappa^2", f2 / k2),
        ("|F|^2/(kappa (kappa^2 + omega^2))", f2 / (kappa * w2)),
        ("|F|^2 omega^2 (kappa + omega)^2", f2 * omega * omega * reach * reach),
    ):
        if not value <= _SCALE_LIMIT:
            raise ValueError(
                f"{name} = {value:.3g} is above the closed forms' range (at most {_SCALE_LIMIT:g})"
            )


def make_params(k_over_omega: float, f_over_k: float) -> ModelParams:
    """Parameters in the omega = 1 convention shared with the CSV tooling."""
    kappa = float(k_over_omega)
    return ModelParams(omega=1.0, kappa=kappa, drive=float(f_over_k) * kappa)


def stationary_amplitude(params: ModelParams) -> complex:
    """Coherent amplitude -i*drive/kappa of the driven mode's fixed point."""
    return -1j * complex(params.drive) / params.kappa
