"""Closed-form dynamics of the dispersively coupled, driven, damped system.

Starting from the balanced atomic superposition with the field in the
driven mode's stationary coherent state, every quantity of interest has a
closed form: the pair of field amplitudes conditioned on the atomic level,
the complex dephasing exponent ``phi`` of the atomic coherence, the linear
entropies of the joint state and both subsystems, the total correlation,
the concurrence, the characteristic decoherence times, and the critical
instants where the field disentangles or its entropy turns over.

All operations are pure functions of ``(params, t)`` and accept scalar or
array ``t``, apart from :func:`matrix_elements`, which takes scalar ``t``.
The records :func:`coherent_pair` and :func:`phase_parts` hold numpy
scalars for scalar ``t`` and arrays for array ``t``.  :func:`coherent_pair`
is the one kernel of the conditioned amplitudes; :func:`phase_parts` is
the public way into the dephasing kernels below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AtomicAmplitudes, ModelParams

__all__ = [
    "PhaseParts",
    "CoherentPair",
    "CriticalInstant",
    "MatrixElement",
    "coherent_pair",
    "distance_sq_closed_form",
    "phase_parts",
    "re_phi_longtime_rate",
    "matrix_elements",
    "observables",
    "zeta_global",
    "zeta_atom",
    "zeta_field",
    "total_correlation",
    "concurrence",
    "characteristic_times",
    "transition_time",
    "critical_instants",
    "stationary_state",
    "nbar_infinity",
]


#: most steps of the sign-bracketing grid of :func:`critical_instants`
MAX_BRACKET_STEPS = 2 ** 22

# bisection stopping rule of :func:`critical_instants`: absolute and
# relative tolerance on the half-width, and the most halvings
_XTOL, _RTOL, _MAX_HALVINGS = 1e-15, 1e-12, 100


# ---------------------------------------------------------------- record types

@dataclass(frozen=True)
class PhaseParts:
    """The five building blocks of the dephasing exponent and the assembled phi.

    Each field is a numpy scalar or an array shaped like ``t``.
    ``z``, ``p``, ``q`` are the disentangling functions of the coherence
    block's Lie-algebraic solution; ``theta`` and ``gamma`` are the real
    oscillatory/secular drive corrections.  ``phi`` is the full complex
    exponent; the atomic coherence weight decays as ``exp(Re phi)``.
    All six vanish identically at t = 0.
    """

    z: complex
    p: complex
    q: complex
    theta: float
    gamma: float
    phi: complex


@dataclass(frozen=True)
class CoherentPair:
    """Field amplitudes conditioned on the atomic level.

    Each field is a numpy scalar or an array shaped like ``t``.
    ``beta_e``/``beta_g`` are the drive-frame displacements; the primed
    amplitudes include the moving-frame offset and are the physical
    coherent amplitudes multiplying each atomic projector.  ``dist_sq``
    is the squared distance |beta_e_prime - beta_g_prime|^2, controlling
    the field entropy.  The primed amplitudes have equal moduli at all
    times.
    """

    beta_e: complex
    beta_g: complex
    beta_e_prime: complex
    beta_g_prime: complex
    dist_sq: float


@dataclass(frozen=True)
class CriticalInstant:
    """A zero of the field entropy (kind 'disentangle') or an extremum candidate.

    ``n_index`` counts the odd multiples of the quarter period for
    extremum instants (t_c = (2n+1)*pi/(2*omega)); it is -1 for
    disentangle roots, which are not indexed by that family.
    Disentangle roots are classified 'local_min' (the field entropy
    touches zero from above).
    """

    t_c: float
    kind: str  # "disentangle" | "extremum"
    classification: str  # "local_max" | "local_min"
    n_index: int


@dataclass(frozen=True)
class MatrixElement:
    """One block of the joint state: weight * |ket amplitude><bra amplitude|."""

    weight: complex
    ket_amplitude: complex
    bra_amplitude: complex


# ---------------------------------------------------------------- kernels

def _cexpm1(zv):
    """exp(z) - 1 for complex z without cancellation for small |Re z|."""
    zv = np.asarray(zv, dtype=complex)
    x, y = zv.real, zv.imag
    return _cexpm1_parts(x, np.exp(x), np.cos(y), np.sin(y), np.sin(y / 2))


def _cexpm1_parts(x, exp_x, cos_y, sin_y, sin_half_y):
    """exp(x + iy) - 1 from x and the real kernels of x and y, which callers may share."""
    return np.expm1(x) * cos_y - 2.0 * sin_half_y ** 2 + 1j * exp_x * sin_y


def _double_rate_kernels(params: ModelParams, t):
    """The real kernels exp(-2kt), sin(2wt) and cos(2wt)."""
    w, k = params.omega, params.kappa
    return np.exp(-2 * k * t), np.sin(2 * w * t), np.cos(2 * w * t)


def _theta(params: ModelParams, kernels):
    """The oscillatory real drive correction, in the direct printed grouping.

    ``kernels`` is :func:`_double_rate_kernels` of (params, t).
    """
    w, k = params.omega, params.kappa
    F2 = abs(params.drive) ** 2
    w2 = k * k + w * w
    decay2, sin2, cos2 = kernels
    return F2 / (k * w2) * (decay2 * (k * sin2 + w * cos2) - w)


def _gamma(params: ModelParams, t):
    """The secular real drive correction, in the direct printed grouping."""
    w, k = params.omega, params.kappa
    F2 = abs(params.drive) ** 2
    w2 = k * k + w * w
    return (
        -F2 / k ** 2 * (1.0 - np.exp(-2 * k * t))
        - F2 / (k * w2) * (np.exp(-2 * k * t) * (k * np.cos(2 * w * t) - w * np.sin(2 * w * t)) - k)
    )


def _phi(params: ModelParams, t):
    """Complex dephasing exponent, grouped for stability at any kappa*t.

    Equal to the term-by-term sum of the z/p/q/theta/gamma fields of
    :func:`phase_parts` but with every exponential decaying, so it stays
    accurate arbitrarily far into the stationary regime.
    Array-capable in t.  The five terms -iwt, secular, i theta, gamma and
    the residual are summed left to right into one array, and each
    intermediate is released once it is used, so an array call holds a
    few arrays of t's size at a time.  Each kernel that several terms use,
    exp(-2kt), sin(2wt), cos(2wt), sin(wt), exp(-kt) and exp(-2iwt), is
    evaluated once; :func:`_theta` and :func:`_cexpm1_parts` take the
    shared ones as arguments.

    Every operation keeps the operands and the order of the direct
    expression, and a named array stays named: numpy computes a binary
    operation on a large temporary in place, with the operands swapped
    when the temporary is on the right, and a swapped complex product can
    differ in the last bit.
    """
    w, k, F = params.omega, params.kappa, complex(params.drive)
    t = np.asarray(t, dtype=float)
    c = k + 1j * w
    cb = k - 1j * w
    F2 = abs(F) ** 2
    w2 = k * k + w * w
    eta = _cexpm1(-c * t)  # exp(-ct) - 1
    # z + |F|^2(p^2 - q^2 + 2pq + |p+q|^2), regrouped in powers of eta.
    # The quadratic tail is written as |s|^2 - s^2 with s = eta/c so that
    # it cancels bit-exactly when omega = 0 (s is then real and both
    # squares are the same float).
    s = eta / c
    secular = -(2j * w * F2 / c ** 2) * (t + eta * (2.0 - eta) / (2 * c))
    secular += F2 * ((s * np.conj(s)).real - s * s)
    del s
    phi = -1j * w * t
    phi += secular
    del secular
    # the real kernels that theta, gamma and the residual share, each
    # evaluated once and released after its last use
    decay2, sin2, cos2 = _double_rate_kernels(params, t)
    phi += 1j * _theta(params, (decay2, sin2, cos2))
    # gamma regrouped so both exponentials decay and every term carries a
    # structural factor of omega (sin^2(wt) or w itself), making the
    # omega = 0 limit exactly zero
    sin1 = np.sin(w * t)
    xi = _cexpm1_parts(-2 * k * t, decay2, cos2, sin2, sin1)  # exp(2(iw - k)t) - 1
    del sin2, cos2
    gamma = (2 * F2 / k ** 2) * decay2 * sin1 ** 2
    gamma += (F2 * w / (k ** 2 * w2)) * (w * xi.real + k * xi.imag)
    del xi
    phi += gamma
    del gamma
    # the residual drive block, from the bounded products exp(-ct) *
    # {cosh(ct)-1, sinh(ct)} and their conjugates, and p + q = i eta/c.
    # Each product is formed once its last shared kernel is at hand, so
    # that kernel is released early: the block holds no more arrays than
    # when it evaluated each kernel where it used it.
    pq = 1j * eta / c  # p + q, bounded for all t
    decay1 = np.exp(-k * t)
    resid = 2j * np.real(pq * decay1 * np.cos(w * t))
    resid -= 2j * np.imag(pq * decay1 * sin1)
    del pq, decay1, sin1
    e_cosh = 0.5 * eta ** 2
    rotation2 = np.exp(-2j * w * t)
    e_cosh_b = 0.5 * rotation2 * np.conj(eta) ** 2
    del eta
    e_sinh_b = 0.5 * (rotation2 - decay2)
    del rotation2, decay2
    e_p_b = (-1j * k / cb ** 2) * e_cosh_b
    e_p_b += (1j / cb) * e_sinh_b
    del e_sinh_b
    e_q = -(w / c ** 2) * e_cosh
    e_q -= -(w / cb ** 2) * e_cosh_b
    e_q /= 2j  # exp(-ct) * Im q
    del e_cosh_b
    e_sinh = 0.5 * (1.0 - np.exp(-2 * c * t))
    e_p = (1j * k / c ** 2) * e_cosh
    e_p -= (1j / c) * e_sinh
    del e_cosh, e_sinh
    e_p += e_p_b
    del e_p_b
    e_p /= 2  # exp(-ct) * Re p
    resid -= 4 * (e_q + 1j * e_p)
    del e_q, e_p
    resid *= F2 / k
    phi += resid
    return phi


# ---------------------------------------------------------------- operations

def coherent_pair(params: ModelParams, t) -> CoherentPair:
    """Conditioned field amplitudes and their squared separation at t: the one amplitude kernel."""
    w, k, F = params.omega, params.kappa, complex(params.drive)
    c = k + 1j * w
    cb = k - 1j * w
    decay_e = np.exp(-c * t)
    be = F / (w - 1j * k) * (decay_e - 1.0)
    u = be - 1j * (F / k) * decay_e
    del decay_e
    decay_g = np.exp(-cb * t)
    bg = -F / (w + 1j * k) * (decay_g - 1.0)
    v = bg - 1j * (F / k) * decay_g
    del decay_g
    return CoherentPair(be, bg, u, v, np.abs(u - v) ** 2)


def distance_sq_closed_form(params: ModelParams, t):
    """Squared amplitude separation in closed form.

    4|F|^2 w^2 [k(exp(-kt)cos wt - 1) - w exp(-kt) sin wt]^2 / (k^2 (k^2+w^2)^2).
    Equals |beta_e_prime - beta_g_prime|^2; the denominator carries
    (k^2+w^2) squared, which the infinite-time limit and the long-time
    decoherence rate both pin down.
    """
    w, k = params.omega, params.kappa
    g = _disentangle_bracket(params, t)
    return 4 * abs(params.drive) ** 2 * w ** 2 * g ** 2 / (k ** 2 * (k ** 2 + w ** 2) ** 2)


def _disentangle_bracket(params: ModelParams, t):
    """The oscillatory bracket whose zeros are the disentanglement instants."""
    w, k = params.omega, params.kappa
    return k * (np.exp(-k * t) * np.cos(w * t) - 1.0) - w * np.exp(-k * t) * np.sin(w * t)


def phase_parts(params: ModelParams, t) -> PhaseParts:
    """All pieces of the dephasing exponent at t.

    ``phi`` uses the stable regrouped assembly; the z/p/q/theta/gamma
    fields are the direct closed forms.  Their term-by-term sum, -iwt + z
    + |F|^2(p^2 - q^2 + 2pq + |p+q|^2) + i theta + gamma plus the residual
    drive block, equals ``phi`` only for kappa*t up to roughly 15: the p/q
    hyperbolics grow like exp(kappa*t) and cancel.
    """
    w, k = params.omega, params.kappa
    c = k + 1j * w
    W = np.cosh(c * t) - 1.0
    S = np.sinh(c * t)
    q = -(w / c ** 2) * W
    p = 1j * (k / c ** 2) * W - 1j * S / c
    z = -(2j * w * abs(params.drive) ** 2 / c ** 2) * (
        t
        + (4 * (np.exp(-c * t) - 1.0) - np.exp(-2 * c * t) + 1.0) / (2 * c)
        + 1j * (w / c ** 2) * W ** 2
    )
    theta = _theta(params, _double_rate_kernels(params, t))
    return PhaseParts(z, p, q, theta, _gamma(params, t), _phi(params, t))


def re_phi_longtime_rate(params: ModelParams) -> float:
    """Asymptotic slope of Re phi: -4 w^2 k |F|^2 / (k^2 + w^2)^2."""
    w, k = params.omega, params.kappa
    return -4 * w ** 2 * k * abs(params.drive) ** 2 / (k ** 2 + w ** 2) ** 2


def matrix_elements(params: ModelParams, amps: AtomicAmplitudes, t: float) -> dict:
    """Symbolic blocks of the joint state for a general atomic superposition.

    Returns {'rho_ee', 'rho_gg', 'rho_eg'} as MatrixElement triples
    (weight, ket amplitude, bra amplitude); each denotes
    weight * |ket><bra| over coherent field states.  Never expands to a
    dense matrix.
    """
    pair = coherent_pair(params, t)
    u, v = pair.beta_e_prime, pair.beta_g_prime
    phi = _phi(params, t)
    return {
        "rho_ee": MatrixElement(complex(abs(amps.c_e) ** 2), complex(u), complex(u)),
        "rho_gg": MatrixElement(complex(abs(amps.c_g) ** 2), complex(v), complex(v)),
        "rho_eg": MatrixElement(
            complex(amps.c_e * np.conj(amps.c_g) * np.exp(phi)), complex(u), complex(v)
        ),
    }


def observables(params: ModelParams, t) -> dict:
    """Every closed-form observable at t, keyed by its trace CSV column.

    For the balanced initial superposition each one is a closed form in
    Re phi and the squared amplitude separation D^2, so this one pass
    evaluates each kernel once: one :func:`_phi` call gives Re phi and one
    :func:`coherent_pair` call gives D^2 and the photon number
    |beta_e'|^2; the functions below are views of it.  The joint-state
    eigenvalues are (1 +- exp(Re phi))/2, the field eigenvalues
    (1 +- exp(-D^2/2))/2.  The ``dist_sq`` column comes from
    distance_sq_closed_form.  Array-capable in t.
    """
    # both kernels are looked up as module globals, so that every view sees
    # a replaced _phi or coherent_pair: the acceptance gate's own tests
    # corrupt these two kernels to show that the gate notices
    re_phi = np.real(_phi(params, t)).copy()  # owned: a view keeps complex phi alive
    pair = coherent_pair(params, t)
    d2 = pair.dist_sq
    nbar = np.abs(pair.beta_e_prime) ** 2
    del pair  # the four complex amplitudes are freed before the columns are built
    x_g = np.exp(re_phi)
    x_f = np.exp(-0.5 * d2)
    zeta = -0.5 * np.expm1(2.0 * re_phi)
    zeta_f = -0.5 * np.expm1(-d2)
    return {
        "zeta_global": zeta,
        "zeta_atom": -0.5 * np.expm1(2.0 * re_phi - d2),
        "zeta_field": zeta_f,
        "corr_c": 0.5 * zeta_f * (1.0 + (1.0 - 2.0 * zeta) * (1.0 + 2.0 * zeta_f)),
        "concurrence": x_g * np.sqrt(-np.expm1(-d2)),
        "re_phi": re_phi,
        "dist_sq": distance_sq_closed_form(params, t),
        "lambda_plus": 0.5 * (1.0 + x_g),
        "lambda_minus": 0.5 * (1.0 - x_g),
        "Lambda_plus": 0.5 * (1.0 + x_f),
        "Lambda_minus": 0.5 * (1.0 - x_f),
        "nbar_analytic": nbar,
    }


def zeta_global(params: ModelParams, t):
    """Linear entropy of the joint state: (1 - exp(2 Re phi))/2."""
    return observables(params, t)["zeta_global"]


def zeta_atom(params: ModelParams, t):
    """Linear entropy of the reduced atom: (1 - exp(2 Re phi - D^2))/2."""
    return observables(params, t)["zeta_atom"]


def zeta_field(params: ModelParams, t):
    """Linear entropy of the reduced field: (1 - exp(-D^2))/2."""
    return observables(params, t)["zeta_field"]


def total_correlation(params: ModelParams, t):
    """Hilbert-Schmidt total correlation c = (zeta_f/2){1 + (1-2 zeta)(1+2 zeta_f)}."""
    return observables(params, t)["corr_c"]


def concurrence(params: ModelParams, t):
    """Concurrence of the joint state: exp(Re phi) * sqrt(1 - exp(-D^2)).

    Equal to 2|lambda_plus - lambda_minus| sqrt(Lambda_plus Lambda_minus);
    vanishes at t = 0 and at every disentanglement instant, and tends to 0
    in the stationary regime.
    """
    return observables(params, t)["concurrence"]


def characteristic_times(params: ModelParams):
    """Decoherence time scales (tau_lt, tau_st, tau_atom_st).

    tau_lt = (k^2+w^2)^2 / (4 w^2 k |F|^2) is the long-time global
    dephasing time, equal to 1/(k * D^2(infinity)).  tau_st =
    (3k / (4 |F|^2 w^2))^{1/3} is the short-time cubic-law constant in
    2 Re phi = -2 (t/tau_st)^3.  tau_atom_st = k/(2|F|w) is the atomic
    short-time quadratic constant.  All three diverge when either the
    coupling or the drive vanishes, so omega = 0 and F = 0 are rejected.
    """
    w, k, F = params.omega, params.kappa, abs(params.drive)
    if w == 0.0 or F == 0.0:
        raise ValueError("characteristic times diverge for omega = 0 or drive = 0")
    tau_lt = (k ** 2 + w ** 2) ** 2 / (4 * w ** 2 * k * F ** 2)
    tau_st = (3.0 * k / (4.0 * F ** 2 * w ** 2)) ** (1.0 / 3.0)
    tau_atom_st = k / (2 * F * w)
    return tau_lt, tau_st, tau_atom_st


def transition_time(params: ModelParams) -> float:
    """Time ln(w/k)/k after which odd-index field-entropy extrema are minima.

    Only weak damping (k < w) has one; otherwise the result is nan.
    """
    w, k = params.omega, params.kappa
    return math.log(w / k) / k if k < w else math.nan


def _bisect(f, xa, xb, fa):
    """Roots of f in the brackets [xa, xb], where f(xa) = fa and f(xb) differ in sign.

    The halving loop of ``scipy.optimize.bisect``, run over every live
    bracket at once with one evaluation of f per halving: each root is the
    float that scalar loop returns for its bracket.
    """
    dm = xb - xa
    roots = np.empty_like(xa)
    live = np.arange(xa.size)
    for _ in range(_MAX_HALVINGS):
        if not live.size:
            return roots
        dm = 0.5 * dm
        xm = xa + dm
        fm = f(xm)
        xa = np.where(fm * fa >= 0.0, xm, xa)
        done = (fm == 0.0) | (np.abs(dm) < _XTOL + _RTOL * np.abs(xm))
        roots[live[done]] = xm[done]
        keep = ~done
        live, xa, dm, fa = live[keep], xa[keep], dm[keep], fa[keep]
    if live.size:
        raise RuntimeError(
            f"bisection left {live.size} brackets open after {_MAX_HALVINGS} halvings"
        )
    return roots


def critical_instants(params: ModelParams, t_max: float, grid_step: float | None = None):
    """All critical instants in (0, t_max], sorted by time.

    Disentanglement instants are the positive zeros of the oscillatory
    bracket k(exp(-kt)cos wt - 1) - w exp(-kt) sin wt, found by sign
    bracketing on a uniform grid (default resolution pi/(64 w), finer than
    a quarter period so no sign change is skipped) and refined by
    bisection to relative tolerance 1e-12, all brackets at once, with the
    halving loop and stopping rule of ``scipy.optimize.bisect`` and the
    same roots to the last bit.  A grid interval that starts at an exact
    zero past t = 0 is bracketed from its midpoint.  At each root the field
    entropy and the concurrence vanish.

    Extremum candidates of the field entropy sit at t_c = (2n+1)pi/(2w)
    and are classified by the curvature sign of D^2: for k >= w, maxima
    for even n and minima for odd n; for k < w, maxima for even n, while
    odd-n instants are maxima before t_trans = ln(w/k)/k (transition_time)
    and minima after.

    Without drive the field entropy is identically zero, so there are no
    critical instants and the list is empty.

    Raises ``ValueError`` before allocating anything when the bracketing
    grid would need more than ``MAX_BRACKET_STEPS`` (2**22) steps, that is
    w t_max / pi > 65536 at the default resolution.
    """
    w = params.omega
    if not (w > 0.0):
        raise ValueError("critical instants require omega > 0")
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    step = grid_step if grid_step is not None else math.pi / (64.0 * w)
    if not (t_max / step <= MAX_BRACKET_STEPS):
        raise ValueError(
            f"critical instants up to t_max = {t_max:.6g} need {t_max / step:.6g} "
            f"bracketing steps, above the limit of {MAX_BRACKET_STEPS} "
            "(omega*t_max/pi <= 65536 at the default resolution)"
        )
    found: list[CriticalInstant] = []
    if params.drive == 0:
        return found

    # --- zeros of the disentanglement bracket
    f = lambda t: _disentangle_bracket(params, t)
    n_nodes = int(math.ceil(t_max / step)) + 1
    nodes = np.minimum(np.arange(n_nodes + 1) * step, t_max)
    vals = f(nodes)
    a, b, fa, fb = nodes[:-1].copy(), nodes[1:], vals[:-1].copy(), vals[1:]
    span = a != b  # the clamped last node may repeat t_max
    # an interval holds a root at its right node or a sign change inside.
    # One whose left node is an exact zero takes its left sign at its
    # midpoint, so a root just past that zero is still bracketed; t = 0 is
    # the trivial zero and never counts as a left node
    at_node = b[span & (fb == 0.0)]
    i = np.flatnonzero(span & (fa == 0.0) & (fb != 0.0) & (a > 0.0))
    a[i] = 0.5 * (a[i] + b[i])
    fa[i] = f(a[i])
    inside = span & (fa * fb < 0.0)
    for root in np.concatenate(
        [at_node, a[i][fa[i] == 0.0], _bisect(f, a[inside], b[inside], fa[inside])]
    ):
        found.append(CriticalInstant(float(root), "disentangle", "local_min", -1))

    # --- quarter-period extremum candidates; for k >= w, t_trans is nan and
    # every odd-n instant compares as past it
    t_trans = transition_time(params)
    n = 0
    while True:
        t_c = (2 * n + 1) * math.pi / (2 * w)
        if t_c > t_max:
            break
        cls = "local_max" if n % 2 == 0 or t_c < t_trans else "local_min"
        found.append(CriticalInstant(float(t_c), "extremum", cls, n))
        n += 1

    found.sort(key=lambda c: c.t_c)
    return found


def stationary_state(params: ModelParams, amps: AtomicAmplitudes) -> dict:
    """Asymptotic classically correlated state, in the blocks of matrix_elements.

    The atom populations stay frozen while each conditioned field settles
    into its own coherent state F/(ik -+ w).  The coherence block
    ``rho_eg`` has weight 0: no quantum correlation survives.
    """
    w, k, F = params.omega, params.kappa, complex(params.drive)
    amp_e, amp_g = F / (1j * k - w), F / (1j * k + w)
    return {
        "rho_ee": MatrixElement(complex(abs(amps.c_e) ** 2), amp_e, amp_e),
        "rho_gg": MatrixElement(complex(abs(amps.c_g) ** 2), amp_g, amp_g),
        "rho_eg": MatrixElement(0j, amp_e, amp_g),
    }


def nbar_infinity(params: ModelParams) -> float:
    """Stationary mean photon number |F|^2 / (k^2 + w^2)."""
    return abs(params.drive) ** 2 / (params.kappa ** 2 + params.omega ** 2)
