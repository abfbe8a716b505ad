"""Superoperator algebra checks behind the closed-form solution.

The coherence-block generator is solved by disentangling a Lie
exponential over a small algebra of left/right multiplication maps.  This
module verifies that machinery on truncated matrix representations:

* the commutation table of the algebra,
* the ODE systems satisfied by the disentangling functions, with the
  closed-form solutions substituted back in via central differences,
* the two disentangled-exponential identities (population block and
  coherence block) against brute-force propagation of the block
  Liouvillian by :func:`.oracle.propagate`, the oracle's Taylor engine,
  with that Liouvillian's compiled sparse product
  (:func:`.oracle.matvec_into`).

The closed forms come from :mod:`.analytic`'s public records
:func:`.analytic.coherent_pair` and :func:`.analytic.phase_parts`.

Operators on the truncated Fock space are vectorized column-wise
(stacking columns).  The four ladder maps come from
:func:`.oracle.ladder_maps` and the block Liouvillians from
:func:`.oracle.field_liouvillian`, all ``scipy.sparse`` matrices.
Truncation breaks the algebra at the Fock edge; every check therefore
compares on an interior subspace (indices <= dim - 1 - margin).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy

from .model import ModelParams, TimeGrid, stationary_amplitude
from . import analytic, oracle

__all__ = [
    "SuperOpRep",
    "OdeResidualReport",
    "superop_rep",
    "interior_mask",
    "check_commutator_table",
    "residual_diagonal",
    "residual_offdiagonal",
    "check_diagonal_disentangling",
    "check_offdiagonal_disentangling",
]


@dataclass(frozen=True)
class SuperOpRep:
    """Matrix representation of the multiplication superoperators at one truncation.

    ``a_left`` is the map rho -> a rho, ``a_right_dag`` the map
    rho -> rho a_dag, and so on.  Derived bilinears: ``number_left``
    (rho -> a_dag a rho), ``number_right`` (rho -> rho a_dag a), ``jump``
    (rho -> a rho a_dag).  ``create_sum``/``create_diff`` are
    a_left_dag +- a_right_dag; ``lower_sum``/``lower_diff`` are
    a_right +- a_left.  Every map is a sparse CSR matrix.
    """

    dim: int
    a_left: scipy.sparse.csr_matrix
    a_left_dag: scipy.sparse.csr_matrix
    a_right: scipy.sparse.csr_matrix
    a_right_dag: scipy.sparse.csr_matrix
    number_left: scipy.sparse.csr_matrix
    number_right: scipy.sparse.csr_matrix
    jump: scipy.sparse.csr_matrix
    create_sum: scipy.sparse.csr_matrix
    create_diff: scipy.sparse.csr_matrix
    lower_sum: scipy.sparse.csr_matrix
    lower_diff: scipy.sparse.csr_matrix


@dataclass(frozen=True)
class OdeResidualReport:
    """Max absolute residual of a closed-form solution in its ODE system."""

    max_residual: float
    grid: TimeGrid
    system: str  # "diagonal" | "offdiagonal"


def superop_rep(dim: int) -> SuperOpRep:
    """Build the vectorized multiplication maps at Fock truncation *dim*."""
    a_left, a_left_dag, a_right, a_right_dag = oracle.ladder_maps(dim)
    return SuperOpRep(
        dim=dim,
        a_left=a_left,
        a_left_dag=a_left_dag,
        a_right=a_right,
        a_right_dag=a_right_dag,
        number_left=a_left_dag @ a_left,
        number_right=a_right @ a_right_dag,
        jump=a_left @ a_right_dag,
        create_sum=a_left_dag + a_right_dag,
        create_diff=a_left_dag - a_right_dag,
        lower_sum=a_right + a_left,
        lower_diff=a_right - a_left,
    )


def interior_mask(dim: int, margin: int) -> np.ndarray:
    """Boolean mask (on vectorized operators) of Fock indices <= dim-1-margin."""
    keep = np.zeros((dim, dim), dtype=bool)
    top = dim - 1 - margin
    keep[: top + 1, : top + 1] = True
    return keep.flatten(order="F")


# ---------------------------------------------------------------- commutator table

def check_commutator_table(rep: SuperOpRep, margin: int) -> float:
    """Max interior deviation over the algebra's commutation table.

    The table (J = jump, M = number_left, P = number_right, X+- =
    create_sum/diff, Y+- = lower_sum/diff):

        [J, M] = J                   [J, P] = J
        [J, X+-] = (X+ - X-)/2       [J, Y+-] = (Y+ - Y-)/2
        [M, X+-] = (X+ + X-)/2       [M, Y+] = (Y- - Y+)/2 = -[M, Y-]
        [P, X+] = (X- - X+)/2 = -[P, X-]
        [P, Y+-] = (Y+ + Y-)/2       [X+, Y-] = -[X-, Y+] = 2

    Note [J, P] = J, not P: the jump map lowers both Fock indices by one,
    so its bracket with either number map reproduces the jump map itself
    (in the weight basis J|m><n| = sqrt(mn)|m-1><n-1| while P|m><n| =
    n|m><n|).

    Both sides of each relation are restricted to the interior subspace
    before comparison; the truncated ladder algebra is exact there.  The
    restriction reads the stored entries of each difference whose row and
    column are both interior: the same maximum as slicing the sparse
    matrix, without building the slice.
    """
    if rep.dim < margin + 4:
        raise ValueError("dim must be at least margin + 4")
    keep = interior_mask(rep.dim, margin)
    eye = scipy.sparse.identity(rep.dim * rep.dim, dtype=complex, format="csr")
    half = 0.5
    J, M, P = rep.jump, rep.number_left, rep.number_right
    Xp, Xm = rep.create_sum, rep.create_diff
    Yp, Ym = rep.lower_sum, rep.lower_diff

    def comm(A, B):
        return A @ B - B @ A

    def interior_max(diff):
        entries = diff.tocoo()
        inside = np.abs(entries.data[keep[entries.row] & keep[entries.col]])
        return inside.max(initial=0.0)

    relations = [
        (comm(J, M), J),
        (comm(J, P), J),
        (comm(J, Xp), half * (Xp - Xm)),
        (comm(J, Xm), half * (Xp - Xm)),
        (comm(J, Yp), half * (Yp - Ym)),
        (comm(J, Ym), half * (Yp - Ym)),
        (comm(M, Xp), half * (Xp + Xm)),
        (comm(M, Xm), half * (Xp + Xm)),
        (comm(M, Yp), -half * (Yp - Ym)),
        (comm(M, Ym), half * (Yp - Ym)),
        (comm(P, Xp), half * (Xm - Xp)),
        (comm(P, Xm), -half * (Xm - Xp)),
        (comm(P, Yp), half * (Yp + Ym)),
        (comm(P, Ym), half * (Yp + Ym)),
        (comm(Xp, Ym), 2.0 * eye),
        (comm(Xm, Yp), -2.0 * eye),
    ]
    return float(max(interior_max(lhs - rhs) for lhs, rhs in relations))


# ---------------------------------------------------------------- ODE residuals

def _central_diff(values: np.ndarray, h: float) -> np.ndarray:
    return (values[2:] - values[:-2]) / (2.0 * h)


def residual_diagonal(params: ModelParams, grid: TimeGrid) -> OdeResidualReport:
    """Substitute the population-block solution into its ODE system.

    System (dot = d/dt, lam the flow parameter, x/y the displacement
    functions): lam' = 1; x' + lam'(k+iw)x = -iF; y' + lam'(k-iw)y =
    i conj(F).  The closed-form solution is lam = t, x = beta_e,
    y = conj(beta_e).  Derivatives are taken by central differences, so
    the residual is O(h^2) by construction.
    """
    w, k, F = params.omega, params.kappa, complex(params.drive)
    ts = grid.points
    h = grid.spacing
    be = analytic.coherent_pair(params, ts).beta_e
    lam = ts.astype(float)
    lam_dot = _central_diff(lam, h)
    x_dot = _central_diff(be, h)
    y_dot = _central_diff(be.conj(), h)
    mid = slice(1, -1)
    res = [
        np.abs(lam_dot - 1.0),
        np.abs(x_dot + lam_dot * (k + 1j * w) * be[mid] + 1j * F),
        np.abs(y_dot + lam_dot * (k - 1j * w) * be.conj()[mid] - 1j * np.conj(F)),
    ]
    return OdeResidualReport(float(max(r.max() for r in res)), grid, "diagonal")


def residual_offdiagonal(params: ModelParams, grid: TimeGrid) -> OdeResidualReport:
    """Substitute the coherence-block solution into its ODE system.

    System: s' = 1; q' - s'(kq - iwp) = 0; p' + s'[q(2k+iw) + kp] = -i;
    z' + 4 q' p |F|^2 + 2 s' |F|^2 [iwp^2 - q^2(2k+iw) - 2kpq] = 0.  The
    closed forms are s = t and the z/p/q fields of
    :func:`.analytic.phase_parts`.  All derivatives,
    including the q' inside the z equation, use central differences.
    """
    w, k = params.omega, params.kappa
    F2 = abs(params.drive) ** 2
    ts = grid.points
    h = grid.spacing
    parts = analytic.phase_parts(params, ts)
    z, p, q = parts.z, parts.p, parts.q
    s_dot = _central_diff(ts.astype(float), h)
    q_dot = _central_diff(q, h)
    p_dot = _central_diff(p, h)
    z_dot = _central_diff(z, h)
    pm, qm = p[1:-1], q[1:-1]
    res = [
        np.abs(s_dot - 1.0),
        np.abs(q_dot - s_dot * (k * qm - 1j * w * pm)),
        np.abs(p_dot + s_dot * (qm * (2 * k + 1j * w) + k * pm) + 1j),
        np.abs(
            z_dot
            + 4.0 * q_dot * pm * F2
            + 2.0 * s_dot * F2 * (1j * w * pm ** 2 - qm ** 2 * (2 * k + 1j * w) - 2 * k * pm * qm)
        ),
    ]
    return OdeResidualReport(float(max(r.max() for r in res)), grid, "offdiagonal")


# ---------------------------------------------------------------- disentangling

def _vec(m: np.ndarray) -> np.ndarray:
    return m.flatten(order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def _trace_norm(m: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def _test_state(params: ModelParams, dim: int) -> np.ndarray:
    v = oracle.coherent_state_vector(stationary_amplitude(params), dim)
    return np.outer(v, v.conj())


# Tolerances of the flows: the rel_tol floor, so each flow is exact to rounding
_FLOW_CONFIG = oracle.IntegratorConfig(rel_tol=oracle.MIN_REL_TOL, abs_tol=1e-16)


def _block_flows(params: ModelParams, t: float, rho0: np.ndarray, left: str, right: str):
    """exp(L t) rho0 for one field block, driven and undriven, as matrices.

    Each flow is one :func:`.oracle.propagate` run on the column-stacked
    block with the compiled sparse product (:func:`.oracle.matvec_into`)
    of the Liouvillian of :func:`.oracle.field_liouvillian`, at the fixed
    tolerances ``_FLOW_CONFIG`` whatever the integrator options.
    Raises ValueError when a flow fails, as when it puts more than 1e-8 on
    the Fock edge rho[N, N] at the end of a step.
    """
    dim = rho0.shape[0]
    flows = []
    for drive, name in ((params.drive, "driven"), (0.0, "free")):
        matvec = oracle.matvec_into(
            oracle.field_liouvillian(replace(params, drive=drive), dim, left, right)
        )
        try:
            ((_, state),) = oracle.propagate(
                matvec, _vec(rho0), 0.0, t, _FLOW_CONFIG, (dim * dim - 1,),
                f"N={dim - 1} {left}{right} block ({name})",
            )
        except oracle.OracleError as err:
            raise ValueError(f"{name} {left}{right} flow failed: {err}") from err
        flows.append(_unvec(state, dim))
    return tuple(flows)


def check_diagonal_disentangling(params: ModelParams, t: float, dim: int) -> float:
    """Trace-norm gap between the driven population flow and its factorized form.

    Left side: exp((L_ee + drive) t) applied to the stationary-coherent
    test projector.  Right side: D[beta_e(t)] exp(L_ee t)(.) D_dag[beta_e(t)].
    Both act on the first *dim* Fock levels.
    """
    lhs, inner = _block_flows(params, t, _test_state(params, dim), "e", "e")
    be = analytic.coherent_pair(params, t).beta_e
    disp = oracle.displacement_operator(be, dim)
    return _trace_norm(lhs - disp @ inner @ disp.conj().T)


def check_offdiagonal_disentangling(params: ModelParams, t: float, dim: int) -> float:
    """Trace-norm gap between the driven coherence flow and its factorized form.

    Left side: exp((L_eg + drive) t) on half the test projector.  Right
    side: the scalar exp(z + |F|^2(p^2 - q^2 + 2pq + |p+q|^2)) times
    D[beta_e] exp(2 conj(F)(Re p - i Im q) a) [exp(L_eg t)(.)]
    exp(-2F(Re p - i Im q) a_dag) D_dag[beta_g].  Validates the scalar
    phase factor together with the operator factors on the first *dim*
    Fock levels.
    """
    F = complex(params.drive)
    lhs, inner = _block_flows(params, t, 0.5 * _test_state(params, dim), "e", "g")
    parts = analytic.phase_parts(params, t)
    p, q = parts.p, parts.q
    scalar = np.exp(
        parts.z + abs(F) ** 2 * (p ** 2 - q ** 2 + 2 * p * q + abs(p + q) ** 2)
    )
    pair = analytic.coherent_pair(params, t)
    mix = p.real - 1j * q.imag
    rhs = (
        scalar
        * oracle.displacement_operator(pair.beta_e, dim)
        @ oracle.ladder_exponential(2.0 * np.conj(F) * mix, dim)
        @ inner
        @ oracle.ladder_exponential(-2.0 * F * mix, dim).T
        @ oracle.displacement_operator(pair.beta_g, dim).conj().T
    )
    return _trace_norm(lhs - rhs)

