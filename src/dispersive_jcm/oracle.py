"""Brute-force verification on a truncated atom-field space.

Everything here is deliberately independent of the closed forms in
:mod:`.analytic`, and this module imports nothing from it: the master
equation is propagated directly by a truncated Taylor series of its
Liouvillian, and all observables (entropies, correlation, Wootters
concurrence) are computed from the resulting density matrix.  Agreement
with the analytic module is the package's central acceptance criterion.

Neither the Hamiltonian nor the cavity jump flips the atom, so the
excited-excited, ground-ground and excited-ground field blocks of the
joint state evolve independently (the ground-excited block is the adjoint
of the excited-ground one).  The propagator therefore carries the three
blocks column-stacked in one packed vector of 3(N+1)^2 entries and
applies one block-diagonal sparse Liouvillian per Taylor term: scipy's
compiled CSR kernel writes each term straight into its row of the step's
buffer.  That Liouvillian's CSR arrays are filled from index arithmetic,
at most six entries a row, with no sparse algebra; the ladder maps of
:func:`ladder_maps` are its reference form and the maps of :mod:`.lie`.
Dense joint matrices are rebuilt only at the requested times.  A
propagation is refused once its first step predicts more work than a
fixed budget, as a truncation is refused over the memory budget.
Measurement functions accept one joint matrix or a stack of them (a
leading batch axis); :func:`observables` measures everything but the
two-qubit concurrence, and :func:`series` calls it once per stack.

Basis convention: the joint space is (atom) tensor (Fock), atom index
major, with atomic index 0 = excited and 1 = ground.  A joint matrix is
a 2(N+1) x 2(N+1) array whose [0:N+1, 0:N+1] block is the excited-excited
field block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy

from .model import AtomicAmplitudes, ModelParams, stationary_amplitude

__all__ = [
    "FockDensityMatrix",
    "IntegratorConfig",
    "TwoQubitEmbedding",
    "OracleError",
    "MEMORY_BUDGET_BYTES",
    "MIN_REL_TOL",
    "fock_truncation",
    "lowering_operator",
    "displacement_operator",
    "ladder_exponential",
    "coherent_state_vector",
    "ladder_maps",
    "joint_matrix",
    "initial_state",
    "field_liouvillian",
    "matvec_into",
    "build_generator",
    "propagate",
    "evolve",
    "evolve_trajectory",
    "partial_trace_field",
    "partial_trace_atom",
    "trace_distance",
    "embed_two_qubit",
    "wootters_concurrence",
    "observables",
    "series",
]

log = logging.getLogger(__name__)


class OracleError(RuntimeError):
    """Integration or truncation failure in the brute-force evolution."""


#: Memory one integration may plan for; larger Fock truncations are refused.
MEMORY_BUDGET_BYTES = 1 << 30

# The plan for one integration is 3 * _PACKED_COPIES + 4 * _DENSE_COPIES
# complex entries per (N+1)^2.  Alive at its peak, while a point is
# extracted: the sparse generator (about 8 packed states of 3(N+1)^2
# entries), the 17 Taylor terms of a step with the step end and its
# step-size weights, one evaluation chunk (two states up to N = 208, one
# above) and the dense 2(N+1)-square matrices of one extracted point.  A
# step's own temporaries (the norms of its last two terms, one packed
# state: each term is written into its row of the buffer) and the
# generator's build temporaries peak lower: the build's padded six-slot
# array and its compressed copy peak at about 43 entries per (N+1)^2, and
# the Taylor terms are allocated after it.  The plan is the tracemalloc
# peak of a :func:`series` integration with extraction, within a few
# percent, for N from 190 to 250: 102.7 entries per (N+1)^2 up to N = 208
# and 99.7 above, against 101.  The budget then admits N up to 814.
_PACKED_COPIES = 23
_DENSE_COPIES = 8

# Taylor degree of one propagation step in :func:`propagate`, which calls
# the generator this many times per step
_TAYLOR_DEGREE = 16

# Work one propagation may do, in Taylor steps times state entries: at
# 0.35-0.6 us per step-entry on a 2-core Xeon a span at the budget runs 1-2
# minutes.  The largest standard propagation, c2's to t = 60 (623 steps of
# 1323 entries), is 243 times inside it, the c1 traces 324 times, c6's
# flows 7800 times, and perfbench's oracle ops at least 1450 times.
_WORK_BUDGET = 2e8

# Points :func:`series` extracts together, and the memory its stack may take:
# below N of about 180 the stack adds up to 4 MiB to the plan above; above it
# a stack is one point.  :func:`propagate` evaluates states in chunks under
# the same two limits.
_STACK_POINTS = 16
_STACK_BYTES = 1 << 22


def _check_affordable(n_levels: float) -> None:
    """Raise OracleError before allocating when n_levels would exceed the budget."""
    n = float(n_levels)
    need = 16.0 * n * n * (3 * _PACKED_COPIES + 4 * _DENSE_COPIES)
    if not need <= MEMORY_BUDGET_BYTES:
        raise OracleError(
            f"Fock truncation N = {n_levels - 1:.0f} needs about {need / 2**20:.0f} MiB, "
            f"over the oracle budget of {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB"
        )


@dataclass(frozen=True)
class FockDensityMatrix:
    """Dense joint density matrix on 2 atomic levels x n_fock Fock levels."""

    n_fock: int
    data: np.ndarray
    time: float = 0.0

    def validate(self) -> "FockDensityMatrix":
        """Check Hermiticity, trace, positivity, and truncation adequacy."""
        d = 2 * self.n_fock
        if self.data.shape != (d, d):
            raise ValueError(f"expected shape {(d, d)}, got {self.data.shape}")
        if np.max(np.abs(self.data - self.data.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = float(np.real(np.trace(self.data)))
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        if float(np.linalg.eigvalsh(self.data)[0]) < -1e-8:
            raise ValueError("density matrix has an eigenvalue below -1e-8")
        if _edge_population(self.data, self.n_fock) > 1e-10 * tr:
            raise ValueError("edge Fock population above 1e-10: truncation inadequate")
        return self


#: Smallest relative tolerance: below it the step-size rule asks for less
#: than the rounding error of the Taylor terms themselves
MIN_REL_TOL = 100.0 * math.ulp(1.0)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size tolerances of the master-equation propagation.

    Each step of :func:`propagate` is sized so that its last two Taylor
    terms stay within abs_tol + rel_tol |y| in the RMS over the state y.
    Both must be finite; abs_tol positive and rel_tol in [100 eps, 1), or
    ValueError is raised.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and math.isfinite(self.abs_tol)):
            raise ValueError(
                f"integrator tolerances must be finite, got rel_tol={self.rel_tol}, "
                f"abs_tol={self.abs_tol}"
            )
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not MIN_REL_TOL <= self.rel_tol < 1.0:
            raise ValueError(
                f"rel_tol must lie in [{MIN_REL_TOL:.3g}, 1), got {self.rel_tol}"
            )


@dataclass(frozen=True)
class TwoQubitEmbedding:
    """4x4 projection of the joint state onto atom x {two field directions}."""

    matrix: np.ndarray
    leakage: float
    degenerate: bool


# ---------------------------------------------------------------- construction

# Poisson tail weight a truncation may leave above its top level
_TAIL_WEIGHT = 1e-18

# Poisson means whose truncation is sought by summing tails; a larger mean
# puts N above 10^4, far past any affordable one, and is refused unsummed
_LARGEST_SUMMED_MEAN = 1e4


def _poisson_tail(k: int, mean: float) -> float:
    """P(Poisson(mean) > k) for k >= floor(mean), summed term by term.

    Each term exp(-mean + j ln(mean) - ln j!) for j > k is smaller than the
    one before, and the sum stops once a term falls below 1e-20 of the first.
    """
    if mean == 0.0:
        return 0.0
    log_mean = math.log(mean)
    j = k + 1
    first = term = math.exp(-mean + j * log_mean - math.lgamma(j + 1))
    terms = []
    while term > 1e-20 * first:
        terms.append(term)
        j += 1
        term = math.exp(-mean + j * log_mean - math.lgamma(j + 1))
    return math.fsum(terms)


def fock_truncation(params: ModelParams) -> int:
    """Truncation index N from the invariant-disc radius abar = |F|/k.

    Every field block stays an outer product of coherent states whose
    amplitudes obey d beta/dt = -(k +- i w) beta - iF, so
    d|beta|/dt <= -k|beta| + |F| and the disc |beta| <= abar is invariant.
    The start -iF/k lies on its rim, so each block's photon number is
    Poisson with mean at most abar^2 for all t (Glauber, Phys. Rev. 131,
    2766, 1963).  N is one level above the smallest k with
    P(Poisson(abar^2) > k) <= 1e-18, found by bisection on a direct sum of
    the Poisson tail; the extra level keeps the top one, which the edge
    guard watches, clear of the tail.  The weight is 1e-18 because the
    truncation error in trace distance goes as its square root: at 1e-12
    the worst trace distance to the dense closed form on the 200-point c1
    grid is 1.2e-8 to 8.4e-8 over the five c1 sets, at 1e-18 it is 0.7e-10
    to 1.3e-10.  abar = 0 gives N = 1.  Raises :class:`OracleError` when an
    integration at that truncation would not fit
    :data:`MEMORY_BUDGET_BYTES`, without summing when abar^2 is above 10^4.
    """
    abar = abs(params.drive) / params.kappa
    mean = abar * abar
    # the Poisson median is at least floor(mean), so the tail there is at
    # least 1/2 and N is at least floor(mean) + 1
    if mean > _LARGEST_SUMMED_MEAN:
        _check_affordable(math.floor(mean) + 2)
    # Poisson concentration, P(X >= mean + sqrt(2 mean x) + x) <= exp(-x) with
    # x = ln(1e18) < 42, bounds the quantile from above (finite: ModelParams
    # keeps abar^2 at most 1e300)
    fails, holds = math.floor(mean) - 1, math.ceil(mean + 42.0 + math.sqrt(84.0 * mean))
    while holds - fails > 1:
        mid = (fails + holds) // 2
        if _poisson_tail(mid, mean) <= _TAIL_WEIGHT:
            holds = mid
        else:
            fails = mid
    truncation = holds + 1
    _check_affordable(truncation + 1)
    return truncation


def lowering_operator(n_levels: int) -> np.ndarray:
    """Annihilation operator a on the Fock levels 0 .. n_levels - 1."""
    return np.diag(np.sqrt(np.arange(1, n_levels)), 1).astype(complex)


def displacement_operator(alpha: complex, n_levels: int) -> np.ndarray:
    """D(alpha) = exp(alpha a_dag - conj(alpha) a) on the truncated space.

    The truncated generator is -i|alpha| W X W^-1, with X = a + a_dag the
    real symmetric tridiagonal Hermite Jacobi matrix and W =
    diag(exp(i n (arg alpha + pi/2))), so the exponential comes from the
    eigenbasis of X (Golub & Welsch, Math. Comp. 23, 221, 1969).  At the
    truncations the Lie checks use, neither the tridiagonal eigensolver nor
    the one n x n product starts the BLAS thread pool; a dense matrix
    exponential does.
    """
    lam, vecs = scipy.linalg.eigh_tridiagonal(
        np.zeros(n_levels), np.sqrt(np.arange(1.0, n_levels))
    )
    phase = np.exp(1j * np.arange(n_levels) * (np.angle(alpha) + 0.5 * np.pi))
    rotated = (vecs * np.exp(-1j * abs(alpha) * lam)) @ vecs.T
    return phase[:, None] * rotated * phase.conj()


def ladder_exponential(c: complex, n_levels: int) -> np.ndarray:
    """exp(c a) on the truncated space; its transpose is exp(c a_dag).

    a is nilpotent there, so the series is finite: entry (m, n) is
    c^(n-m) sqrt(n!/m!)/(n-m)! for n >= m and zero below the diagonal
    (Cahill & Glauber, Phys. Rev. 177, 1857, 1969).  Each row is one
    cumulative product of the steps c sqrt(n)/(n-m) along its columns.
    """
    ns = np.arange(n_levels)
    steps = ns - ns[:, None]
    factors = np.where(steps > 0, c * np.sqrt(ns) / np.maximum(steps, 1), 1.0)
    return np.triu(np.cumprod(factors, axis=1))


def coherent_state_vector(alpha, n_levels: int) -> np.ndarray:
    """Fock coefficients of |alpha> up to n_levels, via a log-space recurrence.

    Array-capable in alpha: the result has shape alpha.shape + (n_levels,).
    """
    alpha = np.asarray(alpha, dtype=complex)
    ns = np.arange(n_levels)
    modulus = np.abs(alpha)[..., None]
    vacuum = modulus == 0.0
    log_mod = np.log(np.where(vacuum, 1.0, modulus))
    logs = ns * log_mod - 0.5 * np.cumsum(np.log(np.maximum(ns, 1)))
    vec = np.exp(-0.5 * modulus**2 + logs) * np.exp(1j * ns * np.angle(alpha)[..., None])
    return np.where(vacuum, (ns == 0).astype(complex), vec)


def ladder_maps(n_levels: int):
    """The maps X -> a X, a_dag X, X a, X a_dag on column-stacked n_levels-square X.

    vec(A X B) = kron(B^T, A) vec(X), so left multiplication lands in the
    second Kronecker factor and right multiplication in the first.  Returns
    (a_left, a_left_dag, a_right, a_right_dag) as sparse CSR matrices.
    """
    a = scipy.sparse.csr_matrix(lowering_operator(n_levels))
    a_dag = a.conj().T
    eye = scipy.sparse.identity(n_levels, dtype=complex, format="csr")
    return tuple(
        scipy.sparse.kron(right, left, format="csr")
        for right, left in ((eye, a), (eye, a_dag), (a.T, eye), (a_dag.T, eye))
    )


def joint_matrix(ee: np.ndarray, gg: np.ndarray, eg: np.ndarray) -> np.ndarray:
    """Dense joint matrix of its ee, gg and eg field blocks; the ge block is eg^dag."""
    n = ee.shape[-1]
    rho = np.empty((2 * n, 2 * n), complex)
    rho[:n, :n] = ee
    rho[n:, n:] = gg
    rho[:n, n:] = eg
    rho[n:, :n] = eg.conj().T
    return rho


def _blocks(data: np.ndarray) -> np.ndarray:
    """View of joint matrices as [..., x, i, y, j]: entry (i, j) of field block rho_xy."""
    n = data.shape[-1] // 2
    return data.reshape(data.shape[:-2] + (2, n, 2, n))


def initial_state(
    params: ModelParams, amps: AtomicAmplitudes, n_fock: int | None = None
) -> FockDensityMatrix:
    """Pure product start: atomic superposition x stationary coherent field.

    An explicit ``n_fock`` must be an integer >= 2, the fewest levels
    :func:`fock_truncation` gives, or ValueError is raised.
    """
    if n_fock is None:
        n = fock_truncation(params) + 1
    else:
        if not (isinstance(n_fock, (int, np.integer)) and n_fock >= 2):
            raise ValueError(f"n_fock must be an integer >= 2, got {n_fock!r}")
        _check_affordable(n_fock)
        n = n_fock
    field_vec = coherent_state_vector(stationary_amplitude(params), n)
    kets = {"e": amps.c_e * field_vec, "g": amps.c_g * field_vec}
    data = joint_matrix(*(np.outer(kets[x], kets[y].conj()) for x, y in ("ee", "gg", "eg")))
    return FockDensityMatrix(n_fock=n, data=data, time=0.0)


# ---------------------------------------------------------------- generator & evolution

def _liouvillian(params: ModelParams, n_fock: int, blocks):
    """Sparse Liouvillian of the field blocks ``blocks``, joined block-diagonally.

    Each block rho_xy is named by its atomic levels, as in ("ee", "gg",
    "eg"), and is column-stacked.  Neither H nor the jump flips the atom, so
    each block obeys d rho_xy/dt = -i(H_x rho_xy - rho_xy H_y) + k(2 a rho_xy
    a_dag - ...) with H_e = w(a_dag a + 1) + V, H_g = -w a_dag a + V and
    V = F a_dag + conj(F) a.  In the maps of :func:`ladder_maps` that is
    -i(H_x,left - H_y,right) + k(2J - M - P), with J: X -> a X a_dag and the
    number maps M: X -> a_dag a X and P: X -> X a_dag a.

    The CSR arrays are filled from index arithmetic (Saad, *Iterative
    Methods for Sparse Linear Systems*, 2nd ed., 2003, sec. 3.4), with no
    sparse algebra.  X[i, j] of a block sits at r = i + j n, n = N + 1, and
    row r holds at most six entries, already in column order: at r - n the
    drive on X a, i conj(F) sqrt(j); at r - 1 the drive on a_dag X,
    -iF sqrt(i); at r the diagonal -i(H_x(i) - H_y(j)) - k(i + j), with
    the number i as sqrt(i)^2; at r + 1 the drive on a X, -i conj(F)
    sqrt(i + 1); at r + n the drive on X a_dag, iF sqrt(j + 1); and at
    r + n + 1 the jump 2k sqrt(i + 1) sqrt(j + 1).  Each value is formed by
    the float operations of the sums and products of the ladder maps, in
    their order: ``-1j * (F * (s - 0))`` and ``-1j * (conj(F) * (0 - s))``
    for the drive, ``k * (2.0 * (s_i * s_j))`` for the jump, with s the
    complex sqrt.  Every entry then gets ``+ 0.0``, as a sparse sum adds,
    so no zero is negative, and entries exactly zero are dropped, so the
    matrix is entry for entry that product form.  Indices are int32.  The
    six slots of every row are filled in one padded array and compressed
    once: for three blocks the build peaks at about 43 complex entries per
    (N+1)^2, under twice the matrix it returns.
    """
    w, k, F = params.omega, params.kappa, complex(params.drive)
    n, rows = n_fock, len(blocks) * n_fock * n_fock
    ladder = np.sqrt(np.arange(n))
    s = ladder.astype(complex)
    number = ladder * ladder
    energy = {"e": w * (number + 1.0), "g": -w * number}
    damping = k * (-number[:, None] - number)
    # slots[b, j, i, c]: entry c of row i + j n of block b; a slot the
    # Fock edge leaves out stays zero and is dropped with the zero entries
    slots = np.zeros((len(blocks), n, n, 6), complex)
    slots[:, 1:, :, 0] = (-1j * (np.conj(F) * (0 - s[1:])))[:, None]
    slots[:, :, 1:, 1] = -1j * (F * (s[1:] - 0))
    for b, (x, y) in enumerate(blocks):
        slots[b, :, :, 2] = (damping - 1j * (energy[x][:, None] - energy[y])).T
    slots[:, :, :-1, 3] = -1j * (np.conj(F) * (s[1:] - 0))
    slots[:, :-1, :, 4] = (-1j * (F * (0 - s[1:])))[:, None]
    slots[:, :-1, :-1, 5] = k * (2.0 * (s[1:, None] * s[1:]))
    slots += 0.0
    slots = slots.reshape(rows, 6)
    stored = slots != 0
    indptr = np.zeros(rows + 1, np.int32)
    np.cumsum(stored.sum(axis=1, dtype=np.int32), out=indptr[1:])
    offsets = np.array([-n, -1, 0, 1, n, n + 1], np.int32)
    indices = (np.arange(rows, dtype=np.int32)[:, None] + offsets)[stored]
    data = slots[stored]
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(rows, rows))


def field_liouvillian(params: ModelParams, n_fock: int, left: str, right: str):
    """Sparse Liouvillian of one field block rho_xy, column-stacked.

    ``left`` and ``right`` name the atomic levels x and y, each ``"e"`` or
    ``"g"``.  The matrix is :func:`_liouvillian` of the one block, which
    also builds the propagator's block matrix: CSR arrays filled from the
    six-entry row stencil, entry for entry the sums and products of the
    maps of :func:`ladder_maps`, with int32 indices.
    """
    if not {left, right} <= {"e", "g"}:
        raise ValueError(f"field block levels must be 'e' or 'g', got {left!r}, {right!r}")
    return _liouvillian(params, n_fock, [(left, right)])


# scipy's compiled CSR product y += A x, imported by :func:`matvec_into` on
# first use, so that importing the package loads no scipy submodule
_CSR_MATVEC = None


def matvec_into(liouvillian):
    """The map (y, out) -> out += L y of a CSR matrix L, by scipy's compiled kernel.

    The kernel is ``scipy.sparse._sparsetools.csr_matvec``, the one that
    ``L @ y`` runs on a freshly zeroed result, so a zeroed ``out`` receives
    the bits of ``L @ y`` without a new array.  L is checked once, here:
    CSR with complex128 data and both index arrays of one dtype, or
    ValueError.  Each call checks the lengths of y and ``out``, which the
    kernel reads and writes unchecked, and raises ValueError on a mismatch;
    ``out`` must be complex128.
    """
    global _CSR_MATVEC
    if not (
        scipy.sparse.issparse(liouvillian)
        and liouvillian.format == "csr"
        and liouvillian.dtype == np.complex128
        and liouvillian.indptr.dtype == liouvillian.indices.dtype
    ):
        raise ValueError(
            "expected a CSR matrix with complex128 data and one index dtype, got "
            f"{type(liouvillian).__name__} of dtype {getattr(liouvillian, 'dtype', None)}"
        )
    if _CSR_MATVEC is None:
        from scipy.sparse._sparsetools import csr_matvec

        _CSR_MATVEC = csr_matvec
    kernel = _CSR_MATVEC
    rows, cols = liouvillian.shape
    indptr, indices, data = liouvillian.indptr, liouvillian.indices, liouvillian.data
    shapes = (cols,), (rows,)

    def matvec(y: np.ndarray, out: np.ndarray) -> None:
        if (y.shape, out.shape) != shapes:
            raise ValueError(
                f"a {rows} x {cols} matrix maps {shapes[0]} into {shapes[1]}, "
                f"got {y.shape} into {out.shape}"
            )
        kernel(rows, cols, indptr, indices, data, y, out)

    return matvec


def build_generator(params: ModelParams, n_fock: int):
    """Right-hand side of the master equation as a map on packed field blocks.

    d rho/dt = -i[H, rho] + k(2 a rho a_dag - a_dag a rho - rho a_dag a)
    with H = w[(a_dag a + 1) P_e - a_dag a P_g] + (F a_dag + conj(F) a).
    The ee, gg and eg Liouvillians (see :func:`field_liouvillian`) form one
    block-diagonal sparse matrix L acting on [vec ee, vec gg, vec eg] (see
    :func:`_pack`), built by one call of :func:`_liouvillian`, which fills
    its CSR arrays directly, block after block in one padded array, with
    no sparse algebra.  Returns the map (y, out) -> out += L y of
    :func:`matvec_into`, one compiled sparse product per evaluation.
    """
    return matvec_into(_liouvillian(params, n_fock, ("ee", "gg", "eg")))


def _pack(rho: np.ndarray, n_fock: int) -> np.ndarray:
    """[vec ee, vec gg, vec eg] of a dense joint matrix, each block column-stacked."""
    n = n_fock
    return np.concatenate(
        [rho[:n, :n].ravel("F"), rho[n:, n:].ravel("F"), rho[:n, n:].ravel("F")]
    )


def _unpack(y: np.ndarray, n_fock: int) -> np.ndarray:
    """Dense joint matrix of a packed vector, with the ge block rebuilt as eg^dag."""
    return joint_matrix(*y.reshape(3, n_fock, n_fock).transpose(0, 2, 1))


def _edge_population(rho: np.ndarray, n_fock: int) -> float:
    return max(abs(rho[n_fock - 1, n_fock - 1]), abs(rho[-1, -1]))


def _weighted_rms(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """RMS of |x| / scale along the last axis, by ufuncs and pairwise sums (no BLAS call).

    The mean is np.mean's own sum and division, without its Python wrapper.
    """
    ratio = np.abs(x)
    ratio /= scale
    ratio *= ratio
    return np.sqrt(np.add.reduce(ratio, axis=-1) / x.shape[-1])


def _taylor_values(terms: np.ndarray, offsets: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k terms[k] s^k for each s in ``offsets``, one row of ``out`` each.

    One einsum over the real view of the terms (the powers are real): a C
    sum of products, no BLAS call.  ``out`` is a real buffer of at least
    as many rows; the complex view of the rows used is returned.
    """
    powers = np.power.outer(offsets, np.arange(terms.shape[0], dtype=float))
    rows = out[: offsets.size]
    np.einsum("pk,kd->pd", powers, terms.view(float), out=rows)
    return rows.view(complex)


def _requested_times(times, t0: float) -> np.ndarray:
    """``times`` as a 1-D float array, or ValueError unless finite, non-decreasing and >= t0."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError(f"requested time {times[~np.isfinite(times)][0]} is not finite")
    if times.size and times[0] < t0:
        raise ValueError("requested times precede the initial state")
    if np.any(np.diff(times) < 0):
        raise ValueError("requested times must be non-decreasing")
    return times


def propagate(generator, y0: np.ndarray, t0: float, times, config: IntegratorConfig, edges,
              label: str):
    """Yield (t, exp((t - t0) L) y0) at each requested time; generator(y, out) adds L y to out.

    The package's one propagation engine: the Taylor series of exp(hL) cut
    at degree 16 (Moler & Van Loan, SIAM Rev. 45, 3, 2003; Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488, 2011).  ``generator`` is the map
    of :func:`matvec_into` (or of :func:`build_generator`), and ``y0`` a
    1-D complex128 array, or ValueError.  ``times`` must be finite,
    non-decreasing and start at or after ``t0``.  A step from state y
    zeroes its term rows 1 to 16 with one fill, then computes the terms
    L^k y / k!, one generator call into row k each, scaled in place by
    1/k, and takes the largest h for which the last two, times h^15 and
    h^16, have weighted RMS norm at most 1, with weights abs_tol + rel_tol
    |y|.  The step size comes from terms already computed, so no step is
    rejected.  The step end and every requested time inside the step are
    evaluated together, as sums of the terms times the powers of each
    offset, in chunks of at most 16 states or 4 MiB (one state when a
    state is larger), and the last step ends exactly on the last time.  No
    BLAS routine is called.

    A time at ``t0`` yields ``y0`` itself and any later time a view that
    the next state overwrites, so a caller that keeps a state copies it.
    Raises :class:`OracleError` when an entry of ``y`` at an index in
    ``edges`` exceeds 1e-8 in modulus at the end of any step (before any
    time inside that step is yielded), the state turns non-finite, or a
    step no longer advances t.  It is raised too, naming ``label``, when
    the first step's rate times the span, times the state length, exceeds
    the work budget of 2e8 step-entries (before anything in the first
    step is yielded), or when the steps taken times the state length pass
    it; the check adds no arithmetic to the state.  A finished
    propagation logs one debug record: ``label``, the span, steps,
    generator calls (16 per step), points evaluated and the largest edge
    modulus seen.
    """
    y0 = np.asarray(y0)
    if y0.ndim != 1 or y0.dtype != np.complex128:
        raise ValueError(f"expected a 1-D complex128 state, got {y0.ndim}-D {y0.dtype}")
    times = _requested_times(times, t0)
    ptr = 0
    # emit any points sitting exactly at the start
    while ptr < times.size and times[ptr] <= t0:
        yield float(times[ptr]), y0
        ptr += 1
    if ptr == times.size:
        return
    m, y_size = _TAYLOR_DEGREE, y0.size
    terms = np.empty((m + 1, y_size), complex)
    terms[0] = y0
    del y0  # the first term holds the state: a caller's temporary is freed here
    end = np.empty_like(terms[0])
    # one evaluation chunk: a state per row, no more than series stacks,
    # and no more than the step end and the times left
    rows = max(1, min(_STACK_POINTS, _STACK_BYTES // terms[0].nbytes, times.size - ptr + 1))
    values = np.empty((rows, 2 * terms.shape[1]))
    t, t_last = t0, float(times[-1])
    steps = outputs = 0
    max_edge = 0.0
    while ptr < times.size:
        # the generator adds into its output row
        terms[1:] = 0.0
        for k in range(1, m + 1):
            generator(terms[k - 1], terms[k])
            # a real product with 1/k: a complex product, or any division, is slower
            row = terms[k].view(float)
            np.multiply(row, 1.0 / k, out=row)
        scale = np.abs(terms[0])
        scale *= config.rel_tol
        scale += config.abs_tol
        # 1/rate is the largest h with h^(m-1) |T_(m-1)| <= 1 and h^m |T_m| <= 1
        last, final = _weighted_rms(terms[m - 1:], scale)
        rate = float(max(last ** (1.0 / (m - 1)), final ** (1.0 / m)))
        if not math.isfinite(rate):
            raise OracleError(f"state turned non-finite at t={t:.6g}")
        if rate * (t_last - t) <= 1.0:
            t_next = t_last
        elif t + 1.0 / rate > t:
            t_next = t + 1.0 / rate
        else:
            raise OracleError(f"step size {1.0 / rate:.3e} no longer advances t={t:.6g}")
        steps += 1
        if steps == 1:
            # the first step's rate predicts the steps of the span
            predicted = rate * (t_last - t0)
        # the steps taken count too, should the steps shrink later on
        if max(predicted, steps) * y_size > _WORK_BUDGET:
            raise OracleError(
                f"{label}: about {predicted:.3g} Taylor steps of {y_size} entries predicted "
                f"to reach t={t_last:.6g} ({steps} taken), over the oracle work budget of "
                f"{_WORK_BUDGET:.3g} step-entries"
            )
        # the step end first, then the requested times in (t, t_next]
        stop = int(np.searchsorted(times, t_next, side="right"))
        offsets = np.concatenate(([t_next - t], times[ptr:stop] - t))
        for first in range(0, offsets.size, rows):
            chunk = _taylor_values(terms, offsets[first : first + rows], values)
            if first == 0:
                end[:] = chunk[0]
                edge = max(abs(end[i]) for i in edges)
                if edge > 1e-8:
                    raise OracleError(
                        f"edge Fock population {edge:.3e} at t={t_next:.6g}: truncation blow-up"
                    )
                max_edge = max(max_edge, edge)
                chunk = chunk[1:]
            for point in chunk:
                yield float(times[ptr]), point
                ptr += 1
                outputs += 1
        terms[0] = end
        t = t_next
    log.debug(
        "integrated %s over [%g, %g]: %d steps, %d RHS evaluations, %d outputs, "
        "max edge population %.3e",
        label, t0, t, steps, m * steps, outputs, max_edge,
    )


def evolve_trajectory(
    params: ModelParams,
    rho0: FockDensityMatrix,
    times,
    config: IntegratorConfig | None = None,
):
    """Yield (t, dense matrix) at each requested time along one integration.

    ``times`` must be finite, non-decreasing and start at or after
    ``rho0.time``; they are checked before the generator is built.  The
    packed field blocks of :func:`build_generator` (the ge block of
    ``rho0`` is not read: a density matrix has ge = eg^dag) are propagated
    by :func:`propagate` with that generator, the block Liouvillian's
    compiled sparse product; the engine guards the edge populations ee[N, N] and
    gg[N, N], raises its :class:`OracleError` and logs its debug record
    labelled with N.  Each state is unpacked to a fresh dense matrix; a
    time at ``rho0.time`` yields a copy of ``rho0.data``.  No BLAS routine
    is called, so the matrices do not depend on the BLAS thread count.
    """
    times = _requested_times(times, rho0.time)
    if times.size == 0:
        return
    n = rho0.n_fock
    edges = (n * n - 1, 2 * n * n - 1)  # ee[N, N] and gg[N, N] in the packed vector
    for t, y in propagate(
        build_generator(params, n), _pack(rho0.data, n), rho0.time, times,
        config or IntegratorConfig(), edges, f"N={n - 1}",
    ):
        yield t, (rho0.data.copy() if t <= rho0.time else _unpack(y, n))


def evolve(
    params: ModelParams,
    rho0: FockDensityMatrix,
    t_end: float,
    config: IntegratorConfig | None = None,
) -> FockDensityMatrix:
    """Integrate the master equation from rho0 to t_end.

    The returned state is trace-renormalized (drift is logged and must be
    at most 1e-8) and satisfies all :class:`FockDensityMatrix` invariants.
    """
    if t_end < rho0.time:
        raise ValueError("t_end precedes the initial state")
    if t_end == rho0.time:
        return FockDensityMatrix(rho0.n_fock, rho0.data.copy(), rho0.time)
    final = None
    for _, mat in evolve_trajectory(params, rho0, [t_end], config):
        final = mat
    tr = float(np.real(np.trace(final)))
    drift = abs(tr - 1.0)
    log.debug("trace drift %.3e over [%g, %g]", drift, rho0.time, t_end)
    if drift > 1e-8:
        raise OracleError(f"trace drift {drift:.3e} exceeds 1e-8")
    return FockDensityMatrix(rho0.n_fock, final / tr, float(t_end)).validate()


def _matrices(rho) -> np.ndarray:
    return rho.data if isinstance(rho, FockDensityMatrix) else np.asarray(rho)


def partial_trace_field(rho: FockDensityMatrix | np.ndarray) -> np.ndarray:
    """Trace out the field: 2x2 atomic matrix (index 0 = excited), per stacked state."""
    return np.einsum("...ikjk->...ij", _blocks(_matrices(rho)))


def partial_trace_atom(rho: FockDensityMatrix | np.ndarray) -> np.ndarray:
    """Trace out the atom: (N+1)x(N+1) field matrix, per stacked state."""
    return np.einsum("...kikj->...ij", _blocks(_matrices(rho)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b) for Hermitian inputs."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def _displaced_first_excited(coherent: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """D(alpha)|1> = (a_dag - conj(alpha))|alpha> for each row |alpha> of ``coherent``.

    One ladder step on the Fock coefficients (a_dag drops the top level),
    then Gram-Schmidt against |alpha> and normalisation, so each row is a
    unit vector orthogonal to its coherent row.  O(n) per row, where a
    column of the dense exponential D(alpha) costs O(n^3) and starts the
    BLAS thread pool.
    """
    n = coherent.shape[-1]
    out = np.zeros_like(coherent)
    out[:, 1:] = np.sqrt(np.arange(1.0, n)) * coherent[:, :-1]
    out -= np.conj(alpha)[:, None] * coherent
    out -= np.einsum("mi,mi->m", coherent.conj(), out)[:, None] * coherent
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def embed_two_qubit(
    rho: FockDensityMatrix | np.ndarray, beta_e_prime, beta_g_prime
) -> TwoQubitEmbedding:
    """Project the joint state onto atom x span{|beta_e'>, |beta_g'>}.

    The field basis is built by Gram-Schmidt with the first vector along
    |beta_e'>.  When the two coherent states coincide up to 1e-14 in
    overlap (disentanglement instants and t = 0), the span degenerates to
    one dimension; the second basis vector is then taken as the displaced
    first-excited direction D(beta_e')|1>, one ladder step on |beta_e'>,
    and the result is flagged.  Each field block rho_xy is projected as
    basis^H rho_xy basis.

    A stack of m joint matrices takes m amplitudes of each kind and gives
    an (m, 4, 4) matrix with per-state leakage and degenerate arrays; one
    matrix gives a 4x4 matrix, a float and a bool.
    """
    data = _matrices(rho)
    stack = data.reshape((-1,) + data.shape[-2:])
    m, n = stack.shape[0], stack.shape[-1] // 2
    u = np.broadcast_to(np.asarray(beta_e_prime, dtype=complex), (m,))
    v = np.broadcast_to(np.asarray(beta_g_prime, dtype=complex), (m,))
    f1 = coherent_state_vector(u, n)
    f2_raw = coherent_state_vector(v, n)
    overlap = np.einsum("mi,mi->m", f1.conj(), f2_raw)
    degenerate = np.abs(overlap) > 1.0 - 1e-14
    f2 = f2_raw - overlap[:, None] * f1
    norm = np.linalg.norm(f2, axis=1, keepdims=True)
    f2 = f2 / np.where(degenerate[:, None], 1.0, norm)
    f2[degenerate] = _displaced_first_excited(f1[degenerate], u[degenerate])
    basis = np.stack([f1, f2], axis=-1)  # m x n x 2
    blocks = _blocks(stack).transpose(0, 1, 3, 2, 4)  # [m, x, y] = rho_xy
    reduced = (
        basis.conj().transpose(0, 2, 1)[:, None, None] @ blocks @ basis[:, None, None]
    )  # [m, x, y, a, b]
    reduced = reduced.transpose(0, 1, 3, 2, 4).reshape(m, 4, 4)
    tr = np.real(np.trace(reduced, axis1=1, axis2=2))
    matrix = reduced / tr[:, None, None]
    if data.ndim == 2:
        return TwoQubitEmbedding(matrix[0], float(1.0 - tr[0]), bool(degenerate[0]))
    return TwoQubitEmbedding(matrix, 1.0 - tr, degenerate)


_SIGMA_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real


def wootters_concurrence(rho4: np.ndarray):
    """Concurrence of a two-qubit density matrix, or of each in a stack.

    Uses the eigenvalues of rho * rho_tilde with rho_tilde =
    (sy x sy) conj(rho) (sy x sy): their square roots sorted descending
    give C = max(0, x1 - x2 - x3 - x4).  A 4x4 matrix gives a float, an
    (m, 4, 4) stack an array of m; any matrix that is not positive
    semidefinite within 1e-8 raises ValueError.
    """
    rho4 = np.asarray(rho4)
    if rho4.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if float(np.min(np.linalg.eigvalsh(rho4)[..., 0])) < -1e-8:
        raise ValueError("input is not positive semidefinite within 1e-8")
    rho_tilde = _SIGMA_YY @ rho4.conj() @ _SIGMA_YY
    evals = np.linalg.eigvals(rho4 @ rho_tilde)
    x = np.sqrt(np.sort(np.abs(np.real(evals)), axis=-1)[..., ::-1])
    conc = np.maximum(0.0, x[..., 0] - x[..., 1] - x[..., 2] - x[..., 3])
    return float(conc) if conc.ndim == 0 else conc


def observables(rho: FockDensityMatrix | np.ndarray) -> dict:
    """The measured quantities of one joint state as floats, or of a stack as arrays.

    purity = tr rho^2 = ||ee||^2 + ||gg||^2 + 2||eg||^2 (Frobenius norms of
    the field blocks, with ge = eg^dag); linear_entropy = 1 - purity;
    zeta_atom, zeta_field = 1 - tr rho_A^2, 1 - tr rho_F^2; corr_c =
    ||rho - rho_A x rho_F||^2 without forming the product; nbar = mean
    photon number of the reduced field; coherence_magnitude = trace norm
    of the excited-ground block (exp(Re phi)/2 for the balanced state).
    The concurrence is :func:`wootters_concurrence` of :func:`embed_two_qubit`.
    """
    data = _matrices(rho)
    n = data.shape[-1] // 2
    ee, gg, eg = data[..., :n, :n], data[..., n:, n:], data[..., :n, n:]

    def norm_sq(block):
        return np.einsum("...ij,...ij->...", block.conj(), block).real

    purity = norm_sq(ee) + norm_sq(gg) + 2.0 * norm_sq(eg)
    photons = np.einsum("...kk->...k", ee + gg).real
    nbar = photons @ np.arange(n, dtype=float)
    coher = np.linalg.svd(eg, compute_uv=False).sum(axis=-1)
    atom = partial_trace_field(data)
    field = partial_trace_atom(data)
    # tr(rho_xy rho_F) for each pair of atomic levels
    overlap = np.einsum("...xiyj,...ji->...xy", _blocks(data), field)
    atom_purity = np.einsum("...ij,...ji->...", atom, atom).real
    field_purity = np.einsum("...ij,...ji->...", field, field).real
    # ||rho - rho_A x rho_F||^2 = tr rho^2 - 2 tr[rho (rho_A x rho_F)] + tr rho_A^2 tr rho_F^2,
    # where tr[rho (rho_A x rho_F)] = sum_xy (rho_A)_yx tr(rho_xy rho_F)
    cross = np.einsum("...yx,...xy->...", atom, overlap).real
    columns = {
        "purity": purity,
        "linear_entropy": 1.0 - purity,
        "zeta_atom": 1.0 - atom_purity,
        "zeta_field": 1.0 - field_purity,
        "corr_c": purity - 2.0 * cross + atom_purity * field_purity,
        "nbar": nbar,
        "coherence_magnitude": coher,
    }
    if data.ndim == 2:
        return {key: float(value) for key, value in columns.items()}
    return columns


def series(
    params: ModelParams,
    times,
    beta_e_prime,
    beta_g_prime,
    config: IntegratorConfig | None = None,
) -> dict:
    """Integrated counterparts of the compared observables on a time grid.

    One master-equation integration per call.  Emitted matrices are
    measured in stacks of up to 16 (fewer at large N), so memory does not
    grow with the grid: one :func:`observables` call gives every column
    but the concurrence (``zeta_global`` is its linear entropy, ``re_phi``
    log(2 * coherence magnitude)).  ``beta_e_prime`` and ``beta_g_prime``
    hold one conditioned field amplitude of each kind per time: the
    concurrence column embeds each state in two qubits along them (see
    :func:`embed_two_qubit`), and the caller supplies them, so this module
    needs no closed form.
    """
    times = np.asarray(times, dtype=float)
    u = np.asarray(beta_e_prime, dtype=complex)
    v = np.asarray(beta_g_prime, dtype=complex)
    if u.shape != times.shape or v.shape != times.shape:
        raise ValueError(
            f"expected one amplitude of each kind per time {times.shape}, "
            f"got {u.shape} and {v.shape}"
        )
    rho0 = initial_state(params, AtomicAmplitudes.symmetric())
    out = {
        key: np.empty(times.size)
        for key in ("zeta_global", "zeta_atom", "zeta_field", "corr_c", "concurrence", "re_phi")
    }
    d = 2 * rho0.n_fock
    points = max(1, min(_STACK_POINTS, _STACK_BYTES // (16 * d * d), times.size))
    stack = np.empty((points, d, d), complex)
    held = 0
    for i, (_, mat) in enumerate(evolve_trajectory(params, rho0, times, config)):
        stack[held] = mat
        held += 1
        if held == stack.shape[0] or i == times.size - 1:
            done = slice(i + 1 - held, i + 1)
            obs = observables(stack[:held])
            emb = embed_two_qubit(stack[:held], u[done], v[done])
            out["zeta_global"][done] = obs["linear_entropy"]
            for key in ("zeta_atom", "zeta_field", "corr_c"):
                out[key][done] = obs[key]
            out["concurrence"][done] = wootters_concurrence(emb.matrix)
            with np.errstate(divide="ignore"):  # -inf where the coherence vanishes
                out["re_phi"][done] = np.log(2.0 * obs["coherence_magnitude"])
            held = 0
    return out
