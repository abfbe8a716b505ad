"""End-to-end acceptance suite for the closed-form dynamics.

Eight numbered criteria cover the build: (1) closed-form observables
against the brute-force master-equation integrator across five parameter
sets, (2) approach to the stationary regime, (3) the three characteristic
decoherence time scales, (4) critical instants of the field entropy,
(5) the concurrence closed form against the two-qubit Wootters formula,
(6) the Lie-algebraic solution (ODE residuals, commutator table,
disentangling identities), (7) exact limiting reductions and drive-phase
invariance, and (8) byte-identical CSV output.

Each ``criterion_*`` function measures its guarantees against pinned
tolerances and returns :class:`CheckResult` rows; :func:`run_all` chains
all eight and :func:`format_report` renders one PASS/FAIL/SKIP line per
row.  The expensive shared ingredient, the five integrated reference
trajectories, is built once by :func:`reference_traces` and reused by
criteria 1 and 5.  :func:`dense_state` expands the closed-form blocks of
:func:`.analytic.matrix_elements` and :func:`.analytic.stationary_state`
into the dense matrices criteria 2 and 5 compare against, laid out by
:func:`.oracle.joint_matrix`; it lives here, so the integrator in
:mod:`.oracle` never reads a closed form.  Every
closed form is read through :mod:`.analytic`'s public functions.
"""

from __future__ import annotations

import cmath
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, lie, oracle
from .model import AtomicAmplitudes, ModelParams, TimeGrid, make_params

__all__ = [
    "CheckResult",
    "ReferenceTrace",
    "PARAMETER_SETS",
    "COMPARED_OBSERVABLES",
    "reference_traces",
    "dense_state",
    "criterion_1",
    "criterion_2",
    "criterion_3",
    "criterion_4",
    "criterion_5",
    "criterion_6",
    "criterion_7",
    "criterion_8",
    "run_all",
    "format_report",
]

#: Verification grid as (kappa/omega, |drive|/kappa) pairs with omega = 1:
#: the central set, weak and strong damping, weak and strong drive.
PARAMETER_SETS = ((0.2, 1.0), (1.0, 1.0), (5.0, 1.0), (0.2, 0.5), (0.2, 2.0))

#: Observables compared point by point between closed form and integrator.
COMPARED_OBSERVABLES = ("zeta_global", "zeta_atom", "zeta_field", "corr_c", "concurrence")

# grid of the reference trajectories, and the rows of each figure table c8 compares
_TRACE_POINTS, _TRACE_T_MAX = 200, 4.0 * math.pi
_FIGURE_POINTS = 2001


@dataclass(frozen=True)
class CheckResult:
    """One acceptance measurement against its pinned tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    skipped: bool = False
    detail: str = ""


@dataclass(frozen=True)
class ReferenceTrace:
    """Closed-form and integrated observable columns on one time grid."""

    params: ModelParams
    times: np.ndarray
    analytic_columns: dict
    oracle_columns: dict
    fock_truncation: int


def _skip(name: str, tolerance: float) -> CheckResult:
    return CheckResult(name, True, math.nan, tolerance, skipped=True)


def reference_traces(
    config: oracle.IntegratorConfig | None = None,
) -> tuple[list[ReferenceTrace], float]:
    """Integrate all five verification parameter sets once on the reference grid.

    Returns the traces and the wall-clock seconds the batch took.
    """
    start = time.perf_counter()
    traces = []
    for k_ow, f_ok in PARAMETER_SETS:
        params = make_params(k_ow, f_ok)
        times = np.linspace(0.0, _TRACE_T_MAX, _TRACE_POINTS)
        pair = analytic.coherent_pair(params, times)
        traces.append(
            ReferenceTrace(
                params=params,
                times=times,
                analytic_columns=analytic.observables(params, times),
                oracle_columns=oracle.series(
                    params, times, pair.beta_e_prime, pair.beta_g_prime, config
                ),
                fock_truncation=oracle.fock_truncation(params),
            )
        )
    return traces, time.perf_counter() - start


def dense_state(blocks: dict, n_fock: int) -> np.ndarray:
    """Dense joint state on n_fock Fock levels from closed-form blocks.

    ``blocks`` is the {'rho_ee', 'rho_gg', 'rho_eg'} dict of
    :func:`.analytic.matrix_elements` or :func:`.analytic.stationary_state`;
    the ge block is the adjoint of the eg block.
    """

    def block(elem):
        ket = oracle.coherent_state_vector(elem.ket_amplitude, n_fock)
        bra = oracle.coherent_state_vector(elem.bra_amplitude, n_fock)
        return elem.weight * np.outer(ket, bra.conj())

    return oracle.joint_matrix(*(block(blocks[key]) for key in ("rho_ee", "rho_gg", "rho_eg")))


# ---------------------------------------------------------------- criteria

def criterion_1(traces: list[ReferenceTrace], elapsed: float) -> list[CheckResult]:
    """Closed form vs integrator on five parameter sets, within 1e-4, under 5 min."""
    if not traces:
        return [_skip("c1_closed_form_vs_oracle", 1e-4)]
    rows = []
    for tr in traces:
        kappa = tr.params.kappa
        f_ok = abs(tr.params.drive) / kappa
        devs = {
            key: float(np.max(np.abs(tr.analytic_columns[key] - tr.oracle_columns[key])))
            for key in COMPARED_OBSERVABLES
        }
        worst = max(devs.values())
        detail = f"N={tr.fock_truncation}, " + ", ".join(
            f"{key}={val:.2e}" for key, val in devs.items()
        )
        rows.append(
            CheckResult(f"c1[k={kappa:g},f={f_ok:g}]", worst <= 1e-4, worst, 1e-4, detail=detail)
        )
    rows.append(
        CheckResult(
            "c1_runtime_seconds",
            elapsed <= 300.0,
            elapsed,
            300.0,
            detail=f"{len(traces)} trajectories, {traces[0].times.size} points each",
        )
    )
    return rows


def criterion_2(
    oracle_enabled: bool = True, config: oracle.IntegratorConfig | None = None
) -> list[CheckResult]:
    """Stationary regime: entropy saturation, oracle stationarity, mean photons."""
    params = make_params(1.0, 1.0)
    tau_lt, _, _ = analytic.characteristic_times(params)
    t_star = 30.0 / params.kappa + 30.0 * tau_lt
    dev = abs(float(analytic.zeta_global(params, t_star)) - 0.5)
    rows = [
        CheckResult(
            "c2_entropy_saturation", dev <= 1e-6, dev, 1e-6, detail=f"t={t_star:g}"
        )
    ]
    if not oracle_enabled:
        rows.append(_skip("c2_oracle_stationarity", 1e-3))
        rows.append(_skip("c2_oracle_mean_photons", 1e-4))
        return rows
    amps = AtomicAmplitudes.symmetric()
    rho = oracle.evolve(params, oracle.initial_state(params, amps), t_star, config)
    stat = dense_state(analytic.stationary_state(params, amps), rho.n_fock)
    dist = oracle.trace_distance(rho.data, stat)
    detail = f"N={rho.n_fock - 1}"
    rows.append(CheckResult("c2_oracle_stationarity", dist <= 1e-3, dist, 1e-3, detail=detail))
    nbar_dev = abs(oracle.observables(rho)["nbar"] - analytic.nbar_infinity(params))
    rows.append(
        CheckResult("c2_oracle_mean_photons", nbar_dev <= 1e-4, nbar_dev, 1e-4, detail=detail)
    )
    return rows


def criterion_3() -> list[CheckResult]:
    """The three decoherence time scales control their respective regimes.

    Short-time laws are checked by Richardson extrapolation (two
    evaluations at t0 and t0/2 cancel the next-order term); the long-time
    law by a central-difference slope deep in the linear regime; and the
    long-time scale by its exact reciprocal relation to the asymptotic
    amplitude separation.
    """
    sets = ((1.0, 1.0), (0.2, 0.2), (5.0, 5.0))  # (kappa, drive) at omega = 1
    cubic = quad = slope = ident = 0.0
    details: dict[str, list[str]] = {"cubic": [], "quad": [], "slope": [], "ident": []}

    def re_phi(params, t):
        return float(analytic.observables(params, t)["re_phi"])

    for kappa, drive in sets:
        params = ModelParams(1.0, kappa, drive)
        tau_lt, tau_st, tau_a = analytic.characteristic_times(params)
        tag = f"k={kappa:g}"

        t0 = tau_st / 100.0
        ratio = lambda t: -re_phi(params, t) * tau_st ** 3 / t ** 3
        r = 2.0 * ratio(t0 / 2.0) - ratio(t0)
        cubic = max(cubic, abs(r - 1.0))
        details["cubic"].append(f"{tag}:{abs(r - 1.0):.1e}")

        t0 = tau_a / 100.0
        ratio = lambda t: (
            float(analytic.coherent_pair(params, t).dist_sq) - 2.0 * re_phi(params, t)
        ) * tau_a ** 2 / t ** 2
        r = 2.0 * ratio(t0 / 2.0) - ratio(t0)
        quad = max(quad, abs(r - 1.0))
        details["quad"].append(f"{tag}:{abs(r - 1.0):.1e}")

        t1 = 30.0 / kappa
        h = 1e-3
        num = (re_phi(params, t1 + h) - re_phi(params, t1 - h)) / (2.0 * h)
        rate = analytic.re_phi_longtime_rate(params)
        slope = max(slope, abs(num / rate - 1.0))
        details["slope"].append(f"{tag}:{abs(num / rate - 1.0):.1e}")

        d2_inf = float(analytic.distance_sq_closed_form(params, 1e3 / kappa))
        ident = max(ident, abs(tau_lt * kappa * d2_inf - 1.0))
        details["ident"].append(f"{tag}:{abs(tau_lt * kappa * d2_inf - 1.0):.1e}")

    return [
        CheckResult("c3_short_time_cubic", cubic <= 1e-2, cubic, 1e-2,
                    detail=", ".join(details["cubic"])),
        CheckResult("c3_atom_short_time_quadratic", quad <= 1e-2, quad, 1e-2,
                    detail=", ".join(details["quad"])),
        CheckResult("c3_long_time_slope", slope <= 1e-3, slope, 1e-3,
                    detail=", ".join(details["slope"])),
        CheckResult("c3_lifetime_vs_separation", ident <= 1e-12, ident, 1e-12,
                    detail=", ".join(details["ident"])),
    ]


def criterion_4(
    oracle_enabled: bool = True, config: oracle.IntegratorConfig | None = None
) -> list[CheckResult]:
    """Critical instants in the weak-damping set (kappa/omega = 0.2)."""
    params = make_params(0.2, 1.0)
    t_max = 4.0 * math.pi
    instants = analytic.critical_instants(params, t_max)
    roots = np.array([c.t_c for c in instants if c.kind == "disentangle"])
    extrema = [c for c in instants if c.kind == "extremum"]

    worst_zf = float(np.max(analytic.observables(params, roots)["zeta_field"]))
    rows = [
        CheckResult(
            "c4_field_entropy_at_roots",
            worst_zf <= 1e-14,
            worst_zf,
            1e-14,
            detail=f"{len(roots)} roots in (0, 4pi]",
        )
    ]

    h = 1e-3
    mismatches = 0
    labels = []
    for c in extrema:
        curv = (
            float(analytic.distance_sq_closed_form(params, c.t_c + h))
            - 2.0 * float(analytic.distance_sq_closed_form(params, c.t_c))
            + float(analytic.distance_sq_closed_form(params, c.t_c - h))
        ) / h ** 2
        measured_kind = "local_max" if curv < 0.0 else "local_min"
        mismatches += measured_kind != c.classification
        labels.append(f"n={c.n_index}:{c.classification}")
    rows.append(
        CheckResult(
            "c4_extremum_classification",
            mismatches == 0,
            float(mismatches),
            0.0,
            detail=", ".join(labels),
        )
    )

    if not oracle_enabled:
        rows.append(_skip("c4_oracle_concurrence_at_roots", 1e-4))
        return rows
    pair = analytic.coherent_pair(params, roots)
    columns = oracle.series(params, roots, pair.beta_e_prime, pair.beta_g_prime, config)
    worst_c = float(np.max(columns["concurrence"]))
    rows.append(
        CheckResult(
            "c4_oracle_concurrence_at_roots", worst_c <= 1e-4, worst_c, 1e-4,
            detail=f"N={oracle.fock_truncation(params)}",
        )
    )
    return rows


def criterion_5(traces: list[ReferenceTrace]) -> list[CheckResult]:
    """Concurrence closed form vs the Wootters formula on embedded states."""
    rows = []
    if traces:
        worst = max(
            float(np.max(np.abs(tr.analytic_columns["concurrence"] - tr.oracle_columns["concurrence"])))
            for tr in traces
        )
        rows.append(
            CheckResult("c5_wootters_vs_oracle", worst <= 1e-4, worst, 1e-4)
        )
    else:
        rows.append(_skip("c5_wootters_vs_oracle", 1e-4))

    amps = AtomicAmplitudes.symmetric()
    worst = 0.0
    for kappa, drive, ts in (
        (0.2, 0.2, (0.8, math.pi / 2.0, 2.5, 6.0)),
        (1.0, 1.0, (0.5, 1.0, 2.0)),
    ):
        params = ModelParams(1.0, kappa, drive)
        n_levels = oracle.fock_truncation(params) + 1
        for t in ts:
            dense = dense_state(analytic.matrix_elements(params, amps, t), n_levels)
            pair = analytic.coherent_pair(params, t)
            emb = oracle.embed_two_qubit(dense, pair.beta_e_prime, pair.beta_g_prime)
            dev = abs(
                oracle.wootters_concurrence(emb.matrix) - float(analytic.concurrence(params, t))
            )
            worst = max(worst, dev)
    rows.append(
        CheckResult("c5_wootters_on_dense_analytic", worst <= 1e-10, worst, 1e-10)
    )
    return rows


def criterion_6() -> list[CheckResult]:
    """The Lie-algebraic solution: residuals, commutator table, disentangling."""
    rows = []
    for system, (kappa, drive), residual in (
        ("diagonal", (1.0, 1.0), lie.residual_diagonal),
        ("offdiagonal", (0.2, 0.2), lie.residual_offdiagonal),
    ):
        params = ModelParams(1.0, kappa, drive)
        coarse = residual(params, TimeGrid(5.0, 1001))
        fine = residual(params, TimeGrid(5.0, 2001))
        rows.append(
            CheckResult(
                f"c6_residual_{system}",
                coarse.max_residual <= 1e-4,
                coarse.max_residual,
                1e-4,
                detail=f"h={coarse.grid.spacing:g}",
            )
        )
        factor = coarse.max_residual / fine.max_residual
        rows.append(
            CheckResult(
                f"c6_refinement_{system}",
                abs(factor - 4.0) <= 0.5,
                abs(factor - 4.0),
                0.5,
                detail=f"factor={factor:.3f}, expected 4 for O(h^2) differencing",
            )
        )

    table_dev = lie.check_commutator_table(lie.superop_rep(30), margin=5)
    rows.append(
        CheckResult("c6_commutator_table", table_dev <= 1e-12, table_dev, 1e-12,
                    detail="dim=30, margin=5")
    )

    params = ModelParams(1.0, 1.0, 1.0)
    diag_dev = lie.check_diagonal_disentangling(params, 1.0, 40)
    rows.append(
        CheckResult("c6_disentangle_diagonal", diag_dev <= 1e-6, diag_dev, 1e-6,
                    detail="dim=40, t=1")
    )
    off_dev = lie.check_offdiagonal_disentangling(params, 1.0, 40)
    rows.append(
        CheckResult("c6_disentangle_offdiagonal", off_dev <= 1e-6, off_dev, 1e-6,
                    detail="dim=40, t=1")
    )
    return rows


def criterion_7() -> list[CheckResult]:
    """Exact reductions and exact drive-phase invariance."""
    ts = np.linspace(0.0, 12.0, 97)[1:]

    no_drive = ModelParams(1.0, 1.0, 0.0)
    phi = analytic.phase_parts(no_drive, ts).phi
    dev_f = max(
        float(np.max(np.abs(phi + 1j * no_drive.omega * ts))),
        float(np.max(np.abs(analytic.distance_sq_closed_form(no_drive, ts)))),
    )
    rows = [
        CheckResult("c7_no_drive_pure_rotation", dev_f <= 0.0, dev_f, 0.0,
                    detail="phi = -i*omega*t and zero separation, exactly")
    ]

    no_coupling = analytic.observables(ModelParams(0.0, 0.7, 0.4 + 0.3j), ts)
    dev_w = max(
        float(np.max(np.abs(no_coupling[key])))
        for key in ("zeta_global", "zeta_atom", "zeta_field", "concurrence")
    )
    rows.append(
        CheckResult("c7_no_coupling_no_decoherence", dev_w <= 0.0, dev_w, 0.0,
                    detail="all entropies and concurrence vanish, exactly")
    )

    base = ModelParams(1.0, 0.5, 0.4)
    base_cols = analytic.observables(base, ts)
    compared = COMPARED_OBSERVABLES + ("re_phi", "dist_sq", "nbar_analytic")
    worst = 0.0
    for theta in (0.7, 2.1, -1.3):
        rotated = ModelParams(1.0, 0.5, 0.4 * cmath.exp(1j * theta))
        cols = analytic.observables(rotated, ts)
        for key in compared:
            worst = max(worst, float(np.max(np.abs(cols[key] - base_cols[key]))))
    rows.append(
        CheckResult("c7_drive_phase_invariance", worst <= 1e-12, worst, 1e-12,
                    detail="three phase rotations of the drive")
    )
    return rows


def criterion_8() -> list[CheckResult]:
    """Two identical figure-generation runs produce byte-identical CSVs."""
    from . import cli  # deferred: cli imports this module at load time

    with tempfile.TemporaryDirectory() as tmp:
        dirs = (Path(tmp) / "run1", Path(tmp) / "run2")
        codes = []
        for d in dirs:
            d.mkdir()
            codes.append(
                cli.main(
                    ["--mode", "figures", "--out", str(d), "--points", str(_FIGURE_POINTS)]
                )
            )
        names = [sorted(p.name for p in d.iterdir()) for d in dirs]
        mismatches = 0
        if codes != [0, 0] or names[0] != names[1] or not names[0]:
            mismatches = len(set(names[0]) | set(names[1])) or 1
        else:
            for name in names[0]:
                a = (dirs[0] / name).read_bytes()
                b = (dirs[1] / name).read_bytes()
                mismatches += a != b
        detail = f"{len(names[0])} files, {_FIGURE_POINTS} rows each"
    return [
        CheckResult(
            "c8_deterministic_figures", mismatches == 0, float(mismatches), 0.0, detail=detail
        )
    ]


def run_all(
    oracle_enabled: bool = True, config: oracle.IntegratorConfig | None = None
) -> list[CheckResult]:
    """Run every acceptance criterion and return all rows in order."""
    if oracle_enabled:
        traces, elapsed = reference_traces(config)
    else:
        traces, elapsed = [], 0.0
    results = []
    results += criterion_1(traces, elapsed)
    results += criterion_2(oracle_enabled, config)
    results += criterion_3()
    results += criterion_4(oracle_enabled, config)
    results += criterion_5(traces)
    results += criterion_6()
    results += criterion_7()
    results += criterion_8()
    return results


def format_report(results: list[CheckResult]) -> str:
    """One line per check: PASS/FAIL name measured<=tolerance, or SKIP."""
    lines = []
    for r in results:
        if r.skipped:
            lines.append(f"SKIP {r.name} (oracle disabled)")
            continue
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} {r.measured:.3e}<={r.tolerance:.1e}"
        if r.detail:
            line += f"  [{r.detail}]"
        lines.append(line)
    n_pass = sum(r.passed and not r.skipped for r in results)
    n_skip = sum(r.skipped for r in results)
    n_run = len(results) - n_skip
    tail = f"{n_pass}/{n_run} checks passed"
    if n_skip:
        tail += f", {n_skip} skipped"
    lines.append(tail)
    return "\n".join(lines)
