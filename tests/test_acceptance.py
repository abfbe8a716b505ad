"""Acceptance gate: every shipped claim measured at its pinned tolerance.

The full battery (including the master-equation integrations) runs once
per session through the module-scoped fixture; the per-criterion tests
below turn each group of checks into one pass/fail line under
``pytest -v``.  The mutation tests at the bottom verify that the gate
actually measures the quantities it claims to measure.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dispersive_jcm import acceptance, analytic


@pytest.fixture(scope="module")
def results():
    return acceptance.run_all()


def _rows(results, prefix):
    rows = [r for r in results if r.name.startswith(prefix)]
    assert rows, f"no checks named {prefix}*"
    return rows


def _assert_all_pass(rows):
    failing = [r for r in rows if not r.passed]
    assert not failing, "; ".join(
        f"{r.name}: measured {r.measured:.3e} > tolerance {r.tolerance:.1e} [{r.detail}]"
        for r in failing
    )


def test_criterion_1_closed_form_matches_integrated_master_equation(results):
    rows = _rows(results, "c1")
    assert len(rows) == len(acceptance.PARAMETER_SETS) + 1  # five sets + runtime
    assert not any(r.skipped for r in rows)
    _assert_all_pass(rows)


def test_criterion_2_stationary_regime_is_reached(results):
    rows = _rows(results, "c2")
    assert not any(r.skipped for r in rows)
    _assert_all_pass(rows)


def test_criterion_3_time_scales_govern_their_regimes(results):
    _assert_all_pass(_rows(results, "c3"))


def test_criterion_4_critical_instants_certified(results):
    rows = _rows(results, "c4")
    assert not any(r.skipped for r in rows)
    _assert_all_pass(rows)


def test_criterion_5_concurrence_routes_agree(results):
    _assert_all_pass(_rows(results, "c5"))


def test_criterion_6_structural_identities_hold(results):
    _assert_all_pass(_rows(results, "c6"))


def test_criterion_6_runs_in_little_memory():
    # the Lie checks work on sparse maps: dense 1600-square maps at dim 40
    # held about half a gigabyte
    tracemalloc.start()
    try:
        rows = acceptance.criterion_6()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_all_pass(rows)
    assert peak < 32 << 20


def test_criterion_7_exact_reductions_and_invariances(results):
    _assert_all_pass(_rows(results, "c7"))


def test_criterion_8_figure_output_is_deterministic(results):
    _assert_all_pass(_rows(results, "c8"))


def test_oracle_checks_name_their_fock_truncation(results):
    details = {r.name: r.detail for r in results}
    assert details["c1[k=0.2,f=1]"].startswith("N=20, ")
    assert details["c1[k=0.2,f=0.5]"].startswith("N=14, ")
    assert details["c1[k=0.2,f=2]"].startswith("N=33, ")
    assert details["c2_oracle_stationarity"] == details["c2_oracle_mean_photons"] == "N=20"
    assert details["c4_oracle_concurrence_at_roots"] == "N=20"


def test_check_names_are_unique(results):
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_report_renders_one_line_per_check(results):
    report = acceptance.format_report(results)
    lines = report.splitlines()
    assert len(lines) == len(results) + 1
    assert all(line.startswith(("PASS", "FAIL", "SKIP")) for line in lines[:-1])
    assert lines[-1].startswith(f"{sum(r.passed for r in results)}/{len(results)}")


def test_report_marks_skipped_oracle_checks():
    rows = acceptance.criterion_2(oracle_enabled=False)
    report = acceptance.format_report(rows)
    assert "SKIP" in report and "(oracle disabled)" in report
    assert "skipped" in report.splitlines()[-1]


# ---------------------------------------------------------------- gate sensitivity

def _failing(rows):
    return {r.name for r in rows if not r.passed}


def test_gate_detects_a_corrupted_dephasing_exponent(monkeypatch):
    original = analytic._phi
    monkeypatch.setattr(analytic, "_phi", lambda p, t: original(p, t) + 1e-3)
    assert _failing(acceptance.criterion_3()) == {
        "c3_short_time_cubic", "c3_atom_short_time_quadratic"
    }
    assert _failing(acceptance.criterion_7()) == {
        "c7_no_drive_pure_rotation", "c7_no_coupling_no_decoherence"
    }


def test_gate_detects_a_corrupted_amplitude_separation(monkeypatch):
    original = analytic.coherent_pair

    def shifted(params, t):
        pair = original(params, t)
        return dataclasses.replace(pair, dist_sq=pair.dist_sq + 1e-6)

    monkeypatch.setattr(analytic, "coherent_pair", shifted)
    rows = acceptance.criterion_4(oracle_enabled=False)
    assert _failing(rows) == {"c4_field_entropy_at_roots"}


def test_gate_detects_a_shifted_coherence_phase_exponent(monkeypatch):
    # a constant shift of z leaves every derivative, so every residual, alone
    original = analytic.phase_parts

    def shifted(params, t):
        parts = original(params, t)
        return dataclasses.replace(parts, z=parts.z + 1e-4)

    monkeypatch.setattr(analytic, "phase_parts", shifted)
    assert _failing(acceptance.criterion_6()) == {"c6_disentangle_offdiagonal"}


def test_gate_detects_a_shifted_excited_amplitude(monkeypatch):
    # the shift breaks both factorized flows and adds a constant to the
    # population-block residual, which then no longer refines at O(h^2)
    original = analytic.coherent_pair

    def shifted(params, t):
        pair = original(params, t)
        return dataclasses.replace(pair, beta_e=pair.beta_e + 1e-5)

    monkeypatch.setattr(analytic, "coherent_pair", shifted)
    assert _failing(acceptance.criterion_6()) == {
        "c6_disentangle_diagonal", "c6_disentangle_offdiagonal", "c6_refinement_diagonal"
    }


def test_gate_detects_misplaced_disentanglement_instants(monkeypatch):
    # a shift of 1e-2 puts the oracle concurrence at about 2.4e-3 and the
    # field entropy at about 2.9e-5; the extremum labels do not move
    original = analytic.critical_instants

    def shifted(params, t_max, grid_step=None):
        return [
            dataclasses.replace(c, t_c=c.t_c + 1e-2) if c.kind == "disentangle" else c
            for c in original(params, t_max, grid_step)
        ]

    monkeypatch.setattr(analytic, "critical_instants", shifted)
    rows = {r.name: r for r in acceptance.criterion_4()}
    assert not rows["c4_oracle_concurrence_at_roots"].passed
    assert not rows["c4_field_entropy_at_roots"].passed
    assert rows["c4_extremum_classification"].passed
