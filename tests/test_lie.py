"""Vectorized ladder-algebra machinery and structural verification checks."""

import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.sparse.linalg import expm_multiply

from dispersive_jcm import acceptance, lie, oracle
from dispersive_jcm.lie import SuperOpRep
from dispersive_jcm.model import ModelParams, TimeGrid

P111 = ModelParams(1.0, 1.0, 1.0)
P_SUB = ModelParams(1.0, 0.2, 0.2)


def _vec(m):
    return m.flatten(order="F")


def _unvec(v, dim):
    return v.reshape((dim, dim), order="F")


# ---------------------------------------------------------------- representation

def test_superop_rep_implements_left_and_right_multiplication():
    dim = 6
    rep = lie.superop_rep(dim)
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert np.allclose(_unvec(rep.a_left @ _vec(x), dim), a @ x)
    assert np.allclose(_unvec(rep.a_right @ _vec(x), dim), x @ a)
    assert np.allclose(_unvec(rep.a_left_dag @ _vec(x), dim), a.conj().T @ x)
    assert np.allclose(_unvec(rep.a_right_dag @ _vec(x), dim), x @ a.conj().T)
    assert np.allclose(_unvec(rep.jump @ _vec(x), dim), a @ x @ a.conj().T)
    assert np.allclose(_unvec(rep.number_left @ _vec(x), dim), a.conj().T @ a @ x)
    assert np.allclose(_unvec(rep.number_right @ _vec(x), dim), x @ a.conj().T @ a)
    for name in SuperOpRep.__dataclass_fields__:
        if name != "dim":
            assert sparse.issparse(getattr(rep, name)), name


def test_interior_mask_keeps_the_interior_block_in_column_order():
    dim, margin = 6, 2
    mask = lie.interior_mask(dim, margin)
    assert mask.dtype == bool and mask.shape == (dim * dim,)
    # keeps (dim - margin)^2 matrix elements
    assert mask.sum() == (dim - margin) ** 2
    # column-stacked: flat index i + dim * j is the element (i, j)
    rows, cols = np.divmod(np.flatnonzero(mask), dim)[::-1]
    assert rows.max() == cols.max() == dim - 1 - margin
    x = np.arange(dim * dim).reshape(dim, dim)
    assert np.array_equal(_vec(x)[mask], _vec(x[: dim - margin, : dim - margin]))


def test_field_liouvillian_is_the_algebra_form_of_each_block():
    # the undriven block generators written in the superoperator algebra
    # (M, P number maps, J jump, X-/Y- drive maps), and the drive added by F
    dim = 7
    rep = lie.superop_rep(dim)
    driven = ModelParams(1.3, 0.4, 0.6 - 0.8j)
    free = ModelParams(1.3, 0.4, 0.0)
    w, k, F = driven.omega, driven.kappa, complex(driven.drive)
    M, P, J = rep.number_left, rep.number_right, rep.jump
    eye = sparse.identity(dim * dim)
    damping = k * (2.0 * J - M - P)
    expected = {
        "ee": -1j * w * (M - P) + damping,
        "gg": 1j * w * (M - P) + damping,
        "eg": -1j * w * (M + P + eye) + damping,
    }
    drive = -1j * (F * rep.create_diff - np.conj(F) * rep.lower_diff)
    for (left, right), form in expected.items():
        undriven = oracle.field_liouvillian(free, dim, left, right)
        assert np.allclose(undriven.toarray(), form.toarray(), rtol=0.0, atol=1e-14)
        added = oracle.field_liouvillian(driven, dim, left, right) - undriven
        assert np.allclose(added.toarray(), drive.toarray(), rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError, match="'e' or 'g'"):
        oracle.field_liouvillian(free, dim, "e", "ge")


def test_jump_bracket_with_right_number_reproduces_jump():
    # on a weight-basis element |m><n| the jump map gives
    # sqrt(mn)|m-1><n-1|, so its bracket with either number map returns
    # the jump map itself
    dim = 7
    rep = lie.superop_rep(dim)
    m, n = 3, 5
    x = np.zeros((dim, dim), complex)
    x[m, n] = 1.0
    jp = rep.jump @ rep.number_right - rep.number_right @ rep.jump
    expected = np.zeros((dim, dim), complex)
    expected[m - 1, n - 1] = np.sqrt(m * n)
    assert np.allclose(_unvec(jp @ _vec(x), dim), expected)
    jm = rep.jump @ rep.number_left - rep.number_left @ rep.jump
    assert np.allclose(_unvec(jm @ _vec(x), dim), expected)


def test_commutator_table_closes_on_the_interior():
    rep = lie.superop_rep(14)
    assert lie.check_commutator_table(rep, 4) < 1e-12


def _sliced_commutator_table(rep, margin):
    """The table's maximum taken on the sliced sparse differences, as first written."""
    keep = lie.interior_mask(rep.dim, margin)
    eye = sparse.identity(rep.dim * rep.dim, dtype=complex, format="csr")
    J, M, P = rep.jump, rep.number_left, rep.number_right
    Xp, Xm, Yp, Ym = rep.create_sum, rep.create_diff, rep.lower_sum, rep.lower_diff

    def comm(A, B):
        return A @ B - B @ A

    relations = [
        (comm(J, M), J), (comm(J, P), J),
        (comm(J, Xp), 0.5 * (Xp - Xm)), (comm(J, Xm), 0.5 * (Xp - Xm)),
        (comm(J, Yp), 0.5 * (Yp - Ym)), (comm(J, Ym), 0.5 * (Yp - Ym)),
        (comm(M, Xp), 0.5 * (Xp + Xm)), (comm(M, Xm), 0.5 * (Xp + Xm)),
        (comm(M, Yp), -0.5 * (Yp - Ym)), (comm(M, Ym), 0.5 * (Yp - Ym)),
        (comm(P, Xp), 0.5 * (Xm - Xp)), (comm(P, Xm), -0.5 * (Xm - Xp)),
        (comm(P, Yp), 0.5 * (Yp + Ym)), (comm(P, Ym), 0.5 * (Yp + Ym)),
        (comm(Xp, Ym), 2.0 * eye), (comm(Xm, Yp), -2.0 * eye),
    ]
    return float(max(abs((lhs - rhs)[keep][:, keep]).max() for lhs, rhs in relations))


@pytest.mark.parametrize("dim, margin", [(6, 0), (6, 2), (14, 4), (30, 5)])
def test_commutator_table_is_the_maximum_over_the_sliced_interior(dim, margin):
    rep = lie.superop_rep(dim)
    assert lie.check_commutator_table(rep, margin) == _sliced_commutator_table(rep, margin)
    # maps that break the algebra everywhere, so that every stored entry counts
    rng = np.random.default_rng(dim)
    size = dim * dim
    maps = [
        sparse.random(size, size, density=3 / size, rng=rng, format="csr")
        + 1j * sparse.random(size, size, density=3 / size, rng=rng, format="csr")
        for _ in range(11)
    ]
    noisy = SuperOpRep(dim, *maps)
    assert lie.check_commutator_table(noisy, margin) == _sliced_commutator_table(noisy, margin)


def test_commutator_table_rejects_too_small_dim():
    with pytest.raises(ValueError):
        lie.check_commutator_table(lie.superop_rep(6), 4)


def test_commutator_table_sees_the_truncation_edge():
    # with no interior margin the cutoff row breaks the algebra
    rep = lie.superop_rep(6)
    assert lie.check_commutator_table(rep, 0) > 1.0


# ---------------------------------------------------------------- ODE residuals

def test_population_block_solution_satisfies_its_ode():
    report = lie.residual_diagonal(P111, TimeGrid(5.0, 1001))
    assert report.system == "diagonal"
    assert np.isclose(report.max_residual, 8.2917706612966e-06, rtol=1e-6)
    assert report.max_residual < 1e-4


def test_population_residual_shrinks_at_second_order():
    coarse = lie.residual_diagonal(P111, TimeGrid(5.0, 1001)).max_residual
    fine = lie.residual_diagonal(P111, TimeGrid(5.0, 2001)).max_residual
    assert abs(coarse / fine - 4.0) < 0.5


def test_coherence_block_solution_satisfies_its_ode():
    report = lie.residual_offdiagonal(P_SUB, TimeGrid(5.0, 1001))
    assert report.system == "offdiagonal"
    assert np.isclose(report.max_residual, 6.443790406157993e-06, rtol=1e-6)
    assert report.max_residual < 1e-4


def test_coherence_residual_shrinks_at_second_order():
    coarse = lie.residual_offdiagonal(P_SUB, TimeGrid(5.0, 1001)).max_residual
    fine = lie.residual_offdiagonal(P_SUB, TimeGrid(5.0, 2001)).max_residual
    assert abs(coarse / fine - 4.0) < 0.5


# ---------------------------------------------------------------- disentangling

def test_diagonal_disentangling_identity():
    assert lie.check_diagonal_disentangling(P111, 0.8, 24) < 1e-8


def test_offdiagonal_disentangling_identity():
    assert lie.check_offdiagonal_disentangling(P111, 0.8, 24) < 1e-8


def test_c6_calls_no_dense_matrix_exponential(monkeypatch):
    # D(beta) comes from the tridiagonal eigenbasis and exp(c a) from its
    # finite series, so the battery never starts the BLAS thread pool
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called by criterion 6")

    monkeypatch.setattr(linalg, "expm", refuse)
    rows = acceptance.criterion_6()
    assert len(rows) == 7
    assert all(row.passed and not row.skipped for row in rows), rows


def test_disentangling_guards_against_edge_leakage():
    with pytest.raises(ValueError):
        lie.check_diagonal_disentangling(P111, 1.0, 8)


@pytest.mark.parametrize("left, right", [("e", "e"), ("e", "g")])
def test_block_flows_agree_with_expm_multiply(left, right):
    # expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011)
    # is an independent reference for the oracle's Taylor engine
    dim, t = 40, 1.0
    rho0 = lie._test_state(P111, dim)
    flows = lie._block_flows(P111, t, rho0, left, right)
    for params, flow in zip((P111, replace(P111, drive=0.0)), flows):
        gen = oracle.field_liouvillian(params, dim, left, right)
        exact = _unvec(expm_multiply(gen * t, _vec(rho0)), dim)
        assert np.max(np.abs(flow - exact)) < 1e-13


def test_each_c6_flow_logs_one_engine_stats_record(caplog):
    pattern = re.compile(
        r"integrated N=39 (e[eg]) block \((driven|free)\) over \[0, 1\]: (\d+) steps, "
        r"(\d+) RHS evaluations, 1 outputs, max edge population (\S+)$"
    )
    with caplog.at_level(logging.DEBUG, logger=oracle.__name__):
        acceptance.criterion_6()
    stats = [m for m in (pattern.match(r.getMessage()) for r in caplog.records) if m]
    assert [m.group(1, 2) for m in stats] == [
        ("ee", "driven"), ("ee", "free"), ("eg", "driven"), ("eg", "free")
    ]
    for m in stats:
        steps, evaluations = int(m.group(3)), int(m.group(4))
        assert steps >= 1 and evaluations == 16 * steps
        assert 0.0 <= float(m.group(5)) <= 1e-8


def check_baker_hausdorff(params, x, rep, margin=1):
    """Two-dimensional Baker-Hausdorff rule on the pair (L_ee, create_diff).

    The bracket [L_ee, create_diff] = -(k+iw) create_diff closes, so
    exp(x L_ee) create_diff = exp(-(k+iw)x) create_diff exp(x L_ee).  This
    rearranged form avoids the growing inverse exponential; it is checked
    on interior columns, where the truncated algebra is exact.
    """
    gen = oracle.field_liouvillian(replace(params, drive=0.0), rep.dim, "e", "e")
    flow = linalg.expm(gen.toarray() * x)
    lhs = flow @ rep.create_diff
    rhs = np.exp(-(params.kappa + 1j * params.omega) * x) * rep.create_diff @ flow
    return float(np.max(np.abs((lhs - rhs)[:, lie.interior_mask(rep.dim, margin)])))


def test_baker_hausdorff_rule_on_interior_columns():
    rep = lie.superop_rep(20)
    assert check_baker_hausdorff(P111, 0.3, rep) < 1e-12
