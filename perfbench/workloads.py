"""Seeded inputs, the operations that run them, and their output checks.

An *op* is one call a user of the package makes: a ``cli.main`` run or
one oracle relaxation through the library.  A *pass* is a workload's
fixed list of ops; every pass draws fresh inputs from the seed.  Ops are
plain dicts, printed as they are run, so a run can be replayed from its
own output with :func:`execute`.

Draws come from the paper's verification box (omega = 1):
kappa/omega in [0.2, 5] and |F|/kappa in [0.5, 2].  The oracle workloads
draw from narrow cells of that box, one op per cell, so that every pass
costs about the same and each run fits its time budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
from pathlib import Path

import numpy as np

from dispersive_jcm import analytic, cli, oracle
from dispersive_jcm.model import AtomicAmplitudes, ModelParams

WORKLOADS = ("csv-export", "verify-analytic", "oracle-grid", "oracle-relax")

BOX_K = (0.2, 5.0)  # kappa/omega
BOX_F = (0.5, 2.0)  # |F|/kappa

#: Largest Fock truncation among the standard sets (|F|/kappa = 2).  Draws
#: above it are rejected before any oracle call, so no seed can ask for an
#: integration larger than the acceptance battery's own.
MAX_FOCK = 68

TRACE_POINTS = 100001
FIGURE_POINTS = 20001
GRID_POINTS = 200  # the verification grid, omega*t/pi in [0, 4]
RELAX_HORIZON = 10.0  # oracle-relax integrates to t = RELAX_HORIZON / kappa

#: (kappa/omega range, |F|/kappa range) per oracle op.  Each |F|/kappa range
#: lies inside one Fock-truncation level (N = 30 or N = 40) and each
#: kappa/omega range spans a few percent, so a draw moves the cost by a few
#: percent and every pass costs about the same.  The stiff corner kappa/omega = 5
#: (14 s) and the N = 68 corner |F|/kappa = 2 (19 s) are left out: one such
#: op would outlast a whole run.
GRID_CELLS = (
    ((0.20, 0.21), (0.96, 1.00)),  # weak damping, the c4 regime
    ((0.98, 1.02), (0.505, 0.535)),  # the central damping ratio
    ((2.90, 3.10), (0.505, 0.535)),  # strong damping, the stiffer side
)
RELAX_CELLS = (
    ((0.215, 0.225), (0.505, 0.535)),  # has disentanglement roots (c4 use)
    ((0.98, 1.02), (0.96, 1.00)),  # the c2 parameter set
    ((2.90, 3.10), (0.505, 0.535)),  # fast relaxation
)

ZETA_COLUMNS = ("zeta_global", "zeta_atom", "zeta_field")
COMPARED = ZETA_COLUMNS + ("corr_c", "concurrence")
TRACE_HEADER = (
    "omega_t_over_pi", *ZETA_COLUMNS, "corr_c", "concurrence", "re_phi", "dist_sq",
    "lambda_plus", "lambda_minus", "Lambda_plus", "Lambda_minus", "nbar_analytic",
)
ORACLE_HEADER = tuple(f"oracle_{name}" for name in COMPARED) + ("oracle_re_phi",)
FIGURE_FILES = ("fig1_k0.2.csv", "fig1_k1.csv", "fig1_k5.csv", "fig2_f0.5.csv", "fig2_f2.csv")
ORACLE_GATE = 1e-4  # the c1/c4 tolerance
CHECK_BLOCK_ROWS = 4096  # rows parsed at once by check_csv


class CheckError(Exception):
    """An op's output failed its check."""


# ---------------------------------------------------------------- inputs

def params_of(k_over_omega: float, f_over_k: float) -> ModelParams:
    return ModelParams(omega=1.0, kappa=k_over_omega, drive=f_over_k * k_over_omega)


def _draw(rng: random.Random, k_range, f_range) -> tuple[float, float]:
    """Log-uniform draw in a cell, rejecting any the oracle could not afford."""
    for _ in range(100):
        k = math.exp(rng.uniform(math.log(k_range[0]), math.log(k_range[1])))
        f = math.exp(rng.uniform(math.log(f_range[0]), math.log(f_range[1])))
        if oracle.fock_truncation(params_of(k, f)) <= MAX_FOCK:
            return k, f
    raise ValueError(f"no draw in {k_range} x {f_range} has N <= {MAX_FOCK}")


def _cli_op(check: str, argv: list[str]) -> dict:
    return {"kind": "cli", "check": check, "argv": argv}


def make_pass(workload: str, seed: int, index: int, out_dir: str) -> list[dict]:
    """The ops of pass *index*; equal arguments give equal ops."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "csv-export":
        k, f = _draw(rng, BOX_K, BOX_F)
        return [
            _cli_op("trace", ["--mode", "trace", "--k-over-omega", repr(k), "--f-over-k", repr(f),
                              "--points", str(TRACE_POINTS), "--out", f"{out_dir}/trace.csv"]),
            _cli_op("figures", ["--mode", "figures", "--points", str(FIGURE_POINTS),
                                "--out", f"{out_dir}/figures"]),
        ]
    if workload == "verify-analytic":
        return [_cli_op("verify", ["--mode", "verify", "--no-oracle"])]
    if workload == "oracle-grid":
        ops = []
        for cell in GRID_CELLS:
            k, f = _draw(rng, *cell)
            ops.append(_cli_op("oracle-trace", [
                "--mode", "trace", "--oracle", "--k-over-omega", repr(k), "--f-over-k", repr(f),
                "--t-max-pi", "4", "--points", str(GRID_POINTS), "--out", f"{out_dir}/grid.csv"]))
        return ops
    if workload == "oracle-relax":
        ops = []
        for cell in RELAX_CELLS:
            k, f = _draw(rng, *cell)
            ops.append({"kind": "relax", "k_over_omega": k, "f_over_k": f, "t_end": RELAX_HORIZON / k})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- execution

def execute(op: dict):
    """Run one op (the timed part) and return what its check needs."""
    if op["kind"] == "cli":
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.main(list(op["argv"]))
        return code, report.getvalue()
    return _relax(op)


def _relax(op: dict) -> list[tuple[float, dict]]:
    """Integrate to the closed-form disentanglement roots and the end time.

    With roots this is the c4 use (``evolve_trajectory``); without, the c2
    use (``evolve``).  Observables are extracted only at those instants.
    """
    params = params_of(op["k_over_omega"], op["f_over_k"])
    t_end = op["t_end"]
    roots = [c.t_c for c in analytic.critical_instants(params, t_end) if c.kind == "disentangle"]
    rho0 = oracle.initial_state(params, AtomicAmplitudes.symmetric())
    if not roots:
        final = oracle.evolve(params, rho0, t_end)
        return [(t_end, _oracle_observables(params, t_end, final.data))]
    return [
        (t, _oracle_observables(params, t, mat))
        for t, mat in oracle.evolve_trajectory(params, rho0, roots + [t_end])
    ]


def _purity(m: np.ndarray) -> float:
    return float(np.real(np.einsum("ij,ji->", m, m)))


def _oracle_observables(params: ModelParams, t: float, mat: np.ndarray) -> dict:
    """The compared observables of a dense joint state, as the c1 gate defines them."""
    atom = oracle.partial_trace_field(mat)
    field = oracle.partial_trace_atom(mat)
    pair = analytic.coherent_pair(params, t)
    emb = oracle.embed_two_qubit(mat, pair.beta_e_prime, pair.beta_g_prime)
    return {
        "zeta_global": oracle.observables(mat)["linear_entropy"],
        "zeta_atom": 1.0 - _purity(atom),
        "zeta_field": 1.0 - _purity(field),
        "corr_c": _purity(mat - np.kron(atom, field)),
        "concurrence": oracle.wootters_concurrence(emb.matrix),
    }


# ---------------------------------------------------------------- checks

def _flag(op: dict, name: str) -> str:
    argv = op["argv"]
    return argv[argv.index(name) + 1]


def check(op: dict, output) -> dict:
    """Check an op's output; return what it wrote.  Raises :class:`CheckError`."""
    if op["kind"] == "relax":
        return {"max_dev": check_relax(op, output)}
    code, report = output
    if code != 0:
        raise CheckError(f"cli exited {code}")
    if op["check"] == "verify":
        run, passed = check_report(report)
        return {"checks_run": run, "checks_passed": passed}
    out, points = Path(_flag(op, "--out")), int(_flag(op, "--points"))
    if op["check"] == "figures":
        paths = [out / name for name in FIGURE_FILES]
        results = [check_csv(p, points) for p in paths]
    else:
        paths = [out]
        results = [check_csv(out, points, with_oracle=op["check"] == "oracle-trace")]
    return {
        "files": len(paths),
        "bytes": sum(r["bytes"] for r in results),
        "rows": sum(r["rows"] for r in results),
        "sha256": {p.name: r["sha256"] for p, r in zip(paths, results)},
        "max_dev": results[0].get("max_dev"),
    }


def check_csv(path: Path, points: int, with_oracle: bool = False) -> dict:
    """Header, row count, finiteness and the bounds every closed-form row obeys.

    With oracle columns, each compared observable must also lie within the
    c1/c4 gate of its closed form.  The file is read, hashed and parsed in
    blocks of rows, so the check never holds the whole file and adds little
    to the run's peak memory.
    """
    expected = TRACE_HEADER + (ORACLE_HEADER if with_oracle else ())
    digest = hashlib.sha256()
    rows = size = 0
    dev = 0.0
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        size += len(header)
        if header.rstrip(b"\n").decode(errors="replace").split(",") != list(expected):
            raise CheckError(f"{path.name}: unexpected header")
        while block := b"".join(itertools.islice(fh, CHECK_BLOCK_ROWS)):
            digest.update(block)
            size += len(block)
            try:
                data = np.loadtxt(io.BytesIO(block), delimiter=",", ndmin=2)
            except ValueError as exc:
                raise CheckError(f"{path.name}: unparseable row: {exc}") from None
            if data.shape[1] != len(expected):
                raise CheckError(f"{path.name}: {data.shape[1]} columns, expected {len(expected)}")
            rows += len(data)
            dev = max(dev, _check_rows(path.name, expected, data, with_oracle))
    if rows != points:
        raise CheckError(f"{path.name}: {rows} rows, expected {points}")
    result = {"rows": rows, "bytes": size, "sha256": digest.hexdigest()}
    if with_oracle:
        result["max_dev"] = dev
    return result


def _check_rows(name: str, columns: tuple[str, ...], data: np.ndarray, with_oracle: bool) -> float:
    """Check a block of parsed rows; return its worst oracle deviation (0 without oracle)."""
    if not np.all(np.isfinite(data)):
        raise CheckError(f"{name}: non-finite value")
    col = {column: data[:, i] for i, column in enumerate(columns)}
    for column in ZETA_COLUMNS:
        if np.any(col[column] < 0.0) or np.any(col[column] > 0.5):
            raise CheckError(f"{name}: {column} outside [0, 1/2]")
    if np.any(col["concurrence"] < 0.0) or np.any(col["concurrence"] > 1.0):
        raise CheckError(f"{name}: concurrence outside [0, 1]")
    if np.max(np.abs(col["lambda_plus"] + col["lambda_minus"] - 1.0)) > 1e-12:
        raise CheckError(f"{name}: lambda_plus + lambda_minus != 1")
    if not with_oracle:
        return 0.0
    dev = max(float(np.max(np.abs(col[c] - col[f"oracle_{c}"]))) for c in COMPARED)
    if dev > ORACLE_GATE:
        raise CheckError(f"{name}: oracle deviates by {dev:.3e} > {ORACLE_GATE:g}")
    return dev


def check_report(report: str) -> tuple[int, int]:
    """Every executed row of a verify report must be PASS; returns (run, passed)."""
    rows = [line for line in report.splitlines() if line.split(" ", 1)[0] in ("PASS", "FAIL", "SKIP")]
    executed = [line for line in rows if not line.startswith("SKIP")]
    passed = sum(line.startswith("PASS") for line in executed)
    if not executed or passed != len(executed):
        raise CheckError(f"{len(executed) - passed} of {len(executed)} executed checks not PASS")
    return len(executed), passed


def check_relax(op: dict, output: list[tuple[float, dict]]) -> float:
    """Oracle observables within the c1/c4 gate of the closed form at every output."""
    params = params_of(op["k_over_omega"], op["f_over_k"])
    closed = {
        "zeta_global": analytic.zeta_global,
        "zeta_atom": analytic.zeta_atom,
        "zeta_field": analytic.zeta_field,
        "corr_c": analytic.total_correlation,
        "concurrence": analytic.concurrence,
    }
    if not output or output[-1][0] != op["t_end"]:
        raise CheckError("no state at the end time")
    dev = 0.0
    for t, observed in output:
        for name, fn in closed.items():
            value = observed[name]
            if not math.isfinite(value):
                raise CheckError(f"non-finite oracle {name} at t={t:g}")
            dev = max(dev, abs(value - float(fn(params, t))))
    if dev > ORACLE_GATE:
        raise CheckError(f"oracle deviates by {dev:.3e} > {ORACLE_GATE:g}")
    return dev
