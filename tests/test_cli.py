"""Command-line interface: CSV schemas, determinism, config handling."""

import contextlib
import csv
import io
import math
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dispersive_jcm
from dispersive_jcm import analytic, cli
from dispersive_jcm.model import make_params


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_trace_writes_expected_schema(tmp_path):
    out = tmp_path / "trace.csv"
    rc = cli.main(
        ["--mode", "trace", "--k-over-omega", "0.2", "--f-over-k", "1.0",
         "--t-max-pi", "2.0", "--points", "9", "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == list(cli.TRACE_COLUMNS)
    assert len(rows) == 9
    axis = [float(r[0]) for r in rows]
    assert np.allclose(axis, np.linspace(0.0, 2.0, 9), atol=1e-15)
    # t = 0 row: no entropy, no separation, unit eigenvalue split
    first = dict(zip(header, map(float, rows[0])))
    assert first["zeta_global"] == 0.0
    assert first["dist_sq"] == 0.0
    assert first["lambda_plus"] == 1.0
    assert first["nbar_analytic"] == pytest.approx(1.0)  # |F/k|^2 with f/k = 1


def test_trace_output_is_byte_identical_across_runs(tmp_path):
    args = ["--mode", "trace", "--points", "33", "--t-max-pi", "3.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"-0." not in a.read_bytes()[: len("omega_t_over_pi")]  # no negative zeros in row 0


def test_trace_with_oracle_appends_matching_columns(tmp_path):
    out = tmp_path / "trace_oracle.csv"
    rc = cli.main(
        ["--mode", "trace", "--k-over-omega", "0.2", "--f-over-k", "0.5",
         "--t-max-pi", "1.0", "--points", "5", "--oracle", "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == list(cli.TRACE_COLUMNS) + list(cli.ORACLE_COLUMNS)
    for row in rows:
        rec = dict(zip(header, map(float, row)))
        for name in ("zeta_global", "zeta_atom", "zeta_field", "corr_c", "concurrence"):
            assert abs(rec[name] - rec["oracle_" + name]) < 1e-6


def test_critical_mode_subcritical(tmp_path):
    out = tmp_path / "critical.csv"
    rc = cli.main(
        ["--mode", "critical", "--k-over-omega", "0.2", "--t-max-pi", "4.0",
         "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == list(cli.CRITICAL_COLUMNS)
    kinds = [r[header.index("kind")] for r in rows]
    assert kinds.count("disentangle") == 2
    assert kinds.count("extremum") == 4
    i_t = header.index("t_trans")
    assert all(np.isclose(float(r[i_t]), math.log(5.0) / 0.2) for r in rows)
    # field entropy is numerically zero at every disentanglement root
    for r in rows:
        if r[header.index("kind")] == "disentangle":
            assert float(r[header.index("zeta_field_at_tc")]) < 1e-14
            assert r[header.index("classification")] == "local_min"


def test_critical_columns_come_from_one_array_pass(tmp_path):
    out = tmp_path / "critical.csv"
    args = ["--k-over-omega", "0.2", "--f-over-k", "1", "--t-max-pi", "40"]
    assert cli.main(["--mode", "critical", *args, "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    params = make_params(0.2, 1.0)
    instants = analytic.critical_instants(params, 40.0 * math.pi)
    columns = analytic.observables(params, np.array([c.t_c for c in instants]))
    t_trans = "%.16e" % analytic.transition_time(params)
    assert len(rows) == len(instants) == 42
    for row, c, zeta, conc in zip(rows, instants, columns["zeta_field"], columns["concurrence"]):
        assert row == [
            "%.16e" % c.t_c, "%.16e" % (c.t_c / math.pi), c.kind, c.classification,
            str(c.n_index), "%.16e" % (zeta + 0.0), "%.16e" % (conc + 0.0), t_trans,
        ]


def test_critical_mode_supercritical_has_no_roots_and_nan_transition(tmp_path):
    out = tmp_path / "critical5.csv"
    rc = cli.main(
        ["--mode", "critical", "--k-over-omega", "5.0", "--t-max-pi", "4.0",
         "--out", str(out)]
    )
    assert rc == 0
    header, rows = _read_csv(out)
    assert all(r[header.index("kind")] == "extremum" for r in rows)
    assert all(r[header.index("t_trans")] == "nan" for r in rows)
    cls = [r[header.index("classification")] for r in rows]
    assert cls == ["local_max", "local_min", "local_max", "local_min"]


def test_critical_mode_without_drive_writes_only_the_header(tmp_path):
    out = tmp_path / "critical0.csv"
    rc = cli.main(
        ["--mode", "critical", "--k-over-omega", "0.2", "--f-over-k", "0.0",
         "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text() == ",".join(cli.CRITICAL_COLUMNS) + "\n"


def test_unaffordable_oracle_truncation_exits_2(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = cli.main(
        ["--mode", "trace", "--oracle", "--k-over-omega", "0.2", "--f-over-k", "20",
         "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Fock truncation N = 1890")
    assert not out.exists()
    assert not out.with_name(out.name + ".tmp").exists()


def test_figures_mode_writes_five_deterministic_files(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    args = ["--mode", "figures", "--points", "7", "--t-max-pi", "4.0"]
    assert cli.main(args + ["--out", str(d1)]) == 0
    assert cli.main(args + ["--out", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(name for name, _, _ in cli.FIGURE_SETS)
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        header, rows = _read_csv(d1 / name)
        assert header == list(cli.TRACE_COLUMNS)
        assert len(rows) == 7


def test_figures_builds_one_table_at_a_time(tmp_path, monkeypatch):
    table, lock = cli._trace_table, threading.Lock()
    active = peak = built = 0

    def counted(*args):
        nonlocal active, peak, built
        with lock:
            active += 1
            peak = max(peak, active)
        try:
            time.sleep(0.01)  # long enough for a concurrent build to overlap
            return table(*args)
        finally:
            with lock:
                active -= 1
                built += 1

    monkeypatch.setattr(cli, "_trace_table", counted)
    assert cli.main(["--mode", "figures", "--points", "50", "--out", str(tmp_path)]) == 0
    assert (peak, built) == (1, len(cli.FIGURE_SETS))


@pytest.mark.parametrize("failure", [ValueError, KeyboardInterrupt])
def test_a_failing_figure_table_replaces_no_file(tmp_path, capsys, monkeypatch, failure):
    args = ["--mode", "figures", "--points", "7", "--out", str(tmp_path)]
    assert cli.main(args + ["--t-max-pi", "0.5"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    table, calls = cli._trace_table, []

    def third_fails(*args):
        calls.append(args)
        if len(calls) == 3:
            raise failure("stubbed failure")
        return table(*args)

    monkeypatch.setattr(cli, "_trace_table", third_fails)
    if failure is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            cli.main(args)
    else:
        assert cli.main(args) == 2
        name = cli.FIGURE_SETS[2][0]
        assert capsys.readouterr().err.splitlines() == [f"error: {name}: stubbed failure"]
    assert len(calls) == 3  # the run stops at the failing table
    # every file keeps the earlier run's bytes and no .tmp is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _reference_csv(header, table):
    """The CSV bytes of one "%.16e" call per value, rows joined with LF."""
    lines = [",".join(header)]
    lines += [",".join("%.16e" % (v + 0.0) for v in row) for row in table]
    return ("\n".join(lines) + "\n").encode()


def _reference_trace(k_over_omega, f_over_k, t_max_pi, points):
    times = np.linspace(0.0, t_max_pi * math.pi, points)
    columns = analytic.observables(make_params(k_over_omega, f_over_k), times)
    table = np.column_stack([times / math.pi] + [columns[n] for n in cli.TRACE_COLUMNS[1:]])
    return _reference_csv(cli.TRACE_COLUMNS, table)


def _assert_kernel_writes_percent(values):
    """The block kernel writes each value as "%.16e" % (v + 0.0), in a column and in a row."""
    values = np.asarray(values, dtype=float)
    for block in (values.reshape(-1, 1), values.reshape(1, -1)):
        expected = "".join(",".join("%.16e" % (v + 0.0) for v in row) + "\n" for row in block)
        assert cli._format_block(block) == expected


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _tie(decade, k):
    """An odd multiple of 2**-(18 - decade) in [10**(decade-1), 10**decade).

    Its decimal expansion has 18 significant digits, the last one 5, so
    rounding it to 17 digits is an exact half-way case.
    """
    m = 18 - decade
    low = math.ceil(Fraction(10) ** (decade - 1) * 2**m)
    high = math.floor(Fraction(10) ** decade * 2**m)
    return ((low + k % (high - low)) | 1) / 2**m


_finite_bit_patterns = st.integers(0, 2**64 - 1).map(_from_bits).filter(math.isfinite)
# mantissa * 2**e for binary exponents 2**-25 to 2**60, both signs
_window_values = st.builds(
    lambda mantissa, e, sign: sign * math.ldexp(mantissa, e - 52),
    st.integers(2**52, 2**53 - 1), st.integers(-25, 60), st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_finite_bit_patterns, _window_values), min_size=1, max_size=40))
def test_block_kernel_matches_percent_formatting(values):
    _assert_kernel_writes_percent(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(_tie, st.integers(-5, 15), st.integers(0, 2**60)), min_size=1, max_size=40),
       st.sampled_from([1.0, -1.0]))
def test_block_kernel_rounds_half_way_ties_to_even(values, sign):
    for v in values:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    _assert_kernel_writes_percent([sign * v for v in values])


def test_block_kernel_at_powers_of_ten_and_special_values():
    powers = [10.0**k for k in range(-8, 19)]
    neighbours = [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
               1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan]
    _assert_kernel_writes_percent(powers + neighbours + [-v for v in powers + neighbours] + special)


def test_window_products_stay_below_the_next_decade():
    # each scale 10**s of the kernel is an exact double, and the largest
    # double v with v 10**s < 1e17 leaves more than 8 below 1e17: the
    # product rounds to at most 1e17 - 16 and its digits never carry into
    # the next decade
    for s, scale in enumerate(cli._POW10):
        assert Fraction(scale) == 10**s
        v = float(Fraction(10**17, 10**s))
        while Fraction(v) * 10**s >= 10**17:
            v = math.nextafter(v, 0.0)
        assert 10**17 - Fraction(v) * 10**s > 8


def test_block_kernel_formats_window_values_without_the_fallback(monkeypatch):
    rng = np.random.default_rng(7)
    table = rng.uniform(1.5, 9.5, (64, 13)) * 10.0 ** rng.integers(-6, 17, (64, 13))
    table *= rng.choice([-1.0, 1.0], table.shape)
    outside = [(0, 0, 0.0), (5, 3, 1e-300), (9, 12, -2e-7), (40, 7, 1e17), (63, 0, -0.0)]
    for r, c, v in outside:
        table[r, c] = v
    percent, seen = cli._fmt, []

    def outside_window_only(value):
        assert not 1e-6 <= abs(value) < 1e17, f"{value!r} went to the fallback"
        seen.append(value)
        return percent(value)

    monkeypatch.setattr(cli, "_fmt", outside_window_only)
    text = cli._format_block(table)
    assert seen == [v for _, _, v in outside]
    assert text == _reference_csv([], table).decode()[1:]


@pytest.mark.parametrize("ncols", [13, 19])
@pytest.mark.parametrize("rows", [2, 4095, 4096, 4097, 8193])
def test_block_writer_matches_per_value_formatting(tmp_path, rows, ncols):
    rng = np.random.default_rng(rows * ncols)
    table = rng.standard_normal((rows, ncols)) * 10.0 ** rng.integers(-300, 301, (rows, ncols))
    special = [-0.0, 5e-324, 2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 0.0, 1.0 / 3.0, -math.pi]
    for r in {0, 4095, 4096, rows - 1} & set(range(rows)):
        table[r] = np.resize(np.roll(special, r), ncols)
    header = [f"c{j}" for j in range(ncols)]
    chunks = list(cli._csv_blocks(header, list(table.T)))
    assert [c.count("\n") for c in chunks[1:]] == [
        min(cli._BLOCK_ROWS, rows - start) for start in range(0, rows, cli._BLOCK_ROWS)
    ]
    out = tmp_path / "table.csv"
    cli._atomic_write(out, iter(chunks))
    data = out.read_bytes()
    assert data == _reference_csv(header, table)
    assert b"-0.0000000000000000e+00" not in data
    assert b"e-300" in data and b"e+300" in data and b"e-324" in data


def test_trace_and_figures_match_per_value_formatting(tmp_path):
    out = tmp_path / "trace.csv"
    args = ["--k-over-omega", "0.2", "--f-over-k", "2", "--t-max-pi", "3", "--points", "8193"]
    assert cli.main(["--mode", "trace", *args, "--out", str(out)]) == 0
    assert out.read_bytes() == _reference_trace(0.2, 2.0, 3.0, 8193)
    assert cli.main(["--mode", "figures", "--points", "4097", "--out", str(tmp_path)]) == 0
    for name, k_over_omega, f_over_k in cli.FIGURE_SETS:
        assert (tmp_path / name).read_bytes() == _reference_trace(k_over_omega, f_over_k, 4.0, 4097)


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
def test_a_failing_chunk_leaves_no_partial_file(tmp_path, failure):
    table = np.ones((3 * cli._BLOCK_ROWS, len(cli.TRACE_COLUMNS)))

    def chunks():
        blocks = cli._csv_blocks(list(cli.TRACE_COLUMNS), list(table.T))
        yield next(blocks)  # the header
        yield next(blocks)  # the first block of rows
        raise failure("interrupted")

    out = tmp_path / "trace.csv"
    tmp = out.with_name(out.name + ".tmp")
    with pytest.raises(failure):
        cli._atomic_write(out, chunks())
    assert not out.exists() and not tmp.exists()
    out.write_bytes(b"earlier run\n")
    with pytest.raises(failure):
        cli._atomic_write(out, chunks())
    assert out.read_bytes() == b"earlier run\n" and not tmp.exists()


def test_block_writer_holds_a_few_blocks_not_the_file(tmp_path):
    rows, ncols = 100001, len(cli.TRACE_COLUMNS)
    table = np.random.default_rng(0).standard_normal((rows, ncols))
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._atomic_write(out, cli._csv_blocks(list(cli.TRACE_COLUMNS), list(table.T)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 8 * 2**20
    assert out.stat().st_size > 3 * bound  # holding the whole text would exceed the bound
    assert peak < bound, f"writer peak {peak / 2**20:.1f} MiB above the table"


def test_trace_holds_its_columns_and_a_few_arrays_more(tmp_path):
    # stacking the columns into one table and summing phi's five terms in
    # one expression takes about 21 complex arrays of the grid; 16 MiB is 10.5
    points = 100001
    argv = ["--k-over-omega", "0.37", "--f-over-k", "1.7", "--points", str(points)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(["--mode", "trace", *argv, "--out", str(tmp_path / "t.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 12 * 16 * points, f"trace peak {peak / 2**20:.1f} MiB"


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# settings\n"
        "mode = trace\n"
        "k-over-omega = 0.2\n"
        "points = 11\n"
    )
    out1 = tmp_path / "from_config.csv"
    assert cli.main(["--config", str(cfg), "--out", str(out1)]) == 0
    _, rows = _read_csv(out1)
    assert len(rows) == 11
    # an explicit flag overrides the config value
    out2 = tmp_path / "flag_wins.csv"
    assert cli.main(["--config", str(cfg), "--points", "7", "--out", str(out2)]) == 0
    _, rows2 = _read_csv(out2)
    assert len(rows2) == 7


@pytest.mark.parametrize(
    "line",
    ["modee = trace", "mode = bogus", "mode = Trace", "points = 1.5", "oracle = maybe"],
    ids=lambda line: line.replace(" ", ""),
)
def test_config_file_rejects_bad_lines(tmp_path, monkeypatch, capsys, line):
    # config values are checked as strictly as the flags they stand for
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", "bad.cfg", "--no-oracle"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dispersive-jcm: error: bad.cfg:1: ")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


@pytest.mark.parametrize(
    "argv", [["--points", "1"], ["--points", "x"], ["--mode", "bogus"], ["--config"]]
)
def test_bad_flags_print_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dispersive-jcm: error: "), err


def test_help_keeps_its_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dispersive-jcm ")


def test_bad_grid_arguments_are_rejected(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for mode in ("trace", "critical"):
        for flag, value in (
            ("--points", "1"),
            ("--t-max-pi", "-1.0"),
            ("--t-max-pi", "nan"),
            ("--t-max-pi", "inf"),
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--mode", mode, flag, value, "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("dispersive-jcm: error:")
            assert not out.exists()


@pytest.mark.parametrize(
    "mode, k_over_omega, f_over_k",
    [
        ("trace", "1e-200", "1.0"),  # was ZeroDivisionError in _theta_gamma
        ("trace", "1.0", "1e200"),  # was OverflowError in _phi
        ("trace", "1e100", "1.0"),  # was OverflowError in _phi
        ("trace", "4.27e-125", "3.28e242"),  # was NaN/inf columns with exit 0
        ("critical", "1.81e-116", "3.11e214"),  # was a NaN concurrence_at_tc
    ],
)
def test_out_of_range_ratios_exit_2_with_one_line(tmp_path, capsys, mode, k_over_omega, f_over_k):
    out = tmp_path / "out.csv"
    rc = cli.main(
        [f"--mode={mode}", f"--k-over-omega={k_over_omega}", f"--f-over-k={f_over_k}",
         "--points", "3", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()
    assert not out.with_name(out.name + ".tmp").exists()


@pytest.mark.parametrize("mode", ["trace", "figures"])
def test_an_overflowing_horizon_exits_2_without_warnings(tmp_path, capsys, mode):
    # omega t_max = 1e308 pi overflows to inf; the figures tables are built
    # on a worker thread, which must keep main's np.errstate
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["--mode", mode, "--points", "3", "--t-max-pi", "1e308", "--out", str(out)])
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "non-finite values in omega_t_over_pi" in err[0]
    assert not out.is_file() and not list(tmp_path.rglob("*.csv*"))


@pytest.mark.parametrize("mode", ["trace", "figures"])
def test_a_grid_too_large_to_allocate_exits_2_with_one_line(tmp_path, capsys, mode):
    # 10**15 points need 7 PiB, so the allocation fails at once
    out = tmp_path / "out"
    rc = cli.main(["--mode", mode, "--points", str(10**15), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: ")
    assert not out.exists()


def test_critical_horizon_above_the_bracketing_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "critical.csv"
    rc = cli.main(["--mode", "critical", "--t-max-pi", "1e12", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: critical instants")
    assert f"above the limit of {analytic.MAX_BRACKET_STEPS} " in err[0]
    assert not out.exists()
    assert not out.with_name(out.name + ".tmp").exists()


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["trace", "critical"]),
    k_over_omega=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    f_over_k=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
def test_any_finite_ratios_give_finite_csv_or_one_error_line(mode, k_over_omega, f_over_k):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(
                [f"--mode={mode}", f"--k-over-omega={k_over_omega!r}",
                 f"--f-over-k={f_over_k!r}", "--points", "3", "--out", str(out)]
            )
        assert rc in (0, 2)
        if rc == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert not out.exists()
            return
        header, rows = _read_csv(out)
        skip = {"kind", "classification", "t_trans"}
        for row in rows:
            for name, cell in zip(header, row):
                if name not in skip:
                    assert math.isfinite(float(cell)), (name, cell)


@pytest.mark.parametrize(
    "mode, out",
    [
        ("trace", "missing/x.csv"),  # no parent directory
        ("trace", "dir"),  # an existing directory
        ("figures", "file"),  # an existing file
        ("critical", "file/x.csv"),  # a file as parent directory
        ("verify", "missing/r.txt"),  # the report after the checks ran
    ],
)
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, mode, out):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(
        ["--mode", mode, "--no-oracle", "--points", "5", "--out", str(tmp_path / out)]
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {tmp_path / out}: ")
    assert sorted(tmp_path.rglob("*")) == before  # neither the target nor a .tmp file
    assert (tmp_path / "file").read_text() == "kept\n"


def test_verify_without_out_names_the_unwritable_temp_dir(tmp_path, capsys, monkeypatch):
    # c8 writes its figure runs under the temp directory
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert cli.main(["--mode", "verify", "--no-oracle"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {tmp_path / 'missing'}")


def test_import_and_csv_modes_load_no_scipy_submodule(tmp_path):
    # the closed forms, their roots and the Fock truncation need numpy alone;
    # scipy's submodules load on first use
    package_root = Path(dispersive_jcm.__file__).resolve().parents[1]
    pythonpath = filter(None, [str(package_root), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    code = (
        "import sys\n"
        "import dispersive_jcm, dispersive_jcm.cli as cli\n"
        "assert cli.main(['--mode', 'trace', '--points', '5', '--out', 't.csv']) == 0\n"
        "assert cli.main(['--mode', 'figures', '--points', '5', '--out', 'figs']) == 0\n"
        "assert cli.main(['--mode', 'critical', '--k-over-omega', '0.2', '--t-max-pi', '40',\n"
        "                 '--out', 'c.csv']) == 0\n"
        "import csv\n"
        "assert any(r['kind'] == 'disentangle' for r in csv.DictReader(open('c.csv')))\n"
        "from dispersive_jcm import model, oracle\n"
        "assert oracle.fock_truncation(model.ModelParams(1.0, 0.2, 0.4)) == 52\n"
        "heavy = {'scipy.sparse', 'scipy.integrate', 'scipy.linalg', 'scipy.optimize', 'scipy.special'}\n"
        "print(sorted(m for m in sys.modules if '.'.join(m.split('.')[:2]) in heavy))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert len(list((tmp_path / "figs").iterdir())) == len(cli.FIGURE_SETS)


def test_verify_without_oracle_loads_neither_optimize_nor_special(tmp_path):
    # only scipy.integrate, which the oracle's integrator needs, brings them
    package_root = Path(dispersive_jcm.__file__).resolve().parents[1]
    pythonpath = filter(None, [str(package_root), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    code = (
        "import sys, contextlib, io\n"
        "import dispersive_jcm.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--mode', 'verify', '--no-oracle', '--out', 'r.txt']) == 0\n"
        "heavy = {'scipy.optimize', 'scipy.special', 'scipy.integrate'}\n"
        "print(sorted(m for m in sys.modules if '.'.join(m.split('.')[:2]) in heavy))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_invalid_physics_parameters_exit_nonzero(tmp_path, capsys):
    rc = cli.main(
        ["--mode", "trace", "--k-over-omega", "-1.0", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_verify_without_oracle_passes_and_reports_skips(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    rc = cli.main(["--mode", "verify", "--no-oracle", "--out", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP" in out and "(oracle disabled)" in out
    assert "FAIL" not in out
    assert out.count("PASS") >= 19
    assert report_path.read_text().splitlines()[-1].endswith("skipped")


def test_module_entry_point_runs(tmp_path):
    # A fresh interpreter started outside the checkout must find the same
    # package this process imported, whether from a source tree or installed.
    package_root = Path(dispersive_jcm.__file__).resolve().parents[1]
    pythonpath = filter(None, [str(package_root), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    args = ["--mode", "trace", "--points", "3"]
    out = tmp_path / "entry.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "dispersive_jcm", *args, "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    in_process = tmp_path / "in_process.csv"
    assert cli.main(args + ["--out", str(in_process)]) == 0
    assert out.read_bytes() == in_process.read_bytes()


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats adds about 0.6 s to every start of the command line
    package_root = Path(dispersive_jcm.__file__).resolve().parents[1]
    pythonpath = filter(None, [str(package_root), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    code = "import sys, dispersive_jcm.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
