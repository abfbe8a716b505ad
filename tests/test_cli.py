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
from unittest import mock

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
        ["--mode", "trace", "--oracle", "--k-over-omega", "0.2", "--f-over-k", "40",
         "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Fock truncation N = 1964")
    assert not out.exists()
    assert not out.with_name(out.name + ".tmp").exists()


def test_an_oracle_horizon_over_the_work_budget_exits_2_at_once(tmp_path):
    # about 1.8e7 Taylor steps at N = 20: refused after the first one
    package_root = Path(dispersive_jcm.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "dispersive_jcm", "--mode", "trace", "--oracle",
         "--t-max-pi", "1e6", "--points", "3", "--out", "h.csv"],
        capture_output=True, text=True, cwd=tmp_path, timeout=30,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: N=20: about "), proc.stderr
    assert "over the oracle work budget of 2e+08 step-entries" in err[0]
    assert list(tmp_path.iterdir()) == []


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


def _row_blocks(table):
    """The column slices of each block of up to cli._BLOCK_ROWS rows of a 2-D table."""
    rows = cli._BLOCK_ROWS
    return [list(table[start:start + rows].T) for start in range(0, len(table), rows)]


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
        assert cli._format_block(list(block.T)) == expected.encode()


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
    text = cli._format_block(list(table.T))
    # the kernel takes the columns one after another
    assert seen == [v for _, _, v in sorted(outside, key=lambda o: (o[1], o[0]))]
    assert text == _reference_csv([], table)[1:]


def _kernel_bytes_and_copies(table):
    """The kernel's bytes for a 2-D table and the number of blocks it copied row by row."""
    with mock.patch.object(cli, "_copy_rows", wraps=cli._copy_rows) as copy_rows:
        text = cli._format_block(list(table.T))
    return text, copy_rows.call_count


def _window_table(seed, rows, signs):
    """Values in the kernel's window, column j of sign signs[j]."""
    rng = np.random.default_rng(seed)
    shape = (rows, len(signs))
    return rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(-6, 17, shape) * signs


_TRACE_SIGNS = [1.0] * 6 + [-1.0] + [1.0] * 6  # re_phi is the one negative column
_COLUMN_SIGNS = {
    "positive": [1.0] * 13,
    "negative": [-1.0] * 13,
    "alternating": [(-1.0) ** j for j in range(13)],
    "trace": _TRACE_SIGNS,
    "one column": [-1.0],
}


@pytest.mark.parametrize("signs", list(_COLUMN_SIGNS.values()), ids=list(_COLUMN_SIGNS))
@pytest.mark.parametrize("rows", [1, 2, 37])
def test_columns_of_one_sign_take_the_copy_path(signs, rows):
    table = _window_table(rows, rows, signs)
    # fallbacks with two exponent digits keep the copy path: zeros in a
    # positive column, and tiny or huge values of the column's sign
    for j, sign in enumerate(signs):
        table[j % rows, j] = sign * [3e-7, 2.5e17, 1e-99, 9.999999999999999e-7][j % 4]
        if sign > 0 and j % 3 == 0:
            table[(j + 1) % rows, j] = [0.0, -0.0][j % 2]
    text, copies = _kernel_bytes_and_copies(table)
    assert text == _reference_csv([], table)[1:]
    assert copies == 1


@pytest.mark.parametrize("value", [0.0, -0.0, 2.5, 1e-7], ids=["zero", "-0.0", "flip", "tiny flip"])
def test_a_zero_or_a_sign_flip_inside_a_negative_column_takes_the_translate_path(value):
    table = _window_table(3, 40, _TRACE_SIGNS)
    table[17, 6] = value
    text, copies = _kernel_bytes_and_copies(table)
    assert text == _reference_csv([], table)[1:]
    assert copies == 0


@pytest.mark.parametrize("value", [1e-120, -1e-120, 3e150, -3e150, 5e-324])
def test_a_three_digit_exponent_in_a_column_of_one_sign_takes_the_translate_path(value):
    table = _window_table(4, 40, [math.copysign(1.0, value)] * 13)
    table[23, 4] = value
    text, copies = _kernel_bytes_and_copies(table)
    assert text == _reference_csv([], table)[1:]
    assert copies == 0


def test_powers_of_ten_and_their_neighbours_take_the_copy_path_in_a_row():
    powers = [10.0**k for k in range(-6, 17)]
    values = powers + [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    for sign in (1.0, -1.0):
        table = sign * np.array([values])
        text, copies = _kernel_bytes_and_copies(table)
        assert text == _reference_csv([], table)[1:]
        assert copies == 1


# magnitudes whose texts have two exponent digits: the kernel's window,
# zero, and the fallbacks on either side of it
_standard_magnitudes = st.one_of(
    _window_values.map(abs),
    st.just(0.0),
    st.floats(1e-99, 1e-6, exclude_max=True),
    st.floats(1e17, 9.9e99),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=8), st.data())
def test_block_kernel_copy_path_matches_percent_formatting(rows, signs, data):
    magnitudes = data.draw(st.lists(_standard_magnitudes, min_size=rows * len(signs),
                                    max_size=rows * len(signs)))
    table = np.array(magnitudes).reshape(rows, len(signs)) * signs
    text, copies = _kernel_bytes_and_copies(table)
    assert text == _reference_csv([], table)[1:]
    # zero is written without a sign, so a zero beside negative values in
    # a column sends the block to the translate path
    negative = table < 0.0
    assert copies == int((negative == negative[:1]).all())


@pytest.mark.parametrize("rows_past", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (2, 1)])
def test_the_copy_path_at_block_boundaries(rows_past):
    blocks, extra = rows_past
    rows = blocks * cli._BLOCK_ROWS + extra
    table = _window_table(rows, rows, _TRACE_SIGNS)
    table[0, 6] = -1e-120  # three exponent digits: the first block takes the translate path
    header = list(cli.TRACE_COLUMNS)
    with mock.patch.object(cli, "_copy_rows", wraps=cli._copy_rows) as copy_rows:
        chunks = list(cli._csv_blocks(header, _row_blocks(table)))
    assert b"".join(chunks) == _reference_csv(header, table)
    assert len(chunks) == 1 + -(-rows // cli._BLOCK_ROWS)
    assert copy_rows.call_count == len(chunks) - 2


def test_a_long_trace_copies_every_block_but_the_first(tmp_path):
    points = 100001
    out = tmp_path / "t.csv"
    with mock.patch.object(cli, "_copy_rows", wraps=cli._copy_rows) as copy_rows:
        assert cli.main(["--mode", "trace", "--points", str(points), "--out", str(out)]) == 0
    assert copy_rows.call_count == -(-points // cli._BLOCK_ROWS) - 1


@pytest.mark.parametrize("ncols", [13, 19])
@pytest.mark.parametrize("rows", [2, 4095, 4096, 4097, 8193])
def test_block_writer_matches_per_value_formatting(tmp_path, rows, ncols):
    rng = np.random.default_rng(rows * ncols)
    table = rng.standard_normal((rows, ncols)) * 10.0 ** rng.integers(-300, 301, (rows, ncols))
    special = [-0.0, 5e-324, 2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 0.0, 1.0 / 3.0, -math.pi]
    for r in {0, 4095, 4096, rows - 1} & set(range(rows)):
        table[r] = np.resize(np.roll(special, r), ncols)
    header = [f"c{j}" for j in range(ncols)]
    chunks = list(cli._csv_blocks(header, _row_blocks(table)))
    assert [c.count(b"\n") for c in chunks[1:]] == [
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
        blocks = cli._csv_blocks(list(cli.TRACE_COLUMNS), _row_blocks(table))
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
        cli._atomic_write(out, cli._csv_blocks(list(cli.TRACE_COLUMNS), _row_blocks(table)))
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


@pytest.mark.parametrize("points", [65535, 65536, 65537, 98304, 100001])
def test_chunked_table_is_the_bytes_of_the_whole_grid(points):
    # the table is evaluated one block at a time, yet each value has the
    # bits of the whole grid's evaluation, whose complex temporaries numpy
    # computes on in place
    rng = np.random.default_rng(points)
    params = make_params(10 ** rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0))
    times = np.linspace(0.0, rng.uniform(1.0, 40.0) * math.pi, points)
    columns = analytic.observables(params, times)
    whole = np.stack([times / math.pi] + [columns[name] for name in cli.TRACE_COLUMNS[1:]], axis=1)
    del columns
    expected = b"".join(cli._csv_blocks(list(cli.TRACE_COLUMNS), _row_blocks(whole)))
    del whole
    config = cli.IntegratorConfig()
    with mock.patch.object(analytic, "observables", wraps=analytic.observables) as calls:
        blocked = b"".join(cli._csv_blocks(*cli._trace_table(params, times, False, config)))
    assert blocked == expected
    sizes = [len(c.args[1]) for c in calls.call_args_list]
    rows = cli._BLOCK_ROWS
    assert sizes == [min(rows, points - start) for start in range(0, points, rows)]


def _trace_peak(tmp_path, points):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        argv = ["--mode", "trace", "--points", str(points), "--out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_trace_memory_grows_only_by_its_time_grid(tmp_path):
    # the grid and one block's evaluation and formatting; the whole
    # 100001-point table alone is 9.9 MiB, and evaluating it took 13 MiB
    small, large = _trace_peak(tmp_path, 100001), _trace_peak(tmp_path, 200001)
    assert small < 7 * 2**20, f"trace peak {small / 2**20:.1f} MiB"
    assert large - small <= 8 * 100000 + 2**20, f"{small / 2**20:.1f} -> {large / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    ("poison", "opened"),
    [
        ({"concurrence": -1, "zeta_atom": -1}, True),  # the last block only
        ({"concurrence": -1, "zeta_atom": 40000}, True),  # a middle and the last block
        ({"concurrence": -1, "zeta_atom": 1}, False),  # the first and the last block
    ],
)
def test_a_non_finite_chunk_fails_as_a_whole_table_check(
    tmp_path, capsys, monkeypatch, poison, opened
):
    points = 100001
    times = np.linspace(0.0, 4.0 * math.pi, points)
    observables = analytic.observables

    def poisoned(params, t):
        columns = observables(params, t)
        for name, index in poison.items():
            columns[name][t == times[index]] = np.nan
        return columns

    monkeypatch.setattr(analytic, "observables", poisoned)
    out = tmp_path / "t.csv"
    args = ["--mode", "trace", "--points", str(points), "--out", str(out)]
    with monkeypatch.context() as whole:
        whole.setattr(cli, "_BLOCK_ROWS", points)
        assert cli.main(args) == 2
    unblocked = capsys.readouterr().err
    assert unblocked.splitlines() == [
        "error: non-finite values in zeta_atom, concurrence: parameters outside the numerical range"
    ]
    assert not list(tmp_path.iterdir())
    out.write_bytes(b"earlier run\n")
    with mock.patch.object(cli, "_write_temp", wraps=cli._write_temp) as write_temp:
        assert cli.main(args) == 2
    # the temp file is opened only once the first block has passed
    assert write_temp.call_count == opened
    assert capsys.readouterr().err == unblocked
    assert out.read_bytes() == b"earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("points", [21, 2001])
def test_an_oracle_trace_has_the_closed_form_bytes_of_the_plain_trace(
    tmp_path, monkeypatch, points
):
    # the oracle integrates along the whole grid from t = 0, in one call,
    # however many blocks the table is written in
    args = ["--mode", "trace", "--points", str(points), "--t-max-pi", "0.5"]
    assert cli.main([*args, "--out", str(tmp_path / "plain.csv")]) == 0
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 16)
    with mock.patch.object(cli.oracle, "series", wraps=cli.oracle.series) as series:
        assert cli.main([*args, "--oracle", "--out", str(tmp_path / "oracle.csv")]) == 0
    assert series.call_count == 1
    width = len(cli.TRACE_COLUMNS)
    lines = (tmp_path / "oracle.csv").read_bytes().splitlines()
    closed = b"".join(b",".join(line.split(b",")[:width]) + b"\n" for line in lines)
    assert closed == (tmp_path / "plain.csv").read_bytes()


def test_a_row_does_not_depend_on_the_number_of_points(tmp_path):
    # both grids hold the same first 10000 times, and a row's bytes depend
    # only on its time, not on how many points the grid has
    long, short = tmp_path / "long.csv", tmp_path / "short.csv"
    for out, points, t_max_pi in ((long, "40001", "4"), (short, "10001", "1")):
        argv = ["--mode", "trace", "--points", points, "--t-max-pi", t_max_pi, "--out", str(out)]
        assert cli.main(argv) == 0
    head = 10001  # the header and 10000 rows
    assert long.read_bytes().splitlines()[:head] == short.read_bytes().splitlines()[:head]


def test_a_non_finite_first_chunk_wins_over_an_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "t.csv"
    argv = ["--mode", "trace", "--points", "100001", "--t-max-pi", "1e308", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite values in omega_t_over_pi")
    assert not (tmp_path / "missing").exists()


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rel-tol", "inf", "integrator tolerances must be finite"),
        ("--rel-tol", "nan", "integrator tolerances must be finite"),
        ("--abs-tol", "inf", "integrator tolerances must be finite"),
        ("--rel-tol", "1e-30", "rel_tol must lie in [2.22e-14, 1)"),
        ("--abs-tol", "0", "abs_tol must be positive"),
    ],
)
def test_absurd_tolerances_exit_2_with_one_line(tmp_path, capsys, flag, value, message):
    # --rel-tol inf used to run forever, and 1e-30 ran at 2.2e-14 with a warning
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(
            ["--mode", "trace", "--oracle", "--points", "5", flag, value, "--out", str(out)]
        )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    assert not out.exists()


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


def _run_isolated(code, cwd, **env):
    """Run ``code`` in a fresh interpreter that imports this package.

    ``env`` entries override the inherited environment; None removes one.
    """
    package_root = Path(dispersive_jcm.__file__).resolve().parents[1]
    pythonpath = filter(None, [str(package_root), os.environ.get("PYTHONPATH")])
    merged = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath), **env}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={key: value for key, value in merged.items() if value is not None},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_csv_modes_load_no_scipy_submodule(tmp_path):
    # the closed forms, their roots and the Fock truncation need numpy alone;
    # scipy's submodules load on first use
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
        "assert oracle.fock_truncation(model.ModelParams(1.0, 0.2, 0.4)) == 33\n"
        "heavy = {'scipy.sparse', 'scipy.integrate', 'scipy.linalg', 'scipy.optimize', 'scipy.special'}\n"
        "print(sorted(m for m in sys.modules if '.'.join(m.split('.')[:2]) in heavy))\n"
    )
    assert _run_isolated(code, tmp_path).strip() == "[]"
    assert len(list((tmp_path / "figs").iterdir())) == len(cli.FIGURE_SETS)


def test_verify_without_oracle_loads_neither_optimize_nor_special(tmp_path):
    # c6 needs scipy.linalg and scipy.sparse alone
    code = (
        "import sys, contextlib, io\n"
        "import dispersive_jcm.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--mode', 'verify', '--no-oracle', '--out', 'r.txt']) == 0\n"
        "heavy = {'scipy.optimize', 'scipy.special', 'scipy.integrate'}\n"
        "print(sorted(m for m in sys.modules if '.'.join(m.split('.')[:2]) in heavy))\n"
    )
    assert _run_isolated(code, tmp_path).strip() == "[]"


def test_verify_without_oracle_propagates_with_one_engine(tmp_path):
    # c6's flows run on the oracle's Taylor engine, so no scipy propagator loads
    code = (
        "import sys, contextlib, io\n"
        "import dispersive_jcm.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--mode', 'verify', '--no-oracle']) == 0\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    assert _run_isolated(code, tmp_path).strip() == "False"


def test_oracle_trace_loads_no_integrator_optimizer_or_special_functions(tmp_path):
    # the propagator is the package's own; scipy.integrate would bring the rest
    code = (
        "import sys\n"
        "import dispersive_jcm.cli as cli\n"
        "assert cli.main(['--mode', 'trace', '--oracle', '--points', '21',\n"
        "                 '--t-max-pi', '0.5', '--out', 'o.csv']) == 0\n"
        "heavy = {'scipy.integrate', 'scipy.optimize', 'scipy.special'}\n"
        "print(sorted(m for m in sys.modules if '.'.join(m.split('.')[:2]) in heavy))\n"
    )
    assert _run_isolated(code, tmp_path).strip() == "[]"


def test_oracle_trace_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the largest standard truncation, N = 33
    for name, threads in (("default", None), ("one-thread", "1")):
        code = (
            "import dispersive_jcm.cli as cli\n"
            "assert cli.main(['--mode', 'trace', '--oracle', '--k-over-omega', '0.2',\n"
            f"                 '--f-over-k', '2', '--points', '201', '--out', '{name}.csv']) == 0\n"
        )
        _run_isolated(code, tmp_path, OPENBLAS_NUM_THREADS=threads)
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "one-thread.csv").read_bytes()


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
