"""Command-line interface: deterministic CSV output and the acceptance gate.

Four modes, all in the omega = 1 convention (times are reported as
omega*t/pi and parameters as the ratios kappa/omega and |drive|/kappa):

- ``trace``: one CSV of every closed-form observable on a uniform grid,
  with integrated oracle columns appended when ``--oracle`` is on.
- ``figures``: the five standard parameter sets as five CSVs (the three
  damping ratios at fixed drive, then the two drive strengths at weak
  damping).  The correlation/concurrence panels read from the same
  files, so no separate CSVs are emitted for them.
- ``critical``: one CSV of every critical instant (disentanglement
  roots and entropy extremum candidates) up to the requested horizon.
- ``verify``: run the acceptance suite and print one PASS/FAIL/SKIP
  line per check; exits nonzero when any executed check fails.

Every CSV is written with LF line endings and 17-significant-digit
scientific notation through a temp file renamed into place, so repeated
runs with the same arguments are byte-identical and interrupted runs
leave no partial files behind.  ``figures`` builds its five tables one
after another and renames them into place only once all five are
written: a run that fails replaces none of them and names the file that
failed.  A CSV holds only finite numbers (apart from critical's
``t_trans``, nan when there is no transition); parameters whose closed
forms leave the floating-point range exit 2 with one error line instead,
as does an output path that cannot be written or a grid too large to
allocate.  A trace or figure table is evaluated in chunks of at
least 32768 time points, each checked for finiteness and streamed to the
temp file as bytes in blocks of rows, through a file opened in binary
mode, before the next chunk is evaluated; the first chunk is checked
before the temp file is opened, and a grid under 65536 points, or any
grid with the oracle, is one chunk.  A run holds its time grid, one chunk
and a few blocks, not the file or the whole table, and a later chunk that
fails its check leaves no file, with the error a whole-table check gives.

Each block is formatted by a numpy kernel that writes the bytes of
``"%.16e" % v`` exactly: Dekker's error-free product (Numer. Math. 18
(1971) 224) gives |v| 10**s as an exact double pair, from which the 17
digits are rounded half to even as CPython's dtoa rounds them.  Values
outside its range, zero among them, are formatted with ``%`` in one pass
over the block.  Each value fills a slot of seven uint32 words: [sign or
NUL, lead digit, ".", digit], three words of four digits, [three digits,
"e"], [exponent sign, two exponent digits, separator] and four NULs.
A block whose columns each keep one sign, and whose values all have two
exponent digits, takes the copy path: each run of equal-sign columns is
copied, 23 or 24 bytes per value, into fixed places of its rows.  Any
other block, such as the one holding t = 0, where zeros sit beside the
negative Re phi, joins its slots and deletes the NUL bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import math
import os
import sys
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import acceptance, analytic, oracle
from .model import ModelParams, make_params
from .oracle import IntegratorConfig, OracleError

__all__ = ["main", "get_args", "TRACE_COLUMNS", "ORACLE_COLUMNS", "FIGURE_SETS"]

TRACE_COLUMNS = (
    "omega_t_over_pi",
    "zeta_global",
    "zeta_atom",
    "zeta_field",
    "corr_c",
    "concurrence",
    "re_phi",
    "dist_sq",
    "lambda_plus",
    "lambda_minus",
    "Lambda_plus",
    "Lambda_minus",
    "nbar_analytic",
)

ORACLE_COLUMNS = (
    "oracle_zeta_global",
    "oracle_zeta_atom",
    "oracle_zeta_field",
    "oracle_corr_c",
    "oracle_concurrence",
    "oracle_re_phi",
)

CRITICAL_COLUMNS = (
    "t_c",
    "omega_tc_over_pi",
    "kind",
    "classification",
    "n_index",
    "zeta_field_at_tc",
    "concurrence_at_tc",
    "t_trans",
)

MODES = ("trace", "figures", "critical", "verify")

#: (file name, kappa/omega, |drive|/kappa) for the figures mode.
FIGURE_SETS = (
    ("fig1_k0.2.csv", 0.2, 1.0),
    ("fig1_k1.csv", 1.0, 1.0),
    ("fig1_k5.csv", 5.0, 1.0),
    ("fig2_f0.5.csv", 0.2, 0.5),
    ("fig2_f2.csv", 0.2, 2.0),
)


def _mode(text: str) -> str:
    if text not in MODES:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(MODES)})")
    return text


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: config key -> the cast of its value, as strict as the matching flag's
_CONFIG_KEYS = {
    "mode": _mode,
    "k_over_omega": float,
    "f_over_k": float,
    "t_max_pi": float,
    "points": int,
    "oracle": _parse_bool,
    "out": str,
    "rel_tol": float,
    "abs_tol": float,
}


def _read_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, dashes equal underscores."""
    overrides = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return overrides


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or config value on one stderr line, without usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def get_args(argv=None) -> argparse.Namespace:
    parser = _Parser(
        prog="dispersive-jcm",
        description="Closed-form decoherence dynamics of a dispersively "
        "coupled atom in a driven, damped cavity.",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="trace",
        help="what to compute (default: trace)",
    )
    parser.add_argument(
        "--k-over-omega", type=float, default=1.0,
        help="damping rate over dispersive coupling (default: 1)",
    )
    parser.add_argument(
        "--f-over-k", type=float, default=1.0,
        help="drive magnitude over damping rate (default: 1)",
    )
    parser.add_argument(
        "--t-max-pi", type=float, default=4.0,
        help="time horizon as omega*t/pi (default: 4)",
    )
    parser.add_argument(
        "--points", type=int, default=2001,
        help="grid points for trace/figures (default: 2001)",
    )
    parser.add_argument(
        "--oracle",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="integrate the master equation alongside the closed form "
        "(default: on for verify, off otherwise)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output file (trace/critical/verify report) or directory "
        "(figures); defaults: trace.csv, critical.csv, '.', stdout only",
    )
    parser.add_argument(
        "--config", default=None,
        help="flat key=value file supplying defaults; explicit flags win",
    )
    parser.add_argument(
        "--rel-tol", type=float, default=1e-9,
        help="relative tolerance of the oracle's Taylor step-size rule, "
        "in [2.2e-14, 1) (default: 1e-9)",
    )
    parser.add_argument(
        "--abs-tol", type=float, default=1e-11,
        help="absolute tolerance of the oracle's Taylor step-size rule, "
        "positive and finite (default: 1e-11)",
    )

    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config is not None:
        try:
            parser.set_defaults(**_read_config(known.config))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    args = parser.parse_args(argv)
    if args.oracle is None:
        args.oracle = args.mode == "verify"
    if args.out is None:
        args.out = {"trace": "trace.csv", "critical": "critical.csv", "figures": "."}.get(
            args.mode
        )
    if args.points < 2:
        parser.error("--points must be at least 2")
    if not (math.isfinite(args.t_max_pi) and args.t_max_pi > 0):
        parser.error("--t-max-pi must be positive and finite")
    return args


# ---------------------------------------------------------------- CSV plumbing

#: rows per formatted block of a streamed table; a block of a trace's 13
#: columns peaks at about 1.5 MiB of temporaries
_BLOCK_ROWS = 1024


def _temp(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _write_temp(path: Path, chunks: Iterable[bytes]) -> None:
    """Write byte chunks to ``<path>.tmp``, one at a time."""
    with open(_temp(path), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


@contextlib.contextmanager
def _all_or_nothing(paths: list[Path]):
    """Rename the temp files of ``paths`` into place once the block succeeds.

    If the block or a rename raises, every temp file left is removed, so
    each path not yet replaced keeps whatever it held before.
    """
    try:
        yield
        for path in paths:
            os.replace(_temp(path), path)
    except BaseException:
        for path in paths:
            _temp(path).unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write byte chunks via a temp file renamed into place.

    The chunks are consumed one at a time; if one raises, the temp file is
    removed and whatever ``path`` held before stays as it was.
    """
    with _all_or_nothing([path]):
        _write_temp(path, chunks)


def _fmt(value: float) -> str:
    return "%.16e" % (value + 0.0)  # + 0.0 folds -0.0 into 0.0


def _veltkamp(x):
    """Halves with hi + lo == x exactly, each of at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


#: 10**s for s = 0..22, each an exact double, and its Veltkamp halves
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)

# A formatted value fills one 28-byte slot, seven uint32 words of ASCII:
# [sign or NUL, lead digit, ".", digit], three words of four digits,
# [three digits, "e"], [exponent sign, two exponent digits, separator],
# [NUL x 4].  A value with two exponent digits, the standard width, is
# bytes 1-23 of its slot, or bytes 0-23 when it is negative.
_HEAD = np.frombuffer(
    b"".join(sign + b"%d.%d" % divmod(d, 10) for sign in (b"\0", b"-") for d in range(100)),
    np.uint32,
)
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_DIGITS4 = _DIGITS4.reshape(10000, 4).view(np.uint32).ravel()  # "0000" to "9999"
_DIGITS3 = np.frombuffer(b"".join(b"%03de" % d for d in range(1000)), np.uint32)  # "000e" to "999e"
_EXPONENT = np.frombuffer(
    b"".join(b"%+03d" % e + sep for sep in (b",", b"\n") for e in range(-6, 17)), np.uint32
)


def _format_block(columns: list[np.ndarray]) -> bytes:
    """The CSV rows of equal-length column slices, each value as :func:`_fmt` writes it.

    For 1e-6 <= |v| < 1e17 the 17 significant digits are those of
    n = round(|v| 10**s) with s = 16 - floor(log10 |v|), rounded to nearest
    with ties to even, as CPython's correctly rounded dtoa does.  s lies in
    [0, 22], so 10**s is an exact double and Dekker's TwoProduct (Numer.
    Math. 18 (1971) 224) gives |v| 10**s = hi + lo exactly.  When that
    product lies in [1e16, 1e17), hi is an integer and even (every double
    above 2**53 is), so n = hi + rint(lo), with numpy's ties-to-even rint,
    breaks a tie towards even.  No such product lies within 8 of 1e17, so
    hi < 1e17 and n never carries into the next decade.  Zero, the rest
    of the range, non-finite values and the neighbours of a power of ten
    whose decade log10 misses go through _fmt, in one pass over them.

    When every column keeps one sign and every text has the standard
    width, each run of equal-sign columns is copied into its fixed place
    in the rows (:func:`_copy_rows`); otherwise the slots are joined with
    their NUL bytes deleted.
    """
    rows, cols = len(columns[0]), len(columns)
    x = np.concatenate(columns)  # column after column
    a = np.abs(x)
    inside = (a >= 1e-6) & (a < 1e17)
    a[~inside] = 1.0
    s = np.log10(a)
    np.floor(s, out=s)
    np.subtract(16.0, s, out=s)
    np.clip(s, 0.0, 22.0, out=s)
    s = s.astype(np.intp)

    hi = np.take(_POW10, s)
    hi *= a
    a_hi, a_lo = _veltkamp(a)
    del a
    p_hi = np.take(_POW10_HI, s)
    p_lo = np.take(_POW10_LO, s)
    # lo = |v| 10**s - hi exactly, summed in Dekker's order
    lo = a_hi * p_hi - hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    del a_hi, a_lo, p_hi, p_lo
    exact = inside & (hi >= 1e16) & (hi < 1e17) & ((hi > 1e16) | (lo >= 0.0))
    del inside
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    n[~exact] = 10**16
    exponent = 22 - s  # index into _EXPONENT, which starts at e-06
    exponent[(cols - 1) * rows:] += 23  # the words that end a row
    del hi, lo, s

    negative = x < 0.0
    fallback = np.flatnonzero(~exact)
    # a NUL stands in the sign's place of a value without one
    text = [
        ("" if v < 0.0 else "\0") + _fmt(v) + ("\n" if last else ",")
        for v, last in zip(x[fallback].tolist(), (fallback >= (cols - 1) * rows).tolist())
    ]
    del x, exact

    # the slot words take the 17 digits as 2 + 4 + 4 + 4 + 3
    low = n // 1000
    n -= low * 1000  # digits 15-17
    top = low // 10**8
    low -= top * 10**8
    low = low.astype(np.int32)
    top = top.astype(np.int32)
    lead = top // 10**4  # digits 1-2
    top -= lead * 10**4  # digits 3-6
    mid = low // 10**4  # digits 7-10
    low -= mid * 10**4  # digits 11-14
    lead += 100 * negative  # the _HEAD words with a minus sign

    slots = np.zeros((rows * cols, 7), np.uint32)
    slots[:, 0] = np.take(_HEAD, lead)
    slots[:, 1] = np.take(_DIGITS4, top)
    slots[:, 2] = np.take(_DIGITS4, mid)
    slots[:, 3] = np.take(_DIGITS4, low)
    slots[:, 4] = np.take(_DIGITS3, n)
    slots[:, 5] = np.take(_EXPONENT, exponent)
    del n, lead, top, mid, low, exponent
    slots[fallback] = np.array(text, "S28").view(np.uint32).reshape(-1, 7)
    standard = all(len(t) == 24 for t in text)
    signs = negative.reshape(cols, rows)
    if standard and (signs == signs[:, :1]).all():
        return _copy_rows(slots.view(np.uint8).reshape(cols, rows, 28), signs[:, 0])
    return slots.reshape(cols, rows, 7).transpose(1, 0, 2).tobytes().translate(None, b"\0")


def _copy_rows(slots: np.ndarray, negative: np.ndarray) -> bytes:
    """The rows of (cols, rows, 28) byte slots whose values all have the standard width.

    Column j's texts are bytes 1-23 of its slots, or 0-23 when
    ``negative[j]``; each run of equal-sign columns lands in a fixed place
    of every row, copied as one np.void item per value.
    """
    cols, rows, _ = slots.shape
    out = np.empty((rows, 23 * cols + int(negative.sum())), np.uint8)
    edges = [0, *(np.flatnonzero(negative[1:] != negative[:-1]) + 1).tolist(), cols]
    place = 0
    for first, stop in zip(edges, edges[1:]):
        width = 24 if negative[first] else 23
        item = np.dtype((np.void, width))
        end = place + (stop - first) * width
        out[:, place:end].view(item)[...] = slots[first:stop, :, 24 - width:24].view(item)[..., 0].T
        place = end
    return out.tobytes()


def _csv_blocks(
    header: list[str], columns: list[np.ndarray], later: Iterable[list[np.ndarray]] = ()
) -> Iterator[bytes]:
    """The header line, then the bytes of each block of up to _BLOCK_ROWS rows.

    The rows are those of the equal-length ``columns``, then those of each
    column chunk that ``later`` yields, drawn only once every block before
    it is out.  Each block takes its slices of one chunk, so no table is
    ever copied, and :func:`_format_block` writes every value as
    :func:`_fmt` does, byte for byte, holding one block's arrays and bytes
    at a time.  A chunk is released before the next one is drawn.
    """
    yield (",".join(header) + "\n").encode()
    later = iter(later)
    while columns is not None:
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            yield _format_block([c[start:start + _BLOCK_ROWS] for c in columns])
        del columns  # released before the next chunk is evaluated
        columns = next(later, None)


#: time points per closed-form evaluation of a streamed trace or figure
#: table; the last chunk also takes the remainder, so every chunk has at
#: least this many.  At 32768 points a float temporary is 256 KiB, numpy's
#: threshold for computing on a temporary in place, which can swap the
#: operands of a complex product (see analytic._phi): every temporary of a
#: chunk then falls on the side of that threshold it falls on in a whole
#: grid, and the chunks give the whole grid's values bit for bit.
_CHUNK_POINTS = 32768


def _trace_columns(
    params: ModelParams, times: np.ndarray, with_oracle: bool, config: IntegratorConfig
) -> list[np.ndarray]:
    """The value columns of a trace at ``times``, in header order."""
    columns = analytic.observables(params, times)
    data = [times / math.pi] + [columns[name] for name in TRACE_COLUMNS[1:]]
    if with_oracle:
        pair = analytic.coherent_pair(params, times)
        oracle_columns = oracle.series(params, times, pair.beta_e_prime, pair.beta_g_prime, config)
        data += [oracle_columns[name[len("oracle_"):]] for name in ORACLE_COLUMNS]
    return data


def _check_finite(
    header: list[str], columns: list[np.ndarray], later: Iterable[list[np.ndarray]]
) -> None:
    """Raise if ``columns`` hold a non-finite value.

    The error names, in header order, every column that holds one here or
    in any chunk ``later`` yields, so it reads as a check of the whole table.
    """
    bad = [not np.isfinite(column).all() for column in columns]
    if any(bad):
        for chunk in later:
            bad = [b or not np.isfinite(column).all() for b, column in zip(bad, chunk)]
        names = ", ".join(name for name, b in zip(header, bad) if b)
        raise ValueError(f"non-finite values in {names}: parameters outside the numerical range")


def _checked(header: list[str], chunks: Iterator[list[np.ndarray]]) -> Iterator[list[np.ndarray]]:
    """The chunks, each checked by :func:`_check_finite` as it is drawn."""
    for columns in chunks:
        _check_finite(header, columns, chunks)
        yield columns
        del columns  # released before the next chunk is evaluated


def _trace_table(
    params: ModelParams, times: np.ndarray, with_oracle: bool, config: IntegratorConfig
) -> tuple[list[str], list[np.ndarray], Iterator[list[np.ndarray]]]:
    """Header, first chunk and later chunks of a trace's columns, for :func:`_csv_blocks`.

    The grid is evaluated in consecutive chunks of _CHUNK_POINTS points,
    the last one taking the remainder, so a grid under twice that is one
    chunk; with the oracle, which integrates along the whole grid, the
    table is always one chunk.  The first chunk is evaluated and checked
    for finiteness here, before anything is written; each later one when
    it is drawn, so a failure there raises the same error while the table
    is being written.
    """
    header = list(TRACE_COLUMNS) + (list(ORACLE_COLUMNS) if with_oracle else [])
    count = 1 if with_oracle else max(1, len(times) // _CHUNK_POINTS)
    edges = [i * _CHUNK_POINTS for i in range(count)] + [len(times)]
    chunks = (
        _trace_columns(params, times[start:stop], with_oracle, config)
        for start, stop in zip(edges, edges[1:])
    )
    first = next(chunks)
    _check_finite(header, first, chunks)
    return header, first, _checked(header, chunks)


def _run_trace(args, params: ModelParams, config: IntegratorConfig) -> int:
    times = np.linspace(0.0, args.t_max_pi * math.pi, args.points)
    _atomic_write(Path(args.out), _csv_blocks(*_trace_table(params, times, args.oracle, config)))
    return 0


def _run_figures(args, config: IntegratorConfig) -> int:
    times = np.linspace(0.0, args.t_max_pi * math.pi, args.points)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    paths = [out_dir / name for name, _, _ in FIGURE_SETS]

    def build(entry):
        name, k_ow, f_ok = entry
        params = make_params(k_ow, f_ok)
        _write_temp(out_dir / name, _csv_blocks(*_trace_table(params, times, args.oracle, config)))

    # One table at a time, so one chunk of one table is alive at once and the
    # first failure stops the run; no file is replaced before all five are
    # written.  The worker thread buys nothing: it is there only because the
    # benchmark's tracer test (perfbench) counts the pool tasks of this run.
    # Each task runs in a copy of this thread's context, so main's
    # np.errstate holds on the worker too.
    with _all_or_nothing(paths), ThreadPoolExecutor(max_workers=1) as pool:
        for entry in FIGURE_SETS:
            try:
                pool.submit(contextvars.copy_context().run, build, entry).result()
            except Exception as exc:
                raise _TableError(entry[0]) from exc
    return 0


def _run_critical(args, params: ModelParams) -> int:
    t_max = args.t_max_pi * math.pi
    instants = analytic.critical_instants(params, t_max)
    w = params.omega
    t_trans = analytic.transition_time(params)
    t_c = np.array([c.t_c for c in instants], dtype=float)
    columns = analytic.observables(params, t_c)
    zeta, conc = columns["zeta_field"], columns["concurrence"]
    if instants and (not np.isfinite([t_c, zeta, conc]).all() or math.isinf(t_trans)):
        raise ValueError(
            "non-finite critical-instant values: parameters outside the numerical range"
        )
    lines = [",".join(CRITICAL_COLUMNS)]
    for c, zeta_c, conc_c in zip(instants, zeta.tolist(), conc.tolist()):
        lines.append(
            ",".join(
                (
                    _fmt(c.t_c),
                    _fmt(c.t_c * w / math.pi),
                    c.kind,
                    c.classification,
                    str(c.n_index),
                    _fmt(zeta_c),
                    _fmt(conc_c),
                    _fmt(t_trans),
                )
            )
        )
    _atomic_write(Path(args.out), [("\n".join(lines) + "\n").encode()])
    return 0


def _run_verify(args, config: IntegratorConfig) -> int:
    results = acceptance.run_all(oracle_enabled=args.oracle, config=config)
    report = acceptance.format_report(results)
    print(report)
    if args.out:
        _atomic_write(Path(args.out), [("\n".join(report.splitlines()) + "\n").encode()])
    return 0 if all(r.passed for r in results) else 1


class _TableError(Exception):
    """A figure table failed; ``__cause__`` holds the error, ``name`` the file."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def _error_message(exc: Exception, out: str | None) -> str | None:
    """The one-line message of an error that exits 2; None for any other."""
    if isinstance(exc, _TableError):
        message = _error_message(exc.__cause__, out)
        return message and f"{exc.name}: {message}"
    if isinstance(exc, (OracleError, ValueError)):
        return str(exc)
    if isinstance(exc, MemoryError):
        # a --points grid too large to allocate fails here at once
        return f"out of memory: {exc}"
    if isinstance(exc, ArithmeticError):
        return f"parameters outside the numerical range ({type(exc).__name__}: {exc})"
    if isinstance(exc, OSError):
        # a verify run without --out writes only c8's temporary figures
        target = exc.filename if out is None else out
        return f"cannot write {target}: {exc.strerror or exc}"
    return None


def main(argv=None) -> int:
    args = get_args(argv)
    # overflow and invalid operations surface through the finiteness checks
    # of the writers, not as floating-point warnings
    with np.errstate(all="ignore"):
        try:
            params = make_params(args.k_over_omega, args.f_over_k)
            config = IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
            if args.mode == "trace":
                return _run_trace(args, params, config)
            if args.mode == "figures":
                return _run_figures(args, config)
            if args.mode == "critical":
                return _run_critical(args, params)
            return _run_verify(args, config)
        except Exception as exc:
            message = _error_message(exc, args.out)
            if message is None:
                raise
            print(f"error: {message}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
