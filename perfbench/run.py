"""Benchmark of the dispersive_jcm package: seeded workloads, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload csv-export --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 16

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it alternates an untraced and a traced pass of the same
ops and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--all`` runs every workload
untraced, one process each, and prints every end-to-end metric with its
unit and sample count.  Exit status is nonzero when any op fails its check.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170

#: Timed in a fresh interpreter: importing the package and building the first pass.
SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import dispersive_jcm, dispersive_jcm.cli
import workloads
workloads.make_pass({workload!r}, {seed}, 0, {out!r})
print(time.perf_counter() - t0)
"""


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["TMPDIR"] = str(work / "tmp")
    return env


def _python(args: list[str], work: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(work), check=True,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    snippet = SETUP_SNIPPET.format(workload=workload, seed=seed, out=str(work.relative_to(ROOT)))
    return [float(_python(["-c", snippet], work).stdout.split()[-1]) for _ in range(SETUP_REPEATS)]


def import_times(work: Path) -> dict[str, float]:
    """Median per package module over fresh ``-X importtime`` runs, in seconds.

    A module's time is its cumulative import time minus that of the package
    modules it imports, so third-party imports count against the first
    package module that pulls them in.
    """
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_REPEATS):
        lines = _python(["-X", "importtime", "-c", "import dispersive_jcm.cli"], work).stderr
        # Lines come children first; a finished entry carries its own cumulative
        # time if it is a package module, else the package time beneath it.
        stack: list[tuple[int, int]] = []  # (depth, microseconds)
        for line in lines.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = len(name) - len(name.lstrip())
            inner = 0
            while stack and stack[-1][0] > depth:
                inner += stack.pop()[1]
            name = name.strip()
            if name.startswith("dispersive_jcm."):
                samples.setdefault(name.split(".", 1)[1], []).append((int(cumulative) - inner) / 1e6)
                stack.append((depth, int(cumulative)))
            else:
                stack.append((depth, inner))
    return {name: statistics.median(values) for name, values in samples.items()}


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model)
    except OSError:
        pass
    blas = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and ".so" in l})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas[Path(path).name] = fn()
                break
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(ops: list[dict], tracer=None) -> list[dict]:
    """Run ops one after another; each result has wall_s, cpu_s, ok and its check's output."""
    import workloads

    results = []
    for op in ops:
        scope = tracer.op() if tracer is not None else contextlib.nullcontext()
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            with scope:
                output = workloads.execute(op)
        except Exception:  # an op that raises is a failed op; the run goes on
            output, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        result = {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - c0}
        if error is None:
            try:
                result.update(workloads.check(op, output))
            except workloads.CheckError as exc:
                error = f"CheckError: {exc}"
            except Exception:  # a check that breaks fails its op too
                error = traceback.format_exc(limit=3)
        result["ok"] = error is None
        if error is not None:
            result["error"] = error
            print(f"op failed: {json.dumps(op)}\n{error}", file=sys.stderr)
        results.append(result)
    return results


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no such percentile exists; the maximum (p100)
    is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(setup: list[float], passes: list[list[dict]]) -> dict:
    ops = [r for p in passes for r in p]
    walls = [r["wall_s"] for r in ops]
    percentile, tail_s = tail(walls)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "run_s": (statistics.median(sum(r["wall_s"] for r in p) for p in passes), "s", len(passes)),
        "op_p50_s": (statistics.median(walls), "s", len(walls)),
        "op_tail_s": (tail_s, "s", len(walls), percentile),
        "cpu_s": (statistics.median(sum(r["cpu_s"] for r in p) for p in passes), "s", len(passes)),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(tracer, traced: list[list[dict]], untraced: list[list[dict]], imports) -> dict:
    import tracing

    n = len(traced)
    metrics = tracing.layer_metrics(tracer, n)
    ops = [r for p in traced for r in p]
    rows = sum(r.get("rows", 0) for r in ops)
    cli_s = metrics["cli.self_s"][0] * n
    metrics["cli.us_per_row"] = (1e6 * cli_s / rows if rows else 0.0, "us")
    metrics["cli.bytes_written"] = (sum(r.get("bytes", 0) for r in ops) / n, "bytes")
    metrics["cli.files_written"] = (sum(r.get("files", 0) for r in ops) / n, "count")
    metrics["acceptance.checks_run"] = (sum(r.get("checks_run", 0) for r in ops) / n, "count")
    metrics["acceptance.checks_passed"] = (sum(r.get("checks_passed", 0) for r in ops) / n, "count")
    devs = [r["max_dev"] for r in ops if r.get("max_dev") is not None]
    metrics["oracle.max_dev"] = (max(devs) if devs else 0.0, "1")
    for module, seconds in imports.items():
        metrics[f"{module}.import_s"] = (seconds, "s")
    wall = lambda ps: sum(r["wall_s"] for p in ps for r in p)
    metrics["trace.overhead"] = (100.0 * (wall(traced) / wall(untraced) - 1.0), "%")
    return {name: value[:2] for name, value in metrics.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, declared: list[str]) -> int:
    """Run one workload and print its output; the result line carries the *declared* metrics."""
    import workloads

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")  # criterion 8 writes its figure runs there
    out = str(work.relative_to(ROOT))
    print("environment " + json.dumps(environment()))

    inputs, passes, traced = [], [], []
    start = time.perf_counter()
    if not trace:
        setup = measure_setup(workload, seed, work)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            ops = workloads.make_pass(workload, seed, len(passes), out)
            inputs.append(ops)
            passes.append(run_pass(ops))
        values = end_to_end(setup, passes)
    else:
        import tracing

        imports = import_times(work)
        ops = workloads.make_pass(workload, seed, 0, out)
        inputs.append(ops)
        tracer = tracing.Tracer()
        while not traced or time.perf_counter() - start < seconds:
            passes.append(run_pass(ops))
            tracer.install()
            try:
                traced.append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
        tracing.write_spans(tracer.spans, work / "spans.jsonl")
        values = per_layer(tracer, traced, passes, imports)

    results = [r for p in passes + traced for r in p]
    failed = sum(not r["ok"] for r in results)
    print("inputs " + json.dumps([{"pass": i, "ops": ops} for i, ops in enumerate(inputs)]))
    print("outputs " + json.dumps(results))
    summary = {"workload": workload, "seed": seed, "trace": int(trace), "attempted": len(results),
               "error_rate": failed / len(results), "metrics": {}}
    for name, value in values.items():
        entry = {"value": value[0], "unit": value[1]}
        if len(value) > 2:
            entry["samples"] = value[2]
        if len(value) > 3:
            entry["percentile"] = value[3]
        summary["metrics"][name] = entry
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in declared if name in values},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, one fresh process each; a table of every end-to-end metric."""
    import workloads

    status = 0
    print(f"{'workload':16} {'metric':12} {'value':>12} {'unit':5} samples")
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        line = next((l for l in proc.stdout.splitlines() if l.startswith("summary ")), None)
        if proc.returncode != 0 or line is None:
            status = 1
        if line is None:
            print(f"{workload:16} no result (exit {proc.returncode})")
            continue
        summary = json.loads(line[len("summary "):])
        for name, m in summary["metrics"].items():
            note = f"p{m['percentile']:g}" if "percentile" in m else ""
            print(f"{workload:16} {name:12} {m['value']:12.6g} {m['unit']:5} {m['samples']} {note}")
        print(f"{workload:16} {'error_rate':12} {summary['error_rate']:12.6g} {'1':5} "
              f"{summary['attempted']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dispersive_jcm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dispersive_jcm'}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(BENCH)]
    import dispersive_jcm
    import workloads

    if Path(dispersive_jcm.__file__).resolve().parent != SRC / "dispersive_jcm":
        print(f"error: dispersive_jcm imported from {dispersive_jcm.__file__}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    declared = [m["name"] for m in definition["per_layer" if args.trace else "end_to_end"]]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), declared)


if __name__ == "__main__":
    sys.exit(main())
