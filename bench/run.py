"""Benchmark for ``artifact``: four closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of analysis, large-m, mc-study, resampling-ct (``all`` runs
each in a fresh process and prints one table).  The library is imported
from ``src/`` of the checkout this file sits in; without it the run exits
with code 2 and prints no result.

A client runs the workload's op cycle, waiting for each op before the
next, for whole cycles until ``--seconds`` have passed.  Every op's output
is checked outside the timed region.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
JSON carries the per-layer metrics, the tracing overhead, and the spans are
written to ``.bench_out/``.  Everything the run writes stays inside the
checkout.
"""

from __future__ import annotations

import argparse
import ctypes
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
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed with the others but kept out of the JSON metrics: it is 0 on a
# correct program, and the JSON carries it as ``failed`` / ``attempted``.
ERROR_RATE = "error_rate"
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import artifact, artifact.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def import_program():
    """Import ``artifact`` from this checkout's src/, or exit 2."""
    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'artifact'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import artifact

    if Path(artifact.__file__).resolve().parent != (SRC / "artifact").resolve():
        print(f"error: imported artifact from {artifact.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------- run record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size():
    """Size of the level-3 cache as the kernel reports it, e.g. '107520K'."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def _blas_threads():
    """Thread count reported by a loaded OpenBLAS, when one is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------- measuring


def measure_setup(repeats: int) -> list[float]:
    """Import time of ``artifact`` and ``artifact.cli`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Phase:
    """Ops of one timed phase: latencies and the ops that failed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies) if self.latencies else 0.0


def run_cycles(workload, seconds: float, recorder=None) -> Phase:
    """Run whole op cycles, closed loop, until ``seconds`` have passed.

    At least one cycle runs.  Only the op itself is timed; its check
    follows, untimed and (in a traced phase) with tracing paused.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        for label, op in workload.cycle:
            phase.attempted += 1
            if recorder is not None:
                recorder.active = True
            start = time.perf_counter()
            try:
                if recorder is not None:
                    with recorder.span("bench.op"):
                        output = op()
                else:
                    output = op()
            except Exception as exc:  # an op that raises is a failed op
                phase.failures.append(f"{label}: raised {exc!r}")
                continue
            finally:
                if recorder is not None:
                    recorder.active = False
            phase.latencies.append(time.perf_counter() - start)
            problems = workload.check(label, output)
            if problems:
                phase.failures.append(f"{label}: " + "; ".join(problems[:5]))
        if time.perf_counter() >= deadline:
            return phase


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  The k-th smallest of n latencies
    with k = n - 10 has ten samples above it and sits at percentile 100 k / n.
    With fewer than 11 samples the maximum is returned at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 10 if n > 10 else n
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(phase: Phase, setup_times: list[float]) -> dict[str, float]:
    value, _, _ = tail(phase.latencies)
    return {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(phase.latencies),
        "op_tail_ms": 1e3 * value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------- one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
                 setup_repeats: int = SETUP_REPEATS, lines=print) -> dict:
    """Run one workload in this process; returns the result object."""
    from workloads import WORKLOADS

    record = run_record(seed)
    lines(f"run_record {json.dumps(record, sort_keys=True)}")
    setup_times = measure_setup(setup_repeats)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](seed, workdir, sizes)
        warm = run_cycles(workload, 0.0)  # let lazy set-up finish before timing
        failures = [f"set-up: {p}" for p in workload.setup_problems] + warm.failures
        attempted = len(workload.setup_problems) + warm.attempted
        if not trace:
            phase = run_cycles(workload, seconds)
            attempted += phase.attempted
            failures += phase.failures
            metrics = end_to_end(phase, setup_times)
            units = END_TO_END_UNITS
            value, pct, n = tail(phase.latencies)
            notes = {"op_tail_ms": f"(p{pct:.4g} of {n} ops, {10 if n > 10 else 0} beyond)",
                     "setup_s": f"(median of {len(setup_times)} fresh interpreters)"}
        else:
            plain = run_cycles(workload, seconds / 2)
            recorder = spans.SpanRecorder()
            with spans.tracing(recorder):
                traced = run_cycles(workload, seconds / 2, recorder)
            attempted += plain.attempted + traced.attempted
            failures += plain.failures + traced.failures
            metrics = spans.layer_metrics(recorder.spans, len(traced.latencies))
            metrics["bench.ops_per_s_untraced"] = plain.ops_per_s
            metrics["bench.ops_per_s_traced"] = traced.ops_per_s
            metrics["bench.trace_overhead_ops_per_s"] = plain.ops_per_s - traced.ops_per_s
            units = spans.PER_LAYER_UNITS
            notes = {}
            cross = workload.crosscheck()
            for row in cross:
                lines(f"baseline {row['what']}: ROADMAP {row['roadmap_s'] * 1e3:.4g} ms, "
                      f"measured {row['measured_s'] * 1e3:.4g} ms")
            trace_file = OUT / f"trace-{name}-seed{seed}.json"
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump({"record": record, "workload": name, "traced_ops": len(traced.latencies),
                           "metrics": metrics, "baseline_crosscheck": cross,
                           "spans": recorder.dump()}, fh)
            lines(f"trace: {len(recorder.spans)} spans written to {trace_file.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures[:20]:
        lines(f"FAILED {failure}")
    width = max(len(k) for k in units)
    for key, value in metrics.items():
        lines(f"{key:<{width}}  {value!r} {units[key]} {notes.get(key, '')}".rstrip())
    lines(f"{ERROR_RATE:<{width}}  {len(failures) / attempted!r} ratio "
          f"({len(failures)} failed of {attempted} attempted)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, then one table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode == 0:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(WORKLOADS)
    print("== summary")
    keys = sorted({k for r in results.values() for k in r["metrics"]},
                  key=lambda k: list(END_TO_END_UNITS).index(k) if k in END_TO_END_UNITS else 99)
    print(f"{'metric':<44}{'unit':<10}" + "".join(f"{n:>16}" for n in names))
    for key in keys + [ERROR_RATE]:
        unit = "ratio" if key == ERROR_RATE else next(
            r["metrics"][key]["unit"] for r in results.values() if key in r["metrics"])
        cells = []
        for n in names:
            r = results.get(n)
            if r is None:
                cells.append("failed")
            elif key == ERROR_RATE:
                cells.append(f"{r['failed'] / r['attempted']:.4g}")
            else:
                cells.append(f"{r['metrics'][key]['value']:.6g}")
        print(f"{key:<44}{unit:<10}" + "".join(f"{c:>16}" for c in cells))
    ok = len(results) == len(names) and all(r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["analysis", "large-m", "mc-study", "resampling-ct", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
