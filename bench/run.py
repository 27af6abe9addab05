"""Time the blogfluence pipeline end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload detect --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``detect``, ``pipeline`` and ``pipeline_small``
(see bench/README.md).  The run sets up once for real and several more
times in child processes for ``setup_s``, then repeats passes over the
workload's units in one process until ``--seconds`` have been measured
(a pass is never cut short).  With ``--trace 1`` passes alternate
between untraced and traced, and the result carries the per-layer
metrics instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the package sources are not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 5
WORKLOADS = ("detect", "pipeline", "pipeline_small")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_package() -> None:
    """Import blogfluence from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import blogfluence

    if Path(blogfluence.__file__).resolve().parent != SRC / "blogfluence":
        raise ImportError(f"blogfluence imported from {blogfluence.__file__}, not {SRC}")


def set_up(name: str, seed: int, work_dir: Path):
    """Imports, config file and output directories of one workload."""
    _load_package()
    import workloads

    workload = workloads.workload(name)
    workload.setup(work_dir, seed)
    return workload


def _setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    work_dir = WORK_ROOT / f"probe-{os.getpid()}"
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-only", str(work_dir)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    shutil.rmtree(work_dir, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, trace: bool, between=None) -> dict:
    """Closed loop of passes until ``seconds`` are measured; with ``trace``
    passes alternate untraced / traced and at least one of each runs.
    ``between(i)`` runs untimed before unit ``i`` of the first pass."""
    from tracing import Tracer

    untraced, traced, failures = [], [], []
    counters = None
    tracer_counts = None
    while True:
        tracer = Tracer() if trace and len(untraced) > len(traced) else None
        if tracer:
            tracer.install()
        try:
            result = workload.run_pass(tracer, None if untraced else between)
        finally:
            if tracer:
                tracer.uninstall()
        (traced if tracer else untraced).append((result, tracer))
        failures += result.failures
        # Deterministic outputs must repeat exactly between passes.
        if counters is None:
            counters = result.counters
        else:
            failures += [
                f"{unit}: outputs differ between passes"
                for unit in sorted(set(counters) | set(result.counters))
                if counters.get(unit) != result.counters.get(unit)
            ]
        if tracer:
            if tracer_counts is None:
                tracer_counts = tracer.deterministic()
            elif tracer.deterministic() != tracer_counts:
                failures.append("layer counters differ between traced passes")
        measured = sum(r.seconds for r, _ in untraced + traced)
        if measured >= seconds and (not trace or traced):
            break
    return {"untraced": untraced, "traced": traced, "failures": failures}


def report(runs: dict, setup_s: float, trace: bool) -> dict:
    """The result object: the per-layer metrics of BENCHMARK.json when
    traced, else its end-to-end metrics."""
    attempted = sum(r.attempted for r, _ in runs["untraced"] + runs["traced"])
    failed = min(len(runs["failures"]), attempted)
    values = per_layer(runs) if trace else end_to_end(runs, setup_s)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end(runs: dict, setup_s: float) -> dict[str, float]:
    first = runs["untraced"][0][0]
    return {
        "run_s": statistics.median(r.seconds for r, _ in runs["untraced"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "influence_precision": first.true_positive / first.extracted if first.extracted else 0.0,
        "influence_recall": first.true_positive / first.planted if first.planted else 0.0,
    }


def per_layer(runs: dict) -> dict[str, float]:
    """Per-layer metrics averaged over traced passes, plus quality metrics."""
    traced = runs["traced"]
    layers = [t.layer_metrics() for _, t in traced]
    m = {name: statistics.fmean(l[name] for l in layers) for name in layers[0]}
    untraced_s = statistics.median(r.seconds for r, _ in runs["untraced"])
    m["trace_overhead_s"] = statistics.median(r.seconds for r, _ in traced) - untraced_s
    m["process.cpu_s"] = statistics.median(r.cpu_seconds for r, _ in runs["untraced"])
    first = runs["untraced"][0][0]
    m["cli.artifact_bytes"] = first.artifact_bytes
    m["z1_forward"] = statistics.fmean(first.z1_forward) if first.z1_forward else 0.0
    m["z1_reversed"] = statistics.fmean(first.z1_reversed) if first.z1_reversed else 0.0
    for method in ("tg", "iolap", "pcldc", "pcl"):
        values = first.recall.get(method)
        m[f"recall.{method}"] = statistics.fmean(values) if values else 0.0
    return m


def environment() -> dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    sources = hashlib.sha256()
    for path in sorted((SRC / "blogfluence").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": sources.hexdigest()[:16],
    }


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORK_DIR",
                        help="set up in WORK_DIR, print the seconds it took, and exit")
    args = parser.parse_args(argv)
    if not (SRC / "blogfluence" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed, Path(args.setup_only))
        print(perf_counter() - start)
        return 0

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        workload = set_up(args.workload, args.seed, work_dir)
        # Set-up probes are spread over the first pass, so that they sample
        # the machine's speed over the run rather than in one moment.
        n = workload.units_per_pass
        schedule = Counter(i * n // SETUP_PROBES for i in range(SETUP_PROBES))
        probes: list[float] = []

        def between(unit: int) -> None:
            probes.extend(_setup_probe(args.workload, args.seed) for _ in range(schedule[unit]))

        runs = measure(workload, args.seconds, bool(args.trace), None if args.trace else between)
        setup_s = statistics.median(probes) if probes else 0.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    result = report(runs, setup_s, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed}: passes of "
          + ", ".join(f"{r.seconds:.3f} s" for r, _ in runs["untraced"]) + " untraced, "
          + ", ".join(f"{r.seconds:.3f} s" for r, _ in runs["traced"]) + " traced")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for reason in runs["failures"]:
        print(f"FAILED {reason}")
    for _, tracer in runs["traced"][:1]:
        if tracer.missing:
            print("not traced (attribute absent): " + ", ".join(tracer.missing))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    shown = {**end_to_end(runs, setup_s), "failed_ratio": result["failed"] / result["attempted"]}
    if args.trace:
        del shown["setup_s"]  # not measured in a traced run
        shown.update(per_layer(runs))
    for name, value in shown.items():
        print(f"  {name:34s} {value:>16.6f} {units.get(name, 'ratio')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
