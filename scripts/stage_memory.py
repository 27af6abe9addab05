#!/usr/bin/env python3
"""Memory of each CLI stage: the 14 stages of a full run through ``cli.main``,
in one process, repeated for a number of passes.

Prints one row per stage and pass: its wall time, the process's peak
resident set (``ru_maxrss``) when it ends, the minor page faults it took
(the ``ru_minflt`` delta: pages the process touched afresh, as when freed
heap is returned to the system and grown again), with ``--trace`` the peak
of the memory that tracemalloc traces while it runs, and a sha256 over the
path and bytes of every file in the out-dir once it has run.  ru_maxrss
only grows, so a stage whose value rises is one that set a new process peak.
tracemalloc slows every stage and adds its own memory to the resident set,
so the two columns are best read from separate runs.  Each pass starts from
an empty out-dir, so the sha256 column repeats from pass to pass, and two
trees that write the same bytes print the same column.

    python scripts/stage_memory.py --config run.cfg --seed 1000 --passes 3
"""

import argparse
import contextlib
import hashlib
import io
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blogfluence import cli

# The full run in pipeline order; recommend answers one query and writes no
# input of another stage.
STAGES = tuple(name for name in cli.STAGES if name != "recommend")


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def artifacts_sha256(out_dir: Path) -> str:
    """sha256 over the relative path and bytes of each file under ``out_dir``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        with open(path, "rb") as fh:
            while block := fh.read(1 << 16):
                digest.update(block)
    return digest.hexdigest()


def run_stage(argv: list[str], trace: bool) -> tuple[int, float, int, float | None]:
    """Exit code, seconds, minor page faults and traced peak in MB (None
    untraced) of one stage."""
    if trace:
        tracemalloc.start()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        traced = tracemalloc.get_traced_memory()[1] / 1e6 if trace else None
    finally:
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if trace:
            tracemalloc.stop()
    return code, seconds, faults, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True, help="pipeline config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also report tracemalloc peaks")
    parser.add_argument("--out-dir", help="artifact directory, emptied before each pass "
                                          "(default: a temporary one)")
    args = parser.parse_args()

    print("pass\tstage\tseconds\tmaxrss_mb\tminflt\ttraced_mb\tsha256")
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(args.out_dir or scratch)
        for n in range(1, args.passes + 1):
            shutil.rmtree(out_dir, ignore_errors=True)
            for stage in STAGES:
                argv = [stage, "--config", args.config, "--out-dir", str(out_dir),
                        "--seed", str(args.seed)]
                code, seconds, faults, traced = run_stage(argv, args.trace)
                if code:
                    print(f"{stage} exited with {code}", file=sys.stderr)
                    return code
                max_rss = max_rss_mb()  # before the digest reads the files
                print(f"{n}\t{stage}\t{seconds:.3f}\t{max_rss:.1f}\t{faults}\t"
                      + ("-" if traced is None else f"{traced:.1f}")
                      + f"\t{artifacts_sha256(out_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
