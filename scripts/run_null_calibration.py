#!/usr/bin/env python3
"""Null calibration experiment: with no planted copying, how often does a
bucket of the time-shuffle test cross the significance threshold?

Prints one row per seed with the hour-1 z value for both test directions
and the count of |z| > 2.576 buckets, then the pooled exceedance rate.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))  # also when loaded by its path

from blogfluence.pipeline import run_detection
from blogfluence.synth import generate
from run_planted_detection import detection_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--bloggers", type=int, default=260)
    parser.add_argument("--days", type=int, default=20)
    args = parser.parse_args()

    exceed = available = 0
    print("seed\tposts\tlinks\tz1_fwd\tz1_rev\texceed\tseconds")
    for seed in range(args.seeds):
        start = time.perf_counter()
        cfg = detection_config(0.0, seed, args.bloggers, args.days)
        corpus, _ = generate(cfg.synth)
        result = run_detection(corpus, cfg)
        hits = sum(abs(b.z) > 2.576 for b in result.forward_report.available())
        exceed += hits
        available += len(result.forward_report.available())
        print(
            f"{seed}\t{len(corpus.posts)}\t{result.implicit.post_link_count}"
            f"\t{result.forward_report.buckets[0].z:.3f}"
            f"\t{result.reversed_report.buckets[0].z:.3f}"
            f"\t{hits}\t{time.perf_counter() - start:.1f}"
        )
    print(f"\npooled exceedance: {exceed}/{available} = {exceed / available:.3%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
