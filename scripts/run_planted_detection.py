#!/usr/bin/env python3
"""Detection power sweep: hour-1 z and extraction quality as the planted
copy rate rises.

For each copy rate and seed, runs the full detection pipeline and scores
the extracted influence links against the generator's ground truth, next
to a uniformly random half of the implicit links as a baseline.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blogfluence.pipeline import PipelineConfig, run_detection
from blogfluence.synth import SynthConfig, generate


def detection_config(copy_prob: float, seed: int, n_bloggers: int = 260,
                     n_days: int = 20) -> PipelineConfig:
    """The corpus and the detection settings of acceptance criteria c01-c03
    at ``copy_prob``: 260 bloggers over 20 days, a 400-term vocabulary."""
    corpus_cfg = SynthConfig(
        n_bloggers=n_bloggers,
        n_days=n_days,
        posts_per_blogger_rate=1.05,
        reads_per_post_rate=5.0,
        copy_prob=copy_prob,
        copy_fraction=0.45,
        vocab_size=400,
        tokens_per_post=40,
        seed=seed,
    )
    return PipelineConfig(vocab_max_size=400, seed=seed, synth=corpus_cfg)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rates", default="0.0,0.1,0.2,0.3")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--bloggers", type=int, default=260)
    parser.add_argument("--days", type=int, default=20)
    args = parser.parse_args()

    print("rate\tseed\tz1_fwd\tz1_rev\tprecision\trecall\tbase_prec\tbase_rec")
    for rate in (float(r) for r in args.rates.split(",")):
        for seed in range(args.seeds):
            cfg = detection_config(rate, seed, args.bloggers, args.days)
            corpus, truth = generate(cfg.synth)
            result = run_detection(corpus, cfg)
            implicit_pairs = [(l.q, l.p) for l in result.implicit.links]
            extracted = {(l.q, l.p) for l in result.influence.links}
            rng = np.random.default_rng([seed, 99])
            idx = rng.choice(len(implicit_pairs), size=len(implicit_pairs) // 2, replace=False)
            baseline = {implicit_pairs[i] for i in idx}

            def score(predicted):
                if not truth.influence_pairs or not predicted:
                    return float("nan"), float("nan")
                tp = len(predicted & truth.influence_pairs)
                return tp / len(predicted), tp / len(truth.influence_pairs)

            precision, recall = score(extracted)
            base_p, base_r = score(baseline)
            print(
                f"{rate}\t{seed}\t{result.forward_report.buckets[0].z:.2f}"
                f"\t{result.reversed_report.buckets[0].z:.2f}"
                f"\t{precision:.3f}\t{recall:.3f}\t{base_p:.3f}\t{base_r:.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
