#!/usr/bin/env python3
"""Recommendation benchmark on corpora with member-specific planted experts.

Two groups of members read disjoint expert sets on the same topics, so a
recommender that conditions on the member should beat the global
topic ranking, and the content-aware block model should beat its
content-free variant.  Prints recall@N per method and seed.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blogfluence.pipeline import PipelineConfig, recommendation_recall, run_detection
from blogfluence.synth import SynthConfig, generate

METHODS = ("tg", "iolap", "pcldc", "pcl")


def recommendation_config(seed: int, top_n: int = 10) -> PipelineConfig:
    """The planted-expert corpus and the settings of its model stages: the
    run of acceptance criterion c10 at ``top_n`` 10."""
    corpus_cfg = SynthConfig(
        n_bloggers=100,
        n_days=32,
        vocab_size=160,
        n_topics=2,
        posts_per_blogger_rate=0.8,
        reads_per_post_rate=5.0,
        copy_prob=0.8,
        copy_fraction=0.45,
        confounder_strength=0.5,
        n_groups=2,
        experts_per_group_topic=10,
        experts_read_per_member=4,
        expert_read_prob=0.88,
        tokens_per_post=40,
        seed=seed,
    )
    return PipelineConfig(n_topics=2, plsa_max_iter=150, iolap_max_iter=300, pcldc_max_iter=60,
                          pcl_max_iter=200, rank_influenced=2, rank_influencer=4, top_n=top_n,
                          vocab_max_size=160, seed=seed, synth=corpus_cfg)


def run_seed(seed: int, top_n: int) -> dict[str, float]:
    cfg = recommendation_config(seed, top_n)
    corpus, _ = generate(cfg.synth)
    result = run_detection(corpus, cfg)
    recall, _ = recommendation_recall(result, cfg)
    return recall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--top-n", type=int, default=10)
    args = parser.parse_args()

    print("seed\t" + "\t".join(METHODS) + "\tseconds")
    wins_personal = wins_content = 0
    for seed in range(args.seeds):
        start = time.perf_counter()
        recall = run_seed(seed, args.top_n)
        wins_personal += recall["iolap"] > recall["tg"]
        wins_content += recall["pcldc"] > recall["pcl"]
        print(
            f"{seed}\t" + "\t".join(f"{recall[m]:.3f}" for m in METHODS)
            + f"\t{time.perf_counter() - start:.1f}"
        )
    print(f"\niolap > tg in {wins_personal}/{args.seeds} seeds; "
          f"pcldc > pcl in {wins_content}/{args.seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
