"""Influence detection and topic-aware influence models for blog event logs.

The package turns raw blog content dumps and web server access logs into
a post-level "who read whom before writing" network, runs a fair-coin
time-shuffle hypothesis test to separate influence from mere correlation,
extracts a high-confidence influence network, and fits topic-aware models
(a nonnegative tensor factorization and popularity/content block models)
on top of it.  A synthetic corpus generator with planted influence ground
truth backs the statistical tests.
"""

__version__ = "0.1.0"

from blogfluence.corpus import (
    Corpus,
    clean_accesses,
    parse_access_log,
    parse_content_file,
)
from blogfluence.implicit import ImplicitLink, ImplicitNetwork, Links, build_implicit_links
from blogfluence.causality import (
    ZReport,
    extract_influence,
    forward_z_test,
    reversed_z_test,
)
from blogfluence.topics import TopicModel, fit_plsa, top_keywords
from blogfluence.factor import (
    IolapModel,
    PcldcModel,
    PclModel,
    build_influence_tensor,
    fit_iolap,
    fit_pcl,
    fit_pcldc,
)
from blogfluence.analysis import idr, recall_at_n, split_train_test
from blogfluence.synth import SynthConfig, generate

__all__ = [
    "Corpus",
    "ImplicitLink",
    "ImplicitNetwork",
    "IolapModel",
    "Links",
    "PcldcModel",
    "PclModel",
    "SynthConfig",
    "TopicModel",
    "ZReport",
    "build_implicit_links",
    "build_influence_tensor",
    "clean_accesses",
    "extract_influence",
    "fit_iolap",
    "fit_pcl",
    "fit_pcldc",
    "fit_plsa",
    "forward_z_test",
    "generate",
    "idr",
    "parse_access_log",
    "parse_content_file",
    "recall_at_n",
    "reversed_z_test",
    "split_train_test",
    "top_keywords",
]
