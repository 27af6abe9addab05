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
