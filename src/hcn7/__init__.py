"""Exact arithmetic of Hurwitz class numbers, their sums mod 7, and the
weight-2 level-49 CM newform, with a coefficient-exact identity battery."""

# The benchmark's product-route workload calls these through the package.
from .hurwitz import hmm_series, hmm_sum

__version__ = "0.1.0"
