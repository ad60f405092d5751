"""The benchmark's workloads, by name.

Each workload module defines ``inputs`` (writes the input files a user
would bring, untimed), ``setup`` (the library calls that load them and
build tables, timed as ``setup_s``), ``job``, ``check_job``, ``finish``,
``probes``, ``layer_metrics`` and ``named_metrics``, plus the span names
of its repeated item (``ITEM``), its model-building call (``MODEL``) and
its file I/O calls (``IO``), from which the end-to-end metrics are
computed the same way for all, and the kernels of its reference burst
(``REFERENCE``, ``REFERENCE_EVERY_S``; see ``harness.Reference``).

``BENCHMARK.json`` lists ``pipeline`` and ``codec``.  ``sample-oracle``
runs on request, and every traced run makes a short pass of it for its
per-layer metrics: its ``model_s`` (a 0.2 ms oracle build) spread up to
23 % between runs, too close to the largest regression bound allowed.
"""

import wl_codec
import wl_pipeline
import wl_sample_oracle

ALL = (wl_sample_oracle, wl_pipeline, wl_codec)
BY_NAME = {w.NAME: w for w in ALL}

# Set-up runs at least this many times per run; setup_s is the median.
SETUP_REPEATS = 9
