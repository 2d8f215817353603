"""The repository's one benchmark: five workloads over the whole serving
stack, socket-to-page metrics, and a traced per-layer waterfall.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repo root
names every metric.
"""
