"""Pure numpy per-series kernels — the numerical conformance corpus.

Every kernel here is deterministic, stateless (or explicitly fitted), and
operates on a fully materialized series; the distributed engine invokes them
inside ray.data map_batches / bucketed_map_groups over per-(host,url,tier)
groups.
"""
