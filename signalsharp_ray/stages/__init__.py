"""Ray Data stages: vectorized map_batches / groupby transforms.

Contract notes shared by all stages:
- batches are Arrow (`batch_format="pyarrow"`) unless a kernel needs pandas
- per-series state (DP arrays, smoothing recurrences) never crosses a
  series: a whole series lands in one hash-exchange bucket (or one hive
  bucket of the flagship's outputs), and the per-series stages (gap-fill,
  encode, analyses) run every series of a table sorted by (key,
  bucket_ts) in one segmented kernel call, series i being rows
  offsets[i]:offsets[i+1]
- wide operations (groupby) are preceded by in-batch partial aggregation
  wherever the aggregate is commutative
"""
