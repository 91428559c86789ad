"""Every block out of the points exchange and the url dictionary carries
one schema, empty buckets included: Ray Data warns about (and must
reconcile) blocks whose schema differs from the previous one."""

import pyarrow as pa
import pytest

from signalsharp_ray.sources.synth import WebPagesSpec, generate_webpages_dataset
from signalsharp_ray.stages.extract import build_url_dict, extract_dedup_exchange

# 4 urls over 16 buckets: at least 12 buckets are empty
SPEC = WebPagesSpec(n_rows=400, n_hosts=2, urls_per_host=2, rows_per_shard=100)
N_BUCKETS = 16


def _block_schemas(ds):
    import ray

    out = []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            out.append((meta.num_rows, ray.get(ref).schema))
    return out


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("build", [extract_dedup_exchange, build_url_dict])
def test_one_schema_per_output_with_empty_buckets(build):
    blocks = _block_schemas(build(generate_webpages_dataset(SPEC), n_buckets=N_BUCKETS))
    assert len(blocks) == N_BUCKETS
    assert sum(1 for rows, _ in blocks if rows == 0) >= N_BUCKETS - 4
    schemas = {schema for _, schema in blocks}
    assert len(schemas) == 1, schemas
    (schema,) = schemas
    assert "series_bucket" in schema.names and "__bucket" not in schema.names
    assert schema.field("series_bucket").type == pa.int64()
