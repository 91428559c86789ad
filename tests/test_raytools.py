"""raytools guards that need no Ray cluster."""

import pytest

from signalsharp_ray.common import raytools


class _Written(Exception):
    pass


class _FakeDataset:
    def write_parquet(self, path):
        raise _Written(path)


@pytest.mark.parametrize(
    "root, env_root, raises",
    [
        (None, None, True),  # the node-local /tmp default
        (None, "/mnt/shared/handoff", False),
        ("/mnt/shared/handoff", None, False),  # a shared mount
        ("s3://bucket/handoff", None, False),
    ],
)
def test_parquet_handoff_rejects_default_root_on_multi_node_cluster(
    monkeypatch, root, env_root, raises
):
    import ray

    if env_root is None:
        monkeypatch.delenv("SIGNALSHARP_HANDOFF_ROOT", raising=False)
    else:
        monkeypatch.setenv("SIGNALSHARP_HANDOFF_ROOT", env_root)
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "nodes", lambda: [{"Alive": True}, {"Alive": True}])
    if raises:
        with pytest.raises(RuntimeError, match="more than one node"):
            raytools.parquet_handoff(_FakeDataset(), "t", root=root)
    else:
        with pytest.raises(_Written):
            raytools.parquet_handoff(_FakeDataset(), "t", root=root)


def test_parquet_handoff_counts_only_alive_nodes(monkeypatch):
    import ray

    monkeypatch.delenv("SIGNALSHARP_HANDOFF_ROOT", raising=False)
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "nodes", lambda: [{"Alive": True}, {"Alive": False}])
    with pytest.raises(_Written):
        raytools.parquet_handoff(_FakeDataset(), "t")
