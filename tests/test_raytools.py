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


def test_parquet_handoff_removes_its_directories_when_the_process_exits(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys
    import textwrap

    repo = str(pathlib.Path(__file__).resolve().parents[1])
    script = textwrap.dedent(
        f"""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from signalsharp_ray.common import raytools


        class Dataset:
            def write_parquet(self, path):
                os.makedirs(path)
                pq.write_table(pa.table({{"x": [1]}}), os.path.join(path, "part-0.parquet"))


        ray.data.read_parquet = lambda path: path  # the read needs no Ray session here
        for tag in ("a", "b"):
            out = raytools.parquet_handoff(Dataset(), tag, root={str(tmp_path)!r})
            assert os.path.isfile(os.path.join(out, "part-0.parquet"))
            print(out)
        """
    )
    env = dict(os.environ, PYTHONPATH=repo)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    outs = res.stdout.split()
    assert len(outs) == 2 and all(o.startswith(str(tmp_path)) for o in outs)
    assert not any(os.path.exists(o) for o in outs)
