"""Registry hygiene: no two queriesN modules may register the same
name — a silent dict-merge overwrite drops an operator from the catalog
(caught live in round 4: token_length_histogram / crest_factor /
variogram were shadowed by later batches until renamed)."""

import glob
import importlib
import os


def test_no_duplicate_query_names_across_modules():
    root = os.path.join(os.path.dirname(__file__), "..")
    names: dict = {}
    for f in sorted(
        glob.glob(os.path.join(root, "signalsharp_ray/pipelines/queries*.py"))
    ):
        mod = os.path.basename(f)[:-3]
        if mod == "queries":
            continue  # the aggregator defines its own entries
        num = mod.replace("queries", "")
        m = importlib.import_module(f"signalsharp_ray.pipelines.{mod}")
        d = getattr(m, f"QUERIES{num}", None)
        if d is None:
            continue
        for k in d:
            names.setdefault(k, []).append(mod)
    dups = {k: v for k, v in names.items() if len(v) > 1}
    assert not dups, f"duplicate registry names across modules: {dups}"


def test_every_oracle_has_a_query():
    import __ray_entry__ as e

    q = e.queries()
    o = e.oracle_sql()
    orphans = [k for k in o if k not in q]
    assert not orphans, f"oracles without queries: {orphans}"


def test_driver_window_invariants():
    """Round-4 VERDICT items 3+7: the driver grades the first 50 names;
    the window must hold exactly the fixed heads + rotation + at most
    ONE heavy watchlist name (placed last), and each round must surface
    >=20 names never driver-graded in prior rounds."""
    import __ray_entry__ as e
    from signalsharp_ray.pipelines.queries import (
        _FIXED_HEADS,
        _HEAVY_NAMES,
        _WINDOW_SIZE,
        _driver_graded_names,
        driver_window,
    )

    q = e.queries()
    window = driver_window(q.keys())
    assert list(q)[: len(window)] == window  # registry leads with the window
    assert len(window) == _WINDOW_SIZE
    assert len(set(window)) == len(window)
    heavies = [n for n in window if n in _HEAVY_NAMES]
    assert len(heavies) <= 1
    if heavies:
        assert window[-1] == heavies[0]  # heavy runs last in the budget
    for h in _FIXED_HEADS:
        assert h in window, f"fixed head {h} missing from window"
    graded, n_rounds = _driver_graded_names()
    if n_rounds:  # round >= 2: rotation must surface fresh names
        fresh = [n for n in window if n not in graded]
        # every rotation slot must be fresh while ungraded names remain
        # (round-5 carried 25; the floor shrinks only if heads grow)
        slots = _WINDOW_SIZE - len([h for h in _FIXED_HEADS if h in q]) - 1
        ungraded_pool = len(set(q) - set(_FIXED_HEADS) - graded)
        want = min(20, slots, ungraded_pool)
        assert len(fresh) >= want, f"only {len(fresh)} never-graded names"


def test_catalog_agrees_with_registry():
    """OPERATORS.md is generated (tools/gen_catalog.py) — its row set must
    match the live registry so the rotation stays auditable."""
    import os
    import re

    import __ray_entry__ as e

    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "OPERATORS.md")) as fh:
        text = fh.read()
    rows = re.findall(r"^\| \d+ \| `([^`]+)` \| (SQL|rows) \|", text, re.M)
    q = e.queries()
    o = e.oracle_sql()
    assert {n for n, _ in rows} == set(q), "regenerate OPERATORS.md"
    for name, status in rows:
        assert (status == "SQL") == (name in o), f"{name} status stale"


def test_batch_order_names_every_batch_on_disk():
    """BATCHES (the order the registry merges the queriesN.py batches in)
    names each batch file on disk exactly once, and nothing else."""
    import re

    from signalsharp_ray.pipelines.queries import BATCHES

    root = os.path.join(os.path.dirname(__file__), "..")
    on_disk = []
    for f in glob.glob(os.path.join(root, "signalsharp_ray/pipelines/queries*.py")):
        m = re.fullmatch(r"queries(\d+)\.py", os.path.basename(f))
        if m:
            on_disk.append(int(m.group(1)))
    assert len(set(BATCHES)) == len(BATCHES)
    assert sorted(BATCHES) == sorted(on_disk)
