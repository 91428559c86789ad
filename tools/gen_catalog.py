"""Generate OPERATORS.md — the consolidated queries()/oracle_sql() catalog —
from the live registry (names, docstring summaries, verification status).

Usage: python tools/gen_catalog.py > OPERATORS.md
"""

from __future__ import annotations

import inspect
import os
import sys

# this checkout's registry, whatever PYTHONPATH holds
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from signalsharp_ray.pipelines.queries import (  # noqa: E402
    _FIXED_HEADS,
    _HEAVY_NAMES,
    build_oracle_sql,
    build_queries,
    driver_window,
)


def summary(fn) -> str:
    doc = inspect.getdoc(fn) or ""
    first = doc.split("\n\n")[0].replace("\n", " ").strip()
    return first if first else "(see module docstring)"


def main() -> None:
    qs = build_queries()
    oracles = build_oracle_sql()
    window = driver_window(qs.keys())
    wset = set(window)
    n_sql = sum(1 for n in qs if n in oracles)
    print("# Operator catalog")
    print()
    print(
        f"All **{len(qs)} `queries()` entries** ({n_sql} DuckDB-oracle-"
        "verified, "
        f"{len(qs) - n_sql} rows-only by design), generated from the live "
        "registry by tools/gen_catalog.py."
    )
    print("Status: `SQL` = driver hash-compares rows/schema/values against the")
    print("oracle at sf0.01; `rows` = approximate-by-design or no SQL ground")
    print("truth (each is error-bounded or pinned against an exact counterpart")
    print("in tests — see SURVEY.md §8).")
    print()
    print(
        f"Driver window (the {len(window)} names the driver grades THIS "
        "round, from `driver_window()`): `head` = fixed §2/LLM-family "
        "representative, `rot` = this round's rotation slice through the "
        "never-yet-graded tail, `heavy` = the one >=40s watchlist name "
        "(placed last). Rotation state = names in CORRECTNESS_r*.json; "
        "regenerate after each driver round."
    )
    print()
    print("| # | query | status | window | what it computes |")
    print("|---|---|---|---|---|")
    for i, (name, fn) in enumerate(sorted(qs.items()), 1):
        status = "SQL" if name in oracles else "rows"
        if name not in wset:
            w = ""
        elif name in _HEAVY_NAMES:
            w = "heavy"
        elif name in _FIXED_HEADS:
            w = "head"
        else:
            w = "rot"
        print(f"| {i} | `{name}` | {status} | {w} | {summary(fn)} |")


if __name__ == "__main__":
    main()
