#!/usr/bin/env python3
"""Checks that a freshly written BENCH_*.json has the committed one's shape.

Usage: python3 scripts/bench_schema.py COMMITTED FRESH

Values may differ; key paths may not. A list of result rows is checked
through its first row, which must carry every row key. Exits nonzero,
naming the missing and extra key paths, when the two files disagree.
"""
import json
import os
import sys


def key_paths(v, prefix=""):
    out = set()
    if isinstance(v, dict):
        for k, sub in v.items():
            out.add(f"{prefix}.{k}")
            out |= key_paths(sub, f"{prefix}.{k}")
    elif isinstance(v, list) and v:
        out |= key_paths(v[0], f"{prefix}[]")
    return out


def main():
    if len(sys.argv) != 3:
        raise SystemExit("usage: bench_schema.py COMMITTED FRESH")
    committed_path, fresh_path = sys.argv[1:]
    with open(committed_path) as f:
        committed = key_paths(json.load(f))
    with open(fresh_path) as f:
        fresh = key_paths(json.load(f))
    missing = committed - fresh
    extra = fresh - committed
    if missing or extra:
        raise SystemExit(
            f"{os.path.basename(fresh_path)} schema drift: "
            f"missing={sorted(missing)} extra={sorted(extra)}"
        )


if __name__ == "__main__":
    main()
