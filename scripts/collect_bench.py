#!/usr/bin/env python3
"""Merge per-binary BENCH_<fig>.json files into one benchmark trajectory.

Each bench binary (bench/bench_fig*.cpp & co.) writes a BENCH_<fig>.json
with its variants' measured samples, per-variant engine telemetry, and a
snapshot of the process-wide metrics registry. This script validates every
file against the schema the C++ reporter emits and merges them into a
single trajectory file — the unit the perf history is tracked in.

Validation is strict and fails loudly: a malformed file, a missing
required field, a wrong type, or an empty sample list is an error, not a
warning — a silently dropped figure would read as "nothing regressed".

Usage:
  scripts/collect_bench.py [--out TRAJECTORY.json] BENCH_fig05.json ...
  scripts/collect_bench.py --glob results_dir   # all BENCH_*.json inside

Exit status: 0 on success, 1 on any validation or I/O failure.
"""

import argparse
import glob
import json
import os
import sys

SCHEMA_VERSION = 1

# variant.telemetry is null for baseline variants; when present it must
# carry at least these fields with these types (bool is also an int in
# Python, so bool checks come first).
TELEMETRY_FIELDS = {
    "execute_ms": (int, float),
    "optimize_ms": (int, float),
    "compile_ms": (int, float),
    "used_jit": bool,
    "jit_parallel": bool,
    "jit_cache_hit": bool,
    "threads_used": int,
    "morsels": int,
    "shards_used": int,
    "bytes_exchanged": int,
    "compile_tier": int,
    "morsels_interpreted": int,
    "morsels_jit": int,
    "tasks_dealt": int,
    "steals": int,
    "join_strategy": str,
}


class SchemaError(Exception):
    pass


def _check(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _check_type(value, types, path, field):
    # bool is a subclass of int: reject True where a number is expected
    # unless bool is the expected type itself.
    if types is not bool and isinstance(value, bool):
        raise SchemaError(f"{path}: field '{field}' must not be a boolean")
    if not isinstance(value, types):
        want = types.__name__ if isinstance(types, type) else "number"
        raise SchemaError(f"{path}: field '{field}' must be {want}, got "
                          f"{type(value).__name__}")


def validate_report(doc, path):
    """Raises SchemaError unless `doc` is a well-formed BENCH_<fig> report."""
    _check(isinstance(doc, dict), path, "top level must be a JSON object")
    for field in ("schema_version", "fig", "scale", "variants", "metrics"):
        _check(field in doc, path, f"missing required field '{field}'")
    _check(doc["schema_version"] == SCHEMA_VERSION, path,
           f"schema_version {doc['schema_version']!r}, expected {SCHEMA_VERSION}")
    _check_type(doc["fig"], str, path, "fig")
    _check(doc["fig"] != "", path, "fig must be non-empty")

    scale = doc["scale"]
    _check(isinstance(scale, dict), path, "scale must be an object")
    for field in ("orders", "mails"):
        _check(field in scale, path, f"scale missing '{field}'")
        _check_type(scale[field], int, path, f"scale.{field}")

    variants = doc["variants"]
    _check(isinstance(variants, list), path, "variants must be an array")
    _check(len(variants) > 0, path, "variants must be non-empty")
    seen = set()
    for i, v in enumerate(variants):
        vpath = f"{path}: variants[{i}]"
        _check(isinstance(v, dict), vpath, "must be an object")
        for field in ("name", "samples", "ms", "telemetry"):
            _check(field in v, vpath, f"missing required field '{field}'")
        _check_type(v["name"], str, vpath, "name")
        _check(v["name"] not in seen, vpath, f"duplicate variant '{v['name']}'")
        seen.add(v["name"])
        _check(isinstance(v["samples"], list) and len(v["samples"]) > 0, vpath,
               "samples must be a non-empty array")
        for s in v["samples"]:
            _check_type(s, (int, float), vpath, "samples[]")
        _check_type(v["ms"], (int, float), vpath, "ms")
        if v["telemetry"] is not None:
            _check(isinstance(v["telemetry"], dict), vpath,
                   "telemetry must be an object or null")
            for field, types in TELEMETRY_FIELDS.items():
                _check(field in v["telemetry"], vpath,
                       f"telemetry missing '{field}'")
                _check_type(v["telemetry"][field], types, vpath,
                            f"telemetry.{field}")

    _check(isinstance(doc["metrics"], dict), path, "metrics must be an object")
    for section in ("counters", "gauges", "histograms"):
        _check(section in doc["metrics"], path, f"metrics missing '{section}'")
        _check(isinstance(doc["metrics"][section], dict), path,
               f"metrics.{section} must be an object")


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise SchemaError(f"{path}: cannot read: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: malformed JSON: {e}")
    validate_report(doc, path)
    return doc


def merge(reports):
    """One trajectory document from validated per-figure reports."""
    figs = {}
    for doc in reports:
        fig = doc["fig"]
        if fig in figs:
            raise SchemaError(f"duplicate figure '{fig}' across input files")
        figs[fig] = doc
    scales = {json.dumps(d["scale"], sort_keys=True) for d in reports}
    if len(scales) > 1:
        raise SchemaError(
            "input files were produced at different scales: " +
            ", ".join(sorted(scales)))
    return {
        "schema_version": SCHEMA_VERSION,
        "scale": reports[0]["scale"],
        "figs": {fig: {"variants": doc["variants"], "metrics": doc["metrics"]}
                 for fig, doc in sorted(figs.items())},
        "num_variants": sum(len(d["variants"]) for d in reports),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs", nargs="*", help="BENCH_<fig>.json files")
    ap.add_argument("--glob", metavar="DIR",
                    help="collect every BENCH_*.json under DIR")
    ap.add_argument("--out", default="BENCH_trajectory.json",
                    help="merged output path (default: %(default)s)")
    args = ap.parse_args(argv)

    inputs = list(args.inputs)
    if args.glob:
        inputs += sorted(glob.glob(os.path.join(args.glob, "BENCH_*.json")))
    if not inputs:
        print("collect_bench: no input files", file=sys.stderr)
        return 1

    try:
        reports = [load_report(p) for p in inputs]
        trajectory = merge(reports)
    except SchemaError as e:
        print(f"collect_bench: {e}", file=sys.stderr)
        return 1

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(f"collect_bench: {len(reports)} figure(s), "
          f"{trajectory['num_variants']} variant(s) -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
