#!/usr/bin/env python3
"""Schema gate for micro_engine --json output.

bench-smoke.json is one JSON object per line (runs append). Downstream
tooling (CI trend scraping, the experiment scripts in bench/) indexes these
records by exact key; a silent rename or type change corrupts every
consumer, so CI fails on any drift from the schema pinned here. Extending
the schema is a deliberate act: add the key below in the same change that
adds it to bench_common.h's WriteJsonResult.

Besides the schema, a few records carry an invariant that CI gates here
(see RECORD_GATES).

Usage:
  tools/check_bench_json.py <file.json> [--require <bench-name>]...

--require asserts at least one record with that "bench" value is present
(used by CI to prove the readrandom leg actually ran).
"""
import json
import sys

# key -> allowed JSON types; nested dicts pin their sub-schema exactly.
SCHEMA = {
    "bench": str,
    "threads": int,
    "ops": int,
    "ops_per_sec": (int, float),
    "latency_micros": {
        "p50": (int, float),
        "p99": (int, float),
        "max": (int, float),
    },
    "stalls": {
        "slowdown_writes": int,
        "stop_writes": int,
        "memtable_waits": int,
        "ttl_waits": int,
        "stall_micros": int,
    },
    "commit": {
        "wal_syncs": int,
        "group_commits": int,
        "writes_grouped": int,
    },
    "background": {
        "jobs_scheduled": int,
        "memtable_swaps": int,
    },
    # Transient-fault tolerance: background-error episodes and recoveries.
    # A healthy bench run reports zeros; CI trend scraping alerts on any
    # nonzero fatal count.
    "errors": {
        "transient": int,
        "retried": int,
        "fatal": int,
        "resumes": int,
    },
    "compactions": int,
    "write_amplification": (int, float),
}

KNOWN_BENCHES = {"fillrandom", "readrandom", "readwhilewriting", "multiget",
                 "range_delete", "kv_sep"}

# Bench-specific top-level fields (WriteJsonResult's |extra| fragment).
# Records for these benches must carry exactly SCHEMA + their entry here.
EXTRA_KEYS = {
    "multiget": {
        "batch": int,
        "speedup_vs_sequential": (int, float),
    },
    # exp_range_delete (E14): range tombstones through the FADE monitor,
    # plus the coverage-cost sweep: comparator calls, p50 latency and ns per
    # Get (median pass) of a found Get at 0, 1k, 4k and 16k live memtable
    # range tombstones, under
    # the bytewise search a default DB runs and (cover_fallback_*) under
    # the comparator-driven search.
    "range_delete": {
        "dth": int,
        "range_deletes_written": int,
        "range_deletes_persisted": int,
        "range_persistence_latency_max": (int, float),
        "cover_cmp_per_get_0": (int, float),
        "cover_get_p50_us_0": (int, float),
        "cover_ns_per_get_0": (int, float),
        "cover_fallback_cmp_per_get_0": (int, float),
        "cover_cmp_per_get_1k": (int, float),
        "cover_get_p50_us_1k": (int, float),
        "cover_ns_per_get_1k": (int, float),
        "cover_fallback_cmp_per_get_1k": (int, float),
        "cover_cmp_per_get_4k": (int, float),
        "cover_get_p50_us_4k": (int, float),
        "cover_ns_per_get_4k": (int, float),
        "cover_fallback_cmp_per_get_4k": (int, float),
        "cover_cmp_per_get_16k": (int, float),
        "cover_get_p50_us_16k": (int, float),
        "cover_ns_per_get_16k": (int, float),
        "cover_fallback_cmp_per_get_16k": (int, float),
    },
    # exp_kv_sep (E15): key-value separation. The headline record is the
    # 4 KiB separation-on run; baseline/reduction fields compare against
    # the separation-off twin, and the GC/purge fields come from the
    # tightest-D_th delete-heavy run (the put-only 4 KiB fill never
    # triggers GC).
    "kv_sep": {
        "value_size": int,
        "write_amplification_baseline": (int, float),
        "wa_reduction": (int, float),
        "readrandom_ops_per_sec": (int, float),
        "readrandom_baseline_ops_per_sec": (int, float),
        "vlog_bytes_written": int,
        "vlog_values_written": int,
        "vlog_gc_runs": int,
        "vlog_gc_values_relocated": int,
        "dth": int,
        "values_purged": int,
        "value_purge_latency_max": (int, float),
    },
}


def gate_range_delete(obj):
    """A found Get's range-coverage cost must stay near-flat as memtable
    range tombstones pile up: the comparator count (deterministic, unlike
    the latency, which is not gated) at 16k tombstones is at most twice the
    count at 1k, under both searches. The bytewise search compares bytes
    without the comparator, so its count stays at the skiplist lookup's
    unless the default DB falls back to the comparator; the fallback sweep
    keeps the comparator-driven search honest. A linear scan of the
    tombstones fails either by ~16x."""
    problems = []
    for prefix in ("cover_cmp_per_get", "cover_fallback_cmp_per_get"):
        at_1k = obj[prefix + "_1k"]
        at_16k = obj[prefix + "_16k"]
        if at_16k > 2 * at_1k:
            problems.append(f"{prefix}_16k = {at_16k} exceeds 2x "
                            f"{prefix}_1k = {at_1k}")
    return problems


# Bench name -> check run on each record that passed the schema; returns a
# list of problems.
RECORD_GATES = {
    "range_delete": gate_range_delete,
}


def check_object(obj, schema, path, errors):
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected object, got {type(obj).__name__}")
        return
    missing = schema.keys() - obj.keys()
    extra = obj.keys() - schema.keys()
    for k in sorted(missing):
        errors.append(f"{path}.{k}: missing key")
    for k in sorted(extra):
        errors.append(f"{path}.{k}: unexpected key (schema drift)")
    for k, want in schema.items():
        if k not in obj:
            continue
        if isinstance(want, dict):
            check_object(obj[k], want, f"{path}.{k}", errors)
        elif not isinstance(obj[k], want) or isinstance(obj[k], bool):
            errors.append(
                f"{path}.{k}: expected {want}, got {type(obj[k]).__name__}")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[1]
    required = set()
    args = argv[2:]
    while args:
        if args[0] == "--require" and len(args) >= 2:
            required.add(args[1])
            args = args[2:]
        else:
            print(f"unknown argument: {args[0]}", file=sys.stderr)
            return 2

    errors = []
    seen_benches = set()
    with open(path) as f:
        lines = [ln for ln in f if ln.strip()]
    if not lines:
        errors.append(f"{path}: no records")
    for i, line in enumerate(lines, 1):
        where = f"{path}:{i}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{where}: not valid JSON: {e}")
            continue
        bench = obj.get("bench")
        schema = SCHEMA
        if bench in EXTRA_KEYS:
            schema = {**SCHEMA, **EXTRA_KEYS[bench]}
        before = len(errors)
        check_object(obj, schema, where, errors)
        if len(errors) == before and bench in RECORD_GATES:
            errors.extend(f"{where}: {e}" for e in RECORD_GATES[bench](obj))
        if isinstance(bench, str):
            seen_benches.add(bench)
            if bench not in KNOWN_BENCHES:
                errors.append(f"{where}: unknown bench name {bench!r}")

    for name in sorted(required - seen_benches):
        errors.append(f"{path}: no record for required bench {name!r}")

    for e in errors:
        print(f"check_bench_json: {e}", file=sys.stderr)
    if errors:
        print(f"check_bench_json: FAILED with {len(errors)} problem(s)",
              file=sys.stderr)
        return 1
    print(f"check_bench_json: OK ({len(lines)} record(s), "
          f"benches: {', '.join(sorted(seen_benches))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
