#!/usr/bin/env python3
"""Validate the JSON stats exports (CI gate).

Usage:
  check_stats_json.py stats      <machine-stats.json>   # apsim --stats-json
  check_stats_json.py runs       <run-results.json>     # bench --stats-json
  check_stats_json.py frames     <frames.ndjson>        # apsim_client output
                                                        # ('-' for stdin)
  check_stats_json.py throughput <BENCH_throughput.json>

Checks that the file parses, carries the expected versioned schema tag,
has the required keys, and that the per-cause VM-exit counts sum exactly
to the aggregate trap counter. The frames mode validates an apsimd
result stream: every line is one ap-run-frame-v1 / ap-error-v1 /
ap-batch-end-v1 object, run frames carry the batch/cell/worker envelope
and a complete run object, no batch answers the same cell twice, and
each batch-end's cell and error totals match the frames that preceded
it. Exit 0 on success, 1 on any violation.
"""

import json
import sys


def fail(msg):
    print(f"check_stats_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_group(group, path):
    for key in ("name", "stats", "groups"):
        require(key in group, f"{path}: missing key '{key}'")
    for name, stat in group["stats"].items():
        require("type" in stat, f"{path}.{name}: stat missing 'type'")
        require(
            stat["type"] in ("scalar", "distribution", "formula"),
            f"{path}.{name}: unknown stat type '{stat['type']}'",
        )
        if stat["type"] in ("scalar", "formula"):
            require("value" in stat, f"{path}.{name}: missing 'value'")
        else:
            for key in ("count", "sum", "mean", "buckets"):
                require(key in stat, f"{path}.{name}: missing '{key}'")
    for name, child in group["groups"].items():
        check_group(child, f"{path}.{name}")


def find_group(group, name):
    if group.get("name") == name:
        return group
    for child in group.get("groups", {}).values():
        found = find_group(child, name)
        if found is not None:
            return found
    return None


def check_coherence_group(doc):
    """sum(shootdown_<cause>) must equal the aggregate shootdown count."""
    coh = find_group(doc, "coherence")
    if coh is None:
        return None
    stats = coh["stats"]
    require("shootdowns" in stats,
            "coherence group missing aggregate 'shootdowns'")
    total = stats["shootdowns"]["value"]
    per_cause = sum(
        stat["value"]
        for name, stat in stats.items()
        if name.startswith("shootdown_") and stat["type"] == "scalar"
    )
    require(
        per_cause == total,
        f"per-cause shootdowns sum to {per_cause}, aggregate is {total}",
    )
    return int(total)


def check_segments_group(doc):
    """Range-backend segment counters: present and internally sane."""
    seg = find_group(doc, "segments")
    if seg is None:
        return None
    stats = seg["stats"]
    for name in ("segment_hits", "segment_fills", "segment_spills",
                 "segment_invalidations"):
        require(name in stats, f"segments group missing '{name}'")
        require(stats[name]["type"] == "scalar",
                f"segments.{name}: must be a scalar")
    # Every spill is an install that evicted a live register.
    require(
        stats["segment_spills"]["value"]
        <= stats["segment_fills"]["value"],
        "segment_spills exceeds segment_fills",
    )
    return int(stats["segment_hits"]["value"])


def check_stats(doc):
    require(doc.get("schema") == "ap-stats-v1",
            f"bad schema tag: {doc.get('schema')!r}")
    check_group(doc, doc.get("name", "<root>"))

    seg_hits = check_segments_group(doc)
    if seg_hits is not None:
        print(f"check_stats_json: segments group OK "
              f"({seg_hits} segment hits)")

    shootdowns = check_coherence_group(doc)
    coh_note = ("" if shootdowns is None
                else f", {shootdowns} shootdowns attributed")

    vmm = find_group(doc, "vmm")
    if vmm is None:
        print("check_stats_json: no vmm group (native run); "
              f"structure OK{coh_note}")
        return
    stats = vmm["stats"]
    require("traps" in stats, "vmm group missing aggregate 'traps'")
    total = stats["traps"]["value"]
    per_cause = sum(
        stat["value"]
        for name, stat in stats.items()
        if name.startswith("trap_") and not name.endswith("_cycles")
        and stat["type"] == "scalar"
    )
    require(
        per_cause == total,
        f"per-cause trap counts sum to {per_cause}, aggregate is {total}",
    )
    print(f"check_stats_json: OK ({int(total)} traps attributed{coh_note})")


def check_host(host, path="host"):
    require(isinstance(host, dict), f"'{path}' must be an object")
    for key in ("hardware_concurrency", "jobs", "build_type"):
        require(key in host, f"{path}: missing key '{key}'")
    for key in ("hardware_concurrency", "jobs"):
        require(
            isinstance(host[key], int) and host[key] >= 0,
            f"{path}.{key}: must be a non-negative integer",
        )
    require(isinstance(host["build_type"], str) and host["build_type"],
            f"{path}.build_type: must be a non-empty string")


def check_run(run, label):
    """Validate one run object (an ap-runs-v1 runs[] element or the
    "run" of an ap-run-frame-v1). Returns (is_coherence, is_range)."""
    required = (
        "workload", "mode", "page_size", "instructions", "ideal_cycles",
        "walk_cycles", "trap_cycles", "tlb_misses", "walks", "traps",
        "avg_walk_refs", "coverage", "traps_by_cause",
    )
    segment_keys = ("segment_hits", "segment_spills",
                    "segment_invalidations")
    for key in required:
        require(key in run, f"{label}: missing key '{key}'")
    require(len(run["coverage"]) == 6,
            f"{label}: coverage must have 6 classes")
    per_cause = sum(run["traps_by_cause"].values())
    require(
        per_cause == run["traps"],
        f"{label} ({run['workload']}): per-cause traps sum to "
        f"{per_cause}, aggregate is {run['traps']}",
    )
    # Coherence block: emitted only for multi-vCPU runs, and then
    # always complete and internally consistent.
    is_coherence = "num_vcpus" in run
    if is_coherence:
        require(run["num_vcpus"] > 1,
                f"{label}: num_vcpus present but not > 1")
        for key in ("coherence_cycles", "shootdowns",
                    "remote_invalidations", "shootdowns_by_cause",
                    "coherence_overhead"):
            require(key in run, f"{label}: has num_vcpus but "
                                f"missing '{key}'")
        by_cause = sum(run["shootdowns_by_cause"].values())
        require(
            by_cause == run["shootdowns"],
            f"{label} ({run['workload']}): per-cause shootdowns "
            f"sum to {by_cause}, aggregate is {run['shootdowns']}",
        )
        remotes = run["num_vcpus"] - 1
        require(
            run["remote_invalidations"] == run["shootdowns"] * remotes,
            f"{label} ({run['workload']}): remote_invalidations "
            f"{run['remote_invalidations']} != shootdowns x {remotes}",
        )
    else:
        for key in ("coherence_cycles", "shootdowns",
                    "shootdowns_by_cause"):
            require(key not in run,
                    f"{label}: single-vCPU run carries '{key}'")
    # Segment block: emitted only for range-mode runs, and then
    # always complete.
    is_range = run["mode"] == "Range"
    if is_range:
        for key in segment_keys:
            require(key in run, f"{label}: range run missing '{key}'")
            require(
                isinstance(run[key], int) and run[key] >= 0,
                f"{label}.{key}: must be a non-negative integer",
            )
    else:
        for key in segment_keys:
            require(key not in run,
                    f"{label}: non-range run carries '{key}'")
    return is_coherence, is_range


def check_runs(doc):
    require(doc.get("schema") == "ap-runs-v1",
            f"bad schema tag: {doc.get('schema')!r}")
    check_host(doc.get("host"))
    runs = doc.get("runs")
    require(isinstance(runs, list) and runs, "missing/empty 'runs' array")
    coherence_runs = 0
    range_runs = 0
    for i, run in enumerate(runs):
        is_coherence, is_range = check_run(run, f"runs[{i}]")
        coherence_runs += is_coherence
        range_runs += is_range
    coh_note = (f"; {coherence_runs} multi-vCPU" if coherence_runs
                else "")
    if range_runs:
        coh_note += f"; {range_runs} range"
    host = doc["host"]
    print(f"check_stats_json: OK ({len(runs)} runs{coh_note}; "
          f"jobs={host['jobs']}, build={host['build_type']})")


def check_point(point, path, allow_zero_rate=False):
    """One {jobs, seconds, accesses_per_sec} measurement block."""
    require(isinstance(point, dict), f"'{path}' must be an object")
    for key in ("jobs", "seconds", "accesses_per_sec"):
        require(key in point, f"{path}: missing key '{key}'")
    require(point["seconds"] > 0, f"{path}.seconds: must be positive")
    if not allow_zero_rate:
        require(point["accesses_per_sec"] > 0,
                f"{path}.accesses_per_sec: must be positive")


def check_throughput(doc):
    """Validate BENCH_throughput.json (bench_throughput output)."""
    for key in ("cells", "ops_per_cell", "total_accesses", "host",
                "serial", "parallel", "trace_cache", "snapshot_cache",
                "machine_pool", "filter", "engine_speedup_vs_cold",
                "speedup", "deterministic"):
        require(key in doc, f"throughput doc missing key '{key}'")
    require(doc["deterministic"] is True,
            "throughput run was not deterministic")
    check_host(doc["host"])
    check_point(doc["serial"], "serial")
    check_point(doc["parallel"], "parallel")
    require("skipped" in doc["parallel"],
            "parallel: missing key 'skipped'")
    skipped = doc["parallel"]["skipped"]
    require(isinstance(skipped, bool),
            "parallel.skipped: must be a boolean")
    # On a single-core host the parallel section is a placeholder, so
    # the parallel speedup is exempt from the >=1 sanity bound.
    if not skipped:
        require(doc["speedup"] > 0, "speedup: must be positive")
    for section, points in (("trace_cache", ("replay", "batched",
                                             "regen")),
                            ("snapshot_cache", ("fork",)),
                            ("machine_pool", ("pooled",))):
        for name in points:
            require(name in doc[section],
                    f"{section}: missing point '{name}'")
            check_point(doc[section][name], f"{section}.{name}")
    filt = doc["filter"]
    for key in ("blocks_scanned", "lanes_scanned", "lanes_filtered",
                "hit_mask_density", "bulk_retires"):
        require(key in filt, f"filter: missing key '{key}'")
    require(
        filt["lanes_filtered"] <= filt["lanes_scanned"],
        f"filter: lanes_filtered {filt['lanes_filtered']} exceeds "
        f"lanes_scanned {filt['lanes_scanned']}",
    )
    require(0.0 <= filt["hit_mask_density"] <= 1.0,
            f"filter.hit_mask_density {filt['hit_mask_density']} "
            "outside [0, 1]")
    require(filt["lanes_scanned"] > 0, "filter: no lanes were scanned")
    require(filt["blocks_scanned"] > 0, "filter: no blocks were scanned")
    require(doc["engine_speedup_vs_cold"] > 0,
            "engine_speedup_vs_cold: must be positive")
    density = filt["hit_mask_density"]
    par_note = " (parallel skipped)" if skipped else ""
    print(f"check_stats_json: OK (engine "
          f"{doc['engine_speedup_vs_cold']:.2f}x vs cold, filter "
          f"density {100 * density:.1f}%{par_note})")


def check_frames(lines):
    """Validate an apsimd result stream (NDJSON, one frame per line)."""
    # batch id -> set of answered cell indices / error count / end doc
    answered = {}
    cell_errors = {}
    ends = {}
    run_frames = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        label = f"line {lineno}"
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{label}: not valid JSON: {e}")
        require(isinstance(frame, dict), f"{label}: frame must be an "
                                         "object")
        schema = frame.get("schema")
        if schema == "ap-run-frame-v1":
            for key in ("batch", "cell", "worker", "run"):
                require(key in frame, f"{label}: run frame missing "
                                      f"'{key}'")
            for key in ("batch", "cell", "worker"):
                require(
                    isinstance(frame[key], int) and frame[key] >= 0,
                    f"{label}.{key}: must be a non-negative integer",
                )
            batch, cell = frame["batch"], frame["cell"]
            require(batch not in ends,
                    f"{label}: run frame for batch {batch} after its "
                    "batch-end")
            cells = answered.setdefault(batch, set())
            require(cell not in cells,
                    f"{label}: duplicate cell {cell} in batch {batch}")
            cells.add(cell)
            check_run(frame["run"], f"{label}.run")
            run_frames += 1
        elif schema == "ap-error-v1":
            require("error" in frame and isinstance(frame["error"], str),
                    f"{label}: error frame missing 'error' string")
            # Cell-scoped errors answer a cell; batch-scoped (or
            # connection-scoped) ones don't.
            if "cell" in frame:
                require("batch" in frame,
                        f"{label}: cell-scoped error missing 'batch'")
                batch, cell = frame["batch"], frame["cell"]
                cells = answered.setdefault(batch, set())
                require(cell not in cells,
                        f"{label}: duplicate cell {cell} in batch "
                        f"{batch}")
                cells.add(cell)
                cell_errors[batch] = cell_errors.get(batch, 0) + 1
        elif schema == "ap-batch-end-v1":
            for key in ("batch", "cells", "errors"):
                require(key in frame, f"{label}: batch end missing "
                                      f"'{key}'")
            batch = frame["batch"]
            require(batch not in ends,
                    f"{label}: second batch-end for batch {batch}")
            ends[batch] = frame
            seen = len(answered.get(batch, ()))
            require(
                frame["cells"] == seen,
                f"{label}: batch {batch} ended with cells="
                f"{frame['cells']} but {seen} cells were answered",
            )
            errs = cell_errors.get(batch, 0)
            require(
                frame["errors"] == errs,
                f"{label}: batch {batch} ended with errors="
                f"{frame['errors']} but {errs} cell errors streamed",
            )
        else:
            fail(f"{label}: unknown frame schema {schema!r}")
    require(run_frames or ends or cell_errors, "no frames in input")
    for batch in answered:
        require(batch in ends,
                f"batch {batch} streamed cells but never ended")
    print(f"check_stats_json: OK ({run_frames} run frames, "
          f"{len(ends)} batch(es), "
          f"{sum(cell_errors.values())} cell error(s))")


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in ("stats", "runs",
                                                 "frames", "throughput"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, path = sys.argv[1], sys.argv[2]
    if mode == "frames":
        if path == "-":
            check_frames(sys.stdin)
        else:
            try:
                with open(path) as f:
                    check_frames(f)
            except OSError as e:
                fail(f"cannot load {path}: {e}")
        return 0
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    if mode == "stats":
        check_stats(doc)
    elif mode == "throughput":
        check_throughput(doc)
    else:
        check_runs(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
