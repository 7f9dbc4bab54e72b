"""Validate an ap-perfbench-v1 report written by apbench.

Used by run.py on every run and by test_report.py. validate() returns a
list of problems; an empty list means the report is well formed and
carries every metric BENCHMARK.json names, with the unit it names.
"""

import math

SCHEMA = "ap-perfbench-v1"

# Metrics whose value is a ratio must say what it is a ratio of.
RATIO_MARKERS = ("_frac", "_per_", "_over_")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _check_metric(name, m, unit, errs):
    if not isinstance(m, dict):
        errs.append(f"metric {name}: not an object")
        return
    if not _is_num(m.get("value")):
        errs.append(f"metric {name}: value {m.get('value')!r} is not a "
                    "finite number")
    if m.get("unit") != unit:
        errs.append(f"metric {name}: unit {m.get('unit')!r}, "
                    f"BENCHMARK.json says {unit!r}")
    if name.endswith("_tail_ms"):
        if not _is_num(m.get("percentile")):
            errs.append(f"metric {name}: no percentile")
        if not _is_num(m.get("samples")):
            errs.append(f"metric {name}: no sample count")
    if name.endswith("_p50_ms") and not _is_num(m.get("samples")):
        errs.append(f"metric {name}: no sample count")
    if any(k in name for k in RATIO_MARKERS):
        if not isinstance(m.get("base"), str) or not m["base"]:
            errs.append(f"metric {name}: ratio without a base")
        if not _is_num(m.get("base_value")):
            errs.append(f"metric {name}: ratio without a base_value")


def _check_spans(spans, errs):
    for i, s in enumerate(spans):
        where = f"span {i}"
        if not isinstance(s, dict):
            errs.append(f"{where}: not an object")
            continue
        if not isinstance(s.get("name"), str) or not s["name"]:
            errs.append(f"{where}: no name")
        start, end = s.get("start_us"), s.get("end_us")
        if not (_is_num(start) and _is_num(end)) or end < start:
            errs.append(f"{where}: bad interval {start!r}..{end!r}")
            continue
        for key in ("parent", "batch", "cell", "worker", "key"):
            if not _is_int(s.get(key)):
                errs.append(f"{where}: {key} is not an integer")
        if not isinstance(s.get("recorded"), bool):
            errs.append(f"{where}: recorded is not a boolean")
        parent = s.get("parent")
        if not _is_int(parent) or parent == -1:
            continue
        if not 0 <= parent < i:
            errs.append(f"{where}: parent {parent} does not precede it")
            continue
        p = spans[parent]
        # Clock reads are microsecond doubles; allow rounding slack.
        if (isinstance(p, dict) and _is_num(p.get("start_us"))
                and _is_num(p.get("end_us"))
                and (start < p["start_us"] - 1e-3
                     or end > p["end_us"] + 1e-3)):
            errs.append(f"{where}: outside its parent span {parent}")


def validate(doc, bench):
    """Problems with report @doc against the BENCHMARK.json @bench."""
    errs = []
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errs.append(f"schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    names = [w["name"] for w in bench["workloads"]]
    if doc.get("workload") not in names:
        errs.append(f"workload {doc.get('workload')!r} not in {names}")
    if not _is_int(doc.get("seed")):
        errs.append("seed is not an integer")
    if not isinstance(doc.get("trace"), bool):
        errs.append("trace is not a boolean")
    host = doc.get("host")
    if not isinstance(host, dict):
        errs.append("no host block")
    else:
        for key in ("hardware_concurrency", "jobs"):
            if not _is_int(host.get(key)) or host[key] < 1:
                errs.append(f"host.{key} is not a positive integer")
        if not isinstance(host.get("build_type"), str) or \
                not host["build_type"]:
            errs.append("host.build_type is empty")
    for key in ("ops_per_cell", "cells_per_batch", "attempted"):
        if not _is_int(doc.get(key)) or doc[key] < 1:
            errs.append(f"{key} is not a positive integer")
    failed = doc.get("failed")
    if not _is_int(failed) or failed < 0 or (
            _is_int(doc.get("attempted")) and failed > doc["attempted"]):
        errs.append(f"failed {failed!r} is not in [0, attempted]")
    for key in ("batch_walls_ms", "setup_samples_s"):
        times = doc.get(key)
        if not isinstance(times, list) or not times or \
                not all(_is_num(t) and t > 0 for t in times):
            errs.append(f"{key} is not a list of positive times")
    if not isinstance(doc.get("correct"), bool):
        errs.append("correct is not a boolean")
    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks:
        errs.append("no checks")
    else:
        for c in checks:
            if not (isinstance(c, dict) and isinstance(c.get("name"), str)
                    and isinstance(c.get("ok"), bool)
                    and isinstance(c.get("detail"), str)):
                errs.append(f"malformed check {c!r}")
            elif not c["ok"] and doc.get("correct") is True:
                errs.append(f"check {c['name']} failed but correct is true")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return errs + ["no metrics object"]
    wanted = list(bench["end_to_end"])
    if doc.get("trace") is True:
        wanted += bench["per_layer"]
    for spec in wanted:
        name = spec["name"]
        if name not in metrics:
            errs.append(f"metric {name} missing")
        else:
            _check_metric(name, metrics[name], spec["unit"], errs)

    spans = doc.get("spans")
    if not isinstance(spans, list):
        errs.append("spans is not a list")
    elif doc.get("trace") is True:
        if not spans:
            errs.append("traced run without spans")
        _check_spans(spans, errs)
    elif spans:
        errs.append("untraced run carries spans")
    return errs
