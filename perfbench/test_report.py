#!/usr/bin/env python3
"""Tests of the benchmark's machine-readable output.

The validator tests run in well under a second. EndToEnd runs every
workload of BENCHMARK.json once, traced, for one second (building the
benchmark program first if needed; about two minutes on four cores)
and validates both the full report and the final JSON line run.py
prints.

Run from the root of the repository:
    python3 perfbench/test_report.py
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import check_report  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def metric_for(spec):
    m = {"value": 1.5, "unit": spec["unit"]}
    name = spec["name"]
    if name.endswith("_tail_ms"):
        m.update(percentile=95, samples=400)
    if name.endswith("_p50_ms"):
        m["samples"] = 400
    if any(k in name for k in check_report.RATIO_MARKERS):
        m.update(base="cells attempted", base_value=400)
    return m


def good_report(trace):
    specs = BENCH["end_to_end"] + (BENCH["per_layer"] if trace else [])
    spans = []
    if trace:
        spans = [
            {"name": "cell", "start_us": 0.0, "end_us": 10.0, "parent": -1,
             "batch": 0, "cell": 0, "worker": -1, "key": -1,
             "recorded": False},
            {"name": "trace.obtain", "start_us": 1.0, "end_us": 4.0,
             "parent": 0, "batch": 0, "cell": 0, "worker": -1, "key": 0,
             "recorded": True},
        ]
    return {
        "schema": check_report.SCHEMA,
        "workload": BENCH["workloads"][0]["name"],
        "seed": 1,
        "seconds": 10,
        "trace": trace,
        "host": {"hardware_concurrency": 4, "jobs": 4,
                 "build_type": "Release"},
        "ops_per_cell": 500000,
        "cells_per_batch": 64,
        "correct": True,
        "attempted": 400,
        "failed": 0,
        "batch_walls_ms": [1500.0, 1510.5],
        "setup_samples_s": [1.5],
        "checks": [{"name": "reference", "ok": True, "detail": ""}],
        "metrics": {s["name"]: metric_for(s) for s in specs},
        "spans": spans,
    }


class Validator(unittest.TestCase):
    def assertRejected(self, doc, fragment):
        errs = check_report.validate(doc, BENCH)
        self.assertTrue(any(fragment in e for e in errs),
                        f"expected an error about {fragment!r}, got {errs}")

    def test_good_reports_pass(self):
        for trace in (False, True):
            self.assertEqual(check_report.validate(good_report(trace), BENCH),
                             [])

    def test_host_block_required(self):
        doc = good_report(False)
        del doc["host"]
        self.assertRejected(doc, "host")
        doc = good_report(False)
        doc["host"]["build_type"] = ""
        self.assertRejected(doc, "build_type")

    def test_every_metric_with_its_unit(self):
        doc = good_report(True)
        del doc["metrics"]["trace.wait_s"]
        self.assertRejected(doc, "trace.wait_s missing")
        doc = good_report(False)
        doc["metrics"]["sim_mips"]["unit"] = "MIPS"
        self.assertRejected(doc, "unit")
        doc = good_report(False)
        doc["metrics"]["setup_s"]["value"] = None
        self.assertRejected(doc, "finite")

    def test_tail_needs_percentile_and_samples(self):
        doc = good_report(False)
        del doc["metrics"]["cell_tail_ms"]["percentile"]
        self.assertRejected(doc, "percentile")
        doc = good_report(False)
        del doc["metrics"]["batch_tail_ms"]["samples"]
        self.assertRejected(doc, "sample count")

    def test_raw_samples(self):
        doc = good_report(False)
        doc["batch_walls_ms"] = []
        self.assertRejected(doc, "batch_walls_ms")
        doc = good_report(False)
        doc["setup_samples_s"] = [0.0]
        self.assertRejected(doc, "setup_samples_s")

    def test_ratio_needs_base(self):
        doc = good_report(True)
        del doc["metrics"]["sim.pool_reuse_frac"]["base"]
        self.assertRejected(doc, "without a base")

    def test_spans(self):
        doc = good_report(True)
        doc["spans"] = []
        self.assertRejected(doc, "without spans")
        doc = good_report(True)
        doc["spans"][1]["parent"] = 1
        self.assertRejected(doc, "does not precede")
        doc = good_report(True)
        doc["spans"][1]["end_us"] = 11.0
        self.assertRejected(doc, "outside its parent")
        doc = good_report(False)
        doc["spans"] = copy.deepcopy(good_report(True)["spans"])
        self.assertRejected(doc, "untraced run carries spans")

    def test_failed_check_cannot_be_correct(self):
        doc = good_report(False)
        doc["checks"][0]["ok"] = False
        self.assertRejected(doc, "correct is true")


class EndToEnd(unittest.TestCase):
    def test_every_workload_traced(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                out = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", w["name"], "--seed", "5", "--seconds",
                     "1", "--trace", "1"],
                    cwd=ROOT, capture_output=True, text=True, timeout=900)
                self.assertEqual(out.returncode, 0, out.stderr[-3000:])
                line = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(line),
                                 ["attempted", "correct", "failed",
                                  "metrics"])
                self.assertTrue(line["correct"], out.stdout)
                self.assertEqual(line["failed"], 0)
                self.assertEqual(sorted(line["metrics"]),
                                 sorted(m["name"]
                                        for m in BENCH["per_layer"]))
                report = os.path.join(
                    ROOT, ".bench_build", "reports",
                    f"{w['name']}_seed5_trace1.json")
                with open(report) as f:
                    doc = json.load(f)
                self.assertEqual(check_report.validate(doc, BENCH), [])
                if w["name"] == "fig5-regen":
                    self.assertEqual(
                        doc["metrics"]["trace.record_s"]["value"], 0)
                    self.assertEqual(
                        doc["metrics"]["trace.wait_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
