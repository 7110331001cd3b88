#!/usr/bin/env python3
"""Seed-determinism tests for flexbench.

Run from the repository root:

    python3 perfbench/test_flexbench.py

Builds the benchmark the way run.py does, then checks, on every workload:
  - two runs with one seed, of different lengths, give identical
    virtual-clock metrics (v_*, vcall_*) and identical variant digests;
  - two traced runs with one seed give identical counts;
and that a different seed changes the fleet arrivals.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as flexbench_run  # noqa: E402

WORKLOADS = ["nfs_small", "nfs_bulk", "fleet"]
VIRTUAL = ["v_MB_per_s", "vcall_us_p50", "vcall_us_p99"]
COUNTS = [
    "marshal.spec_hit_ratio", "marshal.spec_lookups",
    "mem.copy_bytes_per_call", "net.frame_copies_per_call",
    "net.bytes_on_wire_per_call", "arena.block_allocs_per_call",
    "events_per_call", "rpc.retransmits_per_call", "rpc.dupcache_hit_ratio",
    "rpc.dupcache_lookups", "net.checksum_failures", "dispatch.busy_frac",
    "dispatch.max_queue_depth", "mux.flow_stalls", "phase.queued_pct",
    "phase.wire_pct", "phase.server_pct", "phase.wait_pct", "phase.calls",
    "counted_calls",
]


class FlexbenchSeedTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = flexbench_run.build()
        if cls.exe is None:
            raise RuntimeError("flexbench build failed")
        cls.tmp = tempfile.TemporaryDirectory(dir=flexbench_run.build_dir())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def bench(self, workload, seed, trace, seconds):
        detail = os.path.join(
            self.tmp.name, "%s-%d-%d-%s.json" % (workload, seed, trace, seconds))
        out = subprocess.run(
            [self.exe, "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(trace), "--detail", detail],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        with open(detail) as f:
            return result["metrics"], json.load(f)

    def test_same_seed_same_virtual_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, a_detail = self.bench(workload, 7, 0, "1")
                b, b_detail = self.bench(workload, 7, 0, "2")
                for name in VIRTUAL:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)
                self.assertEqual(a_detail["variant_digests"],
                                 b_detail["variant_digests"])

    def test_same_seed_same_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, _ = self.bench(workload, 7, 1, "1")
                b, _ = self.bench(workload, 7, 1, "1")
                for name in COUNTS:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)

    def test_other_seed_changes_fleet_arrivals(self):
        a, a_detail = self.bench("fleet", 7, 0, "1")
        b, b_detail = self.bench("fleet", 8, 0, "1")
        self.assertNotEqual(a_detail["input_digest"], b_detail["input_digest"])
        self.assertNotEqual(a["vcall_us_p50"]["value"],
                            b["vcall_us_p50"]["value"])


if __name__ == "__main__":
    unittest.main()
