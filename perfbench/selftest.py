"""Self-tests of the benchmark harness, on the smoke size of each workload.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (puts the package next to the benchmark on the path)

import cpbs.cli  # noqa: E402

COUNTS = ("out_bytes", "pbs_out", "queries_out")


def bench(workload: str, trace: int = 0, seed: int = 3) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--trace", str(trace), "--smoke"])
    assert rc == 0, rc
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


class Harness(unittest.TestCase):
    def test_smoke_prints_every_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, text = bench(workload)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
                for name, unit in run.END_TO_END_UNITS.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                    self.assertIn(f"# {name} = ", text)
                traced, _ = bench(workload, trace=1)
                self.assertEqual(set(traced["metrics"]), {name for name, _ in run.PER_LAYER})
                share = traced["metrics"]["trace.accounted_share"]["value"]
                self.assertAlmostEqual(share, 1.0, delta=0.05)

    def test_tampered_table_counts_as_failed(self):
        honest, _ = bench("random-opt")
        original = cpbs.cli._table_tsv

        def tampered(d):
            first, *rest = original(d).split("\n")
            return "\n".join([first[::-1], *rest])

        with mock.patch.object(cpbs.cli, "_table_tsv", tampered):
            result, text = bench("random-opt")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], honest["failed"])
        self.assertIn("table: wrong output", text)

    def test_counts_repeat_for_one_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a, _ = bench(workload)
                b, _ = bench(workload)
                for name in COUNTS:
                    self.assertEqual(a["metrics"][name], b["metrics"][name])
                ta, _ = bench(workload, trace=1)
                tb, _ = bench(workload, trace=1)
                for name, unit in run.PER_LAYER:
                    if unit in ("count", "bytes"):
                        self.assertEqual(ta["metrics"][name], tb["metrics"][name], name)


if __name__ == "__main__":
    unittest.main()
