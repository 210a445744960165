"""Self-test of the benchmark's own arithmetic and parsers.

    python3 bench/selftest.py
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps_and_skips_contained(self):
        self.assertAlmostEqual(spans.union_length([(0, 2), (1, 3), (5, 6), (5.2, 5.5)]), 4.0)
        self.assertEqual(spans.union_length([]), 0.0)

    def test_self_time_subtracts_children_once(self):
        # root [0, 10] has children [1, 4] and [3, 6] (overlapping) and a grandchild
        recorded = [
            [0, None, "a.root", 0.0, 10.0],
            [1, 0, "b.x", 1.0, 4.0],
            [2, 0, "b.y", 3.0, 6.0],
            [3, 1, "c.z", 2.0, 3.0],
        ]
        got = spans.self_times(recorded)
        self.assertAlmostEqual(got[0], 10.0 - 5.0)
        self.assertAlmostEqual(got[1], 3.0 - 1.0)
        self.assertAlmostEqual(got[2], 3.0)
        self.assertAlmostEqual(got[3], 1.0)

    def test_tracer_nests_and_layer_metrics_sum(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        outer = tracer.enter("frequency.frequency_U")  # t=0
        inner = tracer.enter(spans.EVALUATE)  # t=1
        tracer.exit(inner)  # t=2
        tracer.exit(outer)  # t=3
        self.assertEqual(tracer.spans[inner][1], outer)
        metrics = spans.layer_metrics(tracer)
        self.assertEqual(metrics["frequency.self_s"], 2.0)
        self.assertEqual(metrics["holopoly.evaluate.self_s"], 1.0)
        self.assertEqual(metrics["holopoly.evaluate.calls"], 1)
        self.assertEqual(sum(spans.self_times(tracer.spans).values()), 3.0)  # nested spans tile the root


class ParserTest(unittest.TestCase):
    REPORT = {
        "passed": False,
        "checks": [
            {"name": "a.ok", "status": "pass", "margin": 0.5e-6, "detail": "N=800, tol 1e-6"},
            {"name": "b.exact", "status": "pass", "margin": 1e-8, "detail": "tol=1e-08"},
            {"name": "c.fail", "status": "fail", "margin": -4e-9, "detail": "tol=1e-10"},
            {"name": "d.crash", "status": "fail", "margin": None, "detail": "ValueError: x"},
            {"name": "e.flag", "status": "pass", "margin": 0.0, "detail": ""},
        ],
    }

    def test_verify_all_ops_counts_missing_and_crashed(self):
        ops, consistent = run.verify_all_ops(self.REPORT, 1, ["a.ok", "b.exact", "c.fail", "d.crash", "z.gone"])
        self.assertTrue(consistent)
        by_name = {op["name"]: op for op in ops}
        self.assertEqual(len(ops), 6)  # five reported plus the missing one
        self.assertEqual(sorted(n for n, op in by_name.items() if not op["ok"]), ["c.fail", "d.crash", "z.gone"])
        self.assertEqual(by_name["a.ok"]["errs"], [[0.5e-6, 1e-6, 1.0]])
        self.assertEqual(by_name["e.flag"]["errs"], [])

    def test_verify_all_ops_flags_inconsistent_exit_code(self):
        _, consistent = run.verify_all_ops(self.REPORT, 0, [])
        self.assertFalse(consistent)

    def test_accuracy_skips_failed_ops_and_floors_rounding(self):
        ops, _ = run.verify_all_ops(self.REPORT, 1, [])
        # a.ok: log10(1e-6 / 5e-7); b.exact has zero error, floored at 1e-13
        self.assertAlmostEqual(run.accuracy_digits(ops), math.log10(2.0))
        exact = [{"ok": True, "errs": [[0.0, 1e-8, 1.0]]}]
        self.assertAlmostEqual(run.accuracy_digits(exact), 5.0)

    def test_importtime_counts_outermost_entries(self):
        text = "\n".join(
            [
                "import time: self [us] | cumulative | imported package",
                "import time:       100 |        100 |     numpy.core",
                "import time:       200 |        300 |   numpy",
                "import time:        50 |         50 |       scipy._lib",
                "import time:        70 |        120 |     scipy",
                "import time:        30 |        150 |   scipy.integrate",
                "import time:        10 |        460 | shrinker_lab",
            ]
        )
        got = run.parse_importtime(text)
        self.assertAlmostEqual(got["import.numpy_s"], 300e-6)
        self.assertAlmostEqual(got["import.scipy_s"], 150e-6)
        self.assertAlmostEqual(got["import.shrinker_lab_s"], 460e-6)


class KoszulTest(unittest.TestCase):
    def test_counts_at_the_seed(self):
        self.assertEqual(child.koszul_kernel_count(3, 2, 8), 120)
        self.assertEqual(child.koszul_kernel_count(4, 2, 4), 125)
        self.assertEqual(child.koszul_kernel_count(2, 2, 5), 0)


if __name__ == "__main__":
    unittest.main()
