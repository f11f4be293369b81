"""Self-test of the benchmark: python3 perfbench/selftest.py (from the root).

A tiny pass of each workload emits every metric named in BENCHMARK.json;
a flipped expected verdict shows up as a failure; the tracer survives
absent names and leaves values and exceptions untouched.
"""

import dataclasses
import sys
import time
import unittest
from unittest import mock

import workloads as wl

sys.path.insert(1, str(wl.SRC))

import expected as ex  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


class TinyPasses(unittest.TestCase):
    def check_metrics(self, metrics: dict) -> None:
        for value in metrics.values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_metric(self):
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                metrics, _, log = run.end_to_end(name, 5, 0.5, tiny=True)
                self.check_metrics(metrics)
                self.assertTrue(log.correct)
                self.assertEqual(log.failed, 0, log.failures)
                self.assertGreater(metrics["wall_s"]["value"], 0.0)
                metrics, details, log = run.per_layer(name, 5, 0.5, tiny=True)
                self.check_metrics(metrics)
                self.assertEqual(details["unmeasured"], [])
                self.assertEqual(log.failed, 0, log.failures)

    def test_end_to_end_installs_no_wrappers(self):
        run.end_to_end("certify", 1, 0.1, tiny=True)
        from mobius_bounds import delta_sign

        self.assertFalse(hasattr(delta_sign.eps_zeta, "__wrapped__"))


class FlippedVerdicts(unittest.TestCase):
    def test_flipped_scan_expectation_fails(self):
        w = wl.Scan(2, tiny=True)
        w.load()
        w.build()
        log = run.Log()
        ops = w.pass_ops()
        ops[0] = dataclasses.replace(ops[0], expect=ex.FAIL)
        for op in ops:
            log.execute(op)
        self.assertEqual(log.failed, 1)
        self.assertGreater(log.failed / log.attempted, 0.0)
        self.assertTrue(log.correct)

    def test_flipped_row_rule_fails(self):
        log = run.Log()
        with mock.patch.dict(ex.ROW_RULES, {("identity-printed", "euler_gamma"): ex.PASS}):
            for op in wl.Cli(2, tiny=True).pass_ops():
                log.execute(op)
        self.assertGreater(log.failed, 0)
        self.assertTrue(all("euler_gamma" in key for key in log.failures))


class ProbeSlowdown(unittest.TestCase):
    def test_samples_inside_then_around(self):
        p = probe.Probe({})
        p.at = [i * 0.1 for i in range(100)]  # 0.0 .. 9.9 s
        p.took = [probe.NOMINAL_S * (2.0 if t < 5.0 else 1.0) for t in p.at]
        self.assertAlmostEqual(p.slowdown(1.0, 4.0), 2.0)
        self.assertAlmostEqual(p.slowdown(6.0, 9.0), 1.0)
        # a 10 ms operation has no sample inside: the 2 s around it count
        self.assertAlmostEqual(p.slowdown(5.0, 5.01), 1.5, places=1)

    def test_probe_process_samples_and_stops(self):
        with probe.Probe(wl.child_env()) as p:
            time.sleep(0.5)
        self.assertIsNotNone(p.proc.returncode)
        self.assertGreater(len(p.at), 3)
        self.assertEqual(len(p.at), len(p.took))


class TracerRobustness(unittest.TestCase):
    def test_absent_names_are_unmeasured(self):
        tr = Tracer()
        tr.install((("arith", "no_such_helper", "arith.x", ()),
                    ("no_such_module", "f", "y", ()),
                    ("bounds", "NO_SUCH[*]", "z", ())))
        tr.uninstall()
        self.assertEqual(tr.unmeasured,
                         ["arith.no_such_helper", "no_such_module.f", "bounds.NO_SUCH[*]"])

    def test_values_and_exceptions_pass_through(self):
        tr = Tracer()
        marker = object()
        self.assertIs(tr.span("a", lambda: marker), marker)
        err = KeyError("k")

        def boom():
            raise err

        with self.assertRaises(KeyError) as caught:
            tr.span("a", boom)
        self.assertIs(caught.exception, err)
        self.assertEqual(tr.calls["a"], 2)

    def test_self_time_excludes_children(self):
        tr = Tracer()
        inner = tr.wrap("inner", lambda: sum(range(200_000)))
        tr.span("outer", inner)
        self.assertAlmostEqual(tr.self_time["outer"] + tr.time["inner"], tr.time["outer"])
        self.assertLess(tr.self_time["outer"], tr.time["inner"])


if __name__ == "__main__":
    unittest.main()
