"""Unit tests of run.py's metric-name and result validation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import unittest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def result_for(workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    units = run.declared_metrics(BENCHMARK, kind)
    names = run.WORKLOAD_LAYERS[workload] if trace else run.END_TO_END
    return {name: {"value": 1.5, "unit": units[name]} for name in names}


class DeclarationTest(unittest.TestCase):
    def test_committed_benchmark_is_consistent(self):
        self.assertEqual(run.check_declarations(BENCHMARK), [])

    def test_undeclared_workload_metric_is_reported(self):
        bench = copy.deepcopy(BENCHMARK)
        bench["end_to_end"] = [m for m in bench["end_to_end"]
                               if m["name"] != "headline_s"]
        problems = run.check_declarations(bench)
        self.assertTrue(any("headline_s is not declared" in p
                            for p in problems), problems)

    def test_declared_metric_nobody_reports_is_reported(self):
        bench = copy.deepcopy(BENCHMARK)
        bench["per_layer"].append(
            {"name": "orphan.count", "unit": "count", "better": "lower"})
        problems = run.check_declarations(bench)
        self.assertTrue(any("orphan.count" in p for p in problems), problems)

    def test_name_and_unit_rules(self):
        for good in ["setup_s", "stream.tick_s.early", "a-b", "9lives"]:
            self.assertTrue(run.NAME_RE.match(good), good)
        for bad in ["", "_lead", ".dot", "has space", "x" * 65, "slash/no"]:
            self.assertFalse(run.NAME_RE.match(bad), bad)
        for good in ["ms", "1/s", "count", "%", "MiB"]:
            self.assertTrue(run.UNIT_RE.match(good), good)
        for bad in ["", "a b", "x" * 17]:
            self.assertFalse(run.UNIT_RE.match(bad), bad)

    def test_bad_declared_name_is_reported(self):
        bench = copy.deepcopy(BENCHMARK)
        bench["per_layer"].append(
            {"name": "bad name", "unit": "count", "better": "lower"})
        problems = run.check_declarations(bench)
        self.assertTrue(any("bad metric name" in p for p in problems))


class ResultTest(unittest.TestCase):
    def test_complete_results_pass(self):
        for workload in run.WORKLOAD_LAYERS:
            for trace in (0, 1):
                self.assertEqual(
                    run.check_metrics(BENCHMARK, workload, trace,
                                      result_for(workload, trace)), [],
                    (workload, trace))

    def test_missing_and_extra_metrics_fail(self):
        metrics = result_for("annotate-read", 0)
        del metrics["peak_rss_mb"]
        metrics["pipeline_s"] = {"value": 1.0, "unit": "s"}
        problems = run.check_metrics(BENCHMARK, "annotate-read", 0, metrics)
        self.assertEqual(len(problems), 1)
        self.assertIn("peak_rss_mb", problems[0])
        self.assertIn("pipeline_s", problems[0])

    def test_traced_result_gains_bypassed_layers_as_zero(self):
        # A traced run's driver output holds only the workload's own
        # layers; run.py then adds every other declared one as 0.
        per_layer = run.declared_metrics(BENCHMARK, "per_layer")
        for workload in run.WORKLOAD_LAYERS:
            metrics = result_for(workload, 1)
            run.add_bypassed_layers(BENCHMARK, metrics)
            self.assertEqual(sorted(metrics), sorted(per_layer), workload)
            for name in run.WORKLOAD_LAYERS[workload]:
                self.assertEqual(metrics[name]["value"], 1.5)
            for name in set(per_layer) - set(run.WORKLOAD_LAYERS[workload]):
                self.assertEqual(metrics[name],
                                 {"value": 0, "unit": per_layer[name]})

    def test_wrong_unit_and_non_numbers_fail(self):
        metrics = result_for("mine-batch", 0)
        metrics["setup_s"]["unit"] = "ms"
        metrics["headline_s"]["value"] = float("nan")
        metrics["peak_rss_mb"]["value"] = True
        problems = run.check_metrics(BENCHMARK, "mine-batch", 0, metrics)
        self.assertEqual(len(problems), 3, problems)

    def test_traced_run_reports_per_layer_metrics(self):
        problems = run.check_metrics(BENCHMARK, "ingest-mixed", 1,
                                     result_for("ingest-mixed", 0))
        self.assertTrue(problems)


if __name__ == "__main__":
    unittest.main()
