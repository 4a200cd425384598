#!/usr/bin/env python3
"""Unit tests for bench_compare.py — in particular that baseline
records with absent or non-numeric metric fields are skipped instead of
crashing (older baselines predate e.g. peak_rss_bytes), while a metric
the baseline has that is absent or non-numeric in the matched current
record fails the comparison."""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_compare  # noqa: E402


def write_lines(directory: Path, name: str, records) -> Path:
    path = directory / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class AsFloatTest(unittest.TestCase):
    def test_numeric(self):
        self.assertEqual(bench_compare.as_float(3), 3.0)
        self.assertEqual(bench_compare.as_float("2.5"), 2.5)

    def test_bad(self):
        self.assertIsNone(bench_compare.as_float(None))
        self.assertIsNone(bench_compare.as_float("n/a"))
        self.assertIsNone(bench_compare.as_float([1]))


class LoadRecordsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_missing_peak_rss_is_skipped_not_fatal(self):
        # A baseline written before peak_rss_bytes existed.
        path = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.5},
        ])
        records = bench_compare.load_records(path)
        (metrics,) = records.values()
        self.assertEqual(metrics, {"study_sec": 1.5})

    def test_bench_city_watches_rss_only(self):
        # bench_city gates peak RSS; wall time is reported but not a
        # watched metric (too noisy at city scale on shared runners).
        path = write_lines(self.dir, "base.json", [
            {"bench": "bench_city", "houses": 500, "hours": 1, "seed": 42,
             "shards": 1, "gen_sec": 3.9, "peak_rss_bytes": 150999040,
             "within_rss_bound": True},
        ])
        (metrics,) = bench_compare.load_records(path).values()
        self.assertEqual(metrics, {"peak_rss_bytes": 150999040.0})

    def test_non_numeric_metric_is_skipped(self):
        path = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": "n/a", "peak_rss_bytes": 1000},
        ])
        (metrics,) = bench_compare.load_records(path).values()
        self.assertEqual(metrics, {"peak_rss_bytes": 1000.0})

    def test_micro_line_missing_fields_is_skipped(self):
        path = write_lines(self.dir, "base.json", [
            {"bench": "micro", "name": "intern"},                 # no real_time_ns
            {"bench": "micro", "real_time_ns": 12.0},             # no name
            {"bench": "micro", "name": "ok", "real_time_ns": 7},  # complete
        ])
        records = bench_compare.load_records(path)
        self.assertEqual(records, {"micro/ok": {"real_time_ns": 7.0}})

    def test_gbench_incomplete_entries_are_skipped(self):
        path = self.dir / "gbench.json"
        path.write_text(json.dumps({"benchmarks": [
            {"name": "BM_a", "real_time": 5.0, "time_unit": "us"},
            {"name": "BM_b"},                                     # no real_time
            {"name": "BM_c", "real_time": 1.0, "time_unit": "parsecs"},
            {"real_time": 2.0},                                   # no name
        ]}))
        records = bench_compare.load_records(path)
        self.assertEqual(records, {"micro/BM_a": {"real_time_ns": 5000.0}})

    def test_nested_metrics_are_flattened(self):
        path = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.5,
             "metrics": {"pairing_candidates_scanned_total": 1234,
                         "sim_event_queue_peak": 56}},
        ])
        (metrics,) = bench_compare.load_records(path).values()
        self.assertEqual(metrics, {
            "study_sec": 1.5,
            "metrics.pairing_candidates_scanned_total": 1234.0,
            "metrics.sim_event_queue_peak": 56.0,
        })

    def test_baseline_without_metrics_object_is_skipped(self):
        # A baseline recorded before --metrics existed: the nested
        # lookups resolve to None and drop out, no crash.
        base = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0},
        ])
        curr = write_lines(self.dir, "curr.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0,
             "metrics": {"pairing_candidates_scanned_total": 999}},
        ])
        argv = sys.argv
        sys.argv = ["bench_compare.py", str(base), str(curr)]
        try:
            self.assertEqual(bench_compare.main(), 0)
        finally:
            sys.argv = argv

    def test_nested_metric_regression_detected(self):
        base = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "metrics": {"sim_event_queue_peak": 100}},
        ])
        curr = write_lines(self.dir, "curr.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "metrics": {"sim_event_queue_peak": 250}},
        ])
        argv = sys.argv
        sys.argv = ["bench_compare.py", str(base), str(curr)]
        try:
            self.assertEqual(bench_compare.main(), 1)
        finally:
            sys.argv = argv

    def test_lookup_splits_on_first_dot_only(self):
        rec = {"metrics": {"a.b": 7}, "plain": 1}
        self.assertEqual(bench_compare.lookup(rec, "metrics.a.b"), 7)
        self.assertEqual(bench_compare.lookup(rec, "plain"), 1)
        self.assertIsNone(bench_compare.lookup(rec, "metrics.missing"))
        self.assertIsNone(bench_compare.lookup(rec, "plain.sub"))

    def _run_main(self, base, curr):
        argv = sys.argv
        sys.argv = ["bench_compare.py", str(base), str(curr)]
        try:
            return bench_compare.main()
        finally:
            sys.argv = argv

    def test_serve_throughput_floor_regression_detected(self):
        # records_per_sec is higher-is-better: a drop beyond the
        # threshold fails, a rise never does.
        base = write_lines(self.dir, "base.json", [
            {"bench": "bench_serve", "houses": 40, "hours": 4, "seed": 42,
             "records_per_sec": 500000, "ack_p99_us": 700},
        ])
        slower = write_lines(self.dir, "slower.json", [
            {"bench": "bench_serve", "houses": 40, "hours": 4, "seed": 42,
             "records_per_sec": 300000, "ack_p99_us": 700},
        ])
        faster = write_lines(self.dir, "faster.json", [
            {"bench": "bench_serve", "houses": 40, "hours": 4, "seed": 42,
             "records_per_sec": 900000, "ack_p99_us": 9000},
        ])
        self.assertEqual(self._run_main(base, slower), 1)
        # Faster throughput passes even with worse (ungated) latency.
        self.assertEqual(self._run_main(base, faster), 0)

    def test_stream_spool_growth_and_import_floor_gated(self):
        # spool_bytes is lower-is-better (compression must not erode);
        # import_records_per_sec is a higher-is-better throughput floor.
        base = write_lines(self.dir, "base.json", [
            {"bench": "bench_stream", "houses": 40, "hours": 6, "seed": 42,
             "shards": 1, "spool_bytes": 10_000_000,
             "stream_records_per_sec": 1_200_000,
             "import_records_per_sec": 400_000},
        ])
        bloated = write_lines(self.dir, "bloated.json", [
            {"bench": "bench_stream", "houses": 40, "hours": 6, "seed": 42,
             "shards": 1, "spool_bytes": 40_000_000,
             "stream_records_per_sec": 1_200_000,
             "import_records_per_sec": 400_000},
        ])
        slow_import = write_lines(self.dir, "slow_import.json", [
            {"bench": "bench_stream", "houses": 40, "hours": 6, "seed": 42,
             "shards": 1, "spool_bytes": 10_000_000,
             "stream_records_per_sec": 1_200_000,
             "import_records_per_sec": 100_000},
        ])
        better = write_lines(self.dir, "better.json", [
            {"bench": "bench_stream", "houses": 40, "hours": 6, "seed": 42,
             "shards": 1, "spool_bytes": 2_000_000,
             "stream_records_per_sec": 2_000_000,
             "import_records_per_sec": 900_000},
        ])
        self.assertEqual(self._run_main(base, bloated), 1)
        self.assertEqual(self._run_main(base, slow_import), 1)
        self.assertEqual(self._run_main(base, better), 0)

    def test_transport_is_part_of_the_record_key(self):
        # A do53 record and a dot record of the same scale are distinct
        # scenarios; records without the field key as do53 so old
        # baselines still match new do53 runs.
        path = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0},
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "transport": "dot", "study_sec": 1.4, "enc_classify_sec": 0.2},
        ])
        records = bench_compare.load_records(path)
        self.assertEqual(len(records), 2)
        keys = sorted(records)
        self.assertIn("transport=do53", keys[0])
        self.assertIn("transport=dot", keys[1])
        self.assertEqual(records[keys[1]],
                         {"study_sec": 1.4, "enc_classify_sec": 0.2})

    def test_pack_is_part_of_the_record_key(self):
        # A default run and a `--pack iot_heavy` run of the same scale are
        # distinct scenarios; records without the field key as "default"
        # so pre-pack baselines still match new default runs.
        path = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0},
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "pack": "iot_heavy", "study_sec": 2.1},
        ])
        records = bench_compare.load_records(path)
        self.assertEqual(len(records), 2)
        keys = sorted(records)
        self.assertTrue(keys[0].endswith("pack=default"))
        self.assertTrue(keys[1].endswith("pack=iot_heavy"))
        self.assertEqual(records[keys[1]], {"study_sec": 2.1})

    def test_pre_pack_baseline_matches_new_default_run(self):
        base = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0},
        ])
        curr = write_lines(self.dir, "curr.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "pack": "default", "study_sec": 1.0},
        ])
        self.assertEqual(self._run_main(base, curr), 0)
        # ...and a regression in the default pack is still caught.
        worse = write_lines(self.dir, "worse.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "pack": "default", "study_sec": 5.0},
        ])
        self.assertEqual(self._run_main(base, worse), 1)

    def test_metric_vanished_from_current_fails(self):
        # Each current record lacks one watched metric of the baseline,
        # or carries it as a non-numeric placeholder: the run fails and
        # names the record and the metric.
        base = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0, "peak_rss_bytes": 1000,
             "metrics": {"pairing_candidates_scanned_total": 50}},
        ])
        full = {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
                "study_sec": 1.0, "peak_rss_bytes": 1000,
                "metrics": {"pairing_candidates_scanned_total": 50}}
        self.assertEqual(self._run_main(base, write_lines(self.dir, "full.json", [full])), 0)
        cases = {
            "study_sec": {k: v for k, v in full.items() if k != "study_sec"},
            "peak_rss_bytes": dict(full, peak_rss_bytes="n/a"),
            "metrics.pairing_candidates_scanned_total": dict(full, metrics={}),
        }
        for metric, record in cases.items():
            with self.subTest(metric=metric):
                curr = write_lines(self.dir, "curr.json", [record])
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    self.assertEqual(self._run_main(base, curr), 1)
                self.assertIn(f"Table 1/houses=4 hours=1 seed=42 threads=1 shards=1 "
                              f"transport=do53 pack=default {metric}", out.getvalue())
                self.assertIn("missing or non-numeric", out.getvalue())

    def test_record_only_in_baseline_is_still_skipped(self):
        # The rule is per metric of a matched record: a scenario the
        # current run did not record at all still passes.
        base = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0},
            {"bench": "bench_city", "houses": 500, "hours": 1, "seed": 42,
             "peak_rss_bytes": 1000},
        ])
        curr = write_lines(self.dir, "curr.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0},
        ])
        self.assertEqual(self._run_main(base, curr), 0)

    def test_enc_classify_regression_detected(self):
        base = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "transport": "dot", "enc_classify_sec": 0.10},
        ])
        curr = write_lines(self.dir, "curr.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "transport": "dot", "enc_classify_sec": 0.25},
        ])
        self.assertEqual(self._run_main(base, curr), 1)

    def test_compare_with_partial_baseline_passes(self):
        base = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0},
        ])
        curr = write_lines(self.dir, "curr.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0, "peak_rss_bytes": 123456},
        ])
        argv = sys.argv
        sys.argv = ["bench_compare.py", str(base), str(curr)]
        try:
            self.assertEqual(bench_compare.main(), 0)
        finally:
            sys.argv = argv

    def test_regression_still_detected(self):
        base = write_lines(self.dir, "base.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 1.0},
        ])
        curr = write_lines(self.dir, "curr.json", [
            {"bench": "Table 1", "houses": 4, "hours": 1, "seed": 42,
             "study_sec": 2.0},
        ])
        argv = sys.argv
        sys.argv = ["bench_compare.py", str(base), str(curr)]
        try:
            self.assertEqual(bench_compare.main(), 1)
        finally:
            sys.argv = argv


if __name__ == "__main__":
    unittest.main()
