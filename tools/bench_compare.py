#!/usr/bin/env python3
"""Compare benchmark JSON records against a committed baseline.

Usage:
    tools/bench_compare.py BASELINE CURRENT [--threshold 0.10]

Both files may be either:
  * dnsctx bench records — one JSON object per line, as written by the
    ``--json PATH`` flag of bench_table1 / bench_stream etc., or
  * a google-benchmark ``--benchmark_out`` file (single JSON object with
    a ``benchmarks`` array) — bench_micro's native output.

Records are matched by a scenario key; for each metric of a matched
baseline record the relative change is printed, and the script exits 1
when any LOWER-IS-BETTER metric regresses by more than ``--threshold``
(default 10%), or when a metric of the baseline record is missing or
non-numeric in the current one: a metric that vanished would otherwise
leave the gate silently. Metrics only the current record has are
printed and pass, as do records only one side has, so baselines survive
adding new benches and new metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Lower-is-better metrics compared per record, by bench kind. Dotted
# names ("metrics.x") descend one level into a nested object — the
# internal observability scrape embedded by ``--metrics`` — so the gate
# also covers work counters (how much the run did), not just wall time.
# Nested metrics absent from a baseline are skipped, never fatal, so
# baselines recorded before the metrics scrape existed keep working; a
# metric the baseline has must be in the current record.
WATCHED_METRICS = {
    "Table 1": [
        "study_sec",
        "enc_classify_sec",
        "peak_rss_bytes",
        "metrics.pairing_candidates_scanned_total",
        "metrics.sim_event_queue_peak",
    ],
    "bench_stream": [
        "stream_sec",
        "stream_peak_rss_bytes",
        "spool_bytes",
        "metrics.stream_reorder_buffered_peak",
    ],
    # City-scale streaming bench: the contract is bounded memory, so the
    # gate watches peak RSS. Wall time is reported in the record but not
    # gated (city runs are long enough that host noise trips a 10% gate).
    "bench_city": ["peak_rss_bytes"],
    "micro": ["real_time_ns"],
}

# Higher-is-better metrics: the gate fires when the CURRENT value falls
# more than ``--threshold`` below the baseline (a throughput floor).
# bench_serve's records/sec is the serving contract — /results must keep
# up with a live producer — so it is gated like a latency metric, just
# with the sign flipped. Loopback ack latency is reported in the record
# but not gated (scheduler noise on shared CI runners dwarfs 10%).
HIGHER_IS_BETTER_METRICS = {
    "bench_serve": ["records_per_sec"],
    # Import throughput is the text → spool conversion rate; spool_bytes
    # (above) is gated lower-is-better so the v2 compression win can't
    # silently erode. stream_records_per_sec floors the replay itself.
    "bench_stream": ["stream_records_per_sec", "import_records_per_sec"],
}


def lookup(rec, name):
    """rec[name], or rec[head][tail] for a dotted name (first dot only)."""
    if "." in name:
        head, tail = name.split(".", 1)
        sub = rec.get(head)
        return sub.get(tail) if isinstance(sub, dict) else None
    return rec.get(name)


def as_float(value) -> float | None:
    """float(value), or None when the field is absent or non-numeric.

    Baselines committed by older (or newer) bench binaries may lack a
    metric or carry a placeholder string; such a baseline metric is
    skipped, never a crash. The same gap in a current record fails the
    comparison in main().
    """
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def load_records(path: Path) -> dict[str, dict[str, float]]:
    """Parse a bench file into {record_key: {metric: value}}."""
    text = path.read_text()
    records: dict[str, dict[str, float]] = {}

    def add(key: str, metrics: dict[str, float]) -> None:
        # Last record wins when a file accumulated several runs of the
        # same scenario (the --json flag appends).
        records[key] = metrics

    stripped = text.lstrip()
    if stripped.startswith("{") and '"benchmarks"' in text:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict) and "benchmarks" in doc:
            unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
            for b in doc["benchmarks"]:
                if b.get("run_type", "iteration") != "iteration":
                    continue
                name = b.get("name")
                real_time = as_float(b.get("real_time"))
                unit = unit_ns.get(b.get("time_unit", "ns"))
                if name is None or real_time is None or unit is None:
                    continue  # incomplete entry: skip, don't crash
                add(f"micro/{name}", {"real_time_ns": real_time * unit})
            return records

    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}:{line_no}: not valid JSON: {e}")
        bench = rec.get("bench", "?")
        if bench == "micro":
            name = rec.get("name")
            real_time = as_float(rec.get("real_time_ns"))
            if name is None or real_time is None:
                continue  # incomplete entry: skip, don't crash
            key = f"micro/{name}"
            metrics = {"real_time_ns": real_time}
        else:
            # transport defaults to do53 and pack to "default" so older
            # baselines (recorded before those fields existed) keep their
            # keys; a `--transport dot` or `--pack iot_heavy` run is a
            # distinct scenario.
            key = ("{}/houses={} hours={} seed={} threads={} shards={} transport={} "
                   "pack={}").format(
                bench, rec.get("houses"), rec.get("hours"), rec.get("seed"),
                rec.get("threads", 1), rec.get("shards", 1),
                rec.get("transport", "do53"), rec.get("pack", "default"))
            metrics = {}
            watched = WATCHED_METRICS.get(bench, []) + HIGHER_IS_BETTER_METRICS.get(
                bench, [])
            for m in watched:
                value = as_float(lookup(rec, m))
                if value is not None:
                    metrics[m] = value
        add(key, metrics)
    return records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", type=Path)
    ap.add_argument("current", type=Path)
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed relative regression (default: 0.10 = 10%%)")
    args = ap.parse_args()

    base = load_records(args.baseline)
    curr = load_records(args.current)
    if not base:
        sys.exit(f"{args.baseline}: no benchmark records found")
    if not curr:
        sys.exit(f"{args.current}: no benchmark records found")

    regressions = []
    vanished = []
    print(f"{'record / metric':58} {'baseline':>14} {'current':>14} {'change':>9}")
    for key in sorted(base):
        if key not in curr:
            print(f"{key:58} {'(baseline only — skipped)':>38}")
            continue
        bench_kind = key.split("/", 1)[0]
        for metric, base_val in sorted(base[key].items()):
            curr_val = curr[key].get(metric)
            if curr_val is None:
                print(f"{key + ' ' + metric:58} {base_val:14.3f} {'(missing)':>14}"
                      f"  << VANISHED")
                vanished.append((key, metric))
                continue
            change = (curr_val - base_val) / base_val if base_val else 0.0
            higher_better = metric in HIGHER_IS_BETTER_METRICS.get(bench_kind, [])
            regressed = (change < -args.threshold if higher_better
                         else change > args.threshold)
            flag = ""
            if regressed:
                flag = "  << REGRESSION"
                regressions.append((key, metric, change))
            print(f"{key + ' ' + metric:58} {base_val:14.3f} {curr_val:14.3f} "
                  f"{change:+8.1%}{flag}")
    for key in sorted(set(curr) - set(base)):
        print(f"{key:58} {'(current only — skipped)':>38}")

    if vanished:
        print(f"\nFAIL: {len(vanished)} baseline metric(s) missing or non-numeric "
              f"in {args.current}:")
        for key, metric in vanished:
            print(f"  {key} {metric}")
    if regressions:
        print(f"\nFAIL: {len(regressions)} metric(s) regressed more than "
              f"{args.threshold:.0%}:")
        for key, metric, change in regressions:
            print(f"  {key} {metric}: {change:+.1%}")
    if vanished or regressions:
        return 1
    print(f"\nOK: no metric regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
