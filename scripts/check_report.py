#!/usr/bin/env python3
"""Validate a clocksense telemetry run report (the --report JSON).

Generic gate for the CI bench-smoke job: every experiment binary must
emit a well-formed report, whatever its numbers are. Bench-specific
counter identities (retry, checkpoint, lane and chaos accounting, the
scenario floors) are asserted by the binaries themselves at the end of
each run, so a report only exists if they held. Checks:

  * top-level shape: schema / meta / counters / timers / histograms;
  * schema string is the known version;
  * every counter is a non-negative integer, every timer/histogram
    statistic a finite number (no NaN / Infinity smuggled through);
  * histogram invariants: one bucket more than bounds, count equals the
    bucket sum;
  * optionally (--bench) the meta block names the expected binary and
    (--expect-counter, repeatable) specific counters were recorded;
  * optionally (--expect-zero PREFIX, repeatable) the run never touched
    the machinery behind a counter scope: no counter whose name starts
    with PREFIX recorded a nonzero value. The rescue.*, campaign.*,
    batch.* and checkpoint.* scopes materialise lazily, so a run that
    stays off the rescue ladder, the retry queue, the batched kernel or
    the checkpoint journal normally has none of them at all;
  * optionally (--min-counter NAME:VALUE, repeatable) a named counter
    is present and at least VALUE — e.g. the archived mesh_array run
    must keep mesh_array.grid_nodes_total >= 1000;
  * optionally (--perf-baseline FILE) a perf-regression comparison
    against an archived baseline report of the same bench and mode:
    every counter recorded >= 10 in both runs must agree within
    --perf-tolerance (default 3x, both directions — step counts are
    near-deterministic, so a blowup either way means the algorithm
    changed), and every timer's total within --perf-timer-tolerance
    (default 10x, one-sided — wall clock varies across machines, the
    gate only catches order-of-magnitude regressions).

Exits 0 on success, 1 with a message naming the first violation.
"""

import argparse
import json
import math
import sys

SCHEMA = "clocksense-telemetry/v1"


def fail(msg: str) -> None:
    sys.exit(f"check_report: FAIL: {msg}")


def check_finite(value, where: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{where}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        fail(f"{where}: non-finite value {value!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="path to the --report JSON file")
    parser.add_argument("--bench", help="expected meta.bench name")
    parser.add_argument(
        "--expect-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="counter that must be present (repeatable)",
    )
    parser.add_argument(
        "--expect-zero",
        action="append",
        default=[],
        metavar="PREFIX",
        help="fail if any counter whose name starts with PREFIX is nonzero "
        "(repeatable)",
    )
    parser.add_argument(
        "--min-counter",
        action="append",
        default=[],
        metavar="NAME:VALUE",
        help="counter that must be present and >= VALUE (repeatable)",
    )
    parser.add_argument(
        "--perf-baseline",
        metavar="FILE",
        help="archived report of the same bench/mode to compare against",
    )
    parser.add_argument(
        "--perf-tolerance",
        type=float,
        default=3.0,
        help="allowed counter ratio vs the baseline (default 3.0, "
        "checked both directions)",
    )
    parser.add_argument(
        "--perf-timer-tolerance",
        type=float,
        default=10.0,
        help="allowed timer total ratio vs the baseline (default 10.0, "
        "slowdowns only)",
    )
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.report}: {e}")

    for key in ("schema", "meta", "counters", "timers", "histograms"):
        if key not in report:
            fail(f"missing top-level key {key!r}")
    if report["schema"] != SCHEMA:
        fail(f"schema {report['schema']!r}, expected {SCHEMA!r}")
    if args.bench is not None and report["meta"].get("bench") != args.bench:
        fail(f"meta.bench {report['meta'].get('bench')!r}, expected {args.bench!r}")

    for name, value in report["counters"].items():
        where = f"counters[{name!r}]"
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{where}: expected an integer, got {value!r}")
        if value < 0:
            fail(f"{where}: negative count {value}")

    for name, value in report["timers"].items():
        stats = value if isinstance(value, dict) else {"value": value}
        for stat, v in stats.items():
            check_finite(v, f"timers[{name!r}].{stat}")

    for name, hist in report["histograms"].items():
        where = f"histograms[{name!r}]"
        for key in ("count", "sum", "bounds", "buckets"):
            if key not in hist:
                fail(f"{where}: missing {key!r}")
        for stat in ("count", "sum", "min", "max"):
            if stat in hist:
                check_finite(hist[stat], f"{where}.{stat}")
        bounds, buckets = hist["bounds"], hist["buckets"]
        if len(buckets) != len(bounds) + 1:
            fail(
                f"{where}: {len(buckets)} buckets for {len(bounds)} bounds "
                "(expected bounds + 1)"
            )
        for i, b in enumerate(buckets):
            check_finite(b, f"{where}.buckets[{i}]")
        if sum(buckets) != hist["count"]:
            fail(f"{where}: bucket sum {sum(buckets)} != count {hist['count']}")

    for name in args.expect_counter:
        if name not in report["counters"]:
            fail(f"expected counter {name!r} missing")

    for spec in args.min_counter:
        name, sep, minimum = spec.rpartition(":")
        if not sep or not minimum.lstrip("-").isdigit():
            fail(f"--min-counter {spec!r}: expected NAME:VALUE")
        if name not in report["counters"]:
            fail(f"expected counter {name!r} missing")
        if report["counters"][name] < int(minimum):
            fail(
                f"{name} = {report['counters'][name]}, expected >= {minimum}"
            )

    if args.perf_baseline is not None:
        try:
            with open(args.perf_baseline, encoding="utf-8") as f:
                baseline = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read baseline {args.perf_baseline}: {e}")
        for key in ("meta", "counters", "timers"):
            if key not in baseline:
                fail(f"baseline missing top-level key {key!r}")
        for key in ("bench", "fast_mode"):
            ours, theirs = report["meta"].get(key), baseline["meta"].get(key)
            if ours != theirs:
                fail(
                    f"baseline meta.{key} {theirs!r} != report's {ours!r}: "
                    "perf comparison needs the same bench and mode"
                )
        # Counters are near-deterministic work metrics (steps, solves,
        # refactorisations): a big move in either direction means the
        # algorithm changed, not the machine. Tiny counts are noise.
        floor = 10
        for name, base_value in sorted(baseline["counters"].items()):
            current = report["counters"].get(name)
            if current is None or base_value < floor or current < floor:
                continue
            ratio = current / base_value
            if ratio > args.perf_tolerance or ratio < 1.0 / args.perf_tolerance:
                fail(
                    f"perf regression on counter {name!r}: {current} vs "
                    f"baseline {base_value} (ratio {ratio:.2f}, tolerance "
                    f"{args.perf_tolerance:g}x)"
                )
        # Timers do vary across machines; only order-of-magnitude
        # slowdowns fail.
        for name, base_timer in sorted(baseline["timers"].items()):
            current = report["timers"].get(name)
            if not isinstance(base_timer, dict) or not isinstance(current, dict):
                continue
            base_nanos = base_timer.get("total_nanos", 0)
            cur_nanos = current.get("total_nanos", 0)
            if base_nanos <= 0 or cur_nanos <= 0:
                continue
            ratio = cur_nanos / base_nanos
            if ratio > args.perf_timer_tolerance:
                fail(
                    f"perf regression on timer {name!r}: {cur_nanos} ns vs "
                    f"baseline {base_nanos} ns (ratio {ratio:.2f}, tolerance "
                    f"{args.perf_timer_tolerance:g}x)"
                )

    for prefix in args.expect_zero:
        for name, value in report["counters"].items():
            if name.startswith(prefix) and value != 0:
                fail(
                    f"run recorded {name} = {value}: the machinery behind "
                    f"{prefix}* must stay idle on this run"
                )

    print(
        f"check_report: OK: {args.report} "
        f"({len(report['counters'])} counters, "
        f"{len(report['histograms'])} histograms)"
    )


if __name__ == "__main__":
    main()
