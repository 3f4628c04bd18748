#!/usr/bin/env python3
"""Validate a clocksense telemetry run report (the --report JSON).

Structural gate for the CI bench-smoke job: every experiment binary must
emit a well-formed report, whatever its numbers are. Checks:

  * top-level shape: schema / meta / counters / timers / histograms;
  * schema string is the known version;
  * every counter is a non-negative integer, every timer/histogram
    statistic a finite number (no NaN / Infinity smuggled through);
  * histogram invariants: one bucket more than bounds, count equals the
    bucket sum;
  * optionally (--bench) the meta block names the expected binary and
    (--expect-counter, repeatable) specific counters were recorded;
  * optionally (--tran-adaptive) the adaptive-timestep scope is coherent:
    all six tran.* counters present, at least one step accepted, and the
    rejected/accepted ratio below a sanity bound (a controller rejecting
    more steps than it accepts is thrashing, not adapting);
  * optionally (--rescue) the retry/quarantine accounting is coherent:
    the campaign.retry_* counters are present, the quarantine never
    exceeds the scheduled retries, and every scheduled retry is either
    recovered or quarantined;
  * optionally (--expect-zero PREFIX, repeatable) the run never touched
    the machinery behind a counter scope: no counter whose name starts
    with PREFIX recorded a nonzero value. The rescue.*, campaign.*,
    batch.* and checkpoint.* scopes materialise lazily, so a run that
    stays off the rescue ladder, the retry queue, the batched kernel or
    the checkpoint journal normally has none of them at all;
  * optionally (--lanes) the lane-block accounting of the SoA kernel is
    coherent: blocks were packed and factor sweeps ran, every scheduled
    lane slot is accounted for exactly once
    (active + parked + padding == scheduled), and at least half the
    scheduled slots carried live variants (an occupancy floor — a
    kernel marching mostly padding or parked lanes is vectorising
    garbage);
  * optionally (--checkpoint) the checkpoint journal accounting is
    coherent: all five checkpoint.* counters are present, every item is
    either a memo hit or a miss (hits + misses == items_total), every
    hit came from a replayed journal record (records_replayed == hits),
    every miss wrote exactly one final record (records_written ==
    misses), and the run actually exercised the memo cache (hits >= 1);
  * optionally (--scenarios) the scenario-workload accounting of the
    generated-deck benches is coherent, dispatched on meta.bench:
    mesh_array must have built decks, attached sensors, classified
    verdicts through the batched kernel and read zero errors on the
    healthy variants; two_phase_gen must have located flip points with
    zero generator-margin violations; dirty_stimulus must have landed
    every rendered dirty edge on the transient grid
    (edges_on_grid == edges_total) and detected at least one cycle;
  * optionally (--chaos) the chaos-injection accounting is coherent:
    every planned injection either fired or was suppressed
    (chaos.injections_planned == fired + suppressed), at least one
    schedule ran (chaos_torture.schedules_total >= 1), and every
    durability invariant held — zero lost or duplicated verdicts, zero
    silent verdict flips, zero non-byte-identical resumes, zero
    cross-lane contaminations (structured degradations are fine; a
    chaos run that loses a verdict or flips one silently is not);
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

TRAN_COUNTERS = (
    "tran.steps_accepted",
    "tran.steps_rejected",
    "tran.lte_step_shrinks",
    "tran.lte_step_growths",
    "tran.breakpoint_clamps",
    "tran.predictor_newton_iters_saved",
)


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
        "--tran-adaptive",
        action="store_true",
        help="require a coherent adaptive-timestep (tran.*) counter scope",
    )
    parser.add_argument(
        "--rescue",
        action="store_true",
        help="require coherent campaign retry/quarantine accounting",
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
        "--lanes",
        action="store_true",
        help="require coherent SoA lane-block occupancy accounting",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="require coherent checkpoint journal/memo-cache accounting",
    )
    parser.add_argument(
        "--scenarios",
        action="store_true",
        help="require coherent scenario-workload accounting (dispatched "
        "on meta.bench: mesh_array, two_phase_gen or dirty_stimulus)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="require coherent chaos-injection accounting and zero "
        "durability violations",
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

    if args.tran_adaptive:
        counters = report["counters"]
        for name in TRAN_COUNTERS:
            if name not in counters:
                fail(f"adaptive-timestep counter {name!r} missing")
        accepted = counters["tran.steps_accepted"]
        rejected = counters["tran.steps_rejected"]
        if accepted < 1:
            fail("tran.steps_accepted must be >= 1 for an adaptive run")
        # Non-negativity is already checked above; here we bound the
        # controller's thrash: more than 2 rejections per accepted step
        # means the step sizing is not converging.
        if rejected > 2 * accepted:
            fail(
                f"tran.steps_rejected ({rejected}) exceeds twice "
                f"tran.steps_accepted ({accepted}): controller is thrashing"
            )

    if args.rescue:
        counters = report["counters"]
        for name in (
            "campaign.retry_scheduled",
            "campaign.retry_recovered",
            "campaign.quarantined",
        ):
            if name not in counters:
                fail(f"rescue-gate counter {name!r} missing")
        scheduled = counters["campaign.retry_scheduled"]
        recovered = counters["campaign.retry_recovered"]
        quarantined = counters["campaign.quarantined"]
        if quarantined > scheduled:
            fail(
                f"campaign.quarantined ({quarantined}) exceeds "
                f"campaign.retry_scheduled ({scheduled})"
            )
        if recovered + quarantined != scheduled:
            fail(
                f"retry accounting leaks: recovered ({recovered}) + "
                f"quarantined ({quarantined}) != scheduled ({scheduled})"
            )

    if args.lanes:
        counters = report["counters"]
        for name in (
            "batch.lane_blocks",
            "batch.lane_factor_sweeps",
            "batch.lane_slots_scheduled",
            "batch.lane_slots_active",
            "batch.lane_slots_parked",
            "batch.lane_slots_padding",
        ):
            if name not in counters:
                fail(f"lane-gate counter {name!r} missing")
        if counters["batch.lane_blocks"] < 1:
            fail("batch.lane_blocks must be >= 1: no lane blocks were packed")
        if counters["batch.lane_factor_sweeps"] < 1:
            fail(
                "batch.lane_factor_sweeps must be >= 1: the lane kernel "
                "never swept a factorisation"
            )
        scheduled = counters["batch.lane_slots_scheduled"]
        active = counters["batch.lane_slots_active"]
        parked = counters["batch.lane_slots_parked"]
        padding = counters["batch.lane_slots_padding"]
        if active + parked + padding != scheduled:
            fail(
                f"lane accounting leaks: active ({active}) + parked "
                f"({parked}) + padding ({padding}) != scheduled ({scheduled})"
            )
        if 2 * active < scheduled:
            fail(
                f"lane occupancy {active}/{scheduled}: more than half the "
                "scheduled lane slots were padding or parked"
            )

    if args.checkpoint:
        counters = report["counters"]
        for name in (
            "checkpoint.items_total",
            "checkpoint.memo_hits",
            "checkpoint.memo_misses",
            "checkpoint.records_replayed",
            "checkpoint.records_written",
        ):
            if name not in counters:
                fail(f"checkpoint-gate counter {name!r} missing")
        total = counters["checkpoint.items_total"]
        hits = counters["checkpoint.memo_hits"]
        misses = counters["checkpoint.memo_misses"]
        replayed = counters["checkpoint.records_replayed"]
        written = counters["checkpoint.records_written"]
        if hits + misses != total:
            fail(
                f"checkpoint accounting leaks: memo_hits ({hits}) + "
                f"memo_misses ({misses}) != items_total ({total})"
            )
        if replayed != hits:
            fail(
                f"checkpoint.records_replayed ({replayed}) != "
                f"checkpoint.memo_hits ({hits}): a hit that replayed "
                "nothing, or a replay that hit nothing"
            )
        if written != misses:
            fail(
                f"checkpoint.records_written ({written}) != "
                f"checkpoint.memo_misses ({misses}): every miss must "
                "journal exactly one final record"
            )
        if hits < 1:
            fail("checkpoint.memo_hits must be >= 1: the memo cache never hit")

    if args.scenarios:
        counters = report["counters"]
        bench = report["meta"].get("bench")

        def need(name: str, minimum: int = 1) -> int:
            if name not in counters:
                fail(f"scenario counter {name!r} missing")
            if counters[name] < minimum:
                fail(f"{name} = {counters[name]}, expected >= {minimum}")
            return counters[name]

        if bench == "mesh_array":
            need("mesh_array.decks_built")
            need("mesh_array.grid_nodes_total")
            need("mesh_array.sensors_attached")
            need("mesh_array.verdicts_total")
            # The decks must have gone through the batched kernel, not
            # the scalar fallback.
            need("batch.batches_run")
            need("batch.variants_batched", 2)
            errors = need("mesh_array.healthy_errors", 0)
            if errors != 0:
                fail(
                    f"mesh_array.healthy_errors = {errors}: a symmetric "
                    "deck flagged skew on a healthy variant"
                )
        elif bench == "two_phase_gen":
            need("two_phase_gen.margin_checks")
            need("two_phase_gen.sims_total")
            need("two_phase_gen.flip_points_located", 2)
            violations = need("two_phase_gen.margin_violations", 0)
            if violations != 0:
                fail(
                    f"two_phase_gen.margin_violations = {violations}: "
                    "the generator's measured gap left its closed form"
                )
        elif bench == "dirty_stimulus":
            edges = need("dirty_stimulus.edges_total")
            on_grid = need("dirty_stimulus.edges_on_grid", 0)
            if on_grid != edges:
                fail(
                    f"dirty_stimulus.edges_on_grid ({on_grid}) != "
                    f"edges_total ({edges}): a rendered edge missed the "
                    "transient breakpoint grid"
                )
            need("dirty_stimulus.sims_total")
            need("dirty_stimulus.cycles_total")
            need("dirty_stimulus.cycles_detected")
        else:
            fail(f"--scenarios: unknown scenario bench {bench!r}")

    if args.chaos:
        counters = report["counters"]
        for name in (
            "chaos.injections_planned",
            "chaos.injections_fired",
            "chaos.injections_suppressed",
            "chaos_torture.schedules_total",
            "chaos_torture.verdicts_lost",
            "chaos_torture.verdicts_duplicated",
            "chaos_torture.verdict_flips",
            "chaos_torture.resume_mismatches",
            "chaos_torture.lane_contaminations",
        ):
            if name not in counters:
                fail(f"chaos-gate counter {name!r} missing")
        planned = counters["chaos.injections_planned"]
        fired = counters["chaos.injections_fired"]
        suppressed = counters["chaos.injections_suppressed"]
        if fired + suppressed != planned:
            fail(
                f"chaos accounting leaks: injections_fired ({fired}) + "
                f"injections_suppressed ({suppressed}) != "
                f"injections_planned ({planned})"
            )
        if counters["chaos_torture.schedules_total"] < 1:
            fail("chaos_torture.schedules_total must be >= 1: no schedules ran")
        for name in (
            "chaos_torture.verdicts_lost",
            "chaos_torture.verdicts_duplicated",
            "chaos_torture.verdict_flips",
            "chaos_torture.resume_mismatches",
            "chaos_torture.lane_contaminations",
        ):
            value = counters[name]
            if value != 0:
                fail(
                    f"{name} = {value}: a durability contract broke "
                    "under chaos"
                )

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
