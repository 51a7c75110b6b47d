#!/usr/bin/env python3
"""Gate the compile-perf benchmark against the checked-in baseline.

Reads a BENCH_compile_perf.json produced by bench/compile_perf and
fails (exit 1) when any of the following hold:

  * the run covered a different number of loops than the baseline
    (the counters are suite totals, so a subsampled run cannot be
    compared);
  * any deterministic work counter (attempts, assign_retries,
    evictions, copies, mrt_word_scans, ctx_hits, ctx_misses, and the
    race pass's exact_probes, exact_conflicts, exact_decisions,
    exact_propagations) differs from the baseline. The counters depend
    on the code alone, not on the runner, so they must match exactly:
    a higher count is a regression, and a lower one is an improvement
    that has to ratchet the baseline in the same change;
  * the mean wall time per loop exceeds twice the baseline's. Wall
    time is otherwise only printed, as a trend: runner speed varies
    too much for a tighter bound.

Unreadable, malformed or incomplete input exits 2 with a one-line
error.

Usage:
  tools/check_compile_perf.py BENCH_compile_perf.json \
      [--baseline bench/baselines/compile_perf_baseline.json]
"""

import argparse
import json
import sys

COUNTERS = (
    "attempts", "assign_retries", "evictions", "copies",
    "mrt_word_scans", "ctx_hits", "ctx_misses", "exact_probes",
    "exact_conflicts", "exact_decisions", "exact_propagations",
)
WALL_KEYS = ("mean_ns_per_loop", "p50_ns", "p90_ns")
# Fail only when the mean wall time per loop passes this multiple of
# the baseline's.
MAX_WALL_RATIO = 2.0


def die(message: str):
    """Input errors exit 2, so they never pass for a gate verdict."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str, what: str) -> dict:
    """Loads one input file, translating every failure mode into a
    clear one-line error instead of a traceback."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as err:
        die(f"cannot read {what} '{path}': {err.strerror}")
    except json.JSONDecodeError as err:
        die(f"{what} '{path}' is not valid JSON: {err}")
    if not isinstance(data, dict):
        die(
            f"{what} '{path}' must be a JSON object, "
            f"got {type(data).__name__}"
        )
    return data


def require_number(data: dict, key: str, path: str, what: str) -> float:
    value = data.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        die(
            f"{what} '{path}' is missing numeric field "
            f"'{key}' (found {value!r}); was it produced by "
            "bench/compile_perf?"
        )
    return value


def require_counters(data: dict, path: str, what: str) -> dict:
    counters = data.get("counters")
    if not isinstance(counters, dict):
        die(
            f"{what} '{path}' has no 'counters' object; was it "
            "produced by bench/compile_perf?"
        )
    for key in COUNTERS:
        value = counters.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            die(
                f"{what} '{path}' counter '{key}' is not an "
                f"integer (found {value!r})"
            )
    return counters


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="BENCH_compile_perf.json to check")
    parser.add_argument(
        "--baseline",
        default="bench/baselines/compile_perf_baseline.json",
        help="checked-in baseline JSON",
    )
    args = parser.parse_args()

    bench = load_json(args.bench, "bench JSON")
    baseline = load_json(args.baseline, "baseline JSON")
    counters = require_counters(bench, args.bench, "bench JSON")
    base_counters = require_counters(baseline, args.baseline,
                                     "baseline JSON")
    loops = require_number(bench, "loops", args.bench, "bench JSON")
    base_loops = require_number(baseline, "loops", args.baseline,
                                "baseline JSON")
    wall = {k: require_number(bench, k, args.bench, "bench JSON")
            for k in WALL_KEYS}
    base_wall = {k: require_number(baseline, k, args.baseline,
                                   "baseline JSON")
                 for k in WALL_KEYS}

    failures = []
    if loops != base_loops:
        failures.append(
            f"run covers {loops} loops, baseline {base_loops}: "
            "counters are suite totals, run the full suite"
        )
    else:
        for key in COUNTERS:
            now, then = counters[key], base_counters[key]
            if now > then:
                failures.append(f"{key} rose from {then} to {now}")
            elif now < then:
                failures.append(
                    f"{key} fell from {then} to {now}: ratchet "
                    f"{args.baseline} in the same change"
                )

    print(f"compile perf: {loops} loops, counters "
          + ", ".join(f"{k} {counters[k]}" for k in COUNTERS))
    print("wall time trend (run / baseline): "
          + ", ".join(
              f"{k} {wall[k]:.0f} / {base_wall[k]:.0f}"
              for k in WALL_KEYS))
    bound = base_wall["mean_ns_per_loop"] * MAX_WALL_RATIO
    if wall["mean_ns_per_loop"] > bound:
        failures.append(
            f"mean_ns_per_loop {wall['mean_ns_per_loop']:.0f} exceeds "
            f"{MAX_WALL_RATIO:g}x the baseline (bound {bound:.0f})"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("compile perf gate: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
