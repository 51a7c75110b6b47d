#!/usr/bin/env python3
"""Gate the exact-backend optimality audit (bench/optimality_gap).

Reads a BENCH_exact_gap.json and fails (exit 1) when any of the
following hold:

  * any machine reported an optimality violation -- a schedule that
    failed independent re-verification, a "tightened" result whose gap
    is not positive, or a heuristic schedule at an II the exact arm
    certified UNSAT. These are correctness bugs, never flakes, so the
    allowance is zero;
  * any gap is negative (the exact arm may never be worse than the
    heuristic it raced);
  * the overall timeout fraction exceeds --max-timeout-fraction: an
    audit that times out on most loops proves nothing, so bound how
    much of the suite the exact arm must actually decide.

Malformed or incomplete input fails with a one-line error and exit
status 2, so an input error never reads as a gate verdict.

Usage:
  tools/check_exact_gap.py BENCH_exact_gap.json \
      [--max-timeout-fraction 0.10]
"""

import argparse
import json
import sys


def die(message: str):
    """Input errors exit 2, so they never pass for a gate verdict."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str) -> dict:
    """Loads the audit file, translating every failure mode into a
    clear one-line error instead of a traceback."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as err:
        die(f"cannot read '{path}': {err.strerror}")
    except json.JSONDecodeError as err:
        die(f"'{path}' is not valid JSON: {err}")
    if not isinstance(data, dict):
        die(
            f"'{path}' must be a JSON object, got "
            f"{type(data).__name__}"
        )
    return data


def require(data: dict, key: str, kinds, where: str):
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, kinds):
        die(
            f"{where} is missing field '{key}' (found "
            f"{value!r}); was it produced by bench/optimality_gap?"
        )
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="BENCH_exact_gap.json to check")
    parser.add_argument(
        "--max-timeout-fraction",
        type=float,
        default=0.10,
        help="largest tolerated fraction of raced loops whose exact "
        "arm exhausted its budget (default 0.10)",
    )
    args = parser.parse_args()

    data = load_json(args.bench)
    if data.get("bench") != "exact_gap":
        die(
            f"'{args.bench}' has bench kind "
            f"{data.get('bench')!r}, expected 'exact_gap'"
        )
    require(data, "loops", int, args.bench)
    require(data, "violations", int, args.bench)
    timeout_fraction = require(
        data, "timeout_fraction", (int, float), args.bench
    )
    machines = require(data, "machines", list, args.bench)
    if not machines:
        die(f"'{args.bench}' audited zero machines")

    failures = []
    decided = 0
    for i, machine in enumerate(machines):
        where = f"{args.bench} machines[{i}]"
        if not isinstance(machine, dict):
            die(f"{where} is not a JSON object")
        name = require(machine, "machine", str, where)
        violations = require(machine, "violations", int, where)
        max_gap = require(machine, "max_gap", int, where)
        tightened = require(machine, "tightened", int, where)
        certified = require(machine, "certified", int, where)
        jobs = require(machine, "jobs", int, where)
        timeouts = require(machine, "timeouts", int, where)
        decided += tightened + certified

        if violations > 0:
            details = machine.get("violation_details") or []
            head = details[0] if details else "(no detail recorded)"
            failures.append(
                f"{name}: {violations} optimality violation(s), "
                f"first: {head}"
            )
        if max_gap < 0:
            failures.append(
                f"{name}: negative gap {max_gap} (exact arm worse "
                "than the heuristic)"
            )
        for gap in (machine.get("gap_histogram") or {}):
            try:
                if int(gap) < 0:
                    failures.append(
                        f"{name}: gap_histogram has negative gap {gap}"
                    )
            except ValueError:
                failures.append(
                    f"{name}: gap_histogram key {gap!r} is not an "
                    "integer"
                )
        print(
            f"{name}: {jobs} loops, {tightened} tightened "
            f"(max gap {max_gap}), {certified} certified, "
            f"{timeouts} timeouts, {violations} violations"
        )

    if decided == 0:
        failures.append(
            "exact arm decided zero loops (no tightened, no "
            "certified); the audit is vacuous"
        )
    if timeout_fraction > args.max_timeout_fraction:
        failures.append(
            f"timeout fraction {timeout_fraction:.4f} exceeds "
            f"ceiling {args.max_timeout_fraction:.4f}"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"exact gap gate: OK ({data['loops']} loops, "
            f"timeout fraction {timeout_fraction:.4f})"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
