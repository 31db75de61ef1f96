#!/usr/bin/env python3
"""Steadiness of the SDM serving benchmark's metrics over seeds.

    python3 sdmbench/steady.py --workload NAME [--runs 10] [--seed0 1] [--trace 0|1]
    python3 sdmbench/steady.py --self-test

Runs run.py --runs times with seeds seed0, seed0+1, ... and prints, per
metric, the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median. For end-to-end metrics it also prints the
bound from BENCHMARK.json and whether the spread stays under a third of
it, the target the bounds are set and defended by. Also prints the share
of failed queries, which must be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return 0.0 if med == 0 else (q3 - q1) / abs(med)


def load_bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}, None
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}, spec.get("run_seconds")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit("run failed (exit %d) for seed %d:\n%s" % (res.returncode, seed, res.stdout))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.argv = sys.argv[:1]
        unittest.main(module=__name__, verbosity=1)
        return
    if not args.workload or args.runs < 2:
        ap.error("--workload and --runs >= 2 are required")

    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds or 10
    results = [run_once(args.workload, args.seed0 + i, seconds, args.trace)
               for i in range(args.runs)]
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("workload %s: %d runs of %gs, seeds %d..%d, nproc %d" % (
        args.workload, args.runs, seconds, args.seed0, args.seed0 + args.runs - 1,
        os.cpu_count() or 0))
    print("correct in every run: %s; failed shares: %s" % (
        all(r["correct"] for r in results), shares))
    print("%-36s %14s %14s %14s %8s %6s %s" % ("metric", "q1", "median", "q3", "spread", "bound",
                                             "spread<bound/3"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        bound = bounds.get(name)
        verdict = "" if bound is None else ("yes" if spread(values) < bound / 3 else "NO")
        print("%-36s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, q1, med, q3, spread(values), "" if bound is None else "%g" % bound, verdict))


class HelperTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [5, 1, 4, 2, 3, 9, 7, 8, 6, 10]
        self.assertEqual(quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_share_of_median(self):
        values = [9, 10, 10, 10, 11] * 2
        q1, med, q3 = quartiles(values)
        self.assertAlmostEqual(spread(values), (q3 - q1) / med)
        self.assertEqual(spread([0, 0, 0, 0]), 0.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread([3.5] * 10), 0.0)


if __name__ == "__main__":
    main()
