"""Paired benchmark runs of two checkouts: the A/B figures that ROADMAP
and CHANGES.md quote for a performance change.

Runs ``perfbench/run.py`` of the PARENT and the CHANGE checkout
alternately, one end-to-end run (``--trace 0``) each per pair, with the
parent first in odd pairs and the change first in even ones, so that a
drift of the host's speed falls on both sides alike.  Pair i uses seed
SEED + i - 1 on both sides, and every run writes under the same
``--out`` name inside its own checkout.  The heap layout, and with it
the speed of some BLAS calls, moves with the length of the checkout's
path, so the script warns when the two paths differ in length.

It prints each run's end-to-end metrics (those that ``BENCHMARK.json``
beside this directory lists), then for each metric the median and the
quartiles of either side, the change's median against the parent's, and
the number of pairs in which the change was better.  The module uses
only the standard library.  Its name does not match ``test_*.py``, so
pytest does not collect it.

    python tests/bench_pairs.py PARENT CHANGE --workload charlm \\
        --pairs 10 --seconds 20 --seed 731
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def end_to_end_metrics(path=ROOT / "BENCHMARK.json"):
    """(name, better) of each end-to-end metric, better "lower" or
    "higher"."""
    doc = json.loads(pathlib.Path(path).read_text())
    return [(m["name"], m["better"]) for m in doc["end_to_end"]]


def schedule(pairs, seed):
    """(pair, side, seed) of each run in order: the parent ("parent")
    first in odd pairs, the change ("change") first in even ones."""
    runs = []
    for i in range(1, pairs + 1):
        sides = ("parent", "change") if i % 2 else ("change", "parent")
        runs += [(i, side, seed + i - 1) for side in sides]
    return runs


def summarize(results, metrics):
    """Per metric, the median and quartiles of each side and the pairs the
    change won.  ``results`` maps (pair, side) to a dict of metric values;
    a tie is no win."""
    pairs = sorted({pair for pair, _ in results})
    rows = []
    for name, better in metrics:
        sides = {side: [results[pair, side][name] for pair in pairs]
                 for side in ("parent", "change")}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(sides["parent"], sides["change"]))
        stats = {}
        for side, values in sides.items():
            q1, med, q3 = (statistics.quantiles(values, n=4,
                                                method="inclusive")
                           if len(values) > 1 else values * 3)
            stats[side] = (q1, med, q3)
        rows.append((name, stats["parent"], stats["change"], wins,
                     len(pairs)))
    return rows


def run_once(checkout, workload, seed, seconds, out):
    """The metric values of one end-to-end run of ``checkout``'s harness.
    Raises ``RuntimeError`` when the run fails or fails an op."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--out", out],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["failed"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of "
                           f"{result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i adds i - 1")
    parser.add_argument("--out", default=".bench_pairs",
                        help="result directory inside each checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        print(f"warning: checkout paths differ in length "
              f"({len(str(checkouts['parent']))} and "
              f"{len(str(checkouts['change']))} characters); the heap "
              f"layout differs with them", file=sys.stderr)

    metrics = end_to_end_metrics()
    results = {}
    for pair, side, seed in schedule(args.pairs, args.seed):
        try:
            values = run_once(checkouts[side], args.workload, seed,
                              args.seconds, args.out)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results[pair, side] = values
        print(f"pair {pair:2} {side:6} seed {seed}: "
              + "  ".join(f"{name} {values[name]:.6g}"
                          for name, _ in metrics), flush=True)

    print(f"\n{'metric':12} {'parent q1 / median / q3':>30} "
          f"{'change q1 / median / q3':>30} {'median':>8}  change won")
    for name, parent, change, wins, pairs in summarize(results, metrics):
        shift = (f"{100 * (change[1] / parent[1] - 1):+7.1f}%"
                 if parent[1] else f"{'':8}")
        print(f"{name:12} "
              + " ".join(f"{' / '.join(f'{x:.4g}' for x in q):>30}"
                         for q in (parent, change))
              + f" {shift}  {wins} of {pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
