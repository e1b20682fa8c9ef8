"""Benchmark of the schurrnn package: one workload per invocation.

    python3 perfbench/run.py --workload copy --seed 1 --seconds 20 --trace 0

Workloads (all closed loop, one caller): ``copy`` and ``charlm`` train the
Schur-form RNN with ``optim.train_loop``; ``memory`` runs the Fisher memory
table and the transient ensembles.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see README.md beside this file).

The workload runs in a child process (worker.py) whose environment pins
the BLAS thread count to 1 before numpy loads.  Set-up time is the median
over several fresh processes.  The result and an environment record are
written to ``--out``; the last line of standard output is the result as
one JSON object.  The package is imported from ``src/`` of the checkout
this file sits in; the run fails if it is not there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spec

WORKER = spec.HERE / "worker.py"
SETUP_PROBES = 8          # fresh processes that only set up; the run adds one
CHILD_TIMEOUT_S = 60.0    # per set-up probe or environment record
RUN_SLACK_S = 75.0        # allowed beyond --seconds for the measuring child


class ChildError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    for var in spec.THREAD_VARS:
        env[var] = "1"
    src = str(spec.ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_child(args, timeout):
    """Run worker.py with ``args``; return its last stdout line as JSON."""
    cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=spec.ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise ChildError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def _git_state():
    def git(*args):
        return subprocess.run(["git", "-C", str(spec.ROOT), *args],
                              capture_output=True, text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        status = git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _select(values, workload, trace):
    """The metrics the result reports, in catalogue order, with units."""
    catalogue = ([(n, u, "all") for n, u, _, _ in spec.END_TO_END] if not trace
                 else [(n, u, k) for n, u, _, k in spec.PER_LAYER])
    metrics = {}
    for name, unit, kind in catalogue:
        if not spec.applies(kind, workload):
            value = 0.0
        elif values.get(name) is None:
            raise ChildError(f"worker did not report {name}")
        else:
            value = values[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _parse(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="wall time of the measured closed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced pass")
    ap.add_argument("--smoke", action="store_true",
                    help="a handful of ops per workload, for the tests")
    ap.add_argument("--out", default=".bench_results",
                    help="result directory, relative to the checkout root")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = _parse(argv)
    if not (spec.ROOT / "src" / "schurrnn" / "__init__.py").is_file():
        print(f"error: no schurrnn package under {spec.ROOT / 'src'}",
              file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        name += "-smoke"
    out_dir = spec.ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    try:
        setup = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_PROBES):
                probe = _run_child(["--mode", "setup", *common],
                                   CHILD_TIMEOUT_S)
                setup.append((probe["setup_s"], probe["ref_s"]))
        run = _run_child(
            ["--mode", "run", *common, "--seconds", repr(args.seconds),
             "--trace", str(args.trace),
             "--spans", str(out_dir / f"{name}.spans.jsonl")],
            args.seconds + RUN_SLACK_S)
        env = _run_child(["--mode", "env"], CHILD_TIMEOUT_S)
    except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = run["values"]
    setup.append((run["setup_s"], run["setup_ref_s"]))
    values["setup_s"] = statistics.median(
        wall / ref for wall, ref in setup) * spec.REF_MS / 1e3
    values["wall.setup_s"] = statistics.median(wall for wall, _ in setup)
    try:
        metrics = _select(values, args.workload, args.trace)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }

    env.update(_git_state())
    env["argv"] = sys.argv
    env["setup_samples_s"] = setup
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failures=run["failures"], absent_functions=run["absent"],
                  all_values=values)
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    with open(out_dir / f"{name}.env.json", "w") as fh:
        json.dump(env, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={run['attempted']} failed={run['failed']} "
          f"error_rate={values['error_rate']:.3g}")
    for msg in run["failures"]:
        print(f"# failure: {msg}")
    if run["absent"]:
        print(f"# absent functions: {', '.join(run['absent'])}")
    for key in sorted(values):
        if key not in metrics:
            print(f"# extra {key} = {values[key]!r}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
