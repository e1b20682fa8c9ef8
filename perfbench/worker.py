"""One benchmark workload, in one process.

run.py starts this file with the BLAS thread count pinned in the
environment, so numpy loads single-threaded.  Modes:

- ``setup``: import, build the workload up to its first op, report the
  seconds since the launcher spawned the process, exit.
- ``run``: the same set-up, then the closed loop for ``--seconds``, the
  correctness checks, and one JSON line with every figure measured.  With
  ``--trace 1`` the time is split between an untraced and a traced pass.
- ``env``: print the environment record.

Only ``tasks``, ``rnn.init_model``, ``optim.TrainConfig``,
``optim.train_loop`` and ``memory`` are called directly; everything else
is seen through the tracer.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spec
from tracer import Recorder, Tracer

SMOKE_UPDATES = 3
SMOKE_SAMPLES = 50
CALIBRATION_SPAN = "bench.calibration"
# The traced ops must be accounted for by the spans to within the tracing
# overhead, which is a difference of two noisy medians: never ask for
# better than this.
ACCOUNTING_FLOOR_PCT = 1.0
_MAX_FAILURES_KEPT = 20


def _import_package():
    import schurrnn

    src = spec.ROOT / "src"
    if src not in Path(schurrnn.__file__).resolve().parents:
        raise SystemExit(f"error: schurrnn was imported from "
                         f"{schurrnn.__file__}, not from {src}")
    return schurrnn


def _episode_seed(seed, episode):
    return int(np.random.SeedSequence([seed, episode]).generate_state(1)[0])


class Calibration:
    """A fixed numpy computation, independent of the package, timed right
    before every op.  An op's cost is its wall time over the block's, so
    the host's speed, which on a shared machine drifts by tens of percent
    over seconds to minutes, cancels out.  The block mixes the kinds of
    work the workloads do, since the drift hits them unequally: 256x256
    products, a Python loop of small products and elementwise ops, a tall
    QR, a non-BLAS einsum contraction and a log-softmax."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(256, 256)) / 16
        self._v = rng.normal(size=(128, 128)) / 12
        self._x = rng.normal(size=(70, 10, 128))
        self._q = rng.normal(size=(800, 64))
        self._e = rng.normal(size=(8, 150, 56))
        self._w = rng.normal(size=(64, 56))

    def block(self, recorder=None):
        """Run the block once; return its wall time in seconds."""
        if recorder is not None:
            recorder.enter(CALIBRATION_SPAN)
        t0 = time.perf_counter()
        self._a @ self._a @ self._a
        h = np.zeros((10, 128))
        for x in self._x:
            z = h @ self._v + x
            h = np.where(np.abs(z) > 0.1, z, 0.0)
        np.linalg.qr(self._q, mode="r")
        np.einsum("btd,nd->tbn", self._e, self._w)
        z = self._e - self._e.max(axis=-1, keepdims=True)
        z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        dt = time.perf_counter() - t0
        if recorder is not None:
            recorder.exit()
        return dt


class Tally:
    """Ops and checks attempted and failed; wall time, calibrated cost and
    calibration time of each timed op."""

    def __init__(self):
        self.op_times = []
        self.costs = []
        self.ref_times = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < _MAX_FAILURES_KEPT:
            self.failures.append(message)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.fail(message)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


class TimedStream:
    """The batch stream handed to ``train_loop``.  At each batch request
    it closes the update in progress, runs the calibration block, and
    stamps the start of the next update: an update's wall time is the
    interval between successive requests, less the calibration."""

    def __init__(self, inner, tally, calib, recorder=None):
        self.carry_hidden = getattr(inner, "carry_hidden", False)
        self._it = iter(inner)
        self._tally = tally
        self._calib = calib
        self._rec = recorder
        self._open = None  # (start, calibration seconds) of the open update

    def __iter__(self):
        return self

    def __next__(self):
        self.close()
        rec = self._rec
        ref = self._calib.block(rec)
        self._open = (time.perf_counter(), ref)
        if rec is None:
            return next(self._it)
        rec.op += 1
        rec.enter("tasks.batch")
        try:
            return next(self._it)
        finally:
            rec.exit()

    def close(self):
        """Record the open update as completed."""
        if self._open is not None:
            start, ref = self._open
            wall = time.perf_counter() - start
            tally = self._tally
            tally.op_times.append(wall)
            tally.costs.append(wall / ref)
            tally.ref_times.append(ref)
            tally.attempted += 1
            self._open = None

    def abandon(self, message):
        """Record the open update as failed."""
        self._open = None
        self._tally.check(False, message)


class Training:
    """Closed loop of fixed-length training episodes.  Episode ``e`` starts
    from a fresh model and task stream seeded from (seed, e); the run's
    ``loss_final`` is that of episode 0, so it repeats bit for bit."""

    def __init__(self, name, seed, smoke):
        from schurrnn import optim, rnn, tasks

        self.optim, self.rnn, self.tasks = optim, rnn, tasks
        self.cfg = cfg = spec.TRAINING[name]
        self.name, self.seed, self.smoke = name, seed, smoke
        self.updates = SMOKE_UPDATES if smoke else cfg["updates"]
        batch = cfg["batch_size"]
        if cfg["task"] == "copy":
            self.dims = (tasks.COPY_D_IN, tasks.COPY_D_OUT)
            self.seq_len = cfg["delay"] + 20
            # Loss of the constant-blank predictor: 10 of the T + 20 scored
            # steps carry one of 8 equiprobable symbols.
            self.loss_ref = 10 * math.log(8) / self.seq_len
        else:
            path = spec.ROOT / cfg["corpus"]
            self.corpus = tasks.CharLmSpec(corpus_path=str(path),
                                           window=cfg["window"],
                                           batch_size=batch, seed=seed)
            self.dims = (self.corpus.vocab_size, self.corpus.vocab_size)
            self.seq_len = cfg["window"]
            # Loss of the uniform predictor over the corpus alphabet.
            self.loss_ref = math.log(len(set(path.read_bytes())))
        self.items_per_op = batch * self.seq_len
        self.config = optim.TrainConfig(max_updates=self.updates,
                                        log_every=self.updates,
                                        batch_size=batch, **cfg["train"])
        self.episode = 0
        self.loss_final = None
        self.orth_err = 0.0
        self.pending = self._prepare()

    def _prepare(self):
        cfg, tasks = self.cfg, self.tasks
        seed = _episode_seed(self.seed, self.episode)
        self.episode += 1
        model = self.rnn.init_model(cfg["n"], *self.dims, cell_kind="schur",
                                    scheme=cfg["scheme"], seed=seed)
        if cfg["task"] == "copy":
            stream = tasks.copy_stream(tasks.CopyTaskSpec(
                delay=cfg["delay"], batch_size=cfg["batch_size"], seed=seed))
        else:
            stream = tasks.char_lm_stream(self.corpus)
        return model, stream

    def run_pass(self, seconds, tally, calib, recorder=None):
        deadline = time.perf_counter() + seconds
        while True:
            model, stream = self.pending
            timed = TimedStream(stream, tally, calib, recorder)
            try:
                res = self.optim.train_loop(model, timed, self.config)
            except Exception as exc:  # a failing update is counted, not fatal
                timed.abandon(f"episode {self.episode - 1}: {exc!r}")
            else:
                timed.close()
                self._check(res, tally)
            self.pending = self._prepare()
            if self.smoke or time.perf_counter() >= deadline:
                return

    def _check(self, res, tally):
        rec = res.records[-1] if res.records else None
        tally.check(rec is not None, "train_loop logged no record")
        if rec is None:
            return
        loss = rec.task_loss
        tally.check(math.isfinite(rec.loss) and math.isfinite(loss),
                    f"non-finite loss {rec.loss!r}")
        if not self.smoke:
            tally.check(loss < self.loss_ref,
                        f"final loss {loss:.4f} not below the {self.name} "
                        f"reference {self.loss_ref:.4f}")
        tally.check(rec.orth_err <= spec.ORTH_GATE,
                    f"orthogonality error {rec.orth_err:.3e} above "
                    f"{spec.ORTH_GATE:g}")
        if self.loss_final is None:
            self.loss_final = loss
        self.orth_err = max(self.orth_err, rec.orth_err)

    def figures(self):
        return {"loss_final": self.loss_final, "schur.orth_err": self.orth_err}

    def layer_figures(self, span):
        square = self.cfg["batch_size"] * self.seq_len * self.cfg["n"] ** 2

        def gflops(name, flops_per_call):
            ms = span.incl(name)
            return flops_per_call * span.calls(name) / ms / 1e6 if ms else 0.0

        return {
            "schur.assemble_v_ms": span.incl("schur.assemble_v"),
            "schur.backward_v_self_ms": span.own("schur.backward_v"),
            "schur.regularizer_ms": span.incl("schur.regularizer"),
            "linalg.expm_ms": span.incl("linalg.expm"),
            "linalg.expm_frechet_ms": span.incl("linalg.expm_frechet"),
            "rnn.forward_self_ms": span.own("rnn.forward"),
            "rnn.bptt_self_ms": span.own("rnn.bptt"),
            "kernels.rnn_forward_ms": span.incl("kernels.rnn_forward"),
            "kernels.rnn_backward_ms": span.incl("kernels.rnn_backward"),
            "kernels.rnn_forward_gflops": gflops("kernels.rnn_forward",
                                                 2 * square),
            "kernels.rnn_backward_gflops": gflops("kernels.rnn_backward",
                                                  4 * square),
            "optim.rmsprop_ms": span.incl("optim.rmsprop"),
            "optim.stiefel_ms": span.incl("optim.stiefel"),
            "optim.train_loop_self_ms": span.own("optim.train_loop"),
            "optim.calls_per_update": (span.calls("optim.rmsprop")
                                       + span.calls("optim.stiefel")),
            "tasks.batch_ms": span.incl("tasks.batch"),
        }


def delay_line_j_tot(a, n):
    """Total memory of an n-unit delay line with squared coupling ``a``:
    the sum over k < n of a^k (a - 1) / (a^(k+1) - 1), or 1 / (k + 1) at
    a = 1.  Written out here so the check does not use the package."""
    if a == 1.0:
        return sum(1.0 / (k + 1) for k in range(n))
    return sum(a**k * (a - 1.0) / (a ** (k + 1) - 1.0) for k in range(n))


class Memory:
    """Closed loop of analysis passes: the 12-row total-memory table, then
    the 4 transient ensembles.  The seed seeds the ensembles.  The rows
    run in table order: shuffling them moved the allocator's peak memory
    by 7% between seeds.  The calibration block runs before every call,
    and a pass's cost is the sum of its calls' costs."""

    def __init__(self, name, seed, smoke):
        from schurrnn import memory

        self.memory = memory
        self.seed, self.smoke = seed, smoke
        self.rows = [(row, memory.FmcConfig(
            n=row["n"], d=row["d"], alpha=row["alpha"], beta=row["beta"]))
            for row in spec.load_fmc_rows()]
        self.ensembles = [(cfg, memory.FmcConfig(**cfg))
                          for cfg in spec.ENSEMBLES]
        self.n_samples = SMOKE_SAMPLES if smoke else spec.ENSEMBLE_SAMPLES
        self.items_per_op = len(self.rows) + len(self.ensembles)
        self.call_costs = {}
        self.row_results = {}
        self.table_costs = []
        self.ensemble_costs = []

    def _call(self, key, fn, tally, calib, recorder):
        """Run one analysis call after the calibration block.  Returns
        (result or None, wall seconds, cost)."""
        ref = calib.block(recorder)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing call is counted, not fatal
            tally.check(False, f"{key}: {exc!r}")
            return None, time.perf_counter() - t0, 0.0
        wall = time.perf_counter() - t0
        tally.attempted += 1
        tally.ref_times.append(ref)
        self.call_costs.setdefault(key, []).append(wall / ref)
        return out, wall, wall / ref

    def run_pass(self, seconds, tally, calib, recorder=None):
        deadline = time.perf_counter() + seconds
        while True:
            if recorder is not None:
                recorder.op += 1
            wall = table = ens = 0.0
            for row, cfg in self.rows:
                res, dt, cost = self._call(
                    "fmc." + spec.config_key(row),
                    lambda: self.memory.fisher_memory_curve(cfg),
                    tally, calib, recorder)
                wall, table = wall + dt, table + cost
                if res is not None:
                    self._check_row(row, res, tally)
            for raw, cfg in self.ensembles:
                key = "ensemble." + spec.config_key(raw)
                stats, dt, cost = self._call(
                    key, lambda: self.memory.transient_ensemble(
                        cfg, n_samples=self.n_samples,
                        t_max=spec.ENSEMBLE_T_MAX, rng_seed=self.seed),
                    tally, calib, recorder)
                wall, ens = wall + dt, ens + cost
                if stats is not None and raw["d"] == 0.0:
                    # d = 0 makes Theta strictly lower triangular, hence
                    # nilpotent: every state is exactly zero from t = n on.
                    tally.check(
                        bool(np.all(stats.norm_mean[raw["n"]:] == 0.0)),
                        f"{key}: nonzero state norm past t={raw['n']}")
            self.table_costs.append(table)
            self.ensemble_costs.append(ens)
            tally.op_times.append(wall)
            tally.costs.append(table + ens)
            if self.smoke or time.perf_counter() >= deadline:
                return

    def _check_row(self, row, res, tally):
        key = spec.config_key(row)
        if row["d"] == 0.0 and row["beta"] == 0.0:
            ref = delay_line_j_tot(row["alpha"] ** 2, row["n"])
            tol, what = spec.CLOSED_FORM_RTOL, "delay-line closed form"
        else:
            ref = row["recorded_j_tot"]
            tol, what = spec.RECORDED_RTOL, "recorded seed value"
        rel = abs(res.j_tot - ref) / abs(ref)
        tally.check(rel <= tol, f"fmc {key}: J_tot {res.j_tot!r} vs {what} "
                                f"{ref!r} (rel {rel:.2e} > {tol:g})")
        self.row_results[key] = res

    def figures(self):
        ms = spec.REF_MS
        out = {
            "memory.table_s": statistics.median(self.table_costs) * ms / 1e3,
            "memory.ensemble_s": statistics.median(self.ensemble_costs) * ms / 1e3,
        }
        for row, _ in self.rows:
            key = spec.config_key(row)
            costs = self.call_costs.get("fmc." + key, [0.0])
            out[f"memory.fmc_row_ms.{key}"] = statistics.median(costs) * ms
            # a row that never succeeded reads 0; its failures are counted
            res = self.row_results.get(key)
            published = row["published_j_tot"]
            out[f"memory.power_terms.{key}"] = res.truncation_terms if res else 0
            out[f"memory.curve_len.{key}"] = len(res.j_curve) if res else 0
            out[f"memory.j_tot_dev_pct.{key}"] = (
                (res.j_tot - published) / published * 100.0 if res else 0.0)
        for raw, _ in self.ensembles:
            key = spec.config_key(raw)
            costs = self.call_costs.get("ensemble." + key, [0.0])
            out[f"memory.ensemble_ms.{key}"] = statistics.median(costs) * ms
        return out

    def layer_figures(self, span):
        return {
            "memory.power_blocks_ms": span.incl("memory.power_blocks"),
            "memory.covariance_factor_self_ms":
                span.own("memory.covariance_factor"),
            "memory.fmc_from_theta_self_ms": span.own("memory.fmc_from_theta"),
        }


class SpanFigures:
    """Per-op figures from the traced pass: calls per op, and inclusive
    and self time per op in calibrated milliseconds."""

    def __init__(self, totals, n_ops, ms_per_second):
        self._totals = totals
        self._n = n_ops
        self._scale = ms_per_second

    def _get(self, name, i):
        return self._totals.get(name, (0, 0.0, 0.0))[i] / self._n

    def calls(self, name):
        return self._get(name, 0)

    def incl(self, name):
        return self._get(name, 1) * self._scale

    def own(self, name):
        return self._get(name, 2) * self._scale


def timing_figures(tally, items_per_op):
    """End-to-end timing figures of an untraced pass, in calibrated units:
    wall time over calibration time, times spec.REF_MS."""
    costs = tally.costs
    return {
        "op_ms.p50": statistics.median(costs) * spec.REF_MS,
        "op_ms.p90": (statistics.quantiles(costs, n=10)[-1] if len(costs) > 1
                      else costs[0]) * spec.REF_MS,
        "op.samples": len(costs),
        "items_per_s": items_per_op / (statistics.fmean(costs)
                                       * spec.REF_MS / 1e3),
        "wall.op_ms.p50": statistics.median(tally.op_times) * 1e3,
        "calib.ref_ms": statistics.median(tally.ref_times) * 1e3,
    }


def traced_figures(work, rec, tally, untraced_p50):
    """Per-layer figures and the tracing cost, from the traced pass."""
    n_ops = len(tally.costs)
    ref_s = statistics.median(tally.ref_times)
    totals = rec.totals()
    calib_s = totals.pop(CALIBRATION_SPAN, (0, 0.0, 0.0))[1]
    out = work.layer_figures(SpanFigures(totals, n_ops, spec.REF_MS / ref_s))
    traced_p50 = statistics.median(tally.costs) * spec.REF_MS
    accounted_s = (rec.root_seconds() - calib_s) / n_ops
    mean_s = statistics.fmean(tally.op_times)
    out.update({
        "trace.op_ms.p50": traced_p50,
        "trace.overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "trace.accounted_ms": accounted_s / ref_s * spec.REF_MS,
        "trace.unaccounted_pct": (mean_s - accounted_s) / mean_s * 100.0,
    })
    return out


def environment():
    """Machine, BLAS and version record written beside each result."""
    schurrnn = _import_package()
    record = {
        "cpu_model": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "schurrnn": getattr(schurrnn, "__version__", None),
        "schurrnn_backend": (schurrnn.backend_name()
                             if hasattr(schurrnn, "backend_name") else None),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        if names:
            record["cpu_model"] = names[0]
    except OSError:
        pass
    try:
        import scipy

        record["scipy"] = scipy.__version__
    except ImportError:
        record["scipy"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = {"name": blas.get("name"),
                          "version": blas.get("version")}
    except (TypeError, KeyError):
        record["blas"] = None
    try:
        from threadpoolctl import threadpool_info

        record["blas_threads"] = [
            {"api": p.get("internal_api"), "threads": p.get("num_threads")}
            for p in threadpool_info()]
    except ImportError:
        record["blas_threads"] = {k: os.environ.get(k)
                                  for k in spec.THREAD_VARS}
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "env"), required=True)
    ap.add_argument("--workload", choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="launcher's time.time() just before the spawn")
    ap.add_argument("--spans", help="write the traced spans here")
    args = ap.parse_args(argv)

    if args.mode == "env":
        print(json.dumps(environment()))
        return 0

    _import_package()
    cls = Memory if args.workload == "memory" else Training
    work = cls(args.workload, args.seed, args.smoke)
    setup_s = time.time() - args.spawned_at
    calib = Calibration()
    setup_ref_s = statistics.median(calib.block() for _ in range(5))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "ref_s": setup_ref_s}))
        return 0

    tally = Tally()
    untraced = args.seconds / 2 if args.trace else args.seconds
    work.run_pass(untraced, tally, calib)
    values = timing_figures(tally, work.items_per_op)
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    values.update(work.figures())
    absent = []
    if args.trace:
        rec = Recorder()
        traced = Tally()
        with Tracer(rec) as tracer:
            work.run_pass(args.seconds - untraced, traced, calib, rec)
        absent = tracer.absent
        values.update(traced_figures(work, rec, traced, values["op_ms.p50"]))
        values["trace.absent_functions"] = len(absent)
        gap = abs(values["trace.unaccounted_pct"])
        traced.check(gap <= max(abs(values["trace.overhead_pct"]),
                                ACCOUNTING_FLOOR_PCT),
                     f"spans account for the traced ops only to within "
                     f"{gap:.2f}%")
        tally.merge(traced)
        if args.spans:
            rec.write(args.spans)
    values["error_rate"] = tally.failed / max(tally.attempted, 1)

    print(json.dumps({
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "absent": absent,
        "values": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
