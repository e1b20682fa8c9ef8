"""What the benchmark runs and what it reports.

Workload inputs, the correctness references and the metric catalogue live
here so that the launcher (run.py), the workload process (worker.py) and
the smoke tests agree on one list.  ``BENCHMARK.json`` at the repository
root repeats the metric catalogue; the smoke tests check that the two
match.  Standard library only: the launcher must not load numpy.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# --- workloads -----------------------------------------------------------------

# Values of configs/copy_default.json and configs/char_lm_default.json,
# frozen here so that an edit to a user-facing config does not silently
# change the benchmark.  ``updates`` is the length of one training episode;
# a run repeats episodes until its wall time is used up.
TRAINING = {
    "copy": {
        "task": "copy", "delay": 50, "n": 128, "scheme": "henaff",
        "batch_size": 10, "updates": 50,
        "train": {"lr": 5e-4, "lr_orth": 1e-6, "rms_alpha": 0.99,
                  "delta": 1e-4, "t_decay": 1e-6,
                  "gamma_mode": "regularized"},
    },
    "charlm": {
        "task": "char_lm", "window": 150, "n": 64, "scheme": "cayley",
        "batch_size": 8, "updates": 100,
        "corpus": "src/schurrnn/data/corpus.txt",
        "train": {"lr": 8e-4, "lr_orth": 8e-5, "rms_alpha": 0.9,
                  "delta": 1.0, "t_decay": 1e-4,
                  "gamma_mode": "regularized"},
    },
}

# The four configs of configs/transients.json.
ENSEMBLES = [
    {"n": 100, "d": 0.0, "alpha": 0.95, "beta": 0.0},
    {"n": 100, "d": 0.0, "alpha": 1.0, "beta": 0.0},
    {"n": 100, "d": 0.0, "alpha": 1.05, "beta": 0.0},
    {"n": 100, "d": 0.0, "alpha": 1.0, "beta": 0.005},
]
ENSEMBLE_SAMPLES = 1000
ENSEMBLE_T_MAX = 120

WORKLOADS = ("copy", "charlm", "memory")

# Set to 1 in the workload process's environment before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Reported times are calibrated: an op's wall time divided by the wall time
# of the calibration block run just before it, times REF_MS.  They read as
# milliseconds on a host where the block takes REF_MS.
REF_MS = 6.0

# Tolerances of the correctness checks.
CLOSED_FORM_RTOL = 1e-8     # the delay-line gate of acceptance criterion 1
RECORDED_RTOL = 1e-6
ORTH_GATE = 1e-8            # acceptance criterion 6


def load_fmc_rows():
    """The 12 rows of src/schurrnn/data/fmc_sweep_sm.json, each with the
    published J_tot and the J_tot the seed commit computed (1 BLAS
    thread)."""
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["fmc_rows"]


def config_key(cfg):
    """Metric-name suffix of a (d, alpha, beta) config, e.g. a1.05-b0.005-d0.2."""
    return f"a{cfg['alpha']!r}-b{cfg['beta']!r}-d{cfg['d']!r}"


# --- metrics -------------------------------------------------------------------

# (name, unit, better, bound).  An "op" is one optimizer update on the
# training workloads and one analysis pass (the 12-row table, then the 4
# ensembles) on the memory workload.  Times are calibrated (see REF_MS);
# items are tokens (batch x sequence length) or analysis calls.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms.p50", "ms", "lower", 0.15),
    ("op_ms.p90", "ms", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, workloads).  "train" metrics read 0 on the memory
# workload and "memory" metrics read 0 on the training workloads: those
# layers are never called there.
_TRAIN_LAYERS = [
    ("schur.assemble_v_ms", "ms", "lower"),
    ("schur.backward_v_self_ms", "ms", "lower"),
    ("schur.regularizer_ms", "ms", "lower"),
    ("linalg.expm_ms", "ms", "lower"),
    ("linalg.expm_frechet_ms", "ms", "lower"),
    ("schur.orth_err", "norm", "lower"),
    ("rnn.forward_self_ms", "ms", "lower"),
    ("rnn.bptt_self_ms", "ms", "lower"),
    ("kernels.rnn_forward_ms", "ms", "lower"),
    ("kernels.rnn_backward_ms", "ms", "lower"),
    ("kernels.rnn_forward_gflops", "GFLOP/s", "higher"),
    ("kernels.rnn_backward_gflops", "GFLOP/s", "higher"),
    ("optim.rmsprop_ms", "ms", "lower"),
    ("optim.stiefel_ms", "ms", "lower"),
    ("optim.train_loop_self_ms", "ms", "lower"),
    ("optim.calls_per_update", "count", "lower"),
    ("tasks.batch_ms", "ms", "lower"),
    ("loss_final", "nats", "lower"),
]
_MEMORY_LAYERS = [
    ("memory.table_s", "s", "lower"),
    ("memory.ensemble_s", "s", "lower"),
    ("memory.power_blocks_ms", "ms", "lower"),
    ("memory.covariance_factor_self_ms", "ms", "lower"),
    ("memory.fmc_from_theta_self_ms", "ms", "lower"),
]
_ALL_LAYERS = [
    ("op.samples", "count", "higher"),
    ("wall.op_ms.p50", "ms", "lower"),
    ("calib.ref_ms", "ms", "lower"),
    ("error_rate", "ratio", "lower"),
    ("trace.op_ms.p50", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.accounted_ms", "ms", "lower"),
    ("trace.unaccounted_pct", "%", "lower"),
    ("trace.absent_functions", "count", "lower"),
]


def _memory_rows():
    out = []
    for row in load_fmc_rows():
        key = config_key(row)
        out += [
            (f"memory.fmc_row_ms.{key}", "ms", "lower"),
            (f"memory.power_terms.{key}", "count", "lower"),
            (f"memory.curve_len.{key}", "count", "lower"),
            (f"memory.j_tot_dev_pct.{key}", "%", "lower"),
        ]
    for cfg in ENSEMBLES:
        out.append((f"memory.ensemble_ms.{config_key(cfg)}", "ms", "lower"))
    return out


PER_LAYER = (
    [m + ("train",) for m in _TRAIN_LAYERS]
    + [m + ("memory",) for m in _MEMORY_LAYERS + _memory_rows()]
    + [m + ("all",) for m in _ALL_LAYERS]
)


def applies(kind, workload):
    return kind == "all" or (kind == "memory") == (workload == "memory")
