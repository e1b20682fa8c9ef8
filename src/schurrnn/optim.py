"""RMSprop training over one table of parameter tensors.

The skew-symmetric generator B of the orthogonal basis is one more row of
the table, with its own learning rate.  Its gradient from
:func:`schurrnn.schur.backward_v` is exactly skew, and RMSprop keeps an
exactly skew B exactly skew (the state is symmetric and every update is
elementwise), so P = exp(B), re-exponentiated at the next assembly, never
leaves the manifold (up to the accuracy of the matrix exponential).
Regularizer gradients are folded into the task gradients before the
RMSprop normalization.
"""

import csv
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import rnn as rnn_mod
from .schur import DivergenceError, regularizer_loss_and_grads

__all__ = [
    "TrainConfig",
    "DivergenceError",
    "LogRecord",
    "rmsprop_step",
    "train_loop",
    "write_log_csv",
    "LOG_COLUMNS",
]

@dataclass
class TrainConfig:
    lr: float = 5e-4
    lr_orth: float = 1e-6
    rms_alpha: float = 0.99
    delta: float = 1e-4
    t_decay: float = 1e-6
    gamma_mode: str = "regularized"   # "free" | "regularized" | "clamped"
    gamma_clamp: float = 1.0
    batch_size: int = 10
    max_updates: int = 1000
    log_every: int = 10

    def __post_init__(self):
        if self.lr <= 0 or self.lr_orth <= 0:
            raise ValueError("learning rates must be > 0")
        if not 0.0 < self.rms_alpha < 1.0:
            raise ValueError("rms_alpha must be in (0, 1)")
        if self.delta < 0 or self.t_decay < 0:
            raise ValueError("regularizer weights must be >= 0")
        if self.gamma_mode not in ("free", "regularized", "clamped"):
            raise ValueError(f"unknown gamma mode {self.gamma_mode!r}")
        if self.gamma_mode == "clamped" and self.gamma_clamp <= 0:
            raise ValueError("gamma_clamp must be > 0")
        if self.max_updates < 0 or self.log_every < 0:
            raise ValueError("max_updates and log_every must be >= 0")


def rmsprop_step(param, grad, state, lr, alpha, eps=1e-8):
    """One RMSprop update.  Returns (new_param, new_state)."""
    state = alpha * state + (1.0 - alpha) * grad * grad
    param = param - lr * grad / (np.sqrt(state) + eps)
    return param, state


@dataclass
class LogRecord:
    update: int
    loss: float
    task_loss: float
    reg_loss: float
    mean_gamma: float
    t_fro: float
    orth_err: float
    grad_norm_total: float


LOG_COLUMNS = [f.name for f in fields(LogRecord)]


@dataclass
class TrainResult:
    records: list
    model: object
    final_hidden: Optional[np.ndarray] = None


def _grad_norm(arrays):
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))


def train_loop(model, stream, config):
    """Run ``config.max_updates`` optimizer steps over batches drawn from
    ``stream``.

    The stream may set ``carry_hidden = True`` to have each window start
    from the previous window's final hidden state (no gradient flows across
    the boundary).  Raises :class:`DivergenceError`, naming the update, on
    a gamma that is not > 0, a failed eigendecomposition of B^T B or a
    non-finite hidden state or loss.

    Clamped gamma is set once here and never stepped; the gamma pull of the
    regularizer applies in regularized mode only.
    """
    clamped = config.gamma_mode == "clamped"
    delta = config.delta if config.gamma_mode == "regularized" else 0.0
    p = model.schur
    if clamped:
        p.gamma[:] = config.gamma_clamp

    rms = {}  # running mean of squared gradients per parameter tensor
    records = []
    carry = bool(getattr(stream, "carry_hidden", False))
    last_hidden = None
    it = iter(stream)

    for update in range(1, config.max_updates + 1):
        batch = next(it)
        if carry and last_hidden is not None:
            batch.h0 = last_hidden

        try:
            fwd = rnn_mod.forward(model, batch)
        except FloatingPointError as exc:
            raise DivergenceError(f"{exc} at update {update}", records) from exc
        grads = rnn_mod.bptt(model, batch, fwd=fwd)
        last_hidden = fwd.final_hidden

        task_loss = fwd.loss
        # (owner, attribute, gradient, learning rate) for every tensor
        # RMSprop updates.
        table = [(model, name, getattr(grads, name), config.lr)
                 for name in ("u_in", "b_hidden", "w_out", "b_out")]
        reg_loss, g_gamma_reg, g_t_reg = regularizer_loss_and_grads(
            p, delta, config.t_decay
        )
        sg = grads.schur
        sg.t_lower = sg.t_lower + g_t_reg
        if not clamped:
            sg.gamma = sg.gamma + g_gamma_reg
            table.append((p, "gamma", sg.gamma, config.lr))
        table += [(p, "theta", sg.theta, config.lr),
                  (p, "t_lower", sg.t_lower, config.lr),
                  (p, "b_skew", sg.b_skew, config.lr_orth)]

        for owner, name, grad, lr in table:
            new, rms[name] = rmsprop_step(
                getattr(owner, name), grad, rms.get(name, 0.0),
                lr, config.rms_alpha)
            setattr(owner, name, new)

        total = task_loss + reg_loss
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at update {update}", records)

        if config.log_every and update % config.log_every == 0:
            big_p = fwd.schur_cache.p
            orth = big_p.T @ big_p - np.eye(model.n)
            records.append(LogRecord(
                update=update,
                loss=total,
                task_loss=task_loss,
                reg_loss=reg_loss,
                mean_gamma=float(np.mean(p.gamma)),
                t_fro=float(np.linalg.norm(p.t_lower)),
                orth_err=float(np.linalg.norm(orth)),
                grad_norm_total=_grad_norm(g for _, _, g, _ in table),
            ))

    return TrainResult(records=records, model=model, final_hidden=last_hidden)


def write_log_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))
