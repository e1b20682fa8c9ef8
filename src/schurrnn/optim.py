"""RMSprop training with a Stiefel-manifold update for the orthogonal
basis.

The skew-symmetric generator of P is updated with its own learning rate and
P is re-exponentiated at the next assembly, so the basis never leaves the
manifold (up to the accuracy of the matrix exponential).  Regularizer
gradients are folded into the task gradients before the RMSprop
normalization.
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
    "stiefel_step",
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


def stiefel_step(b_skew, grad_b, state, lr_orth, alpha, eps=1e-8):
    """RMSprop on the skew-symmetric generator.  The gradient is projected
    to the skew subspace and the result is re-mirrored from its lower half,
    so skew symmetry is exact regardless of rounding."""
    g = 0.5 * (grad_b - grad_b.T)
    b_new, state = rmsprop_step(b_skew, g, state, lr_orth, alpha, eps)
    lower = np.tril(b_new, -1)
    return lower - lower.T, state


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
    a gamma that is not > 0 or a non-finite hidden state or loss.

    Clamped gamma is set once here and never stepped; the gamma pull of the
    regularizer applies in regularized mode only.
    """
    clamped = config.gamma_mode == "clamped"
    delta = config.delta if config.gamma_mode == "regularized" else 0.0
    if model.cell_kind == "schur" and clamped:
        model.schur.gamma[:] = config.gamma_clamp

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
        reg_loss = 0.0
        # (owner, attribute, gradient) for every tensor RMSprop updates.
        table = [(model, name, getattr(grads, name))
                 for name in ("u_in", "b_hidden", "w_out", "b_out")]
        grad_list = [g for _, _, g in table]

        if model.cell_kind == "schur":
            p = model.schur
            reg_loss, g_gamma_reg, g_t_reg = regularizer_loss_and_grads(
                p, delta, config.t_decay
            )
            sg = grads.schur
            sg.t_lower = sg.t_lower + g_t_reg
            if not clamped:
                sg.gamma = sg.gamma + g_gamma_reg
                table.append((p, "gamma", sg.gamma))
                grad_list.append(sg.gamma)
            table += [(p, "theta", sg.theta), (p, "t_lower", sg.t_lower)]
            grad_list += [sg.theta, sg.t_lower, sg.b_skew]
            p.b_skew, rms["b_skew"] = stiefel_step(
                p.b_skew, sg.b_skew, rms.get("b_skew", 0.0),
                config.lr_orth, config.rms_alpha)
        else:
            table.append((model, "v_dense", grads.v))
            grad_list.append(grads.v)

        for owner, name, grad in table:
            cur = getattr(owner, name)
            new, rms[name] = rmsprop_step(
                cur, grad, rms.get(name, 0.0),
                config.lr, config.rms_alpha)
            setattr(owner, name, new)

        total = task_loss + reg_loss
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at update {update}", records)

        if config.log_every and update % config.log_every == 0:
            if model.cell_kind == "schur":
                big_p = fwd.schur_cache.p
                orth_err = float(np.linalg.norm(big_p.T @ big_p - np.eye(model.n)))
                mean_gamma = float(np.mean(model.schur.gamma))
                t_fro = float(np.linalg.norm(model.schur.t_lower))
            else:
                orth_err = float("nan")
                mean_gamma = float("nan")
                t_fro = float("nan")
            rec = LogRecord(
                update=update,
                loss=total,
                task_loss=task_loss,
                reg_loss=reg_loss,
                mean_gamma=mean_gamma,
                t_fro=t_fro,
                orth_err=orth_err,
                grad_norm_total=_grad_norm(grad_list),
            )
            records.append(rec)

    return TrainResult(records=records, model=model, final_hidden=last_hidden)


def write_log_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))
