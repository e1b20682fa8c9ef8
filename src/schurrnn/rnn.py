"""Recurrent cells, sequence forward pass, and full backpropagation
through time.

Two cell kinds share the machinery: the Schur-parametrized cell (V comes
from :func:`schurrnn.schur.assemble_v`) and an unconstrained vanilla RNN
baseline with a dense V.  The one nonlinearity is modReLU, which is the
identity at zero bias, the value a fresh model starts from.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import schur as schur_mod
from .schur import DivergenceError, SchurParamGrads, SchurParams

__all__ = [
    "RnnModel",
    "SequenceBatch",
    "ModelGrads",
    "ForwardResult",
    "modrelu",
    "rnn_forward",
    "rnn_backward",
    "init_model",
    "forward",
    "bptt",
]


def modrelu(z, b):
    """modReLU on real inputs: (|z| + b) * sign(z) where |z| + b > 0,
    else 0; sign(0) = 0.  Identity when b = 0."""
    z = np.asarray(z, dtype=np.float64)
    # ``maximum`` and the final product propagate NaN, so a NaN
    # pre-activation (or bias) stays NaN.
    return np.copysign(np.maximum(np.abs(z) + b, 0.0), z) * (z != 0.0)


# Time-major layout throughout the recurrence: ``pre`` and ``dpre`` are
# (T, B, n), the hidden trace ``h`` is (T+1, B, n) with ``h[0]`` the
# initial state.

def rnn_forward(v, pre, bias, h0):
    """Run the recurrence h_t = modrelu(V h_{t-1} + pre_t) and return the
    full trace (T+1, B, n)."""
    t_len, batch, n = pre.shape
    h = np.empty((t_len + 1, batch, n))
    h[0] = h0
    vt = v.T
    for t in range(1, t_len + 1):
        z = h[t - 1] @ vt + pre[t - 1]
        h[t] = modrelu(z, bias)
    return h


def rnn_backward(v, h, gout):
    """Reverse sweep through the recurrence.

    ``gout[t-1]`` is the loss gradient injected at h_t by the output head.
    Returns (dv, dbias, dpre) with dpre the gradient at the pre-activations.
    The parameter gradients are one contraction over all steps after the
    sweep.
    """
    t_len = gout.shape[0]
    batch, n = h.shape[1], h.shape[2]
    dpre = np.empty((t_len, batch, n))
    # modReLU passes the gradient exactly where its output is nonzero.
    alive = h[1:] != 0.0

    dh = np.zeros((batch, n))
    for t in range(t_len, 0, -1):
        dh = dh + gout[t - 1]
        dz = np.where(alive[t - 1], dh, 0.0)
        dpre[t - 1] = dz
        dh = dz @ v

    dv = dpre.reshape(-1, n).T @ h[:-1].reshape(-1, n)
    dbias = np.sum(dpre * np.sign(h[1:]), axis=(0, 1))
    return dv, dbias, dpre


@dataclass
class RnnModel:
    cell_kind: str  # "schur" or "vanilla"
    u_in: np.ndarray       # (n, d_in)
    b_hidden: np.ndarray   # (n,) modReLU bias
    w_out: np.ndarray      # (d_out, n)
    b_out: np.ndarray      # (d_out,)
    schur: Optional[SchurParams] = None
    v_dense: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.cell_kind not in ("schur", "vanilla"):
            raise ValueError(f"unknown cell kind {self.cell_kind!r}")
        if self.cell_kind == "schur" and self.schur is None:
            raise ValueError("schur cell requires SchurParams")
        if self.cell_kind == "vanilla" and self.v_dense is None:
            raise ValueError("vanilla cell requires a dense V")

    @property
    def n(self):
        return self.u_in.shape[0]


@dataclass
class SequenceBatch:
    """Inputs (B, T, d_in), integer targets (B, T), and a boolean mask of
    scored steps.  ``h0`` optionally carries hidden state across windows."""

    inputs: np.ndarray
    targets: np.ndarray
    score_mask: np.ndarray
    h0: Optional[np.ndarray] = None

    def __post_init__(self):
        b, t, _ = self.inputs.shape
        if self.targets.shape != (b, t) or self.score_mask.shape != (b, t):
            raise ValueError("batch shapes are inconsistent")


@dataclass
class ModelGrads:
    u_in: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    v: np.ndarray
    schur: Optional[SchurParamGrads] = None


@dataclass
class ForwardResult:
    probs: np.ndarray           # (T*B, d_out) softmax, time-major rows
    hidden: np.ndarray          # (T+1, B, n) time-major trace
    loss: float
    final_hidden: np.ndarray    # (B, n)
    v: np.ndarray
    schur_cache: Optional[tuple] = None
    n_scored: int = 0


def init_model(n, d_in, d_out, cell_kind="schur", scheme="henaff", seed=0):
    """Fresh model.  modReLU bias starts at zero so the activation is the
    identity at initialization; input/output maps use Glorot scaling."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    lim_in = np.sqrt(6.0 / (n + d_in))
    lim_out = np.sqrt(6.0 / (n + d_out))
    u_in = rng.uniform(-lim_in, lim_in, size=(n, d_in))
    w_out = rng.uniform(-lim_out, lim_out, size=(d_out, n))
    params = None
    v_dense = None
    if cell_kind == "schur":
        params = schur_mod.init_params(n, scheme=scheme, rng_seed=seed)
    else:
        v_dense = rng.normal(0.0, np.sqrt(2.0 / (2 * n)), size=(n, n))
    return RnnModel(
        cell_kind=cell_kind,
        u_in=u_in,
        b_hidden=np.zeros(n),
        w_out=w_out,
        b_out=np.zeros(d_out),
        schur=params,
        v_dense=v_dense,
    )


def _resolve_v(model):
    """(V, schur cache) for this step.  For the Schur cell V is assembled
    once per optimizer step and reused by forward and backward."""
    if model.cell_kind == "vanilla":
        return model.v_dense, None
    return schur_mod.assemble_v(model.schur)


def _time_major_rows(a):
    """(B, T, k) -> (T*B, k) with rows in the recurrence's time-major
    order, so the projections and head gradients are single GEMMs."""
    return a.transpose(1, 0, 2).reshape(-1, a.shape[2])


def _scored_rows(batch):
    """Time-major row indices of the scored steps and their targets.
    Targets at unscored steps are never read."""
    mask = batch.score_mask.T
    return np.flatnonzero(mask), batch.targets.T[mask]


def forward(model, batch):
    """Forward pass: hidden trace, softmax of the output head, and mean
    cross entropy (nats) over the scored steps.  Raises
    :class:`DivergenceError` on a gamma that is not > 0 or a non-finite
    hidden state."""
    vv, cache = _resolve_v(model)
    b, t_len, _ = batch.inputs.shape
    n = model.n

    pre = (_time_major_rows(batch.inputs) @ model.u_in.T).reshape(t_len, b, n)
    h0 = batch.h0 if batch.h0 is not None else np.zeros((b, n))
    h = rnn_forward(vv, pre, model.b_hidden, h0)

    if not np.all(np.isfinite(h)):
        bad = int(np.argmax(~np.isfinite(h).all(axis=(1, 2))))
        raise DivergenceError(f"non-finite hidden state at step {bad}")

    # One (T*B, d_out) buffer goes from logits to probabilities in place.
    rows, tgt = _scored_rows(batch)
    probs = h[1:].reshape(-1, n) @ model.w_out.T
    probs += model.b_out
    probs -= probs.max(axis=1, keepdims=True)
    picked = probs[rows, tgt]
    np.exp(probs, out=probs)
    sums = probs.sum(axis=1, keepdims=True)
    loss = float(np.sum(np.log(sums[rows, 0]) - picked) / max(rows.size, 1))
    probs /= sums

    return ForwardResult(
        probs=probs,
        hidden=h,
        loss=loss,
        final_hidden=h[-1].copy(),
        v=vv,
        schur_cache=cache,
        n_scored=rows.size,
    )


def bptt(model, batch, fwd=None):
    """Exact reverse-mode gradients for all model parameters.

    For the Schur cell the gradient on V is mapped back through the
    parametrization.  The modReLU subgradient at the kink takes the zero
    branch.
    """
    if fwd is None:
        fwd = forward(model, batch)

    # Cross-entropy gradient at the logits, in the head's time-major rows.
    rows, tgt = _scored_rows(batch)
    scale = 1.0 / max(fwd.n_scored, 1)
    dl = fwd.probs * (batch.score_mask.T.reshape(-1, 1) * scale)
    dl[rows, tgt] -= scale

    h = fwd.hidden
    b, t_len = batch.score_mask.shape
    n = model.n
    dw_out = dl.T @ h[1:].reshape(-1, n)
    db_out = dl.sum(axis=0)
    gout = (dl @ model.w_out).reshape(t_len, b, n)

    dv, dbias, dpre = rnn_backward(fwd.v, h, gout)
    du_in = dpre.reshape(-1, n).T @ _time_major_rows(batch.inputs)

    schur_grads = None
    if model.cell_kind == "schur":
        schur_grads = schur_mod.backward_v(model.schur, dv, fwd.schur_cache)
    return ModelGrads(
        u_in=du_in,
        b_hidden=dbias,
        w_out=dw_out,
        b_out=db_out,
        v=dv,
        schur=schur_grads,
    )
