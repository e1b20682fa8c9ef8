"""Recurrent cells, sequence forward pass, and full backpropagation
through time.

The one cell is the Schur-parametrized cell: V comes from
:func:`schurrnn.schur.assemble_v`, and the orthogonal RNN is its special
case T = 0, gamma = 1.  The one nonlinearity is modReLU, which is the
identity at zero bias, the value a fresh model starts from.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import schur as schur_mod
from .schur import DivergenceError, SchurCache, SchurParamGrads, SchurParams

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


def modrelu(z, b, out=None):
    """modReLU on real inputs: (|z| + b) * sign(z) where |z| + b > 0,
    else 0; sign(0) = 0.  Identity when b = 0.  Written into ``out``
    when it is given."""
    # ``maximum``, ``sign`` and the product propagate NaN, so a NaN
    # pre-activation (or bias) stays NaN.
    return np.multiply(np.maximum(np.abs(z) + b, 0.0), np.sign(z), out=out)


# Time-major layout throughout the recurrence: the hidden trace ``h`` is
# (T+1, B, n) with ``h[0]`` the initial state, and ``dpre`` is (T, B, n).
# Each direction owns one trace buffer: ``h[1:]`` holds the input
# projection pre_t until the forward sweep overwrites it with the hidden
# states, and ``dpre`` starts as the head gradient at h_t and is swept into
# the gradient at the pre-activations.

def rnn_forward(v, h, bias):
    """Run the recurrence h_t = modrelu(V h_{t-1} + pre_t) in place.

    On entry ``h[0]`` is the initial state and ``h[t]`` the pre-activation
    input pre_t; the sweep overwrites each ``h[t]``, t >= 1, with the
    hidden state.  Returns ``h``."""
    batch, n = h.shape[1], h.shape[2]
    # A C-ordered Vᵀ keeps the step GEMM off BLAS's transposed-operand
    # path, and a (B, n) bias keeps the modReLU add from broadcasting.
    vt = np.ascontiguousarray(v.T)
    bias = np.broadcast_to(bias, (batch, n)).copy()
    for t in range(1, h.shape[0]):
        z = h[t - 1] @ vt
        z += h[t]
        modrelu(z, bias, out=h[t])
    return h


def rnn_backward(v, h, dpre):
    """Reverse sweep through the recurrence, in place.

    On entry ``dpre[t-1]`` is the loss gradient injected at h_t by the
    output head; the sweep overwrites it with the gradient at the
    pre-activation pre_t.  Returns (dv, dbias), one contraction each over
    all steps after the sweep.
    """
    n = h.shape[2]
    # modReLU passes the gradient exactly where its output is nonzero.
    dead = h[1:] == 0.0
    np.copyto(dpre[-1], 0.0, where=dead[-1])
    for t in range(dpre.shape[0] - 1, 0, -1):
        dh = dpre[t] @ v
        dpre[t - 1] += dh
        np.copyto(dpre[t - 1], 0.0, where=dead[t - 1])

    dv = dpre.reshape(-1, n).T @ h[:-1].reshape(-1, n)
    s = np.sign(h[1:])
    s *= dpre
    return dv, s.sum(axis=(0, 1))


@dataclass
class RnnModel:
    u_in: np.ndarray       # (n, d_in)
    b_hidden: np.ndarray   # (n,) modReLU bias
    w_out: np.ndarray      # (d_out, n)
    b_out: np.ndarray      # (d_out,)
    schur: SchurParams     # the recurrent matrix V = P (Lambda + T) P^T

    @property
    def n(self):
        return self.u_in.shape[0]


@dataclass
class SequenceBatch:
    """Inputs, integer targets (B, T), and a boolean mask of scored steps.
    ``inputs`` is either (B, T) integer token ids, which select columns of
    ``u_in``, or (B, T, d_in) float features.  ``h0`` optionally carries
    hidden state across windows."""

    inputs: np.ndarray
    targets: np.ndarray
    score_mask: np.ndarray
    h0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.inputs.ndim == 2:
            if not np.issubdtype(self.inputs.dtype, np.integer):
                raise ValueError("2-D inputs must be integer token ids")
        elif self.inputs.ndim != 3:
            raise ValueError("inputs must be (B, T) ids or (B, T, d_in) "
                             "features")
        b, t = self.inputs.shape[:2]
        if self.targets.shape != (b, t) or self.score_mask.shape != (b, t):
            raise ValueError("batch shapes are inconsistent")


@dataclass
class ModelGrads:
    u_in: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    v: np.ndarray
    schur: SchurParamGrads


@dataclass
class ForwardResult:
    probs: np.ndarray           # (T*B, d_out) softmax, time-major rows;
                                # the .T view of a C-ordered class-major buffer
    hidden: np.ndarray          # (T+1, B, n) time-major trace
    loss: float
    final_hidden: np.ndarray    # (B, n)
    v: np.ndarray
    schur_cache: SchurCache
    n_scored: int = 0


def init_model(n, d_in, d_out, cell_kind="schur", scheme="henaff", seed=0):
    """Fresh model.  modReLU bias starts at zero so the activation is the
    identity at initialization; input/output maps use Glorot scaling."""
    # perfbench/worker.py calls init_model(..., cell_kind="schur", ...);
    # the keyword stays only for that call until ROADMAP item 1 drops it.
    if cell_kind != "schur":
        raise ValueError(f"unknown cell kind {cell_kind!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    lim_in = np.sqrt(6.0 / (n + d_in))
    lim_out = np.sqrt(6.0 / (n + d_out))
    return RnnModel(
        u_in=rng.uniform(-lim_in, lim_in, size=(n, d_in)),
        b_hidden=np.zeros(n),
        w_out=rng.uniform(-lim_out, lim_out, size=(d_out, n)),
        b_out=np.zeros(d_out),
        schur=schur_mod.init_params(n, scheme=scheme, rng_seed=seed),
    )


def _input_rows(batch, d_in):
    """(T*B, d_in) input rows in the recurrence's time-major order: the
    float features, or the one-hot rows of token ids."""
    if batch.inputs.ndim == 2:
        return np.eye(d_in)[batch.inputs.T.ravel()]
    x = batch.inputs
    return x.transpose(1, 0, 2).reshape(-1, x.shape[2])


def _scored_rows(batch):
    """Time-major row indices of the scored steps and their targets.
    Targets at unscored steps are never read."""
    mask = batch.score_mask.T
    return np.flatnonzero(mask), batch.targets.T[mask]


def forward(model, batch):
    """Forward pass: hidden trace, softmax of the output head, and mean
    cross entropy (nats) over the scored steps.  Raises ``ValueError`` on
    a scored target outside [0, d_out) or an input id outside [0, d_in),
    and :class:`DivergenceError` on a gamma that is not > 0, a failed
    eigendecomposition of B^T B or a non-finite hidden state."""
    rows, tgt = _scored_rows(batch)
    if tgt.size and (tgt.min() < 0 or tgt.max() >= model.b_out.size):
        raise ValueError(f"scored targets must lie in [0, {model.b_out.size})")
    d_in = model.u_in.shape[1]
    ids = batch.inputs.T if batch.inputs.ndim == 2 else None
    if ids is not None and ids.size and (ids.min() < 0 or ids.max() >= d_in):
        raise ValueError(f"input ids must lie in [0, {d_in})")
    # V is assembled once per optimizer step; bptt reuses it and the cache.
    vv, cache = schur_mod.assemble_v(model.schur)
    b, t_len = batch.inputs.shape[:2]
    n = model.n

    h = np.empty((t_len + 1, b, n))
    h[0] = batch.h0 if batch.h0 is not None else 0.0
    if ids is None:
        np.matmul(_input_rows(batch, d_in), model.u_in.T,
                  out=h[1:].reshape(-1, n))
    else:
        # Ids select rows of u_inᵀ.  They are checked above, so the clip
        # never fires; it lets numpy gather straight into ``out``, which
        # mode="raise" always buffers.
        np.take(np.ascontiguousarray(model.u_in.T), ids, axis=0, out=h[1:],
                mode="clip")
    rnn_forward(vv, h, model.b_hidden)

    if not np.all(np.isfinite(h)):
        bad = int(np.argmax(~np.isfinite(h).all(axis=(1, 2))))
        raise DivergenceError(f"non-finite hidden state at step {bad}")

    # One class-major (d_out, T*B) buffer goes from logits to
    # probabilities in place; the max and sum run across contiguous rows.
    z = model.w_out @ h[1:].reshape(-1, n).T
    z += model.b_out[:, None]
    z -= z.max(axis=0)
    picked = z[tgt, rows]
    np.exp(z, out=z)
    sums = z.sum(axis=0)
    loss = float(np.sum(np.log(sums[rows]) - picked) / max(rows.size, 1))
    z /= sums

    return ForwardResult(
        probs=z.T,
        hidden=h,
        loss=loss,
        final_hidden=h[-1].copy(),
        v=vv,
        schur_cache=cache,
        n_scored=rows.size,
    )


def bptt(model, batch, fwd=None):
    """Exact reverse-mode gradients for all model parameters.

    The gradient on V is mapped back through the Schur parametrization.
    The modReLU subgradient at the kink takes the zero branch.
    """
    if fwd is None:
        fwd = forward(model, batch)

    # Cross-entropy gradient at the logits, in the head's class-major
    # (d_out, T*B) layout.
    rows, tgt = _scored_rows(batch)
    scale = 1.0 / max(fwd.n_scored, 1)
    dl = fwd.probs.T * (batch.score_mask.T.ravel() * scale)
    dl[tgt, rows] -= scale

    h = fwd.hidden
    b, t_len = batch.score_mask.shape
    n = model.n
    dw_out = dl @ h[1:].reshape(-1, n)
    db_out = dl.sum(axis=1)
    dpre = (dl.T @ model.w_out).reshape(t_len, b, n)

    dv, dbias = rnn_backward(fwd.v, h, dpre)
    du_in = dpre.reshape(-1, n).T @ _input_rows(batch, model.u_in.shape[1])

    return ModelGrads(
        u_in=du_in,
        b_hidden=dbias,
        w_out=dw_out,
        b_out=db_out,
        v=dv,
        schur=schur_mod.backward_v(model.schur, dv, fwd.schur_cache),
    )
