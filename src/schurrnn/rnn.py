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

from . import DivergenceError
from . import schur as schur_mod
from .schur import SchurCache, SchurParamGrads, SchurParams

__all__ = [
    "RnnModel",
    "SequenceBatch",
    "ModelGrads",
    "ForwardResult",
    "rnn_forward",
    "rnn_backward",
    "init_model",
    "forward",
    "bptt",
]


# Time-major layout throughout the recurrence: the hidden trace ``h`` is
# (T+1, B, n) with ``h[0]`` the initial state, and ``dpre`` is (T, B, n).
# Each direction owns one trace buffer: ``h[1:]`` holds the input
# projection pre_t until the forward sweep overwrites it with the hidden
# states, and ``dpre`` starts as the head gradient at h_t and is swept into
# the gradient at the pre-activations.
#
# Each step is one ``ndarray.dot`` against a C-ordered copy of Vᵀ
# (forward) or V (backward) that starts on a 64-byte boundary, and walks
# row views taken once before the loop.  Per call, one OpenBLAS 0.3.31
# thread on a Xeon: ``.dot`` makes the same dgemm call as ``@`` with less
# dispatch, 1.0–1.4 against 1.55–2.0 µs at char-LM's (8,64)·(64,64).  At
# copy's (10,128)·(128,128) the GEMM takes 4.3–5.2 µs on the aligned
# matrix against 6.4–7.9 µs at a 16-, 32- or 48-byte offset, where the
# heap puts it about three times in four.
#
# No step allocates.  The GEMM writes into (B, n) scratch taken once per
# sweep, modReLU is five in-place ufuncs from that scratch into ``h[t]``,
# and the backward step masks with ``putmask``.  On that machine, against
# steps that allocate their temporaries, ``rnn_forward`` takes 0.76–0.80
# against 0.89–0.95 ms at char-LM's shapes and 0.78–0.82 against
# 0.88–0.92 ms at copy's, and ``rnn_backward`` 0.80–0.84 against
# 0.82–0.87 ms at char-LM's (even at copy's), with the same bits.

def _aligned_copy(a):
    """C-ordered copy of the float64 array ``a`` whose data starts on a
    64-byte boundary."""
    buf = np.empty(a.size + 8)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start:start + a.size].reshape(a.shape)
    np.copyto(out, a)
    return out


def rnn_forward(v, h, bias):
    """Run the recurrence h_t = modReLU(V h_{t-1} + pre_t) in place, where
    modReLU(z) = (|z| + b) * sign(z) where |z| + b > 0, else 0, with
    sign(0) = 0: the identity at b = 0.  ``abs``, ``maximum``, ``sign``
    and the product propagate NaN, so a NaN pre-activation or bias stays
    NaN.

    On entry ``h[0]`` is the initial state and ``h[t]`` the pre-activation
    input pre_t; the sweep overwrites each ``h[t]``, t >= 1, with the
    hidden state.  Returns ``h``."""
    batch, n = h.shape[1], h.shape[2]
    # A C-ordered Vᵀ keeps the step GEMM off BLAS's transposed-operand
    # path, and a (B, n) bias keeps the modReLU add from broadcasting.
    vt = _aligned_copy(v.T)
    bias = np.broadcast_to(bias, (batch, n)).copy()
    z, mag, sign = np.empty((3, batch, n))
    # ``maximum`` against an array of zeros is about 5% faster than
    # against the scalar 0.0.
    zero = np.zeros((batch, n))
    rows = list(h)
    for prev, row in zip(rows, rows[1:]):
        prev.dot(vt, out=z)
        z += row
        np.abs(z, out=mag)
        mag += bias
        np.maximum(mag, zero, out=mag)
        np.sign(z, out=sign)
        np.multiply(mag, sign, out=row)
    return h


def rnn_backward(v, h, dpre):
    """Reverse sweep through the recurrence, in place.

    On entry ``dpre[t-1]`` is the loss gradient injected at h_t by the
    output head; the sweep overwrites it with the gradient at the
    pre-activation pre_t.  Returns (dv, dbias), one contraction each over
    all steps after the sweep.
    """
    n = h.shape[2]
    va = _aligned_copy(v)
    # modReLU passes the gradient exactly where its output is nonzero.
    dead = list(h[1:] == 0.0)
    rows = list(dpre)
    g = np.empty_like(rows[0])
    np.putmask(rows[-1], dead[-1], 0.0)
    for row, prev, mask in zip(rows[:0:-1], rows[-2::-1], dead[-2::-1]):
        row.dot(va, out=g)
        prev += g
        np.putmask(prev, mask, 0.0)

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
    """Inputs and integer targets (B, T); every step is scored.
    ``inputs`` is either (B, T) integer token ids, which select columns of
    ``u_in``, or (B, T, d_in) float features.  ``h0`` optionally carries
    hidden state across windows."""

    inputs: np.ndarray
    targets: np.ndarray
    h0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.inputs.ndim == 2:
            if not np.issubdtype(self.inputs.dtype, np.integer):
                raise ValueError("2-D inputs must be integer token ids")
        elif self.inputs.ndim != 3:
            raise ValueError("inputs must be (B, T) ids or (B, T, d_in) "
                             "features")
        b, t = self.inputs.shape[:2]
        if self.targets.shape != (b, t):
            raise ValueError("batch shapes are inconsistent")


@dataclass
class ModelGrads:
    u_in: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
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


def forward(model, batch, out=None):
    """Forward pass: hidden trace, softmax of the output head, and mean
    cross entropy (nats) over all steps.  Raises ``ValueError`` on a
    target outside [0, d_out) or an input id outside [0, d_in), and
    :class:`DivergenceError` on a gamma that is not > 0, a failed
    eigendecomposition of B^T B or a non-finite hidden state.

    ``out``, an earlier result, lends its buffers: when its ``hidden`` is
    (T+1, B, n) and its ``probs`` (T*B, d_out), the new hidden trace is
    written into ``out.hidden`` and the logits and probabilities into
    the class-major buffer behind ``out.probs``; any other geometry gets
    fresh buffers.  The value checks run before the first write, so a
    ``ValueError`` leaves ``out`` as it was, but once writing starts
    ``out`` no longer describes its own batch, also when the call ends in
    a :class:`DivergenceError`.  ``final_hidden`` is always a copy, so a
    carried h0 never aliases a reused trace.  ``train_loop`` passes each
    update's result to the next: freed every update, char-LM's trace and
    head buffer were trimmed off the heap and faulted back in, about 250
    minor page faults per update against at most 12 with reuse."""
    tgt = batch.targets.T.ravel()
    if tgt.size and (tgt.min() < 0 or tgt.max() >= model.b_out.size):
        raise ValueError(f"targets must lie in [0, {model.b_out.size})")
    d_in = model.u_in.shape[1]
    ids = batch.inputs.T if batch.inputs.ndim == 2 else None
    if ids is not None and ids.size and (ids.min() < 0 or ids.max() >= d_in):
        raise ValueError(f"input ids must lie in [0, {d_in})")
    # V is assembled once per optimizer step; bptt reuses it and the cache.
    vv, cache = schur_mod.assemble_v(model.schur)
    b, t_len = batch.inputs.shape[:2]
    n, d_out = model.n, model.b_out.size

    if (out is not None and out.hidden.shape == (t_len + 1, b, n)
            and out.probs.shape == (t_len * b, d_out)):
        h, z = out.hidden, out.probs.T
    else:
        h = np.empty((t_len + 1, b, n))
        z = np.empty((d_out, t_len * b))
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
    np.matmul(model.w_out, h[1:].reshape(-1, n).T, out=z)
    z += model.b_out[:, None]
    z -= z.max(axis=0)
    picked = z[tgt, np.arange(tgt.size)]
    np.exp(z, out=z)
    sums = z.sum(axis=0)
    loss = float(np.sum(np.log(sums) - picked) / tgt.size)
    z /= sums

    return ForwardResult(
        probs=z.T,
        hidden=h,
        loss=loss,
        final_hidden=h[-1].copy(),
        v=vv,
        schur_cache=cache,
    )


def bptt(model, batch, fwd):
    """Exact reverse-mode gradients for all model parameters, from ``fwd``,
    the result of :func:`forward` on the same model and batch.

    The gradient on V is mapped back through the Schur parametrization.
    The modReLU subgradient at the kink takes the zero branch.
    """
    # Cross-entropy gradient at the logits, in the head's class-major
    # (d_out, T*B) layout.
    tgt = batch.targets.T.ravel()
    scale = 1.0 / tgt.size
    dl = fwd.probs.T * scale
    dl[tgt, np.arange(tgt.size)] -= scale

    h = fwd.hidden
    b, t_len = batch.targets.shape
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
        schur=schur_mod.backward_v(model.schur, dv, fwd.schur_cache),
    )
