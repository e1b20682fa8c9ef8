"""The allocating formulation of the recurrence, kept as a bit-identity
oracle for the in-place kernels of :mod:`schurrnn.rnn`.

Here modReLU is one function that allocates its temporaries, where the
library's forward step writes the same ufuncs into scratch taken once per
sweep; the input projection is its own ``pre`` array and the hidden trace
a fresh one; the reverse sweep builds ``dh + gout`` and an ``np.where``
mask at every step into a fresh ``dpre``; and dbias is the sum of a
product of two temporaries.  The head is the same fused class-major
softmax cross-entropy as the library's.  Every operation rounds as the
library's does (IEEE addition and multiplication commute), so the two
must agree bit for bit.

The steps keep ``@`` on numpy's own ``ascontiguousarray(v.T)`` and on
``v`` as given, where the library steps with ``ndarray.dot`` into
scratch on 64-byte aligned copies and masks with ``putmask``; the bitwise
test is what pins those to this form.
"""

import numpy as np

from schurrnn import schur
from schurrnn.rnn import ForwardResult, ModelGrads


def modrelu(z, b, out=None):
    """modReLU on real inputs: (|z| + b) * sign(z) where |z| + b > 0,
    else 0; sign(0) = 0.  Identity when b = 0.  Written into ``out``
    when it is given."""
    # ``maximum``, ``sign`` and the product propagate NaN, so a NaN
    # pre-activation (or bias) stays NaN.
    return np.multiply(np.maximum(np.abs(z) + b, 0.0), np.sign(z), out=out)


def rnn_forward(v, pre, bias, h0):
    t_len, batch, n = pre.shape
    h = np.empty((t_len + 1, batch, n))
    h[0] = h0
    vt = np.ascontiguousarray(v.T)
    bias = np.broadcast_to(bias, (batch, n)).copy()
    for t in range(1, t_len + 1):
        z = h[t - 1] @ vt
        z += pre[t - 1]
        modrelu(z, bias, out=h[t])
    return h


def rnn_backward(v, h, gout):
    t_len, batch, n = gout.shape
    dpre = np.empty((t_len, batch, n))
    alive = h[1:] != 0.0
    dh = np.zeros((batch, n))
    for t in range(t_len, 0, -1):
        dh = dh + gout[t - 1]
        dz = np.where(alive[t - 1], dh, 0.0)
        dpre[t - 1] = dz
        if t > 1:
            dh = dz @ v
    dv = dpre.reshape(-1, n).T @ h[:-1].reshape(-1, n)
    dbias = np.sum(dpre * np.sign(h[1:]), axis=(0, 1))
    return dv, dbias, dpre


def _rows(a):
    return a.transpose(1, 0, 2).reshape(-1, a.shape[2])


def forward(model, batch):
    v, cache = schur.assemble_v(model.schur)
    tgt = batch.targets.T.ravel()
    b, t_len, _ = batch.inputs.shape
    n = model.n
    pre = (_rows(batch.inputs) @ model.u_in.T).reshape(t_len, b, n)
    h0 = batch.h0 if batch.h0 is not None else np.zeros((b, n))
    h = rnn_forward(v, pre, model.b_hidden, h0)

    z = model.w_out @ h[1:].reshape(-1, n).T
    z += model.b_out[:, None]
    z -= z.max(axis=0)
    picked = z[tgt, np.arange(tgt.size)]
    np.exp(z, out=z)
    sums = z.sum(axis=0)
    loss = float(np.sum(np.log(sums) - picked) / tgt.size)
    z /= sums
    return ForwardResult(probs=z.T, hidden=h, loss=loss,
                         final_hidden=h[-1].copy(), v=v, schur_cache=cache)


def bptt(model, batch, fwd):
    tgt = batch.targets.T.ravel()
    scale = 1.0 / tgt.size
    dl = fwd.probs.T * scale
    dl[tgt, np.arange(tgt.size)] -= scale

    h = fwd.hidden
    b, t_len = batch.targets.shape
    n = model.n
    dw_out = dl @ h[1:].reshape(-1, n)
    db_out = dl.sum(axis=1)
    gout = (dl.T @ model.w_out).reshape(t_len, b, n)
    dv, dbias, dpre = rnn_backward(fwd.v, h, gout)
    du_in = dpre.reshape(-1, n).T @ _rows(batch.inputs)
    return ModelGrads(u_in=du_in, b_hidden=dbias, w_out=dw_out, b_out=db_out,
                      schur=schur.backward_v(model.schur, dv, fwd.schur_cache))
