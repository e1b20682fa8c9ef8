import tracemalloc

import numpy as np
import pytest

import rnn_alloc_oracle
from schurrnn.rnn import (
    SequenceBatch,
    bptt,
    forward,
    init_model,
    modrelu,
    rnn_backward,
    rnn_forward,
)
from schurrnn.schur import backward_v, t_lower_mask


def random_batch(b, t, d_in, d_out, seed=0):
    rng = np.random.default_rng(seed)
    return SequenceBatch(
        inputs=rng.normal(size=(b, t, d_in)),
        targets=rng.integers(0, d_out, size=(b, t)),
        score_mask=np.ones((b, t), dtype=bool),
    )


def modrelu_oracle(z, b):
    """The select form of modReLU: (|z| + b) * sign(z) where |z| + b > 0,
    else 0, selecting on ``mag <= 0`` so that NaN stays NaN."""
    mag = np.abs(z) + b
    return np.where(mag <= 0.0, 0.0, mag * np.sign(z))


def test_modrelu_matches_select_oracle():
    """NaN-exact agreement with the select form, including a NaN or
    infinite bias at z == 0, where both give NaN."""
    z = np.array([0.0, -0.0, 0.3, -0.3, 1.0, -1.0, 2.0, -2.0,
                  np.inf, -np.inf, np.nan])[:, None]
    b = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, np.nan, np.inf])
    buf = np.full((z.size, b.size), 7.0)
    with np.errstate(invalid="ignore"):
        got = modrelu(z, b)
        got_out = modrelu(z, b, out=buf)
        ref = modrelu_oracle(z, b)
    assert np.array_equal(got, ref, equal_nan=True)
    assert got_out is buf
    assert np.array_equal(buf, ref, equal_nan=True)


def test_modrelu_cases():
    z = np.array([2.0, -2.0, 0.5, -0.5, 0.0])
    b = np.array([-1.0, -1.0, -1.0, -1.0, 1.0])
    # |z|+b: 1, 1, -0.5, -0.5, 1 -> outputs 1, -1, 0, 0, 0 (sign(0)=0)
    assert np.allclose(modrelu(z, b), [1.0, -1.0, 0.0, 0.0, 0.0])
    # zero bias: identity
    z = np.linspace(-2, 2, 9)
    assert np.allclose(modrelu(z, np.zeros(9)), z)


def test_nan_pre_activation_propagates():
    """modReLU keeps a NaN input NaN, so forward's non-finite check sees
    it instead of training on a silently zeroed unit."""
    for b in (-1.0, 0.0, 1.0):
        assert np.isnan(modrelu(np.nan, b))
    model = init_model(8, 3, 2, seed=0)
    model.u_in[2] = np.nan
    with pytest.raises(FloatingPointError):
        forward(model, random_batch(2, 5, 3, 2))


def test_forward_isometry_with_orthogonal_v():
    """Orthogonal V, zero input, zero bias: hidden norm is preserved."""
    model = init_model(8, 3, 2, seed=0)
    rng = np.random.default_rng(1)
    h0 = rng.normal(size=(4, 8))
    batch = SequenceBatch(
        inputs=np.zeros((4, 10, 3)),
        targets=np.zeros((4, 10), dtype=np.int64),
        score_mask=np.zeros((4, 10), dtype=bool),
        h0=h0,
    )
    fwd = forward(model, batch)
    norms = np.linalg.norm(fwd.hidden, axis=2)
    assert np.allclose(norms, norms[0], atol=1e-10)


def test_init_model_cell_kind_keyword():
    """The benchmark worker calls init_model(..., cell_kind="schur", ...);
    that keyword builds the same model as none, and no other kind exists."""
    model = init_model(8, 3, 5, cell_kind="schur", scheme="cayley", seed=3)
    ref = init_model(8, 3, 5, scheme="cayley", seed=3)
    for name in ("u_in", "b_hidden", "w_out", "b_out"):
        assert np.array_equal(getattr(model, name), getattr(ref, name)), name
    for name in ("gamma", "theta", "t_lower", "b_skew"):
        assert np.array_equal(getattr(model.schur, name),
                              getattr(ref.schur, name)), name
    with pytest.raises(ValueError, match="vanilla"):
        init_model(8, 3, 5, cell_kind="vanilla", scheme="henaff", seed=0)


def test_forward_nilpotent_collapse():
    """Strictly-lower-triangular V at zero bias, where modReLU is the
    identity, zeroes the state after n steps."""
    v = np.tril(np.ones((6, 6)), -1)
    rng = np.random.default_rng(2)
    h = trace(np.zeros((8, 3, 6)), rng.normal(size=(3, 6)))
    rnn_forward(v, h, np.zeros(6))
    assert np.all(h[6:] == 0.0)
    assert np.any(h[5] != 0.0)


def test_loss_uniform_logits():
    model = init_model(8, 3, 5, seed=0)
    model.w_out[:] = 0.0
    batch = random_batch(4, 6, 3, 5, seed=3)
    fwd = forward(model, batch)
    assert abs(fwd.loss - np.log(5.0)) < 1e-12


def test_loss_masking():
    model = init_model(8, 3, 5, seed=0)
    batch = random_batch(4, 6, 3, 5, seed=4)
    batch.score_mask[:] = False
    batch.score_mask[:, -1] = True
    fwd = forward(model, batch)
    assert fwd.n_scored == 4
    # manual cross entropy on the last step; its rows are the last four
    # of the time-major head
    logits = np.einsum("bn,on->bo", fwd.hidden[-1], model.w_out) + model.b_out
    logp = logits - np.log(np.sum(np.exp(logits), axis=-1, keepdims=True))
    manual = -np.mean(logp[np.arange(4), batch.targets[:, -1]])
    assert abs(fwd.loss - manual) < 1e-12
    assert_rel_close(fwd.probs[-4:], np.exp(logp), "probs")


def test_head_nothing_scored():
    model = init_model(8, 3, 5, seed=0)
    batch = random_batch(4, 6, 3, 5, seed=4)
    batch.score_mask[:] = False
    fwd = forward(model, batch)
    grads = bptt(model, batch, fwd=fwd)
    assert fwd.n_scored == 0 and fwd.loss == 0.0
    for name in ("w_out", "b_out", "u_in", "v"):
        assert np.all(getattr(grads, name) == 0.0), name


def test_head_ignores_targets_at_unscored_steps():
    """Targets at unscored steps are never read, even out of range."""
    d_out = 5
    model = init_model(8, 3, d_out, seed=0)
    valid = random_batch(4, 6, 3, d_out, seed=4)
    valid.score_mask[:, ::2] = False
    bad = random_batch(4, 6, 3, d_out, seed=4)
    bad.score_mask[:] = valid.score_mask
    bad.targets[:, 0] = -1
    bad.targets[:, 2] = d_out
    runs = []
    for batch in (valid, bad):
        fwd = forward(model, batch)
        runs.append((fwd.loss, bptt(model, batch, fwd=fwd)))
    (loss_v, g_v), (loss_b, g_b) = runs
    assert loss_v == loss_b
    for name in ("u_in", "b_hidden", "w_out", "b_out", "v"):
        assert np.array_equal(getattr(g_v, name), getattr(g_b, name)), name


@pytest.mark.parametrize("target", [-1, 5])
def test_head_rejects_scored_target_out_of_range(target):
    model = init_model(8, 3, 5, seed=0)
    batch = random_batch(4, 6, 3, 5, seed=4)
    batch.targets[2, 3] = target
    with pytest.raises(ValueError, match="scored targets"):
        forward(model, batch)


def test_head_large_output_bias_stays_finite():
    model = init_model(8, 3, 5, seed=0)
    model.b_out[2] = 1e3
    batch = random_batch(4, 6, 3, 5, seed=4)
    fwd = forward(model, batch)
    grads = bptt(model, batch, fwd=fwd)
    assert np.isfinite(fwd.loss) and fwd.loss > 0.0
    for name in ("u_in", "b_hidden", "w_out", "b_out", "v"):
        assert np.all(np.isfinite(getattr(grads, name))), name
    for name in ("gamma", "theta", "t_lower", "b_skew"):
        assert np.all(np.isfinite(getattr(grads.schur, name))), name


def test_bptt_leaves_forward_result_reusable():
    """``bptt`` does not consume the cached probabilities in place."""
    model = init_model(8, 3, 5, seed=0)
    batch = random_batch(4, 6, 3, 5, seed=4)
    batch.score_mask[1, :3] = False
    fwd = forward(model, batch)
    first, second = bptt(model, batch, fwd=fwd), bptt(model, batch, fwd=fwd)
    for name in ("u_in", "b_hidden", "w_out", "b_out", "v"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    for name in ("gamma", "theta", "t_lower", "b_skew"):
        assert np.array_equal(getattr(first.schur, name),
                              getattr(second.schur, name)), name


def test_bptt_finite_differences():
    n, d_in, d_out, t_len, b = 6, 3, 4, 5, 2
    model = init_model(n, d_in, d_out, seed=5)
    rng = np.random.default_rng(6)
    model.b_hidden = rng.normal(size=n) * 0.1
    batch = random_batch(b, t_len, d_in, d_out, seed=7)
    grads = bptt(model, batch)
    eps = 1e-6

    def loss():
        return forward(model, batch).loss

    def check(arr, g, label, picks=6):
        flat, gf = arr.ravel(), g.ravel()
        idx = np.random.default_rng(8).choice(
            flat.size, size=min(picks, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss()
            flat[i] = orig - eps
            lm = loss()
            flat[i] = orig
            num = (lp - lm) / (2 * eps)
            assert abs(num - gf[i]) <= 1e-5 * max(1.0, abs(num)), label

    check(model.u_in, grads.u_in, "u_in")
    check(model.b_hidden, grads.b_hidden, "b_hidden")
    check(model.w_out, grads.w_out, "w_out")
    check(model.b_out, grads.b_out, "b_out")
    p = model.schur
    check(p.gamma, grads.schur.gamma, "gamma")
    check(p.theta, grads.schur.theta, "theta")
    mask = t_lower_mask(n)
    for i, j in list(zip(*np.where(mask)))[:6]:
        orig = p.t_lower[i, j]
        p.t_lower[i, j] = orig + eps
        lp = loss()
        p.t_lower[i, j] = orig - eps
        lm = loss()
        p.t_lower[i, j] = orig
        num = (lp - lm) / (2 * eps)
        assert abs(num - grads.schur.t_lower[i, j]) <= 1e-5 * max(1.0, abs(num))
    for i, j in list(zip(*np.where(np.tril(np.ones((n, n), bool), -1))))[:6]:
        orig = p.b_skew[i, j]
        p.b_skew[i, j] = orig + eps
        p.b_skew[j, i] = -(orig + eps)
        lp = loss()
        p.b_skew[i, j] = orig - eps
        p.b_skew[j, i] = -(orig - eps)
        lm = loss()
        p.b_skew[i, j] = orig
        p.b_skew[j, i] = -orig
        num = (lp - lm) / (2 * eps)
        assert abs(num - grads.schur.b_skew[i, j]) <= 1e-5 * max(1.0, abs(num))


def trace(pre, h0):
    """A fresh (T+1, B, n) trace holding h0 and the pre-activations, for
    :func:`rnn_forward` to overwrite."""
    return np.concatenate([h0[None], pre])


def backward_per_step(v, h, gout):
    """Reference sweep that masks each step's gradient with that step's
    output and accumulates dV and dbias step by step."""
    t_len, batch, n = gout.shape
    dv, dbias = np.zeros((n, n)), np.zeros(n)
    dpre = np.empty((t_len, batch, n))
    dh = np.zeros((batch, n))
    for t in range(t_len, 0, -1):
        dh = dh + gout[t - 1]
        dz = np.where(h[t] != 0.0, dh, 0.0)
        dpre[t - 1] = dz
        dbias += np.sum(dz * np.sign(h[t]), axis=0)
        dv += dz.T @ h[t - 1]
        dh = dz @ v
    return dv, dbias, dpre


def forward_per_step(v, pre, bias, h0):
    """Reference recurrence: a transposed-operand GEMM and the select form
    of modReLU at every step."""
    h = [h0]
    for t in range(pre.shape[0]):
        h.append(modrelu_oracle(h[-1] @ v.T + pre[t], bias))
    return np.stack(h)


@pytest.mark.parametrize("b,t_len,n", [
    (10, 70, 128),   # copy task
    (8, 150, 64),    # char-LM
])
def test_rnn_forward_matches_per_step_oracle(b, t_len, n):
    """The recurrence agrees with the per-step select-form oracle, with a
    bias that cuts some units and a carried initial state."""
    rng = np.random.default_rng(13)
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    pre = rng.normal(size=(t_len, b, n))
    bias = rng.normal(size=n) * 0.5
    h0 = rng.normal(size=(b, n))
    h = rnn_forward(v, trace(pre, h0), bias)
    ref = forward_per_step(v, pre, bias, h0)
    assert np.any(ref[1:] == 0.0)
    assert np.array_equal(h == 0.0, ref == 0.0)
    assert_rel_close(h, ref, "hidden")


@pytest.mark.parametrize("zero_bias", [False, True])
@pytest.mark.parametrize("n,t_len,b", [
    (32, 40, 6),
    (128, 70, 10),   # copy task
    (64, 150, 8),    # char-LM
])
def test_rnn_backward_matches_per_step_accumulation(n, t_len, b, zero_bias):
    """The mask taken once before the sweep gives the same pre-activation
    gradients as masking step by step, and the after-sweep contraction for
    dV and dbias sums the same terms as a per-step accumulation, only in
    another order.  At zero bias modReLU is the identity."""
    rng = np.random.default_rng(12)
    v = rng.normal(0, 1 / np.sqrt(n), (n, n))
    bias = rng.normal(size=n) * 0.5  # cuts some units, so the mask matters
    if zero_bias:
        bias[:] = 0.0
    h = rnn_forward(v, trace(rng.normal(size=(t_len, b, n)),
                             rng.normal(size=(b, n))), bias)
    assert zero_bias or np.any(h[1:] == 0.0)
    gout = rng.normal(size=(t_len, b, n))
    dpre = gout.copy()
    dv, dbias = rnn_backward(v, h, dpre)
    ref_dv, ref_dbias, ref_dpre = backward_per_step(v, h, gout)
    assert np.array_equal(dpre, ref_dpre)
    assert np.linalg.norm(dv - ref_dv) <= 1e-13 * np.linalg.norm(ref_dv)
    assert np.linalg.norm(dbias - ref_dbias) <= 1e-13 * np.linalg.norm(ref_dbias)


def assert_rel_close(got, ref, label, tol=1e-13):
    err = np.linalg.norm(got - ref)
    assert err <= tol * np.linalg.norm(ref), (label, err)


@pytest.mark.parametrize("zero_bias", [False, True])
@pytest.mark.parametrize("carry", [False, True])
@pytest.mark.parametrize("b,t_len,n,d_in,d_out", [
    (10, 70, 128, 10, 9),    # copy task
    (8, 150, 64, 56, 56),    # char-LM
])
def test_projections_match_einsum(b, t_len, n, d_in, d_out, carry, zero_bias):
    """The GEMM input projection, output head and head gradients agree
    with the einsum contractions they replaced.  ``carry`` adds an h0 and
    a partial score mask; ``zero_bias`` keeps the initial hidden bias, at
    which modReLU is the identity."""
    model = init_model(n, d_in, d_out, scheme="cayley", seed=3)
    rng = np.random.default_rng(4)
    if not zero_bias:
        model.b_hidden = rng.normal(size=n) * 0.1
    model.b_out = rng.normal(size=d_out)
    batch = random_batch(b, t_len, d_in, d_out, seed=5)
    if carry:
        batch.h0 = rng.normal(size=(b, n))
        batch.score_mask = rng.random((b, t_len)) < 0.6
    fwd = forward(model, batch)
    grads = bptt(model, batch, fwd=fwd)

    h0 = batch.h0 if carry else np.zeros((b, n))
    pre = np.einsum("btd,nd->tbn", batch.inputs, model.u_in)
    h = rnn_forward(fwd.v, trace(pre, h0), model.b_hidden)
    logits = np.einsum("tbn,on->bto", h[1:], model.w_out) + model.b_out
    mask = batch.score_mask
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    assert_rel_close(fwd.hidden, h, "hidden")
    assert_rel_close(fwd.probs, p.transpose(1, 0, 2).reshape(-1, d_out),
                     "probs")

    onehot = np.eye(d_out)[batch.targets]
    dlogits = (p - onehot) * mask[..., None] / mask.sum()
    dw_out = np.einsum("bto,tbn->on", dlogits, h[1:])
    dpre = np.einsum("bto,on->tbn", dlogits, model.w_out)
    dv, dbias = rnn_backward(fwd.v, h, dpre)
    du_in = np.einsum("tbn,btd->nd", dpre, batch.inputs)
    ref_schur = backward_v(model.schur, dv, fwd.schur_cache)

    assert_rel_close(grads.u_in, du_in, "u_in")
    assert_rel_close(grads.b_hidden, dbias, "b_hidden")
    assert_rel_close(grads.w_out, dw_out, "w_out")
    assert_rel_close(grads.b_out, dlogits.sum(axis=(0, 1)), "b_out")
    assert_rel_close(grads.v, dv, "v")
    for name in ("gamma", "theta", "t_lower", "b_skew"):
        assert_rel_close(getattr(grads.schur, name),
                         getattr(ref_schur, name), name)


def carried_batch(b, t_len, n, d_in, d_out):
    """A model whose hidden bias cuts some units, and a batch with a
    carried h0 and a partial score mask."""
    model = init_model(n, d_in, d_out, scheme="cayley", seed=3)
    rng = np.random.default_rng(4)
    model.b_hidden = rng.normal(size=n) * 0.1
    model.b_out = rng.normal(size=d_out)
    batch = random_batch(b, t_len, d_in, d_out, seed=5)
    batch.h0 = rng.normal(size=(b, n))
    batch.score_mask = rng.random((b, t_len)) < 0.6
    return model, batch


TRAINING_SHAPES = [
    (10, 70, 128, 10, 9),    # copy task
    (8, 150, 64, 56, 56),    # char-LM
]


@pytest.mark.parametrize("b,t_len,n,d_in,d_out", TRAINING_SHAPES)
def test_in_place_recurrence_matches_allocating_oracle_bitwise(
        b, t_len, n, d_in, d_out):
    """Working in one trace buffer per direction changes no bit of the
    forward pass or of any gradient against the allocating formulation."""
    model, batch = carried_batch(b, t_len, n, d_in, d_out)
    fwd = forward(model, batch)
    grads = bptt(model, batch, fwd=fwd)
    ref_fwd = rnn_alloc_oracle.forward(model, batch)
    ref = rnn_alloc_oracle.bptt(model, batch, ref_fwd)

    assert np.any(ref_fwd.hidden[1:] == 0.0)
    assert np.array_equal(fwd.hidden, ref_fwd.hidden)
    assert np.array_equal(fwd.final_hidden, ref_fwd.final_hidden)
    assert np.array_equal(fwd.probs, ref_fwd.probs)
    assert fwd.loss == ref_fwd.loss
    for name in ("u_in", "b_hidden", "w_out", "b_out", "v"):
        assert np.array_equal(getattr(grads, name), getattr(ref, name)), name
    for name in ("gamma", "theta", "t_lower", "b_skew"):
        assert np.array_equal(getattr(grads.schur, name),
                              getattr(ref.schur, name)), name


def with_inputs(batch, inputs):
    return SequenceBatch(inputs=inputs, targets=batch.targets,
                         score_mask=batch.score_mask, h0=batch.h0)


@pytest.mark.parametrize("b,t_len,n,d_in,d_out", TRAINING_SHAPES)
def test_token_ids_match_one_hot_features_bitwise(b, t_len, n, d_in, d_out):
    """Token ids, gathered from u_inᵀ, give the same bits in the forward
    pass and in every gradient as the same batch fed as one-hot float
    features through the projection GEMM."""
    model, batch = carried_batch(b, t_len, n, d_in, d_out)
    ids = np.random.default_rng(6).integers(0, d_in, size=(b, t_len))
    id_batch = with_inputs(batch, ids)
    float_batch = with_inputs(batch, np.eye(d_in)[ids])
    fwd = forward(model, id_batch)
    grads = bptt(model, id_batch, fwd=fwd)
    ref_fwd = forward(model, float_batch)
    ref = bptt(model, float_batch, fwd=ref_fwd)

    assert np.array_equal(fwd.hidden, ref_fwd.hidden)
    assert np.array_equal(fwd.probs, ref_fwd.probs)
    assert fwd.loss == ref_fwd.loss
    for name in ("u_in", "b_hidden", "w_out", "b_out", "v"):
        assert np.array_equal(getattr(grads, name), getattr(ref, name)), name
    for name in ("gamma", "theta", "t_lower", "b_skew"):
        assert np.array_equal(getattr(grads.schur, name),
                              getattr(ref.schur, name)), name


@pytest.mark.parametrize("bad", [-1, 3, 4])
def test_token_ids_out_of_range_raise(bad):
    """The gather clamps out-of-range ids, so forward rejects them first."""
    model = init_model(8, 3, 2, seed=0)
    ids = np.zeros((2, 5), dtype=np.int64)
    ids[1, 3] = bad
    batch = SequenceBatch(
        inputs=ids,
        targets=np.zeros((2, 5), dtype=np.int64),
        score_mask=np.ones((2, 5), dtype=bool),
    )
    with pytest.raises(ValueError, match="input ids"):
        forward(model, batch)
    with pytest.raises(ValueError, match="input ids"):
        bptt(model, batch)


@pytest.mark.parametrize("inputs,message", [
    (np.zeros((2, 5)), "integer token ids"),
    (np.zeros((2, 5), dtype=bool), "integer token ids"),
    (np.zeros(10, dtype=np.int64), "inputs must be"),
])
def test_batch_rejects_inputs_that_are_not_ids_or_features(inputs, message):
    with pytest.raises(ValueError, match=message):
        SequenceBatch(
            inputs=inputs,
            targets=np.zeros((2, 5), dtype=np.int64),
            score_mask=np.ones((2, 5), dtype=bool),
        )


@pytest.mark.parametrize("b,t_len,n,d_in,d_out,budget", [
    (10, 70, 128, 10, 9, 6.4),
    (8, 150, 64, 56, 56, 5.85),
])
def test_bptt_allocation_budget(b, t_len, n, d_in, d_out, budget):
    """Peak traced allocation of one ``bptt`` call, forward included, in
    units of one (T, B, n) float64 trace.  The recurrence owns one trace
    buffer per direction; a separate pre-activation array or head-gradient
    array would add about one more unit."""
    model, batch = carried_batch(b, t_len, n, d_in, d_out)
    bptt(model, batch)  # warm up lazily allocated numpy and BLAS state
    tracemalloc.start()
    try:
        bptt(model, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (t_len * b * n * 8) < budget


def test_non_finite_hidden_raises():
    # gamma scales every rotation block, so |V h| = 1e8 |h| at zero T
    model = init_model(4, 2, 2, seed=0)
    model.schur.gamma[:] = 1e8
    batch = SequenceBatch(
        inputs=np.ones((1, 60, 2)),
        targets=np.zeros((1, 60), dtype=np.int64),
        score_mask=np.ones((1, 60), dtype=bool),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            forward(model, batch)

