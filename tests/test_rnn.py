import numpy as np
import pytest

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
    with np.errstate(invalid="ignore"):
        got = modrelu(z, b)
        ref = modrelu_oracle(z, b)
    assert np.array_equal(got, ref, equal_nan=True)


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


def test_forward_nilpotent_collapse():
    """Strictly-lower-triangular V at zero bias, where modReLU is the
    identity, zeroes the state after n steps."""
    model = init_model(6, 2, 2, cell_kind="vanilla", seed=0)
    model.v_dense = np.tril(np.ones((6, 6)), -1)
    rng = np.random.default_rng(2)
    batch = SequenceBatch(
        inputs=np.zeros((3, 8, 2)),
        targets=np.zeros((3, 8), dtype=np.int64),
        score_mask=np.zeros((3, 8), dtype=bool),
        h0=rng.normal(size=(3, 6)),
    )
    fwd = forward(model, batch)
    assert np.all(fwd.hidden[6:] == 0.0)
    assert np.any(fwd.hidden[5] != 0.0)


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


@pytest.mark.parametrize("cell_kind", ["schur", "vanilla"])
def test_bptt_finite_differences(cell_kind):
    n, d_in, d_out, t_len, b = 6, 3, 4, 5, 2
    model = init_model(n, d_in, d_out, cell_kind=cell_kind, seed=5)
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
    if cell_kind == "vanilla":
        check(model.v_dense, grads.v, "v_dense")
    else:
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


@pytest.mark.parametrize("zero_bias", [False, True])
def test_rnn_backward_matches_per_step_accumulation(zero_bias):
    """The mask taken once before the sweep gives the same pre-activation
    gradients as masking step by step, and the after-sweep contraction for
    dV and dbias sums the same terms as a per-step accumulation, only in
    another order.  At zero bias modReLU is the identity."""
    rng = np.random.default_rng(12)
    n, t_len, b = 32, 40, 6
    v = rng.normal(0, 1 / np.sqrt(n), (n, n))
    bias = rng.normal(size=n) * 0.5  # cuts some units, so the mask matters
    if zero_bias:
        bias[:] = 0.0
    h = rnn_forward(v, rng.normal(size=(t_len, b, n)), bias,
                    rng.normal(size=(b, n)))
    assert zero_bias or np.any(h[1:] == 0.0)
    gout = rng.normal(size=(t_len, b, n))
    dv, dbias, dpre = rnn_backward(v, h, gout)
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
    h = rnn_forward(fwd.v, pre, model.b_hidden, h0)
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
    gout = np.einsum("bto,on->tbn", dlogits, model.w_out)
    dv, dbias, dpre = rnn_backward(fwd.v, h, gout)
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


def test_non_finite_hidden_raises():
    model = init_model(4, 2, 2, cell_kind="vanilla", seed=0)
    model.v_dense = np.eye(4) * 1e8
    batch = SequenceBatch(
        inputs=np.ones((1, 60, 2)),
        targets=np.zeros((1, 60), dtype=np.int64),
        score_mask=np.ones((1, 60), dtype=bool),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            forward(model, batch)

