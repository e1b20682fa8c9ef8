import csv

import numpy as np
import pytest

from schurrnn import tasks
from schurrnn.optim import (
    LOG_COLUMNS,
    DivergenceError,
    TrainConfig,
    rmsprop_step,
    train_loop,
    write_log_csv,
)
from schurrnn.rnn import init_model
from schurrnn.schur import assemble_v, backward_v, init_params, t_lower_mask


def test_rmsprop_hand_value():
    # zero state, grad 1, lr 0.1, alpha 0.9:
    # state -> 0.1, param -> -0.1 / (sqrt(0.1) + 1e-8)
    p, s = rmsprop_step(np.zeros(1), np.ones(1), np.zeros(1), 0.1, 0.9)
    assert abs(s[0] - 0.1) < 1e-15
    assert abs(p[0] + 0.1 / (np.sqrt(0.1) + 1e-8)) < 1e-15


def test_rmsprop_state_accumulation():
    s = np.zeros(1)
    p = np.zeros(1)
    for _ in range(3):
        p, s = rmsprop_step(p, np.full(1, 2.0), s, 0.01, 0.5)
    # state: 2, 3, 3.5
    assert abs(s[0] - 3.5) < 1e-14


@pytest.mark.parametrize("n", [4, 64, 128])
def test_backward_v_b_skew_gradient_exactly_skew(n):
    """The pullback returns the generator's gradient as X - Xᵀ, exactly
    skew, which is what lets plain RMSprop step B."""
    rng = np.random.default_rng(n)
    params = init_params(n, scheme="random_orth", rng_seed=n)
    params.t_lower = rng.normal(size=(n, n)) * t_lower_mask(n)
    _, cache = assemble_v(params)
    g = backward_v(params, rng.normal(size=(n, n)), cache).b_skew
    assert np.any(g != 0.0)
    assert np.array_equal(g, -g.T)


def test_train_loop_keeps_b_skew_exactly_skew():
    """RMSprop of an exactly skew B with an exactly skew gradient keeps B
    exactly skew at every update, so P = exp(B) stays orthogonal."""
    class Checked:
        def __init__(self, inner, params):
            self.inner, self.params, self.updates = inner, params, 0

        def __iter__(self):
            return self

        def __next__(self):
            # called before every update, so B is checked after each one
            b = self.params.b_skew
            assert np.array_equal(b, -b.T), self.updates
            self.updates += 1
            return next(self.inner)

    n = 8
    spec = tasks.CopyTaskSpec(delay=3, batch_size=4, seed=0)
    model = init_model(n, tasks.COPY_D_IN, tasks.COPY_D_OUT,
                       scheme="random_orth", seed=0)
    b_start = model.schur.b_skew.copy()
    stream = Checked(tasks.copy_stream(spec), model.schur)
    train_loop(model, stream, TrainConfig(max_updates=500, log_every=0,
                                          lr_orth=1e-3))
    b = model.schur.b_skew
    assert stream.updates == 500
    assert np.array_equal(b, -b.T)
    assert np.linalg.norm(b - b_start) > 0.1
    from scipy.linalg import expm
    q = expm(b)
    assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-12


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(rms_alpha=1.5)
    with pytest.raises(ValueError):
        TrainConfig(gamma_mode="nope")
    with pytest.raises(ValueError):
        TrainConfig(gamma_mode="clamped", gamma_clamp=0.0)


def test_train_loop_smoke_and_loss_decrease():
    spec = tasks.CopyTaskSpec(delay=5, batch_size=8, seed=0)
    model = init_model(16, tasks.COPY_D_IN, tasks.COPY_D_OUT, seed=0)
    cfg = TrainConfig(max_updates=120, log_every=20)
    res = train_loop(model, tasks.copy_stream(spec), cfg)
    assert len(res.records) == 6
    assert res.records[-1].loss < res.records[0].loss
    assert all(r.orth_err < 1e-10 for r in res.records)


@pytest.mark.parametrize("clamp", [1.0, 0.9])
def test_train_loop_clamped_gamma_fixed(clamp):
    # henaff starts gamma at 1, so only the 0.9 case shows that the clamp
    # is applied rather than gamma being left untouched
    spec = tasks.CopyTaskSpec(delay=3, batch_size=4, seed=0)
    model = init_model(8, tasks.COPY_D_IN, tasks.COPY_D_OUT, seed=0)
    cfg = TrainConfig(max_updates=30, log_every=10, gamma_mode="clamped",
                      gamma_clamp=clamp)
    train_loop(model, tasks.copy_stream(spec), cfg)
    assert np.all(model.schur.gamma == clamp)


def test_train_loop_free_gamma_moves():
    spec = tasks.CopyTaskSpec(delay=3, batch_size=4, seed=0)
    model = init_model(8, tasks.COPY_D_IN, tasks.COPY_D_OUT, seed=0)
    cfg = TrainConfig(max_updates=30, log_every=10, gamma_mode="free")
    train_loop(model, tasks.copy_stream(spec), cfg)
    assert np.any(model.schur.gamma != 1.0)


def test_train_loop_divergence_names_update():
    spec = tasks.CopyTaskSpec(delay=3, batch_size=4, seed=0)
    model = init_model(8, tasks.COPY_D_IN, tasks.COPY_D_OUT, seed=0)
    model.schur.gamma[:] = 1e200  # blow up the recurrence
    cfg = TrainConfig(lr=10.0, max_updates=50, log_every=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="at update 1$"):
            train_loop(model, tasks.copy_stream(spec), cfg)


def test_carry_hidden_stream_respected():
    class Recorder:
        carry_hidden = True

        def __init__(self, inner):
            self.inner = inner
            self.batches = []

        def __iter__(self):
            return self

        def __next__(self):
            b = next(self.inner)
            self.batches.append(b)
            return b

    spec = tasks.CharLmSpec("src/schurrnn/data/corpus.txt", window=20,
                            batch_size=2)
    stream = Recorder(tasks.char_lm_stream(spec))
    model = init_model(8, spec.vocab_size, spec.vocab_size, seed=0)
    train_loop(model, stream, TrainConfig(max_updates=3, log_every=0))
    # train_loop attaches the carried state to each batch after the first
    assert stream.batches[0].h0 is None
    assert stream.batches[1].h0 is not None
    assert stream.batches[2].h0 is not None
    assert np.any(stream.batches[1].h0 != 0.0)


def test_write_log_csv(tmp_path):
    spec = tasks.CopyTaskSpec(delay=3, batch_size=4, seed=0)
    model = init_model(8, tasks.COPY_D_IN, tasks.COPY_D_OUT, seed=0)
    res = train_loop(model, tasks.copy_stream(spec),
                     TrainConfig(max_updates=20, log_every=10))
    path = tmp_path / "log.csv"
    write_log_csv(res.records, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == LOG_COLUMNS
    assert len(rows) == 3


def test_training_determinism():
    def run():
        spec = tasks.CopyTaskSpec(delay=3, batch_size=4, seed=1)
        model = init_model(8, tasks.COPY_D_IN, tasks.COPY_D_OUT, seed=1)
        res = train_loop(model, tasks.copy_stream(spec),
                         TrainConfig(max_updates=25, log_every=5))
        return [r.loss for r in res.records], model.schur.b_skew.copy()

    l1, b1 = run()
    l2, b2 = run()
    assert l1 == l2
    assert np.array_equal(b1, b2)
