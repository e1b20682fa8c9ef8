import numpy as np
import pytest

from schurrnn import rnn, tasks
from schurrnn.tasks import (
    BLANK,
    COPY_D_IN,
    COPY_D_OUT,
    MARKER,
    CharLmSpec,
    CopyTaskSpec,
    char_lm_stream,
    copy_batch,
    copy_stream,
)

CORPUS = "src/schurrnn/data/corpus.txt"


def test_copy_layout():
    spec = CopyTaskSpec(delay=7, batch_size=3, seed=0)
    b = copy_batch(spec, np.random.default_rng(0))
    t_len = 7 + 20
    assert b.inputs.shape == (3, t_len)
    ids = b.inputs
    # first 10 steps: data symbols in 0..7
    assert np.all(ids[:, :10] < 8)
    # marker exactly at index T+9, blanks elsewhere after the data
    assert np.all(ids[:, 7 + 9] == MARKER)
    blanks = np.r_[np.arange(10, 7 + 9), np.arange(7 + 10, t_len)]
    assert np.all(ids[:, blanks] == BLANK)
    # targets: blank for T+10 steps, then the data
    assert np.all(b.targets[:, : 7 + 10] == BLANK)
    assert np.array_equal(b.targets[:, 7 + 10 :], ids[:, :10])
    # marker never a target; output classes are 0..8
    assert np.all(b.targets < COPY_D_OUT)


def test_copy_determinism_and_stream_freshness():
    spec = CopyTaskSpec(delay=5, batch_size=4, seed=3)
    # two streams of one spec draw the same batches
    a, b = next(copy_stream(spec)), next(copy_stream(spec))
    assert np.array_equal(a.inputs, b.inputs)
    it = copy_stream(spec)
    first, second = next(it), next(it)
    assert not np.array_equal(first.targets, second.targets)


def test_blank_then_uniform_predictor_achieves_baseline():
    """The input-independent baseline (blank with certainty for the first
    T+10 steps, uniform over the 8 data symbols afterwards) scores exactly
    10 ln(8) / (T+20) on any batch."""
    delay = 12
    spec = CopyTaskSpec(delay=delay, batch_size=16, seed=5)
    batch = copy_batch(spec, np.random.default_rng(5))
    t_len = delay + 20
    logits = np.zeros((16, t_len, COPY_D_OUT))
    logits[:, : delay + 10, BLANK] = 60.0   # certain blank
    logits[:, delay + 10 :, BLANK] = -60.0  # uniform over the data classes
    logp = logits - np.log(np.sum(np.exp(logits), axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, batch.targets[..., None], axis=-1)
    loss = float(-picked.mean())
    assert loss == pytest.approx(10 * np.log(8) / (delay + 20), rel=1e-9)


def test_copy_symbols_uniform_chi_square():
    spec = CopyTaskSpec(delay=1, batch_size=10000, seed=7)
    b = copy_batch(spec, np.random.default_rng(7))
    data = b.inputs[:, :10].ravel()  # 1e5 draws
    counts = np.bincount(data, minlength=8)
    expected = data.size / 8
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square with 7 dof: 0.001 quantiles ~ [0.60, 24.3]
    assert 0.60 < chi2 < 24.32


def test_vocabulary_and_spec_validation(tmp_path):
    # the sorted distinct bytes, and each byte's index among them
    small = tmp_path / "small.txt"
    small.write_bytes(b"cabcab")
    spec = CharLmSpec(str(small), window=2, batch_size=1)
    assert spec.alphabet.tolist() == [ord("a"), ord("b"), ord("c")]
    assert spec.ids.tolist() == [2, 0, 1, 2, 0, 1]
    assert spec.vocab_size == 3
    short = tmp_path / "short.txt"
    short.write_text("ab")
    with pytest.raises(ValueError):
        CharLmSpec(str(short), window=10, batch_size=1)
    with pytest.raises(ValueError):
        CharLmSpec(CORPUS, window=1, batch_size=1)


def test_char_lm_targets_are_shifted_inputs(tmp_path):
    path = tmp_path / "abab.txt"
    path.write_text("abababababababababab")
    spec = CharLmSpec(str(path), window=4, batch_size=2)
    stream = char_lm_stream(spec)
    batch = next(stream)
    ids = batch.inputs
    # target is the next character: a<->b alternation
    assert np.array_equal(batch.targets[:, :-1], ids[:, 1:])
    assert np.all(ids != batch.targets)  # strict alternation


def test_char_lm_lane_partition_reconstructs_corpus():
    spec = CharLmSpec(CORPUS, window=25, batch_size=4)
    stream = char_lm_stream(spec)
    span = stream.span
    collected = [[] for _ in range(4)]
    n_windows = span // 25
    for _ in range(n_windows):
        batch = next(stream)
        ids = batch.inputs
        for lane in range(4):
            collected[lane].append(ids[lane])
    recon = np.concatenate([np.concatenate(c) for c in collected])
    used = n_windows * 25
    original = np.concatenate(
        [spec.ids[l * span : l * span + used] for l in range(4)]
    )
    assert np.array_equal(recon, original)


@pytest.mark.parametrize("window,batch_size", [(37, 5), (163, 4)])
def test_char_lm_lanes_wrap_to_their_start(window, batch_size):
    # Batch span // window is the first whose window would run past the
    # lane, so every lane restarts at its first id.  At (163, 4) the
    # windows tile the 2445-id lanes exactly, so the batch before it is
    # the lane's last full window, not an early wrap.
    stream = char_lm_stream(CharLmSpec(CORPUS, window=window,
                                       batch_size=batch_size))
    batches = [next(stream) for _ in range(stream.span // window + 1)]
    assert np.array_equal(batches[-1].inputs, batches[0].inputs)
    assert np.array_equal(batches[-1].targets, batches[0].targets)
    assert not np.array_equal(batches[-2].targets, batches[0].targets)


def test_char_lm_carry_flag_and_determinism():
    spec = CharLmSpec(CORPUS, window=30, batch_size=3)
    s1 = char_lm_stream(spec)
    assert s1.carry_hidden is True
    s2 = char_lm_stream(CharLmSpec(CORPUS, window=30, batch_size=3))
    for _ in range(3):
        a, b = next(s1), next(s2)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


@pytest.mark.parametrize("task", ["copy", "char_lm"])
def test_streams_emit_integer_ids_in_range(task):
    if task == "copy":
        stream, d_in = copy_stream(CopyTaskSpec(delay=30, seed=2)), COPY_D_IN
    else:
        spec = CharLmSpec(CORPUS, window=150, batch_size=8)
        stream, d_in = char_lm_stream(spec), spec.vocab_size
    for _ in range(100):
        ids = next(stream).inputs
        assert ids.ndim == 2 and np.issubdtype(ids.dtype, np.integer)
        assert ids.min() >= 0 and ids.max() < d_in


def test_untrained_loss_near_max_entropy(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "uniform.txt"
    path.write_bytes(bytes(rng.integers(97, 107, size=5000).tolist()))
    spec = CharLmSpec(str(path), window=40, batch_size=2)
    model = rnn.init_model(16, spec.vocab_size, spec.vocab_size, seed=0)
    model.w_out[:] = 0.0
    fwd = rnn.forward(model, next(char_lm_stream(spec)))
    assert fwd.loss == pytest.approx(np.log(spec.vocab_size), abs=1e-10)
