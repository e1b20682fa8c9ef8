"""Task generators: the copy task and character-level next-character
prediction over a plain-text corpus.  Both emit (B, T) integer token ids
as inputs.

Copy task layout (delay T, total length T + 20): 10 random data symbols
(ids 0..7), T - 1 blanks (id 8), one marker (id 9), then 10 blanks.
Targets are blank for the first T + 10 steps and the data symbols for the
last 10.  The whole sequence is scored, so the predictor that says "blank"
for the first T + 10 steps and is uniform over the 8 data symbols after
achieves exactly 10 ln(8) / (T + 20) mean cross entropy, which is the
natural baseline for the task.
"""

from dataclasses import dataclass, field

import numpy as np

from .rnn import SequenceBatch

__all__ = [
    "CopyTaskSpec",
    "copy_batch",
    "copy_stream",
    "CharLmSpec",
    "char_lm_stream",
    "COPY_N_SYMBOLS",
    "COPY_N_DATA",
]

COPY_N_SYMBOLS = 8    # distinct data symbols
COPY_N_DATA = 10      # symbols to memorize and recall
BLANK = COPY_N_SYMBOLS          # id 8
MARKER = COPY_N_SYMBOLS + 1     # id 9, input-only
COPY_D_IN = COPY_N_SYMBOLS + 2      # input ids: data + blank + marker
COPY_D_OUT = COPY_N_SYMBOLS + 1     # marker is never a target


@dataclass(frozen=True)
class CopyTaskSpec:
    delay: int
    batch_size: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.delay < 1:
            raise ValueError("delay must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @property
    def seq_len(self):
        return self.delay + 2 * COPY_N_DATA


def copy_batch(spec, rng):
    """One batch of copy-task sequences, its data symbols drawn from the
    generator ``rng``."""
    b, t_len, delay = spec.batch_size, spec.seq_len, spec.delay

    data = rng.integers(0, COPY_N_SYMBOLS, size=(b, COPY_N_DATA))

    inputs = np.full((b, t_len), BLANK, dtype=np.int64)
    inputs[:, :COPY_N_DATA] = data
    inputs[:, delay + COPY_N_DATA - 1] = MARKER

    targets = np.full((b, t_len), BLANK, dtype=np.int64)
    targets[:, delay + COPY_N_DATA:] = data

    return SequenceBatch(inputs=inputs, targets=targets)


def copy_stream(spec):
    """Endless iterator of fresh copy-task batches from one seeded RNG."""
    rng = np.random.default_rng(spec.seed)
    while True:
        yield copy_batch(spec, rng)


# --- character-level prediction ----------------------------------------------

@dataclass
class CharLmSpec:
    corpus_path: str
    window: int = 150
    batch_size: int = 8
    seed: int = 0
    # the corpus's distinct bytes, sorted, and each byte's index among them
    alphabet: np.ndarray = field(init=False, repr=False)
    ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        with open(self.corpus_path, "rb") as fh:
            raw = fh.read()
        if len(raw) < self.window + 1:
            raise ValueError("corpus shorter than one window")
        self.alphabet, self.ids = np.unique(np.frombuffer(raw, np.uint8),
                                            return_inverse=True)

    @property
    def vocab_size(self):
        return len(self.alphabet)


class _CharLmStream:
    """Batch lanes walk contiguous non-overlapping slices of the corpus.

    Lane l owns the id range [l * span, (l + 1) * span); windows advance by
    ``window`` characters each batch and wrap around within the lane.  The
    trainer detects ``carry_hidden`` and reuses each window's final hidden
    state as the next window's h0 (no gradient crosses the boundary).
    """

    carry_hidden = True

    def __init__(self, spec):
        self.spec = spec
        ids = spec.ids
        # each window consumes `window` inputs and needs one lookahead target
        usable = len(ids) - 1
        span = usable // spec.batch_size
        if span < spec.window:
            raise ValueError("corpus too short for this batch/window geometry")
        self.span = span
        self.offsets = np.zeros(spec.batch_size, dtype=np.int64)

    def __iter__(self):
        return self

    def __next__(self):
        w, b = self.spec.window, self.spec.batch_size
        # A lane wraps when its next window would run past its span + 1 ids.
        starts = np.where(self.offsets + w > self.span, 0, self.offsets)
        ids = self.spec.ids[(np.arange(b) * self.span + starts)[:, None]
                            + np.arange(w + 1)]
        self.offsets = starts + w
        return SequenceBatch(inputs=ids[:, :-1], targets=ids[:, 1:])


def char_lm_stream(spec):
    """Truncated-BPTT batch stream over the corpus with per-lane
    contiguous windows and hidden-state carry-over."""
    return _CharLmStream(spec)
