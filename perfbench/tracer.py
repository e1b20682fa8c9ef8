"""Span tracing of the schurrnn package from outside it.

The package is not edited: :class:`Tracer` replaces named public functions
with timing wrappers for the length of a ``with`` block, in every
``schurrnn`` module that holds a reference to them (``from .linalg import
expm`` makes a second reference in ``schur``).  A function that does not
exist, because a refactor removed or renamed it, is recorded as absent.

Spans stay in memory as ``[name, start, end, parent, op]`` and are
summarised, and optionally written out, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

import functools
import importlib
import json
import sys
import time

# Metric prefix -> candidate locations "module:attribute.path"; the first
# one that resolves to a callable is wrapped.
TARGETS = (
    ("optim.train_loop", ("schurrnn.optim:train_loop",)),
    ("optim.rmsprop", ("schurrnn.optim:rmsprop_step",)),
    ("optim.stiefel", ("schurrnn.optim:stiefel_step",)),
    ("rnn.forward", ("schurrnn.rnn:forward",)),
    ("rnn.bptt", ("schurrnn.rnn:bptt",)),
    ("schur.assemble_v", ("schurrnn.schur:assemble_v",)),
    ("schur.backward_v", ("schurrnn.schur:backward_v",)),
    ("schur.regularizer", ("schurrnn.schur:regularizer_loss_and_grads",)),
    ("linalg.expm", ("schurrnn.linalg:expm",)),
    ("linalg.expm_frechet", ("schurrnn.linalg:expm_frechet",)),
    ("kernels.rnn_forward", ("schurrnn._backend:kernels.rnn_forward",
                             "schurrnn.rnn:rnn_forward")),
    ("kernels.rnn_backward", ("schurrnn._backend:kernels.rnn_backward",
                              "schurrnn.rnn:rnn_backward")),
    ("memory.fisher_memory_curve", ("schurrnn.memory:fisher_memory_curve",)),
    ("memory.transient_ensemble", ("schurrnn.memory:transient_ensemble",)),
    ("memory.fmc_from_theta", ("schurrnn.memory:fmc_from_theta",)),
    ("memory.power_blocks", ("schurrnn.memory:_power_blocks",)),
    ("memory.covariance_factor", ("schurrnn.memory:_covariance_factor",)),
)


class Recorder:
    """In-memory span store.  ``op`` is set by the caller to the index of
    the operation in progress, so the spans of one op share it."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])

    def exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def totals(self):
        """name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return out

    def root_seconds(self):
        """Summed duration of the spans that have no parent."""
        return sum(e - s for _, s, e, parent, _ in self.spans if parent < 0)

    def write(self, path):
        """One JSON array per span: name, start and duration in
        microseconds, parent index, op index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e6, 1),
                                     round((end - start) * 1e6, 1),
                                     parent, op]) + "\n")


def _resolve(location):
    module_name, _, path = location.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def _wrap(name, fn, recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit()

    return traced


class Tracer:
    """Context manager that installs the wrappers and restores the
    original functions on exit."""

    def __init__(self, recorder, targets=TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.absent = []
        self._patches = []

    def __enter__(self):
        for name, locations in self.targets:
            found = next(filter(None, map(_resolve, locations)), None)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = _wrap(name, fn, self.recorder)
            holders = [m for key, m in list(sys.modules.items())
                       if key == "schurrnn" or key.startswith("schurrnn.")]
            if owner not in holders:
                holders.append(owner)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, fn))
        return self

    def __exit__(self, *exc):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()
        return False
