"""Outside-in layer tracing for the benchmark.

Spans are recorded around calls into xlalign's public functions by replacing
module attributes for the duration of a traced pass; nothing under ``src/``
knows about it. A span's self time is its duration minus the durations of the
spans it directly encloses, so nested layers (an ``encode_batch`` inside a
``seq2seq_loss``) are not counted twice.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from xlalign import (autodiff, checkpoint, cipher, encoders, evaluation, mapping,
                     objectives, optim, pipeline, text)

# (owner, attribute, span name). An attribute imported by name into a second
# module is patched there too, since callers there look it up locally.
SPANS = [
    (autodiff, "backward", "autodiff.backward"),
    (encoders, "encode_batch", "encoders.encode_batch"),
    (objectives, "encode_batch", "encoders.encode_batch"),
    (encoders, "encode_sif_matrix", "encoders.sif"),
    (objectives, "decode_ce_sum", "objectives.decode"),
    (objectives, "seq2seq_loss", "objectives.loss"),
    (text.Vocabulary, "encode", "text.prep"),
    (encoders, "pad_batch", "text.prep"),
    (objectives, "pad_batch", "text.prep"),
    (objectives, "corrupt", "text.prep"),
    (objectives, "teacher_forcing_arrays", "text.prep"),
    (optim.Adam, "apply", "optim.adam"),
    (evaluation, "retrieval_accuracy", "evaluation.retrieval"),
    (evaluation, "mean_document_embedding", "evaluation.doc_embed"),
    (evaluation, "train_mlp", "evaluation.mlp_train"),
    (mapping, "fit_orthogonal_map", "mapping.fit"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (mapping, "save_checkpoint", "checkpoint.save"),
    (pipeline, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (mapping, "load_checkpoint", "checkpoint.load"),
    (pipeline, "load_checkpoint", "checkpoint.load"),
    (cipher, "gen_cipher_corpus", "cipher.gen"),
    (cipher, "gen_cldc_docs", "cipher.gen"),
]


class Tracer:
    """In-memory span totals: self seconds and call counts per span name,
    plus the counters recorded at the same boundaries. `overhead_s` is the
    time spent in the tracer's own bookkeeping, counters included; it is
    excluded from every span's self time."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.overhead_s = 0.0
        self._stack = []  # [name, seconds covered by direct children]

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            self._stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, children = self._stack.pop()
                self.self_s[name] += t1 - t0 - children
                self.calls[name] += 1
                t_out = time.perf_counter()
                self.overhead_s += (t0 - t_in) + (t_out - t1)
                if self._stack:
                    self._stack[-1][1] += t_out - t_in
        return traced

    def _bookkeeping(self, t_in):
        """Charge the time since `t_in` to the tracer, not to the enclosing span."""
        spent = time.perf_counter() - t_in
        self.overhead_s += spent
        if self._stack:
            self._stack[-1][1] += spent

    def _backward(self, fn):
        timed = self.wrap("autodiff.backward", fn)

        def traced(loss):
            t_in = time.perf_counter()
            self.counts["autodiff.nodes"] += len(autodiff.topo_order(loss))
            self.counts["autodiff.steps"] += 1
            self._bookkeeping(t_in)
            return timed(loss)
        return traced

    def _save(self, fn):
        timed = self.wrap("checkpoint.save", fn)

        def traced(path, *args, **kwargs):
            out = timed(path, *args, **kwargs)
            t_in = time.perf_counter()
            self.counts["checkpoint.bytes"] += os.path.getsize(path)
            self._bookkeeping(t_in)
            return out
        return traced

    def _wrapper_for(self, name, fn):
        if name == "autodiff.backward":
            return self._backward(fn)
        if name == "checkpoint.save":
            return self._save(fn)
        return self.wrap(name, fn)


@contextmanager
def traced(tracer):
    """Route every entry point in SPANS through `tracer` until exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in SPANS]
    try:
        for (owner, attr, name), (_, _, fn) in zip(SPANS, originals):
            setattr(owner, attr, tracer._wrapper_for(name, fn))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
