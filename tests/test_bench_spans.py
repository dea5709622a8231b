"""The benchmark's tracer (bench/tracing.py) wraps xlalign entry points by
module attribute, so renaming or dropping one breaks the traced benchmark
run, and a loop that stops calling a wrapped name leaves its span at zero;
this catches both in the regular suite."""

import importlib.util
from pathlib import Path

from xlalign.cipher import gen_cipher_corpus
from xlalign.encoders import new_encoder
from xlalign.objectives import TrainSchedule, new_decoder, train_joint_seq2seq
from xlalign.text import NoiseParams, build_vocab

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_entry_point_exists():
    tracing = _tracing()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.SPANS
               if not hasattr(owner, attr)]
    assert tracing.SPANS and not missing


def test_a_traced_joint_run_reaches_every_training_span():
    tracing = _tracing()
    corpus = gen_cipher_corpus(20, 30, (3, 6), seed=5).corpus
    vocabs = {lang: build_vocab(corpus[lang], 1) for lang in corpus.langs}
    encs = {lang: new_encoder(len(vocabs[lang]), 8, 8, lang, seed=i)
            for i, lang in enumerate(corpus.langs)}
    dec = new_decoder(len(vocabs["la"]), 8, 16, 8, "la", seed=3)
    steps = 6
    with tracing.traced(tracing.Tracer()) as tracer:
        train_joint_seq2seq(corpus, encs, dec, vocabs, "la",
                            TrainSchedule(4, steps, 1e-3, ["la", "lb"], seed=1),
                            NoiseParams(seed=1))
    assert tracer.calls["objectives.loss"] == steps
    for name in ("autodiff.backward", "encoders.encode_batch", "objectives.decode", "text.prep",
                 "optim.adam"):
        assert tracer.calls[name] >= 1, name
