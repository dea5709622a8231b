#!/usr/bin/env python3
"""Frozen-pivot representation transfer.

A pivot-language encoder is pretrained with the denoising objective, then a
new-language encoder is regressed onto the pivot's embeddings of parallel
translations (L1 loss, Adam). The pivot never changes, so languages can be
added modularly.
"""

import numpy as np

from xlalign.cipher import gen_cipher_corpus
from xlalign.evaluation import retrieval_accuracy
from xlalign.encoders import encode_sentences, new_encoder
from xlalign.objectives import (TrainSchedule, new_decoder, train_joint_seq2seq,
                                train_transfer)
from xlalign.text import NoiseParams, ParallelCorpus, build_vocab

D = H = 24
cc = gen_cipher_corpus(vocab_size=40, n_sentences=700, length_range=(3, 8), seed=5)
train, test = cc.corpus[:500], cc.corpus[500:]
vb = build_vocab(train["lb"], 1)
va = build_vocab(train["la"], 1)

# --- step 1: pretrain the pivot encoder on monolingual data --------------------
pivot = new_encoder(len(va), D, H, "la", seed=1)
throwaway_decoder = new_decoder(len(va), D, 2 * H, H, "la", seed=2)
mono = ParallelCorpus(zip(train["la"]), "la")  # a one-language corpus
train_joint_seq2seq(mono, {"la": pivot}, throwaway_decoder, {"la": va}, "la",
                    TrainSchedule(16, 400, 1e-3, ["la"], seed=3),
                    NoiseParams(0.1, 0.1, 9))
print("pivot pretrained (denoising reconstruction, 400 steps)")

# --- step 2: regress a new encoder onto the frozen pivot -----------------------
new_enc = new_encoder(len(vb), D, H, "lb", seed=4)
pivot_before = {k: v.copy() for k, v in pivot.named_arrays().items()}
result = train_transfer(train, pivot, new_enc, vb, va,
                        TrainSchedule(16, 800, 1e-3, [], seed=6))
losses = [v for _, _, _, v in result.trace]
print(f"L1 loss: {losses[0]:.2f} -> {np.mean(losses[-20:]):.2f} over 800 steps")
assert all(np.array_equal(v, pivot_before[k]) for k, v in pivot.named_arrays().items())
print("pivot parameters bit-identical before and after (frozen)")

# --- step 3: held-out translation retrieval ------------------------------------
x = encode_sentences(test["lb"], vb, new_enc)
y = encode_sentences(test["la"], va, pivot)
for direction, a, b in (("lb>la", x, y), ("la>lb", y, x)):
    print(f"retrieval {direction}: {retrieval_accuracy(a, b, direction).accuracy:.3f}")
