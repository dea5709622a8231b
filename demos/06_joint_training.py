#!/usr/bin/env python3
"""Joint training of two encoders against one shared decoder.

Pivot-language batches reconstruct their own (denoised) input; the other
language translates into the pivot. Because a single decoder must produce
pivot text from either embedding, the two encoders are pushed into one
shared space, and alignment emerges without any explicit distance term.
"""

import numpy as np

from xlalign.cipher import gen_cipher_corpus
from xlalign.encoders import encode_sentences, new_encoder
from xlalign.evaluation import neighbor_report, retrieval_accuracy
from xlalign.objectives import TrainSchedule, new_decoder, train_joint_seq2seq
from xlalign.text import NoiseParams, build_vocab

D = H = 24
cc = gen_cipher_corpus(vocab_size=40, n_sentences=900, length_range=(3, 8), seed=5)
train, test = cc.corpus[:800], cc.corpus[800:]
vocabs = {lang: build_vocab(train[lang], 1) for lang in train.langs}

encoders = {"la": new_encoder(len(vocabs["la"]), D, H, "la", seed=1),
            "lb": new_encoder(len(vocabs["lb"]), D, H, "lb", seed=2)}
decoder = new_decoder(len(vocabs["la"]), D, 2 * H, H, "la", seed=3)

result = train_joint_seq2seq(train, encoders, decoder, vocabs, "la",
                             TrainSchedule(16, 2500, 3e-3, ["la", "lb"], seed=4),
                             NoiseParams(0.1, 0.1, 9))

# The trace alternates objectives: sdae (la>la), nmt (lb>la), sdae, nmt, ...
for step, objective, pair, value in result.trace[:4]:
    print(f"step {step}: {objective:<4s} {pair}  loss {value:.3f}")
sdae = [v for _, o, _, v in result.trace if o == "sdae"]
nmt = [v for _, o, _, v in result.trace if o == "nmt"]
print(f"sdae loss {sdae[0]:.2f} -> {np.mean(sdae[-20:]):.2f}; "
      f"nmt loss {nmt[0]:.2f} -> {np.mean(nmt[-20:]):.2f}")

# --- held-out retrieval through the emergent shared space ----------------------
x = encode_sentences(test["lb"], vocabs["lb"], encoders["lb"])
y = encode_sentences(test["la"], vocabs["la"], encoders["la"])
print("retrieval lb>la:", retrieval_accuracy(x, y).accuracy)

# --- qualitative nearest-neighbor inspection -----------------------------------
texts_b = [" ".join(s) for s in test["lb"]]
texts_a = [" ".join(t) for t in test["la"]]
print()
print(neighbor_report([(texts_b[0], x[0])],
                      {"lb (mono)": (texts_b, x), "la (cross)": (texts_a, y)}, k=3))
